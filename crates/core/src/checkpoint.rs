//! Search-state checkpointing (format v5) and crash recovery.
//!
//! Real federated searches run for days (Table V); a production server
//! must survive restarts. A [`Checkpoint`] captures everything Algorithm 1
//! needs to resume **bit-identically**: besides the supernet weights θ and
//! the architecture logits α of the v1 format, v2 adds the controller RNG
//! state, the SGD momentum, the memory pools (the staleness mask history
//! delay compensation replays), the in-flight pending-update queue, the
//! per-participant loader and bandwidth state, both training curves and
//! the communication/latency tallies; v3 extends the communication block
//! with the validation-gate rejection tallies and records the aggregator
//! selection + update norm bound, so a resumed run keeps counting rejects
//! from where it left off and cannot silently continue under a different
//! aggregation rule; v4 adds the update-compression state — the
//! compression tallies, each participant's error-feedback residual and
//! the codec configuration, which restore cross-checks against the server
//! exactly like the aggregator rule; v5 adds the population-churn state —
//! the scheduled-churn tallies, the availability-model spec, the cohort
//! sampler's RNG cursor and the per-slot eviction streaks, so a resumed
//! run samples the exact cohorts the uninterrupted run would have. A
//! search killed after round `t` and resumed from its round-`t` checkpoint
//! produces the same genotype and curves as one that never stopped.
//!
//! The on-disk layout is a little-endian binary body framed by a
//! magic/version header, an exact body length and a trailing CRC-32:
//!
//! ```text
//! magic "FRLNCKPT" | version u16 | flags u16 (0) | body-len u64
//! body … | crc32(body) u32
//! ```
//!
//! The body is read through [`crate::record`], the bounded field layer
//! the wire frame, the job spec and the job store share: every length
//! field is bounds-checked against the remaining bytes *before* any
//! allocation, every failure is a typed [`CheckpointError`], and no input
//! — truncated, bit-flipped, or adversarial — can panic the loader.
//! [`Checkpoint::save_path`] writes atomically (temp file in the same
//! directory, fsync, rename) so a crash mid-write never destroys the
//! previous good checkpoint.

use crate::crc::crc32;
use crate::metrics::StepMetric;
use crate::record::{self, put_f32s, put_f64s, put_mask, Count, Reader};
use crate::server::{LatencyStats, PendingUpdate, SearchServer};
use fedrlnas_codec::{CodecConfig, CodecSpec};
use fedrlnas_darts::ArchMask;
use fedrlnas_fed::{
    AggregatorConfig, AggregatorKind, ChurnTally, CommStats, CompressionTally, FaultTally,
    RejectTally,
};
use fedrlnas_netsim::{AvailabilitySpec, CohortSampler};
use fedrlnas_sync::RoundSnapshot;
use fedrlnas_tensor::Tensor;
use rand::rngs::StdRng;
use std::fmt;
use std::path::Path;

const MAGIC: &[u8; 8] = b"FRLNCKPT";
const V1_MAGIC: &[u8; 8] = b"FEDRLNA1";
const VERSION: u16 = 5;
/// Header: magic + version + flags + body length.
const HEADER_LEN: usize = 8 + 2 + 2 + 8;
/// Every count in the body is a `u64`.
const COUNT: Count = Count::U64;

/// Why a checkpoint could not be loaded or restored. Never panics — a
/// corrupt file on disk is an expected failure mode for a crash-recovery
/// subsystem, not a programming error.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file does not start with the checkpoint magic.
    BadMagic([u8; 8]),
    /// A checkpoint from an unsupported format version (v1 files report
    /// version 1; v2 files predate the robustness fields; v3 files predate
    /// the update-compression state; v4 files predate the population-churn
    /// state).
    UnsupportedVersion(u16),
    /// The file ends before the structure it declares. For the header,
    /// the declared body length and the trailer, `needed` is the end
    /// offset in the file and `got` the file's length; for a field inside
    /// the body, both count from the body's first byte.
    Truncated {
        /// End offset of the field that did not fit.
        needed: usize,
        /// Length of the buffer it was read from.
        got: usize,
    },
    /// The body does not hash to the stored CRC-32.
    ChecksumMismatch {
        /// CRC stored in the file.
        expected: u32,
        /// CRC computed over the body.
        got: u32,
    },
    /// Structurally invalid content (bad lengths, out-of-range indices,
    /// trailing bytes, non-zero reserved flags …).
    Malformed(&'static str),
    /// The checkpoint parsed but does not fit the server it is being
    /// restored into (different configuration or scale).
    StateMismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::BadMagic(m) => write!(f, "not a checkpoint (magic {m:02x?})"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (this build reads v5)"
                )
            }
            CheckpointError::Truncated { needed, got } => {
                write!(f, "truncated checkpoint: needed {needed} bytes, got {got}")
            }
            CheckpointError::ChecksumMismatch { expected, got } => {
                write!(
                    f,
                    "checksum mismatch: stored {expected:08x}, computed {got:08x}"
                )
            }
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CheckpointError::StateMismatch(what) => {
                write!(f, "checkpoint does not fit this server: {what}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<record::Error> for CheckpointError {
    fn from(e: record::Error) -> Self {
        match e {
            record::Error::Truncated { needed, got } => CheckpointError::Truncated { needed, got },
            record::Error::Malformed(why) => CheckpointError::Malformed(why),
        }
    }
}

/// One retained memory-pool round (the staleness history Δ rounds deep).
#[derive(Debug, Clone, PartialEq)]
pub struct PoolEntry {
    /// Round the snapshot was taken in.
    pub round: u64,
    /// Flat supernet weights of that round.
    pub theta: Vec<f32>,
    /// Flat architecture logits of that round.
    pub alpha: Vec<f32>,
    /// Per-participant masks assigned that round.
    pub masks: Vec<ArchMask>,
}

/// One in-flight stale update awaiting its arrival round.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingEntry {
    /// Round the update will surface in.
    pub arrival: u64,
    /// Round the update was computed in.
    pub computed_at: u64,
    /// Owning participant.
    pub participant: u64,
    /// Architecture the update was computed against.
    pub mask: ArchMask,
    /// Flat sub-model gradients.
    pub sub_grads: Vec<f32>,
    /// Reward carried by the update.
    pub accuracy: f32,
}

/// One participant's resumable state: loader shuffle order/cursor and the
/// bandwidth AR(1) state.
#[derive(Debug, Clone, PartialEq)]
pub struct ParticipantEntry {
    /// Shuffled shard indices.
    pub indices: Vec<u64>,
    /// Epoch cursor.
    pub cursor: u64,
    /// Current link bandwidth in Mbps.
    pub bandwidth_mbps: f64,
    /// Error-feedback residual of the update-compression layer, in
    /// supernet-flat coordinates (empty until the first lossy upload).
    pub residual: Vec<f32>,
}

/// Serialized population/churn state (v5): everything the server's churn
/// layer needs to resume cohort sampling bit-identically after a kill.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnEntry {
    /// Enrolled population size.
    pub population: u64,
    /// Cohort size — must equal the server's worker-slot count.
    pub cohort: u64,
    /// Availability-model spec driving the schedule; restore refuses a
    /// server configured differently (cohorts would silently diverge).
    pub spec: AvailabilitySpec,
    /// Cohort sampler RNG state at capture time (the draw count per round
    /// depends on availability, so the cursor cannot be recomputed).
    pub sampler_state: [u64; 4],
    /// Per-slot consecutive flapped rounds.
    pub miss_streak: Vec<u64>,
    /// Per-slot evicted flags.
    pub evicted: Vec<bool>,
}

/// A complete, serializable snapshot of the mutable search state.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Completed rounds.
    pub round: u64,
    /// Simulated wall-clock seconds consumed.
    pub sim_seconds: f64,
    /// Controller reward baseline `b_t`.
    pub baseline: f32,
    /// Controller update counter.
    pub controller_updates: u64,
    /// Raw state of the search RNG at capture time.
    pub rng_state: [u64; 4],
    /// Flat supernet weights in `visit_params` order.
    pub theta: Vec<f32>,
    /// Flat architecture logits.
    pub alpha: Vec<f32>,
    /// Flat θ-optimizer momentum (empty before the first step).
    pub velocity: Vec<f32>,
    /// Communication tally.
    pub comm: CommStats,
    /// Per-round latency statistics.
    pub latency: LatencyStats,
    /// Warm-up curve steps.
    pub warmup_curve: Vec<StepMetric>,
    /// Search curve steps.
    pub search_curve: Vec<StepMetric>,
    /// Memory-pool snapshots (staleness mask history).
    pub pools: Vec<PoolEntry>,
    /// In-flight pending updates.
    pub pending: Vec<PendingEntry>,
    /// Per-participant loader and bandwidth state.
    pub participants: Vec<ParticipantEntry>,
    /// Aggregation rule the run was using; restore refuses a server
    /// configured differently (the trajectory would silently diverge).
    pub aggregator: AggregatorConfig,
    /// Update L2 norm bound the validation gate was enforcing.
    pub update_norm_bound: Option<f32>,
    /// Update-compression codec the run was using; restore refuses a
    /// server configured differently (the error-feedback residuals and
    /// curves would silently diverge).
    pub codec: CodecConfig,
    /// Population/churn state (`None` for fixed fleets); restore
    /// cross-checks it against the server's population configuration.
    pub churn: Option<ChurnEntry>,
}

impl Checkpoint {
    /// Captures the complete resumable state of a running server plus the
    /// search RNG driving it. (`&mut` only because the supernet's parameter
    /// visitor is mutable; nothing is changed.)
    pub fn capture(server: &mut SearchServer, rng: &StdRng) -> Self {
        // a wire backend's workers hold the authoritative error-feedback
        // residuals; fold them into the server's participants first
        server.sync_backend_residuals();
        let theta = server.supernet.flat_params();
        Checkpoint {
            round: server.round as u64,
            sim_seconds: server.sim_seconds,
            baseline: server.controller.baseline(),
            controller_updates: server.controller.updates(),
            rng_state: rng.state(),
            theta,
            alpha: server.controller.alpha().logits().as_slice().to_vec(),
            velocity: server.theta_sgd.velocity_flat(),
            comm: server.comm,
            latency: server.latency.clone(),
            warmup_curve: server.warmup_curve.steps().to_vec(),
            search_curve: server.search_curve.steps().to_vec(),
            pools: server
                .pools
                .iter()
                .map(|(t, s)| PoolEntry {
                    round: t as u64,
                    theta: s.theta.clone(),
                    alpha: s.alpha.clone(),
                    masks: s.masks.clone(),
                })
                .collect(),
            pending: server
                .pending
                .iter()
                .map(|u| PendingEntry {
                    arrival: u.arrival as u64,
                    computed_at: u.computed_at as u64,
                    participant: u.participant as u64,
                    mask: u.mask.clone(),
                    sub_grads: u.sub_grads.clone(),
                    accuracy: u.accuracy,
                })
                .collect(),
            participants: server
                .participants
                .iter()
                .map(|p| ParticipantEntry {
                    indices: p.data_indices().iter().map(|&i| i as u64).collect(),
                    cursor: p.data_cursor() as u64,
                    bandwidth_mbps: p.bandwidth_mbps(),
                    residual: p.residual().to_vec(),
                })
                .collect(),
            aggregator: server.config.aggregator,
            update_norm_bound: server.config.update_norm_bound,
            codec: server.config.codec,
            churn: server.churn.as_ref().map(|c| ChurnEntry {
                population: c.population.size(),
                cohort: c.miss_streak.len() as u64,
                spec: *c.population.spec(),
                sampler_state: c.sampler.state(),
                miss_streak: c.miss_streak.clone(),
                evicted: c.evicted.clone(),
            }),
        }
    }

    /// Restores this snapshot into a freshly constructed server of the
    /// same configuration (same seed ⇒ same supernet structure, dataset
    /// partition and participant shards).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::StateMismatch`] — never panics — when the
    /// snapshot does not fit the server's structure.
    pub fn restore(&self, server: &mut SearchServer) -> Result<(), CheckpointError> {
        let mismatch = |what: String| CheckpointError::StateMismatch(what);
        // validate everything against the live structure before mutating
        let mut dims: Vec<Vec<usize>> = Vec::new();
        let mut theta_len = 0usize;
        server.supernet.visit_params(&mut |p| {
            dims.push(p.value.dims().to_vec());
            theta_len += p.value.len();
        });
        if self.theta.len() != theta_len {
            return Err(mismatch(format!(
                "theta has {} weights, supernet needs {theta_len}",
                self.theta.len()
            )));
        }
        let alpha_len = server.controller.alpha().logits().len();
        if self.alpha.len() != alpha_len {
            return Err(mismatch(format!(
                "alpha has {} logits, controller needs {alpha_len}",
                self.alpha.len()
            )));
        }
        if self.participants.len() != server.participants.len() {
            return Err(mismatch(format!(
                "snapshot has {} participants, server has {}",
                self.participants.len(),
                server.participants.len()
            )));
        }
        let edges = server.config.net.topology().num_edges();
        let check_mask = |what: &str, m: &ArchMask| {
            if m.num_edges() == edges {
                Ok(())
            } else {
                Err(mismatch(format!(
                    "{what} mask has {} edges, topology has {edges}",
                    m.num_edges()
                )))
            }
        };
        for entry in self.pools.iter() {
            if entry.theta.len() != theta_len || entry.alpha.len() != alpha_len {
                return Err(mismatch(format!(
                    "pool round {} holds {} weights and {} logits, server needs {theta_len} and {alpha_len}",
                    entry.round,
                    entry.theta.len(),
                    entry.alpha.len()
                )));
            }
            for m in &entry.masks {
                check_mask("pool", m)?;
            }
        }
        for u in &self.pending {
            check_mask("pending", &u.mask)?;
            let want = server.supernet.submodel_param_count(&u.mask);
            if u.sub_grads.len() != want {
                return Err(mismatch(format!(
                    "pending update of participant {} has {} gradients, its sub-model needs {want}",
                    u.participant,
                    u.sub_grads.len()
                )));
            }
            if u.computed_at > u.arrival {
                return Err(mismatch(format!(
                    "pending update computed in round {} arrives earlier, in round {}",
                    u.computed_at, u.arrival
                )));
            }
        }
        if self.aggregator != server.config.aggregator {
            return Err(mismatch(format!(
                "checkpoint was taken under aggregator {}, server runs {}",
                self.aggregator, server.config.aggregator
            )));
        }
        if self.update_norm_bound != server.config.update_norm_bound {
            return Err(mismatch(format!(
                "checkpoint norm bound {:?} differs from server {:?}",
                self.update_norm_bound, server.config.update_norm_bound
            )));
        }
        if self.codec != server.config.codec {
            return Err(mismatch(format!(
                "checkpoint was taken under codec {}, server runs {}",
                self.codec, server.config.codec
            )));
        }
        for (i, entry) in self.participants.iter().enumerate() {
            if !entry.residual.is_empty() && entry.residual.len() != theta_len {
                return Err(mismatch(format!(
                    "participant {i} residual has {} slots, supernet needs {theta_len}",
                    entry.residual.len()
                )));
            }
        }
        match (&self.churn, &server.config.population) {
            (None, None) => {}
            (Some(e), Some(p)) => {
                if e.population != p.size || e.cohort != p.cohort as u64 || e.spec != p.availability
                {
                    return Err(mismatch(format!(
                        "checkpoint population {}/{} ({}) differs from server {}/{} ({})",
                        e.population, e.cohort, e.spec, p.size, p.cohort, p.availability
                    )));
                }
                if e.miss_streak.len() != p.cohort || e.evicted.len() != p.cohort {
                    return Err(mismatch(format!(
                        "churn state tracks {} slots, cohort is {}",
                        e.miss_streak.len(),
                        p.cohort
                    )));
                }
            }
            (Some(_), None) => {
                return Err(mismatch(
                    "checkpoint carries population churn state, server runs a fixed fleet"
                        .to_string(),
                ))
            }
            (None, Some(_)) => {
                return Err(mismatch(
                    "server expects population churn state the checkpoint does not carry"
                        .to_string(),
                ))
            }
        }
        // θ
        let mut cursor = 0usize;
        server.supernet.visit_params(&mut |p| {
            let n = p.value.len();
            p.value
                .as_mut_slice()
                .copy_from_slice(&self.theta[cursor..cursor + n]);
            cursor += n;
        });
        // SGD momentum
        server
            .theta_sgd
            .restore_velocity(&self.velocity, &dims)
            .map_err(mismatch)?;
        // controller: α, baseline, update counter
        let logits = Tensor::from_vec(self.alpha.clone(), &[self.alpha.len()])
            .map_err(|e| mismatch(format!("alpha tensor rebuild failed: {e:?}")))?;
        *server.controller.alpha_mut() = fedrlnas_controller::Alpha::from_logits(logits, edges);
        server.controller.set_baseline(self.baseline);
        server.controller.set_updates(self.controller_updates);
        // memory pools (staleness history)
        server.pools.clear();
        for entry in &self.pools {
            server.pools.save(
                entry.round as usize,
                RoundSnapshot {
                    theta: entry.theta.clone(),
                    alpha: entry.alpha.clone(),
                    masks: entry.masks.clone(),
                },
            );
        }
        // in-flight pending updates
        server.pending = self
            .pending
            .iter()
            .map(|u| PendingUpdate {
                arrival: u.arrival as usize,
                computed_at: u.computed_at as usize,
                participant: u.participant as usize,
                mask: u.mask.clone(),
                sub_grads: u.sub_grads.clone(),
                accuracy: u.accuracy,
            })
            .collect();
        // participants: loader shuffle/cursor + bandwidth state
        for (p, entry) in server.participants.iter_mut().zip(&self.participants) {
            let indices: Vec<usize> = entry.indices.iter().map(|&i| i as usize).collect();
            p.restore_data_state(&indices, entry.cursor as usize)
                .map_err(mismatch)?;
            p.set_bandwidth_mbps(entry.bandwidth_mbps);
            p.set_residual(entry.residual.clone());
        }
        // population churn: sampler cursor and per-slot eviction state
        if let (Some(entry), Some(state)) = (&self.churn, server.churn.as_mut()) {
            state.sampler = CohortSampler::from_state(entry.sampler_state);
            state.miss_streak = entry.miss_streak.clone();
            state.evicted = entry.evicted.clone();
        }
        // tallies, curves, clocks
        server.comm = self.comm;
        server.latency = self.latency.clone();
        server.warmup_curve = crate::metrics::CurveRecorder::new();
        for s in &self.warmup_curve {
            server.warmup_curve.record(*s);
        }
        server.search_curve = crate::metrics::CurveRecorder::new();
        for s in &self.search_curve {
            server.search_curve.record(*s);
        }
        server.round = self.round as usize;
        server.sim_seconds = self.sim_seconds;
        Ok(())
    }

    /// Rebuilds the search RNG captured alongside the server state.
    pub fn rng(&self) -> StdRng {
        StdRng::from_state(self.rng_state)
    }

    /// Serializes to the framed v5 byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let body = self.encode_body();
        let mut out = Vec::with_capacity(HEADER_LEN + body.len() + 4);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // reserved flags
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
        let crc = crc32(&body);
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Deserializes from bytes produced by [`Checkpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// Typed [`CheckpointError`]s on any malformation; never panics and
    /// never allocates from an unvalidated length field.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::new(bytes);
        let magic: [u8; 8] = r.take(8)?.try_into().expect("8 bytes");
        if &magic != MAGIC {
            if &magic == V1_MAGIC {
                return Err(CheckpointError::UnsupportedVersion(1));
            }
            return Err(CheckpointError::BadMagic(magic));
        }
        let version = r.u16()?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        if r.u16()? != 0 {
            return Err(CheckpointError::Malformed("non-zero reserved flags"));
        }
        let body_len = usize::try_from(r.u64()?)
            .map_err(|_| CheckpointError::Malformed("body length exceeds address space"))?;
        let want = HEADER_LEN
            .checked_add(body_len)
            .and_then(|n| n.checked_add(4))
            .ok_or(CheckpointError::Malformed("body length overflow"))?;
        if bytes.len() < want {
            return Err(CheckpointError::Truncated {
                needed: want,
                got: bytes.len(),
            });
        }
        if bytes.len() > want {
            return Err(CheckpointError::Malformed("trailing bytes after checksum"));
        }
        let body = r.take(body_len)?;
        let stored = r.u32()?;
        let computed = crc32(body);
        if stored != computed {
            return Err(CheckpointError::ChecksumMismatch {
                expected: stored,
                got: computed,
            });
        }
        Self::decode_body(body)
    }

    /// Atomically writes the checkpoint to `path`: the bytes land in a
    /// sibling temp file first, are fsynced, replace `path` with a
    /// rename, and the parent directory is fsynced so the rename itself
    /// survives power loss — a crash at any point leaves either the
    /// previous checkpoint or the new one, never a torn file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_path(&self, path: &Path) -> Result<(), CheckpointError> {
        self.save_path_vfs(&mut crate::vfs::StdVfs, path)
    }

    /// [`Checkpoint::save_path`] through an explicit [`crate::Vfs`] —
    /// the seam the storage fault-injection suites drive.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_path_vfs(
        &self,
        vfs: &mut dyn crate::vfs::Vfs,
        path: &Path,
    ) -> Result<(), CheckpointError> {
        if path.file_name().is_none() {
            return Err(CheckpointError::Malformed(
                "checkpoint path has no file name",
            ));
        }
        crate::vfs::write_atomic(vfs, path, &self.to_bytes())?;
        Ok(())
    }

    /// Reads and validates a checkpoint file written by
    /// [`Checkpoint::save_path`].
    ///
    /// # Errors
    ///
    /// Typed [`CheckpointError`]s for I/O failures and every malformation.
    pub fn load_path(path: &Path) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }

    fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.round.to_le_bytes());
        out.extend_from_slice(&self.sim_seconds.to_le_bytes());
        out.extend_from_slice(&self.baseline.to_le_bytes());
        out.extend_from_slice(&self.controller_updates.to_le_bytes());
        for w in self.rng_state {
            out.extend_from_slice(&w.to_le_bytes());
        }
        put_f32s(&mut out, COUNT, &self.theta);
        put_f32s(&mut out, COUNT, &self.alpha);
        put_f32s(&mut out, COUNT, &self.velocity);
        for v in [
            self.comm.bytes_down,
            self.comm.bytes_up,
            self.comm.rounds,
            self.comm.faults.frames_dropped,
            self.comm.faults.frames_corrupt,
            self.comm.faults.frames_duplicated,
            self.comm.faults.frames_reordered,
            self.comm.faults.frames_delayed,
            self.comm.faults.retransmits,
            self.comm.faults.evictions,
            self.comm.rejects.rejected_shape,
            self.comm.rejects.rejected_nonfinite,
            self.comm.rejects.rejected_norm,
            self.comm.rejects.suspected_byzantine,
            self.comm.resumes,
            // v4: update-compression tallies
            self.comm.compression.raw_bytes,
            self.comm.compression.encoded_bytes,
            self.comm.compression.frames[0],
            self.comm.compression.frames[1],
            self.comm.compression.frames[2],
            self.comm.compression.frames[3],
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        put_f64s(&mut out, COUNT, &self.latency.max_per_round);
        put_f64s(&mut out, COUNT, &self.latency.mean_per_round);
        for curve in [&self.warmup_curve, &self.search_curve] {
            out.extend_from_slice(&(curve.len() as u64).to_le_bytes());
            for s in curve.iter() {
                out.extend_from_slice(&(s.step as u64).to_le_bytes());
                out.extend_from_slice(&s.mean_accuracy.to_le_bytes());
                out.extend_from_slice(&s.mean_loss.to_le_bytes());
                out.extend_from_slice(&(s.contributors as u64).to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.pools.len() as u64).to_le_bytes());
        for entry in &self.pools {
            out.extend_from_slice(&entry.round.to_le_bytes());
            put_f32s(&mut out, COUNT, &entry.theta);
            put_f32s(&mut out, COUNT, &entry.alpha);
            out.extend_from_slice(&(entry.masks.len() as u64).to_le_bytes());
            for m in &entry.masks {
                put_mask(&mut out, COUNT, m);
            }
        }
        out.extend_from_slice(&(self.pending.len() as u64).to_le_bytes());
        for u in &self.pending {
            out.extend_from_slice(&u.arrival.to_le_bytes());
            out.extend_from_slice(&u.computed_at.to_le_bytes());
            out.extend_from_slice(&u.participant.to_le_bytes());
            put_mask(&mut out, COUNT, &u.mask);
            put_f32s(&mut out, COUNT, &u.sub_grads);
            out.extend_from_slice(&u.accuracy.to_le_bytes());
        }
        out.extend_from_slice(&(self.participants.len() as u64).to_le_bytes());
        for p in &self.participants {
            out.extend_from_slice(&(p.indices.len() as u64).to_le_bytes());
            for &i in &p.indices {
                out.extend_from_slice(&i.to_le_bytes());
            }
            out.extend_from_slice(&p.cursor.to_le_bytes());
            out.extend_from_slice(&p.bandwidth_mbps.to_le_bytes());
            put_f32s(&mut out, COUNT, &p.residual); // v4
        }
        // v3 robustness block (appended last so earlier field offsets are
        // stable): aggregator kind tag, its parameter, then two optional
        // f32s as flag+value pairs
        let (tag, param): (u8, u64) = match self.aggregator.kind {
            AggregatorKind::Mean => (0, 0),
            AggregatorKind::Median => (1, 0),
            AggregatorKind::Trimmed { k } => (2, k as u64),
            AggregatorKind::Krum { m } => (3, m as u64),
        };
        out.push(tag);
        out.extend_from_slice(&param.to_le_bytes());
        put_opt_f32(&mut out, self.aggregator.clip);
        put_opt_f32(&mut out, self.update_norm_bound);
        // v4 codec block: selection mode, codec tag, codec parameter
        let (mode, ctag, cparam): (u8, u8, f32) = match self.codec {
            CodecConfig::Fixed(spec) => (0, spec.tag(), spec.param()),
            CodecConfig::Auto => (1, 0, 0.0),
        };
        out.push(mode);
        out.push(ctag);
        out.extend_from_slice(&cparam.to_le_bytes());
        // v5 churn block: scheduled-churn tallies, then the optional
        // population/sampler state behind a presence flag
        for v in [
            self.comm.churn.sampled,
            self.comm.churn.unavailable,
            self.comm.churn.flaps,
            self.comm.churn.evicted,
            self.comm.churn.readmitted,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        match &self.churn {
            None => out.push(0),
            Some(e) => {
                out.push(1);
                out.extend_from_slice(&e.population.to_le_bytes());
                out.extend_from_slice(&e.cohort.to_le_bytes());
                out.extend_from_slice(&e.spec.seed.to_le_bytes());
                out.extend_from_slice(&e.spec.base.to_le_bytes());
                out.extend_from_slice(&e.spec.amplitude.to_le_bytes());
                out.extend_from_slice(&e.spec.period.to_le_bytes());
                out.extend_from_slice(&e.spec.dropout_every.to_le_bytes());
                out.extend_from_slice(&e.spec.dropout_len.to_le_bytes());
                out.extend_from_slice(&e.spec.churn.to_le_bytes());
                out.extend_from_slice(&e.spec.flap.to_le_bytes());
                for w in e.sampler_state {
                    out.extend_from_slice(&w.to_le_bytes());
                }
                out.extend_from_slice(&(e.miss_streak.len() as u64).to_le_bytes());
                for (streak, &evicted) in e.miss_streak.iter().zip(&e.evicted) {
                    out.extend_from_slice(&streak.to_le_bytes());
                    out.push(u8::from(evicted));
                }
            }
        }
        out
    }

    fn decode_body(body: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::new(body);
        let round = r.u64()?;
        let sim_seconds = r.f64()?;
        let baseline = r.f32()?;
        let controller_updates = r.u64()?;
        let rng_state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        let theta = r.f32s(COUNT)?;
        let alpha = r.f32s(COUNT)?;
        let velocity = r.f32s(COUNT)?;
        let mut comm = CommStats {
            bytes_down: r.u64()?,
            bytes_up: r.u64()?,
            rounds: r.u64()?,
            faults: FaultTally {
                frames_dropped: r.u64()?,
                frames_corrupt: r.u64()?,
                frames_duplicated: r.u64()?,
                frames_reordered: r.u64()?,
                frames_delayed: r.u64()?,
                retransmits: r.u64()?,
                evictions: r.u64()?,
            },
            rejects: RejectTally {
                rejected_shape: r.u64()?,
                rejected_nonfinite: r.u64()?,
                rejected_norm: r.u64()?,
                suspected_byzantine: r.u64()?,
            },
            resumes: r.u64()?,
            compression: CompressionTally {
                raw_bytes: r.u64()?,
                encoded_bytes: r.u64()?,
                frames: [r.u64()?, r.u64()?, r.u64()?, r.u64()?],
            },
            // the churn tallies live in the v5 block at the end of the
            // body (so earlier field offsets stayed stable across the
            // version bump) and are patched in below
            churn: ChurnTally::default(),
            // wall-clock phase timings and storage-fault tallies are
            // volatile observability data and deliberately never
            // checkpointed: a resumed run starts fresh
            timing: Default::default(),
            io: Default::default(),
        };
        let latency = LatencyStats {
            max_per_round: r.f64s(COUNT)?,
            mean_per_round: r.f64s(COUNT)?,
        };
        let mut curves: [Vec<StepMetric>; 2] = [Vec::new(), Vec::new()];
        for curve in curves.iter_mut() {
            let n = r.count_u64(24)?; // step metric is 24 bytes
            let mut steps = Vec::with_capacity(n);
            for _ in 0..n {
                steps.push(StepMetric {
                    step: r.u64()? as usize,
                    mean_accuracy: r.f32()?,
                    mean_loss: r.f32()?,
                    contributors: r.u64()? as usize,
                });
            }
            *curve = steps;
        }
        let [warmup_curve, search_curve] = curves;
        let n_pools = r.count_u64(24)?; // round + two length prefixes + mask count
        let mut pools = Vec::with_capacity(n_pools);
        for _ in 0..n_pools {
            let round = r.u64()?;
            let theta = r.f32s(COUNT)?;
            let alpha = r.f32s(COUNT)?;
            let n_masks = r.count_u64(2)?; // a mask needs ≥ 2 edge counts
            let mut masks = Vec::with_capacity(n_masks);
            for _ in 0..n_masks {
                masks.push(r.mask(COUNT)?);
            }
            pools.push(PoolEntry {
                round,
                theta,
                alpha,
                masks,
            });
        }
        let n_pending = r.count_u64(40)?;
        let mut pending = Vec::with_capacity(n_pending);
        for _ in 0..n_pending {
            pending.push(PendingEntry {
                arrival: r.u64()?,
                computed_at: r.u64()?,
                participant: r.u64()?,
                mask: r.mask(COUNT)?,
                sub_grads: r.f32s(COUNT)?,
                accuracy: r.f32()?,
            });
        }
        // entry minimum: indices count + cursor + bandwidth + residual count
        let n_participants = r.count_u64(32)?;
        let mut participants = Vec::with_capacity(n_participants);
        for _ in 0..n_participants {
            let n_indices = r.count_u64(8)?;
            let mut indices = Vec::with_capacity(n_indices);
            for _ in 0..n_indices {
                indices.push(r.u64()?);
            }
            participants.push(ParticipantEntry {
                indices,
                cursor: r.u64()?,
                bandwidth_mbps: r.f64()?,
                residual: r.f32s(COUNT)?,
            });
        }
        let tag = r.u8()?;
        let param = r.u64()?;
        let kind = match tag {
            0 => AggregatorKind::Mean,
            1 => AggregatorKind::Median,
            2 => AggregatorKind::Trimmed { k: param as usize },
            3 => AggregatorKind::Krum { m: param as usize },
            _ => return Err(CheckpointError::Malformed("unknown aggregator tag")),
        };
        let clip = opt_f32(&mut r)?;
        let update_norm_bound = opt_f32(&mut r)?;
        let aggregator = AggregatorConfig { kind, clip };
        if aggregator.validate().is_err() {
            return Err(CheckpointError::Malformed("invalid aggregator config"));
        }
        if let Some(b) = update_norm_bound {
            if !(b.is_finite() && b > 0.0) {
                return Err(CheckpointError::Malformed("invalid update norm bound"));
            }
        }
        // v4 codec block
        let mode = r.u8()?;
        let ctag = r.u8()?;
        let cparam = r.f32()?;
        let codec = match mode {
            0 => CodecConfig::Fixed(
                CodecSpec::from_tag_param(ctag, cparam)
                    .ok_or(CheckpointError::Malformed("invalid codec spec"))?,
            ),
            1 => {
                if ctag != 0 || cparam != 0.0 {
                    return Err(CheckpointError::Malformed(
                        "auto codec mode carries no fixed spec",
                    ));
                }
                CodecConfig::Auto
            }
            _ => return Err(CheckpointError::Malformed("unknown codec mode")),
        };
        // v5 churn block
        comm.churn = ChurnTally {
            sampled: r.u64()?,
            unavailable: r.u64()?,
            flaps: r.u64()?,
            evicted: r.u64()?,
            readmitted: r.u64()?,
        };
        let churn = match r.u8()? {
            0 => None,
            1 => {
                let population = r.u64()?;
                let cohort = r.u64()?;
                let spec = AvailabilitySpec {
                    seed: r.u64()?,
                    base: r.f64()?,
                    amplitude: r.f64()?,
                    period: r.u64()?,
                    dropout_every: r.u64()?,
                    dropout_len: r.u64()?,
                    churn: r.f64()?,
                    flap: r.f64()?,
                };
                if spec.validate().is_err() {
                    return Err(CheckpointError::Malformed("invalid availability spec"));
                }
                let sampler_state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
                let n_slots = r.count_u64(9)?; // streak u64 + evicted u8
                if n_slots as u64 != cohort {
                    return Err(CheckpointError::Malformed(
                        "churn slot count disagrees with cohort",
                    ));
                }
                let mut miss_streak = Vec::with_capacity(n_slots);
                let mut evicted = Vec::with_capacity(n_slots);
                for _ in 0..n_slots {
                    miss_streak.push(r.u64()?);
                    evicted.push(match r.u8()? {
                        0 => false,
                        1 => true,
                        _ => return Err(CheckpointError::Malformed("bad evicted flag")),
                    });
                }
                Some(ChurnEntry {
                    population,
                    cohort,
                    spec,
                    sampler_state,
                    miss_streak,
                    evicted,
                })
            }
            _ => return Err(CheckpointError::Malformed("bad churn presence flag")),
        };
        r.finish()?;
        Ok(Checkpoint {
            round,
            sim_seconds,
            baseline,
            controller_updates,
            rng_state,
            theta,
            alpha,
            velocity,
            comm,
            latency,
            warmup_curve,
            search_curve,
            pools,
            pending,
            participants,
            aggregator,
            update_norm_bound,
            codec,
            churn,
        })
    }
}

/// A one-byte presence flag, then the value when present.
fn put_opt_f32(out: &mut Vec<u8>, value: Option<f32>) {
    match value {
        Some(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        None => out.push(0),
    }
}

/// Reads what [`put_opt_f32`] wrote; a flag other than 0/1 is malformed.
fn opt_f32(r: &mut Reader) -> Result<Option<f32>, CheckpointError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.f32()?)),
        _ => Err(CheckpointError::Malformed("bad option flag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchConfig;
    use fedrlnas_data::{DatasetSpec, SyntheticDataset};
    use fedrlnas_sync::{StalenessModel, StalenessStrategy};
    use rand::SeedableRng;

    fn server(seed: u64) -> (SearchServer, SyntheticDataset, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data =
            SyntheticDataset::generate(&DatasetSpec::svhn_like().with_sizes(10, 3), &mut rng);
        // delay-compensated staleness so pools and pending updates are
        // actually populated at capture time
        let config = SearchConfig::tiny().with_staleness(
            StalenessModel::new(vec![0.6, 0.4]),
            StalenessStrategy::delay_compensated(),
        );
        let s = SearchServer::new(config, &data, &mut rng);
        (s, data, rng)
    }

    #[test]
    fn round_trips_through_bytes() {
        let (mut s, data, mut rng) = server(0);
        s.run_search(&data, 4, &mut rng);
        let cp = Checkpoint::capture(&mut s, &rng);
        assert!(!cp.pools.is_empty(), "DC strategy must retain pool rounds");
        let bytes = cp.to_bytes();
        let loaded = Checkpoint::from_bytes(&bytes).expect("read back");
        assert_eq!(loaded, cp);
        assert_eq!(loaded.round, 4);
    }

    /// A v5 checkpoint as the commit before the slicing-by-8 CRC wrote it
    /// (every section populated): it must still load, and the same state
    /// must still serialize to the same bytes.
    #[test]
    fn checkpoint_written_before_the_fast_crc_is_unchanged() {
        let frozen: Vec<u8> = {
            let hex = concat!(
                "46524c4e434b5054050000001303000000000000030000000000000000000000",
                "000029400000803e020000000000000001000000000000000200000000000000",
                "0300000000000000040000000000000003000000000000000000003f0000a0bf",
                "0000404002000000000000000000003e000000bf030000000000000000000000",
                "0000403f00000080e80300000000000084030000000000000100000000000000",
                "0000000000000000000000000000000000000000000000000000000000000000",
                "0000000000000000000000000000000000000000000000000000000000000000",
                "0000000000000000000000000000000000000000000000000000000000000000",
                "0000000000000000000000000000000000000000000000000000000000000000",
                "000000000000000000000000000000000100000000000000000000000000e03f",
                "0100000000000000000000000000d03f01000000000000000000000000000000",
                "cdcccc3d00002040020000000000000001000000000000000100000000000000",
                "cdcc4c3e00001040010000000000000001000000000000000200000000000000",
                "03000000000000000000803f000000400000404002000000000000000000003f",
                "0000003f01000000000000000200000000000000010700030100000000000000",
                "0400000000000000020000000000000001000000000000000200000000000000",
                "0107000302000000000000000000803e000040bf0000003f0100000000000000",
                "0300000000000000030000000000000001000000000000000200000000000000",
                "010000000000000000000000004045400300000000000000000000000000003f",
                "000000000100000000000000000100002041010000c8420003cdcccc3d000000",
                "0000000000000000000000000000000000000000000000000000000000000000",
                "000000000001280000000000000001000000000000000000000000000000cdcc",
                "cccccccce43f000000000000d03f180000000000000000000000000000000000",
                "0000000000009a9999999999b93f9a9999999999c93f05000000000000000600",
                "0000000000000700000000000000080000000000000001000000000000000100",
                "00000000000000fb4d0a48",
            );
            (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
                .collect()
        };
        let mask = ArchMask::new(vec![1, 7], vec![0, 3]);
        let mut comm = CommStats::new();
        comm.record_down(1000);
        comm.record_up(900);
        comm.end_round();
        let step = |step, mean_accuracy, mean_loss, contributors| StepMetric {
            step,
            mean_accuracy,
            mean_loss,
            contributors,
        };
        let cp = Checkpoint {
            round: 3,
            sim_seconds: 12.5,
            baseline: 0.25,
            controller_updates: 2,
            rng_state: [1, 2, 3, 4],
            theta: vec![0.5, -1.25, 3.0],
            alpha: vec![0.125, -0.5],
            velocity: vec![0.0, 0.75, -0.0],
            comm,
            latency: LatencyStats {
                max_per_round: vec![0.5],
                mean_per_round: vec![0.25],
            },
            warmup_curve: vec![step(0, 0.1, 2.5, 2)],
            search_curve: vec![step(1, 0.2, 2.25, 1)],
            pools: vec![PoolEntry {
                round: 2,
                theta: vec![1.0, 2.0, 3.0],
                alpha: vec![0.5, 0.5],
                masks: vec![mask.clone()],
            }],
            pending: vec![PendingEntry {
                arrival: 4,
                computed_at: 2,
                participant: 1,
                mask,
                sub_grads: vec![0.25, -0.75],
                accuracy: 0.5,
            }],
            participants: vec![ParticipantEntry {
                indices: vec![3, 1, 2],
                cursor: 1,
                bandwidth_mbps: 42.5,
                residual: vec![0.0, 0.5, 0.0],
            }],
            aggregator: AggregatorConfig::parse("clip:10+median").unwrap(),
            update_norm_bound: Some(100.0),
            codec: CodecConfig::parse("topk:0.1").unwrap(),
            churn: Some(ChurnEntry {
                population: 40,
                cohort: 1,
                spec: AvailabilitySpec::parse("flap=0.2,churn=0.1").unwrap(),
                sampler_state: [5, 6, 7, 8],
                miss_streak: vec![1],
                evicted: vec![false],
            }),
        };
        let loaded = Checkpoint::from_bytes(&frozen).expect("frozen checkpoint loads");
        // `-0.0 == 0.0`: compare the velocity's bits too
        assert_eq!(loaded.velocity[2].to_bits(), (-0.0f32).to_bits());
        assert_eq!(loaded, cp);
        assert_eq!(cp.to_bytes(), frozen);
    }

    #[test]
    fn restore_resumes_identical_state() {
        let (mut s, data, mut rng) = server(1);
        s.run_search(&data, 3, &mut rng);
        let cp = Checkpoint::capture(&mut s, &rng);
        // fresh server, same config/partition seed
        let (mut s2, _, _) = server(1);
        cp.restore(&mut s2).expect("same structure");
        let cp2 = Checkpoint::capture(&mut s2, &cp.rng());
        assert_eq!(cp, cp2);
    }

    #[test]
    fn restore_rejects_wrong_scale() {
        let (mut s, data, mut rng) = server(2);
        s.run_search(&data, 1, &mut rng);
        let mut cp = Checkpoint::capture(&mut s, &rng);
        cp.theta.pop();
        let (mut s2, _, _) = server(2);
        match cp.restore(&mut s2) {
            Err(CheckpointError::StateMismatch(_)) => {}
            other => panic!("expected StateMismatch, got {other:?}"),
        }
    }

    /// State that passes the CRC but would panic the next round of
    /// `run_search` is refused by `restore`, one row per field.
    #[test]
    fn restore_rejects_state_the_next_round_would_panic_on() {
        let (mut s, data, mut rng) = server(2);
        s.run_search(&data, 3, &mut rng);
        let cp = Checkpoint::capture(&mut s, &rng);
        assert!(!cp.pools.is_empty() && !cp.pending.is_empty());
        type Damage = fn(&mut Checkpoint);
        let rows: [(&str, Damage); 5] = [
            ("pool theta shortened", |cp| {
                cp.pools[0].theta.pop();
            }),
            ("pool alpha shortened", |cp| {
                cp.pools[0].alpha.pop();
            }),
            ("pending gradients shortened", |cp| {
                cp.pending[0].sub_grads.pop();
            }),
            ("pending computed after it arrives", |cp| {
                cp.pending[0].computed_at = cp.pending[0].arrival + 1;
            }),
            ("pending mask one edge short", |cp| {
                let m = &cp.pending[0].mask;
                let short = |kind| m.ops(kind)[1..].to_vec();
                cp.pending[0].mask = ArchMask::new(
                    short(fedrlnas_darts::CellKind::Normal),
                    short(fedrlnas_darts::CellKind::Reduction),
                );
            }),
        ];
        for (what, damage) in rows {
            let mut bad = cp.clone();
            damage(&mut bad);
            let bad = Checkpoint::from_bytes(&bad.to_bytes()).expect("the CRC holds");
            let (mut s2, _, _) = server(2);
            match bad.restore(&mut s2) {
                Err(CheckpointError::StateMismatch(_)) => {}
                other => panic!("{what}: expected StateMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_garbage_v1_and_bad_flags() {
        match Checkpoint::from_bytes(b"NOTACKPT....................") {
            Err(CheckpointError::BadMagic(_)) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
        match Checkpoint::from_bytes(b"FE") {
            Err(CheckpointError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
        // a v1 header is recognized and reported as unsupported, not garbage
        let mut v1 = Vec::new();
        v1.extend_from_slice(V1_MAGIC);
        v1.extend_from_slice(&[0u8; 24]);
        match Checkpoint::from_bytes(&v1) {
            Err(CheckpointError::UnsupportedVersion(1)) => {}
            other => panic!("expected UnsupportedVersion(1), got {other:?}"),
        }
        let (mut s, _, rng) = server(3);
        let mut bytes = Checkpoint::capture(&mut s, &rng).to_bytes();
        bytes[10] = 1; // reserved flags must be zero
        match Checkpoint::from_bytes(&bytes) {
            Err(CheckpointError::Malformed(_)) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn huge_length_fields_do_not_allocate() {
        // a tiny file claiming a colossal theta must fail fast on bounds,
        // not attempt a multi-exabyte allocation — and it must be the
        // reader's bounds check that rejects it, so fix up the CRC to get
        // past the checksum
        let (mut s, _, rng) = server(4);
        let mut bytes = Checkpoint::capture(&mut s, &rng).to_bytes();
        // theta length prefix sits right after round/sim/baseline/updates/rng:
        // 8 + 8 + 4 + 8 + 32 = 60 bytes into the body
        let off = HEADER_LEN + 60;
        bytes[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let body_end = bytes.len() - 4;
        let crc = crc32(&bytes[HEADER_LEN..body_end]);
        bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
        match Checkpoint::from_bytes(&bytes) {
            Err(CheckpointError::Malformed(_)) | Err(CheckpointError::Truncated { .. }) => {}
            other => panic!("expected bounds rejection, got {other:?}"),
        }
    }

    #[test]
    fn save_path_is_atomic_and_round_trips() {
        let (mut s, data, mut rng) = server(5);
        s.run_search(&data, 2, &mut rng);
        let cp = Checkpoint::capture(&mut s, &rng);
        let dir = std::env::temp_dir().join(format!("fedrlnas-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("search.ckpt");
        cp.save_path(&path).expect("atomic save");
        // no temp file left behind
        assert!(!dir.join("search.ckpt.tmp").exists());
        let loaded = Checkpoint::load_path(&path).expect("load back");
        assert_eq!(loaded, cp);
        // overwrite keeps the newest state
        let mut cp2 = cp.clone();
        cp2.round += 1;
        cp2.save_path(&path).expect("overwrite");
        assert_eq!(Checkpoint::load_path(&path).unwrap().round, cp.round + 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
