//! Communication accounting.

use crate::robust::UpdateRejection;

/// Per-round tally of injected or observed transport faults and the
/// recovery machinery they triggered. Kept separate from the byte counters
/// so round backends can hand a compact delta back to the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultTally {
    /// Frames silently discarded in flight (including partition windows).
    pub frames_dropped: u64,
    /// Frames delivered with flipped payload bits (caught by the CRC).
    pub frames_corrupt: u64,
    /// Frames delivered more than once.
    pub frames_duplicated: u64,
    /// Frames delivered out of order.
    pub frames_reordered: u64,
    /// Frames delivered after injected extra latency.
    pub frames_delayed: u64,
    /// Server-side download retransmissions after a missed deadline.
    pub retransmits: u64,
    /// Workers evicted after repeated unresponsive rounds.
    pub evictions: u64,
}

impl FaultTally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds another tally into this one (saturating, like every counter in
    /// this module).
    pub fn merge(&mut self, other: &FaultTally) {
        self.frames_dropped = self.frames_dropped.saturating_add(other.frames_dropped);
        self.frames_corrupt = self.frames_corrupt.saturating_add(other.frames_corrupt);
        self.frames_duplicated = self
            .frames_duplicated
            .saturating_add(other.frames_duplicated);
        self.frames_reordered = self.frames_reordered.saturating_add(other.frames_reordered);
        self.frames_delayed = self.frames_delayed.saturating_add(other.frames_delayed);
        self.retransmits = self.retransmits.saturating_add(other.retransmits);
        self.evictions = self.evictions.saturating_add(other.evictions);
    }

    /// Returns `true` when any counter is non-zero.
    pub fn any(&self) -> bool {
        *self != FaultTally::default()
    }
}

/// Per-round tally of participant updates refused by the validation gate
/// in front of aggregation, split by cause, plus the workers the engine
/// flagged as Byzantine when eviction followed repeated rejections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RejectTally {
    /// Updates whose flat length did not match their architecture.
    pub rejected_shape: u64,
    /// Updates carrying NaN or infinite values.
    pub rejected_nonfinite: u64,
    /// Updates whose L2 norm exceeded the configured bound.
    pub rejected_norm: u64,
    /// Workers evicted while their rejection streak was non-zero —
    /// misbehaviour, not mere silence.
    pub suspected_byzantine: u64,
}

impl RejectTally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds another tally into this one (saturating, like every counter in
    /// this module).
    pub fn merge(&mut self, other: &RejectTally) {
        self.rejected_shape = self.rejected_shape.saturating_add(other.rejected_shape);
        self.rejected_nonfinite = self
            .rejected_nonfinite
            .saturating_add(other.rejected_nonfinite);
        self.rejected_norm = self.rejected_norm.saturating_add(other.rejected_norm);
        self.suspected_byzantine = self
            .suspected_byzantine
            .saturating_add(other.suspected_byzantine);
    }

    /// Counts one refused update under its cause (saturating).
    pub fn record(&mut self, why: &UpdateRejection) {
        let counter = match why {
            UpdateRejection::ShapeMismatch { .. } => &mut self.rejected_shape,
            UpdateRejection::NonFinite => &mut self.rejected_nonfinite,
            UpdateRejection::NormExceeded { .. } => &mut self.rejected_norm,
        };
        *counter = counter.saturating_add(1);
    }

    /// Returns `true` when any counter is non-zero.
    pub fn any(&self) -> bool {
        *self != RejectTally::default()
    }

    /// Total updates refused, across all causes (saturating).
    pub fn total_rejected(&self) -> u64 {
        self.rejected_shape
            .saturating_add(self.rejected_nonfinite)
            .saturating_add(self.rejected_norm)
    }
}

/// Tally of the population/churn layer: how many clients were sampled
/// into cohorts, how many were unreachable when the cohort was drawn, and
/// the flap → eviction → re-admission traffic the scheduled churn caused.
/// All zero when no enrolled population is configured, so legacy runs keep
/// their rendering and equality untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChurnTally {
    /// Clients sampled into a round cohort.
    pub sampled: u64,
    /// Enrolled clients that were unavailable when a cohort was drawn.
    pub unavailable: u64,
    /// Sampled clients that went dark mid-round before reporting.
    pub flaps: u64,
    /// Cohort slots evicted after consecutive flapped rounds.
    pub evicted: u64,
    /// Evicted slots re-admitted once their client was reachable again
    /// (includes engine heartbeat re-admissions).
    pub readmitted: u64,
}

impl ChurnTally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds another tally into this one (saturating, like every counter in
    /// this module).
    pub fn merge(&mut self, other: &ChurnTally) {
        self.sampled = self.sampled.saturating_add(other.sampled);
        self.unavailable = self.unavailable.saturating_add(other.unavailable);
        self.flaps = self.flaps.saturating_add(other.flaps);
        self.evicted = self.evicted.saturating_add(other.evicted);
        self.readmitted = self.readmitted.saturating_add(other.readmitted);
    }

    /// Returns `true` when any counter is non-zero.
    pub fn any(&self) -> bool {
        *self != ChurnTally::default()
    }
}

/// Tally of the storage fault-injection layer and the self-healing
/// machinery it exercises: faults injected by a seeded `FaultyVfs`
/// (torn writes, dropped fsyncs, transient EIO, disk-full) and the
/// recovery actions the store/manager took (persist retries, job
/// quarantines, scrub repairs). Storage faults are environmental, not
/// traffic, so — like [`RoundTimings`] — this tally is **excluded** from
/// `CommStats` equality and from checkpoints: a job that survived disk
/// chaos still compares bit-identical to its fault-free baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoFaultTally {
    /// Writes that landed only a prefix of their payload (caught later by
    /// segment/checkpoint CRC framing).
    pub torn_writes: u64,
    /// fsync calls that returned success without making data durable.
    pub dropped_fsyncs: u64,
    /// Operations failed with an injected transient I/O error.
    pub io_errors: u64,
    /// Writes refused with an injected ENOSPC (disk full).
    pub disk_full: u64,
    /// Persist attempts retried after a storage error.
    pub retries: u64,
    /// Jobs moved to the sticky `Quarantined` state.
    pub quarantined: u64,
    /// Jobs repaired by a scrub pass from their newest valid generation.
    pub scrub_repaired: u64,
}

impl IoFaultTally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds another tally into this one (saturating, like every counter in
    /// this module).
    pub fn merge(&mut self, other: &IoFaultTally) {
        self.torn_writes = self.torn_writes.saturating_add(other.torn_writes);
        self.dropped_fsyncs = self.dropped_fsyncs.saturating_add(other.dropped_fsyncs);
        self.io_errors = self.io_errors.saturating_add(other.io_errors);
        self.disk_full = self.disk_full.saturating_add(other.disk_full);
        self.retries = self.retries.saturating_add(other.retries);
        self.quarantined = self.quarantined.saturating_add(other.quarantined);
        self.scrub_repaired = self.scrub_repaired.saturating_add(other.scrub_repaired);
    }

    /// Returns `true` when any counter is non-zero.
    pub fn any(&self) -> bool {
        *self != IoFaultTally::default()
    }

    /// Total faults injected by the storage layer, across all kinds
    /// (saturating). Recovery counters (retries/quarantines/repairs) are
    /// deliberately excluded: they measure the response, not the fault.
    pub fn total_injected(&self) -> u64 {
        self.torn_writes
            .saturating_add(self.dropped_fsyncs)
            .saturating_add(self.io_errors)
            .saturating_add(self.disk_full)
    }
}

/// Number of distinct update codecs tracked by [`CompressionTally`]
/// (fp32 / fp16 / int8 / top-k, in wire-tag order).
pub const NUM_CODECS: usize = 4;

/// Display names of the tracked codecs, indexed by wire tag.
pub const CODEC_NAMES: [&str; NUM_CODECS] = ["fp32", "fp16", "int8", "topk"];

/// Tally of the update-compression layer: how many tensor bytes entered
/// the encoder, how many came out on the wire, and how many upload frames
/// each codec produced. Indexed by the codec's wire tag so this crate does
/// not depend on the codec crate itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompressionTally {
    /// Raw (decoded) tensor bytes entering the encoder.
    pub raw_bytes: u64,
    /// Encoded payload bytes leaving the encoder.
    pub encoded_bytes: u64,
    /// Upload frames per codec, indexed by wire tag
    /// (see [`CODEC_NAMES`]).
    pub frames: [u64; NUM_CODECS],
}

impl CompressionTally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one encoded upload: `raw` tensor bytes compressed into
    /// `encoded` wire bytes by the codec with wire tag `codec_index`
    /// (out-of-range indices are counted under the last slot rather than
    /// panicking — the tag was validated at decode time). Saturating.
    pub fn record(&mut self, codec_index: usize, raw: u64, encoded: u64) {
        let slot = codec_index.min(NUM_CODECS - 1);
        self.frames[slot] = self.frames[slot].saturating_add(1);
        self.raw_bytes = self.raw_bytes.saturating_add(raw);
        self.encoded_bytes = self.encoded_bytes.saturating_add(encoded);
    }

    /// Adds another tally into this one (saturating, like every counter in
    /// this module).
    pub fn merge(&mut self, other: &CompressionTally) {
        self.raw_bytes = self.raw_bytes.saturating_add(other.raw_bytes);
        self.encoded_bytes = self.encoded_bytes.saturating_add(other.encoded_bytes);
        for (a, b) in self.frames.iter_mut().zip(&other.frames) {
            *a = a.saturating_add(*b);
        }
    }

    /// Returns `true` when any counter is non-zero.
    pub fn any(&self) -> bool {
        *self != CompressionTally::default()
    }

    /// Cumulative compression ratio `raw / encoded` (1.0 when nothing has
    /// been encoded yet).
    pub fn ratio(&self) -> f64 {
        if self.encoded_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.encoded_bytes as f64
        }
    }
}

/// Cumulative wall-clock spent in each phase of the round hot path, in
/// nanoseconds (saturating). Pure observability: timings are volatile
/// wall-clock measurements, so they are **excluded** from `CommStats`
/// equality, serialization and checkpoints — two runs with identical
/// traffic and different speeds still compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundTimings {
    /// Booking the downloads, then encoding and first-sending each frame
    /// (per-link thread time, summed over links).
    pub ship_ns: u64,
    /// Waiting for and receiving upload replies (phase 2 wall-clock).
    pub collect_ns: u64,
    /// Decoding coded gradient runs out of upload frames.
    pub decode_ns: u64,
    /// Running the Byzantine validation gate over decoded updates.
    pub validate_ns: u64,
    /// Folding accepted updates through the aggregation rule.
    pub aggregate_ns: u64,
}

impl RoundTimings {
    /// Creates an empty timing tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds another tally into this one (saturating, like every counter in
    /// this module).
    pub fn merge(&mut self, other: &RoundTimings) {
        self.ship_ns = self.ship_ns.saturating_add(other.ship_ns);
        self.collect_ns = self.collect_ns.saturating_add(other.collect_ns);
        self.decode_ns = self.decode_ns.saturating_add(other.decode_ns);
        self.validate_ns = self.validate_ns.saturating_add(other.validate_ns);
        self.aggregate_ns = self.aggregate_ns.saturating_add(other.aggregate_ns);
    }

    /// Returns `true` when any phase has recorded time.
    pub fn any(&self) -> bool {
        *self != RoundTimings::default()
    }
}

/// Tallies every byte that would cross the network in a real deployment,
/// in both directions, plus the round count — the raw numbers behind the
/// paper's efficiency claims (§VI-C: supernet 1.93 MB vs sub-model
/// 0.27 MB average) — and, since the fault-injection layer landed, an
/// explicit account of what went wrong on the wire and how often the
/// runtime had to recover.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommStats {
    /// Bytes sent from server to participants (model downloads).
    pub bytes_down: u64,
    /// Bytes sent from participants to server (gradients/weights/rewards).
    pub bytes_up: u64,
    /// Communication rounds completed.
    pub rounds: u64,
    /// Transport faults observed/injected and recovery actions taken.
    pub faults: FaultTally,
    /// Updates refused by the validation gate, by cause, and suspected
    /// Byzantine evictions.
    pub rejects: RejectTally,
    /// Update-compression accounting: raw vs encoded bytes and per-codec
    /// frame counts (all zero while the fp32 identity codec is in use).
    pub compression: CompressionTally,
    /// Population/churn accounting: cohort sampling, flaps, evictions and
    /// re-admissions (all zero without an enrolled population).
    pub churn: ChurnTally,
    /// Times this run was resumed from an on-disk checkpoint.
    pub resumes: u64,
    /// Per-phase wall-clock spent in the round hot path. Volatile
    /// observability data: deliberately absent from checkpoints (the
    /// checkpoint writer lists `CommStats` fields explicitly) and ignored
    /// by equality.
    pub timing: RoundTimings,
    /// Storage-fault accounting: injected I/O faults and the self-healing
    /// actions they triggered. Environmental, like `timing`: absent from
    /// checkpoints and ignored by equality, so a job that rode out disk
    /// chaos still compares bit-identical to its fault-free baseline.
    pub io: IoFaultTally,
}

/// Equality deliberately ignores [`CommStats::timing`] and
/// [`CommStats::io`]: wall-clock phase timings and injected storage
/// faults differ between otherwise bit-identical runs, and determinism
/// tests compare `CommStats` across execution modes.
impl PartialEq for CommStats {
    fn eq(&self, other: &Self) -> bool {
        self.bytes_down == other.bytes_down
            && self.bytes_up == other.bytes_up
            && self.rounds == other.rounds
            && self.faults == other.faults
            && self.rejects == other.rejects
            && self.compression == other.compression
            && self.churn == other.churn
            && self.resumes == other.resumes
    }
}

impl Eq for CommStats {}

impl CommStats {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one server→participant payload. Saturates instead of
    /// overflowing: a tally that has run for years must degrade to a
    /// pinned maximum, never panic or wrap.
    pub fn record_down(&mut self, bytes: usize) {
        self.bytes_down = self.bytes_down.saturating_add(bytes as u64);
    }

    /// Records one participant→server payload (saturating).
    pub fn record_up(&mut self, bytes: usize) {
        self.bytes_up = self.bytes_up.saturating_add(bytes as u64);
    }

    /// Marks a round boundary (saturating).
    pub fn end_round(&mut self) {
        self.rounds = self.rounds.saturating_add(1);
    }

    /// Total traffic in bytes (saturating).
    pub fn total_bytes(&self) -> u64 {
        self.bytes_down.saturating_add(self.bytes_up)
    }

    /// Mean per-round traffic in bytes (0 before the first round ends).
    pub fn bytes_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.total_bytes() as f64 / self.rounds as f64
        }
    }

    /// Merges another tally into this one (used when worker threads keep
    /// local tallies).
    pub fn merge(&mut self, other: &CommStats) {
        self.bytes_down = self.bytes_down.saturating_add(other.bytes_down);
        self.bytes_up = self.bytes_up.saturating_add(other.bytes_up);
        self.faults.merge(&other.faults);
        self.rejects.merge(&other.rejects);
        self.compression.merge(&other.compression);
        self.churn.merge(&other.churn);
        self.resumes = self.resumes.saturating_add(other.resumes);
        self.timing.merge(&other.timing);
        self.io.merge(&other.io);
        // rounds are counted by the server loop, not merged from workers
    }

    /// Folds one round's per-phase wall-clock into the tally.
    pub fn record_timing(&mut self, delta: &RoundTimings) {
        self.timing.merge(delta);
    }

    /// Folds one round's fault delta (from a round backend) into the tally.
    pub fn record_faults(&mut self, delta: &FaultTally) {
        self.faults.merge(delta);
    }

    /// Folds one round's validation-gate rejections into the tally.
    pub fn record_rejects(&mut self, delta: &RejectTally) {
        self.rejects.merge(delta);
    }

    /// Folds one round's update-compression accounting into the tally.
    pub fn record_compression(&mut self, delta: &CompressionTally) {
        self.compression.merge(delta);
    }

    /// Folds one round's population/churn accounting into the tally.
    pub fn record_churn(&mut self, delta: &ChurnTally) {
        self.churn.merge(delta);
    }

    /// Marks a resume from an on-disk checkpoint (saturating).
    pub fn record_resume(&mut self) {
        self.resumes = self.resumes.saturating_add(1);
    }

    /// Folds a storage fault-injection delta into the tally.
    pub fn record_io_faults(&mut self, delta: &IoFaultTally) {
        self.io.merge(delta);
    }
}

impl std::fmt::Display for CommStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.2} MB down, {:.2} MB up over {} rounds",
            self.bytes_down as f64 / 1e6,
            self.bytes_up as f64 / 1e6,
            self.rounds
        )?;
        // keep the fault-free rendering byte-identical to the pre-chaos
        // format; only a run that actually saw faults or resumes grows the
        // extra segment
        if self.faults.any() {
            let f_ = &self.faults;
            write!(
                f,
                "; faults: {} dropped / {} corrupt / {} dup / {} reordered / {} delayed, {} retransmits, {} evictions",
                f_.frames_dropped,
                f_.frames_corrupt,
                f_.frames_duplicated,
                f_.frames_reordered,
                f_.frames_delayed,
                f_.retransmits,
                f_.evictions
            )?;
        }
        if self.rejects.any() {
            let r = &self.rejects;
            write!(
                f,
                "; rejected: {} shape / {} non-finite / {} norm, {} suspected byzantine",
                r.rejected_shape, r.rejected_nonfinite, r.rejected_norm, r.suspected_byzantine
            )?;
        }
        if self.compression.any() {
            let c = &self.compression;
            write!(
                f,
                "; codec: {:.2} MB raw -> {:.2} MB encoded ({:.2}x)",
                c.raw_bytes as f64 / 1e6,
                c.encoded_bytes as f64 / 1e6,
                c.ratio()
            )?;
            for (name, frames) in CODEC_NAMES.iter().zip(&c.frames) {
                if *frames > 0 {
                    write!(f, ", {frames} {name}")?;
                }
            }
        }
        if self.churn.any() {
            let c = &self.churn;
            write!(
                f,
                "; churn: {} sampled / {} unavailable, {} flaps, {} evicted, {} readmitted",
                c.sampled, c.unavailable, c.flaps, c.evicted, c.readmitted
            )?;
        }
        if self.resumes > 0 {
            write!(f, "; resumed from checkpoint {}x", self.resumes)?;
        }
        if self.timing.any() {
            let t = &self.timing;
            let ms = |ns: u64| ns as f64 / 1e6;
            write!(
                f,
                "; timing: {:.1} ms ship / {:.1} ms collect / {:.1} ms decode / {:.1} ms validate / {:.1} ms aggregate",
                ms(t.ship_ns),
                ms(t.collect_ns),
                ms(t.decode_ns),
                ms(t.validate_ns),
                ms(t.aggregate_ns)
            )?;
        }
        if self.io.any() {
            let io = &self.io;
            write!(
                f,
                "; io: {} torn / {} fsync-dropped / {} eio / {} enospc, {} retries, {} quarantined, {} scrub-repaired",
                io.torn_writes,
                io.dropped_fsyncs,
                io.io_errors,
                io.disk_full,
                io.retries,
                io.quarantined,
                io.scrub_repaired
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_accumulates() {
        let mut s = CommStats::new();
        s.record_down(1000);
        s.record_up(500);
        s.end_round();
        s.record_down(1000);
        s.end_round();
        assert_eq!(s.total_bytes(), 2500);
        assert_eq!(s.rounds, 2);
        assert!((s.bytes_per_round() - 1250.0).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_traffic_not_rounds() {
        let mut a = CommStats::new();
        a.record_down(10);
        a.end_round();
        let mut b = CommStats::new();
        b.record_up(20);
        b.end_round();
        a.merge(&b);
        assert_eq!(a.total_bytes(), 30);
        assert_eq!(a.rounds, 1);
    }

    #[test]
    fn display_nonempty() {
        assert!(!CommStats::new().to_string().is_empty());
        let mut s = CommStats::new();
        s.record_down(2_000_000);
        s.record_up(500_000);
        s.end_round();
        let text = s.to_string();
        assert!(text.contains("2.00 MB down"), "{text}");
        assert!(text.contains("0.50 MB up"), "{text}");
        assert!(text.contains("1 rounds"), "{text}");
    }

    #[test]
    fn totals_consistent_under_interleaved_recording() {
        // Simulate the RPC server's interleaving: downloads, late uploads
        // from earlier rounds, retransmissions and round boundaries in
        // arbitrary order. The invariants must hold at every step.
        let mut s = CommStats::new();
        let mut down = 0u64;
        let mut up = 0u64;
        let mut rounds = 0u64;
        let mut dropped = 0u64;
        let mut retransmits = 0u64;
        let mut rejected = 0u64;
        // kinds: 0 = down, 1 = up, 2 = round boundary, 3 = fault delta,
        // 4 = validation-gate rejection delta
        let script: &[(u8, usize)] = &[
            (0, 1000),
            (1, 64),
            (3, 2),    // two frames lost mid-round
            (0, 1000), // retransmission
            (4, 1),    // a NaN update refused before aggregation
            (2, 0),
            (1, 64), // late upload after the round boundary
            (0, 7),
            (3, 1),
            (4, 3),
            (2, 0),
            (2, 0), // empty round: boundary with no traffic
            (1, 1),
        ];
        for &(kind, bytes) in script {
            match kind {
                0 => {
                    s.record_down(bytes);
                    down += bytes as u64;
                }
                1 => {
                    s.record_up(bytes);
                    up += bytes as u64;
                }
                2 => {
                    s.end_round();
                    rounds += 1;
                }
                3 => {
                    s.record_faults(&FaultTally {
                        frames_dropped: bytes as u64,
                        retransmits: bytes as u64,
                        ..FaultTally::default()
                    });
                    dropped += bytes as u64;
                    retransmits += bytes as u64;
                }
                _ => {
                    s.record_rejects(&RejectTally {
                        rejected_nonfinite: bytes as u64,
                        ..RejectTally::default()
                    });
                    rejected += bytes as u64;
                }
            }
            assert_eq!(s.bytes_down, down);
            assert_eq!(s.bytes_up, up);
            assert_eq!(s.rounds, rounds);
            assert_eq!(s.total_bytes(), down + up);
            // fault/reject deltas never leak into the byte totals, nor
            // into each other
            assert_eq!(s.faults.frames_dropped, dropped);
            assert_eq!(s.faults.retransmits, retransmits);
            assert_eq!(s.rejects.rejected_nonfinite, rejected);
            assert_eq!(s.rejects.total_rejected(), rejected);
        }
        assert!((s.bytes_per_round() - (down + up) as f64 / rounds as f64).abs() < 1e-9);
    }

    #[test]
    fn fault_free_display_is_unchanged_and_faults_surface() {
        let mut s = CommStats::new();
        s.record_down(2_000_000);
        s.end_round();
        // no faults, no resumes: the legacy rendering, byte for byte
        assert_eq!(s.to_string(), "2.00 MB down, 0.00 MB up over 1 rounds");
        s.record_faults(&FaultTally {
            frames_dropped: 3,
            frames_corrupt: 1,
            frames_duplicated: 2,
            retransmits: 4,
            evictions: 1,
            ..FaultTally::default()
        });
        s.record_resume();
        let text = s.to_string();
        assert!(text.contains("3 dropped"), "{text}");
        assert!(text.contains("1 corrupt"), "{text}");
        assert!(text.contains("2 dup"), "{text}");
        assert!(text.contains("4 retransmits"), "{text}");
        assert!(text.contains("1 evictions"), "{text}");
        assert!(text.contains("resumed from checkpoint 1x"), "{text}");
    }

    #[test]
    fn reject_free_display_is_unchanged_and_rejections_surface() {
        let mut s = CommStats::new();
        s.record_down(2_000_000);
        s.end_round();
        // no rejections: the legacy rendering, byte for byte
        assert_eq!(s.to_string(), "2.00 MB down, 0.00 MB up over 1 rounds");
        s.record_rejects(&RejectTally {
            rejected_shape: 1,
            rejected_nonfinite: 4,
            rejected_norm: 2,
            suspected_byzantine: 1,
        });
        let text = s.to_string();
        assert!(text.contains("1 shape"), "{text}");
        assert!(text.contains("4 non-finite"), "{text}");
        assert!(text.contains("2 norm"), "{text}");
        assert!(text.contains("1 suspected byzantine"), "{text}");
    }

    #[test]
    fn reject_tally_merge_saturates() {
        let mut a = RejectTally {
            rejected_nonfinite: u64::MAX,
            rejected_shape: 1,
            ..RejectTally::default()
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.rejected_nonfinite, u64::MAX);
        assert_eq!(a.rejected_shape, 2);
        assert_eq!(a.total_rejected(), u64::MAX);
        assert!(a.any());
        assert!(!RejectTally::new().any());
    }

    #[test]
    fn fault_tally_merge_saturates() {
        let mut a = FaultTally {
            frames_dropped: u64::MAX,
            retransmits: 1,
            ..FaultTally::default()
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.frames_dropped, u64::MAX);
        assert_eq!(a.retransmits, 2);
        assert!(a.any());
        assert!(!FaultTally::new().any());
    }

    #[test]
    fn compression_tally_records_merges_and_saturates() {
        let mut a = CompressionTally::new();
        assert!(!a.any());
        assert_eq!(a.ratio(), 1.0);
        a.record(1, 4000, 2000); // fp16
        a.record(3, 4000, 800); // topk
        a.record(99, 8, 8); // hostile index clamps to the last slot
        assert_eq!(a.frames, [0, 1, 0, 2]);
        assert_eq!(a.raw_bytes, 8008);
        assert_eq!(a.encoded_bytes, 2808);
        let mut b = CompressionTally {
            raw_bytes: u64::MAX,
            encoded_bytes: 1,
            frames: [u64::MAX, 0, 1, 0],
        };
        b.merge(&a);
        assert_eq!(b.raw_bytes, u64::MAX);
        assert_eq!(b.frames[0], u64::MAX);
        assert_eq!(b.frames[1], 1);
        assert_eq!(b.frames[2], 1);
        assert!(b.any());
    }

    #[test]
    fn compression_free_display_is_unchanged_and_codec_stats_surface() {
        let mut s = CommStats::new();
        s.record_down(2_000_000);
        s.end_round();
        // fp32-only runs record nothing: the legacy rendering, byte for byte
        assert_eq!(s.to_string(), "2.00 MB down, 0.00 MB up over 1 rounds");
        s.record_compression(&CompressionTally {
            raw_bytes: 4_000_000,
            encoded_bytes: 1_000_000,
            frames: [0, 2, 5, 1],
        });
        let text = s.to_string();
        assert!(
            text.contains("4.00 MB raw -> 1.00 MB encoded (4.00x)"),
            "{text}"
        );
        assert!(text.contains("2 fp16"), "{text}");
        assert!(text.contains("5 int8"), "{text}");
        assert!(text.contains("1 topk"), "{text}");
        assert!(
            !text.contains("fp32"),
            "zero-count codecs stay hidden: {text}"
        );
    }

    #[test]
    fn compression_interleaves_with_other_tallies() {
        // deltas from different subsystems must never leak into each other
        let mut s = CommStats::new();
        let mut raw = 0u64;
        let mut frames_int8 = 0u64;
        for i in 0..10u64 {
            s.record_up(100);
            s.record_compression(&CompressionTally {
                raw_bytes: 400,
                encoded_bytes: 100,
                frames: [0, 0, 1, 0],
            });
            raw += 400;
            frames_int8 += 1;
            s.record_faults(&FaultTally {
                frames_dropped: 1,
                ..FaultTally::default()
            });
            s.end_round();
            assert_eq!(s.compression.raw_bytes, raw);
            assert_eq!(s.compression.frames[2], frames_int8);
            assert_eq!(s.bytes_up, (i + 1) * 100);
            assert_eq!(s.faults.frames_dropped, i + 1);
        }
        assert!((s.compression.ratio() - 4.0).abs() < 1e-12);
        let mut merged = CommStats::new();
        merged.merge(&s);
        assert_eq!(merged.compression, s.compression);
    }

    #[test]
    fn churn_free_display_is_unchanged_and_churn_surfaces() {
        let mut s = CommStats::new();
        s.record_down(2_000_000);
        s.end_round();
        // no enrolled population: the legacy rendering, byte for byte
        assert_eq!(s.to_string(), "2.00 MB down, 0.00 MB up over 1 rounds");
        s.record_churn(&ChurnTally {
            sampled: 64,
            unavailable: 40_000,
            flaps: 7,
            evicted: 2,
            readmitted: 1,
        });
        let text = s.to_string();
        assert!(text.contains("64 sampled"), "{text}");
        assert!(text.contains("40000 unavailable"), "{text}");
        assert!(text.contains("7 flaps"), "{text}");
        assert!(text.contains("2 evicted"), "{text}");
        assert!(text.contains("1 readmitted"), "{text}");
    }

    #[test]
    fn churn_tally_merge_saturates() {
        let mut a = ChurnTally {
            sampled: u64::MAX,
            flaps: 1,
            ..ChurnTally::default()
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.sampled, u64::MAX);
        assert_eq!(a.flaps, 2);
        assert!(a.any());
        assert!(!ChurnTally::new().any());
    }

    #[test]
    fn churn_interleaves_with_other_tallies_and_affects_equality() {
        // churn deltas never leak into byte totals or other tallies, and a
        // run that saw churn compares unequal to one that did not
        let mut s = CommStats::new();
        let mut sampled = 0u64;
        for i in 0..8u64 {
            s.record_down(100);
            s.record_churn(&ChurnTally {
                sampled: 64,
                unavailable: 10,
                ..ChurnTally::default()
            });
            sampled += 64;
            s.record_faults(&FaultTally {
                frames_dropped: 1,
                ..FaultTally::default()
            });
            s.end_round();
            assert_eq!(s.churn.sampled, sampled);
            assert_eq!(s.bytes_down, (i + 1) * 100);
            assert_eq!(s.faults.frames_dropped, i + 1);
        }
        let mut quiet = s;
        quiet.churn = ChurnTally::default();
        assert_ne!(s, quiet, "churn must participate in equality");
        let mut merged = CommStats::new();
        merged.merge(&s);
        assert_eq!(merged.churn, s.churn);
    }

    #[test]
    fn timing_is_display_only_and_never_affects_equality() {
        let mut s = CommStats::new();
        s.record_down(2_000_000);
        s.end_round();
        // timing-free rendering stays byte-identical to the legacy format
        assert_eq!(s.to_string(), "2.00 MB down, 0.00 MB up over 1 rounds");
        let mut timed = s;
        timed.record_timing(&RoundTimings {
            ship_ns: 1_500_000,
            collect_ns: 2_000_000,
            decode_ns: 300_000,
            validate_ns: 100_000,
            aggregate_ns: 250_000,
        });
        assert!(timed.timing.any());
        let text = timed.to_string();
        assert!(text.contains("1.5 ms ship"), "{text}");
        assert!(text.contains("2.0 ms collect"), "{text}");
        assert!(text.contains("0.3 ms decode"), "{text}");
        assert!(text.contains("0.1 ms validate"), "{text}");
        assert!(text.contains("0.2 ms aggregate"), "{text}");
        // identical traffic, different wall-clock: still equal — the
        // determinism suites compare CommStats across execution modes
        assert_eq!(s, timed);
        // saturating merge, and serde must not carry the field
        let mut t = RoundTimings {
            ship_ns: u64::MAX,
            ..RoundTimings::default()
        };
        t.merge(&RoundTimings {
            ship_ns: 1,
            collect_ns: 2,
            ..RoundTimings::default()
        });
        assert_eq!(t.ship_ns, u64::MAX);
        assert_eq!(t.collect_ns, 2);
    }

    #[test]
    fn io_tally_merge_saturates() {
        let mut a = IoFaultTally {
            torn_writes: u64::MAX,
            retries: 1,
            ..IoFaultTally::default()
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.torn_writes, u64::MAX);
        assert_eq!(a.retries, 2);
        assert_eq!(a.total_injected(), u64::MAX);
        assert!(a.any());
        assert!(!IoFaultTally::new().any());
        // recovery counters never count as injected faults
        let recovery_only = IoFaultTally {
            retries: 3,
            quarantined: 1,
            scrub_repaired: 2,
            ..IoFaultTally::default()
        };
        assert_eq!(recovery_only.total_injected(), 0);
        assert!(recovery_only.any());
    }

    #[test]
    fn io_free_display_is_unchanged_and_io_faults_surface() {
        let mut s = CommStats::new();
        s.record_down(2_000_000);
        s.end_round();
        // no storage faults: the legacy rendering, byte for byte
        assert_eq!(s.to_string(), "2.00 MB down, 0.00 MB up over 1 rounds");
        s.record_io_faults(&IoFaultTally {
            torn_writes: 2,
            dropped_fsyncs: 3,
            io_errors: 1,
            disk_full: 4,
            retries: 5,
            quarantined: 1,
            scrub_repaired: 2,
        });
        let text = s.to_string();
        assert!(text.contains("2 torn"), "{text}");
        assert!(text.contains("3 fsync-dropped"), "{text}");
        assert!(text.contains("1 eio"), "{text}");
        assert!(text.contains("4 enospc"), "{text}");
        assert!(text.contains("5 retries"), "{text}");
        assert!(text.contains("1 quarantined"), "{text}");
        assert!(text.contains("2 scrub-repaired"), "{text}");
    }

    #[test]
    fn io_tally_interleaves_and_never_affects_equality() {
        // storage-fault deltas never leak into byte totals or other
        // tallies, and — like timing — never participate in equality: the
        // chaos suites compare fault-ridden runs against clean baselines
        let mut s = CommStats::new();
        let mut torn = 0u64;
        for i in 0..8u64 {
            s.record_down(100);
            s.record_io_faults(&IoFaultTally {
                torn_writes: 1,
                retries: 2,
                ..IoFaultTally::default()
            });
            torn += 1;
            s.record_faults(&FaultTally {
                frames_dropped: 1,
                ..FaultTally::default()
            });
            s.end_round();
            assert_eq!(s.io.torn_writes, torn);
            assert_eq!(s.io.retries, 2 * torn);
            assert_eq!(s.bytes_down, (i + 1) * 100);
            assert_eq!(s.faults.frames_dropped, i + 1);
        }
        let mut clean = s;
        clean.io = IoFaultTally::default();
        assert_eq!(s, clean, "io tally must not participate in equality");
        let mut merged = CommStats::new();
        merged.merge(&s);
        assert_eq!(merged.io, s.io);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let mut s = CommStats::new();
        s.record_down(usize::MAX);
        s.record_down(usize::MAX);
        s.record_up(usize::MAX);
        s.record_up(usize::MAX);
        assert_eq!(s.bytes_down, u64::MAX);
        assert_eq!(s.bytes_up, u64::MAX);
        assert_eq!(s.total_bytes(), u64::MAX);
        let other = s;
        s.merge(&other);
        assert_eq!(s.total_bytes(), u64::MAX);
        s.rounds = u64::MAX;
        s.end_round();
        assert_eq!(s.rounds, u64::MAX);
        assert!(s.bytes_per_round() > 0.0);
    }
}
