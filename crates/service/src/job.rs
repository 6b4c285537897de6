//! One tenant of the service: a job's lifecycle state machine wrapped
//! around a live [`FederatedModelSearch`].
//!
//! # Lifecycle
//!
//! ```text
//!          submit            schedule           last round
//! (none) ────────▶ Queued ────────────▶ Running ──────────▶ Completed
//!                    │                  ▲     │ │
//!                    │           resume │     │ │ persistent store
//!                    │                  └─────┤ │ failure
//!                    │ cancel   pause / byte  │ ▼            resume
//!                    │          budget        │ Quarantined ───────▶ ✗
//!                    ▼                        ▼      │   (refused until
//!                Cancelled ◀──────────── Cancelled ◀─┘    a scrub clears)
//! ```
//!
//! `Completed` and `Cancelled` are terminal. `Quarantined` is *sticky but
//! not terminal*: a job lands there when its durable record cannot be
//! trusted (persistent write failure, disk full, or a record that fails
//! validation), carries a typed [`QuarantineReason`], and refuses every
//! transition except `cancel` until a store scrub re-verifies its record
//! — then `resume` rebuilds it from the verified bytes. A crash can
//! interrupt a job in any state; recovery rebuilds it from the store and
//! re-enters the same state, with `Running` jobs resuming from their last
//! checkpoint bit-identically.

use fedrlnas_core::{FederatedModelSearch, SearchOutcome};
use fedrlnas_rpc::{install, RpcConfig};
use rand::{rngs::StdRng, SeedableRng};

use crate::spec::JobSpec;

/// Where a job is in its lifecycle. The `u8` codes are the wire and store
/// representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and durable, not yet scheduled a round.
    Queued = 0,
    /// In the scheduler rotation.
    Running = 1,
    /// Held out of the rotation (explicit pause or exhausted byte
    /// budget); resumable.
    Paused = 2,
    /// Every round ran; terminal.
    Completed = 3,
    /// Abandoned on request; terminal.
    Cancelled = 4,
    /// Isolated after its durable record could not be written or
    /// trusted; sticky (only `cancel`, or `resume` after a successful
    /// scrub, can leave it). Not terminal.
    Quarantined = 5,
}

impl JobState {
    /// The wire/store code for this state.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Decodes a wire/store state code.
    pub fn from_code(code: u8) -> Option<JobState> {
        match code {
            0 => Some(JobState::Queued),
            1 => Some(JobState::Running),
            2 => Some(JobState::Paused),
            3 => Some(JobState::Completed),
            4 => Some(JobState::Cancelled),
            5 => Some(JobState::Quarantined),
            _ => None,
        }
    }

    /// Human-readable name (CLI and status output).
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Paused => "paused",
            JobState::Completed => "completed",
            JobState::Cancelled => "cancelled",
            JobState::Quarantined => "quarantined",
        }
    }

    /// `true` for states no schedule or control message can leave.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Completed | JobState::Cancelled)
    }

    /// `true` for states the scheduler will never run again on its own:
    /// terminal states plus [`JobState::Quarantined`] (which needs an
    /// operator-triggered scrub to leave). The serve loop's exit
    /// condition, where a disk-broken job must not keep the service
    /// alive forever.
    pub fn is_settled(self) -> bool {
        self.is_terminal() || self == JobState::Quarantined
    }
}

/// Why a job was quarantined. The `u8` codes persist in the segment
/// flags byte, so the reason survives restarts; 0 means "not
/// quarantined".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// Persistent I/O failure while persisting the job's record.
    Io(String),
    /// The disk reported out of space while persisting the record.
    DiskFull(String),
    /// No bit-valid durable record for the job survives on disk.
    Corrupt(String),
}

impl QuarantineReason {
    /// The store/wire code for this reason kind.
    pub fn code(&self) -> u8 {
        match self {
            QuarantineReason::Io(_) => 1,
            QuarantineReason::DiskFull(_) => 2,
            QuarantineReason::Corrupt(_) => 3,
        }
    }

    /// Rebuilds a (detail-free) reason from a stored code.
    pub fn from_code(code: u8) -> Option<QuarantineReason> {
        match code {
            1 => Some(QuarantineReason::Io(String::from(
                "persistent i/o failure (restored from store)",
            ))),
            2 => Some(QuarantineReason::DiskFull(String::from(
                "disk full (restored from store)",
            ))),
            3 => Some(QuarantineReason::Corrupt(String::from(
                "no valid durable record (restored from store)",
            ))),
            _ => None,
        }
    }

    /// Short machine-friendly kind tag (status JSON).
    pub fn kind(&self) -> &'static str {
        match self {
            QuarantineReason::Io(_) => "io",
            QuarantineReason::DiskFull(_) => "disk-full",
            QuarantineReason::Corrupt(_) => "corrupt",
        }
    }
}

impl std::fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuarantineReason::Io(d) => write!(f, "io: {d}"),
            QuarantineReason::DiskFull(d) => write!(f, "disk-full: {d}"),
            QuarantineReason::Corrupt(d) => write!(f, "corrupt: {d}"),
        }
    }
}

/// A live job: its spec, lifecycle state, search instance and RNG stream.
pub struct Job {
    /// Store-assigned id.
    pub job_id: u64,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Store generation of the last durable record (fencing token).
    pub generation: u64,
    state: JobState,
    search: FederatedModelSearch,
    rng: StdRng,
}

impl Job {
    /// Builds a fresh job from a spec: [`Job::resume`] without a
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// The spec's [`build_config`](JobSpec::build_config) error.
    pub fn create(job_id: u64, spec: JobSpec, generation: u64) -> Result<Job, String> {
        Job::resume(job_id, spec, generation, JobState::Queued, &[])
    }

    /// Builds a job the way a single `fedrlnas search` run builds its
    /// search (RNG from the seed, dataset from `seed ^ 0xDA7A`, then
    /// server), so results match it bit for bit. When a checkpoint exists
    /// it is restored **before** the backend install, so RPC worker
    /// clones see the restored participants.
    ///
    /// # Errors
    ///
    /// Spec errors as strings; checkpoint decode/restore errors likewise.
    pub fn resume(
        job_id: u64,
        spec: JobSpec,
        generation: u64,
        state: JobState,
        checkpoint: &[u8],
    ) -> Result<Job, String> {
        let config = spec.build_config()?;
        let dataset = spec.build_dataset(&config);
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut search = FederatedModelSearch::with_dataset(config, dataset, &mut rng);
        if !checkpoint.is_empty() {
            search
                .resume_from_bytes(checkpoint, &mut rng)
                .map_err(|e| format!("job {job_id} checkpoint: {e}"))?;
        }
        if spec.uses_rpc() {
            // `fedrlnas search --rpc` with no other rpc flag: a private
            // in-memory engine per job
            let dataset = search.dataset().clone();
            install(search.server_mut(), &dataset, RpcConfig::default());
        }
        Ok(Job {
            job_id,
            spec,
            generation,
            state,
            search,
            rng,
        })
    }

    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        self.state
    }

    /// Moves to `next`; terminal states and quarantine are sticky (the
    /// manager leaves quarantine only through its scrub-gated paths,
    /// which use `Job::force_state`).
    pub fn set_state(&mut self, next: JobState) {
        if !self.state.is_settled() {
            self.state = next;
        }
    }

    /// Moves to `next` unconditionally: the manager's quarantine entry /
    /// exit paths, where the legality check has already happened.
    pub(crate) fn force_state(&mut self, next: JobState) {
        self.state = next;
    }

    /// Rounds completed so far.
    pub fn rounds_completed(&self) -> usize {
        self.search.rounds_completed()
    }

    /// Warm-up plus search rounds this job runs in total.
    pub fn total_rounds(&self) -> usize {
        self.search.total_rounds()
    }

    /// Bytes moved in both directions so far.
    pub fn bytes_total(&self) -> u64 {
        let comm = self.search.server().comm();
        comm.bytes_down + comm.bytes_up
    }

    /// Runs one round; flips to [`JobState::Completed`] after the last.
    /// Returns `true` when the job just became (or already was) complete.
    pub fn step_round(&mut self) -> bool {
        let done = self.search.step_round(&mut self.rng);
        if done {
            self.state = JobState::Completed;
        }
        done
    }

    /// Serializes the search state for the store.
    pub fn checkpoint_bytes(&mut self) -> Vec<u8> {
        self.search.checkpoint_bytes(&self.rng)
    }

    /// Everything produced so far (genotype, curves, traffic, latency).
    pub fn outcome(&self) -> SearchOutcome {
        self.search.outcome()
    }

    /// The underlying search (read-only accessors live on the server).
    pub fn search(&self) -> &FederatedModelSearch {
        &self.search
    }

    /// The underlying search, mutably.
    pub fn search_mut(&mut self) -> &mut FederatedModelSearch {
        &mut self.search
    }
}
