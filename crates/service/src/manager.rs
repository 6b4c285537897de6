//! The job manager: N independent searches multiplexed over the shared
//! kernel thread pool with fair round-robin scheduling, per-job quotas,
//! and durable state in a [`JobStore`].
//!
//! # Serial equivalence
//!
//! Jobs share no mutable state: each owns its config, dataset, server and
//! RNG stream, and the kernel thread pool is stateless (GEMM splits row
//! panels, so results are independent of the thread count). Any
//! interleaving of `step_round` calls across jobs is therefore equal to
//! running each job to completion in isolation — which is what the e2e
//! suites assert, bit for bit, against single-run baselines.
//!
//! # Failure isolation
//!
//! One job's disk trouble must never take down its neighbours. Every
//! persist goes through a bounded retry with deterministic backoff; when
//! the retries are exhausted the job is **quarantined** — pulled from the
//! rotation with a sticky [`QuarantineReason`] — and the scheduling loop
//! keeps serving the other tenants. Jobs whose stored record fails
//! validation at recovery, and manifest entries whose segments were all
//! destroyed, are likewise quarantined (the latter as *ghosts*: visible
//! in listings, but with no live search instance). An operator-triggered
//! [`JobManager::scrub`] re-verifies and repairs the store; quarantined
//! jobs whose record verifies afterwards may then be resumed.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;

use fedrlnas_core::{StdVfs, Vfs};
use fedrlnas_fed::IoFaultTally;

use crate::job::{Job, JobState, QuarantineReason};
use crate::spec::JobSpec;
use crate::stats::comm_stats_json;
use crate::store::{JobStore, ScrubReport, StoreError};

/// Attempts per persist before the job is quarantined.
const PERSIST_ATTEMPTS: u32 = 3;

/// Per-job resource quotas, applied uniformly to every tenant.
#[derive(Debug, Clone)]
pub struct JobQuotas {
    /// Rounds one job may run per scheduling turn before the rotation
    /// moves on (the fairness quantum).
    pub max_rounds_in_flight: usize,
    /// Kernel thread-pool width while a job's rounds execute (`0` leaves
    /// the pool at its ambient width). Thread count never affects
    /// numerics, so this throttles CPU without touching results.
    pub thread_budget: usize,
    /// Total traffic (bytes down + up, from the job's `CommStats`) after
    /// which the job is auto-paused; `None` is unlimited. A paused job
    /// keeps its durable checkpoint and can be resumed explicitly.
    pub byte_budget: Option<u64>,
}

impl Default for JobQuotas {
    fn default() -> Self {
        JobQuotas {
            max_rounds_in_flight: 1,
            thread_budget: 0,
            byte_budget: None,
        }
    }
}

/// Why a manager operation failed.
#[derive(Debug)]
pub enum ServiceError {
    /// The durable layer failed.
    Store(StoreError),
    /// A job spec failed to decode or validate.
    Spec(String),
    /// No such job.
    UnknownJob(u64),
    /// The requested lifecycle transition is not allowed from the job's
    /// current state.
    InvalidTransition {
        /// Target job.
        job_id: u64,
        /// State the job is in.
        from: JobState,
        /// Operation that was refused.
        op: &'static str,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Store(e) => write!(f, "{e}"),
            ServiceError::Spec(e) => write!(f, "bad job spec: {e}"),
            ServiceError::UnknownJob(id) => write!(f, "unknown job id {id}"),
            ServiceError::InvalidTransition { job_id, from, op } => {
                write!(f, "cannot {op} job {job_id} in state {}", from.name())
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<StoreError> for ServiceError {
    fn from(e: StoreError) -> Self {
        ServiceError::Store(e)
    }
}

/// Owns every live job, the scheduler rotation, and the store.
pub struct JobManager {
    store: JobStore,
    jobs: BTreeMap<u64, Job>,
    /// Quarantined jobs and why. Ids present here but absent from `jobs`
    /// are ghosts: a durable trace exists (a manifest entry, or a record
    /// that fails validation) but no live search instance could be
    /// built.
    quarantine: BTreeMap<u64, QuarantineReason>,
    /// Quarantined jobs whose durable record verified during the last
    /// successful scrub — the only ones `resume` will accept.
    scrub_cleared: BTreeSet<u64>,
    /// Aggregate injected-fault / retry / quarantine tally across every
    /// tenant (drained store deltas plus manager-level events).
    io: IoFaultTally,
    quotas: JobQuotas,
    checkpoint_every: usize,
    rotation: Vec<u64>,
    cursor: usize,
}

impl JobManager {
    /// Opens the store at `dir`, rebuilds every stored job (resuming each
    /// from its last checkpoint), and returns the manager. Jobs that were
    /// `Running` when the previous process died re-enter the rotation and
    /// continue bit-identically from their last durable snapshot; jobs
    /// whose record cannot be rebuilt are quarantined, never fatal.
    /// `checkpoint_every` is the per-job snapshot period in rounds (`0`
    /// snapshots only at completion and shutdown).
    ///
    /// # Errors
    ///
    /// Store open (filesystem) errors only.
    pub fn open(
        dir: &Path,
        quotas: JobQuotas,
        checkpoint_every: usize,
    ) -> Result<JobManager, ServiceError> {
        JobManager::open_with(dir, quotas, checkpoint_every, Box::new(StdVfs))
    }

    /// [`JobManager::open`] over an explicit [`Vfs`] — the seam the
    /// storage fault-injection suites drive.
    ///
    /// # Errors
    ///
    /// As [`JobManager::open`].
    pub fn open_with(
        dir: &Path,
        quotas: JobQuotas,
        checkpoint_every: usize,
        vfs: Box<dyn Vfs>,
    ) -> Result<JobManager, ServiceError> {
        let store = JobStore::open_with(dir, vfs)?;
        let mut mgr = JobManager {
            store,
            jobs: BTreeMap::new(),
            quarantine: BTreeMap::new(),
            scrub_cleared: BTreeSet::new(),
            io: IoFaultTally::default(),
            quotas,
            checkpoint_every,
            rotation: Vec::new(),
            cursor: 0,
        };
        for (job_id, state_code, generation) in mgr.store.list() {
            let record = mgr.store.get(job_id).expect("listed job exists");
            let built = JobSpec::decode(&record.spec).and_then(|spec| {
                let state = JobState::from_code(state_code)
                    .ok_or_else(|| format!("bad stored state {state_code}"))?;
                Job::resume(job_id, spec, generation, state, &record.checkpoint)
            });
            match built {
                Ok(job) => {
                    if job.state() == JobState::Quarantined {
                        // Carried-over quarantine: restore the typed
                        // reason from the record's flags byte.
                        let reason =
                            QuarantineReason::from_code(record.flags).unwrap_or_else(|| {
                                QuarantineReason::Io(String::from(
                                    "quarantined before shutdown (reason code lost)",
                                ))
                            });
                        mgr.quarantine.insert(job_id, reason);
                    }
                    mgr.jobs.insert(job_id, job);
                }
                Err(why) => {
                    // The record exists but cannot be trusted: isolate the
                    // job instead of refusing to serve every tenant.
                    mgr.io.quarantined = mgr.io.quarantined.saturating_add(1);
                    mgr.quarantine
                        .insert(job_id, QuarantineReason::Corrupt(why));
                }
            }
        }
        for id in mgr.store.lost_jobs().to_vec() {
            if !mgr.quarantine.contains_key(&id) {
                mgr.io.quarantined = mgr.io.quarantined.saturating_add(1);
                mgr.quarantine.insert(
                    id,
                    QuarantineReason::Corrupt(format!(
                        "job {id} is in the manifest but no valid segment survives"
                    )),
                );
            }
        }
        mgr.flush_quarantine();
        mgr.rebuild_rotation();
        Ok(mgr)
    }

    /// Accepts a job: persists the spec (durable before the reply), then
    /// instantiates the search. Returns the assigned job id. The spec was
    /// validated when it was built, so only the store can refuse it here.
    ///
    /// # Errors
    ///
    /// Store errors (including [`StoreError::ReadOnly`] while the store is
    /// degraded).
    pub fn submit(&mut self, spec: JobSpec) -> Result<u64, ServiceError> {
        let bytes = spec.encode();
        let created = self.store.create(&bytes, JobState::Queued.code());
        self.drain_store_tally(None);
        let job_id = created?;
        let job = Job::create(job_id, spec, 1).map_err(ServiceError::Spec)?;
        self.jobs.insert(job_id, job);
        self.rebuild_rotation();
        Ok(job_id)
    }

    /// Takes a job out of the rotation (durably).
    ///
    /// # Errors
    ///
    /// Unknown job, disallowed transition, store errors.
    pub fn pause(&mut self, job_id: u64) -> Result<(), ServiceError> {
        self.transition(job_id, JobState::Paused, "pause", |s| {
            matches!(s, JobState::Queued | JobState::Running)
        })
    }

    /// Puts a paused job back into the rotation (durably). For a
    /// quarantined job this is refused until a successful
    /// [`JobManager::scrub`] has re-verified its durable record; the
    /// resume then rebuilds the job from the verified bytes.
    ///
    /// # Errors
    ///
    /// Unknown job, disallowed transition (including quarantine without a
    /// clearing scrub), store errors.
    pub fn resume(&mut self, job_id: u64) -> Result<(), ServiceError> {
        if self.quarantine.contains_key(&job_id) {
            if !self.scrub_cleared.contains(&job_id) {
                return Err(ServiceError::InvalidTransition {
                    job_id,
                    from: JobState::Quarantined,
                    op: "resume (scrub required)",
                });
            }
            let record = self
                .store
                .get(job_id)
                .cloned()
                .ok_or(ServiceError::UnknownJob(job_id))?;
            let spec = JobSpec::decode(&record.spec).map_err(ServiceError::Spec)?;
            let mut job = Job::resume(
                job_id,
                spec,
                record.generation,
                JobState::Running,
                &record.checkpoint,
            )
            .map_err(ServiceError::Spec)?;
            // Durable flip first: if the disk is still broken the job
            // stays quarantined rather than running un-persistably.
            let flipped = self.store.set_state(job_id, JobState::Running.code());
            self.drain_store_tally(None);
            job.generation = flipped?;
            self.jobs.insert(job_id, job);
            self.quarantine.remove(&job_id);
            self.scrub_cleared.remove(&job_id);
            self.rebuild_rotation();
            return Ok(());
        }
        self.transition(job_id, JobState::Running, "resume", |s| {
            matches!(s, JobState::Paused | JobState::Queued)
        })
    }

    /// Abandons a job (durably, terminal). Allowed from quarantine: an
    /// operator may always walk away from a job the disk betrayed.
    ///
    /// # Errors
    ///
    /// Unknown job, already-terminal transition, store errors.
    pub fn cancel(&mut self, job_id: u64) -> Result<(), ServiceError> {
        self.transition(job_id, JobState::Cancelled, "cancel", |s| !s.is_terminal())?;
        self.quarantine.remove(&job_id);
        self.scrub_cleared.remove(&job_id);
        Ok(())
    }

    fn transition(
        &mut self,
        job_id: u64,
        to: JobState,
        op: &'static str,
        allowed: impl Fn(JobState) -> bool,
    ) -> Result<(), ServiceError> {
        let job = self
            .jobs
            .get_mut(&job_id)
            .ok_or(ServiceError::UnknownJob(job_id))?;
        if !allowed(job.state()) {
            return Err(ServiceError::InvalidTransition {
                job_id,
                from: job.state(),
                op,
            });
        }
        // Durable first: on a store failure the in-memory state is
        // unchanged and the client sees the error.
        let flipped = self.store.set_state(job_id, to.code());
        self.drain_store_tally(None);
        let generation = flipped?;
        let job = self.jobs.get_mut(&job_id).expect("checked above");
        job.force_state(to);
        job.generation = generation;
        self.rebuild_rotation();
        Ok(())
    }

    /// A job's `(state, rounds_completed, total_rounds)`. Ghost
    /// (quarantined, no live instance) jobs report `(Quarantined, 0, 0)`.
    ///
    /// # Errors
    ///
    /// Unknown job.
    pub fn status(&self, job_id: u64) -> Result<(JobState, usize, usize), ServiceError> {
        if let Some(job) = self.jobs.get(&job_id) {
            return Ok((job.state(), job.rounds_completed(), job.total_rounds()));
        }
        if self.quarantine.contains_key(&job_id) {
            return Ok((JobState::Quarantined, 0, 0));
        }
        Err(ServiceError::UnknownJob(job_id))
    }

    /// Why a job is quarantined (`None` when it is not).
    pub fn quarantine_reason(&self, job_id: u64) -> Option<&QuarantineReason> {
        self.quarantine.get(&job_id)
    }

    /// A completed job's genotype in compact notation (`None` until
    /// completion) — the parse/compare-friendly form `retrain` accepts.
    ///
    /// # Errors
    ///
    /// Unknown job.
    pub fn genotype(&self, job_id: u64) -> Result<Option<String>, ServiceError> {
        let job = self
            .jobs
            .get(&job_id)
            .ok_or(ServiceError::UnknownJob(job_id))?;
        if job.state() == JobState::Completed {
            Ok(Some(job.outcome().genotype.to_compact_string()))
        } else {
            Ok(None)
        }
    }

    /// The job's communication statistics as JSON (the `StatsDump` /
    /// `--stats-json` payload).
    ///
    /// # Errors
    ///
    /// Unknown job.
    pub fn stats_json(&self, job_id: u64) -> Result<String, ServiceError> {
        let job = self
            .jobs
            .get(&job_id)
            .ok_or(ServiceError::UnknownJob(job_id))?;
        Ok(comm_stats_json(
            job.search().server().comm(),
            job.rounds_completed(),
            job.total_rounds(),
        ))
    }

    /// `(job_id, state_code)` for every job, ghosts included, id-ordered.
    pub fn list(&self) -> Vec<(u64, u8)> {
        let mut out: Vec<(u64, u8)> = self
            .jobs
            .values()
            .map(|j| (j.job_id, j.state().code()))
            .collect();
        for id in self.quarantine.keys() {
            if !self.jobs.contains_key(id) {
                out.push((*id, JobState::Quarantined.code()));
            }
        }
        out.sort_unstable();
        out
    }

    /// Immutable access to a live job.
    pub fn job(&self, job_id: u64) -> Option<&Job> {
        self.jobs.get(&job_id)
    }

    /// Immutable access to the store (health introspection).
    pub fn store(&self) -> &JobStore {
        &self.store
    }

    /// `true` when no job is schedulable (all paused, quarantined or
    /// terminal).
    pub fn is_idle(&self) -> bool {
        self.rotation.is_empty()
    }

    /// `true` once every job reached a terminal state.
    pub fn all_terminal(&self) -> bool {
        self.jobs.values().all(|j| j.state().is_terminal())
    }

    /// `true` once every job is settled — terminal or quarantined. The
    /// serve loop's exit condition: a disk-broken tenant must not keep
    /// the service alive forever.
    pub fn all_settled(&self) -> bool {
        self.jobs.values().all(|j| j.state().is_settled())
    }

    /// Aggregate injected-fault / retry / quarantine tally across all
    /// tenants since the manager opened. Deterministic for a
    /// deterministic fault plan and tick sequence.
    pub fn io_tally(&self) -> IoFaultTally {
        self.io
    }

    /// One scheduling turn: picks the next runnable job in the rotation
    /// and runs up to `max_rounds_in_flight` rounds of it, snapshotting
    /// per the checkpoint period, completion, and the byte budget.
    /// Returns `true` if the turn made progress: a round ran, or the
    /// picked job settled by quarantine. The quarantine case matters for
    /// [`JobManager::run_until_idle`] — the failed tenant leaves the
    /// rotation, so `false` here would abandon every still-runnable job
    /// behind it.
    ///
    /// Store failures while persisting never propagate: the affected job
    /// retries, then quarantines, and the loop serves the other tenants.
    ///
    /// # Errors
    ///
    /// None today; the signature stays fallible for the control plane.
    pub fn tick(&mut self) -> Result<bool, ServiceError> {
        self.flush_quarantine();
        let job_id = match self.next_runnable() {
            Some(id) => id,
            None => return Ok(false),
        };
        if self.quotas.thread_budget > 0 {
            fedrlnas_tensor::set_num_threads(self.quotas.thread_budget);
        }

        let burst = self.quotas.max_rounds_in_flight.max(1);
        let mut ran = false;
        for _ in 0..burst {
            let job = self.jobs.get_mut(&job_id).expect("rotation entry exists");
            if job.state() == JobState::Queued {
                job.set_state(JobState::Running);
                if !self.persist_or_quarantine(job_id, JobState::Running, false) {
                    // The job quarantined before running a round; that is
                    // still progress — report it, or an idle-driving loop
                    // would stop with runnable tenants left in rotation.
                    ran = true;
                    break;
                }
            }
            let job = self.jobs.get_mut(&job_id).expect("rotation entry exists");
            let done = job.step_round();
            ran = true;
            let rounds = job.rounds_completed();
            let over_budget = self
                .quotas
                .byte_budget
                .is_some_and(|limit| job.bytes_total() > limit);

            if done {
                self.persist_or_quarantine(job_id, JobState::Completed, true);
                break;
            }
            if over_budget {
                if self.persist_or_quarantine(job_id, JobState::Paused, true) {
                    let job = self.jobs.get_mut(&job_id).expect("still live");
                    job.set_state(JobState::Paused);
                }
                break;
            }
            if self.checkpoint_every > 0
                && rounds.is_multiple_of(self.checkpoint_every)
                && !self.persist_or_quarantine(job_id, JobState::Running, true)
            {
                break;
            }
        }
        self.rebuild_rotation();
        Ok(ran)
    }

    /// Runs scheduling turns until no job is runnable (all completed,
    /// cancelled, quarantined, or paused by quota).
    ///
    /// # Errors
    ///
    /// As [`JobManager::tick`].
    pub fn run_until_idle(&mut self) -> Result<(), ServiceError> {
        while self.tick()? {}
        Ok(())
    }

    /// Durably snapshots every non-settled job (the graceful-shutdown
    /// path), then best-effort compacts superseded segments. Jobs whose
    /// snapshot cannot be written are quarantined, not fatal.
    ///
    /// # Errors
    ///
    /// None today; the signature stays fallible for the control plane.
    pub fn checkpoint_all(&mut self) -> Result<(), ServiceError> {
        let ids: Vec<u64> = self
            .jobs
            .values()
            .filter(|j| !j.state().is_settled())
            .map(|j| j.job_id)
            .collect();
        for id in ids {
            let state = self.jobs[&id].state();
            self.persist_or_quarantine(id, state, true);
        }
        // Hygiene, not durability: never let a compaction error mask a
        // successful shutdown snapshot.
        let _ = self.store.compact();
        self.drain_store_tally(None);
        Ok(())
    }

    /// Scrubs the store (CRC-verify every live record, repair from the
    /// newest valid generation, sweep temp orphans, clear degraded mode),
    /// then marks quarantined jobs whose durable record now verifies as
    /// eligible for [`JobManager::resume`].
    ///
    /// # Errors
    ///
    /// Store errors when the disk is still too broken to scrub.
    pub fn scrub(&mut self) -> Result<ScrubReport, ServiceError> {
        let result = self.store.scrub();
        self.drain_store_tally(None);
        let report = result?;
        let cleared: Vec<u64> = self
            .quarantine
            .keys()
            .copied()
            .filter(|id| self.store.get(*id).is_some())
            .collect();
        self.scrub_cleared.extend(cleared);
        // The disk just proved writable: make pending sticky states
        // durable now.
        self.flush_quarantine();
        Ok(report)
    }

    /// Writes one job's state (and, when `with_checkpoint`, its
    /// snapshot) with bounded deterministic-backoff retries; quarantines
    /// the job when they are exhausted. Returns `true` when durable.
    fn persist_or_quarantine(
        &mut self,
        job_id: u64,
        state: JobState,
        with_checkpoint: bool,
    ) -> bool {
        let mut retries = 0u64;
        let mut last_err: Option<StoreError> = None;
        for attempt in 0..PERSIST_ATTEMPTS {
            if attempt > 0 {
                retries += 1;
                std::thread::sleep(std::time::Duration::from_micros(backoff_us(
                    job_id, attempt,
                )));
                // Adopt whatever the last half-applied commit left on
                // disk (a committed segment whose manifest write failed
                // bumps the on-disk generation), then re-fence on it.
                if self.store.refresh().is_ok() {
                    if let Some(gen) = self.store.get(job_id).map(|r| r.generation) {
                        if let Some(job) = self.jobs.get_mut(&job_id) {
                            job.generation = gen;
                        }
                    }
                }
            }
            let job = match self.jobs.get_mut(&job_id) {
                Some(j) => j,
                None => return false,
            };
            let expected = job.generation;
            let result = if with_checkpoint {
                let ckpt = job.checkpoint_bytes();
                self.store.update(job_id, expected, state.code(), &ckpt)
            } else {
                self.store.set_state(job_id, state.code())
            };
            match result {
                Ok(generation) => {
                    self.jobs
                        .get_mut(&job_id)
                        .expect("persist target exists")
                        .generation = generation;
                    self.note_io(job_id, retries, 0);
                    return true;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let reason = reason_from(last_err.expect("attempts ran"));
        self.note_io(job_id, retries, 0);
        self.quarantine_job(job_id, reason);
        false
    }

    /// Isolates a job: sticky in-memory state, best-effort durable state
    /// and reason (the store may be the very thing failing — the flip is
    /// retried by [`JobManager::tick`] until it lands), out of rotation.
    fn quarantine_job(&mut self, job_id: u64, reason: QuarantineReason) {
        if let Some(job) = self.jobs.get_mut(&job_id) {
            job.force_state(JobState::Quarantined);
        }
        self.note_io(job_id, 0, 1);
        if let Ok(generation) =
            self.store
                .set_state_with_flags(job_id, JobState::Quarantined.code(), reason.code())
        {
            if let Some(job) = self.jobs.get_mut(&job_id) {
                job.generation = generation;
            }
        }
        self.drain_store_tally(Some(job_id));
        self.quarantine.insert(job_id, reason);
        self.scrub_cleared.remove(&job_id);
        self.rebuild_rotation();
    }

    /// Retries the durable `Quarantined` flip for entries whose on-disk
    /// record still shows a pre-quarantine state (the disk was broken at
    /// quarantine time).
    fn flush_quarantine(&mut self) {
        let pending: Vec<(u64, u8)> = self
            .quarantine
            .iter()
            .filter(|(id, _)| {
                self.store
                    .get(**id)
                    .is_some_and(|r| r.state != JobState::Quarantined.code())
            })
            .map(|(id, reason)| (*id, reason.code()))
            .collect();
        if pending.is_empty() {
            return;
        }
        for (id, code) in pending {
            if let Ok(generation) =
                self.store
                    .set_state_with_flags(id, JobState::Quarantined.code(), code)
            {
                if let Some(job) = self.jobs.get_mut(&id) {
                    job.generation = generation;
                }
            }
        }
        self.drain_store_tally(None);
    }

    /// Folds manager-level io events (`retries` persist retries,
    /// `quarantined` new quarantines) plus any drained store tally into
    /// the aggregate and the job's own `CommStats`.
    fn note_io(&mut self, job_id: u64, retries: u64, quarantined: u64) {
        let mut delta = IoFaultTally {
            retries,
            quarantined,
            ..IoFaultTally::default()
        };
        let store_delta = self.store.take_io_tally();
        delta.merge(&store_delta);
        if delta.any() {
            self.io.merge(&delta);
            if let Some(job) = self.jobs.get_mut(&job_id) {
                job.search_mut().server_mut().record_io_faults(&delta);
            }
        }
    }

    /// Drains the store's fault tally into the aggregate, attributing it
    /// to `job_id`'s `CommStats` when given.
    fn drain_store_tally(&mut self, job_id: Option<u64>) {
        let delta = self.store.take_io_tally();
        if delta.any() {
            self.io.merge(&delta);
            if let Some(id) = job_id {
                if let Some(job) = self.jobs.get_mut(&id) {
                    job.search_mut().server_mut().record_io_faults(&delta);
                }
            }
        }
    }

    fn next_runnable(&mut self) -> Option<u64> {
        if self.rotation.is_empty() {
            return None;
        }
        let id = self.rotation[self.cursor % self.rotation.len()];
        self.cursor = (self.cursor + 1) % self.rotation.len();
        Some(id)
    }

    fn rebuild_rotation(&mut self) {
        let prev = self
            .rotation
            .get(self.cursor % self.rotation.len().max(1))
            .copied();
        self.rotation = self
            .jobs
            .values()
            .filter(|j| matches!(j.state(), JobState::Queued | JobState::Running))
            .map(|j| j.job_id)
            .collect();
        // Keep the rotation position stable across membership changes so
        // one job finishing never lets another jump the queue.
        self.cursor = match prev {
            Some(p) => self.rotation.iter().position(|&id| id >= p).unwrap_or(0),
            None => 0,
        };
    }
}

/// Deterministic exponential backoff with per-(job, attempt) jitter:
/// same schedule every run, no thundering herd across jobs.
fn backoff_us(job_id: u64, attempt: u32) -> u64 {
    let base = 200u64 << (attempt - 1).min(6);
    let jitter = splitmix(job_id ^ u64::from(attempt).rotate_left(32)) % (base / 2 + 1);
    base + jitter
}

/// splitmix64 finalizer — cheap, well-mixed, stable across platforms.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Maps a terminal store failure to the quarantine reason it evidences.
fn reason_from(err: StoreError) -> QuarantineReason {
    match err {
        StoreError::Io(e) if e.kind() == std::io::ErrorKind::StorageFull => {
            QuarantineReason::DiskFull(e.to_string())
        }
        StoreError::Io(e) => QuarantineReason::Io(e.to_string()),
        StoreError::ReadOnly(why) => QuarantineReason::Io(why),
        StoreError::Corrupt(what) => QuarantineReason::Corrupt(what),
        other => QuarantineReason::Io(other.to_string()),
    }
}
