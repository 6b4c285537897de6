//! The high-level public API: run all four phases with one call.

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::config::SearchConfig;
use crate::metrics::CurveRecorder;
use crate::phases::{retrain_centralized, retrain_federated, RetrainReport};
use crate::server::{LatencyStats, SearchServer};
use fedrlnas_darts::Genotype;
use fedrlnas_data::{DatasetSpec, SyntheticDataset};
use fedrlnas_fed::CommStats;
use rand::rngs::StdRng;
use rand::Rng;
use std::path::{Path, PathBuf};

/// Periodic checkpointing policy for [`FederatedModelSearch::run_checkpointed`].
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// File the checkpoint is (atomically) written to.
    pub path: PathBuf,
    /// Snapshot every `every` completed rounds (`0` disables periodic
    /// snapshots; a final one is still written on completion).
    pub every: usize,
}

impl CheckpointPolicy {
    /// Snapshot to `path` every `every` rounds.
    pub fn new(path: impl Into<PathBuf>, every: usize) -> Self {
        CheckpointPolicy {
            path: path.into(),
            every,
        }
    }
}

/// Everything a search run produces: the architecture, the curves and the
/// systems-level statistics every experiment consumes.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Derived architecture (input to P3).
    pub genotype: Genotype,
    /// Warm-up curve (Fig. 3).
    pub warmup_curve: CurveRecorder,
    /// Search curve (Figs. 4–6, 8, 12).
    pub search_curve: CurveRecorder,
    /// Bytes exchanged.
    pub comm: CommStats,
    /// Per-round transmission latencies (Fig. 7).
    pub latency: LatencyStats,
    /// Simulated wall-clock search time in hours (Table V).
    pub sim_hours: f64,
    /// Final per-edge operation probabilities `[kind][edge][op]`.
    pub alpha_probs: [Vec<Vec<f32>>; 2],
}

/// One-stop federated model search: owns the dataset and the server, runs
/// P1+P2, and exposes P3/P4 helpers.
pub struct FederatedModelSearch {
    config: SearchConfig,
    dataset: SyntheticDataset,
    server: SearchServer,
}

impl FederatedModelSearch {
    /// Creates a search over a CIFAR10-like synthetic dataset sized to the
    /// configured supernet.
    pub fn new<R: Rng + ?Sized>(config: SearchConfig, rng: &mut R) -> Self {
        let spec = DatasetSpec::cifar10_like().with_image_hw(config.net.image_hw);
        let dataset = SyntheticDataset::generate(&spec, rng);
        Self::with_dataset(config, dataset, rng)
    }

    /// Creates a search over a caller-provided dataset.
    ///
    /// # Panics
    ///
    /// Panics if the dataset does not fit the search (see
    /// [`SearchServer::new`]).
    pub fn with_dataset<R: Rng + ?Sized>(
        config: SearchConfig,
        dataset: SyntheticDataset,
        rng: &mut R,
    ) -> Self {
        let server = SearchServer::new(config.clone(), &dataset, rng);
        FederatedModelSearch {
            config,
            dataset,
            server,
        }
    }

    /// The dataset being searched over.
    pub fn dataset(&self) -> &SyntheticDataset {
        &self.dataset
    }

    /// The underlying server (read-only accessors).
    pub fn server(&self) -> &SearchServer {
        &self.server
    }

    /// The underlying server (for fine-grained control).
    pub fn server_mut(&mut self) -> &mut SearchServer {
        &mut self.server
    }

    /// Attempts to resume from a checkpoint at `path`, restoring both the
    /// server state and the search RNG. Returns `Ok(false)` when no file
    /// exists (fresh start), `Ok(true)` after a successful resume, and a
    /// typed error when the file exists but is corrupt or does not fit.
    ///
    /// Must be called **before** installing an RPC backend: workers clone
    /// the participants at install time and have to see the restored state.
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`] from loading or restoring.
    pub fn try_resume(&mut self, path: &Path, rng: &mut StdRng) -> Result<bool, CheckpointError> {
        if !path.exists() {
            return Ok(false);
        }
        let cp = Checkpoint::load_path(path)?;
        cp.restore(&mut self.server)?;
        *rng = cp.rng();
        self.server.comm.record_resume();
        Ok(true)
    }

    /// Resumes from in-memory checkpoint bytes (the multi-job store path):
    /// restores the server state and the search RNG and records the resume.
    /// Same ordering constraint as [`FederatedModelSearch::try_resume`]:
    /// call **before** installing an RPC backend.
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`] from decoding or restoring.
    pub fn resume_from_bytes(
        &mut self,
        bytes: &[u8],
        rng: &mut StdRng,
    ) -> Result<(), CheckpointError> {
        let cp = Checkpoint::from_bytes(bytes)?;
        cp.restore(&mut self.server)?;
        *rng = cp.rng();
        self.server.comm.record_resume();
        Ok(())
    }

    /// Serializes the current search state (and `rng`) to checkpoint
    /// bytes — [`Checkpoint::capture`] + [`Checkpoint::to_bytes`] without
    /// touching the filesystem, for stores that frame their own files.
    pub fn checkpoint_bytes(&mut self, rng: &StdRng) -> Vec<u8> {
        Checkpoint::capture(&mut self.server, rng).to_bytes()
    }

    /// Total rounds (warm-up plus search) this configuration runs.
    pub fn total_rounds(&self) -> usize {
        self.config.warmup_steps + self.config.search_steps
    }

    /// Rounds completed so far (survives checkpoint resume).
    pub fn rounds_completed(&self) -> usize {
        self.server.rounds_completed()
    }

    /// `true` once every warm-up and search round has run.
    pub fn is_complete(&self) -> bool {
        self.rounds_completed() >= self.total_rounds()
    }

    /// Runs exactly one round — warm-up while `rounds_completed` is below
    /// `warmup_steps`, search after — and returns [`Self::is_complete`].
    /// A no-op once the search is complete. This is the scheduling quantum
    /// a multi-tenant job manager interleaves: because a search touches no
    /// state outside itself, any interleaving of `step_round` calls across
    /// independent searches is serially equivalent to running each to
    /// completion in isolation.
    pub fn step_round<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        if !self.is_complete() {
            let update_alpha = self.server.rounds_completed() >= self.config.warmup_steps;
            self.server.run_round(&self.dataset, update_alpha, rng);
        }
        self.is_complete()
    }

    /// Runs P1+P2 like [`FederatedModelSearch::run`] (rounds already
    /// completed after [`FederatedModelSearch::try_resume`] are skipped),
    /// and with a [`CheckpointPolicy`] snapshots the state atomically
    /// every `every` rounds plus once on completion. A process
    /// killed between snapshots loses at most `every - 1` rounds of work
    /// and resumes bit-identically from the last snapshot.
    ///
    /// # Errors
    ///
    /// Checkpoint write failures; the search state itself stays valid.
    pub fn run_checkpointed(
        &mut self,
        rng: &mut StdRng,
        policy: Option<&CheckpointPolicy>,
    ) -> Result<SearchOutcome, CheckpointError> {
        let outcome = self.run_checkpointed_until(rng, policy, || false)?;
        Ok(outcome.expect("a never-interrupted run always completes"))
    }

    /// [`FederatedModelSearch::run_checkpointed`] with a cooperative stop
    /// signal, polled before every round: when `stop` returns `true` the
    /// run snapshots to the policy path (so no progress past the previous
    /// periodic snapshot is lost) and returns `Ok(None)`. A later run with
    /// the same seed resumes bit-identically. This is the graceful-shutdown
    /// hook: the CLI points `stop` at its SIGTERM/SIGINT flag.
    ///
    /// # Errors
    ///
    /// Checkpoint write failures; the search state itself stays valid.
    pub fn run_checkpointed_until(
        &mut self,
        rng: &mut StdRng,
        policy: Option<&CheckpointPolicy>,
        mut stop: impl FnMut() -> bool,
    ) -> Result<Option<SearchOutcome>, CheckpointError> {
        let total = self.total_rounds();
        while self.server.rounds_completed() < total {
            if stop() {
                if let Some(p) = policy {
                    Checkpoint::capture(&mut self.server, rng).save_path(&p.path)?;
                }
                return Ok(None);
            }
            self.step_round(rng);
            if let Some(p) = policy {
                let done = self.server.rounds_completed();
                if (p.every > 0 && done.is_multiple_of(p.every)) || done == total {
                    Checkpoint::capture(&mut self.server, rng).save_path(&p.path)?;
                }
            }
        }
        Ok(Some(self.outcome()))
    }

    /// Snapshot of everything the run has produced so far — the same value
    /// [`FederatedModelSearch::run`] returns, but available at any point,
    /// including after a resume of an already-completed search.
    pub fn outcome(&self) -> SearchOutcome {
        SearchOutcome {
            genotype: self.server.derive_genotype(),
            warmup_curve: self.server.warmup_curve().clone(),
            search_curve: self.server.search_curve().clone(),
            comm: *self.server.comm(),
            latency: self.server.latency().clone(),
            sim_hours: self.server.sim_hours(),
            alpha_probs: self.server.controller().alpha().probs(),
        }
    }

    /// Runs warm-up (P1) and search (P2) to completion and returns the
    /// outcome. Rounds already completed (after
    /// [`FederatedModelSearch::try_resume`]) are not run again.
    pub fn run<R: Rng + ?Sized>(&mut self, rng: &mut R) -> SearchOutcome {
        while !self.step_round(rng) {}
        self.outcome()
    }

    /// P3+P4, centralized: retrains `genotype` from scratch on the same
    /// dataset and evaluates it (the Table II protocol).
    pub fn retrain_centralized<R: Rng + ?Sized>(
        &self,
        genotype: Genotype,
        steps: usize,
        rng: &mut R,
    ) -> RetrainReport {
        retrain_centralized(
            genotype,
            self.config.net.clone(),
            &self.dataset,
            steps,
            self.config.batch_size,
            rng,
        )
    }

    /// P3+P4, federated: retrains `genotype` with FedAvg under the same
    /// partition settings and evaluates it (the Tables III–IV protocol).
    pub fn retrain_federated<R: Rng + ?Sized>(
        &self,
        genotype: Genotype,
        rounds: usize,
        rng: &mut R,
    ) -> RetrainReport {
        retrain_federated(
            genotype,
            self.config.net.clone(),
            &self.dataset,
            self.config.num_participants,
            rounds,
            self.config.dirichlet_beta,
            rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn full_pipeline_tiny() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut search = FederatedModelSearch::new(SearchConfig::tiny(), &mut rng);
        let outcome = search.run(&mut rng);
        assert_eq!(outcome.warmup_curve.len(), 5);
        assert_eq!(outcome.search_curve.len(), 10);
        assert!(outcome.sim_hours > 0.0);
        assert!(outcome.comm.total_bytes() > 0);
        // P3 + P4 centralized
        let report = search.retrain_centralized(outcome.genotype.clone(), 10, &mut rng);
        assert!((0.0..=100.0).contains(&report.error_percent()));
        // probabilities still normalized after the whole run
        for row in outcome.alpha_probs[0].iter() {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn stepped_rounds_are_bit_identical_to_a_straight_run() {
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut a = FederatedModelSearch::new(SearchConfig::tiny(), &mut rng_a);
        let straight = a.run(&mut rng_a);
        let mut rng_b = StdRng::seed_from_u64(7);
        let mut b = FederatedModelSearch::new(SearchConfig::tiny(), &mut rng_b);
        assert!(!b.is_complete());
        while !b.step_round(&mut rng_b) {}
        assert!(b.is_complete());
        assert!(b.step_round(&mut rng_b), "stepping past the end is a no-op");
        assert_eq!(b.rounds_completed(), b.total_rounds());
        let stepped = b.outcome();
        assert_eq!(straight.genotype, stepped.genotype);
        assert_eq!(straight.warmup_curve, stepped.warmup_curve);
        assert_eq!(straight.search_curve, stepped.search_curve);
        assert_eq!(straight.comm, stepped.comm);
    }

    #[test]
    fn run_after_a_mid_warmup_resume_finishes_the_same_search() {
        let mut rng_ref = StdRng::seed_from_u64(5);
        let mut reference = FederatedModelSearch::new(SearchConfig::tiny(), &mut rng_ref);
        let want = reference.run(&mut rng_ref);
        // two of the five warm-up rounds, then a snapshot
        let mut rng = StdRng::seed_from_u64(5);
        let mut first = FederatedModelSearch::new(SearchConfig::tiny(), &mut rng);
        first.step_round(&mut rng);
        first.step_round(&mut rng);
        let bytes = first.checkpoint_bytes(&rng);
        // a fresh process resumes and runs the rest
        let mut rng = StdRng::seed_from_u64(5);
        let mut resumed = FederatedModelSearch::new(SearchConfig::tiny(), &mut rng);
        resumed
            .resume_from_bytes(&bytes, &mut rng)
            .expect("valid snapshot");
        let got = resumed.run(&mut rng);
        assert_eq!(resumed.rounds_completed(), resumed.total_rounds());
        assert_eq!(got.genotype, want.genotype);
        assert_eq!(got.warmup_curve, want.warmup_curve);
        assert_eq!(got.search_curve, want.search_curve);
        assert_eq!(got.latency, want.latency);
        assert_eq!(got.alpha_probs, want.alpha_probs);
        // the one difference is the resume the tally records
        assert_eq!(got.comm.resumes, 1);
        assert_eq!(
            CommStats {
                resumes: 0,
                ..got.comm
            },
            want.comm
        );
    }

    #[test]
    fn interrupted_checkpointed_run_snapshots_and_resumes() {
        let dir = std::env::temp_dir().join(format!("fedrlnas-runner-stop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("stop.ckpt");
        let policy = CheckpointPolicy::new(&path, 0);
        // reference: uninterrupted run
        let mut rng_ref = StdRng::seed_from_u64(3);
        let mut reference = FederatedModelSearch::new(SearchConfig::tiny(), &mut rng_ref);
        let want = reference
            .run_checkpointed(&mut rng_ref, None)
            .expect("no checkpoint writes");
        // interrupted after 4 rounds: a checkpoint lands at the stop point
        let mut rng = StdRng::seed_from_u64(3);
        let mut search = FederatedModelSearch::new(SearchConfig::tiny(), &mut rng);
        let mut budget = 4;
        let interrupted = search
            .run_checkpointed_until(&mut rng, Some(&policy), || {
                if budget == 0 {
                    return true;
                }
                budget -= 1;
                false
            })
            .expect("checkpoint writes succeed");
        assert!(interrupted.is_none(), "stop signal interrupts the run");
        assert_eq!(search.rounds_completed(), 4);
        // a fresh process resumes from the snapshot and finishes identically
        let mut rng2 = StdRng::seed_from_u64(3);
        let mut resumed = FederatedModelSearch::new(SearchConfig::tiny(), &mut rng2);
        assert!(resumed
            .try_resume(&path, &mut rng2)
            .expect("valid snapshot"));
        let got = resumed
            .run_checkpointed(&mut rng2, Some(&policy))
            .expect("checkpoint writes succeed");
        assert_eq!(want.genotype, got.genotype);
        assert_eq!(want.search_curve, got.search_curve);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
