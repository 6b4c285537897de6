//! The search server: Algorithm 1 with adaptive transmission and
//! delay-compensated soft synchronization.

use crate::backend::{BackendReport, RoundBackend, RoundOutcome, RoundRequest};
use crate::config::{PopulationConfig, SearchConfig};
use crate::metrics::{CurveRecorder, StepMetric};
use fedrlnas_controller::{Alpha, ReinforceController};
use fedrlnas_darts::{ArchMask, Genotype, Supernet};
use fedrlnas_data::{dirichlet_partition, iid_partition, SyntheticDataset};
use fedrlnas_fed::{
    validate_report, ChurnTally, CommStats, LocalReport, Participant, RoundTimings,
    ShardedAccumulator, SparseUpdate,
};
use fedrlnas_netsim::{
    assign, resolve_codec, transmission_secs, CohortSampler, Environment, Population,
};
use fedrlnas_nn::Sgd;
use fedrlnas_sync::{
    compensate_alpha_gradient, compensate_gradient, MemoryPools, RoundSnapshot, StalenessDraw,
    StalenessStrategy,
};
use fedrlnas_tensor::Tensor;
use rand::Rng;
use std::sync::Mutex;
use std::time::Instant;

/// Per-round transmission latency summary (the Fig. 7 metrics).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyStats {
    /// Maximum (straggler) download latency per round, seconds.
    pub max_per_round: Vec<f64>,
    /// Mean download latency per round, seconds.
    pub mean_per_round: Vec<f64>,
}

impl LatencyStats {
    /// Mean of the per-round maxima — the bar height Fig. 7 plots.
    pub fn mean_of_max(&self) -> f64 {
        if self.max_per_round.is_empty() {
            0.0
        } else {
            self.max_per_round.iter().sum::<f64>() / self.max_per_round.len() as f64
        }
    }
}

/// A participant update still in flight (its staleness draw said it arrives
/// `arrival − computed_at` rounds late). `pub(crate)` so checkpointing can
/// capture and restore the in-flight queue.
pub(crate) struct PendingUpdate {
    pub(crate) arrival: usize,
    pub(crate) computed_at: usize,
    pub(crate) participant: usize,
    pub(crate) mask: ArchMask,
    pub(crate) sub_grads: Vec<f32>,
    pub(crate) accuracy: f32,
}

impl PendingUpdate {
    /// Queues `report` to arrive in round `arrival`.
    fn deferred(report: BackendReport, arrival: usize) -> Self {
        PendingUpdate {
            arrival,
            computed_at: report.computed_at,
            participant: report.participant,
            mask: report.mask,
            sub_grads: report.grads,
            accuracy: report.accuracy,
        }
    }

    /// The queued update as an arrival for aggregation. The queue carries
    /// neither the loss (only an on-time report's enters the curve) nor the
    /// participant's own ∇α log p(g) (a cross-check for fresh reports).
    fn into_report(self) -> BackendReport {
        BackendReport {
            participant: self.participant,
            computed_at: self.computed_at,
            mask: self.mask,
            accuracy: self.accuracy,
            loss: 0.0,
            grads: self.sub_grads,
            delta_alpha: Vec::new(),
        }
    }
}

/// Consecutive flapped rounds after which a cohort slot is evicted from
/// participation until its sampled client is reachable again. Matches the
/// spirit of the engine's `evict_after` but lives server-side so the
/// decision is checkpointed and kill-and-resume replays it exactly.
const CHURN_EVICT_AFTER: u64 = 2;

/// Salt separating the cohort sampler's RNG stream from the availability
/// hash streams derived from the same spec seed.
const COHORT_SAMPLER_SALT: u64 = 0x00C0_4082_5EED_CAFE;

/// Mutable population/churn state driving per-round cohort sampling.
///
/// Lives on the server (not the engine) so that every scheduled-churn
/// decision — which clients were sampled, which flapped, which slots are
/// evicted — is part of the checkpointed state: the engine's worker slots
/// are rebuilt fresh on resume, so any participation decision taken there
/// would diverge after a kill -9. `pub(crate)` so checkpointing can
/// capture and restore it.
pub(crate) struct ChurnState {
    /// The enrolled fleet (pure function of the spec; not checkpointed).
    pub(crate) population: Population,
    /// Cohort sampler; its RNG cursor travels through checkpoints because
    /// the draw count per round depends on how many clients were available.
    pub(crate) sampler: CohortSampler,
    /// Consecutive flapped rounds per cohort slot.
    pub(crate) miss_streak: Vec<u64>,
    /// Slots currently sitting out after too many flaps.
    pub(crate) evicted: Vec<bool>,
}

impl ChurnState {
    pub(crate) fn new(config: &PopulationConfig) -> ChurnState {
        ChurnState {
            population: Population::new(config.size, config.availability),
            sampler: CohortSampler::new(config.availability.seed ^ COHORT_SAMPLER_SALT),
            miss_streak: vec![0; config.cohort],
            evicted: vec![false; config.cohort],
        }
    }

    /// Samples this round's cohort and resolves scheduled participation:
    /// draws `k` available clients, binds them to worker slots in order,
    /// re-admits evicted slots whose client holds steady, marks flapping
    /// slots inactive and evicts slots that flapped too many rounds in a
    /// row. Returns the per-slot active mask and the round's churn tally.
    fn begin_round(&mut self, round: u64) -> (Vec<bool>, ChurnTally) {
        let k = self.miss_streak.len();
        let draw = self.sampler.sample(&self.population, round, k);
        let mut tally = ChurnTally {
            sampled: draw.cohort.len() as u64,
            unavailable: self.population.size() - draw.available,
            ..ChurnTally::default()
        };
        let mut active = vec![false; k];
        for (slot, active_slot) in active.iter_mut().enumerate() {
            // undersized cohort (mass outage): unbound slots sit the round
            // out without touching their streaks
            let Some(&client) = draw.cohort.get(slot) else {
                continue;
            };
            let flap = self.population.flaps_mid_round(client, round);
            if self.evicted[slot] && !flap {
                // the freshly bound client is reachable and holds steady:
                // the slot rejoins immediately
                self.evicted[slot] = false;
                self.miss_streak[slot] = 0;
                tally.readmitted += 1;
            }
            *active_slot = !self.evicted[slot] && !flap;
            if flap {
                tally.flaps += 1;
                self.miss_streak[slot] += 1;
                if self.miss_streak[slot] >= CHURN_EVICT_AFTER && !self.evicted[slot] {
                    self.evicted[slot] = true;
                    tally.evicted += 1;
                }
            } else if *active_slot {
                self.miss_streak[slot] = 0;
            }
        }
        (active, tally)
    }
}

/// One round in flight: what [`SearchServer::sample_and_assign`] decided
/// before training, read by every later phase. All vectors are indexed by
/// cohort slot `p`.
struct RoundCtx {
    /// Round index `t`.
    t: usize,
    /// Search (α moves) or warm-up (α frozen).
    update_alpha: bool,
    /// The architecture each slot trains.
    masks: Vec<ArchMask>,
    /// Estimated payload bytes of each slot's sub-model.
    sizes: Vec<usize>,
    /// This round's sampled downlink per slot, Mbps.
    bandwidths: Vec<f64>,
    /// Download seconds per slot: the assignment's estimate (zero for a
    /// slot sitting out) until `account_time` replaces it with measured
    /// frame bytes over the same bandwidths.
    latencies: Vec<f64>,
    /// Whether each slot participates (all `true` without a population).
    active: Vec<bool>,
    /// Base seed of the participants' per-round RNG streams.
    seed_base: u64,
}

/// The RL federated model-search server (Algorithm 1).
///
/// Fields are `pub(crate)` so the checkpoint module can capture and restore
/// the complete mutable state without widening the public API.
pub struct SearchServer {
    pub(crate) config: SearchConfig,
    pub(crate) supernet: Supernet,
    pub(crate) controller: ReinforceController,
    pub(crate) participants: Vec<Participant>,
    pub(crate) pools: MemoryPools,
    pub(crate) pending: Vec<PendingUpdate>,
    pub(crate) comm: CommStats,
    pub(crate) warmup_curve: CurveRecorder,
    pub(crate) search_curve: CurveRecorder,
    pub(crate) latency: LatencyStats,
    pub(crate) theta_sgd: Sgd,
    pub(crate) round: usize,
    pub(crate) sim_seconds: f64,
    pub(crate) churn: Option<ChurnState>,
    initial_theta: Vec<f32>,
    /// Optional wire backend; `None` trains participants in-process.
    backend: Option<Box<dyn RoundBackend>>,
}

impl SearchServer {
    /// Builds the server: supernet, controller, participants over the
    /// configured partition of `dataset`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation or the dataset shape
    /// disagrees with the supernet input.
    pub fn new<R: Rng + ?Sized>(
        config: SearchConfig,
        dataset: &SyntheticDataset,
        rng: &mut R,
    ) -> Self {
        config.validate().expect("invalid search config");
        assert_eq!(
            dataset.spec().image_hw,
            config.net.image_hw,
            "dataset image extent must match the supernet input"
        );
        assert_eq!(
            dataset.spec().num_classes,
            config.net.num_classes,
            "dataset classes must match the classifier"
        );
        let mut supernet = Supernet::new(config.net.clone(), rng);
        let controller = ReinforceController::new(&config.net, config.controller);
        let parts = match config.dirichlet_beta {
            Some(beta) => dirichlet_partition(dataset.labels(), config.num_participants, beta, rng),
            None => iid_partition(dataset.len(), config.num_participants, rng),
        };
        // each search owns its trace profile: a pinned per-config rotation
        // when one is configured, the historical process-wide rotation
        // otherwise — so `auto` codec choice under a multi-tenant service
        // reads this job's traces, never another tenant's
        let environment_of = |id: usize| match &config.environments {
            Some(envs) => envs[id % envs.len()],
            None => Environment::ALL[id % Environment::ALL.len()],
        };
        let participants: Vec<Participant> = parts
            .into_iter()
            .enumerate()
            .map(|(id, indices)| {
                Participant::new(
                    id,
                    indices,
                    config.batch_size,
                    config.augment,
                    environment_of(id),
                    1.0,
                    rng,
                )
            })
            .collect();
        let initial_theta = supernet.flat_params();
        let theta_sgd = Sgd::new(config.theta_sgd);
        let churn = config.population.as_ref().map(ChurnState::new);
        SearchServer {
            config,
            supernet,
            controller,
            participants,
            pools: MemoryPools::new(),
            pending: Vec::new(),
            comm: CommStats::new(),
            warmup_curve: CurveRecorder::new(),
            search_curve: CurveRecorder::new(),
            latency: LatencyStats::default(),
            theta_sgd,
            round: 0,
            sim_seconds: 0.0,
            churn,
            initial_theta,
            backend: None,
        }
    }

    /// Installs a round-execution backend (e.g. the `fedrlnas-rpc`
    /// runtime). Subsequent rounds serialize every sub-model over the
    /// backend's transport, and [`SearchServer::comm`] switches from
    /// estimated to *measured* wire bytes.
    pub fn set_backend(&mut self, backend: Box<dyn RoundBackend>) {
        self.backend = Some(backend);
    }

    /// Removes the installed backend, returning to in-process execution.
    pub fn clear_backend(&mut self) -> Option<Box<dyn RoundBackend>> {
        self.backend.take()
    }

    /// Pulls the authoritative error-feedback residuals back from an
    /// installed wire backend into the server's own participants, so a
    /// checkpoint captured next reflects what the workers actually hold.
    /// No-op in-process or when the backend does not compress uploads.
    pub(crate) fn sync_backend_residuals(&mut self) {
        if let Some(backend) = self.backend.as_mut() {
            if let Some(residuals) = backend.collect_residuals() {
                for (p, r) in self.participants.iter_mut().zip(residuals) {
                    p.set_residual(r);
                }
            }
        }
    }

    /// Transport description of the installed backend, if any.
    pub fn backend_description(&self) -> Option<String> {
        self.backend.as_ref().map(|b| b.describe())
    }

    /// The federation's participants. Wire backends clone these at install
    /// time so worker threads start from exactly the in-process state.
    pub fn participants(&self) -> &[Participant] {
        &self.participants
    }

    /// The search configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// The warm-up (P1) training curve (Fig. 3).
    pub fn warmup_curve(&self) -> &CurveRecorder {
        &self.warmup_curve
    }

    /// The search (P2) training curve (Figs. 4–6, 8, 12).
    pub fn search_curve(&self) -> &CurveRecorder {
        &self.search_curve
    }

    /// Communication tally.
    pub fn comm(&self) -> &CommStats {
        &self.comm
    }

    /// Folds a storage fault-injection delta into the communication
    /// tally. Storage faults are environmental observability data
    /// (excluded from `CommStats` equality and checkpoints), so this
    /// never perturbs determinism comparisons.
    pub fn record_io_faults(&mut self, delta: &fedrlnas_fed::IoFaultTally) {
        self.comm.record_io_faults(delta);
    }

    /// Transmission latency statistics (Fig. 7).
    pub fn latency(&self) -> &LatencyStats {
        &self.latency
    }

    /// Simulated wall-clock time consumed so far, in hours (Table V).
    pub fn sim_hours(&self) -> f64 {
        self.sim_seconds / 3600.0
    }

    /// The controller (for inspecting α).
    pub fn controller(&self) -> &ReinforceController {
        &self.controller
    }

    /// Mutable supernet access (used by evaluation helpers and benches).
    pub fn supernet_mut(&mut self) -> &mut Supernet {
        &mut self.supernet
    }

    /// Number of rounds completed across warm-up and search.
    pub fn rounds_completed(&self) -> usize {
        self.round
    }

    /// Restores controller state from a checkpoint: flat α logits and the
    /// reward baseline.
    ///
    /// # Panics
    ///
    /// Panics if the logits length does not match this configuration.
    pub fn restore_controller_state(&mut self, alpha: &[f32], baseline: f32) {
        let logits = Tensor::from_vec(alpha.to_vec(), &[alpha.len()]).expect("flat logits");
        let edges = self.config.net.topology().num_edges();
        *self.controller.alpha_mut() = Alpha::from_logits(logits, edges);
        self.controller.set_baseline(baseline);
    }

    /// Runs `steps` warm-up rounds (P1): sub-models are sampled from the
    /// (frozen, still uniform) policy and only θ is trained.
    pub fn run_warmup<R: Rng + ?Sized>(
        &mut self,
        dataset: &SyntheticDataset,
        steps: usize,
        rng: &mut R,
    ) {
        for _ in 0..steps {
            self.run_round(dataset, false, rng);
        }
    }

    /// Runs `steps` search rounds (P2): θ and α update jointly.
    pub fn run_search<R: Rng + ?Sized>(
        &mut self,
        dataset: &SyntheticDataset,
        steps: usize,
        rng: &mut R,
    ) {
        for _ in 0..steps {
            self.run_round(dataset, true, rng);
        }
    }

    /// Derives the searched genotype from the current policy.
    pub fn derive_genotype(&self) -> Genotype {
        Genotype::from_probs(&self.controller.alpha().probs(), self.config.net.nodes)
    }

    /// The argmax architecture of the current policy.
    pub fn argmax_mask(&self) -> ArchMask {
        self.controller.alpha().argmax_mask()
    }

    /// One full server round of Algorithm 1: the phases below, in this
    /// order, over one `RoundCtx`. `update_alpha` distinguishes warm-up
    /// (false) from search (true).
    ///
    /// In-process and over a wire backend the round is bit-identical, and
    /// a resumed search replays it exactly; both rest on two orders that
    /// must not change.
    ///
    /// *Draws on `rng`, per round:* K × `controller.sample`; K ×
    /// `next_bandwidth_mbps` in participant order; `assign` (draws only
    /// under `Random`); one `gen()` for `seed_base`; then one
    /// `staleness.sample` per report that survived the gate, in report
    /// order (none under `Hard`). The cohort sampler owns its own stream
    /// and runs first; each participant trains on the stream
    /// `Participant::round_rng` derives from `seed_base`.
    ///
    /// *f32 accumulation:* arrivals are the fresh reports in participant
    /// order, then the due pending updates in queue order (stale pushes in
    /// report order, then late reports; `partition` keeps that order).
    /// `baselined_rewards` runs once over all arrivals; the θ fold and the
    /// α-gradient sum take arrivals in that order; the curve's means are
    /// summed over the gated on-time reports in order.
    pub fn run_round<R: Rng + ?Sized>(
        &mut self,
        dataset: &SyntheticDataset,
        update_alpha: bool,
        rng: &mut R,
    ) {
        let active = self.begin_churn();
        self.reset_unshared_weights();
        let mut ctx = self.sample_and_assign(active, update_alpha, rng);
        self.save_pools(&ctx);
        let mut out = self.train(&ctx, dataset);
        self.gate(&mut out);
        self.account_time(&mut ctx, &out);
        let on_time_means = curve_means(&out.reports);
        let arrivals = self.route_staleness(&ctx, out.reports, out.late, rng);
        let m = arrivals.len();
        let (theta_grad, alpha_grad) = self.aggregate(&ctx, arrivals);
        self.apply(&ctx, theta_grad, alpha_grad, m);
        self.record(&ctx, on_time_means, m);
    }

    /// Population churn: samples this round's cohort and resolves
    /// scheduled participation. The sampler owns its RNG stream, so
    /// fixed-fleet runs keep their historical draws on the main one.
    fn begin_churn(&mut self) -> Vec<bool> {
        match self.churn.as_mut() {
            Some(churn) => {
                let (active, tally) = churn.begin_round(self.round as u64);
                self.comm.record_churn(&tally);
                active
            }
            None => vec![true; self.participants.len()],
        }
    }

    /// The weight-sharing ablation: without it every round starts from
    /// the initial (untrained) supernet weights.
    fn reset_unshared_weights(&mut self) {
        if self.config.weight_sharing {
            return;
        }
        let init = &self.initial_theta;
        let mut cursor = 0usize;
        self.supernet.visit_params(&mut |p| {
            let n = p.value.len();
            p.value
                .as_mut_slice()
                .copy_from_slice(&init[cursor..cursor + n]);
            cursor += n;
        });
    }

    /// Alg. 1 lines 5–11: samples one architecture per slot, sizes them,
    /// advances every bandwidth trace and pairs sub-models with links
    /// (adaptive transmission). Draws the round's `seed_base` last.
    fn sample_and_assign<R: Rng + ?Sized>(
        &mut self,
        active: Vec<bool>,
        update_alpha: bool,
        rng: &mut R,
    ) -> RoundCtx {
        let k = self.participants.len();
        let sampled: Vec<ArchMask> = (0..k).map(|_| self.controller.sample(rng)).collect();
        let sampled_sizes: Vec<usize> = sampled
            .iter()
            .map(|m| self.supernet.submodel_bytes(m))
            .collect();
        let bandwidths: Vec<f64> = self
            .participants
            .iter_mut()
            .map(|p| p.next_bandwidth_mbps(rng))
            .collect();
        let outcome = assign(self.config.assignment, &sampled_sizes, &bandwidths, rng);
        let (masks, sizes): (Vec<ArchMask>, Vec<usize>) = outcome
            .model_for_participant
            .iter()
            .map(|&m| (sampled[m].clone(), sampled_sizes[m]))
            .unzip();
        // inactive slots ship nothing, so they contribute no latency (a
        // wire backend reaches the same numbers via zero measured frames)
        let mut latencies = outcome.latencies;
        for (latency, active) in latencies.iter_mut().zip(&active) {
            if !active {
                *latency = 0.0;
            }
        }
        RoundCtx {
            t: self.round,
            update_alpha,
            masks,
            sizes,
            bandwidths,
            latencies,
            active,
            seed_base: rng.gen(),
        }
    }

    /// Whether the strategy aggregates updates that arrive late.
    fn uses_stale_updates(&self) -> bool {
        matches!(
            self.config.strategy,
            StalenessStrategy::Use | StalenessStrategy::DelayCompensated { .. }
        )
    }

    /// Memory pools (lines 4, 6–7): strategies that use stale updates
    /// keep this round's θ, α and masks to compensate them against later.
    fn save_pools(&mut self, ctx: &RoundCtx) {
        if !self.uses_stale_updates() {
            return;
        }
        let theta = self.supernet.flat_params();
        let alpha = self.controller.alpha().logits().as_slice().to_vec();
        let masks = ctx.masks.clone();
        self.pools.save(
            ctx.t,
            RoundSnapshot {
                theta,
                alpha,
                masks,
            },
        );
    }

    /// Participants train (lines 12–14, 37–42) — the round's one fork.
    /// Over an installed backend the sub-models cross its transport and
    /// the byte counts are measured; otherwise the server's own
    /// participants train on scoped threads and the counts are estimates.
    /// Either way the result is a [`RoundOutcome`], tallied here once.
    fn train(&mut self, ctx: &RoundCtx, dataset: &SyntheticDataset) -> RoundOutcome {
        let out = match self.backend.as_mut() {
            Some(backend) => {
                // The workers draw this round's batches on their own
                // clones; mirroring the loader transition on the same
                // derived streams keeps the server's participants
                // authoritative for checkpoint/resume.
                for p in self.participants.iter_mut().filter(|p| ctx.active[p.id()]) {
                    let mut stream = p.round_rng(ctx.seed_base);
                    p.advance_data(&mut stream);
                }
                // the workers are shipped ranges of this round's weights;
                // nothing is extracted on this side of the wire
                let theta = self.supernet.flat_params();
                let buffers = self.supernet.flat_buffers();
                backend.run_round(RoundRequest {
                    round: ctx.t,
                    masks: &ctx.masks,
                    layout: self.supernet.layout(),
                    theta: &theta,
                    buffers: &buffers,
                    alpha_logits: self.controller.alpha().logits().as_slice(),
                    bandwidths_mbps: &ctx.bandwidths,
                    seed_base: ctx.seed_base,
                    active: self.churn.as_ref().map(|_| &ctx.active[..]),
                })
            }
            None => self.train_in_process(ctx, dataset),
        };
        self.comm.record_down(out.bytes_down as usize);
        self.comm.record_up(out.bytes_up as usize);
        self.comm.record_faults(&out.faults);
        self.comm.record_compression(&out.compression);
        self.comm.record_churn(&out.churn);
        self.comm.record_timing(&out.timings);
        out
    }

    /// The in-process arm of [`SearchServer::train`]: as many scoped
    /// workers as the kernel thread budget allows (at most one per
    /// participating slot) take the round's participants off a shared
    /// queue, each extracting a slot's sub-model right before its
    /// `Participant::train_round` and dropping it right after, so a round
    /// holds `workers` sub-models, not one per slot. A slot's result
    /// depends on its own state, mask and stream only, and results are put
    /// back in participant order, so neither the worker count nor the order
    /// of completion reaches the outcome. Then each upload goes through the
    /// codec it would cross the wire with — the function the RPC worker
    /// calls, so the server hands the same *decoded* gradients downstream.
    /// Bytes are estimates: one sub-model down, and up its gradients (raw,
    /// or as encoded) plus the reward.
    fn train_in_process(&mut self, ctx: &RoundCtx, dataset: &SyntheticDataset) -> RoundOutcome {
        let seed_base = ctx.seed_base;
        let supernet = &self.supernet;
        let active = ctx.active.iter().filter(|&&a| a).count();
        let workers = fedrlnas_tensor::num_threads().clamp(1, active.max(1));
        let queue = Mutex::new(self.participants.iter_mut().filter(|p| ctx.active[p.id()]));
        let mut trained: Vec<(LocalReport, Vec<f32>)> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|_| {
                        let mut done = Vec::new();
                        loop {
                            // the guard is dropped with this statement:
                            // nothing trains while holding the queue
                            let next = queue.lock().expect("queue lock is never poisoned").next();
                            let Some(p) = next else { break done };
                            let mut sub = supernet.extract_submodel(&ctx.masks[p.id()]);
                            done.push(p.train_round(&mut sub, dataset, seed_base));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("participant thread panicked"))
                .collect()
        })
        .expect("scoped threads join");
        trained.sort_by_key(|(report, _)| report.participant);
        let mut out = RoundOutcome::default();
        let codec = self.config.codec;
        let theta_len = self.initial_theta.len();
        let (mut scratch, mut coded, mut decoded) = Default::default();
        for (report, mut grads) in trained {
            let p = report.participant;
            let mask = ctx.masks[p].clone();
            let mut upload = ctx.sizes[p];
            if !codec.is_fp32() {
                let spec = resolve_codec(codec, ctx.bandwidths[p]);
                spec.encode_with_feedback(
                    &mut grads,
                    self.participants[p].residual_mut_sized(theta_len),
                    &self.supernet.submodel_param_ranges(&mask),
                    &mut scratch,
                    &mut coded,
                    &mut decoded,
                );
                let (raw, encoded) = (grads.len() * 4, coded.len());
                out.compression
                    .record(spec.tag() as usize, raw as u64, encoded as u64);
                grads.copy_from_slice(&decoded);
                upload = encoded;
            }
            out.bytes_down = out.bytes_down.saturating_add(ctx.sizes[p] as u64);
            out.bytes_up = out.bytes_up.saturating_add(upload as u64 + 4);
            out.reports.push(BackendReport {
                participant: p,
                computed_at: ctx.t,
                mask,
                accuracy: report.accuracy,
                loss: report.loss,
                grads,
                delta_alpha: Vec::new(),
            });
        }
        out
    }

    /// The validation gate in front of everything downstream: drops
    /// reports whose gradients are the wrong length for their
    /// architecture, contain NaN/Inf anywhere (gradients, accuracy or
    /// loss), or exceed the configured L2 norm bound — before they can
    /// touch the staleness draws, the reward baseline, the training curve
    /// or θ. The engine gates its own replies too; this covers the
    /// in-process path and defends in depth against a buggy backend.
    /// Causes join the backend's own in [`CommStats::rejects`]. With honest
    /// reports nothing is filtered.
    fn gate(&mut self, out: &mut RoundOutcome) {
        let bound = self.config.update_norm_bound;
        let (supernet, rejects) = (&self.supernet, &mut out.rejects);
        let mut admit = |r: &BackendReport| {
            let expected = supernet.submodel_param_count(&r.mask);
            match validate_report(&r.grads, r.accuracy, r.loss, expected, bound) {
                Ok(()) => true,
                Err(why) => {
                    rejects.record(&why);
                    false
                }
            }
        };
        out.reports.retain(&mut admit);
        out.late.retain(&mut admit);
        self.comm.record_rejects(&out.rejects);
    }

    /// Fig. 7 latency and Table V simulated seconds. Frame sizes a backend
    /// measured replace the assignment's estimates; the round then lasts
    /// as long as its slowest participating slot (compute + download)
    /// plus the server's overhead.
    fn account_time(&mut self, ctx: &mut RoundCtx, out: &RoundOutcome) {
        if !out.download_frame_bytes.is_empty() {
            for (p, latency) in ctx.latencies.iter_mut().enumerate() {
                let bytes = out.download_frame_bytes.get(p).copied().unwrap_or(0);
                *latency = transmission_secs(bytes as usize, ctx.bandwidths[p]);
            }
        }
        let latencies = &ctx.latencies;
        self.latency
            .max_per_round
            .push(latencies.iter().copied().fold(0.0, f64::max));
        self.latency
            .mean_per_round
            .push(latencies.iter().sum::<f64>() / latencies.len().max(1) as f64);
        let mut round_secs = 0.0f64;
        for p in (0..ctx.masks.len()).filter(|&p| ctx.active[p]) {
            let macs = self.supernet.flops_masked(&ctx.masks[p]) * self.config.batch_size as u64;
            let compute =
                self.config.device.train_step_secs(macs) / self.participants[p].speed_factor();
            round_secs = round_secs.max(compute + latencies[p]);
        }
        self.sim_seconds += round_secs + self.config.device.round_overhead_secs;
    }

    /// Soft synchronization (lines 16–31): decides when each on-time
    /// report arrives — now, in a later round, or never — queues the
    /// backend's real late replies on the same path, and returns this
    /// round's arrivals: the fresh reports, then every queued update that
    /// is due and still usable.
    fn route_staleness<R: Rng + ?Sized>(
        &mut self,
        ctx: &RoundCtx,
        reports: Vec<BackendReport>,
        late: Vec<BackendReport>,
        rng: &mut R,
    ) -> Vec<BackendReport> {
        let t = ctx.t;
        let hard = matches!(self.config.strategy, StalenessStrategy::Hard);
        let mut arrivals = Vec::with_capacity(reports.len());
        for r in reports {
            let draw = if hard {
                StalenessDraw::Fresh
            } else {
                self.config.staleness.sample(rng)
            };
            match draw {
                StalenessDraw::Fresh => arrivals.push(r),
                StalenessDraw::Stale(tau) => self.pending.push(PendingUpdate::deferred(r, t + tau)),
                StalenessDraw::Dropped => {}
            }
        }
        // replies that missed their round's deadline on the wire are due now
        self.pending
            .extend(late.into_iter().map(|r| PendingUpdate::deferred(r, t)));
        let (due, still_pending): (Vec<PendingUpdate>, Vec<PendingUpdate>) =
            std::mem::take(&mut self.pending)
                .into_iter()
                .partition(|u| u.arrival <= t);
        self.pending = still_pending;
        // `Throw` discards stale data, and so does `Hard`: it never defers
        // an update itself, but a reply can still miss a deadline
        let uses_stale = self.uses_stale_updates();
        let threshold = self.config.staleness_threshold;
        arrivals.extend(
            due.into_iter()
                // line 23: ignore an update older than the threshold
                .filter(|u| {
                    uses_stale
                        && StalenessDraw::from_delay(t - u.computed_at, threshold)
                            != StalenessDraw::Dropped
                })
                .map(PendingUpdate::into_report),
        );
        arrivals
    }

    /// Aggregation (lines 17–33): repairs each stale arrival (Eq. 13 on
    /// its θ gradient, Eq. 15 on its α gradient), folds the θ gradients
    /// into the configured aggregator and sums `R_m ∇α log p(g_m)`.
    ///
    /// The fold is streaming: the plain/clipped mean folds each arrival
    /// immediately, order-sensitive rules buffer internally, and under a
    /// sharded topology arrivals go round-robin to shard aggregators with
    /// a root merge (see `ShardedAccumulator`). Compensation runs before
    /// the fold, so robust merging composes with Eq. 13 for free.
    ///
    /// Returns the merged θ gradient (supernet-flat) and the α gradient,
    /// neither yet divided by the number of arrivals.
    fn aggregate(&mut self, ctx: &RoundCtx, arrivals: Vec<BackendReport>) -> (Vec<f32>, Tensor) {
        let theta_len = self.initial_theta.len();
        let mut theta_acc =
            ShardedAccumulator::new(&self.config.aggregator, self.config.topology, theta_len);
        let mut alpha_grad = Tensor::zeros(self.controller.alpha().logits().dims());
        let mut aggregate_ns = 0u64;
        let rewards = if ctx.update_alpha {
            let accuracies: Vec<f32> = arrivals.iter().map(|a| a.accuracy).collect();
            self.controller.baselined_rewards(&accuracies)
        } else {
            vec![0.0; arrivals.len()]
        };
        // flattened only if a stale arrival needs Eq. 13
        let mut current_theta = None;
        for (mut arrival, reward) in arrivals.into_iter().zip(rewards) {
            let ranges = self.supernet.submodel_param_ranges(&arrival.mask);
            let mut glog = if arrival.computed_at == ctx.t {
                let g = self.controller.alpha().grad_log_prob(&arrival.mask);
                // A wire backend ships the participant's own ∇α log p(g);
                // never trusted directly, but it must agree bit-for-bit with
                // the server's recomputation.
                debug_assert!(
                    arrival.delta_alpha.is_empty() || arrival.delta_alpha == g.as_slice(),
                    "participant delta_alpha diverged from server recomputation"
                );
                g
            } else {
                self.compensate_stale(&mut arrival, &ranges, &mut current_theta)
            };
            let fold_start = Instant::now();
            theta_acc.push(SparseUpdate {
                ranges,
                values: arrival.grads,
            });
            aggregate_ns = aggregate_ns.saturating_add(fold_start.elapsed().as_nanos() as u64);
            glog.scale(reward);
            alpha_grad.add_assign(&glog).expect("alpha shapes agree");
        }
        let finish_start = Instant::now();
        let theta_grad = theta_acc.finish();
        aggregate_ns = aggregate_ns.saturating_add(finish_start.elapsed().as_nanos() as u64);
        self.comm.record_timing(&RoundTimings {
            aggregate_ns,
            ..RoundTimings::default()
        });
        debug_assert!(
            theta_grad.iter().all(|v| v.is_finite()),
            "aggregated θ gradient contains non-finite values; the \
             validation gate should have rejected the offending update"
        );
        (theta_grad, alpha_grad)
    }

    /// A stale arrival's gradients relate to the α and θ of the round it
    /// was computed in (lines 24–28): returns `∇α log p(g)` under that
    /// round's α and, under delay compensation, applies Eq. 13 to the θ
    /// gradient in place and Eq. 15 to the returned α gradient.
    fn compensate_stale(
        &mut self,
        arrival: &mut BackendReport,
        ranges: &[(usize, usize)],
        current_theta: &mut Option<Vec<f32>>,
    ) -> Tensor {
        let current_alpha = self.controller.alpha().logits().as_slice();
        let stale_alpha = self
            .pools
            .get(arrival.computed_at)
            .map_or(current_alpha, |s| s.alpha.as_slice());
        let mut glog = Alpha::from_logits(
            Tensor::from_vec(stale_alpha.to_vec(), &[stale_alpha.len()]).expect("flat logits"),
            self.config.net.topology().num_edges(),
        )
        .grad_log_prob(&arrival.mask);
        if let StalenessStrategy::DelayCompensated { lambda } = self.config.strategy {
            if lambda > 0.0 {
                let theta = current_theta.get_or_insert_with(|| self.supernet.flat_params());
                let fresh_w: Vec<f32> = ranges
                    .iter()
                    .flat_map(|&(off, len)| theta[off..off + len].iter().copied())
                    .collect();
                if let Some(stale_w) = self.pools.pruned_theta(arrival.computed_at, ranges) {
                    compensate_gradient(&mut arrival.grads, &fresh_w, &stale_w, lambda);
                }
                compensate_alpha_gradient(glog.as_mut_slice(), current_alpha, stale_alpha, lambda);
            }
        }
        glog
    }

    /// The θ step and the α step (lines 32–33) on the mean of the round's
    /// `m` arrivals; a round nothing arrived in moves neither.
    fn apply(&mut self, ctx: &RoundCtx, theta_grad: Vec<f32>, mut alpha_grad: Tensor, m: usize) {
        if m == 0 {
            return;
        }
        let inv_m = 1.0 / m as f32;
        if !self.config.freeze_theta {
            let mut cursor = 0usize;
            self.supernet.visit_params(&mut |p| {
                let n = p.grad.len();
                for (g, v) in p
                    .grad
                    .as_mut_slice()
                    .iter_mut()
                    .zip(&theta_grad[cursor..cursor + n])
                {
                    *g = v * inv_m;
                }
                cursor += n;
            });
            let supernet = &mut self.supernet;
            self.theta_sgd.step_visitor(|f| supernet.visit_params(f));
            supernet.zero_grad();
        }
        if ctx.update_alpha {
            alpha_grad.scale(inv_m);
            self.controller.ascend(&alpha_grad);
        }
    }

    /// Records the curve point over this round's on-time reports, evicts
    /// memory-pool entries past the threshold (lines 34–35) and closes
    /// the round.
    fn record(&mut self, ctx: &RoundCtx, (mean_accuracy, mean_loss): (f32, f32), m: usize) {
        let metric = StepMetric {
            step: ctx.t,
            mean_accuracy,
            mean_loss,
            contributors: m,
        };
        if ctx.update_alpha {
            self.search_curve.record(metric);
        } else {
            self.warmup_curve.record(metric);
        }
        self.pools.evict(ctx.t, self.config.staleness_threshold);
        self.comm.end_round();
        self.round += 1;
    }
}

/// Mean accuracy and mean loss over `reports`, summed in order.
fn curve_means(reports: &[BackendReport]) -> (f32, f32) {
    let n = reports.len().max(1) as f32;
    (
        reports.iter().map(|r| r.accuracy).sum::<f32>() / n,
        reports.iter().map(|r| r.loss).sum::<f32>() / n,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchConfig;
    use fedrlnas_data::DatasetSpec;
    use fedrlnas_sync::StalenessModel;
    use rand::{rngs::StdRng, SeedableRng};

    fn dataset(rng: &mut StdRng) -> SyntheticDataset {
        SyntheticDataset::generate(&DatasetSpec::svhn_like().with_sizes(12, 4), rng)
    }

    #[test]
    fn rounds_advance_and_record() {
        let mut rng = StdRng::seed_from_u64(0);
        let data = dataset(&mut rng);
        let mut server = SearchServer::new(SearchConfig::tiny(), &data, &mut rng);
        server.run_warmup(&data, 3, &mut rng);
        server.run_search(&data, 4, &mut rng);
        assert_eq!(server.warmup_curve().len(), 3);
        assert_eq!(server.search_curve().len(), 4);
        assert_eq!(server.comm().rounds, 7);
        assert!(server.comm().total_bytes() > 0);
        assert!(server.sim_hours() > 0.0);
        assert_eq!(server.latency().max_per_round.len(), 7);
    }

    #[test]
    fn warmup_does_not_move_alpha() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = dataset(&mut rng);
        let mut server = SearchServer::new(SearchConfig::tiny(), &data, &mut rng);
        let before = server.controller().alpha().logits().clone();
        server.run_warmup(&data, 3, &mut rng);
        assert_eq!(server.controller().alpha().logits(), &before);
        server.run_search(&data, 3, &mut rng);
        assert_ne!(server.controller().alpha().logits(), &before);
    }

    #[test]
    fn freeze_theta_keeps_weights() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = dataset(&mut rng);
        let mut config = SearchConfig::tiny();
        config.freeze_theta = true;
        let mut server = SearchServer::new(config, &data, &mut rng);
        let mut before = Vec::new();
        server
            .supernet_mut()
            .visit_params(&mut |p| before.extend_from_slice(p.value.as_slice()));
        server.run_search(&data, 3, &mut rng);
        let mut after = Vec::new();
        server
            .supernet_mut()
            .visit_params(&mut |p| after.extend_from_slice(p.value.as_slice()));
        assert_eq!(before, after);
    }

    #[test]
    fn stale_updates_survive_with_dc_and_die_with_throw() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = dataset(&mut rng);
        // All updates stale by exactly 1 round.
        let all_stale = StalenessModel::new(vec![0.0, 1.0]);
        let mut dc_cfg = SearchConfig::tiny();
        dc_cfg.staleness = all_stale.clone();
        dc_cfg.strategy = StalenessStrategy::delay_compensated();
        let mut server = SearchServer::new(dc_cfg, &data, &mut rng);
        server.run_search(&data, 4, &mut rng);
        // first round has no arrivals; later rounds apply last round's
        let contributors: Vec<usize> = server
            .search_curve()
            .steps()
            .iter()
            .map(|s| s.contributors)
            .collect();
        assert_eq!(contributors[0], 0);
        assert!(contributors[1..].iter().any(|&c| c > 0), "{contributors:?}");

        let mut throw_cfg = SearchConfig::tiny();
        throw_cfg.staleness = all_stale;
        throw_cfg.strategy = StalenessStrategy::Throw;
        let mut server = SearchServer::new(throw_cfg, &data, &mut rng);
        server.run_search(&data, 3, &mut rng);
        assert!(server
            .search_curve()
            .steps()
            .iter()
            .all(|s| s.contributors == 0));
    }

    #[test]
    fn validation_gate_filters_bad_reports_by_cause() {
        let mut rng = StdRng::seed_from_u64(7);
        let data = dataset(&mut rng);
        let config = SearchConfig::tiny().with_update_norm_bound(1e3);
        let mut server = SearchServer::new(config, &data, &mut rng);
        let mask = server.controller().sample(&mut rng);
        let expected = server.supernet.submodel_param_count(&mask);
        let report = |grads: Vec<f32>, accuracy: f32| BackendReport {
            participant: 0,
            computed_at: 0,
            mask: mask.clone(),
            accuracy,
            loss: 1.0,
            grads,
            delta_alpha: Vec::new(),
        };
        let batch = vec![
            report(vec![0.01; expected], 0.5),      // honest
            report(vec![f32::NAN; expected], 0.5),  // poisoned gradients
            report(vec![0.01; expected - 1], 0.5),  // wrong shape
            report(vec![1e6; expected], 0.5),       // norm bomb
            report(vec![0.01; expected], f32::NAN), // poisoned reward
        ];
        let mut out = RoundOutcome {
            reports: batch,
            ..RoundOutcome::default()
        };
        server.gate(&mut out);
        assert_eq!(out.reports.len(), 1, "only the honest report survives");
        assert!(out.reports[0].grads.iter().all(|g| g.is_finite()));
        let r = server.comm().rejects;
        assert_eq!(r.rejected_nonfinite, 2);
        assert_eq!(r.rejected_shape, 1);
        assert_eq!(r.rejected_norm, 1);
        assert_eq!(r.total_rejected(), 4);
    }

    #[test]
    fn honest_rounds_reject_nothing() {
        // regression for the byte-identity requirement: on honest data the
        // gate must be a pure pass-through (no rejections, full strength)
        let mut rng = StdRng::seed_from_u64(8);
        let data = dataset(&mut rng);
        let mut server = SearchServer::new(SearchConfig::tiny(), &data, &mut rng);
        server.run_warmup(&data, 2, &mut rng);
        server.run_search(&data, 2, &mut rng);
        assert!(!server.comm().rejects.any(), "{:?}", server.comm().rejects);
        assert!(server
            .search_curve()
            .steps()
            .iter()
            .all(|s| s.contributors == server.config().num_participants));
    }

    #[test]
    fn robust_aggregation_composes_with_delay_compensation() {
        // median merge over delay-compensated stale arrivals: compensation
        // (Eq. 13) repairs each update before the robust center sees it,
        // so the search must stay finite and keep recording contributors
        let mut rng = StdRng::seed_from_u64(9);
        let data = dataset(&mut rng);
        let mut config = SearchConfig::tiny()
            .with_staleness(
                StalenessModel::new(vec![0.5, 0.5]),
                StalenessStrategy::delay_compensated(),
            )
            .with_aggregator(fedrlnas_fed::AggregatorConfig::parse("median").unwrap());
        config.search_steps = 6;
        let mut server = SearchServer::new(config, &data, &mut rng);
        server.run_search(&data, 6, &mut rng);
        let mut theta = Vec::new();
        server
            .supernet_mut()
            .visit_params(&mut |p| theta.extend_from_slice(p.value.as_slice()));
        assert!(theta.iter().all(|v| v.is_finite()));
        assert!(server
            .search_curve()
            .steps()
            .iter()
            .skip(1)
            .any(|s| s.contributors > 0));
        assert!(!server.comm().rejects.any());
    }

    #[test]
    fn robust_runs_are_deterministic() {
        let run = |spec: &str| {
            let mut rng = StdRng::seed_from_u64(10);
            let data = dataset(&mut rng);
            let config = SearchConfig::tiny()
                .with_aggregator(fedrlnas_fed::AggregatorConfig::parse(spec).unwrap());
            let mut server = SearchServer::new(config, &data, &mut rng);
            server.run_search(&data, 4, &mut rng);
            (
                server.derive_genotype(),
                server.search_curve().steps().to_vec(),
            )
        };
        for spec in ["median", "krum:3", "trimmed:1", "clip:10"] {
            let a = run(spec);
            let b = run(spec);
            assert_eq!(a.0, b.0, "{spec}: genotypes diverged across reruns");
            assert_eq!(a.1, b.1, "{spec}: curves diverged across reruns");
        }
    }

    #[test]
    fn genotype_derivable_after_search() {
        let mut rng = StdRng::seed_from_u64(4);
        let data = dataset(&mut rng);
        let mut server = SearchServer::new(SearchConfig::tiny(), &data, &mut rng);
        server.run_search(&data, 2, &mut rng);
        let g = server.derive_genotype();
        assert_eq!(g.nodes(), server.config().net.nodes);
        let mask = server.argmax_mask();
        assert_eq!(mask.num_edges(), server.config().net.topology().num_edges());
    }
}
