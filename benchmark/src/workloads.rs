//! The five workloads and how one *episode* of each is driven.
//!
//! An episode is one complete, freshly set-up search (or service fleet)
//! of a fixed number of rounds, driven through the same public entry
//! points `fedrlnas search` / `fedrlnas serve` use. A run repeats
//! episodes, each with another seed derived from `--seed`, until its time
//! is up; fixed-length episodes keep every round comparable while the
//! number of episodes absorbs the time budget.

use crate::procfs;
use crate::trace::{lock, SharedTracer, TimedBackend};
use fedrlnas::codec::CodecConfig;
use fedrlnas::core::{FederatedModelSearch, SearchConfig, SearchOutcome};
use fedrlnas::data::{DatasetSpec, SyntheticDataset};
use fedrlnas::fed::{AggregatorConfig, CommStats};
use fedrlnas::netsim::Environment;
use fedrlnas::rpc::{EngineMode, RpcConfig, TransportKind};
use fedrlnas::service::{JobManager, JobQuotas, JobSpec, JobState};
use fedrlnas::sync::{StalenessModel, StalenessStrategy};
use rand::{rngs::StdRng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The benchmark's workloads. Names are fixed: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ComputeSmall,
    Cohort1k,
    ShapedLinks,
    LossyTcp,
    ServiceFleet,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ComputeSmall,
        Workload::Cohort1k,
        Workload::ShapedLinks,
        Workload::LossyTcp,
        Workload::ServiceFleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ComputeSmall => "compute_small",
            Workload::Cohort1k => "cohort_1k",
            Workload::ShapedLinks => "shaped_links",
            Workload::LossyTcp => "lossy_tcp",
            Workload::ServiceFleet => "service_fleet",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists — the sentence `BENCHMARK.json` carries.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ComputeSmall => {
                "small preset, K=10, in-process: tensor/nn/darts/fed do nearly all the work and \
                 rpc/codec/service none, so kernel gains show here and a communication change must not"
            }
            Workload::Cohort1k => {
                "tiny net, K=1000, reactor over in-memory links: per-participant fan-out (extract, \
                 frame encode/decode, sweeps, fold) dominates; big-GEMM speed-ups should barely move it"
            }
            Workload::ShapedLinks => {
                "tiny net, K=16, loopback TCP with bandwidth-shaped sends: link wait is most of every \
                 round, so only bytes on the wire, send overlap and size-to-bandwidth assignment move it"
            }
            Workload::LossyTcp => {
                "tiny net, K=16, non-iid, TCP, topk codec, median rule, severe staleness with delay \
                 compensation: the lossy/robust/soft-sync paths a gain for fp32/mean/hard-sync must not cost"
            }
            Workload::ServiceFleet => {
                "24 tiny jobs under the job manager on real disk, a checkpoint commit every tick: \
                 scheduler, checkpoint encode and store fsync/rename show here and nowhere else"
            }
        }
    }

    /// Every participant's update lands in the round it was computed in,
    /// so `contributors` must total `K x rounds`.
    pub fn hard_sync(self) -> bool {
        !matches!(self, Workload::LossyTcp)
    }

    pub fn is_service(self) -> bool {
        self == Workload::ServiceFleet
    }

    /// `(warm-up, search)` rounds of one episode. `--smoke` runs a tenth.
    fn rounds(self, smoke: bool) -> (usize, usize) {
        let (warmup, search) = match self {
            Workload::ComputeSmall => (3, 9),
            Workload::Cohort1k => (2, 5),
            Workload::ShapedLinks => (8, 24),
            Workload::LossyTcp => (30, 110),
            // the tiny preset's own 5 + 10, as `JobSpec::tiny` runs it
            Workload::ServiceFleet => (5, 10),
        };
        if smoke && !self.is_service() {
            ((warmup / 10).max(1), (search / 10).max(2))
        } else {
            (warmup, search)
        }
    }

    /// Jobs one service episode submits.
    fn jobs(smoke: bool) -> u64 {
        if smoke {
            3
        } else {
            24
        }
    }

    /// The search configuration, built from the presets and builders the
    /// CLI's flags map to. For the service workload this is what
    /// `JobSpec::tiny` builds, used for the stand-alone comparison run.
    pub fn search_config(self, smoke: bool) -> SearchConfig {
        let mut config = match self {
            Workload::ComputeSmall => SearchConfig::small(),
            Workload::Cohort1k => SearchConfig::tiny().with_participants(1000),
            // Pinned to the steadiest mobility trace: with the default
            // rotation a single `train` link at its 0.5 Mbps floor decides
            // a round, and round time then swings +-25 % from seed to seed.
            Workload::ShapedLinks => SearchConfig::tiny()
                .with_participants(16)
                .with_environments(vec![Environment::Foot]),
            Workload::LossyTcp => SearchConfig::tiny()
                .non_iid()
                .with_participants(16)
                .with_codec(CodecConfig::parse("topk:0.1").expect("valid codec spec"))
                .with_aggregator(AggregatorConfig::parse("median").expect("valid aggregator"))
                .with_staleness(
                    StalenessModel::severe(),
                    StalenessStrategy::delay_compensated(),
                ),
            Workload::ServiceFleet => SearchConfig::tiny(),
        };
        (config.warmup_steps, config.search_steps) = self.rounds(smoke);
        config
    }

    /// The RPC runtime a search workload installs (`None` = in-process).
    pub fn rpc_config(self) -> Option<RpcConfig> {
        match self {
            Workload::ComputeSmall | Workload::ServiceFleet => None,
            Workload::Cohort1k => Some(RpcConfig {
                transport: TransportKind::InMemory,
                engine: EngineMode::Reactor,
                deadline: Duration::from_secs(120),
                ..RpcConfig::default()
            }),
            // 20x stretches the ~5 ms simulated straggler download of the
            // tiny sub-models to ~100 ms of real link wait per round.
            Workload::ShapedLinks => Some(RpcConfig {
                transport: TransportKind::Tcp,
                real_time_scale: 20.0,
                ..RpcConfig::default()
            }),
            Workload::LossyTcp => Some(RpcConfig {
                transport: TransportKind::Tcp,
                ..RpcConfig::default()
            }),
        }
    }
}

/// The dataset stream derives from the seed exactly as the CLI does it.
pub fn generate_dataset(config: &SearchConfig, seed: u64) -> SyntheticDataset {
    let spec = DatasetSpec::cifar10_like().with_image_hw(config.net.image_hw);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDA7A);
    SyntheticDataset::generate(&spec, &mut rng)
}

/// How one episode is driven.
#[derive(Clone, Copy)]
pub struct EpisodeOptions<'a> {
    pub workload: Workload,
    pub seed: u64,
    /// A tenth of the rounds; for the unit tests only.
    pub smoke: bool,
    /// Run only the short prefix a later full episode is checked against
    /// (and let caches fill and lazy set-up finish before anything is timed).
    pub prime: bool,
    /// Service workload: also run one sampled job stand-alone and compare.
    pub standalone: bool,
    /// Record spans (and install the timing decorator) when present.
    pub tracer: Option<&'a SharedTracer>,
}

/// Everything one episode measured and verified.
#[derive(Debug, Default)]
pub struct Episode {
    pub setup_s: f64,
    pub generate_s: f64,
    pub install_s: f64,
    /// Mean `JobManager::submit` time (service workload).
    pub submit_s: f64,
    /// Mean bare `step_round` time of the stand-alone comparison run
    /// (service workload, when requested).
    pub bare_round_s: f64,
    /// Latency of every `step_round` / `tick`, in milliseconds.
    pub round_ms: Vec<f64>,
    /// Wall-clock of the rounds, after set-up.
    pub wall_s: f64,
    pub cpu_s: f64,
    pub ctx_switches: u64,
    pub threads_peak: u64,
    /// Hash of genotype, curves and byte counts of the finished episode.
    pub digest: String,
    /// Digests of the part of the episode a prime episode of the same
    /// seed reproduces: the state after the prefix rounds, or the first
    /// few jobs of a fleet.
    pub prefix: Vec<String>,
    /// Participant updates (service: job rounds) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Communication tally (service: summed over jobs).
    pub comm: CommStats,
    /// Mean over rounds of the slowest simulated download, seconds.
    pub straggler_latency_s: f64,
    /// Verification failures; empty when the outputs are correct.
    pub problems: Vec<String>,
}

impl Episode {
    pub fn rounds(&self) -> usize {
        self.round_ms.len()
    }

    pub fn wire_bytes(&self) -> u64 {
        self.comm.bytes_down + self.comm.bytes_up
    }
}

/// The finished search of an episode, kept for the replay stage.
pub struct SearchState {
    pub search: FederatedModelSearch,
    pub rng: StdRng,
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Hash of everything a search run outputs that must repeat for a seed:
/// the compact genotype, both curves down to the f32 bits, and the byte
/// counts.
pub fn outcome_digest(outcome: &SearchOutcome) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    fnv1a(&mut hash, outcome.genotype.to_compact_string().as_bytes());
    for curve in [&outcome.warmup_curve, &outcome.search_curve] {
        for step in curve.steps() {
            fnv1a(&mut hash, &(step.step as u64).to_le_bytes());
            fnv1a(&mut hash, &step.mean_accuracy.to_bits().to_le_bytes());
            fnv1a(&mut hash, &step.mean_loss.to_bits().to_le_bytes());
            fnv1a(&mut hash, &(step.contributors as u64).to_le_bytes());
        }
    }
    fnv1a(&mut hash, &outcome.comm.bytes_down.to_le_bytes());
    fnv1a(&mut hash, &outcome.comm.bytes_up.to_le_bytes());
    hash
}

fn hex(hash: u64) -> String {
    format!("{hash:016x}")
}

/// CPU, context-switch and wall-clock readings bracketing the rounds.
struct Meter {
    wall: Instant,
    cpu_s: f64,
    ctx: u64,
}

impl Meter {
    fn start() -> Meter {
        Meter {
            wall: Instant::now(),
            cpu_s: procfs::cpu_seconds(),
            ctx: procfs::context_switches(),
        }
    }

    fn stop(self, episode: &mut Episode) {
        episode.wall_s = self.wall.elapsed().as_secs_f64();
        episode.cpu_s = procfs::cpu_seconds() - self.cpu_s;
        episode.ctx_switches = procfs::context_switches().saturating_sub(self.ctx);
    }
}

/// Runs `step` once under a span (when tracing) and records its latency.
fn timed_step<T>(
    episode: &mut Episode,
    tracer: Option<&SharedTracer>,
    span: &'static str,
    round: usize,
    step: impl FnOnce() -> T,
) -> T {
    let id = tracer.map(|t| lock(t).enter(span, round as i64));
    let start = Instant::now();
    let out = step();
    let elapsed = start.elapsed();
    if let (Some(t), Some(id)) = (tracer, id) {
        lock(t).exit(id);
        episode.threads_peak = episode.threads_peak.max(procfs::thread_count());
    }
    episode.round_ms.push(elapsed.as_secs_f64() * 1e3);
    out
}

/// Drives one episode. Search workloads also hand back the finished
/// search; the service workload hands back its stand-alone comparison run
/// when one was requested.
pub fn run_episode(opts: EpisodeOptions<'_>) -> (Episode, Option<SearchState>) {
    if opts.workload.is_service() {
        service_episode(opts)
    } else {
        let (episode, state) = search_episode(opts);
        (episode, Some(state))
    }
}

fn search_episode(opts: EpisodeOptions<'_>) -> (Episode, SearchState) {
    let w = opts.workload;
    let mut episode = Episode::default();

    let setup = Instant::now();
    let config = w.search_config(opts.smoke);
    let k = config.num_participants;
    let total = config.warmup_steps + config.search_steps;
    // two search rounds past warm-up, so the prefix covers an α update
    let prefix_rounds = (config.warmup_steps + 2).min(total);
    let dataset = generate_dataset(&config, opts.seed);
    episode.generate_s = setup.elapsed().as_secs_f64();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut search = FederatedModelSearch::with_dataset(config, dataset, &mut rng);
    if let Some(rpc) = w.rpc_config() {
        let install = Instant::now();
        let worker_dataset = search.dataset().clone();
        fedrlnas::rpc::install(search.server_mut(), &worker_dataset, rpc);
        episode.install_s = install.elapsed().as_secs_f64();
        if let Some(tracer) = opts.tracer {
            let server = search.server_mut();
            let real = server.clear_backend().expect("backend just installed");
            server.set_backend(Box::new(TimedBackend::new(real, tracer.clone())));
        }
    }
    episode.setup_s = setup.elapsed().as_secs_f64();

    let rounds = if opts.prime { prefix_rounds } else { total };
    let meter = Meter::start();
    for round in 0..rounds {
        timed_step(&mut episode, opts.tracer, "core.round", round, || {
            search.step_round(&mut rng)
        });
        if round + 1 == prefix_rounds {
            episode.prefix = vec![hex(outcome_digest(&search.outcome()))];
        }
    }
    meter.stop(&mut episode);

    let outcome = search.outcome();
    episode.digest = hex(outcome_digest(&outcome));
    episode.comm = outcome.comm;
    episode.straggler_latency_s = outcome.latency.mean_of_max();
    episode.attempted = (k * rounds) as u64;
    let steps = || {
        outcome
            .warmup_curve
            .steps()
            .iter()
            .chain(outcome.search_curve.steps())
    };
    let contributors: u64 = steps().map(|s| s.contributors as u64).sum();
    episode.failed = if w.hard_sync() {
        episode.attempted.saturating_sub(contributors)
    } else {
        outcome.comm.faults.retransmits
            + outcome.comm.faults.evictions
            + outcome.comm.rejects.total_rejected()
    };

    let mut problems = Vec::new();
    if search.rounds_completed() != rounds || outcome.comm.rounds != rounds as u64 {
        problems.push(format!(
            "{} rounds completed ({} tallied) of {rounds}",
            search.rounds_completed(),
            outcome.comm.rounds
        ));
    }
    if steps().count() != rounds {
        problems.push(format!(
            "curves hold {} steps, not {rounds}",
            steps().count()
        ));
    }
    if !steps().all(|s| s.mean_accuracy.is_finite() && s.mean_loss.is_finite()) {
        problems.push("a curve value is not finite".to_string());
    }
    if w.hard_sync() && contributors != episode.attempted {
        problems.push(format!(
            "contributors total {contributors}, expected K x rounds = {}",
            episode.attempted
        ));
    }
    if episode.wire_bytes() == 0 {
        problems.push("no bytes were exchanged".to_string());
    }
    episode.problems = problems;
    (episode, SearchState { search, rng })
}

/// A fresh directory under the benchmark's own `out/` for one fleet.
fn fresh_store_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    crate::out_dir().join(format!("store-{}-{n}", std::process::id()))
}

/// The spec of job `j` of a fleet seeded with `seed`.
fn job_spec(seed: u64, j: u64) -> JobSpec {
    JobSpec::tiny(seed.wrapping_add(j))
}

fn service_episode(opts: EpisodeOptions<'_>) -> (Episode, Option<SearchState>) {
    let mut episode = Episode::default();
    let jobs = Workload::jobs(opts.smoke);
    // a prime fleet is the first eighth of the jobs: jobs never touch each
    // other's state, so each must come out exactly as in the full fleet
    let prime_jobs = (jobs / 8).max(1);
    let submitted = if opts.prime { prime_jobs } else { jobs };
    let dir = fresh_store_dir();
    let _ = std::fs::remove_dir_all(&dir);

    let setup = Instant::now();
    let quotas = JobQuotas {
        max_rounds_in_flight: 1,
        ..JobQuotas::default()
    };
    let mut mgr = match JobManager::open(&dir, quotas, 1) {
        Ok(mgr) => mgr,
        Err(e) => {
            episode.problems.push(format!("open job store: {e}"));
            return (episode, None);
        }
    };
    let mut ids = Vec::new();
    let submit = Instant::now();
    for j in 0..submitted {
        match mgr.submit(job_spec(opts.seed, j)) {
            Ok(id) => ids.push(id),
            Err(e) => episode.problems.push(format!("submit job {j}: {e}")),
        }
    }
    episode.submit_s = submit.elapsed().as_secs_f64() / submitted as f64;
    episode.setup_s = setup.elapsed().as_secs_f64();

    let meter = Meter::start();
    let mut tick = 0usize;
    while !mgr.is_idle() {
        let progressed = timed_step(&mut episode, opts.tracer, "service.tick", tick, || {
            mgr.tick()
        });
        match progressed {
            Ok(true) => tick += 1,
            Ok(false) => break,
            Err(e) => {
                episode.problems.push(format!("tick {tick}: {e}"));
                break;
            }
        }
    }
    meter.stop(&mut episode);

    let mut fleet_hash = 0xCBF2_9CE4_8422_2325u64;
    let mut completed_rounds = 0u64;
    let mut latency_sum = 0.0;
    for (j, &id) in ids.iter().enumerate() {
        let Some(job) = mgr.job(id) else {
            episode.problems.push(format!("job {id} vanished"));
            continue;
        };
        episode.attempted += job.total_rounds() as u64;
        completed_rounds += job.rounds_completed() as u64;
        if job.state() != JobState::Completed {
            episode
                .problems
                .push(format!("job {id} ended {}", job.state().name()));
        }
        let outcome = job.outcome();
        let digest = outcome_digest(&outcome);
        fnv1a(&mut fleet_hash, &digest.to_le_bytes());
        if (j as u64) < prime_jobs {
            episode.prefix.push(hex(digest));
        }
        episode.comm.merge(&outcome.comm);
        latency_sum += outcome.latency.mean_of_max();
    }
    episode.digest = hex(fleet_hash);
    episode.failed = episode.attempted.saturating_sub(completed_rounds);
    episode.straggler_latency_s = latency_sum / ids.len().max(1) as f64;
    if episode.rounds() as u64 != episode.attempted {
        episode.problems.push(format!(
            "{} ticks ran for {} submitted rounds",
            episode.rounds(),
            episode.attempted
        ));
    }

    let state = if opts.standalone && !ids.is_empty() {
        let j = opts.seed % ids.len() as u64;
        let (state, bare_round_s) = standalone_job(opts.seed, j);
        episode.bare_round_s = bare_round_s;
        let alone = state.search.outcome().genotype.to_compact_string();
        match mgr.genotype(ids[j as usize]) {
            Ok(Some(fleet)) if fleet == alone => {}
            other => episode.problems.push(format!(
                "job {j} genotype {other:?} differs from the stand-alone run's {alone:?}"
            )),
        }
        Some(state)
    } else {
        None
    };
    drop(mgr);
    let _ = std::fs::remove_dir_all(&dir);
    (episode, state)
}

/// Runs job `j`'s spec as a plain `FederatedModelSearch`, built exactly as
/// `fedrlnas search` builds it, and returns it with its mean round time.
fn standalone_job(seed: u64, j: u64) -> (SearchState, f64) {
    let spec = job_spec(seed, j);
    let config = spec.build_config().expect("the tiny spec is valid");
    let dataset = spec.build_dataset(&config);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut search = FederatedModelSearch::with_dataset(config, dataset, &mut rng);
    let start = Instant::now();
    while !search.step_round(&mut rng) {}
    let bare_round_s = start.elapsed().as_secs_f64() / search.total_rounds().max(1) as f64;
    (SearchState { search, rng }, bare_round_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_back_and_whys_fit_one_line() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{}: {}", w.name(), w.why().len());
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn configs_validate_at_both_sizes() {
        for w in Workload::ALL {
            for smoke in [false, true] {
                let config = w.search_config(smoke);
                config.validate().unwrap();
                assert!(config.warmup_steps >= 1 && config.search_steps >= 2);
            }
        }
    }

    #[test]
    fn digest_sees_every_output() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut search = FederatedModelSearch::new(SearchConfig::tiny(), &mut rng);
        search.step_round(&mut rng);
        let one = search.outcome();
        search.step_round(&mut rng);
        let two = search.outcome();
        assert_ne!(outcome_digest(&one), outcome_digest(&two));
        assert_eq!(outcome_digest(&two), outcome_digest(&search.outcome()));
        let mut bytes = two.clone();
        bytes.comm.bytes_up += 1;
        assert_ne!(outcome_digest(&two), outcome_digest(&bytes));
    }
}
