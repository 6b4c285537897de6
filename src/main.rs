//! `fedrlnas` — command-line front end for the federated model search.
//!
//! ```text
//! fedrlnas search  [--scale tiny|small|paper] [--seed N] [--non-iid]
//!                  [--participants K] [--staleness none|slight|severe]
//!                  [--strategy hard|use|throw|dc] [--assignment adaptive|average|random]
//!                  [--aggregator mean|median|trimmed:<k>|krum:<m>|clip:<c>[+...]]
//!                  [--reject-norm C] [--codec fp32|fp16|int8|topk[:<f>]|auto]
//!                  [--population N] [--cohort K] [--availability SPEC]
//!                  [--dataset cifar10|svhn] [--checkpoint PATH] [--curve PATH]
//!                  [--checkpoint-path PATH] [--checkpoint-every N]
//!                  [--stats-json PATH]
//!                  [--rpc] [--rpc-transport mem|tcp] [--rpc-deadline-ms N]
//!                  [--reactor-threads N]
//!                  [--quorum-frac F] [--quorum-drain-ms N] [--evict-after N]
//!                  [--fault-seed N] [--fault-drop P] [--fault-corrupt P]
//!                  [--fault-dup P] [--fault-reorder P] [--fault-delay P]
//!                  [--fault-max-delay-ms N]
//!
//! `--checkpoint-path` enables crash recovery: the search state is written
//! atomically every `--checkpoint-every` rounds (default 10), and an
//! existing valid checkpoint at that path is resumed from automatically —
//! a killed and restarted search is bit-identical to an uninterrupted one.
//! `--fault-seed` arms the deterministic fault-injection layer on every
//! RPC link (probabilities default to a light chaos preset).
//! `--aggregator` selects the round-aggregation rule — the default `mean`
//! reproduces the paper's FedAvg exactly; `median`, `trimmed:<k>` and
//! `krum:<m>` tolerate Byzantine participants, and a `clip:<c>` pre-step
//! composes with any of them (e.g. `clip:10+median`). `--reject-norm C`
//! arms the validation gate: updates over L2 norm `C` (or malformed /
//! non-finite ones) are rejected before aggregation and tallied.
//! `--rpc` drives all participant links from a bounded pool of event-loop
//! threads (`--reactor-threads`, default: the `FEDRLNAS_NUM_THREADS`
//! heuristic); the result does not depend on the pool size.
//! `--quorum-drain-ms` tunes the grace window granted to in-flight stragglers once the round
//! quorum is met (default 5 ms).
//! `--codec` compresses uploaded model updates: `fp16` and `int8` quantize,
//! `topk:<f>` keeps the largest fraction `f` of entries with error feedback,
//! and `auto` picks a codec per participant from its sampled bandwidth.
//! The default `fp32` is byte-identical to a build without the codec layer.
//! `--population N` enrolls a simulated fleet of `N` clients and samples a
//! fresh cohort of `--cohort K` (default: the participant count) every
//! round under the deterministic availability model described by
//! `--availability` — a comma-separated `key=value` spec with keys `seed`,
//! `base`, `amp`, `period`, `dropout=EVERYxLEN`, `churn` and `flap`
//! (unset keys keep the defaults; see `fedrlnas-netsim`). The schedule is
//! a pure function of `(seed, client, round)`, so same-seed runs sample
//! identical cohorts and kill-and-resume is bit-identical.
//! `--stats-json` writes the run's communication statistics as JSON (the
//! same serialization the service control plane's `StatsDump` returns).
//! `SIGINT`/`SIGTERM` trigger a graceful shutdown: with `--checkpoint-path`
//! the state is snapshotted before exiting, and a restart resumes
//! bit-identically.
//!
//! fedrlnas serve   --store DIR [--listen ADDR] [--checkpoint-every N]
//!                  [--max-rounds-in-flight N] [--thread-budget N]
//!                  [--byte-budget BYTES] [--round-delay-ms N]
//!                  [--exit-when-idle] [--io-fault-seed N]
//!                  [--io-fault-spec "torn=P,fsync=P,eio=P,enospc=P,full=FROMxLEN"]
//!
//! `serve` runs the multi-tenant search service: jobs are submitted over
//! the protocol-v2 control plane (see `fedrlnas-service`), scheduled
//! round-robin with per-job quotas, and checkpointed crash-safely in the
//! `--store` directory — a `kill -9` mid-fleet resumes every job
//! bit-identically on restart. The bound address is printed as
//! `listening on ADDR` once the server is ready. `--io-fault-spec` (or
//! `--io-fault-seed` alone, for the light default plan) routes the store
//! through a deterministic storage fault injector — torn writes, dropped
//! fsyncs, transient EIO, ENOSPC windows, all a pure function of (seed,
//! path, op index). Jobs whose records persistently fail to commit are
//! quarantined with a typed reason instead of crashing the serve loop;
//! `SIGUSR1` triggers a store scrub (CRC-verify + repair), after which
//! quarantined jobs accept `resume`.
//!
//! fedrlnas retrain --genotype "<compact>" [--scale ...] [--seed N]
//!                  [--federated] [--non-iid] [--steps N] [--dataset ...]
//! fedrlnas info    [--scale ...]
//! ```
//!
//! Every subcommand refuses a `--flag` it does not know, and a flag whose
//! value is missing at the end of the line (and `search` refuses the
//! RPC-only flags without `--rpc`), so a typo is an error instead of a run
//! with the default value. The config grammar is `fedrlnas_core::args`,
//! which the service's job specs share.

use fedrlnas::core::args::{
    self, build_config, check_flags, dataset_for, flag, present, FlagSpec, CONFIG_FLAGS,
};
use fedrlnas::core::{
    retrain_centralized, retrain_federated, Checkpoint, CheckpointPolicy, FaultyVfs,
    FederatedModelSearch, IoFaultPlan, StdVfs, Vfs,
};
use fedrlnas::darts::Genotype;
use fedrlnas::rpc::{FaultPlan, RpcConfig, TransportKind};
use fedrlnas::service::{
    comm_stats_json, install_shutdown_handler, serve_tcp, shutdown_requested, JobManager,
    JobQuotas, JobState, ServeOptions,
};
use rand::{rngs::StdRng, SeedableRng};
use std::process::ExitCode;

const SEARCH_FLAGS: &[FlagSpec] = &[
    ("--seed", true),
    ("--dataset", true),
    ("--checkpoint", true),
    ("--curve", true),
    ("--checkpoint-path", true),
    ("--checkpoint-every", true),
    ("--stats-json", true),
    ("--rpc", false),
];

/// `search` flags that only mean something next to `--rpc`.
const RPC_FLAGS: &[FlagSpec] = &[
    ("--rpc-transport", true),
    ("--rpc-deadline-ms", true),
    ("--reactor-threads", true),
    ("--quorum-frac", true),
    ("--quorum-drain-ms", true),
    ("--evict-after", true),
    ("--fault-seed", true),
    ("--fault-drop", true),
    ("--fault-corrupt", true),
    ("--fault-dup", true),
    ("--fault-reorder", true),
    ("--fault-delay", true),
    ("--fault-max-delay-ms", true),
];

const SERVE_FLAGS: &[FlagSpec] = &[
    ("--store", true),
    ("--listen", true),
    ("--checkpoint-every", true),
    ("--max-rounds-in-flight", true),
    ("--thread-budget", true),
    ("--byte-budget", true),
    ("--round-delay-ms", true),
    ("--exit-when-idle", false),
    ("--io-fault-seed", true),
    ("--io-fault-spec", true),
];

const RETRAIN_FLAGS: &[FlagSpec] = &[
    ("--seed", true),
    ("--dataset", true),
    ("--genotype", true),
    ("--steps", true),
    ("--federated", false),
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: fedrlnas <search|serve|retrain|info> [options]\n\
         run `fedrlnas info` for the active configuration; see crate docs for all flags"
    );
    ExitCode::FAILURE
}

/// Writes the run's communication statistics when `--stats-json` asked
/// for them — shared serialization with the service `StatsDump` reply.
fn write_stats_json(argv: &[String], search: &FederatedModelSearch) -> Result<(), String> {
    if let Some(path) = flag(argv, "--stats-json") {
        let json = comm_stats_json(
            search.server().comm(),
            search.rounds_completed(),
            search.total_rounds(),
        );
        std::fs::write(&path, json).map_err(|e| format!("write {path}: {e}"))?;
        println!("stats written to {path}");
    }
    Ok(())
}

fn cmd_search(argv: &[String]) -> Result<(), String> {
    check_flags(&argv[1..], &[CONFIG_FLAGS, SEARCH_FLAGS, RPC_FLAGS])?;
    if !present(argv, "--rpc") {
        if let Some((name, _)) = RPC_FLAGS.iter().find(|(name, _)| present(argv, name)) {
            return Err(format!("{name} requires --rpc"));
        }
    }
    install_shutdown_handler();
    let seed = args::seed(argv)?;
    let config = build_config(argv)?;
    let dataset = dataset_for(argv, &config, seed)?;
    config.check_dataset(dataset.spec())?;
    println!(
        "searching: K = {}, {} warm-up + {} search steps, staleness {:?}, strategy {}, assignment {}, aggregator {}",
        config.num_participants,
        config.warmup_steps,
        config.search_steps,
        config.staleness.stale_fraction(),
        config.strategy,
        config.assignment,
        config.aggregator,
    );
    if let Some(bound) = config.update_norm_bound {
        println!("validation gate armed: rejecting updates with L2 norm > {bound}");
    }
    if !config.codec.is_fp32() {
        println!("update compression: codec {}", config.codec);
    }
    if let Some(p) = &config.population {
        println!(
            "population churn armed: {} clients enrolled, cohort {} per round, availability {}",
            p.size, p.cohort, p.availability
        );
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut search = FederatedModelSearch::with_dataset(config, dataset, &mut rng);
    // crash recovery: resume before any backend install, so worker clones
    // see the restored participant state
    let policy = match flag(argv, "--checkpoint-path") {
        Some(path) => {
            let every: usize = flag(argv, "--checkpoint-every")
                .map_or(Ok(10), |s| s.parse())
                .map_err(|e| format!("bad checkpoint interval: {e}"))?;
            Some(CheckpointPolicy::new(path, every))
        }
        None => None,
    };
    if let Some(p) = &policy {
        match search.try_resume(&p.path, &mut rng) {
            Ok(true) => println!("resumed from checkpoint {}", p.path.display()),
            Ok(false) => {}
            Err(e) => eprintln!(
                "warning: ignoring unusable checkpoint {}: {e}; starting fresh",
                p.path.display()
            ),
        }
    }
    if present(argv, "--rpc") {
        let transport = match flag(argv, "--rpc-transport").as_deref() {
            None | Some("mem") => TransportKind::InMemory,
            Some("tcp") => TransportKind::Tcp,
            Some(other) => return Err(format!("unknown rpc transport {other:?}")),
        };
        let reactor_threads: usize = flag(argv, "--reactor-threads")
            .map_or(Ok(0), |s| s.parse())
            .map_err(|e| format!("bad reactor thread count: {e}"))?;
        let deadline_ms: u64 = flag(argv, "--rpc-deadline-ms")
            .map_or(Ok(5000), |s| s.parse())
            .map_err(|e| format!("bad rpc deadline: {e}"))?;
        let quorum_frac: f64 = flag(argv, "--quorum-frac")
            .map_or(Ok(1.0), |s| s.parse())
            .map_err(|e| format!("bad quorum fraction: {e}"))?;
        if !(0.0..=1.0).contains(&quorum_frac) {
            return Err(format!("quorum fraction {quorum_frac} outside [0, 1]"));
        }
        let quorum_drain = match flag(argv, "--quorum-drain-ms") {
            None => RpcConfig::default().quorum_drain,
            Some(s) => std::time::Duration::from_millis(
                s.parse().map_err(|e| format!("bad quorum drain: {e}"))?,
            ),
        };
        let evict_after: usize = flag(argv, "--evict-after")
            .map_or(Ok(3), |s| s.parse())
            .map_err(|e| format!("bad eviction threshold: {e}"))?;
        let fault = match flag(argv, "--fault-seed") {
            None => FaultPlan::none(),
            Some(s) => {
                let fault_seed: u64 = s.parse().map_err(|e| format!("bad fault seed: {e}"))?;
                let mut plan = FaultPlan::light(fault_seed);
                let prob = |name: &str, slot: &mut f64| -> Result<(), String> {
                    if let Some(v) = flag(argv, name) {
                        *slot = v.parse().map_err(|e| format!("bad {name}: {e}"))?;
                        if !(0.0..=1.0).contains(slot) {
                            return Err(format!("{name} {slot} outside [0, 1]"));
                        }
                    }
                    Ok(())
                };
                prob("--fault-drop", &mut plan.drop)?;
                prob("--fault-corrupt", &mut plan.corrupt)?;
                prob("--fault-dup", &mut plan.duplicate)?;
                prob("--fault-reorder", &mut plan.reorder)?;
                prob("--fault-delay", &mut plan.delay)?;
                if let Some(ms) = flag(argv, "--fault-max-delay-ms") {
                    let ms: u64 = ms.parse().map_err(|e| format!("bad fault delay: {e}"))?;
                    plan.max_delay = std::time::Duration::from_millis(ms);
                }
                println!(
                    "fault injection armed: seed {fault_seed}, drop {:.3} / corrupt {:.3} / dup {:.3} / reorder {:.3} / delay {:.3} (≤ {:?})",
                    plan.drop, plan.corrupt, plan.duplicate, plan.reorder, plan.delay, plan.max_delay
                );
                plan
            }
        };
        let rpc_config = RpcConfig {
            transport,
            reactor_threads,
            deadline: std::time::Duration::from_millis(deadline_ms),
            quorum_frac,
            quorum_drain,
            evict_after,
            fault,
            ..RpcConfig::default()
        };
        let worker_dataset = search.dataset().clone();
        fedrlnas::rpc::install(search.server_mut(), &worker_dataset, rpc_config);
        println!(
            "rpc runtime: {} transport, {} participants, {deadline_ms} ms deadline, quorum {quorum_frac}",
            search
                .server_mut()
                .backend_description()
                .unwrap_or_default(),
            search.server_mut().participants().len(),
        );
    }
    let outcome = match &policy {
        Some(_) => {
            // Interruptible: a SIGINT/SIGTERM mid-run snapshots and exits
            // cleanly; a rerun resumes bit-identically.
            match search
                .run_checkpointed_until(&mut rng, policy.as_ref(), shutdown_requested)
                .map_err(|e| format!("checkpointing failed: {e}"))?
            {
                Some(outcome) => outcome,
                None => {
                    println!(
                        "interrupted after {} rounds; checkpoint saved — rerun to resume",
                        search.rounds_completed()
                    );
                    return write_stats_json(argv, &search);
                }
            }
        }
        None => search.run(&mut rng),
    };
    println!("genotype: {}", outcome.genotype);
    println!(
        "genotype (compact): {}",
        outcome.genotype.to_compact_string()
    );
    println!(
        "search accuracy (moving avg): {:.3}",
        outcome.search_curve.final_accuracy(50).unwrap_or(0.0)
    );
    println!("communication: {}", outcome.comm);
    println!(
        "mean straggler latency: {:.3} s",
        outcome.latency.mean_of_max()
    );
    println!("simulated search time: {:.2} h", outcome.sim_hours);
    if let Some(path) = flag(argv, "--curve") {
        let mut file = std::fs::File::create(&path).map_err(|e| format!("create {path}: {e}"))?;
        outcome
            .search_curve
            .write_csv(&mut file, 50)
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("curve written to {path}");
    }
    if let Some(path) = flag(argv, "--checkpoint") {
        Checkpoint::capture(search.server_mut(), &rng)
            .save_path(std::path::Path::new(&path))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("checkpoint written to {path}");
    }
    write_stats_json(argv, &search)
}

fn cmd_serve(argv: &[String]) -> Result<(), String> {
    check_flags(&argv[1..], &[SERVE_FLAGS])?;
    install_shutdown_handler();
    let store = flag(argv, "--store").ok_or("serve requires --store DIR")?;
    let listen = flag(argv, "--listen").unwrap_or_else(|| "127.0.0.1:0".to_string());
    let checkpoint_every: usize = flag(argv, "--checkpoint-every")
        .map_or(Ok(5), |s| s.parse())
        .map_err(|e| format!("bad checkpoint interval: {e}"))?;
    let quotas = JobQuotas {
        max_rounds_in_flight: flag(argv, "--max-rounds-in-flight")
            .map_or(Ok(1), |s| s.parse())
            .map_err(|e| format!("bad rounds-in-flight quota: {e}"))?,
        thread_budget: flag(argv, "--thread-budget")
            .map_or(Ok(0), |s| s.parse())
            .map_err(|e| format!("bad thread budget: {e}"))?,
        byte_budget: match flag(argv, "--byte-budget") {
            None => None,
            Some(s) => Some(s.parse().map_err(|e| format!("bad byte budget: {e}"))?),
        },
    };
    let delay_ms: u64 = flag(argv, "--round-delay-ms")
        .map_or(Ok(0), |s| s.parse())
        .map_err(|e| format!("bad round delay: {e}"))?;
    let options = ServeOptions {
        exit_when_idle: present(argv, "--exit-when-idle"),
        round_delay: std::time::Duration::from_millis(delay_ms),
    };
    let fault_seed: u64 = flag(argv, "--io-fault-seed")
        .map_or(Ok(0), |s| s.parse())
        .map_err(|e| format!("bad io fault seed: {e}"))?;
    let fault_plan = match flag(argv, "--io-fault-spec") {
        Some(spec) => IoFaultPlan::parse(&spec, fault_seed)
            .map_err(|e| format!("bad --io-fault-spec: {e}"))?,
        None if present(argv, "--io-fault-seed") => IoFaultPlan::light(fault_seed),
        None => IoFaultPlan::none(),
    };
    let vfs: Box<dyn Vfs> = if fault_plan.is_active() {
        println!("io fault injection active: {fault_plan}");
        Box::new(FaultyVfs::new(fault_plan))
    } else {
        Box::new(StdVfs)
    };

    let mut mgr =
        JobManager::open_with(std::path::Path::new(&store), quotas, checkpoint_every, vfs)
            .map_err(|e| format!("open job store {store}: {e}"))?;
    let recovered = mgr.list().len();
    if recovered > 0 {
        println!("recovered {recovered} job(s) from {store}");
    }
    let quarantined: Vec<u64> = mgr
        .list()
        .iter()
        .filter(|(_, code)| *code == JobState::Quarantined.code())
        .map(|(id, _)| *id)
        .collect();
    if !quarantined.is_empty() {
        println!(
            "{} job(s) quarantined: {quarantined:?} (scrub with SIGUSR1, then resume)",
            quarantined.len()
        );
    }
    serve_tcp(&mut mgr, listen.as_str(), &options, |addr| {
        // The e2e harnesses parse this line; keep it stable and flushed.
        println!("listening on {addr}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    })?;
    let tally = mgr.io_tally();
    if tally.any() {
        println!(
            "io fault tally: {} torn / {} fsync-dropped / {} eio / {} enospc, \
             {} retries, {} quarantined, {} scrub-repaired",
            tally.torn_writes,
            tally.dropped_fsyncs,
            tally.io_errors,
            tally.disk_full,
            tally.retries,
            tally.quarantined,
            tally.scrub_repaired
        );
    }
    println!("all jobs checkpointed; exiting");
    Ok(())
}

fn cmd_retrain(argv: &[String]) -> Result<(), String> {
    check_flags(&argv[1..], &[CONFIG_FLAGS, RETRAIN_FLAGS])?;
    let seed = args::seed(argv)?;
    let compact = flag(argv, "--genotype").ok_or("retrain requires --genotype \"<compact>\"")?;
    let genotype = Genotype::parse_compact(&compact)?;
    let mut config = build_config(argv)?;
    config.net.nodes = genotype.nodes();
    let dataset = dataset_for(argv, &config, seed)?;
    let steps: usize = flag(argv, "--steps")
        .map_or(Ok(300), |s| s.parse())
        .map_err(|e| format!("bad steps: {e}"))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let report = if present(argv, "--federated") {
        retrain_federated(
            genotype,
            config.net.clone(),
            &dataset,
            config.num_participants,
            steps,
            config.dirichlet_beta,
            &mut rng,
        )
    } else {
        retrain_centralized(
            genotype,
            config.net.clone(),
            &dataset,
            steps,
            config.batch_size,
            &mut rng,
        )
    };
    println!(
        "retrained: test error {:.2}% ({} parameters)",
        report.error_percent(),
        report.param_count
    );
    Ok(())
}

fn cmd_info(argv: &[String]) -> Result<(), String> {
    check_flags(&argv[1..], &[CONFIG_FLAGS])?;
    let config = build_config(argv)?;
    println!("{config:#?}");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("search") => cmd_search(&argv),
        Some("serve") => cmd_serve(&argv),
        Some("retrain") => cmd_retrain(&argv),
        Some("info") => cmd_info(&argv),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
