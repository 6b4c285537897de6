//! One run of one workload: the unit the driver invokes and the suite
//! spawns as a child process, so peak memory and CPU belong to it alone.
//!
//! Untraced, a run is a short *prime* episode (fills caches, and is the
//! reference a full episode's prefix must reproduce bit for bit) followed
//! by full episodes until `--seconds` have passed, and reports the
//! end-to-end metrics. Traced, it alternates plain and traced episodes of
//! the same seeds (their digests must agree, their speeds give the tracing
//! overhead), replays the leaf calls, and reports the per-layer metrics.

use crate::json::Value;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::procfs;
use crate::replay::{self, Values};
use crate::stats;
use crate::trace::{lock, Tracer};
use crate::workloads::{run_episode, Episode, EpisodeOptions, Workload};
use fedrlnas::fed::CommStats;
use std::time::{Duration, Instant};

/// Arguments of one run (the driver's contract, plus `--smoke`).
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    /// How long to keep starting episodes for.
    pub seconds: f64,
    pub trace: bool,
    /// A tenth of the rounds and the shortest replay; unit tests only,
    /// never for reported numbers.
    pub smoke: bool,
}

/// What a run found.
#[derive(Debug)]
pub struct RunReport {
    /// Every output check passed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every end-to-end metric (untraced) or every per-layer metric
    /// (traced), in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Raw material for the suite's pooled statistics: digests, every
    /// round latency, the time-attribution table.
    pub detail: Value,
    pub problems: Vec<String>,
}

impl RunReport {
    /// The result line of the driver's contract.
    pub fn result_line(&self) -> Value {
        let metrics = self.metrics.iter().map(|&(name, value)| {
            let unit = crate::metrics::find(name).map_or("", |m| m.unit);
            (
                name,
                Value::obj([
                    ("value", Value::Num(value)),
                    ("unit", Value::Str(unit.to_string())),
                ]),
            )
        });
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
    }
}

/// Episode `e` of a run seeded `seed` searches with its own seed, so a
/// run averages over several searches instead of repeating one.
fn episode_seed(seed: u64, e: u64) -> u64 {
    seed.wrapping_add(e.wrapping_mul(1_000_003))
}

/// Episodes of one kind (all plain, or all traced), pooled.
#[derive(Default)]
struct Pool {
    rounds: usize,
    wall_s: f64,
    /// Per episode: rounds ÷ wall-clock after set-up, and CPU ÷ rounds.
    /// Runs report the median episode, which a burst of interference
    /// from the host in one episode does not move.
    rounds_per_s: Vec<f64>,
    cpu_s_per_round: Vec<f64>,
    ctx_switches: u64,
    threads_peak: u64,
    round_ms: Vec<f64>,
    comm: CommStats,
    straggler_latency_s: Vec<f64>,
    submit_s: Vec<f64>,
    bare_round_s: Vec<f64>,
    digests: Vec<String>,
    /// Of the first episode alone — the one searched with the run's own
    /// seed — so the value is an exact count for a seed however many
    /// episodes the time allowed.
    wire_mb_per_round: f64,
}

impl Pool {
    fn add(&mut self, e: &Episode) {
        if self.digests.is_empty() {
            self.wire_mb_per_round = e.wire_bytes() as f64 / e.rounds().max(1) as f64 / 1e6;
        }
        self.rounds += e.rounds();
        self.wall_s += e.wall_s;
        self.rounds_per_s.push(e.rounds() as f64 / e.wall_s);
        self.cpu_s_per_round
            .push(e.cpu_s / e.rounds().max(1) as f64);
        self.ctx_switches += e.ctx_switches;
        self.threads_peak = self.threads_peak.max(e.threads_peak);
        self.round_ms.extend_from_slice(&e.round_ms);
        self.comm.merge(&e.comm);
        self.straggler_latency_s.push(e.straggler_latency_s);
        self.submit_s.push(e.submit_s);
        if e.bare_round_s > 0.0 {
            self.bare_round_s.push(e.bare_round_s);
        }
        self.digests.push(e.digest.clone());
    }

    fn per_round(&self, total: f64) -> f64 {
        total / self.rounds.max(1) as f64
    }

    fn rounds_per_s(&self) -> f64 {
        stats::median(&self.rounds_per_s)
    }
}

/// Set-up samples and failure counts over every episode of a run.
#[derive(Default)]
struct Totals {
    setup_s: Vec<f64>,
    generate_s: Vec<f64>,
    install_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Totals {
    fn add(&mut self, label: &str, e: &Episode) {
        self.setup_s.push(e.setup_s);
        self.generate_s.push(e.generate_s);
        self.install_s.push(e.install_s);
        self.attempted += e.attempted;
        self.failed += e.failed;
        self.problems
            .extend(e.problems.iter().map(|p| format!("{label}: {p}")));
    }
}

/// Runs one workload once. Never panics on a failed check: problems are
/// listed in the report and clear its `correct` flag.
pub fn run(opts: &RunOptions) -> RunReport {
    let episode = |seed: u64, prime: bool, standalone: bool, tracer| {
        run_episode(EpisodeOptions {
            workload: opts.workload,
            seed,
            smoke: opts.smoke,
            prime,
            standalone,
            tracer,
        })
    };
    let mut totals = Totals::default();
    let (prime, _) = episode(opts.seed, true, false, None);
    totals.add("prime", &prime);

    let clock = Instant::now();
    let out_of_time = || clock.elapsed().as_secs_f64() >= opts.seconds;
    let mut plain = Pool::default();
    let check_prefix = |e: u64, ep: &Episode, problems: &mut Vec<String>| {
        if e == 0 && ep.prefix != prime.prefix {
            problems.push(format!(
                "episode 0 did not reproduce the prime episode: {:?} vs {:?}",
                ep.prefix, prime.prefix
            ));
        }
    };

    if !opts.trace {
        for e in 0.. {
            let (ep, _) = episode(episode_seed(opts.seed, e), false, e == 0, None);
            totals.add(&format!("episode {e}"), &ep);
            check_prefix(e, &ep, &mut totals.problems);
            plain.add(&ep);
            if out_of_time() {
                break;
            }
        }
        let metrics = end_to_end(&totals, &plain);
        let detail = detail(&plain, Vec::new());
        return report(totals, metrics, detail);
    }

    let tracer = Tracer::shared();
    let mut traced = Pool::default();
    let mut last_state = None;
    for e in 0.. {
        let seed = episode_seed(opts.seed, e);
        // alternate which side goes first, so drift favours neither
        let (bare, spanned) = if e % 2 == 0 {
            let bare = episode(seed, false, false, None).0;
            (bare, episode(seed, false, true, Some(&tracer)))
        } else {
            let spanned = episode(seed, false, true, Some(&tracer));
            (episode(seed, false, false, None).0, spanned)
        };
        let (spanned, state) = spanned;
        totals.add(&format!("episode {e}"), &bare);
        totals.add(&format!("traced episode {e}"), &spanned);
        check_prefix(e, &bare, &mut totals.problems);
        if bare.digest != spanned.digest {
            totals.problems.push(format!(
                "traced episode {e} digest {} differs from the untraced {}",
                spanned.digest, bare.digest
            ));
        }
        plain.add(&bare);
        traced.add(&spanned);
        last_state = state.or(last_state);
        if out_of_time() {
            break;
        }
    }

    let budget = Duration::from_millis(if opts.smoke { 1 } else { 40 });
    let mut replayed = Values::new();
    match last_state.as_mut() {
        Some(state) => match replay::replay(opts.workload, state, &mut lock(&tracer), budget) {
            Ok(values) => replayed = values,
            Err(e) => totals.problems.push(format!("replay: {e}")),
        },
        None => totals
            .problems
            .push("no finished search to replay".to_string()),
    }
    let tracer = lock(&tracer);
    let path = crate::out_dir().join(format!("trace-{}.jsonl", opts.workload.name()));
    if let Err(e) = tracer.write_jsonl(&path) {
        totals
            .problems
            .push(format!("write {}: {e}", path.display()));
    }
    let (metrics, table) = per_layer(opts.workload, &totals, &plain, &traced, &tracer, &replayed);
    let detail = detail(&traced, table);
    report(totals, metrics, detail)
}

fn report(totals: Totals, metrics: Vec<(&'static str, f64)>, detail: Value) -> RunReport {
    let mut problems = totals.problems;
    for &(name, value) in &metrics {
        if !value.is_finite() {
            problems.push(format!("metric {name} is not a finite number"));
        }
    }
    RunReport {
        correct: problems.is_empty(),
        attempted: totals.attempted.max(1),
        failed: totals.failed,
        metrics,
        detail,
        problems,
    }
}

fn end_to_end(totals: &Totals, pool: &Pool) -> Vec<(&'static str, f64)> {
    let value = |name: &str| match name {
        "setup_s" => stats::median(&totals.setup_s),
        "rounds_per_s" => pool.rounds_per_s(),
        "round_ms_p50" => stats::median(&pool.round_ms),
        "cpu_s_per_round" => stats::median(&pool.cpu_s_per_round),
        "peak_rss_mib" => procfs::peak_rss_mib(),
        "wire_mb_per_round" => pool.wire_mb_per_round,
        other => unreachable!("end-to-end metric {other} has no source"),
    };
    END_TO_END.iter().map(|m| (m.name, value(m.name))).collect()
}

/// One row of the "where a round's time goes" table: a step on the
/// round's blocking path, how often it runs per round and what one call
/// costs.
struct PathRow {
    step: &'static str,
    calls_per_round: f64,
    secs_per_call: f64,
}

impl PathRow {
    fn secs_per_round(&self) -> f64 {
        self.calls_per_round * self.secs_per_call
    }
}

/// The steps that block a round of `workload`, in order, priced from the
/// live spans, the program's own timing counters and the replay.
fn blocking_path(
    workload: Workload,
    traced: &Pool,
    tracer: &Tracer,
    replayed: &Values,
) -> Vec<PathRow> {
    let replay_s = |name: &str, scale: f64| replayed.get(name).copied().unwrap_or(0.0) / scale;
    let row = |step, calls_per_round, secs_per_call| PathRow {
        step,
        calls_per_round,
        secs_per_call,
    };
    if workload.is_service() {
        return vec![
            row(
                "core.round (stand-alone step_round)",
                1.0,
                stats::median(&traced.bare_round_s),
            ),
            row(
                "core.checkpoint.encode",
                1.0,
                replay_s("core.checkpoint.encode_ms", 1e3),
            ),
            row(
                "service.store.commit",
                1.0,
                replay_s("service.store.commit_ms", 1e3),
            ),
        ];
    }
    let config = workload.search_config(false);
    let k = config.num_participants as f64;
    let search_share =
        config.search_steps as f64 / (config.warmup_steps + config.search_steps) as f64;
    let mut rows = vec![
        row(
            "controller.sample",
            k,
            replay_s("controller.sample_us", 1e6),
        ),
        row(
            "darts.extract_submodel",
            k,
            replay_s("darts.extract_submodel_us", 1e6),
        ),
        row("netsim.assign", 1.0, replay_s("netsim.assign_us", 1e6)),
        row("sync.pool_save", 1.0, replay_s("sync.pool_save_us", 1e6)),
    ];
    if workload.rpc_config().is_some() {
        rows.push(row(
            "rpc.engine.run_round",
            1.0,
            tracer.mean_secs("rpc.engine.run_round"),
        ));
    } else {
        // K participant threads share the cores: K / cores updates run
        // back to back on each
        let lanes = k.min(procfs::nproc() as f64);
        rows.push(row(
            "fed.local_update",
            k / lanes,
            replay_s("fed.local_update_us", 1e6),
        ));
    }
    rows.extend([
        row(
            "fed.aggregate",
            1.0,
            traced.per_round(traced.comm.timing.aggregate_ns as f64) / 1e9,
        ),
        row("nn.sgd_step", 1.0, replay_s("nn.sgd_step_us", 1e6)),
        row(
            "controller.update",
            search_share,
            replay_s("controller.update_us", 1e6),
        ),
    ]);
    rows.retain(|r| r.secs_per_call > 0.0);
    rows
}

fn per_layer(
    workload: Workload,
    totals: &Totals,
    plain: &Pool,
    traced: &Pool,
    tracer: &Tracer,
    replayed: &Values,
) -> (Vec<(&'static str, f64)>, Vec<PathRow>) {
    let table = blocking_path(workload, traced, tracer, replayed);
    let round_s = traced.per_round(traced.wall_s);
    let covered_s: f64 = table.iter().map(PathRow::secs_per_round).sum();
    let timing = &traced.comm.timing;
    let per_round_ms = |nanos: u64| traced.per_round(nanos as f64) / 1e6;
    let down_frames = tracer.counter("rpc.wire.down_frames");
    let tick_ms = tracer.mean_secs("service.tick") * 1e3;
    let value = |name: &str| -> f64 {
        if let Some(&v) = replayed.get(name) {
            return v;
        }
        match name {
            "round_ms_p90" => stats::percentile(&traced.round_ms, 90.0),
            "data.generate_ms" => stats::median(&totals.generate_s) * 1e3,
            "netsim.straggler_latency_s" => stats::median(&traced.straggler_latency_s),
            "fed.aggregate_ms_per_round" => per_round_ms(timing.aggregate_ns),
            "codec.ratio" if traced.comm.compression.any() => traced.comm.compression.ratio(),
            "rpc.wire.down_frame_bytes_mean" if down_frames > 0 => {
                tracer.counter("rpc.wire.down_frame_bytes") as f64 / down_frames as f64
            }
            "rpc.engine.run_round_ms" => tracer.mean_secs("rpc.engine.run_round") * 1e3,
            "rpc.engine.ship_ms_per_round" => per_round_ms(timing.ship_ns),
            "rpc.engine.collect_ms_per_round" => per_round_ms(timing.collect_ns),
            "rpc.engine.decode_ms_per_round" => per_round_ms(timing.decode_ns),
            "rpc.engine.validate_ms_per_round" => per_round_ms(timing.validate_ns),
            "rpc.engine.install_ms" => stats::median(&totals.install_s) * 1e3,
            "rpc.engine.retransmits" => traced.comm.faults.retransmits as f64,
            "rpc.engine.evictions" => traced.comm.faults.evictions as f64,
            "core.server_self_ms" => per_round_ms(tracer.self_nanos("core.round")),
            "service.submit_ms" if workload.is_service() => stats::median(&traced.submit_s) * 1e3,
            "service.tick_ms" => tick_ms,
            "service.tick_self_ms" if workload.is_service() => {
                tick_ms - stats::median(&traced.bare_round_s) * 1e3
            }
            "proc.ctx_switches_per_round" => traced.per_round(traced.ctx_switches as f64),
            "proc.threads_peak" => traced.threads_peak as f64,
            "trace.coverage" => covered_s / round_s,
            "trace.overhead_pct" => (1.0 - traced.rounds_per_s() / plain.rounds_per_s()) * 100.0,
            "update_fail_ratio" => totals.failed as f64 / totals.attempted.max(1) as f64,
            "trace.round_ms" => round_s * 1e3,
            "trace.unattributed_ms" => (round_s - covered_s) * 1e3,
            // a layer this workload does not exercise
            _ => 0.0,
        }
    };
    let metrics = PER_LAYER.iter().map(|m| (m.name, value(m.name))).collect();
    (metrics, table)
}

/// What the suite pools across repetitions: the episode digests, every
/// round latency, and a traced run's time-attribution table.
fn detail(pool: &Pool, table: Vec<PathRow>) -> Value {
    let table = table.iter().map(|r| {
        Value::obj([
            ("step", Value::Str(r.step.to_string())),
            ("calls_per_round", Value::Num(r.calls_per_round)),
            ("us_per_call", Value::Num(r.secs_per_call * 1e6)),
            ("ms_per_round", Value::Num(r.secs_per_round() * 1e3)),
        ])
    });
    Value::obj([
        (
            "digests",
            Value::Arr(pool.digests.iter().cloned().map(Value::Str).collect()),
        ),
        ("round_ms", Value::nums(&pool.round_ms)),
        ("blocking_path", Value::Arr(table.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn smoke(workload: Workload, trace: bool) -> RunReport {
        run(&RunOptions {
            workload,
            seed: 7,
            seconds: 0.0,
            trace,
            smoke: true,
        })
    }

    fn check(report: &RunReport, expected: usize) {
        assert!(report.correct, "{:?}", report.problems);
        assert_eq!(report.failed, 0);
        assert!(report.attempted >= 1);
        assert_eq!(report.metrics.len(), expected);
        // the line is the driver's contract: exactly these four keys
        let line = json::parse(&report.result_line().to_string()).unwrap();
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        for (name, metric) in line.get("metrics").unwrap().as_object().unwrap() {
            let def = crate::metrics::find(name).expect("a listed metric");
            assert_eq!(metric.get("unit").unwrap().as_str(), Some(def.unit));
            assert!(metric.get("value").unwrap().as_f64().is_some(), "{name}");
        }
    }

    #[test]
    fn every_workload_runs_untraced_at_smoke_size() {
        for workload in Workload::ALL {
            let report = smoke(workload, false);
            check(&report, END_TO_END.len());
            for &(name, value) in &report.metrics {
                assert!(value > 0.0, "{}: {name} = {value}", workload.name());
            }
        }
    }

    #[test]
    fn every_workload_runs_traced_at_smoke_size() {
        for workload in Workload::ALL {
            let report = smoke(workload, true);
            check(&report, PER_LAYER.len());
            let value = |name: &str| {
                report
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("{name} missing"))
                    .1
            };
            assert!(value("trace.round_ms") > 0.0);
            assert!(value("trace.coverage") > 0.0);
            assert!(value("darts.supernet_bytes") > 0.0);
            assert_eq!(value("update_fail_ratio"), 0.0);
            // layers report a value exactly where the workload uses them
            let rpc = workload.rpc_config().is_some();
            assert_eq!(value("rpc.engine.run_round_ms") > 0.0, rpc);
            assert_eq!(value("rpc.transport.roundtrip_us") > 0.0, rpc);
            assert_eq!(value("codec.ratio") > 0.0, workload == Workload::LossyTcp);
            assert_eq!(
                value("sync.pool_save_us") > 0.0,
                workload == Workload::LossyTcp
            );
            assert_eq!(value("service.tick_ms") > 0.0, workload.is_service());
            let trace = crate::out_dir().join(format!("trace-{}.jsonl", workload.name()));
            let text = std::fs::read_to_string(trace).unwrap();
            assert!(text.lines().all(|l| json::parse(l).is_ok()));
        }
    }

    #[test]
    fn episode_seeds_differ_and_start_at_the_run_seed() {
        assert_eq!(episode_seed(42, 0), 42);
        assert_ne!(episode_seed(42, 1), episode_seed(43, 0));
        assert_eq!(episode_seed(u64::MAX, 1), 1_000_002);
    }
}
