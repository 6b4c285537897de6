//! Participant-scale benchmark emitting `BENCH_scale.json`.
//!
//! Measures how the event-driven round engine holds up as the cohort
//! grows: end-to-end rounds per second and process resident memory at
//! n ∈ {64, 1 000, 10 000} simulated participants over the in-memory
//! transport, all driven by the engine's bounded thread pools. Every
//! scale runs against a standalone [`RpcBackend`] with a
//! fixed mask set, the same harness as the engine's buffer-reuse test,
//! so the numbers isolate the round path itself.
//!
//! Two determinism gates run alongside the measurements:
//!
//! * serial@64 and reactor@64 must produce bit-identical round outcomes
//!   for the same seed (the reactor is an execution strategy, not a
//!   semantic change);
//! * two reactor@10k runs must be bit-identical (sweep interleaving at
//!   scale must not leak into results).
//!
//! Usage: `cargo run --release -p fedrlnas-bench --bin bench_scale`
//! (writes `BENCH_scale.json` in the current directory; `--out <path>`
//! overrides). `--quick` runs only n ∈ {64, 1000} with fewer rounds —
//! the CI configuration. `--check <floor.json>` exits non-zero when a
//! measured rounds/s falls below its committed floor or a measured
//! resident set exceeds its committed ceiling (`rss_mib_ceiling_{n}`).

use fedrlnas_bench::json_number;
use fedrlnas_controller::Alpha;
use fedrlnas_core::{FederatedModelSearch, RoundBackend, RoundOutcome, RoundRequest, SearchConfig};
use fedrlnas_darts::{ArchMask, Supernet};
use fedrlnas_data::{DatasetSpec, SyntheticDataset};
use fedrlnas_rpc::{EngineMode, RpcBackend, RpcConfig, TransportKind};
use rand::{rngs::StdRng, SeedableRng};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const SEED: u64 = 42;

/// Process resident set in MiB from `/proc/self/status`, or 0 when the
/// platform does not expose it (the ceiling check is skipped then).
fn rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// Order-sensitive digest of everything determinism-relevant in a round:
/// report order, masks' training results, gradient and alpha-gradient
/// bits, late-reply attribution and measured byte counts.
fn fold_outcome(mut h: u64, out: &RoundOutcome) -> u64 {
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100_0000_01b3); // FNV-1a step
    };
    for report in out.reports.iter().chain(out.late.iter()) {
        mix(report.participant as u64);
        mix(report.computed_at as u64);
        mix(u64::from(report.accuracy.to_bits()));
        mix(u64::from(report.loss.to_bits()));
        for g in &report.grads {
            mix(u64::from(g.to_bits()));
        }
        for a in &report.delta_alpha {
            mix(u64::from(a.to_bits()));
        }
    }
    mix(out.bytes_down);
    mix(out.bytes_up);
    h
}

struct ScaleRun {
    rounds_per_sec: f64,
    digest: u64,
    rss_mib: f64,
}

/// Drives `rounds` fixed-mask rounds at cohort size `n` under `engine`
/// and reports throughput plus the determinism digest. The dataset is
/// sized so every participant holds at least one sample.
fn run_scale(n: usize, rounds: usize, engine: EngineMode) -> ScaleRun {
    let config = SearchConfig::tiny().with_participants(n);
    let mut rng = StdRng::seed_from_u64(SEED);
    let spec = DatasetSpec::cifar10_like().with_sizes(n.div_ceil(10).max(100), 5);
    let dataset = {
        let mut drng = StdRng::seed_from_u64(SEED ^ 0xDA7A);
        SyntheticDataset::generate(&spec, &mut drng)
    };
    // only built to borrow seeded participants for the standalone backend
    let mut search = FederatedModelSearch::with_dataset(config.clone(), dataset, &mut rng);
    let dataset = search.dataset().clone();
    let mut backend = RpcBackend::with_faults(
        search.server_mut().participants(),
        &config.net,
        &dataset,
        RpcConfig {
            transport: TransportKind::InMemory,
            engine,
            // generous per-attempt window: a 10k sweep must never trip the
            // retry path, which would make throughput measure retransmits
            deadline: Duration::from_secs(120),
            ..RpcConfig::default()
        },
        &[],
    );
    let mut supernet = Supernet::new(config.net.clone(), &mut rng);
    let (theta, buffers) = (supernet.flat_params(), supernet.flat_buffers());
    let alpha = Alpha::new(&config.net);
    let alpha_logits = alpha.logits().as_slice().to_vec();
    let masks: Vec<ArchMask> = (0..n)
        .map(|_| ArchMask::uniform_random(&config.net, &mut rng))
        .collect();
    let bandwidths = vec![50.0f64; n];
    let mut digest = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
    let start = Instant::now();
    for t in 0..rounds {
        let out = backend.run_round(RoundRequest {
            round: t,
            masks: &masks,
            layout: supernet.layout(),
            theta: &theta,
            buffers: &buffers,
            alpha_logits: &alpha_logits,
            bandwidths_mbps: &bandwidths,
            seed_base: SEED ^ t as u64,
            codec: config.codec,
            update_norm_bound: config.update_norm_bound,
            active: None,
        });
        assert_eq!(
            out.reports.len(),
            n,
            "round {t} at n={n} must be full strength"
        );
        digest = fold_outcome(digest, &out);
    }
    let secs = start.elapsed().as_secs_f64();
    ScaleRun {
        rounds_per_sec: rounds as f64 / secs,
        digest,
        rss_mib: rss_mib(),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let out_path = argv
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| argv.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_scale.json".to_string());
    let quick = argv.iter().any(|a| a == "--quick");
    let check_path = argv
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| argv.get(i + 1).cloned());

    // --- serial vs reactor equivalence at the base width ---
    eprintln!("equivalence gate: serial@64 vs reactor@64...");
    let serial64 = run_scale(64, 3, EngineMode::Serial);
    let reactor64 = run_scale(64, 3, EngineMode::Reactor);
    assert_eq!(
        serial64.digest, reactor64.digest,
        "serial and reactor outcomes diverged at n=64"
    );

    let scales: &[(usize, usize)] = if quick {
        &[(1_000, 2)]
    } else {
        &[(1_000, 3), (10_000, 3)]
    };
    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(
        json,
        "  \"description\": \"reactor-engine rounds/s and resident memory vs participant count over the in-memory transport; fixed-mask rounds on a standalone backend\","
    )
    .unwrap();
    writeln!(
        json,
        "  \"determinism\": {{\"serial_eq_reactor_at_64\": true, \"repeated_reactor_identical\": true}},"
    )
    .unwrap();
    writeln!(json, "  \"scales\": [").unwrap();
    writeln!(
        json,
        "    {{\"participants\": 64, \"rounds_per_sec\": {:.3}, \"rss_mib\": {:.1}}},",
        reactor64.rounds_per_sec, reactor64.rss_mib
    )
    .unwrap();
    let mut measured: Vec<(usize, f64, f64)> =
        vec![(64, reactor64.rounds_per_sec, reactor64.rss_mib)];
    for (i, &(n, rounds)) in scales.iter().enumerate() {
        eprintln!("benchmarking reactor rounds at n={n} ({rounds} rounds)...");
        let run = run_scale(n, rounds, EngineMode::Reactor);
        if n == 10_000 {
            // repeated-run determinism is gated at the largest cohort,
            // where it is hardest
            eprintln!("repeating reactor n={n} for the determinism gate...");
            let again = run_scale(n, rounds, EngineMode::Reactor);
            assert_eq!(
                run.digest, again.digest,
                "repeated reactor runs diverged at n={n}"
            );
        }
        let comma = if i + 1 == scales.len() { "" } else { "," };
        writeln!(
            json,
            "    {{\"participants\": {n}, \"rounds_per_sec\": {:.3}, \"rss_mib\": {:.1}}}{comma}",
            run.rounds_per_sec, run.rss_mib
        )
        .unwrap();
        measured.push((n, run.rounds_per_sec, run.rss_mib));
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();

    std::fs::write(&out_path, &json).expect("write BENCH_scale.json");
    print!("{json}");
    eprintln!("wrote {out_path}");

    // --- committed-floor regression gate (CI) ---
    if let Some(path) = check_path {
        let floors = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read floor file {path}: {e}"));
        let mut failed = false;
        for &(n, rps, rss) in &measured {
            if let Some(floor) = json_number(&floors, &format!("rounds_per_sec_floor_{n}")) {
                if rps < floor {
                    eprintln!("FAIL: n={n} {rps:.3} rounds/s below committed floor {floor:.3}");
                    failed = true;
                } else {
                    eprintln!("ok: n={n} {rps:.3} rounds/s >= floor {floor:.3}");
                }
            }
            if rss > 0.0 {
                if let Some(ceiling) = json_number(&floors, &format!("rss_mib_ceiling_{n}")) {
                    if rss > ceiling {
                        eprintln!("FAIL: n={n} resident {rss:.1} MiB over ceiling {ceiling:.1}");
                        failed = true;
                    } else {
                        eprintln!("ok: n={n} resident {rss:.1} MiB <= ceiling {ceiling:.1}");
                    }
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
