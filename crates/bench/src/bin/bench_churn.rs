//! Population-churn benchmark emitting `BENCH_churn.json`.
//!
//! Measures the cost of running a search against an enrolled population
//! instead of a fixed fleet:
//!
//! * `availability_model`: raw `is_available` evaluations per second —
//!   the pure hash the whole schedule is derived from;
//! * `sampler`: cohort draws per second at federation population sizes
//!   (each draw is one reservoir scan over the whole population, so the
//!   scan rate in clients/s is the number that matters at 10^5–10^6);
//! * `rounds_per_sec`: end-to-end warm-up rounds over the in-memory RPC
//!   runtime at a 64-client cohort drawn from a 100k population under a
//!   stormy availability model, against the fixed-fleet baseline at the
//!   same width. The ratio is the *net* effect: sampling and schedule
//!   evaluation cost time, but unavailable slots skip training entirely,
//!   so a churned round is typically faster than a full-strength one.
//!   The churned run is executed twice and asserted bit-identical, so
//!   the measured number is a deterministic schedule, not luck.
//!
//! Usage: `cargo run --release -p fedrlnas-bench --bin bench_churn`
//! (writes `BENCH_churn.json` in the current directory; pass `--out
//! <path>` to override). `--quick` runs fewer reps and skips the
//! `rounds_per_sec` group (the CI configuration); `--check <floor.json>`
//! exits non-zero if a measured throughput falls below the committed
//! floor.

use fedrlnas_bench::{json_number, median_ns};
use fedrlnas_core::{FederatedModelSearch, PopulationConfig, SearchConfig};
use fedrlnas_netsim::{AvailabilitySpec, CohortSampler, Population};
use fedrlnas_rpc::{install, RpcConfig, TransportKind};
use rand::{rngs::StdRng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

/// The availability model exercised everywhere below: diurnal swing,
/// correlated dropouts, device churn and mid-round flaps all armed.
fn stormy() -> AvailabilitySpec {
    AvailabilitySpec {
        seed: 7,
        base: 0.7,
        amplitude: 0.2,
        period: 24,
        dropout_every: 96,
        dropout_len: 4,
        churn: 0.05,
        flap: 0.1,
    }
}

/// End-to-end warm-up rounds/s: churned 64-of-100k cohort vs the
/// fixed 64-worker fleet, both over the in-memory RPC runtime.
fn rounds_per_sec_group(json: &mut String) {
    const N: usize = 64;
    const POPULATION: u64 = 100_000;
    const ROUNDS: usize = 3;
    let run = |population: Option<PopulationConfig>| {
        let mut config = SearchConfig::tiny().with_participants(N);
        if let Some(p) = population {
            config = config.with_population(p);
        }
        let mut rng = StdRng::seed_from_u64(42);
        let mut search = FederatedModelSearch::new(config, &mut rng);
        let dataset = search.dataset().clone();
        install(
            search.server_mut(),
            &dataset,
            RpcConfig {
                transport: TransportKind::InMemory,
                ..RpcConfig::default()
            },
        );
        let start = Instant::now();
        search.server_mut().run_warmup(&dataset, ROUNDS, &mut rng);
        let secs = start.elapsed().as_secs_f64();
        let curve = search.server_mut().warmup_curve().clone();
        let churn = search.server_mut().comm().churn;
        (secs, curve, churn)
    };
    let population = || PopulationConfig {
        size: POPULATION,
        cohort: N,
        availability: stormy(),
    };
    eprintln!("benchmarking rounds_per_sec fleet=fixed n={N}...");
    let (fixed_secs, _, _) = run(None);
    eprintln!("benchmarking rounds_per_sec fleet=churned n={N} population={POPULATION}...");
    let (churned_secs, curve_a, churn_a) = run(Some(population()));
    let (_, curve_b, churn_b) = run(Some(population()));
    assert_eq!(curve_a, curve_b, "churned warm-up must be bit-identical");
    assert_eq!(churn_a, churn_b, "churn tallies must be bit-identical");
    let fixed_rps = ROUNDS as f64 / fixed_secs;
    let churned_rps = ROUNDS as f64 / churned_secs;
    writeln!(json, "  \"rounds_per_sec\": {{").unwrap();
    writeln!(
        json,
        "    \"cohort\": {N}, \"population\": {POPULATION}, \"rounds\": {ROUNDS},"
    )
    .unwrap();
    writeln!(
        json,
        "    \"fixed_fleet\": {fixed_rps:.3}, \"churned\": {churned_rps:.3}, \"speed_ratio_vs_fixed\": {:.3},",
        fixed_secs / churned_secs.max(f64::MIN_POSITIVE)
    )
    .unwrap();
    writeln!(
        json,
        "    \"sampled\": {}, \"unavailable\": {}, \"flaps\": {}, \"evicted\": {}, \"readmitted\": {},",
        churn_a.sampled, churn_a.unavailable, churn_a.flaps, churn_a.evicted, churn_a.readmitted
    )
    .unwrap();
    writeln!(json, "    \"identical_trajectory\": true").unwrap();
    writeln!(json, "  }}").unwrap();
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let out_path = argv
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| argv.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_churn.json".to_string());
    let quick = argv.iter().any(|a| a == "--quick");
    let check_path = argv
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| argv.get(i + 1).cloned());
    let reps = if quick { 9 } else { 25 };

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(
        json,
        "  \"description\": \"deterministic availability model and cohort sampler throughput, plus end-to-end churned rounds/s; median of {reps} reps\","
    )
    .unwrap();

    // --- raw availability evaluations ---
    let population = Population::new(1_000_000, stormy());
    const EVALS: u64 = 1_000_000;
    eprintln!("benchmarking availability model ({EVALS} evals)...");
    let eval_ns = median_ns(reps, || {
        let mut alive = 0u64;
        for client in 0..EVALS {
            alive += u64::from(population.is_available(client, client % 97));
        }
        std::hint::black_box(alive);
    });
    let eval_m_per_s = EVALS as f64 / (eval_ns as f64 / 1e9) / 1e6;
    writeln!(
        json,
        "  \"availability_model\": {{\"evals\": {EVALS}, \"evals_m_per_s\": {eval_m_per_s:.1}}},"
    )
    .unwrap();

    // --- cohort draws across population sizes ---
    const COHORT: usize = 128;
    let sizes: &[u64] = if quick {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let mut scan_m_per_s_at_100k = 0.0;
    writeln!(json, "  \"sampler\": [").unwrap();
    for (i, &size) in sizes.iter().enumerate() {
        eprintln!("benchmarking cohort draws at population {size}...");
        let population = Population::new(size, stormy());
        let mut sampler = CohortSampler::new(1);
        let mut round = 0u64;
        let draw_ns = median_ns(reps, || {
            let draw = sampler.sample(&population, round, COHORT);
            round += 1;
            std::hint::black_box(draw.available);
        });
        let draws_per_s = 1e9 / draw_ns as f64;
        let scan_m_per_s = size as f64 * draws_per_s / 1e6;
        if size == 100_000 {
            scan_m_per_s_at_100k = scan_m_per_s;
        }
        let comma = if i + 1 == sizes.len() { "" } else { "," };
        writeln!(
            json,
            "    {{\"population\": {size}, \"cohort\": {COHORT}, \"draws_per_s\": {draws_per_s:.1}, \"scan_m_clients_per_s\": {scan_m_per_s:.1}}}{comma}"
        )
        .unwrap();
    }
    writeln!(json, "  ]{}", if quick { "" } else { "," }).unwrap();

    if !quick {
        rounds_per_sec_group(&mut json);
    }
    writeln!(json, "}}").unwrap();

    std::fs::write(&out_path, &json).expect("write BENCH_churn.json");
    print!("{json}");
    eprintln!("wrote {out_path}");

    // --- committed-floor regression gate (CI) ---
    if let Some(path) = check_path {
        let floors = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read floor file {path}: {e}"));
        let mut failed = false;
        for (key, label, got) in [
            (
                "availability_evals_m_per_s_floor",
                "availability",
                eval_m_per_s,
            ),
            (
                "sampler_scan_m_clients_per_s_floor",
                "sampler@100k",
                scan_m_per_s_at_100k,
            ),
        ] {
            let Some(floor) = json_number(&floors, key) else {
                continue;
            };
            if got < floor {
                eprintln!("FAIL: {label} {got:.1} M/s below committed floor {floor:.1}");
                failed = true;
            } else {
                eprintln!("ok: {label} {got:.1} M/s >= floor {floor:.1}");
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
