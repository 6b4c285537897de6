//! End-to-end Byzantine robustness: searches with a minority of scripted
//! malicious workers across the RPC runtime.
//!
//! The claims under test: (1) with f = 2 of n = 8 workers attacking,
//! coordinate-wise median and Multi-Krum keep the final search accuracy,
//! averaged over five seeds, within a couple of points of the attack-free
//! run while the plain mean measurably degrades under an amplified attack; (2) the validation gate
//! rejects non-finite and over-norm uploads, tallies them by cause, and
//! the repeat offenders are evicted as suspected Byzantine; (3) an
//! adversarial run is exactly reproducible — same seed, same rejection
//! tally, same genotype.

use std::time::Duration;

use fedrlnas_core::{FederatedModelSearch, SearchConfig, SearchOutcome};
use fedrlnas_fed::AggregatorConfig;
use fedrlnas_rpc::{install_with_faults, Attack, RpcConfig, ScriptedFault, TransportKind};

use rand::{rngs::StdRng, SeedableRng};

const SEED: u64 = 42;
/// Seeds the accuracy comparisons average over. At tiny proxy scale the
/// training accuracy sits near chance (≈ 0.10 over 640 samples a run), so
/// one run's accuracy moves by ±0.017 with its trajectory alone, and a
/// 2-point band around a single clean run fails about one seed in four,
/// with or without an attack; the mean of five is steady to ±0.008.
const SEEDS: std::ops::RangeInclusive<u64> = 42..=46;
const N: usize = 8;
const F: usize = 2;

fn rpc() -> RpcConfig {
    RpcConfig {
        transport: TransportKind::InMemory,
        deadline: Duration::from_secs(5),
        ..RpcConfig::default()
    }
}

/// The last `f` of `n` workers run `attack`; the rest are honest.
fn fleet(attack: Option<Attack>, f: usize) -> Vec<ScriptedFault> {
    let mut faults = vec![ScriptedFault::default(); N - f];
    faults.extend(vec![
        ScriptedFault {
            attack,
            ..ScriptedFault::default()
        };
        f
    ]);
    faults
}

fn search_config(aggregator: &str) -> SearchConfig {
    SearchConfig::tiny()
        .with_participants(N)
        .with_aggregator(AggregatorConfig::parse(aggregator).expect("valid spec"))
}

fn run(aggregator: &str, faults: &[ScriptedFault], rpc_config: RpcConfig) -> SearchOutcome {
    run_search(search_config(aggregator), faults, rpc_config)
}

fn run_search(
    config: SearchConfig,
    faults: &[ScriptedFault],
    rpc_config: RpcConfig,
) -> SearchOutcome {
    run_seeded(config, faults, rpc_config, SEED)
}

fn run_seeded(
    config: SearchConfig,
    faults: &[ScriptedFault],
    rpc_config: RpcConfig,
    seed: u64,
) -> SearchOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut search = FederatedModelSearch::new(config, &mut rng);
    let dataset = search.dataset().clone();
    install_with_faults(search.server_mut(), &dataset, rpc_config, faults);
    search.run(&mut rng)
}

/// [`run`] once per seed in [`SEEDS`].
fn runs(aggregator: &str, faults: &[ScriptedFault]) -> Vec<SearchOutcome> {
    SEEDS
        .map(|seed| run_seeded(search_config(aggregator), faults, rpc(), seed))
        .collect()
}

/// The mean of `metric` over `outcomes`.
fn mean(outcomes: &[SearchOutcome], metric: fn(&SearchOutcome) -> f32) -> f32 {
    outcomes.iter().map(metric).sum::<f32>() / outcomes.len() as f32
}

fn final_accuracy(outcome: &SearchOutcome) -> f32 {
    outcome.search_curve.final_accuracy(50).expect("curve")
}

/// Mean training loss over the last five search rounds. At tiny proxy
/// scale the accuracy sits near chance for every run, so a poisoned θ
/// shows up in the loss long before it moves the accuracy.
fn tail_loss(outcome: &SearchOutcome) -> f32 {
    let steps = outcome.search_curve.steps();
    let take = 5.min(steps.len());
    steps[steps.len() - take..]
        .iter()
        .map(|m| m.mean_loss)
        .sum::<f32>()
        / take as f32
}

#[test]
fn robust_aggregators_survive_a_sign_flip_minority() {
    let clean = runs("mean", &fleet(None, 0));
    let baseline = mean(&clean, final_accuracy);
    for spec in ["median", "krum:4"] {
        let attacked = runs(spec, &fleet(Some(Attack::SignFlip), F));
        let acc = mean(&attacked, final_accuracy);
        println!("sign-flip {spec}: {acc:.4} vs clean {baseline:.4}");
        assert!(
            (acc - baseline).abs() <= 0.02,
            "{spec} under sign-flip drifted beyond 2 points: {acc:.4} vs {baseline:.4}"
        );
        // a sane search result: full-length curves and a well-formed genotype
        for (attacked, clean) in attacked.iter().zip(&clean) {
            assert_eq!(
                attacked.search_curve.len(),
                clean.search_curve.len(),
                "{spec} run must complete every round"
            );
            let compact = attacked.genotype.to_compact_string();
            assert_eq!(
                fedrlnas_darts::Genotype::parse_compact(&compact)
                    .expect("genotype must round-trip"),
                attacked.genotype
            );
        }
    }
}

#[test]
fn robust_aggregators_survive_a_scaling_minority_where_mean_degrades() {
    let clean = runs("mean", &fleet(None, 0));
    let (baseline, clean_loss) = (mean(&clean, final_accuracy), mean(&clean, tail_loss));
    // λ = -50 amplifies the poison enough that the unprotected mean's
    // training loss visibly climbs, while median and Multi-Krum discard it
    let attack = Some(Attack::Scale(-50.0));
    let poisoned_mean = runs("mean", &fleet(attack, F));
    let mean_loss = mean(&poisoned_mean, tail_loss);
    println!("scale mean: loss {mean_loss:.3} vs clean {clean_loss:.3}");
    assert!(
        mean_loss > clean_loss + 0.5,
        "plain mean should measurably degrade under scaling: loss {mean_loss:.3} vs {clean_loss:.3}"
    );
    for spec in ["median", "krum:4"] {
        let attacked = runs(spec, &fleet(attack, F));
        let (acc, loss) = (mean(&attacked, final_accuracy), mean(&attacked, tail_loss));
        println!("scale {spec}: acc {acc:.4}/{baseline:.4}, loss {loss:.3}/{clean_loss:.3}");
        assert!(
            (acc - baseline).abs() <= 0.02,
            "{spec} under scaling drifted beyond 2 points: {acc:.4} vs {baseline:.4}"
        );
        assert!(
            loss < clean_loss + 0.4,
            "{spec} must hold the training loss near clean: {loss:.3} vs {clean_loss:.3}"
        );
        assert!(
            loss < mean_loss,
            "{spec} ({loss:.3}) must beat the poisoned mean ({mean_loss:.3})"
        );
    }
}

#[test]
fn nan_flooders_are_rejected_and_evicted_as_suspected_byzantine() {
    let outcome = run(
        "mean",
        &fleet(Some(Attack::NaNs), F),
        RpcConfig {
            evict_after: 2,
            ..rpc()
        },
    );
    let rejects = outcome.comm.rejects;
    println!("nan flood tally: {rejects:?}");
    assert!(
        rejects.rejected_nonfinite >= 2,
        "every NaN upload must be refused: {rejects:?}"
    );
    assert_eq!(rejects.rejected_shape, 0);
    assert_eq!(rejects.rejected_norm, 0);
    assert!(
        outcome.comm.faults.evictions >= 1,
        "repeat offenders must be evicted: {:?}",
        outcome.comm.faults
    );
    assert!(
        rejects.suspected_byzantine >= 1,
        "an eviction during a reject streak must be flagged: {rejects:?}"
    );
    // the poison never reached aggregation: the search finished with a
    // finite curve despite an unprotected mean
    assert!(final_accuracy(&outcome).is_finite());
    assert_eq!(
        outcome.search_curve.len(),
        SearchConfig::tiny().search_steps,
        "the search must run to completion"
    );
}

#[test]
fn norm_bound_rejects_amplified_updates() {
    // honest tiny-scale updates have single-digit L2 norms; colluders
    // uploading a constant vector of 50s are far outside any such bound
    let outcome = run_search(
        search_config("mean").with_update_norm_bound(100.0),
        &fleet(Some(Attack::Collude(50.0)), F),
        rpc(),
    );
    let rejects = outcome.comm.rejects;
    println!("norm bound tally: {rejects:?}");
    assert!(
        rejects.rejected_norm >= 2,
        "over-norm uploads must be refused: {rejects:?}"
    );
    assert_eq!(rejects.rejected_nonfinite, 0);
    assert_eq!(rejects.rejected_shape, 0);
    // with both attackers gated out every round, the remaining honest
    // majority keeps the search close to clean
    let clean = run("mean", &fleet(None, 0), rpc());
    let acc = final_accuracy(&outcome);
    let baseline = final_accuracy(&clean);
    println!("gated collusion: {acc:.4} vs clean {baseline:.4}");
    assert!(
        (acc - baseline).abs() <= 0.05,
        "gated attackers must not drag the search down: {acc:.4} vs {baseline:.4}"
    );
}

#[test]
fn the_search_norm_bound_gates_and_evicts_in_the_engine() {
    // the bound is set on the search alone: the engine reads it from each
    // round's request, so a worker whose every upload is over it is
    // rejected there, counted as a miss, and evicted as suspected
    // Byzantine
    let outcome = run_search(
        search_config("mean").with_update_norm_bound(100.0),
        &fleet(Some(Attack::Scale(1e4)), 1),
        rpc(),
    );
    let rejects = outcome.comm.rejects;
    println!("search-only norm bound tally: {rejects:?}");
    assert!(
        rejects.rejected_norm >= 1,
        "over-norm uploads must be refused: {rejects:?}"
    );
    assert!(
        outcome.comm.faults.evictions >= 1,
        "the engine must evict the repeat offender: {:?}",
        outcome.comm.faults
    );
    assert!(
        rejects.suspected_byzantine >= 1,
        "an eviction during a reject streak must be flagged: {rejects:?}"
    );
}

#[test]
fn stale_replay_and_noise_stay_contained_under_clipped_median() {
    for attack in [Attack::StaleReplay, Attack::GaussianNoise(5.0)] {
        let outcome = run("clip:25+median", &fleet(Some(attack), F), rpc());
        assert!(
            final_accuracy(&outcome).is_finite(),
            "{} run must stay finite",
            attack.name()
        );
        assert_eq!(
            outcome.search_curve.len(),
            SearchConfig::tiny().search_steps,
            "{} run must complete",
            attack.name()
        );
    }
}

#[test]
fn adversarial_runs_are_deterministic() {
    let faults = fleet(Some(Attack::Scale(-12.0)), F);
    let gated = || search_config("krum:4").with_update_norm_bound(100.0);
    let a = run_search(
        gated(),
        &faults,
        RpcConfig {
            evict_after: 2,
            ..rpc()
        },
    );
    let b = run_search(
        gated(),
        &faults,
        RpcConfig {
            evict_after: 2,
            ..rpc()
        },
    );
    assert_eq!(a.genotype, b.genotype, "genotypes diverged");
    assert_eq!(a.search_curve, b.search_curve, "curves diverged");
    assert_eq!(a.comm.rejects, b.comm.rejects, "rejection tallies diverged");
    assert_eq!(a.comm.faults, b.comm.faults, "fault tallies diverged");
}
