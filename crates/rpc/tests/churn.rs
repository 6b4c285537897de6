//! Churn chaos suite: searches over an enrolled population with per-round
//! cohort sampling under the deterministic availability model.
//!
//! The central claims: (1) the full participation schedule — diurnal
//! cycles, correlated dropout windows, device churn, mid-round flaps,
//! server-side eviction and re-admission — is a pure function of the
//! availability seed, so same-seed runs are bit-identical; (2) the
//! schedule is server-authoritative, so in-process, RPC-over-memory,
//! RPC-over-TCP, the serial oracle and the engine all walk the identical
//! trajectory; (3) a search killed mid-run resumes from checkpoint v5
//! (sampler cursor + per-slot streaks) with an identical trajectory; and
//! (4) a flapping fleet still completes every round.

use std::time::Duration;

use fedrlnas_core::{
    Checkpoint, FederatedModelSearch, PopulationConfig, SearchConfig, SearchOutcome,
};
use fedrlnas_netsim::AvailabilitySpec;
use fedrlnas_rpc::{
    install, install_with_faults, EngineMode, RpcConfig, ScriptedFault, TransportKind,
};
use rand::{rngs::StdRng, SeedableRng};

const SEED: u64 = 42;

/// A lively fleet: diurnal swing, a correlated dropout window, device
/// churn and mid-round flaps all armed.
fn stormy() -> AvailabilitySpec {
    AvailabilitySpec {
        seed: 7,
        base: 0.7,
        amplitude: 0.2,
        period: 6,
        dropout_every: 8,
        dropout_len: 2,
        churn: 0.05,
        flap: 0.1,
    }
}

fn churned(size: u64, cohort: usize, availability: AvailabilitySpec) -> SearchConfig {
    SearchConfig::tiny().with_population(PopulationConfig {
        size,
        cohort,
        availability,
    })
}

fn run_search(config: SearchConfig, rpc: Option<RpcConfig>) -> SearchOutcome {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut search = FederatedModelSearch::new(config, &mut rng);
    if let Some(cfg) = rpc {
        let dataset = search.dataset().clone();
        install(search.server_mut(), &dataset, cfg);
    }
    search.run(&mut rng)
}

fn assert_same_trajectory(a: &SearchOutcome, b: &SearchOutcome) {
    assert_eq!(a.genotype, b.genotype, "derived genotypes diverged");
    assert_eq!(a.warmup_curve, b.warmup_curve, "warm-up curves diverged");
    assert_eq!(a.search_curve, b.search_curve, "search curves diverged");
    assert_eq!(a.comm.churn, b.comm.churn, "churn tallies diverged");
}

#[test]
fn same_seed_reruns_are_bit_identical_at_population_scale() {
    let config = churned(100_000, 64, stormy());
    let rounds = config.warmup_steps + config.search_steps;
    let a = run_search(config.clone(), None);
    let b = run_search(config, None);
    assert_same_trajectory(&a, &b);
    assert_eq!(
        a.warmup_curve.len() + a.search_curve.len(),
        rounds,
        "every round must commit despite churn"
    );
    assert!(
        a.comm.churn.any(),
        "the stormy fleet must churn: {:?}",
        a.comm.churn
    );
    assert_eq!(
        a.comm.churn.sampled,
        (rounds * 64) as u64,
        "every round draws a full 64-client cohort from the 100k pool"
    );
    assert!(
        a.comm.churn.unavailable > 0,
        "someone must be offline sometime"
    );
    assert!(
        a.comm.churn.flaps > 0,
        "flap=0.1 must fire over {rounds} rounds"
    );
    // a different availability seed schedules a different fleet
    let mut other = stormy();
    other.seed = 8;
    let c = run_search(churned(100_000, 64, other), None);
    assert_ne!(
        a.comm.churn, c.comm.churn,
        "different availability seeds should churn differently"
    );
}

#[test]
fn cohort_256_draws_stay_deterministic() {
    // the wide-cohort end of the acceptance range, kept to a short warm-up
    let config = churned(100_000, 256, stormy());
    let run = |config: SearchConfig| {
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut search = FederatedModelSearch::new(config, &mut rng);
        let dataset = search.dataset().clone();
        search.server_mut().run_warmup(&dataset, 4, &mut rng);
        (
            search.server_mut().warmup_curve().clone(),
            search.server_mut().comm().churn,
        )
    };
    let (curve_a, churn_a) = run(config.clone());
    let (curve_b, churn_b) = run(config);
    assert_eq!(curve_a, curve_b, "warm-up curves diverged at cohort 256");
    assert_eq!(churn_a, churn_b, "churn tallies diverged at cohort 256");
    assert_eq!(churn_a.sampled, 4 * 256);
}

#[test]
fn churned_search_is_identical_in_process_and_over_both_transports() {
    let config = churned(10_000, 8, stormy());
    let baseline = run_search(config.clone(), None);
    assert!(baseline.comm.churn.any());
    let mem = run_search(
        config.clone(),
        Some(RpcConfig {
            transport: TransportKind::InMemory,
            ..RpcConfig::default()
        }),
    );
    assert_same_trajectory(&baseline, &mem);
    let tcp = run_search(
        config,
        Some(RpcConfig {
            transport: TransportKind::Tcp,
            ..RpcConfig::default()
        }),
    );
    assert_same_trajectory(&baseline, &tcp);
}

#[test]
fn serial_and_default_engines_agree_under_churn() {
    let config = churned(10_000, 8, stormy());
    let serial = run_search(
        config.clone(),
        Some(RpcConfig {
            engine: EngineMode::Serial,
            ..RpcConfig::default()
        }),
    );
    let engine = run_search(config, Some(RpcConfig::default()));
    assert_same_trajectory(&serial, &engine);
    assert!(serial.comm.churn.any());
}

#[test]
fn flapping_fleet_survives_and_recovers() {
    // crank flap and churn high enough that slots are repeatedly lost
    // mid-round, evicted after consecutive misses, and re-admitted once
    // the model schedules them available again
    let spec = AvailabilitySpec {
        seed: 3,
        base: 0.8,
        amplitude: 0.1,
        period: 4,
        dropout_every: 0,
        dropout_len: 0,
        churn: 0.1,
        flap: 0.3,
    };
    let config = churned(1_000, 8, spec);
    let rounds = config.warmup_steps + config.search_steps;
    let outcome = run_search(config, None);
    assert_eq!(
        outcome.warmup_curve.len() + outcome.search_curve.len(),
        rounds,
        "a flapping fleet must not stall the search"
    );
    let churn = outcome.comm.churn;
    assert!(churn.flaps > 0, "flap=0.3 must fire: {churn:?}");
    assert!(
        churn.evicted > 0,
        "repeat flappers must be evicted: {churn:?}"
    );
    assert!(
        churn.readmitted > 0,
        "evicted slots must re-admit when scheduled back: {churn:?}"
    );
}

#[test]
fn killed_and_resumed_churned_search_matches_uninterrupted() {
    let config = churned(10_000, 8, stormy());
    let reference = run_search(
        config.clone(),
        Some(RpcConfig {
            transport: TransportKind::InMemory,
            ..RpcConfig::default()
        }),
    );
    let path =
        std::env::temp_dir().join(format!("fedrlnas-churn-resume-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // interrupted run: killed after warm-up plus one search round; only
    // the checkpoint (with sampler cursor and per-slot streaks) survives
    {
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut search = FederatedModelSearch::new(config.clone(), &mut rng);
        let dataset = search.dataset().clone();
        install(
            search.server_mut(),
            &dataset,
            RpcConfig {
                transport: TransportKind::InMemory,
                ..RpcConfig::default()
            },
        );
        search
            .server_mut()
            .run_warmup(&dataset, config.warmup_steps, &mut rng);
        search.server_mut().run_search(&dataset, 1, &mut rng);
        Checkpoint::capture(search.server_mut(), &rng)
            .save_path(&path)
            .expect("snapshot");
    }
    // resume into a fresh process image and a fresh worker fleet (resume
    // strictly before install, so workers clone restored state)
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut search = FederatedModelSearch::new(config, &mut rng);
    assert!(search.try_resume(&path, &mut rng).expect("resume"));
    let dataset = search.dataset().clone();
    install(
        search.server_mut(),
        &dataset,
        RpcConfig {
            transport: TransportKind::InMemory,
            ..RpcConfig::default()
        },
    );
    let outcome = search.run_checkpointed(&mut rng, None).expect("finish");
    assert_same_trajectory(&reference, &outcome);
    assert_eq!(outcome.comm.resumes, 1);
    assert!(outcome.comm.churn.any());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn scripted_crashes_compose_with_cohort_sampling() {
    // a fully-available population isolates the engine's crash path from
    // the availability schedule: the crashed worker must still be evicted
    // by its missed rounds and re-admitted by heartbeat, exactly as in a
    // fixed fleet
    let spec = AvailabilitySpec {
        seed: 1,
        base: 1.0,
        amplitude: 0.0,
        period: 24,
        dropout_every: 0,
        dropout_len: 0,
        churn: 0.0,
        flap: 0.0,
    };
    let config = churned(8, 8, spec);
    let k = config.num_participants;
    let rounds = config.warmup_steps + config.search_steps;
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut search = FederatedModelSearch::new(config, &mut rng);
    let dataset = search.dataset().clone();
    let mut faults = vec![ScriptedFault::default(); k - 1];
    faults.push(ScriptedFault {
        crash_restart: Some((2, 3)),
        ..ScriptedFault::default()
    });
    install_with_faults(
        search.server_mut(),
        &dataset,
        RpcConfig {
            transport: TransportKind::InMemory,
            deadline: Duration::from_millis(300),
            max_retries: 0,
            evict_after: 2,
            ..RpcConfig::default()
        },
        &faults,
    );
    let outcome = search.run(&mut rng);
    assert_eq!(
        outcome.warmup_curve.len() + outcome.search_curve.len(),
        rounds,
        "the search must complete despite the crash"
    );
    assert!(
        outcome.comm.faults.evictions >= 1,
        "the silent worker must be evicted: {:?}",
        outcome.comm.faults
    );
    let last = outcome
        .search_curve
        .steps()
        .last()
        .expect("search ran")
        .contributors;
    assert_eq!(last, k, "the re-admitted worker must contribute again");
}
