//! Chaos tests: searches under seeded fault injection, quorum-based
//! degradation, eviction/re-admission liveness, and crash-recovery across
//! the RPC runtime.
//!
//! The central claims: (1) the fault schedule is a pure function of the
//! fault seed, (2) any *recoverable* fault plan leaves the search result
//! bit-identical to a fault-free run — over both transports — because
//! retries, reply caching and duplicate suppression mask every injected
//! fault, and (3) a search killed mid-run resumes from its checkpoint onto
//! a fresh worker fleet with an identical trajectory.

use std::time::Duration;

use fedrlnas_core::{Checkpoint, FederatedModelSearch, SearchConfig, SearchOutcome};
use fedrlnas_rpc::{
    install, install_with_faults, FaultInjector, FaultPlan, FrameFault, RpcConfig, ScriptedFault,
    TransportKind,
};
use fedrlnas_sync::{StalenessModel, StalenessStrategy};
use rand::{rngs::StdRng, SeedableRng};

const SEED: u64 = 42;

/// Generous retry budget so every recoverable fault is actually recovered:
/// a lost frame costs one deadline, and the odds of six consecutive losses
/// on one link under the light plan are negligible (and seed-fixed).
fn chaos_rpc(transport: TransportKind, fault_seed: u64) -> RpcConfig {
    RpcConfig {
        transport,
        deadline: Duration::from_millis(500),
        max_retries: 6,
        retry_backoff: Duration::from_millis(2),
        fault: FaultPlan::light(fault_seed),
        ..RpcConfig::default()
    }
}

fn run_search(config: SearchConfig, rpc: Option<RpcConfig>) -> SearchOutcome {
    run_scripted(config, rpc, &[])
}

fn run_scripted(
    config: SearchConfig,
    rpc: Option<RpcConfig>,
    faults: &[ScriptedFault],
) -> SearchOutcome {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut search = FederatedModelSearch::new(config, &mut rng);
    if let Some(cfg) = rpc {
        let dataset = search.dataset().clone();
        install_with_faults(search.server_mut(), &dataset, cfg, faults);
    }
    search.run(&mut rng)
}

fn assert_same_trajectory(a: &SearchOutcome, b: &SearchOutcome) {
    assert_eq!(a.genotype, b.genotype, "derived genotypes diverged");
    assert_eq!(a.warmup_curve, b.warmup_curve, "warm-up curves diverged");
    assert_eq!(a.search_curve, b.search_curve, "search curves diverged");
}

#[test]
fn recoverable_chaos_preserves_the_search_result_in_memory() {
    let baseline = run_search(SearchConfig::tiny(), None);
    let chaotic = run_search(
        SearchConfig::tiny(),
        Some(chaos_rpc(TransportKind::InMemory, 7)),
    );
    assert_same_trajectory(&baseline, &chaotic);
    assert!(
        chaotic.comm.faults.any(),
        "the light plan must actually inject faults: {:?}",
        chaotic.comm.faults
    );
    // recovery costs retransmissions, so chaotic traffic strictly dominates
    let clean = run_search(
        SearchConfig::tiny(),
        Some(RpcConfig {
            transport: TransportKind::InMemory,
            ..RpcConfig::default()
        }),
    );
    assert!(
        chaotic.comm.bytes_down >= clean.comm.bytes_down,
        "dropped downloads must be retransmitted"
    );
}

/// Downloads displaced across a round boundary — the two ways a worker is
/// asked for a round it has already answered once a later round is under
/// way. Both are answered from its two-entry reply cache, neither trains
/// a round twice, and the search comes out exactly as the clean run's.
#[test]
fn displaced_downloads_across_a_round_boundary_preserve_the_search_result() {
    let baseline = run_search(SearchConfig::tiny(), None);
    let rpc = |fault: FaultPlan| RpcConfig {
        transport: TransportKind::InMemory,
        deadline: Duration::from_millis(200),
        max_retries: 3,
        retry_backoff: Duration::from_millis(2),
        fault,
        ..RpcConfig::default()
    };
    let first_seed = |plan: fn(u64) -> FaultPlan, wanted: &dyn Fn(FaultPlan) -> bool| {
        plan((0..).find(|&seed| wanted(plan(seed))).expect("some seed"))
    };
    let quiet = |link: &mut FaultInjector, frames: usize| {
        (0..frames).all(|_| link.next_fault() == FrameFault::None)
    };

    // (a) A retransmit of round 2 reordered behind round 3's download.
    // Worker 0 sits on round 2's download past the first deadline, so the
    // engine retransmits; the link's schedule holds exactly that frame
    // back; the worker's (one) reply then lands inside the retry window
    // and settles the round with the retransmit still held. Round 3's
    // download releases it: the worker trains round 3, then is asked for
    // round 2 again.
    const SLEPT: usize = 2;
    let reorders = |seed| FaultPlan {
        seed,
        reorder: 0.03,
        ..FaultPlan::default()
    };
    let plan = first_seed(reorders, &|plan| {
        let mut down = FaultInjector::new(plan.clone(), 0, 0);
        let mut up = FaultInjector::new(plan, 0, 1);
        quiet(&mut down, SLEPT + 1) // downloads 0..=2 arrive
            && down.next_fault() == FrameFault::Reorder // the retransmit is held
            && quiet(&mut down, 1) // round 3's download releases it
            && quiet(&mut up, SLEPT + 2) // replies 0..=3 arrive as sent
    });
    let sleeper = ScriptedFault {
        delay: Some((SLEPT, Duration::from_millis(320))),
        ..ScriptedFault::default()
    };
    let reordered = run_scripted(SearchConfig::tiny(), Some(rpc(plan)), &[sleeper]);
    assert_same_trajectory(&baseline, &reordered);
    assert!(reordered.comm.faults.frames_reordered >= 1);
    assert!(reordered.comm.faults.retransmits >= 1);

    // (b) A duplicated download: the copy is answered from the cache, and
    // that second reply reaches the engine after the round has settled —
    // it is read, and dropped as a duplicate, in the round after.
    let duplicates = |seed| FaultPlan {
        seed,
        duplicate: 0.05,
        ..FaultPlan::default()
    };
    let plan = first_seed(duplicates, &|plan| {
        let mut down = FaultInjector::new(plan, 1, 0);
        quiet(&mut down, 3) && down.next_fault() == FrameFault::Duplicate
    });
    let duplicated = run_search(SearchConfig::tiny(), Some(rpc(plan)));
    assert_same_trajectory(&baseline, &duplicated);
    assert!(duplicated.comm.faults.frames_duplicated >= 1);
    assert_eq!(
        duplicated.comm.faults.retransmits, 0,
        "a duplicate costs nothing"
    );
}

#[test]
fn recoverable_chaos_preserves_the_search_result_over_tcp() {
    let baseline = run_search(SearchConfig::tiny(), None);
    let chaotic = run_search(
        SearchConfig::tiny(),
        Some(chaos_rpc(TransportKind::Tcp, 13)),
    );
    assert_same_trajectory(&baseline, &chaotic);
    assert!(chaotic.comm.faults.any());
}

#[test]
fn same_fault_seed_reproduces_the_same_faults() {
    let a = run_search(
        SearchConfig::tiny(),
        Some(chaos_rpc(TransportKind::InMemory, 99)),
    );
    let b = run_search(
        SearchConfig::tiny(),
        Some(chaos_rpc(TransportKind::InMemory, 99)),
    );
    assert_same_trajectory(&a, &b);
    assert_eq!(
        a.comm.faults, b.comm.faults,
        "identical fault seeds must reproduce the identical fault schedule"
    );
    assert!(a.comm.faults.any());
    // a different seed schedules differently
    let c = run_search(
        SearchConfig::tiny(),
        Some(chaos_rpc(TransportKind::InMemory, 100)),
    );
    assert_ne!(
        a.comm.faults, c.comm.faults,
        "different fault seeds should differ somewhere in the schedule"
    );
}

#[test]
fn crashed_worker_is_evicted_then_readmitted_on_heartbeat() {
    let config =
        SearchConfig::tiny().with_staleness(StalenessModel::fresh(), StalenessStrategy::Use);
    let k = config.num_participants;
    let rounds = config.warmup_steps + config.search_steps;
    let (crash_round, rounds_down) = (2usize, 3usize);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut search = FederatedModelSearch::new(config, &mut rng);
    let dataset = search.dataset().clone();
    let faults = vec![ScriptedFault {
        crash_restart: Some((crash_round, rounds_down)),
        ..ScriptedFault::default()
    }];
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
    let contributors: Vec<usize> = outcome
        .warmup_curve
        .steps()
        .iter()
        .chain(outcome.search_curve.steps())
        .map(|s| s.contributors)
        .collect();
    // full strength before the crash
    for (t, &c) in contributors.iter().enumerate().take(crash_round) {
        assert_eq!(c, k, "round {t} should be full strength");
    }
    // down while crashed (rounds 2..=5: two misses, then evicted, then
    // probed; the heartbeat answer lands the worker back by round 6)
    for (t, &c) in contributors
        .iter()
        .enumerate()
        .take(crash_round + rounds_down + 1)
        .skip(crash_round)
    {
        assert_eq!(c, k - 1, "round {t} should be missing the crashed worker");
    }
    // re-admitted: the fleet is back to full strength for the tail
    let tail = &contributors[crash_round + rounds_down + 2..];
    assert!(
        tail.iter().all(|&c| c == k),
        "re-admitted worker must contribute again: {contributors:?}"
    );
}

#[test]
fn quorum_commits_rounds_without_stragglers() {
    // the last worker oversleeps round 1; replies are collected in id
    // order, so by the time the engine reaches it the quorum has already
    // reported and the round commits after a short drain instead of the
    // full 5 s deadline — the sleeper's reply surfaces late and flows
    // through the staleness path. The drain is wider than the default 5 ms:
    // on-time replies from different pool threads can land tens of
    // milliseconds apart when other tests share the cores, and round 0
    // must still wait for all of them. The oversleep is ten drains long,
    // so the sleeper cannot slip into round 1's drain either.
    let config =
        SearchConfig::tiny().with_staleness(StalenessModel::fresh(), StalenessStrategy::Use);
    let k = config.num_participants;
    assert!(k >= 2, "test needs at least two workers");
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut search = FederatedModelSearch::new(config, &mut rng);
    let dataset = search.dataset().clone();
    let mut faults = vec![ScriptedFault::default(); k - 1];
    faults.push(ScriptedFault {
        delay: Some((1, Duration::from_millis(1000))),
        ..ScriptedFault::default()
    });
    install_with_faults(
        search.server_mut(),
        &dataset,
        RpcConfig {
            transport: TransportKind::InMemory,
            deadline: Duration::from_secs(5),
            max_retries: 0,
            quorum_frac: (k - 1) as f64 / k as f64,
            quorum_drain: Duration::from_millis(100),
            evict_after: 0, // isolate quorum behaviour from eviction
            ..RpcConfig::default()
        },
        &faults,
    );
    let warmup_rounds = 6;
    let start = std::time::Instant::now();
    search
        .server_mut()
        .run_warmup(&dataset, warmup_rounds, &mut rng);
    // without quorum the oversleep would cost a whole 5 s deadline
    assert!(
        start.elapsed() < Duration::from_secs(4),
        "quorum should commit without waiting the full deadline"
    );
    let contributors: Vec<usize> = search
        .server_mut()
        .warmup_curve()
        .steps()
        .iter()
        .map(|s| s.contributors)
        .collect();
    assert_eq!(contributors.len(), warmup_rounds);
    assert_eq!(contributors[0], k, "round 0 is full strength");
    assert_eq!(
        contributors[1],
        k - 1,
        "round 1 commits at quorum without the sleeper"
    );
    assert!(
        contributors.iter().all(|&c| c >= k - 1),
        "every round keeps at least the quorum: {contributors:?}"
    );
}

#[test]
fn killed_and_resumed_rpc_search_matches_uninterrupted() {
    // reference: an uninterrupted fault-free RPC run
    let config = SearchConfig::tiny().with_staleness(
        StalenessModel::new(vec![0.6, 0.4]),
        StalenessStrategy::delay_compensated(),
    );
    let reference = run_search(
        config.clone(),
        Some(RpcConfig {
            transport: TransportKind::InMemory,
            ..RpcConfig::default()
        }),
    );
    let path =
        std::env::temp_dir().join(format!("fedrlnas-chaos-resume-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // interrupted run: the worker fleet dies with the process after six
    // rounds; only the checkpoint survives
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
    // resume into a brand-new process image and a brand-new worker fleet
    // (resume strictly before install, so workers clone restored state)
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
    let _ = std::fs::remove_file(&path);
}

/// A worker that crashes (`crash_restart`), is evicted and is re-admitted
/// sat out the rounds it was down for. A search killed after the
/// re-admission and resumed into a fresh fleet must still equal the
/// uninterrupted run: the fresh fleet's copy of that participant has to
/// draw, round for round, the batch the one that lived through the crash
/// draws.
fn crashed_readmitted_worker_resumes_into_a_fresh_fleet(transport: TransportKind) {
    let config =
        SearchConfig::tiny().with_staleness(StalenessModel::fresh(), StalenessStrategy::Use);
    let k = config.num_participants;
    let rpc = || RpcConfig {
        transport,
        deadline: Duration::from_millis(300),
        max_retries: 0,
        evict_after: 2,
        ..RpcConfig::default()
    };
    // down for rounds 2..=5, evicted after two misses, back by round 7
    let faults = [ScriptedFault {
        crash_restart: Some((2, 3)),
        ..ScriptedFault::default()
    }];
    let reference = run_scripted(config.clone(), Some(rpc()), &faults);
    assert!(reference.comm.faults.evictions >= 1, "the crash evicts");
    let killed_after = config.warmup_steps + 4;
    let contributors: Vec<usize> = reference
        .warmup_curve
        .steps()
        .iter()
        .chain(reference.search_curve.steps())
        .map(|s| s.contributors)
        .collect();
    assert_eq!(contributors[3], k - 1, "round 3 misses the crashed worker");
    assert!(
        contributors[7..killed_after].iter().all(|&c| c == k),
        "re-admitted before the kill: {contributors:?}"
    );
    let path = std::env::temp_dir().join(format!(
        "fedrlnas-chaos-readmit-{transport:?}-{}.ckpt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    {
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut search = FederatedModelSearch::new(config.clone(), &mut rng);
        let dataset = search.dataset().clone();
        install_with_faults(search.server_mut(), &dataset, rpc(), &faults);
        search
            .server_mut()
            .run_warmup(&dataset, config.warmup_steps, &mut rng);
        search
            .server_mut()
            .run_search(&dataset, killed_after - config.warmup_steps, &mut rng);
        Checkpoint::capture(search.server_mut(), &rng)
            .save_path(&path)
            .expect("snapshot");
    }
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut search = FederatedModelSearch::new(config, &mut rng);
    assert!(search.try_resume(&path, &mut rng).expect("resume"));
    let dataset = search.dataset().clone();
    install(search.server_mut(), &dataset, rpc());
    let outcome = search.run_checkpointed(&mut rng, None).expect("finish");
    assert_same_trajectory(&reference, &outcome);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn crashed_readmitted_worker_resumes_into_a_fresh_fleet_in_memory() {
    crashed_readmitted_worker_resumes_into_a_fresh_fleet(TransportKind::InMemory);
}

#[test]
fn crashed_readmitted_worker_resumes_into_a_fresh_fleet_over_tcp() {
    crashed_readmitted_worker_resumes_into_a_fresh_fleet(TransportKind::Tcp);
}
