//! End-to-end distributed-runtime tests: determinism against the
//! in-process path over both transports, fault injection through the
//! timeout/retry/staleness machinery, and measured-vs-estimated
//! communication accounting.

use std::time::Duration;

use fedrlnas_controller::Alpha;
use fedrlnas_core::{FederatedModelSearch, SearchConfig, SearchOutcome};
use fedrlnas_darts::{ArchMask, Supernet};
use fedrlnas_rpc::{
    download_frame_len, encode, install, install_with_faults, Message, RpcConfig, ScriptedFault,
    TransportKind, FRAME_OVERHEAD,
};
use fedrlnas_sync::{StalenessModel, StalenessStrategy};
use rand::{rngs::StdRng, Rng, SeedableRng};

const SEED: u64 = 42;

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
}

#[test]
fn in_memory_rpc_matches_in_process() {
    let baseline = run_search(SearchConfig::tiny(), None);
    let rpc = run_search(
        SearchConfig::tiny(),
        Some(RpcConfig {
            transport: TransportKind::InMemory,
            ..RpcConfig::default()
        }),
    );
    assert_same_trajectory(&baseline, &rpc);
    // measured frames carry framing, BatchNorm buffers and α on top of the
    // legacy param-bytes estimate, so measured traffic strictly dominates
    assert!(
        rpc.comm.bytes_down > baseline.comm.bytes_down,
        "measured {} must exceed estimated {}",
        rpc.comm.bytes_down,
        baseline.comm.bytes_down
    );
    assert!(rpc.comm.bytes_up > 0);
    assert_eq!(rpc.comm.rounds, baseline.comm.rounds);
}

#[test]
fn loopback_tcp_rpc_matches_in_process() {
    // the end-to-end acceptance run: 4 participants on worker threads
    // behind real sockets, all phases, genotype identical to in-process
    let baseline = run_search(SearchConfig::tiny(), None);
    let rpc = run_search(
        SearchConfig::tiny(),
        Some(RpcConfig {
            transport: TransportKind::Tcp,
            ..RpcConfig::default()
        }),
    );
    assert_same_trajectory(&baseline, &rpc);
    assert!(rpc.comm.bytes_down > baseline.comm.bytes_down);
}

/// At `small` the sub-models reach the packed GEMM, where a warm
/// workspace is stale memory. A worker trains every download in place on
/// its pool thread's supernet — on one thread that supernet sees every
/// mask of every round in turn — and must still give the in-process
/// search's genotype and curves, on one pool thread and on two.
#[test]
fn in_memory_rpc_matches_in_process_at_small() {
    let config = SearchConfig {
        warmup_steps: 2,
        search_steps: 2,
        ..SearchConfig::small()
    };
    let baseline = run_search(config.clone(), None);
    for reactor_threads in [1, 2] {
        let rpc = run_search(
            config.clone(),
            Some(RpcConfig {
                transport: TransportKind::InMemory,
                reactor_threads,
                ..RpcConfig::default()
            }),
        );
        assert_same_trajectory(&baseline, &rpc);
    }
}

#[test]
fn kill_one_participant_mid_round() {
    let config =
        SearchConfig::tiny().with_staleness(StalenessModel::fresh(), StalenessStrategy::Use);
    let k = config.num_participants;
    let rounds = config.warmup_steps + config.search_steps;
    let die_at = 3;
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut search = FederatedModelSearch::new(config, &mut rng);
    let dataset = search.dataset().clone();
    let faults = vec![ScriptedFault {
        die_at_round: Some(die_at),
        ..ScriptedFault::default()
    }];
    install_with_faults(
        search.server_mut(),
        &dataset,
        RpcConfig {
            transport: TransportKind::Tcp,
            deadline: Duration::from_millis(200),
            max_retries: 1,
            retry_backoff: Duration::from_millis(5),
            ..RpcConfig::default()
        },
        &faults,
    );
    let outcome = search.run(&mut rng);
    // the search must complete all phases despite the crash
    assert_eq!(
        outcome.warmup_curve.len() + outcome.search_curve.len(),
        rounds
    );
    let contributors: Vec<usize> = outcome
        .warmup_curve
        .steps()
        .iter()
        .chain(outcome.search_curve.steps())
        .map(|s| s.contributors)
        .collect();
    // full strength before the crash, exactly one short after it
    for (t, &c) in contributors.iter().enumerate() {
        if t < die_at {
            assert_eq!(c, k, "round {t} should be full strength");
        } else {
            assert_eq!(c, k - 1, "round {t} should be missing the dead worker");
        }
    }
}

/// Warm-up contributors per round when worker 1 oversleeps round 1 by far
/// more than the deadline, so its reply surfaces in a later round.
fn contributors_with_a_delayed_reply(strategy: StalenessStrategy) -> (Vec<usize>, usize) {
    let config = SearchConfig::tiny().with_staleness(StalenessModel::fresh(), strategy);
    let k = config.num_participants;
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut search = FederatedModelSearch::new(config, &mut rng);
    let dataset = search.dataset().clone();
    let faults = vec![
        ScriptedFault::default(),
        ScriptedFault {
            delay: Some((1, Duration::from_millis(600))),
            ..ScriptedFault::default()
        },
    ];
    install_with_faults(
        search.server_mut(),
        &dataset,
        RpcConfig {
            transport: TransportKind::InMemory,
            deadline: Duration::from_millis(250),
            max_retries: 0,
            ..RpcConfig::default()
        },
        &faults,
    );
    search.server_mut().run_warmup(&dataset, 6, &mut rng);
    let contributors = search
        .server_mut()
        .warmup_curve()
        .steps()
        .iter()
        .map(|s| s.contributors)
        .collect();
    (contributors, k)
}

#[test]
fn delayed_reply_flows_through_staleness_path() {
    let (contributors, k) = contributors_with_a_delayed_reply(StalenessStrategy::Use);
    assert_eq!(contributors.len(), 6);
    // the delayed round is one contributor short...
    assert_eq!(contributors[1], k - 1, "round 1 must miss the sleeper");
    // ...but the reply lands late within the staleness threshold, so no
    // update is lost overall
    let total: usize = contributors.iter().sum();
    assert_eq!(
        total,
        6 * k,
        "late reply must be aggregated through the staleness path ({contributors:?})"
    );
    // and some round after the delay carries the extra stale arrival
    assert!(
        contributors.iter().skip(2).any(|&c| c > k),
        "a later round must absorb the late update ({contributors:?})"
    );

    // hard sync uses no stale update: the late reply is discarded (the
    // round loop used to hit an `unreachable!` here)
    let (contributors, k) = contributors_with_a_delayed_reply(StalenessStrategy::Hard);
    assert_eq!(contributors[1], k - 1, "round 1 must miss the sleeper");
    assert!(
        contributors.iter().all(|&c| c <= k),
        "no round may absorb a late update ({contributors:?})"
    );
    assert_eq!(contributors[5], k, "the sleeper is back on time by the end");
}

/// Satellite: the legacy size accounting (`param_count × 4`, what
/// `fed::comm` records in-process) matches the wire-format encoded length
/// to the exact byte: the frame adds precisely the fixed protocol
/// overhead plus the buffer and α runs.
#[test]
fn legacy_size_accounting_matches_wire_length_exactly() {
    let config = SearchConfig::tiny();
    let mut rng = StdRng::seed_from_u64(7);
    let supernet = Supernet::new(config.net.clone(), &mut rng);
    let alpha = Alpha::new(&config.net);
    let alpha_logits = alpha.logits().as_slice().to_vec();
    for _ in 0..5 {
        let mask = ArchMask::uniform_random(&config.net, &mut rng);
        let mut sub = supernet.extract_submodel(&mask);
        let legacy_bytes = sub.param_bytes();
        let mut weights = Vec::new();
        sub.visit_params(&mut |p| weights.extend_from_slice(p.value.as_slice()));
        let mut buffers = Vec::new();
        sub.visit_buffers(&mut |b| buffers.extend_from_slice(b));
        let frame = encode(&Message::DownloadSubmodel {
            round: 0,
            seed_base: rng.gen(),
            mask: mask.clone(),
            weights: weights.clone(),
            buffers: buffers.clone(),
            alpha: alpha_logits.clone(),
            codec: None,
        });
        assert_eq!(
            legacy_bytes,
            weights.len() * 4,
            "legacy accounting is param bytes"
        );
        let edges = mask.num_edges();
        assert_eq!(
            frame.len(),
            download_frame_len(
                edges,
                weights.len(),
                buffers.len(),
                alpha_logits.len(),
                false
            )
        );
        // exact decomposition: frame = legacy estimate + protocol overhead
        let overhead =
            FRAME_OVERHEAD + 8 + 8 + 4 + 2 * edges + 12 + 4 * (buffers.len() + alpha_logits.len());
        assert_eq!(
            frame.len(),
            legacy_bytes + overhead,
            "wire length must equal the legacy estimate plus exact overhead"
        );
    }
}
