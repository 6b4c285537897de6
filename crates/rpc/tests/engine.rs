//! Round-engine suite. The event loop (the default engine: a bounded pool
//! of collectors, each asleep until one of its links has a frame or a
//! timer is due, a pooled worker fleet on the other side) must be bit-identical to the serial oracle for
//! the same seed — same genotype, same curves, same measured `CommStats` —
//! over both transports, under codecs, recoverable fault plans, crashes
//! and adversaries, with the pool deliberately smaller than the cohort so
//! every thread drives several links. Plus what makes it an event loop:
//! shaped sends and injected delays overlap on one thread, a scripted
//! delay holds back one link and not its shard, a thread wakes per event
//! and not per nap, evicted workers cost a round nothing, and the hot
//! path stops allocating.

use std::time::{Duration, Instant};

use fedrlnas_codec::{CodecConfig, CodecSpec};
use fedrlnas_controller::Alpha;
use fedrlnas_core::{
    FederatedModelSearch, RoundBackend, RoundOutcome, RoundRequest, SearchConfig, SearchOutcome,
};
use fedrlnas_darts::{ArchMask, Supernet};
use fedrlnas_rpc::{
    install_with_faults, upload_frame_len, Attack, EngineMode, FaultInjector, FaultPlan,
    FrameFault, ResidentBytes, RpcBackend, RpcConfig, ScriptedFault, TransportKind,
};
use fedrlnas_sync::{StalenessModel, StalenessStrategy};
use rand::{rngs::StdRng, SeedableRng};

const SEED: u64 = 42;

fn run_search(config: SearchConfig, rpc: RpcConfig, faults: &[ScriptedFault]) -> SearchOutcome {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut search = FederatedModelSearch::new(config, &mut rng);
    let dataset = search.dataset().clone();
    install_with_faults(search.server_mut(), &dataset, rpc, faults);
    search.run(&mut rng)
}

/// Runs the identical scenario under the serial oracle and the default
/// engine and asserts the full outcome — trajectory *and* measured
/// communication accounting — is bit-identical. Returns the engine's.
fn assert_engine_matches_serial(
    name: &str,
    config: SearchConfig,
    rpc: RpcConfig,
    faults: &[ScriptedFault],
) -> SearchOutcome {
    let serial = run_search(
        config.clone(),
        RpcConfig {
            engine: EngineMode::Serial,
            ..rpc.clone()
        },
        faults,
    );
    let engine = run_search(config, rpc, faults);
    assert_eq!(serial.genotype, engine.genotype, "{name}: genotypes");
    assert_eq!(serial.warmup_curve, engine.warmup_curve, "{name}: warm-up");
    assert_eq!(serial.search_curve, engine.search_curve, "{name}: search");
    assert_eq!(serial.comm, engine.comm, "{name}: comm accounting");
    engine
}

/// An in-memory config on a two-thread pool: every pool thread drives
/// several links on both the worker and collector sides.
fn mem() -> RpcConfig {
    RpcConfig {
        reactor_threads: 2,
        ..RpcConfig::default()
    }
}

type Scenario = (&'static str, SearchConfig, RpcConfig, Vec<ScriptedFault>);

/// The scenario whose worker sleeps past the deadline on a clean link.
const CLEAN_RETRANSMIT: &str = "deadline retransmit on a clean link";

fn scenarios() -> Vec<Scenario> {
    // worker 0 crashes mid-run (its link closes under the sweep, and the
    // send gate's post-ship quorum population shrinks), worker 1 mounts a
    // scaling attack the norm gate must reject identically in both modes
    let gated = SearchConfig::tiny()
        .with_staleness(StalenessModel::fresh(), StalenessStrategy::Use)
        .with_update_norm_bound(1e3);
    let mut crash_and_attack = vec![ScriptedFault::default(); gated.num_participants];
    crash_and_attack[0].die_at_round = Some(3);
    crash_and_attack[1].attack = Some(Attack::Scale(1e6));
    // worker 0 holds round 1's download 100 ms past the first deadline and
    // well inside the retry's: the retransmit queues behind it, finds the
    // round answered and is met with silence, and the original reply
    // lands in time
    let sleeper = ScriptedFault {
        delay: Some((1, Duration::from_millis(500))),
        ..ScriptedFault::default()
    };
    vec![
        ("in memory", SearchConfig::tiny(), mem(), vec![]),
        (
            "loopback tcp",
            SearchConfig::tiny(),
            RpcConfig {
                transport: TransportKind::Tcp,
                ..mem()
            },
            vec![],
        ),
        (
            "auto codec",
            SearchConfig::tiny().with_codec(CodecConfig::Auto),
            mem(),
            vec![],
        ),
        // the seeded fault schedule is a per-link pure function of the
        // frames crossing that link, and with full quorum the retry
        // decisions are per-worker — so even retransmission counts must
        // agree exactly
        (
            "recoverable fault plan",
            SearchConfig::tiny(),
            RpcConfig {
                deadline: Duration::from_millis(500),
                max_retries: 6,
                retry_backoff: Duration::from_millis(2),
                fault: FaultPlan::light(7),
                ..mem()
            },
            vec![],
        ),
        (
            "crash + adversary",
            gated,
            RpcConfig {
                deadline: Duration::from_millis(300),
                max_retries: 1,
                retry_backoff: Duration::from_millis(5),
                ..mem()
            },
            crash_and_attack,
        ),
        (
            CLEAN_RETRANSMIT,
            SearchConfig::tiny(),
            RpcConfig {
                deadline: Duration::from_millis(400),
                max_retries: 2,
                retry_backoff: Duration::from_millis(5),
                fault: FaultPlan::none(),
                ..mem()
            },
            vec![sleeper],
        ),
    ]
}

#[test]
fn engine_matches_serial_on_every_scenario() {
    for (name, config, rpc, faults) in scenarios() {
        let outcome = assert_engine_matches_serial(name, config, rpc, &faults);
        if name == CLEAN_RETRANSMIT {
            assert!(outcome.comm.faults.retransmits > 0, "{name}: no retransmit");
        }
    }
}

#[test]
fn single_thread_pool_still_completes_rounds() {
    // degenerate pool: one thread drives the whole cohort on each side
    let rpc = RpcConfig {
        reactor_threads: 1,
        ..RpcConfig::default()
    };
    assert_engine_matches_serial("one thread", SearchConfig::tiny(), rpc, &[]);
}

#[test]
fn defaults_are_the_event_loop_and_the_legacy_drain() {
    assert_eq!(RpcConfig::default().engine, EngineMode::Reactor);
    assert_eq!(RpcConfig::default().quorum_drain, Duration::from_millis(5));
}

#[test]
fn repeated_reactor_runs_are_bit_identical() {
    // the sweeps interleave links nondeterministically at the
    // OS-scheduling level; the round outcome must not notice
    let a = run_search(SearchConfig::tiny(), mem(), &[]);
    let b = run_search(SearchConfig::tiny(), mem(), &[]);
    assert_eq!(a.genotype, b.genotype, "genotypes diverged across runs");
    assert_eq!(a.search_curve, b.search_curve, "curves diverged");
    assert_eq!(a.comm, b.comm, "comm accounting diverged across runs");
}

/// A standalone backend driven with a fixed mask set, so payload sizes
/// are constant across rounds and every link sees the same bandwidth.
struct Rig {
    backend: RpcBackend,
    supernet: Supernet,
    alpha_logits: Vec<f32>,
    masks: Vec<ArchMask>,
    bandwidths: Vec<f64>,
    /// The search's codec, shipped in every request.
    codec: CodecConfig,
    /// Per-slot participation; `None` means everyone.
    active: Option<Vec<bool>>,
}

impl Rig {
    fn new(config: SearchConfig, mbps: f64, rpc: RpcConfig, faults: &[ScriptedFault]) -> Rig {
        let n = config.num_participants;
        let mut rng = StdRng::seed_from_u64(SEED);
        // only built to borrow seeded participants + dataset
        let mut search = FederatedModelSearch::new(config.clone(), &mut rng);
        let dataset = search.dataset().clone();
        let backend = RpcBackend::with_faults(
            search.server_mut().participants(),
            &config.net,
            &dataset,
            rpc,
            faults,
        );
        Rig {
            backend,
            supernet: Supernet::new(config.net.clone(), &mut rng),
            alpha_logits: Alpha::new(&config.net).logits().as_slice().to_vec(),
            masks: (0..n)
                .map(|_| ArchMask::uniform_random(&config.net, &mut rng))
                .collect(),
            bandwidths: vec![mbps; n],
            codec: config.codec,
            active: None,
        }
    }

    /// Flat-gradient length of each slot's sub-model.
    fn param_counts(&self) -> Vec<usize> {
        let layout = self.supernet.layout();
        self.masks
            .iter()
            .map(|m| layout.submodel_param_count(m))
            .collect()
    }

    fn round(&mut self, t: usize) -> RoundOutcome {
        let (theta, buffers) = (self.supernet.flat_params(), self.supernet.flat_buffers());
        self.backend.run_round(RoundRequest {
            round: t,
            masks: &self.masks,
            layout: self.supernet.layout(),
            theta: &theta,
            buffers: &buffers,
            alpha_logits: &self.alpha_logits,
            bandwidths_mbps: &self.bandwidths,
            seed_base: SEED ^ t as u64,
            codec: self.codec,
            update_norm_bound: None,
            active: self.active.as_deref(),
        })
    }
}

/// What a round books from the layout before any frame exists is what
/// then crosses the wire: the booked frame sizes sum to the measured
/// download bytes, a slot sitting out books nothing, and the distinct-mask
/// count is taken over the slots that ship.
#[test]
fn booked_downloads_match_what_ships() {
    let config = SearchConfig::tiny();
    let k = config.num_participants;
    let mut rig = Rig::new(config, 50.0, RpcConfig::default(), &[]);
    let distinct: std::collections::HashSet<&ArchMask> = rig.masks.iter().collect();
    assert_eq!(distinct.len(), k, "the seeded masks are all different");
    rig.masks[1] = rig.masks[0].clone();
    let out = rig.round(0);
    assert_eq!(out.reports.len(), k);
    assert_eq!(rig.backend.distinct_masks_last_round(), k - 1);
    assert!(out.download_frame_bytes.iter().all(|&b| b > 0));
    assert_eq!(out.download_frame_bytes[0], out.download_frame_bytes[1]);
    assert_eq!(
        out.bytes_down,
        out.download_frame_bytes.iter().sum::<u64>(),
        "every booked frame ships once, at its booked size"
    );
    // slot 0 sits out: nothing booked or shipped for it, and its twin's
    // mask is no longer a duplicate among the slots that ship
    let mut active = vec![true; k];
    active[0] = false;
    rig.active = Some(active);
    let out = rig.round(1);
    assert_eq!(out.reports.len(), k - 1);
    assert!(out.reports.iter().all(|r| r.participant != 0));
    assert_eq!(rig.backend.distinct_masks_last_round(), k - 1);
    assert_eq!(out.download_frame_bytes[0], 0);
    assert_eq!(out.bytes_down, out.download_frame_bytes.iter().sum::<u64>());
}

/// The engine's reused hot-path buffers — the codec scratch (selection
/// keys, coded run, self-decode output) each fleet pool thread lends to
/// the participant it is running — are grow-only: after a warm-up the
/// growth counter must stop moving. And they are the pool's, not the
/// participants': one set per thread, none of it in any participant's
/// own footprint.
#[test]
fn scratch_buffers_stop_growing_after_warmup() {
    const POOL: usize = 2;
    let codec = CodecConfig::Fixed(CodecSpec::TopK { k_frac: 0.25 });
    let config = SearchConfig::tiny().with_codec(codec);
    let k = config.num_participants;
    let rpc = RpcConfig {
        reactor_threads: POOL,
        ..RpcConfig::default()
    };
    let mut rig = Rig::new(config, 50.0, rpc, &[]);
    let mut growth_after_warmup = 0;
    for t in 0..12 {
        let out = rig.round(t);
        assert_eq!(out.reports.len(), k, "round {t} must be full strength");
        if t == 3 {
            growth_after_warmup = rig.backend.buffer_growth_count();
            assert!(
                growth_after_warmup > 0,
                "initial rounds must populate the grow-only buffers"
            );
        }
    }
    assert_eq!(
        rig.backend.buffer_growth_count(),
        growth_after_warmup,
        "steady-state rounds must not grow any hot-path buffer"
    );
    let gradients = rig.param_counts();
    let held = rig.backend.into_resident_bytes();
    assert_eq!(held.pool_scratch.len(), POOL, "one scratch per pool thread");
    // top-k at a quarter: a u64 key and a decoded f32 per gradient
    // element, two coded bytes per element
    let smallest = gradients.iter().min().expect("k masks");
    for (thread, &bytes) in held.pool_scratch.iter().enumerate() {
        assert!(
            bytes >= 14 * smallest,
            "thread {thread} holds its codec scratch: {bytes} B"
        );
    }
    assert_eq!(held.participants.len(), k);
    for (p, (&bytes, elements)) in held.participants.iter().zip(&gradients).enumerate() {
        // no reply on a clean link, and nothing of the scratch
        assert!(
            bytes < 8 * elements,
            "participant {p} holds {bytes} B for a {elements}-element gradient"
        );
    }
}

/// Everything per participant that is not a cached reply — the fault
/// script, the answered-round ring (128 B), the residual handle and
/// bookkeeping: 328 B on x86-64.
const WORKER_FIXED: usize = 384;
/// The handle with both directions' fault injectors (a plan, an RNG and a
/// tally each), the channel endpoint and the fault layer's queue table:
/// 664 B on x86-64.
const LINK_FIXED: usize = 768;

/// Eight full-strength rounds at a thousand participants over in-memory
/// links under `plan`, then shut down: what the engine held, and each
/// participant's reply size.
fn thousand_at_rest(plan: FaultPlan) -> (ResidentBytes, Vec<usize>) {
    const N: usize = 1000;
    let rpc = RpcConfig {
        deadline: Duration::from_secs(60),
        fault: plan,
        ..RpcConfig::default()
    };
    let mut rig = Rig::new(SearchConfig::tiny().with_participants(N), 50.0, rpc, &[]);
    for t in 0..8 {
        assert_eq!(
            rig.round(t).reports.len(),
            N,
            "round {t} must be full strength"
        );
    }
    let alpha = rig.alpha_logits.len();
    let replies: Vec<usize> = rig
        .param_counts()
        .into_iter()
        .map(|weights| upload_frame_len(weights, alpha))
        .collect();
    let held = rig.backend.into_resident_bytes();
    assert_eq!((held.participants.len(), held.links.len()), (N, N));
    assert!(
        held.pool_scratch.iter().all(|&b| b == 0),
        "an fp32 fleet needs no codec scratch: {:?}",
        held.pool_scratch
    );
    eprintln!(
        "n = {N}: per participant {}..{} B worker side, {}..{} B server side",
        held.participants.iter().min().expect("N"),
        held.participants.iter().max().expect("N"),
        held.links.iter().min().expect("N"),
        held.links.iter().max().expect("N"),
    );
    (held, replies)
}

/// Fleet memory is O(pool), not O(cohort): after eight rounds at a
/// thousand participants over clean in-memory links — nothing can lose a
/// frame — a participant holds a fixed few hundred bytes and no reply,
/// and the server holds no frame-sized buffer per link at all.
#[test]
fn a_clean_participant_holds_no_reply_and_a_link_holds_no_frame() {
    let (held, replies) = thousand_at_rest(FaultPlan::none());
    let smallest_frame = *replies.iter().min().expect("N replies");
    // WORKER_FIXED < LINK_FIXED, so both bounds exclude a frame
    assert!(
        LINK_FIXED < smallest_frame / 4,
        "the bounds exclude a frame"
    );
    for (p, &bytes) in held.participants.iter().enumerate() {
        assert!(bytes <= WORKER_FIXED, "participant {p} holds {bytes} B");
    }
    for (p, &bytes) in held.links.iter().enumerate() {
        assert!(bytes <= LINK_FIXED, "link {p} holds {bytes} B");
    }
}

/// The same fleet under a fault plan that can repeat a frame but drops
/// none, so every round stays full strength: each participant keeps its
/// two most recent replies — what a displaced download can still ask for
/// — and nothing more.
#[test]
fn a_participant_on_a_lossy_link_holds_two_replies() {
    let plan = FaultPlan {
        seed: 3,
        duplicate: 0.05,
        ..FaultPlan::none()
    };
    assert!(plan.is_active());
    let (held, replies) = thousand_at_rest(plan);
    for (p, (&bytes, reply)) in held.participants.iter().zip(&replies).enumerate() {
        assert!(
            (2 * reply..=2 * reply + WORKER_FIXED).contains(&bytes),
            "participant {p} holds {bytes} B against a {reply} B reply"
        );
    }
}

/// Eight shaped links on a one-thread pool: the transmission times are
/// timers on the links, so they overlap and a round costs about one of
/// them. (When the collector slept each send, this took eight.)
#[test]
fn shaped_sends_overlap_on_a_single_pool_thread() {
    const MBPS: f64 = 10.0;
    const SCALE: f64 = 20.0;
    let rpc = RpcConfig {
        reactor_threads: 1,
        real_time_scale: SCALE,
        deadline: Duration::from_secs(30),
        ..RpcConfig::default()
    };
    let mut rig = Rig::new(SearchConfig::tiny().with_participants(8), MBPS, rpc, &[]);
    // the faster of two rounds, so one scheduling hiccup cannot fail it
    let mut fastest = Duration::MAX;
    let mut send = Duration::ZERO;
    for t in 0..2 {
        let start = Instant::now();
        let out = rig.round(t);
        fastest = fastest.min(start.elapsed());
        assert_eq!(out.reports.len(), 8, "round {t} must be full strength");
        let longest = *out.download_frame_bytes.iter().max().expect("8 frames");
        send = Duration::from_secs_f64(longest as f64 * 8.0 / (MBPS * 1e6) * SCALE);
    }
    assert!(
        send > Duration::from_millis(200),
        "sends too short: {send:?}"
    );
    assert!(fastest >= send, "a round cannot beat its own link");
    assert!(
        fastest < 3 * send,
        "8 shaped sends of {send:?} must overlap, round took {fastest:?}"
    );
}

/// A scripted delay longer than the deadline on one participant of a
/// one-thread pool: only that participant is late. (When the fleet thread
/// slept the delay, the whole shard behind it missed the deadline.)
#[test]
fn scripted_delay_holds_back_one_link_not_its_shard() {
    const N: usize = 4;
    let rpc = RpcConfig {
        reactor_threads: 1,
        deadline: Duration::from_millis(400),
        max_retries: 0,
        ..RpcConfig::default()
    };
    // participant 0 is first in the fleet's sweep order, so every
    // shard-mate's download sits behind the delayed one
    let sleeper = ScriptedFault {
        delay: Some((1, Duration::from_millis(1000))),
        ..ScriptedFault::default()
    };
    let config = SearchConfig::tiny().with_participants(N);
    let mut rig = Rig::new(config, 50.0, rpc, &[sleeper]);
    assert_eq!(rig.round(0).reports.len(), N, "round 0 is full strength");
    let out = rig.round(1);
    let on_time: Vec<usize> = out.reports.iter().map(|r| r.participant).collect();
    assert_eq!(on_time, [1, 2, 3], "only the sleeper may miss round 1");
    // its reply is late, not lost: it surfaces once the delay has passed
    let mut late = out.late;
    for t in 2..6 {
        late.extend(rig.round(t).late);
    }
    assert!(
        late.iter()
            .any(|r| (r.participant, r.computed_at) == (0, 1)),
        "the delayed round-1 reply must surface as a late report"
    );
}

/// The injected twin of the scripted delay: a fault plan that delays every
/// frame, both ways, on eight links of a one-thread pool. Each delay holds
/// its own link, so a round costs about the slowest link's two delays.
/// (When the fault layer slept them on the collector thread, it cost the
/// sum of all sixteen.)
#[test]
fn injected_delays_overlap_on_a_single_pool_thread() {
    const N: usize = 8;
    let plan = FaultPlan {
        seed: 11,
        delay: 1.0,
        max_delay: Duration::from_millis(300),
        ..FaultPlan::default()
    };
    // the schedule is a pure function of the plan: draw what the links will
    let first_delay = |p: usize, direction: u64| match FaultInjector::new(
        plan.clone(),
        p,
        direction,
    )
    .next_fault()
    {
        FrameFault::Delay(d) => d,
        other => panic!("the plan delays every frame, drew {other:?}"),
    };
    let per_link: Vec<Duration> = (0..N)
        .map(|p| first_delay(p, 0) + first_delay(p, 1))
        .collect();
    let (sum, longest) = (per_link.iter().sum::<Duration>(), per_link.iter().max());
    let longest = *longest.expect("N links");
    assert!(
        longest < sum / 3,
        "the draws must leave room to tell: {per_link:?}"
    );
    let rpc = RpcConfig {
        reactor_threads: 1,
        deadline: Duration::from_secs(30),
        fault: plan,
        ..RpcConfig::default()
    };
    let mut rig = Rig::new(SearchConfig::tiny().with_participants(N), 50.0, rpc, &[]);
    let start = Instant::now();
    let out = rig.round(0);
    let took = start.elapsed();
    assert_eq!(out.reports.len(), N, "a delay loses nothing");
    assert_eq!(out.faults.frames_delayed, 2 * N as u64);
    assert_eq!(out.faults.retransmits, 0);
    assert!(took >= longest, "a round cannot beat its slowest link");
    assert!(
        took < sum / 2,
        "16 delays summing to {sum:?} (longest link {longest:?}) must overlap, round took {took:?}"
    );
}

/// Wake-ups, not milliseconds: over a shaped round — a quarter of a second
/// of link wait — each loop thread comes back from its wait about once per
/// frame it receives and timer it fires. (Napping through the same round
/// took several hundred.)
#[test]
fn a_shaped_round_wakes_each_loop_per_event_not_per_nap() {
    const N: u64 = 8;
    const ROUNDS: u64 = 2;
    // without `ppoll` the TCP wait is a nap, and counts as one
    let tcp = cfg!(target_os = "linux").then_some(TransportKind::Tcp);
    for transport in [TransportKind::InMemory].into_iter().chain(tcp) {
        let rpc = RpcConfig {
            transport,
            reactor_threads: 1,
            real_time_scale: 20.0,
            deadline: Duration::from_secs(30),
            ..RpcConfig::default()
        };
        let config = SearchConfig::tiny().with_participants(N as usize);
        let mut rig = Rig::new(config, 10.0, rpc, &[]);
        let (engine_before, fleet_before) = rig.backend.wakeups();
        let start = Instant::now();
        for t in 0..ROUNDS {
            assert_eq!(rig.round(t as usize).reports.len(), N as usize);
        }
        let naps = start.elapsed().as_micros() as u64 / 400;
        let (engine, fleet) = rig.backend.wakeups();
        let (engine, fleet) = (engine - engine_before, fleet - fleet_before);
        // collector: N send timers and N replies a round; fleet: N
        // downloads. Twice that for a frame read in two pieces, and a few
        // for the deadline timers and a wake-up that finds nothing new.
        assert!(
            engine <= ROUNDS * (2 * 2 * N + 8),
            "{transport:?}: {engine} collector wake-ups over {ROUNDS} rounds"
        );
        assert!(
            fleet <= ROUNDS * (2 * N + 8),
            "{transport:?}: {fleet} fleet wake-ups over {ROUNDS} rounds"
        );
        assert!(
            engine >= ROUNDS * N && fleet >= ROUNDS,
            "the counters count"
        );
        assert!(
            naps > 10 * (engine + fleet),
            "{transport:?}: the rounds were long enough to tell ({naps} naps)"
        );
    }
}

/// A fleet thread parked in its wait has no timer to wake it: dropping
/// the backend must reach it through the links themselves — the doorbell
/// rung from the server endpoints' `Drop`, the hang-up `poll(2)` reports.
#[test]
fn dropping_a_backend_joins_its_parked_fleet() {
    for transport in [TransportKind::InMemory, TransportKind::Tcp] {
        let rpc = RpcConfig {
            transport,
            ..RpcConfig::default()
        };
        let mut rig = Rig::new(SearchConfig::tiny(), 50.0, rpc, &[]);
        let k = rig.masks.len();
        assert_eq!(rig.round(0).reports.len(), k);
        // every reply is in, so every fleet thread is back in its wait
        std::thread::sleep(Duration::from_millis(50));
        let (joined_tx, joined) = std::sync::mpsc::channel();
        let backend = rig.backend;
        std::thread::spawn(move || {
            drop(backend);
            let _ = joined_tx.send(());
        });
        assert!(
            joined.recv_timeout(Duration::from_secs(1)).is_ok(),
            "{transport:?}: the fleet did not notice the hang-up"
        );
    }
}

/// Thirty-two of sixty-four workers crash and are evicted. Their links
/// share one drain wait, so a round with all thirty-two to probe costs
/// what a round with four does (at a wait per link it cost 56 ms more),
/// and the one that comes back up is re-admitted the round after its
/// heartbeat.
#[test]
fn evicted_workers_cost_a_round_nothing_and_return_on_time() {
    const N: usize = 64;
    const GONE: std::ops::Range<usize> = 32..64;
    const BACK: usize = 31;
    let down = |rounds| ScriptedFault {
        crash_restart: Some((1, rounds)),
        ..ScriptedFault::default()
    };
    let mut faults = vec![ScriptedFault::default(); N];
    faults[BACK] = down(2); // up again from round 3's probe on
    GONE.for_each(|p| faults[p] = down(1000));
    let rpc = RpcConfig {
        deadline: Duration::from_millis(500),
        max_retries: 0,
        evict_after: 1,
        ..RpcConfig::default()
    };
    let mut rig = Rig::new(
        SearchConfig::tiny().with_participants(N),
        50.0,
        rpc,
        &faults,
    );
    assert_eq!(rig.round(0).reports.len(), N, "round 0 is full strength");
    let out = rig.round(1);
    assert_eq!(out.reports.len(), BACK);
    assert_eq!(out.faults.evictions as usize, GONE.len() + 1);
    // from here on one live worker trains, so a round is its evicted
    let active_with = |gone: std::ops::Range<usize>| {
        let mut active = vec![false; N];
        active[0] = true;
        active[BACK] = true;
        gone.for_each(|p| active[p] = true);
        Some(active)
    };
    rig.active = active_with(GONE);
    let out = rig.round(2);
    assert_eq!((out.reports.len(), out.churn.readmitted), (1, 0));
    let probe = out.bytes_down - out.download_frame_bytes[0];
    assert_eq!(probe % (GONE.len() + 1) as u64, 0, "one probe each");
    let out = rig.round(3); // the probe that finds BACK up again
    assert_eq!((out.reports.len(), out.churn.readmitted), (1, 0));
    let out = rig.round(4); // its heartbeat is there: re-admitted, and trains
    assert_eq!(out.churn.readmitted, 1);
    let mut trained: Vec<usize> = out.reports.iter().map(|r| r.participant).collect();
    trained.sort_unstable();
    assert_eq!(trained, [0, BACK]);
    assert_eq!(rig.backend.evicted_workers(), GONE.len());
    // the fastest of three rounds each way, so one hiccup cannot fail it
    let mut fastest = [Duration::MAX; 2];
    for t in 5..11 {
        let many = t % 2;
        rig.active = active_with(if many == 1 { GONE } else { 32..36 });
        let start = Instant::now();
        let out = rig.round(t);
        fastest[many] = fastest[many].min(start.elapsed());
        assert_eq!((out.reports.len(), out.churn.readmitted), (2, 0));
    }
    assert!(
        fastest[1] < fastest[0] + Duration::from_millis(28),
        "4 evicted: {:?}, 32 evicted: {:?}",
        fastest[0],
        fastest[1]
    );
}

/// Order-sensitive digest of everything determinism-relevant a round
/// produces: report order, training results, gradient bits, late-reply
/// attribution and measured byte counts.
fn round_digest(mut h: u64, out: &RoundOutcome) -> u64 {
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
    }
    mix(out.bytes_down);
    mix(out.bytes_up);
    h
}

/// Drives two fixed-mask rounds at a 64-participant cohort and digests
/// the outcomes.
fn width64_digest(transport: TransportKind, engine: EngineMode) -> u64 {
    const N: usize = 64;
    let rpc = RpcConfig {
        transport,
        engine,
        deadline: Duration::from_secs(30),
        ..RpcConfig::default()
    };
    let mut rig = Rig::new(SearchConfig::tiny().with_participants(N), 50.0, rpc, &[]);
    let mut digest = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
    for t in 0..2 {
        let out = rig.round(t);
        assert_eq!(out.reports.len(), N, "round {t} must be full strength");
        digest = round_digest(digest, &out);
    }
    digest
}

/// The pool-vs-fleet shape the scale bench runs at, over both transports:
/// a 64-wide cohort where every pool thread drives many links must still
/// match the serial oracle bit for bit.
#[test]
#[ignore = "wide-cohort equivalence; slow in debug, exercised in release by CI"]
fn reactor_matches_serial_at_width_64_over_both_transports() {
    for transport in [TransportKind::InMemory, TransportKind::Tcp] {
        let serial = width64_digest(transport, EngineMode::Serial);
        let reactor = width64_digest(transport, EngineMode::Reactor);
        assert_eq!(
            serial, reactor,
            "serial and reactor diverged at n=64 over {transport:?}"
        );
    }
}
