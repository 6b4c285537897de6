//! The round engine's event loops: bounded pools instead of a thread per
//! participant, timers instead of sleeps.
//!
//! Both sides of every link are driven from pools sized by
//! [`RpcConfig::reactor_threads`] (default: the `FEDRLNAS_NUM_THREADS`
//! convention, falling back to the machine's parallelism; never more than
//! one thread per link):
//!
//! * **Worker fleet** — participants are split into contiguous shards, one
//!   pool thread per shard. Each thread owns *one* supernet structure
//!   (weights always arrive over the wire, so nothing training-relevant
//!   lives in it) and *one* set of codec scratch buffers
//!   ([`WorkerScratch`]), lent to whichever participant it is running;
//!   per participant there is a [`WorkerState`] — what must survive a
//!   round, nothing frame-sized but its last two replies. The thread
//!   sweeps its links with the nonblocking [`Transport::poll_recv`]
//!   readiness probe.
//!   A scripted `delay` parks that one link on a timer; the thread keeps
//!   serving its shard-mates. A thread exits once every one of its links
//!   has closed. [`EngineMode::Serial`](crate::EngineMode) runs over the
//!   same fleet.
//! * **Server collector** — phase 2 partitions the links into contiguous
//!   chunks, one scoped pool thread per chunk. Each link is a small state
//!   machine ([`LinkCtx`]) whose waits are all timers: when its frame
//!   reaches the wire (shaped transmission time — computed from the
//!   booked frame size — or retransmit backoff plus it; the frame itself
//!   is staged when that timer fires, into the vector the transport
//!   takes, so no download outlives its send on this side), when its
//!   per-attempt deadline runs out, when its
//!   [`RpcConfig::quorum_drain`] window — opened the moment the quorum
//!   transition is observed — closes. Shaped sends therefore overlap
//!   across a chunk instead of summing, and no link can stall another.
//!
//! The only blocking call in either loop is [`idle_nap`]: a sweep that
//! made no progress sleeps until the next due timer, or [`IDLE_NAP`] if
//! that is sooner.
//!
//! Determinism: the round outcome depends only on the *set* of on-time
//! replies and the per-link content order (see `EngineMode`), both of
//! which are preserved — every reply frame flows through the same
//! `absorb_reply_frame` path as the serial oracle, a link is never read
//! while its own frame is still in flight, results commit in participant
//! order, and the quorum target comes from the [`SendGate`]. Fault-free
//! full-quorum rounds are therefore bit-identical to serial; under partial
//! quorum or injected faults which stragglers make the cut is timing
//! dependent in either mode.

use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fedrlnas_darts::{Supernet, SupernetConfig};
use fedrlnas_data::SyntheticDataset;
use fedrlnas_fed::Participant;
use rand::{rngs::StdRng, SeedableRng};

use crate::engine::{
    absorb_reply_frame, backoff_delay, stage_download, wrap_link, FleetFootprint, FrameOutcome,
    FrameStep, Link, RpcConfig, ScriptedFault, SendGate, Staged, WorkerHandle, WorkerRound,
    WorkerScratch, WorkerState,
};
use crate::transport::{ChannelTransport, TcpTransport, Transport};
use crate::wire::{decode, encode, Message};
use crate::TransportKind;

/// The longest an idle sweep sleeps while it has links to listen on:
/// what a reply or download that arrives mid-nap waits to be noticed. Far
/// below the quorum-drain window (5ms) and any realistic deadline.
/// Chosen from the `shaped_links` and `lossy_tcp` benchmark workloads:
/// 200 µs costs a CPU-bound round ~10 % when the machine is busy (every
/// wake-up preempts a training thread), 400 µs and 800 µs measure the
/// same, and doubling per idle sweep buys nothing over a constant.
const IDLE_NAP: Duration = Duration::from_micros(400);

/// The event loops' one blocking call. An idle sweep sleeps until
/// `next_due`, the earliest timer it saw; if it is also `listening` on
/// some link — a frame could arrive before any timer fires — no longer
/// than [`IDLE_NAP`].
fn idle_nap(next_due: Option<Instant>, listening: bool) {
    let until_due = next_due.map(|due| due.saturating_duration_since(Instant::now()));
    let nap = match until_due {
        Some(d) if listening => d.min(IDLE_NAP),
        Some(d) => d,
        None => IDLE_NAP,
    };
    if !nap.is_zero() {
        std::thread::sleep(nap);
    }
}

/// Folds one more timer into the earliest seen so far.
fn earliest(next_due: &mut Option<Instant>, at: Instant) {
    *next_due = Some(next_due.map_or(at, |due| due.min(at)));
}

/// Resolves the reactor pool size: an explicit [`RpcConfig::reactor_threads`]
/// wins; `0` defers to the process-wide `FEDRLNAS_NUM_THREADS` convention
/// (via [`fedrlnas_tensor::num_threads`]). Always in `[1, work_items]` —
/// there is never a reason to run more pool threads than links.
pub(crate) fn pool_size(configured: usize, work_items: usize) -> usize {
    let raw = if configured > 0 {
        configured
    } else {
        fedrlnas_tensor::num_threads()
    };
    raw.clamp(1, work_items.max(1))
}

/// One pool thread's share of the worker fleet: the worker-side transport
/// endpoint plus everything its [`WorkerState`] needs.
type FleetMember = (
    Box<dyn Transport>,
    Participant,
    ScriptedFault,
    Arc<Mutex<Vec<f32>>>,
);

/// A shard member before its TCP endpoint exists (the pool thread
/// connects its own sockets).
type PendingMember = (Participant, ScriptedFault, Arc<Mutex<Vec<f32>>>);

/// Spawns the pooled worker fleet: participants are partitioned into
/// contiguous shards, each driven by one pool thread. Returns the
/// server-side handles plus the pool threads' join handles.
pub(crate) fn spawn_pooled_workers(
    participants: &[Participant],
    net: &SupernetConfig,
    dataset: &SyntheticDataset,
    faults: &[ScriptedFault],
    config: &RpcConfig,
    residuals: &[Arc<Mutex<Vec<f32>>>],
    growth: &Arc<AtomicU64>,
) -> (Vec<WorkerHandle>, Vec<JoinHandle<FleetFootprint>>) {
    let n = participants.len();
    let threads = pool_size(config.reactor_threads, n);
    let shard_len = n.div_ceil(threads).max(1);
    let (plan, time_scale) = (&config.fault, config.real_time_scale);
    let mut joins: Vec<JoinHandle<FleetFootprint>> = Vec::new();
    match config.transport {
        TransportKind::InMemory => {
            let mut handles: Vec<WorkerHandle> = Vec::with_capacity(n);
            for lo in (0..n).step_by(shard_len) {
                let hi = (lo + shard_len).min(n);
                let mut fleet: Vec<FleetMember> = Vec::with_capacity(hi - lo);
                for (i, p) in participants.iter().enumerate().take(hi).skip(lo) {
                    let (server_end, worker_end) = ChannelTransport::pair();
                    let link = wrap_link(Box::new(server_end), i, plan, time_scale);
                    handles.push(WorkerHandle::new(link));
                    fleet.push((
                        Box::new(worker_end),
                        p.clone(),
                        faults.get(i).copied().unwrap_or_default(),
                        residuals[i].clone(),
                    ));
                }
                let net = net.clone();
                let dataset = dataset.clone();
                let growth = growth.clone();
                joins.push(std::thread::spawn(move || {
                    fleet_loop(fleet, net, dataset, growth)
                }));
            }
            (handles, joins)
        }
        TransportKind::Tcp => {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
            let addr = listener.local_addr().expect("listener address");
            for lo in (0..n).step_by(shard_len) {
                let hi = (lo + shard_len).min(n);
                let shard: Vec<PendingMember> = (lo..hi)
                    .map(|i| {
                        (
                            participants[i].clone(),
                            faults.get(i).copied().unwrap_or_default(),
                            residuals[i].clone(),
                        )
                    })
                    .collect();
                let net = net.clone();
                let dataset = dataset.clone();
                let growth = growth.clone();
                joins.push(std::thread::spawn(move || {
                    // connect + handshake every link in the shard, then
                    // drive them all from this one thread
                    let fleet: Vec<FleetMember> = shard
                        .into_iter()
                        .map(|(p, fault, residual)| {
                            let stream =
                                std::net::TcpStream::connect(addr).expect("connect loopback");
                            let mut t: Box<dyn Transport> =
                                Box::new(TcpTransport::new(stream).expect("wrap stream"));
                            let _ = t.send(&encode(&Message::Heartbeat {
                                participant: p.id() as u32,
                            }));
                            (t, p, fault, residual)
                        })
                        .collect();
                    fleet_loop(fleet, net, dataset, growth)
                }));
            }
            // accept one connection per participant; the handshake
            // heartbeat says which worker is on the other end
            let mut slots: Vec<Option<Link>> = (0..n).map(|_| None).collect();
            for _ in 0..n {
                let (stream, _) = listener.accept().expect("accept worker connection");
                let mut t = TcpTransport::new(stream).expect("wrap accepted stream");
                let frame = t
                    .recv_timeout(Duration::from_secs(10))
                    .expect("handshake frame");
                let id = match decode(&frame) {
                    Ok(Message::Heartbeat { participant }) => participant as usize,
                    other => panic!("expected handshake heartbeat, got {other:?}"),
                };
                slots[id] = Some(wrap_link(
                    Box::new(t) as Box<dyn Transport>,
                    id,
                    plan,
                    time_scale,
                ));
            }
            let handles = slots
                .into_iter()
                .map(|link| WorkerHandle::new(link.expect("every worker handshook")))
                .collect();
            (handles, joins)
        }
    }
}

/// One fleet member: its link (`None` once closed), its participant-side
/// state, and a download held back by a scripted `delay` until it is due.
struct Member {
    link: Option<Box<dyn Transport>>,
    state: WorkerState,
    held: Option<(Instant, Vec<u8>)>,
}

/// Drives one shard of the worker fleet: readiness-sweeps every open link,
/// handing frames to its [`WorkerState`], and exits once all links have
/// closed, reporting what it held. One supernet *structure* and one
/// [`WorkerScratch`] serve the whole shard — every weight is overwritten
/// from the wire before use and every scratch buffer before it is read, so
/// sharing them cannot leak state across participants.
fn fleet_loop(
    fleet: Vec<FleetMember>,
    net: SupernetConfig,
    dataset: SyntheticDataset,
    growth: Arc<AtomicU64>,
) -> FleetFootprint {
    let first_id = fleet.first().map_or(0, |member| member.1.id());
    let mut structure_rng = StdRng::seed_from_u64(0x5EED ^ first_id as u64);
    let mut supernet = Supernet::new(net, &mut structure_rng);
    let theta_len = supernet.param_count();
    let mut members: Vec<Member> = fleet
        .into_iter()
        .map(|(link, participant, fault, residual)| Member {
            link: Some(link),
            state: WorkerState::new(participant, fault, residual),
            held: None,
        })
        .collect();
    let mut scratch = WorkerScratch::new(growth);
    let mut open = members.len();
    while open > 0 {
        let mut progressed = false;
        let mut listening = false;
        let mut next_due = None;
        for m in members.iter_mut() {
            let Some(link) = m.link.as_mut() else {
                continue;
            };
            // a held download comes first, and nothing behind it is read
            // until it is due — per-link content order is what
            // determinism rests on
            if let Some((due, _)) = m.held {
                if Instant::now() < due {
                    earliest(&mut next_due, due);
                    continue;
                }
            }
            let mut next = match m.held.take() {
                Some((_, frame)) => Ok(Some(frame)),
                None => link.poll_recv(),
            };
            listening = true;
            // drain everything this link has ready before moving on
            let closed = loop {
                let frame = match next {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break false,
                    Err(_) => break true,
                };
                progressed = true;
                match m.state.handle_frame(
                    &mut supernet,
                    theta_len,
                    &dataset,
                    &mut scratch,
                    &mut **link,
                    &frame,
                ) {
                    FrameOutcome::Continue => {}
                    FrameOutcome::Exit => break true,
                    FrameOutcome::Delay(d) => {
                        m.held = Some((Instant::now() + d, frame));
                        break false;
                    }
                }
                next = link.poll_recv();
            };
            if closed {
                m.link = None;
                open -= 1;
            }
        }
        if open > 0 && !progressed {
            idle_nap(next_due, listening);
        }
    }
    FleetFootprint {
        scratch_bytes: scratch.heap_bytes(),
        participant_bytes: members.iter().map(|m| m.state.resident_bytes()).collect(),
    }
}

/// Per-link collector state machine: everything the serial oracle's
/// blocking `collect_worker` keeps on its stack and in its sleeps.
struct LinkCtx {
    /// Participant index (`base +` the link's index within the chunk).
    p: usize,
    wr: WorkerRound,
    /// Retransmissions scheduled so far (`0` while the initial download
    /// is still in flight).
    attempts: usize,
    /// When the frame in flight — initial download or retransmit — reaches
    /// the wire: now plus any backoff plus the shaped transmission time.
    /// While set the link is not read, like the oracle, which sleeps
    /// through both.
    send_at: Option<Instant>,
    /// When the frame last went out; the per-attempt deadline runs from
    /// here (or from when the quorum target became known, if later).
    window_start: Instant,
    /// When this link first observed the quorum transition; from that
    /// moment it gets a fresh [`RpcConfig::quorum_drain`] budget.
    met_at: Option<Instant>,
    done: bool,
}

/// [`EngineMode::Reactor`](crate::EngineMode)'s phase 2: one scoped pool
/// thread per contiguous chunk of links, results in participant order.
pub(crate) fn collect(
    workers: &mut [WorkerHandle],
    eligible: &[bool],
    s: &Staged<'_>,
) -> Vec<(usize, WorkerRound)> {
    let links = eligible.iter().filter(|e| **e).count();
    let threads = pool_size(s.config.reactor_threads, links);
    let chunk_len = workers.len().div_ceil(threads).max(1);
    // every collector derives the same post-ship quorum target from it
    let gate = &SendGate::new(links, s.config.quorum_frac);
    std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .chunks_mut(chunk_len)
            .enumerate()
            .map(|(ci, chunk)| {
                scope.spawn(move || collect_chunk(chunk, ci * chunk_len, eligible, s, gate))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reactor collector panicked"))
            .collect()
    })
}

/// Phase 2 for one contiguous chunk of workers: arm each eligible link's
/// send timer from its booked frame size, then drive every link's state
/// machine through nonblocking sweeps until all are settled. A frame is
/// staged when its timer fires — the collectors fill the cohort's frames
/// in parallel — and handed to the transport whole. Returns
/// `(participant, WorkerRound)` pairs in participant order.
fn collect_chunk(
    chunk: &mut [WorkerHandle],
    base: usize,
    eligible: &[bool],
    s: &Staged<'_>,
    gate: &SendGate,
) -> Vec<(usize, WorkerRound)> {
    let config = s.config;
    let mut ctxs: Vec<LinkCtx> = Vec::with_capacity(chunk.len());
    for (i, w) in chunk.iter_mut().enumerate() {
        let p = base + i;
        if !eligible[p] {
            continue;
        }
        let link = w.transport.as_mut().expect("live worker has transport");
        link.set_mbps(s.req.bandwidths_mbps[p]);
        let now = Instant::now();
        ctxs.push(LinkCtx {
            p,
            wr: WorkerRound::default(),
            attempts: 0,
            send_at: Some(now + link.send_delay(s.frame_bytes[p] as usize)),
            window_start: now,
            met_at: None,
            done: false,
        });
    }
    // the quorum target and when it became known: no wait expires before
    let mut quorum: Option<(usize, Instant)> = None;
    let mut remaining = ctxs.len();
    while remaining > 0 {
        let mut progressed = false;
        let mut listening = false;
        let mut next_due = None;
        if quorum.is_none() {
            quorum = gate.target().map(|target| (target, Instant::now()));
        }
        for c in ctxs.iter_mut().filter(|c| !c.done) {
            let w = &mut chunk[c.p - base];
            let link = w.transport.as_mut().expect("live worker has transport");
            if let Some(at) = c.send_at {
                if Instant::now() < at {
                    earliest(&mut next_due, at);
                    continue;
                }
                c.send_at = None;
                progressed = true;
                let ship_start = Instant::now();
                let sent = link.send_now(stage_download(c.p, s));
                if c.attempts == 0 {
                    gate.record(sent.is_ok());
                    c.wr.ship_ns += ship_start.elapsed().as_nanos() as u64;
                }
                if sent.is_err() {
                    w.alive = false;
                    c.done = true;
                    remaining -= 1;
                    continue;
                }
                c.wr.bytes_down += s.frame_bytes[c.p];
                // every send opens a fresh wait window
                c.window_start = Instant::now();
                c.met_at = None;
            }
            listening = true;
            let poll_start = Instant::now();
            let polled = link.poll_recv();
            c.wr.collect_ns =
                c.wr.collect_ns
                    .saturating_add(poll_start.elapsed().as_nanos() as u64);
            let frame_in = match polled {
                Ok(Some(frame_in)) => Some(frame_in),
                Ok(None) => {
                    let Some((target, known_at)) = quorum else {
                        continue;
                    };
                    let now = Instant::now();
                    let quorum_met = s.on_time.load(Ordering::Relaxed) >= target;
                    if quorum_met && c.met_at.is_none() {
                        c.met_at = Some(now);
                    }
                    let expires = match c.met_at {
                        Some(met) => met + config.quorum_drain,
                        None => c.window_start.max(known_at) + config.deadline,
                    };
                    if now < expires {
                        earliest(&mut next_due, expires);
                        continue;
                    }
                    // like the oracle's `recv_timeout`, release a
                    // reorder-held frame before declaring the wait over
                    let held = link.inner_mut().release_held();
                    if held.is_none() {
                        if !quorum_met && c.attempts < config.max_retries {
                            let salt = ((s.req.round as u64) << 32) | c.p as u64;
                            let backoff = backoff_delay(config.retry_backoff, c.attempts, salt);
                            let on_wire = link.send_delay(s.frame_bytes[c.p] as usize);
                            c.send_at = Some(now + backoff + on_wire);
                            c.attempts += 1;
                            c.wr.retransmits += 1;
                        } else {
                            c.done = true; // late: the reply, if any, surfaces next round
                            remaining -= 1;
                        }
                        progressed = true;
                    }
                    held
                }
                Err(_) => {
                    w.alive = false;
                    c.done = true;
                    remaining -= 1;
                    continue;
                }
            };
            if let Some(frame_in) = frame_in {
                progressed = true;
                if absorb_reply_frame(&mut c.wr, &frame_in, c.p, s) == FrameStep::Done {
                    c.done = true;
                    remaining -= 1;
                }
            }
        }
        if remaining > 0 && !progressed {
            idle_nap(next_due, listening);
        }
    }
    ctxs.into_iter().map(|c| (c.p, c.wr)).collect()
}
