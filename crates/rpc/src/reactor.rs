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
//!   sleeps until a download has arrived on one of its links and reads
//!   the links that have one.
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
//! Both loops have one shape: register the links with a [`Waiter`], then
//! read the links that are ready — each until it reports idle — fire the
//! timers that are due, and with nothing left to do call
//! [`Waiter::wait`] with the earliest pending timer. That is the only
//! blocking call in either loop, and it sleeps until a frame has arrived
//! on one of the thread's own links, a peer collector has news
//! ([`Waker`]), or that timer is due — never "for a while". Work is
//! O(links that have something), not O(links); an idle round costs
//! nothing; and simulated time has one place to advance.
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

use std::collections::BTreeSet;
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
    absorb_reply_frame, backoff_delay, stage_download, wrap_link, FleetCounters, FleetFootprint,
    FrameOutcome, FrameStep, Link, RpcConfig, ScriptedFault, SendGate, Staged, WorkerHandle,
    WorkerRound, WorkerScratch, WorkerState,
};
use crate::transport::{ChannelTransport, TcpTransport, Transport};
use crate::waiter::{Waiter, Waker};
use crate::wire::{decode, encode, Message};
use crate::TransportKind;

/// The most replies a collector lets queue up before it wants waking. A
/// wake-up on a busy machine preempts a training thread, so one per reply
/// — a thousand a round at a thousand links — costs more than the replies
/// take to absorb; but every queued reply is a frame its sender's
/// allocator cannot reuse yet, and 16 of them keep that to a quarter of a
/// megabyte where 250 cost `cohort_1k` 6 MiB of peak RSS.
const REPLY_BATCH: usize = 16;

/// The pending timer of each link of one loop thread — a link has at most
/// one: its send, its wait's expiry or a frame held until due — ordered
/// by when it fires.
#[derive(Default)]
struct Timers {
    /// Each token's timer, `None` past the end.
    due: Vec<Option<Instant>>,
    order: BTreeSet<(Instant, usize)>,
}

impl Timers {
    /// Replaces `token`'s timer (`None`: it has none now).
    fn set(&mut self, token: usize, at: Option<Instant>) {
        if self.due.len() <= token {
            self.due.resize(token + 1, None);
        }
        if let Some(old) = std::mem::replace(&mut self.due[token], at) {
            self.order.remove(&(old, token));
        }
        if let Some(at) = at {
            self.order.insert((at, token));
        }
    }

    /// When the earliest timer fires.
    fn next_due(&self) -> Option<Instant> {
        self.order.first().map(|(at, _)| *at)
    }

    /// Moves every token whose timer has fired by `now` into `fired`;
    /// those timers are spent.
    fn fire(&mut self, now: Instant, fired: &mut Vec<usize>) {
        while let Some((_, token)) = self.order.first().copied().filter(|(at, _)| *at <= now) {
            self.set(token, None);
            fired.push(token);
        }
    }
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
    counters: &FleetCounters,
) -> (Vec<WorkerHandle>, Vec<JoinHandle<FleetFootprint>>) {
    let n = participants.len();
    let threads = pool_size(config.reactor_threads, n);
    let shard_len = n.div_ceil(threads).max(1);
    let (plan, time_scale, kind) = (&config.fault, config.real_time_scale, config.transport);
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
                let counters = counters.clone();
                joins.push(std::thread::spawn(move || {
                    fleet_loop(fleet, net, dataset, kind, counters)
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
                let counters = counters.clone();
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
                    fleet_loop(fleet, net, dataset, kind, counters)
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

/// Drives one shard of the worker fleet: sleeps until a link has a frame
/// or a held download is due, hands each ready link's frames to its
/// [`WorkerState`], and exits once all links have closed, reporting what
/// it held. One supernet *structure* and one [`WorkerScratch`] serve the
/// whole shard — every weight is overwritten from the wire before use and
/// every scratch buffer before it is read, so sharing them cannot leak
/// state across participants.
fn fleet_loop(
    fleet: Vec<FleetMember>,
    net: SupernetConfig,
    dataset: SyntheticDataset,
    kind: TransportKind,
    counters: FleetCounters,
) -> FleetFootprint {
    let first_id = fleet.first().map_or(0, |member| member.1.id());
    let mut structure_rng = StdRng::seed_from_u64(0x5EED ^ first_id as u64);
    let mut supernet = Supernet::new(net, &mut structure_rng);
    let theta_len = supernet.param_count();
    let mut waiter = Waiter::new(kind, counters.wakeups);
    let mut members: Vec<Member> = fleet
        .into_iter()
        .enumerate()
        .map(|(token, (mut link, participant, fault, residual))| {
            waiter.register(token, &mut *link);
            Member {
                link: Some(link),
                state: WorkerState::new(participant, fault, residual),
                held: None,
            }
        })
        .collect();
    let mut scratch = WorkerScratch::new(counters.growth);
    let mut timers = Timers::default();
    // a frame may have arrived before its link was registered
    let mut ready: Vec<usize> = (0..members.len()).collect();
    let mut open = members.len();
    while open > 0 {
        timers.fire(Instant::now(), &mut ready);
        if ready.is_empty() {
            waiter.wait(timers.next_due(), 1, &mut ready);
            continue;
        }
        for token in ready.drain(..) {
            let m = &mut members[token];
            let Some(link) = m.link.as_mut() else {
                continue;
            };
            // a held download comes first, and nothing behind it is read
            // until it is due — per-link content order is what
            // determinism rests on
            if let Some((due, _)) = m.held {
                if Instant::now() < due {
                    continue;
                }
            }
            let mut next = match m.held.take() {
                Some((_, frame)) => {
                    waiter.watch(token, true);
                    Ok(Some(frame))
                }
                None => link.poll_recv(),
            };
            // read the link until it reports idle
            let closed = loop {
                let frame = match next {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break false,
                    Err(_) => break true,
                };
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
                        let due = Instant::now() + d;
                        m.held = Some((due, frame));
                        timers.set(token, Some(due));
                        waiter.watch(token, false);
                        break false;
                    }
                }
                next = link.poll_recv();
            };
            if closed {
                waiter.watch(token, false);
                m.link = None;
                open -= 1;
            }
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
/// `wakeups` counts the threads' returns from their blocking wait.
pub(crate) fn collect(
    workers: &mut [WorkerHandle],
    eligible: &[bool],
    s: &Staged<'_>,
    wakeups: &Arc<AtomicU64>,
) -> Vec<(usize, WorkerRound)> {
    let links = eligible.iter().filter(|e| **e).count();
    let threads = pool_size(s.config.reactor_threads, links);
    let chunk_len = workers.len().div_ceil(threads).max(1);
    // every collector derives the same post-ship quorum target from it
    let gate = &SendGate::new(links, s.config.quorum_frac);
    let chunks = workers.chunks_mut(chunk_len);
    let mut waiters: Vec<Waiter> = (0..chunks.len())
        .map(|_| Waiter::new(s.config.transport, wakeups.clone()))
        .collect();
    // a lone collector has nobody to hear from
    let wakers: Vec<Waker> = match waiters.len() {
        1 => Vec::new(),
        _ => waiters.iter_mut().map(Waiter::waker).collect(),
    };
    let wakers = &wakers;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .zip(waiters)
            .enumerate()
            .map(|(ci, (chunk, waiter))| {
                let collector = Collector {
                    s,
                    gate,
                    waiter,
                    timers: Timers::default(),
                    peers: wakers,
                    me: ci,
                    quorum: None,
                };
                scope.spawn(move || collector.run(chunk, ci * chunk_len, eligible))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reactor collector panicked"))
            .collect()
    })
}

/// One collector thread's round.
struct Collector<'a> {
    s: &'a Staged<'a>,
    /// When the quorum target is known: every collector's first sends.
    gate: &'a SendGate,
    /// This thread's blocking wait and its links' timers; a link's token
    /// is its index among the thread's eligible links.
    waiter: Waiter,
    timers: Timers,
    /// Every collector's waker, this thread's own at index `me`; empty
    /// when it is the only one.
    peers: &'a [Waker],
    me: usize,
    /// The quorum target and when this thread learnt it: no wait expires
    /// before.
    quorum: Option<(usize, Instant)>,
}

impl Collector<'_> {
    /// Phase 2 for one contiguous chunk of workers: arm each eligible
    /// link's send timer from its booked frame size, then drive every
    /// link's state machine from the links that have a frame and the
    /// timers that are due until all are settled. Returns `(participant,
    /// WorkerRound)` pairs in participant order.
    fn run(
        mut self,
        chunk: &mut [WorkerHandle],
        base: usize,
        eligible: &[bool],
    ) -> Vec<(usize, WorkerRound)> {
        let s = self.s;
        let mut ctxs: Vec<LinkCtx> = Vec::with_capacity(chunk.len());
        for (i, w) in chunk.iter_mut().enumerate() {
            let p = base + i;
            if !eligible[p] {
                continue;
            }
            let link = w.transport.as_mut().expect("live worker has transport");
            link.set_mbps(s.req.bandwidths_mbps[p]);
            let now = Instant::now();
            let send_at = now + link.send_delay(s.frame_bytes[p] as usize);
            // not watched until its download is out: a link is never read
            // while its own frame is in flight
            let token = ctxs.len();
            self.waiter.register(token, link);
            self.waiter.watch(token, false);
            self.timers.set(token, Some(send_at));
            ctxs.push(LinkCtx {
                p,
                wr: WorkerRound::default(),
                attempts: 0,
                send_at: Some(send_at),
                window_start: now,
                met_at: None,
                done: false,
            });
        }
        // whether this thread has seen the on-time count reach the target
        let mut met_seen = false;
        let mut remaining = ctxs.len();
        let mut ready: Vec<usize> = Vec::new();
        loop {
            // Two values are shared across collectors — whether the quorum
            // target is known and whether the on-time count has reached it
            // — and either changing re-times every waiting link. A thread
            // asleep in its wait cannot see them change, so one that does
            // (this one too, on its way out) wakes the rest.
            let mut retime = false;
            if self.quorum.is_none() {
                self.quorum = self.gate.target().map(|target| (target, Instant::now()));
                retime = self.quorum.is_some();
            }
            if let Some((target, _)) = self.quorum {
                if !met_seen && s.on_time.load(Ordering::Relaxed) >= target {
                    met_seen = true;
                    retime = true;
                }
            }
            if retime {
                let others = self.peers.iter().enumerate().filter(|(i, _)| *i != self.me);
                others.for_each(|(_, waker)| waker.wake());
                ready.clear();
                ready.extend(0..ctxs.len());
            }
            if remaining == 0 {
                break;
            }
            self.timers.fire(Instant::now(), &mut ready);
            if ready.is_empty() {
                // Under full quorum this thread is not done before every
                // link of its has answered, so it need not hear of each
                // reply as it lands: half of what is outstanding, at most
                // `REPLY_BATCH`, is soon enough, and the last reply (mark
                // 1) still wakes it at once. Under partial quorum other
                // threads wait on this one's on-time count.
                let mark = match s.config.quorum_frac >= 1.0 {
                    true => (remaining / 2).min(REPLY_BATCH),
                    false => 1,
                };
                self.waiter.wait(self.timers.next_due(), mark, &mut ready);
                continue;
            }
            for token in ready.drain(..) {
                let c = &mut ctxs[token];
                if !c.done && self.service(token, c, &mut chunk[c.p - base]) {
                    c.done = true;
                    remaining -= 1;
                    self.timers.set(token, None);
                    self.waiter.watch(token, false);
                }
            }
        }
        // later frames on these links are the next round's to find
        for c in &ctxs {
            let link = chunk[c.p - base].transport.as_mut();
            link.expect("live worker has transport").set_waker(None);
        }
        ctxs.into_iter().map(|c| (c.p, c.wr)).collect()
    }

    /// Moves one link as far as it goes without waiting: sends its frame
    /// if that is due — staged here, so the collectors fill the cohort's
    /// frames in parallel, and handed to the transport whole — then reads
    /// the link until it reports idle (the fault layer can queue a
    /// duplicate nothing announces) and sets the timer that ends this
    /// wait. Returns whether the link's round is over.
    fn service(&mut self, token: usize, c: &mut LinkCtx, w: &mut WorkerHandle) -> bool {
        let (s, config) = (self.s, self.s.config);
        let link = w.transport.as_mut().expect("live worker has transport");
        if let Some(at) = c.send_at {
            if Instant::now() < at {
                return false; // named while its frame is in flight: read after the send
            }
            c.send_at = None;
            let ship_start = Instant::now();
            let sent = link.inner_mut().send_deferred(stage_download(c.p, s));
            if c.attempts == 0 {
                self.gate.record(sent.is_ok());
                c.wr.ship_ns += ship_start.elapsed().as_nanos() as u64;
            }
            if sent.is_err() {
                w.alive = false;
                return true;
            }
            c.wr.bytes_down += s.frame_bytes[c.p];
            // every send opens a fresh wait window
            c.window_start = Instant::now();
            c.met_at = None;
            self.waiter.watch(token, true);
        }
        loop {
            let poll_start = Instant::now();
            let polled = link.poll_recv();
            c.wr.collect_ns =
                c.wr.collect_ns
                    .saturating_add(poll_start.elapsed().as_nanos() as u64);
            let frame_in = match polled {
                Ok(Some(frame_in)) => frame_in,
                Ok(None) => {
                    // a frame the fault layer is delaying is in hand: the
                    // wait does not expire before it is through
                    if let Some(due) = link.inner_mut().next_due() {
                        self.timers.set(token, Some(due));
                        return false;
                    }
                    let Some((target, known_at)) = self.quorum else {
                        return false;
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
                        self.timers.set(token, Some(expires));
                        return false;
                    }
                    // like the oracle's `recv_timeout`, release a
                    // reorder-held frame before declaring the wait over
                    match link.inner_mut().release_held() {
                        Some(held) => held,
                        None if !quorum_met && c.attempts < config.max_retries => {
                            let salt = ((s.req.round as u64) << 32) | c.p as u64;
                            let backoff = backoff_delay(config.retry_backoff, c.attempts, salt);
                            let on_wire = link.send_delay(s.frame_bytes[c.p] as usize);
                            c.send_at = Some(now + backoff + on_wire);
                            c.attempts += 1;
                            c.wr.retransmits += 1;
                            self.timers.set(token, c.send_at);
                            self.waiter.watch(token, false);
                            return false;
                        }
                        // late: the reply, if any, surfaces next round
                        None => return true,
                    }
                }
                Err(_) => {
                    w.alive = false;
                    return true;
                }
            };
            if absorb_reply_frame(&mut c.wr, &frame_in, c.p, s) == FrameStep::Done {
                return true;
            }
        }
    }
}
