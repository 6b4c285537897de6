//! The round engine's event loops: bounded pools instead of a thread per
//! participant, timers instead of sleeps.
//!
//! Both sides of every link are driven from pools sized by
//! [`RpcConfig::reactor_threads`] (default: the `FEDRLNAS_NUM_THREADS`
//! convention, falling back to the machine's parallelism; never more than
//! one thread per link):
//!
//! * **Worker fleet** — participants are split into contiguous shards, one
//!   pool thread per shard. Each thread owns *one* supernet, on which it
//!   trains every download in place (the selected slots are overwritten
//!   from the frame first, so nothing training-relevant carries over from
//!   one participant to the next), and *one* set of codec scratch buffers
//!   ([`WorkerScratch`]), lent to whichever participant it is running;
//!   per participant there is a [`WorkerState`] — what must survive a
//!   round, nothing frame-sized but, on a link whose fault plan can lose
//!   a frame, its last two replies. The thread sleeps until a download
//!   has arrived on one of its links, reads the links that have one and
//!   sends what the worker machine answers.
//!   A scripted `delay` parks that one link on a timer; the thread keeps
//!   serving its shard-mates. A thread exits once every one of its links
//!   has closed. [`EngineMode::Serial`](crate::EngineMode) runs over the
//!   same fleet.
//! * **Server collector** — phase 2 partitions the links into contiguous
//!   chunks, one scoped pool thread per chunk. Each link's rules are its
//!   [`LinkRound`] machine's (`crate::protocol`); the collector does the
//!   I/O and turns every wait the machine names into a timer on the link:
//!   when its frame reaches the wire (shaped transmission time — computed
//!   from the booked frame size — or retransmit backoff plus it; the frame
//!   itself is staged when that timer fires, into the vector the transport
//!   takes, so no download outlives its send on this side), when its wait
//!   expires. Shaped sends therefore overlap across a chunk instead of
//!   summing, and no link can stall another.
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
//! which are preserved — every frame and every wait goes through the same
//! link machine as the serial oracle's, a link is never read while its
//! own frame is still in flight, results commit in participant order, and
//! the quorum target comes from the [`SendGate`]. Fault-free
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
    read_until_idle, stage_download, FleetCounters, FleetFootprint, Link, RpcConfig, ScriptedFault,
    Staged, WorkerHandle,
};
use crate::fault::FaultyTransport;
use crate::protocol::{
    FrameStep, Idle, LinkRound, SendGate, WorkerRound, WorkerScratch, WorkerState, WorkerStep,
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
    let (plan, kind) = (&config.fault, config.transport);
    let lossy = plan.is_active();
    let mut joins: Vec<JoinHandle<FleetFootprint>> = Vec::new();
    match config.transport {
        TransportKind::InMemory => {
            let mut handles: Vec<WorkerHandle> = Vec::with_capacity(n);
            for lo in (0..n).step_by(shard_len) {
                let hi = (lo + shard_len).min(n);
                let mut fleet: Vec<FleetMember> = Vec::with_capacity(hi - lo);
                for (i, p) in participants.iter().enumerate().take(hi).skip(lo) {
                    let (server_end, worker_end) = ChannelTransport::pair();
                    let link = FaultyTransport::new(Box::new(server_end) as _, i, plan);
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
                    fleet_loop(fleet, net, dataset, kind, lossy, counters)
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
                    fleet_loop(fleet, net, dataset, kind, lossy, counters)
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
                slots[id] = Some(FaultyTransport::new(Box::new(t) as _, id, plan));
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
/// it held. One supernet and one [`WorkerScratch`] serve the whole shard:
/// each download is trained in place on the supernet's selected slots,
/// whose layers keep their backward caches and workspaces warm from one
/// participant to the next (an operation the next mask drops is
/// released, so the thread holds one sub-model's activations). Every
/// selected weight and buffer is overwritten from the wire before use,
/// gradients are zeroed over the selection, nothing outside it is read,
/// and every cache and scratch buffer is written before it is read, so
/// sharing them cannot leak state across participants. `lossy` is whether
/// the links' fault plan is active: only then do the workers cache their
/// replies.
fn fleet_loop(
    fleet: Vec<FleetMember>,
    net: SupernetConfig,
    dataset: SyntheticDataset,
    kind: TransportKind,
    lossy: bool,
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
                state: WorkerState::new(participant, fault, residual, lossy),
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
                match m
                    .state
                    .handle_frame(&mut supernet, theta_len, &dataset, &mut scratch, &frame)
                {
                    WorkerStep::Send(reply) => {
                        let _ = link.send(reply);
                    }
                    WorkerStep::SendOwned(reply) => {
                        let _ = link.send_owned(reply);
                    }
                    WorkerStep::Silent => {}
                    WorkerStep::Exit => break true,
                    WorkerStep::Delay(d) => {
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
        let mut links: Vec<(LinkRound, bool)> = Vec::with_capacity(chunk.len());
        for (i, w) in chunk.iter_mut().enumerate() {
            let p = base + i;
            if !eligible[p] {
                continue;
            }
            let link = s.link(p, Instant::now());
            // not watched until its download is out: a link is never read
            // while its own frame is in flight
            let token = links.len();
            let transport = w.transport.as_mut().expect("live worker has transport");
            self.waiter.register(token, transport);
            self.waiter.watch(token, false);
            self.timers.set(token, link.ship_at());
            links.push((link, false));
        }
        // whether this thread has seen the on-time count reach the target
        let mut met_seen = false;
        let mut remaining = links.len();
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
                ready.extend(0..links.len());
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
                let (link, done) = &mut links[token];
                if !*done && self.service(token, link, &mut chunk[link.p - base]) {
                    *done = true;
                    remaining -= 1;
                    self.timers.set(token, None);
                    self.waiter.watch(token, false);
                }
            }
        }
        // later frames on these links are the next round's to find
        for (link, _) in &links {
            let transport = chunk[link.p - base].transport.as_mut();
            transport
                .expect("live worker has transport")
                .set_waker(None);
        }
        links.into_iter().map(|(l, _)| (l.p, l.wr)).collect()
    }

    /// Moves one link as far as it goes without waiting: reads it until
    /// it reports idle (the fault layer can queue a duplicate nothing
    /// announces) unless its own frame is in flight, then does what its
    /// machine asks — send the frame now (staged here, so the collectors
    /// fill the cohort's frames in parallel, and handed to the transport
    /// whole), release a held frame, or set the timer that ends this wait.
    /// Returns whether the link's round is over.
    fn service(&mut self, token: usize, link: &mut LinkRound, w: &mut WorkerHandle) -> bool {
        let s = self.s;
        loop {
            if link.ship_at().is_none() && read_until_idle(link, w, s) {
                return true;
            }
            let transport = w.transport.as_mut().expect("live worker has transport");
            match link.on_idle(Instant::now(), s, self.quorum, transport.next_due()) {
                Idle::Ship { first } => {
                    let ship_start = Instant::now();
                    let sent = transport.send_deferred(stage_download(link.p, s));
                    if first {
                        self.gate.record(sent.is_ok());
                        link.wr.ship_ns += ship_start.elapsed().as_nanos() as u64;
                    }
                    if sent.is_err() {
                        w.alive = false;
                        return true;
                    }
                    link.sent(Instant::now(), s);
                    self.waiter.watch(token, true);
                }
                Idle::ShipAt(at) => {
                    self.timers.set(token, Some(at));
                    self.waiter.watch(token, false);
                    return false;
                }
                Idle::WaitUntil(until) => {
                    self.timers.set(token, until);
                    return false;
                }
                Idle::ReleaseHeld => {
                    let held = transport.release_held();
                    if held.is_some_and(|frame| link.on_frame(&frame, s) == FrameStep::Settled) {
                        return true;
                    }
                }
                // late: the reply, if any, surfaces next round
                Idle::Late => return true,
            }
        }
    }
}
