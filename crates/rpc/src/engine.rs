//! Deadline-driven round engine.
//!
//! Participants live behind their own [`Transport`] links and are driven
//! from one bounded pool of worker threads (see `crate::reactor`). Per
//! round the engine gathers each sub-model's weights out of the round's
//! flat θ into a [`Message::DownloadSubmodel`] frame, ships it, then collects
//! [`Message::UploadUpdate`] replies under a per-participant deadline with
//! bounded, backed-off retries. Replies that surface after their round's
//! deadline are attributed to the round they were computed in and handed
//! to the server as *late* reports, which flow into the soft-sync
//! staleness path.
//!
//! A round is four phases over one `RoundCtx`: `service_evicted`,
//! `book_downloads`, `collect` and `commit`. Every per-link rule — ship,
//! deadline, quorum drain, retransmit, the on-time gate, late attribution,
//! and on the worker side the reply cache — is written once, in the sans-IO
//! machines of `crate::protocol`. `collect` drives them from the event
//! loop of `crate::reactor`, or, for [`EngineMode::Serial`], in
//! participant order, blocking on one link at a time; either stages each
//! download frame at the moment its link ships it, into the vector the
//! transport takes.
//!
//! Who owns what: a participant keeps only what must survive a round —
//! its data, its residual, its fault script, the replies a displaced
//! download can still ask for and the numbers of the rounds it answered
//! (`WorkerState`); every scratch buffer belongs to the pool thread that
//! happens to run the participant (`WorkerScratch`), and so does the
//! supernet its download is trained on in place. The server keeps a
//! link and four counters per participant (`WorkerHandle`) and, per
//! round, one dense record of what shipped (`History`).
//!
//! Graceful degradation: with [`RpcConfig::quorum_frac`] below `1.0` a
//! round commits as soon as the quorum of eligible workers has reported;
//! stragglers only get a short drain window and their replies surface
//! late. A worker that misses [`RpcConfig::evict_after`] consecutive
//! rounds is *evicted* — it no longer receives downloads, but every round
//! the engine drains its link, attributes any buffered late replies, and
//! sends a liveness probe; a heartbeat reply re-admits it.
//!
//! Population churn: when the server samples a per-round cohort from an
//! enrolled population, [`RoundRequest::active`] marks the slots whose
//! sampled client is out this round. Inactive slots are skipped entirely
//! — no download, no wait, no quorum membership — and the quorum target
//! is derived from the *active* eligible workers only. Scheduled churn is
//! decided (and checkpointed) server-side; the engine's own timeout →
//! staleness → eviction machinery keeps handling transport-level faults,
//! and heartbeat re-admission composes with the availability schedule
//! because an evicted worker's link is only serviced on rounds its slot
//! is active. Re-admission itself is a fresh start — see `readmit`.
//!
//! Determinism: worker `p` runs the step the in-process path runs —
//! `Participant::train_round`, which derives the round's RNG stream from
//! the shipped `seed_base` — on the same shipped weights, and reports are
//! sorted by participant id before aggregation — so a fault-free RPC
//! search is bit-identical to an in-process one. Injected faults come from the
//! seeded schedule of [`FaultPlan`], and every *recoverable* fault is
//! masked by the retry/idempotence machinery, so the search result is
//! unchanged under a recoverable fault plan too.
//!
//! Robustness: with [`RpcConfig::update_norm_bound`] set, every on-time
//! reply passes a validation gate (shape, finiteness, L2 norm) before it
//! counts; rejected replies are tallied by cause in
//! [`RoundOutcome::rejects`], never reach aggregation, and feed the
//! eviction machinery — a worker evicted while its replies were being
//! rejected is flagged as suspected Byzantine. Scripted
//! [`Attack`]s on [`ScriptedFault::attack`]
//! corrupt the uploaded model update deterministically, providing the
//! adversarial side of that contract.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fedrlnas_codec::CodecConfig;
use fedrlnas_core::{RoundBackend, RoundOutcome, RoundRequest, SearchServer};
use fedrlnas_darts::{ArchMask, SupernetConfig};
use fedrlnas_data::SyntheticDataset;
use fedrlnas_fed::Participant;
use fedrlnas_netsim::resolve_codec;

use crate::adversary::Attack;
use crate::fault::{mix, FaultPlan, FaultyTransport};
use crate::protocol::{on_evicted_frame, quorum_target, FrameStep, Idle, LinkRound, WorkerRound};
use crate::transport::{send_delay, Doorbell, Transport, TransportError};
use crate::waiter::Waiter;
use crate::wire::{
    coded_download_frame_len, download_frame_len, encode, encode_download_ranges_into, Message,
};

/// How many rounds of sent-mask / delivery history to keep for late-reply
/// attribution; anything older than this is unattributable and dropped
/// (the staleness threshold is far smaller in practice). A worker
/// remembers the *numbers* of that many answered rounds.
pub(crate) const HISTORY_ROUNDS: usize = 16;

/// Hard cap on any single backoff sleep.
const MAX_BACKOFF: Duration = Duration::from_secs(2);

/// Default for [`RpcConfig::quorum_drain`]: how long a straggler's link
/// is drained once the quorum is already met.
pub(crate) const QUORUM_DRAIN: Duration = Duration::from_millis(5);

/// How long a round waits, once, on the links of its evicted workers: what
/// a heartbeat answering last round's probe may still be in flight for. A
/// worker sends it within microseconds of its thread's last reply of that
/// round, and without the wait the two race.
const EVICTED_DRAIN: Duration = Duration::from_millis(2);

/// Which transport the engine runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-memory duplex channels — no sockets, no syscalls.
    InMemory,
    /// Loopback TCP (`127.0.0.1`), one connection per participant.
    Tcp,
}

/// How phase 2 (ship + collect) of a round is driven. Both run over the
/// same pooled worker fleet and the same frame path, and commit in
/// participant order, so the round outcome (reports, byte counts,
/// `CommStats`) depends only on the *set* of on-time replies and each
/// link's content order — see DESIGN.md "Round engine".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// The test oracle: the same link machines, links visited in
    /// participant order — ship every download (sleeping to each shaped
    /// send), then block on one link at a time. Kept only as the reference
    /// the equivalence suites and benches compare against.
    Serial,
    /// The engine: a bounded pool of collector threads (see
    /// [`RpcConfig::reactor_threads`]), each asleep until one of its
    /// links has a frame or its earliest timer is due, then reading
    /// exactly the links that have one ([`Transport::poll_recv`]). Shaped
    /// sends, retransmit backoff, deadlines and the quorum drain are
    /// per-link timers, so they overlap across links and no pool thread
    /// ever blocks on one of them (see `crate::reactor`).
    #[default]
    Reactor,
}

/// Round-engine tuning knobs.
#[derive(Debug, Clone)]
pub struct RpcConfig {
    /// Transport implementation to use.
    pub transport: TransportKind,
    /// Round-execution strategy (serial is the reference the determinism
    /// suites compare against).
    pub engine: EngineMode,
    /// How long to wait for each participant's reply per attempt.
    pub deadline: Duration,
    /// How many times a timed-out download is retransmitted before the
    /// participant is declared late for the round.
    pub max_retries: usize,
    /// Base sleep before the first retransmission; grows exponentially
    /// (saturating, capped, jittered — see [`backoff_delay`]).
    pub retry_backoff: Duration,
    /// Stretch factor mapping simulated transmission time onto the real
    /// time a link's frame takes to reach the wire. `0.0` (the default)
    /// keeps the byte-accurate accounting without waiting.
    pub real_time_scale: f64,
    /// Fraction of eligible workers whose on-time reply commits the round
    /// (`1.0`, the default, waits for everyone — the legacy behaviour).
    pub quorum_frac: f64,
    /// How long a straggler's link is drained once the quorum is already
    /// met (defaults to the legacy 5ms constant, so existing byte-identity
    /// suites are unaffected).
    pub quorum_drain: Duration,
    /// Size of the worker-fleet pool and of the collector pool. `0` (the
    /// default) resolves from `FEDRLNAS_NUM_THREADS`, falling back to the
    /// machine's available parallelism; never more than one per link.
    pub reactor_threads: usize,
    /// Consecutive missed rounds after which a worker is evicted
    /// (`0` disables eviction).
    pub evict_after: usize,
    /// Seeded fault-injection plan applied to every server-side link
    /// endpoint; [`FaultPlan::none`] (the default) injects nothing.
    pub fault: FaultPlan,
    /// Reject any on-time reply whose model update exceeds this L2 norm
    /// (`None`, the default, disables the norm check; shape and
    /// finiteness are always enforced by the gate).
    pub update_norm_bound: Option<f32>,
    /// Update-compression codec for the upload path. Anything other than
    /// plain `fp32` makes every download a protocol-v2
    /// [`Message::DownloadSubmodelCoded`] carrying the per-participant
    /// codec choice (resolved from this config and the round's sampled
    /// bandwidth), and every reply a [`Message::UploadUpdateCoded`] whose
    /// gradient run the engine decodes *before* the validation gate.
    pub codec: CodecConfig,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            transport: TransportKind::InMemory,
            engine: EngineMode::default(),
            deadline: Duration::from_secs(5),
            max_retries: 2,
            retry_backoff: Duration::from_millis(10),
            real_time_scale: 0.0,
            quorum_frac: 1.0,
            quorum_drain: QUORUM_DRAIN,
            reactor_threads: 0,
            evict_after: 3,
            fault: FaultPlan::none(),
            update_norm_bound: None,
            codec: CodecConfig::default(),
        }
    }
}

/// Scripted failure for one worker — test harness for the timeout, retry,
/// staleness, eviction and re-admission paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScriptedFault {
    /// Worker exits silently upon receiving this round's download,
    /// simulating a permanent participant crash mid-round.
    pub die_at_round: Option<usize>,
    /// Worker holds the given round's download this long before computing
    /// its update, so the reply misses the deadline and arrives in a
    /// later round. Only this link waits: its pool thread keeps serving
    /// the rest of the shard.
    pub delay: Option<(usize, Duration)>,
    /// `(crash_round, rounds_down)` — the worker crashes upon receiving
    /// `crash_round`'s download (losing its reply cache), stays silent for
    /// `rounds_down` rounds, then answers the next liveness probe and
    /// resumes.
    pub crash_restart: Option<(usize, usize)>,
    /// Byzantine behaviour applied to every uploaded model update; the
    /// architecture gradient and reward stay honest (see
    /// [`crate::adversary`]).
    pub attack: Option<Attack>,
}

/// Exponential backoff with saturation and bounded deterministic jitter.
///
/// `base × 2^attempt`, saturating instead of overflowing, capped at two
/// seconds, then scaled into `[75%, 125%)` by a splitmix64 hash of
/// `(salt, attempt)` — deterministic, so identical runs sleep identically,
/// but distinct workers/rounds desynchronize instead of retrying in
/// lockstep.
pub fn backoff_delay(base: Duration, attempt: usize, salt: u64) -> Duration {
    let factor = 1u64.checked_shl(attempt.min(63) as u32).unwrap_or(u64::MAX);
    let factor = u32::try_from(factor).unwrap_or(u32::MAX);
    let raw = base.saturating_mul(factor).min(MAX_BACKOFF);
    let h = mix(salt ^ mix(attempt as u64 + 1));
    let frac = (h >> 11) as f64 / (1u64 << 53) as f64; // uniform [0, 1)
    raw.mul_f64(0.75 + 0.5 * frac).min(MAX_BACKOFF)
}

/// `Box<dyn Transport>` is itself a transport, so the engine can hold
/// heterogeneous endpoints behind one fault layer.
impl Transport for Box<dyn Transport> {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        (**self).send(frame)
    }

    fn send_owned(&mut self, frame: Vec<u8>) -> Result<(), TransportError> {
        (**self).send_owned(frame)
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        (**self).recv()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        (**self).recv_timeout(timeout)
    }

    fn poll_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        (**self).poll_recv()
    }

    fn set_waker(&mut self, waker: Option<(Arc<Doorbell>, usize)>) {
        (**self).set_waker(waker)
    }

    #[cfg(unix)]
    fn raw_fd(&self) -> Option<std::os::fd::RawFd> {
        (**self).raw_fd()
    }
}

/// Server-side link to one worker: fault injection over the raw transport.
pub(crate) type Link = FaultyTransport<Box<dyn Transport>>;

/// Everything the server keeps per participant between rounds: the link
/// and four counters. No frame-sized buffer lives here — a download frame
/// exists from the moment its link's send timer fires until the transport
/// has taken it.
pub(crate) struct WorkerHandle {
    pub(crate) transport: Option<Link>,
    /// `false` once the link itself is dead (peer hung up / socket error);
    /// a dead worker never comes back.
    pub(crate) alive: bool,
    /// Evicted for missing too many consecutive rounds; still probed each
    /// round and re-admitted on a heartbeat.
    pub(crate) evicted: bool,
    /// Consecutive rounds without an on-time reply.
    pub(crate) miss_streak: usize,
    /// Consecutive rounds whose reply the validation gate refused; an
    /// eviction while this is non-zero marks the worker suspected
    /// Byzantine.
    pub(crate) reject_streak: usize,
}

impl WorkerHandle {
    pub(crate) fn new(link: Link) -> Self {
        WorkerHandle {
            transport: Some(link),
            alive: true,
            evicted: false,
            miss_streak: 0,
            reject_streak: 0,
        }
    }

    /// Bytes the server holds for this participant between rounds: the
    /// handle, its boxed transport endpoint, and whatever the fault layer
    /// has held back or queued. (What sits inside a channel or a socket
    /// belongs to the frames in flight, not to the link.) Debug accounting
    /// for the O(pool) memory contract.
    fn resident_bytes(&self) -> usize {
        let link = self.transport.as_ref().map_or(0, |link| {
            link.heap_bytes() + std::mem::size_of_val(&**link.inner())
        });
        std::mem::size_of::<Self>() + link
    }
}

/// What the engine held when it was shut down, by owner — the O(pool)
/// memory contract in numbers: nothing frame-sized per link, two replies
/// per participant, one set of scratch buffers per pool thread. Debug
/// observability (see [`RpcBackend::into_resident_bytes`]).
#[derive(Debug)]
pub struct ResidentBytes {
    /// Server side, per participant: the worker handle, its transport
    /// endpoint and whatever its fault layer has held back or queued.
    /// What sits inside a channel or a socket belongs to the frames in
    /// flight, not to the link.
    pub links: Vec<usize>,
    /// Worker side, per participant: everything its state holds beyond
    /// the participant's own data — the cached replies above all.
    pub participants: Vec<usize>,
    /// The codec scratch of each fleet pool thread, counted once per
    /// thread however many participants it serves.
    pub pool_scratch: Vec<usize>,
}

/// What one fleet pool thread held when its last link closed.
pub(crate) struct FleetFootprint {
    /// The thread's `WorkerScratch`, counted once however many
    /// participants it served.
    pub(crate) scratch_bytes: usize,
    /// `WorkerState::resident_bytes` of each participant on the thread.
    pub(crate) participant_bytes: Vec<usize>,
}

/// The server-side round engine; implements [`RoundBackend`].
pub struct RpcBackend {
    workers: Vec<WorkerHandle>,
    /// Join handles for the pooled worker-fleet threads (one per pool
    /// thread, not per participant).
    pool_joins: Vec<JoinHandle<FleetFootprint>>,
    config: RpcConfig,
    /// What the last [`HISTORY_ROUNDS`] rounds shipped to whom and which
    /// of those replies the server has already been handed.
    history: History,
    /// Per-worker error-feedback residuals, shared with the worker
    /// threads; the authoritative copy for checkpointing.
    residuals: Vec<Arc<Mutex<Vec<f32>>>>,
    /// Distinct architectures among the slots the last round shipped to.
    distinct_masks: usize,
    /// What the fleet threads count as they run.
    fleet: FleetCounters,
    /// Times a collector thread came back from its blocking wait.
    engine_wakeups: Arc<AtomicU64>,
}

/// Counters every fleet pool thread shares with the backend. Debug
/// observability, outside `CommStats` and checkpoints.
#[derive(Clone, Default)]
pub(crate) struct FleetCounters {
    /// Times a pool thread's codec scratch grew its capacity: the
    /// zero-steady-state-growth contract.
    pub(crate) growth: Arc<AtomicU64>,
    /// Times a pool thread came back from its blocking wait.
    pub(crate) wakeups: Arc<AtomicU64>,
}

/// A fixed-size set of participant indices.
#[derive(Default)]
struct Bits(Vec<u64>);

impl Bits {
    fn with_len(n: usize) -> Self {
        Bits(vec![0; n.div_ceil(64)])
    }

    /// Whether `i` is in the set; an index past the end is not.
    fn get(&self, i: usize) -> bool {
        self.0.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Adds `i`; an index past the end is ignored.
    fn set(&mut self, i: usize) {
        if let Some(w) = self.0.get_mut(i / 64) {
            *w |= 1 << (i % 64);
        }
    }
}

/// What one round shipped, indexed by participant slot.
pub(crate) struct RoundRecord {
    round: usize,
    /// The round's masks, cloned once.
    masks: Vec<ArchMask>,
    /// Flat-gradient length a reply from each slot must have (the gate
    /// and the coded decode trust only this); meaningful where `booked`.
    expected_lens: Vec<usize>,
    /// Slots a download was booked for — nothing ships to an inactive
    /// slot, so there is no reply to attribute to it.
    booked: Bits,
    /// Slots whose reply the server has already been handed, so
    /// retransmission-induced duplicates are dropped.
    delivered: Bits,
}

/// The attribution books: late replies carry only their round number and
/// participant id, so the mask and the trusted decode length are
/// recovered here, and a `(round, participant)` is handed to the server
/// once. One dense record per round, at most [`HISTORY_ROUNDS`] of them.
#[derive(Default)]
pub(crate) struct History {
    records: Vec<RoundRecord>,
}

impl History {
    /// Drops the records beyond the late-reply horizon of round `t`.
    fn prune(&mut self, t: usize) {
        self.records.retain(|r| r.round + HISTORY_ROUNDS > t);
    }

    /// Opens round `round`'s record over `masks`, nothing booked yet.
    pub(crate) fn open(&mut self, round: usize, masks: &[ArchMask]) -> &mut RoundRecord {
        let n = masks.len();
        self.records.retain(|r| r.round != round);
        self.records.push(RoundRecord {
            round,
            masks: masks.to_vec(),
            expected_lens: vec![0; n],
            booked: Bits::with_len(n),
            delivered: Bits::with_len(n),
        });
        self.records.last_mut().expect("just pushed")
    }

    fn record(&self, round: usize) -> Option<&RoundRecord> {
        self.records.iter().find(|r| r.round == round)
    }

    /// The mask and flat-gradient length shipped to `pid` in `round`, if
    /// that is still on the books.
    pub(crate) fn sent(&self, round: usize, pid: usize) -> Option<(&ArchMask, usize)> {
        let rec = self.record(round)?;
        rec.booked
            .get(pid)
            .then(|| (&rec.masks[pid], rec.expected_lens[pid]))
    }

    /// Whether `pid`'s reply for `round` was already handed to the server.
    pub(crate) fn is_delivered(&self, round: usize, pid: usize) -> bool {
        self.record(round).is_some_and(|r| r.delivered.get(pid))
    }

    pub(crate) fn mark_delivered(&mut self, round: usize, pid: usize) {
        if let Some(rec) = self.records.iter_mut().find(|r| r.round == round) {
            rec.delivered.set(pid);
        }
    }
}

impl RoundRecord {
    /// Books slot `p`'s download: a reply from `p` must carry a
    /// flat gradient of `expected_len`.
    pub(crate) fn book(&mut self, p: usize, expected_len: usize) {
        self.expected_lens[p] = expected_len;
        self.booked.set(p);
    }
}

impl RpcBackend {
    /// Spawns the pooled worker fleet and wires one transport per
    /// participant.
    ///
    /// Workers clone the participant state (data-loader cursor included);
    /// see [`RpcBackend::with_faults`] for what the fleet holds.
    pub fn new(
        participants: &[Participant],
        net: &SupernetConfig,
        dataset: &SyntheticDataset,
        config: RpcConfig,
    ) -> RpcBackend {
        Self::with_faults(participants, net, dataset, config, &[])
    }

    /// [`RpcBackend::new`] with per-worker scripted faults (index-aligned;
    /// missing entries mean no fault).
    ///
    /// Each fleet pool thread builds one supernet locally and trains every
    /// download of its shard in place on it: the download's weights and
    /// buffers overwrite the slots its mask selects before the step, so
    /// the worker-side initialization, and the participant the thread ran
    /// before, never leak into training. Between downloads a thread holds
    /// that supernet, the selection it last trained and one sub-model's
    /// activations.
    pub fn with_faults(
        participants: &[Participant],
        net: &SupernetConfig,
        dataset: &SyntheticDataset,
        config: RpcConfig,
        faults: &[ScriptedFault],
    ) -> RpcBackend {
        let residuals: Vec<Arc<Mutex<Vec<f32>>>> = participants
            .iter()
            .map(|p| Arc::new(Mutex::new(p.residual().to_vec())))
            .collect();
        let fleet = FleetCounters::default();
        let (workers, pool_joins) = crate::reactor::spawn_pooled_workers(
            participants,
            net,
            dataset,
            faults,
            &config,
            &residuals,
            &fleet,
        );
        RpcBackend {
            workers,
            pool_joins,
            config,
            history: History::default(),
            residuals,
            distinct_masks: 0,
            fleet,
            engine_wakeups: Arc::default(),
        }
    }

    /// Number of workers whose link is up (evicted ones included).
    pub fn live_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.alive).count()
    }

    /// Number of currently evicted workers.
    pub fn evicted_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.alive && w.evicted).count()
    }

    /// How many times a reusable hot-path buffer — the codec scratch each
    /// fleet pool thread lends to whichever participant it is running —
    /// had to grow its capacity since the backend was created. Those
    /// buffers are grow-only, so once every thread has seen its largest
    /// payload this count must stop increasing. (Frames are not reused
    /// buffers: a download is staged into the vector the transport takes,
    /// a reply into the vector the worker's cache keeps, each sized
    /// exactly once.) Debug observability; asserted by the buffer-reuse
    /// test.
    pub fn buffer_growth_count(&self) -> u64 {
        self.fleet.growth.load(Ordering::Relaxed)
    }

    /// How many times an event-loop thread has come back from its
    /// blocking wait since the backend was created: `(collectors, fleet)`.
    /// A loop sleeps until a frame has arrived on one of its links or a
    /// timer is due, so over a round each count stays within a small
    /// multiple of the frames that side received plus the timers it
    /// fired — not of the round's length. Debug observability; asserted
    /// by the wake-up tests and the transport bench's ceiling.
    pub fn wakeups(&self) -> (u64, u64) {
        let fleet = self.fleet.wakeups.load(Ordering::Relaxed);
        (self.engine_wakeups.load(Ordering::Relaxed), fleet)
    }

    /// How many distinct architectures the last round shipped (inactive
    /// slots excluded) — the number an encode-once-per-mask scheme would
    /// have to beat the cohort size by. Early in a search the policy is
    /// near-uniform and this sits at the cohort size. Debug observability,
    /// outside `CommStats` and checkpoints.
    pub fn distinct_masks_last_round(&self) -> usize {
        self.distinct_masks
    }
}

/// Slot `p`'s download for this round, in a vector of exactly its booked
/// size: the ranges the layout names for `masks[p]`, copied out of the
/// round's flat θ and buffer snapshot. Those ranges' concatenation is the
/// extracted sub-model's own visit order (see
/// [`SupernetLayout`](fedrlnas_darts::SupernetLayout)), so the frame is
/// byte for byte the one encoded from `extract_submodel(masks[p])`. Both
/// modes stage through here, each frame on the thread that ships it at the
/// moment it ships — a retransmit stages again, from the same request and
/// hence to the same bytes — and the transport takes the vector.
pub(crate) fn stage_download(p: usize, s: &Staged<'_>) -> Vec<u8> {
    let req = s.req;
    let mask = &req.masks[p];
    // fp32 stays byte-identical to the pre-codec protocol; otherwise the
    // codec is resolved per participant from this round's sampled link
    // speed
    let codec = (!s.config.codec.is_fp32()).then(|| {
        let spec = resolve_codec(s.config.codec, req.bandwidths_mbps[p]);
        (spec.tag(), spec.param())
    });
    let mut frame = Vec::with_capacity(s.frame_bytes[p] as usize);
    encode_download_ranges_into(
        &mut frame,
        req.round as u64,
        req.seed_base,
        mask,
        req.theta,
        req.layout.param_ranges(mask),
        req.buffers,
        req.layout.buffer_ranges(mask),
        req.alpha_logits,
        codec,
    );
    debug_assert_eq!(frame.len() as u64, s.frame_bytes[p], "booked size is exact");
    frame
}

/// What every collector of one round reads: the request its downloads
/// are staged from, each slot's booked frame size, the attribution books
/// as of the start of phase 2 (complete for each link's own keys, because
/// only that link delivers them) and the shared on-time counter.
pub(crate) struct Staged<'a> {
    pub(crate) config: &'a RpcConfig,
    pub(crate) req: &'a RoundRequest<'a>,
    /// Exact size of each slot's download frame (`0` where none ships):
    /// what a shaped link's send timer is armed from before the frame
    /// exists.
    pub(crate) frame_bytes: &'a [u64],
    pub(crate) history: &'a History,
    pub(crate) on_time: &'a AtomicUsize,
}

impl Staged<'_> {
    /// Slot `p`'s link machine for this round from `now`: its frame
    /// reaches the wire the shaped transmission time after it is due.
    pub(crate) fn link(&self, p: usize, now: Instant) -> LinkRound {
        let (bytes, mbps) = (self.frame_bytes[p] as usize, self.req.bandwidths_mbps[p]);
        LinkRound::new(p, now, send_delay(bytes, mbps, self.config.real_time_scale))
    }
}

/// Reads the link until it reports idle, feeding each frame to its
/// machine. Returns whether the link's round is over: settled, or the
/// link dead.
pub(crate) fn read_until_idle(link: &mut LinkRound, w: &mut WorkerHandle, s: &Staged<'_>) -> bool {
    let transport = w.transport.as_mut().expect("live worker has transport");
    loop {
        let poll_start = Instant::now();
        let polled = transport.poll_recv();
        let polled_ns = poll_start.elapsed().as_nanos() as u64;
        link.wr.collect_ns = link.wr.collect_ns.saturating_add(polled_ns);
        match polled {
            Ok(Some(frame)) if link.on_frame(&frame, s) == FrameStep::Settled => return true,
            Ok(Some(_)) => {}
            Ok(None) => return false,
            Err(_) => {
                w.alive = false;
                return true;
            }
        }
    }
}

/// [`EngineMode::Serial`]: the link machines, visited in participant
/// order. Every download ships first, the oracle sleeping to each link's
/// ship time; then, the quorum target known, each link in turn is driven
/// until it settles, blocking on it alone.
fn collect_serial(
    workers: &mut [WorkerHandle],
    eligible: &[bool],
    s: &Staged<'_>,
) -> Vec<(usize, WorkerRound)> {
    let mut links = Vec::new();
    for (p, w) in workers.iter_mut().enumerate() {
        if eligible[p] {
            let mut link = s.link(p, Instant::now());
            let ship_start = Instant::now();
            ship_blocking(&mut link, w, s);
            link.wr.ship_ns = ship_start.elapsed().as_nanos() as u64;
            links.push(link);
        }
    }
    let shipped = links.iter().filter(|l| workers[l.p].alive).count();
    let target = quorum_target(s.config.quorum_frac, shipped);
    for link in &mut links {
        if workers[link.p].alive {
            drive_blocking(link, &mut workers[link.p], s, target);
        }
    }
    links.into_iter().map(|l| (l.p, l.wr)).collect()
}

/// Sleeps to the link's ship time, then stages and sends its frame. A
/// link that cannot take it is dead.
fn ship_blocking(link: &mut LinkRound, w: &mut WorkerHandle, s: &Staged<'_>) -> bool {
    if let Some(at) = link.ship_at() {
        std::thread::sleep(at.saturating_duration_since(Instant::now()));
    }
    let transport = w.transport.as_mut().expect("live worker has transport");
    let sent = transport.send_owned(stage_download(link.p, s)).is_ok();
    match sent {
        true => link.sent(Instant::now(), s),
        false => w.alive = false,
    }
    sent
}

/// The oracle's phase 2 for one link: read it until idle, ask its machine
/// what next and block on that alone — a sleep to a ship time, or
/// `recv_timeout` to the end of the wait — until the link settles, is
/// late or dies. Its waits run from when the oracle reached it.
fn drive_blocking(link: &mut LinkRound, w: &mut WorkerHandle, s: &Staged<'_>, target: usize) {
    let known_at = Instant::now();
    loop {
        if link.ship_at().is_none() && read_until_idle(link, w, s) {
            return;
        }
        let transport = w.transport.as_mut().expect("live worker has transport");
        let now = Instant::now();
        let frame = match link.on_idle(now, s, Some((target, known_at)), transport.next_due()) {
            Idle::Ship { .. } | Idle::ShipAt(_) => match ship_blocking(link, w, s) {
                true => continue,
                false => return,
            },
            Idle::WaitUntil(until) => {
                let until = until.expect("the quorum target is known");
                let wait_start = Instant::now();
                let received = transport.recv_timeout(until.saturating_duration_since(now));
                let waited_ns = wait_start.elapsed().as_nanos() as u64;
                link.wr.collect_ns = link.wr.collect_ns.saturating_add(waited_ns);
                match received {
                    Ok(frame) => frame,
                    Err(TransportError::Timeout) => continue,
                    Err(_) => {
                        w.alive = false;
                        return;
                    }
                }
            }
            Idle::ReleaseHeld => match transport.release_held() {
                Some(frame) => frame,
                None => continue,
            },
            Idle::Late => return, // the reply, if any, surfaces next round
        };
        if link.on_frame(&frame, s) == FrameStep::Settled {
            return;
        }
    }
}

/// Re-admits an evicted worker after a heartbeat. Re-admission is a
/// fresh start: besides the miss streak, the *reject* streak is cleared
/// too, so Byzantine suspicion must be re-earned by fresh misbehaviour —
/// a flapping but honest client is never permanently poisoned by the
/// rejections that preceded an earlier eviction. `suspected_byzantine`
/// counts eviction *events* that happened while replies were being
/// refused; clearing the streak here never un-counts those events.
fn readmit(w: &mut WorkerHandle, out: &mut RoundOutcome) {
    w.evicted = false;
    w.miss_streak = 0;
    w.reject_streak = 0;
    out.churn.readmitted += 1;
}

/// Commits one worker's phase-2 results into the round outcome and
/// applies the miss/reject streak + eviction transition.
fn merge_worker_round(
    out: &mut RoundOutcome,
    history: &mut History,
    w: &mut WorkerHandle,
    wr: WorkerRound,
    config: &RpcConfig,
) {
    let (got, rejected) = (wr.got, wr.rejected);
    fold_round(out, history, wr);
    if got {
        w.miss_streak = 0;
        w.reject_streak = 0;
    } else if w.alive {
        w.miss_streak += 1;
        if rejected {
            w.reject_streak += 1;
        }
        if config.evict_after > 0 && w.miss_streak >= config.evict_after {
            w.evicted = true;
            out.faults.evictions = out.faults.evictions.saturating_add(1);
            if w.reject_streak > 0 {
                // evicted while its uploads were being refused:
                // misbehaving, not merely slow
                out.rejects.suspected_byzantine += 1;
            }
        }
    }
}

/// Folds what one link delivered into the round outcome and the books.
fn fold_round(out: &mut RoundOutcome, history: &mut History, wr: WorkerRound) {
    out.bytes_up += wr.bytes_up;
    out.bytes_down += wr.bytes_down;
    out.faults.retransmits = out.faults.retransmits.saturating_add(wr.retransmits);
    for (r, pid) in wr.delivered {
        history.mark_delivered(r, pid);
    }
    for (c, raw, enc) in wr.comp {
        out.compression.record(c, raw, enc);
    }
    out.reports.extend(wr.reports);
    out.late.extend(wr.late);
    out.rejects.merge(&wr.rejects);
    out.timings.ship_ns = out.timings.ship_ns.saturating_add(wr.ship_ns);
    out.timings.collect_ns = out.timings.collect_ns.saturating_add(wr.collect_ns);
    out.timings.decode_ns = out.timings.decode_ns.saturating_add(wr.decode_ns);
    out.timings.validate_ns = out.timings.validate_ns.saturating_add(wr.validate_ns);
}

/// One round in flight — the request and the outcome under construction —
/// handed through the phases in order: [`RpcBackend::service_evicted`],
/// [`RpcBackend::book_downloads`], [`RpcBackend::collect`],
/// [`RpcBackend::commit`].
struct RoundCtx<'a> {
    req: RoundRequest<'a>,
    out: RoundOutcome,
}

impl RpcBackend {
    /// Phase 0: drain whatever the evicted workers' links buffered (late
    /// replies are attributed, a heartbeat re-admits), then probe the
    /// still-evicted for life. All of them share one [`EVICTED_DRAIN`]
    /// wait, so the phase costs that however many there are. Slots whose
    /// sampled client is out this round are skipped: an unavailable
    /// client can neither be probed nor heartbeat back, so re-admission
    /// composes with the availability schedule.
    fn service_evicted(&mut self, ctx: &mut RoundCtx<'_>) {
        let t = ctx.req.round;
        let evicted: Vec<usize> = (0..self.workers.len())
            .filter(|&p| {
                let w = &self.workers[p];
                w.alive && w.evicted && ctx.req.is_active(p)
            })
            .collect();
        if evicted.is_empty() {
            return;
        }
        let mut waiter = Waiter::new(self.config.transport, self.engine_wakeups.clone());
        for (token, &p) in evicted.iter().enumerate() {
            let link = self.workers[p].transport.as_mut();
            waiter.register(token, link.expect("live worker has transport"));
        }
        // what the links deliver, folded into the round once the wait is over
        let mut drained = WorkerRound::default();
        let until = Instant::now() + EVICTED_DRAIN;
        let mut ready: Vec<usize> = (0..evicted.len()).collect();
        loop {
            for token in ready.drain(..) {
                let p = evicted[token];
                let w = &mut self.workers[p];
                loop {
                    let link = w.transport.as_mut().expect("live worker has transport");
                    match link.poll_recv() {
                        Ok(Some(frame)) => {
                            if on_evicted_frame(&mut drained, &frame, p, t, &self.history) {
                                readmit(w, &mut ctx.out);
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            // the probe below finds the link dead; until
                            // then a hung-up socket must not end the wait
                            waiter.watch(token, false);
                            break;
                        }
                    }
                }
            }
            if Instant::now() >= until {
                break;
            }
            waiter.wait(Some(until), 1, &mut ready);
        }
        for p in evicted {
            let w = &mut self.workers[p];
            let link = w.transport.as_mut().expect("live worker has transport");
            link.set_waker(None);
            // the wait is over: release a reorder-held frame rather than
            // lose it, as the collectors do when theirs expires
            if let Some(held) = link.release_held() {
                if on_evicted_frame(&mut drained, &held, p, t, &self.history) {
                    readmit(w, &mut ctx.out);
                }
            }
            if w.evicted {
                let link = w.transport.as_mut().expect("live worker has transport");
                let probe = encode(&Message::Ack { round: t as u64 });
                match link.send(&probe) {
                    Ok(()) => ctx.out.bytes_down += probe.len() as u64,
                    Err(_) => w.alive = false,
                }
            }
        }
        fold_round(&mut ctx.out, &mut self.history, drained);
    }

    /// Phase 1: book what ships to whom, from the layout alone — the
    /// architecture and the gradient length a reply must have (the gate
    /// checks against it), the exact size of the frame, and how many
    /// distinct architectures the round carries. Nothing ships to an
    /// inactive slot: not booked in the round's record (there is no reply
    /// to attribute), zero measured download bytes. The frames themselves
    /// come to exist in phase 2, each when its link ships it.
    fn book_downloads(&mut self, ctx: &mut RoundCtx<'_>) {
        let book_start = Instant::now();
        let req = &ctx.req;
        let k = req.masks.len();
        let frame_len = if self.config.codec.is_fp32() {
            download_frame_len
        } else {
            coded_download_frame_len
        };
        let record = self.history.open(req.round, req.masks);
        let mut distinct = HashSet::with_capacity(k);
        for (p, mask) in req.masks.iter().enumerate() {
            if !req.is_active(p) {
                continue;
            }
            let weights = req.layout.submodel_param_count(mask);
            let buffers = req.layout.submodel_buffer_count(mask);
            let bytes = frame_len(mask.num_edges(), weights, buffers, req.alpha_logits.len());
            ctx.out.download_frame_bytes[p] = bytes as u64;
            record.book(p, weights);
            distinct.insert(mask);
        }
        self.distinct_masks = distinct.len();
        ctx.out.timings.ship_ns = book_start.elapsed().as_nanos() as u64;
    }

    /// Phase 2: stage and ship the booked downloads and collect replies
    /// under deadline + quorum + retry — once the quorum has reported,
    /// stragglers only get a short drain window and no retransmissions.
    /// Every frame is staged by [`stage_download`] on the thread that
    /// drives its link, so the collector pool fills the cohort's frames in
    /// parallel.
    /// Returns each eligible worker's results in participant order.
    fn collect(&mut self, ctx: &RoundCtx<'_>) -> Vec<(usize, WorkerRound)> {
        let k = ctx.req.masks.len().min(self.workers.len());
        let workers = &mut self.workers[..k];
        let eligible: Vec<bool> = workers
            .iter()
            .enumerate()
            .map(|(p, w)| w.alive && !w.evicted && ctx.req.is_active(p))
            .collect();
        let on_time = AtomicUsize::new(0);
        let staged = Staged {
            config: &self.config,
            req: &ctx.req,
            frame_bytes: &ctx.out.download_frame_bytes,
            history: &self.history,
            on_time: &on_time,
        };
        match self.config.engine {
            EngineMode::Serial => collect_serial(workers, &eligible, &staged),
            EngineMode::Reactor => {
                crate::reactor::collect(workers, &eligible, &staged, &self.engine_wakeups)
            }
        }
    }

    /// Phase 3: commit every worker's results in participant order, fold
    /// the per-link injected-fault counters in, and sort the reports into
    /// the in-process path's aggregation order.
    fn commit(&mut self, ctx: &mut RoundCtx<'_>, rounds: Vec<(usize, WorkerRound)>) {
        let out = &mut ctx.out;
        for (p, wr) in rounds {
            let w = &mut self.workers[p];
            merge_worker_round(out, &mut self.history, w, wr, &self.config);
        }
        for w in self.workers.iter_mut() {
            if let Some(link) = w.transport.as_mut() {
                out.faults.merge(&link.take_tally());
            }
        }
        out.reports.sort_by_key(|r| r.participant);
        out.late.sort_by_key(|r| (r.computed_at, r.participant));
    }
}

impl RoundBackend for RpcBackend {
    fn run_round(&mut self, request: RoundRequest<'_>) -> RoundOutcome {
        let t = request.round;
        let mut ctx = RoundCtx {
            out: RoundOutcome {
                download_frame_bytes: vec![0; request.masks.len()],
                ..Default::default()
            },
            req: request,
        };
        self.history.prune(t);
        self.service_evicted(&mut ctx);
        self.book_downloads(&mut ctx);
        let rounds = self.collect(&ctx);
        self.commit(&mut ctx, rounds);
        ctx.out
    }

    fn describe(&self) -> String {
        match self.config.transport {
            TransportKind::InMemory => "in-memory".to_string(),
            TransportKind::Tcp => "loopback-tcp".to_string(),
        }
    }

    fn collect_residuals(&mut self) -> Option<Vec<Vec<f32>>> {
        if self.config.codec.is_fp32() {
            return None; // no compression: server participants stay authoritative
        }
        Some(
            self.residuals
                .iter()
                .map(|r| r.lock().expect("residual lock").clone())
                .collect(),
        )
    }
}

impl RpcBackend {
    /// Shuts the engine down and reports what it held, by owner.
    pub fn into_resident_bytes(mut self) -> ResidentBytes {
        let links = self
            .workers
            .iter()
            .map(WorkerHandle::resident_bytes)
            .collect();
        let fleet = self.shut_down();
        ResidentBytes {
            links,
            pool_scratch: fleet.iter().map(|f| f.scratch_bytes).collect(),
            participants: fleet
                .into_iter()
                .flat_map(|f| f.participant_bytes)
                .collect(),
        }
    }

    /// Closes every link and joins the fleet: closing the transports
    /// makes every fleet link report `Closed`, and a pool thread exits
    /// once all of its links have. Returns what each thread held, in
    /// participant order.
    fn shut_down(&mut self) -> Vec<FleetFootprint> {
        for w in &mut self.workers {
            w.transport = None;
        }
        self.pool_joins
            .drain(..)
            .filter_map(|join| join.join().ok())
            .collect()
    }
}

impl Drop for RpcBackend {
    fn drop(&mut self) {
        self.shut_down();
    }
}

/// Clones the server's participants and dataset into a worker fleet and
/// installs the RPC backend on the server. From this point every round's
/// payloads cross the configured transport and `CommStats` records
/// measured wire bytes.
pub fn install(server: &mut SearchServer, dataset: &SyntheticDataset, config: RpcConfig) {
    install_with_faults(server, dataset, config, &[]);
}

/// [`install`] with scripted per-worker faults (test harness).
pub fn install_with_faults(
    server: &mut SearchServer,
    dataset: &SyntheticDataset,
    mut config: RpcConfig,
    faults: &[ScriptedFault],
) {
    // the server's `SearchConfig` is the single source of truth for the
    // codec — the backend must agree with what checkpoints will record
    config.codec = server.config().codec;
    let backend = RpcBackend::with_faults(
        server.participants(),
        &server.config().net.clone(),
        dataset,
        config,
        faults,
    );
    server.set_backend(Box::new(backend));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_download_into;
    use fedrlnas_darts::Supernet;
    use fedrlnas_fed::flat_params;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// A frame staged from the layout's ranges over the round's flat
    /// vectors is byte for byte the frame encoded from the extracted
    /// sub-model — for random masks, trained-looking BatchNorm statistics,
    /// and both download flavours.
    #[test]
    fn staged_frame_equals_the_extracted_submodels_frame() {
        let net = SupernetConfig::tiny();
        let mut rng = StdRng::seed_from_u64(18);
        let mut supernet = Supernet::new(net.clone(), &mut rng);
        // fresh running statistics are all 0 or 1: make every buffer
        // value distinct so a misplaced range cannot pass
        let mut next = 0.0f32;
        supernet.visit_buffers(&mut |b| {
            for v in b {
                *v = next;
                next += 0.5;
            }
        });
        let masks: Vec<ArchMask> = (0..200)
            .map(|_| ArchMask::uniform_random(&net, &mut rng))
            .collect();
        let bandwidths: Vec<f64> = masks.iter().map(|_| rng.gen_range(1.0..100.0)).collect();
        let alpha: Vec<f32> = (0..24).map(|_| rng.gen()).collect();
        let (theta, buffers) = (supernet.flat_params(), supernet.flat_buffers());
        let req = RoundRequest {
            round: 5,
            masks: &masks,
            layout: supernet.layout(),
            theta: &theta,
            buffers: &buffers,
            alpha_logits: &alpha,
            bandwidths_mbps: &bandwidths,
            seed_base: 0xFEED,
            active: None,
        };
        for codec in [CodecConfig::default(), CodecConfig::Auto] {
            let config = RpcConfig {
                codec,
                ..RpcConfig::default()
            };
            let frame_len = if codec.is_fp32() {
                download_frame_len
            } else {
                coded_download_frame_len
            };
            let frame_bytes: Vec<u64> = masks
                .iter()
                .map(|m| {
                    let (w, b) = (
                        req.layout.submodel_param_count(m),
                        req.layout.submodel_buffer_count(m),
                    );
                    frame_len(m.num_edges(), w, b, alpha.len()) as u64
                })
                .collect();
            let staged = Staged {
                config: &config,
                req: &req,
                frame_bytes: &frame_bytes,
                history: &History::default(),
                on_time: &AtomicUsize::new(0),
            };
            let mut want = Vec::new();
            for (p, mask) in masks.iter().enumerate() {
                let frame = stage_download(p, &staged);
                assert_eq!(frame.capacity(), frame.len(), "slot {p}: sized once");
                let mut sub = supernet.extract_submodel(mask);
                let weights = flat_params(&mut sub);
                let mut sub_buffers = Vec::new();
                sub.visit_buffers(&mut |b| sub_buffers.extend_from_slice(b));
                let spec = resolve_codec(codec, bandwidths[p]);
                encode_download_into(
                    &mut want,
                    5,
                    0xFEED,
                    mask,
                    &weights,
                    &sub_buffers,
                    &alpha,
                    (!codec.is_fp32()).then(|| (spec.tag(), spec.param())),
                );
                assert_eq!(frame, want, "slot {p}, codec {codec:?}");
            }
        }
    }

    #[test]
    fn backoff_saturates_and_stays_bounded() {
        let base = Duration::from_millis(10);
        for attempt in 0..200 {
            let d = backoff_delay(base, attempt, 7);
            assert!(
                d <= MAX_BACKOFF,
                "attempt {attempt} exceeded the cap: {d:?}"
            );
            let raw = base
                .saturating_mul(
                    u32::try_from(1u64.checked_shl(attempt.min(63) as u32).unwrap_or(u64::MAX))
                        .unwrap_or(u32::MAX),
                )
                .min(MAX_BACKOFF);
            assert!(
                d >= raw.mul_f64(0.75),
                "attempt {attempt} under the jitter floor"
            );
        }
        // an absurd base must not panic or overflow either
        let huge = backoff_delay(Duration::from_secs(u64::MAX / 4), 63, 1);
        assert!(huge <= MAX_BACKOFF);
    }

    #[test]
    fn backoff_is_deterministic_and_desynchronized() {
        let base = Duration::from_millis(10);
        assert_eq!(backoff_delay(base, 3, 42), backoff_delay(base, 3, 42));
        // different salts (worker/round) should not all collide
        let delays: Vec<Duration> = (0..16).map(|s| backoff_delay(base, 3, s)).collect();
        let distinct: std::collections::HashSet<Duration> = delays.iter().copied().collect();
        assert!(distinct.len() > 1, "jitter must desynchronize workers");
    }

    #[test]
    fn backoff_grows_before_the_cap() {
        let base = Duration::from_millis(10);
        // jitter is at most ±25%, so a doubling always dominates it
        for attempt in 0..5 {
            assert!(backoff_delay(base, attempt + 1, 9) > backoff_delay(base, attempt, 9));
        }
    }

    /// Pins the `suspected_byzantine` semantics across re-admission:
    /// the counter tallies eviction *events* with a live reject streak,
    /// and a heartbeat re-admission clears that streak — suspicion must
    /// be re-earned, so a later silence-only eviction adds nothing.
    #[test]
    fn readmission_clears_byzantine_suspicion_streak() {
        let config = RpcConfig {
            evict_after: 2,
            ..RpcConfig::default()
        };
        let mut w = WorkerHandle {
            transport: None,
            alive: true,
            evicted: false,
            miss_streak: 0,
            reject_streak: 0,
        };
        let mut out = RoundOutcome::default();
        let mut delivered = History::default();
        // two rounds of rejected replies: streaks build, the eviction is
        // flagged as suspected Byzantine
        for _ in 0..2 {
            let wr = WorkerRound {
                rejected: true,
                ..WorkerRound::default()
            };
            merge_worker_round(&mut out, &mut delivered, &mut w, wr, &config);
        }
        assert!(w.evicted);
        assert_eq!(out.rejects.suspected_byzantine, 1);
        // heartbeat re-admission: a fresh start on every streak
        readmit(&mut w, &mut out);
        assert!(!w.evicted);
        assert_eq!(w.miss_streak, 0);
        assert_eq!(w.reject_streak, 0);
        assert_eq!(out.churn.readmitted, 1);
        // evicted again for mere silence: no new Byzantine suspicion
        for _ in 0..2 {
            merge_worker_round(
                &mut out,
                &mut delivered,
                &mut w,
                WorkerRound::default(),
                &config,
            );
        }
        assert!(w.evicted);
        assert_eq!(
            out.rejects.suspected_byzantine, 1,
            "suspicion must be re-earned after re-admission"
        );
    }

    /// The dense per-round tables answer what the keyed map and set they
    /// replaced answered: unbooked slots and rounds off the books are
    /// unknown, a delivery is remembered per (round, slot), ids past the
    /// cohort are nobody, and the horizon drops whole rounds.
    #[test]
    fn history_tables_attribute_like_the_keyed_books() {
        let net = SupernetConfig::tiny();
        let mut rng = StdRng::seed_from_u64(3);
        let masks: Vec<ArchMask> = (0..70)
            .map(|_| ArchMask::uniform_random(&net, &mut rng))
            .collect();
        let mut h = History::default();
        for round in 0..3 {
            let rec = h.open(round, &masks);
            for p in (0..70).filter(|p| p % 3 != round) {
                rec.expected_lens[p] = 100 * round + p;
                rec.booked.set(p);
            }
        }
        assert_eq!(h.sent(1, 69), Some((&masks[69], 169)));
        assert_eq!(h.sent(1, 1), None, "slot 1 sat round 1 out");
        assert_eq!(h.sent(1, 70), None, "past the cohort");
        assert_eq!(h.sent(3, 0), None, "round 3 was never opened");
        assert!(!h.is_delivered(2, 64));
        h.mark_delivered(2, 64);
        h.mark_delivered(2, 7000); // a hostile id is ignored
        h.mark_delivered(9, 0); // so is a round off the books
        assert!(h.is_delivered(2, 64));
        assert!(!h.is_delivered(1, 64) && !h.is_delivered(2, 63) && !h.is_delivered(2, 7000));
        h.prune(HISTORY_ROUNDS + 1);
        assert_eq!(h.sent(1, 69), None, "beyond the horizon");
        assert!(h.sent(2, 69).is_some() && h.is_delivered(2, 64));
    }
}
