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
//! `book_downloads`, `collect` (the event loop of `crate::reactor`, or
//! the blocking in-order oracle of [`EngineMode::Serial`]; either stages
//! each download frame at the moment its link ships it, into the vector
//! the transport takes) and `commit`.
//!
//! Who owns what: a participant keeps only what must survive a round —
//! its data, its residual, its fault script, the replies a displaced
//! download can still ask for and the numbers of the rounds it answered
//! (`WorkerState`); every scratch buffer belongs to the pool thread that
//! happens to run the participant (`WorkerScratch`). The server keeps a
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
//! is active. Re-admission itself is a fresh start — see [`readmit`].
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
//! [`Attack`](crate::adversary::Attack)s on [`ScriptedFault::attack`]
//! corrupt the uploaded model update deterministically, providing the
//! adversarial side of that contract.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fedrlnas_codec::{Codec, CodecConfig, CodecSpec, EncodeScratch};
use fedrlnas_controller::Alpha;
use fedrlnas_core::{BackendReport, RoundBackend, RoundOutcome, RoundRequest, SearchServer};
use fedrlnas_darts::{ArchMask, Supernet, SupernetConfig};
use fedrlnas_data::SyntheticDataset;
use fedrlnas_fed::{validate_report, Participant, RejectTally};
use fedrlnas_netsim::resolve_codec;
use fedrlnas_tensor::Tensor;

use crate::adversary::{apply_attack, Attack};
use crate::fault::{mix, FaultPlan, FaultyTransport, MAX_DISPLACEMENT};
use crate::transport::{Doorbell, ShapedTransport, Transport, TransportError};
use crate::waiter::Waiter;
use crate::wire::{
    coded_download_frame_len, coded_upload_frame_len, decode, decode_download, download_frame_len,
    encode, encode_download_ranges_into, encode_into, encode_upload_coded_into, upload_frame_len,
    Message,
};

/// How many rounds of sent-mask / delivery history to keep for late-reply
/// attribution; anything older than this is unattributable and dropped
/// (the staleness threshold is far smaller in practice). A worker
/// remembers the *numbers* of that many answered rounds.
const HISTORY_ROUNDS: usize = 16;

/// How many answered rounds a worker keeps the reply *bytes* of. A
/// download for a round already answered reaches a worker only displaced:
/// a retransmit is only ever of the round in progress, so in link order
/// it sits among that round's frames, and the link's fault layer lets at
/// most [`MAX_DISPLACEMENT`] later frame — so at most that many later
/// rounds — overtake it. When it arrives, its round is therefore among
/// the `MAX_DISPLACEMENT + 1` most recently answered.
const REPLY_CACHE_ROUNDS: usize = MAX_DISPLACEMENT + 1;

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
    /// The test oracle: ship every download (sleeping each shaped send),
    /// then block on one link at a time in participant order. Kept only
    /// as the reference the equivalence suites and benches compare
    /// against.
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
    /// Stretch factor mapping simulated transmission time onto real
    /// sleeps in the shaped transport. `0.0` (the default) keeps the
    /// byte-accurate accounting without sleeping.
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
/// heterogeneous endpoints behind one shaped wrapper.
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

/// Server-side link to one worker: bandwidth shaping over fault injection
/// over the raw transport.
pub(crate) type Link = ShapedTransport<FaultyTransport<Box<dyn Transport>>>;

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
    fn resident_bytes(&mut self) -> usize {
        let link = self.transport.as_mut().map_or(0, |link| {
            let faulty = link.inner_mut();
            faulty.heap_bytes() + std::mem::size_of_val(&**faulty.inner())
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
    /// The thread's [`WorkerScratch`], counted once however many
    /// participants it served.
    pub(crate) scratch_bytes: usize,
    /// [`WorkerState::resident_bytes`] of each participant on the thread.
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
struct RoundRecord {
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
    fn open(&mut self, round: usize, masks: &[ArchMask]) -> &mut RoundRecord {
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

    fn mark_delivered(&mut self, round: usize, pid: usize) {
        if let Some(rec) = self.records.iter_mut().find(|r| r.round == round) {
            rec.delivered.set(pid);
        }
    }
}

impl RpcBackend {
    /// Spawns the pooled worker fleet and wires one transport per
    /// participant.
    ///
    /// Workers clone the participant state (data-loader cursor included)
    /// and rebuild the supernet *structure* locally; weights always arrive
    /// over the wire, so the worker-side initialization never leaks into
    /// training.
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

pub(crate) fn wrap_link(
    inner: Box<dyn Transport>,
    participant: usize,
    plan: &FaultPlan,
    time_scale: f64,
) -> Link {
    ShapedTransport::new(
        FaultyTransport::new(inner, participant, plan),
        f64::MAX,
        time_scale,
    )
}

/// What [`WorkerState::handle_frame`] tells the worker's drive loop to do.
pub(crate) enum FrameOutcome {
    /// Keep servicing this participant's link.
    Continue,
    /// The scripted `die_at_round` fired: drop the link, no reply.
    Exit,
    /// The scripted `delay` fired: hold this frame, serve nothing else
    /// from this link meanwhile, and hand the same frame back once the
    /// duration has passed (the delay is spent; the second call trains).
    Delay(Duration),
}

/// Grow-only codec scratch — selection keys, encoded byte run,
/// self-decode output — owned by a fleet pool thread and lent to whichever
/// participant it is running. Reuse never changes any output (see
/// [`EncodeScratch`]); `growth` counts capacity growth so a test can
/// assert the buffers actually stabilize.
pub(crate) struct WorkerScratch {
    enc: EncodeScratch,
    coded: Vec<u8>,
    decoded: Vec<f32>,
    growth: Arc<AtomicU64>,
}

impl WorkerScratch {
    pub(crate) fn new(growth: Arc<AtomicU64>) -> Self {
        WorkerScratch {
            enc: EncodeScratch::default(),
            coded: Vec::new(),
            decoded: Vec::new(),
            growth,
        }
    }

    /// Heap bytes this scratch holds (debug accounting).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.enc.capacity() * std::mem::size_of::<u64>()
            + self.coded.capacity()
            + self.decoded.capacity() * std::mem::size_of::<f32>()
    }
}

/// A round number no round has (the wire's rounds count up from zero).
const NO_ROUND: u64 = u64::MAX;

/// The participant side of one link; the pooled fleet drives many of
/// these from one thread. Only what must survive a round lives here: the
/// participant (its data and loader cursor), its residual, its fault
/// script and attack memory, the last [`REPLY_CACHE_ROUNDS`] replies and
/// the numbers of the last [`HISTORY_ROUNDS`] answered rounds. Scratch is
/// the pool thread's ([`WorkerScratch`]), and so is the supernet
/// *structure*, shared by every participant on the thread because weights
/// always arrive over the wire — nothing training-relevant ever persists
/// in it.
pub(crate) struct WorkerState {
    participant: Participant,
    fault: ScriptedFault,
    residual: Arc<Mutex<Vec<f32>>>,
    /// `(round, reply frame)` of the most recently answered rounds,
    /// newest first; `None` until that many have been answered.
    reply_cache: [Option<(u64, Vec<u8>)>; REPLY_CACHE_ROUNDS],
    /// Ring of the round numbers answered last ([`NO_ROUND`] = unused).
    /// Training advances the loader and the round stream, so a round is
    /// trained once: a download for a round in here whose bytes have left
    /// the cache is met with silence.
    answered: [u64; HISTORY_ROUNDS],
    answered_next: usize,
    // the previous round's honest update, kept for Attack::StaleReplay;
    // filled only under an attack script
    last_honest: Vec<f32>,
    // first round the worker is back up after a scripted crash-restart
    down_until: Option<u64>,
    crashed: bool,
}

impl WorkerState {
    pub(crate) fn new(
        participant: Participant,
        fault: ScriptedFault,
        residual: Arc<Mutex<Vec<f32>>>,
    ) -> Self {
        WorkerState {
            participant,
            fault,
            residual,
            reply_cache: std::array::from_fn(|_| None),
            answered: [NO_ROUND; HISTORY_ROUNDS],
            answered_next: 0,
            last_honest: Vec::new(),
            down_until: None,
            crashed: false,
        }
    }

    /// Bytes this state holds beyond the participant itself (its data is
    /// the dataset shard's business): the struct's own fields plus the
    /// heap behind the cached replies and the attack memory. Debug
    /// accounting for the O(pool) memory contract.
    pub(crate) fn resident_bytes(&self) -> usize {
        let cached: usize = self
            .reply_cache
            .iter()
            .flatten()
            .map(|(_, frame)| frame.capacity())
            .sum();
        std::mem::size_of::<Self>() - std::mem::size_of::<Participant>()
            + cached
            + self.last_honest.capacity() * std::mem::size_of::<f32>()
    }

    /// Remembers `round` as answered with `reply`: newest cache slot, next
    /// ring slot.
    fn remember(&mut self, round: u64, reply: Vec<u8>) {
        self.reply_cache.rotate_right(1);
        self.reply_cache[0] = Some((round, reply));
        self.answered[self.answered_next] = round;
        self.answered_next = (self.answered_next + 1) % HISTORY_ROUNDS;
    }

    /// Heartbeats and liveness probes, answered inline. A scripted
    /// crash-restart keeps the worker silent until a probe shows the
    /// downtime window has passed.
    fn handle_control(&mut self, transport: &mut dyn Transport, frame: &[u8]) {
        let back_up = match decode(frame) {
            Ok(Message::Heartbeat { .. }) => self.down_until.is_none(),
            Ok(Message::Ack { round }) => {
                if self.down_until.is_some_and(|until| round >= until) {
                    self.down_until = None;
                }
                self.down_until.is_none()
            }
            // corrupt: await retransmission. Uploads echo back only under
            // fault injection; control-plane frames are for the service
            // listener, never a worker
            _ => return,
        };
        if back_up {
            let _ = transport.send(&encode(&Message::Heartbeat {
                participant: self.participant.id() as u32,
            }));
        }
    }

    /// Services one inbound frame: heartbeats/probes are answered inline,
    /// downloads run one local training step and reply with the update.
    /// The reply is kept ([`REPLY_CACHE_ROUNDS`] deep) so a retransmitted
    /// or displaced download is answered from the cache instead of being
    /// recomputed (idempotence under retry), and a round is never trained
    /// twice. The download is read where it lies: its shape is checked
    /// against the layout, then its two `f32` runs are copied from the
    /// frame's bytes straight into the sub-model. `theta_len` is the full
    /// flat-θ length — the error-feedback residual spans the whole
    /// supernet, exactly like the in-process path.
    pub(crate) fn handle_frame(
        &mut self,
        supernet: &mut Supernet,
        theta_len: usize,
        dataset: &SyntheticDataset,
        scratch: &mut WorkerScratch,
        transport: &mut dyn Transport,
        frame: &[u8],
    ) -> FrameOutcome {
        let id = self.participant.id();
        let down = match decode_download(frame) {
            Ok(Some(down)) => down,
            Ok(None) => {
                self.handle_control(transport, frame);
                return FrameOutcome::Continue;
            }
            Err(_) => return FrameOutcome::Continue, // corrupt: await retransmission
        };
        // both download flavours share one training path; the coded one
        // additionally carries the codec the upload must be encoded with
        let codec = match down.codec {
            None => None,
            Some((tag, param)) => match CodecSpec::from_tag_param(tag, param) {
                Some(spec) => Some(spec),
                None => return FrameOutcome::Continue, // nonsense codec: refuse
            },
        };
        let (round, mask) = (down.round, &down.mask);
        if let Some(until) = self.down_until {
            if round < until {
                return FrameOutcome::Continue; // crashed: downloads fall on the floor
            }
            self.down_until = None;
        }
        if !self.crashed {
            if let Some((r, d)) = self.fault.crash_restart {
                if r == round as usize {
                    self.crashed = true;
                    // a crash loses in-memory state
                    self.reply_cache = std::array::from_fn(|_| None);
                    self.answered = [NO_ROUND; HISTORY_ROUNDS];
                    self.down_until = Some(round + d as u64);
                    return FrameOutcome::Continue;
                }
            }
        }
        if let Some((_, cached)) = self.reply_cache.iter().flatten().find(|(r, _)| *r == round) {
            let _ = transport.send(cached);
            return FrameOutcome::Continue;
        }
        if self.answered.contains(&round) {
            return FrameOutcome::Continue; // answered, bytes gone: never train twice
        }
        if self.fault.die_at_round == Some(round as usize) {
            return FrameOutcome::Exit; // simulated crash: no reply
        }
        if let Some((r, d)) = self.fault.delay {
            if r == round as usize {
                self.fault.delay = None;
                return FrameOutcome::Delay(d);
            }
        }
        let layout = supernet.layout();
        if mask.num_edges() != supernet.config().topology().num_edges()
            || down.weights.len() != layout.submodel_param_count(mask)
            || down.buffers.len() != layout.submodel_buffer_count(mask)
        {
            return FrameOutcome::Continue; // shape mismatch: refuse rather than panic
        }
        let mut sub = supernet.extract_submodel(mask);
        let mut weights = down.weights;
        sub.visit_params(&mut |p| weights.fill(p.value.as_mut_slice()));
        let mut buffers = down.buffers;
        sub.visit_buffers(&mut |b| buffers.fill(b));
        // the step the in-process path runs, on the same derived stream
        let (report, mut grads) = self
            .participant
            .train_round(&mut sub, dataset, down.seed_base);
        if let Some(attack) = self.fault.attack {
            let honest = std::mem::replace(&mut self.last_honest, grads.clone());
            apply_attack(attack, round, id as u64, &mut grads, &honest);
        }
        let edges = mask.num_edges();
        let alpha_len = down.alpha.len();
        let delta_alpha = Tensor::from_vec(down.alpha, &[alpha_len])
            .ok()
            .map(|t| {
                Alpha::from_logits(t, edges)
                    .grad_log_prob(mask)
                    .as_slice()
                    .to_vec()
            })
            .unwrap_or_default();
        // the reply is encoded once, into the exactly sized vector the
        // cache keeps; the transport copies what it sends
        let reply = match codec {
            None => {
                let mut reply =
                    Vec::with_capacity(upload_frame_len(grads.len(), delta_alpha.len()));
                encode_into(
                    &Message::UploadUpdate {
                        round,
                        participant: id as u32,
                        delta_w: grads,
                        delta_alpha,
                        reward: report.accuracy,
                        loss: report.loss,
                    },
                    &mut reply,
                );
                reply
            }
            Some(spec) => {
                // error feedback: fold the residual of every previous lossy
                // round into this update before encoding, then remember
                // what this round's encoding lost — the function the
                // in-process server runs, so the two execution modes stay
                // bit-identical.
                let ranges = supernet.submodel_param_ranges(mask);
                let mut res = self.residual.lock().expect("residual lock");
                if res.len() != theta_len {
                    res.resize(theta_len, 0.0);
                }
                let held = scratch.heap_bytes();
                spec.encode_with_feedback(
                    &mut grads,
                    &mut res,
                    &ranges,
                    &mut scratch.enc,
                    &mut scratch.coded,
                    &mut scratch.decoded,
                );
                drop(res);
                if scratch.heap_bytes() > held {
                    scratch.growth.fetch_add(1, Ordering::Relaxed);
                }
                let mut reply = Vec::with_capacity(coded_upload_frame_len(
                    scratch.coded.len(),
                    delta_alpha.len(),
                ));
                encode_upload_coded_into(
                    &mut reply,
                    round,
                    id as u32,
                    spec.tag(),
                    spec.param(),
                    grads.len() as u32,
                    &scratch.coded,
                    &delta_alpha,
                    report.accuracy,
                    report.loss,
                );
                reply
            }
        };
        let _ = transport.send(&reply);
        self.remember(round, reply);
        FrameOutcome::Continue
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

/// A classified upload reply.
enum Reply {
    /// A usable update: legacy fp32, or a codec run that decoded cleanly
    /// against the trusted length. `comp` carries the compression-tally
    /// entry `(codec index, raw bytes, encoded bytes)` for coded replies;
    /// it is recorded only if the report is actually delivered, so
    /// retransmission duplicates never double-count.
    Report {
        r: usize,
        report: BackendReport,
        comp: Option<(usize, u64, u64)>,
    },
    /// A coded reply whose byte run failed to decode against the length
    /// the engine itself shipped — malformed, treated like a
    /// shape-rejected update.
    Undecodable { r: usize, pid: usize },
    /// Heartbeats, acks, unattributable or non-upload traffic.
    Noise,
}

/// Turns a decoded message into a [`Reply`]. Coded gradient runs are
/// decoded here, against the flat-gradient length recorded when the
/// round's download was shipped — the sender's `orig_len` claim is never
/// consulted, so a hostile length can neither size an allocation nor
/// skew the gate.
fn classify_reply(msg: Message, sent: &History) -> Reply {
    match msg {
        Message::UploadUpdate {
            round,
            participant,
            delta_w,
            delta_alpha,
            reward,
            loss,
        } => Reply::Report {
            r: round as usize,
            report: BackendReport {
                participant: participant as usize,
                computed_at: round as usize,
                mask: ArchMask::new(vec![], vec![]), // placeholder
                accuracy: reward,
                loss,
                grads: delta_w,
                delta_alpha,
            },
            comp: None,
        },
        Message::UploadUpdateCoded {
            round,
            participant,
            codec_tag,
            codec_param,
            orig_len: _, // advisory; the engine trusts only its own books
            coded,
            delta_alpha,
            reward,
            loss,
        } => {
            let (r, pid) = (round as usize, participant as usize);
            let spec = match CodecSpec::from_tag_param(codec_tag, codec_param) {
                Some(s) => s,
                None => return Reply::Undecodable { r, pid },
            };
            let expected = match sent.sent(r, pid) {
                Some((_, len)) => len,
                None => return Reply::Noise, // beyond the attribution horizon
            };
            match spec.decode(&coded, expected) {
                Ok(grads) => Reply::Report {
                    r,
                    report: BackendReport {
                        participant: pid,
                        computed_at: r,
                        mask: ArchMask::new(vec![], vec![]), // placeholder
                        accuracy: reward,
                        loss,
                        grads,
                        delta_alpha,
                    },
                    comp: Some((
                        spec.tag() as usize,
                        (expected * 4) as u64,
                        coded.len() as u64,
                    )),
                },
                Err(_) => Reply::Undecodable { r, pid },
            }
        }
        _ => Reply::Noise,
    }
}

/// Everything one worker's phase-2 interaction produced. Committed into
/// the round outcome strictly in participant order by
/// [`merge_worker_round`], so the event loop updates every data structure
/// the next round reads exactly as the serial oracle would.
#[derive(Default)]
pub(crate) struct WorkerRound {
    pub(crate) reports: Vec<BackendReport>,
    pub(crate) late: Vec<BackendReport>,
    /// `(round, participant)` keys delivered on this link this round.
    /// A link only ever carries its own worker's replies, so these keys
    /// are disjoint across concurrent collectors.
    pub(crate) delivered: Vec<(usize, usize)>,
    /// Compression-tally entries for actually-delivered coded replies.
    pub(crate) comp: Vec<(usize, u64, u64)>,
    pub(crate) rejects: RejectTally,
    pub(crate) bytes_up: u64,
    pub(crate) bytes_down: u64,
    pub(crate) retransmits: u64,
    pub(crate) got: bool,
    pub(crate) rejected: bool,
    pub(crate) ship_ns: u64,
    pub(crate) collect_ns: u64,
    pub(crate) decode_ns: u64,
    pub(crate) validate_ns: u64,
}

/// The commit-on-quorum rule both modes share: the fraction is taken of
/// the workers whose download actually went out.
fn quorum_target(frac: f64, shipped: usize) -> usize {
    ((frac * shipped as f64).ceil() as usize).clamp(1, shipped.max(1))
}

/// Lets concurrent collectors agree on the quorum population the serial
/// oracle sees: workers eligible at ship time *and* whose download
/// actually went out. Every eligible link records its first send's
/// outcome; until all have, the target is unknown and no link's wait may
/// expire.
pub(crate) struct SendGate {
    spawned: usize,
    frac: f64,
    done: AtomicUsize,
    failed: AtomicUsize,
}

impl SendGate {
    pub(crate) fn new(spawned: usize, frac: f64) -> Self {
        SendGate {
            spawned,
            frac,
            done: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
        }
    }

    pub(crate) fn record(&self, ok: bool) {
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        self.done.fetch_add(1, Ordering::Release);
    }

    /// The quorum target, or `None` while some link's first send is still
    /// on its timer.
    pub(crate) fn target(&self) -> Option<usize> {
        if self.done.load(Ordering::Acquire) < self.spawned {
            return None;
        }
        let shipped = self.spawned - self.failed.load(Ordering::Relaxed);
        Some(quorum_target(self.frac, shipped))
    }
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

/// What [`absorb_reply_frame`] tells the caller to do next.
#[derive(PartialEq, Eq)]
pub(crate) enum FrameStep {
    /// This link's round is settled (on-time report accepted or rejected);
    /// stop waiting on it.
    Done,
    /// The frame was noise, a duplicate or a late reply — keep waiting.
    KeepWaiting,
}

/// Absorbs one reply frame received on participant `p`'s link into its
/// [`WorkerRound`]: decode, classify, deduplicate, late-attribute, and
/// run the validation gate on on-time reports. The single frame path of
/// both modes — the serial oracle calls it from its blocking wait, the
/// event loop from its readiness sweep — so classification and gate
/// semantics cannot drift between them.
pub(crate) fn absorb_reply_frame(
    wr: &mut WorkerRound,
    frame_in: &[u8],
    p: usize,
    s: &Staged<'_>,
) -> FrameStep {
    let t = s.req.round;
    let delivered = |wr: &WorkerRound, key: (usize, usize)| {
        s.history.is_delivered(key.0, key.1) || wr.delivered.contains(&key)
    };
    wr.bytes_up += frame_in.len() as u64;
    let decode_start = Instant::now();
    let classified = match decode(frame_in) {
        Ok(msg) => classify_reply(msg, s.history),
        Err(_) => Reply::Noise, // corruption: drop
    };
    wr.decode_ns = wr
        .decode_ns
        .saturating_add(decode_start.elapsed().as_nanos() as u64);
    let (r, report, comp) = match classified {
        Reply::Report { r, report, comp } => (r, report, comp),
        Reply::Undecodable { r, pid } => {
            // a coded run that does not decode against the length the
            // engine shipped is a malformed update — reject it before it
            // can reach validation or aggregation
            if r == t && !delivered(wr, (r, pid)) {
                wr.delivered.push((r, pid));
                wr.rejected = true;
                wr.rejects.rejected_shape += 1;
                return FrameStep::Done;
            }
            return FrameStep::KeepWaiting;
        }
        Reply::Noise => return FrameStep::KeepWaiting, // heartbeat/ack noise
    };
    let pid = report.participant;
    if delivered(wr, (r, pid)) {
        return FrameStep::KeepWaiting; // duplicate from a retransmitted download
    }
    match r.cmp(&t) {
        std::cmp::Ordering::Equal => {
            wr.delivered.push((r, pid));
            if let Some(c) = comp {
                wr.comp.push(c);
            }
            // validation gate: a reply that is the wrong shape, non-finite
            // anywhere, or over the norm bound never reaches the server;
            // the worker is treated as having missed the round. Coded
            // replies were decoded above, so the gate sees exactly what
            // aggregation would consume.
            let gate_start = Instant::now();
            let (_, expected_len) = s.history.sent(t, p).expect("an eligible slot was booked");
            let verdict = validate_report(
                &report.grads,
                report.accuracy,
                report.loss,
                expected_len,
                s.config.update_norm_bound,
            );
            wr.validate_ns = wr
                .validate_ns
                .saturating_add(gate_start.elapsed().as_nanos() as u64);
            match verdict {
                Ok(()) => {
                    wr.reports.push(BackendReport {
                        mask: s.req.masks[p].clone(),
                        ..report
                    });
                    wr.got = true;
                    s.on_time.fetch_add(1, Ordering::Relaxed);
                }
                Err(why) => {
                    wr.rejected = true;
                    wr.rejects.record(&why);
                }
            }
            FrameStep::Done
        }
        std::cmp::Ordering::Less => {
            // a reply that missed an earlier deadline; attribute it and
            // keep waiting for round t
            if let Some((late_mask, _)) = s.history.sent(r, pid) {
                wr.delivered.push((r, pid));
                if let Some(c) = comp {
                    wr.comp.push(c);
                }
                wr.late.push(BackendReport {
                    mask: late_mask.clone(),
                    ..report
                });
            }
            FrameStep::KeepWaiting
        }
        std::cmp::Ordering::Greater => FrameStep::KeepWaiting, // impossible; drop
    }
}

/// The serial oracle's phase 2 for one worker: block on its link for the
/// reply under deadline + quorum + bounded retry, decoding and validating
/// whatever arrives. The quorum is consulted once per wait — a worker
/// reached after the quorum reported only gets the drain window — and
/// both the backoff and the shaped resend sleep.
fn collect_worker(
    p: usize,
    w: &mut WorkerHandle,
    wr: &mut WorkerRound,
    s: &Staged<'_>,
    quorum_target: usize,
) {
    let link = w.transport.as_mut().expect("live worker has transport");
    let quorum_met = || s.on_time.load(Ordering::Relaxed) >= quorum_target;
    let mut attempts = 0usize;
    loop {
        let wait = if quorum_met() {
            s.config.quorum_drain
        } else {
            s.config.deadline
        };
        let wait_start = Instant::now();
        let received = link.recv_timeout(wait);
        wr.collect_ns = wr
            .collect_ns
            .saturating_add(wait_start.elapsed().as_nanos() as u64);
        match received {
            Ok(frame_in) => {
                if absorb_reply_frame(wr, &frame_in, p, s) == FrameStep::Done {
                    break;
                }
            }
            Err(TransportError::Timeout) => {
                if quorum_met() || attempts >= s.config.max_retries {
                    break; // late: the reply, if any, surfaces next round
                }
                let salt = ((s.req.round as u64) << 32) | p as u64;
                std::thread::sleep(backoff_delay(s.config.retry_backoff, attempts, salt));
                attempts += 1;
                wr.retransmits += 1;
                match link.send_owned(stage_download(p, s)) {
                    Ok(()) => wr.bytes_down += s.frame_bytes[p],
                    Err(_) => {
                        w.alive = false;
                        break;
                    }
                }
            }
            Err(_) => {
                w.alive = false;
                break;
            }
        }
    }
}

/// [`EngineMode::Serial`]: ship every download up front (workers train in
/// parallel), then collect strictly in participant order.
fn collect_serial(
    workers: &mut [WorkerHandle],
    eligible: &[bool],
    s: &Staged<'_>,
) -> Vec<(usize, WorkerRound)> {
    let mut rounds = Vec::new();
    for (p, w) in workers.iter_mut().enumerate() {
        if !eligible[p] {
            continue;
        }
        let mut wr = WorkerRound::default();
        let link = w.transport.as_mut().expect("live worker has transport");
        let ship_start = Instant::now();
        link.set_mbps(s.req.bandwidths_mbps[p]);
        match link.send_owned(stage_download(p, s)) {
            Ok(()) => wr.bytes_down += s.frame_bytes[p],
            Err(_) => w.alive = false,
        }
        wr.ship_ns = ship_start.elapsed().as_nanos() as u64;
        rounds.push((p, wr));
    }
    let shipped = rounds.iter().filter(|(p, _)| workers[*p].alive).count();
    let target = quorum_target(s.config.quorum_frac, shipped);
    for (p, wr) in rounds.iter_mut() {
        if workers[*p].alive {
            collect_worker(*p, &mut workers[*p], wr, s, target);
        }
    }
    rounds
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
    if wr.got {
        w.miss_streak = 0;
        w.reject_streak = 0;
    } else if w.alive {
        w.miss_streak += 1;
        if wr.rejected {
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

/// One frame off an evicted worker's link in round `t`: a heartbeat
/// re-admits it, a late reply is attributed, anything else is dropped.
fn absorb_evicted_frame(
    w: &mut WorkerHandle,
    history: &mut History,
    out: &mut RoundOutcome,
    t: usize,
    frame: &[u8],
) {
    out.bytes_up += frame.len() as u64;
    let Ok(msg) = decode(frame) else {
        return;
    };
    if let Message::Heartbeat { .. } = msg {
        readmit(w, out);
        return;
    }
    let Reply::Report { r, report, comp } = classify_reply(msg, history) else {
        return;
    };
    let pid = report.participant;
    if r >= t || history.is_delivered(r, pid) {
        return;
    }
    if let Some((mask, _)) = history.sent(r, pid) {
        let mask = mask.clone();
        history.mark_delivered(r, pid);
        if let Some((c, raw, enc)) = comp {
            out.compression.record(c, raw, enc);
        }
        out.late.push(BackendReport { mask, ..report });
    }
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
        let until = Instant::now() + EVICTED_DRAIN;
        let mut ready: Vec<usize> = (0..evicted.len()).collect();
        loop {
            for token in ready.drain(..) {
                let w = &mut self.workers[evicted[token]];
                loop {
                    let link = w.transport.as_mut().expect("live worker has transport");
                    match link.poll_recv() {
                        Ok(Some(frame)) => {
                            absorb_evicted_frame(w, &mut self.history, &mut ctx.out, t, &frame)
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
            if let Some(held) = link.inner_mut().release_held() {
                absorb_evicted_frame(w, &mut self.history, &mut ctx.out, t, &held);
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
            record.expected_lens[p] = weights;
            record.booked.set(p);
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
                out.faults.merge(&link.inner_mut().take_tally());
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
            .iter_mut()
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
    use crate::transport::ChannelTransport;
    use crate::wire::encode_download_into;
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

    /// One worker and everything `handle_frame` borrows, with the server
    /// end of its link in hand so replies can be counted.
    struct Bench {
        state: WorkerState,
        supernet: Supernet,
        theta_len: usize,
        dataset: SyntheticDataset,
        scratch: WorkerScratch,
        worker_end: ChannelTransport,
        server_end: ChannelTransport,
        masks: Vec<ArchMask>,
        alpha: Vec<f32>,
    }

    impl Bench {
        fn new(fault: ScriptedFault) -> Bench {
            let config = fedrlnas_core::SearchConfig::tiny();
            let mut rng = StdRng::seed_from_u64(21);
            let mut search = fedrlnas_core::FederatedModelSearch::new(config.clone(), &mut rng);
            let dataset = search.dataset().clone();
            let participant = search.server_mut().participants()[0].clone();
            let mut supernet = Supernet::new(config.net.clone(), &mut rng);
            let (server_end, worker_end) = ChannelTransport::pair();
            Bench {
                state: WorkerState::new(participant, fault, Arc::new(Mutex::new(Vec::new()))),
                theta_len: supernet.param_count(),
                supernet,
                dataset,
                scratch: WorkerScratch::new(Arc::new(AtomicU64::new(0))),
                worker_end,
                server_end,
                masks: (0..4)
                    .map(|_| ArchMask::uniform_random(&config.net, &mut rng))
                    .collect(),
                alpha: Alpha::new(&config.net).logits().as_slice().to_vec(),
            }
        }

        /// Round `round`'s download, as the engine would stage it.
        fn download(&mut self, round: u64) -> Vec<u8> {
            let mask = &self.masks[round as usize % self.masks.len()];
            let mut sub = self.supernet.extract_submodel(mask);
            let weights = flat_params(&mut sub);
            let mut buffers = Vec::new();
            sub.visit_buffers(&mut |b| buffers.extend_from_slice(b));
            let mut frame = Vec::new();
            encode_download_into(
                &mut frame,
                round,
                0xFEED,
                mask,
                &weights,
                &buffers,
                &self.alpha,
                None,
            );
            frame
        }

        /// Hands the worker one frame; returns the reply it sent, if any.
        fn feed(&mut self, frame: &[u8]) -> Option<Vec<u8>> {
            self.state.handle_frame(
                &mut self.supernet,
                self.theta_len,
                &self.dataset,
                &mut self.scratch,
                &mut self.worker_end,
                frame,
            );
            self.server_end.try_recv().expect("link is open")
        }

        fn cursor(&self) -> usize {
            self.state.participant.data_cursor()
        }
    }

    /// The reply cache holds exactly what a displaced download can still
    /// ask for; past it, a worker stays silent rather than train a round
    /// a second time. Fed directly: rounds 0..=16, then a retransmit of
    /// the round in progress, the round before it (a retransmit reordered
    /// behind the next round's download), one whose bytes are gone, and
    /// the oldest round still in the answered ring (16 − 15).
    #[test]
    fn a_round_is_answered_from_the_cache_or_not_at_all_never_trained_twice() {
        assert_eq!(
            REPLY_CACHE_ROUNDS, 2,
            "the bound derived from the fault layer"
        );
        let mut b = Bench::new(ScriptedFault::default());
        let mut replies = Vec::new();
        let mut cursors = vec![b.cursor()];
        for round in 0..=16u64 {
            let frame = b.download(round);
            replies.push(
                b.feed(&frame)
                    .expect("a fresh round is trained and answered"),
            );
            cursors.push(b.cursor());
            assert_ne!(
                cursors[cursors.len() - 2],
                cursors[cursors.len() - 1],
                "training round {round} advances the loader"
            );
        }
        let trained = b.cursor();
        for (round, expect_reply) in [(16u64, true), (15, true), (14, false), (1, false)] {
            let frame = b.download(round);
            let reply = b.feed(&frame);
            assert_eq!(b.cursor(), trained, "round {round} must not train again");
            match (expect_reply, reply) {
                (true, Some(reply)) => {
                    assert_eq!(
                        reply, replies[round as usize],
                        "round {round}: cached bytes"
                    )
                }
                (false, None) => {}
                (_, got) => panic!("round {round}: reply {:?}", got.map(|f| f.len())),
            }
        }
        // at rest a worker holds its struct and two exactly sized replies
        let two_newest: usize = replies[15..].iter().map(Vec::len).sum();
        assert_eq!(
            b.state.resident_bytes(),
            std::mem::size_of::<WorkerState>() - std::mem::size_of::<Participant>() + two_newest
        );
    }

    /// A scripted crash forgets the replies *and* the answered rounds:
    /// what the restarted worker is asked again, it trains again.
    #[test]
    fn a_crash_clears_the_cache_and_the_answered_ring() {
        let mut b = Bench::new(ScriptedFault {
            crash_restart: Some((2, 1)),
            ..ScriptedFault::default()
        });
        for round in 0..2 {
            let frame = b.download(round);
            assert!(b.feed(&frame).is_some());
        }
        let frame = b.download(2);
        assert!(b.feed(&frame).is_none(), "the crash round is not answered");
        // back up from round 3 on; round 1's memory went with the crash
        let frame = b.download(3);
        assert!(b.feed(&frame).is_some());
        let before = b.cursor();
        let frame = b.download(1);
        assert!(b.feed(&frame).is_some(), "round 1 is no longer remembered");
        assert_ne!(b.cursor(), before);
        let remembered = |r: &&u64| **r != NO_ROUND;
        assert_eq!(b.state.answered.iter().filter(remembered).count(), 2);
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
