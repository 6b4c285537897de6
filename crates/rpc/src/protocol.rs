//! The round's per-link rules, written once, as sans-IO state machines:
//! ship the sampled sub-model, wait under a deadline, retransmit, accept
//! the on-time update and hand a late one to the soft-sync path.
//!
//! * **Server side** — a [`LinkRound`] per eligible link per round:
//!   [`LinkRound::on_frame`] absorbs one reply, and [`LinkRound::on_idle`]
//!   says what the link needs next ([`Idle`]) once the driver has read it
//!   until idle. [`on_evicted_frame`] serves evicted links with the same
//!   late attribution.
//! * **Worker side** — [`WorkerState::handle_frame`] answers one inbound
//!   frame with a [`WorkerStep`].
//!
//! The machines read no clock for a decision and hold no transport: every
//! deadline, backoff and drain is measured from the `now` the driver
//! passes (`RoundTimings` stopwatches aside). The drivers — the event
//! loops of `crate::reactor`, the serial oracle and the evicted-link drain
//! in `crate::engine` — do only I/O.
//!
//! A frame speaks only for its link: a reply naming another participant
//! than the link's slot is noise — counted, and dropped before its
//! gradient run is decoded or anything is attributed.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fedrlnas_codec::{CodecSpec, EncodeScratch};
use fedrlnas_controller::Alpha;
use fedrlnas_core::BackendReport;
use fedrlnas_darts::{ArchMask, Supernet, NUM_OPS};
use fedrlnas_data::SyntheticDataset;
use fedrlnas_fed::{validate_report, Participant, RejectTally};
use fedrlnas_tensor::Tensor;

use crate::adversary::apply_attack;
use crate::engine::{backoff_delay, History, ScriptedFault, Staged, HISTORY_ROUNDS};
use crate::fault::MAX_DISPLACEMENT;
use crate::wire::{
    coded_upload_frame_len, decode, decode_download, encode, encode_into, encode_upload_coded_into,
    upload_frame_len, Message,
};

/// Everything one link's round produced. Committed into the round outcome
/// strictly in participant order (`engine::merge_worker_round`), so an
/// event loop updates every data structure the next round reads exactly
/// as the serial oracle would.
#[derive(Default)]
pub(crate) struct WorkerRound {
    pub(crate) reports: Vec<BackendReport>,
    pub(crate) late: Vec<BackendReport>,
    /// `(round, participant)` keys delivered on this link this round. A
    /// link delivers only its own slot's replies, so these keys are
    /// disjoint across concurrent collectors.
    pub(crate) delivered: Vec<(usize, usize)>,
    /// Compression-tally entries for actually-delivered coded replies.
    pub(crate) comp: Vec<Comp>,
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

/// The commit-on-quorum rule: the fraction is taken of the workers whose
/// download actually went out.
pub(crate) fn quorum_target(frac: f64, shipped: usize) -> usize {
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

/// What a link needs once it has nothing more to read: the answer of
/// [`LinkRound::on_idle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Idle {
    /// The link's frame is due: stage and send it now, then report
    /// [`LinkRound::sent`]. `first`: the round's initial download, the
    /// send the quorum population counts.
    Ship { first: bool },
    /// The link's frame reaches the wire at this instant (shaped, after a
    /// retransmit's backoff too); no reply can precede it, so the link is
    /// not read before.
    ShipAt(Instant),
    /// Nothing to do before this instant unless a frame arrives; `None`
    /// while the quorum target is unknown, when no wait may expire.
    WaitUntil(Option<Instant>),
    /// The wait is over: release the frame the fault layer holds back for
    /// reordering, if any, feed it to [`LinkRound::on_frame`], and ask
    /// again either way.
    ReleaseHeld,
    /// The link missed the round; its reply, if any, surfaces late.
    Late,
}

/// What [`LinkRound::on_frame`] made of one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameStep {
    /// The link's on-time reply was accepted or refused: stop waiting.
    Settled,
    /// Noise, a duplicate or a late reply: keep waiting.
    KeepWaiting,
}

/// One eligible link's round, server side: what it has delivered and
/// everything its waits are measured from.
pub(crate) struct LinkRound {
    /// The link's participant slot — the only participant its frames may
    /// speak for.
    pub(crate) p: usize,
    pub(crate) wr: WorkerRound,
    /// How long the link's frame takes to reach the wire once due (see
    /// `transport::send_delay`).
    send_delay: Duration,
    /// When the frame in flight — initial download or retransmit —
    /// reaches the wire. While set the link is not read.
    send_at: Option<Instant>,
    /// When the frame last went out; the per-attempt deadline runs from
    /// here, or from when the quorum target became known, if later.
    sent_at: Instant,
    /// When this link first observed the quorum met; from that moment it
    /// gets a fresh [`RpcConfig::quorum_drain`](crate::RpcConfig) budget.
    met_at: Option<Instant>,
    /// [`Idle::ReleaseHeld`] was answered and no frame has come since: the
    /// next expiry is final.
    released: bool,
}

impl LinkRound {
    /// Link `p`'s round from `now`, its download reaching the wire
    /// `send_delay` later.
    pub(crate) fn new(p: usize, now: Instant, send_delay: Duration) -> LinkRound {
        LinkRound {
            p,
            wr: WorkerRound::default(),
            send_delay,
            send_at: Some(now + send_delay),
            sent_at: now,
            met_at: None,
            released: false,
        }
    }

    /// When the link's frame reaches the wire, while one is in flight.
    pub(crate) fn ship_at(&self) -> Option<Instant> {
        self.send_at
    }

    /// The frame [`Idle::Ship`] asked for went out at `now`: its booked
    /// bytes count, and a fresh wait starts.
    pub(crate) fn sent(&mut self, now: Instant, s: &Staged<'_>) {
        self.send_at = None;
        self.wr.bytes_down += s.frame_bytes[self.p];
        self.sent_at = now;
        self.met_at = None;
        self.released = false;
    }

    /// Absorbs one frame the link delivered: decode, classify, deduplicate,
    /// late-attribute, and run the validation gate on an on-time report.
    pub(crate) fn on_frame(&mut self, frame: &[u8], s: &Staged<'_>) -> FrameStep {
        self.released = false;
        let (t, p, wr) = (s.req.round, self.p, &mut self.wr);
        wr.bytes_up += frame.len() as u64;
        let decode_start = Instant::now();
        let reply = decode(frame).map_or(Reply::Noise, |msg| classify_reply(msg, p, s.history));
        wr.decode_ns = wr
            .decode_ns
            .saturating_add(decode_start.elapsed().as_nanos() as u64);
        let Reply::Upload { r, decoded } = reply else {
            return FrameStep::KeepWaiting; // noise, or corrupted on the way
        };
        if r != t {
            // late, or (impossibly) from a round not yet run: dropped
            if let Some(update) = decoded.filter(|_| r < t) {
                attribute_late(wr, s.history, p, r, update);
            }
            return FrameStep::KeepWaiting;
        }
        if is_delivered(wr, s.history, r, p) {
            return FrameStep::KeepWaiting; // duplicate of a retransmit's answer
        }
        wr.delivered.push((r, p));
        let Some((report, comp)) = decoded else {
            // malformed: rejected before it can reach validation or aggregation
            wr.rejected = true;
            wr.rejects.rejected_shape += 1;
            return FrameStep::Settled;
        };
        wr.comp.extend(comp);
        // validation gate: a reply that is the wrong shape, non-finite
        // anywhere, or over the norm bound never reaches the server; the
        // worker is treated as having missed the round. Coded replies were
        // decoded above, so the gate sees exactly what aggregation would
        // consume.
        let gate_start = Instant::now();
        let (_, expected_len) = s.history.sent(t, p).expect("an eligible slot was booked");
        let verdict = validate_report(
            &report.grads,
            report.accuracy,
            report.loss,
            expected_len,
            s.req.update_norm_bound,
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
        FrameStep::Settled
    }

    /// What the link needs next, the driver having read it until idle at
    /// `now`. `quorum` is the quorum target and when the driver learnt it
    /// (`None`: not yet), and `link_due` when a frame the fault layer is
    /// delaying on this link is due: that frame is in hand, so the wait
    /// does not expire before it is through.
    pub(crate) fn on_idle(
        &mut self,
        now: Instant,
        s: &Staged<'_>,
        quorum: Option<(usize, Instant)>,
        link_due: Option<Instant>,
    ) -> Idle {
        if let Some(at) = self.send_at {
            return match now < at {
                true => Idle::ShipAt(at),
                false => Idle::Ship {
                    first: self.wr.retransmits == 0,
                },
            };
        }
        if link_due.is_some() {
            return Idle::WaitUntil(link_due);
        }
        let Some((target, known_at)) = quorum else {
            return Idle::WaitUntil(None);
        };
        let (config, quorum_met) = (s.config, s.on_time.load(Ordering::Relaxed) >= target);
        if quorum_met && self.met_at.is_none() {
            self.met_at = Some(now);
        }
        let expires = match self.met_at {
            Some(met) => met + config.quorum_drain,
            None => self.sent_at.max(known_at) + config.deadline,
        };
        if now < expires {
            return Idle::WaitUntil(Some(expires));
        }
        if !self.released {
            self.released = true;
            return Idle::ReleaseHeld;
        }
        let attempt = self.wr.retransmits as usize;
        if quorum_met || attempt >= config.max_retries {
            return Idle::Late;
        }
        let salt = ((s.req.round as u64) << 32) | self.p as u64;
        let at = now + backoff_delay(config.retry_backoff, attempt, salt) + self.send_delay;
        self.send_at = Some(at);
        self.wr.retransmits += 1;
        Idle::ShipAt(at)
    }
}

/// One frame off evicted link `p` in round `t`, into that link's
/// `wr`: a late reply of its own is attributed, anything else is dropped.
/// Returns whether the frame was a heartbeat — the worker is up again and
/// the driver re-admits it.
pub(crate) fn on_evicted_frame(
    wr: &mut WorkerRound,
    frame: &[u8],
    p: usize,
    t: usize,
    history: &History,
) -> bool {
    wr.bytes_up += frame.len() as u64;
    let msg = match decode(frame) {
        Ok(Message::Heartbeat { .. }) => return true,
        Ok(msg) => msg,
        Err(_) => return false,
    };
    let Reply::Upload { r, decoded } = classify_reply(msg, p, history) else {
        return false;
    };
    if let Some(update) = decoded.filter(|_| r < t) {
        attribute_late(wr, history, p, r, update);
    }
    false
}

/// Whether link `p`'s reply for round `r` was already handed over: in an
/// earlier round (the books) or earlier in this one (`wr`).
fn is_delivered(wr: &WorkerRound, history: &History, r: usize, p: usize) -> bool {
    history.is_delivered(r, p) || wr.delivered.contains(&(r, p))
}

/// Attributes link `p`'s reply for an earlier round `r`: with the mask
/// round `r` shipped to `p`, once. A reply off the books or already
/// delivered is dropped.
fn attribute_late(wr: &mut WorkerRound, history: &History, p: usize, r: usize, update: Update) {
    if is_delivered(wr, history, r, p) {
        return; // a duplicate from a retransmitted download
    }
    let Some((mask, _)) = history.sent(r, p) else {
        return;
    };
    let (report, comp) = update;
    wr.delivered.push((r, p));
    wr.comp.extend(comp);
    wr.late.push(BackendReport {
        mask: mask.clone(),
        ..report
    });
}

/// A compression-tally entry `(codec index, raw bytes, encoded bytes)`.
type Comp = (usize, u64, u64);

/// A reply's report, with the tally entry of a coded one — recorded only
/// if the report is delivered, so retransmission duplicates never
/// double-count.
type Update = (BackendReport, Option<Comp>);

/// A classified message off a link.
enum Reply {
    /// The link's reply for round `r`; `None` when a coded run fails to
    /// decode against the length the engine itself shipped — a malformed
    /// update, refused like a wrong-shaped one.
    Upload { r: usize, decoded: Option<Update> },
    /// Heartbeats, acks, another participant's replies, unattributable or
    /// non-upload traffic.
    Noise,
}

/// Classifies a message link `p` delivered. An upload naming any other
/// participant is noise. Coded gradient runs are decoded here, against the
/// flat-gradient length recorded when the round's download was shipped —
/// the sender's `orig_len` claim is never consulted, so a hostile length
/// can neither size an allocation nor skew the gate.
fn classify_reply(msg: Message, p: usize, sent: &History) -> Reply {
    let report = |r, grads, delta_alpha, accuracy, loss| BackendReport {
        participant: p,
        computed_at: r,
        mask: ArchMask::new(vec![], vec![]), // filled in from the books on delivery
        accuracy,
        loss,
        grads,
        delta_alpha,
    };
    match msg {
        Message::UploadUpdate {
            round,
            participant,
            delta_w,
            delta_alpha,
            reward,
            loss,
        } if participant as usize == p => {
            let r = round as usize;
            let decoded = Some((report(r, delta_w, delta_alpha, reward, loss), None));
            Reply::Upload { r, decoded }
        }
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
        } if participant as usize == p => {
            let r = round as usize;
            let Some(spec) = CodecSpec::from_tag_param(codec_tag, codec_param) else {
                return Reply::Upload { r, decoded: None };
            };
            let Some((_, expected)) = sent.sent(r, p) else {
                return Reply::Noise; // beyond the attribution horizon
            };
            let decoded = spec.decode(&coded, expected).ok().map(|grads| {
                let comp = (
                    spec.tag() as usize,
                    (expected * 4) as u64,
                    coded.len() as u64,
                );
                (report(r, grads, delta_alpha, reward, loss), Some(comp))
            });
            Reply::Upload { r, decoded }
        }
        _ => Reply::Noise,
    }
}

/// How many answered rounds a worker on a lossy link keeps the reply
/// *bytes* of. A download for a round already answered reaches a worker
/// only displaced: a retransmit is only ever of the round in progress, so
/// in link order it sits among that round's frames, and the link's fault
/// layer lets at most [`MAX_DISPLACEMENT`] later frame — so at most that
/// many later rounds — overtake it. When it arrives, its round is
/// therefore among the `MAX_DISPLACEMENT + 1` most recently answered.
pub(crate) const REPLY_CACHE_ROUNDS: usize = MAX_DISPLACEMENT + 1;

/// A round number no round has (the wire's rounds count up from zero).
const NO_ROUND: u64 = u64::MAX;

/// What [`WorkerState::handle_frame`] tells the worker's driver to do.
pub(crate) enum WorkerStep<'a> {
    /// Send these bytes on the link: a reply, fresh or cached, or a
    /// heartbeat.
    Send(&'a [u8]),
    /// Send this fresh reply on a link that cannot lose it; nothing keeps
    /// a copy, so the driver hands the vector itself to the transport.
    SendOwned(Vec<u8>),
    /// Send nothing.
    Silent,
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

/// The participant side of one link; the pooled fleet drives many of
/// these from one thread. Only what must survive a round lives here: the
/// participant (its shard and the key of its batch schedule), its residual, its fault
/// script and attack memory, the numbers of the last [`HISTORY_ROUNDS`]
/// answered rounds, the heartbeat it answers a probe with and — only on a
/// link whose fault plan can lose a frame — the last
/// [`REPLY_CACHE_ROUNDS`] replies. On a clean link a download for an
/// answered round can only be a deadline retransmit whose original reply
/// is already on its way, so silence answers it and no reply bytes are
/// kept. Scratch is the pool thread's ([`WorkerScratch`]), and so is the
/// supernet every participant on the thread trains in place: between
/// downloads it holds the selection last trained and one sub-model's
/// activations, and nothing of it reaches the next participant — every
/// selected parameter and buffer is overwritten from the frame before the
/// step, gradients are zeroed over the selection, slots outside it are
/// never read, and every cache is written before it is read.
pub(crate) struct WorkerState {
    participant: Participant,
    fault: ScriptedFault,
    residual: Arc<Mutex<Vec<f32>>>,
    /// Whether the link's fault plan can lose a frame; only then are
    /// replies cached.
    lossy: bool,
    /// `(round, reply frame)` of the most recently answered rounds,
    /// newest first; `None` until that many have been answered, and
    /// always on a clean link.
    reply_cache: [Option<(u64, Vec<u8>)>; REPLY_CACHE_ROUNDS],
    /// Ring of the round numbers answered last ([`NO_ROUND`] = unused).
    /// Training a round again would fold its update into the
    /// error-feedback residual a second time and send a second reply, so a
    /// round is trained once: a download for a round in here whose bytes
    /// are not in the cache is met with silence.
    answered: [u64; HISTORY_ROUNDS],
    answered_next: usize,
    /// This participant's heartbeat frame, encoded once.
    heartbeat: Box<[u8]>,
    // the previous round's honest update, kept for Attack::StaleReplay;
    // filled only under an attack script
    last_honest: Vec<f32>,
    // first round the worker is back up after a scripted crash-restart
    down_until: Option<u64>,
    crashed: bool,
    /// Training steps taken, so a test sees whether a frame trained.
    #[cfg(test)]
    steps: usize,
}

impl WorkerState {
    /// `lossy` is whether the link's fault plan is active
    /// ([`FaultPlan::is_active`](crate::FaultPlan::is_active)).
    pub(crate) fn new(
        participant: Participant,
        fault: ScriptedFault,
        residual: Arc<Mutex<Vec<f32>>>,
        lossy: bool,
    ) -> Self {
        let heartbeat = encode(&Message::Heartbeat {
            participant: participant.id() as u32,
        })
        .into_boxed_slice();
        WorkerState {
            participant,
            fault,
            residual,
            lossy,
            reply_cache: std::array::from_fn(|_| None),
            answered: [NO_ROUND; HISTORY_ROUNDS],
            answered_next: 0,
            heartbeat,
            last_honest: Vec::new(),
            down_until: None,
            crashed: false,
            #[cfg(test)]
            steps: 0,
        }
    }

    /// Bytes this state holds beyond the participant itself (its data is
    /// the dataset shard's business): the struct's own fields plus the
    /// heap behind the cached replies, the heartbeat and the attack
    /// memory. Debug accounting for the O(pool) memory contract.
    pub(crate) fn resident_bytes(&self) -> usize {
        let cached: usize = self
            .reply_cache
            .iter()
            .flatten()
            .map(|(_, frame)| frame.capacity())
            .sum();
        std::mem::size_of::<Self>() - std::mem::size_of::<Participant>()
            + cached
            + self.heartbeat.len()
            + self.last_honest.capacity() * std::mem::size_of::<f32>()
    }

    /// Remembers `round` as answered with `reply`: next ring slot and, on
    /// a lossy link, newest cache slot. Returns the step that sends it.
    fn remember(&mut self, round: u64, reply: Vec<u8>) -> WorkerStep<'_> {
        self.answered[self.answered_next] = round;
        self.answered_next = (self.answered_next + 1) % HISTORY_ROUNDS;
        if !self.lossy {
            return WorkerStep::SendOwned(reply);
        }
        self.reply_cache.rotate_right(1);
        WorkerStep::Send(&self.reply_cache[0].insert((round, reply)).1)
    }

    /// Heartbeats and liveness probes. A scripted crash-restart keeps the
    /// worker silent until a probe shows the downtime window has passed.
    fn handle_control(&mut self, frame: &[u8]) -> WorkerStep<'_> {
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
            _ => false,
        };
        match back_up {
            true => WorkerStep::Send(&self.heartbeat),
            false => WorkerStep::Silent,
        }
    }

    /// Answers one inbound frame: heartbeats/probes with a heartbeat,
    /// downloads with one local training step and the update. On a lossy
    /// link the reply is kept ([`REPLY_CACHE_ROUNDS`] deep) so a
    /// retransmitted or displaced download is answered from the cache
    /// instead of being recomputed (idempotence under retry); on a clean
    /// link it is handed over, and a repeat is met with silence. Either
    /// way a round is never trained twice. The download is read where it
    /// lies: its shape — mask, weight and buffer counts, α length — is
    /// checked against the layout, then its two `f32` runs are copied from
    /// the frame's bytes straight into the slots of `supernet` the mask
    /// selects, and the step trains them in place; no sub-model is built.
    /// `theta_len` is the full flat-θ length — the error-feedback residual
    /// spans the whole supernet, exactly like the in-process path.
    pub(crate) fn handle_frame(
        &mut self,
        supernet: &mut Supernet,
        theta_len: usize,
        dataset: &SyntheticDataset,
        scratch: &mut WorkerScratch,
        frame: &[u8],
    ) -> WorkerStep<'_> {
        let id = self.participant.id();
        let down = match decode_download(frame) {
            Ok(Some(down)) => down,
            Ok(None) => return self.handle_control(frame),
            Err(_) => return WorkerStep::Silent, // corrupt: await retransmission
        };
        // both download flavours share one training path; the coded one
        // additionally carries the codec the upload must be encoded with
        let codec = match down.codec {
            None => None,
            Some((tag, param)) => match CodecSpec::from_tag_param(tag, param) {
                Some(spec) => Some(spec),
                None => return WorkerStep::Silent, // nonsense codec: refuse
            },
        };
        let (round, mask) = (down.round, &down.mask);
        if let Some(until) = self.down_until {
            if round < until {
                return WorkerStep::Silent; // crashed: downloads fall on the floor
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
                    return WorkerStep::Silent;
                }
            }
        }
        let cached =
            |slot: &Option<(u64, Vec<u8>)>| slot.as_ref().is_some_and(|(r, _)| *r == round);
        if let Some(i) = self.reply_cache.iter().position(cached) {
            let (_, reply) = self.reply_cache[i].as_ref().expect("just found");
            return WorkerStep::Send(reply);
        }
        if self.answered.contains(&round) {
            return WorkerStep::Silent; // answered, bytes gone or never kept: never train twice
        }
        if self.fault.die_at_round == Some(round as usize) {
            return WorkerStep::Exit; // simulated crash: no reply
        }
        if let Some((r, d)) = self.fault.delay {
            if r == round as usize {
                self.fault.delay = None;
                return WorkerStep::Delay(d);
            }
        }
        let (layout, edges) = (supernet.layout(), mask.num_edges());
        let alpha_len = 2 * edges * NUM_OPS;
        if edges != supernet.config().topology().num_edges()
            || down.weights.len() != layout.submodel_param_count(mask)
            || down.buffers.len() != layout.submodel_buffer_count(mask)
            || down.alpha.len() != alpha_len
        {
            return WorkerStep::Silent; // shape mismatch: refuse rather than panic
        }
        // the selected slots of the thread's supernet become the shipped
        // sub-model, read from the frame's bytes where they lie
        let mut weights = down.weights;
        supernet.visit_masked_params(mask, &mut |p| weights.fill(p.value.as_mut_slice()));
        let mut buffers = down.buffers;
        supernet.visit_masked_buffers(mask, &mut |b| buffers.fill(b));
        // the step the in-process path runs, on the same derived stream,
        // trained in place
        let (report, mut grads) = self.participant.train_round(
            &mut (&mut *supernet, mask),
            dataset,
            round,
            down.seed_base,
        );
        #[cfg(test)]
        {
            self.steps += 1;
        }
        if let Some(attack) = self.fault.attack {
            let honest = std::mem::replace(&mut self.last_honest, grads.clone());
            apply_attack(attack, round, id as u64, &mut grads, &honest);
        }
        let alpha = Tensor::from_vec(down.alpha, &[alpha_len]).expect("length checked above");
        let delta_alpha = Alpha::from_logits(alpha, edges)
            .grad_log_prob(mask)
            .as_slice()
            .to_vec();
        // the reply is encoded once, into the exactly sized vector the
        // cache keeps or the driver's transport takes
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
        self.remember(round, reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RpcConfig;
    use crate::wire::encode_download_into;
    use fedrlnas_core::RoundRequest;
    use fedrlnas_darts::SupernetConfig;
    use fedrlnas_fed::flat_params;
    use rand::{rngs::StdRng, SeedableRng};

    /// The round in progress: rounds `T - 2` and `T - 1` are still on the
    /// books, and every round was booked to both slots.
    const T: usize = 5;
    /// The flat-gradient length every booked reply must have.
    const LEN: usize = 6;

    /// A two-slot round and everything a link machine reads.
    struct Fixture {
        supernet: Supernet,
        masks: Vec<ArchMask>,
        history: History,
        config: RpcConfig,
        on_time: AtomicUsize,
    }

    impl Fixture {
        fn new(config: RpcConfig) -> Fixture {
            let net = SupernetConfig::tiny();
            let mut rng = StdRng::seed_from_u64(27);
            let supernet = Supernet::new(net.clone(), &mut rng);
            let masks: Vec<ArchMask> = (0..2)
                .map(|_| ArchMask::uniform_random(&net, &mut rng))
                .collect();
            // earlier rounds shipped the masks the other way round
            let swapped: Vec<ArchMask> = masks.iter().rev().cloned().collect();
            let mut history = History::default();
            for round in T - 2..=T {
                let shipped = if round == T { &masks } else { &swapped };
                let record = history.open(round, shipped);
                (0..2).for_each(|p| record.book(p, LEN));
            }
            Fixture {
                supernet,
                masks,
                history,
                config,
                on_time: AtomicUsize::new(0),
            }
        }

        /// Calls `test` with round `T` as a collector sees it.
        fn with<R>(&self, test: impl FnOnce(&Staged<'_>) -> R) -> R {
            let req = RoundRequest {
                round: T,
                masks: &self.masks,
                layout: self.supernet.layout(),
                theta: &[],
                buffers: &[],
                alpha_logits: &[],
                bandwidths_mbps: &[50.0; 2],
                seed_base: 0,
                codec: Default::default(),
                update_norm_bound: None,
                active: None,
            };
            test(&Staged {
                config: &self.config,
                req: &req,
                frame_bytes: &[100; 2],
                history: &self.history,
                on_time: &self.on_time,
            })
        }
    }

    /// Participant `participant`'s fp32 reply for `round`.
    fn reply(round: usize, participant: u32) -> Vec<u8> {
        encode(&Message::UploadUpdate {
            round: round as u64,
            participant,
            delta_w: vec![0.5; LEN],
            delta_alpha: Vec::new(),
            reward: 0.5,
            loss: 1.0,
        })
    }

    fn ms(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    /// What a case expects of `on_idle`, in milliseconds after the round's
    /// start.
    #[derive(Debug, Clone, Copy)]
    enum Want {
        Ship,
        /// The `attempt`-th retransmit: backoff plus send delay from now.
        Retransmit(usize),
        Wait(Option<u64>),
        Release,
        Late,
    }

    /// One call into a link machine.
    #[derive(Debug, Clone, Copy)]
    enum Input {
        /// `on_idle` with the quorum target known since `known` (`None`:
        /// not yet), the on-time count at it or not, and the fault layer
        /// holding a frame until `due`.
        Idle {
            known: Option<u64>,
            met: bool,
            due: Option<u64>,
            want: Want,
        },
        /// The frame `Ship` asked for went out.
        Sent,
        /// A frame that settles nothing (a heartbeat).
        Noise,
    }

    const fn idle(known: Option<u64>, met: bool, want: Want) -> Input {
        Input::Idle {
            known,
            met,
            due: None,
            want,
        }
    }

    /// A link whose download ships at `send_delay` ms, then takes `steps`:
    /// `(ms after the round's start, input)`.
    struct Case {
        name: &'static str,
        send_delay: u64,
        max_retries: usize,
        steps: &'static [(u64, Input)],
        retransmits: u64,
    }

    /// The link machine on a hand-advanced clock — no thread, no
    /// transport — with a 100 ms deadline, a 5 ms quorum drain and a 10 ms
    /// backoff base.
    #[test]
    fn link_machine_schedules_on_a_fake_clock() {
        use Input::{Noise, Sent};
        use Want::*;
        const CASES: &[Case] = &[
            Case {
                name: "no expiry before the quorum target is known",
                send_delay: 0,
                max_retries: 2,
                steps: &[
                    (60_000, idle(None, false, Wait(None))),
                    (60_000, idle(None, true, Wait(None))),
                    (60_000, idle(Some(60_000), false, Wait(Some(60_100)))),
                ],
                retransmits: 0,
            },
            Case {
                name: "the deadline runs from the send when it is later",
                send_delay: 30,
                max_retries: 0,
                steps: &[
                    (31, idle(Some(10), false, Wait(Some(130)))),
                    (129, idle(Some(10), false, Wait(Some(130)))),
                    (130, idle(Some(10), false, Release)),
                    (130, idle(Some(10), false, Late)),
                ],
                retransmits: 0,
            },
            Case {
                name: "the deadline runs from known_at when it is later",
                send_delay: 0,
                max_retries: 0,
                steps: &[
                    (50, idle(Some(50), false, Wait(Some(150)))),
                    (149, idle(Some(50), false, Wait(Some(150)))),
                    (150, idle(Some(50), false, Release)),
                ],
                retransmits: 0,
            },
            Case {
                name: "retransmits at backoff + send delay, max_retries times",
                send_delay: 20,
                max_retries: 2,
                steps: &[
                    (120, idle(Some(0), false, Release)),
                    (120, idle(Some(0), false, Retransmit(0))),
                    (200, idle(Some(0), false, Ship)),
                    (200, Sent),
                    (299, idle(Some(0), false, Wait(Some(300)))),
                    (300, idle(Some(0), false, Release)),
                    (300, idle(Some(0), false, Retransmit(1))),
                    (400, idle(Some(0), false, Ship)),
                    (400, Sent),
                    (500, idle(Some(0), false, Release)),
                    (500, idle(Some(0), false, Late)),
                ],
                retransmits: 2,
            },
            Case {
                name: "no retransmit once the quorum is met",
                send_delay: 0,
                max_retries: 2,
                steps: &[
                    (100, idle(Some(0), true, Wait(Some(105)))),
                    (105, idle(Some(0), true, Release)),
                    (105, idle(Some(0), true, Late)),
                ],
                retransmits: 0,
            },
            Case {
                name: "a fresh drain from the first observation of the quorum",
                send_delay: 0,
                max_retries: 2,
                steps: &[
                    (10, idle(Some(0), false, Wait(Some(100)))),
                    (60, idle(Some(0), true, Wait(Some(65)))),
                    (63, idle(Some(0), true, Wait(Some(65)))),
                    (65, idle(Some(0), true, Release)),
                    (65, idle(Some(0), true, Late)),
                ],
                retransmits: 0,
            },
            Case {
                name: "a held frame is released before the link is late",
                send_delay: 0,
                max_retries: 0,
                steps: &[
                    (100, idle(Some(0), false, Release)),
                    // something was held: it is fed, and the machine asks again
                    (100, Noise),
                    (100, idle(Some(0), false, Release)),
                    // nothing was: late
                    (100, idle(Some(0), false, Late)),
                ],
                retransmits: 0,
            },
            Case {
                name: "a frame the fault layer delays postpones expiry",
                send_delay: 0,
                max_retries: 0,
                steps: &[
                    (
                        5,
                        Input::Idle {
                            known: None,
                            met: false,
                            due: Some(7),
                            want: Wait(Some(7)),
                        },
                    ),
                    (
                        150,
                        Input::Idle {
                            known: Some(0),
                            met: false,
                            due: Some(170),
                            want: Wait(Some(170)),
                        },
                    ),
                    (170, idle(Some(0), false, Release)),
                    (170, idle(Some(0), false, Late)),
                ],
                retransmits: 0,
            },
        ];
        for case in CASES {
            let fixture = Fixture::new(RpcConfig {
                deadline: ms(100),
                quorum_drain: ms(5),
                retry_backoff: ms(10),
                max_retries: case.max_retries,
                ..RpcConfig::default()
            });
            fixture.with(|s| {
                let start = Instant::now();
                let at = |offset: u64| start + ms(offset);
                let mut link = LinkRound::new(0, start, ms(case.send_delay));
                // the download is not read past nor sent before it is due
                let shipped = at(case.send_delay);
                if case.send_delay > 0 {
                    let early = link.on_idle(start, s, Some((1, start)), None);
                    assert_eq!(early, Idle::ShipAt(shipped), "{}", case.name);
                    assert_eq!(link.ship_at(), Some(shipped));
                }
                let due = link.on_idle(shipped, s, None, None);
                assert_eq!(due, Idle::Ship { first: true }, "{}", case.name);
                link.sent(shipped, s);
                assert_eq!(link.ship_at(), None);
                for &(offset, input) in case.steps {
                    let now = at(offset);
                    match input {
                        Input::Idle {
                            known,
                            met,
                            due,
                            want,
                        } => {
                            let expected = match want {
                                Ship => Idle::Ship { first: false },
                                Retransmit(attempt) => {
                                    let salt = (T as u64) << 32;
                                    let backoff = backoff_delay(ms(10), attempt, salt);
                                    Idle::ShipAt(now + backoff + ms(case.send_delay))
                                }
                                Wait(until) => Idle::WaitUntil(until.map(at)),
                                Release => Idle::ReleaseHeld,
                                Late => Idle::Late,
                            };
                            s.on_time.store(usize::from(met), Ordering::Relaxed);
                            let quorum = known.map(|known| (1, at(known)));
                            let got = link.on_idle(now, s, quorum, due.map(at));
                            assert_eq!(got, expected, "{}: at {offset} ms", case.name);
                        }
                        Sent => link.sent(now, s),
                        Noise => {
                            let heartbeat = encode(&Message::Heartbeat { participant: 0 });
                            assert_eq!(link.on_frame(&heartbeat, s), FrameStep::KeepWaiting);
                        }
                    }
                }
                assert_eq!(link.wr.retransmits, case.retransmits, "{}", case.name);
                assert_eq!(
                    link.wr.bytes_down,
                    (case.retransmits + 1) * s.frame_bytes[0],
                    "{}: every send counts",
                    case.name
                );
            });
        }
    }

    /// An on-time reply settles its link once; a coded one that does not
    /// decode against the booked length is a shape reject and settles it
    /// too; a late reply is attributed once, with the mask its round
    /// shipped; a duplicate — of a reply this round or the books already
    /// hold — and a reply off the books are ignored.
    #[test]
    fn link_machine_absorbs_each_reply_once() {
        let fixture = Fixture::new(RpcConfig::default());
        fixture.with(|s| {
            let now = Instant::now();
            let mut link = LinkRound::new(0, now, Duration::ZERO);
            assert_eq!(link.on_frame(&reply(T, 0), s), FrameStep::Settled);
            assert!(link.wr.got && !link.wr.rejected);
            assert_eq!(link.wr.reports.len(), 1);
            assert_eq!(link.wr.reports[0].mask, s.req.masks[0]);
            assert_eq!(s.on_time.load(Ordering::Relaxed), 1);

            let mut link = LinkRound::new(1, now, Duration::ZERO);
            let garbled = encode(&Message::UploadUpdateCoded {
                round: T as u64,
                participant: 1,
                codec_tag: CodecSpec::Fp16.tag(),
                codec_param: 0.0,
                orig_len: LEN as u32,
                coded: vec![1, 2, 3],
                delta_alpha: Vec::new(),
                reward: 0.5,
                loss: 1.0,
            });
            assert_eq!(link.on_frame(&garbled, s), FrameStep::Settled);
            assert!(link.wr.rejected && !link.wr.got);
            assert_eq!(link.wr.rejects.rejected_shape, 1);
            assert_eq!(link.wr.delivered, [(T, 1)]);
            assert!(link.wr.reports.is_empty() && link.wr.comp.is_empty());
            assert_eq!(s.on_time.load(Ordering::Relaxed), 1);

            let mut link = LinkRound::new(0, now, Duration::ZERO);
            for frame in [reply(T - 1, 0), reply(T - 1, 0), reply(T - 3, 0)] {
                assert_eq!(link.on_frame(&frame, s), FrameStep::KeepWaiting);
            }
            assert_eq!(link.wr.delivered, [(T - 1, 0)]);
            assert_eq!(link.wr.late.len(), 1);
            let late = &link.wr.late[0];
            assert_eq!((late.participant, late.computed_at), (0, T - 1));
            assert_eq!(late.mask, s.req.masks[1], "round T - 1's mask for slot 0");
        });
        let mut fixture = Fixture::new(RpcConfig::default());
        fixture.history.mark_delivered(T, 0);
        fixture.history.mark_delivered(T - 1, 0);
        fixture.with(|s| {
            let mut link = LinkRound::new(0, Instant::now(), Duration::ZERO);
            for frame in [reply(T, 0), reply(T - 1, 0)] {
                assert_eq!(link.on_frame(&frame, s), FrameStep::KeepWaiting);
            }
            let wr = &link.wr;
            assert!(wr.reports.is_empty() && wr.late.is_empty() && wr.delivered.is_empty());
            assert_eq!(
                wr.bytes_up,
                2 * reply(T, 0).len() as u64,
                "counted all the same"
            );
        });
    }

    /// A frame speaks only for its link. On link 0, an on-time reply, a
    /// late reply and an evicted-link reply that each claim participant 1
    /// — booked in every round — are noise: their bytes count, nothing is
    /// attributed, `(T - 1, 1)` stays undelivered through the round's
    /// commit, and participant 1's own late reply is then attributed once.
    #[test]
    fn a_frame_speaks_only_for_its_link() {
        let mut fixture = Fixture::new(RpcConfig::default());
        let forged = [reply(T, 1), reply(T - 1, 1)];
        let (link, evicted) = fixture.with(|s| {
            let mut link = LinkRound::new(0, Instant::now(), Duration::ZERO);
            for frame in &forged {
                assert_eq!(link.on_frame(frame, s), FrameStep::KeepWaiting);
            }
            let mut evicted = WorkerRound::default();
            assert!(!on_evicted_frame(&mut evicted, &forged[1], 0, T, s.history));
            assert_eq!(s.on_time.load(Ordering::Relaxed), 0);
            (link.wr, evicted)
        });
        for wr in [&link, &evicted] {
            assert!(wr.reports.is_empty() && wr.late.is_empty() && wr.delivered.is_empty());
            assert!(!wr.got && !wr.rejected);
        }
        assert_eq!(link.bytes_up, (forged[0].len() + forged[1].len()) as u64);
        assert_eq!(evicted.bytes_up, forged[1].len() as u64);
        // what the round's commit does with them
        for &(r, p) in link.delivered.iter().chain(&evicted.delivered) {
            fixture.history.mark_delivered(r, p);
        }
        assert!(!fixture.history.is_delivered(T - 1, 1));
        fixture.with(|s| {
            let genuine = reply(T - 1, 1);
            let mut link = LinkRound::new(1, Instant::now(), Duration::ZERO);
            for _ in 0..2 {
                assert_eq!(link.on_frame(&genuine, s), FrameStep::KeepWaiting);
            }
            assert_eq!(link.wr.delivered, [(T - 1, 1)]);
            assert_eq!(link.wr.late.len(), 1);
            assert_eq!(link.wr.late[0].participant, 1);
            // an evicted link attributes its own the same way
            let mut evicted = WorkerRound::default();
            for _ in 0..2 {
                assert!(!on_evicted_frame(&mut evicted, &genuine, 1, T, s.history));
            }
            assert_eq!(evicted.delivered, [(T - 1, 1)]);
            let heartbeat = encode(&Message::Heartbeat { participant: 1 });
            assert!(on_evicted_frame(&mut evicted, &heartbeat, 1, T, s.history));
        });
    }

    /// One worker and everything `handle_frame` borrows, plus the server's
    /// supernet its downloads are gathered from.
    struct Bench {
        state: WorkerState,
        /// The pool thread's supernet, trained in place.
        supernet: Supernet,
        server: Supernet,
        theta_len: usize,
        dataset: SyntheticDataset,
        scratch: WorkerScratch,
        masks: Vec<ArchMask>,
        alpha: Vec<f32>,
    }

    impl Bench {
        /// A worker on a link whose fault plan is active (`lossy`) or not.
        fn new(fault: ScriptedFault, lossy: bool) -> Bench {
            let config = fedrlnas_core::SearchConfig::tiny();
            let mut rng = StdRng::seed_from_u64(21);
            let mut search = fedrlnas_core::FederatedModelSearch::new(config.clone(), &mut rng);
            let dataset = search.dataset().clone();
            let participant = search.server_mut().participants()[0].clone();
            let mut server = Supernet::new(config.net.clone(), &mut rng);
            Bench {
                state: WorkerState::new(
                    participant,
                    fault,
                    Arc::new(Mutex::new(Vec::new())),
                    lossy,
                ),
                theta_len: server.param_count(),
                supernet: Supernet::new(config.net.clone(), &mut StdRng::seed_from_u64(22)),
                server,
                dataset,
                scratch: WorkerScratch::new(Arc::new(AtomicU64::new(0))),
                masks: (0..4)
                    .map(|_| ArchMask::uniform_random(&config.net, &mut rng))
                    .collect(),
                alpha: Alpha::new(&config.net).logits().as_slice().to_vec(),
            }
        }

        /// Round `round`'s download, as the engine would stage it.
        fn download(&self, round: u64) -> Vec<u8> {
            self.download_with_alpha(round, &self.alpha)
        }

        /// [`Bench::download`] carrying `alpha` as the controller logits.
        fn download_with_alpha(&self, round: u64, alpha: &[f32]) -> Vec<u8> {
            let mask = &self.masks[round as usize % self.masks.len()];
            let mut sub = self.server.extract_submodel(mask);
            let weights = flat_params(&mut sub);
            let mut buffers = Vec::new();
            sub.visit_buffers(&mut |b| buffers.extend_from_slice(b));
            let mut frame = Vec::new();
            encode_download_into(
                &mut frame, round, 0xFEED, mask, &weights, &buffers, alpha, None,
            );
            frame
        }

        fn step(&mut self, frame: &[u8]) -> WorkerStep<'_> {
            self.state.handle_frame(
                &mut self.supernet,
                self.theta_len,
                &self.dataset,
                &mut self.scratch,
                frame,
            )
        }

        /// Hands the worker one frame; returns the bytes it would send.
        fn feed(&mut self, frame: &[u8]) -> Option<Vec<u8>> {
            match self.step(frame) {
                WorkerStep::Send(reply) => Some(reply.to_vec()),
                WorkerStep::SendOwned(reply) => Some(reply),
                _ => None,
            }
        }

        fn steps(&self) -> usize {
            self.state.steps
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
        let mut b = Bench::new(ScriptedFault::default(), true);
        let mut replies = Vec::new();
        let mut steps = vec![b.steps()];
        for round in 0..=16u64 {
            let frame = b.download(round);
            replies.push(
                b.feed(&frame)
                    .expect("a fresh round is trained and answered"),
            );
            steps.push(b.steps());
            assert_ne!(
                steps[steps.len() - 2],
                steps[steps.len() - 1],
                "round {round} takes a step"
            );
        }
        let trained = b.steps();
        for (round, expect_reply) in [(16u64, true), (15, true), (14, false), (1, false)] {
            let frame = b.download(round);
            let reply = b.feed(&frame);
            assert_eq!(b.steps(), trained, "round {round} must not train again");
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
        // at rest a worker holds its struct, two exactly sized replies and
        // its heartbeat
        let two_newest: usize = replies[15..].iter().map(Vec::len).sum();
        assert_eq!(
            b.state.resident_bytes(),
            std::mem::size_of::<WorkerState>() - std::mem::size_of::<Participant>()
                + two_newest
                + b.state.heartbeat.len()
        );
    }

    /// A scripted crash forgets the replies *and* the answered rounds:
    /// what the restarted worker is asked again, it trains again.
    #[test]
    fn a_crash_clears_the_cache_and_the_answered_ring() {
        let mut b = Bench::new(
            ScriptedFault {
                crash_restart: Some((2, 1)),
                ..ScriptedFault::default()
            },
            true,
        );
        for round in 0..2 {
            let frame = b.download(round);
            assert!(b.feed(&frame).is_some());
        }
        let frame = b.download(2);
        assert!(b.feed(&frame).is_none(), "the crash round is not answered");
        // back up from round 3 on; round 1's memory went with the crash
        let frame = b.download(3);
        assert!(b.feed(&frame).is_some());
        let before = b.steps();
        let frame = b.download(1);
        assert!(b.feed(&frame).is_some(), "round 1 is no longer remembered");
        assert_ne!(b.steps(), before);
        let remembered = |r: &&u64| **r != NO_ROUND;
        assert_eq!(b.state.answered.iter().filter(remembered).count(), 2);
    }

    /// The clean-link twin of the cache test: a worker whose link cannot
    /// lose a frame trains each round once, hands its reply over without
    /// keeping a byte of it, meets a re-sent download of an answered round
    /// with silence and takes no second step — and a scripted
    /// crash still forgets the answered rounds.
    #[test]
    fn a_clean_link_trains_a_round_once_and_keeps_no_reply() {
        let mut b = Bench::new(
            ScriptedFault {
                crash_restart: Some((3, 1)),
                ..ScriptedFault::default()
            },
            false,
        );
        let at_rest = std::mem::size_of::<WorkerState>() - std::mem::size_of::<Participant>()
            + b.state.heartbeat.len();
        for round in 0..3u64 {
            let (before, frame) = (b.steps(), b.download(round));
            assert!(
                matches!(b.step(&frame), WorkerStep::SendOwned(_)),
                "round {round} is trained and handed over"
            );
            assert_ne!(b.steps(), before, "round {round} takes a step");
            assert_eq!(b.state.resident_bytes(), at_rest, "no reply bytes kept");
            let trained = b.steps();
            for repeat in 0..=round {
                let frame = b.download(repeat);
                assert!(
                    matches!(b.step(&frame), WorkerStep::Silent),
                    "a re-sent round {repeat} is met with silence"
                );
                assert_eq!(b.steps(), trained, "round {repeat} must not train again");
            }
        }
        let frame = b.download(3);
        assert!(b.feed(&frame).is_none(), "the crash round is not answered");
        // back up from round 4 on; rounds 0..3 went with the crash
        let frame = b.download(4);
        assert!(b.feed(&frame).is_some());
        let before = b.steps();
        let frame = b.download(1);
        assert!(b.feed(&frame).is_some(), "round 1 is no longer remembered");
        assert_ne!(b.steps(), before);
        let remembered = |r: &&u64| **r != NO_ROUND;
        assert_eq!(b.state.answered.iter().filter(remembered).count(), 2);
        assert_eq!(b.state.resident_bytes(), at_rest);
    }

    /// A download whose envelope, mask, weights and buffers are sound but
    /// whose α run has the wrong length is refused like a wrong weight
    /// count — with silence, before training, so no step is taken — and
    /// the worker answers the correct frame afterwards.
    #[test]
    fn a_download_with_the_wrong_alpha_length_is_refused_before_training() {
        let mut b = Bench::new(ScriptedFault::default(), true);
        let (steps, good) = (b.steps(), b.alpha.len());
        for len in [0, good + 1] {
            let frame = b.download_with_alpha(0, &vec![0.5; len]);
            assert!(matches!(b.step(&frame), WorkerStep::Silent), "α of {len}");
            assert_eq!(b.steps(), steps, "α of {len}: nothing trained");
        }
        let frame = b.download(0);
        assert!(b.feed(&frame).is_some(), "the correct frame is answered");
        assert_ne!(b.steps(), steps);
    }
}
