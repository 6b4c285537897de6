//! Seeded, deterministic fault injection for transports.
//!
//! A [`FaultPlan`] describes *what can go wrong* on a link — frame drops,
//! single-bit corruption, duplication, reordering, extra latency, and
//! frame-windowed partitions — as probabilities drawn from a dedicated
//! fault RNG. Wrapping any [`Transport`] in a [`FaultyTransport`] injects
//! those faults on both directions of the link while counting every
//! injected fault in a [`FaultTally`].
//!
//! Determinism contract: the fault schedule is a pure function of
//! `(plan.seed, participant, direction, frame index)`. The injector's RNG
//! is *never* consumed when the plan is inactive, so a run with
//! [`FaultPlan::none`] is byte-identical to one without the wrapper; and
//! two runs with the same plan see the same faults on the same frames,
//! regardless of thread scheduling, because each link direction owns its
//! own stream.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fedrlnas_fed::FaultTally;
use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

use crate::transport::{Doorbell, Transport, TransportError};

/// What can go wrong on a link, as per-frame probabilities.
///
/// Probabilities are evaluated per frame against a single uniform draw
/// with cumulative thresholds, so at most one fault fires per frame and
/// `drop + corrupt + duplicate + reorder + delay` should stay ≤ 1.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed of the dedicated fault RNG; mixed with the participant id and
    /// link direction so every link direction has its own stream.
    pub seed: u64,
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability a single bit of the frame is flipped (the wire CRC
    /// turns this into a typed decode failure downstream).
    pub corrupt: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability a frame is held back and delivered after its successor.
    pub reorder: f64,
    /// Probability a frame is delayed by up to [`FaultPlan::max_delay`].
    pub delay: f64,
    /// Upper bound on injected extra latency; the actual delay is a fresh
    /// uniform draw in `[0, max_delay)` each time the fault fires.
    pub max_delay: Duration,
    /// Transient partitions: frame-index windows in which every matching
    /// frame is dropped, on top of the probabilistic faults.
    pub partitions: Vec<Partition>,
}

impl FaultPlan {
    /// A plan that injects nothing; the wrapper becomes a transparent
    /// pass-through that never consumes RNG state.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A light chaos preset: a few percent of frames dropped, corrupted,
    /// duplicated or delayed — every fault recoverable by the engine's
    /// retry/idempotence machinery.
    pub fn light(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop: 0.05,
            corrupt: 0.02,
            duplicate: 0.02,
            reorder: 0.02,
            delay: 0.05,
            max_delay: Duration::from_millis(5),
            partitions: Vec::new(),
        }
    }

    /// Whether this plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.drop > 0.0
            || self.corrupt > 0.0
            || self.duplicate > 0.0
            || self.reorder > 0.0
            || self.delay > 0.0
            || !self.partitions.is_empty()
    }
}

/// A transient partition: every frame whose per-direction index falls in
/// `[start_frame, start_frame + frames)` on a matching link is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// Link the partition applies to; `None` partitions every participant.
    pub participant: Option<usize>,
    /// First frame index (per link direction) inside the partition.
    pub start_frame: u64,
    /// How many frames the partition lasts.
    pub frames: u64,
}

impl Partition {
    fn covers(&self, participant: usize, frame: u64) -> bool {
        self.participant.map(|p| p == participant).unwrap_or(true)
            && frame >= self.start_frame
            && frame - self.start_frame < self.frames
    }
}

/// The fault chosen for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// Deliver normally.
    None,
    /// Silently discard the frame.
    Drop,
    /// Flip one bit at the given bit offset (modulo frame length).
    Corrupt(u64),
    /// Deliver the frame twice.
    Duplicate,
    /// Hold the frame back until after its successor.
    Reorder,
    /// Deliver this much later.
    Delay(Duration),
}

/// splitmix64 — the same finalizer the vendored RNG seeds with; used here
/// to give every (participant, direction) link its own fault stream.
pub(crate) fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-direction fault scheduler: owns the RNG, the frame counter and the
/// running tally for one direction of one link.
pub struct FaultInjector {
    plan: FaultPlan,
    participant: usize,
    rng: StdRng,
    frame: u64,
    active: bool,
    tally: FaultTally,
}

impl FaultInjector {
    /// Builds the injector for one link direction. `direction` is `0` for
    /// server→participant and `1` for participant→server.
    pub fn new(plan: FaultPlan, participant: usize, direction: u64) -> FaultInjector {
        let seed = plan.seed ^ mix((participant as u64) << 1 | direction);
        let active = plan.is_active();
        FaultInjector {
            plan,
            participant,
            rng: StdRng::seed_from_u64(seed),
            frame: 0,
            active,
            tally: FaultTally::new(),
        }
    }

    /// Decides the fault for the next frame and counts it. Pure function
    /// of the constructor arguments and how often it has been called.
    pub fn next_fault(&mut self) -> FrameFault {
        if !self.active {
            return FrameFault::None;
        }
        let frame = self.frame;
        self.frame += 1;
        if self
            .plan
            .partitions
            .iter()
            .any(|p| p.covers(self.participant, frame))
        {
            self.tally.frames_dropped = self.tally.frames_dropped.saturating_add(1);
            return FrameFault::Drop;
        }
        let u: f64 = self.rng.gen();
        let mut acc = self.plan.drop;
        if u < acc {
            self.tally.frames_dropped = self.tally.frames_dropped.saturating_add(1);
            return FrameFault::Drop;
        }
        acc += self.plan.corrupt;
        if u < acc {
            self.tally.frames_corrupt = self.tally.frames_corrupt.saturating_add(1);
            return FrameFault::Corrupt(self.rng.next_u64());
        }
        acc += self.plan.duplicate;
        if u < acc {
            self.tally.frames_duplicated = self.tally.frames_duplicated.saturating_add(1);
            return FrameFault::Duplicate;
        }
        acc += self.plan.reorder;
        if u < acc {
            self.tally.frames_reordered = self.tally.frames_reordered.saturating_add(1);
            return FrameFault::Reorder;
        }
        acc += self.plan.delay;
        if u < acc {
            self.tally.frames_delayed = self.tally.frames_delayed.saturating_add(1);
            let f: f64 = self.rng.gen();
            return FrameFault::Delay(self.plan.max_delay.mul_f64(f));
        }
        FrameFault::None
    }

    /// Drains the tally accumulated since the last call.
    pub fn take_tally(&mut self) -> FaultTally {
        std::mem::take(&mut self.tally)
    }
}

fn flip_bit(frame: &mut [u8], bit: u64) {
    if frame.is_empty() {
        return;
    }
    let total_bits = frame.len() as u64 * 8;
    let b = bit % total_bits;
    frame[(b / 8) as usize] ^= 1 << (b % 8);
}

/// A [`Transport`] wrapper that injects the faults scheduled by a
/// [`FaultPlan`] on both directions of the link.
///
/// Injection semantics:
///
/// * **Drop** — the frame is discarded; sends still report success (the
///   loss is the network's, not the caller's).
/// * **Corrupt** — one RNG-chosen bit is flipped; the wire CRC turns this
///   into a typed decode failure at the receiver.
/// * **Duplicate** — the frame is delivered twice back to back.
/// * **Reorder** — the frame is held until the *next* frame passes, then
///   released. A held receive-side frame otherwise comes out only through
///   [`FaultyTransport::release_held`], which the round engine calls when
///   a link's wait runs out, so reordering can never deadlock a round.
/// * **Delay** — delivery waits an RNG-drawn duration first: the frame is
///   held until it is due ([`Transport::next_due`]) and the next poll at
///   or after that time passes it on, so one delayed frame stalls its own
///   link and not the thread's other links. A blocking send sleeps the
///   hold out; [`FaultyTransport::send_deferred`] leaves it on a timer.
///   Nothing overtakes a held frame on its link.
///
/// Each direction has one fault pipeline, whichever call drives it, so the
/// draws — and the [`FaultTally`] — do not depend on whether a link was
/// read by blocking or by polling.
pub struct FaultyTransport<T: Transport> {
    inner: T,
    tx: FaultInjector,
    rx: FaultInjector,
    tx_held: Option<Vec<u8>>,
    rx_held: Option<Vec<u8>>,
    rx_queue: VecDeque<Vec<u8>>,
    /// A frame a delay fault is holding on its way out, and until when.
    tx_delayed: Option<(Instant, Vec<u8>)>,
    /// A received frame a delay fault is holding, and until when.
    rx_delayed: Option<(Instant, Vec<u8>)>,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` with the fault schedule of `plan` for the link to
    /// `participant`.
    pub fn new(inner: T, participant: usize, plan: &FaultPlan) -> FaultyTransport<T> {
        FaultyTransport {
            inner,
            tx: FaultInjector::new(plan.clone(), participant, 0),
            rx: FaultInjector::new(plan.clone(), participant, 1),
            tx_held: None,
            rx_held: None,
            rx_queue: VecDeque::new(),
            tx_delayed: None,
            rx_delayed: None,
        }
    }

    /// Drains the fault counters for both directions of the link.
    pub fn take_tally(&mut self) -> FaultTally {
        let mut t = self.tx.take_tally();
        t.merge(&self.rx.take_tally());
        t
    }

    /// Sends any transmit-side frame held back by a reorder fault.
    fn flush_tx_held(&mut self) -> Result<(), TransportError> {
        if let Some(held) = self.tx_held.take() {
            self.inner.send_owned(held)?;
        }
        Ok(())
    }
}

/// How far the transmit side can displace a frame: the most frames sent
/// *after* it that the peer can receive *before* it. A reorder-held frame
/// goes out right behind the next frame that is actually delivered (a
/// second hold swaps the two), a duplicate goes out back to back with its
/// original, and nothing else changes the order — so the answer is one.
/// The round engine sizes each worker's reply cache from this (see
/// `protocol::REPLY_CACHE_ROUNDS`); `displacement_is_bounded` pins it.
pub(crate) const MAX_DISPLACEMENT: usize = 1;

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.send_owned(frame.to_vec())
    }

    fn send_owned(&mut self, frame: Vec<u8>) -> Result<(), TransportError> {
        self.send_deferred(frame)?;
        // a blocking send: sleep out a delay fault's hold, then flush
        if let Some((due, _)) = self.tx_delayed {
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            self.flush_tx_delayed()?;
        }
        Ok(())
    }

    fn poll_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        // readiness-driven: each available inner frame goes through the
        // receive-side fault pipeline, and the probe reports idle once the
        // inner link does — or while a delay fault holds the frame at its
        // head
        if let Some((due, _)) = self.tx_delayed {
            if due <= Instant::now() {
                self.flush_tx_delayed()?;
            }
        }
        loop {
            if let Some(ready) = self.rx_queue.pop_front() {
                return Ok(Some(ready));
            }
            if let Some((due, _)) = self.rx_delayed {
                if Instant::now() < due {
                    return Ok(None);
                }
            }
            if let Some((_, frame)) = self.rx_delayed.take() {
                self.release_after(frame);
                continue;
            }
            match self.inner.poll_recv()? {
                Some(frame) => self.receive(frame),
                None => return Ok(None),
            }
        }
    }

    /// When the frame a delay fault is holding (either direction) is due:
    /// while it is set the link's wait does not expire — the frame is in
    /// hand. An event loop arms its timer with it and polls the link then,
    /// which sends or delivers the frame.
    fn next_due(&self) -> Option<Instant> {
        let dues = self.tx_delayed.iter().chain(&self.rx_delayed);
        dues.map(|(due, _)| *due).min()
    }

    fn set_waker(&mut self, waker: Option<(Arc<Doorbell>, usize)>) {
        self.inner.set_waker(waker);
    }

    #[cfg(unix)]
    fn raw_fd(&self) -> Option<std::os::fd::RawFd> {
        self.inner.raw_fd()
    }
}

impl<T: Transport> FaultyTransport<T> {
    /// Sends the transmit-side frame a delay fault is holding, due or not.
    fn flush_tx_delayed(&mut self) -> Result<(), TransportError> {
        if let Some((_, frame)) = self.tx_delayed.take() {
            self.inner.send_owned(frame)?;
            self.flush_tx_held()?;
        }
        Ok(())
    }

    /// [`Transport::send_owned`] for an event loop, and the transmit-side
    /// fault pipeline of both: a delay fault holds the frame until it is
    /// due instead of sleeping, and the next [`Transport::poll_recv`] at or
    /// after [`Transport::next_due`] sends it (a blocking send sleeps the
    /// hold out). Same draws from the same schedule either way.
    pub fn send_deferred(&mut self, mut frame: Vec<u8>) -> Result<(), TransportError> {
        // a frame still being delayed leaves ahead of this one
        self.flush_tx_delayed()?;
        match self.tx.next_fault() {
            FrameFault::Drop => {
                // the frame vanishes; anything held keeps waiting
                Ok(())
            }
            FrameFault::Corrupt(bit) => {
                flip_bit(&mut frame, bit);
                self.inner.send_owned(frame)?;
                self.flush_tx_held()
            }
            FrameFault::Duplicate => {
                self.inner.send(&frame)?;
                self.inner.send_owned(frame)?;
                self.flush_tx_held()
            }
            FrameFault::Reorder => {
                if let Some(held) = self.tx_held.take() {
                    // two holds in a row: release in swapped order
                    self.inner.send_owned(frame)?;
                    self.inner.send_owned(held)
                } else {
                    self.tx_held = Some(frame);
                    Ok(())
                }
            }
            FrameFault::Delay(d) => {
                self.tx_delayed = Some((Instant::now() + d, frame));
                Ok(())
            }
            FrameFault::None => {
                self.inner.send_owned(frame)?;
                self.flush_tx_held()
            }
        }
    }

    /// The receive-side fault pipeline behind [`Transport::poll_recv`]:
    /// draws one inbound frame's fault and files the frame accordingly —
    /// delivered frames into `rx_queue` in delivery order, a reorder hold
    /// into `rx_held`, a delay fault's hold into `rx_delayed`.
    fn receive(&mut self, frame: Vec<u8>) {
        match self.rx.next_fault() {
            FrameFault::Drop => {}
            FrameFault::Corrupt(bit) => {
                let mut bad = frame;
                flip_bit(&mut bad, bit);
                self.rx_queue.push_back(bad);
            }
            FrameFault::Duplicate => {
                self.rx_queue.push_back(frame.clone());
                self.rx_queue.push_back(frame);
            }
            FrameFault::Reorder => match self.rx_held.take() {
                // two holds in a row: swapped release
                Some(held) => {
                    self.rx_queue.push_back(frame);
                    self.rx_queue.push_back(held);
                }
                None => self.rx_held = Some(frame),
            },
            FrameFault::Delay(d) => self.rx_delayed = Some((Instant::now() + d, frame)),
            FrameFault::None => self.release_after(frame),
        }
    }

    /// Queues `frame` for delivery, releasing any reorder-held frame
    /// *after* it (that is what makes the hold a reordering).
    fn release_after(&mut self, frame: Vec<u8>) {
        self.rx_queue.push_back(frame);
        if let Some(held) = self.rx_held.take() {
            self.rx_queue.push_back(held);
        }
    }

    /// The wrapped transport.
    pub(crate) fn inner(&self) -> &T {
        &self.inner
    }

    /// Heap bytes the fault layer itself holds: frames a fault has held
    /// back or queued, the queue's own table, and both directions' copy
    /// of the plan's partition list. Debug accounting.
    pub(crate) fn heap_bytes(&self) -> usize {
        let delayed = self.tx_delayed.iter().chain(&self.rx_delayed);
        let frames = self
            .tx_held
            .iter()
            .chain(&self.rx_held)
            .chain(&self.rx_queue)
            .chain(delayed.map(|(_, frame)| frame));
        frames.map(Vec::capacity).sum::<usize>()
            + self.rx_queue.capacity() * std::mem::size_of::<Vec<u8>>()
            + 2 * self.tx.plan.partitions.capacity() * std::mem::size_of::<Partition>()
    }

    /// Releases a receive-side frame held back by a reorder fault: the one
    /// way out for a held frame whose successor never comes. The round
    /// engine calls it when a link's wait runs out, so a held frame is
    /// never lost.
    pub fn release_held(&mut self) -> Option<Vec<u8>> {
        self.rx_held.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelTransport;
    use crate::wire::{decode, encode, Message};

    #[test]
    fn inactive_plan_is_transparent_and_consumes_no_rng() {
        let mut inj = FaultInjector::new(FaultPlan::none(), 3, 0);
        for _ in 0..100 {
            assert_eq!(inj.next_fault(), FrameFault::None);
        }
        assert!(!inj.take_tally().any());
        let (a, mut b) = ChannelTransport::pair();
        let mut faulty = FaultyTransport::new(a, 0, &FaultPlan::none());
        let frame = encode(&Message::Ack { round: 7 });
        faulty.send(&frame).unwrap();
        assert_eq!(b.recv().unwrap(), frame);
        b.send(&frame).unwrap();
        assert_eq!(
            faulty.recv_timeout(Duration::from_millis(200)).unwrap(),
            frame
        );
    }

    #[test]
    fn same_seed_same_schedule_different_links_differ() {
        let plan = FaultPlan::light(42);
        let schedule = |participant: usize, dir: u64| {
            let mut inj = FaultInjector::new(plan.clone(), participant, dir);
            (0..500).map(|_| inj.next_fault()).collect::<Vec<_>>()
        };
        assert_eq!(schedule(0, 0), schedule(0, 0));
        assert_eq!(schedule(2, 1), schedule(2, 1));
        assert_ne!(schedule(0, 0), schedule(1, 0));
        assert_ne!(schedule(0, 0), schedule(0, 1));
        let other = {
            let mut inj = FaultInjector::new(FaultPlan::light(43), 0, 0);
            (0..500).map(|_| inj.next_fault()).collect::<Vec<_>>()
        };
        assert_ne!(schedule(0, 0), other);
    }

    #[test]
    fn tally_matches_schedule() {
        let plan = FaultPlan::light(7);
        let mut inj = FaultInjector::new(plan, 1, 0);
        let faults: Vec<FrameFault> = (0..2000).map(|_| inj.next_fault()).collect();
        let t = inj.take_tally();
        let count = |f: fn(&FrameFault) -> bool| faults.iter().filter(|x| f(x)).count() as u64;
        assert_eq!(t.frames_dropped, count(|f| matches!(f, FrameFault::Drop)));
        assert_eq!(
            t.frames_corrupt,
            count(|f| matches!(f, FrameFault::Corrupt(_)))
        );
        assert_eq!(
            t.frames_duplicated,
            count(|f| matches!(f, FrameFault::Duplicate))
        );
        assert_eq!(
            t.frames_reordered,
            count(|f| matches!(f, FrameFault::Reorder))
        );
        assert_eq!(
            t.frames_delayed,
            count(|f| matches!(f, FrameFault::Delay(_)))
        );
        assert!(t.any(), "light plan over 2000 frames must inject something");
        // drained: a second take sees nothing
        assert!(!inj.take_tally().any());
    }

    #[test]
    fn partition_drops_exactly_its_window() {
        let plan = FaultPlan {
            seed: 5,
            partitions: vec![Partition {
                participant: Some(4),
                start_frame: 3,
                frames: 2,
            }],
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan.clone(), 4, 0);
        let faults: Vec<FrameFault> = (0..8).map(|_| inj.next_fault()).collect();
        for (i, f) in faults.iter().enumerate() {
            if (3..5).contains(&i) {
                assert_eq!(*f, FrameFault::Drop, "frame {i} inside the partition");
            } else {
                assert_eq!(*f, FrameFault::None, "frame {i} outside the partition");
            }
        }
        // a different participant is unaffected
        let mut other = FaultInjector::new(plan, 2, 0);
        assert!((0..8).all(|_| other.next_fault() == FrameFault::None));
    }

    #[test]
    fn corruption_is_caught_by_wire_crc() {
        let plan = FaultPlan {
            seed: 1,
            corrupt: 1.0,
            ..FaultPlan::default()
        };
        let (a, mut b) = ChannelTransport::pair();
        let mut faulty = FaultyTransport::new(a, 0, &plan);
        let frame = encode(&Message::Heartbeat { participant: 9 });
        faulty.send(&frame).unwrap();
        let received = b.recv().unwrap();
        assert_ne!(received, frame, "exactly one bit must differ");
        assert!(decode(&received).is_err(), "CRC must catch the flip");
        assert_eq!(faulty.take_tally().frames_corrupt, 1);
    }

    #[test]
    fn duplicate_and_drop_round_trip() {
        let plan = FaultPlan {
            seed: 1,
            duplicate: 1.0,
            ..FaultPlan::default()
        };
        let (a, mut b) = ChannelTransport::pair();
        let mut faulty = FaultyTransport::new(a, 0, &plan);
        let frame = encode(&Message::Ack { round: 1 });
        faulty.send(&frame).unwrap();
        assert_eq!(b.recv().unwrap(), frame);
        assert_eq!(b.recv().unwrap(), frame, "duplicate delivers twice");

        let drop_plan = FaultPlan {
            seed: 1,
            drop: 1.0,
            ..FaultPlan::default()
        };
        let (c, mut d) = ChannelTransport::pair();
        let mut dropping = FaultyTransport::new(c, 0, &drop_plan);
        dropping.send(&frame).unwrap();
        assert!(matches!(
            d.recv_timeout(Duration::from_millis(30)),
            Err(TransportError::Timeout)
        ));
        assert_eq!(dropping.take_tally().frames_dropped, 1);
    }

    #[test]
    fn reorder_swaps_adjacent_frames_and_never_deadlocks() {
        // tx side: hold the first frame, release after the second
        let plan = FaultPlan {
            seed: 1,
            reorder: 1.0,
            ..FaultPlan::default()
        };
        let (a, mut b) = ChannelTransport::pair();
        let mut faulty = FaultyTransport::new(a, 0, &plan);
        let f1 = encode(&Message::Ack { round: 1 });
        let f2 = encode(&Message::Ack { round: 2 });
        faulty.send(&f1).unwrap();
        assert!(matches!(
            b.recv_timeout(Duration::from_millis(20)),
            Err(TransportError::Timeout)
        ));
        faulty.send(&f2).unwrap();
        assert_eq!(b.recv().unwrap(), f2);
        assert_eq!(b.recv().unwrap(), f1);

        // rx side: a held frame outlasts an expiring receive, and
        // release_held hands it over
        let (c, mut d) = ChannelTransport::pair();
        let mut rx_faulty = FaultyTransport::new(c, 0, &plan);
        d.send(&f1).unwrap();
        assert!(matches!(
            rx_faulty.recv_timeout(Duration::from_millis(20)),
            Err(TransportError::Timeout)
        ));
        assert_eq!(rx_faulty.release_held(), Some(f1), "held frame lost");
    }

    /// A delay fault holds the frame — the link reports idle and names
    /// the due time — and a blocking receive waits until then, where a
    /// blocking send sleeps; the draws, and so the tally, are the same.
    #[test]
    fn delay_is_held_on_the_poll_path_and_slept_on_the_blocking_path() {
        let plan = FaultPlan {
            seed: 3,
            delay: 1.0,
            max_delay: Duration::from_millis(40),
            ..FaultPlan::default()
        };
        let mut draws = FaultInjector::new(plan.clone(), 0, 0);
        let FrameFault::Delay(tx_delay) = draws.next_fault() else {
            panic!("the plan delays every frame");
        };
        let mut draws = FaultInjector::new(plan.clone(), 0, 1);
        let FrameFault::Delay(rx_delay) = draws.next_fault() else {
            panic!("the plan delays every frame");
        };
        let f1 = encode(&Message::Ack { round: 1 });
        let f2 = encode(&Message::Ack { round: 2 });

        // transmit side, deferred: nothing leaves before the due time
        let (a, mut b) = ChannelTransport::pair();
        let mut held = FaultyTransport::new(a, 0, &plan);
        let start = Instant::now();
        held.send_deferred(f1.clone()).unwrap();
        let due = held.next_due().expect("a frame is held");
        assert!(due >= start + tx_delay);
        if Instant::now() < due {
            assert!(matches!(b.poll_recv(), Ok(None)), "sent before it was due");
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        assert!(matches!(held.poll_recv(), Ok(None)));
        assert_eq!(b.poll_recv().unwrap().unwrap(), f1);
        assert_eq!(held.next_due(), None);
        // a later frame never overtakes a held one
        held.send_deferred(f1.clone()).unwrap();
        held.send_deferred(f2.clone()).unwrap();
        assert_eq!(b.poll_recv().unwrap().unwrap(), f1);

        // receive side, polled: idle until due, then delivered
        let (c, mut d) = ChannelTransport::pair();
        let mut held = FaultyTransport::new(c, 0, &plan);
        d.send(&f1).unwrap();
        d.send(&f2).unwrap();
        let start = Instant::now();
        assert!(matches!(held.poll_recv(), Ok(None)));
        let due = held.next_due().expect("a frame is held");
        assert!(due >= start + rx_delay);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        assert_eq!(held.poll_recv().unwrap().unwrap(), f1);
        // the second frame drew its own delay; a blocking receive waits
        // out what is left of it, and no longer
        assert!(matches!(held.poll_recv(), Ok(None)));
        let due = held.next_due().expect("the second frame is held");
        assert_eq!(held.recv_timeout(Duration::from_secs(10)).unwrap(), f2);
        assert!(Instant::now() >= due);
        assert!(
            Instant::now() < due + Duration::from_secs(5),
            "woke too late"
        );
        assert_eq!(held.take_tally().frames_delayed, 2);

        // blocking send: slept
        let (e, mut f) = ChannelTransport::pair();
        let mut slept = FaultyTransport::new(e, 0, &plan);
        let start = Instant::now();
        slept.send(&f1).unwrap();
        assert!(start.elapsed() >= tx_delay);
        assert_eq!(f.poll_recv().unwrap().unwrap(), f1);
        assert_eq!(slept.next_due(), None);
    }

    /// One receive-side pipeline: for random plans, the same inbound
    /// frames read by blocking (`recv_timeout`) and by polling
    /// (`poll_recv`, waiting out `next_due`) come out in the same order,
    /// with the same tally. Both release a reorder-held frame at the end,
    /// as the round engine does.
    #[test]
    fn blocking_and_polling_receives_deliver_alike() {
        let mut rng = StdRng::seed_from_u64(2027);
        for _ in 0..16 {
            let plan = FaultPlan {
                seed: rng.gen(),
                drop: rng.gen_range(0.0..0.2),
                corrupt: rng.gen_range(0.0..0.2),
                duplicate: rng.gen_range(0.0..0.2),
                reorder: rng.gen_range(0.0..0.2),
                delay: rng.gen_range(0.0..0.1),
                max_delay: Duration::from_micros(300),
                partitions: Vec::new(),
            };
            let read = |blocking: bool| {
                let (near, mut far) = ChannelTransport::pair();
                let mut link = FaultyTransport::new(near, 3, &plan);
                for round in 0..100 {
                    far.send(&encode(&Message::Ack { round })).unwrap();
                }
                let mut got = Vec::new();
                if blocking {
                    while let Ok(frame) = link.recv_timeout(Duration::from_millis(5)) {
                        got.push(frame);
                    }
                    got.extend(link.release_held());
                } else {
                    loop {
                        if let Some(frame) = link.poll_recv().unwrap() {
                            got.push(frame);
                        } else if let Some(due) = link.next_due() {
                            std::thread::sleep(due.saturating_duration_since(Instant::now()));
                        } else {
                            break;
                        }
                    }
                    got.extend(link.release_held());
                }
                (got, link.take_tally())
            };
            let (blocked, polled) = (read(true), read(false));
            assert_eq!(blocked.0, polled.0, "{plan:?}: delivered frames");
            assert_eq!(blocked.1, polled.1, "{plan:?}: tally");
            assert!(blocked.0.len() > 50, "{plan:?}: most frames get through");
        }
    }

    /// Pins [`MAX_DISPLACEMENT`], which the round engine sizes every
    /// worker's reply cache from: whatever the plan drops, corrupts,
    /// duplicates or reorders, a frame is overtaken by at most that many
    /// of the frames sent after it — and by exactly that many somewhere,
    /// so the bound is not loose either.
    #[test]
    fn displacement_is_bounded() {
        let mut worst = 0;
        for seed in 0..8 {
            let plan = FaultPlan {
                seed,
                drop: 0.15,
                corrupt: 0.1,
                duplicate: 0.15,
                reorder: 0.25,
                ..FaultPlan::default()
            };
            let (a, mut b) = ChannelTransport::pair();
            let mut faulty = FaultyTransport::new(a, 0, &plan);
            for round in 0..400 {
                faulty.send(&encode(&Message::Ack { round })).unwrap();
            }
            let mut seen: Vec<u64> = Vec::new();
            while let Some(frame) = b.poll_recv().unwrap() {
                let Ok(Message::Ack { round }) = decode(&frame) else {
                    continue; // corrupted in flight
                };
                let mut overtaken_by: Vec<u64> =
                    seen.iter().copied().filter(|&r| r > round).collect();
                overtaken_by.sort_unstable();
                overtaken_by.dedup();
                assert!(
                    overtaken_by.len() <= MAX_DISPLACEMENT,
                    "seed {seed}: frame {round} arrived behind {overtaken_by:?}"
                );
                worst = worst.max(overtaken_by.len());
                seen.push(round);
            }
            assert!(seen.len() > 200, "most frames get through");
        }
        assert_eq!(worst, MAX_DISPLACEMENT, "the plans above do reorder");
    }
}
