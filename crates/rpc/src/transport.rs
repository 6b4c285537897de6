//! Frame transports: in-memory duplex channels and loopback TCP, plus the
//! bandwidth-shaping rule (`send_delay`) driven by `fedrlnas-netsim`
//! traces.
//!
//! An event loop does not ask its links whether a frame has arrived; it
//! sleeps until one says so. An in-memory link says so through a
//! [`Doorbell`] the receiving endpoint registers with
//! [`Transport::set_waker`]; a TCP link through its descriptor
//! ([`Transport::raw_fd`]), which the loop hands to `poll(2)`.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::waiter::Waiter;
use crate::wire::{frame_len, HEADER_LEN};

/// Transport failure, deliberately coarse: the round engine only needs to
/// distinguish "try again later" from "this peer is gone".
#[derive(Debug)]
pub enum TransportError {
    /// No frame arrived within the allotted time.
    Timeout,
    /// The peer hung up; no more frames will ever arrive.
    Closed,
    /// The underlying socket failed.
    Io(std::io::Error),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Timeout => write!(f, "timed out waiting for a frame"),
            TransportError::Closed => write!(f, "peer closed the connection"),
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A bidirectional, frame-oriented byte pipe. Implementations deliver
/// whole encoded frames in order; framing is the wire module's job, so a
/// stream transport must reassemble exact frames before handing them up.
///
/// An implementation receives in one place, [`Transport::poll_recv`], and
/// announces its frames and its peer's hang-up through
/// [`Transport::set_waker`] or [`Transport::raw_fd`]: the blocking
/// receives are written once over those. They register their own
/// doorbell in place of the link's and clear it before they return.
pub trait Transport: Send {
    /// Sends one encoded frame.
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError>;

    /// Sends one encoded frame the caller has no further use for. A
    /// transport that queues whole frames takes the vector as it is
    /// instead of copying it; the default is [`Transport::send`].
    fn send_owned(&mut self, frame: Vec<u8>) -> Result<(), TransportError> {
        self.send(&frame)
    }

    /// Receives the next frame, blocking until one arrives or the peer
    /// closes.
    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        wait_for_frame(self, None)
    }

    /// Receives the next frame, waiting at most `timeout`. On
    /// [`TransportError::Timeout`] any partially received bytes are kept
    /// so a later call resumes mid-frame.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        wait_for_frame(self, Some(Instant::now() + timeout))
    }

    /// Readiness probe: returns a complete frame if one is already
    /// available, `Ok(None)` if the link is idle, without ever blocking.
    /// Partially received bytes are kept across calls. The event loops
    /// read every link through this method alone.
    fn poll_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError>;

    /// When this link next has something to do that no peer announces —
    /// a frame it holds back until then (see
    /// [`FaultyTransport`](crate::FaultyTransport)); `None` if nothing.
    /// Whoever waits on the link wakes by then and polls it.
    fn next_due(&self) -> Option<Instant> {
        None
    }

    /// Registers who is told when a frame for this endpoint arrives or its
    /// peer hangs up: from now on either rings `token` on the doorbell
    /// (`None` unregisters). Frames already queued are not announced, so
    /// poll once after registering. Only in-memory links have a doorbell;
    /// the default does nothing.
    fn set_waker(&mut self, _waker: Option<(Arc<Doorbell>, usize)>) {}

    /// The descriptor `poll(2)` can watch for this endpoint's next frame,
    /// for transports that are one socket; `None` otherwise.
    #[cfg(unix)]
    fn raw_fd(&self) -> Option<std::os::fd::RawFd> {
        None
    }
}

/// The blocking receives: poll `link`, and while it is idle wait in a
/// one-link [`Waiter`] until it announces something, its
/// [`Transport::next_due`] passes or `deadline` does (`None`: never).
fn wait_for_frame<T: Transport + ?Sized>(
    link: &mut T,
    deadline: Option<Instant>,
) -> Result<Vec<u8>, TransportError> {
    if let Some(frame) = link.poll_recv()? {
        return Ok(frame);
    }
    // a frame that came before the waiter registered rang nothing, so
    // the loop polls before it first waits
    let mut waiter = Waiter::over(link);
    let mut ready = Vec::new();
    let received = loop {
        match link.poll_recv() {
            Ok(Some(frame)) => break Ok(frame),
            Ok(None) if deadline.is_some_and(|d| d <= Instant::now()) => {
                break Err(TransportError::Timeout)
            }
            Ok(None) => {}
            Err(e) => break Err(e),
        }
        let until = link.next_due().into_iter().chain(deadline).min();
        waiter.wait(until, 1, &mut ready);
        ready.clear();
    };
    link.set_waker(None);
    received
}

/// Where in-memory links announce their frames: each rings the token its
/// receiving endpoint registered (see [`Transport::set_waker`]), and the
/// one thread that owns those endpoints sleeps in [`Doorbell::wait`]
/// until enough tokens are there or its next timer is due.
#[derive(Default)]
pub struct Doorbell {
    rung: Mutex<Rung>,
    changed: Condvar,
}

#[derive(Default)]
struct Rung {
    /// Tokens rung since the last wait took them, one per frame.
    ready: Vec<usize>,
    /// How many of them the wait in progress is waiting for.
    mark: usize,
    /// [`Doorbell::wake`] was called since the last wait returned.
    woken: bool,
}

impl Doorbell {
    /// Adds `token` to the ready list, waking the waiter when the list
    /// reaches the length it asked for — not before, and not again after:
    /// the waiter takes the whole list per wake-up, so a list already
    /// that long already has its wake-up on the way.
    pub fn ring(&self, token: usize) {
        let mut rung = self.lock();
        rung.ready.push(token);
        if rung.ready.len() == rung.mark.max(1) {
            self.changed.notify_one();
        }
    }

    /// Ends the wait in progress, or the next one, whatever it asked for.
    pub fn wake(&self) {
        self.lock().woken = true;
        self.changed.notify_one();
    }

    /// Sleeps until `at_least` tokens (at least one) have been rung,
    /// [`Doorbell::wake`] was called or `until` has passed (`None`:
    /// however long it takes), then moves every rung token into `out`.
    pub fn wait(&self, until: Option<Instant>, at_least: usize, out: &mut Vec<usize>) {
        let mut rung = self.lock();
        rung.mark = at_least.max(1);
        while rung.ready.len() < rung.mark && !rung.woken {
            rung = match until {
                None => self
                    .changed
                    .wait(rung)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(until) => {
                    let left = until.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    let woken = self.changed.wait_timeout(rung, left);
                    woken.unwrap_or_else(PoisonError::into_inner).0
                }
            };
        }
        rung.woken = false;
        out.append(&mut rung.ready);
    }

    /// The shared state. A link rings from its `Drop`, which must not
    /// panic, so a poisoned lock is recovered: the state is valid after
    /// every step of every update.
    fn lock(&self) -> MutexGuard<'_, Rung> {
        self.rung.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One direction's registration: the doorbell and token of whoever
/// receives on it, if anyone has asked to be told.
type BellSlot = Arc<Mutex<Option<(Arc<Doorbell>, usize)>>>;

/// The sending endpoint's handle on its peer's [`BellSlot`]. Rings once
/// more when dropped, so a thread parked on the doorbell learns of the
/// hang-up.
struct Ringer(BellSlot);

impl Ringer {
    fn ring(&self) {
        let slot = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((bell, token)) = slot.as_ref() {
            bell.ring(*token);
        }
    }
}

impl Drop for Ringer {
    fn drop(&mut self) {
        self.ring();
    }
}

/// In-memory duplex transport over a pair of `std::sync::mpsc` channels.
pub struct ChannelTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    /// Where this endpoint registers to be told of arrivals.
    waker: BellSlot,
    /// Rings the peer's registration. Declared after `tx`: fields drop in
    /// order, so the peer woken by the hang-up ring already finds the
    /// channel disconnected.
    ringer: Ringer,
}

impl ChannelTransport {
    /// Creates the two connected endpoints of a duplex pipe.
    pub fn pair() -> (ChannelTransport, ChannelTransport) {
        let (a_tx, b_rx) = std::sync::mpsc::channel();
        let (b_tx, a_rx) = std::sync::mpsc::channel();
        let (a_bell, b_bell) = (BellSlot::default(), BellSlot::default());
        (
            ChannelTransport {
                tx: a_tx,
                rx: a_rx,
                waker: a_bell.clone(),
                ringer: Ringer(b_bell.clone()),
            },
            ChannelTransport {
                tx: b_tx,
                rx: b_rx,
                waker: b_bell,
                ringer: Ringer(a_bell),
            },
        )
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.send_owned(frame.to_vec())
    }

    fn send_owned(&mut self, frame: Vec<u8>) -> Result<(), TransportError> {
        self.tx.send(frame).map_err(|_| TransportError::Closed)?;
        self.ringer.ring();
        Ok(())
    }

    fn poll_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        match self.rx.try_recv() {
            Ok(frame) => Ok(Some(frame)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(TransportError::Closed),
        }
    }

    fn set_waker(&mut self, waker: Option<(Arc<Doorbell>, usize)>) {
        *self.waker.lock().unwrap_or_else(PoisonError::into_inner) = waker;
    }
}

/// The most one `read` asks the socket for. A frame's length comes off
/// the wire, so the buffer grows as bytes arrive, never to a length a
/// header merely claims.
const READ_CHUNK: usize = 64 * 1024;

/// Loopback-TCP transport. One instance wraps one accepted or connected
/// stream; partial reads survive timeouts, so a frame interrupted mid-body
/// resumes on the next call instead of being lost.
pub struct TcpTransport {
    stream: TcpStream,
    /// Bytes received so far of the frame being assembled. Reads stop at
    /// the frame's end, so a complete frame is this vector itself.
    pending: Vec<u8>,
    /// That frame's total length, once its header is in.
    need: Option<usize>,
    /// The mode the socket was last put in. [`Transport::poll_recv`]
    /// leaves it nonblocking, and so does [`Transport::send`] unless the
    /// socket buffer fills up, when it blocks for room until the next
    /// poll.
    nonblocking: bool,
}

impl TcpTransport {
    /// Wraps a connected stream (Nagle disabled — frames are latency
    /// sensitive and already batched).
    pub fn new(stream: TcpStream) -> std::io::Result<TcpTransport> {
        stream.set_nodelay(true)?;
        Ok(TcpTransport {
            stream,
            pending: Vec::new(),
            need: None,
            nonblocking: false,
        })
    }

    fn set_nonblocking(&mut self, on: bool) -> Result<(), TransportError> {
        if self.nonblocking != on {
            self.stream
                .set_nonblocking(on)
                .map_err(TransportError::Io)?;
            self.nonblocking = on;
        }
        Ok(())
    }

    /// Hands `self.pending` over if it holds one complete frame.
    fn take_assembled(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        if self.need.is_none() && self.pending.len() >= HEADER_LEN {
            let need = frame_len(&self.pending)
                .ok_or_else(|| TransportError::Io(ErrorKind::InvalidData.into()))?;
            self.need = Some(need);
        }
        match self.need {
            Some(need) if self.pending.len() >= need => {
                self.need = None;
                Ok(Some(std::mem::take(&mut self.pending)))
            }
            _ => Ok(None),
        }
    }

    /// One `read` towards the frame being assembled — its header first,
    /// then, the length known, the rest — straight into `self.pending`.
    /// Call only while [`TcpTransport::take_assembled`] reports the frame
    /// incomplete. `Ok(0)` means the peer closed.
    fn read_more(&mut self) -> std::io::Result<usize> {
        let have = self.pending.len();
        let want = self.need.unwrap_or(HEADER_LEN).min(have + READ_CHUNK);
        self.pending.resize(want, 0);
        let read = self.stream.read(&mut self.pending[have..]);
        self.pending
            .truncate(have + read.as_ref().map_or(0, |n| *n));
        read
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        let mut rest = frame;
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(TransportError::Closed),
                Ok(n) => rest = &rest[n..],
                // the socket buffer is full: wait for room rather than spin
                Err(e) if e.kind() == ErrorKind::WouldBlock => self.set_nonblocking(false)?,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == ErrorKind::BrokenPipe
                        || e.kind() == ErrorKind::ConnectionReset =>
                {
                    return Err(TransportError::Closed)
                }
                Err(e) => return Err(TransportError::Io(e)),
            }
        }
        Ok(())
    }

    fn poll_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        self.set_nonblocking(true)?;
        loop {
            if let Some(frame) = self.take_assembled()? {
                return Ok(Some(frame));
            }
            match self.read_more() {
                Ok(0) => return Err(TransportError::Closed),
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(TransportError::Io(e)),
            }
        }
    }

    #[cfg(unix)]
    fn raw_fd(&self) -> Option<std::os::fd::RawFd> {
        Some(std::os::fd::AsRawFd::as_raw_fd(&self.stream))
    }
}

/// How long a frame of `bytes` takes to reach the wire over a link of
/// `mbps`: `bytes × 8 / (mbps × 10⁶)` stretched by `real_time_scale`,
/// capped at five seconds. Scale zero, the default, keeps the
/// byte-accurate accounting at no wall-clock cost.
pub(crate) fn send_delay(bytes: usize, mbps: f64, real_time_scale: f64) -> Duration {
    let secs = fedrlnas_netsim::transmission_secs(bytes, mbps) * real_time_scale;
    if secs > 0.0 {
        Duration::from_secs_f64(secs.min(5.0))
    } else {
        Duration::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode, Message};

    #[test]
    fn channel_pair_round_trips() {
        let (mut a, mut b) = ChannelTransport::pair();
        let frame = encode(&Message::Ack { round: 3 });
        a.send(&frame).unwrap();
        assert_eq!(b.recv().unwrap(), frame);
        b.send(&frame).unwrap();
        assert_eq!(a.recv_timeout(Duration::from_millis(100)).unwrap(), frame);
    }

    #[test]
    fn channel_timeout_then_closed() {
        let (mut a, b) = ChannelTransport::pair();
        assert!(matches!(
            a.recv_timeout(Duration::from_millis(10)),
            Err(TransportError::Timeout)
        ));
        drop(b);
        assert!(matches!(a.recv(), Err(TransportError::Closed)));
    }

    /// A connected pair of each transport: in-memory, then loopback TCP.
    fn pairs() -> Vec<(Box<dyn Transport>, Box<dyn Transport>)> {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let far = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let near = listener.accept().unwrap().0;
        let (a, b) = ChannelTransport::pair();
        vec![
            (Box::new(a), Box::new(b)),
            (
                Box::new(TcpTransport::new(near).unwrap()),
                Box::new(TcpTransport::new(far).unwrap()),
            ),
        ]
    }

    /// A long timed receive ends when a frame sent from another thread
    /// while it waits arrives, not at its deadline.
    #[test]
    fn timed_receive_returns_a_frame_when_it_arrives() {
        for (mut near, mut far) in pairs() {
            let frame = encode(&Message::Ack { round: 6 });
            let sent = frame.clone();
            let sender = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                far.send(&sent).unwrap();
                far // kept open until the receive is done
            });
            let start = Instant::now();
            assert_eq!(near.recv_timeout(Duration::from_secs(10)).unwrap(), frame);
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "woke at the deadline"
            );
            drop(sender.join().unwrap());
        }
    }

    /// A receive with no deadline ends with `Closed` when the peer hangs
    /// up while it waits.
    #[test]
    fn blocking_receive_returns_closed_once_the_peer_drops() {
        for (mut near, far) in pairs() {
            let hang_up = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                drop(far);
            });
            assert!(matches!(near.recv(), Err(TransportError::Closed)));
            hang_up.join().unwrap();
        }
    }

    #[test]
    fn tcp_reassembles_split_frames() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let frame = encode(&Message::Heartbeat { participant: 5 });
        let frame2 = frame.clone();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // drip the frame one byte at a time across two sends
            let mid = frame2.len() / 2;
            s.write_all(&frame2[..mid]).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            s.write_all(&frame2[mid..]).unwrap();
            // immediately follow with a second frame to test splitting
            s.write_all(&frame2).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut t = TcpTransport::new(stream).unwrap();
        assert_eq!(t.recv_timeout(Duration::from_secs(2)).unwrap(), frame);
        assert_eq!(t.recv_timeout(Duration::from_secs(2)).unwrap(), frame);
        writer.join().unwrap();
    }

    #[test]
    fn tcp_partial_frame_survives_timeout() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let frame = encode(&Message::Ack { round: 11 });
        let frame2 = frame.clone();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&frame2[..4]).unwrap();
            std::thread::sleep(Duration::from_millis(120));
            s.write_all(&frame2[4..]).unwrap();
            // hold the socket open until the reader is done
            std::thread::sleep(Duration::from_millis(200));
        });
        let (stream, _) = listener.accept().unwrap();
        let mut t = TcpTransport::new(stream).unwrap();
        // first read times out mid-frame; the partial bytes must be kept
        assert!(matches!(
            t.recv_timeout(Duration::from_millis(30)),
            Err(TransportError::Timeout)
        ));
        assert_eq!(t.recv_timeout(Duration::from_secs(2)).unwrap(), frame);
        writer.join().unwrap();
    }

    #[test]
    fn channel_poll_recv_never_blocks() {
        let (mut a, mut b) = ChannelTransport::pair();
        assert!(matches!(a.poll_recv(), Ok(None)));
        let frame = encode(&Message::Ack { round: 9 });
        b.send(&frame).unwrap();
        assert_eq!(a.poll_recv().unwrap().unwrap(), frame);
        assert!(matches!(a.poll_recv(), Ok(None)));
        drop(b);
        assert!(matches!(a.poll_recv(), Err(TransportError::Closed)));
    }

    #[test]
    fn tcp_poll_recv_assembles_and_blocking_calls_still_block() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let frame = encode(&Message::Heartbeat { participant: 2 });
        let frame2 = frame.clone();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let mid = frame2.len() / 2;
            s.write_all(&frame2[..mid]).unwrap();
            std::thread::sleep(Duration::from_millis(60));
            s.write_all(&frame2[mid..]).unwrap();
            // second frame exercises the blocking path after polling
            std::thread::sleep(Duration::from_millis(60));
            s.write_all(&frame2).unwrap();
            std::thread::sleep(Duration::from_millis(200));
        });
        let (stream, _) = listener.accept().unwrap();
        let mut t = TcpTransport::new(stream).unwrap();
        // idle or mid-frame: the probe reports "nothing yet" without blocking
        assert!(matches!(t.poll_recv(), Ok(None)));
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        let polled = loop {
            if let Some(f) = t.poll_recv().unwrap() {
                break f;
            }
            assert!(std::time::Instant::now() < deadline, "poll never completed");
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(polled, frame);
        // a timed receive after polling must wait for the frame, not
        // fail with the poll's WouldBlock
        assert_eq!(t.recv_timeout(Duration::from_secs(2)).unwrap(), frame);
        writer.join().unwrap();
    }

    #[test]
    fn doorbell_reports_rings_made_before_and_during_the_wait() {
        let bell = Arc::new(Doorbell::default());
        let mut ready = Vec::new();
        // rung first: the wait does not sleep
        bell.ring(3);
        bell.ring(5);
        bell.wait(None, 1, &mut ready);
        assert_eq!(ready, [3, 5]);
        // nothing rung: the wait ends at its deadline, empty-handed
        ready.clear();
        let start = Instant::now();
        bell.wait(Some(start + Duration::from_millis(20)), 1, &mut ready);
        assert!(ready.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(20));
        // rung from another thread while the waiter sleeps
        let ringer = bell.clone();
        let thread = std::thread::spawn(move || ringer.ring(7));
        bell.wait(None, 1, &mut ready);
        assert_eq!(ready, [7]);
        thread.join().unwrap();
        // a wait that asks for three sleeps through two, and a wake ends
        // it whatever it asked for
        ready.clear();
        bell.ring(1);
        bell.ring(2);
        let start = Instant::now();
        bell.wait(Some(start + Duration::from_millis(20)), 3, &mut ready);
        assert_eq!(ready, [1, 2]);
        assert!(start.elapsed() >= Duration::from_millis(20));
        ready.clear();
        bell.ring(1);
        bell.wake();
        bell.wait(None, 3, &mut ready);
        assert_eq!(ready, [1]);
        let ringer = bell.clone();
        let thread = std::thread::spawn(move || (4..7).for_each(|token| ringer.ring(token)));
        ready.clear();
        bell.wait(None, 3, &mut ready);
        assert_eq!(ready, [4, 5, 6]);
        thread.join().unwrap();
    }

    #[test]
    fn channel_rings_its_peers_doorbell_on_send_and_on_drop() {
        let (mut a, mut b) = ChannelTransport::pair();
        let frame = encode(&Message::Ack { round: 4 });
        // nobody registered: a send rings nothing and still delivers
        a.send(&frame).unwrap();
        let bell = Arc::new(Doorbell::default());
        b.set_waker(Some((bell.clone(), 9)));
        assert_eq!(b.poll_recv().unwrap().unwrap(), frame);
        let mut ready = Vec::new();
        a.send(&frame).unwrap();
        bell.wait(None, 1, &mut ready);
        assert_eq!(ready, [9]);
        assert_eq!(b.poll_recv().unwrap().unwrap(), frame);
        // the other direction has its own registration
        b.send(&frame).unwrap();
        ready.clear();
        bell.wait(
            Some(Instant::now() + Duration::from_millis(5)),
            1,
            &mut ready,
        );
        assert!(ready.is_empty(), "b's sends ring a's doorbell, not b's");
        // a hang-up rings too, and the woken peer already finds it
        drop(a);
        bell.wait(None, 1, &mut ready);
        assert_eq!(ready, [9]);
        assert!(matches!(b.poll_recv(), Err(TransportError::Closed)));
        // unregistered: nothing is rung, nothing accumulates
        let (mut c, mut d) = ChannelTransport::pair();
        d.set_waker(Some((bell.clone(), 1)));
        d.set_waker(None);
        c.send(&frame).unwrap();
        ready.clear();
        bell.wait(
            Some(Instant::now() + Duration::from_millis(5)),
            1,
            &mut ready,
        );
        assert!(ready.is_empty());
    }

    #[test]
    fn tcp_buffer_grows_with_the_bytes_not_with_the_claimed_length() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut far = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let mut t = TcpTransport::new(stream).unwrap();
        // a header whose length field a flipped bit turned into ~2 GiB
        let mut header = encode(&Message::Ack { round: 1 });
        header.truncate(HEADER_LEN);
        header[9] |= 0x80;
        far.write_all(&header).unwrap();
        far.write_all(&[0u8; 100]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        while t.pending.len() < HEADER_LEN + 100 {
            assert!(matches!(t.poll_recv(), Ok(None)));
            assert!(Instant::now() < deadline, "bytes never arrived");
        }
        assert!(t.need.is_some_and(|need| need > 1 << 30));
        // a chunk ahead of the bytes, times the vector's own doubling
        assert!(t.pending.capacity() <= 4 * READ_CHUNK);
    }

    #[test]
    fn tcp_send_survives_a_full_socket_buffer_in_nonblocking_mode() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let far = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let mut t = TcpTransport::new(stream).unwrap();
        // polling leaves the socket nonblocking, as an event loop does
        assert!(matches!(t.poll_recv(), Ok(None)));
        // far more than the loopback socket buffers hold, read late
        let big = encode(&Message::UploadUpdate {
            round: 1,
            participant: 0,
            delta_w: vec![0.5; 4 << 20],
            delta_alpha: Vec::new(),
            reward: 0.0,
            loss: 0.0,
        });
        let expected = big.clone();
        let reader = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            let mut far = TcpTransport::new(far).unwrap();
            assert_eq!(far.recv().unwrap(), expected);
        });
        t.send(&big).unwrap();
        reader.join().unwrap();
    }

    #[test]
    fn shaped_transport_accounts_without_sleeping() {
        // 1.25 MB is a second on the wire at 10 Mbps, a tenth at 100
        let secs = |mbps, scale| send_delay(1_250_000, mbps, scale).as_secs_f64();
        assert!((secs(10.0, 1.0) - 1.0).abs() < 1e-9);
        assert!((secs(100.0, 1.0) - 0.1).abs() < 1e-9);
        assert!(
            (secs(100.0, 20.0) - 2.0).abs() < 1e-9,
            "stretched by the scale"
        );
        assert_eq!(
            send_delay(1_250_000, 10.0, 0.0),
            Duration::ZERO,
            "scale 0: no wait"
        );
        assert_eq!(
            send_delay(1_250_000, 0.1, 1.0),
            Duration::from_secs(5),
            "capped"
        );
    }
}
