//! Frame transports: in-memory duplex channels and loopback TCP, plus a
//! bandwidth-shaping wrapper driven by `fedrlnas-netsim` traces.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::time::Duration;

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
    fn recv(&mut self) -> Result<Vec<u8>, TransportError>;

    /// Receives the next frame, waiting at most `timeout`. On
    /// [`TransportError::Timeout`] any partially received bytes are kept
    /// so a later call resumes mid-frame.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, TransportError>;

    /// Readiness probe: returns a complete frame if one is already
    /// available, `Ok(None)` if the link is idle, without ever blocking.
    /// The round engine drives every link through this method from a
    /// bounded poll loop; partially received bytes are kept across calls
    /// exactly as for [`Transport::recv_timeout`].
    fn poll_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError>;
}

/// In-memory duplex transport over a pair of `std::sync::mpsc` channels.
pub struct ChannelTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

impl ChannelTransport {
    /// Creates the two connected endpoints of a duplex pipe.
    pub fn pair() -> (ChannelTransport, ChannelTransport) {
        let (a_tx, b_rx) = std::sync::mpsc::channel();
        let (b_tx, a_rx) = std::sync::mpsc::channel();
        (
            ChannelTransport { tx: a_tx, rx: a_rx },
            ChannelTransport { tx: b_tx, rx: b_rx },
        )
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.send_owned(frame.to_vec())
    }

    fn send_owned(&mut self, frame: Vec<u8>) -> Result<(), TransportError> {
        self.tx.send(frame).map_err(|_| TransportError::Closed)
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        self.rx.recv().map_err(|_| TransportError::Closed)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        match self.rx.recv_timeout(timeout) {
            Ok(frame) => Ok(frame),
            Err(RecvTimeoutError::Timeout) => Err(TransportError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Closed),
        }
    }

    fn poll_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        self.try_recv()
    }
}

impl ChannelTransport {
    /// Non-blocking poll used by worker loops between rounds.
    pub fn try_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        match self.rx.try_recv() {
            Ok(frame) => Ok(Some(frame)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(TransportError::Closed),
        }
    }
}

/// Loopback-TCP transport. One instance wraps one accepted or connected
/// stream; partial reads survive timeouts, so a frame interrupted mid-body
/// resumes on the next call instead of being lost.
pub struct TcpTransport {
    stream: TcpStream,
    /// Bytes received so far of the frame currently being assembled.
    pending: Vec<u8>,
    /// The mode the socket was last put in. [`Transport::poll_recv`]
    /// leaves it nonblocking and the blocking calls switch it back, so a
    /// sweep of polls costs one syscall per idle link instead of three.
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

    /// Splits one complete frame off `self.pending` if the bytes for it
    /// have all arrived.
    fn take_assembled(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        if self.pending.len() >= HEADER_LEN {
            let need = frame_len(&self.pending)
                .ok_or_else(|| TransportError::Io(ErrorKind::InvalidData.into()))?;
            if self.pending.len() >= need {
                let rest = self.pending.split_off(need);
                return Ok(Some(std::mem::replace(&mut self.pending, rest)));
            }
        }
        Ok(None)
    }

    /// Reads until `self.pending` holds one complete frame, or the
    /// deadline passes, or the peer closes. `None` timeout blocks forever.
    fn fill_frame(&mut self, timeout: Option<Duration>) -> Result<Vec<u8>, TransportError> {
        self.set_nonblocking(false)?;
        let deadline = timeout.map(|t| std::time::Instant::now() + t);
        let mut chunk = [0u8; 64 * 1024];
        loop {
            // complete frame already assembled?
            if let Some(frame) = self.take_assembled()? {
                return Ok(frame);
            }
            let remaining = match deadline {
                Some(d) => {
                    let now = std::time::Instant::now();
                    if now >= d {
                        return Err(TransportError::Timeout);
                    }
                    Some(d - now)
                }
                None => None,
            };
            self.stream
                .set_read_timeout(remaining)
                .map_err(TransportError::Io)?;
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(TransportError::Closed),
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Err(TransportError::Timeout);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(TransportError::Io(e)),
            }
        }
    }

    /// Drains whatever the socket has buffered right now (nonblocking
    /// mode must already be set), stopping early once a complete frame
    /// has been assembled so one chatty peer cannot starve the poll loop.
    fn drain_ready(&mut self) -> Result<(), TransportError> {
        // an idle link is the common case of a sweep: ask with a one-byte
        // peek before paying for the chunk buffer's 64 KiB zero-fill
        if let Err(e) = self.stream.peek(&mut [0u8; 1]) {
            if e.kind() == ErrorKind::WouldBlock {
                return Ok(());
            }
        }
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(TransportError::Closed),
                Ok(n) => {
                    self.pending.extend_from_slice(&chunk[..n]);
                    if self.pending.len() >= HEADER_LEN {
                        if let Some(need) = frame_len(&self.pending) {
                            if self.pending.len() >= need {
                                return Ok(());
                            }
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(());
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(TransportError::Io(e)),
            }
        }
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        // a nonblocking `write_all` would fail on a full socket buffer
        self.set_nonblocking(false)?;
        self.stream.write_all(frame).map_err(|e| {
            if e.kind() == ErrorKind::BrokenPipe || e.kind() == ErrorKind::ConnectionReset {
                TransportError::Closed
            } else {
                TransportError::Io(e)
            }
        })
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        self.fill_frame(None)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        self.fill_frame(Some(timeout))
    }

    // A zero `recv_timeout` cannot serve as a readiness probe here: the
    // deadline check fires before any read, and the std library rejects a
    // zero socket read-timeout outright — so the poll path puts the
    // socket into nonblocking mode instead.
    fn poll_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        if let Some(frame) = self.take_assembled()? {
            return Ok(Some(frame));
        }
        self.set_nonblocking(true)?;
        let drained = self.drain_ready();
        if let Some(frame) = self.take_assembled()? {
            return Ok(Some(frame));
        }
        // surface Closed/Io only once no complete frame remains buffered
        drained?;
        Ok(None)
    }
}

/// Wraps any transport and delays each `send` by the frame's transmission
/// time over a trace-sampled link: `bytes × 8 / (mbps × 10⁶)`, scaled by
/// `time_scale`. A scale of zero keeps the accounting (the engine still
/// computes latencies from frame sizes) without sleeping — the default for
/// tests and simulation-speed runs.
pub struct ShapedTransport<T: Transport> {
    inner: T,
    mbps: f64,
    time_scale: f64,
}

impl<T: Transport> ShapedTransport<T> {
    /// Shapes `inner` at `mbps`, stretching real sleeps by `time_scale`.
    pub fn new(inner: T, mbps: f64, time_scale: f64) -> Self {
        ShapedTransport {
            inner,
            mbps,
            time_scale,
        }
    }

    /// Updates the link bandwidth (called each round with the fresh
    /// netsim trace sample).
    pub fn set_mbps(&mut self, mbps: f64) {
        self.mbps = mbps;
    }

    /// Transmission time of `bytes` at the current bandwidth, unscaled.
    pub fn transmission_secs(&self, bytes: usize) -> f64 {
        fedrlnas_netsim::transmission_secs(bytes, self.mbps)
    }

    /// How long [`Transport::send`] holds a frame of `bytes` back: its
    /// transmission time at the current bandwidth stretched by
    /// `time_scale`, capped at five seconds. An event loop arms a timer
    /// with this and then calls [`ShapedTransport::send_now`].
    pub fn send_delay(&self, bytes: usize) -> Duration {
        let secs = self.transmission_secs(bytes) * self.time_scale;
        if secs > 0.0 {
            Duration::from_secs_f64(secs.min(5.0))
        } else {
            Duration::ZERO
        }
    }

    /// Sends without the shaping delay, for a caller that has already
    /// waited [`ShapedTransport::send_delay`] out.
    pub fn send_now(&mut self, frame: Vec<u8>) -> Result<(), TransportError> {
        self.inner.send_owned(frame)
    }

    /// Sleeps [`ShapedTransport::send_delay`] out.
    fn shape(&self, bytes: usize) {
        let delay = self.send_delay(bytes);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    }

    /// The wrapped transport (for reaching fault counters and other
    /// wrapper-specific state through the shaping layer).
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: Transport> Transport for ShapedTransport<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.shape(frame.len());
        self.inner.send(frame)
    }

    fn send_owned(&mut self, frame: Vec<u8>) -> Result<(), TransportError> {
        self.shape(frame.len());
        self.send_now(frame)
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        self.inner.recv()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        self.inner.recv_timeout(timeout)
    }

    fn poll_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        self.inner.poll_recv()
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
    fn shaped_transport_accounts_without_sleeping() {
        let (a, mut b) = ChannelTransport::pair();
        let mut shaped = ShapedTransport::new(a, 10.0, 0.0);
        assert!((shaped.transmission_secs(1_250_000) - 1.0).abs() < 1e-9);
        shaped.set_mbps(100.0);
        assert!((shaped.transmission_secs(1_250_000) - 0.1).abs() < 1e-9);
        let frame = encode(&Message::Ack { round: 0 });
        let start = std::time::Instant::now();
        shaped.send(&frame).unwrap();
        assert!(
            start.elapsed() < Duration::from_millis(50),
            "scale 0 must not sleep"
        );
        assert_eq!(b.recv().unwrap(), frame);
    }
}
