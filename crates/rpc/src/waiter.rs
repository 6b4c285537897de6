//! The event loops' one blocking call.
//!
//! A loop thread owns some links and some timers. [`Waiter::wait`] puts it
//! to sleep until a frame has arrived on one of *its* links (or that
//! link's peer hung up), another loop thread has something to tell it
//! ([`Waker::wake`]), or its earliest timer is due — and says which links.
//! An idle link costs nothing while the thread sleeps, and nothing wakes
//! the thread "to have a look".
//!
//! There are two bodies because there are two transports
//! ([`TransportKind`]): in-memory links ring a [`Doorbell`] their
//! receiving endpoint registered; TCP links are descriptors handed to
//! `ppoll(2)`, declared against libc below (the workspace vendors no
//! `libc` crate). Where there is no `ppoll` the TCP body falls back to a
//! bounded nap that reports every watched link; the loops never see the
//! difference.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::transport::{Doorbell, Transport};
use crate::TransportKind;

/// One loop thread's blocking wait over the links it registered.
pub(crate) struct Waiter {
    body: Body,
    /// Times [`Waiter::wait`] has returned; shared so a backend can read
    /// its threads' counts while they run. Debug observability.
    wakeups: Arc<AtomicU64>,
}

enum Body {
    Bell(Arc<Doorbell>),
    Poll(sys::PollSet),
}

/// Lets another thread end a [`Waiter::wait`] early, with no link named.
pub(crate) enum Waker {
    Bell(Arc<Doorbell>),
    Poll(sys::PollWaker),
}

impl Waker {
    pub(crate) fn wake(&self) {
        match self {
            Waker::Bell(bell) => bell.wake(),
            Waker::Poll(waker) => waker.wake(),
        }
    }
}

impl Waiter {
    /// A waiter for links of `kind`, counting its wake-ups into `wakeups`.
    pub(crate) fn new(kind: TransportKind, wakeups: Arc<AtomicU64>) -> Waiter {
        let body = match kind {
            TransportKind::InMemory => Body::Bell(Arc::default()),
            TransportKind::Tcp => Body::Poll(sys::PollSet::default()),
        };
        Waiter { body, wakeups }
    }

    /// A waiter over `link` alone, registered under token 0: on its
    /// descriptor if it has one (the nap where there are none), else on
    /// its doorbell.
    pub(crate) fn over<T: Transport + ?Sized>(link: &mut T) -> Waiter {
        #[cfg(unix)]
        let kind = match link.raw_fd() {
            Some(_) => TransportKind::Tcp,
            None => TransportKind::InMemory,
        };
        #[cfg(not(unix))]
        let kind = TransportKind::Tcp;
        let mut waiter = Waiter::new(kind, Arc::default());
        waiter.register(0, link);
        waiter
    }

    /// A handle other threads can interrupt this waiter's sleep with.
    pub(crate) fn waker(&mut self) -> Waker {
        match &mut self.body {
            Body::Bell(bell) => Waker::Bell(bell.clone()),
            Body::Poll(set) => Waker::Poll(set.waker()),
        }
    }

    /// Starts watching `link` under `token`; tokens are handed out in
    /// order, `0, 1, 2, …`. A frame that arrived before this call is not
    /// reported: poll the link once afterwards.
    pub(crate) fn register<T: Transport + ?Sized>(&mut self, token: usize, link: &mut T) {
        match &mut self.body {
            Body::Bell(bell) => link.set_waker(Some((bell.clone(), token))),
            Body::Poll(set) => set.register(token, link),
        }
    }

    /// Stops (`false`) or resumes (`true`) reporting `token`'s link: a
    /// loop that is not going to read a link yet must not be woken for
    /// it, and one whose link has closed must stop watching before the
    /// descriptor is. On resuming, anything that arrived meanwhile is
    /// reported by the next [`Waiter::wait`] — over TCP; an in-memory
    /// link rings once per frame whoever listens, so poll it on resuming.
    pub(crate) fn watch(&mut self, token: usize, on: bool) {
        if let Body::Poll(set) = &mut self.body {
            set.watch(token, on);
        }
    }

    /// Sleeps until a watched link has something to read, a [`Waker`]
    /// fires or `next_due` has passed (`None`: no timer is pending), then
    /// fills `ready` — empty on entry — with the links to read, each once.
    ///
    /// `at_least` is a low-water mark for a caller that cannot finish
    /// before that many more frames are in anyway: in-memory links wake
    /// it once that many have arrived instead of once per frame. It never
    /// delays a timer or a [`Waker`]; TCP links ignore it.
    pub(crate) fn wait(
        &mut self,
        next_due: Option<Instant>,
        at_least: usize,
        ready: &mut Vec<usize>,
    ) {
        debug_assert!(ready.is_empty());
        match &mut self.body {
            Body::Bell(bell) => {
                bell.wait(next_due, at_least, ready);
                // one ring per frame: several may name the same link
                ready.sort_unstable();
                ready.dedup();
            }
            Body::Poll(set) => set.wait(next_due, ready),
        }
        self.wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Times [`Waiter::wait`] has returned, on every waiter sharing this
    /// one's counter.
    #[cfg(test)]
    pub(crate) fn wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::Relaxed)
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use std::io::{ErrorKind, Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    use crate::transport::Transport;

    /// `struct pollfd`.
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    /// `struct timespec` as the `ppoll` symbol takes it.
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    const POLLIN: c_short = 0x001;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    /// The descriptor table of one loop thread. Entry 0 is the receiving
    /// end of the thread's wake socket (`-1`, which `poll` skips, until
    /// someone asks for a [`PollWaker`]); entry `token + 1` is that
    /// link's socket. `ppoll` rather than `poll`: its timeout counts
    /// nanoseconds, and a send timer is due within microseconds.
    pub(super) struct PollSet {
        fds: Vec<PollFd>,
        wake_rx: Option<UnixStream>,
    }

    /// The sending end of a [`PollSet`]'s wake socket.
    pub(crate) struct PollWaker(UnixStream);

    impl PollWaker {
        pub(super) fn wake(&self) {
            // nonblocking: a full socket already holds a wake-up
            let _ = (&self.0).write(&[1]);
        }
    }

    impl Default for PollSet {
        fn default() -> Self {
            let wake = PollFd {
                fd: -1,
                events: POLLIN,
                revents: 0,
            };
            PollSet {
                fds: vec![wake],
                wake_rx: None,
            }
        }
    }

    impl PollSet {
        pub(super) fn waker(&mut self) -> PollWaker {
            let (tx, rx) = UnixStream::pair().expect("wake socket pair");
            for end in [&tx, &rx] {
                end.set_nonblocking(true).expect("nonblocking wake socket");
            }
            self.fds[0].fd = rx.as_raw_fd();
            self.wake_rx = Some(rx);
            PollWaker(tx)
        }

        pub(super) fn register<T: Transport + ?Sized>(&mut self, token: usize, link: &mut T) {
            assert_eq!(token + 1, self.fds.len(), "tokens are handed out in order");
            self.fds.push(PollFd {
                fd: link.raw_fd().expect("a TCP link is one socket"),
                events: POLLIN,
                revents: 0,
            });
        }

        /// `poll` skips a negative descriptor, and `!fd` of a valid one
        /// is negative and gives `fd` back when flipped again.
        pub(super) fn watch(&mut self, token: usize, on: bool) {
            let fd = &mut self.fds[token + 1].fd;
            if (*fd >= 0) != on {
                *fd = !*fd;
            }
        }

        pub(super) fn wait(&mut self, next_due: Option<Instant>, ready: &mut Vec<usize>) {
            let timeout = next_due.map(|due| {
                let left = due.saturating_duration_since(Instant::now());
                Timespec {
                    tv_sec: c_long::try_from(left.as_secs()).unwrap_or(c_long::MAX),
                    tv_nsec: c_long::from(left.subsec_nanos() as i32),
                }
            });
            let timeout = timeout
                .as_ref()
                .map_or(std::ptr::null(), std::ptr::from_ref);
            // SAFETY: `fds` points at `self.fds.len()` initialised
            // `pollfd`s this call has exclusive use of, and the kernel
            // writes nothing but their `revents`; `timeout` is null or
            // points at a `timespec` that lives until the call returns;
            // a null signal mask leaves the mask alone.
            let reported = unsafe {
                ppoll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as c_ulong,
                    timeout,
                    std::ptr::null(),
                )
            };
            if reported < 0 {
                // a signal is one more reason to look at the timers;
                // anything else says the table is broken
                let err = std::io::Error::last_os_error();
                assert_eq!(err.kind(), ErrorKind::Interrupted, "ppoll: {err}");
                return;
            }
            if self.fds[0].revents != 0 {
                if let Some(mut rx) = self.wake_rx.as_ref() {
                    let mut wakes = [0u8; 64];
                    let mut taken = rx.read(&mut wakes);
                    while taken.as_ref().is_ok_and(|n| *n == wakes.len()) {
                        taken = rx.read(&mut wakes);
                    }
                    if matches!(taken, Ok(0)) {
                        // every waker is gone: a closed socket stays readable
                        self.fds[0].fd = -1;
                    }
                }
            }
            // readable, hung up or failed: reading the link tells which
            let links = self.fds.iter().enumerate().skip(1);
            ready.extend(links.filter(|(_, fd)| fd.revents != 0).map(|(i, _)| i - 1));
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use std::time::{Duration, Instant};

    use crate::transport::Transport;

    /// The longest this body sleeps: what a frame that arrives mid-nap
    /// waits to be noticed.
    const NAP: Duration = Duration::from_micros(400);

    /// Without `ppoll` a TCP loop thread naps, at most [`NAP`] and never
    /// past its next timer, and then has every watched link read.
    #[derive(Default)]
    pub(super) struct PollSet {
        watched: Vec<bool>,
    }

    /// Nothing to do: the nap ends by itself.
    pub(crate) struct PollWaker;

    impl PollWaker {
        pub(super) fn wake(&self) {}
    }

    impl PollSet {
        pub(super) fn waker(&mut self) -> PollWaker {
            PollWaker
        }

        pub(super) fn register<T: Transport + ?Sized>(&mut self, token: usize, _link: &mut T) {
            assert_eq!(token, self.watched.len(), "tokens are handed out in order");
            self.watched.push(true);
        }

        pub(super) fn watch(&mut self, token: usize, on: bool) {
            self.watched[token] = on;
        }

        pub(super) fn wait(&mut self, next_due: Option<Instant>, ready: &mut Vec<usize>) {
            let until_due = next_due.map(|due| due.saturating_duration_since(Instant::now()));
            std::thread::sleep(until_due.map_or(NAP, |left| left.min(NAP)));
            let links = self.watched.iter().enumerate();
            ready.extend(links.filter(|(_, on)| **on).map(|(token, _)| token));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::net::{TcpListener, TcpStream};
    use std::sync::Barrier;
    use std::time::Duration;

    use super::*;
    use crate::transport::{ChannelTransport, TcpTransport};
    use crate::wire::{decode, encode, Message};

    type Link = Box<dyn Transport>;

    /// The transports whose wait blocks on the links themselves (without
    /// `ppoll` the TCP body naps, and its wake-ups count naps).
    fn blocking_kinds() -> Vec<TransportKind> {
        let mut kinds = vec![TransportKind::InMemory];
        if cfg!(target_os = "linux") {
            kinds.push(TransportKind::Tcp);
        }
        kinds
    }

    /// `n` connected links of `kind`: `(near, far)` endpoints.
    fn links(kind: TransportKind, n: usize) -> Vec<(Link, Link)> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let tcp = |stream: TcpStream| Box::new(TcpTransport::new(stream).unwrap()) as Link;
        (0..n)
            .map(|_| match kind {
                TransportKind::InMemory => {
                    let (near, far) = ChannelTransport::pair();
                    (Box::new(near) as Link, Box::new(far) as Link)
                }
                TransportKind::Tcp => {
                    let far = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                    (tcp(listener.accept().unwrap().0), tcp(far))
                }
            })
            .collect()
    }

    fn waiter_over(kind: TransportKind, near: &mut [Link]) -> Waiter {
        let mut waiter = Waiter::new(kind, Arc::default());
        for (token, link) in near.iter_mut().enumerate() {
            waiter.register(token, &mut **link);
            assert!(matches!(link.poll_recv(), Ok(None)));
        }
        waiter
    }

    /// With no timer due and one frame sent, the wait returns once, with
    /// that link — and, the frame read, not again until its deadline.
    #[test]
    fn one_frame_is_one_wakeup_naming_its_link() {
        for kind in blocking_kinds() {
            let (mut near, mut far): (Vec<Link>, Vec<Link>) = links(kind, 4).into_iter().unzip();
            let mut waiter = waiter_over(kind, &mut near);
            let frame = encode(&Message::Ack { round: 8 });
            let sent = frame.clone();
            let sender = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                far[2].send(&sent).unwrap();
                far // keep every link open until the waiter is done
            });
            let mut ready = Vec::new();
            waiter.wait(None, 1, &mut ready);
            assert_eq!(ready, [2], "{kind:?}");
            assert_eq!(near[2].poll_recv().unwrap().unwrap(), frame);
            assert!(matches!(near[2].poll_recv(), Ok(None)));
            assert_eq!(waiter.wakeups(), 1);
            ready.clear();
            let start = Instant::now();
            waiter.wait(Some(start + Duration::from_millis(30)), 1, &mut ready);
            assert!(ready.is_empty(), "{kind:?}: {ready:?}");
            assert!(start.elapsed() >= Duration::from_millis(30), "{kind:?}");
            assert_eq!(waiter.wakeups(), 2);
            // a link that is not watched is not reported, until it is again
            let far = sender.join().unwrap();
            let mut far = far;
            waiter.watch(1, false);
            far[1].send(&frame).unwrap();
            ready.clear();
            waiter.wait(
                Some(Instant::now() + Duration::from_millis(30)),
                1,
                &mut ready,
            );
            if kind == TransportKind::Tcp {
                assert!(ready.is_empty(), "an unwatched socket was reported");
                waiter.watch(1, true);
                waiter.wait(None, 1, &mut ready);
            }
            assert_eq!(ready, [1], "{kind:?}");
            assert_eq!(near[1].poll_recv().unwrap().unwrap(), frame);
            // and so is a hang-up
            drop(far.remove(3));
            ready.clear();
            waiter.wait(None, 1, &mut ready);
            assert_eq!(ready, [3], "{kind:?}");
            assert!(near[3].poll_recv().is_err());
        }
    }

    /// No lost wake-up: four threads send on sixty-four links while one
    /// waiter, sleeping with no timer at all, must see every frame, each
    /// link's in order.
    #[test]
    fn concurrent_senders_lose_no_wakeup() {
        const LINKS: usize = 64;
        const SENDERS: usize = 4;
        const FRAMES: u64 = 200;
        for kind in [TransportKind::InMemory, TransportKind::Tcp] {
            let start = Instant::now();
            let (mut near, far): (Vec<Link>, Vec<Link>) = links(kind, LINKS).into_iter().unzip();
            let mut waiter = waiter_over(kind, &mut near);
            let go = Arc::new(Barrier::new(SENDERS));
            let mut far = far.into_iter();
            let senders: Vec<_> = (0..SENDERS)
                .map(|_| {
                    let mut mine: Vec<Link> = far.by_ref().take(LINKS / SENDERS).collect();
                    let go = go.clone();
                    std::thread::spawn(move || {
                        go.wait();
                        for round in 0..FRAMES {
                            for link in mine.iter_mut() {
                                link.send(&encode(&Message::Ack { round })).unwrap();
                            }
                        }
                        mine
                    })
                })
                .collect();
            let mut next = [0u64; LINKS];
            let mut seen = 0;
            let mut ready = Vec::new();
            while seen < LINKS as u64 * FRAMES {
                waiter.wait(None, 1, &mut ready);
                for token in ready.drain(..) {
                    while let Some(frame) = near[token].poll_recv().unwrap() {
                        let Ok(Message::Ack { round }) = decode(&frame) else {
                            panic!("{kind:?}: not the frame that was sent");
                        };
                        assert_eq!(round, next[token], "{kind:?}: link {token} out of order");
                        next[token] += 1;
                        seen += 1;
                    }
                }
            }
            assert!(next.iter().all(|n| *n == FRAMES));
            assert!(
                waiter.wakeups() <= seen,
                "{kind:?}: {} wake-ups for {seen} frames",
                waiter.wakeups()
            );
            drop(
                senders
                    .into_iter()
                    .map(|s| s.join().unwrap())
                    .collect::<Vec<_>>(),
            );
            assert!(start.elapsed() < Duration::from_secs(1), "{kind:?}");
        }
    }

    /// A waker ends a wait that has neither a frame nor a timer to end
    /// it, and names no link.
    #[test]
    fn a_waker_ends_the_wait_with_no_link_named() {
        for kind in blocking_kinds() {
            let (mut near, _far): (Vec<Link>, Vec<Link>) = links(kind, 2).into_iter().unzip();
            let mut waiter = waiter_over(kind, &mut near);
            let waker = waiter.waker();
            let thread = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                waker.wake();
                waker.wake();
                // handed back: a dropped waker's hang-up is a wake-up too
                waker
            });
            let mut ready = Vec::new();
            waiter.wait(None, 1, &mut ready);
            assert!(ready.is_empty(), "{kind:?}: {ready:?}");
            let _waker = thread.join().unwrap();
            // both wakes are spent by at most one more return
            waiter.wait(
                Some(Instant::now() + Duration::from_millis(10)),
                1,
                &mut ready,
            );
            let start = Instant::now();
            waiter.wait(Some(start + Duration::from_millis(20)), 1, &mut ready);
            assert!(start.elapsed() >= Duration::from_millis(20), "{kind:?}");
            assert!(ready.is_empty());
        }
    }
}
