//! What a caller that retries meets: the client makes one attempt per
//! request and returns a rejection at once, and the server treats a
//! re-sent `submit` whose reply was lost as a second job, by design.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fedrlnas_bench::client::{ClientError, ServiceClient};
use fedrlnas_rpc::{
    decode, encode, ChannelTransport, Doorbell, Message, Transport, TransportError,
};
use fedrlnas_service::{serve_transport, JobManager, JobQuotas, JobSpec};

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn scratch(tag: &str) -> std::path::PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!(
        "fedrlnas-clientretry-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Serves `server_end` on a thread until the client side hangs up; the
/// service loop never exits on idle so multi-request scripts can pause.
fn spawn_server(
    dir: std::path::PathBuf,
    mut server_end: ChannelTransport,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut mgr = JobManager::open(&dir, JobQuotas::default(), 1).expect("open");
        serve_transport(&mut mgr, &mut server_end, false).expect("serve");
    })
}

/// Wraps a working transport and counts the frames sent through it.
struct CountingTransport {
    inner: ChannelTransport,
    sends: Arc<AtomicU32>,
}

impl Transport for CountingTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.sends.fetch_add(1, Ordering::SeqCst);
        self.inner.send(frame)
    }

    fn poll_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        self.inner.poll_recv()
    }

    fn set_waker(&mut self, waker: Option<(Arc<Doorbell>, usize)>) {
        self.inner.set_waker(waker);
    }
}

#[test]
fn duplicate_submit_after_lost_reply_is_a_second_job() {
    let dir = scratch("dup");
    let (mut client_end, server_end) = ChannelTransport::pair();
    let server = spawn_server(dir.clone(), server_end);
    let timeout = Duration::from_secs(10);
    let mut round_trip = |frame: &[u8]| {
        client_end.send(frame).expect("send");
        decode(&client_end.recv_timeout(timeout).expect("reply")).expect("reply frame")
    };

    // The first reply is "lost": the caller never reads its job id and
    // re-sends the same frame. The server — by documented design — creates
    // a second tenant rather than guessing at idempotence.
    let submit = encode(&Message::SubmitJob {
        spec: JobSpec::tiny(4100).encode(),
    });
    let ids: Vec<u64> = (0..2)
        .map(|_| match round_trip(&submit) {
            Message::JobReply { job_id, .. } => job_id,
            other => panic!("expected JobReply, got {other:?}"),
        })
        .collect();
    assert_ne!(ids[0], ids[1], "a re-sent submit must get a new job id");
    match round_trip(&encode(&Message::ListJobs)) {
        Message::JobList { jobs } => {
            let listed: Vec<u64> = jobs.iter().map(|(id, _)| *id).collect();
            assert_eq!(listed, ids, "a re-sent submit must pin TWO jobs");
        }
        other => panic!("expected JobList, got {other:?}"),
    }

    drop(client_end);
    server.join().expect("server thread");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn rejections_are_never_retried() {
    let dir = scratch("noretry");
    let (client_end, server_end) = ChannelTransport::pair();
    let server = spawn_server(dir.clone(), server_end);
    let sends = Arc::new(AtomicU32::new(0));
    let transport = CountingTransport {
        inner: client_end,
        sends: Arc::clone(&sends),
    };
    let mut client = ServiceClient::over(transport).with_timeout(Duration::from_secs(10));

    // An unknown job is a request-level rejection: the server answered,
    // and the client reports that answer after its one attempt.
    let err = client.status(9999).expect_err("unknown job");
    assert!(matches!(err, ClientError::Rejected(_)), "{err}");
    assert_eq!(sends.load(Ordering::SeqCst), 1, "one frame per request");

    drop(client);
    server.join().expect("server thread");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
