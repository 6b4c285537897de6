//! The wire control plane: protocol-v2 job-management frames dispatched
//! against a [`JobManager`], plus the TCP serve loop that interleaves
//! client handling with scheduling turns.
//!
//! Every request gets exactly one reply frame: a
//! [`Message::JobReply`] (state code `0xFF` marks a request-level error,
//! with the message in `detail`) or a [`Message::JobList`]. Request
//! handling is strictly serialized with scheduling, so a status reply
//! always reflects a round boundary — never a half-run round.

use std::io::ErrorKind;
use std::net::{TcpListener, ToSocketAddrs};
use std::time::Duration;

use fedrlnas_rpc::{decode, encode, Message, TcpTransport, Transport};

use crate::manager::JobManager;
use crate::signal::{shutdown_requested, take_scrub_requested};
use crate::spec::JobSpec;

/// `state` code in a [`Message::JobReply`] marking a request-level error.
pub const REPLY_ERROR: u8 = 0xFF;

/// Dispatches one decoded control frame against the manager and returns
/// the reply frame. Non-control messages get an error reply rather than
/// silence, so a confused client always unblocks.
pub fn handle_message(mgr: &mut JobManager, msg: &Message) -> Message {
    match msg {
        Message::SubmitJob { spec } => match JobSpec::decode(spec) {
            Ok(spec) => match mgr.submit(spec) {
                Ok(job_id) => reply_ok(mgr, job_id),
                Err(e) => reply_err(0, &e.to_string()),
            },
            Err(e) => reply_err(0, &format!("bad job spec: {e}")),
        },
        Message::JobStatus { job_id } => reply_ok(mgr, *job_id),
        Message::PauseJob { job_id } => match mgr.pause(*job_id) {
            Ok(()) => reply_ok(mgr, *job_id),
            Err(e) => reply_err(*job_id, &e.to_string()),
        },
        Message::ResumeJob { job_id } => match mgr.resume(*job_id) {
            Ok(()) => reply_ok(mgr, *job_id),
            Err(e) => reply_err(*job_id, &e.to_string()),
        },
        Message::CancelJob { job_id } => match mgr.cancel(*job_id) {
            Ok(()) => reply_ok(mgr, *job_id),
            Err(e) => reply_err(*job_id, &e.to_string()),
        },
        Message::ListJobs => Message::JobList { jobs: mgr.list() },
        Message::StatsDump { job_id } => match mgr.stats_json(*job_id) {
            Ok(json) => {
                let state = mgr
                    .status(*job_id)
                    .map(|(s, _, _)| s.code())
                    .unwrap_or(REPLY_ERROR);
                Message::JobReply {
                    job_id: *job_id,
                    state,
                    detail: json.into_bytes(),
                }
            }
            Err(e) => reply_err(*job_id, &e.to_string()),
        },
        _ => reply_err(0, "not a control message"),
    }
}

/// The status reply body: state, progress, once completed the genotype,
/// and for quarantined jobs the typed reason, as a small JSON object.
fn reply_ok(mgr: &JobManager, job_id: u64) -> Message {
    match mgr.status(job_id) {
        Ok((state, rounds, total)) => {
            let genotype = mgr
                .genotype(job_id)
                .ok()
                .flatten()
                .map(|g| format!(",\"genotype\":\"{g}\""))
                .unwrap_or_default();
            let quarantine = mgr
                .quarantine_reason(job_id)
                .map(|r| {
                    format!(
                        ",\"quarantine\":{{\"kind\":\"{}\",\"detail\":\"{}\"}}",
                        r.kind(),
                        json_escape(&r.to_string())
                    )
                })
                .unwrap_or_default();
            let detail = format!(
                "{{\"state\":\"{}\",\"rounds_completed\":{rounds},\"total_rounds\":{total}{genotype}{quarantine}}}",
                state.name()
            );
            Message::JobReply {
                job_id,
                state: state.code(),
                detail: detail.into_bytes(),
            }
        }
        Err(e) => reply_err(job_id, &e.to_string()),
    }
}

/// Minimal JSON string escaping for reason details (quotes, backslashes,
/// control characters).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn reply_err(job_id: u64, detail: &str) -> Message {
    Message::JobReply {
        job_id,
        state: REPLY_ERROR,
        detail: detail.as_bytes().to_vec(),
    }
}

/// How long a serve loop naps after a scheduling turn that ran nothing,
/// so an idle service does not spin against its clients.
const IDLE_NAP: Duration = Duration::from_millis(2);

/// Options for [`serve_tcp`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Stop (after checkpointing) once every job is settled — terminal
    /// or quarantined — and no client is connected; for tests and batch
    /// fleets.
    pub exit_when_idle: bool,
    /// Sleep this long after every scheduled round — paces the fleet so
    /// crash tests can reliably interrupt it mid-flight. Pacing never
    /// affects results: determinism is a function of round count, not
    /// wall clock.
    pub round_delay: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            exit_when_idle: false,
            round_delay: Duration::ZERO,
        }
    }
}

/// Serves the control plane on `addr` while driving the job fleet:
/// accepts connections, drains any pending control frames, runs one
/// scheduling turn, repeats. Returns after a shutdown signal (or idle
/// exit) once every job is durably checkpointed. Calls `on_ready` with
/// the bound address before the first accept.
///
/// # Errors
///
/// Bind/accept failures and store errors, as strings (the CLI surface).
pub fn serve_tcp(
    mgr: &mut JobManager,
    addr: impl ToSocketAddrs,
    options: &ServeOptions,
    on_ready: impl FnOnce(std::net::SocketAddr),
) -> Result<(), String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    on_ready(local);

    let mut clients: Vec<TcpTransport> = Vec::new();
    loop {
        if shutdown_requested() {
            break;
        }
        if take_scrub_requested() {
            match mgr.scrub() {
                Ok(report) => eprintln!(
                    "scrub: checked {} segment(s), repaired {:?}, lost {:?}, removed {} tmp file(s)",
                    report.segments_checked, report.repaired, report.lost, report.tmp_removed
                ),
                Err(e) => eprintln!("scrub failed: {e}"),
            }
        }

        // Accept every connection waiting right now.
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => match TcpTransport::new(stream) {
                    Ok(t) => clients.push(t),
                    Err(e) => return Err(format!("accept setup: {e}")),
                },
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("accept: {e}")),
            }
        }

        // Drain pending control frames; drop hung-up clients.
        clients.retain_mut(|client| drain(mgr, client));

        // One scheduling turn, then pacing.
        let ran = turn(mgr)?;
        if ran && !options.round_delay.is_zero() {
            std::thread::sleep(options.round_delay);
        }
        // Settled, not terminal: a quarantined tenant must not keep the
        // whole service alive forever.
        if !ran && options.exit_when_idle && mgr.all_settled() && clients.is_empty() {
            break;
        }
    }

    mgr.checkpoint_all().map_err(|e| e.to_string())?;
    Ok(())
}

/// Serves one in-memory transport endpoint until it closes or every job
/// is terminal — the mem-transport twin of [`serve_tcp`], used by tests
/// and embedded callers. Same loop structure: drain frames, tick, repeat.
///
/// # Errors
///
/// Store errors, as strings.
pub fn serve_transport<T: Transport>(
    mgr: &mut JobManager,
    client: &mut T,
    exit_when_idle: bool,
) -> Result<(), String> {
    loop {
        if shutdown_requested() {
            break;
        }
        if !drain(mgr, client) {
            break;
        }
        if !turn(mgr)? && exit_when_idle && mgr.all_settled() {
            break;
        }
    }
    mgr.checkpoint_all().map_err(|e| e.to_string())
}

/// One scheduling turn of either serve loop; a turn that ran nothing
/// naps [`IDLE_NAP`]. Returns whether a round ran.
fn turn(mgr: &mut JobManager) -> Result<bool, String> {
    let ran = mgr.tick().map_err(|e| e.to_string())?;
    if !ran {
        std::thread::sleep(IDLE_NAP);
    }
    Ok(ran)
}

/// Answers every control frame `client` has pending, one reply each,
/// without waiting for more. Returns whether the client is still open:
/// `false` once a receive reports a hang-up or a reply cannot be sent.
fn drain<T: Transport>(mgr: &mut JobManager, client: &mut T) -> bool {
    loop {
        match client.poll_recv() {
            Ok(Some(frame)) => {
                let reply = match decode(&frame) {
                    Ok(msg) => handle_message(mgr, &msg),
                    Err(e) => reply_err(0, &format!("bad frame: {e}")),
                };
                if client.send(&encode(&reply)).is_err() {
                    return false;
                }
            }
            Ok(None) => return true,
            Err(_) => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobState;
    use crate::manager::JobQuotas;
    use fedrlnas_rpc::{ChannelTransport, TransportError};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fedrlnas-control-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn control_dispatch_covers_the_lifecycle() {
        let dir = temp_dir("dispatch");
        let mut mgr = JobManager::open(&dir, JobQuotas::default(), 0).expect("open");

        let spec = JobSpec::tiny(7).encode();
        let reply = handle_message(&mut mgr, &Message::SubmitJob { spec });
        let job_id = match reply {
            Message::JobReply { job_id, state, .. } => {
                assert_eq!(state, JobState::Queued.code());
                job_id
            }
            other => panic!("unexpected reply {other:?}"),
        };

        let reply = handle_message(&mut mgr, &Message::PauseJob { job_id });
        assert!(matches!(
            reply,
            Message::JobReply { state, .. } if state == JobState::Paused.code()
        ));
        let reply = handle_message(&mut mgr, &Message::ResumeJob { job_id });
        assert!(matches!(
            reply,
            Message::JobReply { state, .. } if state == JobState::Running.code()
        ));
        let reply = handle_message(&mut mgr, &Message::ListJobs);
        assert!(matches!(
            reply,
            Message::JobList { jobs } if jobs == vec![(job_id, JobState::Running.code())]
        ));
        let reply = handle_message(&mut mgr, &Message::StatsDump { job_id });
        match reply {
            Message::JobReply { detail, .. } => {
                let json = String::from_utf8(detail).expect("utf-8 stats");
                assert!(json.contains("\"bytes_down\":"), "{json}");
            }
            other => panic!("unexpected reply {other:?}"),
        }
        let reply = handle_message(&mut mgr, &Message::CancelJob { job_id });
        assert!(matches!(
            reply,
            Message::JobReply { state, .. } if state == JobState::Cancelled.code()
        ));

        let reply = handle_message(&mut mgr, &Message::JobStatus { job_id: 999 });
        assert!(matches!(
            reply,
            Message::JobReply { state, .. } if state == REPLY_ERROR
        ));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Counts how a serve loop reads its client: polls, and blocking
    /// receives.
    struct Counted {
        inner: ChannelTransport,
        polls: usize,
        waits: usize,
    }

    impl Transport for Counted {
        fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
            self.inner.send(frame)
        }

        fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
            self.waits += 1;
            self.inner.recv()
        }

        fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
            self.waits += 1;
            self.inner.recv_timeout(timeout)
        }

        fn poll_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
            self.polls += 1;
            self.inner.poll_recv()
        }
    }

    /// Draining an idle client costs a scheduling turn one poll and no
    /// wait; a pending request is answered in the same turn, and a
    /// hung-up client is let go.
    #[test]
    fn an_idle_client_costs_a_turn_no_wait() {
        let dir = temp_dir("idle-client");
        let mut mgr = JobManager::open(&dir, JobQuotas::default(), 0).expect("open");
        let (near, mut far) = ChannelTransport::pair();
        let mut client = Counted {
            inner: near,
            polls: 0,
            waits: 0,
        };
        assert!(drain(&mut mgr, &mut client));
        assert_eq!((client.polls, client.waits), (1, 0));
        far.send(&encode(&Message::ListJobs)).expect("send");
        assert!(drain(&mut mgr, &mut client));
        assert_eq!((client.polls, client.waits), (3, 0));
        let reply = far.poll_recv().expect("open").expect("answered");
        assert!(matches!(decode(&reply), Ok(Message::JobList { .. })));
        drop(far);
        assert!(!drain(&mut mgr, &mut client));
        assert_eq!(client.waits, 0);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// A submitted argument list with a flag outside the job table is
    /// refused by name, and nothing is stored.
    #[test]
    fn a_flag_outside_the_job_table_is_refused_at_submit() {
        let dir = temp_dir("foreign-flag");
        let mut mgr = JobManager::open(&dir, JobQuotas::default(), 0).expect("open");
        let spec = crate::spec::encode_args(&["--scale", "tiny", "--aggregator", "median"]);
        match handle_message(&mut mgr, &Message::SubmitJob { spec }) {
            Message::JobReply { state, detail, .. } => {
                assert_eq!(state, REPLY_ERROR);
                let detail = String::from_utf8(detail).expect("utf-8 detail");
                assert!(detail.contains("unknown flag --aggregator"), "{detail}");
            }
            other => panic!("unexpected reply {other:?}"),
        }
        assert!(mgr.list().is_empty());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn non_control_frames_get_an_error_reply() {
        let dir = temp_dir("noncontrol");
        let mut mgr = JobManager::open(&dir, JobQuotas::default(), 0).expect("open");
        let reply = handle_message(&mut mgr, &Message::Ack { round: 0 });
        assert!(matches!(
            reply,
            Message::JobReply { state, .. } if state == REPLY_ERROR
        ));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
