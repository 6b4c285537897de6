//! Thin control-plane client for the search service: one request, one
//! reply, one attempt, over any [`Transport`]. Used by the service e2e
//! suites (`tests/service_kill9.rs`).
//!
//! A failed request is not retried. A caller that retries must know what
//! the server does with a repeat: a re-sent `submit` whose reply was lost
//! creates a second job, because the control plane treats each submit as
//! a new tenant (idempotent *updates* are what the store's generation
//! fencing guarantees). `tests/client_retry.rs` pins that rule.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use fedrlnas_rpc::{decode, encode, Message, TcpTransport, Transport, TransportError};
use fedrlnas_service::{JobSpec, JobState, REPLY_ERROR};

/// A decoded per-job reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReply {
    /// Job the reply concerns.
    pub job_id: u64,
    /// Lifecycle state at reply time.
    pub state: JobState,
    /// Request-specific body (status JSON or stats JSON).
    pub detail: String,
}

/// What a control request can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, send, or receive).
    Transport(TransportError),
    /// The server replied, but with the error marker; the message is the
    /// server's `detail` body.
    Rejected(String),
    /// The reply frame did not parse, or was the wrong message kind.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Rejected(msg) => write!(f, "request rejected: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<TransportError> for ClientError {
    fn from(e: TransportError) -> Self {
        ClientError::Transport(e)
    }
}

/// A connected control-plane client.
pub struct ServiceClient<T: Transport> {
    transport: T,
    timeout: Duration,
}

impl ServiceClient<TcpTransport> {
    /// Connects over loopback TCP to a `fedrlnas serve` instance.
    ///
    /// # Errors
    ///
    /// Connect failures as [`ClientError::Transport`].
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream =
            TcpStream::connect(addr).map_err(|e| ClientError::Transport(TransportError::Io(e)))?;
        let transport =
            TcpTransport::new(stream).map_err(|e| ClientError::Transport(TransportError::Io(e)))?;
        Ok(ServiceClient::over(transport))
    }
}

impl<T: Transport> ServiceClient<T> {
    /// Wraps an already-connected transport (the mem-transport path).
    pub fn over(transport: T) -> Self {
        ServiceClient {
            transport,
            timeout: Duration::from_secs(30),
        }
    }

    /// Replaces the per-request reply timeout (default 30 s).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Submits a job; returns its assigned id.
    ///
    /// # Errors
    ///
    /// Transport, rejection, or protocol errors.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<u64, ClientError> {
        let reply = self.job_request(Message::SubmitJob {
            spec: spec.encode(),
        })?;
        Ok(reply.job_id)
    }

    /// One job's state and progress (status JSON in `detail`).
    ///
    /// # Errors
    ///
    /// Transport, rejection, or protocol errors.
    pub fn status(&mut self, job_id: u64) -> Result<JobReply, ClientError> {
        self.job_request(Message::JobStatus { job_id })
    }

    /// Pauses a queued or running job.
    ///
    /// # Errors
    ///
    /// Transport, rejection, or protocol errors.
    pub fn pause(&mut self, job_id: u64) -> Result<JobReply, ClientError> {
        self.job_request(Message::PauseJob { job_id })
    }

    /// Resumes a paused job.
    ///
    /// # Errors
    ///
    /// Transport, rejection, or protocol errors.
    pub fn resume(&mut self, job_id: u64) -> Result<JobReply, ClientError> {
        self.job_request(Message::ResumeJob { job_id })
    }

    /// Cancels a job (terminal).
    ///
    /// # Errors
    ///
    /// Transport, rejection, or protocol errors.
    pub fn cancel(&mut self, job_id: u64) -> Result<JobReply, ClientError> {
        self.job_request(Message::CancelJob { job_id })
    }

    /// One job's communication statistics as JSON.
    ///
    /// # Errors
    ///
    /// Transport, rejection, or protocol errors.
    pub fn stats(&mut self, job_id: u64) -> Result<String, ClientError> {
        Ok(self.job_request(Message::StatsDump { job_id })?.detail)
    }

    /// Every job the server knows, as `(job_id, state)` ascending by id.
    ///
    /// # Errors
    ///
    /// Transport, rejection, or protocol errors.
    pub fn list(&mut self) -> Result<Vec<(u64, JobState)>, ClientError> {
        match self.round_trip(Message::ListJobs)? {
            Message::JobList { jobs } => jobs
                .into_iter()
                .map(|(id, code)| {
                    JobState::from_code(code)
                        .map(|s| (id, s))
                        .ok_or_else(|| ClientError::Protocol(format!("bad state code {code}")))
                })
                .collect(),
            other => Err(ClientError::Protocol(format!(
                "expected JobList, got {other:?}"
            ))),
        }
    }

    fn job_request(&mut self, request: Message) -> Result<JobReply, ClientError> {
        match self.round_trip(request)? {
            Message::JobReply {
                job_id,
                state,
                detail,
            } => {
                let detail = String::from_utf8(detail)
                    .map_err(|_| ClientError::Protocol("non-UTF-8 reply detail".into()))?;
                if state == REPLY_ERROR {
                    return Err(ClientError::Rejected(detail));
                }
                let state = JobState::from_code(state)
                    .ok_or_else(|| ClientError::Protocol(format!("bad state code {state}")))?;
                Ok(JobReply {
                    job_id,
                    state,
                    detail,
                })
            }
            other => Err(ClientError::Protocol(format!(
                "expected JobReply, got {other:?}"
            ))),
        }
    }

    /// Sends the request and waits for one reply frame.
    fn round_trip(&mut self, request: Message) -> Result<Message, ClientError> {
        self.transport.send(&encode(&request))?;
        let reply = self.transport.recv_timeout(self.timeout)?;
        decode(&reply).map_err(|e| ClientError::Protocol(format!("bad reply frame: {e}")))
    }
}
