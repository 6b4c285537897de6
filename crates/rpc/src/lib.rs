//! Distributed runtime for federated model search.
//!
//! Turns the in-process federation into a real wire protocol:
//!
//! * [`wire`] — a versioned, length-prefixed binary frame format
//!   (`magic | version | type | payload-len | payload | CRC32`) carrying
//!   sub-model downloads, gradient uploads, acks and heartbeats; tensors
//!   travel as raw little-endian `f32` runs. Decoding is total — corrupt
//!   input maps to typed [`WireError`]s, never panics.
//! * [`transport`] — a [`Transport`] trait with
//!   in-memory duplex and loopback-TCP implementations; a link's frame
//!   reaches the wire `bytes ÷ bandwidth` after it is due, using
//!   `fedrlnas-netsim` trace samples.
//! * [`fault`] — a seeded, deterministic fault-injection layer: a
//!   [`FaultPlan`] schedules frame drops, bit flips,
//!   duplication, reordering, extra latency and transient partitions from
//!   a dedicated RNG, and [`FaultyTransport`]
//!   wraps any transport with that schedule while counting every injected
//!   fault.
//! * [`adversary`] — seeded Byzantine participant behaviours (sign-flip,
//!   scaling, Gaussian noise, collusion, stale replay, NaN floods) applied
//!   to the uploaded model update only, so the server-side validation gate
//!   and robust aggregators are exercised under reproducible attacks.
//! * [`engine`] — a bounded pool of worker threads serving every
//!   participant, and an event loop collecting their replies under a
//!   per-round deadline with bounded saturating/jittered retry backoff;
//!   late replies flow into the server's soft-synchronization staleness
//!   path. Quorum
//!   commit, eviction of repeatedly silent workers and heartbeat
//!   re-admission degrade gracefully under faults. The per-link rules of
//!   both ends are sans-IO state machines (`protocol`) that the event
//!   loop and the serial oracle drive alike. Implements the
//!   [`RoundBackend`](fedrlnas_core::RoundBackend) seam, so
//!   [`SearchServer`](fedrlnas_core::SearchServer) runs unmodified on top
//!   and `CommStats` records the bytes that actually crossed the wire.
//!
//! A fault-free RPC search is bit-identical to an in-process one: workers
//! derive the same RNG streams, train the same shipped weights, and
//! reports aggregate in the same order.
//!
//! Every frame is protocol version 2 ([`VERSION`]); a frame of any other
//! version is refused. Uploads may be compressed: when the server's
//! [`RoundRequest::codec`](fedrlnas_core::RoundRequest::codec) is a
//! non-`fp32` [`CodecConfig`](fedrlnas_codec::CodecConfig) (the search
//! config's, its only source), each [`Message::DownloadSubmodel`] names in
//! its `codec` field which codec the worker applies (resolved per
//! participant from the round's sampled bandwidth), and uploads return as
//! opaque codec byte runs that the engine decodes — against the length it
//! shipped, never the sender's claim — *before* the validation gate.
//! Workers keep per-participant error-feedback residuals so sparsified
//! mass is carried forward rather than lost; the engine exposes them to
//! the checkpointing layer via `collect_residuals`. A pure-`fp32` run
//! names no codec and uploads plain [`Message::UploadUpdate`]s.

#![warn(missing_docs)]

pub mod adversary;
pub mod engine;
pub mod fault;
pub(crate) mod protocol;
pub(crate) mod reactor;
pub mod transport;
pub(crate) mod waiter;
pub mod wire;

pub use adversary::{apply_attack, Attack};
pub use engine::{
    backoff_delay, install, install_with_faults, EngineMode, ResidentBytes, RpcBackend, RpcConfig,
    ScriptedFault, TransportKind,
};
pub use fault::{FaultInjector, FaultPlan, FaultyTransport, FrameFault, Partition};
pub use transport::{ChannelTransport, Doorbell, TcpTransport, Transport, TransportError};
pub use wire::{
    coded_upload_frame_len, crc32, decode, decode_download, download_frame_len, encode,
    encode_download_into, encode_download_ranges_into, encode_into, encode_upload_coded_into,
    frame_len, upload_frame_len, DownloadRef, F32Run, Message, WireError, FRAME_OVERHEAD,
    HEADER_LEN, MAGIC, TRAILER_LEN, VERSION,
};
