//! Multi-tenant search service: many independent federated model
//! searches multiplexed over the shared kernel thread pool, behind a
//! crash-safe job store and a wire control plane.
//!
//! The layers, bottom up:
//!
//! - [`store`]: one directory of per-job atomic segment files plus a
//!   CRC-protected manifest; segment-first commit order makes every crash
//!   point recoverable, generation numbers fence concurrent writers, and
//!   compaction reclaims superseded segments. Every mutation goes through
//!   a swappable `Vfs`, so the disk-chaos suites inject deterministic
//!   torn writes, dropped fsyncs, EIO and ENOSPC; persistent write
//!   failure degrades the store to read-only, and `scrub` CRC-verifies
//!   and repairs every record from its newest valid generation.
//! - [`spec`]: the deterministic job description ([`JobSpec`]): the
//!   argument list of a `fedrlnas search` run, limited to
//!   [`JOB_FLAGS`], parsed by the CLI's own `fedrlnas_core::args`
//!   grammar, and its wire/store encoding.
//! - [`job`]: the lifecycle state machine ([`JobState`]) wrapped around a
//!   live search, built in the single run's construction sequence so
//!   every job is bit-identical to `fedrlnas search` with the spec's
//!   arguments.
//! - [`manager`]: fair round-robin scheduling with per-job quotas
//!   ([`JobQuotas`]): a rounds-per-turn fairness quantum, a kernel
//!   thread budget, and a byte budget that auto-pauses over-quota jobs.
//!   Storage failures are isolated per tenant: bounded deterministic
//!   retries, then a sticky `Quarantined` state with a typed reason —
//!   one job's disk trouble never aborts the serve loop.
//! - [`control`]: the protocol-v2 control plane (submit / status / pause
//!   / resume / cancel / list / stats) served over the rpc transports,
//!   and the `serve` loop the CLI wraps.
//! - [`stats`]: the shared JSON serialization of per-job `CommStats`
//!   (control-plane `StatsDump` and the CLI's `--stats-json`).
//! - [`signal`]: the SIGINT/SIGTERM flag both serve and single-run modes
//!   poll to checkpoint before exiting.
//!
//! Jobs share no mutable state, so any interleaving of their rounds is
//! serially equivalent to running each alone — the service's determinism
//! contract, asserted bit-for-bit by the e2e suites (including kill -9
//! mid-fleet and restart).

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod control;
pub mod job;
pub mod manager;
pub mod signal;
pub mod spec;
pub mod stats;
pub mod store;

pub use control::{handle_message, serve_tcp, serve_transport, ServeOptions, REPLY_ERROR};
pub use job::{Job, JobState, QuarantineReason};
pub use manager::{JobManager, JobQuotas, ServiceError};
pub use signal::{
    install_shutdown_handler, set_scrub_requested, set_shutdown, shutdown_requested,
    take_scrub_requested,
};
pub use spec::{JobSpec, JOB_FLAGS};
pub use stats::comm_stats_json;
pub use store::{JobStore, ScrubReport, StoreError, StoredJob};
