//! Pluggable round-execution backends.
//!
//! [`SearchServer`](crate::SearchServer) owns Algorithm 1 — sampling,
//! adaptive assignment, soft synchronization, aggregation — and everything
//! in it is written once, except the one step that moves sub-models to
//! participants and gradients back. That step, `SearchServer::train`, is
//! the round's single fork:
//!
//! * **in-process** (no backend installed): participants run
//!   [`Participant::train_round`](fedrlnas_fed::Participant::train_round)
//!   on scoped threads inside the server's address space;
//! * **over a [`RoundBackend`]**: every payload is serialized into the
//!   `fedrlnas-rpc` wire format, crosses a real transport (in-memory duplex
//!   or loopback TCP) to a pooled worker running the same
//!   `Participant::train_round`.
//!
//! Both arms hand back a [`RoundOutcome`], and they differ in exactly three
//! things: byte counts are *estimated* from parameter counts in-process and
//! *measured* from frames over a backend; download latency is the
//! assignment's estimate in-process (`download_frame_bytes` left empty) and
//! measured frame bytes over the sampled bandwidth otherwise; and the
//! server's own participants draw the batches in-process, while over a
//! backend the workers' clones do and the server mirrors the loader
//! transition.
//!
//! The trait lives here, one layer below the implementation, so the server
//! never depends on the transport crate; `fedrlnas-rpc` depends on this
//! crate and installs itself via [`SearchServer::set_backend`](crate::SearchServer::set_backend).

use fedrlnas_codec::CodecConfig;
use fedrlnas_darts::{ArchMask, SupernetLayout};
use fedrlnas_fed::{ChurnTally, CompressionTally, FaultTally, RejectTally, RoundTimings};

/// One participant's completed local update as delivered by a backend.
///
/// The in-process path produces the same shape (with an empty
/// `delta_alpha`), so everything downstream of training — the gate,
/// staleness, compensation, aggregation — is one piece of code for both
/// execution modes.
#[derive(Debug, Clone)]
pub struct BackendReport {
    /// Reporting participant id.
    pub participant: usize,
    /// Round the update was computed in (< the current round for replies
    /// that missed their deadline and arrived late).
    pub computed_at: usize,
    /// Architecture the participant trained.
    pub mask: ArchMask,
    /// Training accuracy — the REINFORCE reward `R(θ_k)`.
    pub accuracy: f32,
    /// Mean training loss over the local batch.
    pub loss: f32,
    /// Flat sub-model gradients in structural visit order.
    pub grads: Vec<f32>,
    /// Participant-computed `∇_α log p(g)` (empty in-process; the server
    /// recomputes it either way and uses this only as a cross-check).
    pub delta_alpha: Vec<f32>,
}

/// Everything a backend needs to run one federated round.
pub struct RoundRequest<'a> {
    /// Current round index `t`.
    pub round: usize,
    /// `masks[p]` is the architecture assigned to participant `p`.
    pub masks: &'a [ArchMask],
    /// Where each structural unit's weights sit in `theta` and `buffers`:
    /// participant `p` is shipped the ranges `layout` names for
    /// `masks[p]`, so no sub-model is built on the server.
    pub layout: &'a SupernetLayout,
    /// This round's supernet parameters, flat in `Supernet::visit_params`
    /// order (read-only for the whole round).
    pub theta: &'a [f32],
    /// This round's BatchNorm running statistics, flat in
    /// `Supernet::visit_buffers` order.
    pub buffers: &'a [f32],
    /// Current flat controller logits, shipped alongside each sub-model.
    pub alpha_logits: &'a [f32],
    /// This round's sampled downlink bandwidth per participant in Mbps
    /// (drives transport shaping).
    pub bandwidths_mbps: &'a [f64],
    /// Base seed for participant-side RNGs; every worker derives its
    /// stream with `Participant::round_rng`, like the in-process path, so
    /// both modes are bit-identical.
    pub seed_base: u64,
    /// The search's upload codec (`SearchConfig::codec`). Anything but
    /// `fp32` makes the backend ship each participant the codec resolved
    /// for its sampled bandwidth and decode coded replies.
    pub codec: CodecConfig,
    /// The search's L2 norm bound on an update
    /// (`SearchConfig::update_norm_bound`). A backend that gates its own
    /// replies gates with this bound, so the search's gate and the
    /// backend's never disagree.
    pub update_norm_bound: Option<f32>,
    /// Per-slot participation mask from the population/churn layer, one
    /// entry per slot. `active[p] == false` means slot `p`'s sampled
    /// client is out for this round: the backend must not ship to it, wait
    /// on it, or count it toward quorum. `None` means every slot
    /// participates (the historical fixed-fleet behaviour).
    pub active: Option<&'a [bool]>,
}

impl RoundRequest<'_> {
    /// Whether slot `p` participates this round.
    pub fn is_active(&self, p: usize) -> bool {
        self.active.is_none_or(|active| active[p])
    }
}

/// What a backend hands back after driving one round.
#[derive(Debug, Clone, Default)]
pub struct RoundOutcome {
    /// On-time replies, sorted by participant id (aggregation order must
    /// match the in-process path for determinism).
    pub reports: Vec<BackendReport>,
    /// Replies from *earlier* rounds that surfaced during this round's
    /// collection window; the server routes them into the staleness path.
    pub late: Vec<BackendReport>,
    /// Total bytes that crossed the wire server→participants this round,
    /// including retransmissions.
    pub bytes_down: u64,
    /// Total bytes that crossed participants→server this round, including
    /// late replies.
    pub bytes_up: u64,
    /// Measured size of the download frame first sent to each participant;
    /// divided by the sampled bandwidth this yields the round's
    /// transmission latency. Empty when nothing was measured (the
    /// in-process path): the assignment's estimates stand.
    pub download_frame_bytes: Vec<u64>,
    /// Transport faults observed/injected this round plus the recovery
    /// actions (retransmits, evictions) they triggered; folded into
    /// [`fedrlnas_fed::CommStats`] by the server.
    pub faults: FaultTally,
    /// Updates the engine's validation gate refused this round, by cause,
    /// plus workers evicted while misbehaving (suspected Byzantine).
    /// Rejected replies never appear in `reports`/`late`.
    pub rejects: RejectTally,
    /// Raw vs. encoded upload bytes and per-codec frame counts for every
    /// update delivered this round (on-time or late); empty when the run
    /// is configured for plain `fp32`.
    pub compression: CompressionTally,
    /// Churn events the engine itself observed this round (currently
    /// heartbeat re-admissions of previously evicted workers); merged into
    /// the server's scheduled-churn tally. Empty for fault-free fixed
    /// fleets, so legacy runs keep their CommStats byte-identical.
    pub churn: ChurnTally,
    /// Wall-clock the engine spent shipping downloads, collecting replies,
    /// decoding coded runs and validating updates this round. Volatile
    /// observability data (never part of determinism comparisons); the
    /// server adds its own aggregate timing and folds the result into
    /// [`fedrlnas_fed::CommStats`].
    pub timings: RoundTimings,
}

/// A round-execution engine: ships sub-models out, collects updates back.
///
/// Implementations must be deadline-driven: wait for each participant up
/// to a bounded time, retry lost downloads a bounded number of times, and
/// report late or missing replies rather than blocking the round forever.
pub trait RoundBackend: Send {
    /// Runs one federated round and returns on-time replies, late replies
    /// from earlier rounds, and measured wire-byte counts.
    fn run_round(&mut self, request: RoundRequest<'_>) -> RoundOutcome;

    /// Human-readable transport description for logs (e.g. `"loopback-tcp"`).
    fn describe(&self) -> String {
        "custom".to_string()
    }

    /// The authoritative per-participant error-feedback residuals held by
    /// the backend's workers, indexed by participant id. `None` (the
    /// default) means the backend does not compress uploads and the
    /// server's own participants stay authoritative. Called by the
    /// checkpointing layer right before a capture.
    fn collect_residuals(&mut self) -> Option<Vec<Vec<f32>>> {
        None
    }
}
