//! End-to-end RL-based federated model search — the paper's Algorithm 1
//! with adaptive transmission (§IV) and delay-compensated soft
//! synchronization (§V), plus the four experimental phases of §VI-A:
//!
//! * **P1 warm-up** — α frozen, sub-models sampled uniformly, θ trained so
//!   parameter-heavy and parameter-free operations compete fairly;
//! * **P2 search** — the server samples sub-models per participant,
//!   collects rewards and weight gradients, and updates both θ (FedAvg
//!   gradient averaging) and α (REINFORCE, Eq. 10/12);
//! * **P3 retrain** — the derived genotype is re-initialized and trained
//!   either centralized or federated;
//! * **P4 evaluate** — test-set accuracy of the retrained model.
//!
//! # Example
//!
//! ```no_run
//! use fedrlnas_core::{FederatedModelSearch, SearchConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut search = FederatedModelSearch::new(SearchConfig::tiny(), &mut rng);
//! let outcome = search.run(&mut rng);
//! println!("searched genotype: {}", outcome.genotype);
//! ```

#![warn(missing_docs)]

pub mod args;
mod backend;
mod checkpoint;
mod config;
mod crc;
mod metrics;
mod phases;
pub mod record;
mod runner;
mod server;
mod vfs;

pub use backend::{BackendReport, RoundBackend, RoundOutcome, RoundRequest};
pub use checkpoint::{
    Checkpoint, CheckpointError, ChurnEntry, ParticipantEntry, PendingEntry, PoolEntry,
};
pub use config::{PopulationConfig, Scale, SearchConfig};
pub use crc::crc32;
pub use metrics::{CurveRecorder, StepMetric};
pub use phases::{retrain_centralized, retrain_federated, test_error_percent, RetrainReport};
pub use runner::{CheckpointPolicy, FederatedModelSearch, SearchOutcome};
pub use server::{LatencyStats, SearchServer};
pub use vfs::{write_atomic, FaultyVfs, IoFaultPlan, StdVfs, Vfs};
