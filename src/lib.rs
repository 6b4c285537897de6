//! # fedrlnas — Federated Model Search via Reinforcement Learning
//!
//! A from-scratch Rust reproduction of *Federated Model Search via
//! Reinforcement Learning* (ICDCS 2021): an RL-based federated
//! neural-architecture-search framework that samples sub-models from a
//! weight-sharing DARTS supernet, distributes them to participants sized
//! to their link bandwidth, and repairs straggler updates with a
//! delay-compensated (second-order Taylor) soft-synchronization scheme.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`tensor`] | `fedrlnas-tensor` | dense tensors, GEMM, im2col |
//! | [`codec`] | `fedrlnas-codec` | update compression: fp16/int8/top-k codecs, error feedback |
//! | [`nn`] | `fedrlnas-nn` | layers with analytic backward passes, losses, optimizers |
//! | [`darts`] | `fedrlnas-darts` | search space, supernet, sub-models, genotypes |
//! | [`controller`] | `fedrlnas-controller` | REINFORCE architecture controller |
//! | [`data`] | `fedrlnas-data` | synthetic datasets, Dirichlet partitioning |
//! | [`netsim`] | `fedrlnas-netsim` | 4G/LTE traces, adaptive assignment, device model |
//! | [`fed`] | `fedrlnas-fed` | federated runtime, FedAvg |
//! | [`sync`] | `fedrlnas-sync` | staleness, memory pools, delay compensation |
//! | [`core`] | `fedrlnas-core` | Algorithm 1 end-to-end, phases P1–P4 |
//! | [`rpc`] | `fedrlnas-rpc` | wire format, transports, distributed round engine |
//! | [`service`] | `fedrlnas-service` | multi-tenant job manager, crash-safe job store, control plane |
//! | [`baselines`] | `fedrlnas-baselines` | FedAvg/DARTS/ENAS/FedNAS/EvoFedNAS |
//!
//! # Quickstart
//!
//! ```
//! use fedrlnas::core::{FederatedModelSearch, SearchConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut search = FederatedModelSearch::new(SearchConfig::tiny(), &mut rng);
//! let outcome = search.run(&mut rng);
//! assert!(outcome.search_curve.len() > 0);
//! println!("searched architecture: {}", outcome.genotype);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and the `run_all`
//! binary of `crates/bench` for regenerating every table and figure of the
//! paper (indexed in `EXPERIMENTS.md`).

#![warn(missing_docs)]

pub use fedrlnas_baselines as baselines;
pub use fedrlnas_codec as codec;
pub use fedrlnas_controller as controller;
pub use fedrlnas_core as core;
pub use fedrlnas_darts as darts;
pub use fedrlnas_data as data;
pub use fedrlnas_fed as fed;
pub use fedrlnas_netsim as netsim;
pub use fedrlnas_nn as nn;
pub use fedrlnas_rpc as rpc;
pub use fedrlnas_service as service;
pub use fedrlnas_sync as sync;
pub use fedrlnas_tensor as tensor;
