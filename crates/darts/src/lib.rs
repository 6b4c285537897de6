//! The DARTS cell search space used by the paper (§IV-A), built from
//! scratch: candidate operations, the weight-sharing supernet, binary-mask
//! sub-model sampling and genotype derivation.
//!
//! The paper adopts the DARTS design space: a model is a stack of *cells*,
//! each cell a DAG whose edges carry one of `N = 8` candidate operations
//! (Fig. 1). The **supernet** holds weights for every `(cell, edge, op)`
//! triple. The server samples a one-hot binary mask `g` per edge (Eq. 5),
//! prunes the supernet into a **sub-model** with exactly one operation per
//! edge (Eq. 6) and ships only that sub-model to a participant — the
//! `1/N`-cost property the paper's efficiency claims rest on. All three
//! networks — supernet, sub-model and the **derived model** retrained from
//! a genotype — are one skeleton (stem, cell chain, pool, classifier) that
//! differs only in what an edge holds: every candidate, or exactly one.
//!
//! # Example
//!
//! ```
//! use fedrlnas_darts::{ArchMask, Supernet, SupernetConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let config = SupernetConfig::tiny();
//! let mut net = Supernet::new(config.clone(), &mut rng);
//! let mask = ArchMask::uniform_random(&config, &mut rng);
//! let mut sub = net.extract_submodel(&mask);
//! assert!(sub.param_bytes() < net.param_bytes());
//! ```

#![warn(missing_docs)]

mod cell;
mod genotype;
mod layout;
mod model;
mod network;
mod ops;
mod submodel;
mod supernet;

pub use cell::{concat_channels, split_channels, CellKind, CellTopology};
pub use genotype::{Genotype, GenotypeEdge};
pub use layout::SupernetLayout;
pub use model::DerivedModel;
pub use ops::{CandidateOp, IdentityOp, OpKind, ReluConvBn, ZeroOp, NUM_OPS};
pub use submodel::{ArchMask, SubModel};
pub use supernet::{Supernet, SupernetConfig};
