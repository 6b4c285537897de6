//! Synthetic image datasets, non-i.i.d. partitioning and augmentation.
//!
//! The paper evaluates on CIFAR10, SVHN and CIFAR100, partitioned across
//! participants with a per-class Dirichlet distribution `Dir(0.5)` (as in
//! FedNAS). Real downloads and GPU-scale training are out of reach for this
//! reproduction (repro band 2/5), so this crate provides the documented
//! substitution: procedurally generated image datasets whose classes are
//! defined by *operation-sensitive* structure — oriented stripes
//! (convolution-sensitive), localized blobs (pooling-sensitive) and color
//! statistics (global) — so that the architecture search has a genuine
//! signal. Class count, channel layout, relative difficulty ordering and
//! the Dirichlet partitioning protocol are preserved.
//!
//! # Example
//!
//! ```
//! use fedrlnas_data::{DatasetSpec, SyntheticDataset, dirichlet_partition};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let data = SyntheticDataset::generate(&DatasetSpec::svhn_like().with_sizes(40, 10), &mut rng);
//! let parts = dirichlet_partition(data.labels(), 4, 0.5, &mut rng);
//! assert_eq!(parts.len(), 4);
//! ```

#![warn(missing_docs)]

mod augment;
mod batch;
mod partition;
mod synthetic;

pub use augment::{cutout, horizontal_flip, random_crop, AugmentConfig};
pub use batch::Loader;
pub use partition::{dirichlet_partition, iid_partition};
pub use synthetic::{DatasetSpec, SyntheticDataset};
