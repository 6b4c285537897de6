//! Federated-learning runtime: participants, FedAvg, round loops and
//! communication accounting (paper §III-A substrate).
//!
//! The paper runs its system over PyTorch Distributed RPC between real
//! machines; this crate provides the in-process substitute. Participants
//! own a shard of the training data and run real local training, and the
//! server aggregates weights or gradients exactly as FedAvg specifies.
//! [`FedAvgTrainer`] (retraining and the fixed-model baselines) visits its
//! participants one after another; the search server is the threaded
//! caller, running [`Participant::train_round`] — the one participant step
//! the in-process arm and the RPC worker share — on scoped threads.
//! Every byte that would cross the network is tallied in [`CommStats`].
//!
//! Aggregation is one path. [`FedAvgTrainer`] averages whole model states
//! by shard size with [`average_flat`]. The search server folds each
//! round's sparse sub-model gradients into one [`StreamingAccumulator`],
//! whose rule — the mean, or a robust center behind an optional clip —
//! is an [`AggregatorConfig`]; [`AggregatorConfig::reduce`] is the batch
//! form of the same rules.
//!
//! # Example
//!
//! ```
//! use fedrlnas_fed::{FedAvgConfig, FedAvgTrainer, TrainableModel};
//! use fedrlnas_darts::{DerivedModel, Genotype, SupernetConfig};
//! use fedrlnas_data::{DatasetSpec, SyntheticDataset};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let data = SyntheticDataset::generate(&DatasetSpec::svhn_like().with_sizes(8, 4), &mut rng);
//! let config = SupernetConfig::tiny();
//! let probs = [vec![vec![0.125; 8]; 5], vec![vec![0.125; 8]; 5]];
//! let genotype = Genotype::from_probs(&probs, config.nodes);
//! let model = DerivedModel::new(genotype, config, &mut rng);
//! let mut trainer = FedAvgTrainer::new(model, &data, 4, FedAvgConfig::default(), &mut rng);
//! let metrics = trainer.run_round(&data, &mut rng);
//! assert!(metrics.train_loss.is_finite());
//! ```

#![warn(missing_docs)]

mod comm;
mod participant;
mod robust;
mod rounds;
mod trainable;

pub use comm::{
    ChurnTally, CommStats, CompressionTally, FaultTally, IoFaultTally, RejectTally, RoundTimings,
    CODEC_NAMES, NUM_CODECS,
};
pub use participant::{LocalReport, Participant};
pub use robust::{
    clip_l2, l2_norm, validate_report, validate_update, AggregatorConfig, AggregatorKind,
    SparseUpdate, StreamingAccumulator, UpdateRejection,
};
pub use rounds::{FedAvgConfig, FedAvgTrainer, RoundMetrics};
pub use trainable::{
    average_flat, evaluate_model, flat_params, flat_state, set_flat_params, set_flat_state,
    TrainableModel,
};
