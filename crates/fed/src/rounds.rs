//! FedAvg round loop for training a fixed-structure model federatedly
//! (phase P3 and the fixed-model baselines; Figs. 9–11).

use crate::comm::CommStats;
use crate::participant::Participant;
#[cfg(test)]
use crate::trainable::flat_params;
use crate::trainable::{average_flat, evaluate_model, flat_state, set_flat_state, TrainableModel};
use fedrlnas_data::{dirichlet_partition, iid_partition, AugmentConfig, SyntheticDataset};
use fedrlnas_netsim::Environment;
use fedrlnas_nn::SgdConfig;
use rand::Rng;

/// FedAvg hyperparameters (the P3/FL column of Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedAvgConfig {
    /// Local SGD steps per participant per round.
    pub local_steps: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Local optimizer settings.
    pub sgd: SgdConfig,
    /// Dirichlet concentration for the non-i.i.d. partition; `None` = i.i.d.
    pub dirichlet_beta: Option<f64>,
    /// Augmentation applied by participants.
    pub augment: AugmentConfig,
}

impl Default for FedAvgConfig {
    fn default() -> Self {
        // Table I, P3 federated column: lr 0.1, momentum 0.5, wd 0.005.
        FedAvgConfig {
            local_steps: 2,
            batch_size: 16,
            sgd: SgdConfig {
                lr: 0.1,
                momentum: 0.5,
                weight_decay: 0.005,
                clip: 5.0,
            },
            dirichlet_beta: None,
            augment: AugmentConfig::none(),
        }
    }
}

/// Aggregate metrics of one FedAvg round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundMetrics {
    /// Round index (0-based).
    pub round: usize,
    /// Mean local training loss across participants.
    pub train_loss: f32,
    /// Mean local training accuracy across participants — the
    /// "average accuracy of participants' models" metric of §VI-A.
    pub train_accuracy: f32,
}

/// Weight-averaging FedAvg over a cloneable model.
pub struct FedAvgTrainer<M> {
    global: M,
    participants: Vec<Participant>,
    config: FedAvgConfig,
    comm: CommStats,
    round: usize,
}

impl<M: TrainableModel + Clone> FedAvgTrainer<M> {
    /// Creates a trainer with `k` participants, partitioning the dataset
    /// i.i.d. or by `Dir(beta)` according to the config, and assigning
    /// mobility environments round-robin.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or the dataset is empty.
    pub fn new<R: Rng + ?Sized>(
        global: M,
        dataset: &SyntheticDataset,
        k: usize,
        config: FedAvgConfig,
        rng: &mut R,
    ) -> Self {
        let parts = match config.dirichlet_beta {
            Some(beta) => dirichlet_partition(dataset.labels(), k, beta, rng),
            None => iid_partition(dataset.len(), k, rng),
        };
        Self::with_partition(global, parts, config, rng)
    }

    /// Creates a trainer over an explicit partition (one shard per
    /// participant).
    ///
    /// # Panics
    ///
    /// Panics if any shard is empty.
    pub fn with_partition<R: Rng + ?Sized>(
        global: M,
        partition: Vec<Vec<usize>>,
        config: FedAvgConfig,
        rng: &mut R,
    ) -> Self {
        let participants = partition
            .into_iter()
            .enumerate()
            .map(|(id, indices)| {
                Participant::new(
                    id,
                    indices,
                    config.batch_size,
                    config.augment,
                    Environment::ALL[id % Environment::ALL.len()],
                    1.0,
                    rng,
                )
            })
            .collect();
        FedAvgTrainer {
            global,
            participants,
            config,
            comm: CommStats::new(),
            round: 0,
        }
    }

    /// The current global model.
    pub fn global(&self) -> &M {
        &self.global
    }

    /// Mutable access to the global model (for evaluation helpers).
    pub fn global_mut(&mut self) -> &mut M {
        &mut self.global
    }

    /// Communication tally so far.
    pub fn comm(&self) -> &CommStats {
        &self.comm
    }

    /// Participant count.
    pub fn num_participants(&self) -> usize {
        self.participants.len()
    }

    /// Runs one FedAvg round: every participant in turn trains a copy of
    /// the global model locally; the server replaces the global weights
    /// with the shard-size-weighted average.
    pub fn run_round<R: Rng + ?Sized>(
        &mut self,
        dataset: &SyntheticDataset,
        rng: &mut R,
    ) -> RoundMetrics {
        let model_bytes = self.global.param_bytes();
        let mut locals: Vec<Vec<f32>> = Vec::with_capacity(self.participants.len());
        let mut weights: Vec<f32> = Vec::with_capacity(self.participants.len());
        let mut loss = 0.0f32;
        let mut acc = 0.0f32;
        for p in &mut self.participants {
            let mut local = self.global.clone();
            let report = p.local_sgd_steps(
                &mut local,
                dataset,
                self.config.local_steps,
                self.config.sgd,
                rng,
            );
            loss += report.loss;
            acc += report.accuracy;
            self.comm.record_down(model_bytes);
            self.comm.record_up(model_bytes);
            locals.push(flat_state(&mut local));
            weights.push(p.shard_len() as f32);
        }
        let avg = average_flat(&locals, &weights);
        set_flat_state(&mut self.global, &avg);
        self.comm.end_round();
        let k = self.participants.len() as f32;
        let metrics = RoundMetrics {
            round: self.round,
            train_loss: loss / k,
            train_accuracy: acc / k,
        };
        self.round += 1;
        metrics
    }

    /// Evaluates the global model on the dataset's test split.
    pub fn evaluate(&mut self, dataset: &SyntheticDataset) -> f32 {
        evaluate_model(&mut self.global, dataset, 64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedrlnas_darts::{DerivedModel, Genotype, SupernetConfig, NUM_OPS};
    use fedrlnas_data::DatasetSpec;
    use rand::{rngs::StdRng, SeedableRng};

    fn build() -> (SyntheticDataset, DerivedModel, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let data =
            SyntheticDataset::generate(&DatasetSpec::svhn_like().with_sizes(12, 4), &mut rng);
        let config = SupernetConfig::tiny();
        let edges = config.topology().num_edges();
        let uniform = vec![vec![1.0 / NUM_OPS as f32; NUM_OPS]; edges];
        let genotype = Genotype::from_probs(&[uniform.clone(), uniform], config.nodes);
        let model = DerivedModel::new(genotype, config, &mut rng);
        (data, model, rng)
    }

    #[test]
    fn round_updates_global_and_comm() {
        let (data, model, mut rng) = build();
        let mut trainer = FedAvgTrainer::new(model, &data, 4, FedAvgConfig::default(), &mut rng);
        let before = flat_params(trainer.global_mut());
        let m = trainer.run_round(&data, &mut rng);
        let after = flat_params(trainer.global_mut());
        assert_ne!(before, after, "global weights must move");
        assert_eq!(m.round, 0);
        assert!(m.train_loss.is_finite());
        assert_eq!(trainer.comm().rounds, 1);
        assert!(trainer.comm().total_bytes() > 0);
    }

    #[test]
    fn dirichlet_partition_used_when_configured() {
        let (data, model, mut rng) = build();
        let config = FedAvgConfig {
            dirichlet_beta: Some(0.5),
            ..FedAvgConfig::default()
        };
        let trainer = FedAvgTrainer::new(model, &data, 5, config, &mut rng);
        assert_eq!(trainer.num_participants(), 5);
    }

    #[test]
    fn bn_running_stats_travel_with_the_average() {
        // regression: weight-only averaging left the global model's BN
        // running statistics at their initialization, so evaluation ran on
        // garbage normalization and collapsed to chance accuracy
        let (data, model, mut rng) = build();
        let mut trainer = FedAvgTrainer::new(model, &data, 3, FedAvgConfig::default(), &mut rng);
        let before = flat_state(trainer.global_mut());
        let n_params = flat_params(trainer.global_mut()).len();
        trainer.run_round(&data, &mut rng);
        let after = flat_state(trainer.global_mut());
        let buffers_moved = before[n_params..]
            .iter()
            .zip(&after[n_params..])
            .any(|(a, b)| a != b);
        assert!(buffers_moved, "BN running stats must be updated by FedAvg");
    }

    #[test]
    fn training_improves_test_accuracy_over_rounds() {
        let (data, model, mut rng) = build();
        let mut trainer = FedAvgTrainer::new(
            model,
            &data,
            3,
            FedAvgConfig {
                local_steps: 4,
                ..FedAvgConfig::default()
            },
            &mut rng,
        );
        let before = trainer.evaluate(&data);
        for _ in 0..12 {
            trainer.run_round(&data, &mut rng);
        }
        let after = trainer.evaluate(&data);
        assert!(
            after > before || after > 0.3,
            "federated training should beat its random start: {before} -> {after}"
        );
    }
}
