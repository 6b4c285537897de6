//! Phases P3 (retraining) and P4 (evaluation).
//!
//! After the search, the derived genotype is re-initialized and trained
//! from scratch either centralized (Table II) or federated (Tables III–IV,
//! Figs. 9–11), then evaluated on the test split.

use crate::metrics::{CurveRecorder, StepMetric};
use fedrlnas_darts::{DerivedModel, Genotype, SupernetConfig};
use fedrlnas_data::SyntheticDataset;
use fedrlnas_fed::{evaluate_model, FedAvgConfig, FedAvgTrainer};
use fedrlnas_nn::{CrossEntropy, Mode, Sgd, SgdConfig};
use rand::Rng;

/// Outcome of a retraining run: the trained model's final test accuracy
/// and the per-round curve.
#[derive(Debug, Clone)]
pub struct RetrainReport {
    /// Test-set accuracy after training, in `[0, 1]`.
    pub test_accuracy: f32,
    /// Per-step training metrics (train accuracy drives Figs. 9–11's
    /// "training" series; `validation` is sampled separately below).
    pub curve: CurveRecorder,
    /// Test accuracy sampled every few rounds (the "validation" series of
    /// Figs. 9–11): `(round, accuracy)`.
    pub eval_points: Vec<(usize, f32)>,
    /// Scalar parameter count of the trained model.
    pub param_count: usize,
}

impl RetrainReport {
    /// Test error in percent — the `Error(%)` column of Tables II–IV.
    pub fn error_percent(&self) -> f32 {
        (1.0 - self.test_accuracy) * 100.0
    }
}

/// Converts an accuracy in `[0, 1]` to the paper's error-percent scale.
pub fn test_error_percent(accuracy: f32) -> f32 {
    (1.0 - accuracy) * 100.0
}

/// P3 centralized: trains the genotype from scratch with SGD on the whole
/// training split (Table I's "P3, centralized" column), evaluating every
/// `eval_every` steps.
pub fn retrain_centralized<R: Rng + ?Sized>(
    genotype: Genotype,
    net: SupernetConfig,
    dataset: &SyntheticDataset,
    steps: usize,
    batch_size: usize,
    rng: &mut R,
) -> RetrainReport {
    let mut model = DerivedModel::new(genotype, net, rng);
    // Table I: centralized retraining uses the same optimizer block as θ.
    let mut sgd = Sgd::new(SgdConfig::default());
    let mut ce = CrossEntropy::new();
    let mut curve = CurveRecorder::new();
    let mut eval_points = Vec::new();
    let n = dataset.len();
    let eval_every = (steps / 10).max(1);
    for step in 0..steps {
        let indices: Vec<usize> = (0..batch_size.min(n))
            .map(|_| rng.gen_range(0..n))
            .collect();
        let (x, y) = dataset.batch(&indices);
        model.zero_grad();
        let logits = model.forward(&x, Mode::Train);
        let out = ce.forward(&logits, &y);
        let dl = ce.backward();
        model.backward(&dl);
        sgd.step_visitor(|f| model.visit_params(f));
        curve.record(StepMetric {
            step,
            mean_accuracy: out.accuracy(),
            mean_loss: out.loss,
            contributors: 1,
        });
        if step % eval_every == eval_every - 1 {
            eval_points.push((step, evaluate_model(&mut model, dataset, 64)));
        }
    }
    let test_accuracy = evaluate_model(&mut model, dataset, 64);
    let param_count = model.param_count();
    RetrainReport {
        test_accuracy,
        curve,
        eval_points,
        param_count,
    }
}

/// P3 federated: trains the genotype from scratch with FedAvg (Table I's
/// "P3, FL" column: lr 0.1, momentum 0.5, wd 0.005), recording the
/// accuracy-vs-round curves of Figs. 9–11.
pub fn retrain_federated<R: Rng + ?Sized>(
    genotype: Genotype,
    net: SupernetConfig,
    dataset: &SyntheticDataset,
    k: usize,
    rounds: usize,
    dirichlet_beta: Option<f64>,
    rng: &mut R,
) -> RetrainReport {
    let model = DerivedModel::new(genotype, net, rng);
    let config = FedAvgConfig {
        dirichlet_beta,
        ..FedAvgConfig::default()
    };
    let mut trainer = FedAvgTrainer::new(model, dataset, k, config, rng);
    let mut curve = CurveRecorder::new();
    let mut eval_points = Vec::new();
    let eval_every = (rounds / 10).max(1);
    for r in 0..rounds {
        let m = trainer.run_round(dataset, rng);
        curve.record(StepMetric {
            step: r,
            mean_accuracy: m.train_accuracy,
            mean_loss: m.train_loss,
            contributors: k,
        });
        if r % eval_every == eval_every - 1 {
            eval_points.push((r, trainer.evaluate(dataset)));
        }
    }
    let test_accuracy = trainer.evaluate(dataset);
    let param_count = trainer.global_mut().param_count();
    RetrainReport {
        test_accuracy,
        curve,
        eval_points,
        param_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedrlnas_darts::{CellTopology, NUM_OPS};
    use fedrlnas_data::DatasetSpec;
    use rand::{rngs::StdRng, SeedableRng};

    fn genotype(nodes: usize) -> Genotype {
        let edges = CellTopology::new(nodes).num_edges();
        let uniform = vec![vec![1.0 / NUM_OPS as f32; NUM_OPS]; edges];
        Genotype::from_probs(&[uniform.clone(), uniform], nodes)
    }

    #[test]
    fn centralized_retrain_improves_over_chance() {
        let mut rng = StdRng::seed_from_u64(0);
        let data =
            SyntheticDataset::generate(&DatasetSpec::svhn_like().with_sizes(20, 8), &mut rng);
        let net = SupernetConfig::tiny();
        let report = retrain_centralized(genotype(net.nodes), net, &data, 40, 16, &mut rng);
        assert!(report.test_accuracy > 0.15, "{}", report.test_accuracy);
        assert_eq!(report.curve.len(), 40);
        assert!(!report.eval_points.is_empty());
        assert!(report.param_count > 0);
        assert!((report.error_percent() - (1.0 - report.test_accuracy) * 100.0).abs() < 1e-5);
    }

    #[test]
    fn federated_retrain_runs_non_iid() {
        let mut rng = StdRng::seed_from_u64(1);
        let data =
            SyntheticDataset::generate(&DatasetSpec::svhn_like().with_sizes(15, 5), &mut rng);
        let net = SupernetConfig::tiny();
        let report = retrain_federated(genotype(net.nodes), net, &data, 3, 6, Some(0.5), &mut rng);
        assert_eq!(report.curve.len(), 6);
        assert!((0.0..=1.0).contains(&report.test_accuracy));
    }

    #[test]
    fn error_percent_helper() {
        assert!((test_error_percent(0.9737) - 2.63).abs() < 0.01);
    }
}
