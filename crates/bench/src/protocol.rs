//! Shared experiment protocols: "search with our method", "retrain and
//! evaluate" — the P1→P4 pipelines the experiments compose.

use fedrlnas_core::{
    retrain_centralized, retrain_federated, FederatedModelSearch, RetrainReport, SearchConfig,
    SearchOutcome,
};
use fedrlnas_darts::{DerivedModel, Genotype, SupernetConfig};
use fedrlnas_data::{DatasetSpec, SyntheticDataset};
use fedrlnas_fed::{FedAvgConfig, FedAvgTrainer, TrainableModel};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Generates the named dataset sized to a supernet configuration.
///
/// # Panics
///
/// Panics on an unknown dataset name.
pub fn dataset_for(name: &str, net: &SupernetConfig, seed: u64) -> SyntheticDataset {
    let spec = match name {
        "cifar10" => DatasetSpec::cifar10_like(),
        "svhn" => DatasetSpec::svhn_like(),
        "cifar100" => DatasetSpec::cifar100_like(),
        other => panic!("unknown dataset {other}"),
    }
    .with_image_hw(net.image_hw);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDA7A);
    SyntheticDataset::generate(&spec, &mut rng)
}

/// Runs our full search (P1+P2) on `dataset` and returns the outcome.
pub fn search_ours(
    config: SearchConfig,
    dataset: SyntheticDataset,
    seed: u64,
) -> (SearchOutcome, SyntheticDataset) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut search = FederatedModelSearch::with_dataset(config, dataset, &mut rng);
    let outcome = search.run(&mut rng);
    let dataset = search.dataset().clone();
    (outcome, dataset)
}

/// P3 centralized + P4 on the given genotype.
pub fn eval_centralized(
    genotype: Genotype,
    net: SupernetConfig,
    dataset: &SyntheticDataset,
    steps: usize,
    batch: usize,
    seed: u64,
) -> RetrainReport {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xCE47);
    retrain_centralized(genotype, net, dataset, steps, batch, &mut rng)
}

/// A trained model's test accuracy and parameter count.
pub type Scored = (f32, usize);

/// The federated setting (P3, FL) a table or figure retrains models in.
#[derive(Debug, Clone, Copy)]
pub struct Federated {
    /// Participants.
    pub k: usize,
    /// FedAvg rounds.
    pub rounds: usize,
    /// Dirichlet concentration of the data split (`None` = i.i.d.).
    pub beta: Option<f64>,
    /// Base seed.
    pub seed: u64,
}

impl Federated {
    /// Retrains `genotype` under `net` on `dataset` with the caller's RNG.
    pub fn retrain(
        &self,
        genotype: &Genotype,
        net: &SupernetConfig,
        dataset: &SyntheticDataset,
        rng: &mut StdRng,
    ) -> RetrainReport {
        let (genotype, net) = (genotype.clone(), net.clone());
        retrain_federated(genotype, net, dataset, self.k, self.rounds, self.beta, rng)
    }

    /// P3 federated + P4: the test accuracy of `genotype` under `net`, and
    /// its parameter count.
    pub fn eval(
        &self,
        genotype: &Genotype,
        net: &SupernetConfig,
        dataset: &SyntheticDataset,
    ) -> Scored {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xFED1);
        let report = self.retrain(genotype, net, dataset, &mut rng);
        (
            report.test_accuracy,
            genotype_params(genotype, net, self.seed),
        )
    }

    /// Trains an arbitrary fixed model with FedAvg and returns `((test
    /// accuracy, param count), per-round train curve, eval points)`.
    pub fn train_fixed<M: TrainableModel + Clone + Send>(
        &self,
        model: M,
        dataset: &SyntheticDataset,
    ) -> (Scored, Vec<f32>, Vec<(usize, f32)>) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xF1DE);
        let config = FedAvgConfig {
            dirichlet_beta: self.beta,
            ..FedAvgConfig::default()
        };
        let mut trainer = FedAvgTrainer::new(model, dataset, self.k, config, &mut rng);
        let mut train_curve = Vec::with_capacity(self.rounds);
        let mut eval_points = Vec::new();
        let eval_every = (self.rounds / 10).max(1);
        for r in 0..self.rounds {
            let m = trainer.run_round(dataset, &mut rng);
            train_curve.push(m.train_accuracy);
            if r % eval_every == eval_every - 1 {
                eval_points.push((r, trainer.evaluate(dataset)));
            }
        }
        let acc = trainer.evaluate(dataset);
        let params = trainer.global_mut().param_count();
        ((acc, params), train_curve, eval_points)
    }
}

/// Parameter count of a genotype realized under `net` (the `Param(M)`
/// column; reported in raw scalars at proxy scale).
pub fn genotype_params(genotype: &Genotype, net: &SupernetConfig, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = DerivedModel::new(genotype.clone(), net.clone(), &mut rng);
    m.param_count()
}

/// Derives a uniform-random genotype — the "untrained search" control used
/// when a baseline needs *some* architecture.
pub fn random_genotype(net: &SupernetConfig, seed: u64) -> Genotype {
    use fedrlnas_darts::{CellTopology, NUM_OPS};
    let mut rng = StdRng::seed_from_u64(seed);
    let edges = CellTopology::new(net.nodes).num_edges();
    let table = |rng: &mut StdRng| -> Vec<Vec<f32>> {
        (0..edges)
            .map(|_| (0..NUM_OPS).map(|_| rng.gen_range(0.0..1.0f32)).collect())
            .collect()
    };
    let probs = [table(&mut rng), table(&mut rng)];
    Genotype::from_probs(&probs, net.nodes)
}
