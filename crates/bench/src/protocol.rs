//! Shared experiment protocols: "search with our method", "retrain and
//! evaluate" — the P1→P4 pipelines the table binaries compose.

use fedrlnas_core::{
    retrain_centralized, retrain_federated, FederatedModelSearch, RetrainReport, SearchConfig,
    SearchOutcome,
};
use fedrlnas_darts::{DerivedModel, Genotype, SupernetConfig};
use fedrlnas_data::{DatasetSpec, SyntheticDataset};
use fedrlnas_fed::{evaluate_model, FedAvgConfig, FedAvgTrainer, TrainableModel};
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

/// P3 federated + P4 on the given genotype.
pub fn eval_federated(
    genotype: Genotype,
    net: SupernetConfig,
    dataset: &SyntheticDataset,
    k: usize,
    rounds: usize,
    dirichlet_beta: Option<f64>,
    seed: u64,
) -> RetrainReport {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFED1);
    retrain_federated(genotype, net, dataset, k, rounds, dirichlet_beta, &mut rng)
}

/// Trains an arbitrary fixed model with FedAvg for `rounds` and returns
/// `(test accuracy, param count, per-round train/val curves)`.
pub fn train_fixed_federated<M: TrainableModel + Clone + Send>(
    model: M,
    dataset: &SyntheticDataset,
    k: usize,
    rounds: usize,
    dirichlet_beta: Option<f64>,
    seed: u64,
) -> (f32, usize, Vec<f32>, Vec<(usize, f32)>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF1DE);
    let config = FedAvgConfig {
        dirichlet_beta,
        ..FedAvgConfig::default()
    };
    let mut trainer = FedAvgTrainer::new(model, dataset, k, config, &mut rng);
    let mut train_curve = Vec::with_capacity(rounds);
    let mut eval_points = Vec::new();
    let eval_every = (rounds / 10).max(1);
    for r in 0..rounds {
        let m = trainer.run_round(dataset, &mut rng);
        train_curve.push(m.train_accuracy);
        if r % eval_every == eval_every - 1 {
            eval_points.push((r, trainer.evaluate(dataset)));
        }
    }
    let acc = trainer.evaluate(dataset);
    let params = trainer.global_mut().param_count();
    (acc, params, train_curve, eval_points)
}

/// Parameter count of a genotype realized under `net` (the `Param(M)`
/// column; reported in raw scalars at proxy scale).
pub fn genotype_params(genotype: &Genotype, net: &SupernetConfig, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = DerivedModel::new(genotype.clone(), net.clone(), &mut rng);
    m.param_count()
}

/// Evaluates any trainable model on the test split (P4 helper).
pub fn test_accuracy<M: TrainableModel + ?Sized>(model: &mut M, dataset: &SyntheticDataset) -> f32 {
    evaluate_model(model, dataset, 64)
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
