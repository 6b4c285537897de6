//! The paper's motivating scenario: participants hold *non-i.i.d.* data
//! (per-class Dirichlet Dir(0.5) shards), and a pre-determined model
//! trained with FedAvg is compared against an architecture searched for
//! that very data distribution.
//!
//! ```text
//! cargo run --release --example noniid_vs_fixed_model
//! ```

use fedrlnas::baselines::SimpleCnn;
use fedrlnas::core::{retrain_federated, FederatedModelSearch, SearchConfig};
use fedrlnas::fed::{FedAvgConfig, FedAvgTrainer};
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut config = SearchConfig::tiny().non_iid();
    config.num_participants = 6;
    config.warmup_steps = 10;
    config.search_steps = 40;
    let rounds = 15;
    println!(
        "non-i.i.d. scenario: {} participants, Dir(0.5) shards",
        config.num_participants
    );

    // 1. search an architecture for the federation's data
    let mut search = FederatedModelSearch::new(config.clone(), &mut rng);
    let outcome = search.run(&mut rng);
    println!("searched: {}", outcome.genotype);

    // 2. train the searched architecture with FedAvg
    let ours = retrain_federated(
        outcome.genotype,
        config.net.clone(),
        search.dataset(),
        config.num_participants,
        rounds,
        config.dirichlet_beta,
        &mut rng,
    );

    // 3. train a hand-designed CNN on the same shards
    let fixed = SimpleCnn::new(
        3,
        config.net.init_channels,
        config.net.num_classes,
        &mut rng,
    );
    let mut trainer = FedAvgTrainer::new(
        fixed,
        search.dataset(),
        config.num_participants,
        FedAvgConfig {
            dirichlet_beta: config.dirichlet_beta,
            ..FedAvgConfig::default()
        },
        &mut rng,
    );
    for _ in 0..rounds {
        trainer.run_round(search.dataset(), &mut rng);
    }
    let fixed_acc = trainer.evaluate(search.dataset());

    println!("after {rounds} FedAvg rounds on non-i.i.d. shards:");
    println!(
        "  searched architecture: test accuracy {:.3}",
        ours.test_accuracy
    );
    println!("  hand-designed CNN:     test accuracy {fixed_acc:.3}");
}
