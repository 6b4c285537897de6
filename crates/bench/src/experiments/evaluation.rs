//! Experiments that retrain searched architectures (P3) and test them
//! (P4): Tables II–IV, VI–VIII and the accuracy-vs-rounds curves of
//! Figs. 9–11.

use super::search::{dataset_for_k, participant_sweep};
use super::{Claim, Ctx, Verdict};
use crate::protocol::{
    dataset_for, eval_centralized, genotype_params, random_genotype, search_ours, Federated, Scored,
};
use crate::{error_pct, series_csv, Table};
use fedrlnas_baselines::{
    DartsOrder, DartsSearch, EnasSearch, EvoFedNas, EvoSpace, FedNasSearch, ResNetProxy, SimpleCnn,
};
use fedrlnas_controller::ControllerConfig;
use fedrlnas_core::{CurveRecorder, FederatedModelSearch, SearchConfig};
use fedrlnas_darts::{Genotype, SupernetConfig};
use fedrlnas_data::SyntheticDataset;
use fedrlnas_sync::{StalenessModel, StalenessStrategy};
use rand::{rngs::StdRng, SeedableRng};

/// Retraining in `config`'s participants and data split for the budget's
/// rounds.
fn fl(ctx: &Ctx, config: &SearchConfig) -> Federated {
    Federated {
        k: config.num_participants,
        rounds: ctx.budget.fed_rounds,
        beta: config.dirichlet_beta,
        seed: ctx.seed,
    }
}

/// EvoFedNAS searched in `space` for `gens` generations and evaluated in
/// its own (wider or narrower) channel plan.
fn evo_fednas(
    fl: &Federated,
    space: EvoSpace,
    net: &SupernetConfig,
    data: &SyntheticDataset,
    batch: usize,
    salt: u64,
    gens: usize,
) -> Scored {
    let mut rng = StdRng::seed_from_u64(fl.seed ^ salt);
    let mut evo = EvoFedNas::new(
        space,
        net.clone(),
        data,
        fl.k,
        8,
        4,
        batch,
        fl.beta,
        &mut rng,
    );
    let genotype = evo.run(data, gens, &mut rng);
    let mut evo_net = net.clone();
    evo_net.init_channels *= space.channel_multiplier();
    fl.eval(&genotype, &evo_net, data)
}

/// The non-i.i.d. (Dir(0.5)) search configuration of Table IV and
/// Figs. 9–11, with the budget's warm-up steps.
fn non_iid_config(ctx: &Ctx) -> SearchConfig {
    let mut config = SearchConfig::at_scale(ctx.scale).non_iid();
    config.warmup_steps = ctx.budget.warmup;
    config
}

/// Adds one model's row (`label`, error, params, then `tags`) and prints
/// its error under `printed`; returns the error in percent.
fn model_row(t: &mut Table, label: &str, printed: &str, model: Scored, tags: &[&str]) -> f32 {
    let (acc, params) = model;
    let mut cells = vec![label.to_string(), error_pct(acc), params.to_string()];
    cells.extend(tags.iter().map(|s| s.to_string()));
    t.row(&cells);
    println!("  {printed}: error {}%", error_pct(acc));
    (1.0 - acc) * 100.0
}

/// Prints a finished table and writes it as `file`.
fn finish(ctx: &Ctx, t: &Table, file: &str) {
    t.print();
    ctx.write(file, &t.to_csv());
    println!();
}

/// Table II: centralized evaluation accuracies of searched models on
/// (i.i.d.) CIFAR10-like data.
///
/// Top section — the NAS comparison: DARTS 1st/2nd order, ENAS, Ours.
/// Bottom section — delay-compensated search: use / throw / ours at 70 %
/// staleness, ours at 10 % staleness. Every row searches an architecture,
/// retrains it from scratch centralized (P3) and reports test error (P4)
/// and parameter count.
pub fn table2(ctx: &Ctx) -> Result<Vec<Claim>, String> {
    let (steps, retrain, seed) = (ctx.budget.search, ctx.budget.retrain, ctx.seed);
    let base = ctx.search_config();
    let (net, batch) = (base.net.clone(), base.batch_size);
    let data = dataset_for("cifar10", &net, seed);
    println!(
        "Table II — centralized evaluation on i.i.d. CIFAR10-like (search {steps} steps, retrain {retrain} steps)"
    );
    let mut t = Table::new(
        "Table II — Centralized Evaluation Accuracies of Searched Models",
        &["method", "error(%)", "params", "strategy", "FL", "NAS"],
    );
    t.section("RL-based Federated Model Search");
    let centralized = |genotype: &Genotype, data: &SyntheticDataset| {
        let report = eval_centralized(genotype.clone(), net.clone(), data, retrain, batch, seed);
        (report.test_accuracy, genotype_params(genotype, &net, seed))
    };

    // DARTS 1st / 2nd order (centralized gradient NAS)
    for (label, order) in [
        ("DARTS (1st order)", DartsOrder::First),
        ("DARTS (2nd order)", DartsOrder::Second),
    ] {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDA);
        let mut search = DartsSearch::new(net.clone(), order, &mut rng);
        // mixed-op steps cost ~N× a masked step; match compute, not steps
        let genotype = search.run(&data, (steps / 4).max(2), batch, &mut rng);
        let m = centralized(&genotype, &data);
        model_row(&mut t, label, label, m, &["grad", "", "yes"]);
    }

    // ENAS (centralized RL)
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE0);
    let ctl = ControllerConfig {
        lr: base.controller.lr,
        ..Default::default()
    };
    let genotype =
        EnasSearch::new(net.clone(), ctl, &mut rng).run(&data, steps, 4, batch, &mut rng);
    let m = centralized(&genotype, &data);
    model_row(&mut t, "ENAS", "ENAS", m, &["RL", "", "yes"]);

    // Ours (federated RL, hard sync), then under staleness
    let ours = |t: &mut Table, config: SearchConfig, label: &str| {
        let (outcome, data_back) = search_ours(config, data.clone(), seed);
        let model = centralized(&outcome.genotype, &data_back);
        model_row(t, label, label, model, &["RL", "yes", "yes"])
    };
    let fresh = ours(&mut t, base.clone(), "Ours");
    t.section("Delay-Compensated Federated Model Search");
    use StalenessStrategy::{Throw, Use};
    let stale = |model: StalenessModel, strategy| base.clone().with_staleness(model, strategy);
    let severe = |strategy| stale(StalenessModel::severe(), strategy);
    let dc = StalenessStrategy::delay_compensated;
    let use70 = ours(&mut t, severe(Use), "use (70% staleness)");
    let throw70 = ours(&mut t, severe(Throw), "throw (70% staleness)");
    let dc70 = ours(&mut t, severe(dc()), "Ours (70% staleness)");
    let slight = stale(StalenessModel::slight(), dc());
    ours(&mut t, slight, "Ours (10% staleness)");
    finish(ctx, &t, "table2.csv");

    Ok(vec![
        Claim::check(
            "table2.dc_beats_use_throw",
            "DC(70%) better than use(70%) and throw(70%)",
            &[
                ("dc70_err", dc70.into()),
                ("use70_err", use70.into()),
                ("throw70_err", throw70.into()),
            ],
            dc70 <= use70 && dc70 <= throw70,
            Verdict::Partial,
        )?,
        Claim::check(
            "table2.dc_near_fresh",
            "DC(70%) close to staleness-free Ours",
            &[("dc70_err", dc70.into()), ("ours_err", fresh.into())],
            (dc70 - fresh).abs() < 12.0,
            Verdict::Partial,
        )?,
    ])
}

/// Table III: federated evaluation accuracies of searched models on
/// (i.i.d.) CIFAR10-like data — FedAvg with a hand-designed model,
/// EvoFedNAS (big/small), Ours, and Ours under 10 % staleness, all
/// retrained with FedAvg (P3, FL) and tested (P4).
pub fn table3(ctx: &Ctx) -> Result<Vec<Claim>, String> {
    let base = ctx.search_config();
    let fl = fl(ctx, &base);
    let net = base.net.clone();
    let data = dataset_for("cifar10", &net, ctx.seed);
    println!(
        "Table III — federated evaluation on i.i.d. CIFAR10-like (K = {}, {} FedAvg rounds)",
        fl.k, fl.rounds
    );
    let mut t = Table::new(
        "Table III — Federated Evaluation Accuracies of Searched Models",
        &["method", "error(%)", "params", "strategy", "FL", "NAS"],
    );
    t.section("RL-based Federated Model Search");

    // FedAvg with a hand-designed model
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x0F);
    let model = SimpleCnn::new(3, net.init_channels, net.num_classes, &mut rng);
    let (m, _, _) = fl.train_fixed(model, &data);
    let fedavg = model_row(&mut t, "FedAvg", "FedAvg", m, &["hand", "yes", ""]);
    let gens = (ctx.budget.search / 16).clamp(2, 12);
    let evo = [
        ("EvoFedNAS(big)", EvoSpace::Big),
        ("EvoFedNAS(small)", EvoSpace::Small),
    ]
    .map(|(label, space)| {
        let model = evo_fednas(&fl, space, &net, &data, base.batch_size, 0xE7, gens);
        model_row(&mut t, label, label, model, &["evol", "yes", "yes"])
    });
    let ours = |t: &mut Table, config: SearchConfig, label: &str| {
        let (outcome, data_back) = search_ours(config, data.clone(), ctx.seed);
        let model = fl.eval(&outcome.genotype, &net, &data_back);
        model_row(t, label, label, model, &["RL", "yes", "yes"])
    };
    let ours_err = ours(&mut t, base.clone(), "Ours");
    t.section("Delay-Compensated Federated Model Search");
    let dc = StalenessStrategy::delay_compensated();
    let slight = base.clone().with_staleness(StalenessModel::slight(), dc);
    ours(&mut t, slight, "Ours (10% staleness)");
    finish(ctx, &t, "table3.csv");

    Ok(vec![
        Claim::check(
            "table3.searched_beat_fedavg",
            "searched models beat hand-designed FedAvg",
            &[("ours_err", ours_err.into()), ("fedavg_err", fedavg.into())],
            ours_err < fedavg,
            Verdict::Partial,
        )?,
        Claim::check(
            "table3.evo_big_beats_small",
            "EvoFedNAS(big) beats EvoFedNAS(small)",
            &[("big_err", evo[0].into()), ("small_err", evo[1].into())],
            evo[0] <= evo[1],
            Verdict::Partial,
        )?,
    ])
}

/// Table IV: federated evaluation accuracies of searched models on
/// **non-i.i.d.** (Dir(0.5)) CIFAR10-like and SVHN-like data — FedAvg\*
/// (ResNet152 proxy), FedNAS, EvoFedNAS (big/small), Ours.
pub fn table4(ctx: &Ctx) -> Result<Vec<Claim>, String> {
    let seed = ctx.seed;
    let base = non_iid_config(ctx);
    let fl = fl(ctx, &base);
    let net = base.net.clone();
    println!(
        "Table IV — federated evaluation on non-i.i.d. datasets (Dir(0.5), K = {})",
        fl.k
    );
    let mut t = Table::new(
        "Table IV — Federated Evaluation on Non-i.i.d. Datasets",
        &["method", "error(%)", "params", "strategy", "NAS"],
    );

    // per dataset: the errors of FedAvg*, FedNAS (CIFAR10 only) and Ours
    let mut errors = Vec::new();
    for ds in ["cifar10", "svhn"] {
        t.section(&format!("Non-i.i.d. {ds}-like"));
        let data = dataset_for(ds, &net, seed);
        let tag = |label: &str| format!("[{ds}] {label}");
        // FedAvg* — ResNet152 proxy (hand-designed, parameter-heavy)
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4E);
        let model = ResNetProxy::paper_proxy(3, net.num_classes, &mut rng);
        let (m, _, _) = fl.train_fixed(model, &data);
        let fedavg = model_row(&mut t, "FedAvg*", &tag("FedAvg*"), m, &["hand", ""]);
        // FedNAS and EvoFedNAS (only reported for CIFAR10 in the paper)
        let mut fednas = None;
        if ds == "cifar10" {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x4A);
            let mut search =
                FedNasSearch::new(net.clone(), &data, fl.k, base.batch_size, fl.beta, &mut rng);
            let genotype = search.run(&data, (ctx.budget.search / 6).max(2), &mut rng);
            let m = fl.eval(&genotype, &net, &data);
            fednas = Some(model_row(
                &mut t,
                "FedNAS",
                &tag("FedNAS"),
                m,
                &["grad", "yes"],
            ));
            let gens = (ctx.budget.search / 16).clamp(2, 12);
            for (label, space) in [
                ("EvoFedNAS(big)", EvoSpace::Big),
                ("EvoFedNAS(small)", EvoSpace::Small),
            ] {
                let model = evo_fednas(&fl, space, &net, &data, base.batch_size, 0xE8, gens);
                model_row(&mut t, label, &tag(label), model, &["evol", "yes"]);
            }
        }
        // Ours (non-i.i.d.)
        let (outcome, data_back) = search_ours(base.clone(), data.clone(), seed);
        let m = fl.eval(&outcome.genotype, &net, &data_back);
        let ours = model_row(&mut t, "Ours (non i.i.d.)", &tag("Ours"), m, &["RL", "yes"]);
        errors.push((fedavg, fednas, ours));
    }
    finish(ctx, &t, "table4.csv");

    // the claims compare the CIFAR10 rows
    let (fedavg, fednas, ours) = errors[0];
    let fednas = fednas.expect("the CIFAR10 pass runs FedNAS");
    Ok(vec![
        Claim::check(
            "table4.ours_beats_fedavg",
            "Ours beats the pre-defined FedAvg* on non-i.i.d. CIFAR10",
            &[("ours_err", ours.into()), ("fedavg_err", fedavg.into())],
            ours < fedavg,
            Verdict::Partial,
        )?,
        Claim::check(
            "table4.ours_near_fednas",
            "Ours competitive with FedNAS at far lower communication (see table5 for the cost side)",
            &[("ours_err", ours.into()), ("fednas_err", fednas.into())],
            ours < fednas + 10.0,
            Verdict::Partial,
        )?,
    ])
}

/// The mean training accuracy of each step of a retraining curve.
fn train_series(curve: &CurveRecorder) -> Vec<f32> {
    curve.steps().iter().map(|s| s.mean_accuracy).collect()
}

/// Fig. 9: average accuracy vs communication rounds on non-i.i.d.
/// CIFAR10-like data — our searched model vs the pre-defined ResNet152
/// proxy vs the FedNAS-searched model, all trained with FedAvg (P3, FL).
pub fn fig9_rounds_cifar10(ctx: &Ctx) -> Result<Vec<Claim>, String> {
    let base = non_iid_config(ctx);
    let fl = fl(ctx, &base);
    let net = base.net.clone();
    let data = dataset_for("cifar10", &net, ctx.seed);
    println!(
        "Fig. 9 — accuracy vs rounds, non-i.i.d. CIFAR10-like (K = {}, {} rounds)",
        fl.k, fl.rounds
    );

    // our searched genotype, the FedNAS genotype, the ResNet152 proxy
    let (outcome, data) = search_ours(base.clone(), data, ctx.seed);
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x99);
    let ours = fl.retrain(&outcome.genotype, &net, &data, &mut rng);
    let mut fednas =
        FedNasSearch::new(net.clone(), &data, fl.k, base.batch_size, fl.beta, &mut rng);
    let fednas_genotype = fednas.run(&data, (ctx.budget.search / 6).max(2), &mut rng);
    let fednas = fl.retrain(&fednas_genotype, &net, &data, &mut rng);
    let resnet = ResNetProxy::paper_proxy(3, net.num_classes, &mut rng);
    let ((res_acc, _), res_curve, res_eval) = fl.train_fixed(resnet, &data);
    let ours_train = train_series(&ours.curve);
    let (ours_rounds, resnet_rounds) = rounds_to_shared_threshold(&ours_train, &res_curve);

    ctx.write(
        "fig9_rounds_cifar10.csv",
        &series_csv(&[
            ("ours_train", ours_train),
            ("fednas_train", train_series(&fednas.curve)),
            ("resnet_train", res_curve),
        ]),
    );
    let mut val_csv = String::from("round,ours_val,fednas_val,resnet_val\n");
    for (i, (r, v)) in ours.eval_points.iter().enumerate() {
        let f = fednas.eval_points.get(i).map_or(f32::NAN, |p| p.1);
        let rv = res_eval.get(i).map_or(f32::NAN, |p| p.1);
        val_csv.push_str(&format!("{r},{v:.4},{f:.4},{rv:.4}\n"));
    }
    ctx.write("fig9_rounds_cifar10_val.csv", &val_csv);
    println!(
        "  final test acc — ours {:.3}, FedNAS {:.3}, ResNet152* {:.3}",
        ours.test_accuracy, fednas.test_accuracy, res_acc
    );
    Ok(vec![Claim::check(
        "fig9.searched_beats_predefined",
        "searched model converges in fewer rounds and ends higher than the pre-defined model",
        &[
            ("ours_acc", ours.test_accuracy.into()),
            ("resnet_acc", res_acc.into()),
            ("ours_rounds_to_90pct", ours_rounds as f64),
            ("resnet_rounds_to_90pct", resnet_rounds as f64),
        ],
        ours.test_accuracy >= res_acc - 0.02 && ours_rounds <= resnet_rounds,
        Verdict::Partial,
    )?])
}

/// Convergence speed of two per-round train-accuracy curves on one
/// footing: the first round whose 5-round mean reaches 90 % of the lower
/// of the two curves' last-5-round means. A curve's last window is its
/// tail, so both reach it; an empty curve never does (`usize::MAX`).
fn rounds_to_shared_threshold(ours: &[f32], other: &[f32]) -> (usize, usize) {
    let mean = |w: &[f32]| w.iter().sum::<f32>() / w.len().max(1) as f32;
    let tail = |s: &[f32]| mean(&s[s.len().saturating_sub(5)..]);
    let threshold = 0.9 * tail(ours).min(tail(other));
    let rounds = |s: &[f32]| {
        (0..s.len())
            .find(|&r| mean(&s[(r + 1).saturating_sub(5)..=r]) >= threshold)
            .unwrap_or(usize::MAX)
    };
    (rounds(ours), rounds(other))
}

/// Fig. 10: average accuracy vs communication rounds on non-i.i.d.
/// SVHN-like data — our searched model vs the ResNet152 proxy.
pub fn fig10_rounds_svhn(ctx: &Ctx) -> Result<Vec<Claim>, String> {
    let mut base = non_iid_config(ctx);
    // the paper searches SVHN for fewer steps (4000 vs 10000)
    base.search_steps = base.search_steps * 2 / 5;
    let fl = fl(ctx, &base);
    let net = base.net.clone();
    let data = dataset_for("svhn", &net, ctx.seed);
    println!(
        "Fig. 10 — accuracy vs rounds, non-i.i.d. SVHN-like (K = {}, {} rounds)",
        fl.k, fl.rounds
    );

    let (outcome, data) = search_ours(base, data, ctx.seed);
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x10);
    let ours = fl.retrain(&outcome.genotype, &net, &data, &mut rng);
    let resnet = ResNetProxy::paper_proxy(3, net.num_classes, &mut rng);
    let ((res_acc, _), res_curve, _) = fl.train_fixed(resnet, &data);

    ctx.write(
        "fig10_rounds_svhn.csv",
        &series_csv(&[
            ("ours_train", train_series(&ours.curve)),
            ("resnet_train", res_curve),
        ]),
    );
    println!(
        "  final test acc — ours {:.3}, ResNet152* {:.3}",
        ours.test_accuracy, res_acc
    );
    Ok(vec![Claim::check(
        "fig10.searched_matches_predefined",
        "searched model at least matches the pre-defined model on SVHN",
        &[
            ("ours_acc", ours.test_accuracy.into()),
            ("resnet_acc", res_acc.into()),
        ],
        ours.test_accuracy >= res_acc - 0.03,
        Verdict::Partial,
    )?])
}

/// Fig. 11: average accuracy vs rounds when transferring the architecture
/// searched on CIFAR10-like data to non-i.i.d. CIFAR100-like data. The
/// paper's observation: the big pre-defined model reaches higher *training*
/// accuracy but the searched model generalizes better (higher validation).
pub fn fig11_transfer(ctx: &Ctx) -> Result<Vec<Claim>, String> {
    let base = non_iid_config(ctx);
    let fl = fl(ctx, &base);
    println!(
        "Fig. 11 — transfer CIFAR10-like → non-i.i.d. CIFAR100-like (K = {})",
        fl.k
    );

    // P2 on CIFAR10-like
    let source = dataset_for("cifar10", &base.net, ctx.seed);
    let (outcome, _) = search_ours(base.clone(), source, ctx.seed);
    // Retrain the transferred genotype on CIFAR100-like (20 classes)
    let mut target_net = base.net.clone();
    target_net.num_classes = 20;
    let target = dataset_for("cifar100", &target_net, ctx.seed);
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x11);
    let ours = fl.retrain(&outcome.genotype, &target_net, &target, &mut rng);
    // pre-defined heavy model trained directly on the target
    let resnet = ResNetProxy::paper_proxy(3, 20, &mut rng);
    let ((res_acc, _), res_train, res_eval) = fl.train_fixed(resnet, &target);

    ctx.write(
        "fig11_transfer.csv",
        &series_csv(&[
            ("ours_train", train_series(&ours.curve)),
            ("resnet_train", res_train.clone()),
        ]),
    );
    let mut val_csv = String::from("round,ours_val,resnet_val\n");
    for (i, (r, v)) in ours.eval_points.iter().enumerate() {
        let rv = res_eval.get(i).map_or(f32::NAN, |p| p.1);
        val_csv.push_str(&format!("{r},{v:.4},{rv:.4}\n"));
    }
    ctx.write("fig11_transfer_val.csv", &val_csv);

    let ours_train = ours.curve.tail_accuracy(5).unwrap_or(0.0);
    let res_train = {
        let n = res_train.len().clamp(1, 5);
        res_train[res_train.len() - n..].iter().sum::<f32>() / n as f32
    };
    let ours_val = ours.test_accuracy;
    println!("  training acc — ours {ours_train:.3}, ResNet152* {res_train:.3}");
    println!("  validation acc — ours {ours_val:.3}, ResNet152* {res_acc:.3}");
    Ok(vec![
        Claim::check(
            "fig11.transfer_generalizes",
            "transferred searched model generalizes at least as well as the pre-defined model (val)",
            &[("ours_val", ours_val.into()), ("resnet_val", res_acc.into())],
            ours_val >= res_acc - 0.02,
            Verdict::Partial,
        )?,
        Claim::check(
            "fig11.predefined_overfits",
            "pre-defined model's train-val gap exceeds ours (overfitting)",
            &[
                ("ours_train", ours_train.into()),
                ("ours_val", ours_val.into()),
                ("resnet_train", res_train.into()),
                ("resnet_val", res_acc.into()),
            ],
            (res_train - res_acc) >= (ours_train - ours_val) - 0.05,
            Verdict::Partial,
        )?,
    ])
}

/// Table VI: best testing accuracies of the searched models with different
/// numbers of FL participants — the accuracy is roughly flat in K even
/// though each local shard shrinks.
pub fn table6(ctx: &Ctx) -> Result<Vec<Claim>, String> {
    let ks = participant_sweep(ctx.scale);
    println!("Table VI — best testing accuracy vs number of participants {ks:?}");
    let mut t = Table::new(
        "Table VI — Test Accuracy vs Number of Participants",
        &["K", "test error(%)", "test accuracy"],
    );
    let mut accs = Vec::new();
    for &k in ks {
        let config = ctx.search_config().with_participants(k);
        let fl = fl(ctx, &config);
        let net = config.net.clone();
        let mut rng = StdRng::seed_from_u64(ctx.seed);
        let dataset = dataset_for_k(k, net.image_hw, &mut rng);
        let mut search = FederatedModelSearch::with_dataset(config, dataset, &mut rng);
        let genotype = search.run(&mut rng).genotype;
        let (acc, _) = fl.eval(&genotype, &net, search.dataset());
        println!("  K = {k}: test accuracy {acc:.3}");
        t.row(&[k.to_string(), error_pct(acc), format!("{acc:.3}")]);
        accs.push(acc);
    }
    finish(ctx, &t, "table6.csv");
    let max = accs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let min = accs.iter().copied().fold(f32::INFINITY, f32::min);
    Ok(vec![Claim::check(
        "table6.flat_in_k",
        "accuracy approximately flat in K",
        &[("spread", (max - min).into())],
        max - min < 0.2,
        Verdict::Partial,
    )?])
}

/// Tables VII/VIII: transferability — architectures searched on
/// (i.i.d./non-i.i.d.) CIFAR10-like data are retrained and evaluated on
/// (i.i.d./non-i.i.d.) CIFAR100-like data, against a random-architecture
/// control and the hand-designed CNN.
pub fn table7_8(ctx: &Ctx) -> Result<Vec<Claim>, String> {
    println!("Tables VII/VIII — transferability CIFAR10-like → CIFAR100-like");
    let mut t = Table::new(
        "Tables VII/VIII — Transfer to CIFAR100-like",
        &["method", "source", "target", "error(%)", "params"],
    );
    let iid = ctx.search_config();
    let mut target_net = iid.net.clone();
    target_net.num_classes = 20;
    let target = dataset_for("cifar100", &target_net, ctx.seed);
    let mut row = |method: &str, src: &str, dst: &str, (acc, params): Scored| {
        let (error, params) = (error_pct(acc), params.to_string());
        t.row(&[method.into(), src.into(), dst.into(), error, params]);
        (1.0 - acc) * 100.0
    };
    let mut ours_errors = Vec::new();
    for (src_label, src_non_iid) in [("iid", false), ("non-iid", true)] {
        // search on the source distribution
        let mut config = iid.clone();
        if src_non_iid {
            config = config.non_iid();
            config.search_steps = ctx.budget.search; // keep compute comparable
        }
        let source = dataset_for("cifar10", &config.net, ctx.seed);
        let (outcome, _) = search_ours(config, source, ctx.seed);
        for (dst_label, beta) in [("iid", None), ("non-iid", Some(0.5))] {
            let fl = Federated {
                beta,
                ..fl(ctx, &iid)
            };
            let (acc, params) = fl.eval(&outcome.genotype, &target_net, &target);
            println!(
                "  ours {src_label} -> {dst_label}: error {}%",
                error_pct(acc)
            );
            ours_errors.push(row("Ours (transfer)", src_label, dst_label, (acc, params)));
        }
    }
    // controls evaluated directly on the target, non-i.i.d.
    let fl = Federated {
        beta: Some(0.5),
        ..fl(ctx, &iid)
    };
    let g = random_genotype(&target_net, ctx.seed ^ 0x77);
    let (acc, params) = fl.eval(&g, &target_net, &target);
    row("Random architecture", "-", "non-iid", (acc, params));
    println!("  random arch on target: error {}%", error_pct(acc));
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x78);
    let cnn = SimpleCnn::new(3, target_net.init_channels, 20, &mut rng);
    let (m, _, _) = fl.train_fixed(cnn, &target);
    let cnn_err = row("Hand-designed CNN", "-", "non-iid", m);
    println!("  hand-designed CNN on target: error {}%", error_pct(m.0));
    finish(ctx, &t, "table7_8.csv");
    let best_ours = ours_errors.iter().copied().fold(f32::INFINITY, f32::min);
    Ok(vec![Claim::check(
        "table7_8.transfer_competitive",
        "transferred architectures are competitive on the new dataset",
        &[
            ("best_ours_err", best_ours.into()),
            ("cnn_err", cnn_err.into()),
        ],
        best_ours < cnn_err + 15.0,
        Verdict::Partial,
    )?])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convergence_is_measured_against_one_shared_threshold() {
        // both end at 0.8; one climbs over 8 rounds, the other over 2
        let slow = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.8, 0.8, 0.8];
        let fast = [0.0, 0.4, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8];
        let (ours, other) = rounds_to_shared_threshold(&slow, &fast);
        assert!(ours > other, "ours slower must not pass: {ours} vs {other}");
        // ending higher does not raise the bar ours is measured against
        let (ours, other) = rounds_to_shared_threshold(&fast.map(|a| a * 1.2), &slow);
        assert!(ours <= other, "{ours} vs {other}");
        assert_eq!(rounds_to_shared_threshold(&[], &fast).0, usize::MAX);
    }
}
