//! Experiments on the search phases themselves (P1, P2): their curves
//! under i.i.d. and non-i.i.d. data, frozen θ, staleness and a sweep over
//! the participant count, plus the ablations of DESIGN §6.

use super::{run_search, Claim, Ctx, Verdict};
use crate::{series_csv, Table};
use fedrlnas_core::{FederatedModelSearch, Scale, SearchConfig};
use fedrlnas_data::{DatasetSpec, SyntheticDataset};
use fedrlnas_sync::{StalenessModel, StalenessStrategy};
use rand::{rngs::StdRng, SeedableRng};

/// Runs one search per `(printed label, series name, config)`, prints
/// each tail accuracy, writes the smoothed curves as `file` and returns the
/// tails — the body of Figs. 4, 5 and 8 and their ablations.
fn sweep(ctx: &Ctx, file: &str, variants: Vec<(String, String, SearchConfig)>) -> Vec<f32> {
    let mut tails = Vec::new();
    let mut series = Vec::new();
    for (printed, name, config) in variants {
        let curve = run_search(config, ctx.seed).search_curve;
        let tail = curve.tail_accuracy(15).unwrap_or(0.0);
        println!("  {printed}: tail accuracy {tail:.3}");
        tails.push(tail);
        series.push((name, curve.moving_average(50)));
    }
    ctx.write(file, &series_csv(&series));
    tails
}

/// Sweep variants printed under their series name.
fn named(variants: Vec<(&str, SearchConfig)>) -> Vec<(String, String, SearchConfig)> {
    variants
        .into_iter()
        .map(|(name, config)| (name.to_string(), name.to_string(), config))
        .collect()
}

/// Fig. 3: warm-up phase (P1) on i.i.d. CIFAR10-like data — the average
/// training accuracy of the participants' sub-models converges while α is
/// frozen.
pub fn fig3_warmup(ctx: &Ctx) -> Result<Vec<Claim>, String> {
    let warmup = ctx.budget.warmup;
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let mut config = ctx.search_config();
    config.search_steps = 0;
    println!(
        "Fig. 3 — warm-up phase on i.i.d. CIFAR10-like ({warmup} steps, K = {})",
        config.num_participants
    );
    let mut search = FederatedModelSearch::new(config, &mut rng);
    let outcome = search.run(&mut rng);
    let curve = &outcome.warmup_curve;
    let raw: Vec<f32> = curve.steps().iter().map(|s| s.mean_accuracy).collect();
    let smooth = curve.moving_average(50);
    ctx.write(
        "fig3_warmup.csv",
        &series_csv(&[("train_acc", raw.clone()), ("moving_avg_50", smooth)]),
    );
    let first = raw.first().copied().unwrap_or(0.0);
    let last = curve.tail_accuracy(10).unwrap_or(0.0);
    println!("  start accuracy {first:.3} -> tail accuracy {last:.3}");
    let classes = search.dataset().spec().num_classes as f32;
    Ok(vec![Claim::check(
        "fig3.warmup_converges",
        "warm-up converges (accuracy rises well above the chance line)",
        &[
            ("start", first.into()),
            ("tail", last.into()),
            ("chance", (1.0 / classes).into()),
        ],
        last > first && last > 1.5 / classes,
        Verdict::NotReproduced,
    )?])
}

/// The searching-phase configuration of Fig. 4, after printing its title.
fn fig4_config(ctx: &Ctx) -> SearchConfig {
    println!(
        "Fig. 4 — searching phase on i.i.d. CIFAR10-like ({} steps)",
        ctx.budget.search
    );
    ctx.search_config()
}

/// Fig. 4: searching phase (P2) on i.i.d. CIFAR10-like data — joint α+θ
/// optimization converges.
pub fn fig4_search_iid(ctx: &Ctx) -> Result<Vec<Claim>, String> {
    let curve = run_search(fig4_config(ctx), ctx.seed).search_curve;
    let raw: Vec<f32> = curve.steps().iter().map(|s| s.mean_accuracy).collect();
    let tail = curve.tail_accuracy(15).unwrap_or(0.0);
    let first = raw.first().copied().unwrap_or(0.0);
    ctx.write(
        "fig4_search_iid.csv",
        &series_csv(&[
            ("train_acc", raw),
            ("moving_avg_50", curve.moving_average(50)),
        ]),
    );
    println!("  start {first:.3} -> tail {tail:.3}");
    Ok(vec![Claim::check(
        "fig4.search_converges",
        "search phase converges",
        &[("start", first.into()), ("tail", tail.into())],
        tail > first,
        Verdict::NotReproduced,
    )?])
}

/// Fig. 4 ablation (DESIGN §6.4): sweeps the baseline decay
/// β ∈ {0.0, 0.9, 0.99}.
pub fn fig4_ablate_beta(ctx: &Ctx) -> Result<Vec<Claim>, String> {
    let config = fig4_config(ctx);
    let variants = [0.0f32, 0.9, 0.99].map(|beta| {
        let mut c = config.clone();
        c.controller.baseline_decay = beta;
        (
            format!("baseline decay β = {beta}"),
            format!("beta_{beta}"),
            c,
        )
    });
    sweep(ctx, "fig4_ablate_beta.csv", variants.into());
    Ok(Vec::new())
}

/// Fig. 4 ablation (DESIGN §6.5): re-initializing the supernet weights
/// every round collapses the search signal.
pub fn fig4_ablate_weight_sharing(ctx: &Ctx) -> Result<Vec<Claim>, String> {
    let config = fig4_config(ctx);
    let mut fresh = config.clone();
    fresh.weight_sharing = false;
    let variants = vec![
        ("weight sharing ON ".into(), "shared".into(), config),
        ("weight sharing OFF".into(), "fresh".into(), fresh),
    ];
    let tails = sweep(ctx, "fig4_ablate_weight_sharing.csv", variants);
    Ok(vec![Claim::check(
        "fig4.sharing_required",
        "supernet sharing required for convergence",
        &[("shared", tails[0].into()), ("fresh", tails[1].into())],
        tails[0] > tails[1],
        Verdict::NotReproduced,
    )?])
}

/// Fig. 5: updating α with θ fixed fails to converge — the paper's
/// evidence that α and θ must be optimized jointly.
pub fn fig5_alpha_only(ctx: &Ctx) -> Result<Vec<Claim>, String> {
    println!(
        "Fig. 5 — updating α with θ frozen vs joint optimization ({} steps)",
        ctx.budget.search
    );
    let joint = ctx.search_config();
    let mut frozen = joint.clone();
    frozen.freeze_theta = true;
    let variants = named(vec![("alpha_only", frozen), ("joint", joint)]);
    let tails = sweep(ctx, "fig5_alpha_only.csv", variants);
    Ok(vec![Claim::check(
        "fig5.alpha_only_lower",
        "α-only yields much lower accuracy than joint",
        &[("alpha_only", tails[0].into()), ("joint", tails[1].into())],
        tails[0] < tails[1],
        Verdict::NotReproduced,
    )?])
}

/// Fig. 6: searching phase on non-i.i.d. (Dir(0.5)) CIFAR10-like data —
/// similar convergence to the i.i.d. case (Fig. 4), only slower.
pub fn fig6_search_noniid(ctx: &Ctx) -> Result<Vec<Claim>, String> {
    println!("Fig. 6 — searching phase on non-i.i.d. CIFAR10-like (Dir(0.5))");
    let mut results = Vec::new();
    let mut series = Vec::new();
    for (label, non_iid) in [("iid", false), ("non_iid", true)] {
        // same budget for a fair speed contrast
        let mut config = ctx.search_config();
        if non_iid {
            config.dirichlet_beta = Some(0.5);
        }
        let curve = run_search(config, ctx.seed).search_curve;
        let tail = curve.tail_accuracy(15).unwrap_or(0.0);
        // convergence speed: steps to reach 80% of this run's own tail
        let to_reach = curve.steps_to_reach(tail * 0.8, 25);
        println!(
            "  {label}: tail accuracy {tail:.3}, steps to 80% of tail: {}",
            to_reach.map_or("never".into(), |s| s.to_string())
        );
        results.push((tail, to_reach.map_or(f64::INFINITY, |s| s as f64)));
        series.push((label, curve.moving_average(50)));
    }
    ctx.write("fig6_search_noniid.csv", &series_csv(&series));
    let ((iid, iid_steps), (non, non_steps)) = (results[0], results[1]);
    Ok(vec![Claim::check(
        "fig6.non_iid_slower",
        "non-i.i.d. reaches comparable accuracy but converges slower",
        &[
            ("iid_tail", iid.into()),
            ("non_iid_tail", non.into()),
            ("iid_steps", iid_steps),
            ("non_iid_steps", non_steps),
        ],
        non > iid * 0.7 && non_steps >= iid_steps,
        Verdict::Partial,
    )?])
}

/// Fig. 8: searching-phase performance under severe staleness (30 % fresh,
/// 40 % one round late, 20 % two rounds late, 10 % dropped) — comparing no
/// staleness, delay-compensation, use-as-is and throw-away.
pub fn fig8_staleness(ctx: &Ctx) -> Result<Vec<Claim>, String> {
    println!(
        "Fig. 8 — searching under severe (70 %) staleness ({} steps)",
        ctx.budget.search
    );
    let severe = |strategy| {
        ctx.search_config()
            .with_staleness(StalenessModel::severe(), strategy)
    };
    let fresh = ctx
        .search_config()
        .with_staleness(StalenessModel::fresh(), StalenessStrategy::Hard);
    let variants = named(vec![
        ("no_staleness", fresh),
        (
            "delay_compensated",
            severe(StalenessStrategy::delay_compensated()),
        ),
        ("use", severe(StalenessStrategy::Use)),
        ("throw", severe(StalenessStrategy::Throw)),
    ]);
    let tails = sweep(ctx, "fig8_staleness.csv", variants);
    println!();
    let [fresh, dc, used, thrown] = tails[..] else {
        unreachable!("four variants")
    };
    Ok(vec![
        Claim::check(
            "fig8.dc_use_throw",
            "DC >= use >= throw",
            &[
                ("dc", dc.into()),
                ("use", used.into()),
                ("throw", thrown.into()),
            ],
            dc >= used - 0.02 && used >= thrown - 0.02,
            Verdict::Partial,
        )?,
        Claim::check(
            "fig8.dc_near_fresh",
            "DC close to the staleness-free run",
            &[("dc", dc.into()), ("no_staleness", fresh.into())],
            dc >= fresh - 0.1,
            Verdict::Partial,
        )?,
    ])
}

/// Fig. 8 ablation (DESIGN §6.2): sweeps the compensation strength λ ∈ {0, 0.2, 0.5, 1}
/// under severe staleness.
pub fn fig8_ablate_lambda(ctx: &Ctx) -> Result<Vec<Claim>, String> {
    println!("Fig. 8 ablation — delay-compensation strength λ (severe staleness)");
    let variants = [0.0f32, 0.2, 0.5, 1.0].map(|lambda| {
        let strategy = StalenessStrategy::DelayCompensated { lambda };
        let c = ctx
            .search_config()
            .with_staleness(StalenessModel::severe(), strategy);
        (format!("lambda = {lambda}"), format!("lambda_{lambda}"), c)
    });
    sweep(ctx, "fig8_ablate_lambda.csv", variants.into());
    Ok(Vec::new())
}

/// The participant counts Fig. 12 and Table VI sweep.
pub(super) fn participant_sweep(scale: Scale) -> &'static [usize] {
    match scale {
        Scale::Tiny => &[4, 8],
        _ => &[10, 20, 50],
    }
}

/// A CIFAR10-like dataset big enough to split `k` ways.
pub(super) fn dataset_for_k(k: usize, image_hw: usize, rng: &mut StdRng) -> SyntheticDataset {
    let spec = DatasetSpec::cifar10_like()
        .with_image_hw(image_hw)
        .with_sizes(10.max(6 * k / 10), 20);
    SyntheticDataset::generate(&spec, rng)
}

/// Fig. 12: searching-phase performance vs number of participants
/// (10/20/50, the dataset split equally) with seed-spread error bars.
pub fn fig12_participants(ctx: &Ctx) -> Result<Vec<Claim>, String> {
    let steps = ctx.budget.search;
    let ks = participant_sweep(ctx.scale);
    let seeds: &[u64] = &[ctx.seed, ctx.seed + 1];
    println!(
        "Fig. 12 — searching-phase performance vs participants {ks:?} ({steps} steps, {} seeds)",
        seeds.len()
    );
    let mut t = Table::new(
        "Fig. 12 — tail search accuracy vs K",
        &["K", "mean tail acc", "std", "steps to 0.8x final"],
    );
    let mut curves: Vec<(String, Vec<f32>)> = Vec::new();
    let mut rows = Vec::new();
    for &k in ks {
        let mut tails = Vec::new();
        let mut reach = Vec::new();
        let mut last_curve = Vec::new();
        for &seed in seeds {
            let config = ctx.search_config().with_participants(k);
            let mut rng = StdRng::seed_from_u64(seed);
            let dataset = dataset_for_k(k, config.net.image_hw, &mut rng);
            let mut search = FederatedModelSearch::with_dataset(config, dataset, &mut rng);
            let curve = search.run(&mut rng).search_curve;
            let tail = curve.tail_accuracy(15).unwrap_or(0.0);
            tails.push(tail);
            reach.push(curve.steps_to_reach(tail * 0.8, 25).unwrap_or(steps));
            last_curve = curve.moving_average(50);
        }
        let mean = tails.iter().sum::<f32>() / tails.len() as f32;
        let var = tails.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / tails.len() as f32;
        let mean_reach = reach.iter().sum::<usize>() / reach.len();
        t.row(&[
            k.to_string(),
            format!("{mean:.3}"),
            format!("{:.3}", var.sqrt()),
            mean_reach.to_string(),
        ]);
        rows.push((var.sqrt(), mean_reach));
        curves.push((format!("k_{k}"), last_curve));
    }
    t.print();
    ctx.write("fig12_participants.csv", &t.to_csv());
    ctx.write("fig12_curves.csv", &series_csv(&curves));
    println!();
    let (first_std, first_reach) = rows[0];
    let (last_std, last_reach) = rows[rows.len() - 1];
    Ok(vec![Claim::check(
        "fig12.more_participants_steadier",
        "more participants converge at least as fast and fluctuate less",
        &[
            ("fewest_k_steps", first_reach as f64),
            ("most_k_steps", last_reach as f64),
            ("fewest_k_std", first_std.into()),
            ("most_k_std", last_std.into()),
        ],
        last_reach <= first_reach || last_std <= first_std + 0.02,
        Verdict::Partial,
    )?])
}
