//! Experiments that train nothing or measure cost: Table I's settings,
//! Table V's search time, Fig. 7's transmission latency and the measured
//! per-round communication.

use super::{Claim, Ctx, Verdict};
use crate::protocol::dataset_for;
use crate::{mb, Table};
use fedrlnas_baselines::FedNasSearch;
use fedrlnas_core::{SearchConfig, SearchServer};
use fedrlnas_darts::{ArchMask, Supernet};
use fedrlnas_netsim::{
    assign, AssignmentStrategy, BandwidthTrace, DeviceProfile, Environment, SearchWorkload,
};
use rand::{rngs::StdRng, SeedableRng};

/// One Table I row: its name and how to read its value from a config.
type Setting = (&'static str, fn(&SearchConfig) -> String);

/// Table I: default experimental settings — prints the paper's values
/// (all encoded as defaults in the workspace configs) next to the proxy
/// overrides the search experiments actually run at the selected scale,
/// step budget included ([`Ctx::search_config`]).
pub fn table1(ctx: &Ctx) -> Result<Vec<Claim>, String> {
    let paper = SearchConfig::paper();
    let scaled = ctx.search_config();
    let mut t = Table::new(
        "Table I — default experimental settings (paper vs this run)",
        &["name", "paper value", &format!("{:?} value", ctx.scale)],
    );
    let rows: [Setting; 19] = [
        ("batch size", |c| c.batch_size.to_string()),
        ("# participant (K)", |c| c.num_participants.to_string()),
        ("learning rate (θ)", |c| c.theta_sgd.lr.to_string()),
        ("momentum (θ)", |c| c.theta_sgd.momentum.to_string()),
        ("weight decay (θ)", |c| {
            c.theta_sgd.weight_decay.to_string()
        }),
        ("gradient clip (θ)", |c| c.theta_sgd.clip.to_string()),
        ("learning rate (α)", |c| c.controller.lr.to_string()),
        ("weight decay (α)", |c| {
            c.controller.weight_decay.to_string()
        }),
        ("gradient clip (α)", |c| c.controller.clip.to_string()),
        ("baseline decay (α)", |c| {
            c.controller.baseline_decay.to_string()
        }),
        ("cutout", |c| c.augment.cutout.to_string()),
        ("random clip", |c| c.augment.crop_padding.to_string()),
        ("random horizontal flapping", |c| {
            c.augment.flip_prob.to_string()
        }),
        ("# warm-up steps", |c| c.warmup_steps.to_string()),
        ("# searching steps", |c| c.search_steps.to_string()),
        ("supernet cells", |c| c.net.num_cells.to_string()),
        ("supernet nodes/cell", |c| c.net.nodes.to_string()),
        ("init channels", |c| c.net.init_channels.to_string()),
        ("image size", |c| c.net.image_hw.to_string()),
    ];
    for (name, value) in rows {
        t.row(&[name.to_string(), value(&paper), value(&scaled)]);
    }
    t.print();
    ctx.write("table1.csv", &t.to_csv());
    Ok(Vec::new())
}

/// Table V: search time on CIFAR10-like data plus the sub-net sizes the
/// efficiency section (§VI-C) quotes (supernet 1.93 MB vs 0.27 MB average
/// sub-model).
///
/// Times are simulated from the device cost model and the **measured**
/// per-round workload (MACs and payload bytes of the actual networks);
/// absolute hours are calibrated by the device profiles, the *ratios* are
/// what the paper's table establishes.
pub fn table5(ctx: &Ctx) -> Result<Vec<Claim>, String> {
    let config = SearchConfig::at_scale(ctx.scale);
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let mut supernet = Supernet::new(config.net.clone(), &mut rng);
    let supernet_bytes = supernet.param_bytes();
    // average sub-model size/flops over controller-uniform samples
    let samples = 64;
    let mut sub_bytes = 0usize;
    let mut sub_macs = 0u64;
    for _ in 0..samples {
        let mask = ArchMask::uniform_random(&config.net, &mut rng);
        sub_bytes += supernet.submodel_bytes(&mask);
        sub_macs += supernet.flops_masked(&mask);
    }
    sub_bytes /= samples;
    sub_macs /= samples as u64;
    let paper = SearchConfig::paper();
    let rounds = paper.search_steps + paper.warmup_steps;
    let hours = |macs_per_sample, rounds, payload_bytes, device: DeviceProfile| {
        SearchWorkload {
            macs_per_sample,
            batch_size: paper.batch_size,
            rounds,
            payload_bytes,
            mean_bandwidth_mbps: 20.0,
        }
        .hours_on(&device)
    };
    // FedNAS trains the mixed supernet: ~NUM_OPS× the sub-model compute and
    // the whole supernet on the wire; it needs fewer rounds (no sampling
    // variance) but each is huge.
    let mixed_macs = sub_macs * fedrlnas_darts::NUM_OPS as u64;
    let fednas_hours = hours(
        mixed_macs,
        rounds / 3,
        supernet_bytes,
        DeviceProfile::rtx_2080ti(),
    );
    // EvoFedNAS: population × generations of full short trainings; its
    // published time is 16.1 h — dominated by repeated from-scratch model
    // training, modeled as 4× our per-round compute for 2× the rounds.
    let evo_hours = hours(
        sub_macs * 4,
        rounds * 2,
        sub_bytes * 2,
        DeviceProfile::gtx_1080ti(),
    );

    let mut t = Table::new(
        "Table V — Search Time on CIFAR10-like",
        &["method", "search time (hours)", "sub-net size (MB)"],
    );
    let ours_fast = hours(sub_macs, rounds, sub_bytes, DeviceProfile::gtx_1080ti());
    let ours_tx2 = hours(sub_macs, rounds, sub_bytes, DeviceProfile::jetson_tx2());
    for (method, h, bytes) in [
        ("FedNAS (RTX 2080 Ti x16)", fednas_hours, supernet_bytes),
        ("EvoFedNAS", evo_hours, sub_bytes * 2),
        ("Ours (1080 Ti)", ours_fast, sub_bytes),
        ("Ours (TX2)", ours_tx2, sub_bytes),
    ] {
        t.row(&[method.into(), format!("{h:.2}"), mb(bytes)]);
    }
    t.print();

    println!("\n  efficiency accounting (§VI-C):");
    println!("  supernet weights: {} MB", mb(supernet_bytes));
    println!(
        "  average sub-model: {} MB ({:.1}x smaller)",
        mb(sub_bytes),
        supernet_bytes as f64 / sub_bytes as f64
    );
    println!("  sub-model forward MACs/sample: {sub_macs}");
    ctx.write("table5.csv", &t.to_csv());
    println!();

    let tx2_ratio = ours_tx2 / ours_fast;
    Ok(vec![
        Claim::check(
            "table5.ours_fastest",
            "ours(1080Ti) < FedNAS and << EvoFedNAS",
            &[
                ("ours_1080ti_h", ours_fast),
                ("fednas_h", fednas_hours),
                ("evofednas_h", evo_hours),
            ],
            ours_fast < fednas_hours && ours_fast < evo_hours,
            Verdict::Partial,
        )?,
        Claim::check(
            "table5.tx2_slower",
            "TX2 ~4x slower than 1080 Ti",
            &[("tx2_over_1080ti", tx2_ratio)],
            (2.0..8.0).contains(&tx2_ratio),
            Verdict::Partial,
        )?,
        Claim::check(
            "table5.submodel_smaller",
            "sub-model much smaller than supernet",
            &[
                ("submodel_bytes", sub_bytes as f64),
                ("supernet_bytes", supernet_bytes as f64),
            ],
            sub_bytes * 2 < supernet_bytes,
            Verdict::Partial,
        )?,
    ])
}

/// Fig. 7: maximal transmission latency when sending a sub-net from the
/// cloud to a participant across network-environment mixes, comparing the
/// paper's adaptive assignment against average-size and random assignment.
pub fn fig7_latency(ctx: &Ctx) -> Result<Vec<Claim>, String> {
    let config = SearchConfig::at_scale(ctx.scale);
    let k = 10usize; // the paper uses 10 participants for this experiment
    let rounds = 300usize;
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let supernet = Supernet::new(config.net.clone(), &mut rng);
    println!(
        "Fig. 7 — maximal transmission latency per environment mix (K = {k}, {rounds} rounds)"
    );
    let mut t = Table::new(
        "Fig. 7 — mean of per-round MAX latency (seconds)",
        &["environment", "adaptive", "average", "random"],
    );
    // which trace each of the K participants follows
    let split = |a, b| (0..k).map(|i| if i < k / 2 { a } else { b }).collect();
    let mixes: [(&str, Vec<Environment>); 9] = [
        ("foot", vec![Environment::Foot; k]),
        ("bicycle", vec![Environment::Bicycle; k]),
        ("tram", vec![Environment::Tram; k]),
        ("bus", vec![Environment::Bus; k]),
        ("car", vec![Environment::Car; k]),
        ("train", vec![Environment::Train; k]),
        ("bus+car", split(Environment::Bus, Environment::Car)),
        ("foot+train", split(Environment::Foot, Environment::Train)),
        (
            "all-mixed",
            (0..k).map(|i| Environment::ALL[i % 6]).collect(),
        ),
    ];
    let mut adaptive_wins = 0usize;
    for (mix, envs) in &mixes {
        let mut traces: Vec<BandwidthTrace> = envs
            .iter()
            .map(|e| BandwidthTrace::new(*e, &mut rng))
            .collect();
        let mut sums = [0.0f64; 3];
        for _ in 0..rounds {
            // fresh sub-model sizes and bandwidths each round; identical
            // inputs across the three strategies for a paired comparison
            let sizes: Vec<usize> = (0..k)
                .map(|_| {
                    let mask = ArchMask::uniform_random(&config.net, &mut rng);
                    supernet.submodel_bytes(&mask)
                })
                .collect();
            let bw: Vec<f64> = traces.iter_mut().map(|t| t.next_mbps(&mut rng)).collect();
            for (i, strategy) in AssignmentStrategy::ALL.iter().enumerate() {
                let out = assign(*strategy, &sizes, &bw, &mut rng);
                sums[i] += out.max_latency();
            }
        }
        let means: Vec<f64> = sums.iter().map(|s| s / rounds as f64).collect();
        if means[0] <= means[1] && means[0] <= means[2] {
            adaptive_wins += 1;
        }
        t.row(&[
            mix.to_string(),
            format!("{:.4}", means[0]),
            format!("{:.4}", means[1]),
            format!("{:.4}", means[2]),
        ]);
    }
    t.print();
    ctx.write("fig7_latency.csv", &t.to_csv());
    println!();
    Ok(vec![Claim::check(
        "fig7.adaptive_lowest",
        "adaptive has the lowest max latency in every environment",
        &[
            ("adaptive_wins", adaptive_wins as f64),
            ("mixes", mixes.len() as f64),
        ],
        adaptive_wins == mixes.len(),
        Verdict::Partial,
    )?])
}

/// Efficiency accounting (§VI-C): **measured** per-round communication of
/// our method (sub-models only) vs FedNAS (whole supernet), from actual
/// runs of both protocols — complementing Table V's simulated times.
pub fn comm_cost(ctx: &Ctx) -> Result<Vec<Claim>, String> {
    let mut config = SearchConfig::at_scale(ctx.scale);
    config.warmup_steps = 0;
    let rounds = 5usize;
    let data = dataset_for("cifar10", &config.net, ctx.seed);
    println!(
        "Communication cost per round, measured over {rounds} rounds (K = {})",
        config.num_participants
    );

    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let mut server = SearchServer::new(config.clone(), &data, &mut rng);
    server.run_search(&data, rounds, &mut rng);
    let ours = server.comm().bytes_per_round();

    let mut fednas = FedNasSearch::new(
        config.net.clone(),
        &data,
        config.num_participants,
        config.batch_size,
        None,
        &mut rng,
    );
    for _ in 0..rounds {
        fednas.round(&data, &mut rng);
    }
    let fednas = fednas.comm().bytes_per_round();

    let mut t = Table::new(
        "Measured communication per round",
        &["method", "MB/round", "relative"],
    );
    t.row(&["Ours (sub-models)".into(), mb(ours as usize), "1.0x".into()]);
    t.row(&[
        "FedNAS (supernet)".into(),
        mb(fednas as usize),
        format!("{:.1}x", fednas / ours.max(1.0)),
    ]);
    t.print();
    ctx.write("comm_cost.csv", &t.to_csv());
    println!();
    Ok(vec![Claim::check(
        "comm_cost.ours_fraction_of_fednas",
        "our per-round traffic is a small fraction of FedNAS's",
        &[("ours_bytes", ours), ("fednas_bytes", fednas)],
        ours * 2.0 < fednas,
        Verdict::Partial,
    )?])
}
