//! Kernel benchmark emitting `BENCH_kernels.json`: the convolutions a search
//! actually runs.
//!
//! Four of the paper's eight candidate operations are a depthwise `k x k`
//! followed by a pointwise `1x1`, so those two shapes — not the dense 3x3 of
//! the stem — are where a participant's local update spends its time. Each
//! row times one `nn::Conv2d` layer ("after") against the `im2col` + GEMM
//! lowering every convolution used to take ("before",
//! [`fedrlnas_bench::lowering`], the same code the layer is tested
//! bit-identical to), forward alone and as a forward + backward training
//! step, at the three stages of the `small` preset (8 ch 12x12, 16 ch 6x6,
//! 32 ch 3x3, batch 16) and one `paper`-preset shape (16 ch 32x32, batch 8);
//! the depthwise shapes also at stride 2 on the `small` stages (`_s2` rows),
//! as a reduction cell runs them.
//! The pointwise "before" column calls the same `gemm` as the layer, so those
//! rows show the copies the layer avoids, not the kernel; the `small_gemm`
//! section isolates it: the three GEMMs of a pointwise training step (forward
//! with bias, input gradient, weight gradient), a batch of 16 samples per
//! timed call, through `gemm_bias` / `gemm` / `gemm_nt` ("after") against the
//! scalar loop `gemm_naive` they must equal bit for bit ("before", with the
//! bias fill and the `go` transpose it needs), at the three stages of `small`
//! and of `tiny`. The `max_pool` and `avg_pool` sections time a training
//! step of the two pooling candidate operations (3x3, stride 1 and 2) at the
//! stages of `small` against the window loops they replaced, which they
//! equal bit for bit. The GEMM rows are absolute throughput of the packed kernel
//! at the shapes the remaining lowered convolutions produce.
//!
//! Usage: `cargo run --release -p fedrlnas-bench --bin bench_kernels`
//! (writes `BENCH_kernels.json` in the current directory; pass `--out
//! <path>` to override). `--quick` runs fewer reps (the CI configuration);
//! `--check <floor.json>` exits non-zero if a section's smallest speedup
//! falls below the committed floor.

use fedrlnas_bench::lowering::{
    avg_pool_old, lowered_backward, lowered_forward, max_pool_old, ConvShape,
};
use fedrlnas_bench::{flag_present, flag_value, json_number, median_ns};
use fedrlnas_nn::{AvgPool2d, Conv2d, Layer, MaxPool2d, Mode};
use fedrlnas_tensor::{gemm, gemm_bias, gemm_naive, gemm_nt, Tensor};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::fmt::Write as _;

/// `(label, channels, height = width, batch)`: the `small` preset's three
/// stages, then the first stage of the `paper` preset.
const STAGES: [(&str, usize, usize, usize); 4] = [
    ("small", 8, 12, 16),
    ("small", 16, 6, 16),
    ("small", 32, 3, 16),
    ("paper", 16, 32, 8),
];

/// `(name, kernel, dilation)` of the depthwise stage of `sep_conv_3x3`,
/// `sep_conv_5x5`, `dil_conv_3x3`, `dil_conv_5x5` (paper Fig. 1).
const DEPTHWISE: [(&str, usize, usize); 4] = [
    ("dw3x3", 3, 1),
    ("dw5x5", 5, 1),
    ("dw3x3_dil2", 3, 2),
    ("dw5x5_dil2", 5, 2),
];

struct Row {
    label: String,
    before_ns: u64,
    after_ns: u64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.before_ns as f64 / self.after_ns.max(1) as f64
    }
}

/// Times `shape` on a post-ReLU batch: `(forward, forward + backward)` rows.
fn bench_conv(
    label: String,
    shape: ConvShape,
    (batch, hw): (usize, usize),
    reps: usize,
    rng: &mut StdRng,
) -> (Row, Row) {
    let mut conv = Conv2d::new(
        shape.in_channels,
        shape.out_channels,
        shape.kernel,
        shape.stride,
        shape.padding,
        shape.dilation,
        shape.groups,
        rng,
    );
    let mut params = Vec::new();
    conv.visit_params(&mut |p| params.push(p.value.as_slice().to_vec()));
    let (weight, bias) = (&params[0], &params[1]);
    // what a depthwise stage sees: the output of a ReLU, about half zeros
    let x = Tensor::randn(&[batch, shape.in_channels, hw, hw], 1.0, rng).map(|v| v.max(0.0));
    let dims = (batch, hw, hw);
    let y = conv.forward(&x, Mode::Eval);
    let grad = Tensor::randn(y.dims(), 1.0, rng);
    let mut dweight = vec![0.0f32; weight.len()];
    let mut dbias = vec![0.0f32; bias.len()];

    let forward = Row {
        label: label.clone(),
        before_ns: median_ns(reps, || {
            std::hint::black_box(lowered_forward(&shape, x.as_slice(), dims, weight, bias));
        }),
        after_ns: median_ns(reps, || {
            std::hint::black_box(conv.forward(&x, Mode::Eval));
        }),
    };
    let train = Row {
        label,
        before_ns: median_ns(reps, || {
            let y = lowered_forward(&shape, x.as_slice(), dims, weight, bias);
            std::hint::black_box(lowered_backward(
                &shape,
                x.as_slice(),
                dims,
                weight,
                grad.as_slice(),
                &mut dweight,
                &mut dbias,
            ));
            std::hint::black_box(y);
        }),
        after_ns: median_ns(reps, || {
            let y = conv.forward(&x, Mode::Train);
            std::hint::black_box(conv.backward(&grad));
            std::hint::black_box(y);
        }),
    };
    (forward, train)
}

/// One named group of rows and the floor key its smallest speedup is held to.
struct Section {
    name: &'static str,
    rows: Vec<Row>,
}

impl Section {
    fn min_speedup(&self) -> f64 {
        self.rows
            .iter()
            .map(Row::speedup)
            .fold(f64::INFINITY, f64::min)
    }

    fn write(&self, out: &mut String) {
        writeln!(out, "  \"{}\": [", self.name).unwrap();
        for (i, r) in self.rows.iter().enumerate() {
            let comma = if i + 1 == self.rows.len() { "" } else { "," };
            writeln!(
                out,
                "    {{\"shape\": \"{}\", \"before_ns\": {}, \"after_ns\": {}, \"speedup\": {:.2}}}{comma}",
                r.label, r.before_ns, r.after_ns, r.speedup()
            )
            .unwrap();
        }
        writeln!(out, "  ],").unwrap();
    }
}

fn conv_sections(reps: usize, rng: &mut StdRng) -> Vec<Section> {
    let mut sections: Vec<Section> = [
        "depthwise_forward",
        "depthwise_forward_backward",
        "pointwise_forward",
        "pointwise_forward_backward",
    ]
    .map(|name| Section {
        name,
        rows: Vec::new(),
    })
    .into();
    for (preset, ch, hw, batch) in STAGES {
        let at = format!("{preset}_{ch}ch_{hw}x{hw}_b{batch}");
        // a reduction cell runs its edges at stride 2
        let strides: &[usize] = if preset == "small" { &[1, 2] } else { &[1] };
        for (name, kernel, dilation) in DEPTHWISE {
            for &stride in strides {
                let shape = ConvShape {
                    in_channels: ch,
                    out_channels: ch,
                    kernel,
                    stride,
                    padding: dilation * (kernel - 1) / 2,
                    dilation,
                    groups: ch,
                };
                let label = match stride {
                    1 => format!("{name}_{at}"),
                    _ => format!("{name}_s{stride}_{at}"),
                };
                let (fwd, train) = bench_conv(label, shape, (batch, hw), reps, rng);
                sections[0].rows.push(fwd);
                sections[1].rows.push(train);
            }
        }
        let shape = ConvShape {
            in_channels: ch,
            out_channels: ch,
            kernel: 1,
            stride: 1,
            padding: 0,
            dilation: 1,
            groups: 1,
        };
        let (fwd, train) = bench_conv(format!("pw1x1_{at}"), shape, (batch, hw), reps, rng);
        sections[2].rows.push(fwd);
        sections[3].rows.push(train);
    }
    sections
}

/// The two pooling candidate operations against the window loops they
/// replaced ([`fedrlnas_bench::lowering`], the code the layers are tested
/// bit-identical to), one row per (stage of `small`, stride): a training
/// step, forward then backward, as a search runs it.
fn pool_sections(reps: usize, rng: &mut StdRng) -> Vec<Section> {
    let (mut max, mut avg) = (Vec::new(), Vec::new());
    for (preset, ch, hw, batch) in STAGES.into_iter().filter(|s| s.0 == "small") {
        for stride in [1, 2] {
            let label = format!("3x3_s{stride}_{preset}_{ch}ch_{hw}x{hw}_b{batch}");
            let x = Tensor::randn(&[batch, ch, hw, hw], 1.0, rng);
            let mut layer = MaxPool2d::new(3, stride, 1);
            let go = Tensor::randn(layer.forward(&x, Mode::Eval).dims(), 1.0, rng);
            max.push(Row {
                label: label.clone(),
                before_ns: median_ns(reps, || {
                    let (y, arg) = max_pool_old(&x, 3, stride, 1);
                    let mut dx = vec![0.0f32; x.len()];
                    for (g, &at) in go.as_slice().iter().zip(&arg) {
                        dx[at] += g;
                    }
                    std::hint::black_box((y, dx));
                }),
                after_ns: median_ns(reps, || {
                    let y = layer.forward(&x, Mode::Train);
                    std::hint::black_box((y, layer.backward(&go)));
                }),
            });
            let mut layer = AvgPool2d::new(3, stride, 1);
            avg.push(Row {
                label,
                before_ns: median_ns(reps, || {
                    std::hint::black_box(avg_pool_old(&x, Some(&go), 3, stride, 1));
                }),
                after_ns: median_ns(reps, || {
                    let y = layer.forward(&x, Mode::Train);
                    std::hint::black_box((y, layer.backward(&go)));
                }),
            });
        }
    }
    vec![
        Section {
            name: "max_pool_forward_backward",
            rows: max,
        },
        Section {
            name: "avg_pool_forward_backward",
            rows: avg,
        },
    ]
}

/// `(preset, channels, positions)` of every pointwise stage of the `small`
/// and `tiny` presets; all at batch 16.
const SMALL_GEMM_STAGES: [(&str, usize, usize); 6] = [
    ("small", 8, 144),
    ("small", 16, 36),
    ("small", 32, 9),
    ("tiny", 4, 64),
    ("tiny", 8, 16),
    ("tiny", 16, 4),
];

/// The small-problem kernel against the scalar loop, one row per (stage,
/// role); a timed call is one batch, as a layer runs it.
fn small_gemm_section(reps: usize, rng: &mut StdRng) -> Section {
    const BATCH: usize = 16;
    let mut rows = Vec::new();
    for (preset, c, p) in SMALL_GEMM_STAGES {
        let mut draws =
            |len: usize| -> Vec<f32> { (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect() };
        let (w, bias) = (draws(c * c), draws(c));
        // the layer's input is often a ReLU's output, about half zeros
        let x: Vec<f32> = draws(BATCH * c * p).iter().map(|v| v.max(0.0)).collect();
        let go = draws(BATCH * c * p);
        let mut out = vec![0.0f32; BATCH * c * p];
        let mut dwt = vec![0.0f32; c * c];
        let mut got = vec![0.0f32; p * c];
        let mut row = |role: &str, before_ns: u64, after_ns: u64| {
            rows.push(Row {
                label: format!("{role}_{preset}_{c}ch_{p}p_b{BATCH}"),
                before_ns,
                after_ns,
            });
        };
        // forward: out = bias + W [c, c] x image [c, p]
        let before = median_ns(reps, || {
            for (image, o) in x.chunks_exact(c * p).zip(out.chunks_exact_mut(c * p)) {
                for (o_row, &b) in o.chunks_exact_mut(p).zip(&bias) {
                    o_row.fill(b);
                }
                gemm_naive(c, p, c, &w, image, o);
            }
            std::hint::black_box(&out);
        });
        let after = median_ns(reps, || {
            for (image, o) in x.chunks_exact(c * p).zip(out.chunks_exact_mut(c * p)) {
                gemm_bias(c, p, c, &w, image, &bias, o);
            }
            std::hint::black_box(&out);
        });
        row("forward", before, after);
        // input gradient: dx = W^T [c, c] x go [c, p] into zeros (`w` stands
        // in for its transpose: same shape, same work)
        let before = median_ns(reps, || {
            out.fill(0.0);
            for (g, o) in go.chunks_exact(c * p).zip(out.chunks_exact_mut(c * p)) {
                gemm_naive(c, p, c, &w, g, o);
            }
            std::hint::black_box(&out);
        });
        let after = median_ns(reps, || {
            out.fill(0.0);
            for (g, o) in go.chunks_exact(c * p).zip(out.chunks_exact_mut(c * p)) {
                gemm(c, p, c, &w, g, o);
            }
            std::hint::black_box(&out);
        });
        row("dx", before, after);
        // weight gradient: dW^T += image [c, p] x go^T [p, c] over the batch
        let before = median_ns(reps, || {
            dwt.fill(0.0);
            for (image, g) in x.chunks_exact(c * p).zip(go.chunks_exact(c * p)) {
                for (r, g_row) in g.chunks_exact(p).enumerate() {
                    for (at, &v) in g_row.iter().enumerate() {
                        got[at * c + r] = v;
                    }
                }
                gemm_naive(c, c, p, image, &got, &mut dwt);
            }
            std::hint::black_box(&dwt);
        });
        let after = median_ns(reps, || {
            dwt.fill(0.0);
            for (image, g) in x.chunks_exact(c * p).zip(go.chunks_exact(c * p)) {
                gemm_nt(c, c, p, image, g, &mut dwt);
            }
            std::hint::black_box(&dwt);
        });
        row("dw", before, after);
    }
    Section {
        name: "small_gemm",
        rows,
    }
}

/// Packed-GEMM throughput at the shapes the lowered convolutions still
/// produce: `m` = output channels per group, `n` = spatial positions, `k` =
/// `cin / groups * kh * kw`. Returns `(label, median ns, GFLOP/s)`.
fn bench_gemm_shapes(reps: usize, rng: &mut StdRng) -> Vec<(String, u64, f64)> {
    let shapes: &[(usize, usize, usize)] = &[
        (16, 1024, 144), // 16ch 3x3 cell on 32x32
        (32, 256, 288),  // 32ch 3x3 cell on 16x16
        (64, 64, 576),   // 64ch 3x3 cell on 8x8
        (64, 256, 64),   // 1x1 pointwise, 64ch on 16x16
        (128, 128, 128), // square reference point
    ];
    shapes
        .iter()
        .map(|&(m, n, k)| {
            let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut c = vec![0.0f32; m * n];
            let ns = median_ns(reps, || {
                c.fill(0.0);
                gemm(m, n, k, &a, &b, &mut c);
                std::hint::black_box(&c);
            });
            let gflops = 2.0 * (m * n * k) as f64 / ns.max(1) as f64;
            (format!("gemm_{m}x{n}x{k}"), ns, gflops)
        })
        .collect()
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let out_path = flag_value(&argv, "--out").unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let check_path = flag_value(&argv, "--check");
    let reps = if flag_present("--quick") { 7 } else { 31 };

    let mut rng = StdRng::seed_from_u64(42);
    eprintln!("timing gemm shapes (median of {reps})...");
    let gemm_rows = bench_gemm_shapes(reps, &mut rng);
    eprintln!("timing depthwise and pointwise layers against the lowering (median of {reps})...");
    let mut sections = conv_sections(reps, &mut rng);
    eprintln!("timing the pooling layers against their window loops (median of {reps})...");
    sections.extend(pool_sections(reps, &mut rng));
    eprintln!("timing the small-problem GEMM against the scalar loop (median of {reps})...");
    sections.push(small_gemm_section(reps, &mut rng));

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(
        json,
        "  \"description\": \"median ns per call; before = im2col + GEMM lowering of the same convolution (crates/bench/src/lowering.rs), after = nn::Conv2d (direct depthwise kernels, copy-free pointwise; _s2 = depthwise at stride 2) -- the pointwise before column calls the same gemm as the layer, so those rows show the copies avoided, not the kernel; max_pool / avg_pool = one forward + backward step of nn::MaxPool2d / nn::AvgPool2d (3x3, padding 1), before = the window loops they replaced and equal bit for bit (crates/bench/src/lowering.rs); small_gemm = one batch of 16 of a pointwise step's three GEMMs, before = the scalar loop gemm_naive (plus the bias fill / go transpose it needs), after = gemm_bias / gemm / gemm_nt, which equal it bit for bit; gemm rows are absolute packed-GEMM throughput\","
    )
    .unwrap();
    writeln!(json, "  \"reps\": {reps},").unwrap();
    for section in &sections {
        section.write(&mut json);
    }
    writeln!(json, "  \"gemm\": [").unwrap();
    for (i, (label, ns, gflops)) in gemm_rows.iter().enumerate() {
        let comma = if i + 1 == gemm_rows.len() { "" } else { "," };
        writeln!(
            json,
            "    {{\"shape\": \"{label}\", \"ns\": {ns}, \"gflops\": {gflops:.2}}}{comma}"
        )
        .unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();

    std::fs::write(&out_path, &json).expect("write BENCH_kernels.json");
    print!("{json}");
    eprintln!("wrote {out_path}");
    for row in sections.iter().flat_map(|s| &s.rows) {
        eprintln!(
            "{:42} {:>10} -> {:>10} ns  ({:.2}x)",
            row.label,
            row.before_ns,
            row.after_ns,
            row.speedup()
        );
    }

    // --- committed-floor regression gate (CI perf-smoke) ---
    if let Some(path) = check_path {
        let floors = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read floor file {path}: {e}"));
        let mut failed = false;
        for section in &sections {
            let key = format!("{}_min_speedup_floor", section.name);
            let Some(floor) = json_number(&floors, &key) else {
                continue;
            };
            let got = section.min_speedup();
            if got < floor {
                eprintln!(
                    "FAIL: {} slowest row is {got:.2}x its baseline, below committed floor {floor:.2}x",
                    section.name
                );
                failed = true;
            } else {
                eprintln!(
                    "ok: {} slowest row {got:.2}x >= floor {floor:.2}x",
                    section.name
                );
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
