//! Property-based tests for the layer contracts: `output_shape` agrees
//! with `forward`, backward returns input-shaped gradients, gradients stay
//! finite on finite inputs.

use fedrlnas_nn::{
    AvgPool2d, BatchNorm2d, Conv2d, GlobalAvgPool, Layer, Linear, MaxPool2d, Mode, ReLU,
};
use fedrlnas_tensor::Tensor;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// Builds one of the layer kinds under test for `c` channels.
fn build_layer(kind: usize, c: usize, stride: usize, rng: &mut StdRng) -> Box<dyn Layer> {
    match kind {
        0 => Box::new(Conv2d::new(c, c + 1, 3, stride, 1, 1, 1, rng)),
        1 => Box::new(Conv2d::new(c, c, 3, stride, 2, 2, c, rng)), // dilated depthwise
        2 => Box::new(MaxPool2d::new(3, stride, 1)),
        3 => Box::new(AvgPool2d::new(3, stride, 1)),
        4 => Box::new(ReLU::new()),
        _ => Box::new(BatchNorm2d::new(c)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn output_shape_matches_forward(
        kind in 0usize..6,
        c in 1usize..4,
        hw in 5usize..9,
        n in 1usize..3,
        stride_sel in 0usize..2,
        seed in 0u64..1000,
    ) {
        let stride = if kind >= 4 { 1 } else { 1 + stride_sel }; // relu/bn are stride-free
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer = build_layer(kind, c, stride, &mut rng);
        let x = Tensor::randn(&[n, c, hw, hw], 1.0, &mut rng);
        let y = layer.forward(&x, Mode::Train);
        let predicted = layer.output_shape(&[c, hw, hw]);
        let mut want = vec![n];
        want.extend(predicted);
        prop_assert_eq!(y.dims(), &want[..]);
        prop_assert!(y.all_finite());
        // backward returns input-shaped, finite gradients
        let dx = layer.backward(&Tensor::ones(y.dims()));
        prop_assert_eq!(dx.dims(), x.dims());
        prop_assert!(dx.all_finite());
    }

    #[test]
    fn linear_shapes_and_finiteness(
        nin in 1usize..10,
        nout in 1usize..10,
        batch in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lin = Linear::new(nin, nout, &mut rng);
        let x = Tensor::randn(&[batch, nin], 1.0, &mut rng);
        let y = lin.forward(&x, Mode::Train);
        prop_assert_eq!(y.dims(), &[batch, nout]);
        let dx = lin.backward(&Tensor::ones(y.dims()));
        prop_assert_eq!(dx.dims(), x.dims());
    }

    #[test]
    fn global_pool_is_mean(c in 1usize..5, hw in 2usize..6, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gap = GlobalAvgPool::new();
        let x = Tensor::randn(&[2, c, hw, hw], 1.0, &mut rng);
        let y = gap.forward(&x, Mode::Eval);
        let plane = hw * hw;
        for i in 0..2 {
            for ch in 0..c {
                let base = (i * c + ch) * plane;
                let mean: f32 =
                    x.as_slice()[base..base + plane].iter().sum::<f32>() / plane as f32;
                prop_assert!((y.as_slice()[i * c + ch] - mean).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn relu_idempotent(len in 1usize..64, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut relu = ReLU::new();
        let x = Tensor::randn(&[1, 1, 1, len], 1.0, &mut rng);
        let once = relu.forward(&x, Mode::Eval);
        let twice = relu.forward(&once, Mode::Eval);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn conv_workspace_reuse_is_bit_identical(
        cin in 1usize..4,
        cout_mul in 1usize..3,
        hw in 4usize..9,
        stride in 1usize..3,
        seed in 0u64..500,
    ) {
        // A conv whose workspace has been through a full train step on one
        // batch must produce *bit-identical* results on the next batch
        // compared to a fresh layer (clone => empty workspace) with the same
        // parameters: reused scratch may be stale but must never leak into
        // outputs or gradients.
        let mut rng = StdRng::seed_from_u64(seed);
        let cout = cin * cout_mul;
        let mut reused = Conv2d::new(cin, cout, 3, stride, 1, 1, 1, &mut rng);
        let fresh = reused.clone();
        let x1 = Tensor::randn(&[2, cin, hw, hw], 1.0, &mut rng);
        let x2 = Tensor::randn(&[3, cin, hw, hw], 2.0, &mut rng); // different batch size & scale
        // Warm the reused workspace on x1 (forward + backward).
        let y1 = reused.forward(&x1, Mode::Train);
        reused.backward(&Tensor::ones(y1.dims()));
        reused.zero_grad();
        // Same step on x2 from both layers.
        let mut fresh = fresh;
        let y_reused = reused.forward(&x2, Mode::Train);
        let y_fresh = fresh.forward(&x2, Mode::Train);
        prop_assert_eq!(y_reused.as_slice(), y_fresh.as_slice());
        let dx_reused = reused.backward(&Tensor::ones(y_reused.dims()));
        let dx_fresh = fresh.backward(&Tensor::ones(y_fresh.dims()));
        prop_assert_eq!(dx_reused.as_slice(), dx_fresh.as_slice());
        // Parameter gradients must match bit-for-bit as well.
        let mut grads_reused: Vec<Vec<f32>> = Vec::new();
        reused.visit_params(&mut |p| grads_reused.push(p.grad.as_slice().to_vec()));
        let mut grads_fresh: Vec<Vec<f32>> = Vec::new();
        fresh.visit_params(&mut |p| grads_fresh.push(p.grad.as_slice().to_vec()));
        prop_assert_eq!(grads_reused, grads_fresh);
    }

    #[test]
    fn batchnorm_shift_invariant_in_train(c in 1usize..4, shift in -5.0f32..5.0, seed in 0u64..200) {
        // train-mode BN output is invariant to a constant per-batch shift
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bn1 = BatchNorm2d::new(c);
        let mut bn2 = BatchNorm2d::new(c);
        let x = Tensor::randn(&[3, c, 4, 4], 1.0, &mut rng);
        let shifted = x.map(|v| v + shift);
        let a = bn1.forward(&x, Mode::Train);
        let b = bn2.forward(&shifted, Mode::Train);
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            prop_assert!((u - v).abs() < 1e-3, "{} vs {}", u, v);
        }
    }
}

// ---------------------------------------------------------------------------
// Bit-equality of the direct layer paths with the code they replaced.
//
// Depthwise and pointwise `Conv2d` no longer go through `im2col` + GEMM, and
// ReLU / MaxPool2d / AvgPool2d / BatchNorm2d had their loops restructured for
// speed. None of that may move a single bit (every committed curve, digest
// and checkpoint was produced by the old code), so each is compared here with
// the old computation kept in test form: the lowering and the pooling
// layers' window loops live in `crates/bench/src/lowering.rs` (also
// `bench_kernels`' "before"), the other old element-wise loops below.
// ---------------------------------------------------------------------------

#[path = "../../bench/src/lowering.rs"]
mod lowering;

use lowering::{avg_pool_old, lowered_backward, lowered_forward, max_pool_old, ConvShape};
use rand::Rng;

/// Bit patterns with `-0.0` mapped to `+0.0`: the one difference the direct
/// kernels may show (see `tensor::depthwise`'s notes on numerics) and one
/// that no later arithmetic can turn into a different value. All NaNs count
/// as one (which operand's payload an add keeps is the compiler's choice).
fn bits(values: &[f32]) -> Vec<u32> {
    let canonical = |v: &f32| match v {
        v if v.is_nan() => f32::NAN.to_bits(),
        v if *v == 0.0 => 0,
        v => v.to_bits(),
    };
    values.iter().map(canonical).collect()
}

/// About half exact zeros, as after a ReLU; the rest positive.
fn post_relu(dims: &[usize], rng: &mut StdRng) -> Tensor {
    Tensor::randn(dims, 1.0, rng).map(|v| v.max(0.0))
}

fn param_values(layer: &mut dyn Layer, grads: bool) -> Vec<Vec<f32>> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| {
        let t = if grads { &p.grad } else { &p.value };
        out.push(t.as_slice().to_vec());
    });
    out
}

/// Runs `Conv2d` and the lowering side by side on the same parameters: one
/// forward, then two backward passes accumulating into the same gradients.
fn assert_conv_equals_lowering(
    shape: ConvShape,
    (n, h, w): (usize, usize, usize),
    rng: &mut StdRng,
) {
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
    // Non-zero bias, and some weights exactly zero: both kernels skip those.
    conv.visit_params(&mut |p| {
        for v in p.value.as_mut_slice() {
            *v = if rng.gen_bool(0.15) {
                0.0
            } else {
                rng.gen_range(-1.0f32..1.0)
            };
        }
    });
    let values = param_values(&mut conv, false);
    let (weight, bias) = (&values[0], &values[1]);
    let x = post_relu(&[n, shape.in_channels, h, w], rng);
    let case = format!("{shape:?} on {n}x{h}x{w}");

    let y = conv.forward(&x, Mode::Train);
    let y_ref = lowered_forward(&shape, x.as_slice(), (n, h, w), weight, bias);
    assert_eq!(bits(y.as_slice()), bits(&y_ref), "forward of {case}");

    let mut dweight = vec![0.0f32; weight.len()];
    let mut dbias = vec![0.0f32; bias.len()];
    for pass in 0..2 {
        let mut go = Tensor::randn(y.dims(), 1.0, rng);
        if pass == 1 && rng.gen_bool(0.25) {
            // A blown-up gradient: where the input is 0.0 the lowering skips
            // the term, and `0.0 * inf` must not turn up as NaN instead.
            let at = rng.gen_range(0..go.len());
            go.as_mut_slice()[at] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][at % 3];
        }
        let dx = conv.backward(&go);
        let dx_ref = lowered_backward(
            &shape,
            x.as_slice(),
            (n, h, w),
            weight,
            go.as_slice(),
            &mut dweight,
            &mut dbias,
        );
        assert_eq!(bits(dx.as_slice()), bits(&dx_ref), "dx {pass} of {case}");
        let grads = param_values(&mut conv, true);
        assert_eq!(bits(&grads[0]), bits(&dweight), "dW {pass} of {case}");
        assert_eq!(bits(&grads[1]), bits(&dbias), "db {pass} of {case}");
    }
}

fn depthwise(c: usize, kernel: usize, stride: usize, dilation: usize) -> ConvShape {
    ConvShape {
        in_channels: c,
        out_channels: c,
        kernel,
        stride,
        // DARTS "same" padding, as `ReluConvBn::separable` sets it
        padding: dilation * (kernel - 1) / 2,
        dilation,
        groups: c,
    }
}

#[test]
fn depthwise_conv_equals_im2col_gemm_lowering_bit_for_bit() {
    // Every case keeps m·n·k = k² · positions within 16 384, the range in
    // which the lowering ran on `gemm_naive` (separate multiply and add, k
    // ascending) — the arithmetic the direct kernels reproduce. Above it the
    // lowering used the packed FMA kernel and the last ulp differs; no
    // `tiny`/`small` shape is up there (DESIGN, "Kernel numerics").
    let mut rng = StdRng::seed_from_u64(14);
    for kernel in [3, 5] {
        for stride in [1, 2] {
            for dilation in [1, 2] {
                for _ in 0..12 {
                    let (h, w) = (rng.gen_range(1..=13), rng.gen_range(1..=13));
                    let (n, c) = (rng.gen_range(1..=4), rng.gen_range(1..=5));
                    let shape = depthwise(c, kernel, stride, dilation);
                    let positions = shape.geometry(h, w).out_positions();
                    assert!(kernel * kernel * positions <= 16 * 1024);
                    assert_conv_equals_lowering(shape, (n, h, w), &mut rng);
                }
            }
        }
    }
}

#[test]
fn depthwise_conv_at_lane_edges_equals_the_lowering() {
    // The kernels run four vectors of outputs and several channels' weight
    // gradients in flight, on eight lanes or four: every channel count
    // 1..=17 against batches 17..=1, maps whose padded rows are a vector
    // short, exact or long (and outputs one narrower than a vector, one,
    // and one wider), with zero weights and a non-finite output gradient
    // mixed in by `assert_conv_equals_lowering`.
    let mut rng = StdRng::seed_from_u64(24);
    let widths = [1, 2, 3, 5, 6, 7, 8, 9, 11, 15, 17];
    for c in 1..=17 {
        let n = 18 - c;
        for (kernel, stride, dilation) in [(3, 1, 1), (5, 2, 2), (3, 2, 1), (5, 1, 1), (3, 1, 2)] {
            let (h, w) = (
                widths[rng.gen_range(0..widths.len())],
                widths[rng.gen_range(0..widths.len())],
            );
            let shape = depthwise(c, kernel, stride, dilation);
            if h.min(w) + 2 * shape.padding < dilation * (kernel - 1) + 1 {
                continue;
            }
            assert_conv_equals_lowering(shape, (n, h, w), &mut rng);
        }
    }
}

#[test]
fn depthwise_conv_of_other_shapes_equals_the_lowering() {
    // Off the DARTS shapes the kernels take their general routes: a 1x1 and
    // a 7x7 filter, dilation 3, stride 3, padding above and below "same".
    let mut rng = StdRng::seed_from_u64(15);
    for (kernel, stride, padding, dilation) in [
        (1, 1, 0, 1),
        (1, 2, 1, 1),
        (3, 1, 0, 1),
        (3, 3, 1, 1),
        (3, 1, 4, 1),
        (3, 1, 3, 3),
        (5, 2, 1, 1),
        (5, 1, 6, 3),
        (7, 1, 3, 1),
        (2, 1, 1, 1),
        (4, 2, 2, 2),
    ] {
        for (n, c, h, w) in [(1, 1, 7, 7), (2, 3, 8, 5), (3, 2, 13, 9)] {
            let shape = ConvShape {
                padding,
                ..depthwise(c, kernel, stride, dilation)
            };
            assert_conv_equals_lowering(shape, (n, h, w), &mut rng);
        }
    }
}

#[test]
fn pointwise_conv_equals_im2col_gemm_lowering_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(16);
    let pointwise = |cin, cout| ConvShape {
        in_channels: cin,
        out_channels: cout,
        kernel: 1,
        stride: 1,
        padding: 0,
        dilation: 1,
        groups: 1,
    };
    for _ in 0..40 {
        let (h, w) = (rng.gen_range(1..=13), rng.gen_range(1..=13));
        let (n, cin, cout) = (
            rng.gen_range(1..=4),
            rng.gen_range(1..=6),
            rng.gen_range(1..=6),
        );
        assert_conv_equals_lowering(pointwise(cin, cout), (n, h, w), &mut rng);
    }
    // The pointwise path makes the lowering's own GEMM calls on the same
    // values, so unlike depthwise it also holds where the packed kernel
    // takes over (16 · 169 · 16 > 16 384).
    assert_conv_equals_lowering(pointwise(16, 16), (2, 13, 13), &mut rng);
}

#[test]
fn pointwise_conv_equals_the_scalar_gemm_loop_bit_for_bit() {
    // The lowering above calls the same `gemm` as the layer, so it cannot
    // tell whether the small-problem kernel under both moved a bit. This does:
    // the layer's three products against `gemm_naive`, the loop that kernel
    // must equal, at every pointwise stage of `small` and `tiny` and at
    // channel and position counts off every tile edge (8-row tiles, 16-, 8-
    // and 4-lane vectors), on a post-ReLU input (the zero skip) with zeros
    // among the weights.
    use fedrlnas_tensor::gemm_naive;
    let mut rng = StdRng::seed_from_u64(23);
    let stages = [
        (8, 8, 144),
        (16, 16, 36),
        (32, 32, 9),
        (4, 4, 64),
        (8, 8, 16),
        (16, 16, 4),
    ];
    let odd = [(7, 13, 17), (9, 5, 33), (12, 20, 1), (1, 3, 40), (17, 2, 9)];
    for (cin, cout, positions) in stages.into_iter().chain(odd) {
        let n = 3;
        let mut conv = Conv2d::new(cin, cout, 1, 1, 0, 1, 1, &mut rng);
        conv.visit_params(&mut |p| {
            for v in p.value.as_mut_slice() {
                *v = if rng.gen_bool(0.15) {
                    0.0
                } else {
                    rng.gen_range(-1.0f32..1.0)
                };
            }
        });
        let values = param_values(&mut conv, false);
        let (weight, bias) = (&values[0], &values[1]);
        let x = post_relu(&[n, cin, positions, 1], &mut rng);
        let go = Tensor::randn(&[n, cout, positions, 1], 1.0, &mut rng);
        let case = format!("{cin} -> {cout} channels at {positions} positions");

        let y = conv.forward(&x, Mode::Train);
        let dx = conv.backward(&go);
        let grads = param_values(&mut conv, true);

        let transposed = |src: &[f32], rows: usize, cols: usize| -> Vec<f32> {
            (0..rows * cols)
                .map(|at| src[at % rows * cols + at / rows])
                .collect()
        };
        let wt = transposed(weight, cout, cin);
        let mut y_ref = vec![0.0f32; y.len()];
        let mut dx_ref = vec![0.0f32; x.len()];
        let mut dwt = vec![0.0f32; cin * cout];
        for i in 0..n {
            let image = &x.as_slice()[i * cin * positions..(i + 1) * cin * positions];
            let g = &go.as_slice()[i * cout * positions..(i + 1) * cout * positions];
            let out = &mut y_ref[i * cout * positions..(i + 1) * cout * positions];
            for (row, &b) in out.chunks_exact_mut(positions).zip(bias) {
                row.fill(b);
            }
            gemm_naive(cout, positions, cin, weight, image, out);
            gemm_naive(
                cin,
                cout,
                positions,
                image,
                &transposed(g, cout, positions),
                &mut dwt,
            );
            let dimage = &mut dx_ref[i * cin * positions..(i + 1) * cin * positions];
            gemm_naive(cin, positions, cout, &wt, g, dimage);
        }
        assert_eq!(
            raw_bits(y.as_slice()),
            raw_bits(&y_ref),
            "forward of {case}"
        );
        assert_eq!(raw_bits(dx.as_slice()), raw_bits(&dx_ref), "dx of {case}");
        assert_eq!(
            raw_bits(&grads[0]),
            raw_bits(&transposed(&dwt, cin, cout)),
            "dW of {case}"
        );
    }
}

#[test]
fn depthwise_conv_on_maps_smaller_than_its_kernel() {
    // The last stage of the `small` preset (12 -> 6 -> 3) and below: most
    // taps of a dilated 5x5 (effective 9, padding 4) lie wholly in padding —
    // `tensor::conv`'s `tap_entirely_in_padding_is_zero` case, for the direct
    // kernels. Must not panic, must agree with finite differences and with
    // the lowering.
    let mut rng = StdRng::seed_from_u64(17);
    for (kernel, dilation) in [(5, 2), (3, 1), (3, 2), (5, 1)] {
        for hw in [3, 2, 1] {
            for stride in [1, 2] {
                let shape = depthwise(2, kernel, stride, dilation);
                assert_conv_equals_lowering(shape, (2, hw, hw), &mut rng);
                let mut conv =
                    Conv2d::new(2, 2, kernel, stride, shape.padding, dilation, 2, &mut rng);
                let x = Tensor::randn(&[2, 2, hw, hw], 1.0, &mut rng);
                let err = fedrlnas_nn::grad_check_input(&mut conv, &x, 1e-2);
                assert!(
                    err < 1e-2,
                    "k{kernel} d{dilation} s{stride} on {hw}x{hw}: input grad error {err}"
                );
            }
        }
    }
}

/// Random activations with exact zeros, exact ties and — if asked — NaN and
/// infinities sprinkled in.
fn awkward(dims: &[usize], non_finite: bool, rng: &mut StdRng) -> Tensor {
    let mut t = Tensor::randn(dims, 1.0, rng).map(|v| (v * 4.0).round() / 4.0);
    if non_finite {
        for v in t.as_mut_slice() {
            match rng.gen_range(0..40) {
                0 => *v = f32::NAN,
                1 => *v = f32::NEG_INFINITY,
                2 => *v = f32::INFINITY,
                _ => {}
            }
        }
    }
    t
}

/// Exact bit patterns (NaN payloads and zero signs included).
fn raw_bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn relu_equals_the_loops_it_replaced_including_nan() {
    let mut rng = StdRng::seed_from_u64(18);
    for non_finite in [false, true] {
        let x = awkward(&[3, 4, 5, 7], non_finite, &mut rng);
        let go = awkward(x.dims(), non_finite, &mut rng);
        let mut relu = ReLU::new();
        let y = relu.forward(&x, Mode::Train);
        let dx = relu.backward(&go);
        // the old forward: mask of `v > 0`, `v < 0 -> 0` else v (NaN stays)
        let y_old: Vec<f32> = x
            .as_slice()
            .iter()
            .map(|&v| if v < 0.0 { 0.0 } else { v })
            .collect();
        // the old backward: clone, then zero where the mask (`v > 0`, so
        // unset for NaN) is unset
        let mut dx_old = go.as_slice().to_vec();
        for (d, &v) in dx_old.iter_mut().zip(x.as_slice()) {
            let keep = v > 0.0;
            if !keep {
                *d = 0.0;
            }
        }
        assert_eq!(raw_bits(y.as_slice()), raw_bits(&y_old));
        assert_eq!(raw_bits(dx.as_slice()), raw_bits(&dx_old));
        if non_finite {
            assert!(y.as_slice().iter().any(|v| v.is_nan()), "NaN must survive");
        }
    }
}

#[test]
fn max_pool_equals_the_loop_it_replaced_including_nan() {
    let mut rng = StdRng::seed_from_u64(19);
    for non_finite in [false, true] {
        for (k, stride, pad) in [
            (3, 1, 1),
            (3, 2, 1),
            (2, 2, 0),
            (3, 1, 0),
            (5, 2, 2),
            (3, 1, 3),
        ] {
            for (h, w) in [(1, 1), (2, 3), (3, 3), (6, 6), (7, 12), (12, 5)] {
                if h + 2 * pad < k || w + 2 * pad < k {
                    continue;
                }
                let x = awkward(&[2, 3, h, w], non_finite, &mut rng);
                let mut pool = MaxPool2d::new(k, stride, pad);
                let y = pool.forward(&x, Mode::Train);
                let (y_old, arg_old) = max_pool_old(&x, k, stride, pad);
                let case = format!("k{k} s{stride} p{pad} on {h}x{w}");
                assert_eq!(raw_bits(y.as_slice()), raw_bits(&y_old), "{case}");
                // the argmax is private; backward routes by it
                let go = awkward(y.dims(), false, &mut rng);
                let dx = pool.backward(&go);
                let mut dx_old = vec![0.0f32; x.len()];
                for (g, &idx) in go.as_slice().iter().zip(&arg_old) {
                    dx_old[idx] += g;
                }
                assert_eq!(raw_bits(dx.as_slice()), raw_bits(&dx_old), "{case}");
            }
        }
    }
}

#[test]
fn pools_at_lane_edges_equal_the_loops_they_replaced() {
    // Every plane of a batch is one flat run of four vectors in flight:
    // channel counts 1..=17 against batches 17..=1, padded rows a vector
    // short, exact and long (7, 8, 9 and 3, 4, 5 wide), NaN and infinities
    // in the max pool's input.
    let mut rng = StdRng::seed_from_u64(25);
    for c in 1..=17 {
        let n = 18 - c;
        for (k, stride, pad) in [(3, 1, 1), (3, 2, 1)] {
            let (h, w) = ([1, 2, 3, 5, 6, 7][c % 6], [5, 6, 7, 1, 2, 3][(c + n) % 6]);
            let case = format!("{n}x{c}x{h}x{w} k{k} s{stride} p{pad}");
            let x = awkward(&[n, c, h, w], c % 2 == 0, &mut rng);
            let mut max = MaxPool2d::new(k, stride, pad);
            let y = max.forward(&x, Mode::Train);
            let (y_old, arg_old) = max_pool_old(&x, k, stride, pad);
            assert_eq!(raw_bits(y.as_slice()), raw_bits(&y_old), "max {case}");
            let go = awkward(y.dims(), false, &mut rng);
            let dx = max.backward(&go);
            let mut dx_old = vec![0.0f32; x.len()];
            for (g, &idx) in go.as_slice().iter().zip(&arg_old) {
                dx_old[idx] += g;
            }
            assert_eq!(raw_bits(dx.as_slice()), raw_bits(&dx_old), "max dx {case}");

            let x = Tensor::randn(&[n, c, h, w], 1.0, &mut rng);
            let mut avg = AvgPool2d::new(k, stride, pad);
            let y = avg.forward(&x, Mode::Train);
            let go = Tensor::randn(y.dims(), 1.0, &mut rng);
            let dx = avg.backward(&go);
            let (y_old, dx_old) = avg_pool_old(&x, Some(&go), k, stride, pad);
            assert_eq!(bits(y.as_slice()), bits(&y_old), "avg {case}");
            assert_eq!(bits(dx.as_slice()), bits(&dx_old), "avg dx {case}");
        }
    }
}

#[test]
fn avg_pool_equals_the_loops_it_replaced() {
    let mut rng = StdRng::seed_from_u64(20);
    for (k, stride, pad) in [
        (3, 1, 1),
        (3, 2, 1),
        (2, 2, 0),
        (3, 1, 0),
        (5, 2, 2),
        (3, 1, 3),
    ] {
        for (h, w) in [(1, 1), (2, 3), (3, 3), (6, 6), (7, 12), (12, 5)] {
            if h + 2 * pad < k || w + 2 * pad < k {
                continue;
            }
            let x = Tensor::randn(&[2, 3, h, w], 1.0, &mut rng);
            let mut pool = AvgPool2d::new(k, stride, pad);
            let y = pool.forward(&x, Mode::Train);
            let go = Tensor::randn(y.dims(), 1.0, &mut rng);
            let dx = pool.backward(&go);
            let (y_old, dx_old) = avg_pool_old(&x, Some(&go), k, stride, pad);
            let case = format!("k{k} s{stride} p{pad} on {h}x{w}");
            assert_eq!(bits(y.as_slice()), bits(&y_old), "forward {case}");
            assert_eq!(bits(dx.as_slice()), bits(&dx_old), "backward {case}");
        }
    }
}

#[test]
fn avg_pool_equals_the_loops_it_replaced_including_nan() {
    // Infinities of both signs and NaN in the inputs and in the output
    // gradients, on the shapes of the finite cases and at the lane edges.
    let mut rng = StdRng::seed_from_u64(26);
    let (mut nan_out, mut inf_dx) = (false, false);
    for (k, stride, pad) in [(3, 1, 1), (3, 2, 1), (2, 2, 0), (5, 2, 2), (3, 1, 3)] {
        for (n, c, h, w) in [
            (2, 3, 1, 1),
            (2, 3, 3, 3),
            (2, 3, 7, 12),
            (9, 9, 5, 2),
            (1, 17, 6, 7),
        ] {
            if h + 2 * pad < k || w + 2 * pad < k {
                continue;
            }
            let x = awkward(&[n, c, h, w], true, &mut rng);
            let mut pool = AvgPool2d::new(k, stride, pad);
            let y = pool.forward(&x, Mode::Train);
            let go = awkward(y.dims(), true, &mut rng);
            let dx = pool.backward(&go);
            let (y_old, dx_old) = avg_pool_old(&x, Some(&go), k, stride, pad);
            let case = format!("k{k} s{stride} p{pad} on {n}x{c}x{h}x{w}");
            assert_eq!(bits(y.as_slice()), bits(&y_old), "forward {case}");
            assert_eq!(bits(dx.as_slice()), bits(&dx_old), "backward {case}");
            nan_out |= y.as_slice().iter().any(|v| v.is_nan());
            inf_dx |= dx.as_slice().iter().any(|v| v.is_infinite());
        }
    }
    assert!(
        nan_out && inf_dx,
        "the cases hold no NaN output or no infinite gradient"
    );
}

#[test]
fn batch_norm_equals_the_loops_it_replaced() {
    // Channel counts on every side of the groups of eight and of four whose
    // sums advance together; the old code summed one channel at a time.
    let mut rng = StdRng::seed_from_u64(21);
    for c in [1, 3, 4, 5, 8, 11, 13, 16, 21] {
        let (n, h, w) = (3, 4, 5);
        let plane = h * w;
        let count = (n * plane) as f32;
        let x = Tensor::randn(&[n, c, h, w], 2.0, &mut rng).map(|v| v + 0.5);
        let go = Tensor::randn(x.dims(), 1.0, &mut rng);
        let mut bn = BatchNorm2d::new(c);
        let mut k = 0;
        bn.visit_params(&mut |p| {
            for v in p.value.as_mut_slice() {
                k += 1;
                *v = 0.5 + 0.25 * k as f32;
            }
        });
        let affine = param_values(&mut bn, false);
        let y = bn.forward(&x, Mode::Train);
        let dx = bn.backward(&go);
        let grads = param_values(&mut bn, true);

        let mut y_old = vec![0.0f32; x.len()];
        let mut dx_old = vec![0.0f32; x.len()];
        let (mut dgamma, mut dbeta) = (vec![0.0f32; c], vec![0.0f32; c]);
        for ch in 0..c {
            let planes = |t: &Tensor, i: usize| {
                let base = (i * c + ch) * plane;
                t.as_slice()[base..base + plane].to_vec()
            };
            let mut mean = 0.0f32;
            for i in 0..n {
                mean += planes(&x, i).iter().sum::<f32>();
            }
            mean /= count;
            let mut var = 0.0f32;
            for i in 0..n {
                for v in planes(&x, i) {
                    let d = v - mean;
                    var += d * d;
                }
            }
            var /= count;
            let istd = 1.0 / (var + 1e-5).sqrt();
            let (g, b) = (affine[0][ch], affine[1][ch]);
            let (mut sum_dout, mut sum_dout_xhat) = (0.0f32, 0.0f32);
            for i in 0..n {
                for (j, (v, d)) in planes(&x, i).iter().zip(planes(&go, i)).enumerate() {
                    let xh = (v - mean) * istd;
                    y_old[(i * c + ch) * plane + j] = g * xh + b;
                    sum_dout += d;
                    sum_dout_xhat += d * xh;
                }
            }
            dbeta[ch] += sum_dout;
            dgamma[ch] += sum_dout_xhat;
            let scale = g * istd / count;
            for i in 0..n {
                for (j, (v, d)) in planes(&x, i).iter().zip(planes(&go, i)).enumerate() {
                    let xh = (v - mean) * istd;
                    dx_old[(i * c + ch) * plane + j] =
                        scale * (count * d - sum_dout - xh * sum_dout_xhat);
                }
            }
        }
        assert_eq!(raw_bits(y.as_slice()), raw_bits(&y_old), "forward c={c}");
        assert_eq!(raw_bits(dx.as_slice()), raw_bits(&dx_old), "backward c={c}");
        assert_eq!(raw_bits(&grads[0]), raw_bits(&dgamma), "dgamma c={c}");
        assert_eq!(raw_bits(&grads[1]), raw_bits(&dbeta), "dbeta c={c}");
    }
}
