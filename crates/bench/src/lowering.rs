//! The references the direct kernels are held to: the `im2col` + GEMM
//! lowering of a grouped convolution, written out from the tensor crate's
//! public pieces exactly as `nn::Conv2d` ran *every* convolution before
//! depthwise and pointwise layers got direct paths, and the pooling layers'
//! window loops as they were before the flat-run scans.
//!
//! Two users, one source: `bench_kernels` times them as the "before" of each
//! row, and `crates/nn/tests/layer_properties.rs` includes this file by path
//! as the reference the layers must equal bit for bit. It therefore
//! depends on `fedrlnas_tensor` alone.

use fedrlnas_tensor::{col2im, gemm, gemm_bias, im2col, Conv2dGeometry, Tensor};

/// Hyperparameters of a grouped 2-D convolution over NCHW tensors, with the
/// weight laid out `[out_channels, in_channels / groups * kernel * kernel]`.
#[derive(Debug, Clone, Copy)]
pub struct ConvShape {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel extent.
    pub kernel: usize,
    /// Stride in both directions.
    pub stride: usize,
    /// Zero padding in both directions.
    pub padding: usize,
    /// Dilation in both directions.
    pub dilation: usize,
    /// Channel groups (`in_channels` for a depthwise convolution).
    pub groups: usize,
}

impl ConvShape {
    /// The geometry on an `h x w` input.
    pub fn geometry(&self, h: usize, w: usize) -> Conv2dGeometry {
        Conv2dGeometry::new(h, w, self.kernel, self.stride, self.padding, self.dilation)
    }

    fn per_group(&self) -> (usize, usize) {
        (
            self.in_channels / self.groups,
            self.out_channels / self.groups,
        )
    }
}

/// Forward pass of `batch` images of `h x w`: per sample and group,
/// `im2col` then `gemm_bias`. Returns the `[batch, out_channels, out_h,
/// out_w]` output.
pub fn lowered_forward(
    shape: &ConvShape,
    x: &[f32],
    (batch, h, w): (usize, usize, usize),
    weight: &[f32],
    bias: &[f32],
) -> Vec<f32> {
    let geom = shape.geometry(h, w);
    let (cin_g, cout_g) = shape.per_group();
    let (col_rows, positions) = (geom.col_rows(cin_g), geom.out_positions());
    let mut out = vec![0.0f32; batch * shape.out_channels * positions];
    let mut cols = vec![0.0f32; col_rows * positions];
    for i in 0..batch {
        for g in 0..shape.groups {
            let gin = &x[(i * shape.in_channels + g * cin_g) * h * w..][..cin_g * h * w];
            im2col(gin, cin_g, &geom, &mut cols).expect("lowering: im2col lengths");
            gemm_bias(
                cout_g,
                positions,
                col_rows,
                &weight[g * cout_g * col_rows..][..cout_g * col_rows],
                &cols,
                &bias[g * cout_g..][..cout_g],
                &mut out[(i * shape.out_channels + g * cout_g) * positions..][..cout_g * positions],
            );
        }
    }
    out
}

/// Backward pass: per group, `dW^T` accumulated over the batch by GEMM and
/// added to `dweight` once, `dbias` per sample, the input gradient through
/// `W^T x grad_out` and `col2im`. Returns the input gradient.
pub fn lowered_backward(
    shape: &ConvShape,
    x: &[f32],
    (batch, h, w): (usize, usize, usize),
    weight: &[f32],
    grad_out: &[f32],
    dweight: &mut [f32],
    dbias: &mut [f32],
) -> Vec<f32> {
    let geom = shape.geometry(h, w);
    let (cin_g, cout_g) = shape.per_group();
    let (col_rows, positions) = (geom.col_rows(cin_g), geom.out_positions());
    let mut dx = vec![0.0f32; x.len()];
    let mut cols = vec![0.0f32; col_rows * positions];
    let mut dcols = vec![0.0f32; col_rows * positions];
    let mut wt = vec![0.0f32; col_rows * cout_g];
    let mut got = vec![0.0f32; positions * cout_g];
    let mut dwt = vec![0.0f32; col_rows * cout_g];
    for g in 0..shape.groups {
        let w_g = &weight[g * cout_g * col_rows..][..cout_g * col_rows];
        for r in 0..cout_g {
            for q in 0..col_rows {
                wt[q * cout_g + r] = w_g[r * col_rows + q];
            }
        }
        dwt.fill(0.0);
        for i in 0..batch {
            let gin = (i * shape.in_channels + g * cin_g) * h * w;
            im2col(&x[gin..][..cin_g * h * w], cin_g, &geom, &mut cols)
                .expect("lowering: im2col lengths");
            let go = &grad_out[(i * shape.out_channels + g * cout_g) * positions..]
                [..cout_g * positions];
            for (oc, go_row) in go.chunks_exact(positions).enumerate() {
                for (p, &v) in go_row.iter().enumerate() {
                    got[p * cout_g + oc] = v;
                }
                dbias[g * cout_g + oc] += go_row.iter().sum::<f32>();
            }
            gemm(col_rows, cout_g, positions, &cols, &got, &mut dwt);
            dcols.fill(0.0);
            gemm(col_rows, positions, cout_g, &wt, go, &mut dcols);
            col2im(&dcols, cin_g, &geom, &mut dx[gin..][..cin_g * h * w])
                .expect("lowering: col2im lengths");
        }
        let dw_g = &mut dweight[g * cout_g * col_rows..][..cout_g * col_rows];
        for (oc, dw_row) in dw_g.chunks_exact_mut(col_rows).enumerate() {
            for (q, dw) in dw_row.iter_mut().enumerate() {
                *dw += dwt[q * cout_g + oc];
            }
        }
    }
    dx
}

/// `MaxPool2d::forward` as it was: one output at a time, every tap bounds
/// tested, first maximum wins, NaN takes over. Returns outputs and argmax.
pub fn max_pool_old(x: &Tensor, k: usize, stride: usize, pad: usize) -> (Vec<f32>, Vec<usize>) {
    let d = x.dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let (out_h, out_w) = (
        (h + 2 * pad - k) / stride + 1,
        (w + 2 * pad - k) / stride + 1,
    );
    let (mut out, mut arg) = (Vec::new(), Vec::new());
    for plane_idx in 0..n * c {
        let base = plane_idx * h * w;
        let plane = &x.as_slice()[base..base + h * w];
        for oy in 0..out_h {
            for ox in 0..out_w {
                let (mut best, mut best_idx) = (f32::NEG_INFINITY, 0usize);
                for ky in 0..k {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..k {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        let idx = iy as usize * w + ix as usize;
                        if plane[idx] > best || plane[idx].is_nan() {
                            best = plane[idx];
                            best_idx = base + idx;
                        }
                    }
                }
                out.push(best);
                arg.push(best_idx);
            }
        }
    }
    (out, arg)
}

/// `AvgPool2d` as it was: per output the in-bounds taps summed in (ky, kx)
/// order and divided by their count; backward one share per tap, outputs in
/// (oy, ox) order.
pub fn avg_pool_old(
    x: &Tensor,
    go: Option<&Tensor>,
    k: usize,
    stride: usize,
    pad: usize,
) -> (Vec<f32>, Vec<f32>) {
    let d = x.dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let (out_h, out_w) = (
        (h + 2 * pad - k) / stride + 1,
        (w + 2 * pad - k) / stride + 1,
    );
    let range = |extent: usize, o: usize| {
        let start = o * stride;
        let lo = pad.saturating_sub(start);
        let hi = (extent + pad).saturating_sub(start).min(k);
        lo..hi.max(lo)
    };
    let mut out = Vec::new();
    let mut dx = vec![0.0f32; x.len()];
    let mut o = 0;
    for plane_idx in 0..n * c {
        let base = plane_idx * h * w;
        for oy in 0..out_h {
            let ys = range(h, oy);
            for ox in 0..out_w {
                let xs = range(w, ox);
                let len = (ys.len() * xs.len()).max(1) as f32;
                let mut sum = 0.0f32;
                for ky in ys.clone() {
                    for kx in xs.clone() {
                        let at = (oy * stride + ky - pad) * w + ox * stride + kx - pad;
                        sum += x.as_slice()[base + at];
                        if let Some(go) = go {
                            dx[base + at] += go.as_slice()[o] / len;
                        }
                    }
                }
                out.push(sum / len);
                o += 1;
            }
        }
    }
    (out, dx)
}
