//! 2-D convolution with stride, padding, dilation and groups.
//!
//! Depthwise-separable and dilated convolutions — two of the eight DARTS
//! candidate operations (paper Fig. 1) — are both built from this layer: a
//! depthwise stage uses `groups == in_channels`, a pointwise stage uses a
//! `1x1` kernel, and dilated convolutions set `dilation > 1`.

use crate::init::he_std;
use crate::layer::{Layer, Mode, Param};
use crate::norm::chain_blocks;
use fedrlnas_tensor::{
    col2im, depthwise_backward, depthwise_forward, gemm, gemm_bias, gemm_nt, im2col,
    Conv2dGeometry, Tensor, Workspace,
};
use rand::Rng;

/// A grouped 2-D convolution over NCHW tensors with bias.
///
/// Weight layout is `[out_channels, in_channels / groups * k * k]`. How a
/// layer computes depends on its shape, never on a setting:
///
/// * **depthwise** (`groups == in_channels == out_channels`) runs the direct
///   kernels [`depthwise_forward`]/[`depthwise_backward`]: no lowering, no
///   scratch;
/// * **pointwise** (`1x1`, stride 1, no padding, one group) hands each
///   sample's `[in_channels, positions]` plane to GEMM as it lies in memory —
///   its `im2col` would be a copy and its `col2im` an add into zeros;
/// * everything else (dense `k x k`, strided `1x1`, `1 < groups < channels`)
///   lowers each sample and group to GEMM via `im2col`.
///
/// All three give the same bits as the `im2col` lowering (for depthwise, see
/// the range stated in the kernels' docs). GEMM scratch lives in a per-layer
/// [`Workspace`] so repeated steps with the same geometry allocate nothing;
/// cloning the layer (e.g. for a federated participant thread) starts with
/// an empty workspace.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    dilation: usize,
    groups: usize,
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
    workspace: Workspace,
}

impl Conv2d {
    /// Creates a convolution with He-normal weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if `in_channels` or `out_channels` is not divisible by
    /// `groups`, or any extent is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        dilation: usize,
        groups: usize,
        rng: &mut R,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0 && groups > 0);
        assert_eq!(in_channels % groups, 0, "in_channels must divide by groups");
        assert_eq!(
            out_channels % groups,
            0,
            "out_channels must divide by groups"
        );
        let fan_in = in_channels / groups * kernel * kernel;
        let weight = Param::new(Tensor::randn(&[out_channels, fan_in], he_std(fan_in), rng));
        let bias = Param::new(Tensor::zeros(&[out_channels]));
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            dilation,
            groups,
            weight,
            bias,
            cached_input: None,
            workspace: Workspace::new(),
        }
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    fn geometry(&self, in_h: usize, in_w: usize) -> Conv2dGeometry {
        Conv2dGeometry::new(
            in_h,
            in_w,
            self.kernel,
            self.stride,
            self.padding,
            self.dilation,
        )
    }

    fn is_depthwise(&self) -> bool {
        self.groups == self.in_channels && self.groups == self.out_channels
    }

    fn is_pointwise(&self) -> bool {
        self.kernel == 1 && self.stride == 1 && self.padding == 0 && self.groups == 1
    }

    /// Pointwise forward: per sample, `out = W x image + bias`.
    fn forward_pointwise(&self, x: &Tensor, positions: usize, out: &mut Tensor) {
        let (cin, cout) = (self.in_channels, self.out_channels);
        for (image, dst) in x
            .as_slice()
            .chunks_exact(cin * positions)
            .zip(out.as_mut_slice().chunks_exact_mut(cout * positions))
        {
            gemm_bias(
                cout,
                positions,
                cin,
                self.weight.value.as_slice(),
                image,
                self.bias.value.as_slice(),
                dst,
            );
        }
    }

    /// Pointwise backward: the same GEMMs per sample as the lowering,
    /// reading `x` and writing `dx` (zeroed by the caller) in place of the
    /// column buffers, and `go` as it lies in place of its transpose.
    fn backward_pointwise(
        &mut self,
        x: &Tensor,
        grad_out: &Tensor,
        positions: usize,
        dx: &mut Tensor,
    ) {
        let (cin, cout) = (self.in_channels, self.out_channels);
        // Stale contents are fine: `wt` is fully written below, `dwt` is
        // zeroed.
        let [wt, dwt] = self.workspace.buffers([cin * cout, cin * cout]);
        transpose(self.weight.value.as_slice(), cout, cin, wt);
        dwt.fill(0.0);
        for ((image, go), dimage) in x
            .as_slice()
            .chunks_exact(cin * positions)
            .zip(grad_out.as_slice().chunks_exact(cout * positions))
            .zip(dx.as_mut_slice().chunks_exact_mut(cin * positions))
        {
            add_row_sums(go, positions, self.bias.grad.as_mut_slice());
            // dW^T += image [cin, P] x go^T [P, cout]; dimage = W^T x go
            gemm_nt(cin, cout, positions, image, go, dwt);
            gemm(cin, positions, cout, wt, go, dimage);
        }
        add_transposed(dwt, cin, cout, self.weight.grad.as_mut_slice());
    }

    /// General forward: `im2col` each sample and group, then GEMM.
    fn forward_lowered(&mut self, x: &Tensor, geom: &Conv2dGeometry, out: &mut Tensor) {
        let (h, w) = (geom.in_h, geom.in_w);
        let cin_g = self.in_channels / self.groups;
        let cout_g = self.out_channels / self.groups;
        let col_rows = geom.col_rows(cin_g);
        let positions = geom.out_positions();
        // Reused scratch: `im2col` writes every element (padding included), so
        // stale contents from the previous step are harmless.
        let cols = self.workspace.buffer(col_rows * positions);
        for (image, oimage) in x.as_slice().chunks_exact(self.in_channels * h * w).zip(
            out.as_mut_slice()
                .chunks_exact_mut(self.out_channels * positions),
        ) {
            for g in 0..self.groups {
                let gin = &image[g * cin_g * h * w..(g + 1) * cin_g * h * w];
                im2col(gin, cin_g, geom, cols).expect("im2col geometry verified above");
                let w_g = &self.weight.value.as_slice()
                    [g * cout_g * col_rows..(g + 1) * cout_g * col_rows];
                let bias_g = &self.bias.value.as_slice()[g * cout_g..(g + 1) * cout_g];
                let dst = &mut oimage[g * cout_g * positions..(g + 1) * cout_g * positions];
                // Bias is fused into the GEMM epilogue: one pass over dst.
                gemm_bias(cout_g, positions, col_rows, w_g, cols, bias_g, dst);
            }
        }
    }

    /// General backward: per group, `dW^T` accumulated over the batch by
    /// GEMM, `dx` through `W^T x go` and `col2im`.
    fn backward_lowered(
        &mut self,
        x: &Tensor,
        grad_out: &Tensor,
        geom: &Conv2dGeometry,
        dx: &mut Tensor,
    ) {
        let (h, w) = (geom.in_h, geom.in_w);
        let cin_g = self.in_channels / self.groups;
        let cout_g = self.out_channels / self.groups;
        let col_rows = geom.col_rows(cin_g);
        let positions = geom.out_positions();
        // Reused scratch (stale contents fine): `cols` is fully written by
        // im2col, `wt` is fully written per group below, `dcols` is zeroed
        // before each accumulate-GEMM and `dwt` at each group start. Slot 0
        // is the same buffer `forward` uses for `cols` — same length, so no
        // growth between passes.
        let [cols, dcols, wt, dwt] = self.workspace.buffers([
            col_rows * positions,
            col_rows * positions,
            col_rows * cout_g,
            col_rows * cout_g,
        ]);
        let img_len = self.in_channels * h * w;
        let n = x.len() / img_len;
        for g in 0..self.groups {
            let w_g =
                &self.weight.value.as_slice()[g * cout_g * col_rows..(g + 1) * cout_g * col_rows];
            transpose(w_g, cout_g, col_rows, wt);
            // dW_g += go [cout_g, P] x cols^T [P, col_rows], computed in its
            // transposed form dW_g^T += cols [col_rows, P] x go^T [P, cout_g]
            // (`go` read transposed as it lies) so the GEMM does the
            // reduction over positions; `dwt` accumulates across the batch
            // and is scattered into the gradient once per group.
            dwt.fill(0.0);
            for i in 0..n {
                let image = &x.as_slice()[i * img_len..(i + 1) * img_len];
                let gin = &image[g * cin_g * h * w..(g + 1) * cin_g * h * w];
                im2col(gin, cin_g, geom, cols).expect("geometry verified in forward");
                let go_base = i * self.out_channels * positions + g * cout_g * positions;
                let go = &grad_out.as_slice()[go_base..go_base + cout_g * positions];
                let db = &mut self.bias.grad.as_mut_slice()[g * cout_g..(g + 1) * cout_g];
                add_row_sums(go, positions, db);
                gemm_nt(col_rows, cout_g, positions, cols, go, dwt);
                // dcols = W^T x go, then scatter with col2im
                dcols.fill(0.0);
                gemm(col_rows, positions, cout_g, wt, go, dcols);
                let dgin = &mut dx.as_mut_slice()
                    [i * img_len + g * cin_g * h * w..i * img_len + (g + 1) * cin_g * h * w];
                col2im(dcols, cin_g, geom, dgin).expect("geometry verified in forward");
            }
            let dwg = &mut self.weight.grad.as_mut_slice()
                [g * cout_g * col_rows..(g + 1) * cout_g * col_rows];
            add_transposed(dwt, col_rows, cout_g, dwg);
        }
    }
}

/// `sums[r] += Σ_p rows[r, p]` — the bias gradient of one sample. Each sum is
/// sequential over `p` (as `Iterator::sum`, from -0.0), one chain of
/// dependent adds; several rows' chains run side by side ([`chain_blocks`]),
/// which reorders nothing within a chain.
fn add_row_sums(rows: &[f32], row_len: usize, sums: &mut [f32]) {
    fn together<const T: usize>(block: &[f32], row_len: usize, out: &mut [f32]) {
        let lanes: [&[f32]; T] = std::array::from_fn(|l| &block[l * row_len..(l + 1) * row_len]);
        let mut acc = [-0.0f32; T];
        for p in 0..row_len {
            for (a, lane) in acc.iter_mut().zip(&lanes) {
                *a += lane[p];
            }
        }
        for (o, a) in out.iter_mut().zip(acc) {
            *o += a;
        }
    }
    for (first, width) in chain_blocks(sums.len()) {
        let (block, out) = (&rows[first * row_len..], &mut sums[first..]);
        match width {
            8 => together::<8>(block, row_len, out),
            4 => together::<4>(block, row_len, out),
            _ => together::<1>(block, row_len, out),
        }
    }
}

/// `dst[c, r] = src[r, c]` for a row-major `rows x cols` `src`.
fn transpose(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    for (r, row) in src.chunks_exact(cols).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            dst[c * rows + r] = v;
        }
    }
}

/// `dst[c, r] += src[r, c]` for a row-major `rows x cols` `src`.
fn add_transposed(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    for (c, drow) in dst.chunks_exact_mut(rows).enumerate() {
        for (r, d) in drow.iter_mut().enumerate() {
            *d += src[r * cols + c];
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "conv2d expects NCHW input, got {dims:?}");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        assert_eq!(c, self.in_channels, "conv2d channel mismatch");
        let geom = self.geometry(h, w);
        let mut out = Tensor::zeros(&[n, self.out_channels, geom.out_h, geom.out_w]);
        if self.is_depthwise() {
            depthwise_forward(
                x.as_slice(),
                c,
                &geom,
                self.weight.value.as_slice(),
                self.bias.value.as_slice(),
                out.as_mut_slice(),
            );
        } else if self.is_pointwise() {
            self.forward_pointwise(x, geom.out_positions(), &mut out);
        } else {
            self.forward_lowered(x, &geom, &mut out);
        }
        match (&mut self.cached_input, mode) {
            // Same shape as last step: keep the allocation, replace the data.
            (Some(cached), Mode::Train) if cached.dims() == dims => {
                cached.as_mut_slice().copy_from_slice(x.as_slice());
            }
            (slot, Mode::Train) => *slot = Some(x.clone()),
            (slot, Mode::Eval) => *slot = None,
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // Taken out for the duration so the helpers can borrow `self`
        // mutably; put back below (a second backward may follow).
        let x = self
            .cached_input
            .take()
            .expect("conv2d backward called before forward (Train mode)");
        let dims = x.dims();
        let (n, h, w) = (dims[0], dims[2], dims[3]);
        let geom = self.geometry(h, w);
        assert_eq!(
            grad_out.dims(),
            &[n, self.out_channels, geom.out_h, geom.out_w],
            "conv2d backward gradient shape mismatch"
        );
        let mut dx = Tensor::zeros(dims);
        if self.is_depthwise() {
            depthwise_backward(
                x.as_slice(),
                self.in_channels,
                &geom,
                self.weight.value.as_slice(),
                grad_out.as_slice(),
                self.weight.grad.as_mut_slice(),
                self.bias.grad.as_mut_slice(),
                dx.as_mut_slice(),
            );
        } else if self.is_pointwise() {
            self.backward_pointwise(&x, grad_out, geom.out_positions(), &mut dx);
        } else {
            self.backward_lowered(&x, grad_out, &geom, &mut dx);
        }
        self.cached_input = Some(x);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn release(&mut self) {
        self.cached_input = None;
        self.workspace = Workspace::new();
    }

    fn cache_bytes(&self) -> usize {
        let cached = self.cached_input.as_ref().map_or(0, Tensor::len);
        (cached + self.workspace.capacity()) * std::mem::size_of::<f32>()
    }

    fn flops(&self, input: &[usize]) -> u64 {
        let geom = self.geometry(input[1], input[2]);
        let cin_g = self.in_channels / self.groups;
        // MACs: out_positions * out_channels * (cin_g * k * k)
        (geom.out_positions() * self.out_channels * cin_g * self.kernel * self.kernel) as u64
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        let geom = self.geometry(input[1], input[2]);
        vec![self.out_channels, geom.out_h, geom.out_w]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad_check_input;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(3, 6, 3, 1, 1, 1, 1, &mut rng);
        let x = Tensor::randn(&[2, 3, 5, 5], 1.0, &mut rng);
        assert_eq!(conv.forward(&x, Mode::Eval).dims(), &[2, 6, 5, 5]);
        let mut strided = Conv2d::new(3, 6, 3, 2, 1, 1, 1, &mut rng);
        assert_eq!(strided.forward(&x, Mode::Eval).dims(), &[2, 6, 3, 3]);
    }

    #[test]
    fn known_value_1x1() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv2d::new(2, 1, 1, 1, 0, 1, 1, &mut rng);
        // set weight to [1, 2], bias to 0.5
        conv.weight.value = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        conv.bias.value = Tensor::from_vec(vec![0.5], &[1]).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 1, 2]).unwrap();
        let y = conv.forward(&x, Mode::Eval);
        // out = 1*x_c0 + 2*x_c1 + 0.5
        assert_eq!(
            y.as_slice(),
            &[1.0 + 2.0 * 3.0 + 0.5, 2.0 + 2.0 * 4.0 + 0.5]
        );
    }

    #[test]
    fn depthwise_groups_keep_channels_independent() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = Conv2d::new(2, 2, 1, 1, 0, 1, 2, &mut rng);
        conv.weight.value = Tensor::from_vec(vec![2.0, 3.0], &[2, 1]).unwrap();
        conv.bias.value.fill(0.0);
        let x = Tensor::from_vec(vec![1.0, 10.0], &[1, 2, 1, 1]).unwrap();
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[2.0, 30.0]);
    }

    #[test]
    fn depthwise_and_pointwise_request_no_column_buffers() {
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::randn(&[2, 4, 6, 6], 1.0, &mut rng);
        // depthwise: direct kernels, no workspace at all
        let mut dw = Conv2d::new(4, 4, 5, 1, 4, 2, 4, &mut rng);
        let y = dw.forward(&x, Mode::Train);
        dw.backward(&Tensor::ones(y.dims()));
        assert_eq!(dw.workspace.capacity(), 0);
        // pointwise: W^T and dW^T for the GEMMs, nothing `positions` wide
        let mut pw = Conv2d::new(4, 3, 1, 1, 0, 1, 1, &mut rng);
        let y = pw.forward(&x, Mode::Train);
        assert_eq!(pw.workspace.capacity(), 0);
        pw.backward(&Tensor::ones(y.dims()));
        assert_eq!(pw.workspace.capacity(), 4 * 3 + 4 * 3);
    }

    #[test]
    fn forward_keeps_its_backward_cache_allocation() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut conv = Conv2d::new(2, 2, 3, 1, 1, 1, 1, &mut rng);
        let cached = |conv: &Conv2d| conv.cached_input.as_ref().map(|t| t.as_slice().as_ptr());
        let x1 = Tensor::randn(&[2, 2, 4, 4], 1.0, &mut rng);
        let x2 = Tensor::randn(&[2, 2, 4, 4], 1.0, &mut rng);
        conv.forward(&x1, Mode::Train);
        let first = cached(&conv);
        conv.forward(&x2, Mode::Train);
        assert_eq!(cached(&conv), first, "same shape: same allocation");
        assert_eq!(conv.cached_input.as_ref().unwrap(), &x2, "new contents");
        conv.backward(&Tensor::ones(&[2, 2, 4, 4]));
        assert_eq!(cached(&conv), first, "backward hands the cache back");
        conv.forward(&x1, Mode::Eval);
        assert!(conv.cached_input.is_none());
    }

    /// `release` drops the backward cache and the workspace of every
    /// lowering — dense, strided 1x1, pointwise, depthwise — and the next
    /// step is a fresh layer's, bit for bit.
    #[test]
    fn release_drops_the_cache_and_the_workspace() {
        let mut rng = StdRng::seed_from_u64(11);
        let x = Tensor::randn(&[2, 4, 6, 6], 1.0, &mut rng);
        let y = Tensor::randn(&[2, 4, 6, 6], 1.0, &mut rng);
        for conv in [
            Conv2d::new(4, 3, 3, 1, 1, 1, 1, &mut rng),
            Conv2d::new(4, 4, 1, 2, 0, 1, 1, &mut rng),
            Conv2d::new(4, 3, 1, 1, 0, 1, 1, &mut rng),
            Conv2d::new(4, 4, 5, 1, 4, 2, 4, &mut rng),
        ] {
            crate::check_release(conv, &x, &y, |conv| {
                assert!(conv.cached_input.is_none());
                assert_eq!(conv.workspace.capacity(), 0);
            });
        }
    }

    #[test]
    fn grad_check_dense() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let err = grad_check_input(&mut conv, &x, 1e-2);
        assert!(err < 1e-2, "input grad error {err}");
    }

    #[test]
    fn grad_check_strided_dilated_grouped() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut conv = Conv2d::new(4, 4, 3, 2, 2, 2, 2, &mut rng);
        let x = Tensor::randn(&[2, 4, 6, 6], 1.0, &mut rng);
        let err = grad_check_input(&mut conv, &x, 1e-2);
        assert!(err < 1e-2, "input grad error {err}");
    }

    #[test]
    fn weight_grad_check() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut conv = Conv2d::new(2, 2, 3, 1, 1, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let out = conv.forward(&x, Mode::Train);
        conv.backward(&Tensor::ones(out.dims()));
        let analytic = conv.weight.grad.clone();
        let eps = 1e-2f32;
        for idx in [0usize, 5, 17, analytic.len() - 1] {
            let orig = conv.weight.value.as_slice()[idx];
            conv.weight.value.as_mut_slice()[idx] = orig + eps;
            let fp = conv.forward(&x, Mode::Eval).sum();
            conv.weight.value.as_mut_slice()[idx] = orig - eps;
            let fm = conv.forward(&x, Mode::Eval).sum();
            conv.weight.value.as_mut_slice()[idx] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - analytic.as_slice()[idx]).abs() < 1e-2,
                "weight grad mismatch at {idx}: {num} vs {}",
                analytic.as_slice()[idx]
            );
        }
    }

    #[test]
    fn flops_and_output_shape() {
        let mut rng = StdRng::seed_from_u64(7);
        let conv = Conv2d::new(3, 8, 3, 1, 1, 1, 1, &mut rng);
        assert_eq!(conv.output_shape(&[3, 8, 8]), vec![8, 8, 8]);
        assert_eq!(conv.flops(&[3, 8, 8]), (8 * 8 * 8 * 3 * 9) as u64);
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, 1, 1, &mut rng);
        assert_eq!(conv.param_count(), 8 * 3 * 9 + 8);
    }
}
