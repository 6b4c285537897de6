//! Pooling layers: max, average and global average pooling.

use crate::layer::{Layer, Mode};
use fedrlnas_tensor::{Conv2dGeometry, Tensor};

/// 2-D max pooling over NCHW tensors.
///
/// `max_pool_3x3` is one of the eight DARTS candidate operations; reduction
/// cells use `stride = 2`.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    padding: usize,
    // backward cache: flat input index of the max per output element
    argmax: Vec<usize>,
    in_dims: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max-pooling layer.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        assert!(kernel > 0 && stride > 0);
        MaxPool2d {
            kernel,
            stride,
            padding,
            argmax: Vec::new(),
            in_dims: Vec::new(),
        }
    }

    fn geometry(&self, h: usize, w: usize) -> Conv2dGeometry {
        Conv2dGeometry::new(h, w, self.kernel, self.stride, self.padding, 1)
    }
}

/// Writes the `w`-wide `image` into `plane` (rows `plane_w` wide), element
/// `(y, x)` at `(origin + y * step, origin + x * step)`; the rest of `plane`
/// is the caller's border and is left alone.
fn place(plane: &mut [f32], plane_w: usize, origin: usize, step: usize, image: &[f32], w: usize) {
    for (y, src) in image.chunks_exact(w).enumerate() {
        let at = (origin + y * step) * plane_w + origin;
        if step == 1 {
            plane[at..at + w].copy_from_slice(src);
        } else {
            for (d, &v) in plane[at..].iter_mut().step_by(step).zip(src) {
                *d = v;
            }
        }
    }
}

/// Marks a window position that no tap has claimed yet in [`scan_tap`]'s
/// `winner`.
const UNCLAIMED: u32 = u32::MAX;

/// One tap of the pooling window against every window position at once:
/// position `q` takes `vals[q]`, and records `tap` as its winner, if that
/// beats its running `best`. NaN inputs propagate (matching PyTorch) instead
/// of silently vanishing to -inf: a NaN always takes over, and nothing but a
/// later NaN beats it.
fn scan_tap(best: &mut [f32], winner: &mut [u32], vals: &[f32], tap: u32) {
    for ((b, t), &v) in best.iter_mut().zip(winner.iter_mut()).zip(vals) {
        // All ones if `v` takes over. Blending bits keeps this a select: as
        // `if take { .. }` it compiles to a branch per element, and which
        // neighbour holds the maximum is not something a predictor learns.
        let take = (((v > *b) | v.is_nan()) as u32).wrapping_neg();
        *b = f32::from_bits((v.to_bits() & take) | (b.to_bits() & !take));
        *t = (tap & take) | (*t & !take);
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "maxpool expects NCHW");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let geom = self.geometry(h, w);
        let (out_h, out_w) = (geom.out_h, geom.out_w);
        let (k, stride, pad) = (self.kernel, self.stride, self.padding);
        let mut out = Tensor::zeros(&[n, c, out_h, out_w]);
        // Reuse the argmax cache allocation across steps; only Train mode
        // records it (Eval forwards leave the previous cache untouched).
        let track = mode == Mode::Train;
        if track {
            self.argmax.resize(out.len(), 0);
        }
        // Each plane is copied inside a border of -inf, which no comparison
        // lets win, so a tap needs no bounds test; and each tap is scanned
        // against the window at *every* position of the bordered plane in one
        // flat run (`stride` only picks which positions are outputs). Every
        // output still sees its taps in (ky, kx) order.
        let (ph, pw) = (h + 2 * pad, w + 2 * pad);
        let run = (ph - k) * pw + (pw - k) + 1;
        let mut bordered = vec![f32::NEG_INFINITY; ph * pw];
        let mut best = vec![0.0f32; run];
        let mut winner = vec![0u32; run];
        // Tap `t` of a window is `tap_index[t]` input elements past the
        // window's origin.
        let tap_index: Vec<usize> = (0..k * k).map(|t| (t / k) * w + t % k).collect();
        for (p, plane) in x.as_slice().chunks_exact(h * w).enumerate() {
            place(&mut bordered, pw, pad, 1, plane, w);
            best.fill(f32::NEG_INFINITY);
            winner.fill(UNCLAIMED);
            for t in 0..k * k {
                let off = (t / k) * pw + t % k;
                scan_tap(&mut best, &mut winner, &bordered[off..off + run], t as u32);
            }
            for oy in 0..out_h {
                let o = (p * out_h + oy) * out_w;
                let picks = (oy * stride * pw..).step_by(stride).take(out_w);
                for (ox, q) in picks.enumerate() {
                    out.as_mut_slice()[o + ox] = best[q];
                    if track {
                        // Window origin in the input, border removed last so
                        // the sum never dips below zero. A window nothing
                        // claimed (all -inf) keeps the index 0 it has always
                        // reported.
                        let origin = p * h * w + oy * stride * w + ox * stride;
                        self.argmax[o + ox] = match winner[q] {
                            UNCLAIMED => 0,
                            t => origin + tap_index[t as usize] - (pad * w + pad),
                        };
                    }
                }
            }
        }
        if track {
            self.in_dims.clear();
            self.in_dims.extend_from_slice(dims);
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(
            grad_out.len(),
            self.argmax.len(),
            "maxpool backward called before forward or shape mismatch"
        );
        let mut dx = Tensor::zeros(&self.in_dims);
        for (g, &idx) in grad_out.as_slice().iter().zip(self.argmax.iter()) {
            dx.as_mut_slice()[idx] += g;
        }
        dx
    }

    fn release(&mut self) {
        self.argmax = Vec::new();
        self.in_dims = Vec::new();
    }

    fn cache_bytes(&self) -> usize {
        self.argmax.capacity() * std::mem::size_of::<usize>()
    }

    fn flops(&self, input: &[usize]) -> u64 {
        let geom = self.geometry(input[1], input[2]);
        (input[0] * geom.out_positions() * self.kernel * self.kernel) as u64
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        let geom = self.geometry(input[1], input[2]);
        vec![input[0], geom.out_h, geom.out_w]
    }
}

/// 2-D average pooling over NCHW tensors, excluding padded cells from the
/// divisor (PyTorch `count_include_pad=False`, as used by DARTS).
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    kernel: usize,
    stride: usize,
    padding: usize,
    in_dims: Vec<usize>,
}

impl AvgPool2d {
    /// Creates an average-pooling layer.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        assert!(kernel > 0 && stride > 0);
        AvgPool2d {
            kernel,
            stride,
            padding,
            in_dims: Vec::new(),
        }
    }

    fn geometry(&self, h: usize, w: usize) -> Conv2dGeometry {
        Conv2dGeometry::new(h, w, self.kernel, self.stride, self.padding, 1)
    }

    /// Kernel offsets whose input coordinate is in bounds for the window at
    /// output position `o` along one axis of extent `extent`.
    fn axis_range(&self, extent: usize, o: usize) -> std::ops::Range<usize> {
        let start = o * self.stride; // input coord = start + k - padding
        let lo = self.padding.saturating_sub(start);
        let hi = (extent + self.padding)
            .saturating_sub(start)
            .min(self.kernel);
        lo..hi.max(lo)
    }

    /// What each output's window sum is divided by: its in-bounds cells (1
    /// for a window that lies in the padding altogether).
    fn divisors(&self, h: usize, w: usize, geom: &Conv2dGeometry) -> Vec<f32> {
        let mut divisor = Vec::with_capacity(geom.out_positions());
        for oy in 0..geom.out_h {
            let rows = self.axis_range(h, oy).len();
            divisor.extend(
                (0..geom.out_w).map(|ox| (rows * self.axis_range(w, ox).len()).max(1) as f32),
            );
        }
        divisor
    }
}

impl Layer for AvgPool2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "avgpool expects NCHW");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let geom = self.geometry(h, w);
        let (k, stride, pad) = (self.kernel, self.stride, self.padding);
        let mut out = Tensor::zeros(&[n, c, geom.out_h, geom.out_w]);
        // As in `MaxPool2d::forward`: the plane inside a border (of zeros —
        // a sum that starts at +0.0 is never -0.0, so adding them changes no
        // bit), each tap added to the window sum at every position in one
        // flat run, taps in (ky, kx) order.
        let (ph, pw) = (h + 2 * pad, w + 2 * pad);
        let run = (ph - k) * pw + (pw - k) + 1;
        let mut bordered = vec![0.0f32; ph * pw];
        let mut sums = vec![0.0f32; run];
        let divisor = self.divisors(h, w, &geom);
        for (plane, oplane) in x
            .as_slice()
            .chunks_exact(h * w)
            .zip(out.as_mut_slice().chunks_exact_mut(geom.out_positions()))
        {
            place(&mut bordered, pw, pad, 1, plane, w);
            sums.fill(0.0);
            for t in 0..k * k {
                let off = (t / k) * pw + t % k;
                for (s, v) in sums.iter_mut().zip(&bordered[off..off + run]) {
                    *s += v;
                }
            }
            for (oy, orow) in oplane.chunks_exact_mut(geom.out_w).enumerate() {
                let picks = sums[oy * stride * pw..].iter().step_by(stride);
                for (o, sum) in orow.iter_mut().zip(picks) {
                    *o = *sum;
                }
            }
            for (o, d) in oplane.iter_mut().zip(&divisor) {
                *o /= d;
            }
        }
        if mode == Mode::Train {
            self.in_dims = dims.to_vec();
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(
            !self.in_dims.is_empty(),
            "avgpool backward called before forward"
        );
        let (h, w) = (self.in_dims[2], self.in_dims[3]);
        let geom = self.geometry(h, w);
        let (k, stride, pad) = (self.kernel, self.stride, self.padding);
        let mut dx = Tensor::zeros(&self.in_dims);
        // dx[y] = Σ_ky share[(y + pad - ky) / stride]: with each output's
        // share spread `stride` apart from row `lead` of a zeroed plane, tap
        // `ky` of dx row `y` reads row `y + flip - ky`, never negative. An
        // input collects its shares in (oy, ox) order, i.e. taps descending.
        let lead = (k - 1).saturating_sub(pad);
        let flip = pad + lead;
        let extent =
            |input: usize, output: usize| (input + flip).max(lead + (output - 1) * stride + 1);
        let (gh, gw) = (extent(h, geom.out_h), extent(w, geom.out_w));
        let run = (h - 1) * gw + w;
        let mut spread = vec![0.0f32; gh * gw];
        let mut shares = vec![0.0f32; geom.out_positions()];
        let mut sums = vec![0.0f32; run];
        let divisor = self.divisors(h, w, &geom);
        for (go, dplane) in grad_out
            .as_slice()
            .chunks_exact(geom.out_positions())
            .zip(dx.as_mut_slice().chunks_exact_mut(h * w))
        {
            for ((s, g), d) in shares.iter_mut().zip(go).zip(&divisor) {
                *s = g / d;
            }
            place(&mut spread, gw, lead, stride, &shares, geom.out_w);
            sums.fill(0.0);
            for t in (0..k * k).rev() {
                let off = (flip - t / k) * gw + flip - t % k;
                for (s, v) in sums.iter_mut().zip(&spread[off..off + run]) {
                    *s += v;
                }
            }
            for (drow, srow) in dplane.chunks_exact_mut(w).zip(sums.chunks(gw)) {
                drow.copy_from_slice(&srow[..w]);
            }
        }
        dx
    }

    fn flops(&self, input: &[usize]) -> u64 {
        let geom = self.geometry(input[1], input[2]);
        (input[0] * geom.out_positions() * self.kernel * self.kernel) as u64
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        let geom = self.geometry(input[1], input[2]);
        vec![input[0], geom.out_h, geom.out_w]
    }
}

/// Global average pooling: NCHW → NC, used before the final classifier.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    in_dims: Vec<usize>,
}

impl GlobalAvgPool {
    /// Creates a global-average-pooling layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "global avg pool expects NCHW");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let plane = h * w;
        let mut out = Tensor::zeros(&[n, c]);
        for i in 0..n {
            for ch in 0..c {
                let base = (i * c + ch) * plane;
                out.as_mut_slice()[i * c + ch] =
                    x.as_slice()[base..base + plane].iter().sum::<f32>() / plane as f32;
            }
        }
        if mode == Mode::Train {
            self.in_dims = dims.to_vec();
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(
            !self.in_dims.is_empty(),
            "global avg pool backward called before forward"
        );
        let (n, c, h, w) = (
            self.in_dims[0],
            self.in_dims[1],
            self.in_dims[2],
            self.in_dims[3],
        );
        let plane = h * w;
        let mut dx = Tensor::zeros(&self.in_dims);
        for i in 0..n {
            for ch in 0..c {
                let g = grad_out.as_slice()[i * c + ch] / plane as f32;
                let base = (i * c + ch) * plane;
                dx.as_mut_slice()[base..base + plane].fill(g);
            }
        }
        dx
    }

    fn flops(&self, input: &[usize]) -> u64 {
        input.iter().product::<usize>() as u64
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        vec![input[0]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn maxpool_known_values() {
        let mut pool = MaxPool2d::new(2, 2, 0);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = pool.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn maxpool_release_drops_the_argmax() {
        let mut rng = StdRng::seed_from_u64(2);
        let (x, y) = (
            Tensor::randn(&[2, 3, 5, 5], 1.0, &mut rng),
            Tensor::randn(&[2, 3, 5, 5], 1.0, &mut rng),
        );
        crate::check_release(MaxPool2d::new(3, 2, 1), &x, &y, |pool| {
            assert_eq!(pool.argmax.capacity(), 0);
            assert!(pool.in_dims.is_empty());
        });
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new(2, 2, 0);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        pool.forward(&x, Mode::Train);
        let dx = pool.backward(&Tensor::ones(&[1, 1, 1, 1]));
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn avgpool_same_stride1_keeps_shape() {
        let mut pool = AvgPool2d::new(3, 1, 1);
        let x = Tensor::ones(&[1, 2, 4, 4]);
        let y = pool.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[1, 2, 4, 4]);
        // with count_include_pad=false, averaging ones gives ones everywhere
        for v in y.as_slice() {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn avgpool_grad_check() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut pool = AvgPool2d::new(3, 2, 1);
        let x = Tensor::randn(&[2, 2, 5, 5], 1.0, &mut rng);
        let err = crate::grad_check_input(&mut pool, &x, 1e-3);
        assert!(err < 1e-2, "avgpool grad error {err}");
    }

    #[test]
    fn global_avg_pool_and_grad() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::randn(&[2, 3, 4, 4], 1.0, &mut rng);
        let y = pool.forward(&x, Mode::Train);
        assert_eq!(y.dims(), &[2, 3]);
        let err = crate::grad_check_input(&mut pool, &x, 1e-3);
        assert!(err < 1e-2, "gap grad error {err}");
    }

    #[test]
    fn strided_output_shapes() {
        let pool = MaxPool2d::new(3, 2, 1);
        assert_eq!(pool.output_shape(&[8, 8, 8]), vec![8, 4, 4]);
        let pool = AvgPool2d::new(3, 2, 1);
        assert_eq!(pool.output_shape(&[8, 7, 7]), vec![8, 4, 4]);
    }
}
