//! Batch normalization.

use crate::layer::{Layer, Mode, Param};
use fedrlnas_tensor::Tensor;

/// 2-D batch normalization over NCHW tensors with learnable affine
/// parameters and running statistics for evaluation.
///
/// Every convolutional candidate operation in the DARTS space ends with a
/// BatchNorm; the paper's supernet therefore carries per-(edge, op)
/// normalization state that travels with the sub-model weights.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    // backward cache
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    dims: Vec<usize>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps with
    /// `gamma = 1`, `beta = 0`, `eps = 1e-5` and running-stat momentum 0.1.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            cache: None,
        }
    }

    /// Channel count this layer normalizes.
    pub fn channels(&self) -> usize {
        self.channels
    }
}

/// `(first, width)` blocks covering channels `0..c` for a reduction that
/// advances `width` neighbouring channels at once: eight wide while eight are
/// left, then four, then one by one.
///
/// A channel's sums are sequential — each is one chain of dependent adds over
/// `(sample, position)` in order, and reordering a chain would change its
/// rounding — but different channels' chains are independent, so running
/// several side by side fills the adders' pipelines without touching any
/// chain's order. Eight scalar chains (two operands each) are what the
/// sixteen baseline registers hold; sixteen spill and run slower than four.
pub(crate) fn chain_blocks(c: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut first = 0;
    std::iter::from_fn(move || {
        let width = match c - first {
            0 => return None,
            8.. => 8,
            4.. => 4,
            _ => 1,
        };
        first += width;
        Some((first - width, width))
    })
}

/// Sample `i`'s planes of the `G` channels from `first` on.
fn planes<const G: usize>(
    t: &[f32],
    (c, plane): (usize, usize),
    i: usize,
    first: usize,
) -> [&[f32]; G] {
    std::array::from_fn(|l| &t[(i * c + first + l) * plane..][..plane])
}

/// Batch `(mean, biased variance)` of every channel of the NCHW `x`.
fn batch_stats(x: &[f32], n: usize, c: usize, plane: usize) -> Vec<(f32, f32)> {
    fn of<const G: usize>(
        x: &[f32],
        n: usize,
        dims: (usize, usize),
        first: usize,
    ) -> [(f32, f32); G] {
        let plane = dims.1;
        let count = (n * plane) as f32;
        let mut mean = [0.0f32; G];
        for i in 0..n {
            let rows = planes::<G>(x, dims, i, first);
            // `Iterator::sum` of `f32`, which this replaces, starts from -0.0.
            let mut sum = [-0.0f32; G];
            for j in 0..plane {
                for (s, row) in sum.iter_mut().zip(&rows) {
                    *s += row[j];
                }
            }
            for (m, s) in mean.iter_mut().zip(sum) {
                *m += s;
            }
        }
        mean.iter_mut().for_each(|m| *m /= count);
        let mut var = [0.0f32; G];
        for i in 0..n {
            let rows = planes::<G>(x, dims, i, first);
            for j in 0..plane {
                for ((v, row), m) in var.iter_mut().zip(&rows).zip(&mean) {
                    let d = row[j] - m;
                    *v += d * d;
                }
            }
        }
        std::array::from_fn(|l| (mean[l], var[l] / count))
    }
    let mut stats = Vec::with_capacity(c);
    for (first, width) in chain_blocks(c) {
        match width {
            8 => stats.extend(of::<8>(x, n, (c, plane), first)),
            4 => stats.extend(of::<4>(x, n, (c, plane), first)),
            _ => stats.extend(of::<1>(x, n, (c, plane), first)),
        }
    }
    stats
}

/// Per channel `(Σ dout, Σ dout · x_hat)` over the batch.
fn grad_sums(dout: &[f32], x_hat: &[f32], n: usize, c: usize, plane: usize) -> Vec<(f32, f32)> {
    fn of<const G: usize>(
        dout: &[f32],
        x_hat: &[f32],
        n: usize,
        dims: (usize, usize),
        first: usize,
    ) -> [(f32, f32); G] {
        let mut sums = [(0.0f32, 0.0f32); G];
        for i in 0..n {
            let d_rows = planes::<G>(dout, dims, i, first);
            let x_rows = planes::<G>(x_hat, dims, i, first);
            for j in 0..dims.1 {
                for ((sum, d_row), x_row) in sums.iter_mut().zip(&d_rows).zip(&x_rows) {
                    let d = d_row[j];
                    sum.0 += d;
                    sum.1 += d * x_row[j];
                }
            }
        }
        sums
    }
    let mut sums = Vec::with_capacity(c);
    for (first, width) in chain_blocks(c) {
        match width {
            8 => sums.extend(of::<8>(dout, x_hat, n, (c, plane), first)),
            4 => sums.extend(of::<4>(dout, x_hat, n, (c, plane), first)),
            _ => sums.extend(of::<1>(dout, x_hat, n, (c, plane), first)),
        }
    }
    sums
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "batchnorm expects NCHW");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        assert_eq!(c, self.channels, "batchnorm channel mismatch");
        let plane = h * w;
        let mut out = Tensor::zeros(dims);
        match mode {
            Mode::Train => {
                // Reuse the previous step's cache allocations when the
                // geometry is unchanged; every element is overwritten below.
                let (mut x_hat, mut inv_std) = match self.cache.take() {
                    Some(cache) if cache.dims == dims => (cache.x_hat, cache.inv_std),
                    _ => (Tensor::zeros(dims), vec![0.0f32; c]),
                };
                let stats = batch_stats(x.as_slice(), n, c, plane);
                for (ch, istd_slot) in inv_std.iter_mut().enumerate() {
                    let (mean, var) = stats[ch];
                    let istd = 1.0 / (var + self.eps).sqrt();
                    *istd_slot = istd;
                    self.running_mean[ch] =
                        (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean;
                    self.running_var[ch] =
                        (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var;
                    let g = self.gamma.value.as_slice()[ch];
                    let b = self.beta.value.as_slice()[ch];
                    for i in 0..n {
                        let at = (i * c + ch) * plane..(i * c + ch + 1) * plane;
                        for ((o, h), v) in out.as_mut_slice()[at.clone()]
                            .iter_mut()
                            .zip(&mut x_hat.as_mut_slice()[at.clone()])
                            .zip(&x.as_slice()[at])
                        {
                            let xh = (v - mean) * istd;
                            *h = xh;
                            *o = g * xh + b;
                        }
                    }
                }
                self.cache = Some(BnCache {
                    x_hat,
                    inv_std,
                    dims: dims.to_vec(),
                });
            }
            Mode::Eval => {
                for ch in 0..c {
                    let istd = 1.0 / (self.running_var[ch] + self.eps).sqrt();
                    let mean = self.running_mean[ch];
                    let g = self.gamma.value.as_slice()[ch];
                    let b = self.beta.value.as_slice()[ch];
                    for i in 0..n {
                        let at = (i * c + ch) * plane..(i * c + ch + 1) * plane;
                        for (o, v) in out.as_mut_slice()[at.clone()]
                            .iter_mut()
                            .zip(&x.as_slice()[at])
                        {
                            *o = g * (v - mean) * istd + b;
                        }
                    }
                }
                self.cache = None;
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .expect("batchnorm backward called before forward (Train mode)");
        let dims = &cache.dims;
        assert_eq!(
            grad_out.dims(),
            &dims[..],
            "batchnorm backward shape mismatch"
        );
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let plane = h * w;
        let count = (n * plane) as f32;
        let mut dx = Tensor::zeros(dims);
        let sums = grad_sums(grad_out.as_slice(), cache.x_hat.as_slice(), n, c, plane);
        for (ch, &(sum_dout, sum_dout_xhat)) in sums.iter().enumerate() {
            let g = self.gamma.value.as_slice()[ch];
            let istd = cache.inv_std[ch];
            self.beta.grad.as_mut_slice()[ch] += sum_dout;
            self.gamma.grad.as_mut_slice()[ch] += sum_dout_xhat;
            let scale = g * istd / count;
            for i in 0..n {
                let at = (i * c + ch) * plane..(i * c + ch + 1) * plane;
                for ((o, d), xh) in dx.as_mut_slice()[at.clone()]
                    .iter_mut()
                    .zip(&grad_out.as_slice()[at.clone()])
                    .zip(&cache.x_hat.as_slice()[at])
                {
                    *o = scale * (count * d - sum_dout - xh * sum_dout_xhat);
                }
            }
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }

    fn release(&mut self) {
        self.cache = None;
    }

    fn cache_bytes(&self) -> usize {
        self.cache.as_ref().map_or(0, |c| {
            (c.x_hat.len() + c.inv_std.capacity()) * std::mem::size_of::<f32>()
        })
    }

    fn flops(&self, input: &[usize]) -> u64 {
        2 * input.iter().product::<usize>() as u64
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        input.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn train_output_is_normalized() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::randn(&[4, 3, 5, 5], 3.0, &mut rng).map(|v| v + 10.0);
        let y = bn.forward(&x, Mode::Train);
        // per-channel mean ~ 0, var ~ 1
        for ch in 0..3 {
            let mut vals = vec![];
            for i in 0..4 {
                let base = (i * 3 + ch) * 25;
                vals.extend_from_slice(&y.as_slice()[base..base + 25]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(&[8, 2, 4, 4], 2.0, &mut rng).map(|v| v + 5.0);
        // warm up running stats
        for _ in 0..200 {
            bn.forward(&x, Mode::Train);
        }
        let y_eval = bn.forward(&x, Mode::Eval);
        let y_train = bn.forward(&x, Mode::Train);
        // after convergence of running stats the two outputs agree closely
        let diff: f32 = y_eval
            .as_slice()
            .iter()
            .zip(y_train.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(diff < 0.1, "eval/train divergence {diff}");
    }

    #[test]
    fn grad_check() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(&[3, 2, 3, 3], 1.0, &mut rng);
        // scalar objective sum(out) has zero gradient through the normalization
        // of a constant shift only when gamma == 1; perturb gamma/beta to make
        // the check non-trivial.
        bn.gamma.value = Tensor::from_vec(vec![1.3, 0.7], &[2]).unwrap();
        bn.beta.value = Tensor::from_vec(vec![0.2, -0.4], &[2]).unwrap();
        let err = crate::grad_check_input(&mut bn, &x, 5e-3);
        assert!(err < 2e-2, "bn grad error {err}");
    }

    #[test]
    fn affine_param_grads() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::randn(&[2, 1, 2, 2], 1.0, &mut rng);
        let y = bn.forward(&x, Mode::Train);
        bn.backward(&Tensor::ones(y.dims()));
        // d sum(y) / d beta = number of elements; d/d gamma = sum(x_hat) ~ 0
        assert!((bn.beta.grad.as_slice()[0] - 8.0).abs() < 1e-4);
        assert!(bn.gamma.grad.as_slice()[0].abs() < 1e-3);
    }

    #[test]
    fn release_drops_the_cache() {
        let mut rng = StdRng::seed_from_u64(4);
        let (x, y) = (
            Tensor::randn(&[2, 5, 3, 3], 1.0, &mut rng),
            Tensor::randn(&[2, 5, 3, 3], 1.0, &mut rng),
        );
        let mut bn = BatchNorm2d::new(5);
        bn.gamma.value = Tensor::randn(&[5], 1.0, &mut rng);
        crate::check_release(bn, &x, &y, |bn| assert!(bn.cache.is_none()));
    }
}
