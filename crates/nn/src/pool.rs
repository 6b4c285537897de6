//! Pooling layers: max, average and global average pooling.
//!
//! Max and average pooling run on the depthwise convolution's window
//! kernels (`fedrlnas_tensor`'s `depthwise` module): each channel's planes
//! across the batch are copied inside a border (of `-inf` or of zeros), at
//! stride 2 in row and column phases so that only the outputs are computed,
//! and every output still sees its taps in `(ky, kx)` order, so the outputs
//! are bit-identical to a loop over windows. Average pooling is the depthwise
//! forward at unit weights and zero bias, then a divide, and its backward
//! is [`window_sum_backward`] of each output's share; max pooling is
//! [`window_max`], whose argmax this layer keeps for its backward scatter.

use crate::layer::{Layer, Mode};
use fedrlnas_tensor::{depthwise_forward, window_max, window_sum_backward, Conv2dGeometry, Tensor};

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
    argmax: Vec<u32>,
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

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "maxpool expects NCHW");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let geom = self.geometry(h, w);
        let mut out = vec![0.0f32; n * c * geom.out_positions()];
        // Reuse the argmax cache allocation across steps; only Train mode
        // records it (Eval forwards leave the previous cache untouched).
        let argmax = if mode == Mode::Train {
            self.argmax.resize(out.len(), 0);
            self.in_dims.clear();
            self.in_dims.extend_from_slice(dims);
            Some(&mut self.argmax[..])
        } else {
            None
        };
        window_max(x.as_slice(), c, &geom, &mut out, argmax);
        Tensor::from_vec(out, &[n, c, geom.out_h, geom.out_w]).expect("one output per window")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(
            grad_out.len(),
            self.argmax.len(),
            "maxpool backward called before forward or shape mismatch"
        );
        let mut dx = Tensor::zeros(&self.in_dims);
        let dxs = dx.as_mut_slice();
        for (g, &idx) in grad_out.as_slice().iter().zip(&self.argmax) {
            dxs[idx as usize] += g;
        }
        dx
    }

    fn release(&mut self) {
        self.argmax = Vec::new();
        self.in_dims = Vec::new();
    }

    fn cache_bytes(&self) -> usize {
        self.argmax.capacity() * std::mem::size_of::<u32>()
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

    /// Divides each output (of every plane of `values`) by its window's
    /// in-bounds cells (1 for a window that lies in the padding altogether).
    fn divide(&self, h: usize, w: usize, geom: &Conv2dGeometry, values: &mut [f32]) {
        let rows = (0..geom.out_h).map(|oy| self.axis_range(h, oy).len());
        let divisor: Vec<f32> = rows
            .flat_map(|rows| {
                (0..geom.out_w).map(move |ox| (rows * self.axis_range(w, ox).len()).max(1) as f32)
            })
            .collect();
        for plane in values.chunks_exact_mut(divisor.len()) {
            for (v, d) in plane.iter_mut().zip(&divisor) {
                *v /= d;
            }
        }
    }
}

impl Layer for AvgPool2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "avgpool expects NCHW");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let geom = self.geometry(h, w);
        // The window sums are the depthwise forward at unit weights and zero
        // bias: `1 · v` is `v`, and the sum starts at `+0.0`, to which the
        // zero border adds nothing.
        let (ones, zeros) = (vec![1.0; c * self.kernel * self.kernel], vec![0.0; c]);
        let mut out = vec![0.0f32; n * c * geom.out_positions()];
        depthwise_forward(x.as_slice(), c, &geom, &ones, &zeros, &mut out);
        self.divide(h, w, &geom, &mut out);
        if mode == Mode::Train {
            self.in_dims.clear();
            self.in_dims.extend_from_slice(dims);
        }
        Tensor::from_vec(out, &[n, c, geom.out_h, geom.out_w]).expect("one output per window")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(
            !self.in_dims.is_empty(),
            "avgpool backward called before forward"
        );
        let (c, h, w) = (self.in_dims[1], self.in_dims[2], self.in_dims[3]);
        let geom = self.geometry(h, w);
        // Each output's share of its window's gradient, summed back over
        // the windows that hold an input in (oy, ox) order.
        let mut shares = grad_out.as_slice().to_vec();
        self.divide(h, w, &geom, &mut shares);
        let mut dx = vec![0.0f32; self.in_dims.iter().product()];
        window_sum_backward(&shares, c, &geom, &mut dx);
        Tensor::from_vec(dx, &self.in_dims).expect("one gradient per input")
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
        let out = (0..n * c)
            .map(|p| x.as_slice()[p * plane..][..plane].iter().sum::<f32>() / plane as f32)
            .collect();
        if mode == Mode::Train {
            self.in_dims.clear();
            self.in_dims.extend_from_slice(dims);
        }
        Tensor::from_vec(out, &[n, c]).expect("one output per plane")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(
            !self.in_dims.is_empty(),
            "global avg pool backward called before forward"
        );
        let planes = self.in_dims[0] * self.in_dims[1];
        let plane = self.in_dims[2] * self.in_dims[3];
        let mut dx = Vec::with_capacity(planes * plane);
        for &g in &grad_out.as_slice()[..planes] {
            dx.extend(std::iter::repeat_n(g / plane as f32, plane));
        }
        Tensor::from_vec(dx, &self.in_dims).expect("one gradient per input")
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
