//! Activation layers.

use crate::layer::{Layer, Mode};
use fedrlnas_tensor::Tensor;

/// Rectified linear unit, `max(0, x)`, applied element-wise.
///
/// Used in the ReLU-Conv-BN blocks of the DARTS candidate operations.
#[derive(Debug, Clone, Default)]
pub struct ReLU {
    mask: Vec<bool>,
}

impl ReLU {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for ReLU {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        // `f32::max(NaN, 0.0)` would return 0.0, silently swallowing NaN;
        // this form propagates NaN like PyTorch's relu
        let relu = |v: f32| if v < 0.0 { 0.0 } else { v };
        if mode != Mode::Train {
            return x.map(relu);
        }
        // One pass writes the output and the backward mask (whose allocation
        // is kept from step to step); each output element is written once.
        self.mask.resize(x.len(), false);
        let out: Vec<f32> = self
            .mask
            .iter_mut()
            .zip(x.as_slice())
            .map(|(keep, &v)| {
                *keep = v > 0.0;
                relu(v)
            })
            .collect();
        Tensor::from_vec(out, x.dims()).expect("one output per input")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(
            grad_out.len(),
            self.mask.len(),
            "relu backward called before forward or with wrong shape"
        );
        // A select per element, not a branch: about half the mask is set, in
        // no pattern a predictor could learn.
        let dx: Vec<f32> = grad_out
            .as_slice()
            .iter()
            .zip(&self.mask)
            .map(|(&g, &keep)| if keep { g } else { 0.0 })
            .collect();
        Tensor::from_vec(dx, grad_out.dims()).expect("one gradient per output")
    }

    fn release(&mut self) {
        self.mask = Vec::new();
    }

    fn cache_bytes(&self) -> usize {
        self.mask.capacity()
    }

    fn flops(&self, input: &[usize]) -> u64 {
        input.iter().product::<usize>() as u64
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        input.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = ReLU::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap();
        let y = relu.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = ReLU::new();
        let x = Tensor::from_vec(vec![-1.0, 3.0], &[2]).unwrap();
        relu.forward(&x, Mode::Train);
        let dx = relu.backward(&Tensor::ones(&[2]));
        assert_eq!(dx.as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn grad_check() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0);
        let mut relu = ReLU::new();
        // keep values away from the kink at 0 for finite differences
        let x =
            Tensor::randn(&[2, 3, 4, 4], 1.0, &mut rng)
                .map(|v| if v.abs() < 0.05 { 0.2 } else { v });
        let err = crate::grad_check_input(&mut relu, &x, 1e-3);
        assert!(err < 1e-2, "relu grad error {err}");
    }

    #[test]
    fn release_drops_the_mask() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        let (x, y) = (
            Tensor::randn(&[2, 3, 4, 4], 1.0, &mut rng),
            Tensor::randn(&[2, 3, 4, 4], 1.0, &mut rng),
        );
        crate::check_release(ReLU::new(), &x, &y, |relu| {
            assert_eq!(relu.mask.capacity(), 0)
        });
    }
}
