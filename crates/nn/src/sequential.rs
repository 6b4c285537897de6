//! A sequential container of boxed layers.

use crate::layer::{Layer, Mode, Param};
use fedrlnas_tensor::Tensor;

/// A sequence of layers applied in order; backward runs in reverse.
///
/// The DARTS candidate operations (e.g. ReLU → depthwise conv → pointwise
/// conv → batch norm) are built as `Sequential` stacks.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({} layers)", self.layers.len())
    }
}

impl Sequential {
    /// Creates an empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer, returning `&mut self` for chaining.
    pub fn push(&mut self, layer: Box<dyn Layer>) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the container has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, mode);
        }
        cur
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut cur = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            cur = layer.backward(&cur);
        }
        cur
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        for layer in &mut self.layers {
            layer.visit_buffers(f);
        }
    }

    fn release(&mut self) {
        for layer in &mut self.layers {
            layer.release();
        }
    }

    fn cache_bytes(&self) -> usize {
        self.layers.iter().map(|layer| layer.cache_bytes()).sum()
    }

    fn flops(&self, input: &[usize]) -> u64 {
        let mut shape = input.to_vec();
        let mut total = 0u64;
        for layer in &self.layers {
            total += layer.flops(&shape);
            shape = layer.output_shape(&shape);
        }
        total
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        let mut shape = input.to_vec();
        for layer in &self.layers {
            shape = layer.output_shape(&shape);
        }
        shape
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, ReLU};
    use rand::{rngs::StdRng, SeedableRng};

    fn stack(rng: &mut StdRng) -> Sequential {
        let mut s = Sequential::new();
        s.push(Box::new(ReLU::new()))
            .push(Box::new(Conv2d::new(2, 4, 3, 1, 1, 1, 1, rng)))
            .push(Box::new(ReLU::new()));
        s
    }

    #[test]
    fn forward_composes_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = stack(&mut rng);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        assert_eq!(s.forward(&x, Mode::Eval).dims(), &[1, 4, 4, 4]);
        assert_eq!(s.output_shape(&[2, 4, 4]), vec![4, 4, 4]);
    }

    #[test]
    fn grad_check_through_stack() {
        // Seed chosen so the conv pre-activations feeding the second ReLU
        // clear the kink at 0 by a wide margin; central differences with
        // eps = 1e-2 otherwise straddle it and report a bogus error (the
        // input map below only protects the *first* ReLU).
        let mut rng = StdRng::seed_from_u64(10);
        let mut s = stack(&mut rng);
        let x =
            Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng)
                .map(|v| if v.abs() < 0.05 { 0.2 } else { v });
        let err = crate::grad_check_input(&mut s, &x, 1e-2);
        assert!(err < 2e-2, "sequential grad error {err}");
    }

    #[test]
    fn params_visited_in_order() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = stack(&mut rng);
        let mut count = 0;
        s.visit_params(&mut |_| count += 1);
        assert_eq!(count, 2); // conv weight + bias
        assert_eq!(s.param_count(), 4 * 2 * 9 + 4);
    }

    #[test]
    fn flops_accumulate() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = stack(&mut rng);
        // relu(32) + conv(4*4*4*2*9) + relu(64)
        assert_eq!(s.flops(&[2, 4, 4]), 32 + 4 * 16 * 2 * 9 + 64);
    }
}
