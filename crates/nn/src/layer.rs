//! The [`Layer`] trait and [`Param`] type shared by every network module.

use fedrlnas_tensor::Tensor;

/// Forward-pass mode: training (batch statistics, cached activations) or
/// evaluation (running statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training mode: layers use batch statistics and cache activations for
    /// a subsequent [`Layer::backward`] call.
    Train,
    /// Evaluation mode: layers use running statistics and may skip caching.
    Eval,
}

/// A trainable parameter: its value and the gradient accumulated by the most
/// recent backward pass.
///
/// The federated runtime serializes `value` when shipping sub-models to
/// participants and `grad` when returning updates to the server, so the pair
/// is deliberately a plain data structure.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Gradient of the loss with respect to [`Param::value`]; zeroed by
    /// [`Param::zero_grad`].
    pub grad: Tensor,
}

impl Param {
    /// Wraps an initial value with a zeroed gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Param { value, grad }
    }

    /// Resets the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Returns `true` if the parameter holds no scalars.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A differentiable network module with explicit forward/backward passes.
///
/// Contract: `backward` must be called after `forward` with a gradient of
/// the same shape as the forward output, and consumes the cached
/// activations from that forward call. Parameter gradients **accumulate**
/// across backward calls until [`Layer::zero_grad`].
///
/// Layers are `Send` so participants can train sub-models on worker threads.
pub trait Layer: Send {
    /// Runs the forward pass, caching whatever `backward` will need when in
    /// [`Mode::Train`].
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor;

    /// Runs the backward pass given `d loss / d output`; returns
    /// `d loss / d input` and accumulates parameter gradients.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward` or with a
    /// mismatched gradient shape — both are programming errors.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Visits every owned parameter, in a stable order.
    ///
    /// The default is a no-op for parameter-free layers (ReLU, pooling).
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// Visits every non-trainable state buffer (BatchNorm running
    /// statistics), in a stable order.
    ///
    /// Buffers are not touched by optimizers but **must** travel with the
    /// weights when models are shipped or averaged — evaluating a model
    /// whose buffers were left behind silently degrades to chance accuracy.
    fn visit_buffers(&mut self, _f: &mut dyn FnMut(&mut [f32])) {}

    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Drops what the layer keeps from one step to the next — its backward
    /// cache and its scratch [`Workspace`](fedrlnas_tensor::Workspace) — so
    /// a layer that sits out a while holds no activation memory. The next
    /// forward builds them again; no output depends on whether a layer was
    /// released. A `backward` before that forward panics, as on a fresh
    /// layer.
    ///
    /// The default is a no-op, for layers that keep nothing sizeable.
    fn release(&mut self) {}

    /// Heap bytes [`Layer::release`] would free (diagnostics and tests).
    fn cache_bytes(&self) -> usize {
        0
    }

    /// Total number of scalar parameters.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// Multiply–accumulate count of one forward pass for a single sample
    /// with the given input shape `[c, h, w]`; used by the device cost model
    /// (Table V) and the transmission-size accounting.
    fn flops(&self, input: &[usize]) -> u64;

    /// Output shape `[c, h, w]` for a single-sample input shape `[c, h, w]`.
    fn output_shape(&self, input: &[usize]) -> Vec<usize>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_round_trip() {
        let mut p = Param::new(Tensor::ones(&[2, 2]));
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        p.grad.fill(3.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }
}
