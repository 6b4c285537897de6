//! The [`TrainableModel`] abstraction unifying every network the federated
//! runtime can train (sub-models, derived models, fixed baselines).

use fedrlnas_darts::{ArchMask, DerivedModel, SubModel, Supernet};
use fedrlnas_data::SyntheticDataset;
use fedrlnas_nn::{CrossEntropy, Mode, Param};
use fedrlnas_tensor::Tensor;

/// A network the federated runtime can ship, train and aggregate.
///
/// The flat-parameter view ([`flat_params`]/[`set_flat_params`]) is how
/// FedAvg averages weights across participants without knowing the model's
/// structure.
pub trait TrainableModel: Send {
    /// Forward pass to classifier logits.
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor;
    /// Backward pass accumulating parameter gradients.
    fn backward(&mut self, grad_logits: &Tensor);
    /// Visits parameters in a stable structural order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Visits non-trainable buffers (BatchNorm running statistics) in a
    /// stable order. These are part of the shipped model state: FedAvg
    /// averages them alongside the weights, otherwise the aggregated model
    /// evaluates with stale normalization statistics.
    fn visit_buffers(&mut self, _f: &mut dyn FnMut(&mut [f32])) {}

    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total scalar parameter count.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// Serialized weight size in bytes.
    fn param_bytes(&mut self) -> usize {
        self.param_count() * std::mem::size_of::<f32>()
    }
}

impl TrainableModel for SubModel {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        SubModel::forward(self, x, mode)
    }

    fn backward(&mut self, grad_logits: &Tensor) {
        SubModel::backward(self, grad_logits)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        SubModel::visit_params(self, f)
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        SubModel::visit_buffers(self, f)
    }
}

/// A supernet trained in place on the sub-model a mask selects — what a
/// worker that keeps a whole supernet runs instead of extracting a
/// [`SubModel`] per download. It computes, visits and differentiates
/// exactly what `extract_submodel(mask)` would, bit for bit, and neither
/// reads nor writes a parameter or buffer outside the selection.
impl TrainableModel for (&mut Supernet, &ArchMask) {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.0.forward_masked(x, self.1, mode)
    }

    fn backward(&mut self, grad_logits: &Tensor) {
        self.0.backward_masked(grad_logits)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.0.visit_masked_params(self.1, f)
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        self.0.visit_masked_buffers(self.1, f)
    }
}

impl TrainableModel for DerivedModel {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        DerivedModel::forward(self, x, mode)
    }

    fn backward(&mut self, grad_logits: &Tensor) {
        DerivedModel::backward(self, grad_logits)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        DerivedModel::visit_params(self, f)
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        DerivedModel::visit_buffers(self, f)
    }
}

/// Extracts every parameter value into one flat vector (stable order).
pub fn flat_params<M: TrainableModel + ?Sized>(model: &mut M) -> Vec<f32> {
    let mut out = Vec::new();
    model.visit_params(&mut |p| out.extend_from_slice(p.value.as_slice()));
    out
}

/// Writes a flat vector produced by [`flat_params`] back into the model.
///
/// # Panics
///
/// Panics if `flat` has the wrong total length.
pub fn set_flat_params<M: TrainableModel + ?Sized>(model: &mut M, flat: &[f32]) {
    let mut cursor = 0usize;
    model.visit_params(&mut |p| {
        let n = p.len();
        p.value
            .as_mut_slice()
            .copy_from_slice(&flat[cursor..cursor + n]);
        cursor += n;
    });
    assert_eq!(cursor, flat.len(), "flat parameter length mismatch");
}

/// Extracts the **full model state** — parameters followed by buffers
/// (BatchNorm running statistics) — into one flat vector. This is what a
/// real deployment serializes onto the wire, and what FedAvg must average.
pub fn flat_state<M: TrainableModel + ?Sized>(model: &mut M) -> Vec<f32> {
    let mut out = flat_params(model);
    model.visit_buffers(&mut |b| out.extend_from_slice(b));
    out
}

/// Writes a flat vector produced by [`flat_state`] back into the model.
///
/// # Panics
///
/// Panics if `flat` has the wrong total length.
pub fn set_flat_state<M: TrainableModel + ?Sized>(model: &mut M, flat: &[f32]) {
    let mut cursor = 0usize;
    model.visit_params(&mut |p| {
        let n = p.len();
        p.value
            .as_mut_slice()
            .copy_from_slice(&flat[cursor..cursor + n]);
        cursor += n;
    });
    model.visit_buffers(&mut |b| {
        b.copy_from_slice(&flat[cursor..cursor + b.len()]);
        cursor += b.len();
    });
    assert_eq!(cursor, flat.len(), "flat state length mismatch");
}

/// Weighted average of flat parameter vectors: `Σ w_i x_i / Σ w_i` — the
/// FedAvg aggregation rule.
///
/// # Panics
///
/// Panics if the list is empty, lengths differ, or all weights are zero.
pub fn average_flat(vectors: &[Vec<f32>], weights: &[f32]) -> Vec<f32> {
    assert!(!vectors.is_empty(), "nothing to average");
    assert_eq!(vectors.len(), weights.len(), "one weight per vector");
    let total: f32 = weights.iter().sum();
    assert!(total > 0.0, "weights must not all be zero");
    let len = vectors[0].len();
    let mut out = vec![0.0f32; len];
    for (v, w) in vectors.iter().zip(weights) {
        assert_eq!(v.len(), len, "vector length mismatch");
        let scale = w / total;
        for (o, x) in out.iter_mut().zip(v) {
            *o += scale * x;
        }
    }
    out
}

/// Evaluates a model's classification accuracy on a dataset's test split,
/// batching to bound memory.
pub fn evaluate_model<M: TrainableModel + ?Sized>(
    model: &mut M,
    dataset: &SyntheticDataset,
    batch_size: usize,
) -> f32 {
    let mut ce = CrossEntropy::new();
    let n = dataset.test_len();
    let mut correct = 0usize;
    let mut start = 0usize;
    while start < n {
        let end = (start + batch_size.max(1)).min(n);
        let idx: Vec<usize> = (start..end).collect();
        let (x, y) = dataset.test_batch(&idx);
        let logits = model.forward(&x, Mode::Eval);
        let out = ce.forward(&logits, &y);
        correct += out.correct;
        start = end;
    }
    if n == 0 {
        0.0
    } else {
        correct as f32 / n as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedrlnas_darts::{ArchMask, Supernet, SupernetConfig};
    use rand::{rngs::StdRng, SeedableRng};

    fn submodel(seed: u64) -> SubModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = SupernetConfig::tiny();
        let net = Supernet::new(config.clone(), &mut rng);
        let mask = ArchMask::uniform_random(&config, &mut rng);
        net.extract_submodel(&mask)
    }

    #[test]
    fn flat_round_trip() {
        let mut m = submodel(0);
        let flat = flat_params(&mut m);
        assert_eq!(flat.len(), m.param_count());
        let mut scaled: Vec<f32> = flat.iter().map(|v| v * 2.0).collect();
        set_flat_params(&mut m, &scaled);
        let back = flat_params(&mut m);
        assert_eq!(back, scaled);
        scaled.pop();
        // wrong length must panic
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            set_flat_params(&mut m, &scaled)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn average_flat_weighted() {
        let a = vec![0.0, 0.0];
        let b = vec![4.0, 8.0];
        let avg = average_flat(&[a, b], &[3.0, 1.0]);
        assert_eq!(avg, vec![1.0, 2.0]);
    }

    #[test]
    fn evaluate_reports_chance_for_random_model() {
        use fedrlnas_data::DatasetSpec;
        let mut rng = StdRng::seed_from_u64(1);
        let data =
            SyntheticDataset::generate(&DatasetSpec::svhn_like().with_sizes(4, 10), &mut rng);
        let mut m = submodel(2);
        let acc = evaluate_model(&mut m, &data, 16);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn trait_object_usable() {
        let mut m = submodel(3);
        let dynamic: &mut dyn TrainableModel = &mut m;
        assert!(dynamic.param_count() > 0);
        assert!(dynamic.param_bytes() > 0);
    }
}
