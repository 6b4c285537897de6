//! Neural-network layers with hand-derived backward passes, losses and
//! optimizers for the `fedrlnas` workspace.
//!
//! The paper's search space (DARTS cells, Fig. 1) needs convolutions with
//! stride/padding/dilation/groups, batch normalization, pooling, ReLU and a
//! linear classifier. Rather than depending on an immature deep-learning
//! crate, every layer here implements [`Layer`] with an explicit analytic
//! backward pass, verified against finite differences in the test suite.
//!
//! Tensors are NCHW. All layers own their parameters as [`Param`] values and
//! expose them through [`Layer::visit_params`], which is how the federated
//! runtime extracts, ships and merges sub-model weights.
//!
//! # Example
//!
//! ```
//! use fedrlnas_nn::{Conv2d, Layer, Mode};
//! use fedrlnas_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut conv = Conv2d::new(3, 8, 3, 1, 1, 1, 1, &mut rng);
//! let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
//! let y = conv.forward(&x, Mode::Train);
//! assert_eq!(y.dims(), &[2, 8, 8, 8]);
//! ```

#![warn(missing_docs)]

mod activation;
mod conv;
mod init;
mod layer;
mod linear;
mod loss;
mod norm;
mod optim;
mod pool;

pub use activation::ReLU;
pub use conv::Conv2d;
pub use init::{he_std, xavier_std};
pub use layer::{Layer, Mode, Param};
pub use linear::Linear;
pub use loss::{CrossEntropy, LossOutput};
pub use norm::BatchNorm2d;
pub use optim::{Adam, Sgd, SgdConfig};
pub use pool::{AvgPool2d, GlobalAvgPool, MaxPool2d};

/// Numerically checks a layer's input gradient against finite differences.
///
/// Shared by unit tests across this crate and by the `darts` crate's
/// operation tests; exposed publicly because gradient checking is part of
/// the reproduction's verification story.
///
/// Returns the maximum absolute error between analytic and numeric input
/// gradients, using the scalar objective `sum(forward(x))`.
pub fn grad_check_input<L: Layer + ?Sized>(
    layer: &mut L,
    x: &fedrlnas_tensor::Tensor,
    eps: f32,
) -> f32 {
    use fedrlnas_tensor::Tensor;
    let out = layer.forward(x, Mode::Train);
    let ones = Tensor::ones(out.dims());
    let dx = layer.backward(&ones);
    let mut max_err = 0.0f32;
    let mut xp = x.clone();
    for i in 0..x.len() {
        let orig = xp.as_slice()[i];
        xp.as_mut_slice()[i] = orig + eps;
        let fp = layer.forward(&xp, Mode::Train).sum();
        xp.as_mut_slice()[i] = orig - eps;
        let fm = layer.forward(&xp, Mode::Train).sum();
        xp.as_mut_slice()[i] = orig;
        let num = (fp - fm) / (2.0 * eps);
        let err = (num - dx.as_slice()[i]).abs();
        if err > max_err {
            max_err = err;
        }
    }
    max_err
}

/// Trains `layer` one step on `x`, releases it, lets `released` look at
/// what is left, then holds the released layer's next step on `y` to a
/// fresh copy's first: output, input gradient and parameter gradients,
/// bit for bit.
#[cfg(test)]
pub(crate) fn check_release<L: Layer + Clone>(
    mut layer: L,
    x: &fedrlnas_tensor::Tensor,
    y: &fedrlnas_tensor::Tensor,
    released: impl FnOnce(&L),
) {
    use fedrlnas_tensor::Tensor;
    use rand::{rngs::StdRng, SeedableRng};
    let mut fresh = layer.clone();
    let step = |l: &mut L, input: &Tensor| {
        let out = l.forward(input, Mode::Train);
        let grad = Tensor::randn(out.dims(), 1.0, &mut StdRng::seed_from_u64(7));
        let dx = l.backward(&grad);
        let mut bits: Vec<u32> = out
            .as_slice()
            .iter()
            .chain(dx.as_slice())
            .map(|v| v.to_bits())
            .collect();
        l.visit_params(&mut |p| bits.extend(p.grad.as_slice().iter().map(|v| v.to_bits())));
        bits
    };
    step(&mut layer, x);
    assert!(layer.cache_bytes() > 0, "a trained layer keeps its cache");
    layer.release();
    assert_eq!(layer.cache_bytes(), 0, "released");
    released(&layer);
    layer.zero_grad();
    assert_eq!(step(&mut layer, y), step(&mut fresh, y), "released ≠ fresh");
}
