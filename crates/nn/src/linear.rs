//! Fully connected layer.

use crate::init::xavier_std;
use crate::layer::{Layer, Mode, Param};
use fedrlnas_tensor::{gemm, Tensor, Workspace};
use rand::Rng;

/// A fully connected layer mapping `[n, in_features]` to `[n, out_features]`.
///
/// Serves as the final classifier after global average pooling in every
/// network of the workspace. Transpose scratch is kept in a per-layer
/// [`Workspace`] so steady-state steps allocate nothing beyond the output.
#[derive(Debug, Clone)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    // weight layout: [out_features, in_features]
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
    workspace: Workspace,
}

impl Linear {
    /// Creates a linear layer with Xavier-normal weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if either feature extent is zero.
    pub fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        assert!(in_features > 0 && out_features > 0);
        let weight = Param::new(Tensor::randn(
            &[out_features, in_features],
            xavier_std(in_features, out_features),
            rng,
        ));
        let bias = Param::new(Tensor::zeros(&[out_features]));
        Linear {
            in_features,
            out_features,
            weight,
            bias,
            cached_input: None,
            workspace: Workspace::new(),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let dims = x.dims();
        assert_eq!(dims.len(), 2, "linear expects [n, features]");
        let (n, f) = (dims[0], dims[1]);
        assert_eq!(f, self.in_features, "linear feature mismatch");
        let mut out = Tensor::zeros(&[n, self.out_features]);
        // out[i, o] = sum_f x[i, f] * w[o, f] + b[o]
        // computed as X [n, f] x W^T [f, o]; build W^T once (reused scratch,
        // fully overwritten below).
        let [wt, _] = self
            .workspace
            .buffers([self.in_features * self.out_features, 0]);
        let w = self.weight.value.as_slice();
        for o in 0..self.out_features {
            for ff in 0..self.in_features {
                wt[ff * self.out_features + o] = w[o * self.in_features + ff];
            }
        }
        for i in 0..n {
            let row = &mut out.as_mut_slice()[i * self.out_features..(i + 1) * self.out_features];
            row.copy_from_slice(self.bias.value.as_slice());
        }
        gemm(
            n,
            self.out_features,
            self.in_features,
            x.as_slice(),
            wt,
            out.as_mut_slice(),
        );
        if mode == Mode::Train {
            self.cached_input = Some(x.clone());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("linear backward called before forward (Train mode)");
        let n = x.dims()[0];
        assert_eq!(grad_out.dims(), &[n, self.out_features]);
        // dW[o, f] += sum_i dout[i, o] * x[i, f]  => dout^T [o, n] x X [n, f]
        // (slot 1 of the workspace; slot 0 is forward's W^T scratch)
        let [_, dout_t] = self.workspace.buffers([0, self.out_features * n]);
        for i in 0..n {
            for o in 0..self.out_features {
                dout_t[o * n + i] = grad_out.as_slice()[i * self.out_features + o];
            }
        }
        gemm(
            self.out_features,
            self.in_features,
            n,
            dout_t,
            x.as_slice(),
            self.weight.grad.as_mut_slice(),
        );
        // db[o] += sum_i dout[i, o]
        for i in 0..n {
            for o in 0..self.out_features {
                self.bias.grad.as_mut_slice()[o] += grad_out.as_slice()[i * self.out_features + o];
            }
        }
        // dX = dout [n, o] x W [o, f]
        let mut dx = Tensor::zeros(&[n, self.in_features]);
        gemm(
            n,
            self.in_features,
            self.out_features,
            grad_out.as_slice(),
            self.weight.value.as_slice(),
            dx.as_mut_slice(),
        );
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

    fn flops(&self, _input: &[usize]) -> u64 {
        (self.in_features * self.out_features) as u64
    }

    fn output_shape(&self, _input: &[usize]) -> Vec<usize> {
        vec![self.out_features]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn known_values() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut lin = Linear::new(2, 2, &mut rng);
        lin.weight.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        lin.bias.value = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = lin.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[3.5, 6.5]);
    }

    #[test]
    fn grad_check() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut lin = Linear::new(5, 3, &mut rng);
        let x = Tensor::randn(&[4, 5], 1.0, &mut rng);
        let err = crate::grad_check_input(&mut lin, &x, 1e-2);
        assert!(err < 1e-2, "linear grad error {err}");
    }

    #[test]
    fn param_grads_accumulate() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut lin = Linear::new(2, 2, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        let y = lin.forward(&x, Mode::Train);
        lin.backward(&Tensor::ones(y.dims()));
        let g1 = lin.bias.grad.clone();
        lin.forward(&x, Mode::Train);
        lin.backward(&Tensor::ones(y.dims()));
        assert_eq!(lin.bias.grad.sum(), 2.0 * g1.sum());
        lin.zero_grad();
        assert_eq!(lin.bias.grad.sum(), 0.0);
    }

    #[test]
    fn release_drops_the_cache_and_the_workspace() {
        let mut rng = StdRng::seed_from_u64(3);
        let (x, y) = (
            Tensor::randn(&[4, 6], 1.0, &mut rng),
            Tensor::randn(&[4, 6], 1.0, &mut rng),
        );
        crate::check_release(Linear::new(6, 3, &mut rng), &x, &y, |lin| {
            assert!(lin.cached_input.is_none());
            assert_eq!(lin.workspace.capacity(), 0);
        });
    }
}
