//! Optimizers: SGD with momentum, weight decay and global gradient-norm
//! clipping, and Adam.
//!
//! Table I of the paper fixes the training hyperparameters this module
//! implements: SGD with momentum 0.9, weight decay 3e-4 and gradient clip 5
//! for model weights θ, and a separate optimizer for the architecture
//! parameters α (learning rate 3e-3, weight decay 1e-4, clip 5).

use crate::layer::Param;
use fedrlnas_tensor::Tensor;

/// Hyperparameters for [`Sgd`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Learning rate η.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// Decoupled L2 weight decay added to the gradient.
    pub weight_decay: f32,
    /// Global gradient-norm clip applied before the step (`f32::INFINITY`
    /// disables clipping).
    pub clip: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        // Table I defaults for θ.
        SgdConfig {
            lr: 0.025,
            momentum: 0.9,
            weight_decay: 3e-4,
            clip: 5.0,
        }
    }
}

/// Stochastic gradient descent with momentum, weight decay and gradient
/// clipping, operating on an ordered parameter list.
///
/// Velocity buffers are keyed by position, so the same optimizer must always
/// be fed the same parameter sequence (which [`crate::Layer::visit_params`]
/// guarantees for a fixed network).
#[derive(Debug, Clone)]
pub struct Sgd {
    config: SgdConfig,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an optimizer with the given configuration.
    pub fn new(config: SgdConfig) -> Self {
        Sgd {
            config,
            velocity: Vec::new(),
        }
    }

    /// Current configuration.
    pub fn config(&self) -> &SgdConfig {
        &self.config
    }

    /// Concatenates all momentum buffers into one flat vector (checkpoint
    /// capture). Empty before the first step, which restores losslessly: a
    /// fresh optimizer lazily re-creates zero velocity on its next step.
    pub fn velocity_flat(&self) -> Vec<f32> {
        let mut flat = Vec::with_capacity(self.velocity.iter().map(|v| v.len()).sum());
        for v in &self.velocity {
            flat.extend_from_slice(v.as_slice());
        }
        flat
    }

    /// Rebuilds the momentum buffers from a flat vector captured by
    /// [`Sgd::velocity_flat`], with per-buffer shapes supplied by the caller
    /// (the parameter visit order of the optimized network). An empty `flat`
    /// resets to the pre-first-step state. Returns `Err` when the element
    /// count does not match the shapes — never panics on untrusted input.
    pub fn restore_velocity(&mut self, flat: &[f32], dims: &[Vec<usize>]) -> Result<(), String> {
        if flat.is_empty() {
            self.velocity.clear();
            return Ok(());
        }
        let want: usize = dims.iter().map(|d| d.iter().product::<usize>()).sum();
        if want != flat.len() {
            return Err(format!(
                "velocity snapshot has {} elements, parameters need {want}",
                flat.len()
            ));
        }
        let mut velocity = Vec::with_capacity(dims.len());
        let mut offset = 0usize;
        for d in dims {
            let n: usize = d.iter().product();
            let t = Tensor::from_vec(flat[offset..offset + n].to_vec(), d)
                .map_err(|e| format!("velocity tensor rebuild failed: {e:?}"))?;
            velocity.push(t);
            offset += n;
        }
        self.velocity = velocity;
        Ok(())
    }

    /// Applies one update step to the parameters `visit` yields, using
    /// their accumulated gradients scaled to the global norm clip, and
    /// leaves the gradients untouched (callers zero them). The supernet,
    /// sub-models and derived models all expose their parameters through
    /// such a `visit_params`-style callback.
    ///
    /// `visit` must traverse the same parameters in the same order on every
    /// invocation; it is called twice per step (norm pass, update pass).
    pub fn step_visitor(&mut self, mut visit: impl FnMut(&mut dyn FnMut(&mut Param))) {
        let mut sq = 0.0f32;
        visit(&mut |p: &mut Param| {
            sq += p.grad.as_slice().iter().map(|v| v * v).sum::<f32>();
        });
        let norm = sq.sqrt();
        let clip_scale = if self.config.clip.is_finite() && norm > self.config.clip && norm > 0.0 {
            self.config.clip / norm
        } else {
            1.0
        };
        let mut i = 0usize;
        let lr = self.config.lr;
        let mom = self.config.momentum;
        let wd = self.config.weight_decay;
        let velocity = &mut self.velocity;
        visit(&mut |p: &mut Param| {
            if velocity.len() <= i {
                velocity.push(Tensor::zeros(p.value.dims()));
            }
            assert_eq!(
                velocity[i].dims(),
                p.value.dims(),
                "sgd: parameter order changed between steps"
            );
            let v = &mut velocity[i];
            for ((vj, gj), wj) in v
                .as_mut_slice()
                .iter_mut()
                .zip(p.grad.as_slice().iter())
                .zip(p.value.as_mut_slice().iter_mut())
            {
                let g = gj * clip_scale + wd * *wj;
                *vj = mom * *vj + g;
                *wj -= lr * *vj;
            }
            i += 1;
        });
    }
}

/// Adam optimizer over a single flat tensor; used for the architecture
/// parameters α, mirroring DARTS/ProxylessNAS practice.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    m: Tensor,
    v: Tensor,
    t: u64,
}

impl Adam {
    /// Creates an Adam optimizer for a parameter of the given shape.
    pub fn new(dims: &[usize], lr: f32, weight_decay: f32) -> Self {
        Adam {
            lr,
            beta1: 0.5,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            m: Tensor::zeros(dims),
            v: Tensor::zeros(dims),
            t: 0,
        }
    }

    /// Learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Applies one Adam step to `value` given `grad`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ from the construction shape.
    pub fn step(&mut self, value: &mut Tensor, grad: &Tensor) {
        assert_eq!(value.dims(), self.m.dims(), "adam: value shape mismatch");
        assert_eq!(grad.dims(), self.m.dims(), "adam: grad shape mismatch");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..value.len() {
            let g = grad.as_slice()[i] + self.weight_decay * value.as_slice()[i];
            let m = &mut self.m.as_mut_slice()[i];
            *m = self.beta1 * *m + (1.0 - self.beta1) * g;
            let v = &mut self.v.as_mut_slice()[i];
            *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
            let m_hat = *m / b1t;
            let v_hat = *v / b2t;
            value.as_mut_slice()[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One step over `params` in order.
    fn step(sgd: &mut Sgd, params: &mut [&mut Param]) {
        sgd.step_visitor(|f| params.iter_mut().for_each(|p| f(p)));
    }

    #[test]
    fn sgd_plain_step() {
        let mut p = Param::new(Tensor::from_vec(vec![1.0], &[1]).unwrap());
        p.grad = Tensor::from_vec(vec![0.5], &[1]).unwrap();
        let mut sgd = Sgd::new(SgdConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
            clip: f32::INFINITY,
        });
        step(&mut sgd, &mut [&mut p]);
        assert!((p.value.as_slice()[0] - 0.95).abs() < 1e-6);
    }

    #[test]
    fn sgd_momentum_accumulates() {
        let mut p = Param::new(Tensor::zeros(&[1]));
        let mut sgd = Sgd::new(SgdConfig {
            lr: 1.0,
            momentum: 0.9,
            weight_decay: 0.0,
            clip: f32::INFINITY,
        });
        p.grad = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        step(&mut sgd, &mut [&mut p]); // v=1, w=-1
        step(&mut sgd, &mut [&mut p]); // v=1.9, w=-2.9
        assert!((p.value.as_slice()[0] + 2.9).abs() < 1e-5);
    }

    #[test]
    fn sgd_weight_decay_shrinks_weights() {
        let mut p = Param::new(Tensor::from_vec(vec![10.0], &[1]).unwrap());
        let mut sgd = Sgd::new(SgdConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.1,
            clip: f32::INFINITY,
        });
        step(&mut sgd, &mut [&mut p]); // g = 0 + 0.1*10 = 1, w = 10 - 0.1 = 9.9
        assert!((p.value.as_slice()[0] - 9.9).abs() < 1e-5);
    }

    #[test]
    fn sgd_clips_global_norm() {
        let mut a = Param::new(Tensor::zeros(&[1]));
        let mut b = Param::new(Tensor::zeros(&[1]));
        a.grad = Tensor::from_vec(vec![30.0], &[1]).unwrap();
        b.grad = Tensor::from_vec(vec![40.0], &[1]).unwrap(); // norm 50
        let mut sgd = Sgd::new(SgdConfig {
            lr: 1.0,
            momentum: 0.0,
            weight_decay: 0.0,
            clip: 5.0,
        });
        step(&mut sgd, &mut [&mut a, &mut b]);
        // clipped to norm 5: the step is (3, 4)
        assert!((a.value.as_slice()[0] + 3.0).abs() < 1e-5);
        assert!((b.value.as_slice()[0] + 4.0).abs() < 1e-5);
        // the gradients themselves are left as they were
        assert_eq!(a.grad.as_slice(), &[30.0]);
        assert_eq!(b.grad.as_slice(), &[40.0]);
    }

    #[test]
    fn velocity_round_trip_resumes_identical_steps() {
        let cfg = SgdConfig {
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 0.01,
            clip: f32::INFINITY,
        };
        let mut p = Param::new(Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap());
        let mut sgd = Sgd::new(cfg);
        assert!(sgd.velocity_flat().is_empty(), "no velocity before a step");
        p.grad = Tensor::from_vec(vec![0.3, -0.1], &[2]).unwrap();
        step(&mut sgd, &mut [&mut p]);
        let flat = sgd.velocity_flat();
        let weights = p.value.as_slice().to_vec();
        // resumed optimizer continues bit-identically
        let mut resumed = Sgd::new(cfg);
        resumed
            .restore_velocity(&flat, &[vec![2usize]])
            .expect("matching shapes restore");
        let mut q = Param::new(Tensor::from_vec(weights, &[2]).unwrap());
        q.grad = Tensor::from_vec(vec![0.2, 0.4], &[2]).unwrap();
        p.grad = Tensor::from_vec(vec![0.2, 0.4], &[2]).unwrap();
        step(&mut sgd, &mut [&mut p]);
        step(&mut resumed, &mut [&mut q]);
        assert_eq!(p.value.as_slice(), q.value.as_slice());
        // mismatched totals are a typed error, not a panic
        assert!(Sgd::new(cfg)
            .restore_velocity(&flat, &[vec![3usize]])
            .is_err());
        // empty snapshot resets to the lazy pre-step state
        let mut fresh = Sgd::new(cfg);
        fresh.restore_velocity(&[], &[]).unwrap();
        assert!(fresh.velocity_flat().is_empty());
    }

    #[test]
    fn adam_moves_toward_minimum() {
        // minimize (x - 3)^2 with Adam
        let mut x = Tensor::from_vec(vec![0.0], &[1]).unwrap();
        let mut adam = Adam::new(&[1], 0.1, 0.0);
        for _ in 0..500 {
            let g = Tensor::from_vec(vec![2.0 * (x.as_slice()[0] - 3.0)], &[1]).unwrap();
            adam.step(&mut x, &g);
        }
        assert!(
            (x.as_slice()[0] - 3.0).abs() < 0.05,
            "x = {}",
            x.as_slice()[0]
        );
    }

    #[test]
    fn clip_noop_below_threshold() {
        // norm √2 under a clip of 10: the full gradient is applied
        let mut p = Param::new(Tensor::zeros(&[2]));
        p.grad = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let mut sgd = Sgd::new(SgdConfig {
            lr: 1.0,
            momentum: 0.0,
            weight_decay: 0.0,
            clip: 10.0,
        });
        step(&mut sgd, &mut [&mut p]);
        assert_eq!(p.value.as_slice(), &[-1.0, -1.0]);
        assert_eq!(p.grad.as_slice(), &[1.0, 1.0]);
    }
}
