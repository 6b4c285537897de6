//! REINFORCE policy updates with moving-average baseline (Eq. 7–10).

use crate::alpha::Alpha;
use fedrlnas_darts::{ArchMask, SupernetConfig};
use fedrlnas_tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Hyperparameters of the controller update (Table I's α block).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Learning rate for α.
    pub lr: f32,
    /// Weight decay on α.
    pub weight_decay: f32,
    /// Global gradient clip on ∇α J.
    pub clip: f32,
    /// Moving-average decay β of the reward baseline (Eq. 9).
    pub baseline_decay: f32,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            lr: 0.003,
            weight_decay: 1e-4,
            clip: 5.0,
            baseline_decay: 0.99,
        }
    }
}

/// The RL search controller: samples sub-model masks and maximizes the
/// expected reward of the sampled architectures via REINFORCE.
///
/// α is updated by plain gradient **ascent** on `J(α)` with weight decay
/// and clipping, matching Algorithm 1's "update α with ∇αJ".
#[derive(Debug, Clone)]
pub struct ReinforceController {
    alpha: Alpha,
    config: ControllerConfig,
    baseline: f32,
    updates: u64,
}

impl ReinforceController {
    /// Creates a controller with a uniform initial policy.
    pub fn new(net: &SupernetConfig, config: ControllerConfig) -> Self {
        ReinforceController {
            alpha: Alpha::new(net),
            config,
            baseline: 0.0,
            updates: 0,
        }
    }

    /// The current policy parameters.
    pub fn alpha(&self) -> &Alpha {
        &self.alpha
    }

    /// Mutable policy parameters (used by the delay-compensated server,
    /// which applies externally computed gradients).
    pub fn alpha_mut(&mut self) -> &mut Alpha {
        &mut self.alpha
    }

    /// The controller hyperparameters.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Current reward baseline `b_t`.
    pub fn baseline(&self) -> f32 {
        self.baseline
    }

    /// Overwrites the reward baseline (checkpoint restore).
    pub fn set_baseline(&mut self, baseline: f32) {
        self.baseline = baseline;
    }

    /// Number of updates applied.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Overwrites the update counter (checkpoint restore).
    pub fn set_updates(&mut self, updates: u64) {
        self.updates = updates;
    }

    /// Samples a sub-model mask from the policy (Eq. 4–5).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> ArchMask {
        self.alpha.sample(rng)
    }

    /// How far a reported accuracy may sit from zero before the baseline
    /// update winsorizes it. Honest accuracies live in `[0, 1]`; anything
    /// beyond ±100 is a corrupt or adversarial report, and letting it into
    /// the moving average would poison every later baseline (Eq. 9 has no
    /// forgetting of an infinite spike — `β·∞` is `∞` forever).
    const REWARD_BOUND: f32 = 100.0;

    /// Updates the baseline with this round's accuracies (Eq. 9) and
    /// returns the baselined rewards (Eq. 8).
    ///
    /// Hardened against Byzantine reward streams: a non-finite accuracy is
    /// replaced by the pre-update baseline (a zero-information report —
    /// its baselined reward is driven toward zero), and finite outliers
    /// are winsorized to ±`Self::REWARD_BOUND`. In-range rewards pass
    /// through bit-identical, so honest runs are unaffected.
    pub fn baselined_rewards(&mut self, accuracies: &[f32]) -> Vec<f32> {
        if accuracies.is_empty() {
            return Vec::new();
        }
        let prior = self.baseline;
        let sane: Vec<f32> = accuracies
            .iter()
            .map(|&a| {
                if !a.is_finite() {
                    prior
                } else {
                    a.clamp(-Self::REWARD_BOUND, Self::REWARD_BOUND)
                }
            })
            .collect();
        let mean = sane.iter().sum::<f32>() / sane.len() as f32;
        let beta = self.config.baseline_decay;
        self.baseline = beta * mean + (1.0 - beta) * self.baseline;
        sane.iter().map(|a| a - self.baseline).collect()
    }

    /// Computes the REINFORCE gradient estimate
    /// `∇α J ≈ (1/M) Σ_m R_m ∇α log p(g_m)` (Eq. 10) from already-baselined
    /// rewards.
    pub fn policy_gradient(&self, samples: &[(ArchMask, f32)]) -> Tensor {
        let mut grad = Tensor::zeros(self.alpha.logits().dims());
        if samples.is_empty() {
            return grad;
        }
        for (mask, reward) in samples {
            let g = self.alpha.grad_log_prob(mask);
            grad.axpy(*reward, &g).expect("alpha-shaped gradients");
        }
        grad.scale(1.0 / samples.len() as f32);
        grad
    }

    /// One full controller update from raw accuracies: baseline, estimate
    /// the policy gradient and ascend.
    pub fn update(&mut self, observations: &[(ArchMask, f32)]) {
        let accs: Vec<f32> = observations.iter().map(|(_, a)| *a).collect();
        let rewards = self.baselined_rewards(&accs);
        let samples: Vec<(ArchMask, f32)> = observations
            .iter()
            .zip(rewards)
            .map(|((m, _), r)| (m.clone(), r))
            .collect();
        let grad = self.policy_gradient(&samples);
        self.ascend(&grad);
    }

    /// Applies an externally computed `∇α J` (used by the delay-compensated
    /// server, Alg. 1 line 33): gradient ascent with weight decay and clip.
    pub fn ascend(&mut self, grad: &Tensor) {
        let mut g = grad.clone();
        g.clip_norm(self.config.clip);
        let lr = self.config.lr;
        let wd = self.config.weight_decay;
        let logits = self.alpha.logits_mut();
        for (w, gv) in logits.as_mut_slice().iter_mut().zip(g.as_slice()) {
            // ascent on J; weight decay pulls logits toward zero (uniform
            // policy), acting as entropy regularization
            *w += lr * gv - lr * wd * *w;
        }
        self.updates += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedrlnas_darts::CellKind;
    use rand::{rngs::StdRng, SeedableRng};

    fn controller() -> ReinforceController {
        ReinforceController::new(&SupernetConfig::tiny(), ControllerConfig::default())
    }

    #[test]
    fn baseline_follows_eq9() {
        let mut c = controller();
        let r = c.baselined_rewards(&[1.0, 1.0]);
        // b1 = 0.99 * 1.0 + 0.01 * 0 = 0.99
        assert!((c.baseline() - 0.99).abs() < 1e-6);
        assert!((r[0] - 0.01).abs() < 1e-6);
        let _ = c.baselined_rewards(&[0.5]);
        // b2 = 0.99 * 0.5 + 0.01 * 0.99
        assert!((c.baseline() - (0.99 * 0.5 + 0.01 * 0.99)).abs() < 1e-6);
    }

    #[test]
    fn nonfinite_rewards_cannot_poison_the_baseline() {
        let mut c = controller();
        let _ = c.baselined_rewards(&[0.8, 0.6]);
        let before = c.baseline();
        assert!(before.is_finite());
        // a NaN/Inf report is treated as zero-information: replaced by the
        // pre-update baseline, so the baseline stays finite and close
        let r = c.baselined_rewards(&[f32::NAN, f32::INFINITY, 0.7]);
        assert!(
            c.baseline().is_finite(),
            "baseline poisoned: {}",
            c.baseline()
        );
        assert!(r.iter().all(|v| v.is_finite()), "{r:?}");
        // the honest report still contributes normally
        assert!((c.baseline() - before).abs() < 1.0);
    }

    #[test]
    fn outlier_rewards_are_winsorized() {
        let mut c = controller();
        let r = c.baselined_rewards(&[1e9, -1e9, 0.5]);
        assert!(c.baseline().abs() <= 100.0, "{}", c.baseline());
        assert!(r.iter().all(|v| v.abs() <= 201.0), "{r:?}");
    }

    #[test]
    fn in_range_rewards_pass_through_unchanged() {
        // the hardening must be a bit-exact no-op for honest accuracies
        let mut hardened = controller();
        let accs = [0.31f32, 0.62, 0.47, 0.55];
        let r = hardened.baselined_rewards(&accs);
        let mean = accs.iter().sum::<f32>() / accs.len() as f32;
        let expected_baseline = 0.99 * mean;
        assert_eq!(hardened.baseline(), expected_baseline);
        for (a, got) in accs.iter().zip(&r) {
            assert_eq!(*got, a - expected_baseline);
        }
    }

    #[test]
    fn rewarded_op_gains_probability() {
        // higher lr than Table I so the trend is visible in few iterations
        let cfg = ControllerConfig {
            lr: 0.05,
            ..ControllerConfig::default()
        };
        let mut c = ReinforceController::new(&SupernetConfig::tiny(), cfg);
        let mut rng = StdRng::seed_from_u64(0);
        // Reward masks that pick op 4 on edge 0 of normal cells; punish
        // others. As in the paper, each round observes a batch of M
        // sub-models — the within-round spread is what drives REINFORCE
        // once the baseline tracks the mean.
        for _ in 0..300 {
            let batch: Vec<(ArchMask, f32)> = (0..8)
                .map(|_| {
                    let mask = c.sample(&mut rng);
                    let acc = if mask.ops(CellKind::Normal)[0] == 4 {
                        0.9
                    } else {
                        0.1
                    };
                    (mask, acc)
                })
                .collect();
            c.update(&batch);
        }
        let p = c.alpha().prob(CellKind::Normal, 0, 4);
        assert!(p > 0.5, "op 4 should dominate, got {p}");
    }

    #[test]
    fn zero_reward_leaves_policy_unchanged() {
        let mut c = controller();
        let before = c.alpha().logits().clone();
        let grad = c.policy_gradient(&[]);
        c.ascend(&grad);
        // zero gradient → only counts increment
        assert_eq!(c.alpha().logits(), &before);
        assert_eq!(c.updates(), 1);
    }

    #[test]
    fn gradient_is_clipped() {
        let c = controller();
        let mut rng = StdRng::seed_from_u64(1);
        let mask = c.sample(&mut rng);
        // enormous reward produces a large gradient that must be clipped
        let g = c.policy_gradient(&[(mask, 1e6)]);
        let mut clipped = g.clone();
        clipped.clip_norm(c.config().clip);
        assert!(clipped.norm() <= c.config().clip * 1.001);
    }

    #[test]
    fn update_moves_policy_toward_better_masks() {
        // Two fixed masks with different rewards: probability mass should
        // shift toward the better one after a handful of updates.
        let mut c = controller();
        let mut rng = StdRng::seed_from_u64(2);
        let good = c.sample(&mut rng);
        let bad = c.sample(&mut rng);
        if good == bad {
            return; // pathological seed; nothing to compare
        }
        let lp_before = c.alpha().log_prob(&good);
        for _ in 0..50 {
            c.update(&[(good.clone(), 0.95), (bad.clone(), 0.05)]);
        }
        let lp_after = c.alpha().log_prob(&good);
        assert!(lp_after > lp_before, "{lp_before} -> {lp_after}");
    }
}
