//! Seeded Byzantine participant behaviours — the attack half of the
//! robustness story.
//!
//! A scripted adversary corrupts only the *model update* (`delta_w`) it
//! uploads; the architecture gradient and reward stay honest so the
//! corruption targets exactly the surface the server's validation gate
//! and robust aggregators defend ([`fedrlnas_fed::validate_update`] and
//! the rules of [`fedrlnas_fed::AggregatorConfig`]). Every behaviour is
//! a pure function of `(attack, round, worker id, honest update)` driven
//! by the same splitmix64 generator as the fault plan, so an adversarial
//! run is exactly reproducible: same seed, same corrupted bytes, same
//! rejection tally, same genotype.

use crate::fault::mix;

/// One worker's Byzantine strategy, applied every round it participates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Attack {
    /// Upload `-g` instead of `g` — the classic gradient-ascent attack.
    /// Undetectable by norm or shape checks; only robust aggregation
    /// helps.
    SignFlip,
    /// Upload `λ·g`. Large `λ` is caught by a norm bound; moderate `λ`
    /// slips the gate and must be absorbed by the aggregator.
    Scale(f32),
    /// Add zero-mean Gaussian noise with this standard deviation to every
    /// coordinate (Box–Muller over the seeded stream).
    GaussianNoise(f32),
    /// Upload a constant vector of this value. Colluding workers running
    /// the same `Collude` attack submit *identical* updates, which makes
    /// them mutually closest neighbours — the stress case for Krum.
    Collude(f32),
    /// Replay the previous round's honest update (padded or truncated to
    /// the current shape). Models a lazy or replay-attacking participant
    /// whose updates are consistently one round stale.
    StaleReplay,
    /// Upload NaNs. Trivially destroys an unguarded mean; the validation
    /// gate must reject it and, repeated, get the worker evicted as
    /// suspected Byzantine.
    NaNs,
}

impl Attack {
    /// Short label for logs and test output.
    pub fn name(&self) -> &'static str {
        match self {
            Attack::SignFlip => "sign-flip",
            Attack::Scale(_) => "scale",
            Attack::GaussianNoise(_) => "gaussian-noise",
            Attack::Collude(_) => "collude",
            Attack::StaleReplay => "stale-replay",
            Attack::NaNs => "nans",
        }
    }
}

/// Deterministic uniform `[0, 1)` stream over splitmix64.
struct UnitStream {
    state: u64,
}

impl UnitStream {
    fn new(seed: u64) -> Self {
        UnitStream { state: mix(seed) }
    }

    fn next(&mut self) -> f64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (mix(self.state) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal via Box–Muller.
    fn gaussian(&mut self) -> f32 {
        let u1 = self.next().max(f64::MIN_POSITIVE);
        let u2 = self.next();
        (((-2.0 * u1.ln()).sqrt()) * (std::f64::consts::TAU * u2).cos()) as f32
    }
}

/// Corrupts `grads` in place according to `attack`.
///
/// `previous` is the worker's honest update from the round before (empty
/// on the first round) and is only read by [`Attack::StaleReplay`]. The
/// randomness of [`Attack::GaussianNoise`] is derived solely from
/// `(round, worker)`, so the same call always produces the same bytes.
pub fn apply_attack(
    attack: Attack,
    round: u64,
    worker: u64,
    grads: &mut Vec<f32>,
    previous: &[f32],
) {
    match attack {
        Attack::SignFlip => {
            for g in grads.iter_mut() {
                *g = -*g;
            }
        }
        Attack::Scale(lambda) => {
            for g in grads.iter_mut() {
                *g *= lambda;
            }
        }
        Attack::GaussianNoise(sigma) => {
            let mut stream = UnitStream::new(mix(round ^ mix(worker)) ^ 0xADE5_A127);
            for g in grads.iter_mut() {
                *g += sigma * stream.gaussian();
            }
        }
        Attack::Collude(value) => {
            for g in grads.iter_mut() {
                *g = value;
            }
        }
        Attack::StaleReplay => {
            if !previous.is_empty() {
                let len = grads.len();
                grads.clear();
                grads.extend(previous.iter().copied().take(len));
                grads.resize(len, 0.0);
            }
        }
        Attack::NaNs => {
            for g in grads.iter_mut() {
                *g = f32::NAN;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_flip_and_scale_are_exact() {
        let mut g = vec![1.0, -2.0, 0.5];
        apply_attack(Attack::SignFlip, 3, 1, &mut g, &[]);
        assert_eq!(g, vec![-1.0, 2.0, -0.5]);
        apply_attack(Attack::Scale(4.0), 3, 1, &mut g, &[]);
        assert_eq!(g, vec![-4.0, 8.0, -2.0]);
    }

    #[test]
    fn gaussian_noise_is_deterministic_per_round_and_worker() {
        let base = vec![0.0f32; 64];
        let mut a = base.clone();
        let mut b = base.clone();
        apply_attack(Attack::GaussianNoise(1.0), 5, 2, &mut a, &[]);
        apply_attack(Attack::GaussianNoise(1.0), 5, 2, &mut b, &[]);
        assert_eq!(a, b, "same (round, worker) must corrupt identically");
        let mut c = base.clone();
        apply_attack(Attack::GaussianNoise(1.0), 6, 2, &mut c, &[]);
        assert_ne!(a, c, "different rounds must not repeat the noise");
        // zero-mean-ish and actually noisy
        assert!(a.iter().any(|v| *v != 0.0));
        let mean: f32 = a.iter().sum::<f32>() / a.len() as f32;
        assert!(mean.abs() < 1.0, "suspicious sample mean {mean}");
    }

    #[test]
    fn colluders_submit_identical_updates() {
        let mut a = vec![1.0, 2.0, 3.0];
        let mut b = vec![-9.0, 4.0, 0.0];
        apply_attack(Attack::Collude(0.25), 1, 0, &mut a, &[]);
        apply_attack(Attack::Collude(0.25), 1, 7, &mut b, &[]);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| *v == 0.25));
    }

    #[test]
    fn stale_replay_pads_and_truncates_to_the_current_shape() {
        let mut first = vec![1.0, 2.0];
        apply_attack(Attack::StaleReplay, 0, 3, &mut first, &[]);
        assert_eq!(first, vec![1.0, 2.0], "no history yet: honest");
        let mut grown = vec![9.0, 9.0, 9.0];
        apply_attack(Attack::StaleReplay, 1, 3, &mut grown, &[5.0, 6.0]);
        assert_eq!(grown, vec![5.0, 6.0, 0.0], "replayed + zero-padded");
        let mut shrunk = vec![9.0];
        apply_attack(Attack::StaleReplay, 2, 3, &mut shrunk, &[5.0, 6.0]);
        assert_eq!(shrunk, vec![5.0], "replayed + truncated");
    }

    #[test]
    fn nans_poison_every_coordinate() {
        let mut g = vec![1.0, 2.0];
        apply_attack(Attack::NaNs, 0, 0, &mut g, &[]);
        assert!(g.iter().all(|v| v.is_nan()));
    }
}
