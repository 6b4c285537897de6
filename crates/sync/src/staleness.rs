//! Staleness processes: how late each participant's update arrives.

use rand::Rng;

/// Outcome of one participant's transmission in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StalenessDraw {
    /// The update arrives in the round it was computed.
    Fresh,
    /// The update arrives `τ ≥ 1` rounds late (within the threshold).
    Stale(usize),
    /// The update exceeds the staleness threshold Δ and is discarded
    /// (Alg. 1 line 23).
    Dropped,
}

impl StalenessDraw {
    /// Classifies a *measured* arrival delay (in rounds) the way the
    /// simulated process labels its draws: `0` is fresh, `τ ≤ threshold`
    /// is stale-but-usable, anything later is dropped (Alg. 1 line 23).
    ///
    /// The RPC runtime uses this to route real late replies — updates that
    /// missed a round's deadline and surfaced during a later round — into
    /// the same soft-synchronization path as simulated staleness.
    pub fn from_delay(tau: usize, threshold: usize) -> StalenessDraw {
        if tau == 0 {
            StalenessDraw::Fresh
        } else if tau <= threshold {
            StalenessDraw::Stale(tau)
        } else {
            StalenessDraw::Dropped
        }
    }
}

/// A categorical distribution over update delays, matching the two
/// scenarios of §VI-C.
///
/// `delay_probs[τ]` is the probability the update is `τ` rounds late; the
/// remaining mass is the probability it exceeds the threshold and is
/// dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct StalenessModel {
    delay_probs: Vec<f64>,
}

impl StalenessModel {
    /// Builds a model from `delay_probs[τ] = P(delay = τ)`; leftover mass
    /// is the drop probability.
    ///
    /// # Panics
    ///
    /// Panics if probabilities are negative or sum above 1 + 1e-9.
    pub fn new(delay_probs: Vec<f64>) -> Self {
        let total: f64 = delay_probs.iter().sum();
        assert!(
            delay_probs.iter().all(|p| *p >= 0.0) && total <= 1.0 + 1e-9,
            "invalid staleness distribution (sum {total})"
        );
        StalenessModel { delay_probs }
    }

    /// Hard synchronization: every update is fresh ("0% staleness").
    pub fn fresh() -> Self {
        StalenessModel::new(vec![1.0])
    }

    /// The paper's severe case ("70% staleness"): 30% fresh, 40% one round
    /// late, 20% two rounds late, 10% beyond the threshold.
    pub fn severe() -> Self {
        StalenessModel::new(vec![0.30, 0.40, 0.20])
    }

    /// The paper's slight case ("10% staleness"): 90% fresh, 9% one round
    /// late, 0.9% two rounds late, the rest beyond the threshold.
    pub fn slight() -> Self {
        StalenessModel::new(vec![0.90, 0.09, 0.009])
    }

    /// Fraction of updates that are not fresh (the paper's "x% staleness"
    /// label).
    pub fn stale_fraction(&self) -> f64 {
        1.0 - self.delay_probs.first().copied().unwrap_or(0.0)
    }

    /// Largest representable delay before an update is dropped.
    pub fn max_delay(&self) -> usize {
        self.delay_probs.len().saturating_sub(1)
    }

    /// Samples the delay of one update.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> StalenessDraw {
        let mut u: f64 = rng.gen_range(0.0..1.0);
        for (tau, p) in self.delay_probs.iter().enumerate() {
            if u < *p {
                return if tau == 0 {
                    StalenessDraw::Fresh
                } else {
                    StalenessDraw::Stale(tau)
                };
            }
            u -= p;
        }
        StalenessDraw::Dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn fresh_model_never_stale() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = StalenessModel::fresh();
        for _ in 0..100 {
            assert_eq!(m.sample(&mut rng), StalenessDraw::Fresh);
        }
        assert_eq!(m.stale_fraction(), 0.0);
    }

    #[test]
    fn severe_distribution_frequencies() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = StalenessModel::severe();
        let n = 50_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            match m.sample(&mut rng) {
                StalenessDraw::Fresh => counts[0] += 1,
                StalenessDraw::Stale(1) => counts[1] += 1,
                StalenessDraw::Stale(2) => counts[2] += 1,
                StalenessDraw::Stale(_) => unreachable!("severe caps at 2"),
                StalenessDraw::Dropped => counts[3] += 1,
            }
        }
        let freq: Vec<f64> = counts.iter().map(|c| *c as f64 / n as f64).collect();
        for (f, want) in freq.iter().zip([0.30, 0.40, 0.20, 0.10]) {
            assert!((f - want).abs() < 0.02, "{f} vs {want}");
        }
        assert!((m.stale_fraction() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn slight_is_mostly_fresh() {
        let m = StalenessModel::slight();
        assert!((m.stale_fraction() - 0.1).abs() < 1e-9);
        assert_eq!(m.max_delay(), 2);
    }

    #[test]
    #[should_panic(expected = "invalid staleness distribution")]
    fn rejects_overweight_distribution() {
        let _ = StalenessModel::new(vec![0.9, 0.3]);
    }

    #[test]
    fn from_delay_matches_threshold_semantics() {
        assert_eq!(StalenessDraw::from_delay(0, 2), StalenessDraw::Fresh);
        assert_eq!(StalenessDraw::from_delay(1, 2), StalenessDraw::Stale(1));
        assert_eq!(StalenessDraw::from_delay(2, 2), StalenessDraw::Stale(2));
        assert_eq!(StalenessDraw::from_delay(3, 2), StalenessDraw::Dropped);
        assert_eq!(StalenessDraw::from_delay(1, 0), StalenessDraw::Dropped);
    }
}
