//! Stochastic 4G/LTE bandwidth traces per mobility environment.

use rand::Rng;

/// Mobility environment of a participant, mirroring the six settings of
/// the van der Hooft et al. 4G/LTE measurement campaign the paper samples
/// its transmission conditions from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Environment {
    /// Pedestrian: strong, stable links.
    Foot,
    /// Bicycle: slightly more variable than walking.
    Bicycle,
    /// Tram: urban rail, moderate variability.
    Tram,
    /// Bus: stop-and-go traffic, high variability.
    Bus,
    /// Car: highway speeds, large swings.
    Car,
    /// Train: the weakest and most volatile links (handovers, cuttings).
    Train,
}

impl Environment {
    /// All environments in decreasing typical link quality.
    pub const ALL: [Environment; 6] = [
        Environment::Foot,
        Environment::Bicycle,
        Environment::Tram,
        Environment::Bus,
        Environment::Car,
        Environment::Train,
    ];

    /// Parses a lowercase environment name.
    pub fn from_name(name: &str) -> Option<Environment> {
        Environment::ALL.into_iter().find(|e| e.name() == name)
    }

    /// Lowercase display name.
    pub fn name(self) -> &'static str {
        match self {
            Environment::Foot => "foot",
            Environment::Bicycle => "bicycle",
            Environment::Tram => "tram",
            Environment::Bus => "bus",
            Environment::Car => "car",
            Environment::Train => "train",
        }
    }

    /// `(mean Mbps, std Mbps, AR(1) persistence)` calibrated to the
    /// published per-environment statistics of the 4G/LTE logs: pedestrian
    /// links are strong and steady; vehicular links are weaker with much
    /// larger dispersion.
    pub fn stats(self) -> (f64, f64, f64) {
        match self {
            Environment::Foot => (30.0, 6.0, 0.9),
            Environment::Bicycle => (28.0, 8.0, 0.85),
            Environment::Tram => (24.0, 10.0, 0.8),
            Environment::Bus => (21.0, 12.0, 0.75),
            Environment::Car => (18.0, 13.0, 0.65),
            Environment::Train => (11.0, 9.0, 0.6),
        }
    }

    /// Generates a bandwidth trace of `len` rounds in Mbps, clamped to a
    /// 0.5 Mbps floor (a 4G link rarely drops to zero for a whole round).
    pub fn trace<R: Rng + ?Sized>(self, len: usize, rng: &mut R) -> Vec<f64> {
        let mut t = BandwidthTrace::new(self, rng);
        (0..len).map(|_| t.next_mbps(rng)).collect()
    }
}

impl std::fmt::Display for Environment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A stateful AR(1) bandwidth process: `b_t = μ + ρ (b_{t-1} − μ) + ε_t`
/// with `ε_t ~ N(0, σ² (1 − ρ²))`, so the stationary distribution keeps the
/// environment's mean and variance.
#[derive(Debug, Clone)]
pub struct BandwidthTrace {
    env: Environment,
    current: f64,
}

impl BandwidthTrace {
    /// Starts a trace at a draw from the stationary distribution.
    pub fn new<R: Rng + ?Sized>(env: Environment, rng: &mut R) -> Self {
        let (mean, std, _) = env.stats();
        let current = (mean + std * gaussian(rng)).max(0.5);
        BandwidthTrace { env, current }
    }

    /// The generating environment.
    pub fn environment(&self) -> Environment {
        self.env
    }

    /// Current bandwidth in Mbps without advancing.
    pub fn current_mbps(&self) -> f64 {
        self.current
    }

    /// Restores the AR(1) state to a value captured by
    /// [`BandwidthTrace::current_mbps`], clamped to the same 0.5 Mbps floor
    /// the process itself enforces (checkpoint resume).
    pub fn set_current_mbps(&mut self, mbps: f64) {
        self.current = if mbps.is_finite() { mbps.max(0.5) } else { 0.5 };
    }

    /// Advances one round and returns the new bandwidth in Mbps.
    pub fn next_mbps<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        let (mean, std, rho) = self.env.stats();
        let innovation = std * (1.0 - rho * rho).sqrt() * gaussian(rng);
        self.current = (mean + rho * (self.current - mean) + innovation).max(0.5);
        self.current
    }
}

fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn traces_stay_positive() {
        let mut rng = StdRng::seed_from_u64(0);
        for env in Environment::ALL {
            let t = env.trace(500, &mut rng);
            assert!(t.iter().all(|&b| b >= 0.5), "{env} went below floor");
        }
    }

    #[test]
    fn stationary_mean_matches_stats() {
        let mut rng = StdRng::seed_from_u64(1);
        for env in [Environment::Foot, Environment::Train] {
            let t = env.trace(20_000, &mut rng);
            let mean: f64 = t.iter().sum::<f64>() / t.len() as f64;
            let (want, _, _) = env.stats();
            assert!(
                (mean - want).abs() < want * 0.1,
                "{env}: mean {mean} vs {want}"
            );
        }
    }

    #[test]
    fn vehicular_more_variable_than_pedestrian() {
        let mut rng = StdRng::seed_from_u64(2);
        let cv = |env: Environment, rng: &mut StdRng| {
            let t = env.trace(10_000, rng);
            let mean: f64 = t.iter().sum::<f64>() / t.len() as f64;
            let var: f64 = t.iter().map(|b| (b - mean) * (b - mean)).sum::<f64>() / t.len() as f64;
            var.sqrt() / mean
        };
        assert!(cv(Environment::Car, &mut rng) > cv(Environment::Foot, &mut rng));
        assert!(cv(Environment::Train, &mut rng) > cv(Environment::Foot, &mut rng));
    }

    #[test]
    fn autocorrelation_positive() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Environment::Foot.trace(5_000, &mut rng);
        let mean: f64 = t.iter().sum::<f64>() / t.len() as f64;
        let num: f64 = t.windows(2).map(|w| (w[0] - mean) * (w[1] - mean)).sum();
        let den: f64 = t.iter().map(|b| (b - mean) * (b - mean)).sum();
        let rho = num / den;
        assert!(rho > 0.5, "foot trace should be persistent, rho = {rho}");
    }

    #[test]
    fn display_names() {
        assert_eq!(Environment::Bus.to_string(), "bus");
    }

    #[test]
    fn from_name_round_trips() {
        for env in Environment::ALL {
            assert_eq!(Environment::from_name(env.name()), Some(env));
        }
        assert_eq!(Environment::from_name("rocket"), None);
    }

    #[test]
    fn environment_quality_ordering() {
        // ALL is documented as decreasing typical link quality
        let means: Vec<f64> = Environment::ALL.iter().map(|e| e.stats().0).collect();
        for w in means.windows(2) {
            assert!(w[0] >= w[1], "{means:?} not decreasing");
        }
    }
}
