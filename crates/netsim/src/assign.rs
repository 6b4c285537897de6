//! Sub-model-to-participant assignment strategies (paper §IV, "adaptive
//! transmission", evaluated in Fig. 7).
//!
//! The server holds `K` sampled sub-models of different sizes and `K`
//! participants with different data rates. The paper sorts sub-models by
//! size and participants by bandwidth, pairing the largest models with the
//! fastest links; Fig. 7 compares that against shipping average-sized
//! models (what FedNAS/EvoFedNAS-style fixed-size methods do) and random
//! pairing.

use fedrlnas_codec::{CodecConfig, CodecSpec, DEFAULT_TOPK_FRAC};
use rand::Rng;

/// How the server pairs sub-models with participants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignmentStrategy {
    /// Sort models by size, participants by bandwidth; pair rank-to-rank
    /// (the paper's method).
    Adaptive,
    /// Every participant receives an average-sized payload — emulates
    /// methods that ship identical models to everyone.
    AverageSize,
    /// Uniform random pairing.
    Random,
}

impl AssignmentStrategy {
    /// All strategies, in the order Fig. 7 plots them.
    pub const ALL: [AssignmentStrategy; 3] = [
        AssignmentStrategy::Adaptive,
        AssignmentStrategy::AverageSize,
        AssignmentStrategy::Random,
    ];

    /// Lowercase display name.
    pub fn name(self) -> &'static str {
        match self {
            AssignmentStrategy::Adaptive => "adaptive",
            AssignmentStrategy::AverageSize => "average",
            AssignmentStrategy::Random => "random",
        }
    }
}

impl std::fmt::Display for AssignmentStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of one round's assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignmentOutcome {
    /// `model_for_participant[p]` = index of the sub-model shipped to
    /// participant `p` (meaningless for [`AssignmentStrategy::AverageSize`],
    /// where payloads are identical).
    pub model_for_participant: Vec<usize>,
    /// Download latency per participant in seconds.
    pub latencies: Vec<f64>,
}

impl AssignmentOutcome {
    /// Worst-case (straggler) latency of the round — the metric Fig. 7
    /// reports.
    pub fn max_latency(&self) -> f64 {
        self.latencies.iter().copied().fold(0.0, f64::max)
    }

    /// Mean latency over participants.
    pub fn mean_latency(&self) -> f64 {
        if self.latencies.is_empty() {
            0.0
        } else {
            self.latencies.iter().sum::<f64>() / self.latencies.len() as f64
        }
    }
}

/// Transmission time of `bytes` over `mbps` megabits per second.
///
/// This is the single formula every latency figure in the workspace comes
/// from: the assignment simulation below divides estimated payload sizes by
/// it, and the RPC runtime divides *measured* wire bytes by it.
pub fn transmission_secs(bytes: usize, mbps: f64) -> f64 {
    (bytes as f64 * 8.0) / (mbps.max(1e-6) * 1e6)
}

/// Bandwidth-aware codec selection — the encoding-to-bandwidth analogue of
/// the paper's size-to-bandwidth assignment.
///
/// Fast links upload at full precision; as the sampled trace bandwidth
/// drops, the update encoding gets progressively more aggressive:
///
/// | sampled bandwidth | codec | upload cost per value |
/// |---|---|---|
/// | ≥ 64 Mbps | fp32 | 4 bytes (exact) |
/// | ≥ 36 Mbps | fp16 | 2 bytes |
/// | ≥ 14 Mbps | int8 | ~1 byte |
/// | < 14 Mbps | top-k (k = 10 %) | ~0.8 bytes amortized |
///
/// The thresholds are calibrated against [`crate::Environment`]'s trace
/// means (11–30 Mbps) so a mixed fleet lands mostly in the int8/fp16 bands.
/// This is a pure function of the bandwidth, which itself is a pure
/// function of the seeded trace — so `auto` codec runs are deterministic
/// for a given seed, on any transport.
pub fn select_codec(mbps: f64) -> CodecSpec {
    if mbps >= 64.0 {
        CodecSpec::Fp32
    } else if mbps >= 36.0 {
        CodecSpec::Fp16
    } else if mbps >= 14.0 {
        CodecSpec::Int8
    } else {
        CodecSpec::TopK {
            k_frac: DEFAULT_TOPK_FRAC,
        }
    }
}

/// Resolves a [`CodecConfig`] to the concrete spec a participant uses this
/// round: fixed configs pass through, `auto` applies [`select_codec`] to
/// the participant's sampled bandwidth.
pub fn resolve_codec(config: CodecConfig, mbps: f64) -> CodecSpec {
    match config {
        CodecConfig::Fixed(spec) => spec,
        CodecConfig::Auto => select_codec(mbps),
    }
}

/// Assigns `model_sizes[i]` (bytes) to participants with link rates
/// `bandwidth_mbps[p]` under the given strategy and returns per-participant
/// latencies.
///
/// # Panics
///
/// Panics if the two lists have different lengths or are empty.
pub fn assign<R: Rng + ?Sized>(
    strategy: AssignmentStrategy,
    model_sizes: &[usize],
    bandwidth_mbps: &[f64],
    rng: &mut R,
) -> AssignmentOutcome {
    assert_eq!(
        model_sizes.len(),
        bandwidth_mbps.len(),
        "one sub-model per participant"
    );
    assert!(!model_sizes.is_empty(), "nothing to assign");
    let k = model_sizes.len();
    let model_for_participant: Vec<usize> = match strategy {
        AssignmentStrategy::Adaptive => {
            // rank participants by bandwidth (desc) and models by size
            // (desc); pair rank to rank
            let mut p_rank: Vec<usize> = (0..k).collect();
            p_rank.sort_by(|&a, &b| {
                bandwidth_mbps[b]
                    .partial_cmp(&bandwidth_mbps[a])
                    .expect("finite bandwidths")
            });
            let mut m_rank: Vec<usize> = (0..k).collect();
            m_rank.sort_by_key(|&m| std::cmp::Reverse(model_sizes[m]));
            let mut out = vec![0usize; k];
            for (p, m) in p_rank.into_iter().zip(m_rank) {
                out[p] = m;
            }
            out
        }
        AssignmentStrategy::AverageSize => (0..k).collect(),
        AssignmentStrategy::Random => {
            let mut m: Vec<usize> = (0..k).collect();
            for i in (1..k).rev() {
                let j = rng.gen_range(0..=i);
                m.swap(i, j);
            }
            m
        }
    };
    let avg_size: usize = (model_sizes.iter().sum::<usize>() as f64 / k as f64).round() as usize;
    let latencies: Vec<f64> = (0..k)
        .map(|p| {
            let bytes = match strategy {
                AssignmentStrategy::AverageSize => avg_size,
                _ => model_sizes[model_for_participant[p]],
            };
            transmission_secs(bytes, bandwidth_mbps[p])
        })
        .collect();
    AssignmentOutcome {
        model_for_participant,
        latencies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn adaptive_pairs_largest_with_fastest() {
        let mut rng = StdRng::seed_from_u64(0);
        let sizes = vec![100, 400, 200, 300];
        let bw = vec![1.0, 4.0, 2.0, 3.0];
        let out = assign(AssignmentStrategy::Adaptive, &sizes, &bw, &mut rng);
        // fastest participant (index 1) gets the largest model (index 1)
        assert_eq!(out.model_for_participant[1], 1);
        // slowest participant (index 0) gets the smallest model (index 0)
        assert_eq!(out.model_for_participant[0], 0);
    }

    #[test]
    fn adaptive_never_worse_than_random_max_latency() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let k = 10usize;
            let sizes: Vec<usize> = (0..k).map(|_| rng.gen_range(50_000..500_000)).collect();
            let bw: Vec<f64> = (0..k).map(|_| rng.gen_range(1.0..40.0)).collect();
            let a = assign(AssignmentStrategy::Adaptive, &sizes, &bw, &mut rng);
            let r = assign(AssignmentStrategy::Random, &sizes, &bw, &mut rng);
            assert!(
                a.max_latency() <= r.max_latency() + 1e-9,
                "adaptive {} > random {}",
                a.max_latency(),
                r.max_latency()
            );
        }
    }

    #[test]
    fn average_size_ignores_model_assignment() {
        let mut rng = StdRng::seed_from_u64(2);
        let sizes = vec![100, 300];
        let bw = vec![2.0, 2.0];
        let out = assign(AssignmentStrategy::AverageSize, &sizes, &bw, &mut rng);
        assert!((out.latencies[0] - out.latencies[1]).abs() < 1e-12);
        // equal bandwidths: average latency equals adaptive's mean
        let a = assign(AssignmentStrategy::Adaptive, &sizes, &bw, &mut rng);
        assert!((out.mean_latency() - a.mean_latency()).abs() < 1e-9);
    }

    #[test]
    fn random_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let sizes = vec![1, 2, 3, 4, 5];
        let bw = vec![1.0; 5];
        let out = assign(AssignmentStrategy::Random, &sizes, &bw, &mut rng);
        let mut m = out.model_for_participant.clone();
        m.sort_unstable();
        assert_eq!(m, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn adaptive_is_optimal_for_max_latency() {
        // exhaustive check over all K! pairings for small K: rank-pairing
        // (largest size to fastest link) minimizes the straggler latency —
        // the rearrangement argument behind the paper's adaptive scheme
        fn permutations(k: usize) -> Vec<Vec<usize>> {
            if k == 1 {
                return vec![vec![0]];
            }
            let mut out = Vec::new();
            for rest in permutations(k - 1) {
                for pos in 0..k {
                    let mut p = rest.clone();
                    p.insert(pos, k - 1);
                    out.push(p);
                }
            }
            out
        }
        let mut rng = StdRng::seed_from_u64(5);
        use rand::Rng as _;
        for _ in 0..20 {
            let k = 5usize;
            let sizes: Vec<usize> = (0..k).map(|_| rng.gen_range(10_000..900_000)).collect();
            let bw: Vec<f64> = (0..k).map(|_| rng.gen_range(0.5..50.0)).collect();
            let adaptive = assign(AssignmentStrategy::Adaptive, &sizes, &bw, &mut rng);
            let mut best = f64::INFINITY;
            for perm in permutations(k) {
                let worst = (0..k)
                    .map(|p| transmission_secs(sizes[perm[p]], bw[p]))
                    .fold(0.0f64, f64::max);
                best = best.min(worst);
            }
            assert!(
                adaptive.max_latency() <= best + 1e-9,
                "adaptive {} vs optimal {}",
                adaptive.max_latency(),
                best
            );
        }
    }

    #[test]
    fn codec_selection_is_monotone_in_bandwidth() {
        // encoded bytes per value must never increase as bandwidth drops
        let probe: Vec<f32> = (0..512).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut last = 0usize;
        for mbps in [2.0, 10.0, 14.0, 20.0, 36.0, 50.0, 64.0, 120.0] {
            let spec = select_codec(mbps);
            let encoded = spec.encode(&probe).len();
            assert!(
                encoded >= last,
                "slower link {mbps} Mbps got a bigger encoding ({encoded} < {last})"
            );
            last = encoded;
        }
        assert_eq!(select_codec(120.0), CodecSpec::Fp32);
        assert!(matches!(select_codec(1.0), CodecSpec::TopK { .. }));
    }

    #[test]
    fn resolve_codec_fixed_ignores_bandwidth() {
        let cfg = CodecConfig::Fixed(CodecSpec::Fp16);
        assert_eq!(resolve_codec(cfg, 0.5), CodecSpec::Fp16);
        assert_eq!(resolve_codec(cfg, 500.0), CodecSpec::Fp16);
        assert_eq!(resolve_codec(CodecConfig::Auto, 500.0), CodecSpec::Fp32);
    }

    #[test]
    fn latency_math() {
        // 1 MB over 8 Mbps = 1 second
        assert!((transmission_secs(1_000_000, 8.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one sub-model per participant")]
    fn length_mismatch_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = assign(AssignmentStrategy::Adaptive, &[1, 2], &[1.0], &mut rng);
    }
}
