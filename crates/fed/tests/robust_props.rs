//! Property tests for the robust aggregators: on honest data every robust
//! center must agree with the plain mean — robustness is free when nobody
//! attacks — and the gate/clip primitives must hold their contracts on
//! arbitrary inputs.

use fedrlnas_fed::{
    clip_l2, l2_norm, validate_update, AggregatorConfig, AggregatorKind, SparseUpdate,
};
use proptest::prelude::*;

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len)
}

fn aggregators(n: usize) -> Vec<AggregatorConfig> {
    [
        AggregatorKind::Median,
        AggregatorKind::Trimmed { k: 0 },
        AggregatorKind::Trimmed { k: 1 },
        AggregatorKind::Krum { m: n },
        AggregatorKind::Krum { m: n.max(2) - 1 },
    ]
    .into_iter()
    .map(|kind| AggregatorConfig { kind, clip: None })
    .collect()
}

proptest! {
    // Sparse path, identical masks and values: the pre-scaled accumulators
    // must agree across every aggregator (and with the legacy sum).
    #[test]
    fn robust_equals_mean_for_identical_sparse_updates(
        values in finite_vec(12),
        n in 1usize..7,
    ) {
        let theta_len = 20usize;
        let ranges = vec![(2usize, 5usize), (9usize, 7usize)];
        let updates: Vec<SparseUpdate> = (0..n)
            .map(|_| SparseUpdate { ranges: ranges.clone(), values: values.clone() })
            .collect();
        let mean = AggregatorConfig::mean().reduce(updates.clone(), theta_len);
        for agg in aggregators(n) {
            let out = agg.reduce(updates.clone(), theta_len);
            prop_assert_eq!(out.len(), mean.len());
            for (c, (a, b)) in out.iter().zip(&mean).enumerate() {
                // n identical values summed vs n·center: tolerance scales
                // with the accumulated magnitude
                let tol = 1e-6f32.max(b.abs() * 1e-6);
                prop_assert!(
                    (a - b).abs() <= tol,
                    "{} diverged from mean at {}: {} vs {}", agg, c, a, b
                );
            }
        }
    }

    // Honest-but-noisy cluster, trimming nothing: trimmed:0 IS the
    // per-coordinate mean, so over full coverage both accumulators, divided
    // by n as the server divides them, must match to rounding error even
    // when the updates differ.
    #[test]
    fn trimmed_zero_matches_mean_on_distinct_updates(
        cols in proptest::collection::vec(finite_vec(9), 2..6),
    ) {
        let n = cols.len() as f32;
        let updates: Vec<SparseUpdate> = cols
            .into_iter()
            .map(|values| SparseUpdate { ranges: vec![(0, 9)], values })
            .collect();
        let mean = AggregatorConfig::mean().reduce(updates.clone(), 9);
        let trimmed = AggregatorConfig::parse("trimmed:0").unwrap().reduce(updates, 9);
        for (a, b) in trimmed.iter().zip(&mean) {
            prop_assert!((a / n - b / n).abs() <= 1e-5, "{} vs {}", a / n, b / n);
        }
    }

    // Clipping never increases the norm, and re-clipping moves nothing
    // beyond f32 rounding (the re-measured norm can land a few ulps above
    // the bound, so bit-exact idempotence is not promised).
    #[test]
    fn clip_never_increases_norm_and_is_stable(
        mut values in finite_vec(24),
        bound in 0.1f32..20.0,
    ) {
        clip_l2(&mut values, bound);
        let norm = l2_norm(&values);
        prop_assert!(norm <= bound * (1.0 + 1e-5), "{} > {}", norm, bound);
        let once = values.clone();
        clip_l2(&mut values, bound);
        for (a, b) in values.iter().zip(&once) {
            prop_assert!((a - b).abs() <= b.abs() * 1e-5 + 1e-7, "{} vs {}", a, b);
        }
    }

    // The gate accepts exactly the finite, right-length, in-bound updates.
    #[test]
    fn gate_accepts_all_finite_updates_within_bound(values in finite_vec(16)) {
        prop_assert!(validate_update(&values, 16, None).is_ok());
        prop_assert!(validate_update(&values, 16, Some(l2_norm(&values) + 1.0)).is_ok());
        prop_assert!(validate_update(&values, 15, None).is_err());
        let mut poisoned = values;
        poisoned[7] = f32::NAN;
        prop_assert!(validate_update(&poisoned, 16, None).is_err());
    }
}
