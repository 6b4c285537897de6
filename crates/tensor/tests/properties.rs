//! Property-based tests for the tensor substrate.

use fedrlnas_tensor::{argmax_rows, col2im, gemm, im2col, softmax_rows, Conv2dGeometry, Tensor};
use proptest::prelude::*;

fn small_matrix() -> impl Strategy<Value = (usize, usize, Vec<f32>)> {
    (1usize..8, 1usize..8).prop_flat_map(|(m, n)| {
        proptest::collection::vec(-10.0f32..10.0, m * n).prop_map(move |v| (m, n, v))
    })
}

proptest! {
    #[test]
    fn add_commutes((m, n, a) in small_matrix(), scale in -3.0f32..3.0) {
        let ta = Tensor::from_vec(a.clone(), &[m, n]).unwrap();
        let tb = ta.scaled(scale);
        let ab = ta.add(&tb).unwrap();
        let ba = tb.add(&ta).unwrap();
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn sub_then_add_is_identity((m, n, a) in small_matrix()) {
        let ta = Tensor::from_vec(a, &[m, n]).unwrap();
        let tb = Tensor::full(&[m, n], 1.5);
        let mut round = ta.sub(&tb).unwrap();
        round.add_assign(&tb).unwrap();
        for (x, y) in round.as_slice().iter().zip(ta.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_identity_is_noop((m, n, a) in small_matrix()) {
        let ta = Tensor::from_vec(a, &[m, n]).unwrap();
        let prod = ta.matmul(&Tensor::eye(n)).unwrap();
        for (x, y) in prod.as_slice().iter().zip(ta.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_distributes_over_addition(
        (m, k, a) in small_matrix(),
        n in 1usize..6,
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let ta = Tensor::from_vec(a, &[m, k]).unwrap();
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let c = Tensor::randn(&[k, n], 1.0, &mut rng);
        let lhs = ta.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = ta.matmul(&b).unwrap().add(&ta.matmul(&c).unwrap()).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-2, "{} vs {}", x, y);
        }
    }

    #[test]
    fn transpose_involution((m, n, a) in small_matrix()) {
        let ta = Tensor::from_vec(a, &[m, n]).unwrap();
        prop_assert_eq!(ta.transpose().unwrap().transpose().unwrap(), ta);
    }

    #[test]
    fn clip_norm_never_exceeds((m, n, a) in small_matrix(), max in 0.1f32..5.0) {
        let mut t = Tensor::from_vec(a, &[m, n]).unwrap();
        t.clip_norm(max);
        prop_assert!(t.norm() <= max * 1.001);
    }

    #[test]
    fn softmax_rows_are_distributions((m, n, a) in small_matrix()) {
        let s = softmax_rows(&a, m, n);
        for r in 0..m {
            let row = &s[r * n..(r + 1) * n];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn argmax_picks_max((m, n, a) in small_matrix()) {
        let idx = argmax_rows(&a, m, n);
        for r in 0..m {
            let row = &a[r * n..(r + 1) * n];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            prop_assert_eq!(row[idx[r]], max);
        }
    }

    #[test]
    fn gemm_linear_in_a(m in 1usize..5, n in 1usize..5, k in 1usize..5, s in -2.0f32..2.0, seed in 0u64..100) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let sa: Vec<f32> = a.iter().map(|v| v * s).collect();
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        gemm(m, n, k, &a, &b, &mut c1);
        gemm(m, n, k, &sa, &b, &mut c2);
        for (x, y) in c1.iter().zip(c2.iter()) {
            prop_assert!((x * s - y).abs() < 1e-3);
        }
    }

    #[test]
    fn packed_gemm_matches_triple_loop(
        // Sizes straddle the microkernel tile edges (MR = 8, NR = 16) and the
        // small-problem dispatch threshold, so edge tiles, zero-padded panels
        // and both dispatch paths are all exercised.
        m in 1usize..40, n in 1usize..40, k in 1usize..70, seed in 0u64..500,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut c = vec![0.0f32; m * n];
        gemm(m, n, k, &a, &b, &mut c);
        // reference triple loop
        for i in 0..m {
            for j in 0..n {
                let mut want = 0.0f32;
                for p in 0..k {
                    want += a[i * k + p] * b[p * n + j];
                }
                prop_assert!(
                    (c[i * n + j] - want).abs() < 1e-3,
                    "({}, {}): {} vs {}", i, j, c[i * n + j], want
                );
            }
        }
    }

    #[test]
    fn im2col_col2im_adjoint(
        h in 3usize..7, w in 3usize..7, c in 1usize..3,
        stride in 1usize..3, seed in 0u64..200,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let geom = Conv2dGeometry::new(h, w, 3, stride, 1, 1);
        let x: Vec<f32> = (0..c * h * w).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let cols_len = geom.col_rows(c) * geom.out_positions();
        let y: Vec<f32> = (0..cols_len).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut cols = vec![0.0; cols_len];
        im2col(&x, c, &geom, &mut cols).unwrap();
        let lhs: f32 = cols.iter().zip(&y).map(|(p, q)| p * q).sum();
        let mut xg = vec![0.0; x.len()];
        col2im(&y, c, &geom, &mut xg).unwrap();
        let rhs: f32 = x.iter().zip(&xg).map(|(p, q)| p * q).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2, "{} vs {}", lhs, rhs);
    }
}

proptest! {
    // each case is one GEMM of 17 M multiply-adds and the triple loop
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn large_packed_gemm_matches_triple_loop(seed in 0u64..100) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // Several row panels, edge tiles on both sides and two depth blocks.
        let (m, n, k) = (200, 168, 512);
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut c = vec![0.0f32; m * n];
        gemm(m, n, k, &a, &b, &mut c);
        for i in 0..m {
            for j in 0..n {
                let mut want = 0.0f32;
                for p in 0..k {
                    want += a[i * k + p] * b[p * n + j];
                }
                prop_assert!(
                    (c[i * n + j] - want).abs() < 1e-3,
                    "({}, {}): {} vs {}", i, j, c[i * n + j], want
                );
            }
        }
    }
}
