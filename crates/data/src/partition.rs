//! Partitioning datasets across federated participants.
//!
//! The paper composes its non-i.i.d. datasets "according to FedNAS": for
//! each class, sample proportions from a Dirichlet distribution
//! `Dir(0.5)` and distribute that class's samples across the `K`
//! participants accordingly (§VI-A).

use rand::Rng;

/// Splits sample indices uniformly at random into `k` near-equal shards —
/// the i.i.d. baseline partition.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn iid_partition<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> Vec<Vec<usize>> {
    assert!(k > 0, "need at least one participant");
    let mut idx: Vec<usize> = (0..n).collect();
    shuffle(&mut idx, rng);
    let mut parts = vec![Vec::with_capacity(n / k + 1); k];
    for (i, s) in idx.into_iter().enumerate() {
        parts[i % k].push(s);
    }
    parts
}

/// Per-class Dirichlet partition `Dir(beta)`: for each class, proportions
/// over the `k` participants are drawn from a symmetric Dirichlet and the
/// class's samples are dealt out accordingly. Lower `beta` → more skew;
/// the paper uses `beta = 0.5`.
///
/// Every participant is guaranteed at least one sample (a non-empty local
/// dataset is assumed throughout Algorithm 1): leftover rounding samples
/// are dealt to the smallest shards.
///
/// # Panics
///
/// Panics if `k == 0`, `beta <= 0`, or `labels` is empty.
pub fn dirichlet_partition<R: Rng + ?Sized>(
    labels: &[usize],
    k: usize,
    beta: f64,
    rng: &mut R,
) -> Vec<Vec<usize>> {
    assert!(k > 0, "need at least one participant");
    assert!(beta > 0.0, "dirichlet concentration must be positive");
    assert!(!labels.is_empty(), "cannot partition an empty dataset");
    let num_classes = labels.iter().copied().max().expect("non-empty") + 1;
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); num_classes];
    for (i, &l) in labels.iter().enumerate() {
        by_class[l].push(i);
    }
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); k];
    for class_indices in by_class.iter_mut() {
        if class_indices.is_empty() {
            continue;
        }
        shuffle(class_indices, rng);
        let props = dirichlet_symmetric(k, beta, rng);
        let n = class_indices.len();
        let mut cursor = 0usize;
        for (p, part) in props.iter().zip(parts.iter_mut()) {
            let take = ((p * n as f64).floor() as usize).min(n - cursor);
            part.extend_from_slice(&class_indices[cursor..cursor + take]);
            cursor += take;
        }
        // deal rounding leftovers to the currently smallest shards
        while cursor < n {
            let smallest = (0..k)
                .min_by_key(|&i| parts[i].len())
                .expect("k > 0 checked");
            parts[smallest].push(class_indices[cursor]);
            cursor += 1;
        }
    }
    // guarantee non-empty shards by stealing from the largest
    for i in 0..k {
        if parts[i].is_empty() {
            let largest = (0..k)
                .max_by_key(|&j| parts[j].len())
                .expect("k > 0 checked");
            if let Some(s) = parts[largest].pop() {
                parts[i].push(s);
            }
        }
    }
    parts
}

/// Samples a symmetric Dirichlet of dimension `k` and concentration `beta`
/// by normalizing i.i.d. Gamma(beta, 1) draws.
fn dirichlet_symmetric<R: Rng + ?Sized>(k: usize, beta: f64, rng: &mut R) -> Vec<f64> {
    let mut draws: Vec<f64> = (0..k).map(|_| gamma_sample(beta, rng)).collect();
    let total: f64 = draws.iter().sum();
    if total <= 0.0 {
        return vec![1.0 / k as f64; k];
    }
    for d in &mut draws {
        *d /= total;
    }
    draws
}

/// Marsaglia–Tsang Gamma(shape, 1) sampler; the `shape < 1` boost uses
/// `Gamma(a) = Gamma(a + 1) * U^{1/a}`.
fn gamma_sample<R: Rng + ?Sized>(shape: f64, rng: &mut R) -> f64 {
    if shape < 1.0 {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        return gamma_sample(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = {
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        };
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Fisher–Yates shuffle (kept local to avoid depending on `rand`'s `Slice`
/// extension trait everywhere).
fn shuffle<T, R: Rng + ?Sized>(v: &mut [T], rng: &mut R) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn labels(classes: usize, per_class: usize) -> Vec<usize> {
        (0..classes * per_class).map(|i| i / per_class).collect()
    }

    #[test]
    fn iid_covers_all_samples_evenly() {
        let mut rng = StdRng::seed_from_u64(0);
        let parts = iid_partition(100, 7, &mut rng);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, 100);
        for p in &parts {
            assert!(p.len() == 14 || p.len() == 15);
        }
        let mut all: Vec<usize> = parts.concat();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn dirichlet_partitions_every_sample_once() {
        let mut rng = StdRng::seed_from_u64(1);
        let l = labels(10, 50);
        let parts = dirichlet_partition(&l, 10, 0.5, &mut rng);
        let mut all: Vec<usize> = parts.concat();
        all.sort_unstable();
        assert_eq!(all, (0..500).collect::<Vec<_>>());
        assert!(parts.iter().all(|p| !p.is_empty()));
    }

    #[test]
    fn dirichlet_low_beta_is_skewed() {
        let mut rng = StdRng::seed_from_u64(2);
        let l = labels(10, 100);
        let skewed = dirichlet_partition(&l, 10, 0.1, &mut rng);
        let balanced = dirichlet_partition(&l, 10, 100.0, &mut rng);
        // measure: average per-participant class-distribution distance from
        // uniform, should be larger for low beta
        let skewness = |parts: &[Vec<usize>]| -> f64 {
            let mut total = 0.0;
            for p in parts {
                let mut counts = [0usize; 10];
                for &i in p {
                    counts[l[i]] += 1;
                }
                let n = p.len().max(1) as f64;
                total += counts
                    .iter()
                    .map(|&c| (c as f64 / n - 0.1).abs())
                    .sum::<f64>();
            }
            total / parts.len() as f64
        };
        assert!(
            skewness(&skewed) > 2.0 * skewness(&balanced),
            "Dir(0.1) skew {} should far exceed Dir(100) skew {}",
            skewness(&skewed),
            skewness(&balanced)
        );
    }

    #[test]
    fn gamma_sampler_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        for shape in [0.5f64, 1.0, 4.0] {
            let n = 20_000;
            let mean: f64 = (0..n).map(|_| gamma_sample(shape, &mut rng)).sum::<f64>() / n as f64;
            assert!(
                (mean - shape).abs() < 0.1 * shape.max(1.0),
                "Gamma({shape}) mean {mean}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = iid_partition(10, 0, &mut rng);
    }
}
