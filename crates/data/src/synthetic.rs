//! Procedural image dataset generation.

use fedrlnas_tensor::Tensor;
use rand::Rng;

/// Specification of a synthetic dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Human-readable name used in reports ("cifar10-like", …).
    pub name: String,
    /// Number of classes.
    pub num_classes: usize,
    /// Image height/width.
    pub image_hw: usize,
    /// Channels (3 for the RGB datasets the paper uses).
    pub channels: usize,
    /// Std-dev of additive Gaussian pixel noise — the difficulty knob.
    pub noise: f32,
    /// Training samples per class.
    pub train_per_class: usize,
    /// Test samples per class.
    pub test_per_class: usize,
    /// Class-pattern seed so different datasets have different classes.
    pub pattern_seed: u64,
}

impl DatasetSpec {
    /// CIFAR10 analogue: 10 visually overlapping classes, higher noise.
    pub fn cifar10_like() -> Self {
        DatasetSpec {
            name: "cifar10-like".into(),
            num_classes: 10,
            image_hw: 8,
            channels: 3,
            noise: 0.55,
            train_per_class: 100,
            test_per_class: 25,
            pattern_seed: 0xC1FA_0010,
        }
    }

    /// SVHN analogue: 10 classes, cleaner structure (SVHN digits are easier
    /// than CIFAR10 objects; the paper's SVHN search converges in fewer
    /// steps).
    pub fn svhn_like() -> Self {
        DatasetSpec {
            name: "svhn-like".into(),
            num_classes: 10,
            image_hw: 8,
            channels: 3,
            noise: 0.3,
            train_per_class: 100,
            test_per_class: 25,
            pattern_seed: 0x5FA9_0010,
        }
    }

    /// CIFAR100 analogue for the transfer experiments. 20 classes stand in
    /// for CIFAR100's 20 coarse superclasses — enough label diversity to
    /// test genotype transfer without inflating the proxy classifier.
    pub fn cifar100_like() -> Self {
        DatasetSpec {
            name: "cifar100-like".into(),
            num_classes: 20,
            image_hw: 8,
            channels: 3,
            noise: 0.6,
            train_per_class: 60,
            test_per_class: 15,
            pattern_seed: 0xC1FA_0100,
        }
    }

    /// Overrides per-class sample counts (builder-style).
    pub fn with_sizes(mut self, train_per_class: usize, test_per_class: usize) -> Self {
        self.train_per_class = train_per_class;
        self.test_per_class = test_per_class;
        self
    }

    /// Overrides the image extent (builder-style).
    pub fn with_image_hw(mut self, hw: usize) -> Self {
        self.image_hw = hw;
        self
    }

    /// Training samples the spec generates.
    pub fn train_len(&self) -> usize {
        self.num_classes * self.train_per_class
    }

    /// Elements per image.
    pub fn image_len(&self) -> usize {
        self.channels * self.image_hw * self.image_hw
    }
}

/// Deterministic per-class pattern parameters derived from the spec seed.
#[derive(Debug, Clone)]
struct ClassPattern {
    /// Stripe orientation in radians (conv-sensitive feature).
    theta: f32,
    /// Stripe spatial frequency.
    freq: f32,
    /// Blob center in unit coordinates (pool-sensitive feature).
    blob: (f32, f32),
    /// Per-channel mean color (globally detectable feature).
    color: [f32; 3],
    /// Relative strength of stripe vs blob structure.
    stripe_weight: f32,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f32 {
    (splitmix64(state) >> 40) as f32 / (1u64 << 24) as f32
}

impl ClassPattern {
    fn for_class(spec: &DatasetSpec, class: usize) -> Self {
        let mut state = spec
            .pattern_seed
            .wrapping_mul(0x2545_F491_4F6C_DD1D)
            .wrapping_add(class as u64);
        // Orientations spread evenly with jitter so classes are separable
        // but neighbors overlap (CIFAR-like confusability).
        let theta = std::f32::consts::PI * (class as f32 / spec.num_classes as f32)
            + 0.15 * unit(&mut state);
        let freq = 1.0 + 2.0 * unit(&mut state);
        let blob = (0.2 + 0.6 * unit(&mut state), 0.2 + 0.6 * unit(&mut state));
        let color = [
            0.3 + 0.4 * unit(&mut state),
            0.3 + 0.4 * unit(&mut state),
            0.3 + 0.4 * unit(&mut state),
        ];
        let stripe_weight = 0.4 + 0.5 * unit(&mut state);
        ClassPattern {
            theta,
            freq,
            blob,
            color,
            stripe_weight,
        }
    }
}

/// An in-memory labeled image dataset (train + test splits).
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    spec: DatasetSpec,
    train_images: Vec<Vec<f32>>,
    train_labels: Vec<usize>,
    test_images: Vec<Vec<f32>>,
    test_labels: Vec<usize>,
}

impl SyntheticDataset {
    /// Generates the dataset described by `spec`, drawing per-sample phase,
    /// jitter and noise from `rng`.
    pub fn generate<R: Rng + ?Sized>(spec: &DatasetSpec, rng: &mut R) -> Self {
        let patterns: Vec<ClassPattern> = (0..spec.num_classes)
            .map(|c| ClassPattern::for_class(spec, c))
            .collect();
        let gen_split = |per_class: usize, rng: &mut R| {
            let mut images = Vec::with_capacity(per_class * spec.num_classes);
            let mut labels = Vec::with_capacity(per_class * spec.num_classes);
            for (c, pat) in patterns.iter().enumerate() {
                for _ in 0..per_class {
                    images.push(render_sample(spec, pat, rng));
                    labels.push(c);
                }
            }
            (images, labels)
        };
        let (train_images, train_labels) = gen_split(spec.train_per_class, rng);
        let (test_images, test_labels) = gen_split(spec.test_per_class, rng);
        SyntheticDataset {
            spec: spec.clone(),
            train_images,
            train_labels,
            test_images,
            test_labels,
        }
    }

    /// The generating specification.
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// Number of training samples.
    pub fn len(&self) -> usize {
        self.train_images.len()
    }

    /// Returns `true` if the training split is empty.
    pub fn is_empty(&self) -> bool {
        self.train_images.is_empty()
    }

    /// Training labels (used by the partitioners).
    pub fn labels(&self) -> &[usize] {
        &self.train_labels
    }

    /// Test labels.
    pub fn test_labels(&self) -> &[usize] {
        &self.test_labels
    }

    /// Number of test samples.
    pub fn test_len(&self) -> usize {
        self.test_images.len()
    }

    /// A training image as a flat `[c * h * w]` slice.
    pub fn image(&self, i: usize) -> &[f32] {
        &self.train_images[i]
    }

    /// Assembles a training batch `[n, c, h, w]` from sample indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        self.assemble(indices, &self.train_images, &self.train_labels)
    }

    /// Assembles a test batch `[n, c, h, w]` from test-split indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn test_batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        self.assemble(indices, &self.test_images, &self.test_labels)
    }

    fn assemble(
        &self,
        indices: &[usize],
        images: &[Vec<f32>],
        labels: &[usize],
    ) -> (Tensor, Vec<usize>) {
        let il = self.spec.image_len();
        let mut data = Vec::with_capacity(indices.len() * il);
        let mut out_labels = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(&images[i]);
            out_labels.push(labels[i]);
        }
        let t = Tensor::from_vec(
            data,
            &[
                indices.len(),
                self.spec.channels,
                self.spec.image_hw,
                self.spec.image_hw,
            ],
        )
        .expect("image_len consistent with dims");
        (t, out_labels)
    }
}

/// Renders one sample of a class pattern with random phase, jitter and
/// noise.
fn render_sample<R: Rng + ?Sized>(spec: &DatasetSpec, pat: &ClassPattern, rng: &mut R) -> Vec<f32> {
    let hw = spec.image_hw;
    let mut img = vec![0.0f32; spec.image_len()];
    let phase: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
    let jx: f32 = rng.gen_range(-0.1..0.1);
    let jy: f32 = rng.gen_range(-0.1..0.1);
    let (dirx, diry) = (pat.theta.cos(), pat.theta.sin());
    let sigma = 0.18f32;
    for y in 0..hw {
        for x in 0..hw {
            let u = x as f32 / hw as f32;
            let v = y as f32 / hw as f32;
            // oriented stripes: high-frequency structure a conv kernel can
            // pick up but pooling smears out
            let stripe = (std::f32::consts::TAU * pat.freq * (u * dirx + v * diry) + phase).sin();
            // localized blob: low-frequency structure pooling preserves
            let dx = u - (pat.blob.0 + jx);
            let dy = v - (pat.blob.1 + jy);
            let blob = (-(dx * dx + dy * dy) / (2.0 * sigma * sigma)).exp();
            let base = pat.stripe_weight * stripe + (1.0 - pat.stripe_weight) * (2.0 * blob - 1.0);
            for ch in 0..spec.channels {
                let color = pat.color[ch.min(2)];
                let noise: f32 = {
                    // Box–Muller on two uniforms
                    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                    let u2: f32 = rng.gen_range(0.0..1.0);
                    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
                };
                img[(ch * hw + y) * hw + x] = color * base + spec.noise * noise;
            }
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn generates_requested_counts() {
        let mut rng = StdRng::seed_from_u64(0);
        let spec = DatasetSpec::cifar10_like().with_sizes(7, 3);
        let d = SyntheticDataset::generate(&spec, &mut rng);
        assert_eq!(d.len(), 70);
        assert_eq!(d.test_len(), 30);
        assert_eq!(d.labels().iter().filter(|&&l| l == 4).count(), 7);
    }

    #[test]
    fn batch_shapes_and_labels() {
        let mut rng = StdRng::seed_from_u64(1);
        let spec = DatasetSpec::svhn_like().with_sizes(5, 2);
        let d = SyntheticDataset::generate(&spec, &mut rng);
        let (x, y) = d.batch(&[0, 6, 12]);
        assert_eq!(x.dims(), &[3, 3, 8, 8]);
        assert_eq!(y, vec![0, 1, 2]);
        let (tx, _) = d.test_batch(&[0]);
        assert_eq!(tx.dims(), &[1, 3, 8, 8]);
    }

    #[test]
    fn class_patterns_are_deterministic_per_spec() {
        let mut r1 = StdRng::seed_from_u64(2);
        let mut r2 = StdRng::seed_from_u64(2);
        let spec = DatasetSpec::cifar10_like().with_sizes(2, 1);
        let a = SyntheticDataset::generate(&spec, &mut r1);
        let b = SyntheticDataset::generate(&spec, &mut r2);
        assert_eq!(a.image(0), b.image(0));
    }

    #[test]
    fn classes_are_statistically_separable() {
        // nearest-centroid on raw pixels should beat chance by a wide
        // margin on the low-noise dataset; this is the "search has signal"
        // sanity check.
        let mut rng = StdRng::seed_from_u64(3);
        let spec = DatasetSpec::svhn_like().with_sizes(30, 10);
        let d = SyntheticDataset::generate(&spec, &mut rng);
        let il = spec.image_len();
        let mut centroids = vec![vec![0.0f64; il]; spec.num_classes];
        let mut counts = vec![0usize; spec.num_classes];
        for i in 0..d.len() {
            let c = d.labels()[i];
            counts[c] += 1;
            for (acc, v) in centroids[c].iter_mut().zip(d.image(i)) {
                *acc += *v as f64;
            }
        }
        for (c, cen) in centroids.iter_mut().enumerate() {
            for v in cen.iter_mut() {
                *v /= counts[c] as f64;
            }
        }
        let mut correct = 0usize;
        for i in 0..d.test_len() {
            let (x, y) = d.test_batch(&[i]);
            let img = x.as_slice();
            let mut best = (f64::INFINITY, 0usize);
            for (c, cen) in centroids.iter().enumerate() {
                let dist: f64 = cen
                    .iter()
                    .zip(img)
                    .map(|(a, b)| (a - *b as f64).powi(2))
                    .sum();
                if dist < best.0 {
                    best = (dist, c);
                }
            }
            if best.1 == y[0] {
                correct += 1;
            }
        }
        let acc = correct as f64 / d.test_len() as f64;
        assert!(
            acc > 0.3,
            "nearest-centroid accuracy {acc} barely above chance"
        );
    }

    #[test]
    fn difficulty_ordering_svhn_easier_than_cifar100() {
        assert!(DatasetSpec::svhn_like().noise < DatasetSpec::cifar10_like().noise);
        assert!(DatasetSpec::cifar10_like().noise < DatasetSpec::cifar100_like().noise);
        assert!(DatasetSpec::cifar100_like().num_classes > DatasetSpec::cifar10_like().num_classes);
    }
}
