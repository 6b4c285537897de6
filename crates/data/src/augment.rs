//! Training-time augmentation: random crop, horizontal flip and cutout.
//!
//! Table I fixes cutout 16, random clip (crop padding) 4 and horizontal
//! flip probability 0.5 at CIFAR scale (32px); the proxy-scale defaults
//! shrink proportionally with the image extent.

use rand::Rng;

/// Augmentation hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AugmentConfig {
    /// Zero-padding for random crop ("random clip" in Table I).
    pub crop_padding: usize,
    /// Probability of a horizontal flip ("random horizontal flapping").
    pub flip_prob: f32,
    /// Side length of the cutout square (0 disables).
    pub cutout: usize,
}

impl AugmentConfig {
    /// Table I values at CIFAR scale: pad 4, flip 0.5, cutout 16.
    pub fn paper() -> Self {
        AugmentConfig {
            crop_padding: 4,
            flip_prob: 0.5,
            cutout: 16,
        }
    }

    /// Scales the paper values to a proxy image extent (`hw` pixels): the
    /// ratios padding/extent = 1/8 and cutout/extent = 1/2 are preserved.
    pub fn scaled_to(hw: usize) -> Self {
        AugmentConfig {
            crop_padding: (hw / 8).max(1),
            flip_prob: 0.5,
            cutout: hw / 2,
        }
    }

    /// Disables all augmentation (evaluation batches).
    pub fn none() -> Self {
        AugmentConfig {
            crop_padding: 0,
            flip_prob: 0.0,
            cutout: 0,
        }
    }

    /// Applies the configured augmentations in place to one CHW image.
    pub fn apply<R: Rng + ?Sized>(
        &self,
        image: &mut [f32],
        channels: usize,
        hw: usize,
        rng: &mut R,
    ) {
        if self.crop_padding > 0 {
            random_crop(image, channels, hw, self.crop_padding, rng);
        }
        if self.flip_prob > 0.0 && rng.gen_range(0.0..1.0) < self.flip_prob {
            horizontal_flip(image, channels, hw);
        }
        if self.cutout > 0 {
            cutout(image, channels, hw, self.cutout, rng);
        }
    }
}

/// Pads the image by `padding` zeros on every side and crops a random
/// `hw x hw` window back out, in place.
///
/// # Panics
///
/// Panics if `image.len() != channels * hw * hw`.
pub fn random_crop<R: Rng + ?Sized>(
    image: &mut [f32],
    channels: usize,
    hw: usize,
    padding: usize,
    rng: &mut R,
) {
    assert_eq!(image.len(), channels * hw * hw, "image extent mismatch");
    let off_y = rng.gen_range(0..=2 * padding) as isize - padding as isize;
    let off_x = rng.gen_range(0..=2 * padding) as isize - padding as isize;
    if off_x == 0 && off_y == 0 {
        return;
    }
    let mut out = vec![0.0f32; image.len()];
    for c in 0..channels {
        for y in 0..hw {
            let sy = y as isize + off_y;
            if sy < 0 || sy >= hw as isize {
                continue;
            }
            for x in 0..hw {
                let sx = x as isize + off_x;
                if sx < 0 || sx >= hw as isize {
                    continue;
                }
                out[(c * hw + y) * hw + x] = image[(c * hw + sy as usize) * hw + sx as usize];
            }
        }
    }
    image.copy_from_slice(&out);
}

/// Mirrors the image horizontally in place.
///
/// # Panics
///
/// Panics if `image.len() != channels * hw * hw`.
pub fn horizontal_flip(image: &mut [f32], channels: usize, hw: usize) {
    assert_eq!(image.len(), channels * hw * hw, "image extent mismatch");
    for c in 0..channels {
        for y in 0..hw {
            let row = (c * hw + y) * hw;
            image[row..row + hw].reverse();
        }
    }
}

/// Zeroes a random `side x side` square (clipped at borders) in place —
/// the cutout regularization of DeVries & Taylor used by DARTS and Table I.
///
/// # Panics
///
/// Panics if `image.len() != channels * hw * hw`.
pub fn cutout<R: Rng + ?Sized>(
    image: &mut [f32],
    channels: usize,
    hw: usize,
    side: usize,
    rng: &mut R,
) {
    assert_eq!(image.len(), channels * hw * hw, "image extent mismatch");
    if side == 0 {
        return;
    }
    let cy = rng.gen_range(0..hw) as isize;
    let cx = rng.gen_range(0..hw) as isize;
    let half = (side / 2) as isize;
    let y0 = (cy - half).max(0) as usize;
    let y1 = ((cy + half + side as isize % 2).min(hw as isize)) as usize;
    let x0 = (cx - half).max(0) as usize;
    let x1 = ((cx + half + side as isize % 2).min(hw as isize)) as usize;
    for c in 0..channels {
        for y in y0..y1 {
            for x in x0..x1 {
                image[(c * hw + y) * hw + x] = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn ramp(channels: usize, hw: usize) -> Vec<f32> {
        (0..channels * hw * hw).map(|v| v as f32).collect()
    }

    #[test]
    fn flip_is_involution() {
        let mut img = ramp(2, 4);
        let orig = img.clone();
        horizontal_flip(&mut img, 2, 4);
        assert_ne!(img, orig);
        horizontal_flip(&mut img, 2, 4);
        assert_eq!(img, orig);
    }

    #[test]
    fn flip_reverses_rows() {
        let mut img = vec![1.0, 2.0, 3.0, 4.0];
        horizontal_flip(&mut img, 1, 2);
        assert_eq!(img, vec![2.0, 1.0, 4.0, 3.0]);
    }

    #[test]
    fn cutout_zeroes_a_region_only() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut img = vec![1.0f32; 3 * 8 * 8];
        cutout(&mut img, 3, 8, 4, &mut rng);
        let zeros = img.iter().filter(|v| **v == 0.0).count();
        assert!(zeros > 0, "cutout must zero something");
        assert!(zeros < img.len(), "cutout must not erase everything");
        // zero count is a multiple of channel count (same hole per channel)
        assert_eq!(zeros % 3, 0);
    }

    #[test]
    fn crop_preserves_extent_and_values_subset() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut img = ramp(1, 6);
        let orig = img.clone();
        random_crop(&mut img, 1, 6, 2, &mut rng);
        assert_eq!(img.len(), orig.len());
        // every non-zero pixel of the crop exists in the original
        for v in img.iter().filter(|v| **v != 0.0) {
            assert!(orig.contains(v));
        }
    }

    #[test]
    fn config_scaling() {
        let c = AugmentConfig::scaled_to(8);
        assert_eq!(c.crop_padding, 1);
        assert_eq!(c.cutout, 4);
        let p = AugmentConfig::paper();
        assert_eq!((p.crop_padding, p.cutout), (4, 16));
        let n = AugmentConfig::none();
        let mut img = ramp(1, 4);
        let orig = img.clone();
        let mut rng = StdRng::seed_from_u64(2);
        n.apply(&mut img, 1, 4, &mut rng);
        assert_eq!(img, orig);
    }
}
