//! Mini-batch loading over a participant's shard of a dataset.

use crate::augment::AugmentConfig;
use crate::synthetic::SyntheticDataset;
use fedrlnas_tensor::Tensor;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A mini-batch schedule over a participant's shard of a dataset's
/// training split, applying augmentation per sample — the participant-side
/// data pipeline of Algorithm 1 (lines 38–39: split into batches, sample
/// one).
///
/// The schedule is stateless: draw `d` takes positions `d·b .. (d+1)·b`
/// (`b = min(batch_size, |shard|)`) of an endless sequence of epochs, and
/// epoch `e` is a Fisher–Yates shuffle of the shard seeded by
/// `(key, e)`. A draw's samples are therefore a pure function of the key
/// and the draw number; only augmentation reads the caller's RNG. Nothing
/// about the schedule needs to be saved to resume it.
#[derive(Debug, Clone)]
pub struct Loader {
    shard: Vec<usize>,
    batch_size: usize,
    augment: AugmentConfig,
    key: u64,
    /// Draws handed out by [`Loader::next_batch`].
    draws: u64,
}

impl Loader {
    /// Creates a loader over `indices` (a shard from a partitioner), keyed
    /// `0`; see [`Loader::with_key`].
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0` or `indices` is empty.
    pub fn new(indices: Vec<usize>, batch_size: usize, augment: AugmentConfig) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        assert!(!indices.is_empty(), "loader needs at least one sample");
        Loader {
            shard: indices,
            batch_size,
            augment,
            key: 0,
            draws: 0,
        }
    }

    /// Builder-style: keys the shuffle of every epoch.
    pub fn with_key(mut self, key: u64) -> Self {
        self.key = key;
        self
    }

    /// Number of samples in the shard.
    pub fn len(&self) -> usize {
        self.shard.len()
    }

    /// Returns `true` if the shard is empty (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.shard.is_empty()
    }

    /// The dataset indices of draw `draw`: `min(batch_size, |shard|)`
    /// samples, wrapping into the next epoch's shuffle when an epoch ends
    /// mid-batch.
    pub fn draw_indices(&self, draw: u64) -> Vec<usize> {
        // positions in u128: any u64 draw (a round number read from a
        // frame) stays in range, and its epoch, at most `draw`, fits a u64
        let n = self.shard.len() as u128;
        let b = (self.batch_size as u128).min(n);
        let (mut pos, end) = (u128::from(draw) * b, (u128::from(draw) + 1) * b);
        let mut picked = Vec::with_capacity(b as usize);
        while pos < end {
            let e = pos / n;
            let (lo, hi) = ((pos - e * n) as usize, (end - e * n).min(n) as usize);
            picked.extend_from_slice(&self.shuffled(e as u64, hi)[lo..hi]);
            pos = e * n + hi as u128;
        }
        picked
    }

    /// The shard in epoch `epoch`'s order, settled up to position `len`: a
    /// forward Fisher–Yates fixes position `i` at step `i`, so the steps
    /// past `len` are never taken.
    fn shuffled(&self, epoch: u64, len: usize) -> Vec<usize> {
        let mut order = self.shard.clone();
        let n = order.len();
        let mut rng = StdRng::seed_from_u64(self.key ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for i in 0..len.min(n - 1) {
            order.swap(i, rng.gen_range(i..n));
        }
        order
    }

    /// Draw `draw` of the schedule as a batch, augmented on `rng`.
    pub fn batch_at<R: Rng + ?Sized>(
        &self,
        dataset: &SyntheticDataset,
        draw: u64,
        rng: &mut R,
    ) -> (Tensor, Vec<usize>) {
        let picked = self.draw_indices(draw);
        let (mut x, y) = dataset.batch(&picked);
        let spec = dataset.spec();
        let il = spec.image_len();
        for img in x.as_mut_slice().chunks_exact_mut(il) {
            self.augment.apply(img, spec.channels, spec.image_hw, rng);
        }
        (x, y)
    }

    /// The next draw of the schedule ([`Loader::batch_at`] on a counter
    /// of the calls so far). Batches wrap around epochs, so every call
    /// yields exactly `batch_size` samples (or the whole shard when it is
    /// smaller).
    pub fn next_batch<R: Rng + ?Sized>(
        &mut self,
        dataset: &SyntheticDataset,
        rng: &mut R,
    ) -> (Tensor, Vec<usize>) {
        self.draws += 1;
        self.batch_at(dataset, self.draws - 1, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::DatasetSpec;
    use rand::{rngs::StdRng, SeedableRng};

    fn dataset() -> (SyntheticDataset, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let d = SyntheticDataset::generate(&DatasetSpec::svhn_like().with_sizes(6, 2), &mut rng);
        (d, rng)
    }

    #[test]
    fn yields_full_batches() {
        let (d, mut rng) = dataset();
        let mut loader = Loader::new((0..30).collect(), 8, AugmentConfig::none());
        let (x, y) = loader.next_batch(&d, &mut rng);
        assert_eq!(x.dims()[0], 8);
        assert_eq!(y.len(), 8);
    }

    #[test]
    fn small_shard_wraps() {
        let (d, mut rng) = dataset();
        let mut loader = Loader::new(vec![0, 1, 2], 2, AugmentConfig::none());
        // 3 samples, batch 2: repeated draws must cycle without panicking
        for _ in 0..5 {
            let (x, _) = loader.next_batch(&d, &mut rng);
            assert_eq!(x.dims()[0], 2);
        }
    }

    #[test]
    fn epoch_covers_all_samples() {
        // 12 samples in batches of 5: each epoch's 12 positions straddle
        // draw boundaries and still hold every sample once
        let loader = Loader::new((100..112).collect(), 5, AugmentConfig::none()).with_key(9);
        let positions: Vec<usize> = (0..12).flat_map(|d| loader.draw_indices(d)).collect();
        for epoch in positions.chunks(12) {
            let mut seen = epoch.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (100..112).collect::<Vec<_>>());
        }
        assert_ne!(positions[..12], positions[12..24], "each epoch reshuffles");
    }

    #[test]
    fn the_last_draw_is_in_range() {
        let loader = Loader::new((0..7).collect(), 3, AugmentConfig::none()).with_key(1);
        let picked = loader.draw_indices(u64::MAX);
        assert_eq!(picked.len(), 3);
        assert!(picked.iter().all(|&i| i < 7));
    }

    #[test]
    fn augmentation_changes_pixels() {
        let (d, mut rng) = dataset();
        let mut plain = Loader::new(vec![0], 1, AugmentConfig::none());
        let mut auged = Loader::new(vec![0], 1, AugmentConfig::scaled_to(8));
        let (a, _) = plain.next_batch(&d, &mut rng);
        let (b, _) = auged.next_batch(&d, &mut rng);
        assert_ne!(a.as_slice(), b.as_slice());
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn rejects_empty_shard() {
        let _ = Loader::new(vec![], 4, AugmentConfig::none());
    }

    #[test]
    fn next_batch_counts_draws_of_the_schedule() {
        // next_batch is batch_at on a counter; the schedule is the key's
        // alone, so the order draws are asked for does not move them
        let (d, _) = dataset();
        let mut counted = Loader::new((0..10).collect(), 4, AugmentConfig::none()).with_key(3);
        let pure = counted.clone();
        let later: Vec<Vec<usize>> = (0..7u64)
            .rev()
            .map(|draw| pure.draw_indices(draw))
            .collect();
        for draw in 0..7u64 {
            let mut r1 = StdRng::seed_from_u64(draw);
            let mut r2 = StdRng::seed_from_u64(draw);
            let (x, y) = counted.next_batch(&d, &mut r1);
            let (x2, y2) = pure.batch_at(&d, draw, &mut r2);
            assert_eq!((x.as_slice(), &y), (x2.as_slice(), &y2), "draw {draw}");
            assert_eq!(pure.draw_indices(draw), later[6 - draw as usize]);
        }
        let other = Loader::new((0..10).collect(), 4, AugmentConfig::none()).with_key(4);
        assert_ne!(
            other.draw_indices(0),
            pure.draw_indices(0),
            "the key shuffles"
        );
    }
}
