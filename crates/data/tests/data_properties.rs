//! Property-based tests for dataset generation, partitioning and
//! augmentation.

use fedrlnas_data::AugmentConfig;
use fedrlnas_data::{
    cutout, dirichlet_partition, horizontal_flip, iid_partition, random_crop, DatasetSpec, Loader,
    SyntheticDataset,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generation_counts_and_label_ranges(
        classes in 2usize..8,
        train in 1usize..10,
        test in 1usize..5,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = DatasetSpec {
            name: "prop".into(),
            num_classes: classes,
            image_hw: 6,
            channels: 3,
            noise: 0.4,
            train_per_class: train,
            test_per_class: test,
            pattern_seed: seed,
        };
        let d = SyntheticDataset::generate(&spec, &mut rng);
        prop_assert_eq!(d.len(), classes * train);
        prop_assert_eq!(d.test_len(), classes * test);
        prop_assert!(d.labels().iter().all(|&l| l < classes));
        prop_assert!(d.image(0).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn every_partitioner_is_an_exact_cover(
        n in 10usize..100,
        k in 1usize..8,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let labels: Vec<usize> = (0..n).map(|i| i % 5).collect();
        for parts in [
            iid_partition(n, k, &mut rng),
            dirichlet_partition(&labels, k, 0.5, &mut rng),
        ] {
            let mut all: Vec<usize> = parts.concat();
            all.sort_unstable();
            prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn augmentations_preserve_extent_and_finiteness(
        hw in 4usize..10,
        pad in 1usize..4,
        side in 1usize..6,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut img: Vec<f32> = (0..3 * hw * hw).map(|v| v as f32 / 10.0).collect();
        let before_len = img.len();
        random_crop(&mut img, 3, hw, pad, &mut rng);
        horizontal_flip(&mut img, 3, hw);
        cutout(&mut img, 3, hw, side, &mut rng);
        prop_assert_eq!(img.len(), before_len);
        prop_assert!(img.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn loader_batches_always_full(
        shard in 1usize..30,
        batch in 1usize..10,
        draws in 1usize..8,
        seed in 0u64..200,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = SyntheticDataset::generate(
            &DatasetSpec::svhn_like().with_sizes(3, 1),
            &mut rng,
        );
        let indices: Vec<usize> = (0..shard.min(d.len())).collect();
        let mut loader = Loader::new(indices.clone(), batch, AugmentConfig::none());
        for _ in 0..draws {
            let (x, y) = loader.next_batch(&d, &mut rng);
            let expect = batch.min(indices.len());
            prop_assert_eq!(x.dims()[0], expect);
            prop_assert_eq!(y.len(), expect);
        }
    }

    #[test]
    fn every_epoch_of_the_schedule_covers_the_shard_once(
        shard in 1usize..40,
        batch in 1usize..12,
        key in 0u64..u64::MAX,
        epochs in 1usize..4,
    ) {
        // batch sizes that do not divide the shard, and ones larger than
        // it, included: positions run on across draw boundaries
        let indices: Vec<usize> = (0..shard).map(|i| 3 * i + 1).collect();
        let loader = Loader::new(indices.clone(), batch, AugmentConfig::none()).with_key(key);
        let b = batch.min(shard);
        let draws = (epochs * shard).div_ceil(b) as u64;
        let positions: Vec<usize> = (0..draws).flat_map(|d| loader.draw_indices(d)).collect();
        prop_assert_eq!(positions.len(), draws as usize * b);
        for epoch in positions.chunks(shard).take(epochs) {
            let mut seen = epoch.to_vec();
            seen.sort_unstable();
            prop_assert_eq!(&seen, &indices);
        }
    }

    #[test]
    fn dirichlet_beta_extremes_behave(
        k in 2usize..6,
        seed in 0u64..200,
    ) {
        // enormous beta → near-uniform shard sizes
        let mut rng = StdRng::seed_from_u64(seed);
        let labels: Vec<usize> = (0..200).map(|i| i % 4).collect();
        let parts = dirichlet_partition(&labels, k, 1e6, &mut rng);
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        let max = *sizes.iter().max().expect("k > 0");
        let min = *sizes.iter().min().expect("k > 0");
        prop_assert!(max - min <= 200 / k, "sizes {sizes:?} too uneven for beta = 1e6");
    }
}
