//! Two-tier sharded aggregation: shard aggregators over cohort slices,
//! then a root merge.
//!
//! At 10k participants a single flat aggregation pass over every update
//! is the server's scalability wall for the robust rules — the
//! per-coordinate estimators sort full columns of `n` values and Krum is
//! quadratic in `n`. [`ShardTopology`] splits the cohort's updates into
//! `s` shard aggregators, each running the configured [`Aggregator`] rule
//! over its slice, and the root merges the per-shard accumulators
//! coordinate-wise. Updates are assigned to shards **round-robin by push
//! index**, so the partition is a pure function of arrival order — the
//! server pushes in report order (sorted by participant), which makes the
//! sharded result deterministic across engine modes.
//!
//! # Semantics per rule
//!
//! * **Mean (and clip+mean)** — the shard step is an *optimization
//!   boundary, not a semantic one*: summation is associative in exact
//!   arithmetic but not in f32, so partial per-shard sums would change
//!   the fold order and break bit-identity with the flat path. The
//!   sharded accumulator therefore routes the mean through the flat
//!   [`StreamingAccumulator`] fold — bit-identical to flat aggregation
//!   by construction, for every topology.
//! * **Median / trimmed / Krum** — genuinely shard: each shard computes
//!   `q_{c,s} · center_s(c)` over its slice and the root sums shards in
//!   shard order, i.e. a median-of-means-style two-tier estimator
//!   `Σ_s q_{c,s} · center_s(c)`. The total mass `Σ_s q_{c,s} = q_c` is
//!   preserved, so the caller's `1/m` scaling is unchanged and the
//!   result degrades gracefully to the flat estimate as shards shrink.
//!
//! # Robustness caveat (the f-bound changes)
//!
//! Sharding weakens the Byzantine tolerance of the robust rules: the
//! tolerance bound applies **within each shard**, not globally. Flat
//! trimmed-mean with trim `k` tolerates `k` outliers per coordinate;
//! under `s` shards each shard only tolerates `k` *of its own* outliers,
//! and an adversary who concentrates `> k` colluders into one shard
//! hijacks that shard's center outright — bounded in damage by the
//! shard's coverage mass `q_{c,s} ≈ q_c / s`, but hijacked nonetheless.
//! The same concentration argument applies to Krum's `f = n − m` and the
//! median's minority bound. Deployments that expect coordinated
//! adversaries should keep shards large enough that the per-shard
//! f-bound still covers the plausible collusion size. See DESIGN.md §4j.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::robust::{AggregatorConfig, AggregatorKind, SparseUpdate, StreamingAccumulator};

/// How the cohort's updates are partitioned into shard aggregators.
/// `shards = 1` is the flat (single-tier) topology and the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardTopology {
    /// Number of shard aggregators (≥ 1; 1 means flat).
    pub shards: usize,
}

impl Default for ShardTopology {
    fn default() -> Self {
        ShardTopology::flat()
    }
}

impl ShardTopology {
    /// Single-tier aggregation — every update goes through one flat pass.
    pub fn flat() -> Self {
        ShardTopology { shards: 1 }
    }

    /// Two-tier aggregation over `shards` shard aggregators.
    pub fn sharded(shards: usize) -> Self {
        ShardTopology { shards }
    }

    /// `true` when aggregation is single-tier.
    pub fn is_flat(&self) -> bool {
        self.shards <= 1
    }

    /// The shard the update at push position `idx` lands in (round-robin).
    pub fn shard_of(&self, idx: usize) -> usize {
        idx % self.shards.max(1)
    }

    /// Parses a `--topology` spec: `flat` or `shards:<s>`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the invalid token.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let spec = spec.trim();
        if spec == "flat" {
            return Ok(ShardTopology::flat());
        }
        if let Some(arg) = spec.strip_prefix("shards:") {
            let shards: usize = arg
                .parse()
                .map_err(|e| format!("bad shard count {arg:?}: {e}"))?;
            let t = ShardTopology { shards };
            t.validate()?;
            return Ok(t);
        }
        Err(format!(
            "unknown topology {spec:?} (expected flat|shards:<s>)"
        ))
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("topology needs at least one shard".into());
        }
        Ok(())
    }
}

impl fmt::Display for ShardTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_flat() {
            write!(f, "flat")
        } else {
            write!(f, "shards:{}", self.shards)
        }
    }
}

/// Topology-aware incremental aggregation front-end: the drop-in
/// replacement for [`StreamingAccumulator`] wherever a [`ShardTopology`]
/// is in play. Push updates in canonical order, read the pre-scaled
/// accumulator once — exactly the streaming contract, with the two-tier
/// semantics of the module docs layered on top.
pub struct ShardedAccumulator {
    mode: ShardMode,
}

enum ShardMode {
    /// Flat topology, or the (clipped) mean under any topology: the flat
    /// fold, bit-identical to single-tier aggregation.
    Flat(StreamingAccumulator),
    /// A robust rule under a sharded topology: buffer round-robin per
    /// shard, aggregate each shard at finish, root-merge in shard order.
    Shards {
        shards: Vec<Vec<SparseUpdate>>,
        next: usize,
        theta_len: usize,
        config: AggregatorConfig,
    },
}

impl ShardedAccumulator {
    /// Creates an accumulator for `config` under `topology` over a flat θ
    /// of `theta_len` coordinates.
    pub fn new(config: &AggregatorConfig, topology: ShardTopology, theta_len: usize) -> Self {
        let mode = if topology.is_flat() || config.kind == AggregatorKind::Mean {
            ShardMode::Flat(StreamingAccumulator::new(config, theta_len))
        } else {
            ShardMode::Shards {
                shards: vec![Vec::new(); topology.shards],
                next: 0,
                theta_len,
                config: *config,
            }
        };
        ShardedAccumulator { mode }
    }

    /// `true` when updates are being partitioned into shard aggregators
    /// (robust rule + multi-shard topology); `false` when the flat path
    /// is in effect.
    pub fn is_sharded(&self) -> bool {
        matches!(self.mode, ShardMode::Shards { .. })
    }

    /// Feeds one update. Push order must be canonical (the server pushes
    /// in report order) — it determines both the mean's f32 fold order
    /// and the round-robin shard assignment.
    pub fn push(&mut self, update: SparseUpdate) {
        match &mut self.mode {
            ShardMode::Flat(inner) => inner.push(update),
            ShardMode::Shards { shards, next, .. } => {
                shards[*next].push(update);
                *next = (*next + 1) % shards.len();
            }
        }
    }

    /// Returns the pre-scaled accumulator: coordinate `c` holds
    /// `q_c · center(g[c])` flat, or `Σ_s q_{c,s} · center_s(c)` sharded.
    pub fn finish(self) -> Vec<f32> {
        match self.mode {
            ShardMode::Flat(inner) => inner.finish(),
            ShardMode::Shards {
                shards,
                theta_len,
                config,
                ..
            } => {
                let rule = config.build();
                let mut root = vec![0.0f32; theta_len];
                for shard in shards {
                    if shard.is_empty() {
                        continue;
                    }
                    let partial = rule.accumulate_sparse(shard, theta_len);
                    for (r, p) in root.iter_mut().zip(&partial) {
                        *r += p;
                    }
                }
                root
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn sparse(ranges: &[(usize, usize)], values: &[f32]) -> SparseUpdate {
        SparseUpdate {
            ranges: ranges.to_vec(),
            values: values.to_vec(),
        }
    }

    fn run_sharded(
        config: &AggregatorConfig,
        topology: ShardTopology,
        updates: &[SparseUpdate],
        theta_len: usize,
    ) -> Vec<f32> {
        let mut acc = ShardedAccumulator::new(config, topology, theta_len);
        for u in updates {
            acc.push(u.clone());
        }
        acc.finish()
    }

    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length mismatch");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: coordinate {i} differs ({x} vs {y})"
            );
        }
    }

    /// Fixed-seed update set with overlapping irregular coverage, the
    /// regression workload for the per-rule pins below.
    fn seeded_updates(seed: u64, n: usize, theta_len: usize) -> Vec<SparseUpdate> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let off = rng.gen_range(0..theta_len / 2);
                let len = rng.gen_range(1..=theta_len - off);
                let values: Vec<f32> = (0..len).map(|_| rng.gen_range(-4.0..4.0)).collect();
                sparse(&[(off, len)], &values)
            })
            .collect()
    }

    #[test]
    fn parse_display_validate_round_trip() {
        for (spec, shards) in [("flat", 1), ("shards:4", 4), ("shards:1", 1)] {
            let t = ShardTopology::parse(spec).unwrap();
            assert_eq!(t.shards, shards);
            assert!(t.validate().is_ok());
            assert_eq!(ShardTopology::parse(&t.to_string()).unwrap(), t);
        }
        assert_eq!(ShardTopology::sharded(1).to_string(), "flat");
        assert_eq!(ShardTopology::default(), ShardTopology::flat());
        for bad in ["", "shards:0", "shards:x", "tree"] {
            assert!(ShardTopology::parse(bad).is_err(), "{bad:?} should fail");
        }
        assert!(ShardTopology { shards: 0 }.validate().is_err());
    }

    #[test]
    fn round_robin_assignment_is_a_pure_function_of_push_index() {
        let t = ShardTopology::sharded(3);
        let lanes: Vec<usize> = (0..7).map(|i| t.shard_of(i)).collect();
        assert_eq!(lanes, vec![0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(ShardTopology::flat().shard_of(5), 0);
    }

    #[test]
    fn mean_is_bit_identical_to_flat_under_any_topology() {
        let updates = seeded_updates(11, 9, 16);
        for config in [
            AggregatorConfig::parse("mean").unwrap(),
            AggregatorConfig::parse("clip:1.5").unwrap(),
        ] {
            let flat = run_sharded(&config, ShardTopology::flat(), &updates, 16);
            for s in [2, 3, 8, 64] {
                let sharded = run_sharded(&config, ShardTopology::sharded(s), &updates, 16);
                assert_bits_eq(&flat, &sharded, &format!("{config} shards:{s}"));
            }
        }
    }

    #[test]
    fn robust_rules_shard_and_flat_topology_is_identity() {
        let updates = seeded_updates(12, 8, 16);
        for spec in ["median", "trimmed:1", "krum:3", "clip:2.0+median"] {
            let config = AggregatorConfig::parse(spec).unwrap();
            // shards:1 must be the exact flat path, bit for bit
            let flat = config.build().accumulate_sparse(updates.clone(), 16);
            let one = run_sharded(&config, ShardTopology::sharded(1), &updates, 16);
            assert_bits_eq(&flat, &one, &format!("{spec} shards:1"));
            // multi-shard engages the two-tier path
            let mut acc = ShardedAccumulator::new(&config, ShardTopology::sharded(2), 16);
            assert!(acc.is_sharded());
            acc.push(updates[0].clone());
            assert!(acc.finish().iter().any(|&v| v != 0.0));
        }
    }

    #[test]
    fn sharded_result_matches_explicit_per_shard_reference() {
        // the definition, written out by hand: round-robin slices, the
        // rule per shard, root sum in shard order
        let updates = seeded_updates(13, 10, 16);
        for spec in ["median", "trimmed:1", "krum:3"] {
            let config = AggregatorConfig::parse(spec).unwrap();
            let topology = ShardTopology::sharded(3);
            let rule = config.build();
            let mut slices: Vec<Vec<SparseUpdate>> = vec![Vec::new(); 3];
            for (i, u) in updates.iter().enumerate() {
                slices[topology.shard_of(i)].push(u.clone());
            }
            let mut expected = vec![0.0f32; 16];
            for slice in slices {
                let partial = rule.accumulate_sparse(slice, 16);
                for (e, p) in expected.iter_mut().zip(&partial) {
                    *e += p;
                }
            }
            let got = run_sharded(&config, topology, &updates, 16);
            assert_bits_eq(&expected, &got, spec);
        }
    }

    #[test]
    fn sharding_preserves_coverage_mass() {
        // identical honest updates: every center equals the update, so
        // sharded and flat agree up to f32 rounding and the total mass
        // q_c is preserved exactly
        let updates: Vec<SparseUpdate> = (0..9)
            .map(|_| sparse(&[(0, 4)], &[0.25, -0.5, 1.0, 0.125]))
            .collect();
        for spec in ["median", "trimmed:1", "krum:9"] {
            let config = AggregatorConfig::parse(spec).unwrap();
            let got = run_sharded(&config, ShardTopology::sharded(3), &updates, 4);
            for (c, &expect) in [0.25f32, -0.5, 1.0, 0.125].iter().enumerate() {
                assert!(
                    (got[c] - 9.0 * expect).abs() < 1e-5,
                    "{spec}: coordinate {c} = {} (want {})",
                    got[c],
                    9.0 * expect
                );
            }
        }
    }

    #[test]
    fn pinned_sharded_median_regression() {
        // small exactly-representable values so the pins are stable:
        // 6 updates over one coordinate, 2 shards (round-robin: shard 0
        // gets {1, 3, 5}, shard 1 gets {2, 4, 1000}).
        let updates: Vec<SparseUpdate> = [1.0f32, 2.0, 3.0, 4.0, 5.0, 1000.0]
            .iter()
            .map(|&v| sparse(&[(0, 1)], &[v]))
            .collect();
        let config = AggregatorConfig::parse("median").unwrap();
        // shard medians: 3 and 4; root = 3·3 + 3·4 = 21
        let got = run_sharded(&config, ShardTopology::sharded(2), &updates, 1);
        assert_eq!(got, vec![21.0]);
        // flat median over all six = 3.5 → 6 × 3.5 = 21 here too, but a
        // 3-shard split isolates the attacker into a hijacked shard:
        // shards {1,4}, {2,1000}, {3,5} → medians 2.5, 501, 4 → mass-2
        // each → 2·2.5 + 2·501 + 2·4 = 1015 (the documented caveat:
        // per-shard f-bounds, damage bounded by shard mass)
        let got3 = run_sharded(&config, ShardTopology::sharded(3), &updates, 1);
        assert_eq!(got3, vec![1015.0]);
    }

    #[test]
    fn pinned_sharded_trimmed_and_krum_regressions() {
        let updates: Vec<SparseUpdate> = [2.0f32, 4.0, 6.0, 8.0, 10.0, 12.0]
            .iter()
            .map(|&v| sparse(&[(0, 1)], &[v]))
            .collect();
        // trimmed:1, 2 shards: shard 0 = {2,6,10} → trims to {6}; shard 1
        // = {4,8,12} → trims to {8}; root = 3·6 + 3·8 = 42
        let trimmed = AggregatorConfig::parse("trimmed:1").unwrap();
        let got = run_sharded(&trimmed, ShardTopology::sharded(2), &updates, 1);
        assert_eq!(got, vec![42.0]);
        // krum:3 with 3 per shard keeps everyone: root = plain sum = 42
        let krum = AggregatorConfig::parse("krum:3").unwrap();
        let got = run_sharded(&krum, ShardTopology::sharded(2), &updates, 1);
        assert_eq!(got, vec![42.0]);
        // krum:2 drops each shard's worst-scoring update and rescales the
        // survivors to the shard's full mass (3/2): shard 0 keeps {2,6},
        // shard 1 keeps {4,8} → 1.5·8 + 1.5·12 = 30
        let krum2 = AggregatorConfig::parse("krum:2").unwrap();
        let got = run_sharded(&krum2, ShardTopology::sharded(2), &updates, 1);
        assert_eq!(got, vec![30.0]);
    }

    #[test]
    fn empty_shards_and_empty_input_are_fine() {
        let config = AggregatorConfig::parse("median").unwrap();
        // more shards than updates: trailing shards stay empty
        let updates = vec![sparse(&[(0, 2)], &[1.0, 2.0])];
        let got = run_sharded(&config, ShardTopology::sharded(8), &updates, 2);
        assert_eq!(got, vec![1.0, 2.0]);
        // no updates at all
        let got = run_sharded(&config, ShardTopology::sharded(4), &[], 3);
        assert_eq!(got, vec![0.0; 3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The tentpole equivalence guarantee: for the weighted mean the
        /// sharded accumulator is bit-identical to flat aggregation for
        /// every topology and any update set.
        #[test]
        fn sharded_mean_is_bit_identical_to_flat(
            raw in pvec(
                (0usize..6, 1usize..4, 0usize..3, 0usize..4, pvec(-8.0f32..8.0, 8)),
                1..9,
            ),
            shards in 1usize..9,
            clip_sel in 0usize..2,
        ) {
            const THETA: usize = 16;
            let updates: Vec<SparseUpdate> = raw
                .into_iter()
                .map(|(off1, len1, gap, len2, vals)| {
                    let len1 = len1.min(THETA - off1);
                    let start2 = off1 + len1 + gap + 1;
                    let len2 = len2.min(THETA.saturating_sub(start2));
                    let mut ranges = vec![(off1, len1)];
                    if len2 > 0 {
                        ranges.push((start2, len2));
                    }
                    let total: usize = ranges.iter().map(|&(_, l)| l).sum();
                    SparseUpdate { ranges, values: vals[..total].to_vec() }
                })
                .collect();
            let config = if clip_sel == 1 {
                AggregatorConfig::parse("clip:1.5").unwrap()
            } else {
                AggregatorConfig::parse("mean").unwrap()
            };
            let flat = config.build().accumulate_sparse(updates.clone(), THETA);
            let sharded = run_sharded(&config, ShardTopology::sharded(shards), &updates, THETA);
            for (x, y) in flat.iter().zip(&sharded) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        /// Robust rules under sharding keep the documented two-tier
        /// semantics: the result equals the explicit round-robin
        /// per-shard reference, bit for bit, and repeated runs agree.
        #[test]
        fn sharded_robust_matches_reference_partition(
            raw in pvec(pvec(-8.0f32..8.0, 4), 2..10),
            shards in 2usize..5,
            rule_sel in 0usize..3,
        ) {
            let updates: Vec<SparseUpdate> = raw
                .iter()
                .map(|vals| SparseUpdate { ranges: vec![(0, 4)], values: vals.clone() })
                .collect();
            let spec = ["median", "trimmed:1", "krum:2"][rule_sel];
            let config = AggregatorConfig::parse(spec).unwrap();
            let topology = ShardTopology::sharded(shards);
            let rule = config.build();
            let mut slices: Vec<Vec<SparseUpdate>> = vec![Vec::new(); shards];
            for (i, u) in updates.iter().enumerate() {
                slices[topology.shard_of(i)].push(u.clone());
            }
            let mut expected = [0.0f32; 4];
            for slice in slices.into_iter().filter(|s| !s.is_empty()) {
                let partial = rule.accumulate_sparse(slice, 4);
                for (e, p) in expected.iter_mut().zip(&partial) {
                    *e += p;
                }
            }
            let got = run_sharded(&config, topology, &updates, 4);
            let again = run_sharded(&config, topology, &updates, 4);
            for ((x, y), z) in expected.iter().zip(&got).zip(&again) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
                prop_assert_eq!(y.to_bits(), z.to_bits());
            }
        }
    }
}
