//! Byzantine-robust aggregation and update validation.
//!
//! Federated NAS is a multi-tenant setting: the server cannot assume every
//! participant runs the honest training loop. A single sign-flipped or
//! 1e6-scaled gradient poisons the shared supernet under plain averaging,
//! and one NaN silently propagates into θ, α and the REINFORCE baseline.
//! This module provides the two defenses the server composes in front of
//! Algorithm 1's aggregate step:
//!
//! * a **validation gate** ([`validate_update`]) that rejects malformed
//!   (wrong length), non-finite, or out-of-norm-bound updates with a typed
//!   [`UpdateRejection`] cause, and
//! * an [`Aggregator`] trait with the classical robust estimators —
//!   [`WeightedMean`] (the default; byte-identical to the legacy FedAvg
//!   path), [`CoordMedian`], [`TrimmedMean`], [`Krum`] (Multi-Krum
//!   pairwise-distance selection), and [`NormClip`] as a composable
//!   per-update L2-clipping pre-step.
//!
//! Aggregation runs in two shapes. The **dense** path averages full flat
//! model states (the FedAvg trainer). The **sparse** path aggregates
//! sub-model gradients into supernet slots: each update covers only the
//! `(offset, len)` ranges its architecture mask selects, so different
//! updates cover different (overlapping) coordinate sets. The legacy mean
//! writes `Σ_covering g[c]` into the accumulator and the server divides by
//! the *total* update count `m`, i.e. coordinate `c` receives
//! `(q_c/m) · mean(g[c])` where `q_c` counts covering updates. The robust
//! estimators keep exactly that mass semantics and replace only the inner
//! mean with a robust center: `accumulate_sparse` returns
//! `q_c · center(g[c])` so the caller's `1/m` scaling is unchanged — and
//! the whole pipeline reduces to the legacy mean when the center *is* the
//! mean.
//!
//! Known limitation (see DESIGN.md "Threat model"): every estimator other
//! than [`WeightedMean`] ignores FedAvg's shard-size weights — a robust
//! center of weighted points is a different (and harder) problem, and the
//! classical definitions are unweighted. Robustness is bought by breaking
//! exact FedAvg-weighting semantics.

use crate::trainable::average_flat;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which robust center the aggregate step uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggregatorKind {
    /// Weighted arithmetic mean — the legacy FedAvg rule (default).
    Mean,
    /// Coordinate-wise median; tolerates up to ⌈n/2⌉−1 arbitrary updates
    /// per coordinate.
    Median,
    /// Coordinate-wise trimmed mean: drop the `k` largest and `k` smallest
    /// values per coordinate, average the rest. Tolerates `k` outliers.
    Trimmed {
        /// Values trimmed from each end (clamped so at least one survives).
        k: usize,
    },
    /// Multi-Krum: score every update by its summed squared distance to
    /// its closest neighbours, keep the `m` best-scoring updates and
    /// average those. Tolerates `f = n − m` colluding outliers.
    Krum {
        /// Number of updates kept (clamped to `[1, n]`).
        m: usize,
    },
}

/// Full aggregator selection: a center plus an optional per-update L2
/// clipping pre-step. `Copy` + serde so it travels in search and FedAvg
/// configs and checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AggregatorConfig {
    /// The robust center.
    pub kind: AggregatorKind,
    /// Clip every update to this L2 norm before aggregating, if set.
    pub clip: Option<f32>,
}

impl Default for AggregatorConfig {
    fn default() -> Self {
        AggregatorConfig {
            kind: AggregatorKind::Mean,
            clip: None,
        }
    }
}

impl AggregatorConfig {
    /// The legacy FedAvg weighted mean (the default).
    pub fn mean() -> Self {
        AggregatorConfig::default()
    }

    /// Parses a `--aggregator` spec: one of `mean`, `median`,
    /// `trimmed:<k>`, `krum:<m>`, `clip:<c>`, or a `clip:<c>+<center>`
    /// composition (e.g. `clip:0.5+median`). A bare `clip:<c>` composes
    /// clipping with the mean.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first invalid or duplicate token.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut kind: Option<AggregatorKind> = None;
        let mut clip: Option<f32> = None;
        let set_kind = |k: AggregatorKind, kind: &mut Option<AggregatorKind>| {
            if kind.is_some() {
                Err(format!("aggregator spec {spec:?} selects two centers"))
            } else {
                *kind = Some(k);
                Ok(())
            }
        };
        for token in spec.split('+') {
            let token = token.trim();
            if token == "mean" {
                set_kind(AggregatorKind::Mean, &mut kind)?;
            } else if token == "median" {
                set_kind(AggregatorKind::Median, &mut kind)?;
            } else if let Some(arg) = token.strip_prefix("trimmed:") {
                let k: usize = arg
                    .parse()
                    .map_err(|e| format!("bad trim count {arg:?}: {e}"))?;
                set_kind(AggregatorKind::Trimmed { k }, &mut kind)?;
            } else if let Some(arg) = token.strip_prefix("krum:") {
                let m: usize = arg
                    .parse()
                    .map_err(|e| format!("bad krum keep-count {arg:?}: {e}"))?;
                if m == 0 {
                    return Err("krum must keep at least one update".into());
                }
                set_kind(AggregatorKind::Krum { m }, &mut kind)?;
            } else if let Some(arg) = token.strip_prefix("clip:") {
                let c: f32 = arg
                    .parse()
                    .map_err(|e| format!("bad clip bound {arg:?}: {e}"))?;
                if !(c.is_finite() && c > 0.0) {
                    return Err(format!("clip bound must be finite and positive, got {c}"));
                }
                if clip.replace(c).is_some() {
                    return Err(format!("aggregator spec {spec:?} sets clip twice"));
                }
            } else {
                return Err(format!(
                    "unknown aggregator {token:?} (expected mean|median|trimmed:<k>|krum:<m>|clip:<c>)"
                ));
            }
        }
        Ok(AggregatorConfig {
            kind: kind.unwrap_or(AggregatorKind::Mean),
            clip,
        })
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if let AggregatorKind::Krum { m } = self.kind {
            if m == 0 {
                return Err("krum must keep at least one update".into());
            }
        }
        if let Some(c) = self.clip {
            if !(c.is_finite() && c > 0.0) {
                return Err(format!("clip bound must be finite and positive, got {c}"));
            }
        }
        Ok(())
    }

    /// Builds the aggregator this configuration describes.
    pub fn build(&self) -> Box<dyn Aggregator> {
        let center: Box<dyn Aggregator> = match self.kind {
            AggregatorKind::Mean => Box::new(WeightedMean),
            AggregatorKind::Median => Box::new(CoordMedian),
            AggregatorKind::Trimmed { k } => Box::new(TrimmedMean { k }),
            AggregatorKind::Krum { m } => Box::new(Krum { keep: m }),
        };
        match self.clip {
            Some(bound) => Box::new(NormClip {
                bound,
                inner: center,
            }),
            None => center,
        }
    }
}

impl fmt::Display for AggregatorConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(c) = self.clip {
            write!(f, "clip:{c}")?;
            if self.kind == AggregatorKind::Mean {
                return Ok(());
            }
            write!(f, "+")?;
        }
        match self.kind {
            AggregatorKind::Mean => write!(f, "mean"),
            AggregatorKind::Median => write!(f, "median"),
            AggregatorKind::Trimmed { k } => write!(f, "trimmed:{k}"),
            AggregatorKind::Krum { m } => write!(f, "krum:{m}"),
        }
    }
}

/// Why the validation gate refused an update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdateRejection {
    /// The flat update has the wrong length for its architecture.
    ShapeMismatch {
        /// Length the mask's slots require.
        expected: usize,
        /// Length actually received.
        got: usize,
    },
    /// The update contains a NaN or infinity.
    NonFinite,
    /// The update's L2 norm exceeds the configured bound.
    NormExceeded {
        /// Measured L2 norm.
        norm: f32,
        /// Configured bound.
        bound: f32,
    },
}

impl fmt::Display for UpdateRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateRejection::ShapeMismatch { expected, got } => {
                write!(f, "update has {got} values, architecture needs {expected}")
            }
            UpdateRejection::NonFinite => write!(f, "update contains NaN or infinite values"),
            UpdateRejection::NormExceeded { norm, bound } => {
                write!(f, "update norm {norm} exceeds bound {bound}")
            }
        }
    }
}

impl std::error::Error for UpdateRejection {}

/// L2 norm, accumulated in f64 so a hostile magnitude cannot overflow the
/// measurement itself.
pub fn l2_norm(values: &[f32]) -> f32 {
    values
        .iter()
        .map(|&v| v as f64 * v as f64)
        .sum::<f64>()
        .sqrt() as f32
}

/// The validation gate in front of aggregation: shape, finiteness, then
/// the optional norm bound — in that order, so each cause is counted once.
///
/// # Errors
///
/// The typed [`UpdateRejection`] cause.
pub fn validate_update(
    values: &[f32],
    expected_len: usize,
    norm_bound: Option<f32>,
) -> Result<(), UpdateRejection> {
    if values.len() != expected_len {
        return Err(UpdateRejection::ShapeMismatch {
            expected: expected_len,
            got: values.len(),
        });
    }
    if values.iter().any(|v| !v.is_finite()) {
        return Err(UpdateRejection::NonFinite);
    }
    if let Some(bound) = norm_bound {
        let norm = l2_norm(values);
        if norm > bound {
            return Err(UpdateRejection::NormExceeded { norm, bound });
        }
    }
    Ok(())
}

/// The whole gate on one participant report: a NaN/Inf reward or loss is
/// refused like a non-finite gradient, then [`validate_update`] judges the
/// gradients. The server and the RPC engine both gate through this one
/// function, so a report is accepted by both or by neither.
///
/// # Errors
///
/// The typed [`UpdateRejection`] cause.
pub fn validate_report(
    grads: &[f32],
    accuracy: f32,
    loss: f32,
    expected_len: usize,
    norm_bound: Option<f32>,
) -> Result<(), UpdateRejection> {
    if !(accuracy.is_finite() && loss.is_finite()) {
        return Err(UpdateRejection::NonFinite);
    }
    validate_update(grads, expected_len, norm_bound)
}

/// One sparse update: flat values covering the ascending, non-overlapping
/// `(offset, len)` supernet slots its mask selects
/// (`Supernet::submodel_param_ranges` order).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseUpdate {
    /// Ascending, non-overlapping `(offset, len)` slots into the flat θ.
    pub ranges: Vec<(usize, usize)>,
    /// Concatenated values for those slots.
    pub values: Vec<f32>,
}

impl SparseUpdate {
    /// Total coordinates covered.
    pub fn len(&self) -> usize {
        self.ranges.iter().map(|&(_, l)| l).sum()
    }

    /// `true` when the update covers no coordinates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A round-aggregation rule over participant updates.
///
/// Both entry points take updates by value so composable pre-steps
/// ([`NormClip`]) can transform in place without another copy.
pub trait Aggregator: Send + Sync {
    /// Human-readable name for logs.
    fn describe(&self) -> String;

    /// Aggregates full flat vectors (FedAvg model states) into one.
    /// `weights` are FedAvg shard weights; only [`WeightedMean`] honours
    /// them (see the module docs for the tradeoff).
    ///
    /// # Panics
    ///
    /// Panics if `updates` is empty or lengths disagree — the validation
    /// gate runs before aggregation, so these are programming errors here.
    fn aggregate_dense(&self, updates: Vec<Vec<f32>>, weights: &[f32]) -> Vec<f32>;

    /// Aggregates sparse sub-model updates into a flat accumulator of
    /// length `theta_len`, **pre-scaled** for the caller's `1/m` division:
    /// coordinate `c` holds `q_c · center(values at c)` where `q_c` counts
    /// covering updates. For [`WeightedMean`] this is the plain running sum
    /// in update order — bit-identical to the legacy accumulation loop.
    fn accumulate_sparse(&self, updates: Vec<SparseUpdate>, theta_len: usize) -> Vec<f32>;
}

/// The legacy FedAvg rule: shard-weighted mean (dense) / plain sum in
/// update order (sparse). Selected by default; byte-identical to the
/// pre-robustness aggregation.
#[derive(Debug, Clone, Copy, Default)]
pub struct WeightedMean;

impl Aggregator for WeightedMean {
    fn describe(&self) -> String {
        "mean".into()
    }

    fn aggregate_dense(&self, updates: Vec<Vec<f32>>, weights: &[f32]) -> Vec<f32> {
        average_flat(&updates, weights)
    }

    fn accumulate_sparse(&self, updates: Vec<SparseUpdate>, theta_len: usize) -> Vec<f32> {
        let mut acc = vec![0.0f32; theta_len];
        sum_into(&mut acc, &updates);
        acc
    }
}

/// Adds each update into the accumulator at its slots, in update order —
/// the exact f32 addition order of the legacy server loop.
fn sum_into(acc: &mut [f32], updates: &[SparseUpdate]) {
    for u in updates {
        let mut cursor = 0usize;
        for &(off, len) in &u.ranges {
            for i in 0..len {
                acc[off + i] += u.values[cursor + i];
            }
            cursor += len;
        }
    }
}

/// Coordinate-wise median.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoordMedian;

impl Aggregator for CoordMedian {
    fn describe(&self) -> String {
        "median".into()
    }

    fn aggregate_dense(&self, updates: Vec<Vec<f32>>, _weights: &[f32]) -> Vec<f32> {
        per_coordinate_dense(&updates, median_of_sorted)
    }

    fn accumulate_sparse(&self, updates: Vec<SparseUpdate>, theta_len: usize) -> Vec<f32> {
        per_coordinate_sparse(&updates, theta_len, median_of_sorted)
    }
}

/// Coordinate-wise trimmed mean: drop the `k` smallest and `k` largest
/// values per coordinate (clamped so at least one value survives), then
/// average the remainder. `k = 0` degrades to the per-coordinate mean.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrimmedMean {
    /// Values trimmed from each end.
    pub k: usize,
}

impl Aggregator for TrimmedMean {
    fn describe(&self) -> String {
        format!("trimmed:{}", self.k)
    }

    fn aggregate_dense(&self, updates: Vec<Vec<f32>>, _weights: &[f32]) -> Vec<f32> {
        let k = self.k;
        per_coordinate_dense(&updates, move |sorted| trimmed_mean_of_sorted(sorted, k))
    }

    fn accumulate_sparse(&self, updates: Vec<SparseUpdate>, theta_len: usize) -> Vec<f32> {
        let k = self.k;
        per_coordinate_sparse(&updates, theta_len, move |sorted| {
            trimmed_mean_of_sorted(sorted, k)
        })
    }
}

/// Multi-Krum selection: score update `i` as the sum of its `q` smallest
/// squared distances to the other updates (`q = max(keep − 2, 1)`), keep
/// the `keep` lowest-scoring updates and average those with equal weight.
/// `keep = n` selects everyone; ties break by update index, so the
/// selection is deterministic even when every distance is equal.
#[derive(Debug, Clone, Copy)]
pub struct Krum {
    /// Updates kept (Multi-Krum `m`; clamped to `[1, n]`).
    pub keep: usize,
}

impl Krum {
    /// Indices of the kept updates, in ascending order.
    fn select(&self, sq_dist: &[Vec<f64>]) -> Vec<usize> {
        let n = sq_dist.len();
        let keep = self.keep.clamp(1, n);
        if keep == n {
            return (0..n).collect();
        }
        let q = self.keep.saturating_sub(2).clamp(1, n - 1);
        let mut scores: Vec<(f64, usize)> = (0..n)
            .map(|i| {
                let mut d: Vec<f64> = (0..n).filter(|&j| j != i).map(|j| sq_dist[i][j]).collect();
                d.sort_unstable_by(f64::total_cmp);
                (d.iter().take(q).sum::<f64>(), i)
            })
            .collect();
        scores.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut kept: Vec<usize> = scores[..keep].iter().map(|&(_, i)| i).collect();
        kept.sort_unstable();
        kept
    }
}

impl Aggregator for Krum {
    fn describe(&self) -> String {
        format!("krum:{}", self.keep)
    }

    fn aggregate_dense(&self, updates: Vec<Vec<f32>>, _weights: &[f32]) -> Vec<f32> {
        assert!(!updates.is_empty(), "nothing to aggregate");
        let n = updates.len();
        let sq_dist: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| dense_sq_dist(&updates[i], &updates[j]))
                    .collect()
            })
            .collect();
        let kept = self.select(&sq_dist);
        let selected: Vec<Vec<f32>> = kept.iter().map(|&i| updates[i].clone()).collect();
        let ones = vec![1.0f32; selected.len()];
        average_flat(&selected, &ones)
    }

    fn accumulate_sparse(&self, updates: Vec<SparseUpdate>, theta_len: usize) -> Vec<f32> {
        let n = updates.len();
        let mut acc = vec![0.0f32; theta_len];
        if n == 0 {
            return acc;
        }
        let norms: Vec<f64> = updates.iter().map(sparse_sq_norm).collect();
        let sq_dist: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        let d = norms[i] + norms[j] - 2.0 * sparse_dot(&updates[i], &updates[j]);
                        d.max(0.0)
                    })
                    .collect()
            })
            .collect();
        let kept = self.select(&sq_dist);
        let selected: Vec<SparseUpdate> = kept.iter().map(|&i| updates[i].clone()).collect();
        sum_into(&mut acc, &selected);
        // the caller divides by the total update count m; re-scale so the
        // kept updates carry the full mass, preserving the (coverage/m)
        // semantics of the mean path
        if kept.len() < n {
            let scale = n as f32 / kept.len() as f32;
            for v in &mut acc {
                *v *= scale;
            }
        }
        acc
    }
}

/// Composable pre-step: clip every update to L2 norm `bound`, then
/// delegate to `inner`. Bounds how far any single participant can drag
/// the aggregate even when the center is the plain mean.
pub struct NormClip {
    /// Maximum per-update L2 norm.
    pub bound: f32,
    /// The aggregation rule applied after clipping.
    pub inner: Box<dyn Aggregator>,
}

impl Aggregator for NormClip {
    fn describe(&self) -> String {
        format!("clip:{}+{}", self.bound, self.inner.describe())
    }

    fn aggregate_dense(&self, mut updates: Vec<Vec<f32>>, weights: &[f32]) -> Vec<f32> {
        for u in &mut updates {
            clip_l2(u, self.bound);
        }
        self.inner.aggregate_dense(updates, weights)
    }

    fn accumulate_sparse(&self, mut updates: Vec<SparseUpdate>, theta_len: usize) -> Vec<f32> {
        for u in &mut updates {
            clip_l2(&mut u.values, self.bound);
        }
        self.inner.accumulate_sparse(updates, theta_len)
    }
}

/// Scales `values` down to L2 norm `bound` when it exceeds the bound.
pub fn clip_l2(values: &mut [f32], bound: f32) {
    let norm = l2_norm(values);
    if norm > bound && norm > 0.0 {
        let scale = bound / norm;
        for v in values {
            *v *= scale;
        }
    }
}

/// Incremental front-end to [`Aggregator::accumulate_sparse`]: push
/// updates one at a time as replies are processed, then read the final
/// pre-scaled accumulator once.
///
/// The plain (optionally clipped) mean **streams**: each update folds
/// into the running sum at push time, so no update is retained and the
/// work overlaps with whatever produces the updates. Because the fold is
/// `sum_into`'s exact f32 addition order, the result is bit-identical
/// to the batch `accumulate_sparse` call over the same updates in the
/// same order — callers that need determinism across execution modes
/// only have to push in a canonical order (the server pushes in report
/// order, which is sorted by participant). Order-insensitive but
/// set-dependent rules (median / trimmed / krum) need every update at
/// once; those buffer at push and delegate to the batch path in
/// [`StreamingAccumulator::finish`], which is trivially identical.
pub struct StreamingAccumulator {
    mode: StreamMode,
}

enum StreamMode {
    /// mean / clip+mean: running sum in push order.
    Fold { acc: Vec<f32>, clip: Option<f32> },
    /// median / trimmed / krum (clipped or not): buffer, batch at finish.
    Buffer {
        updates: Vec<SparseUpdate>,
        theta_len: usize,
        rule: Box<dyn Aggregator>,
    },
}

impl StreamingAccumulator {
    /// Creates an accumulator for `config` over a flat θ of `theta_len`
    /// coordinates.
    pub fn new(config: &AggregatorConfig, theta_len: usize) -> Self {
        let mode = match config.kind {
            AggregatorKind::Mean => StreamMode::Fold {
                acc: vec![0.0f32; theta_len],
                clip: config.clip,
            },
            _ => StreamMode::Buffer {
                updates: Vec::new(),
                theta_len,
                rule: config.build(),
            },
        };
        StreamingAccumulator { mode }
    }

    /// `true` when pushed updates fold immediately instead of buffering.
    pub fn is_streaming(&self) -> bool {
        matches!(self.mode, StreamMode::Fold { .. })
    }

    /// Feeds one update. Push order must match the order the batch path
    /// would see for bit-identical results under the mean.
    pub fn push(&mut self, mut update: SparseUpdate) {
        match &mut self.mode {
            StreamMode::Fold { acc, clip } => {
                if let Some(bound) = *clip {
                    clip_l2(&mut update.values, bound);
                }
                sum_into(acc, std::slice::from_ref(&update));
            }
            StreamMode::Buffer { updates, .. } => updates.push(update),
        }
    }

    /// Returns the pre-scaled accumulator (coordinate `c` holds
    /// `q_c · center(g[c])`, see [`Aggregator::accumulate_sparse`]).
    pub fn finish(self) -> Vec<f32> {
        match self.mode {
            StreamMode::Fold { acc, .. } => acc,
            StreamMode::Buffer {
                updates,
                theta_len,
                rule,
            } => rule.accumulate_sparse(updates, theta_len),
        }
    }
}

fn median_of_sorted(sorted: &[f32]) -> f32 {
    let n = sorted.len();
    debug_assert!(n > 0, "median of an empty column");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

fn trimmed_mean_of_sorted(sorted: &[f32], k: usize) -> f32 {
    let n = sorted.len();
    debug_assert!(n > 0, "trimmed mean of an empty column");
    let k = k.min((n - 1) / 2); // at least one value survives
    let kept = &sorted[k..n - k];
    kept.iter().sum::<f32>() / kept.len() as f32
}

/// Runs a per-coordinate center over dense columns.
fn per_coordinate_dense(updates: &[Vec<f32>], center: impl Fn(&[f32]) -> f32) -> Vec<f32> {
    assert!(!updates.is_empty(), "nothing to aggregate");
    let len = updates[0].len();
    for u in updates {
        assert_eq!(u.len(), len, "update length mismatch");
    }
    let mut column = vec![0.0f32; updates.len()];
    (0..len)
        .map(|c| {
            for (slot, u) in column.iter_mut().zip(updates) {
                *slot = u[c];
            }
            column.sort_unstable_by(f32::total_cmp);
            center(&column)
        })
        .collect()
}

/// Runs a per-coordinate center over sparse columns, returning the
/// pre-scaled accumulator `q_c · center` (see [`Aggregator::accumulate_sparse`]).
fn per_coordinate_sparse(
    updates: &[SparseUpdate],
    theta_len: usize,
    center: impl Fn(&[f32]) -> f32,
) -> Vec<f32> {
    // CSR-style gather: count coverage per coordinate, prefix-sum into one
    // arena, scatter every update's values into its columns, then reduce
    // each column independently
    let mut counts = vec![0u32; theta_len];
    for u in updates {
        for &(off, len) in &u.ranges {
            for c in &mut counts[off..off + len] {
                *c += 1;
            }
        }
    }
    let mut starts = vec![0usize; theta_len + 1];
    for c in 0..theta_len {
        starts[c + 1] = starts[c] + counts[c] as usize;
    }
    let mut arena = vec![0.0f32; starts[theta_len]];
    let mut fill = vec![0u32; theta_len];
    for u in updates {
        let mut cursor = 0usize;
        for &(off, len) in &u.ranges {
            for i in 0..len {
                let c = off + i;
                arena[starts[c] + fill[c] as usize] = u.values[cursor + i];
                fill[c] += 1;
            }
            cursor += len;
        }
    }
    let mut out = vec![0.0f32; theta_len];
    for c in 0..theta_len {
        let q = counts[c] as usize;
        if q == 0 {
            continue;
        }
        let column = &mut arena[starts[c]..starts[c] + q];
        column.sort_unstable_by(f32::total_cmp);
        out[c] = q as f32 * center(column);
    }
    out
}

fn dense_sq_dist(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum()
}

fn sparse_sq_norm(u: &SparseUpdate) -> f64 {
    u.values.iter().map(|&v| v as f64 * v as f64).sum()
}

/// Dot product of two sparse updates over their overlapping slots —
/// missing coordinates contribute zero, exactly as if both vectors were
/// densified. Two-pointer walk over the ascending range lists.
fn sparse_dot(a: &SparseUpdate, b: &SparseUpdate) -> f64 {
    let (mut ia, mut ib) = (0usize, 0usize);
    let (mut ca, mut cb) = (0usize, 0usize); // value cursor at range start
    let mut dot = 0.0f64;
    while ia < a.ranges.len() && ib < b.ranges.len() {
        let (oa, la) = a.ranges[ia];
        let (ob, lb) = b.ranges[ib];
        let lo = oa.max(ob);
        let hi = (oa + la).min(ob + lb);
        if lo < hi {
            let va = &a.values[ca + (lo - oa)..ca + (hi - oa)];
            let vb = &b.values[cb + (lo - ob)..cb + (hi - ob)];
            for (&x, &y) in va.iter().zip(vb) {
                dot += x as f64 * y as f64;
            }
        }
        if oa + la <= ob + lb {
            ca += la;
            ia += 1;
        } else {
            cb += lb;
            ib += 1;
        }
    }
    dot
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    fn sparse(ranges: &[(usize, usize)], values: &[f32]) -> SparseUpdate {
        let u = SparseUpdate {
            ranges: ranges.to_vec(),
            values: values.to_vec(),
        };
        assert_eq!(u.len(), values.len(), "test update malformed");
        u
    }

    /// Legacy server accumulation: per update, per range, in order.
    fn legacy_sum(updates: &[SparseUpdate], theta_len: usize) -> Vec<f32> {
        let mut acc = vec![0.0f32; theta_len];
        sum_into(&mut acc, updates);
        acc
    }

    fn close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol, "coordinate {i}: {x} vs {y}");
        }
    }

    #[test]
    fn mean_sparse_is_bit_identical_to_legacy_accumulation() {
        // overlapping, irregular coverage with values whose sums actually
        // exercise f32 rounding order
        let updates = vec![
            sparse(&[(0, 3), (5, 2)], &[0.1, 0.2, 0.3, 0.4, 0.5]),
            sparse(&[(1, 4)], &[1e-3, 2e-3, 3e-3, 4e-3]),
            sparse(&[(0, 7)], &[0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1]),
        ];
        let legacy = legacy_sum(&updates, 8);
        let routed = WeightedMean.accumulate_sparse(updates, 8);
        assert_eq!(
            legacy, routed,
            "mean must be bit-identical through the trait"
        );
    }

    #[test]
    fn mean_dense_is_average_flat() {
        let a = vec![1.0f32, 2.0, 3.0];
        let b = vec![3.0f32, 2.0, 1.0];
        let direct = average_flat(&[a.clone(), b.clone()], &[3.0, 1.0]);
        let routed = WeightedMean.aggregate_dense(vec![a, b], &[3.0, 1.0]);
        assert_eq!(direct, routed);
    }

    #[test]
    fn honest_identical_updates_agree_across_aggregators() {
        let n = 5;
        let updates: Vec<SparseUpdate> = (0..n)
            .map(|_| sparse(&[(0, 4)], &[0.25, -0.5, 1.0, 0.125]))
            .collect();
        let mean = WeightedMean.accumulate_sparse(updates.clone(), 4);
        for agg in [
            Box::new(CoordMedian) as Box<dyn Aggregator>,
            Box::new(TrimmedMean { k: 1 }),
            Box::new(Krum { keep: n }),
            Box::new(Krum { keep: 3 }),
        ] {
            let out = agg.accumulate_sparse(updates.clone(), 4);
            close(&mean, &out, 1e-6);
        }
    }

    #[test]
    fn median_ignores_a_poisoned_minority() {
        let updates = vec![
            sparse(&[(0, 2)], &[1.0, 1.0]),
            sparse(&[(0, 2)], &[1.1, 0.9]),
            sparse(&[(0, 2)], &[0.9, 1.1]),
            sparse(&[(0, 2)], &[1e6, -1e6]), // attacker
        ];
        let out = CoordMedian.accumulate_sparse(updates, 2);
        // 4 × median; median of {0.9, 1.0, 1.1, 1e6} = 1.05
        assert!((out[0] - 4.0 * 1.05).abs() < 1e-4, "{out:?}");
        assert!((out[1] - 4.0 * 0.95).abs() < 1e-4, "{out:?}");
    }

    #[test]
    fn trimmed_mean_edge_cases() {
        // k = 0 is the plain per-coordinate mean
        let sorted = [1.0f32, 2.0, 6.0];
        assert!((trimmed_mean_of_sorted(&sorted, 0) - 3.0).abs() < 1e-6);
        // oversized k clamps: n = 3 keeps the median
        assert!((trimmed_mean_of_sorted(&sorted, 100) - 2.0).abs() < 1e-6);
        // n = 1 survives any k
        assert_eq!(trimmed_mean_of_sorted(&[7.0], 5), 7.0);
        // n = 2 with k ≥ 1 clamps to the mean of both
        assert!((trimmed_mean_of_sorted(&[1.0, 3.0], 1) - 2.0).abs() < 1e-6);
        // genuine trim: k = 1 over 5 values drops both extremes
        let out = TrimmedMean { k: 1 }.aggregate_dense(
            vec![vec![-1e6], vec![1.0], vec![2.0], vec![3.0], vec![1e6]],
            &[1.0; 5],
        );
        assert!((out[0] - 2.0).abs() < 1e-6, "{out:?}");
    }

    #[test]
    fn krum_excludes_outliers_and_handles_edges() {
        // single update: kept verbatim
        let lone = Krum { keep: 3 }.accumulate_sparse(vec![sparse(&[(0, 2)], &[5.0, -5.0])], 2);
        assert_eq!(lone, vec![5.0, -5.0]);
        // keep = n selects everyone → equals the mean path exactly
        let updates = vec![
            sparse(&[(0, 2)], &[1.0, 2.0]),
            sparse(&[(0, 2)], &[3.0, 4.0]),
        ];
        let all = Krum { keep: 2 }.accumulate_sparse(updates.clone(), 2);
        let mean = WeightedMean.accumulate_sparse(updates, 2);
        assert_eq!(all, mean);
        // an outlier far from the cluster is never selected
        let clustered = vec![
            sparse(&[(0, 2)], &[1.0, 1.0]),
            sparse(&[(0, 2)], &[1.1, 1.0]),
            sparse(&[(0, 2)], &[1.0, 1.1]),
            sparse(&[(0, 2)], &[1e5, 1e5]), // attacker
        ];
        let out = Krum { keep: 2 }.accumulate_sparse(clustered, 2);
        // mass rescaled by n/keep = 2: each coordinate ≈ 2 × (sum of two
        // nearby honest values) — far below anything containing 1e5
        assert!(out[0] < 100.0 && out[1] < 100.0, "{out:?}");
        assert!(out[0] > 0.0, "{out:?}");
    }

    #[test]
    fn krum_all_equal_distances_is_deterministic() {
        // four identical updates: every pairwise distance is zero, every
        // score ties — selection must fall back to index order, stably
        let updates: Vec<SparseUpdate> = (0..4).map(|_| sparse(&[(0, 1)], &[2.0])).collect();
        let krum = Krum { keep: 2 };
        let a = krum.accumulate_sparse(updates.clone(), 1);
        let b = krum.accumulate_sparse(updates, 1);
        assert_eq!(a, b);
        // 2 kept × 2.0 each × rescale 4/2 = 8.0 (≡ 4 × mean 2.0)
        assert!((a[0] - 8.0).abs() < 1e-6, "{a:?}");
    }

    #[test]
    fn krum_dense_keeps_the_cluster() {
        let updates = vec![
            vec![0.0f32, 0.0],
            vec![0.1, 0.0],
            vec![0.0, 0.1],
            vec![50.0, 50.0],
        ];
        let out = Krum { keep: 3 }.aggregate_dense(updates, &[1.0; 4]);
        assert!(out[0].abs() < 1.0 && out[1].abs() < 1.0, "{out:?}");
    }

    #[test]
    fn clip_bounds_each_update_and_composes() {
        let mut v = vec![3.0f32, 4.0]; // norm 5
        clip_l2(&mut v, 1.0);
        assert!((l2_norm(&v) - 1.0).abs() < 1e-6);
        assert!((v[0] - 0.6).abs() < 1e-6);
        // under the bound: untouched, bit for bit
        let mut small = vec![0.3f32, 0.4];
        let orig = small.clone();
        clip_l2(&mut small, 1.0);
        assert_eq!(small, orig);
        // clip + median end to end: the attacker's magnitude is bounded
        // before the center even runs
        let agg = AggregatorConfig::parse("clip:10+median").unwrap().build();
        let out = agg.accumulate_sparse(
            vec![
                sparse(&[(0, 1)], &[1.0]),
                sparse(&[(0, 1)], &[1.0]),
                sparse(&[(0, 1)], &[1e9]),
            ],
            1,
        );
        assert!((out[0] - 3.0).abs() < 1e-6, "{out:?}");
    }

    #[test]
    fn uneven_coverage_keeps_mass_semantics() {
        // coordinate 0 covered by all three, coordinate 1 by one update:
        // the median path must match the mean path exactly where robustness
        // is vacuous (singleton column) and keep q·center elsewhere
        let updates = vec![
            sparse(&[(0, 1)], &[2.0]),
            sparse(&[(0, 2)], &[4.0, 9.0]),
            sparse(&[(0, 1)], &[6.0]),
        ];
        let med = CoordMedian.accumulate_sparse(updates.clone(), 2);
        assert!((med[0] - 3.0 * 4.0).abs() < 1e-6, "{med:?}"); // 3 × median 4
        assert_eq!(med[1], 9.0); // singleton column: exactly the sum
        let mean = WeightedMean.accumulate_sparse(updates, 2);
        assert_eq!(mean[1], med[1]);
    }

    #[test]
    fn parse_and_display_round_trip() {
        for spec in [
            "mean",
            "median",
            "trimmed:2",
            "krum:4",
            "clip:0.5",
            "clip:0.5+median",
        ] {
            let cfg = AggregatorConfig::parse(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(cfg.to_string(), spec);
            let reparsed = AggregatorConfig::parse(&cfg.to_string()).unwrap();
            assert_eq!(cfg, reparsed);
            assert!(cfg.validate().is_ok());
        }
        assert_eq!(
            AggregatorConfig::parse("mean").unwrap(),
            AggregatorConfig::default()
        );
        for bad in [
            "medain",
            "trimmed:",
            "krum:0",
            "clip:-1",
            "clip:nan",
            "median+krum:2",
            "clip:1+clip:2",
            "",
        ] {
            assert!(AggregatorConfig::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn builders_describe_their_composition() {
        assert_eq!(
            AggregatorConfig::parse("clip:2+krum:3")
                .unwrap()
                .build()
                .describe(),
            "clip:2+krum:3"
        );
        assert_eq!(AggregatorConfig::default().build().describe(), "mean");
    }

    #[test]
    fn validation_gate_reports_each_cause() {
        assert!(validate_update(&[1.0, 2.0], 2, None).is_ok());
        match validate_update(&[1.0], 2, None) {
            Err(UpdateRejection::ShapeMismatch {
                expected: 2,
                got: 1,
            }) => {}
            other => panic!("expected shape mismatch, got {other:?}"),
        }
        match validate_update(&[1.0, f32::NAN], 2, None) {
            Err(UpdateRejection::NonFinite) => {}
            other => panic!("expected non-finite, got {other:?}"),
        }
        match validate_update(&[1.0, f32::INFINITY], 2, Some(1e9)) {
            Err(UpdateRejection::NonFinite) => {}
            other => panic!("finiteness must be checked before the norm, got {other:?}"),
        }
        match validate_update(&[3.0, 4.0], 2, Some(4.9)) {
            Err(UpdateRejection::NormExceeded { .. }) => {}
            other => panic!("expected norm bound, got {other:?}"),
        }
        assert!(validate_update(&[3.0, 4.0], 2, Some(5.1)).is_ok());
        // rejection causes render for operators
        assert!(!UpdateRejection::NonFinite.to_string().is_empty());
    }

    #[test]
    fn sparse_dot_matches_densified() {
        let a = sparse(&[(0, 2), (4, 3)], &[1.0, 2.0, 3.0, 4.0, 5.0]);
        let b = sparse(&[(1, 4)], &[10.0, 20.0, 30.0, 40.0]);
        // densified: a = [1,2,0,0,3,4,5], b = [0,10,20,30,40,0,0]
        let expected = 2.0 * 10.0 + 3.0 * 40.0;
        assert!((sparse_dot(&a, &b) - expected).abs() < 1e-9);
        assert!((sparse_sq_norm(&a) - 55.0).abs() < 1e-9);
        // disjoint supports
        let c = sparse(&[(10, 2)], &[7.0, 7.0]);
        assert_eq!(sparse_dot(&a, &c), 0.0);
    }

    /// Every aggregation rule the config language can express, so the
    /// streaming front-end is checked against each batch path.
    fn all_rules() -> Vec<AggregatorConfig> {
        [
            "mean",
            "clip:1.5",
            "median",
            "trimmed:1",
            "krum:2",
            "clip:2.0+median",
            "clip:0.75+krum:2",
        ]
        .iter()
        .map(|s| AggregatorConfig::parse(s).unwrap())
        .collect()
    }

    /// Bitwise comparison: `==` on f32 would pass -0.0 vs 0.0 and fail
    /// NaN vs NaN; determinism here means identical bit patterns.
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

    #[test]
    fn streaming_accumulator_matches_batch_for_every_rule() {
        let updates = vec![
            sparse(&[(0, 3), (5, 2)], &[0.1, 0.2, 0.3, 0.4, 0.5]),
            sparse(&[(1, 4)], &[1e-3, -2e-3, 3e-3, 4.0]),
            sparse(&[(0, 7)], &[0.7, -0.6, 0.5, 0.4, 0.3, 0.2, 0.1]),
            sparse(&[(2, 2)], &[9.0, -9.0]),
        ];
        for config in all_rules() {
            let batch = config.build().accumulate_sparse(updates.clone(), 8);
            let mut stream = StreamingAccumulator::new(&config, 8);
            assert_eq!(
                stream.is_streaming(),
                config.kind == AggregatorKind::Mean,
                "only the (clipped) mean streams"
            );
            for u in updates.clone() {
                stream.push(u);
            }
            assert_bits_eq(&batch, &stream.finish(), &config.to_string());
        }
    }

    #[test]
    fn streaming_accumulator_with_no_updates_is_zero() {
        for config in all_rules() {
            let out = StreamingAccumulator::new(&config, 5).finish();
            assert_eq!(out, vec![0.0f32; 5], "{config}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn streaming_matches_batch_on_arbitrary_updates(
            raw in pvec(
                // two ranges per update: (off1, len1, gap, len2, values);
                // len2 may clamp to zero at the θ boundary, exercising
                // single-range and empty-tail shapes too
                (0usize..6, 1usize..4, 0usize..3, 0usize..4, pvec(-8.0f32..8.0, 8)),
                1..7,
            ),
            rule_sel in 0usize..7,
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
            let config = all_rules()[rule_sel];
            let batch = config.build().accumulate_sparse(updates.clone(), THETA);
            let mut stream = StreamingAccumulator::new(&config, THETA);
            for u in updates {
                stream.push(u);
            }
            let streamed = stream.finish();
            for (x, y) in batch.iter().zip(&streamed) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}
