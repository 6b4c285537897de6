//! `benchmark compare a.json b.json`: the one implementation of "no
//! regression" — and of "two run sets agree" — for this benchmark.
//!
//! For every (end-to-end metric, workload) pair it applies the metric's
//! bound from `BENCHMARK.json` to the two results files' medians and
//! prints one row: **unchanged** (not worse by more than the bound),
//! **worse**, or **unresolved** (either side's run-to-run spread is wider
//! than the bound, and the difference does not clear that spread). When
//! both files ran the same seed, the output digests, the exact byte count
//! and the failure counts must also be equal.

use crate::json::{self, Value};
use crate::metrics::{self, MetricDef};
use crate::stats;
use crate::Args;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Worse,
    Unresolved,
    /// An exact quantity (digest, byte count, failures) repeated.
    Equal,
    /// An exact quantity did not repeat.
    Differs,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Equal => "equal",
            Verdict::Differs => "DIFFERS",
        }
    }

    /// Whether this row fails the comparison.
    fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Differs)
    }
}

/// One printed row.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub new: f64,
    /// Share of the base median by which `new` is worse (negative: better).
    pub worse_by: f64,
    /// The wider of the two sides' spreads.
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judges one metric of one workload from both sides' raw per-repetition
/// values.
pub fn judge(
    def: &MetricDef,
    bound: f64,
    base_raw: &[f64],
    new_raw: &[f64],
) -> (f64, f64, Verdict) {
    let base = stats::median(base_raw);
    let new = stats::median(new_raw);
    let worse_by = match (base == 0.0, def.higher_is_better) {
        (true, _) => 0.0,
        (false, true) => (base - new) / base.abs(),
        (false, false) => (new - base) / base.abs(),
    };
    let spread = stats::spread(base_raw).max(stats::spread(new_raw));
    let verdict = if spread > bound {
        // the runs themselves disagree by more than the bound: only a
        // difference that clears their spread can be called
        if worse_by > spread {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    };
    (worse_by, spread, verdict)
}

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds(manifest: &Value) -> Result<Vec<(&'static MetricDef, f64)>, String> {
    manifest
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(Value::as_str).unwrap_or("?");
            let def =
                metrics::find(name).ok_or(format!("unknown metric {name:?} in BENCHMARK.json"))?;
            let bound = entry
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or(format!("metric {name} has no bound"))?;
            Ok((def, bound))
        })
        .collect()
}

fn exact_row(workload: &str, metric: &str, base: f64, new: f64, equal: bool) -> Row {
    Row {
        workload: workload.to_string(),
        metric: metric.to_string(),
        base,
        new,
        worse_by: 0.0,
        spread: 0.0,
        bound: 0.0,
        verdict: if equal {
            Verdict::Equal
        } else {
            Verdict::Differs
        },
    }
}

/// Compares two results files under the bounds of `manifest`.
pub fn compare(manifest: &Value, a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let bounds = bounds(manifest)?;
    let workloads = |v: &'_ Value| -> Result<Vec<(String, Value)>, String> {
        Ok(v.get("workloads")
            .and_then(Value::as_object)
            .ok_or("results file has no workloads")?
            .to_vec())
    };
    let same_seed = a.get("seed").and_then(Value::as_f64) == b.get("seed").and_then(Value::as_f64);
    let b_workloads = workloads(b)?;
    let mut rows = Vec::new();
    for (name, base) in workloads(a)? {
        let Some((_, new)) = b_workloads.iter().find(|(n, _)| *n == name) else {
            return Err(format!("workload {name} is missing from the second file"));
        };
        for &(def, bound) in &bounds {
            let raw = |side: &Value| {
                side.get("end_to_end")
                    .and_then(|e| e.get(def.name))
                    .and_then(|m| m.get("raw"))
                    .map(Value::f64s)
                    .filter(|raw| !raw.is_empty())
                    .ok_or(format!("{name}: no values for {}", def.name))
            };
            let (base_raw, new_raw) = (raw(&base)?, raw(new)?);
            let (worse_by, spread, verdict) = judge(def, bound, &base_raw, &new_raw);
            rows.push(Row {
                workload: name.clone(),
                metric: def.name.to_string(),
                base: stats::median(&base_raw),
                new: stats::median(&new_raw),
                worse_by,
                spread,
                bound,
                verdict,
            });
            if same_seed && def.name == "wire_mb_per_round" {
                let (x, y) = (stats::median(&base_raw), stats::median(&new_raw));
                rows.push(exact_row(&name, "wire_mb_per_round (exact)", x, y, x == y));
            }
        }
        let failed = |side: &Value| {
            side.get("failed")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN)
        };
        let ratio = |side: &Value| {
            failed(side)
                / side
                    .get("attempted")
                    .and_then(Value::as_f64)
                    .unwrap_or(f64::NAN)
        };
        // a failure ratio may never rise at all: its bound is 0 absolute
        let (x, y) = (ratio(&base), ratio(new));
        rows.push(exact_row(&name, "update_fail_ratio", x, y, y <= x));
        if same_seed {
            let digests = |side: &Value| -> Vec<String> {
                side.get("digests")
                    .and_then(Value::as_array)
                    .map(|d| {
                        d.iter()
                            .filter_map(Value::as_str)
                            .map(str::to_string)
                            .collect()
                    })
                    .unwrap_or_default()
            };
            let (x, y) = (digests(&base), digests(new));
            let shared = x.len().min(y.len());
            let equal = shared > 0 && x[..shared] == y[..shared];
            rows.push(exact_row(
                &name,
                "output digests",
                shared as f64,
                shared as f64,
                equal,
            ));
        }
    }
    Ok(rows)
}

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `compare` command. `Ok(false)` when any row is worse or an exact
/// quantity differs.
pub fn compare_files(args: &Args) -> Result<bool, String> {
    args.allow_only(&["--bounds"])?;
    let [_, a, b] = args.words.as_slice() else {
        return Err("compare takes two results files".to_string());
    };
    let default_bounds = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bounds_path: PathBuf = args.get("--bounds", default_bounds)?;
    let rows = compare(
        &load(&bounds_path)?,
        &load(Path::new(a))?,
        &load(Path::new(b))?,
    )?;
    println!(
        "{:<14} {:<26} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "first", "second", "worse by", "spread", "bound"
    );
    for row in &rows {
        println!(
            "{:<14} {:<26} {:>14.5} {:>14.5} {:>8.1}% {:>7.1}% {:>6.1}%  {}",
            row.workload,
            row.metric,
            row.base,
            row.new,
            row.worse_by * 100.0,
            row.spread * 100.0,
            row.bound * 100.0,
            row.verdict.name()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} unchanged, {} worse, {} unresolved, {} exact quantities equal, {} differ",
        count(Verdict::Unchanged),
        count(Verdict::Worse),
        count(Verdict::Unresolved),
        count(Verdict::Equal),
        count(Verdict::Differs)
    );
    Ok(!rows.iter().any(|r| r.verdict.fails()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: MetricDef = MetricDef {
        name: "round_ms_p50",
        unit: "ms",
        higher_is_better: false,
    };
    const HIGHER: MetricDef = MetricDef {
        name: "rounds_per_s",
        unit: "1/s",
        higher_is_better: true,
    };

    #[test]
    fn direction_decides_what_worse_means() {
        let steady = [100.0, 100.5, 99.5, 100.2, 99.8];
        let plus20: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(&LOWER, 0.1, &steady, &plus20).2, Verdict::Worse);
        assert_eq!(judge(&HIGHER, 0.1, &steady, &plus20).2, Verdict::Unchanged);
        assert_eq!(judge(&HIGHER, 0.1, &plus20, &steady).2, Verdict::Worse);
        let (worse_by, _, _) = judge(&LOWER, 0.1, &steady, &plus20);
        assert!((worse_by - 0.2).abs() < 1e-9);
    }

    #[test]
    fn within_the_bound_is_unchanged() {
        let a = [100.0, 101.0, 99.0];
        let b = [105.0, 106.0, 104.0];
        assert_eq!(judge(&LOWER, 0.1, &a, &b).2, Verdict::Unchanged);
        assert_eq!(judge(&LOWER, 0.1, &a, &a).2, Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_cleared() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        let shifted: Vec<f64> = noisy.iter().map(|v| v * 1.15).collect();
        assert_eq!(judge(&LOWER, 0.1, &noisy, &shifted).2, Verdict::Unresolved);
        assert_eq!(judge(&LOWER, 0.1, &noisy, &noisy).2, Verdict::Unresolved);
        let doubled: Vec<f64> = noisy.iter().map(|v| v * 2.0).collect();
        assert_eq!(judge(&LOWER, 0.1, &noisy, &doubled).2, Verdict::Worse);
    }

    fn results(seed: f64, rounds_per_s: &[f64], wire: f64, failed: f64, digest: &str) -> Value {
        let summary = |raw: &[f64]| Value::obj([("raw", Value::nums(raw))]);
        let end_to_end = metrics::END_TO_END.iter().map(|m| {
            let raw = match m.name {
                "rounds_per_s" => rounds_per_s.to_vec(),
                "wire_mb_per_round" => vec![wire; 3],
                _ => vec![1.0, 1.0, 1.0],
            };
            (m.name, summary(&raw))
        });
        Value::obj([
            ("seed", Value::Num(seed)),
            (
                "workloads",
                Value::obj([(
                    "lossy_tcp",
                    Value::obj([
                        ("attempted", Value::Num(1000.0)),
                        ("failed", Value::Num(failed)),
                        ("digests", Value::Arr(vec![Value::Str(digest.to_string())])),
                        ("end_to_end", Value::obj(end_to_end)),
                    ]),
                )]),
            ),
        ])
    }

    fn manifest() -> Value {
        let list = metrics::END_TO_END.iter().map(|m| {
            Value::obj([
                ("name", Value::Str(m.name.to_string())),
                ("bound", Value::Num(0.1)),
            ])
        });
        Value::obj([("end_to_end", Value::Arr(list.collect()))])
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.metric == metric)
            .unwrap_or_else(|| panic!("no row {metric}"))
            .verdict
    }

    #[test]
    fn two_agreeing_run_sets_pass() {
        let a = results(42.0, &[30.0, 31.0, 29.0], 0.3, 0.0, "d1");
        let b = results(42.0, &[29.5, 30.5, 30.0], 0.3, 0.0, "d1");
        let rows = compare(&manifest(), &a, &b).unwrap();
        // one row per end-to-end metric, plus the three exact rows
        assert_eq!(rows.len(), metrics::END_TO_END.len() + 3);
        assert!(rows.iter().all(|r| !r.verdict.fails()));
        assert_eq!(verdict_of(&rows, "output digests"), Verdict::Equal);
        assert_eq!(
            verdict_of(&rows, "wire_mb_per_round (exact)"),
            Verdict::Equal
        );
    }

    #[test]
    fn regressions_and_changed_outputs_fail() {
        let a = results(42.0, &[30.0, 31.0, 29.0], 0.3, 0.0, "d1");
        let b = results(42.0, &[20.0, 21.0, 19.0], 0.31, 2.0, "d2");
        let rows = compare(&manifest(), &a, &b).unwrap();
        assert_eq!(verdict_of(&rows, "rounds_per_s"), Verdict::Worse);
        assert_eq!(verdict_of(&rows, "wire_mb_per_round"), Verdict::Unchanged);
        assert_eq!(
            verdict_of(&rows, "wire_mb_per_round (exact)"),
            Verdict::Differs
        );
        assert_eq!(verdict_of(&rows, "update_fail_ratio"), Verdict::Differs);
        assert_eq!(verdict_of(&rows, "output digests"), Verdict::Differs);
    }

    #[test]
    fn different_seeds_skip_the_exact_rows_but_not_the_failure_ratio() {
        let a = results(1.0, &[30.0, 31.0, 29.0], 0.3, 0.0, "d1");
        let b = results(2.0, &[30.0, 31.0, 29.0], 0.31, 0.0, "d2");
        let rows = compare(&manifest(), &a, &b).unwrap();
        assert_eq!(rows.len(), metrics::END_TO_END.len() + 1);
        assert!(rows.iter().all(|r| !r.verdict.fails()));
        assert!(compare(
            &manifest(),
            &a,
            &Value::obj([("workloads", Value::Obj(vec![]))])
        )
        .is_err());
    }
}
