//! `benchmark suite`: every workload, several repetitions, one results
//! file.
//!
//! Each (workload, repetition) is a fresh child process running the
//! single-run command, so peak memory and CPU belong to that run alone.
//! Repetitions are interleaved across workloads (w1 w2 … w5, w1 w2 …) so
//! machine drift spreads evenly; every repetition uses the same seed, so
//! the output digests must repeat exactly. A reported value is the median
//! over repetitions; round-latency percentiles are taken over the rounds
//! of all repetitions pooled. One traced run per workload follows and
//! supplies the per-layer numbers.

use crate::json::{self, Value};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats;
use crate::workloads::Workload;
use crate::Args;
use std::path::{Path, PathBuf};
use std::process::Command;

/// One child run: its result line and detail line, parsed.
struct ChildRun {
    result: Value,
    detail: Value,
}

/// Runs the single-run command in a child process and parses its output.
fn child(
    exe: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<ChildRun, String> {
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = |prefix: &str| {
        stdout
            .lines()
            .rev()
            .find(|l| l.starts_with(prefix))
            .ok_or_else(|| {
                format!(
                    "{}: no line starting {prefix:?} ({})",
                    workload.name(),
                    output.status
                )
            })
    };
    for problem in stdout.lines().filter(|l| l.starts_with("FAILED CHECK")) {
        println!("  {}: {problem}", workload.name());
    }
    Ok(ChildRun {
        result: json::parse(line("{")?)?,
        detail: json::parse(&line("detail ")?["detail ".len()..])?,
    })
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Median, quartiles, spread and raw values of one metric over the
/// repetitions.
fn summarize(unit: &str, raw: &[f64]) -> Value {
    let (q1, median, q3) = stats::quartiles(raw);
    Value::obj([
        ("unit", Value::Str(unit.to_string())),
        ("median", Value::Num(median)),
        ("q1", Value::Num(q1)),
        ("q3", Value::Num(q3)),
        ("spread", Value::Num(stats::spread(raw))),
        ("raw", Value::nums(raw)),
    ])
}

/// The digests every repetition agrees on, or which repetition diverged.
/// Repetitions may finish different numbers of episodes in their time, so
/// only the episodes all of them ran are compared.
fn common_digests(details: &[Value]) -> Result<Vec<String>, String> {
    let lists: Vec<Vec<&str>> = details
        .iter()
        .map(|d| {
            d.get("digests")
                .and_then(Value::as_array)
                .map(|a| a.iter().filter_map(Value::as_str).collect())
                .unwrap_or_default()
        })
        .collect();
    let shared = lists.iter().map(Vec::len).min().unwrap_or(0);
    let first = lists.first().map(|l| &l[..shared]).unwrap_or_default();
    for (rep, list) in lists.iter().enumerate() {
        if &list[..shared] != first {
            return Err(format!(
                "repetition {rep} digests {:?} differ from repetition 0's {first:?}",
                &list[..shared]
            ));
        }
    }
    Ok(first.iter().map(|s| s.to_string()).collect())
}

/// One workload's section of the results file, from its untraced
/// repetitions and its traced run. Returns the section and whether every
/// check held.
fn workload_section(runs: &[ChildRun], traced: Option<&ChildRun>) -> (Value, bool) {
    let mut ok = true;
    let results: Vec<&Value> = runs.iter().map(|r| &r.result).collect();
    let flag = |r: &Value| r.get("correct").and_then(Value::as_bool).unwrap_or(false);
    ok &= results.iter().all(|r| flag(r)) && traced.is_none_or(|t| flag(&t.result));
    let count = |key: &str| -> f64 {
        results
            .iter()
            .filter_map(|r| r.get(key).and_then(Value::as_f64))
            .sum()
    };

    let end_to_end = END_TO_END.iter().map(|m| {
        let raw: Vec<f64> = results
            .iter()
            .filter_map(|r| metric_value(r, m.name))
            .collect();
        (m.name, summarize(m.unit, &raw))
    });

    let details: Vec<Value> = runs.iter().map(|r| r.detail.clone()).collect();
    let digests = match common_digests(&details) {
        Ok(digests) => Value::Arr(digests.into_iter().map(Value::Str).collect()),
        Err(e) => {
            println!("  FAILED CHECK: {e}");
            ok = false;
            Value::Arr(Vec::new())
        }
    };
    let pooled: Vec<f64> = details
        .iter()
        .flat_map(|d| d.get("round_ms").map(Value::f64s).unwrap_or_default())
        .collect();
    let beyond_p90 = stats::samples_beyond(pooled.len(), 90.0);
    let pooled = Value::obj([
        ("samples", Value::Num(pooled.len() as f64)),
        ("round_ms_p50", Value::Num(stats::median(&pooled))),
        // a tail percentile needs ten samples beyond it to mean anything
        (
            "round_ms_p90",
            if beyond_p90 >= 10 {
                Value::Num(stats::percentile(&pooled, 90.0))
            } else {
                Value::Null
            },
        ),
        ("samples_beyond_p90", Value::Num(beyond_p90 as f64)),
    ]);

    let mut section = vec![
        ("repetitions".to_string(), Value::Num(runs.len() as f64)),
        ("attempted".to_string(), Value::Num(count("attempted"))),
        ("failed".to_string(), Value::Num(count("failed"))),
        ("digests".to_string(), digests),
        ("end_to_end".to_string(), Value::obj(end_to_end)),
        ("pooled".to_string(), pooled),
    ];
    if let Some(traced) = traced {
        let per_layer = PER_LAYER.iter().filter_map(|m| {
            let value = metric_value(&traced.result, m.name)?;
            Some((
                m.name,
                Value::obj([
                    ("unit", Value::Str(m.unit.to_string())),
                    ("value", Value::Num(value)),
                ]),
            ))
        });
        section.push(("per_layer".to_string(), Value::obj(per_layer)));
        if let Some(path) = traced.detail.get("blocking_path") {
            section.push(("blocking_path".to_string(), path.clone()));
        }
    }
    (Value::Obj(section), ok)
}

/// First line of a command's standard output, or `"unknown"`.
fn first_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn print_section(name: &str, section: &Value) {
    println!("\n== {name} ==");
    println!(
        "  {:<20} {:>6} {:>14} {:>14} {:>14} {:>8}  raw",
        "end-to-end metric", "unit", "median", "q1", "q3", "spread"
    );
    for (metric, summary) in section
        .get("end_to_end")
        .and_then(Value::as_object)
        .unwrap_or_default()
    {
        let num = |key| summary.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        let raw: Vec<String> = summary
            .get("raw")
            .map(Value::f64s)
            .unwrap_or_default()
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect();
        println!(
            "  {:<20} {:>6} {:>14.4} {:>14.4} {:>14.4} {:>7.1}%  {}",
            metric,
            summary.get("unit").and_then(Value::as_str).unwrap_or(""),
            num("median"),
            num("q1"),
            num("q3"),
            num("spread") * 100.0,
            raw.join(" ")
        );
    }
    if let Some(pooled) = section.get("pooled") {
        let num = |key| pooled.get(key).and_then(Value::as_f64);
        println!(
            "  pooled over {} rounds: p50 {:.3} ms, p90 {} ({} samples beyond it)",
            num("samples").unwrap_or(0.0),
            num("round_ms_p50").unwrap_or(0.0),
            num("round_ms_p90").map_or("not reported".to_string(), |v| format!("{v:.3} ms")),
            num("samples_beyond_p90").unwrap_or(0.0),
        );
    }
    let digests = section
        .get("digests")
        .and_then(Value::as_array)
        .unwrap_or_default();
    println!(
        "  failed {} of {} attempted; {} episode digests identical across repetitions",
        section.get("failed").and_then(Value::as_f64).unwrap_or(0.0),
        section
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
        digests.len()
    );
    if let Some(layers) = section.get("per_layer").and_then(Value::as_object) {
        println!("  per-layer (traced run; layers the workload does not exercise omitted):");
        for (metric, entry) in layers {
            let value = entry.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            if value != 0.0 {
                println!(
                    "    {:<36} {:>16.4} {}",
                    metric,
                    value,
                    entry.get("unit").and_then(Value::as_str).unwrap_or("")
                );
            }
        }
    }
    if let Some(rows) = section.get("blocking_path") {
        crate::print_blocking_path(rows, "  ");
    }
}

/// Runs the whole suite and writes the results file. `Ok(false)` when a
/// run's outputs were wrong.
pub fn suite(args: &Args) -> Result<bool, String> {
    args.allow_only(&["--seed", "--seconds", "--reps", "--out", "--workload"])?;
    let seed: u64 = args.get("--seed", 42)?;
    let seconds: f64 = args.get("--seconds", crate::DEFAULT_SECONDS)?;
    let reps: usize = args.get("--reps", 3)?;
    if reps < 3 {
        return Err("--reps must be at least 3: a reported value is a median".to_string());
    }
    let out: PathBuf = args.get("--out", crate::out_dir().join("results.json"))?;
    let workloads: Vec<Workload> = match args.all("--workload").as_slice() {
        [] => Workload::ALL.to_vec(),
        names => names
            .iter()
            .map(|n| Workload::parse(n).ok_or(format!("unknown workload {n:?}")))
            .collect::<Result<_, _>>()?,
    };
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;

    let mut runs: Vec<Vec<ChildRun>> = workloads.iter().map(|_| Vec::new()).collect();
    for rep in 0..reps {
        for (w, runs) in workloads.iter().zip(&mut runs) {
            println!("repetition {}/{reps}: {}", rep + 1, w.name());
            runs.push(child(&exe, *w, seed, seconds, false)?);
        }
    }
    let mut traced = Vec::new();
    for w in &workloads {
        println!("traced run: {}", w.name());
        traced.push(child(&exe, *w, seed, seconds, true)?);
    }

    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut all_ok = true;
    let mut sections = Vec::new();
    for ((w, runs), traced) in workloads.iter().zip(&runs).zip(&traced) {
        let (section, ok) = workload_section(runs, Some(traced));
        all_ok &= ok;
        print_section(w.name(), &section);
        sections.push((w.name(), section));
    }
    let results = Value::obj([
        ("schema", Value::Num(1.0)),
        (
            "commit",
            Value::Str(first_line("git", &["rev-parse", "HEAD"], manifest_dir)),
        ),
        (
            "rustc",
            Value::Str(first_line("rustc", &["--version"], manifest_dir)),
        ),
        ("nproc", Value::Num(crate::procfs::nproc() as f64)),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("repetitions", Value::Num(reps as f64)),
        ("workloads", Value::obj(sections)),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, results.pretty()).map_err(|e| format!("write {}: {e}", out.display()))?;
    println!(
        "\nresults written to {} ({})",
        out.display(),
        if all_ok {
            "every check passed"
        } else {
            "A CHECK FAILED"
        }
    );
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detail(digests: &[&str], round_ms: &[f64]) -> Value {
        Value::obj([
            (
                "digests",
                Value::Arr(digests.iter().map(|d| Value::Str(d.to_string())).collect()),
            ),
            ("round_ms", Value::nums(round_ms)),
        ])
    }

    fn result(correct: bool, rounds_per_s: f64) -> Value {
        Value::obj([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Num(100.0)),
            ("failed", Value::Num(0.0)),
            (
                "metrics",
                Value::obj([(
                    "rounds_per_s",
                    Value::obj([
                        ("value", Value::Num(rounds_per_s)),
                        ("unit", Value::Str("1/s".into())),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn digests_compare_over_the_shared_episodes() {
        let same = [detail(&["a", "b", "c"], &[]), detail(&["a", "b"], &[])];
        assert_eq!(common_digests(&same).unwrap(), ["a", "b"]);
        let differ = [detail(&["a", "b"], &[]), detail(&["a", "x"], &[])];
        assert!(common_digests(&differ).is_err());
        assert!(common_digests(&[]).unwrap().is_empty());
    }

    #[test]
    fn section_pools_rounds_and_keeps_raw_values() {
        let fast: Vec<f64> = (0..60).map(|i| 10.0 + i as f64).collect();
        let runs = [
            ChildRun {
                result: result(true, 4.0),
                detail: detail(&["a"], &fast),
            },
            ChildRun {
                result: result(true, 5.0),
                detail: detail(&["a"], &fast),
            },
            ChildRun {
                result: result(true, 6.0),
                detail: detail(&["a"], &fast[..5]),
            },
        ];
        let (section, ok) = workload_section(&runs, None);
        assert!(ok);
        let rps = section
            .get("end_to_end")
            .unwrap()
            .get("rounds_per_s")
            .unwrap();
        assert_eq!(rps.get("median").unwrap().as_f64(), Some(5.0));
        assert_eq!(rps.get("raw").unwrap().f64s(), [4.0, 5.0, 6.0]);
        assert_eq!(section.get("attempted").unwrap().as_f64(), Some(300.0));
        let pooled = section.get("pooled").unwrap();
        assert_eq!(pooled.get("samples").unwrap().as_f64(), Some(125.0));
        assert_eq!(
            pooled.get("samples_beyond_p90").unwrap().as_f64(),
            Some(12.0)
        );
        assert!(pooled.get("round_ms_p90").unwrap().as_f64().is_some());
        // too few samples beyond the percentile: it is withheld
        let (small, _) = workload_section(&runs[2..], None);
        assert_eq!(
            small.get("pooled").unwrap().get("round_ms_p90"),
            Some(&Value::Null)
        );
    }

    #[test]
    fn a_wrong_run_or_a_diverging_digest_fails_the_section() {
        let wrong = [ChildRun {
            result: result(false, 4.0),
            detail: detail(&["a"], &[1.0]),
        }];
        assert!(!workload_section(&wrong, None).1);
        let diverged = [
            ChildRun {
                result: result(true, 4.0),
                detail: detail(&["a"], &[1.0]),
            },
            ChildRun {
                result: result(true, 4.0),
                detail: detail(&["b"], &[1.0]),
            },
        ];
        assert!(!workload_section(&diverged, None).1);
    }
}
