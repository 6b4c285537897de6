//! Experiment harness: every table and figure of the paper as one entry
//! of [`experiments::EXPERIMENTS`], run in-process by the `run_all` binary
//! (see EXPERIMENTS.md for the index), plus the shared helpers of the
//! `bench_*` perf-smoke binaries.
//!
//! Each experiment prints the same rows/series the paper reports, writes
//! CSV under `target/experiments/` and returns its checked claims, which
//! `run_all` prints and collects in `target/experiments/claims.csv`.

#![warn(missing_docs)]

pub mod client;
pub mod experiments;
pub mod lowering;
pub mod protocol;

use std::fs;
use std::path::Path;

/// Returns the value following `name` in `argv`, if present.
pub fn flag_value(argv: &[String], name: &str) -> Option<String> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1))
        .cloned()
}

/// Returns `true` if the bare flag `name` is present in the process args.
pub fn flag_present(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Median wall-clock nanoseconds of `reps` timed calls of `f`, after one
/// untimed warm-up call (pages in buffers, resolves SIMD dispatch, grows
/// arenas). The one timer of the `bench_*` binaries.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> u64 {
    f();
    let mut samples: Vec<u64> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[reps / 2]
}

/// Extracts `"key": <number>` from a flat JSON text (the committed floor
/// files are written by this repo, so a full parser is unnecessary).
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Writes `content` to `dir/name` (creating `dir`) and reports the path on
/// stdout.
pub fn write_output(dir: &Path, name: &str, content: &str) {
    fs::create_dir_all(dir).expect("create the experiment output directory");
    let path = dir.join(name);
    fs::write(&path, content).expect("write experiment output");
    println!("  [written] {}", path.display());
}

/// A printable results table mirroring the paper's layout.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the header.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Appends a full-width section label (the tables in the paper have
    /// mid-table section headers).
    pub fn section(&mut self, label: &str) -> &mut Self {
        let mut cells = vec![format!("— {label} —")];
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Prints the table as aligned text.
    pub fn print(&self) {
        println!("\n== {} ==", self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.headers));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut s = String::new();
        s.push_str(&self.headers.join(","));
        s.push('\n');
        for row in &self.rows {
            s.push_str(&row.join(","));
            s.push('\n');
        }
        s
    }
}

/// Writes named series (step → value) as a wide CSV: one `step` column and
/// one column per series, aligned by index.
pub fn series_csv<S: AsRef<str>>(series: &[(S, Vec<f32>)]) -> String {
    let mut s = String::from("step");
    for (name, _) in series {
        s.push(',');
        s.push_str(name.as_ref());
    }
    s.push('\n');
    let len = series.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    let mut line = String::new();
    for i in 0..len {
        line.clear();
        line.push_str(&i.to_string());
        for (_, v) in series {
            line.push(',');
            if let Some(x) = v.get(i) {
                line.push_str(&format!("{x:.6}"));
            }
        }
        s.push_str(&line);
        s.push('\n');
    }
    s
}

/// Formats a fraction as the paper's `Error(%)` column.
pub fn error_pct(accuracy: f32) -> String {
    format!("{:.2}", (1.0 - accuracy) * 100.0)
}

/// Formats a byte count as megabytes with two decimals.
pub fn mb(bytes: usize) -> String {
    format!("{:.3}", bytes as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_and_csv() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.row(&["1".into(), "2".into()]);
        t.section("part");
        assert!(t.to_csv().starts_with("a,bb\n1,2\n"));
        t.print(); // must not panic
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a"]);
        t.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn series_csv_aligns_ragged_series() {
        let csv = series_csv(&[("x", vec![1.0, 2.0]), ("y", vec![3.0])]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "step,x,y");
        assert!(lines[1].starts_with("0,1.0"));
        assert!(lines[2].ends_with(',')); // missing y at step 1
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(error_pct(0.9737), "2.63");
        assert_eq!(mb(1_930_000), "1.930");
    }

    #[test]
    fn json_number_reads_flat_floor_files() {
        let text = r#"{ "description": "x", "a_floor": 3.5, "b": -2e3,"c":7 }"#;
        assert_eq!(json_number(text, "a_floor"), Some(3.5));
        assert_eq!(json_number(text, "b"), Some(-2000.0));
        assert_eq!(json_number(text, "c"), Some(7.0));
        assert_eq!(json_number(text, "missing"), None);
        assert_eq!(json_number(text, "description"), None);
    }

    #[test]
    fn median_ns_runs_the_warm_up_and_every_rep() {
        let mut calls = 0;
        median_ns(5, || calls += 1);
        assert_eq!(calls, 6);
    }

    #[test]
    fn flag_helpers() {
        let argv: Vec<String> = vec!["prog".into(), "--scale".into(), "tiny".into()];
        assert_eq!(flag_value(&argv, "--scale").as_deref(), Some("tiny"));
        assert_eq!(flag_value(&argv, "--seed"), None);
    }
}
