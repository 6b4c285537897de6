//! `benchmark` — one benchmark for a whole federated model search.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark suite   [--seed N] [--seconds S] [--reps R] [--out FILE] [--workload NAME]...
//! benchmark compare <a.json> <b.json> [--bounds BENCHMARK.json]
//! ```
//!
//! The first form is one run of one workload — what the driver invokes
//! and what `suite` spawns as child processes; its last line of standard
//! output is the result object. See `README.md` beside this package.

mod compare;
mod json;
mod metrics;
mod procfs;
mod replay;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use run::{RunOptions, RunReport};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

/// The benchmark's scratch and output directory, `out/` beside its
/// manifest: trace files, results files, the service workload's stores.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Command-line arguments as `--flag value` pairs plus bare words.
pub struct Args {
    flags: Vec<(String, String)>,
    switches: Vec<String>,
    pub words: Vec<String>,
}

impl Args {
    /// Flags that take no value.
    const SWITCHES: [&'static str; 1] = ["--smoke"];

    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            switches: Vec::new(),
            words: Vec::new(),
        };
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            if Args::SWITCHES.contains(&arg.as_str()) {
                args.switches.push(arg);
            } else if arg.starts_with("--") {
                let value = argv.next().ok_or(format!("{arg} needs a value"))?;
                args.flags.push((arg, value));
            } else {
                args.words.push(arg);
            }
        }
        Ok(args)
    }

    pub fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    /// Every value given for `flag`, in order.
    pub fn all(&self, flag: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// The last value given for `flag`, parsed; `default` when absent.
    pub fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.all(flag).last() {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("bad value {text:?} for {flag}")),
        }
    }

    /// Refuses flags the command does not know, so a typo cannot silently
    /// run the default.
    pub fn allow_only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(f, _)| !known.contains(&f.as_str()))
        {
            Some((flag, _)) => Err(format!("unknown flag {flag}")),
            None => Ok(()),
        }
    }
}

/// How long a run measures for unless told otherwise — `run_seconds` of
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 18.0;

/// Prints a traced run's "where a round's time goes" rows (the
/// `blocking_path` array of its detail line); nothing for an empty table.
pub fn print_blocking_path(rows: &json::Value, indent: &str) {
    let rows = rows.as_array().unwrap_or_default();
    if rows.is_empty() {
        return;
    }
    println!("{indent}where a round's time goes (blocking path, per round):");
    println!(
        "{indent}  {:<40} {:>10} {:>12} {:>12}",
        "step", "calls", "us/call", "ms/round"
    );
    for row in rows {
        let num = |key| row.get(key).and_then(json::Value::as_f64).unwrap_or(0.0);
        println!(
            "{indent}  {:<40} {:>10.2} {:>12.1} {:>12.3}",
            row.get("step").and_then(json::Value::as_str).unwrap_or("?"),
            num("calls_per_round"),
            num("us_per_call"),
            num("ms_per_round")
        );
    }
}

fn run_options(args: &Args) -> Result<RunOptions, String> {
    args.allow_only(&["--workload", "--seed", "--seconds", "--trace"])?;
    let name: String = args.get("--workload", String::new())?;
    let workload = Workload::parse(&name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("--workload must be one of {}", names.join(", "))
    })?;
    let seconds: f64 = args.get("--seconds", DEFAULT_SECONDS)?;
    if !(0.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 0..=600"));
    }
    let trace = match args.get("--trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(RunOptions {
        workload,
        seed: args.get("--seed", 42)?,
        seconds,
        trace,
        smoke: args.has("--smoke"),
    })
}

/// Prints a run for a reader — every metric by name with its unit, the
/// time-attribution table of a traced run, any failed check — then the
/// detail line the suite pools and, last, the driver's result line.
fn print_report(opts: &RunOptions, report: &RunReport) {
    println!(
        "workload {} seed {} {}",
        opts.workload.name(),
        opts.seed,
        if opts.trace { "traced" } else { "untraced" }
    );
    println!("  ({})", opts.workload.why());
    for &(name, value) in &report.metrics {
        let unit = metrics::find(name).map_or("", |m| m.unit);
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    if let Some(rows) = report.detail.get("blocking_path") {
        print_blocking_path(rows, "");
    }
    for problem in &report.problems {
        println!("FAILED CHECK: {problem}");
    }
    println!("detail {}", report.detail);
    println!("{}", report.result_line());
}

fn dispatch(argv: Vec<String>) -> Result<bool, String> {
    let args = Args::parse(argv)?;
    match args.words.first().map(String::as_str) {
        None => {
            let opts = run_options(&args)?;
            let report = run::run(&opts);
            print_report(&opts, &report);
            Ok(report.correct)
        }
        Some("suite") => suite::suite(&args),
        Some("compare") => compare::compare_files(&args),
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
                 \x20      benchmark suite [--seed N] [--seconds S] [--reps R] [--out FILE] [--workload NAME]...\n\
                 \x20      benchmark compare <a.json> <b.json> [--bounds BENCHMARK.json]"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Result<Args, String> {
        Args::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let a = args(&[
            "--workload",
            "lossy_tcp",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        let opts = run_options(&a).unwrap();
        assert_eq!(opts.workload, Workload::LossyTcp);
        assert_eq!(
            (opts.seed, opts.seconds, opts.trace, opts.smoke),
            (9, 3.0, true, false)
        );
    }

    #[test]
    fn bad_invocations_are_refused() {
        assert!(args(&["--seed"]).is_err());
        for bad in [
            vec!["--workload", "nope"],
            vec!["--seed", "1"],
            vec!["--workload", "lossy_tcp", "--trace", "2"],
            vec!["--workload", "lossy_tcp", "--seconds", "-1"],
            vec!["--workload", "lossy_tcp", "--seed", "x"],
            vec!["--workload", "lossy_tcp", "--sede", "1"],
        ] {
            assert!(run_options(&args(&bad).unwrap()).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn repeated_flags_and_switches() {
        let a = args(&["suite", "--workload", "a", "--workload", "b", "--smoke"]).unwrap();
        assert_eq!(a.words, ["suite"]);
        assert_eq!(a.all("--workload"), ["a", "b"]);
        assert!(a.has("--smoke"));
        assert_eq!(a.get("--reps", 3usize), Ok(3));
    }
}
