//! Runs the paper's experiments in-process — every table and figure, or
//! the ones named — and collects their claims:
//!
//! ```text
//! cargo run --release -p fedrlnas-bench --bin run_all -- --scale small
//! cargo run --release -p fedrlnas-bench --bin run_all -- --scale tiny --seed 7 fig8_staleness
//! ```
//!
//! CSVs and `claims.csv` land in `target/experiments/`. Exits 2 on a bad
//! argument (running nothing) and 1 if an experiment panicked, measured a
//! non-finite value or returned other claims than it declares.

use fedrlnas_bench::experiments::{claims_csv, parse_args, Ctx, USAGE};
use fedrlnas_bench::write_output;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let ctx = Ctx::new(args.scale, args.seed);
    let mut claims = Vec::new();
    let mut failures = Vec::new();
    for exp in &args.experiments {
        println!("\n================ {} ================", exp.name);
        match catch_unwind(AssertUnwindSafe(|| (exp.run)(&ctx))) {
            Ok(Ok(got)) if got.iter().map(|c| c.id).eq(exp.claims.iter().copied()) => {
                got.iter().for_each(|c| c.print());
                claims.extend(got);
            }
            Ok(Ok(got)) => {
                let ids: Vec<_> = got.iter().map(|c| c.id).collect();
                eprintln!(
                    "  {} returned claims {ids:?}, declares {:?}",
                    exp.name, exp.claims
                );
                failures.push(exp.name);
            }
            Ok(Err(e)) => {
                eprintln!("  {} FAILED: {e}", exp.name);
                failures.push(exp.name);
            }
            Err(_) => {
                eprintln!("  {} PANICKED", exp.name);
                failures.push(exp.name);
            }
        }
    }
    println!("\n================ summary ================");
    write_output(&ctx.out_dir, "claims.csv", &claims_csv(&claims));
    if failures.is_empty() {
        println!(
            "all {} experiments completed; outputs in target/experiments/",
            args.experiments.len()
        );
    } else {
        println!("failed experiments: {failures:?}");
        std::process::exit(1);
    }
}
