//! The experiments that train nothing, run in-process at `tiny`, seed 42:
//! table5's and fig7's CSV bytes are pinned (they equal what the
//! per-experiment binaries this harness replaced wrote), table1 reports the
//! step budget the searches run, and each writes exactly the files and
//! returns exactly the claims its registry entry declares.

use fedrlnas_bench::experiments::{Ctx, Verdict, EXPERIMENTS};
use fedrlnas_core::Scale;

const TABLE5_CSV: &str = "\
method,search time (hours),sub-net size (MB)
FedNAS (RTX 2080 Ti x16),0.57,0.085
EvoFedNAS,3.22,0.030
Ours (1080 Ti),1.58,0.015
Ours (TX2),2.70,0.015
";

const FIG7_CSV: &str = "\
environment,adaptive,average,random
foot,0.0046,0.0057,0.0064
bicycle,0.0061,0.0088,0.0093
tram,0.0191,0.0304,0.0306
bus,0.0615,0.0989,0.1016
car,0.0902,0.1397,0.1500
train,0.1141,0.1691,0.1817
bus+car,0.0720,0.1120,0.1107
foot+train,0.0798,0.1238,0.1281
all-mixed,0.0418,0.0662,0.0669
";

/// Runs the named experiment into a fresh directory and returns its claims'
/// verdicts and the one CSV it writes.
fn run(name: &str) -> (Vec<Verdict>, String) {
    let exp = EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .expect("registered");
    let mut ctx = Ctx::new(Scale::Tiny, 42);
    ctx.out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("exp-{name}"));
    let _ = std::fs::remove_dir_all(&ctx.out_dir);
    let claims = (exp.run)(&ctx).expect("finite measurements");
    let ids: Vec<_> = claims.iter().map(|c| c.id).collect();
    assert_eq!(ids, exp.claims, "{name} returns the claims it declares");
    let mut written: Vec<String> = std::fs::read_dir(&ctx.out_dir)
        .expect("output dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .collect();
    written.sort();
    assert_eq!(written, exp.outputs, "{name} writes the files it declares");
    let csv = std::fs::read_to_string(ctx.out_dir.join(exp.outputs[0])).expect("csv");
    (claims.iter().map(|c| c.verdict).collect(), csv)
}

#[test]
fn table5_at_tiny_writes_the_pinned_csv() {
    let (verdicts, csv) = run("table5");
    assert_eq!(csv, TABLE5_CSV);
    assert_eq!(
        verdicts,
        [Verdict::Partial, Verdict::Partial, Verdict::Reproduced]
    );
}

#[test]
fn fig7_latency_at_tiny_writes_the_pinned_csv() {
    let (verdicts, csv) = run("fig7_latency");
    assert_eq!(csv, FIG7_CSV);
    assert_eq!(verdicts, [Verdict::Reproduced]);
}

/// Table I's "value used" column is the configuration the searches run
/// (`Ctx::search_config`): at `tiny`, 5 warm-up and 12 search steps.
#[test]
fn table1_at_tiny_reports_the_step_budget_the_searches_run() {
    let (verdicts, csv) = run("table1");
    assert!(verdicts.is_empty());
    assert!(csv.contains("\n# warm-up steps,10000,5\n"), "{csv}");
    assert!(csv.contains("\n# searching steps,6000,12\n"), "{csv}");
}
