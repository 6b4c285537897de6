//! The paper's experiments as data. Each table or figure is one
//! [`Experiment`]: a name, the ids of the claims it checks, the CSV files it
//! writes, and a function of one [`Ctx`] that prints the paper's rows,
//! writes its CSVs through [`write_output`] and returns its [`Claim`]s.
//! The `run_all` binary runs [`EXPERIMENTS`] in-process.
//!
//! A claim is one ordering the paper reports ("DC ≥ use ≥ throw"), the
//! numbers this run measured for it, and a [`Verdict`]: `REPRODUCED` when
//! the ordering holds, else the fallback the claim declares.

mod accounting;
mod evaluation;
mod search;

use crate::write_output;
use fedrlnas_core::{FederatedModelSearch, Scale, SearchConfig, SearchOutcome};
use rand::{rngs::StdRng, SeedableRng};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Step budgets of one scale (see [`Ctx::new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Warm-up (P1) steps.
    pub warmup: usize,
    /// Search (P2) steps.
    pub search: usize,
    /// Centralized retraining (P3) steps.
    pub retrain: usize,
    /// Federated retraining (P3, FL) rounds.
    pub fed_rounds: usize,
}

/// Everything an experiment depends on.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Proxy scale.
    pub scale: Scale,
    /// Base RNG seed.
    pub seed: u64,
    /// The scale's step budgets.
    pub budget: Budget,
    /// Where CSVs go (`target/experiments` under the working directory).
    pub out_dir: PathBuf,
}

impl Ctx {
    /// The context of one run, writing under `target/experiments`.
    pub fn new(scale: Scale, seed: u64) -> Ctx {
        let (warmup, search, retrain, fed_rounds) = match scale {
            Scale::Tiny => (5, 12, 30, 8),
            Scale::Small => (25, 110, 300, 40),
            Scale::Paper => (10_000, 6_000, 20_000, 600),
        };
        let budget = Budget {
            warmup,
            search,
            retrain,
            fed_rounds,
        };
        let out_dir = PathBuf::from("target/experiments");
        Ctx {
            scale,
            seed,
            budget,
            out_dir,
        }
    }

    /// The scale's search configuration with the budget's warm-up and
    /// search steps.
    pub fn search_config(&self) -> SearchConfig {
        let mut config = SearchConfig::at_scale(self.scale);
        config.warmup_steps = self.budget.warmup;
        config.search_steps = self.budget.search;
        config
    }

    /// Writes one CSV under [`Ctx::out_dir`].
    pub fn write(&self, name: &str, content: &str) {
        write_output(&self.out_dir, name, content);
    }
}

/// Runs our search (P1+P2) on its own dataset, seeded with `seed`.
fn run_search(config: SearchConfig, seed: u64) -> SearchOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    FederatedModelSearch::new(config, &mut rng).run(&mut rng)
}

/// How a claim came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The paper's ordering holds.
    Reproduced,
    /// It does not; the claim reads that as proxy-scale noise.
    Partial,
    /// It does not; the claim reads that as not reproduced at this scale.
    NotReproduced,
}

impl Verdict {
    /// The verdict as printed and written to `claims.csv`.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Reproduced => "REPRODUCED",
            Verdict::Partial => "PARTIAL",
            Verdict::NotReproduced => "NOT REPRODUCED",
        }
    }
}

/// One checked claim of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Unique id, `<table or figure>.<claim>`.
    pub id: &'static str,
    /// The ordering the paper reports.
    pub paper: &'static str,
    /// The numbers the test read, by name.
    pub measured: Vec<(&'static str, f64)>,
    /// The outcome.
    pub verdict: Verdict,
}

impl Claim {
    /// Builds a claim: [`Verdict::Reproduced`] if `holds`, else `fallback`.
    ///
    /// # Errors
    ///
    /// Names the first measured value that is NaN or infinite: a claim
    /// built on it has no verdict.
    pub fn check(
        id: &'static str,
        paper: &'static str,
        measured: &[(&'static str, f64)],
        holds: bool,
        fallback: Verdict,
    ) -> Result<Claim, String> {
        if let Some((name, v)) = measured.iter().find(|(_, v)| !v.is_finite()) {
            return Err(format!("claim {id}: measured {name} is {v}"));
        }
        Ok(Claim {
            id,
            paper,
            measured: measured.to_vec(),
            verdict: if holds { Verdict::Reproduced } else { fallback },
        })
    }

    /// The measured values as `name=value` pairs joined by spaces.
    pub fn measured_text(&self) -> String {
        let mut s = String::new();
        for (i, (name, v)) in self.measured.iter().enumerate() {
            let sep = if i == 0 { "" } else { " " };
            if v.fract() == 0.0 && v.abs() < 1e15 {
                let _ = write!(s, "{sep}{name}={v:.0}");
            } else {
                let _ = write!(s, "{sep}{name}={v:.4}");
            }
        }
        s
    }

    /// Prints the claim's verdict line.
    pub fn print(&self) {
        println!(
            "  paper shape [{}]: {} ({}): {}",
            self.id,
            self.paper,
            self.measured_text(),
            self.verdict.as_str()
        );
    }
}

/// Renders claims as `claims.csv`: `id,verdict,paper,measured`.
pub fn claims_csv(claims: &[Claim]) -> String {
    let mut s = String::from("id,verdict,paper,measured\n");
    for c in claims {
        let paper = c.paper.replace('"', "\"\"");
        let _ = writeln!(
            s,
            "{},{},\"{paper}\",{}",
            c.id,
            c.verdict.as_str(),
            c.measured_text()
        );
    }
    s
}

/// One table or figure of the paper (or an ablation of one).
#[derive(Debug)]
pub struct Experiment {
    /// Name on the `run_all` command line.
    pub name: &'static str,
    /// Ids of the claims it returns, in order.
    pub claims: &'static [&'static str],
    /// CSV files it writes under [`Ctx::out_dir`].
    pub outputs: &'static [&'static str],
    /// Runs it.
    pub run: fn(&Ctx) -> Result<Vec<Claim>, String>,
}

/// Every experiment, in `run_all`'s order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        claims: &[],
        outputs: &["table1.csv"],
        run: accounting::table1,
    },
    Experiment {
        name: "fig3_warmup",
        claims: &["fig3.warmup_converges"],
        outputs: &["fig3_warmup.csv"],
        run: search::fig3_warmup,
    },
    Experiment {
        name: "fig4_search_iid",
        claims: &["fig4.search_converges"],
        outputs: &["fig4_search_iid.csv"],
        run: search::fig4_search_iid,
    },
    Experiment {
        name: "fig4_ablate_beta",
        claims: &[],
        outputs: &["fig4_ablate_beta.csv"],
        run: search::fig4_ablate_beta,
    },
    Experiment {
        name: "fig4_ablate_weight_sharing",
        claims: &["fig4.sharing_required"],
        outputs: &["fig4_ablate_weight_sharing.csv"],
        run: search::fig4_ablate_weight_sharing,
    },
    Experiment {
        name: "fig5_alpha_only",
        claims: &["fig5.alpha_only_lower"],
        outputs: &["fig5_alpha_only.csv"],
        run: search::fig5_alpha_only,
    },
    Experiment {
        name: "fig6_search_noniid",
        claims: &["fig6.non_iid_slower"],
        outputs: &["fig6_search_noniid.csv"],
        run: search::fig6_search_noniid,
    },
    Experiment {
        name: "table2",
        claims: &["table2.dc_beats_use_throw", "table2.dc_near_fresh"],
        outputs: &["table2.csv"],
        run: evaluation::table2,
    },
    Experiment {
        name: "table3",
        claims: &["table3.searched_beat_fedavg", "table3.evo_big_beats_small"],
        outputs: &["table3.csv"],
        run: evaluation::table3,
    },
    Experiment {
        name: "table4",
        claims: &["table4.ours_beats_fedavg", "table4.ours_near_fednas"],
        outputs: &["table4.csv"],
        run: evaluation::table4,
    },
    Experiment {
        name: "table5",
        claims: &[
            "table5.ours_fastest",
            "table5.tx2_slower",
            "table5.submodel_smaller",
        ],
        outputs: &["table5.csv"],
        run: accounting::table5,
    },
    Experiment {
        name: "fig7_latency",
        claims: &["fig7.adaptive_lowest"],
        outputs: &["fig7_latency.csv"],
        run: accounting::fig7_latency,
    },
    Experiment {
        name: "fig8_staleness",
        claims: &["fig8.dc_use_throw", "fig8.dc_near_fresh"],
        outputs: &["fig8_staleness.csv"],
        run: search::fig8_staleness,
    },
    Experiment {
        name: "fig8_ablate_lambda",
        claims: &[],
        outputs: &["fig8_ablate_lambda.csv"],
        run: search::fig8_ablate_lambda,
    },
    Experiment {
        name: "fig9_rounds_cifar10",
        claims: &["fig9.searched_beats_predefined"],
        outputs: &["fig9_rounds_cifar10.csv", "fig9_rounds_cifar10_val.csv"],
        run: evaluation::fig9_rounds_cifar10,
    },
    Experiment {
        name: "fig10_rounds_svhn",
        claims: &["fig10.searched_matches_predefined"],
        outputs: &["fig10_rounds_svhn.csv"],
        run: evaluation::fig10_rounds_svhn,
    },
    Experiment {
        name: "fig11_transfer",
        claims: &["fig11.transfer_generalizes", "fig11.predefined_overfits"],
        outputs: &["fig11_transfer.csv", "fig11_transfer_val.csv"],
        run: evaluation::fig11_transfer,
    },
    Experiment {
        name: "fig12_participants",
        claims: &["fig12.more_participants_steadier"],
        outputs: &["fig12_participants.csv", "fig12_curves.csv"],
        run: search::fig12_participants,
    },
    Experiment {
        name: "table6",
        claims: &["table6.flat_in_k"],
        outputs: &["table6.csv"],
        run: evaluation::table6,
    },
    Experiment {
        name: "table7_8",
        claims: &["table7_8.transfer_competitive"],
        outputs: &["table7_8.csv"],
        run: evaluation::table7_8,
    },
    Experiment {
        name: "comm_cost",
        claims: &["comm_cost.ours_fraction_of_fednas"],
        outputs: &["comm_cost.csv"],
        run: accounting::comm_cost,
    },
];

/// `run_all`'s parsed command line.
#[derive(Debug)]
pub struct RunArgs {
    /// Proxy scale (default `small`).
    pub scale: Scale,
    /// Base seed (default 42).
    pub seed: u64,
    /// Experiments to run, in order (default: all of [`EXPERIMENTS`]).
    pub experiments: Vec<&'static Experiment>,
}

/// `run_all`'s usage line.
pub const USAGE: &str = "usage: run_all [--scale tiny|small|paper] [--seed N] [EXPERIMENT...]";

/// Parses `run_all`'s arguments (program name excluded).
///
/// # Errors
///
/// A message naming the first bad scale, seed, flag or experiment name.
pub fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        scale: Scale::Small,
        seed: 42,
        experiments: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                parsed.scale = Scale::parse(v).ok_or(format!("unknown scale {v:?}"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                parsed.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            name => {
                let exp = EXPERIMENTS
                    .iter()
                    .find(|e| e.name == name)
                    .ok_or(format!("unknown experiment {name:?}"))?;
                if parsed.experiments.iter().any(|e| e.name == name) {
                    return Err(format!("experiment {name:?} named twice"));
                }
                parsed.experiments.push(exp);
            }
        }
    }
    if parsed.experiments.is_empty() {
        parsed.experiments = EXPERIMENTS.iter().collect();
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunArgs, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parser_defaults_and_names() {
        let all = parse(&[]).expect("defaults");
        assert_eq!((all.scale, all.seed), (Scale::Small, 42));
        assert_eq!(all.experiments.len(), EXPERIMENTS.len());
        let two = parse(&["table5", "--scale", "tiny", "--seed", "7", "fig7_latency"])
            .expect("two names");
        assert_eq!((two.scale, two.seed), (Scale::Tiny, 7));
        let names: Vec<_> = two.experiments.iter().map(|e| e.name).collect();
        assert_eq!(names, ["table5", "fig7_latency"]);
    }

    #[test]
    fn parser_rejects_every_bad_argument() {
        for bad in [
            &["--scale", "tyni"][..],
            &["--seed", "x"],
            &["--seed", "-1"],
            &["--sede", "7"],
            &["--ablate-beta"],
            &["nosuch"],
            &["table5", "table5"],
            &["--scale"],
            &["--seed"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn verdict_follows_the_test_and_the_declared_fallback() {
        let m = [("a", 1.0), ("b", 2.0)];
        let held = Claim::check("x.y", "a < b", &m, true, Verdict::Partial).expect("finite");
        assert_eq!(held.verdict, Verdict::Reproduced);
        for fallback in [Verdict::Partial, Verdict::NotReproduced] {
            let failed = Claim::check("x.y", "a < b", &m, false, fallback).expect("finite");
            assert_eq!(failed.verdict, fallback);
        }
        assert_eq!(held.measured_text(), "a=1 b=2");
    }

    #[test]
    fn a_non_finite_measurement_is_an_error_not_a_verdict() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for holds in [true, false] {
                let err =
                    Claim::check("x.y", "p", &[("a", 1.0), ("b", v)], holds, Verdict::Partial)
                        .expect_err("non-finite");
                assert!(err.starts_with("claim x.y: measured b is "), "{err}");
            }
        }
    }

    #[test]
    fn registry_names_claims_and_outputs_are_unique() {
        fn assert_unique(what: &str, items: Vec<&str>) {
            let mut sorted = items.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), items.len(), "duplicate {what}: {items:?}");
        }
        assert_unique("name", EXPERIMENTS.iter().map(|e| e.name).collect());
        assert_unique(
            "claim id",
            EXPERIMENTS
                .iter()
                .flat_map(|e| e.claims.iter().copied())
                .collect(),
        );
        assert_unique(
            "output",
            EXPERIMENTS
                .iter()
                .flat_map(|e| e.outputs.iter().copied())
                .collect(),
        );
        assert!(EXPERIMENTS.iter().all(|e| !e.outputs.is_empty()));
        assert_eq!(
            EXPERIMENTS.iter().map(|e| e.claims.len()).sum::<usize>(),
            25
        );
    }

    #[test]
    fn claims_csv_has_one_row_per_claim() {
        let c = Claim::check(
            "x.y",
            "a, then \"b\"",
            &[("a", 0.5)],
            true,
            Verdict::Partial,
        )
        .expect("finite");
        assert_eq!(
            claims_csv(&[c]),
            "id,verdict,paper,measured\nx.y,REPRODUCED,\"a, then \"\"b\"\"\",a=0.5000\n"
        );
    }
}
