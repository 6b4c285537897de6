//! The search's flag grammar: how an argument list such as
//! `--scale tiny --seed 7 --non-iid` becomes a [`SearchConfig`] and a
//! dataset. `fedrlnas` parses its command line with it, and a service job
//! spec is such a list, so a job and `fedrlnas search` with the same flags
//! build the same search.

use crate::{PopulationConfig, Scale, SearchConfig};
use fedrlnas_codec::CodecConfig;
use fedrlnas_data::{DatasetSpec, SyntheticDataset};
use fedrlnas_fed::AggregatorConfig;
use fedrlnas_netsim::{AssignmentStrategy, AvailabilitySpec, Environment};
use fedrlnas_sync::{StalenessModel, StalenessStrategy};
use rand::{rngs::StdRng, SeedableRng};

/// The value after `name` in `argv`, if any ([`check_flags`] refuses a
/// flag given twice).
pub fn flag(argv: &[String], name: &str) -> Option<String> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1))
        .cloned()
}

/// Whether `name` occurs in `argv`.
pub fn present(argv: &[String], name: &str) -> bool {
    argv.iter().any(|a| a == name)
}

/// A flag a subcommand knows: its name and whether a value follows it.
pub type FlagSpec = (&'static str, bool);

/// What [`build_config`] reads for every subcommand of the CLI.
/// `--environments` is not among them: only a job spec sets it.
pub const CONFIG_FLAGS: &[FlagSpec] = &[
    ("--scale", true),
    ("--non-iid", false),
    ("--participants", true),
    ("--staleness", true),
    ("--strategy", true),
    ("--assignment", true),
    ("--aggregator", true),
    ("--reject-norm", true),
    ("--codec", true),
    ("--population", true),
    ("--cohort", true),
    ("--availability", true),
];

/// Refuses (`unknown flag <name>`) any `--flag` the tables do not list,
/// (`<name> needs a value`) a value-taking flag that ends the list,
/// (`<name> given twice`) a flag that occurs more than once, and
/// (`unexpected argument <word>`) a word that is neither a flag nor a
/// flag's value, so a typo fails before any work starts instead of
/// silently running the default. `argv` holds the flags alone: a caller
/// strips its subcommand first.
pub fn check_flags(argv: &[String], known: &[&[FlagSpec]]) -> Result<(), String> {
    let mut args = argv.iter();
    let mut seen: Vec<&str> = Vec::new();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            return Err(format!("unexpected argument {arg}"));
        }
        let spec = known
            .iter()
            .copied()
            .flatten()
            .find(|(name, _)| name == arg);
        let Some((name, takes_value)) = spec else {
            return Err(format!("unknown flag {arg}"));
        };
        if seen.contains(name) {
            return Err(format!("{arg} given twice"));
        }
        seen.push(name);
        if *takes_value && args.next().is_none() {
            return Err(format!("{arg} needs a value"));
        }
    }
    Ok(())
}

/// The `--seed` value, 42 when the flag is absent; `bad seed: …` when the
/// value is not a `u64`.
pub fn seed(argv: &[String]) -> Result<u64, String> {
    flag(argv, "--seed")
        .map_or(Ok(42), |s| s.parse())
        .map_err(|e| format!("bad seed: {e}"))
}

/// The [`SearchConfig`] the flags describe, validated.
///
/// # Errors
///
/// A message naming the first bad value, or the
/// [`SearchConfig::validate`] message.
pub fn build_config(argv: &[String]) -> Result<SearchConfig, String> {
    let scale = match flag(argv, "--scale").as_deref() {
        None => Scale::Small,
        Some(s) => Scale::parse(s).ok_or(format!("unknown scale {s:?}"))?,
    };
    let mut config = SearchConfig::at_scale(scale);
    if present(argv, "--non-iid") {
        config = config.non_iid();
    }
    if let Some(k) = flag(argv, "--participants") {
        let k: usize = k
            .parse()
            .map_err(|e| format!("bad participant count: {e}"))?;
        config = config.with_participants(k);
    }
    let staleness = match flag(argv, "--staleness").as_deref() {
        None | Some("none") => StalenessModel::fresh(),
        Some("slight") => StalenessModel::slight(),
        Some("severe") => StalenessModel::severe(),
        Some(other) => return Err(format!("unknown staleness {other:?}")),
    };
    let strategy = match flag(argv, "--strategy").as_deref() {
        None | Some("hard") => StalenessStrategy::Hard,
        Some("use") => StalenessStrategy::Use,
        Some("throw") => StalenessStrategy::Throw,
        Some("dc") => StalenessStrategy::delay_compensated(),
        Some(other) => return Err(format!("unknown strategy {other:?}")),
    };
    config = config.with_staleness(staleness, strategy);
    if let Some(a) = flag(argv, "--assignment") {
        config.assignment = match a.as_str() {
            "adaptive" => AssignmentStrategy::Adaptive,
            "average" => AssignmentStrategy::AverageSize,
            "random" => AssignmentStrategy::Random,
            other => return Err(format!("unknown assignment {other:?}")),
        };
    }
    if let Some(spec) = flag(argv, "--aggregator") {
        config = config.with_aggregator(AggregatorConfig::parse(&spec)?);
    }
    if let Some(c) = flag(argv, "--reject-norm") {
        let bound: f32 = c.parse().map_err(|e| format!("bad norm bound: {e}"))?;
        config = config.with_update_norm_bound(bound);
    }
    if let Some(spec) = flag(argv, "--codec") {
        config = config.with_codec(CodecConfig::parse(&spec)?);
    }
    if let Some(names) = flag(argv, "--environments") {
        let environments = names
            .split(',')
            .map(|name| Environment::from_name(name).ok_or(format!("unknown environment {name:?}")))
            .collect::<Result<Vec<_>, _>>()?;
        config = config.with_environments(environments);
    }
    if let Some(n) = flag(argv, "--population") {
        let size: u64 = n.parse().map_err(|e| format!("bad population size: {e}"))?;
        let cohort: usize = match flag(argv, "--cohort") {
            Some(c) => c.parse().map_err(|e| format!("bad cohort size: {e}"))?,
            None => config.num_participants,
        };
        let availability = match flag(argv, "--availability") {
            Some(spec) => AvailabilitySpec::parse(&spec)?,
            None => AvailabilitySpec::default(),
        };
        config = config.with_population(PopulationConfig {
            size,
            cohort,
            availability,
        });
    } else if flag(argv, "--cohort").is_some() || flag(argv, "--availability").is_some() {
        return Err("--cohort/--availability require --population N".to_string());
    }
    config.validate()?;
    Ok(config)
}

/// The `--dataset` family at the supernet's image extent, or `unknown
/// dataset …`.
pub fn dataset_spec(argv: &[String], config: &SearchConfig) -> Result<DatasetSpec, String> {
    let spec = match flag(argv, "--dataset").as_deref() {
        None | Some("cifar10") => DatasetSpec::cifar10_like(),
        Some("svhn") => DatasetSpec::svhn_like(),
        Some(other) => return Err(format!("unknown dataset {other:?}")),
    };
    Ok(spec.with_image_hw(config.net.image_hw))
}

/// Generates the search's dataset from its own stream, `seed ^ 0xDA7A`;
/// errors as [`dataset_spec`].
pub fn dataset_for(
    argv: &[String],
    config: &SearchConfig,
    seed: u64,
) -> Result<SyntheticDataset, String> {
    let spec = dataset_spec(argv, config)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDA7A);
    Ok(SyntheticDataset::generate(&spec, &mut rng))
}
