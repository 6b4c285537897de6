//! Job specifications. A job spec is the argument list of a
//! `fedrlnas search` run, restricted to [`JOB_FLAGS`], and a job builds
//! its search through the same [`fedrlnas_core::args`] functions that
//! command line does. The list travels in
//! [`SubmitJob`](fedrlnas_rpc::wire::Message::SubmitJob) frames and is
//! persisted verbatim in the job store, so a recovered job is rebuilt
//! from exactly the arguments the client submitted.
//!
//! Encoding v6: `version u8 | count u32 | (len u32 | UTF-8 bytes)*`.

use fedrlnas_core::args::{self, check_flags, FlagSpec};
use fedrlnas_core::record::{put_bytes, Count, Reader};
use fedrlnas_core::SearchConfig;
use fedrlnas_data::SyntheticDataset;

/// Current spec encoding version. Like checkpoints, only the current
/// version decodes: a stored spec of an older layout is quarantined on
/// restart, and its job must be resubmitted.
const SPEC_VERSION: u8 = 6;

/// The flags a job spec may carry: the settings a job can vary.
/// `--environments a,b,…` pins the per-participant network traces (cycled
/// by participant id); `--rpc` runs the job's rounds on its own in-memory
/// RPC engine with `fedrlnas search --rpc`'s defaults.
pub const JOB_FLAGS: &[FlagSpec] = &[
    ("--seed", true),
    ("--scale", true),
    ("--dataset", true),
    ("--non-iid", false),
    ("--participants", true),
    ("--codec", true),
    ("--environments", true),
    ("--population", true),
    ("--cohort", true),
    ("--availability", true),
    ("--rpc", false),
];

/// A complete, deterministic description of one search job. Two jobs built
/// from equal specs produce bit-identical genotypes, curves and traffic,
/// no matter how their rounds interleave with other tenants'.
///
/// Every value builds: [`JobSpec::new`] and [`JobSpec::decode`] refuse an
/// argument list whose [`JobSpec::build_config`] fails.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The search RNG seed, the list's `--seed` (42 without one, as for
    /// the CLI). It is read from the list when the spec is built; the
    /// encoding carries only the list.
    pub seed: u64,
    args: Vec<String>,
}

impl JobSpec {
    /// The spec of `fedrlnas search --scale tiny --seed <seed>`.
    pub fn tiny(seed: u64) -> JobSpec {
        JobSpec {
            seed,
            args: ["--scale", "tiny", "--seed", &seed.to_string()]
                .map(String::from)
                .to_vec(),
        }
    }

    /// A spec from a search's argument list (without the `search`
    /// subcommand).
    ///
    /// # Errors
    ///
    /// A flag outside [`JOB_FLAGS`], a bad value, or the
    /// [`SearchConfig::validate`] / [`SearchConfig::check_dataset`]
    /// message.
    pub fn new<S: Into<String>>(args: impl IntoIterator<Item = S>) -> Result<JobSpec, String> {
        let args: Vec<String> = args.into_iter().map(Into::into).collect();
        let spec = JobSpec {
            seed: args::seed(&args)?,
            args,
        };
        spec.build_config()?;
        Ok(spec)
    }

    /// The argument list: `fedrlnas search <args>` runs this job alone.
    pub fn args(&self) -> &[String] {
        &self.args
    }

    /// Whether the job's rounds run on an in-memory RPC engine.
    pub fn uses_rpc(&self) -> bool {
        args::present(&self.args, "--rpc")
    }

    /// Builds the [`SearchConfig`] this spec describes, through the CLI's
    /// own [`args::build_config`], so a job is bit-identical to the
    /// corresponding single run.
    ///
    /// # Errors
    ///
    /// As [`JobSpec::new`].
    pub fn build_config(&self) -> Result<SearchConfig, String> {
        check_flags(&self.args, &[JOB_FLAGS])?;
        let config = args::build_config(&self.args)?;
        config.check_dataset(&args::dataset_spec(&self.args, &config)?)?;
        Ok(config)
    }

    /// Generates the job's dataset — same spec, image extent and seed
    /// derivation as the CLI (`seed ^ 0xDA7A`).
    pub fn build_dataset(&self, config: &SearchConfig) -> SyntheticDataset {
        args::dataset_for(&self.args, config, self.seed)
            .expect("a spec's --dataset was checked when the spec was built")
    }

    /// Serializes to the versioned binary layout carried by
    /// [`SubmitJob`](fedrlnas_rpc::wire::Message::SubmitJob) frames and
    /// stored in manifest and segment files.
    pub fn encode(&self) -> Vec<u8> {
        encode_args(&self.args)
    }

    /// Decodes a spec previously produced by [`JobSpec::encode`], through
    /// [`fedrlnas_core::record`], the bounded field layer the wire frame,
    /// the checkpoint and the job store share. Total: every malformed
    /// input maps to an error message, never a panic, and no allocation is
    /// sized from an unvalidated length.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed field, or
    /// [`JobSpec::new`]'s error for the list.
    pub fn decode(bytes: &[u8]) -> Result<JobSpec, String> {
        let mut r = Reader::new(bytes);
        let version = r.u8()?;
        if version != SPEC_VERSION {
            return Err(format!(
                "unsupported job spec version {version} (this build reads only v{SPEC_VERSION}; resubmit the job)"
            ));
        }
        let count = r.count_u32(4)?;
        let mut args = Vec::with_capacity(count);
        for _ in 0..count {
            let arg = std::str::from_utf8(r.byte_run(Count::U32)?)
                .map_err(|e| format!("argument {} is not UTF-8: {e}", args.len()))?;
            args.push(arg.to_string());
        }
        r.finish()?;
        JobSpec::new(args)
    }
}

/// The v6 bytes of an argument list, whether or not it builds.
pub(crate) fn encode_args<S: AsRef<str>>(args: &[S]) -> Vec<u8> {
    let mut out = vec![SPEC_VERSION];
    out.extend_from_slice(&(args.len() as u32).to_le_bytes());
    for arg in args {
        put_bytes(&mut out, Count::U32, arg.as_ref().as_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedrlnas_codec::CodecConfig;
    use fedrlnas_netsim::Environment;

    fn sample() -> JobSpec {
        JobSpec::new([
            "--seed",
            "4277006349",
            "--scale",
            "tiny",
            "--dataset",
            "svhn",
            "--non-iid",
            "--participants",
            "6",
            "--codec",
            "auto",
            "--environments",
            "train,foot",
            "--rpc",
            "--population",
            "1000",
            "--cohort",
            "6",
        ])
        .expect("the sample builds")
    }

    #[test]
    fn spec_round_trips() {
        for spec in [sample(), JobSpec::tiny(42)] {
            let bytes = spec.encode();
            assert_eq!(JobSpec::decode(&bytes).expect("round trip"), spec);
        }
        assert_eq!(sample().seed, 0xFEED_F00D);
        assert_eq!(JobSpec::new(["--scale", "tiny"]).expect("builds").seed, 42);
        assert!(sample().uses_rpc() && !JobSpec::tiny(1).uses_rpc());
    }

    #[test]
    fn truncated_and_trailing_inputs_are_errors() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(JobSpec::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(JobSpec::decode(&long).is_err());
        // a value-taking flag that ends the list has no value to read
        let err = JobSpec::decode(&encode_args(&["--scale", "tiny", "--participants"]))
            .expect_err("trailing --participants");
        assert!(err.contains("--participants needs a value"), "{err}");
    }

    #[test]
    fn bad_codes_are_errors() {
        let mut bytes = encode_args(&["--scale", "tiny"]);
        *bytes.last_mut().expect("non-empty") = 0xFF; // not UTF-8
        let err = JobSpec::decode(&bytes).expect_err("invalid UTF-8");
        assert!(err.contains("not UTF-8"), "{err}");
        for (args, why) in [
            (&["--scale", "huge"][..], "unknown scale"),
            (
                &["--scale", "tiny", "--dataset", "mnist"],
                "unknown dataset",
            ),
            (
                &["--scale", "tiny", "--environments", "rocket"],
                "unknown environment",
            ),
            (&["--scale", "tiny", "--seed", "-1"], "bad seed"),
        ] {
            let err = JobSpec::decode(&encode_args(args)).expect_err(why);
            assert!(err.contains(why), "{args:?}: {err}");
        }
    }

    /// A hostile argument count is refused as a whole, at the count,
    /// before any argument is read or allocated.
    #[test]
    fn hostile_environment_count_fails_before_allocation() {
        let mut bytes = sample().encode();
        bytes[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = JobSpec::decode(&bytes).expect_err("the count outgrows the spec");
        let end = 5 + 4 * u32::MAX as usize;
        assert!(err.contains(&format!("needed {end} bytes")), "{err}");
    }

    #[test]
    fn every_version_but_the_current_one_is_refused() {
        let bytes = sample().encode();
        assert_eq!(bytes[0], SPEC_VERSION);
        for version in (0..=u8::MAX).filter(|v| *v != SPEC_VERSION) {
            let mut other = bytes.clone();
            other[0] = version;
            let err = JobSpec::decode(&other).expect_err("foreign version");
            assert!(err.contains("unsupported job spec version"), "{err}");
        }
        // `JobSpec::tiny(7)` as v5 wrote it: seed, then one code per field
        const V5: &str = "05070000000000000000000000000000000000000000";
        let v5: Vec<u8> = (0..V5.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&V5[i..i + 2], 16).expect("hex digit pair"))
            .collect();
        let err = JobSpec::decode(&v5).expect_err("v5 is not the current version");
        assert!(err.contains("unsupported job spec version 5"), "{err}");
    }

    #[test]
    fn a_repeated_flag_or_a_stray_word_is_refused_on_decode() {
        let err = JobSpec::decode(&encode_args(&[
            "--scale", "tiny", "--seed", "1", "--seed", "2",
        ]))
        .expect_err("--seed twice");
        assert!(err.contains("--seed given twice"), "{err}");
        let err = JobSpec::decode(&encode_args(&["--scale", "tiny", "tiny"]))
            .expect_err("a value with no flag");
        assert!(err.contains("unexpected argument tiny"), "{err}");
    }

    #[test]
    fn invalid_availability_is_rejected_on_decode() {
        let bytes = encode_args(&[
            "--scale",
            "tiny",
            "--population",
            "1000",
            "--availability",
            "base=7",
        ]);
        let err = JobSpec::decode(&bytes).expect_err("base out of range");
        assert!(err.contains("availability base 7 outside"), "{err}");
    }

    #[test]
    fn config_mirrors_cli_construction() {
        let spec = sample();
        let config = spec.build_config().expect("valid spec");
        assert_eq!(config.num_participants, 6);
        assert_eq!(config.dirichlet_beta, Some(0.5));
        assert_eq!(config.codec, CodecConfig::Auto);
        assert_eq!(
            config.environments.as_deref(),
            Some(&[Environment::Train, Environment::Foot][..])
        );
    }

    #[test]
    fn flags_outside_the_job_table_are_refused_by_name() {
        for flag in [
            "--aggregator",
            "--staleness",
            "--rpc-transport",
            "--fault-seed",
        ] {
            let err = JobSpec::new(["--scale", "tiny", flag, "x"]).expect_err(flag);
            assert_eq!(err, format!("unknown flag {flag}"));
        }
    }
}
