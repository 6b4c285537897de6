//! Job specifications: everything needed to (re)build a search
//! deterministically, with a compact self-describing binary encoding that
//! travels in [`SubmitJob`](fedrlnas_rpc::wire::Message::SubmitJob) frames
//! and is persisted verbatim in the job store, so a recovered job is
//! reconstructed from exactly the bytes the client submitted.

use fedrlnas_codec::{CodecConfig, CodecSpec};
use fedrlnas_core::record::Reader;
use fedrlnas_core::{PopulationConfig, Scale, SearchConfig};
use fedrlnas_data::{DatasetSpec, SyntheticDataset};
use fedrlnas_fed::ShardTopology;
use fedrlnas_netsim::{AvailabilitySpec, Environment};
use rand::{rngs::StdRng, SeedableRng};

/// Current spec encoding version: v3 without its round-engine byte (there
/// is one engine). Like checkpoints, only the current version decodes —
/// nothing writes the older layouts and no deployed peer holds one.
const SPEC_VERSION: u8 = 4;

/// Which synthetic dataset family the job trains on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// CIFAR10-like statistics (the default).
    Cifar10,
    /// SVHN-like statistics.
    Svhn,
}

impl DatasetKind {
    fn code(self) -> u8 {
        match self {
            DatasetKind::Cifar10 => 0,
            DatasetKind::Svhn => 1,
        }
    }

    fn from_code(code: u8) -> Option<DatasetKind> {
        match code {
            0 => Some(DatasetKind::Cifar10),
            1 => Some(DatasetKind::Svhn),
            _ => None,
        }
    }
}

/// How the job's rounds execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// In-process rounds on the scheduler thread (the default). Because a
    /// fault-free RPC run is bit-identical to an in-process one, results
    /// match a `--rpc` single run too.
    InProcess,
    /// A dedicated in-memory RPC engine per job: its own worker pool,
    /// private reply caches and error-feedback residual namespace — jobs
    /// never share engine state.
    RpcMem,
}

impl BackendKind {
    fn code(self) -> u8 {
        match self {
            BackendKind::InProcess => 0,
            BackendKind::RpcMem => 1,
        }
    }

    fn from_code(code: u8) -> Option<BackendKind> {
        match code {
            0 => Some(BackendKind::InProcess),
            1 => Some(BackendKind::RpcMem),
            _ => None,
        }
    }
}

/// A complete, deterministic description of one search job. Two jobs built
/// from equal specs produce bit-identical genotypes, curves and traffic,
/// no matter how their rounds interleave with other tenants'.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Search RNG seed; the dataset derives its own stream from
    /// `seed ^ 0xDA7A`, exactly like the CLI's single-run mode.
    pub seed: u64,
    /// Proxy scale preset.
    pub scale: Scale,
    /// Synthetic dataset family.
    pub dataset: DatasetKind,
    /// Use the Dir(0.5) non-i.i.d. partition.
    pub non_iid: bool,
    /// Participant count override (`None` keeps the preset's K).
    pub participants: Option<u32>,
    /// Update-compression codec.
    pub codec: CodecConfig,
    /// Per-job network trace profile, cycled by participant id. `None`
    /// keeps the default rotation over every environment.
    pub environments: Option<Vec<Environment>>,
    /// Round execution backend.
    pub backend: BackendKind,
    /// Population churn: enroll a simulated fleet and sample a fresh
    /// cohort every round under a deterministic availability model.
    /// `None` keeps the fixed historical fleet.
    pub population: Option<PopulationConfig>,
    /// Two-tier aggregation topology.
    pub topology: ShardTopology,
}

impl JobSpec {
    /// A spec mirroring `fedrlnas search --scale tiny --seed <seed>`.
    pub fn tiny(seed: u64) -> JobSpec {
        JobSpec {
            seed,
            scale: Scale::Tiny,
            dataset: DatasetKind::Cifar10,
            non_iid: false,
            participants: None,
            codec: CodecConfig::default(),
            environments: None,
            backend: BackendKind::InProcess,
            population: None,
            topology: ShardTopology::flat(),
        }
    }

    /// Builds the [`SearchConfig`] this spec describes, mirroring the
    /// CLI's flag handling order so a job is bit-identical to the
    /// corresponding single run.
    ///
    /// # Errors
    ///
    /// The [`SearchConfig::validate`] message for inconsistent specs.
    pub fn build_config(&self) -> Result<SearchConfig, String> {
        let mut config = SearchConfig::at_scale(self.scale);
        if self.non_iid {
            config = config.non_iid();
        }
        if let Some(k) = self.participants {
            config = config.with_participants(k as usize);
        }
        config = config.with_codec(self.codec);
        if let Some(envs) = &self.environments {
            config = config.with_environments(envs.clone());
        }
        if let Some(population) = self.population {
            config = config.with_population(population);
        }
        config = config.with_topology(self.topology);
        config.validate()?;
        Ok(config)
    }

    /// Generates the job's dataset — same spec, image extent and seed
    /// derivation as the CLI (`seed ^ 0xDA7A`).
    pub fn build_dataset(&self, config: &SearchConfig) -> SyntheticDataset {
        let spec = match self.dataset {
            DatasetKind::Cifar10 => DatasetSpec::cifar10_like(),
            DatasetKind::Svhn => DatasetSpec::svhn_like(),
        }
        .with_image_hw(config.net.image_hw);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xDA7A);
        SyntheticDataset::generate(&spec, &mut rng)
    }

    /// Serializes to the versioned binary layout carried by
    /// [`SubmitJob`](fedrlnas_rpc::wire::Message::SubmitJob) frames and
    /// stored in manifest and segment files.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        out.push(SPEC_VERSION);
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.push(match self.scale {
            Scale::Tiny => 0,
            Scale::Small => 1,
            Scale::Paper => 2,
        });
        out.push(self.dataset.code());
        out.push(self.non_iid as u8);
        match self.participants {
            Some(k) => {
                out.push(1);
                out.extend_from_slice(&k.to_le_bytes());
            }
            None => out.push(0),
        }
        match self.codec {
            CodecConfig::Auto => {
                out.push(1);
                out.push(0);
                out.extend_from_slice(&0f32.to_le_bytes());
            }
            CodecConfig::Fixed(spec) => {
                out.push(0);
                out.push(spec.tag());
                out.extend_from_slice(&spec.param().to_le_bytes());
            }
        }
        match &self.environments {
            Some(envs) => {
                out.push(1);
                out.extend_from_slice(&(envs.len() as u32).to_le_bytes());
                for env in envs {
                    let idx = Environment::ALL
                        .iter()
                        .position(|e| e == env)
                        .expect("every environment is in ALL");
                    out.push(idx as u8);
                }
            }
            None => out.push(0),
        }
        out.push(self.backend.code());
        match &self.population {
            Some(p) => {
                out.push(1);
                out.extend_from_slice(&p.size.to_le_bytes());
                out.extend_from_slice(&(p.cohort as u32).to_le_bytes());
                out.extend_from_slice(&p.availability.seed.to_le_bytes());
                out.extend_from_slice(&p.availability.base.to_le_bytes());
                out.extend_from_slice(&p.availability.amplitude.to_le_bytes());
                out.extend_from_slice(&p.availability.period.to_le_bytes());
                out.extend_from_slice(&p.availability.dropout_every.to_le_bytes());
                out.extend_from_slice(&p.availability.dropout_len.to_le_bytes());
                out.extend_from_slice(&p.availability.churn.to_le_bytes());
                out.extend_from_slice(&p.availability.flap.to_le_bytes());
            }
            None => out.push(0),
        }
        out.extend_from_slice(&(self.topology.shards as u32).to_le_bytes());
        out
    }

    /// Decodes a spec previously produced by [`JobSpec::encode`], through
    /// [`fedrlnas_core::record`], the bounded field layer the wire frame,
    /// the checkpoint and the job store share. Total: every malformed
    /// input maps to an error message, never a panic, and no allocation is
    /// sized from an unvalidated length.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed field.
    pub fn decode(bytes: &[u8]) -> Result<JobSpec, String> {
        let mut r = Reader::new(bytes);
        let version = r.u8()?;
        if version != SPEC_VERSION {
            return Err(format!(
                "unsupported job spec version {version} (this build reads only v{SPEC_VERSION}; resubmit the job)"
            ));
        }
        let seed = r.u64()?;
        let scale = match r.u8()? {
            0 => Scale::Tiny,
            1 => Scale::Small,
            2 => Scale::Paper,
            other => return Err(format!("unknown scale code {other}")),
        };
        let dataset = DatasetKind::from_code(r.u8()?).ok_or("unknown dataset code")?;
        let non_iid = match r.u8()? {
            0 => false,
            1 => true,
            other => return Err(format!("bad non_iid flag {other}")),
        };
        let participants = match r.u8()? {
            0 => None,
            1 => Some(r.u32()?),
            other => return Err(format!("bad participants marker {other}")),
        };
        let codec = match (r.u8()?, r.u8()?, r.f32()?) {
            (1, _, _) => CodecConfig::Auto,
            (0, tag, param) => CodecConfig::Fixed(
                CodecSpec::from_tag_param(tag, param)
                    .ok_or_else(|| format!("bad codec tag {tag}"))?,
            ),
            (other, _, _) => return Err(format!("bad codec marker {other}")),
        };
        let environments = match r.u8()? {
            0 => None,
            1 => {
                let count = r.count_u32(1)?;
                let mut envs = Vec::with_capacity(count);
                for _ in 0..count {
                    let idx = r.u8()? as usize;
                    envs.push(
                        Environment::ALL
                            .get(idx)
                            .copied()
                            .ok_or_else(|| format!("bad environment index {idx}"))?,
                    );
                }
                Some(envs)
            }
            other => return Err(format!("bad environments marker {other}")),
        };
        let backend = BackendKind::from_code(r.u8()?).ok_or("unknown backend code")?;
        let population = match r.u8()? {
            0 => None,
            1 => {
                let size = r.u64()?;
                let cohort = r.u32()? as usize;
                let availability = AvailabilitySpec {
                    seed: r.u64()?,
                    base: r.f64()?,
                    amplitude: r.f64()?,
                    period: r.u64()?,
                    dropout_every: r.u64()?,
                    dropout_len: r.u64()?,
                    churn: r.f64()?,
                    flap: r.f64()?,
                };
                availability
                    .validate()
                    .map_err(|e| format!("bad availability spec: {e}"))?;
                Some(PopulationConfig {
                    size,
                    cohort,
                    availability,
                })
            }
            other => return Err(format!("bad population marker {other}")),
        };
        let topology = ShardTopology {
            shards: r.u32()? as usize,
        };
        topology
            .validate()
            .map_err(|e| format!("bad shard topology: {e}"))?;
        r.finish()?;
        Ok(JobSpec {
            seed,
            scale,
            dataset,
            non_iid,
            participants,
            codec,
            environments,
            backend,
            population,
            topology,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobSpec {
        JobSpec {
            seed: 0xFEED_F00D,
            scale: Scale::Tiny,
            dataset: DatasetKind::Svhn,
            non_iid: true,
            participants: Some(6),
            codec: CodecConfig::Auto,
            environments: Some(vec![Environment::Train, Environment::Foot]),
            backend: BackendKind::RpcMem,
            population: Some(PopulationConfig {
                size: 1_000,
                cohort: 6,
                availability: AvailabilitySpec::default(),
            }),
            topology: ShardTopology::sharded(2),
        }
    }

    #[test]
    fn spec_round_trips() {
        for spec in [sample(), JobSpec::tiny(42)] {
            let bytes = spec.encode();
            assert_eq!(JobSpec::decode(&bytes).expect("round trip"), spec);
        }
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
    }

    /// Bodies end with `[shards u32]`, preceded by the population marker
    /// when no population block is present.
    const TAIL: usize = 4;

    #[test]
    fn bad_codes_are_errors() {
        let mut bytes = sample().encode();
        bytes[9] = 9; // scale code
        assert!(JobSpec::decode(&bytes).is_err());
        let mut bytes = sample().encode();
        bytes[11] = 2; // non-iid flag: only 0 and 1 are canonical
        assert!(JobSpec::decode(&bytes).is_err());
        let fixed = JobSpec {
            population: None,
            ..sample()
        };
        let mut bytes = fixed.encode();
        let backend_at = bytes.len() - 2 - TAIL; // backend code precedes the population marker
        bytes[backend_at] = 7;
        assert!(JobSpec::decode(&bytes).is_err());
        let mut bytes = fixed.encode();
        let marker_at = bytes.len() - 1 - TAIL; // population marker
        bytes[marker_at] = 9;
        assert!(JobSpec::decode(&bytes).is_err());
        let mut bytes = fixed.encode();
        let shards_at = bytes.len() - TAIL; // shard count; zero is invalid
        bytes[shards_at..].copy_from_slice(&0u32.to_le_bytes());
        assert!(JobSpec::decode(&bytes).is_err());
    }

    /// A hostile environment count is refused as a whole, at the count,
    /// before any environment is read or allocated.
    #[test]
    fn hostile_environment_count_fails_before_allocation() {
        let mut bytes = sample().encode();
        let count_at = 24; // after the environments marker
        assert_eq!(bytes[count_at - 1], 1, "environments marker");
        bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = JobSpec::decode(&bytes).expect_err("the count outgrows the spec");
        let end = count_at + 4 + u32::MAX as usize;
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
    }

    #[test]
    fn invalid_availability_is_rejected_on_decode() {
        let mut spec = sample();
        spec.population
            .as_mut()
            .expect("sample has one")
            .availability
            .base = 7.0;
        let bytes = spec.encode();
        let err = JobSpec::decode(&bytes).expect_err("base out of range");
        assert!(err.contains("bad availability spec"), "{err}");
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
        assert_eq!(config.topology, ShardTopology::sharded(2));
    }
}
