//! Search configuration (Table I defaults and proxy-scale presets).

use fedrlnas_codec::CodecConfig;
use fedrlnas_controller::ControllerConfig;
use fedrlnas_darts::SupernetConfig;
use fedrlnas_data::{AugmentConfig, DatasetSpec};
use fedrlnas_fed::AggregatorConfig;
use fedrlnas_netsim::{AssignmentStrategy, AvailabilitySpec, DeviceProfile, Environment};
use fedrlnas_nn::SgdConfig;
use fedrlnas_sync::{StalenessModel, StalenessStrategy};

/// Proxy scale selector: the CLI's and `run_all`'s `--scale` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test scale (seconds).
    Tiny,
    /// Default experiment scale (minutes).
    Small,
    /// Paper-shaped scale (hours on CPU).
    Paper,
}

impl Scale {
    /// Parses `tiny` / `small` / `paper`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// An enrolled client population from which each round's cohort is
/// sampled (the CLI's `--population N --cohort K --availability <spec>`).
///
/// The cohort size doubles as the participant count: each of the `K`
/// worker slots is bound to a freshly sampled client identity every round,
/// so a search configured with a population behaves exactly like a
/// `K`-participant search whose per-round participation is governed by the
/// deterministic availability model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationConfig {
    /// Number of enrolled clients.
    pub size: u64,
    /// Clients sampled per round (= `num_participants`).
    pub cohort: usize,
    /// Deterministic availability model parameters.
    pub availability: AvailabilitySpec,
}

/// Full configuration of a federated model search run.
///
/// Field defaults mirror Table I; the proxy presets scale down the network
/// and step counts while keeping every ratio that drives the paper's
/// comparisons (see DESIGN.md).
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Supernet structure.
    pub net: SupernetConfig,
    /// Controller (α) hyperparameters: lr 0.003, wd 1e-4, clip 5, baseline
    /// decay 0.99 (Table I).
    pub controller: ControllerConfig,
    /// θ optimizer: lr 0.025, momentum 0.9, wd 3e-4, clip 5 (Table I).
    pub theta_sgd: SgdConfig,
    /// Number of participants `K` (Table I: 10).
    pub num_participants: usize,
    /// Mini-batch size (Table I: 256; proxy presets shrink it).
    pub batch_size: usize,
    /// Warm-up steps (P1; Table I: 10000).
    pub warmup_steps: usize,
    /// Search steps (P2; Table I: 6000, CIFAR10 non-i.i.d. uses 10000).
    pub search_steps: usize,
    /// Dirichlet concentration for the non-i.i.d. partition; `None` = i.i.d.
    pub dirichlet_beta: Option<f64>,
    /// Participant-side augmentation.
    pub augment: AugmentConfig,
    /// Update-delay process.
    pub staleness: StalenessModel,
    /// How stale updates are treated.
    pub strategy: StalenessStrategy,
    /// Staleness threshold Δ beyond which updates are discarded and memory
    /// evicted.
    pub staleness_threshold: usize,
    /// Sub-model-to-participant assignment (§IV adaptive transmission).
    pub assignment: AssignmentStrategy,
    /// Freeze θ and update α alone (the failure mode shown in Fig. 5).
    pub freeze_theta: bool,
    /// Share weights through the supernet (disable for the ablation that
    /// re-initializes sub-model weights every round).
    pub weight_sharing: bool,
    /// Participant device class for simulated-time accounting (Table V).
    pub device: DeviceProfile,
    /// How participant updates are merged into θ each round. The default
    /// weighted mean is byte-identical to the pre-robustness aggregate
    /// loop; median/trimmed/Krum tolerate Byzantine participants at the
    /// cost of exact FedAvg weighting (see DESIGN.md "Threat model").
    pub aggregator: AggregatorConfig,
    /// Reject any update whose L2 norm exceeds this bound before it
    /// reaches aggregation (`None` = no bound). Complements `aggregator`:
    /// the gate drops provably bad updates, the aggregator defends against
    /// plausible-looking ones.
    pub update_norm_bound: Option<f32>,
    /// Update-compression codec for participant uploads. `Fixed(Fp32)`
    /// (the default) is byte-identical to the uncompressed implementation;
    /// `Auto` picks each participant's codec per round from its sampled
    /// bandwidth, a pure function of the seeded traces. Lossy codecs keep
    /// a per-participant error-feedback residual that is checkpointed.
    pub codec: CodecConfig,
    /// Per-participant network environments, cycled by participant id.
    /// `None` keeps the historical fixed rotation over
    /// [`Environment::ALL`]. A multi-tenant service pins a profile per job
    /// so bandwidth-aware codec selection reads that job's own traces
    /// instead of one process-wide rotation shared by every search.
    pub environments: Option<Vec<Environment>>,
    /// Enrolled population to sample per-round cohorts from. `None` (the
    /// default) keeps the historical fixed participant set.
    pub population: Option<PopulationConfig>,
}

impl SearchConfig {
    /// Smoke-test configuration: tiny supernet, 4 participants, a handful
    /// of steps.
    pub fn tiny() -> Self {
        SearchConfig {
            net: SupernetConfig::tiny(),
            controller: ControllerConfig {
                // smoke runs last tens of steps, not thousands; scale the
                // controller lr so policy movement is observable
                lr: 0.08,
                ..ControllerConfig::default()
            },
            theta_sgd: SgdConfig::default(),
            num_participants: 4,
            batch_size: 8,
            warmup_steps: 5,
            search_steps: 10,
            dirichlet_beta: None,
            augment: AugmentConfig::none(),
            staleness: StalenessModel::fresh(),
            strategy: StalenessStrategy::Hard,
            staleness_threshold: 2,
            assignment: AssignmentStrategy::Adaptive,
            freeze_theta: false,
            weight_sharing: true,
            device: DeviceProfile::gtx_1080ti(),
            aggregator: AggregatorConfig::default(),
            update_norm_bound: None,
            codec: CodecConfig::default(),
            environments: None,
            population: None,
        }
    }

    /// Default experiment configuration (the `--scale small` preset):
    /// Table I ratios at proxy size — K = 10 participants, Dir(0.5)
    /// available via [`SearchConfig::non_iid`].
    pub fn small() -> Self {
        SearchConfig {
            net: SupernetConfig::small(),
            controller: ControllerConfig {
                // proxy runs take ~100x fewer steps than the paper's 6000,
                // so the controller lr scales up to keep total policy
                // movement comparable
                lr: 0.05,
                ..ControllerConfig::default()
            },
            theta_sgd: SgdConfig {
                // the per-op gradient is diluted by the 1/M average (each
                // op is sampled by few participants per round) and proxy
                // runs are ~50x shorter than the paper's; compensate with a
                // larger step
                lr: 0.1,
                ..SgdConfig::default()
            },
            num_participants: 10,
            batch_size: 16,
            warmup_steps: 30,
            search_steps: 120,
            dirichlet_beta: None,
            augment: AugmentConfig::scaled_to(SupernetConfig::small().image_hw),
            staleness: StalenessModel::fresh(),
            strategy: StalenessStrategy::Hard,
            staleness_threshold: 2,
            assignment: AssignmentStrategy::Adaptive,
            freeze_theta: false,
            weight_sharing: true,
            device: DeviceProfile::gtx_1080ti(),
            aggregator: AggregatorConfig::default(),
            update_norm_bound: None,
            codec: CodecConfig::default(),
            environments: None,
            population: None,
        }
    }

    /// Paper-shaped configuration — Table I verbatim (batch 256, K = 10,
    /// 10000 warm-up steps, 6000 search steps, full augmentation). Hours
    /// of CPU time; used only under `--scale paper`.
    pub fn paper() -> Self {
        SearchConfig {
            net: SupernetConfig::paper(),
            controller: ControllerConfig::default(),
            theta_sgd: SgdConfig::default(),
            num_participants: 10,
            batch_size: 256,
            warmup_steps: 10_000,
            search_steps: 6_000,
            dirichlet_beta: None,
            augment: AugmentConfig::paper(),
            staleness: StalenessModel::fresh(),
            strategy: StalenessStrategy::Hard,
            staleness_threshold: 2,
            assignment: AssignmentStrategy::Adaptive,
            freeze_theta: false,
            weight_sharing: true,
            device: DeviceProfile::gtx_1080ti(),
            aggregator: AggregatorConfig::default(),
            update_norm_bound: None,
            codec: CodecConfig::default(),
            environments: None,
            population: None,
        }
    }

    /// Preset by scale.
    pub fn at_scale(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => SearchConfig::tiny(),
            Scale::Small => SearchConfig::small(),
            Scale::Paper => SearchConfig::paper(),
        }
    }

    /// Builder-style: switch to the non-i.i.d. `Dir(0.5)` partition and
    /// (per §VI-A) lengthen the search, which converges slower on
    /// non-i.i.d. data.
    pub fn non_iid(mut self) -> Self {
        self.dirichlet_beta = Some(0.5);
        self.search_steps = self.search_steps + self.search_steps * 2 / 3;
        self
    }

    /// Builder-style: set the participant count.
    pub fn with_participants(mut self, k: usize) -> Self {
        self.num_participants = k;
        self
    }

    /// Builder-style: inject a staleness scenario.
    pub fn with_staleness(mut self, model: StalenessModel, strategy: StalenessStrategy) -> Self {
        self.staleness = model;
        self.strategy = strategy;
        self
    }

    /// Builder-style: select the round-aggregation rule.
    pub fn with_aggregator(mut self, aggregator: AggregatorConfig) -> Self {
        self.aggregator = aggregator;
        self
    }

    /// Builder-style: reject updates above an L2 norm bound.
    pub fn with_update_norm_bound(mut self, bound: f32) -> Self {
        self.update_norm_bound = Some(bound);
        self
    }

    /// Builder-style: select the update-compression codec.
    pub fn with_codec(mut self, codec: CodecConfig) -> Self {
        self.codec = codec;
        self
    }

    /// Builder-style: pin the participant network environments (cycled by
    /// participant id). The default `None` keeps the historical rotation
    /// over [`Environment::ALL`].
    pub fn with_environments(mut self, environments: Vec<Environment>) -> Self {
        self.environments = Some(environments);
        self
    }

    /// Builder-style: sample each round's participants from an enrolled
    /// population. The cohort size becomes the participant count, so the
    /// worker fleet is sized to the cohort, not the population.
    pub fn with_population(mut self, population: PopulationConfig) -> Self {
        self.num_participants = population.cohort;
        self.population = Some(population);
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        self.net.validate()?;
        if self.num_participants == 0 {
            return Err("need at least one participant".into());
        }
        if self.batch_size == 0 {
            return Err("batch size must be positive".into());
        }
        if self.staleness.max_delay() > self.staleness_threshold {
            return Err(format!(
                "staleness model reaches delay {} beyond threshold {}",
                self.staleness.max_delay(),
                self.staleness_threshold
            ));
        }
        self.aggregator.validate()?;
        self.codec.validate()?;
        if let Some(bound) = self.update_norm_bound {
            if !(bound.is_finite() && bound > 0.0) {
                return Err(format!(
                    "update norm bound must be finite and positive, got {bound}"
                ));
            }
        }
        if matches!(&self.environments, Some(envs) if envs.is_empty()) {
            return Err("environment profile must name at least one environment".into());
        }
        if let Some(p) = &self.population {
            if p.cohort == 0 {
                return Err("cohort must sample at least one client".into());
            }
            if p.cohort as u64 > p.size {
                return Err(format!(
                    "cohort {} exceeds the enrolled population {}",
                    p.cohort, p.size
                ));
            }
            if p.cohort != self.num_participants {
                return Err(format!(
                    "cohort {} must equal the participant count {}",
                    p.cohort, self.num_participants
                ));
            }
            p.availability.validate()?;
        }
        Ok(())
    }

    /// Checks that a dataset generated from `spec` can feed this search:
    /// its images and classes fit the supernet, and it holds at least one
    /// training sample per participant, so no shard is empty.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first misfit.
    pub fn check_dataset(&self, spec: &DatasetSpec) -> Result<(), String> {
        if spec.image_hw != self.net.image_hw {
            return Err(format!(
                "dataset images are {0}x{0}, the supernet takes {1}x{1}",
                spec.image_hw, self.net.image_hw
            ));
        }
        if spec.num_classes != self.net.num_classes {
            return Err(format!(
                "dataset has {} classes, the classifier {}",
                spec.num_classes, self.net.num_classes
            ));
        }
        if self.num_participants > spec.train_len() {
            return Err(format!(
                "{} participants need a training sample each, the dataset holds {}",
                self.num_participants,
                spec.train_len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert!(SearchConfig::tiny().validate().is_ok());
        assert!(SearchConfig::small().validate().is_ok());
        assert!(SearchConfig::paper().validate().is_ok());
    }

    #[test]
    fn paper_preset_matches_table1() {
        let c = SearchConfig::paper();
        assert_eq!(c.batch_size, 256);
        assert_eq!(c.num_participants, 10);
        assert_eq!(c.warmup_steps, 10_000);
        assert_eq!(c.search_steps, 6_000);
        assert!((c.theta_sgd.lr - 0.025).abs() < 1e-9);
        assert!((c.theta_sgd.momentum - 0.9).abs() < 1e-9);
        assert!((c.theta_sgd.weight_decay - 3e-4).abs() < 1e-9);
        assert!((c.controller.lr - 0.003).abs() < 1e-9);
        assert!((c.controller.weight_decay - 1e-4).abs() < 1e-9);
        assert!((c.controller.baseline_decay - 0.99).abs() < 1e-9);
        assert_eq!(c.augment.crop_padding, 4);
        assert_eq!(c.augment.cutout, 16);
    }

    #[test]
    fn non_iid_lengthens_search() {
        let base = SearchConfig::small();
        let non = base.clone().non_iid();
        assert!(non.search_steps > base.search_steps);
        assert_eq!(non.dirichlet_beta, Some(0.5));
    }

    #[test]
    fn validation_catches_bad_staleness_threshold() {
        let mut c = SearchConfig::tiny();
        c.staleness = fedrlnas_sync::StalenessModel::severe();
        c.staleness_threshold = 1;
        assert!(c.validate().is_err());
        c.staleness_threshold = 2;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_robustness_settings() {
        let mut c = SearchConfig::tiny();
        c.aggregator = AggregatorConfig {
            kind: fedrlnas_fed::AggregatorKind::Krum { m: 0 },
            clip: None,
        };
        assert!(c.validate().is_err());
        let mut c = SearchConfig::tiny();
        c.update_norm_bound = Some(-2.0);
        assert!(c.validate().is_err());
        c.update_norm_bound = Some(5.0);
        assert!(c.validate().is_ok());
        let robust = SearchConfig::tiny()
            .with_aggregator(AggregatorConfig::parse("clip:1+median").unwrap())
            .with_update_norm_bound(10.0);
        assert!(robust.validate().is_ok());
    }

    #[test]
    fn environment_profile_validates() {
        let pinned = SearchConfig::tiny().with_environments(vec![Environment::Train]);
        assert!(pinned.validate().is_ok());
        let mut empty = SearchConfig::tiny();
        empty.environments = Some(Vec::new());
        assert!(empty.validate().is_err());
    }

    #[test]
    fn population_config_validates() {
        let pop = PopulationConfig {
            size: 100_000,
            cohort: 64,
            availability: AvailabilitySpec::default(),
        };
        let c = SearchConfig::tiny().with_population(pop);
        assert_eq!(c.num_participants, 64, "cohort sizes the worker fleet");
        assert!(c.validate().is_ok());
        // cohort larger than the population
        let mut bad = SearchConfig::tiny().with_population(PopulationConfig {
            size: 10,
            cohort: 64,
            ..pop
        });
        assert!(bad.validate().is_err());
        // participant count drifting away from the cohort
        bad = SearchConfig::tiny().with_population(pop);
        bad.num_participants = 8;
        assert!(bad.validate().is_err());
        // inconsistent availability spec
        bad = SearchConfig::tiny().with_population(pop);
        bad.population.as_mut().unwrap().availability.base = 2.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }
}
