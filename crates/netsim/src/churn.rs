//! Population-scale availability and per-round cohort sampling.
//!
//! The paper's evaluation fixes a small static participant set; the real
//! cross-device regime enrolls 10^5–10^6 clients of which only a fraction
//! is reachable at any moment, and the server samples a cohort from the
//! available ones each round. This module provides that fleet as a pure
//! function: every per-round availability decision is a deterministic hash
//! of `(seed, client_id, round)`, so two independently constructed models
//! with the same [`AvailabilitySpec`] agree on every client's schedule and
//! a resumed run replays the exact fleet it was killed under.
//!
//! Three independent hash streams compose the schedule:
//!
//! * **diurnal** — a sinusoidal availability probability phased by the
//!   client's timezone bucket (night-time clients mostly disappear);
//! * **correlated dropout** — a seeded fault window that takes out one
//!   whole `(timezone, device-class)` slice at once (a regional outage);
//! * **churn** — device-class-scaled join/leave epochs (cheap devices
//!   unenroll and re-enroll more often than workstations).
//!
//! Because the streams are independent, disabling one (e.g. dropout) does
//! not perturb the draws of the others — a property the proptests pin down.

use std::fmt;

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::trace::Environment;

/// Number of simulated device classes (workstation / desktop / embedded).
pub const NUM_DEVICE_CLASSES: u8 = 3;

/// Number of timezone buckets a client can fall into.
pub const NUM_TIMEZONES: u8 = 24;

/// Rounds per churn epoch: a client that churns out is gone for this many
/// consecutive rounds before it may re-enroll.
const CHURN_EPOCH_ROUNDS: u64 = 8;

/// Per-device-class churn multipliers: embedded devices (class 2) flake
/// three times as often as workstations (class 0).
const CLASS_CHURN_SCALE: [f64; NUM_DEVICE_CLASSES as usize] = [0.5, 1.0, 1.5];

// Independent hash stream tags. Each availability component hashes its own
// tag so one component's parameters can change without shifting another's
// draws (see the dropout proptest, which compares against a model with the
// dropout stream disabled).
const STREAM_TRAITS: u64 = 1;
const STREAM_DIURNAL: u64 = 2;
const STREAM_DROPOUT: u64 = 3;
const STREAM_CHURN: u64 = 4;
const STREAM_FLAP: u64 = 5;

/// SplitMix64 finalizer — the same avalanche the RPC fault plans use, so
/// nearby `(client, round)` pairs decorrelate fully.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Maps a hash to a uniform draw in `[0, 1)` (53 mantissa bits).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Parameters of the deterministic availability model.
///
/// The spec travels through `SearchConfig`, the job spec and checkpoint
/// v5, and parses from the CLI's `--availability` string, e.g.
/// `base=0.7,amp=0.2,period=24,dropout=96x4,churn=0.02,flap=0.1,seed=7`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvailabilitySpec {
    /// Seed of every availability hash stream (independent of the search
    /// seed, so the same fleet can be replayed under different searches).
    pub seed: u64,
    /// Mean diurnal availability probability.
    pub base: f64,
    /// Diurnal swing: availability oscillates in `base ± amplitude`.
    pub amplitude: f64,
    /// Rounds per diurnal cycle.
    pub period: u64,
    /// A correlated dropout window opens every this many rounds
    /// (`0` disables correlated dropouts).
    pub dropout_every: u64,
    /// Length of each dropout window in rounds.
    pub dropout_len: u64,
    /// Per-epoch join/leave probability, scaled per device class.
    pub churn: f64,
    /// Probability that a sampled, available client flaps mid-round
    /// (accepts the round then goes dark before reporting).
    pub flap: f64,
}

impl Default for AvailabilitySpec {
    fn default() -> Self {
        AvailabilitySpec {
            seed: 0,
            base: 0.65,
            amplitude: 0.25,
            period: 24,
            dropout_every: 0,
            dropout_len: 0,
            churn: 0.05,
            flap: 0.0,
        }
    }
}

impl AvailabilitySpec {
    /// Parses a comma-separated `key=value` spec string. Unset keys keep
    /// their [`Default`] value; `dropout` takes `EVERYxLEN` (or `0` to
    /// disable).
    ///
    /// # Errors
    ///
    /// A description of the first unknown key or malformed value.
    pub fn parse(s: &str) -> Result<AvailabilitySpec, String> {
        let mut spec = AvailabilitySpec::default();
        for part in s.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("availability: expected key=value, got '{part}'"))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |what: &str| format!("availability: bad {what} '{value}'");
            match key {
                "seed" => spec.seed = value.parse().map_err(|_| bad("seed"))?,
                "base" => spec.base = value.parse().map_err(|_| bad("base"))?,
                "amp" => spec.amplitude = value.parse().map_err(|_| bad("amp"))?,
                "period" => spec.period = value.parse().map_err(|_| bad("period"))?,
                "dropout" => match value.split_once('x') {
                    Some((every, len)) => {
                        spec.dropout_every = every.parse().map_err(|_| bad("dropout"))?;
                        spec.dropout_len = len.parse().map_err(|_| bad("dropout"))?;
                    }
                    None if value == "0" => {
                        spec.dropout_every = 0;
                        spec.dropout_len = 0;
                    }
                    None => return Err(bad("dropout (want EVERYxLEN or 0)")),
                },
                "churn" => spec.churn = value.parse().map_err(|_| bad("churn"))?,
                "flap" => spec.flap = value.parse().map_err(|_| bad("flap"))?,
                other => return Err(format!("availability: unknown key '{other}'")),
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Checks every field for consistency.
    ///
    /// # Errors
    ///
    /// A description of the first inconsistent field.
    pub fn validate(&self) -> Result<(), String> {
        if !self.base.is_finite() || !(0.0..=1.0).contains(&self.base) {
            return Err(format!("availability base {} outside [0, 1]", self.base));
        }
        if !self.amplitude.is_finite() || !(0.0..=1.0).contains(&self.amplitude) {
            return Err(format!(
                "availability amplitude {} outside [0, 1]",
                self.amplitude
            ));
        }
        if self.period == 0 {
            return Err("availability period must be at least 1 round".into());
        }
        if self.dropout_every > 0 && self.dropout_len > self.dropout_every {
            return Err(format!(
                "dropout length {} exceeds its {}-round cadence",
                self.dropout_len, self.dropout_every
            ));
        }
        if !self.churn.is_finite() || !(0.0..=1.0).contains(&self.churn) {
            return Err(format!("churn rate {} outside [0, 1]", self.churn));
        }
        if !self.flap.is_finite() || !(0.0..=1.0).contains(&self.flap) {
            return Err(format!("flap rate {} outside [0, 1]", self.flap));
        }
        Ok(())
    }
}

impl fmt::Display for AvailabilitySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={},base={},amp={},period={},dropout={}x{},churn={},flap={}",
            self.seed,
            self.base,
            self.amplitude,
            self.period,
            self.dropout_every,
            self.dropout_len,
            self.churn,
            self.flap
        )
    }
}

/// Static per-client traits, derived purely from `(seed, client_id)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientTraits {
    /// Timezone bucket in `0..NUM_TIMEZONES`; phases the diurnal cycle.
    pub timezone: u8,
    /// Device class in `0..NUM_DEVICE_CLASSES`; scales the churn rate.
    pub device_class: u8,
    /// Bandwidth environment the client would report from.
    pub environment: Environment,
}

/// An enrolled population whose per-round availability is a pure function
/// of `(spec.seed, client_id, round)` — no state, no allocation; two
/// instances with equal specs agree on every schedule bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Population {
    size: u64,
    spec: AvailabilitySpec,
}

impl Population {
    /// An enrolled population of `size` clients governed by `spec`.
    pub fn new(size: u64, spec: AvailabilitySpec) -> Population {
        Population { size, spec }
    }

    /// Number of enrolled clients.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The spec this population was built from.
    pub fn spec(&self) -> &AvailabilitySpec {
        &self.spec
    }

    fn h(&self, stream: u64, a: u64, b: u64) -> u64 {
        mix(self.spec.seed ^ mix(stream ^ mix(a ^ mix(b))))
    }

    /// Static traits of one client.
    pub fn traits(&self, client: u64) -> ClientTraits {
        let timezone = (self.h(STREAM_TRAITS, client, 0) % NUM_TIMEZONES as u64) as u8;
        let device_class = (self.h(STREAM_TRAITS, client, 1) % NUM_DEVICE_CLASSES as u64) as u8;
        let env_idx = self.h(STREAM_TRAITS, client, 2) as usize % Environment::ALL.len();
        ClientTraits {
            timezone,
            device_class,
            environment: Environment::ALL[env_idx],
        }
    }

    /// Whether the client is enrolled this churn epoch (join/leave).
    fn enrolled(&self, client: u64, round: u64, class: u8) -> bool {
        let rate = (self.spec.churn * CLASS_CHURN_SCALE[class as usize]).min(1.0);
        let epoch = round / CHURN_EPOCH_ROUNDS;
        unit(self.h(STREAM_CHURN, client, epoch)) >= rate
    }

    /// The `(timezone, device_class)` slice a correlated dropout takes out
    /// at `round`, if a dropout window is open.
    pub fn dropout_slice(&self, round: u64) -> Option<(u8, u8)> {
        if self.spec.dropout_every == 0 || round % self.spec.dropout_every >= self.spec.dropout_len
        {
            return None;
        }
        let window = round / self.spec.dropout_every;
        let timezone = (self.h(STREAM_DROPOUT, window, 0) % NUM_TIMEZONES as u64) as u8;
        let class = (self.h(STREAM_DROPOUT, window, 1) % NUM_DEVICE_CLASSES as u64) as u8;
        Some((timezone, class))
    }

    /// Diurnal draw: availability probability `base + amp·sin(2π·phase)`
    /// where the phase is offset by the client's timezone bucket.
    fn diurnal_up(&self, client: u64, round: u64, timezone: u8) -> bool {
        let phase = (round % self.spec.period) as f64 / self.spec.period as f64
            + timezone as f64 / NUM_TIMEZONES as f64;
        let p = self.spec.base + self.spec.amplitude * (phase * std::f64::consts::TAU).sin();
        unit(self.h(STREAM_DIURNAL, client, round)) < p.clamp(0.0, 1.0)
    }

    /// Whether `client` is reachable at `round` — pure in
    /// `(spec.seed, client, round)`.
    pub fn is_available(&self, client: u64, round: u64) -> bool {
        let traits = self.traits(client);
        if !self.enrolled(client, round, traits.device_class) {
            return false;
        }
        if let Some((tz, class)) = self.dropout_slice(round) {
            if traits.timezone == tz && traits.device_class == class {
                return false;
            }
        }
        self.diurnal_up(client, round, traits.timezone)
    }

    /// Whether an available, sampled client goes dark mid-round before
    /// reporting. Drawn from its own stream so flap rates never shift the
    /// availability schedule.
    pub fn flaps_mid_round(&self, client: u64, round: u64) -> bool {
        self.spec.flap > 0.0 && unit(self.h(STREAM_FLAP, client, round)) < self.spec.flap
    }

    /// Number of available clients at `round` (an O(size) scan).
    pub fn available_count(&self, round: u64) -> u64 {
        (0..self.size)
            .filter(|&c| self.is_available(c, round))
            .count() as u64
    }
}

/// One cohort draw: the sampled client ids (ascending) and how many
/// clients were available to draw from.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortDraw {
    /// Sampled client ids, sorted ascending; `len ≤ k` (shorter only when
    /// fewer than `k` clients were available).
    pub cohort: Vec<u64>,
    /// Clients available at this round, before sampling.
    pub available: u64,
}

/// Seeded uniform sampler drawing a `k`-cohort from the available clients
/// each round (reservoir sampling over one population scan).
///
/// The number of RNG draws per round depends on how many clients were
/// available, so the cursor must travel through checkpoints: persist
/// [`CohortSampler::state`] and rebuild with [`CohortSampler::from_state`]
/// to make kill-and-resume replay the exact cohort sequence.
#[derive(Debug, Clone)]
pub struct CohortSampler {
    rng: StdRng,
}

impl CohortSampler {
    /// A sampler seeded independently of the availability hash streams.
    pub fn new(seed: u64) -> CohortSampler {
        CohortSampler {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// RNG cursor for checkpointing.
    pub fn state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Rebuilds a sampler mid-stream from a checkpointed cursor.
    pub fn from_state(state: [u64; 4]) -> CohortSampler {
        CohortSampler {
            rng: StdRng::from_state(state),
        }
    }

    /// Draws up to `k` clients uniformly from those available at `round`.
    pub fn sample(&mut self, population: &Population, round: u64, k: usize) -> CohortDraw {
        let mut cohort: Vec<u64> = Vec::with_capacity(k);
        let mut available = 0u64;
        for client in 0..population.size() {
            if !population.is_available(client, round) {
                continue;
            }
            available += 1;
            if cohort.len() < k {
                cohort.push(client);
            } else {
                let j = self.rng.gen_range(0..available);
                if (j as usize) < k {
                    cohort[j as usize] = client;
                }
            }
        }
        cohort.sort_unstable();
        CohortDraw { cohort, available }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> AvailabilitySpec {
        AvailabilitySpec {
            seed: 7,
            base: 0.6,
            amplitude: 0.3,
            period: 24,
            dropout_every: 48,
            dropout_len: 4,
            churn: 0.1,
            flap: 0.2,
        }
    }

    #[test]
    fn spec_parses_its_own_display() {
        let s = spec();
        let text = s.to_string();
        assert_eq!(AvailabilitySpec::parse(&text).expect("round trip"), s);
        // partial specs keep defaults for the rest
        let partial = AvailabilitySpec::parse("base=0.9,seed=3").expect("partial");
        assert_eq!(partial.base, 0.9);
        assert_eq!(partial.seed, 3);
        assert_eq!(partial.period, AvailabilitySpec::default().period);
    }

    #[test]
    fn malformed_specs_are_errors() {
        for bad in [
            "base",
            "base=nope",
            "unknown=1",
            "dropout=4",
            "dropout=4x9", // window longer than cadence
            "base=1.5",    // out of range
            "period=0",    // zero-length cycle
            "flap=-0.1",   // negative rate
        ] {
            assert!(AvailabilitySpec::parse(bad).is_err(), "accepted '{bad}'");
        }
    }

    #[test]
    fn traits_are_stable_and_in_range() {
        let pop = Population::new(1000, spec());
        for client in 0..1000 {
            let t = pop.traits(client);
            assert_eq!(t, pop.traits(client));
            assert!(t.timezone < NUM_TIMEZONES);
            assert!(t.device_class < NUM_DEVICE_CLASSES);
        }
    }

    #[test]
    fn sampler_is_deterministic_and_cohort_is_available() {
        let pop = Population::new(5000, spec());
        let mut a = CohortSampler::new(9);
        let mut b = CohortSampler::new(9);
        for round in 0..6 {
            let da = a.sample(&pop, round, 32);
            let db = b.sample(&pop, round, 32);
            assert_eq!(da, db, "same seed must draw the same cohort");
            assert_eq!(da.cohort.len(), 32);
            assert!(da.cohort.windows(2).all(|w| w[0] < w[1]), "sorted unique");
            for &c in &da.cohort {
                assert!(pop.is_available(c, round), "cohort member unavailable");
            }
        }
    }

    #[test]
    fn sampler_state_round_trips_mid_stream() {
        let pop = Population::new(5000, spec());
        let mut s = CohortSampler::new(11);
        s.sample(&pop, 0, 32);
        let cursor = s.state();
        let next = s.sample(&pop, 1, 32);
        let replayed = CohortSampler::from_state(cursor).sample(&pop, 1, 32);
        assert_eq!(next, replayed, "restored cursor must replay the draw");
    }

    #[test]
    fn small_populations_yield_short_cohorts() {
        let pop = Population::new(8, spec());
        let draw = CohortSampler::new(1).sample(&pop, 0, 64);
        assert_eq!(draw.cohort.len() as u64, draw.available);
        assert!(draw.available <= 8);
    }

    #[test]
    fn flap_stream_is_independent_of_availability() {
        let quiet = AvailabilitySpec {
            flap: 0.0,
            ..spec()
        };
        let flappy = AvailabilitySpec {
            flap: 0.5,
            ..spec()
        };
        let a = Population::new(2000, quiet);
        let b = Population::new(2000, flappy);
        for round in 0..4 {
            for client in 0..2000 {
                assert_eq!(
                    a.is_available(client, round),
                    b.is_available(client, round),
                    "flap rate must not shift the availability schedule"
                );
            }
        }
        assert!((0..2000).any(|c| b.flaps_mid_round(c, 0)));
        assert!((0..2000).all(|c| !a.flaps_mid_round(c, 0)));
    }
}
