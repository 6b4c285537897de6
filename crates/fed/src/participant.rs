//! The participant: local data shard, local training, transmission state.

use crate::trainable::TrainableModel;
use fedrlnas_data::{AugmentConfig, Loader, SyntheticDataset};
use fedrlnas_netsim::{BandwidthTrace, Environment};
use fedrlnas_nn::{CrossEntropy, Mode, Sgd, SgdConfig};
use fedrlnas_tensor::Tensor;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// What a participant returns to the server after one local update
/// (Algorithm 1 lines 37–42): the reward — training accuracy computed in
/// the same pass as the gradients — plus bookkeeping. The gradients
/// themselves stay inside the model the caller handed in, mirroring the
/// upload of `∇θ L_k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalReport {
    /// Reporting participant id.
    pub participant: usize,
    /// Mean training loss over the local batch.
    pub loss: f32,
    /// Training accuracy on the batch — the reward `R(θ_k)`.
    pub accuracy: f32,
    /// Samples consumed.
    pub samples: usize,
}

/// One federated participant: a shard of the training data under a keyed
/// batch schedule, an augmentation pipeline, a bandwidth trace and a
/// relative compute speed.
#[derive(Debug, Clone)]
pub struct Participant {
    id: usize,
    loader: Loader,
    trace: BandwidthTrace,
    /// Relative local compute speed (1.0 = reference device); used by the
    /// staleness and latency simulations.
    speed_factor: f64,
    /// Error-feedback residual of the update-compression layer, in
    /// supernet-flat coordinates. Empty (= all zeros) until the first
    /// lossy-coded upload; checkpointed so kill-and-resume replays the
    /// exact same compensated uploads.
    residual: Vec<f32>,
}

impl Participant {
    /// Creates a participant over shard `indices`.
    ///
    /// # Panics
    ///
    /// Panics if the shard is empty or `batch_size == 0` (propagated from
    /// [`Loader::new`]).
    ///
    /// Draws the bandwidth trace's start, then the key of the batch
    /// schedule, from `rng`. The key is never checkpointed: a resumed
    /// search rebuilds its participants from the same seed.
    pub fn new<R: Rng + ?Sized>(
        id: usize,
        indices: Vec<usize>,
        batch_size: usize,
        augment: AugmentConfig,
        env: Environment,
        speed_factor: f64,
        rng: &mut R,
    ) -> Self {
        let trace = BandwidthTrace::new(env, rng);
        Participant {
            id,
            loader: Loader::new(indices, batch_size, augment).with_key(rng.gen()),
            trace,
            speed_factor,
            residual: Vec::new(),
        }
    }

    /// Participant id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Shard size.
    pub fn shard_len(&self) -> usize {
        self.loader.len()
    }

    /// Relative compute speed.
    pub fn speed_factor(&self) -> f64 {
        self.speed_factor
    }

    /// Advances the bandwidth trace one round and returns the new downlink
    /// rate in Mbps.
    pub fn next_bandwidth_mbps<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        self.trace.next_mbps(rng)
    }

    /// Current bandwidth without advancing the trace.
    pub fn bandwidth_mbps(&self) -> f64 {
        self.trace.current_mbps()
    }

    /// Restores the bandwidth AR(1) state (checkpoint resume).
    pub fn set_bandwidth_mbps(&mut self, mbps: f64) {
        self.trace.set_current_mbps(mbps);
    }

    /// The error-feedback residual in supernet-flat coordinates
    /// (checkpoint capture; empty means no lossy upload has happened yet).
    pub fn residual(&self) -> &[f32] {
        &self.residual
    }

    /// Replaces the error-feedback residual (checkpoint resume, or the
    /// server pulling authoritative state back from a round backend).
    pub fn set_residual(&mut self, residual: Vec<f32>) {
        self.residual = residual;
    }

    /// Mutable residual access, lazily sized to `len` supernet-flat slots
    /// (zero-filled on first use; `len` must stay constant per run).
    pub fn residual_mut_sized(&mut self, len: usize) -> &mut [f32] {
        if self.residual.len() != len {
            self.residual.resize(len, 0.0);
        }
        &mut self.residual
    }

    /// This participant's private RNG stream for the round whose base seed
    /// is `seed_base`: `seed_base ^ id·φ64`. The only definition of that
    /// derivation — the in-process server and the RPC worker both come
    /// here, which is what keeps the execution modes bit-identical.
    pub fn round_rng(&self, seed_base: u64) -> StdRng {
        StdRng::seed_from_u64(seed_base ^ (self.id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The participant's whole step in search round `round` (Algorithm 1
    /// lines 37–42): draw `round` of the batch schedule, augmented on the
    /// round's stream, one forward + backward of the shipped `model` on
    /// it, and the gradients it left there flattened, in structural visit
    /// order, into the vector that is uploaded. A pure function of the
    /// participant, the round, `seed_base` and the model: a round the
    /// participant sat out only skips that draw.
    pub fn train_round(
        &self,
        model: &mut dyn TrainableModel,
        dataset: &SyntheticDataset,
        round: u64,
        seed_base: u64,
    ) -> (LocalReport, Vec<f32>) {
        let mut rng = self.round_rng(seed_base);
        let (x, y) = self.loader.batch_at(dataset, round, &mut rng);
        let report = self.step(model, &x, &y);
        let mut grads = Vec::with_capacity(model.param_count());
        model.visit_params(&mut |p| grads.extend_from_slice(p.grad.as_slice()));
        (report, grads)
    }

    /// One local update (the paper's participant side of Algorithm 1):
    /// draws the schedule's next batch, runs forward + backward once, and
    /// leaves the gradients in `model`. Returns the reward and loss.
    pub fn local_update<R: Rng + ?Sized>(
        &mut self,
        model: &mut dyn TrainableModel,
        dataset: &SyntheticDataset,
        rng: &mut R,
    ) -> LocalReport {
        let (x, y) = self.loader.next_batch(dataset, rng);
        self.step(model, &x, &y)
    }

    /// Forward + backward of `model` on one batch, gradients left in it.
    fn step(&self, model: &mut dyn TrainableModel, x: &Tensor, y: &[usize]) -> LocalReport {
        let mut ce = CrossEntropy::new();
        model.zero_grad();
        let logits = model.forward(x, Mode::Train);
        let out = ce.forward(&logits, y);
        let dl = ce.backward();
        model.backward(&dl);
        LocalReport {
            participant: self.id,
            loss: out.loss,
            accuracy: out.accuracy(),
            samples: out.total,
        }
    }

    /// Several local SGD steps on a private copy of the global model —
    /// the FedAvg participant update used for retraining (P3) and the
    /// fixed-model baselines. Returns mean loss/accuracy over the steps.
    pub fn local_sgd_steps<R: Rng + ?Sized>(
        &mut self,
        model: &mut dyn TrainableModel,
        dataset: &SyntheticDataset,
        steps: usize,
        sgd_config: SgdConfig,
        rng: &mut R,
    ) -> LocalReport {
        let mut sgd = Sgd::new(sgd_config);
        let mut loss_sum = 0.0f32;
        let mut acc_sum = 0.0f32;
        let mut samples = 0usize;
        for _ in 0..steps.max(1) {
            let report = self.local_update(model, dataset, rng);
            sgd.step_visitor(|f| model.visit_params(f));
            loss_sum += report.loss;
            acc_sum += report.accuracy;
            samples += report.samples;
        }
        let n = steps.max(1) as f32;
        LocalReport {
            participant: self.id,
            loss: loss_sum / n,
            accuracy: acc_sum / n,
            samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedrlnas_darts::{ArchMask, Supernet, SupernetConfig};
    use fedrlnas_data::DatasetSpec;

    fn setup() -> (SyntheticDataset, Participant, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let data =
            SyntheticDataset::generate(&DatasetSpec::svhn_like().with_sizes(10, 2), &mut rng);
        let p = Participant::new(
            3,
            (0..40).collect(),
            8,
            AugmentConfig::none(),
            Environment::Foot,
            1.0,
            &mut rng,
        );
        (data, p, rng)
    }

    #[test]
    fn local_update_leaves_gradients() {
        let (data, mut p, mut rng) = setup();
        let config = SupernetConfig::tiny();
        let net = Supernet::new(config.clone(), &mut rng);
        let mask = ArchMask::uniform_random(&config, &mut rng);
        let mut sub = net.extract_submodel(&mask);
        let report = p.local_update(&mut sub, &data, &mut rng);
        assert_eq!(report.participant, 3);
        assert_eq!(report.samples, 8);
        assert!(report.loss.is_finite());
        assert!((0.0..=1.0).contains(&report.accuracy));
        let mut g = 0.0f32;
        fedrlnas_darts::SubModel::visit_params(&mut sub, &mut |p| g += p.grad.norm());
        assert!(g > 0.0, "gradients must remain in the model");
    }

    #[test]
    fn local_sgd_improves_loss_on_easy_data() {
        let (data, mut p, mut rng) = setup();
        let config = SupernetConfig::tiny();
        let net = Supernet::new(config.clone(), &mut rng);
        let mask = ArchMask::uniform_random(&config, &mut rng);
        let mut sub = net.extract_submodel(&mask);
        let first = p.local_sgd_steps(&mut sub, &data, 5, SgdConfig::default(), &mut rng);
        let later = p.local_sgd_steps(&mut sub, &data, 25, SgdConfig::default(), &mut rng);
        assert!(
            later.loss < first.loss * 1.2,
            "loss should not explode: {} -> {}",
            first.loss,
            later.loss
        );
    }

    #[test]
    fn a_participant_that_skipped_rounds_draws_the_same_batch_at_round_t() {
        // one participant trains rounds 0..6 (and takes local updates in
        // between), its clone sits out all but round 5: at round 5 both
        // draw the same batch, so they upload the same step
        let (data, mut every, mut rng) = setup();
        let skipper = every.clone();
        let config = SupernetConfig::tiny();
        let mut net_rng = StdRng::seed_from_u64(1);
        let net = Supernet::new(config.clone(), &mut net_rng);
        let mask = ArchMask::uniform_random(&config, &mut net_rng);
        let seed_base = 0xD1B5_4A32_D192_ED03;
        let mut uploads = Vec::new();
        for round in 0..6u64 {
            let mut sub = net.extract_submodel(&mask);
            uploads.push(every.train_round(&mut sub, &data, round, seed_base));
            let _ = every.local_update(&mut sub, &data, &mut rng);
        }
        let mut sub = net.extract_submodel(&mask);
        let (report, grads) = skipper.train_round(&mut sub, &data, 5, seed_base);
        assert_eq!(report.participant, 3);
        assert!(grads.iter().any(|g| *g != 0.0));
        assert_eq!((report, grads), uploads[5]);
        assert_ne!(uploads[4].1, uploads[5].1, "the round picks the batch");
    }

    #[test]
    fn data_state_restore_round_trips() {
        // what a checkpoint restores — bandwidth and residual — plus a
        // rebuild from the same seed, which draws the same schedule key:
        // the rebuilt participant trains every later round as the
        // original does
        let (data, mut p, mut rng) = setup();
        let config = SupernetConfig::tiny();
        let net = Supernet::new(config.clone(), &mut rng);
        let mask = ArchMask::uniform_random(&config, &mut rng);
        let mut sub = net.extract_submodel(&mask);
        let _ = p.local_update(&mut sub, &data, &mut rng);
        let _ = p.next_bandwidth_mbps(&mut rng);
        p.set_residual(vec![0.5; 3]);
        let (_, mut rebuilt, _) = setup();
        rebuilt.set_bandwidth_mbps(p.bandwidth_mbps());
        rebuilt.set_residual(p.residual().to_vec());
        assert_eq!(rebuilt.bandwidth_mbps(), p.bandwidth_mbps());
        assert_eq!(rebuilt.residual(), p.residual());
        for round in [0u64, 7, 12] {
            let mut a = net.extract_submodel(&mask);
            let mut b = net.extract_submodel(&mask);
            assert_eq!(
                p.train_round(&mut a, &data, round, 99),
                rebuilt.train_round(&mut b, &data, round, 99),
                "round {round}"
            );
        }
    }

    #[test]
    fn bandwidth_trace_advances() {
        let (_, mut p, mut rng) = setup();
        let b1 = p.next_bandwidth_mbps(&mut rng);
        let b2 = p.next_bandwidth_mbps(&mut rng);
        assert!(b1 > 0.0 && b2 > 0.0);
        assert_eq!(p.bandwidth_mbps(), b2);
    }
}
