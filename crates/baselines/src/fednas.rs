//! Gradient-based federated NAS (the FedNAS rows of Tables IV–V): every
//! participant trains the **entire mixed supernet** on its shard and the
//! server averages both weight and architecture gradients. Accurate, but
//! it ships the whole supernet every round — the communication cost the
//! paper's method avoids by a factor of ~N.

use fedrlnas_controller::Alpha;
use fedrlnas_core::{CurveRecorder, StepMetric};
use fedrlnas_darts::{Genotype, Supernet, SupernetConfig, NUM_OPS};
use fedrlnas_data::{dirichlet_partition, iid_partition, AugmentConfig, Loader, SyntheticDataset};
use fedrlnas_fed::CommStats;
use fedrlnas_nn::{Adam, CrossEntropy, Mode, Sgd, SgdConfig};
use fedrlnas_tensor::Tensor;
use rand::Rng;

/// Federated DARTS-style search driver.
pub struct FedNasSearch {
    supernet: Supernet,
    alpha: Alpha,
    adam: Adam,
    theta_sgd: Sgd,
    loaders: Vec<Loader>,
    comm: CommStats,
    curve: CurveRecorder,
    nodes: usize,
}

impl FedNasSearch {
    /// Builds the search with `k` participants over an i.i.d. or
    /// `Dir(beta)` partition.
    pub fn new<R: Rng + ?Sized>(
        net: SupernetConfig,
        dataset: &SyntheticDataset,
        k: usize,
        batch: usize,
        dirichlet_beta: Option<f64>,
        rng: &mut R,
    ) -> Self {
        let parts = match dirichlet_beta {
            Some(beta) => dirichlet_partition(dataset.labels(), k, beta, rng),
            None => iid_partition(dataset.len(), k, rng),
        };
        let loaders = parts
            .into_iter()
            .map(|indices| Loader::new(indices, batch, AugmentConfig::none()).with_key(rng.gen()))
            .collect();
        let alpha = Alpha::new(&net);
        let adam = Adam::new(alpha.logits().dims(), 3e-3, 1e-4);
        FedNasSearch {
            supernet: Supernet::new(net.clone(), rng),
            alpha,
            adam,
            theta_sgd: Sgd::new(SgdConfig::default()),
            loaders,
            comm: CommStats::new(),
            curve: CurveRecorder::new(),
            nodes: net.nodes,
        }
    }

    /// Communication tally — the headline number FedNAS loses on.
    pub fn comm(&self) -> &CommStats {
        &self.comm
    }

    /// The search curve.
    pub fn curve(&self) -> &CurveRecorder {
        &self.curve
    }

    /// One federated round: every participant computes mixed-supernet
    /// gradients on a local batch; the server averages and applies them.
    pub fn round<R: Rng + ?Sized>(&mut self, dataset: &SyntheticDataset, rng: &mut R) -> f32 {
        let k = self.loaders.len();
        let supernet_bytes = self.supernet.param_bytes();
        let probs = self.alpha.probs();
        let edges = probs[0].len();
        let mut ce = CrossEntropy::new();
        let mut dw_sum = [
            vec![vec![0.0f32; NUM_OPS]; edges],
            vec![vec![0.0f32; NUM_OPS]; edges],
        ];
        let mut mean_acc = 0.0f32;
        let mut mean_loss = 0.0f32;
        self.supernet.zero_grad();
        for loader in &mut self.loaders {
            // participant computes gradients of the full mixed supernet on
            // its local data; running them sequentially on the shared
            // supernet accumulates exactly the sum FedNAS's server forms
            let (x, y) = loader.next_batch(dataset, rng);
            let logits = self.supernet.forward_mixed(&x, &probs, Mode::Train);
            let out = ce.forward(&logits, &y);
            let dl = ce.backward();
            let dw = self.supernet.backward_mixed(&dl);
            for kind in 0..2 {
                for e in 0..edges {
                    for o in 0..NUM_OPS {
                        dw_sum[kind][e][o] += dw[kind][e][o];
                    }
                }
            }
            mean_acc += out.accuracy();
            mean_loss += out.loss;
            self.comm.record_down(supernet_bytes);
            self.comm.record_up(supernet_bytes);
        }
        let inv_k = 1.0 / k as f32;
        self.supernet.visit_params(&mut |p| p.grad.scale(inv_k));
        let supernet = &mut self.supernet;
        self.theta_sgd.step_visitor(|f| supernet.visit_params(f));
        supernet.zero_grad();
        // α step via the softmax Jacobian of the averaged dW
        let probs = self.alpha.probs();
        let mut grad = Tensor::zeros(self.alpha.logits().dims());
        for kind in 0..2 {
            for e in 0..edges {
                let p = &probs[kind][e];
                let dot: f32 = p
                    .iter()
                    .zip(&dw_sum[kind][e])
                    .map(|(pi, di)| pi * di * inv_k)
                    .sum();
                for o in 0..NUM_OPS {
                    grad.as_mut_slice()[(kind * edges + e) * NUM_OPS + o] =
                        p[o] * (dw_sum[kind][e][o] * inv_k - dot);
                }
            }
        }
        let mut logits = self.alpha.logits().clone();
        self.adam.step(&mut logits, &grad);
        *self.alpha.logits_mut() = logits;
        self.comm.end_round();
        mean_acc *= inv_k;
        mean_loss *= inv_k;
        let step = self.curve.len();
        self.curve.record(StepMetric {
            step,
            mean_accuracy: mean_acc,
            mean_loss,
            contributors: k,
        });
        mean_acc
    }

    /// Runs `rounds` federated rounds and derives the genotype.
    pub fn run<R: Rng + ?Sized>(
        &mut self,
        dataset: &SyntheticDataset,
        rounds: usize,
        rng: &mut R,
    ) -> Genotype {
        for _ in 0..rounds {
            self.round(dataset, rng);
        }
        Genotype::from_probs(&self.alpha.probs(), self.nodes)
    }

    /// Bytes shipped per participant per round (the whole supernet, both
    /// directions).
    pub fn payload_bytes(&mut self) -> usize {
        self.supernet.param_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedrlnas_data::DatasetSpec;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn fednas_round_and_comm_cost() {
        let mut rng = StdRng::seed_from_u64(0);
        let data = SyntheticDataset::generate(&DatasetSpec::svhn_like().with_sizes(8, 2), &mut rng);
        let mut search =
            FedNasSearch::new(SupernetConfig::tiny(), &data, 3, 8, Some(0.5), &mut rng);
        let genotype = search.run(&data, 2, &mut rng);
        assert_eq!(genotype.nodes(), 2);
        assert_eq!(search.comm().rounds, 2);
        // 3 participants x 2 rounds x supernet both ways
        let expected = 3 * 2 * 2 * search.payload_bytes() as u64;
        assert_eq!(search.comm().total_bytes(), expected);
        assert_eq!(search.curve().len(), 2);
    }
}
