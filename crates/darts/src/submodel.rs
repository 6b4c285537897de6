//! Sub-models: the one-operation-per-edge networks shipped to participants.
//!
//! A sub-model is the supernet pruned by a binary mask (Eq. 5–6): exactly
//! one candidate operation remains on each edge, so its size is roughly
//! `1/N` of the supernet — the property that makes the paper's method
//! communication-efficient compared to FedNAS/DP-FNAS, which ship the whole
//! supernet.

use crate::cell::CellKind;
use crate::model::Model;
use crate::ops::{OpKind, NUM_OPS};
use crate::supernet::SupernetConfig;
use rand::Rng;

/// A sampled architecture: one operation index per edge, per cell kind.
///
/// This is the binary mask `g` of Eq. (5) in index form: `ops(kind)[e]`
/// is the index into [`OpKind::ALL`] of the operation selected on edge `e`
/// of cells of that kind.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArchMask {
    ops: [Vec<usize>; 2],
}

impl ArchMask {
    /// Creates a mask from per-kind op-index tables.
    ///
    /// # Panics
    ///
    /// Panics if any op index is out of range.
    pub fn new(normal: Vec<usize>, reduction: Vec<usize>) -> Self {
        assert!(
            normal.iter().chain(reduction.iter()).all(|&o| o < NUM_OPS),
            "op index out of range"
        );
        ArchMask {
            ops: [normal, reduction],
        }
    }

    /// Op indices for the given cell kind.
    pub fn ops(&self, kind: CellKind) -> &[usize] {
        &self.ops[kind.index()]
    }

    /// The selected [`OpKind`] on edge `e` of cells of `kind`.
    pub fn op_kind(&self, kind: CellKind, e: usize) -> OpKind {
        OpKind::ALL[self.ops[kind.index()][e]]
    }

    /// Samples every edge uniformly at random — the distribution of a fresh
    /// (untrained) controller.
    pub fn uniform_random<R: Rng + ?Sized>(config: &SupernetConfig, rng: &mut R) -> Self {
        let edges = config.topology().num_edges();
        let sample = |rng: &mut R| (0..edges).map(|_| rng.gen_range(0..NUM_OPS)).collect();
        let normal = sample(rng);
        let reduction = sample(rng);
        ArchMask {
            ops: [normal, reduction],
        }
    }

    /// A mask selecting the same operation on every edge (useful in tests
    /// and for degenerate baselines).
    pub fn all_op(config: &SupernetConfig, op: OpKind) -> Self {
        let edges = config.topology().num_edges();
        ArchMask {
            ops: [vec![op.index(); edges], vec![op.index(); edges]],
        }
    }

    /// Number of edges per cell kind.
    pub fn num_edges(&self) -> usize {
        self.ops[0].len()
    }
}

/// A pruned supernet with exactly one operation per edge — the network a
/// participant receives, trains for one round and returns. Built by
/// [`Supernet::extract_submodel`](crate::Supernet::extract_submodel), it
/// starts with copies of the supernet's weights in the slots its mask
/// selects.
pub type SubModel = Model<ArchMask>;

impl std::fmt::Debug for SubModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SubModel({} cells, mask {:?})",
            self.net.num_cells(),
            self.arch
        )
    }
}

impl SubModel {
    /// The mask this sub-model was pruned with.
    pub fn mask(&self) -> &ArchMask {
        &self.arch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supernet::Supernet;
    use fedrlnas_nn::Mode;
    use fedrlnas_tensor::Tensor;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn mask_constructors() {
        let config = SupernetConfig::tiny();
        let mut rng = StdRng::seed_from_u64(0);
        let m = ArchMask::uniform_random(&config, &mut rng);
        assert_eq!(m.num_edges(), config.topology().num_edges());
        let z = ArchMask::all_op(&config, OpKind::Zero);
        assert!(z.ops(CellKind::Normal).iter().all(|&o| o == 0));
        assert_eq!(z.op_kind(CellKind::Reduction, 0), OpKind::Zero);
    }

    #[test]
    #[should_panic(expected = "op index out of range")]
    fn mask_rejects_bad_indices() {
        let _ = ArchMask::new(vec![0, 99], vec![0, 0]);
    }

    #[test]
    fn submodel_trains_standalone() {
        let mut rng = StdRng::seed_from_u64(1);
        let config = SupernetConfig::tiny();
        let net = Supernet::new(config.clone(), &mut rng);
        let mask = ArchMask::uniform_random(&config, &mut rng);
        let mut sub = net.extract_submodel(&mask);
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        let logits = sub.forward(&x, Mode::Train);
        assert_eq!(logits.dims(), &[2, 10]);
        sub.backward(&Tensor::ones(logits.dims()));
        let mut total = 0.0f32;
        sub.visit_params(&mut |p| total += p.grad.norm());
        assert!(total > 0.0);
        sub.zero_grad();
        let mut total2 = 0.0f32;
        sub.visit_params(&mut |p| total2 += p.grad.norm());
        assert_eq!(total2, 0.0);
    }

    #[test]
    fn submodel_param_count_matches_supernet_estimate() {
        let mut rng = StdRng::seed_from_u64(2);
        let config = SupernetConfig::tiny();
        let net = Supernet::new(config.clone(), &mut rng);
        let mask = ArchMask::uniform_random(&config, &mut rng);
        let mut sub = net.extract_submodel(&mask);
        assert_eq!(sub.param_count(), net.submodel_param_count(&mask));
        assert_eq!(sub.param_bytes(), net.submodel_bytes(&mask));
    }

    #[test]
    fn average_submodel_is_fraction_of_supernet() {
        // The paper reports supernet 1.93 MB vs average sub-model 0.27 MB
        // (~1/7). At proxy scale the ratio is less extreme because the
        // always-shipped stem/preprocessors/classifier are a larger share,
        // but the sub-model must still be well under half the supernet.
        let mut rng = StdRng::seed_from_u64(3);
        let config = SupernetConfig::tiny();
        let mut net = Supernet::new(config.clone(), &mut rng);
        let full = net.param_bytes() as f64;
        let mut acc = 0.0f64;
        let samples = 20;
        for _ in 0..samples {
            let mask = ArchMask::uniform_random(&config, &mut rng);
            acc += net.submodel_bytes(&mask) as f64;
        }
        let avg = acc / samples as f64;
        assert!(avg < full * 0.5, "avg sub {avg} vs full {full}");
    }
}
