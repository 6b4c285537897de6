//! The weight-sharing supernet (paper §IV-A).
//!
//! The supernet holds weights for **every** candidate operation on every
//! edge of every cell. The RL server samples a one-hot mask per edge and
//! ships only the selected operations — a sub-model `1/N` the size of the
//! supernet — which is the efficiency property Table V measures.
//!
//! For the gradient-based baselines (DARTS, FedNAS) the same supernet also
//! supports a *mixed* forward where each edge computes the α-weighted sum
//! of all `N` operations (Eq. 3).

use crate::cell::{accumulate, edge_stride, CellKind, CellTopology, Edge};
use crate::layout::SupernetLayout;
use crate::model::Model;
use crate::network::Net;
use crate::ops::{CandidateOp, OpKind, NUM_OPS};
use crate::submodel::{ArchMask, SubModel};
use fedrlnas_nn::{Layer, Mode, Param};
use fedrlnas_tensor::Tensor;
use rand::Rng;

/// Structural hyperparameters of the supernet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupernetConfig {
    /// Input image channels (3 for the RGB datasets).
    pub input_channels: usize,
    /// Base channel count `C` of the first cell.
    pub init_channels: usize,
    /// Number of stacked cells `L`; cells at `L/3` and `2L/3` are reduction
    /// cells.
    pub num_cells: usize,
    /// Intermediate nodes per cell `B` (DARTS uses 4 → 14 edges).
    pub nodes: usize,
    /// Classifier output classes.
    pub num_classes: usize,
    /// Input image height/width.
    pub image_hw: usize,
    /// Channel multiplier of the stem convolution.
    pub stem_multiplier: usize,
}

impl SupernetConfig {
    /// Smallest usable configuration, for unit tests and CI smoke runs:
    /// 3 cells of 2 nodes on 8x8 images.
    pub fn tiny() -> Self {
        SupernetConfig {
            input_channels: 3,
            init_channels: 4,
            num_cells: 3,
            nodes: 2,
            num_classes: 10,
            image_hw: 8,
            stem_multiplier: 1,
        }
    }

    /// Proxy scale used by the default experiment runs: 5 cells of 3 nodes
    /// on 12x12 images.
    pub fn small() -> Self {
        SupernetConfig {
            input_channels: 3,
            init_channels: 8,
            num_cells: 5,
            nodes: 3,
            num_classes: 10,
            image_hw: 12,
            stem_multiplier: 2,
        }
    }

    /// Paper-shaped configuration (8 cells, 4 nodes, 16 channels, 32x32);
    /// expensive on CPU — used only when `--scale paper` is requested.
    pub fn paper() -> Self {
        SupernetConfig {
            input_channels: 3,
            init_channels: 16,
            num_cells: 8,
            nodes: 4,
            num_classes: 10,
            image_hw: 32,
            stem_multiplier: 3,
        }
    }

    /// Per-cell topology.
    pub fn topology(&self) -> CellTopology {
        CellTopology::new(self.nodes)
    }

    /// Cell kind at position `i`: reduction at `L/3` and `2L/3`.
    pub fn cell_kind(&self, i: usize) -> CellKind {
        if self.num_cells >= 3 && (i == self.num_cells / 3 || i == 2 * self.num_cells / 3) {
            CellKind::Reduction
        } else {
            CellKind::Normal
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.input_channels == 0
            || self.init_channels == 0
            || self.num_cells == 0
            || self.nodes == 0
            || self.num_classes == 0
            || self.stem_multiplier == 0
        {
            return Err("all extents must be positive".into());
        }
        let reductions = (0..self.num_cells)
            .filter(|&i| self.cell_kind(i) == CellKind::Reduction)
            .count();
        let min_hw = self.image_hw >> reductions;
        if min_hw == 0 {
            return Err(format!(
                "image {}px too small for {reductions} reductions",
                self.image_hw
            ));
        }
        Ok(())
    }
}

/// What the last forward ran: which operations hold activations, and what
/// the matching backward needs.
enum LastForward {
    /// Nothing has run since construction.
    Nothing,
    /// One operation per edge, the ones this mask selects.
    Masked(ArchMask),
    /// Every operation, weighted by `weights` (`[kind][edge][op]`);
    /// `outputs[cell][edge][op]` keeps each operation's output until the
    /// backward has used it.
    Mixed {
        weights: [Vec<Vec<f32>>; 2],
        outputs: Vec<Vec<Vec<Tensor>>>,
    },
}

/// The weight-sharing supernet: stem → cells → global pool → classifier,
/// every edge holding all `N` candidate operations.
pub struct Supernet {
    config: SupernetConfig,
    net: Net<Vec<CandidateOp>>,
    /// Where every unit's tensors sit in the flat vectors; fixed at
    /// construction because the structure never changes.
    layout: SupernetLayout,
    last: LastForward,
}

impl std::fmt::Debug for Supernet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Supernet({} cells, {} edges/cell, C={})",
            self.net.num_cells(),
            self.config.topology().num_edges(),
            self.config.init_channels
        )
    }
}

impl Supernet {
    /// Builds a randomly initialized supernet.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SupernetConfig::validate`].
    pub fn new<R: Rng + ?Sized>(config: SupernetConfig, rng: &mut R) -> Self {
        config.validate().expect("invalid supernet config");
        let topology = config.topology();
        let mut net = Net::build(&config, rng, |kind, channels, rng| {
            let mut edges = Vec::with_capacity(topology.num_edges());
            for (_, src, dst) in topology.edges() {
                let stride = edge_stride(kind, src);
                let ops = OpKind::ALL
                    .iter()
                    .map(|&op| CandidateOp::build(op, channels, stride, rng))
                    .collect();
                edges.push(Edge { src, dst, ops });
            }
            edges
        });
        let layout = SupernetLayout::of(&config, &mut net);
        Supernet {
            config,
            net,
            layout,
            last: LastForward::Nothing,
        }
    }

    /// The structural configuration.
    pub fn config(&self) -> &SupernetConfig {
        &self.config
    }

    /// Forward pass with one operation per edge, selected by `mask`;
    /// returns classifier logits `[n, classes]`.
    ///
    /// Every edge operation the previous forward ran and `mask` does not
    /// select is [released](Layer::release) first, so however many masks a
    /// supernet is trained on in turn, it holds the activations of one
    /// sub-model, not of every operation it ever ran.
    pub fn forward_masked(&mut self, x: &Tensor, mask: &ArchMask, mode: Mode) -> Tensor {
        self.release_unselected(mask);
        let logits = self.net.forward(x, mode, |site, ops, input| {
            ops[mask.ops(site.kind)[site.edge]].forward(input, mode)
        });
        self.last = LastForward::Masked(mask.clone());
        logits
    }

    /// Releases the edge operations the last forward ran that `mask` does
    /// not select: after a masked forward the previous mask's, after a
    /// mixed one every operation outside `mask`.
    fn release_unselected(&mut self, mask: &ArchMask) {
        let last = match &self.last {
            LastForward::Nothing => return,
            LastForward::Masked(last) => Some(last),
            LastForward::Mixed { .. } => None,
        };
        for (site, ops) in self.net.edges_mut() {
            let keep = mask.ops(site.kind)[site.edge];
            for (o, op) in ops.iter_mut().enumerate() {
                let ran = last.is_none_or(|m| m.ops(site.kind)[site.edge] == o);
                if ran && o != keep {
                    op.release();
                }
            }
        }
    }

    /// Backward pass matching the last [`Supernet::forward_masked`] call;
    /// accumulates gradients into the selected parameters only.
    ///
    /// # Panics
    ///
    /// Panics if no masked forward preceded this call.
    pub fn backward_masked(&mut self, grad_logits: &Tensor) {
        let LastForward::Masked(mask) = &self.last else {
            panic!("backward_masked requires a preceding forward_masked");
        };
        self.net.backward(grad_logits, |site, ops, d_dst, d_src| {
            accumulate(d_src, ops[mask.ops(site.kind)[site.edge]].backward(d_dst))
        });
    }

    /// DARTS-style mixed forward: each edge computes the α-weighted sum of
    /// all ops. `weights` holds per-cell-kind softmax tables indexed
    /// `[kind][edge][op]`.
    pub fn forward_mixed(
        &mut self,
        x: &Tensor,
        weights: &[Vec<Vec<f32>>; 2],
        mode: Mode,
    ) -> Tensor {
        let mut outputs = vec![Vec::new(); self.net.num_cells()];
        let logits = self.net.forward(x, mode, |site, ops, input| {
            let w = &weights[site.kind.index()][site.edge];
            let mut mix = None;
            let mut outs = Vec::with_capacity(NUM_OPS);
            for (o, op) in ops.iter_mut().enumerate() {
                let y = op.forward(input, mode);
                accumulate(&mut mix, y.scaled(w[o]));
                outs.push(y);
            }
            outputs[site.cell].push(outs);
            mix.expect("at least one op per edge")
        });
        self.last = LastForward::Mixed {
            weights: weights.clone(),
            outputs,
        };
        logits
    }

    /// Backward for the mixed forward; returns `d loss / d edge-weight`
    /// summed over cells, indexed `[kind][edge][op]` — the raw ingredient
    /// for the DARTS/FedNAS α update (before the softmax Jacobian).
    ///
    /// # Panics
    ///
    /// Panics if no mixed forward preceded this call.
    pub fn backward_mixed(&mut self, grad_logits: &Tensor) -> [Vec<Vec<f32>>; 2] {
        let LastForward::Mixed { weights, outputs } = &mut self.last else {
            panic!("backward_mixed requires forward_mixed");
        };
        let edges = self.config.topology().num_edges();
        let mut d_weights = [
            vec![vec![0.0f32; NUM_OPS]; edges],
            vec![vec![0.0f32; NUM_OPS]; edges],
        ];
        self.net.backward(grad_logits, |site, ops, d_dst, d_src| {
            let w = &weights[site.kind.index()][site.edge];
            let outs = std::mem::take(&mut outputs[site.cell][site.edge]);
            let d_w = &mut d_weights[site.kind.index()][site.edge];
            for (o, op) in ops.iter_mut().enumerate() {
                // dL/dw_eo = <g, op_out>; dL/dx via op with weight applied.
                d_w[o] += d_dst
                    .dot(&outs[o])
                    .expect("cached output matches gradient shape");
                accumulate(d_src, op.backward(&d_dst.scaled(w[o])));
            }
        });
        d_weights
    }

    /// Visits every parameter of the supernet (stem, all cells, classifier)
    /// in a stable structural order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.net
            .visit_layers(None, &mut |layer| layer.visit_params(f));
    }

    /// Visits every non-trainable buffer (BatchNorm running statistics) of
    /// the supernet in the same structural order as
    /// [`Supernet::visit_params`].
    pub fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        self.net
            .visit_layers(None, &mut |layer| layer.visit_buffers(f));
    }

    /// Visits the parameters of the sub-model `mask` selects, in place:
    /// the order of `SubModel::visit_params` on `extract_submodel(mask)`
    /// and of [`SupernetLayout::param_ranges`].
    ///
    /// # Panics
    ///
    /// Panics if `mask` has fewer edges than a cell.
    pub fn visit_masked_params(&mut self, mask: &ArchMask, f: &mut dyn FnMut(&mut Param)) {
        self.net
            .visit_layers(Some(mask), &mut |layer| layer.visit_params(f));
    }

    /// Visits the BatchNorm buffers of the sub-model `mask` selects, in
    /// place, in [`SupernetLayout::buffer_ranges`] order.
    ///
    /// # Panics
    ///
    /// Panics if `mask` has fewer edges than a cell.
    pub fn visit_masked_buffers(&mut self, mask: &ArchMask, f: &mut dyn FnMut(&mut [f32])) {
        self.net
            .visit_layers(Some(mask), &mut |layer| layer.visit_buffers(f));
    }

    /// Every parameter value, flat in [`Supernet::visit_params`] order — the
    /// θ that [`SupernetLayout::param_ranges`] indexes.
    pub fn flat_params(&mut self) -> Vec<f32> {
        let mut theta = Vec::with_capacity(self.layout.param_len());
        self.visit_params(&mut |p| theta.extend_from_slice(p.value.as_slice()));
        theta
    }

    /// Every BatchNorm buffer, flat in [`Supernet::visit_buffers`] order —
    /// the vector that [`SupernetLayout::buffer_ranges`] indexes.
    pub fn flat_buffers(&mut self) -> Vec<f32> {
        let mut buffers = Vec::with_capacity(self.layout.buffer_len());
        self.visit_buffers(&mut |b| buffers.extend_from_slice(b));
        buffers
    }

    /// The layout table: where each structural unit's weights sit in
    /// [`Supernet::flat_params`] and [`Supernet::flat_buffers`].
    pub fn layout(&self) -> &SupernetLayout {
        &self.layout
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total scalar parameter count.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// Serialized size of all supernet weights in bytes (`f32` elements).
    pub fn param_bytes(&mut self) -> usize {
        self.param_count() * std::mem::size_of::<f32>()
    }

    /// Extracts the sub-model selected by `mask`: stem, per-cell
    /// preprocessors, the chosen operation per edge, and the classifier.
    pub fn extract_submodel(&self, mask: &ArchMask) -> SubModel {
        let net = self
            .net
            .map_edges(|site, ops| ops[mask.ops(site.kind)[site.edge]].clone());
        Model::from_parts(mask.clone(), self.config.clone(), net)
    }

    /// Accumulates a trained sub-model's parameter **gradients** back into
    /// the corresponding supernet slots (stem, preprocessors, selected edge
    /// ops, classifier). Operations never sampled receive zero gradient, as
    /// §IV-B specifies.
    ///
    /// # Panics
    ///
    /// Panics if the sub-model's mask does not structurally match this
    /// supernet.
    pub fn accumulate_submodel_grads(&mut self, sub: &mut SubModel) {
        let mut sub_grads: Vec<Tensor> = Vec::new();
        sub.visit_params(&mut |p| sub_grads.push(p.grad.clone()));
        let mut i = 0usize;
        self.visit_masked_params(sub.mask(), &mut |p| {
            p.grad
                .add_assign(&sub_grads[i])
                .expect("sub-model grad shape matches supernet slot");
            i += 1;
        });
        assert_eq!(i, sub_grads.len(), "sub-model structure mismatch");
    }

    /// Byte-offset-free view of where a sub-model's parameters live inside
    /// the supernet's flat parameter vector: `(offset, len)` ranges in
    /// [`Supernet::visit_params`] order, restricted to the slots `mask`
    /// selects (stem, preprocessors, chosen edge ops, classifier).
    ///
    /// The concatenation of these ranges matches the order of the
    /// sub-model's own `visit_params`, which is what lets the
    /// delay-compensation memory pool prune a stored flat θ snapshot with a
    /// stored mask (Alg. 1 line 26) and the round engine fill a download
    /// frame without extracting anything.
    pub fn submodel_param_ranges(&self, mask: &ArchMask) -> Vec<(usize, usize)> {
        self.layout.param_ranges(mask).collect()
    }

    /// Multiply–accumulate count of one masked forward pass per sample.
    pub fn flops_masked(&self, mask: &ArchMask) -> u64 {
        self.layout.submodel_flops(mask)
    }

    /// Number of parameter scalars in the sub-model selected by `mask`
    /// (stem + preprocessors + chosen ops + classifier).
    pub fn submodel_param_count(&self, mask: &ArchMask) -> usize {
        self.layout.submodel_param_count(mask)
    }

    /// Serialized size in bytes of the sub-model selected by `mask`.
    pub fn submodel_bytes(&self, mask: &ArchMask) -> usize {
        self.submodel_param_count(mask) * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn tiny_net(seed: u64) -> (Supernet, ArchMask, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = SupernetConfig::tiny();
        let net = Supernet::new(config.clone(), &mut rng);
        let mask = ArchMask::uniform_random(&config, &mut rng);
        (net, mask, rng)
    }

    #[test]
    fn config_presets_validate() {
        assert!(SupernetConfig::tiny().validate().is_ok());
        assert!(SupernetConfig::small().validate().is_ok());
        assert!(SupernetConfig::paper().validate().is_ok());
    }

    #[test]
    fn reduction_positions() {
        let c = SupernetConfig::paper();
        let kinds: Vec<_> = (0..8).map(|i| c.cell_kind(i)).collect();
        assert_eq!(
            kinds.iter().filter(|k| **k == CellKind::Reduction).count(),
            2
        );
        assert_eq!(kinds[8 / 3], CellKind::Reduction);
        assert_eq!(kinds[16 / 3], CellKind::Reduction);
    }

    #[test]
    fn masked_forward_shapes() {
        let (mut net, mask, mut rng) = tiny_net(0);
        let x = Tensor::randn(&[4, 3, 8, 8], 1.0, &mut rng);
        let logits = net.forward_masked(&x, &mask, Mode::Train);
        assert_eq!(logits.dims(), &[4, 10]);
        assert!(logits.all_finite());
    }

    #[test]
    fn masked_backward_accumulates_grads() {
        let (mut net, mask, mut rng) = tiny_net(1);
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        let logits = net.forward_masked(&x, &mask, Mode::Train);
        net.backward_masked(&Tensor::ones(logits.dims()));
        let mut total_grad = 0.0f32;
        net.visit_params(&mut |p| total_grad += p.grad.norm());
        assert!(total_grad > 0.0, "some gradient must flow");
    }

    /// Bytes held by each edge operation of `net`, with whether `mask`
    /// selects it: `(cell, edge, op, selected, bytes)`.
    fn edge_caches(net: &Supernet, mask: &ArchMask) -> Vec<(usize, usize, usize, bool, usize)> {
        let mut held = Vec::new();
        for (c, cell) in net.net.cells.iter().enumerate() {
            let ops = mask.ops(cell.kind);
            for (e, edge) in cell.edges.iter().enumerate() {
                for (o, op) in edge.ops.iter().enumerate() {
                    held.push((c, e, o, o == ops[e], op.cache_bytes()));
                }
            }
        }
        held
    }

    /// A supernet trained on mask after mask holds the activations of one
    /// sub-model: after a mask change — and after a mixed forward, which
    /// runs every operation — no edge operation outside the current mask
    /// holds a cache, while the selected ones keep theirs warm.
    #[test]
    fn a_mask_change_releases_every_operation_the_new_mask_drops() {
        let (mut net, _, mut rng) = tiny_net(12);
        let config = net.config().clone();
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        let train = |net: &mut Supernet, mask: &ArchMask| {
            let logits = net.forward_masked(&x, mask, Mode::Train);
            net.backward_masked(&Tensor::ones(logits.dims()));
            edge_caches(net, mask)
        };
        let only_the_selection_holds =
            |when: &str, held: Vec<(usize, usize, usize, bool, usize)>| {
                for (c, e, o, selected, bytes) in held {
                    assert_eq!(
                        selected,
                        bytes > 0,
                        "{when}: cell {c} edge {e} op {o}: {bytes} B"
                    );
                }
            };
        // every edge changes operation, and both kinds keep a cache
        let sep = ArchMask::all_op(&config, OpKind::SepConv3x3);
        let pool = ArchMask::all_op(&config, OpKind::MaxPool3x3);
        only_the_selection_holds("first mask", train(&mut net, &sep));
        only_the_selection_holds("mask change", train(&mut net, &pool));
        let uniform = vec![vec![1.0 / NUM_OPS as f32; NUM_OPS]; config.topology().num_edges()];
        net.forward_mixed(&x, &[uniform.clone(), uniform], Mode::Train);
        only_the_selection_holds("after a mixed forward", train(&mut net, &sep));
        for step in 0..20 {
            let mask = ArchMask::uniform_random(&config, &mut rng);
            for (c, e, o, selected, bytes) in train(&mut net, &mask) {
                assert!(
                    selected || bytes == 0,
                    "step {step}: cell {c} edge {e} op {o}: {bytes} B"
                );
            }
        }
    }

    #[test]
    fn submodel_is_smaller_than_supernet() {
        let (mut net, mask, _) = tiny_net(2);
        let sub_bytes = net.submodel_bytes(&mask);
        let full_bytes = net.param_bytes();
        assert!(
            sub_bytes < full_bytes,
            "sub {sub_bytes} vs full {full_bytes}"
        );
    }

    #[test]
    fn submodel_forward_matches_masked_supernet() {
        let (mut net, mask, mut rng) = tiny_net(3);
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        let from_super = net.forward_masked(&x, &mask, Mode::Eval);
        let mut sub = net.extract_submodel(&mask);
        let from_sub = sub.forward(&x, Mode::Eval);
        for (a, b) in from_super.as_slice().iter().zip(from_sub.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn grad_merge_matches_direct_backward() {
        let (mut net, mask, mut rng) = tiny_net(4);
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        // Path A: backward directly on the supernet.
        let logits = net.forward_masked(&x, &mask, Mode::Train);
        net.backward_masked(&Tensor::ones(logits.dims()));
        let mut direct: Vec<Tensor> = Vec::new();
        net.visit_params(&mut |p| direct.push(p.grad.clone()));
        net.zero_grad();
        // Path B: extract sub-model, backward there, merge.
        let mut sub = net.extract_submodel(&mask);
        let sub_logits = sub.forward(&x, Mode::Train);
        sub.backward(&Tensor::ones(sub_logits.dims()));
        net.accumulate_submodel_grads(&mut sub);
        let mut merged: Vec<Tensor> = Vec::new();
        net.visit_params(&mut |p| merged.push(p.grad.clone()));
        assert_eq!(direct.len(), merged.len());
        let mut max_err = 0.0f32;
        for (a, b) in direct.iter().zip(merged.iter()) {
            for (x1, x2) in a.as_slice().iter().zip(b.as_slice()) {
                max_err = max_err.max((x1 - x2).abs());
            }
        }
        assert!(max_err < 1e-3, "merged grads differ by {max_err}");
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Training in place on a supernet is the extracted sub-model's step,
    /// bit for bit. One supernet is trained on a sequence of random masks,
    /// so operations are released and picked up again and the rest run on
    /// warm caches; for each, a sub-model extracted from an untrained
    /// supernet is filled from the same flat vectors (through the layout's
    /// ranges, as a download is) and trained on the same batch. Logits,
    /// loss, gradients in visit order and the updated BatchNorm buffers
    /// must have the same bits, and merging the sub-model's gradients into
    /// a zeroed supernet must put the same values in the same slots.
    #[test]
    fn training_in_place_matches_the_extracted_submodel_bit_for_bit() {
        use fedrlnas_nn::CrossEntropy;
        const BATCH: usize = 4;
        for config in [SupernetConfig::tiny(), SupernetConfig::small()] {
            let mut rng = StdRng::seed_from_u64(3);
            let mut source = Supernet::new(config.clone(), &mut rng);
            let mut resident = Supernet::new(config.clone(), &mut rng);
            let layout = source.layout().clone();
            let hw = config.image_hw;
            for step in 0..6 {
                let mask = ArchMask::uniform_random(&config, &mut rng);
                let theta = Tensor::randn(&[layout.param_len()], 0.3, &mut rng);
                let running = Tensor::rand_uniform(&[layout.buffer_len()], 0.5, 1.5, &mut rng);
                let gather = |flat: &Tensor, ranges: Vec<(usize, usize)>| -> Vec<f32> {
                    ranges
                        .into_iter()
                        .flat_map(|(off, len)| flat.as_slice()[off..off + len].to_vec())
                        .collect()
                };
                let weights = gather(&theta, layout.param_ranges(&mask).collect());
                let buffers = gather(&running, layout.buffer_ranges(&mask).collect());
                let x = Tensor::randn(&[BATCH, config.input_channels, hw, hw], 1.0, &mut rng);
                let y: Vec<usize> = (0..BATCH).map(|_| rng.gen_range(0..10)).collect();

                let mut ce = CrossEntropy::new();
                let mut sub = source.extract_submodel(&mask);
                let (mut w, mut b) = (weights.iter().copied(), buffers.iter().copied());
                sub.visit_params(&mut |p| p.value.as_mut_slice().fill_with(|| w.next().unwrap()));
                sub.visit_buffers(&mut |s| s.fill_with(|| b.next().unwrap()));
                sub.zero_grad();
                let logits = sub.forward(&x, Mode::Train);
                let loss = ce.forward(&logits, &y).loss;
                sub.backward(&ce.backward());
                let (mut grads, mut stats) = (Vec::new(), Vec::new());
                sub.visit_params(&mut |p| grads.extend(bits(p.grad.as_slice())));
                sub.visit_buffers(&mut |s| stats.extend(bits(s)));
                let extracted = (bits(logits.as_slice()), loss.to_bits(), grads, stats);

                let (mut w, mut b) = (weights.iter().copied(), buffers.iter().copied());
                resident.visit_masked_params(&mask, &mut |p| {
                    p.value.as_mut_slice().fill_with(|| w.next().unwrap());
                    p.zero_grad();
                });
                resident.visit_masked_buffers(&mask, &mut |s| s.fill_with(|| b.next().unwrap()));
                let logits = resident.forward_masked(&x, &mask, Mode::Train);
                let loss = ce.forward(&logits, &y).loss;
                resident.backward_masked(&ce.backward());
                let (mut grads, mut stats) = (Vec::new(), Vec::new());
                resident.visit_masked_params(&mask, &mut |p| grads.extend(bits(p.grad.as_slice())));
                resident.visit_masked_buffers(&mask, &mut |s| stats.extend(bits(s)));
                let in_place = (bits(logits.as_slice()), loss.to_bits(), grads, stats);
                assert!(
                    extracted == in_place,
                    "{config:?} step {step}: in place ≠ extracted"
                );

                source.zero_grad();
                source.accumulate_submodel_grads(&mut sub);
                let (mut merged, mut direct) = (Vec::new(), Vec::new());
                source.visit_masked_params(&mask, &mut |p| merged.push(p.grad.clone()));
                resident.visit_masked_params(&mask, &mut |p| direct.push(p.grad.clone()));
                assert_eq!(merged, direct, "{config:?} step {step}: merged gradients");
            }
        }
    }

    #[test]
    fn mixed_forward_runs_and_weights_grad_shapes() {
        let (mut net, _, mut rng) = tiny_net(5);
        let edges = net.config().topology().num_edges();
        let uniform = vec![vec![1.0 / NUM_OPS as f32; NUM_OPS]; edges];
        let weights = [uniform.clone(), uniform];
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        let logits = net.forward_mixed(&x, &weights, Mode::Train);
        assert_eq!(logits.dims(), &[2, 10]);
        let dw = net.backward_mixed(&Tensor::ones(logits.dims()));
        assert_eq!(dw[0].len(), edges);
        assert_eq!(dw[0][0].len(), NUM_OPS);
        // some alpha gradient must be non-zero
        let total: f32 = dw
            .iter()
            .flat_map(|t| t.iter().flat_map(|e| e.iter()))
            .map(|v| v.abs())
            .sum();
        assert!(total > 0.0);
    }

    /// The layout table's ordering guarantee on every preset: for random
    /// masks, its ranges over the flat vectors are the extracted
    /// sub-model's parameters and buffers, tensor by tensor, in the
    /// sub-model's own visit order — and its count is their sum.
    #[test]
    fn param_ranges_reconstruct_submodel_weights() {
        for config in [
            SupernetConfig::tiny(),
            SupernetConfig::small(),
            SupernetConfig::paper(),
        ] {
            let mut rng = StdRng::seed_from_u64(7);
            let mut net = Supernet::new(config.clone(), &mut rng);
            // fresh BatchNorm statistics are all 0 or 1: number them, so a
            // range pointing at the wrong buffer cannot pass
            let mut next = 0.0f32;
            net.visit_buffers(&mut |b| {
                for v in b {
                    *v = next;
                    next += 1.0;
                }
            });
            let (theta, buffers) = (net.flat_params(), net.flat_buffers());
            assert_eq!(theta.len(), net.layout().param_len());
            assert_eq!(buffers.len(), net.layout().buffer_len());
            assert_eq!(buffers.len(), next as usize);
            for _ in 0..200 {
                let mask = ArchMask::uniform_random(&config, &mut rng);
                let mut sub = net.extract_submodel(&mask);
                let mut sub_params: Vec<Vec<f32>> = Vec::new();
                sub.visit_params(&mut |p| sub_params.push(p.value.as_slice().to_vec()));
                let mut sub_buffers: Vec<Vec<f32>> = Vec::new();
                sub.visit_buffers(&mut |b| sub_buffers.push(b.to_vec()));
                let gather = |flat: &[f32], ranges: Vec<(usize, usize)>| -> Vec<Vec<f32>> {
                    ranges
                        .into_iter()
                        .map(|(off, len)| flat[off..off + len].to_vec())
                        .collect()
                };
                assert_eq!(gather(&theta, net.submodel_param_ranges(&mask)), sub_params);
                assert_eq!(
                    gather(&buffers, net.layout().buffer_ranges(&mask).collect()),
                    sub_buffers
                );
                // and the in-place visitors walk the same tensors in place
                let mut masked_params: Vec<Vec<f32>> = Vec::new();
                net.visit_masked_params(&mask, &mut |p| {
                    masked_params.push(p.value.as_slice().to_vec())
                });
                assert_eq!(masked_params, sub_params);
                let mut masked_buffers: Vec<Vec<f32>> = Vec::new();
                net.visit_masked_buffers(&mask, &mut |b| masked_buffers.push(b.to_vec()));
                assert_eq!(masked_buffers, sub_buffers);
                assert_eq!(
                    net.submodel_param_count(&mask),
                    sub_params.iter().map(Vec::len).sum::<usize>()
                );
            }
        }
    }

    /// The walk `flops_masked` was before the layout table answered it:
    /// shapes threaded through the selected operations only.
    fn flops_by_walk(net: &Supernet, mask: &ArchMask) -> u64 {
        let mut shape = vec![
            net.config.input_channels,
            net.config.image_hw,
            net.config.image_hw,
        ];
        let mut total = net.net.stem_conv.flops(&shape);
        shape = net.net.stem_conv.output_shape(&shape);
        total += net.net.stem_bn.flops(&shape);
        let mut s0 = shape.clone();
        let mut s1 = shape;
        for cell in &net.net.cells {
            let ops = mask.ops(cell.kind);
            let [pre0, pre1] = &cell.pre;
            let pre_out = pre1.output_shape(&s1);
            total += pre0.flops(&s0) + pre1.flops(&s1);
            // Every edge's op runs once on a node state of pre_out shape
            // (strided edges see the full-resolution input states).
            let mut node_shape = pre_out.clone();
            for (e, edge) in cell.edges.iter().enumerate() {
                let op = &edge.ops[ops[e]];
                total += op.flops(&pre_out);
                node_shape = op.output_shape(&pre_out);
            }
            let out_c = cell.channels * cell.nodes;
            s0 = s1;
            s1 = vec![out_c, node_shape[1], node_shape[2]];
        }
        total += net.net.classifier.flops(&s1);
        total
    }

    #[test]
    fn flops_table_matches_the_shape_walk() {
        for config in [
            SupernetConfig::tiny(),
            SupernetConfig::small(),
            SupernetConfig::paper(),
        ] {
            let mut rng = StdRng::seed_from_u64(11);
            let net = Supernet::new(config.clone(), &mut rng);
            for _ in 0..200 {
                let mask = ArchMask::uniform_random(&config, &mut rng);
                assert_eq!(net.flops_masked(&mask), flops_by_walk(&net, &mask));
            }
        }
    }

    #[test]
    fn flops_masked_positive_and_mask_dependent() {
        let (net, mask, mut rng) = tiny_net(6);
        let f1 = net.flops_masked(&mask);
        assert!(f1 > 0);
        // an all-zero mask (every edge = Zero op) has strictly fewer flops
        let zero_mask = ArchMask::all_op(net.config(), OpKind::Zero);
        let f0 = net.flops_masked(&zero_mask);
        assert!(
            f0 < f1 || {
                // extremely unlikely: random mask chose all zeros
                let m2 = ArchMask::uniform_random(net.config(), &mut rng);
                net.flops_masked(&m2) > f0
            }
        );
    }
}
