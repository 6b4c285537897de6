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

use crate::cell::{dag_backward, dag_forward, CellKind, CellTopology, EdgeRun};
use crate::layout::SupernetLayout;
use crate::ops::{CandidateOp, OpKind, ReluConvBn, NUM_OPS};
use crate::submodel::{ArchMask, SubCell, SubModel};
use fedrlnas_nn::{BatchNorm2d, Conv2d, GlobalAvgPool, Layer, Linear, Mode, Param};
use fedrlnas_tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Structural hyperparameters of the supernet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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

/// One cell of the supernet holding all `N` candidate operations per edge.
pub(crate) struct SuperCell {
    pub(crate) kind: CellKind,
    pub(crate) topology: CellTopology,
    pub(crate) pre0: ReluConvBn,
    pub(crate) pre1: ReluConvBn,
    /// `edges[e][o]`: operation `o` on edge `e`.
    pub(crate) edges: Vec<Vec<CandidateOp>>,
    pub(crate) channels: usize,
    // Mixed-mode cache: per edge, per op, the op output of the last forward.
    mixed_outputs: Vec<Vec<Tensor>>,
    mixed_weights: Vec<Vec<f32>>,
    pre_out_dims: (Vec<usize>, Vec<usize>),
}

impl SuperCell {
    fn new<R: Rng + ?Sized>(
        kind: CellKind,
        topology: CellTopology,
        c_prev_prev: usize,
        c_prev: usize,
        channels: usize,
        prev_is_reduction: bool,
        rng: &mut R,
    ) -> Self {
        let pre0 = ReluConvBn::new(
            c_prev_prev,
            channels,
            if prev_is_reduction { 2 } else { 1 },
            rng,
        );
        let pre1 = ReluConvBn::new(c_prev, channels, 1, rng);
        let mut edges = Vec::with_capacity(topology.num_edges());
        for e in 0..topology.num_edges() {
            let stride = if kind == CellKind::Reduction && topology.edge_from_input(e) {
                2
            } else {
                1
            };
            let ops = OpKind::ALL
                .iter()
                .map(|&k| CandidateOp::build(k, channels, stride, rng))
                .collect();
            edges.push(ops);
        }
        SuperCell {
            kind,
            topology,
            pre0,
            pre1,
            edges,
            channels,
            mixed_outputs: Vec::new(),
            mixed_weights: Vec::new(),
            pre_out_dims: (Vec::new(), Vec::new()),
        }
    }

    /// Forward with one op per edge chosen by `mask` (indices into
    /// [`OpKind::ALL`]).
    fn forward_masked(&mut self, ops: &[usize], s0: &Tensor, s1: &Tensor, mode: Mode) -> Tensor {
        let topo = self.topology;
        let mut runs: Vec<EdgeRun<'_>> = Vec::with_capacity(topo.num_edges());
        // Borrow-splitting: iterate edges mutably in order.
        for (e, edge_ops) in self.edges.iter_mut().enumerate() {
            let (src, dst) = topo.edge_endpoints(e);
            runs.push(EdgeRun {
                src,
                dst,
                op: &mut edge_ops[ops[e]],
            });
        }
        let out = dag_forward(
            &mut self.pre0,
            &mut self.pre1,
            &mut runs,
            topo.nodes(),
            s0,
            s1,
            mode,
        );
        self.pre_out_dims = (
            {
                let mut d = s0.dims().to_vec();
                let o = self.pre0.output_shape(&d[1..]);
                d.truncate(1);
                d.extend(o);
                d
            },
            {
                let mut d = s1.dims().to_vec();
                let o = self.pre1.output_shape(&d[1..]);
                d.truncate(1);
                d.extend(o);
                d
            },
        );
        out
    }

    fn backward_masked(&mut self, ops: &[usize], grad_out: &Tensor) -> (Tensor, Tensor) {
        let topo = self.topology;
        let mut runs: Vec<EdgeRun<'_>> = Vec::with_capacity(topo.num_edges());
        for (e, edge_ops) in self.edges.iter_mut().enumerate() {
            let (src, dst) = topo.edge_endpoints(e);
            runs.push(EdgeRun {
                src,
                dst,
                op: &mut edge_ops[ops[e]],
            });
        }
        dag_backward(
            &mut self.pre0,
            &mut self.pre1,
            &mut runs,
            topo.nodes(),
            self.channels,
            (&self.pre_out_dims.0, &self.pre_out_dims.1),
            grad_out,
        )
    }

    /// Mixed (DARTS-style) forward: each edge outputs the weighted sum of
    /// all ops. `weights[e]` holds `N` softmax probabilities.
    fn forward_mixed(
        &mut self,
        weights: &[Vec<f32>],
        s0: &Tensor,
        s1: &Tensor,
        mode: Mode,
    ) -> Tensor {
        let topo = self.topology;
        let nodes = topo.nodes();
        let mut states: Vec<Option<Tensor>> = Vec::with_capacity(2 + nodes);
        states.push(Some(self.pre0.forward(s0, mode)));
        states.push(Some(self.pre1.forward(s1, mode)));
        states.resize_with(2 + nodes, || None);
        self.pre_out_dims = (
            states[0].as_ref().expect("set above").dims().to_vec(),
            states[1].as_ref().expect("set above").dims().to_vec(),
        );
        self.mixed_outputs = Vec::with_capacity(topo.num_edges());
        self.mixed_weights = weights.to_vec();
        for (e, edge_ops) in self.edges.iter_mut().enumerate() {
            let (src, dst) = topo.edge_endpoints(e);
            let input = states[src].as_ref().expect("sorted by dst").clone();
            let mut mix: Option<Tensor> = None;
            let mut outs = Vec::with_capacity(NUM_OPS);
            for (o, op) in edge_ops.iter_mut().enumerate() {
                let y = op.forward(&input, mode);
                let scaled = y.scaled(weights[e][o]);
                match &mut mix {
                    Some(acc) => acc.add_assign(&scaled).expect("op outputs share shape"),
                    m @ None => *m = Some(scaled),
                }
                outs.push(y);
            }
            self.mixed_outputs.push(outs);
            let mix = mix.expect("at least one op per edge");
            match &mut states[dst] {
                Some(acc) => acc.add_assign(&mix).expect("edge outputs share shape"),
                slot @ None => *slot = Some(mix),
            }
        }
        let parts: Vec<&Tensor> = states[2..]
            .iter()
            .map(|s| s.as_ref().expect("every node has incoming edges"))
            .collect();
        crate::cell::concat_channels(&parts).expect("consistent node shapes")
    }

    /// Mixed backward; returns input gradients and `d loss / d weights`
    /// per edge and op.
    fn backward_mixed(&mut self, grad_out: &Tensor) -> (Tensor, Tensor, Vec<Vec<f32>>) {
        let topo = self.topology;
        let nodes = topo.nodes();
        let node_grads = crate::cell::split_channels(grad_out, self.channels)
            .expect("grad matches concat layout");
        let mut d_states: Vec<Option<Tensor>> = vec![None; 2 + nodes];
        for (i, g) in node_grads.into_iter().enumerate() {
            d_states[2 + i] = Some(g);
        }
        let mut d_weights = vec![vec![0.0f32; NUM_OPS]; topo.num_edges()];
        for e in (0..self.edges.len()).rev() {
            let (src, dst) = topo.edge_endpoints(e);
            let g = d_states[dst]
                .as_ref()
                .expect("reverse topological order")
                .clone();
            for (o, op) in self.edges[e].iter_mut().enumerate() {
                // dL/dw_eo = <g, op_out>; dL/dx via op with weight applied.
                d_weights[e][o] = g
                    .dot(&self.mixed_outputs[e][o])
                    .expect("cached output matches gradient shape");
                let dx = op.backward(&g.scaled(self.mixed_weights[e][o]));
                match &mut d_states[src] {
                    Some(acc) => acc.add_assign(&dx).expect("shared input shape"),
                    slot @ None => *slot = Some(dx),
                }
            }
        }
        let d0 = d_states[0]
            .take()
            .unwrap_or_else(|| Tensor::zeros(&self.pre_out_dims.0));
        let d1 = d_states[1]
            .take()
            .unwrap_or_else(|| Tensor::zeros(&self.pre_out_dims.1));
        self.mixed_outputs.clear();
        (self.pre0.backward(&d0), self.pre1.backward(&d1), d_weights)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.pre0.visit_params(f);
        self.pre1.visit_params(f);
        for edge in &mut self.edges {
            for op in edge {
                op.visit_params(f);
            }
        }
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        self.pre0.visit_buffers(f);
        self.pre1.visit_buffers(f);
        for edge in &mut self.edges {
            for op in edge {
                op.visit_buffers(f);
            }
        }
    }
}

/// The weight-sharing supernet: stem → cells → global pool → classifier.
pub struct Supernet {
    config: SupernetConfig,
    stem_conv: Conv2d,
    stem_bn: BatchNorm2d,
    cells: Vec<SuperCell>,
    gap: GlobalAvgPool,
    classifier: Linear,
    /// Where every unit's tensors sit in the flat vectors; fixed at
    /// construction because the structure never changes.
    layout: SupernetLayout,
    last_mask: Option<ArchMask>,
    last_mixed: bool,
}

impl std::fmt::Debug for Supernet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Supernet({} cells, {} edges/cell, C={})",
            self.cells.len(),
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
        let stem_c = config.init_channels * config.stem_multiplier;
        let mut stem_conv = Conv2d::new(config.input_channels, stem_c, 3, 1, 1, 1, 1, rng);
        let mut stem_bn = BatchNorm2d::new(stem_c);
        let mut cells = Vec::with_capacity(config.num_cells);
        let mut c_prev_prev = stem_c;
        let mut c_prev = stem_c;
        let mut c_cur = config.init_channels;
        let mut prev_is_reduction = false;
        for i in 0..config.num_cells {
            let kind = config.cell_kind(i);
            if kind == CellKind::Reduction {
                c_cur *= 2;
            }
            let cell = SuperCell::new(
                kind,
                topology,
                c_prev_prev,
                c_prev,
                c_cur,
                prev_is_reduction,
                rng,
            );
            prev_is_reduction = kind == CellKind::Reduction;
            c_prev_prev = c_prev;
            c_prev = c_cur * topology.nodes();
            cells.push(cell);
        }
        let mut classifier = Linear::new(c_prev, config.num_classes, rng);
        let layout = SupernetLayout::of(
            &config,
            &mut stem_conv,
            &mut stem_bn,
            &mut cells,
            &mut classifier,
        );
        Supernet {
            config,
            stem_conv,
            stem_bn,
            cells,
            gap: GlobalAvgPool::new(),
            classifier,
            layout,
            last_mask: None,
            last_mixed: false,
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
        let stem = self.stem_bn.forward(&self.stem_conv.forward(x, mode), mode);
        let mut s0 = stem.clone();
        let mut s1 = stem;
        for cell in &mut self.cells {
            let ops = mask.ops(cell.kind);
            let out = cell.forward_masked(ops, &s0, &s1, mode);
            s0 = s1;
            s1 = out;
        }
        let pooled = self.gap.forward(&s1, mode);
        let logits = self.classifier.forward(&pooled, mode);
        self.last_mask = Some(mask.clone());
        self.last_mixed = false;
        logits
    }

    /// Releases the edge operations the last forward ran that `mask` does
    /// not select: after a masked forward the previous mask's, after a
    /// mixed one every operation outside `mask`.
    fn release_unselected(&mut self, mask: &ArchMask) {
        let (last, mixed) = (self.last_mask.as_ref(), self.last_mixed);
        if last.is_none() && !mixed {
            return; // nothing has run since construction
        }
        for cell in &mut self.cells {
            let ops = mask.ops(cell.kind);
            for (e, edge_ops) in cell.edges.iter_mut().enumerate() {
                for (o, op) in edge_ops.iter_mut().enumerate() {
                    let ran = mixed || last.is_some_and(|m| m.ops(cell.kind)[e] == o);
                    if ran && o != ops[e] {
                        op.release();
                    }
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
        let mask = match self.last_mask.take() {
            Some(mask) if !self.last_mixed => mask,
            _ => panic!("backward_masked requires a preceding forward_masked"),
        };
        let g = self.classifier.backward(grad_logits);
        let g = self.gap.backward(&g);
        self.backward_through_cells(g, |cell, grad| {
            cell.backward_masked(mask.ops(cell.kind), grad)
        });
        self.last_mask = Some(mask);
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
        let stem = self.stem_bn.forward(&self.stem_conv.forward(x, mode), mode);
        let mut s0 = stem.clone();
        let mut s1 = stem;
        for cell in &mut self.cells {
            let w = &weights[cell.kind.index()];
            let out = cell.forward_mixed(w, &s0, &s1, mode);
            s0 = s1;
            s1 = out;
        }
        let pooled = self.gap.forward(&s1, mode);
        let logits = self.classifier.forward(&pooled, mode);
        self.last_mixed = true;
        self.last_mask = None;
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
        assert!(self.last_mixed, "backward_mixed requires forward_mixed");
        let edges = self.config.topology().num_edges();
        let mut d_weights = [
            vec![vec![0.0f32; NUM_OPS]; edges],
            vec![vec![0.0f32; NUM_OPS]; edges],
        ];
        let g = self.classifier.backward(grad_logits);
        let g = self.gap.backward(&g);
        let acc = std::cell::RefCell::new(&mut d_weights);
        self.backward_through_cells(g, |cell, grad| {
            let (d0, d1, dw) = cell.backward_mixed(grad);
            let mut table = acc.borrow_mut();
            for (e, per_op) in dw.into_iter().enumerate() {
                for (o, v) in per_op.into_iter().enumerate() {
                    table[cell.kind.index()][e][o] += v;
                }
            }
            (d0, d1)
        });
        d_weights
    }

    /// Shared reverse pass through the cell chain and the stem. `cell_back`
    /// runs one cell's backward and returns `(d s0, d s1)`.
    fn backward_through_cells(
        &mut self,
        d_last: Tensor,
        mut cell_back: impl FnMut(&mut SuperCell, &Tensor) -> (Tensor, Tensor),
    ) {
        let l = self.cells.len();
        // grads[i] = gradient of the output of cell i; slots l and l+1 are
        // the two virtual stem states (s_{-2}, s_{-1}).
        let mut grads: Vec<Option<Tensor>> = vec![None; l + 2];
        let idx = |i: isize| -> usize {
            if i >= 0 {
                i as usize
            } else {
                (l as isize - 1 - i) as usize // -1 -> l, -2 -> l+1
            }
        };
        grads[idx(l as isize - 1)] = Some(d_last);
        for i in (0..l).rev() {
            let g = grads[i]
                .take()
                .expect("every cell output has a consumer gradient");
            let (d0, d1) = cell_back(&mut self.cells[i], &g);
            for (offset, d) in [(i as isize - 2, d0), (i as isize - 1, d1)] {
                let slot = &mut grads[idx(offset)];
                match slot {
                    Some(acc) => acc.add_assign(&d).expect("state shapes agree"),
                    None => *slot = Some(d),
                }
            }
        }
        let mut d_stem = grads[idx(-1)].take().expect("stem feeds cell 0");
        if let Some(d2) = grads[idx(-2)].take() {
            d_stem.add_assign(&d2).expect("stem grads share shape");
        }
        let g = self.stem_bn.backward(&d_stem);
        self.stem_conv.backward(&g);
    }

    /// Visits every parameter of the supernet (stem, all cells, classifier)
    /// in a stable structural order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.stem_conv.visit_params(f);
        self.stem_bn.visit_params(f);
        for cell in &mut self.cells {
            cell.visit_params(f);
        }
        self.classifier.visit_params(f);
    }

    /// Visits every non-trainable buffer (BatchNorm running statistics) of
    /// the supernet in the same structural order as
    /// [`Supernet::visit_params`].
    pub fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        self.stem_conv.visit_buffers(f);
        self.stem_bn.visit_buffers(f);
        for cell in &mut self.cells {
            cell.visit_buffers(f);
        }
        self.classifier.visit_buffers(f);
    }

    /// Calls `f` on every unit `mask` selects — stem, stem BatchNorm, each
    /// cell's two preprocessors and its selected operation per edge, the
    /// classifier — in [`Supernet::visit_params`] order.
    ///
    /// # Panics
    ///
    /// Panics if `mask` has fewer edges than a cell.
    fn visit_masked(&mut self, mask: &ArchMask, f: &mut dyn FnMut(&mut dyn Layer)) {
        f(&mut self.stem_conv);
        f(&mut self.stem_bn);
        for cell in &mut self.cells {
            f(&mut cell.pre0);
            f(&mut cell.pre1);
            let ops = mask.ops(cell.kind);
            for (e, edge_ops) in cell.edges.iter_mut().enumerate() {
                f(&mut edge_ops[ops[e]]);
            }
        }
        f(&mut self.classifier);
    }

    /// Visits the parameters of the sub-model `mask` selects, in place:
    /// the order of [`SubModel::visit_params`] on `extract_submodel(mask)`
    /// and of [`SupernetLayout::param_ranges`].
    ///
    /// # Panics
    ///
    /// Panics if `mask` has fewer edges than a cell.
    pub fn visit_masked_params(&mut self, mask: &ArchMask, f: &mut dyn FnMut(&mut Param)) {
        self.visit_masked(mask, &mut |unit| unit.visit_params(f));
    }

    /// Visits the BatchNorm buffers of the sub-model `mask` selects, in
    /// place, in [`SupernetLayout::buffer_ranges`] order.
    ///
    /// # Panics
    ///
    /// Panics if `mask` has fewer edges than a cell.
    pub fn visit_masked_buffers(&mut self, mask: &ArchMask, f: &mut dyn FnMut(&mut [f32])) {
        self.visit_masked(mask, &mut |unit| unit.visit_buffers(f));
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
        let cells = self
            .cells
            .iter()
            .map(|cell| {
                let ops = mask.ops(cell.kind);
                SubCell {
                    kind: cell.kind,
                    topology: cell.topology,
                    pre0: cell.pre0.clone(),
                    pre1: cell.pre1.clone(),
                    ops: cell
                        .edges
                        .iter()
                        .enumerate()
                        .map(|(e, edge_ops)| edge_ops[ops[e]].clone())
                        .collect(),
                    channels: cell.channels,
                    pre_out_dims: (Vec::new(), Vec::new()),
                }
            })
            .collect();
        SubModel::from_parts(
            mask.clone(),
            self.stem_conv.clone(),
            self.stem_bn.clone(),
            cells,
            self.classifier.clone(),
            self.config.clone(),
        )
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
        for (c, cell) in net.cells.iter().enumerate() {
            let ops = mask.ops(cell.kind);
            for (e, edge_ops) in cell.edges.iter().enumerate() {
                for (o, op) in edge_ops.iter().enumerate() {
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
        let mut total = net.stem_conv.flops(&shape);
        shape = net.stem_conv.output_shape(&shape);
        total += net.stem_bn.flops(&shape);
        let mut s0 = shape.clone();
        let mut s1 = shape;
        for cell in &net.cells {
            let ops = mask.ops(cell.kind);
            let pre_out = cell.pre1.output_shape(&s1);
            total += cell.pre0.flops(&s0) + cell.pre1.flops(&s1);
            // Every edge's op runs once on a node state of pre_out shape
            // (strided edges see the full-resolution input states).
            let mut node_shape = pre_out.clone();
            for (e, edge_ops) in cell.edges.iter().enumerate() {
                let op = &edge_ops[ops[e]];
                total += op.flops(&pre_out);
                node_shape = op.output_shape(&pre_out);
            }
            let out_c = cell.channels * cell.topology.nodes();
            s0 = s1;
            s1 = vec![out_c, node_shape[1], node_shape[2]];
        }
        total += net.classifier.flops(&s1);
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
