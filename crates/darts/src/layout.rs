//! Where every structural unit of the supernet keeps its weights, and what
//! a forward pass through it costs.
//!
//! The supernet's parameters flatten into one vector θ in
//! [`Supernet::visit_params`](crate::Supernet::visit_params) order, and its
//! BatchNorm running statistics into another in
//! [`Supernet::visit_buffers`](crate::Supernet::visit_buffers) order. A
//! sub-model is a subset of the supernet's units — the stem, every cell's
//! two preprocessors, one operation per edge, the classifier — visited in
//! the same relative order, so "the sub-model `mask` selects" is a list of
//! ranges into those two vectors. The table is built once, in
//! [`Supernet::new`](crate::Supernet::new), because the structure never
//! changes afterwards; sizing a sub-model, pruning a stored θ snapshot or
//! filling a download frame then needs neither a clone of any layer nor a
//! walk over the operations the mask did not pick. The same holds for a
//! unit's multiply–accumulate count: the shape each unit sees is fixed by
//! the structure, so the cost model's per-mask FLOPs are a sum over the
//! table too.

use crate::cell::CellKind;
use crate::submodel::ArchMask;
use crate::supernet::{SuperCell, SupernetConfig};
use fedrlnas_nn::Layer;

/// One structural unit (a layer): the `(offset, len)` range of each of its
/// parameter tensors in the flat θ and of each of its buffers in the flat
/// buffer vector, in the unit's own visit order, plus the multiply–
/// accumulates of one forward pass per sample on the shape it sees.
#[derive(Debug, Clone, Default)]
struct Block {
    params: Vec<(usize, usize)>,
    buffers: Vec<(usize, usize)>,
    param_count: usize,
    buffer_count: usize,
    flops: u64,
}

/// A cell's always-shipped preprocessors and its `[edge][op]` candidates.
#[derive(Debug, Clone)]
struct CellBlocks {
    kind: CellKind,
    pre: [Block; 2],
    ops: Vec<Vec<Block>>,
}

/// The supernet's layout table: for the stem, each cell's preprocessors,
/// every `(cell, edge, op)` and the classifier, where its parameters sit in
/// the flat θ and where its BatchNorm buffers sit in the flat buffer
/// vector.
///
/// **Ordering guarantee.** For any mask, the concatenation of
/// [`param_ranges`](Self::param_ranges) over the supernet's flat θ is the
/// extracted sub-model's parameters in
/// [`SubModel::visit_params`](crate::SubModel::visit_params) order, and the
/// concatenation of [`buffer_ranges`](Self::buffer_ranges) over the flat
/// buffers is its [`SubModel::visit_buffers`](crate::SubModel::visit_buffers)
/// order — one range per tensor, never merged, so consumers that work
/// range by range see what they always saw.
#[derive(Debug, Clone, Default)]
pub struct SupernetLayout {
    /// Stem convolution, stem BatchNorm.
    stem: [Block; 2],
    cells: Vec<CellBlocks>,
    classifier: Block,
    param_len: usize,
    buffer_len: usize,
}

impl SupernetLayout {
    /// Walks the supernet's units in [`Supernet::visit_params`] order and
    /// records where each one's tensors land and what it costs on the
    /// shape it sees. The shapes follow the cost model's convention: every
    /// edge of a cell is charged on the preprocessors' output shape.
    ///
    /// [`Supernet::visit_params`]: crate::Supernet::visit_params
    pub(crate) fn of(
        config: &SupernetConfig,
        stem_conv: &mut dyn Layer,
        stem_bn: &mut dyn Layer,
        cells: &mut [SuperCell],
        classifier: &mut dyn Layer,
    ) -> Self {
        let mut layout = SupernetLayout::default();
        let image = [config.input_channels, config.image_hw, config.image_hw];
        let stem_out = stem_conv.output_shape(&image);
        layout.stem = [
            layout.append(stem_conv, &image),
            layout.append(stem_bn, &stem_out),
        ];
        let (mut s0, mut s1) = (stem_out.clone(), stem_out);
        for cell in cells {
            let pre_out = cell.pre1.output_shape(&s1);
            let pre = [
                layout.append(&mut cell.pre0, &s0),
                layout.append(&mut cell.pre1, &s1),
            ];
            let ops = cell
                .edges
                .iter_mut()
                .map(|edge| {
                    edge.iter_mut()
                        .map(|op| layout.append(op, &pre_out))
                        .collect()
                })
                .collect();
            layout.cells.push(CellBlocks {
                kind: cell.kind,
                pre,
                ops,
            });
            // every candidate on an edge maps its input to the same shape
            // (their outputs are summed), so any one of them gives the
            // cell's output extent
            let node = cell.edges.last().expect("a cell has edges")[0].output_shape(&pre_out);
            s0 = s1;
            s1 = vec![cell.channels * cell.topology.nodes(), node[1], node[2]];
        }
        layout.classifier = layout.append(classifier, &s1);
        layout
    }

    /// The next unit in visit order, advancing both running offsets past
    /// it; `input` is the per-sample `[c, h, w]` shape it is charged on.
    fn append(&mut self, layer: &mut dyn Layer, input: &[usize]) -> Block {
        let mut block = Block {
            flops: layer.flops(input),
            ..Block::default()
        };
        layer.visit_params(&mut |p| {
            block.params.push((self.param_len, p.len()));
            block.param_count += p.len();
            self.param_len += p.len();
        });
        layer.visit_buffers(&mut |b| {
            block.buffers.push((self.buffer_len, b.len()));
            block.buffer_count += b.len();
            self.buffer_len += b.len();
        });
        block
    }

    /// Length of the supernet's flat parameter vector θ.
    pub fn param_len(&self) -> usize {
        self.param_len
    }

    /// Length of the supernet's flat BatchNorm-buffer vector.
    pub fn buffer_len(&self) -> usize {
        self.buffer_len
    }

    /// The units `mask` selects, in sub-model visit order.
    ///
    /// # Panics
    ///
    /// The iterator panics if `mask` has fewer edges than a cell.
    fn blocks<'a>(&'a self, mask: &'a ArchMask) -> impl Iterator<Item = &'a Block> + Clone + 'a {
        let cells = self.cells.iter().flat_map(move |cell| {
            let chosen = mask.ops(cell.kind);
            cell.pre.iter().chain(
                cell.ops
                    .iter()
                    .enumerate()
                    .map(move |(e, edge_ops)| &edge_ops[chosen[e]]),
            )
        });
        self.stem
            .iter()
            .chain(cells)
            .chain(std::iter::once(&self.classifier))
    }

    /// Number of parameter scalars in the sub-model `mask` selects.
    pub fn submodel_param_count(&self, mask: &ArchMask) -> usize {
        self.blocks(mask).map(|b| b.param_count).sum()
    }

    /// Multiply–accumulate count of one forward pass per sample through
    /// the sub-model `mask` selects.
    pub fn submodel_flops(&self, mask: &ArchMask) -> u64 {
        self.blocks(mask).map(|b| b.flops).sum()
    }

    /// Number of BatchNorm-buffer scalars in the sub-model `mask` selects.
    pub fn submodel_buffer_count(&self, mask: &ArchMask) -> usize {
        self.blocks(mask).map(|b| b.buffer_count).sum()
    }

    /// `(offset, len)` of each parameter tensor of the sub-model `mask`
    /// selects, as ranges into the flat θ.
    pub fn param_ranges<'a>(
        &'a self,
        mask: &'a ArchMask,
    ) -> impl Iterator<Item = (usize, usize)> + Clone + 'a {
        self.blocks(mask).flat_map(|b| b.params.iter().copied())
    }

    /// `(offset, len)` of each BatchNorm buffer of the sub-model `mask`
    /// selects, as ranges into the flat buffer vector.
    pub fn buffer_ranges<'a>(
        &'a self,
        mask: &'a ArchMask,
    ) -> impl Iterator<Item = (usize, usize)> + Clone + 'a {
        self.blocks(mask).flat_map(|b| b.buffers.iter().copied())
    }
}
