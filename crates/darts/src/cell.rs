//! Cells: the DAG wiring shared by the supernet, sub-models and derived
//! models, the cell that runs it, and channel-wise concat/split helpers.

use crate::ops::ReluConvBn;
use fedrlnas_nn::{Layer as _, Mode};
use fedrlnas_tensor::{ShapeError, Tensor};

/// The two cell types of the DARTS space (§IV-A): normal cells preserve
/// spatial extent; reduction cells halve it and double the channel count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Stride-1 cell.
    Normal,
    /// Stride-2 cell placed at 1/3 and 2/3 of the network depth.
    Reduction,
}

impl CellKind {
    /// Index into per-kind tables (`Normal = 0`, `Reduction = 1`).
    pub fn index(self) -> usize {
        match self {
            CellKind::Normal => 0,
            CellKind::Reduction => 1,
        }
    }

    /// Both cell kinds in index order.
    pub const ALL: [CellKind; 2] = [CellKind::Normal, CellKind::Reduction];
}

/// The DAG wiring of a cell: 2 input nodes followed by `nodes` intermediate
/// nodes, each receiving one edge from every earlier node. The cell output
/// is the channel-wise concatenation of all intermediate nodes.
///
/// For `nodes = 4` this yields the canonical 14 edges of DARTS.
///
/// ```
/// use fedrlnas_darts::CellTopology;
/// let t = CellTopology::new(4);
/// assert_eq!(t.num_edges(), 14);
/// assert_eq!(t.edge_endpoints(13), (4, 5)); // last edge: node 5 <- node 4
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellTopology {
    nodes: usize,
}

impl CellTopology {
    /// Creates a topology with `nodes` intermediate nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "cell needs at least one intermediate node");
        CellTopology { nodes }
    }

    /// Number of intermediate nodes (`B`).
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Total number of edges: `sum_{i=0..B} (2 + i)`.
    pub fn num_edges(&self) -> usize {
        (0..self.nodes).map(|i| 2 + i).sum()
    }

    /// Source and destination node of edge `e`, where nodes `0` and `1` are
    /// the cell inputs and intermediate node `i` is node `2 + i`. Edges are
    /// ordered by destination node then source node.
    ///
    /// # Panics
    ///
    /// Panics if `e >= self.num_edges()`.
    pub fn edge_endpoints(&self, e: usize) -> (usize, usize) {
        let mut offset = 0;
        for i in 0..self.nodes {
            let fan_in = 2 + i;
            if e < offset + fan_in {
                return (e - offset, 2 + i);
            }
            offset += fan_in;
        }
        panic!("edge index {e} out of range ({} edges)", self.num_edges());
    }

    /// Iterator over `(edge index, source node, destination node)`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        (0..self.num_edges()).map(move |e| {
            let (src, dst) = self.edge_endpoints(e);
            (e, src, dst)
        })
    }

    /// Edge indices entering intermediate node `i` (destination `2 + i`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.nodes()`.
    pub fn incoming_edges(&self, i: usize) -> std::ops::Range<usize> {
        assert!(i < self.nodes, "node index out of range");
        let start: usize = (0..i).map(|j| 2 + j).sum();
        start..start + 2 + i
    }

    /// Returns `true` if edge `e` originates at a cell input (source node 0
    /// or 1); those edges carry stride 2 in reduction cells.
    pub fn edge_from_input(&self, e: usize) -> bool {
        self.edge_endpoints(e).0 < 2
    }
}

/// Concatenates NCHW tensors along the channel dimension.
///
/// # Errors
///
/// Returns a [`ShapeError`] if the list is empty or batch/spatial extents
/// disagree.
pub fn concat_channels(parts: &[&Tensor]) -> Result<Tensor, ShapeError> {
    let first = parts
        .first()
        .ok_or_else(|| ShapeError::new("concat_channels: empty input"))?;
    let d = first.dims();
    if d.len() != 4 {
        return Err(ShapeError::new("concat_channels: expected NCHW"));
    }
    let (n, h, w) = (d[0], d[2], d[3]);
    let mut total_c = 0;
    for p in parts {
        let pd = p.dims();
        if pd.len() != 4 || pd[0] != n || pd[2] != h || pd[3] != w {
            return Err(ShapeError::mismatch("concat_channels", d, pd));
        }
        total_c += pd[1];
    }
    let mut out = Tensor::zeros(&[n, total_c, h, w]);
    let plane = h * w;
    for i in 0..n {
        let mut c_off = 0;
        for p in parts {
            let pc = p.dims()[1];
            let src = &p.as_slice()[i * pc * plane..(i + 1) * pc * plane];
            let dst_base = (i * total_c + c_off) * plane;
            out.as_mut_slice()[dst_base..dst_base + pc * plane].copy_from_slice(src);
            c_off += pc;
        }
    }
    Ok(out)
}

/// Splits an NCHW tensor into chunks of `chunk_channels` along the channel
/// dimension — the inverse of [`concat_channels`] with equal parts.
///
/// # Errors
///
/// Returns a [`ShapeError`] if the channel count is not divisible by
/// `chunk_channels`.
pub fn split_channels(x: &Tensor, chunk_channels: usize) -> Result<Vec<Tensor>, ShapeError> {
    let d = x.dims();
    if d.len() != 4 {
        return Err(ShapeError::new("split_channels: expected NCHW"));
    }
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    if chunk_channels == 0 || c % chunk_channels != 0 {
        return Err(ShapeError::new(format!(
            "split_channels: {c} channels not divisible into chunks of {chunk_channels}"
        )));
    }
    let parts = c / chunk_channels;
    let plane = h * w;
    let mut out = vec![Tensor::zeros(&[n, chunk_channels, h, w]); parts];
    for i in 0..n {
        for (p, chunk) in out.iter_mut().enumerate() {
            let src_base = (i * c + p * chunk_channels) * plane;
            let dst_base = i * chunk_channels * plane;
            chunk.as_mut_slice()[dst_base..dst_base + chunk_channels * plane]
                .copy_from_slice(&x.as_slice()[src_base..src_base + chunk_channels * plane]);
        }
    }
    Ok(out)
}

/// Adds `t` into an accumulator that may still be empty.
pub(crate) fn accumulate(slot: &mut Option<Tensor>, t: Tensor) {
    match slot {
        Some(acc) => acc.add_assign(&t).expect("summed tensors share a shape"),
        None => *slot = Some(t),
    }
}

/// Stride of an edge leaving node `src`: 2 on the edges a reduction cell
/// reads from its two inputs, 1 everywhere else.
pub(crate) fn edge_stride(kind: CellKind, src: usize) -> usize {
    if kind == CellKind::Reduction && src < 2 {
        2
    } else {
        1
    }
}

/// One edge of a cell's DAG: its source and destination nodes and what it
/// holds — the one operation of a sub-model or derived model, or every
/// candidate of a supernet.
#[derive(Clone)]
pub(crate) struct Edge<E> {
    pub(crate) src: usize,
    pub(crate) dst: usize,
    pub(crate) ops: E,
}

/// Where an edge sits: its cell's position and kind, and its index in the
/// cell's edge list (the topology's edge index on a supernet or sub-model).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Site {
    pub(crate) cell: usize,
    pub(crate) kind: CellKind,
    pub(crate) edge: usize,
}

/// A cell: two preprocessors bring the cell's inputs (nodes 0 and 1) to
/// `channels`, each intermediate node sums its incoming edges, and the
/// output concatenates the intermediate nodes along channels.
#[derive(Clone)]
pub(crate) struct Cell<E> {
    /// Position in the network's cell chain.
    pub(crate) index: usize,
    pub(crate) kind: CellKind,
    pub(crate) pre: [ReluConvBn; 2],
    /// Sorted by destination node, so a forward in list order reads only
    /// finished nodes and a backward in reverse order only finished
    /// gradients.
    pub(crate) edges: Vec<Edge<E>>,
    pub(crate) nodes: usize,
    pub(crate) channels: usize,
    /// The preprocessors' output shapes in the last forward: the gradient
    /// of an input no edge reads is zeros of that shape.
    pre_dims: [Vec<usize>; 2],
}

impl<E> Cell<E> {
    pub(crate) fn new(
        index: usize,
        kind: CellKind,
        pre: [ReluConvBn; 2],
        edges: Vec<Edge<E>>,
        nodes: usize,
        channels: usize,
    ) -> Self {
        Cell {
            index,
            kind,
            pre,
            edges,
            nodes,
            channels,
            pre_dims: Default::default(),
        }
    }

    /// Where edge `edge` of this cell sits.
    pub(crate) fn site(&self, edge: usize) -> Site {
        Site {
            cell: self.index,
            kind: self.kind,
            edge,
        }
    }

    /// Runs the DAG forward; `run(site, ops, input)` computes an edge's
    /// output from its source node.
    pub(crate) fn forward(
        &mut self,
        s0: &Tensor,
        s1: &Tensor,
        mode: Mode,
        mut run: impl FnMut(Site, &mut E, &Tensor) -> Tensor,
    ) -> Tensor {
        let mut states: Vec<Option<Tensor>> = Vec::with_capacity(2 + self.nodes);
        for (pre, s) in self.pre.iter_mut().zip([s0, s1]) {
            states.push(Some(pre.forward(s, mode)));
        }
        self.pre_dims = [0, 1].map(|i| states[i].as_ref().expect("set above").dims().to_vec());
        states.resize_with(2 + self.nodes, || None);
        let first = self.site(0);
        for (e, edge) in self.edges.iter_mut().enumerate() {
            let site = Site { edge: e, ..first };
            let (done, rest) = states.split_at_mut(edge.dst);
            let input = done[edge.src]
                .as_ref()
                .expect("edge source computed before destination (edges sorted by dst)");
            accumulate(&mut rest[0], run(site, &mut edge.ops, input));
        }
        let parts: Vec<&Tensor> = states[2..]
            .iter()
            .map(|s| s.as_ref().expect("every node has incoming edges"))
            .collect();
        concat_channels(&parts).expect("node outputs share batch and spatial extents")
    }

    /// Runs the DAG backward from the gradient of the concatenated output;
    /// `run(site, ops, d_dst, d_src)` adds an edge's input gradient into
    /// its source node's. Returns the gradients of the two cell inputs.
    pub(crate) fn backward(
        &mut self,
        grad_out: &Tensor,
        mut run: impl FnMut(Site, &mut E, &Tensor, &mut Option<Tensor>),
    ) -> (Tensor, Tensor) {
        let node_grads =
            split_channels(grad_out, self.channels).expect("grad matches concat layout");
        let mut d_states: Vec<Option<Tensor>> = vec![None, None];
        d_states.extend(node_grads.into_iter().map(Some));
        let first = self.site(0);
        for (e, edge) in self.edges.iter_mut().enumerate().rev() {
            let site = Site { edge: e, ..first };
            let (before, rest) = d_states.split_at_mut(edge.dst);
            let g = rest[0]
                .as_ref()
                .expect("destination gradient complete before its incoming edges");
            run(site, &mut edge.ops, g, &mut before[edge.src]);
        }
        let [d0, d1] = [0, 1].map(|i| {
            d_states[i]
                .take()
                .unwrap_or_else(|| Tensor::zeros(&self.pre_dims[i]))
        });
        let [pre0, pre1] = &mut self.pre;
        (pre0.backward(&d0), pre1.backward(&d1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn darts_topology_has_14_edges() {
        let t = CellTopology::new(4);
        assert_eq!(t.num_edges(), 14);
        // node 0 receives edges 0..2 from inputs
        assert_eq!(t.incoming_edges(0), 0..2);
        assert_eq!(t.edge_endpoints(0), (0, 2));
        assert_eq!(t.edge_endpoints(1), (1, 2));
        // node 3 receives 5 edges, the last from node 4 (intermediate 2)
        assert_eq!(t.incoming_edges(3), 9..14);
        assert_eq!(t.edge_endpoints(13), (4, 5));
    }

    #[test]
    fn edge_from_input_marks_strided_edges() {
        let t = CellTopology::new(2);
        // edges: n0<-0, n0<-1, n1<-0, n1<-1, n1<-n0
        let strided: Vec<bool> = (0..t.num_edges()).map(|e| t.edge_from_input(e)).collect();
        assert_eq!(strided, vec![true, true, true, true, false]);
    }

    #[test]
    fn edges_iterator_consistent() {
        let t = CellTopology::new(3);
        let listed: Vec<_> = t.edges().collect();
        assert_eq!(listed.len(), t.num_edges());
        for (e, src, dst) in listed {
            assert_eq!(t.edge_endpoints(e), (src, dst));
            assert!(src < dst);
        }
    }

    #[test]
    fn concat_then_split_round_trips() {
        let a = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]).unwrap();
        let b = a.scaled(10.0);
        let cat = concat_channels(&[&a, &b]).unwrap();
        assert_eq!(cat.dims(), &[1, 4, 2, 2]);
        let parts = split_channels(&cat, 2).unwrap();
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn concat_checks_shapes() {
        let a = Tensor::zeros(&[1, 2, 2, 2]);
        let b = Tensor::zeros(&[1, 2, 3, 3]);
        assert!(concat_channels(&[&a, &b]).is_err());
        assert!(concat_channels(&[]).is_err());
    }

    #[test]
    fn split_checks_divisibility() {
        let x = Tensor::zeros(&[1, 5, 2, 2]);
        assert!(split_channels(&x, 2).is_err());
        assert!(split_channels(&x, 0).is_err());
    }

    #[test]
    fn batched_concat_interleaves_correctly() {
        // two samples: ensure per-sample channel blocks are placed correctly
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2, 1, 1, 1]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2, 1, 1, 1]).unwrap();
        let cat = concat_channels(&[&a, &b]).unwrap();
        assert_eq!(cat.as_slice(), &[1.0, 10.0, 2.0, 20.0]);
    }
}
