//! Genotypes: the discrete architectures derived at the end of the search
//! phase (P2) and retrained from scratch in P3.
//!
//! Following the DARTS convention, each intermediate node of the derived
//! cell keeps its **two** strongest incoming edges (by the maximum non-Zero
//! operation probability), each carrying its argmax operation.

use crate::cell::{CellKind, CellTopology};
use crate::ops::{OpKind, NUM_OPS};
use std::fmt;

/// One retained edge of a derived cell: the source node (0/1 are cell
/// inputs, `2 + i` are intermediate nodes) and the operation on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GenotypeEdge {
    /// Source node index.
    pub src: usize,
    /// Operation kind.
    pub op: OpKind,
}

/// A derived architecture: two retained edges per intermediate node, for
/// both cell kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Genotype {
    /// Retained edges per node of the normal cell.
    pub normal: Vec<[GenotypeEdge; 2]>,
    /// Retained edges per node of the reduction cell.
    pub reduction: Vec<[GenotypeEdge; 2]>,
}

impl Genotype {
    /// Derives a genotype from per-kind operation probabilities
    /// `probs[kind][edge][op]` over a topology with `nodes` intermediate
    /// nodes.
    ///
    /// For each node the two incoming edges with the highest maximum
    /// non-`Zero` probability are retained with their argmax (non-`Zero`)
    /// operation.
    ///
    /// # Panics
    ///
    /// Panics if the probability tables do not match the topology (each
    /// kind needs `num_edges` rows of `NUM_OPS` entries).
    pub fn from_probs(probs: &[Vec<Vec<f32>>; 2], nodes: usize) -> Self {
        let topo = CellTopology::new(nodes);
        let derive = |table: &Vec<Vec<f32>>| -> Vec<[GenotypeEdge; 2]> {
            assert_eq!(table.len(), topo.num_edges(), "edge count mismatch");
            let mut out = Vec::with_capacity(nodes);
            for i in 0..nodes {
                let mut candidates: Vec<(f32, usize, OpKind)> = Vec::new();
                for e in topo.incoming_edges(i) {
                    assert_eq!(table[e].len(), NUM_OPS, "op count mismatch");
                    let (src, _) = topo.edge_endpoints(e);
                    // best non-Zero op on this edge
                    let (best_op, best_p) = table[e]
                        .iter()
                        .enumerate()
                        .filter(|(o, _)| OpKind::ALL[*o] != OpKind::Zero)
                        .map(|(o, p)| (OpKind::ALL[o], *p))
                        .fold((OpKind::SkipConnect, f32::NEG_INFINITY), |acc, cur| {
                            if cur.1 > acc.1 {
                                cur
                            } else {
                                acc
                            }
                        });
                    candidates.push((best_p, src, best_op));
                }
                candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite probs"));
                let first = candidates[0];
                let second = candidates.get(1).copied().unwrap_or(first);
                out.push([
                    GenotypeEdge {
                        src: first.1,
                        op: first.2,
                    },
                    GenotypeEdge {
                        src: second.1,
                        op: second.2,
                    },
                ]);
            }
            out
        };
        Genotype {
            normal: derive(&probs[0]),
            reduction: derive(&probs[1]),
        }
    }

    /// Retained edges for a cell kind.
    pub fn edges(&self, kind: CellKind) -> &[[GenotypeEdge; 2]] {
        match kind {
            CellKind::Normal => &self.normal,
            CellKind::Reduction => &self.reduction,
        }
    }

    /// Number of intermediate nodes per cell.
    pub fn nodes(&self) -> usize {
        self.normal.len()
    }

    /// Serializes to a compact single-line text form suitable for logs and
    /// config files: `nodes;normal_edges;reduction_edges` where each edge
    /// is `src:op_index`.
    ///
    /// ```
    /// use fedrlnas_darts::Genotype;
    /// let probs = [vec![vec![0.125; 8]; 5], vec![vec![0.125; 8]; 5]];
    /// let g = Genotype::from_probs(&probs, 2);
    /// let text = g.to_compact_string();
    /// assert_eq!(Genotype::parse_compact(&text).unwrap(), g);
    /// ```
    pub fn to_compact_string(&self) -> String {
        let cell = |edges: &[[GenotypeEdge; 2]]| {
            edges
                .iter()
                .flat_map(|pair| pair.iter())
                .map(|e| format!("{}:{}", e.src, e.op.index()))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "{};{};{}",
            self.nodes(),
            cell(&self.normal),
            cell(&self.reduction)
        )
    }

    /// Parses the output of [`Genotype::to_compact_string`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn parse_compact(text: &str) -> Result<Self, String> {
        let mut parts = text.split(';');
        let nodes: usize = parts
            .next()
            .ok_or("missing node count")?
            .parse()
            .map_err(|e| format!("bad node count: {e}"))?;
        if nodes == 0 {
            return Err("genotype needs at least one node".into());
        }
        let cell_edges = nodes
            .checked_mul(2)
            .ok_or_else(|| format!("node count {nodes} too large"))?;
        let mut parse_cell = |label: &str| -> Result<Vec<[GenotypeEdge; 2]>, String> {
            let body = parts
                .next()
                .ok_or_else(|| format!("missing {label} cell"))?;
            let edges: Vec<GenotypeEdge> = body
                .split(',')
                .map(|tok| {
                    let (src, op) = tok
                        .split_once(':')
                        .ok_or_else(|| format!("malformed edge {tok:?}"))?;
                    let src: usize = src
                        .parse()
                        .map_err(|e| format!("bad src in {tok:?}: {e}"))?;
                    let op: usize = op.parse().map_err(|e| format!("bad op in {tok:?}: {e}"))?;
                    let op = *OpKind::ALL
                        .get(op)
                        .ok_or_else(|| format!("op index {op} out of range"))?;
                    Ok(GenotypeEdge { src, op })
                })
                .collect::<Result<_, String>>()?;
            if edges.len() != cell_edges {
                return Err(format!(
                    "{label} cell has {} edges, expected {cell_edges}",
                    edges.len()
                ));
            }
            for (i, pair) in edges.chunks(2).enumerate() {
                for e in pair {
                    if e.src >= 2 + i {
                        return Err(format!(
                            "{label} node {i}: source {} not before destination",
                            e.src
                        ));
                    }
                }
            }
            Ok(edges.chunks(2).map(|pair| [pair[0], pair[1]]).collect())
        };
        let normal = parse_cell("normal")?;
        let reduction = parse_cell("reduction")?;
        if parts.next().is_some() {
            return Err("trailing field after the reduction cell".into());
        }
        Ok(Genotype { normal, reduction })
    }

    /// Number of parameterized (convolutional) operations retained — a
    /// crude architecture-complexity indicator used by tests and reports.
    pub fn conv_op_count(&self) -> usize {
        self.normal
            .iter()
            .chain(self.reduction.iter())
            .flat_map(|pair| pair.iter())
            .filter(|e| e.op.has_weights())
            .count()
    }
}

impl fmt::Display for Genotype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fmt_cell = |edges: &[[GenotypeEdge; 2]]| -> String {
            edges
                .iter()
                .enumerate()
                .map(|(i, pair)| {
                    format!(
                        "n{}: ({}<-{}, {}<-{})",
                        i + 2,
                        pair[0].op,
                        pair[0].src,
                        pair[1].op,
                        pair[1].src
                    )
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        write!(
            f,
            "normal [{}] | reduction [{}]",
            fmt_cell(&self.normal),
            fmt_cell(&self.reduction)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_probs(nodes: usize) -> [Vec<Vec<f32>>; 2] {
        let edges = CellTopology::new(nodes).num_edges();
        let t = vec![vec![1.0 / NUM_OPS as f32; NUM_OPS]; edges];
        [t.clone(), t]
    }

    #[test]
    fn derives_two_edges_per_node() {
        let g = Genotype::from_probs(&uniform_probs(4), 4);
        assert_eq!(g.nodes(), 4);
        assert_eq!(g.normal.len(), 4);
        assert_eq!(g.reduction.len(), 4);
    }

    #[test]
    fn never_selects_zero_op() {
        // make Zero overwhelmingly likely everywhere
        let edges = CellTopology::new(3).num_edges();
        let mut row = vec![0.01f32; NUM_OPS];
        row[OpKind::Zero.index()] = 0.93;
        let probs = [vec![row.clone(); edges], vec![row; edges]];
        let g = Genotype::from_probs(&probs, 3);
        for pair in g.normal.iter().chain(g.reduction.iter()) {
            for e in pair {
                assert_ne!(e.op, OpKind::Zero);
            }
        }
    }

    #[test]
    fn picks_strongest_edges() {
        // node 1 of a 2-node cell has 3 incoming edges (from nodes 0,1,2);
        // bias edge from src 1 and src 2 to be strongest.
        let topo = CellTopology::new(2);
        let mut table = vec![vec![1.0 / NUM_OPS as f32; NUM_OPS]; topo.num_edges()];
        // edges into node 1 are indices 2..5 with srcs 0,1,2
        table[3][OpKind::SepConv3x3.index()] = 0.9; // src 1
        table[4][OpKind::MaxPool3x3.index()] = 0.8; // src 2
        let probs = [table.clone(), table];
        let g = Genotype::from_probs(&probs, 2);
        let node1 = &g.normal[1];
        let srcs: Vec<usize> = node1.iter().map(|e| e.src).collect();
        assert!(srcs.contains(&1) && srcs.contains(&2), "{srcs:?}");
        assert_eq!(node1[0].op, OpKind::SepConv3x3);
        assert_eq!(node1[1].op, OpKind::MaxPool3x3);
    }

    #[test]
    fn compact_string_round_trips() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let edges = CellTopology::new(4).num_edges();
        let table = |rng: &mut StdRng| -> Vec<Vec<f32>> {
            (0..edges)
                .map(|_| (0..NUM_OPS).map(|_| rng.gen_range(0.0..1.0f32)).collect())
                .collect()
        };
        let probs = [table(&mut rng), table(&mut rng)];
        let g = Genotype::from_probs(&probs, 4);
        let text = g.to_compact_string();
        assert_eq!(Genotype::parse_compact(&text).expect("parses"), g);
    }

    #[test]
    fn parse_rejects_malformed_inputs() {
        assert!(Genotype::parse_compact("").is_err());
        assert!(Genotype::parse_compact("0;;").is_err());
        assert!(Genotype::parse_compact("1;0:1,1:2").is_err()); // missing cell
        assert!(Genotype::parse_compact("1;0:1,1:99;0:1,1:2").is_err()); // bad op
        assert!(Genotype::parse_compact("1;5:1,1:2;0:1,1:2").is_err()); // src >= dst
        assert!(Genotype::parse_compact("2;0:1,1:2;0:1,1:2").is_err()); // too few edges
        assert!(Genotype::parse_compact("1;0:1,1:2;0:1,1:2;junk").is_err()); // fourth field
        let huge = format!("{};0:1,1:2;0:1,1:2", usize::MAX);
        assert!(Genotype::parse_compact(&huge).is_err()); // 2 * nodes overflows
    }

    #[test]
    fn display_is_compact_and_nonempty() {
        let g = Genotype::from_probs(&uniform_probs(2), 2);
        let s = g.to_string();
        assert!(s.contains("normal"));
        assert!(s.contains("reduction"));
    }

    #[test]
    fn conv_op_count_counts_parameterized_ops() {
        let edges = CellTopology::new(2).num_edges();
        let mut row = vec![0.0f32; NUM_OPS];
        row[OpKind::SepConv5x5.index()] = 1.0;
        let probs = [vec![row.clone(); edges], vec![row; edges]];
        let g = Genotype::from_probs(&probs, 2);
        assert_eq!(g.conv_op_count(), 2 * 2 * 2); // 2 kinds x 2 nodes x 2 edges
    }
}
