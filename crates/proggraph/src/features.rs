//! One-hot feature encoding of nodes and edges (§4.3).
//!
//! "It takes the graph representation of the program as the input and
//! creates the initial node/edge embeddings by concatenating the one-hot
//! encoding of their attributes and the pragma options." The initial node
//! embeddings are 124-dimensional, matching §5.1.

use crate::graph::ProgramGraph;
use crate::node::{Node, NodeKind};
use design_space::{DesignPoint, PipelineOpt, PragmaValue};
use gdse_tensor::Matrix;

/// Initial node-embedding width (§5.1: "the initial embeddings have 124
/// features").
pub const NODE_FEATS: usize = 124;
/// Edge-embedding width: flow one-hot (4) + position one-hot (8) + reversed
/// flag (1).
pub const EDGE_FEATS: usize = 13;

/// `key_text` vocabulary; one-hot block of width [`KEY_VOCAB`].
const KEYS: [&str; 26] = [
    "entry", "icmp", "add", "br", "load", "store", "call", "fadd", "fmul", "fdiv", "mul", "cmp",
    "xor", "phi", "ret", "i8", "i16", "i32", "i64", "float", "double", "const", "PIPELINE",
    "PARALLEL", "TILE", "alloca",
];
const KEY_VOCAB: usize = 40;
const BLOCK_BUCKETS: usize = 32;
const FUNC_BUCKETS: usize = 8;
const FACTOR_BUCKETS: usize = 16;
const VALUE_BUCKETS: usize = 16;

// Layout offsets.
const OFF_KIND: usize = 0; // 4
const OFF_KEY: usize = 4; // 40
const OFF_BLOCK: usize = OFF_KEY + KEY_VOCAB; // 44..76
const OFF_FUNC: usize = OFF_BLOCK + BLOCK_BUCKETS; // 76..84
const OFF_PIPE: usize = OFF_FUNC + FUNC_BUCKETS; // 84..87 (off|cg|fg)
const OFF_FACTOR: usize = OFF_PIPE + 3; // 87..103 (log2 one-hot)
const OFF_VALUE: usize = OFF_FACTOR + FACTOR_BUCKETS; // 103..119 (const log2)
const OFF_PKIND: usize = OFF_VALUE + VALUE_BUCKETS; // 119..123 (pragma kind + spare)
const OFF_RAW: usize = OFF_PKIND + 4; // 123 (normalized raw option)

fn key_index(key: &str) -> usize {
    KEYS.iter().position(|&k| k == key).unwrap_or(KEY_VOCAB - 1)
}

fn ilog2(v: u64) -> usize {
    (63 - v.max(1).leading_zeros() as usize).min(63)
}

fn encode_node(node: &Node, point: Option<&DesignPoint>, row: &mut [f32]) {
    row[OFF_KIND + node.kind.type_id() as usize] = 1.0;
    row[OFF_KEY + key_index(&node.key_text)] = 1.0;
    row[OFF_BLOCK + (node.block as usize).min(BLOCK_BUCKETS - 1)] = 1.0;
    row[OFF_FUNC + (node.function as usize).min(FUNC_BUCKETS - 1)] = 1.0;

    if let Some(value) = node.value {
        row[OFF_VALUE + ilog2(value).min(VALUE_BUCKETS - 1)] = 1.0;
    }

    if node.kind == NodeKind::Pragma {
        let Some(slot) = node.pragma_slot else { return };
        match point.map(|p| p.value(slot)) {
            // Placeholder graph (no design point): mark the pragma kind only.
            None => {
                let k = match node.key_text.as_str() {
                    "TILE" => 0,
                    "PIPELINE" => 1,
                    _ => 2,
                };
                row[OFF_PKIND + k] = 1.0;
            }
            Some(PragmaValue::Pipeline(opt)) => {
                row[OFF_PKIND + 1] = 1.0;
                let o = match opt {
                    PipelineOpt::Off => 0,
                    PipelineOpt::Coarse => 1,
                    PipelineOpt::Fine => 2,
                };
                row[OFF_PIPE + o] = 1.0;
                row[OFF_RAW] = o as f32 / 2.0;
            }
            Some(PragmaValue::Parallel(f)) => {
                row[OFF_PKIND + 2] = 1.0;
                row[OFF_FACTOR + ilog2(u64::from(f)).min(FACTOR_BUCKETS - 1)] = 1.0;
                row[OFF_RAW] = (f32::from(f as u16)).ln_1p() / 8.0;
            }
            Some(PragmaValue::Tile(f)) => {
                row[OFF_PKIND] = 1.0;
                row[OFF_FACTOR + ilog2(u64::from(f)).min(FACTOR_BUCKETS - 1)] = 1.0;
                row[OFF_RAW] = (f32::from(f as u16)).ln_1p() / 8.0;
            }
        }
    }
}

/// Encodes node features: `[num_nodes, NODE_FEATS]`.
///
/// With `point = None` the pragma nodes carry only their kind (the
/// placeholder graph); with a design point, the pragma options are filled in
/// (the "Pragma Fill" step of Fig. 3) — these are the *only* rows that
/// change between configurations of the same kernel.
pub fn node_features(graph: &ProgramGraph, point: Option<&DesignPoint>) -> Matrix {
    let mut m = Matrix::zeros(graph.num_nodes(), NODE_FEATS);
    for (i, node) in graph.nodes().iter().enumerate() {
        encode_node(node, point, m.row_mut(i));
    }
    m
}

/// Encodes `node`'s row of [`node_features`] into `row`, which must be
/// zeroed and [`NODE_FEATS`] wide. Only the rows of the pragma nodes depend
/// on `point`, each on its slot's value alone, so a batch of points of one
/// kernel can lower the other rows once and each pragma row once per
/// value.
pub fn node_row(node: &Node, point: Option<&DesignPoint>, row: &mut [f32]) {
    encode_node(node, point, row);
}

/// Encodes edge features: `[num_edges, EDGE_FEATS]`.
pub fn edge_features(graph: &ProgramGraph) -> Matrix {
    let mut m = Matrix::zeros(graph.num_edges(), EDGE_FEATS);
    for (i, e) in graph.edges().iter().enumerate() {
        let row = m.row_mut(i);
        row[e.flow.flow_id() as usize] = 1.0;
        row[4 + (e.position as usize).min(7)] = 1.0;
        row[12] = if e.reversed { 1.0 } else { 0.0 };
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_graph;
    use design_space::DesignSpace;
    use hls_ir::kernels;

    #[test]
    fn node_features_have_paper_width() {
        assert_eq!(NODE_FEATS, 124);
        assert_eq!(OFF_RAW, 123);
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let g = build_graph(&k, &space);
        let x = node_features(&g, None);
        assert_eq!(x.shape(), (g.num_nodes(), 124));
    }

    #[test]
    fn only_pragma_rows_change_with_design_point() {
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let g = build_graph(&k, &space);
        let a = node_features(&g, Some(&space.point_at(0)));
        let b = node_features(&g, Some(&space.point_at(space.size() - 1)));
        let pragma_rows: Vec<usize> = g.pragma_nodes().iter().map(|&(i, _)| i).collect();
        let mut changed = Vec::new();
        for i in 0..g.num_nodes() {
            if a.row(i) != b.row(i) {
                changed.push(i);
            }
        }
        assert!(!changed.is_empty());
        for i in &changed {
            assert!(pragma_rows.contains(i), "non-pragma row {i} changed");
        }
    }

    #[test]
    fn node_rows_match_the_full_lowering() {
        let k = kernels::aes();
        let space = DesignSpace::from_kernel(&k);
        let g = build_graph(&k, &space);
        let p = space.point_at(space.size() - 1);
        for point in [None, Some(&p)] {
            let full = node_features(&g, point);
            for (i, node) in g.nodes().iter().enumerate() {
                let mut row = vec![0.0; NODE_FEATS];
                node_row(node, point, &mut row);
                assert_eq!(row, full.row(i), "node {i}");
            }
        }
    }

    #[test]
    fn pipeline_option_encoded_one_hot() {
        let k = kernels::aes();
        let space = DesignSpace::from_kernel(&k);
        let g = build_graph(&k, &space);
        // Find a point where __PIPE__L0 (slot of L0 pipeline) is fg.
        let l0 = k.loop_by_label("L0").unwrap();
        let slot = space.slot_index(l0, hls_ir::PragmaKind::Pipeline).unwrap();
        let mut p = space.default_point();
        p.set_value(slot, design_space::PragmaValue::Pipeline(design_space::PipelineOpt::Fine));
        let x = node_features(&g, Some(&p));
        let (node_idx, _) = g.pragma_nodes().into_iter().find(|&(_, s)| s == slot).unwrap();
        assert_eq!(x.row(node_idx)[OFF_PIPE + 2], 1.0, "fg bit set");
        assert_eq!(x.row(node_idx)[OFF_PIPE], 0.0, "off bit clear");
    }

    #[test]
    fn every_node_row_is_nonzero() {
        let k = kernels::nw();
        let space = DesignSpace::from_kernel(&k);
        let g = build_graph(&k, &space);
        let x = node_features(&g, Some(&space.default_point()));
        for i in 0..x.rows() {
            assert!(x.row(i).iter().any(|&v| v != 0.0), "empty feature row {i}");
        }
    }

    #[test]
    fn edge_features_encode_flow_and_direction() {
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let mut g = build_graph(&k, &space);
        g.add_reverse_edges();
        let e = edge_features(&g);
        assert_eq!(e.shape(), (g.num_edges(), EDGE_FEATS));
        let n_rev = (0..e.rows()).filter(|&i| e.row(i)[12] == 1.0).count();
        assert_eq!(n_rev, g.num_edges() / 2);
    }
}
