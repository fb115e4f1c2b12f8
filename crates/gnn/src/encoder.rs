//! The GNN encoder of §4.3.1: stacked graph convolutions, optional Jumping
//! Knowledge combination, and a graph-level readout.

use crate::input::GraphBatch;
use crate::layers::gat::GatConv;
use crate::layers::gcn::GcnConv;
use crate::layers::pool::{sum_pool, AttentionPool};
use crate::layers::transformer::TransformerConv;
use gdse_tensor::{Graph, NodeId, ParamStore};
use proggraph::EDGE_FEATS;
use serde::{Deserialize, Serialize};

/// The `eps` of the LayerNorm after every convolution.
pub(crate) const LAYER_NORM_EPS: f32 = 1e-5;

/// Which graph convolution the encoder stacks (Table 2: M3 / M4 / M5-M7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConvKind {
    /// GCN (eq. 1).
    Gcn,
    /// GAT (eqs. 2-3).
    Gat,
    /// TransformerConv with edge embeddings (eq. 8).
    Transformer,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum Conv {
    Gcn(GcnConv),
    Gat(GatConv),
    Transformer(TransformerConv),
}

/// Graph-level readout choice.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum Readout {
    Sum,
    Attention(AttentionPool),
}

/// Output handles of one encoder forward pass.
#[derive(Debug, Clone, Copy)]
pub struct EncoderOutput {
    /// Per-graph embeddings `[B, D]`.
    pub graph_emb: NodeId,
    /// Final node embeddings `[N_total, D]` (post-JKN if enabled).
    pub node_embs: NodeId,
    /// Node attention scores `[N_total, 1]` when attention pooling is
    /// active (normalized within each graph).
    pub attention: Option<NodeId>,
}

/// The GNN encoder: `layers` stacked convolutions with ELU activations,
/// optional JKN max-combination (eq. 9), and sum or attention readout
/// (eq. 10).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GnnEncoder {
    pub(crate) convs: Vec<Conv>,
    pub(crate) use_jkn: bool,
    pub(crate) readout: Readout,
    hidden: usize,
}

impl GnnEncoder {
    /// Registers an encoder with `layers` convolutions of width `hidden`,
    /// reading `in_dim`-dimensional node features.
    pub fn new(
        store: &mut ParamStore,
        kind: ConvKind,
        in_dim: usize,
        hidden: usize,
        layers: usize,
        use_jkn: bool,
        attention_pool: bool,
    ) -> Self {
        assert!(layers >= 1, "encoder needs at least one layer");
        let mut convs = Vec::with_capacity(layers);
        for i in 0..layers {
            let d_in = if i == 0 { in_dim } else { hidden };
            let name = format!("conv{i}");
            convs.push(match kind {
                ConvKind::Gcn => Conv::Gcn(GcnConv::new(store, &name, d_in, hidden)),
                ConvKind::Gat => Conv::Gat(GatConv::new(store, &name, d_in, hidden)),
                ConvKind::Transformer => Conv::Transformer(TransformerConv::new(
                    store, &name, d_in, hidden, EDGE_FEATS,
                )),
            });
        }
        let readout = if attention_pool {
            Readout::Attention(AttentionPool::new(store, "pool", hidden))
        } else {
            Readout::Sum
        };
        Self { convs, use_jkn, readout, hidden }
    }

    /// Hidden width `D`.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Runs the encoder on a batch of lowered graphs.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, input: &GraphBatch) -> EncoderOutput {
        let x0 = g.input(input.x.clone());
        let edge_attr = g.input(input.edge_attr.clone());
        let mut h = x0;
        let mut per_layer = Vec::with_capacity(self.convs.len());
        for conv in &self.convs {
            let lin = match conv {
                Conv::Gcn(c) => c.forward(g, store, h, &input.src, &input.dst),
                Conv::Gat(c) => c.forward(g, store, h, &input.src, &input.dst),
                Conv::Transformer(c) => {
                    c.forward(g, store, h, edge_attr, &input.src, &input.dst)
                }
            };
            let act = g.elu(lin, 1.0);
            // LayerNorm keeps deep attention stacks from diverging (the
            // standard Transformer recipe; without it some seeds collapse).
            h = g.layer_norm(act, LAYER_NORM_EPS);
            per_layer.push(h);
        }
        let node_embs = if self.use_jkn && per_layer.len() > 1 {
            g.max_stack(&per_layer)
        } else {
            h
        };
        match &self.readout {
            Readout::Sum => EncoderOutput {
                graph_emb: sum_pool(g, node_embs, &input.node_graph, input.num_graphs),
                node_embs,
                attention: None,
            },
            Readout::Attention(pool) => {
                let pooled =
                    pool.forward(g, store, node_embs, &input.node_graph, input.num_graphs);
                EncoderOutput {
                    graph_emb: pooled.graph_emb,
                    node_embs,
                    attention: Some(pooled.attention),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use design_space::DesignSpace;
    use hls_ir::kernels;
    use proggraph::{build_graph_bidirectional, NODE_FEATS};

    use crate::input::GraphInput;

    fn input() -> GraphBatch {
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let graph = build_graph_bidirectional(&k, &space);
        let p = space.default_point();
        let gi = GraphInput::from_graph(&graph, Some(&p));
        GraphBatch::single(&gi, &p)
    }

    #[test]
    fn all_conv_kinds_produce_graph_embedding() {
        let inp = input();
        for kind in [ConvKind::Gcn, ConvKind::Gat, ConvKind::Transformer] {
            let mut store = ParamStore::new(21);
            let enc = GnnEncoder::new(&mut store, kind, NODE_FEATS, 16, 2, false, false);
            let mut g = Graph::new();
            let out = enc.forward(&mut g, &store, &inp);
            assert_eq!(g.value(out.graph_emb).shape(), (1, 16), "{kind:?}");
            assert!(!g.value(out.graph_emb).has_non_finite(), "{kind:?}");
        }
    }

    #[test]
    fn jkn_changes_node_embeddings() {
        let inp = input();
        let mut store = ParamStore::new(22);
        let enc_jkn = GnnEncoder::new(&mut store, ConvKind::Transformer, NODE_FEATS, 8, 3, true, false);
        let mut store2 = ParamStore::new(22);
        let enc_plain =
            GnnEncoder::new(&mut store2, ConvKind::Transformer, NODE_FEATS, 8, 3, false, false);
        let mut g1 = Graph::new();
        let o1 = enc_jkn.forward(&mut g1, &store, &inp);
        let mut g2 = Graph::new();
        let o2 = enc_plain.forward(&mut g2, &store2, &inp);
        // Same weights (same seed), different combination rule.
        assert_ne!(g1.value(o1.graph_emb), g2.value(o2.graph_emb));
    }

    #[test]
    fn attention_pool_exposes_scores() {
        let inp = input();
        let mut store = ParamStore::new(23);
        let enc = GnnEncoder::new(&mut store, ConvKind::Transformer, NODE_FEATS, 8, 2, true, true);
        let mut g = Graph::new();
        let out = enc.forward(&mut g, &store, &inp);
        let att = out.attention.expect("attention scores");
        assert_eq!(g.value(att).shape(), (inp.num_nodes(), 1));
        assert!((g.value(att).sum() - 1.0).abs() < 1e-4);
    }
}
