//! Model inputs: program graphs lowered to feature matrices + edge lists,
//! single or batched as a disjoint union, and [`KernelBatch`], the lowering
//! of many design points of one kernel that the tape-free forward reads.

use design_space::DesignPoint;
use gdse_tensor::Matrix;
use proggraph::{edge_features, node_features, pragma_node_features, ProgramGraph};

/// One graph lowered to the tensors a GNN consumes.
///
/// Built once per (kernel, design point); the node features of different
/// design points of the same kernel differ only in the pragma rows.
#[derive(Debug, Clone)]
pub struct GraphInput {
    /// Node features `[N, NODE_FEATS]`.
    pub x: Matrix,
    /// Edge features `[E, EDGE_FEATS]`.
    pub edge_attr: Matrix,
    /// Edge sources.
    pub src: Vec<usize>,
    /// Edge destinations.
    pub dst: Vec<usize>,
    /// Indices of pragma nodes (for attention inspection).
    pub pragma_nodes: Vec<usize>,
}

impl GraphInput {
    /// Lowers a program graph (optionally filled with a design point).
    pub fn from_graph(graph: &ProgramGraph, point: Option<&DesignPoint>) -> Self {
        Self {
            x: node_features(graph, point),
            edge_attr: edge_features(graph),
            src: graph.edge_sources(),
            dst: graph.edge_destinations(),
            pragma_nodes: graph.pragma_nodes().iter().map(|&(i, _)| i).collect(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.x.rows()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.src.len()
    }
}

/// A mini-batch: the disjoint union of several lowered graphs.
///
/// Batching turns many small matmuls into a few big ones — the difference
/// between hours and minutes for CPU training — while segment-aware pooling
/// keeps every graph's readout separate.
#[derive(Debug, Clone)]
pub struct GraphBatch {
    /// Stacked node features `[N_total, NODE_FEATS]`.
    pub x: Matrix,
    /// Stacked edge features `[E_total, EDGE_FEATS]`.
    pub edge_attr: Matrix,
    /// Global edge sources.
    pub src: Vec<usize>,
    /// Global edge destinations.
    pub dst: Vec<usize>,
    /// Graph id of each node.
    pub node_graph: Vec<usize>,
    /// Number of graphs in the batch.
    pub num_graphs: usize,
    /// Per-sample pragma encodings `[B, MAX_SLOTS * SLOT_FEATS]` (M1 input).
    pub pragma_x: Matrix,
}

impl GraphBatch {
    /// Builds a batch from `(lowered graph, design point)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn new(items: &[(&GraphInput, &DesignPoint)]) -> Self {
        assert!(!items.is_empty(), "empty batch");
        let mut node_offset = 0usize;
        let mut src = Vec::new();
        let mut dst = Vec::new();
        let mut node_graph = Vec::new();
        let mut xs: Vec<&Matrix> = Vec::with_capacity(items.len());
        let mut es: Vec<&Matrix> = Vec::with_capacity(items.len());
        let mut pragma_rows: Vec<Matrix> = Vec::with_capacity(items.len());
        for (gi, (input, point)) in items.iter().enumerate() {
            xs.push(&input.x);
            es.push(&input.edge_attr);
            src.extend(input.src.iter().map(|&s| s + node_offset));
            dst.extend(input.dst.iter().map(|&d| d + node_offset));
            node_graph.extend(std::iter::repeat_n(gi, input.num_nodes()));
            node_offset += input.num_nodes();
            pragma_rows.push(crate::model::encode_pragmas(point));
        }
        let pragma_refs: Vec<&Matrix> = pragma_rows.iter().collect();
        Self {
            x: Matrix::vcat(&xs),
            edge_attr: Matrix::vcat(&es),
            src,
            dst,
            node_graph,
            num_graphs: items.len(),
            pragma_x: Matrix::vcat(&pragma_refs),
        }
    }

    /// Batch of one sample.
    pub fn single(input: &GraphInput, point: &DesignPoint) -> Self {
        Self::new(&[(input, point)])
    }

    /// Total number of nodes across the batch.
    pub fn num_nodes(&self) -> usize {
        self.x.rows()
    }
}

/// Incoming edges grouped by destination node (compressed sparse rows).
///
/// The grouping is stable: each node's incoming edges keep their order in
/// the graph's edge list, which is the order the tape's scatter-add and
/// segment softmax visit them in.
#[derive(Debug, Clone)]
pub(crate) struct InEdges {
    /// Node `i`'s edges are entries `offsets[i]..offsets[i + 1]`.
    pub(crate) offsets: Vec<usize>,
    /// Edge id (row of the edge features) of each entry.
    pub(crate) edge: Vec<usize>,
    /// Source node of each entry.
    pub(crate) src: Vec<usize>,
    /// Destination node of each entry (non-decreasing).
    pub(crate) dst: Vec<usize>,
}

impl InEdges {
    fn new(num_nodes: usize, src: &[usize], dst: &[usize]) -> Self {
        let mut offsets = vec![0usize; num_nodes + 1];
        for &d in dst {
            offsets[d + 1] += 1;
        }
        for i in 0..num_nodes {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut edge = vec![0usize; dst.len()];
        let mut from = vec![0usize; dst.len()];
        let mut to = vec![0usize; dst.len()];
        for (e, (&s, &d)) in src.iter().zip(dst).enumerate() {
            edge[cursor[d]] = e;
            from[cursor[d]] = s;
            to[cursor[d]] = d;
            cursor[d] += 1;
        }
        Self { offsets, edge, src: from, dst: to }
    }

    /// Source nodes of node `i`'s incoming edges, in edge-list order.
    pub(crate) fn sources(&self, i: usize) -> &[usize] {
        &self.src[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// B design points of one kernel, lowered for
/// [`PredictionModel::infer`](crate::PredictionModel::infer).
///
/// The kernel is lowered once: its edge features, its incoming-edge lists
/// and the feature rows of its non-pragma nodes, which every point shares.
/// Each point adds only its pragma-node rows and its M1 pragma encoding.
/// Node `i` of point `b` is row `b * num_nodes + i` of every batched node
/// matrix, as in a [`GraphBatch`] of the same points.
#[derive(Debug, Clone)]
pub struct KernelBatch {
    pub(crate) num_nodes: usize,
    pub(crate) num_graphs: usize,
    /// Edge features `[E, EDGE_FEATS]` of the kernel.
    pub(crate) edge_attr: Matrix,
    pub(crate) in_edges: InEdges,
    /// Node index of each row of `template_x`.
    template_nodes: Vec<usize>,
    /// Node index of each pragma row of one point.
    pragma_nodes: Vec<usize>,
    /// Features of the non-pragma nodes `[N - P, NODE_FEATS]`.
    pub(crate) template_x: Matrix,
    /// Every point's pragma-node features `[B * P, NODE_FEATS]`, point by
    /// point.
    pub(crate) pragma_x: Matrix,
    /// Per-point pragma encodings `[B, MAX_SLOTS * SLOT_FEATS]` (M1 input).
    pub(crate) pragma_enc: Matrix,
}

impl KernelBatch {
    /// Lowers `graph` once and fills in each point's pragma rows.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    pub fn new(graph: &ProgramGraph, points: &[DesignPoint]) -> Self {
        assert!(!points.is_empty(), "empty batch");
        let num_nodes = graph.num_nodes();
        let pragma_nodes: Vec<usize> = graph.pragma_nodes().iter().map(|&(i, _)| i).collect();
        let mut is_pragma = vec![false; num_nodes];
        for &i in &pragma_nodes {
            is_pragma[i] = true;
        }
        let template_nodes: Vec<usize> = (0..num_nodes).filter(|&i| !is_pragma[i]).collect();
        let placeholder = node_features(graph, None);
        let mut template_x = Matrix::zeros(template_nodes.len(), placeholder.cols());
        for (r, &i) in template_nodes.iter().enumerate() {
            template_x.row_mut(r).copy_from_slice(placeholder.row(i));
        }
        let pragma_rows: Vec<Matrix> =
            points.iter().map(|p| pragma_node_features(graph, p)).collect();
        let encodings: Vec<Matrix> = points.iter().map(crate::model::encode_pragmas).collect();
        Self {
            num_nodes,
            num_graphs: points.len(),
            edge_attr: edge_features(graph),
            in_edges: InEdges::new(
                num_nodes,
                &graph.edge_sources(),
                &graph.edge_destinations(),
            ),
            template_nodes,
            pragma_nodes,
            template_x,
            pragma_x: Matrix::vcat(&pragma_rows.iter().collect::<Vec<_>>()),
            pragma_enc: Matrix::vcat(&encodings.iter().collect::<Vec<_>>()),
        }
    }

    /// Builds the batched `[B * N, F]` node matrix from per-row results: row
    /// `r` of `template` (computed once, on `template_x`) goes to the same
    /// node of every point, and `pragma` holds one result per row of
    /// `pragma_x`.
    pub(crate) fn assemble(&self, template: &Matrix, pragma: &Matrix) -> Matrix {
        let (n, p) = (self.num_nodes, self.pragma_nodes.len());
        let mut out = gdse_tensor::arena::zeros(self.num_graphs * n, template.cols());
        for b in 0..self.num_graphs {
            for (r, &i) in self.template_nodes.iter().enumerate() {
                out.row_mut(b * n + i).copy_from_slice(template.row(r));
            }
            for (r, &i) in self.pragma_nodes.iter().enumerate() {
                out.row_mut(b * n + i).copy_from_slice(pragma.row(b * p + r));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use design_space::DesignSpace;
    use hls_ir::kernels;
    use proggraph::build_graph_bidirectional;

    #[test]
    fn lowering_shapes_are_consistent() {
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let g = build_graph_bidirectional(&k, &space);
        let input = GraphInput::from_graph(&g, Some(&space.default_point()));
        assert_eq!(input.num_nodes(), g.num_nodes());
        assert_eq!(input.num_edges(), g.num_edges());
        assert_eq!(input.edge_attr.rows(), input.num_edges());
        assert_eq!(input.pragma_nodes.len(), space.num_slots());
    }

    #[test]
    fn batch_offsets_edges_and_segments() {
        let k = kernels::aes();
        let space = DesignSpace::from_kernel(&k);
        let g = build_graph_bidirectional(&k, &space);
        let p0 = space.default_point();
        let p1 = space.point_at(space.size() - 1);
        let i0 = GraphInput::from_graph(&g, Some(&p0));
        let i1 = GraphInput::from_graph(&g, Some(&p1));
        let batch = GraphBatch::new(&[(&i0, &p0), (&i1, &p1)]);
        let n = g.num_nodes();
        assert_eq!(batch.num_nodes(), 2 * n);
        assert_eq!(batch.num_graphs, 2);
        assert_eq!(batch.node_graph[0], 0);
        assert_eq!(batch.node_graph[2 * n - 1], 1);
        // Edges of the second graph point into the second node block.
        assert!(batch.src[g.num_edges()..].iter().all(|&s| s >= n));
        assert_eq!(batch.pragma_x.rows(), 2);
    }

    #[test]
    fn kernel_batch_assembles_the_rows_of_a_graph_batch() {
        let k = kernels::aes();
        let space = DesignSpace::from_kernel(&k);
        let g = build_graph_bidirectional(&k, &space);
        let points = [space.default_point(), space.point_at(space.size() - 1)];
        let kb = KernelBatch::new(&g, &points);
        let x = kb.assemble(&kb.template_x, &kb.pragma_x);
        let inputs: Vec<GraphInput> =
            points.iter().map(|p| GraphInput::from_graph(&g, Some(p))).collect();
        let batch = GraphBatch::new(&[(&inputs[0], &points[0]), (&inputs[1], &points[1])]);
        assert_eq!(x, batch.x);
        assert_eq!(kb.pragma_enc, batch.pragma_x);
        assert_eq!(kb.edge_attr, inputs[0].edge_attr);
    }

    #[test]
    fn in_edges_group_by_destination_in_edge_order() {
        let e = InEdges::new(3, &[0, 2, 1, 0], &[1, 1, 2, 1]);
        assert_eq!(e.offsets, [0, 0, 3, 4]);
        assert_eq!(e.edge, [0, 1, 3, 2]);
        assert_eq!(e.src, [0, 2, 0, 1]);
        assert_eq!(e.dst, [1, 1, 1, 2]);
        assert_eq!(e.sources(1), [0, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let _ = GraphBatch::new(&[]);
    }
}
