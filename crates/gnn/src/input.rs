//! Model inputs: program graphs lowered to feature matrices + edge lists,
//! single or batched as a disjoint union, and [`KernelBatch`], the lowering
//! of many design points of one kernel that the tape-free forward reads.

use design_space::DesignPoint;
use gdse_tensor::{InEdges, Matrix};
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
}

impl GraphInput {
    /// Lowers a program graph (optionally filled with a design point).
    pub fn from_graph(graph: &ProgramGraph, point: Option<&DesignPoint>) -> Self {
        Self {
            x: node_features(graph, point),
            edge_attr: edge_features(graph),
            src: graph.edge_sources(),
            dst: graph.edge_destinations(),
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

/// Where each node's row sits in one layer's batched node matrix.
///
/// A node's row is *shared* when it is the same for every design point of
/// the batch and *varying* otherwise. The matrix holds the `S` shared rows
/// once, then each point's `V` varying rows: `S + B * V` rows, not
/// `B * N`. Both blocks keep node order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Layout {
    /// The shared nodes, then the varying nodes, each increasing.
    order: Vec<usize>,
    /// `S`, the number of shared nodes.
    num_shared: usize,
    /// Per node: its row at point 0, and how far its row moves from one
    /// point to the next (0 if shared, `V` if varying).
    place: Vec<(usize, usize)>,
}

impl Layout {
    fn new(varies: &[bool]) -> Self {
        let mut order = Vec::with_capacity(varies.len());
        order.extend((0..varies.len()).filter(|&i| !varies[i]));
        let num_shared = order.len();
        order.extend((0..varies.len()).filter(|&i| varies[i]));
        let step = order.len() - num_shared;
        let mut place = vec![(0, 0); varies.len()];
        for (r, &i) in order.iter().enumerate() {
            place[i] = (r, if r < num_shared { 0 } else { step });
        }
        Self { order, num_shared, place }
    }

    /// Nodes whose row every point shares, increasing.
    pub(crate) fn shared(&self) -> &[usize] {
        &self.order[..self.num_shared]
    }

    /// Nodes with a row of their own in every point, increasing.
    pub(crate) fn varying(&self) -> &[usize] {
        &self.order[self.num_shared..]
    }

    fn varies(&self, i: usize) -> bool {
        self.place[i].0 >= self.num_shared
    }

    /// Rows of a matrix in this layout over `points` design points.
    pub(crate) fn rows(&self, points: usize) -> usize {
        self.num_shared + points * (self.order.len() - self.num_shared)
    }

    /// The row holding node `i` of point `b`.
    pub(crate) fn row(&self, i: usize, b: usize) -> usize {
        let (first, step) = self.place[i];
        first + b * step
    }

    /// Fills `rows` with the row of every node of point `b`.
    pub(crate) fn rows_at(&self, b: usize, rows: &mut Vec<usize>) {
        rows.clear();
        rows.extend(self.place.iter().map(|&(first, step)| first + b * step));
    }
}

/// The layout of every layer's node matrix: layout `l` holds the input of
/// convolution `l` (layout 0: the node features), so convolution `l` writes
/// its output in layout `l + 1`.
///
/// Pragma nodes vary in the features (when the batch has more than one
/// point). A node's row varies at layer `l + 1` when its own row or a
/// source's row varies at layer `l`, so layout `l` varies on exactly the
/// nodes within `l` hops of a pragma node. The sequence stops at the
/// fixpoint; [`get`](Self::get) past it returns the last layout.
#[derive(Debug, Clone)]
pub(crate) struct Layouts(Vec<Layout>);

impl Layouts {
    pub(crate) fn new(in_edges: &InEdges, pragma_nodes: &[usize]) -> Self {
        let mut varies = vec![false; in_edges.num_nodes()];
        for &i in pragma_nodes {
            varies[i] = true;
        }
        let mut layouts = vec![Layout::new(&varies)];
        loop {
            let last = &layouts[layouts.len() - 1];
            let mut grew = false;
            for (i, v) in varies.iter_mut().enumerate() {
                if !*v && in_edges.sources(i).iter().any(|&s| last.varies(s)) {
                    *v = true;
                    grew = true;
                }
            }
            if !grew {
                return Self(layouts);
            }
            layouts.push(Layout::new(&varies));
        }
    }

    /// Layer `l`'s layout.
    pub(crate) fn get(&self, l: usize) -> &Layout {
        &self.0[l.min(self.0.len() - 1)]
    }
}

/// B design points of one kernel, lowered for
/// [`PredictionModel::infer`](crate::PredictionModel::infer).
///
/// The kernel is lowered once: its edge features, its incoming-edge lists,
/// the layout of every layer and the feature rows of its non-pragma nodes,
/// which every point shares. Each point adds only its pragma-node rows and
/// its M1 pragma encoding. With one point, no row varies: there is one
/// layout, with every row shared.
#[derive(Debug, Clone)]
pub struct KernelBatch {
    pub(crate) num_nodes: usize,
    pub(crate) num_graphs: usize,
    /// Edge features `[E, EDGE_FEATS]` of the kernel.
    pub(crate) edge_attr: Matrix,
    pub(crate) in_edges: InEdges,
    layouts: Layouts,
    /// Node features in layout 0: the non-pragma rows, then each point's
    /// pragma rows (`[N, NODE_FEATS]` in node order for a batch of one).
    pub(crate) x: Matrix,
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
        let in_edges = InEdges::new(num_nodes, &graph.edge_sources(), &graph.edge_destinations());
        let pragma_nodes: Vec<usize> = graph.pragma_nodes().iter().map(|&(i, _)| i).collect();
        // A row varies only if it can differ between the batch's points, so
        // a batch of one point shares every row.
        let varying = if points.len() > 1 { pragma_nodes.as_slice() } else { &[] };
        let layouts = Layouts::new(&in_edges, varying);
        let layout = layouts.get(0);
        let placeholder = node_features(graph, None);
        let mut x = Matrix::zeros(layout.rows(points.len()), placeholder.cols());
        for (r, &i) in layout.shared().iter().enumerate() {
            x.row_mut(r).copy_from_slice(placeholder.row(i));
        }
        for (b, point) in points.iter().enumerate() {
            let rows = pragma_node_features(graph, point);
            for (r, &i) in pragma_nodes.iter().enumerate() {
                x.row_mut(layout.row(i, b)).copy_from_slice(rows.row(r));
            }
        }
        let encodings: Vec<Matrix> = points.iter().map(crate::model::encode_pragmas).collect();
        Self {
            num_nodes,
            num_graphs: points.len(),
            edge_attr: edge_features(graph),
            in_edges,
            layouts,
            x,
            pragma_enc: Matrix::vcat(&encodings.iter().collect::<Vec<_>>()),
        }
    }

    /// Layer `l`'s layout (see [`Layouts`]).
    pub(crate) fn layout(&self, l: usize) -> &Layout {
        self.layouts.get(l)
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
    fn kernel_batch_features_are_a_graph_batchs_rows_in_layout_0() {
        let k = kernels::aes();
        let space = DesignSpace::from_kernel(&k);
        let g = build_graph_bidirectional(&k, &space);
        let points = [space.default_point(), space.point_at(space.size() - 1)];
        let inputs: Vec<GraphInput> =
            points.iter().map(|p| GraphInput::from_graph(&g, Some(p))).collect();
        let pragma: Vec<usize> = g.pragma_nodes().iter().map(|&(i, _)| i).collect();
        let n = g.num_nodes();
        for len in [1, 2] {
            let kb = KernelBatch::new(&g, &points[..len]);
            let items: Vec<_> = inputs.iter().zip(&points).take(len).collect();
            let batch = GraphBatch::new(&items);
            let layout = kb.layout(0);
            // One point shares every row; two vary on the pragma nodes.
            let varying: &[usize] = if len == 1 { &[] } else { &pragma };
            assert_eq!(layout.varying(), varying, "B = {len}");
            assert_eq!(kb.x.rows(), layout.rows(len));
            for b in 0..len {
                for i in 0..n {
                    let row = kb.x.row(layout.row(i, b));
                    assert_eq!(row, batch.x.row(b * n + i), "node {i}, point {b}, B = {len}");
                }
            }
            assert_eq!(kb.pragma_enc, batch.pragma_x);
            assert_eq!(kb.edge_attr, inputs[0].edge_attr);
        }
    }

    #[test]
    fn in_edges_group_by_destination_in_edge_order() {
        let e = InEdges::new(3, &[0, 2, 1, 0], &[1, 1, 2, 1]);
        assert_eq!(e.num_nodes(), 3);
        assert_eq!([e.entries(0), e.entries(1), e.entries(2)], [0..0, 0..3, 3..4]);
        assert_eq!(e.edges(), [0, 1, 3, 2]);
        assert_eq!(e.all_sources(), [0, 2, 0, 1]);
        assert_eq!(e.sources(1), [0, 2, 0]);
    }

    /// The path `0 - 1 - ... - (n - 1)`, with an edge each way.
    fn path(n: usize) -> InEdges {
        let src: Vec<usize> = (0..n - 1).chain(1..n).collect();
        let dst: Vec<usize> = (1..n).chain(0..n - 1).collect();
        InEdges::new(n, &src, &dst)
    }

    #[test]
    fn layout_l_varies_on_the_nodes_within_l_hops_of_a_pragma_node() {
        let layouts = Layouts::new(&path(5), &[4]);
        // Layout 4 varies on every node: the fixpoint, so the last layout.
        assert_eq!(layouts.0.len(), 5);
        for (l, layout) in layouts.0.iter().enumerate() {
            assert_eq!(layout.shared(), (0..4 - l).collect::<Vec<_>>(), "layout {l}");
            assert_eq!(layout.varying(), (4 - l..5).collect::<Vec<_>>(), "layout {l}");
        }
    }

    #[test]
    fn layouts_past_the_last_equal_the_last() {
        let layouts = Layouts::new(&path(5), &[4]);
        for l in 4..12 {
            assert_eq!(layouts.get(l), &layouts.0[4], "layer {l}");
        }
    }

    #[test]
    fn nodes_out_of_reach_of_every_pragma_node_stay_shared() {
        // The path 0 - 1 - 2, beside the edge 3 - 4.
        let e = InEdges::new(5, &[0, 1, 1, 2, 3, 4], &[1, 0, 2, 1, 4, 3]);
        let layouts = Layouts::new(&e, &[0]);
        assert_eq!(layouts.0.len(), 3);
        for l in 0..6 {
            assert!(layouts.get(l).shared().ends_with(&[3, 4]), "layer {l}");
        }
        assert_eq!(layouts.get(2).varying(), [0, 1, 2]);
        let none = Layouts::new(&e, &[]);
        assert_eq!(none.0.len(), 1);
        assert_eq!(none.get(0).shared(), [0, 1, 2, 3, 4]);
        assert!(none.get(0).varying().is_empty());
    }

    #[test]
    fn rows_hold_the_shared_block_then_each_points_varying_block() {
        // A pragma in the middle of the path: layout 1 shares nodes 0 and 4.
        let layouts = Layouts::new(&path(5), &[2]);
        let layout = layouts.get(1);
        assert_eq!((layout.shared(), layout.varying()), (&[0, 4][..], &[1, 2, 3][..]));
        let (s, v) = (2, 3);
        assert_eq!(layout.rows(4), s + 4 * v);
        for b in 0..4 {
            for (r, &i) in layout.shared().iter().enumerate() {
                assert_eq!(layout.row(i, b), r, "shared node {i}, point {b}");
            }
            for (r, &i) in layout.varying().iter().enumerate() {
                assert_eq!(layout.row(i, b), s + b * v + r, "varying node {i}, point {b}");
            }
            let mut rows = Vec::new();
            layout.rows_at(b, &mut rows);
            assert_eq!(rows, (0..5).map(|i| layout.row(i, b)).collect::<Vec<_>>(), "point {b}");
        }
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let _ = GraphBatch::new(&[]);
    }
}
