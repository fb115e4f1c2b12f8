//! Model inputs: program graphs lowered to feature matrices + edge lists,
//! single or batched as a disjoint union, and the two lowerings the
//! tape-free forward reads: [`KernelTemplate`], a kernel lowered once, and
//! [`KernelBatch`], many design points of it lowered on the template.
//!
//! The template holds what no design point changes: the incoming-edge
//! lists, the edge features, the feature rows of the non-pragma nodes and,
//! for each layer, the *resident* nodes, those no pragma node reaches
//! within the layer's hops. A [`KernelBatch`] lowers only its points' pragma
//! rows, and computes each other node's row once per group of points that
//! agree, bit for bit, on the features of every pragma node within reach
//! ([`Layouts`]). Layer 0 builds each pragma node's row once per distinct
//! value of its slot. The groups of layer `l + 1` are interned per node
//! from pairs (its group so far, a source's layer-`l` group) in an
//! open-addressing table of at least `2B` slots, reset only where it was
//! touched, so lowering stays linear in the batch: on the points a DSE run
//! scores, 2mm, mvt and gemm-ncubed take less time per point at B = 64 and
//! at B = 512 than at B = 1. A batch of one point, or of equal points, has
//! one row per node.

use design_space::DesignPoint;
use gdse_tensor::{InEdges, Matrix};
use proggraph::{edge_features, node_features, node_row, Node, ProgramGraph, NODE_FEATS};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Where each node's row sits in one layer's node matrix.
///
/// A call's matrix is held in two parts. The *resident* rows come first:
/// one per node that no pragma node reaches within the layer's hops, in node
/// order, computed once by the [`KernelTemplate`] and read by every call.
/// Then come the call's own rows. For each other node, the batch's points
/// fall into *groups* whose row for that node is the same (see
/// [`Layouts`]), and the call holds one row per group. Own rows are numbered
/// point by point: the rows first needed at point `b`, those of the nodes
/// whose group no earlier point is in, come after the rows of points `0..b`,
/// in node order. So point 0 needs one own row per node that is not
/// resident, and a node with one group has the same row at every point.
///
/// A template's own layouts have no resident rows and one point: each holds
/// the rows the template computes, and no row (`u32::MAX`) for the other
/// nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Layout {
    /// `N`, the number of nodes.
    num_nodes: usize,
    /// `row[b * N + i]`: the row holding node `i` of point `b`.
    row: Vec<u32>,
    /// The node of every row.
    node: Vec<u32>,
    /// The rows first needed at point `b` are `first[b]..first[b + 1]`; the
    /// rows below `first[0]` are resident.
    first: Vec<u32>,
}

impl Layout {
    /// The layout of a template's rows of the nodes `keep` selects, in
    /// node order.
    fn of_nodes(num_nodes: usize, keep: impl Fn(usize) -> bool) -> Self {
        let mut row = vec![u32::MAX; num_nodes];
        let mut node = Vec::new();
        for (i, r) in row.iter_mut().enumerate().filter(|(i, _)| keep(*i)) {
            *r = node.len() as u32;
            node.push(i as u32);
        }
        let first = vec![0, node.len() as u32];
        Layout { num_nodes, row, node, first }
    }

    /// Rows of a matrix in this layout, resident ones included.
    pub(crate) fn num_rows(&self) -> usize {
        self.node.len()
    }

    /// The number of resident rows, which come first.
    pub(crate) fn resident(&self) -> usize {
        self.first[0] as usize
    }

    /// Number of design points.
    pub(crate) fn points(&self) -> usize {
        self.first.len() - 1
    }

    /// The row holding node `i` of point `b`.
    pub(crate) fn row(&self, i: usize, b: usize) -> usize {
        self.row[b * self.num_nodes + i] as usize
    }

    /// The row of every node of point `b`, in node order.
    pub(crate) fn rows_at(&self, b: usize) -> &[u32] {
        &self.row[b * self.num_nodes..(b + 1) * self.num_nodes]
    }

    /// The rows first needed at point `b`: node `nodes[r]` is row
    /// `first + r`.
    pub(crate) fn first_needed(&self, b: usize) -> (usize, &[u32]) {
        let (first, end) = (self.first[b] as usize, self.first[b + 1] as usize);
        (first, &self.node[first..end])
    }
}

/// Each node's partition of a batch's `B` points into groups: a group id
/// per point, numbered in order of first appearance (point 0 is in group 0,
/// and each point not in an earlier point's group opens the next one), so
/// each partition has exactly one id vector.
struct Grouping {
    /// `ids[i * B + b]`: node `i`'s group at point `b`.
    ids: Vec<u32>,
    /// Number of groups of each node.
    counts: Vec<u32>,
}

impl Grouping {
    /// `num_nodes` nodes with one group each over `points` points.
    fn uniform(num_nodes: usize, points: usize) -> Self {
        Self { ids: vec![0; num_nodes * points], counts: vec![1; num_nodes] }
    }

    /// Groups node `i`'s points by the bits of a `width`-float row that is
    /// a function of the point's key, `key(b)`: each distinct key's row is
    /// written once, by `write(b, row)` at the first point `b` that holds
    /// it, and keys whose rows hold the same bits share a group. Appends
    /// the groups' rows to `rows`, in group order; `keys` is working space.
    fn group_by_key<K: PartialEq>(
        &mut self,
        i: usize,
        key: impl Fn(usize) -> K,
        write: impl Fn(usize, &mut [f32]),
        width: usize,
        rows: &mut Vec<f32>,
        keys: &mut Vec<(K, u32)>,
    ) {
        let b_count = self.points();
        let first = rows.len();
        keys.clear();
        for b in 0..b_count {
            let k = key(b);
            let g = match keys.iter().find(|(seen, _)| *seen == k) {
                Some(&(_, g)) => g,
                None => {
                    let count = (rows.len() - first) / width;
                    rows.resize(rows.len() + width, 0.0);
                    let (groups, row) = rows[first..].split_at_mut(count * width);
                    write(b, row);
                    let same = groups.chunks_exact(width).position(|r| same_bits(r, row));
                    if same.is_some() {
                        rows.truncate(rows.len() - width);
                    }
                    let g = same.unwrap_or(count) as u32;
                    keys.push((k, g));
                    g
                }
            };
            self.ids[i * b_count + b] = g;
        }
        self.counts[i] = ((rows.len() - first) / width) as u32;
    }

    fn points(&self) -> usize {
        self.ids.len() / self.counts.len()
    }

    fn of(&self, i: usize) -> &[u32] {
        let b_count = self.points();
        &self.ids[i * b_count..(i + 1) * b_count]
    }

    /// Numbers the rows of this grouping: the nodes that have a row in
    /// `resident`, a template's layout of the same layer, keep that row,
    /// and the own rows follow point by point, so each node's rows come in
    /// the order of its group ids. `scratch` is working space.
    fn layout(&self, resident: &Layout, scratch: &mut Vec<u32>) -> Layout {
        let (n, b_count) = (self.counts.len(), self.points());
        // `scratch[i]` is where node `i`'s later groups start in the rest
        // of `scratch`, which holds the row of each (`u32::MAX` until its
        // first point).
        scratch.clear();
        let mut later = 0;
        scratch.extend(self.counts.iter().map(|&c| {
            later += c - 1;
            later - (c - 1)
        }));
        scratch.resize(n + later as usize, u32::MAX);
        let (start, group_row) = scratch.split_at_mut(n);
        // Point 0 reads each resident node's row and opens group 0 of every
        // other node.
        let mut row: Vec<u32> = Vec::with_capacity(b_count * n);
        let mut node = Vec::with_capacity(n + later as usize);
        node.extend_from_slice(&resident.node);
        for (i, &r) in resident.rows_at(0).iter().enumerate() {
            if r == u32::MAX {
                row.push(node.len() as u32);
                node.push(i as u32);
            } else {
                debug_assert_eq!(self.counts[i], 1, "a resident node has one group");
                row.push(r);
            }
        }
        let mut first = Vec::with_capacity(b_count + 1);
        first.push(resident.num_rows() as u32);
        for b in 1..b_count {
            first.push(node.len() as u32);
            for i in 0..n {
                let g = self.ids[i * b_count + b];
                if g == 0 {
                    row.push(row[i]);
                    continue;
                }
                let r = &mut group_row[(start[i] + g - 1) as usize];
                if *r == u32::MAX {
                    *r = node.len() as u32;
                    node.push(i as u32);
                }
                row.push(*r);
            }
        }
        first.push(node.len() as u32);
        Layout { num_nodes: n, row, node, first }
    }
}

/// Interns (group, source group) pairs into new group ids, in order of
/// first appearance: an open-addressing table of at least `2B` slots for
/// `B` points, so a call, which sees at most `B` pairs, fills at most half
/// of it. Only the slots a call touched are reset after it.
#[derive(Default)]
struct PairTable {
    /// `(pair, id)` per slot, the pair packed as `g << 32 | s`; [`Self::FREE`]
    /// if the slot holds none.
    slots: Vec<(u64, u32)>,
    touched: Vec<usize>,
}

impl PairTable {
    /// The key of a free slot: no pair, since group ids stay below `B`.
    const FREE: u64 = u64::MAX;

    /// Replaces each point's group in `groups` by the id of its pair with
    /// the point's group in `src`, and returns the number of pairs.
    fn refine(&mut self, groups: &mut [u32], src: &[u32]) -> u32 {
        let want = (2 * groups.len()).next_power_of_two().max(2);
        if self.slots.len() < want {
            self.slots.resize(want, (Self::FREE, 0));
        }
        // Fibonacci hashing: the top `log2(slots)` bits of the product.
        let shift = 64 - self.slots.len().trailing_zeros();
        let mask = self.slots.len() - 1;
        for (g, &s) in groups.iter_mut().zip(src) {
            let pair = u64::from(*g) << 32 | u64::from(s);
            let mut k = (pair.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
            *g = loop {
                let (key, id) = self.slots[k];
                if key == pair {
                    break id;
                }
                if key == Self::FREE {
                    let id = self.touched.len() as u32;
                    self.slots[k] = (pair, id);
                    self.touched.push(k);
                    break id;
                }
                k = (k + 1) & mask;
            };
        }
        let pairs = self.touched.len() as u32;
        for k in self.touched.drain(..) {
            self.slots[k].0 = Self::FREE;
        }
        pairs
    }
}

/// The layout of every layer's node matrix: layout `l` holds the input of
/// convolution `l` (layout 0: the node features), so convolution `l` writes
/// its output in layout `l + 1`.
///
/// A template's layout `l` holds the *resident* nodes of layer `l`: those no
/// pragma node reaches within `l` hops along the edges, whose rows are the
/// same at every design point. A call's layout `l` starts with those rows
/// (see [`Layout`]) and groups each other node's points: layout 0 by its
/// feature row, and layout `l + 1` by the tuple of its own layout-`l` group,
/// then the layout-`l` group of each in-edge source in CSR order, since a
/// node's row after a convolution is a function of exactly those input
/// rows. So a node whose reachable pragma nodes all take one value in the
/// batch has one row in layout `l`, and a batch of one point has one row per
/// node everywhere. Each layout refines the one before; the sequence stops
/// at the layout of the deepest convolution output that will be read, or
/// earlier when neither the grouping nor the resident nodes change any
/// more, and [`get`](Self::get) past that fixpoint returns the last.
#[derive(Debug, Clone)]
pub(crate) struct Layouts(Vec<Layout>);

impl Layouts {
    /// A template's layouts `0..=depth` of the nodes beyond `l` hops of every
    /// node in `pragma`, or up to the fixpoint if it comes first.
    fn resident(in_edges: &InEdges, pragma: impl Iterator<Item = usize>, depth: usize) -> Self {
        let n = in_edges.num_nodes();
        let mut reached = vec![false; n];
        for i in pragma {
            reached[i] = true;
        }
        let mut layouts = vec![Layout::of_nodes(n, |i| !reached[i])];
        while layouts.len() <= depth {
            let next: Vec<bool> = (0..n)
                .map(|i| reached[i] || in_edges.sources(i).iter().any(|&s| reached[s]))
                .collect();
            if next == reached {
                break;
            }
            reached = next;
            layouts.push(Layout::of_nodes(n, |i| !reached[i]));
        }
        Self(layouts)
    }

    /// A call's layouts `0..=depth`, or up to the fixpoint if it comes
    /// first, with the resident rows of the template's `resident`.
    fn new(in_edges: &InEdges, mut grouping: Grouping, depth: usize, resident: &Layouts) -> Self {
        let (n, b_count) = (grouping.counts.len(), grouping.points());
        let mut scratch = Vec::new();
        let mut layouts = vec![grouping.layout(resident.get(0), &mut scratch)];
        let mut pairs = PairTable::default();
        // The nodes whose grouping got finer at the last layout; at layout
        // 0, finer than one group.
        let mut grew: Vec<bool> = grouping.counts.iter().map(|&c| c > 1).collect();
        // The nodes that get finer at the next layout with their group
        // counts, and their `B` new ids each.
        let mut finer: Vec<(usize, u32)> = Vec::new();
        let mut ids: Vec<u32> = Vec::new();
        while layouts.len() <= depth {
            for i in 0..n {
                // A node's grouping refines its sources' at the layout
                // before, so only sources that got finer can refine it; the
                // result does not depend on the order they are taken in.
                let mut count = grouping.counts[i];
                let own = ids.len();
                for &s in in_edges.sources(i) {
                    if count as usize == b_count {
                        // Every point has a group of its own already.
                        break;
                    }
                    if !grew[s] {
                        continue;
                    }
                    if ids.len() == own {
                        ids.extend_from_slice(grouping.of(i));
                    }
                    let new = &mut ids[own..];
                    count = if count == 1 {
                        new.copy_from_slice(grouping.of(s));
                        grouping.counts[s]
                    } else {
                        pairs.refine(new, grouping.of(s))
                    };
                }
                if count > grouping.counts[i] {
                    finer.push((i, count));
                } else {
                    ids.truncate(own);
                }
            }
            let l = layouts.len();
            if finer.is_empty() && std::ptr::eq(resident.get(l), resident.get(l - 1)) {
                break;
            }
            grew.fill(false);
            for (&(i, count), new) in finer.iter().zip(ids.chunks_exact(b_count)) {
                grouping.ids[i * b_count..(i + 1) * b_count].copy_from_slice(new);
                grouping.counts[i] = count;
                grew[i] = true;
            }
            finer.clear();
            ids.clear();
            layouts.push(grouping.layout(resident.get(l), &mut scratch));
        }
        Self(layouts)
    }

    /// Layer `l`'s layout. Past the last it returns the last, which is
    /// layer `l`'s only if the sequence stopped at its fixpoint, so callers
    /// read no deeper than the depth it was built for.
    pub(crate) fn get(&self, l: usize) -> &Layout {
        &self.0[l.min(self.0.len() - 1)]
    }
}

/// A kernel lowered once, for every call that predicts its design points
/// ([`KernelBatch`]) with models of up to `depth` convolutions: its edge
/// features, its incoming-edge lists, its pragma nodes, the feature rows of
/// its other nodes and, for each layer, which nodes are *resident*: those
/// no pragma node reaches within the layer's hops, whose rows no design
/// point changes. Each model computes its rows of those nodes once
/// ([`PredictionModel::template`](crate::PredictionModel::template)), so a
/// call lowers only its points' pragma rows and computes only the rows
/// within reach of a pragma node.
#[derive(Debug)]
pub struct KernelTemplate {
    /// This template's own number, which each model's template of it
    /// records, so a call cannot read a model template of another kernel.
    pub(crate) id: u64,
    /// Edge features `[E, EDGE_FEATS]` of the kernel.
    pub(crate) edge_attr: Matrix,
    pub(crate) in_edges: InEdges,
    /// The most convolutions a model reading it may have.
    pub(crate) depth: usize,
    /// Each pragma node, with its slot and its graph node.
    pragma: Vec<(usize, usize, Node)>,
    /// Layout `l` holds the resident rows of layer `l`.
    layouts: Layouts,
    /// Feature rows of the resident nodes of layer 0, every node but the
    /// pragma nodes, in layout 0.
    pub(crate) x: Matrix,
}

impl KernelTemplate {
    /// Lowers `graph` for models of up to `depth` convolutions (the deepest
    /// [`PredictionModel::convolutions`](crate::PredictionModel::convolutions)
    /// of the models that will read it).
    pub fn new(graph: &ProgramGraph, depth: usize) -> Self {
        let num_nodes = graph.num_nodes();
        let in_edges = InEdges::new(num_nodes, &graph.edge_sources(), &graph.edge_destinations());
        let pragma: Vec<(usize, usize, Node)> = graph
            .pragma_nodes()
            .into_iter()
            .map(|(i, slot)| (i, slot, graph.nodes()[i].clone()))
            .collect();
        let layouts = Layouts::resident(&in_edges, pragma.iter().map(|p| p.0), depth);
        let layout = layouts.get(0);
        let mut x = Matrix::zeros(layout.num_rows(), NODE_FEATS);
        for (r, &i) in layout.node.iter().enumerate() {
            node_row(&graph.nodes()[i as usize], None, x.row_mut(r));
        }
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        Self {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            edge_attr: edge_features(graph),
            in_edges,
            depth,
            pragma,
            layouts,
            x,
        }
    }

    /// Number of nodes of the kernel's graph.
    pub(crate) fn num_nodes(&self) -> usize {
        self.in_edges.num_nodes()
    }

    /// The template's layout of layer `l` (see [`Layouts`]), for
    /// `l <= depth`.
    pub(crate) fn layout(&self, l: usize) -> &Layout {
        self.layouts.get(l)
    }
}

/// B design points of one kernel, lowered on its [`KernelTemplate`] for
/// [`PredictionModel::infer`](crate::PredictionModel::infer).
///
/// Each pragma node adds one row per distinct value its slot takes in the
/// batch, and each point its M1 pragma encoding. Every layout starts with
/// the template's resident rows (see [`Layouts`]); points that agree on
/// every pragma value a node can see share that node's row, so with one
/// point, or with equal points, every layout has one row per node.
#[derive(Debug, Clone)]
pub struct KernelBatch<'t> {
    pub(crate) template: &'t KernelTemplate,
    pub(crate) num_graphs: usize,
    layouts: Layouts,
    /// The batch's own rows of layout 0: its pragma nodes' feature rows.
    pub(crate) x: Matrix,
    /// Per-point pragma encodings `[B, MAX_SLOTS * SLOT_FEATS]` (M1 input).
    pub(crate) pragma_enc: Matrix,
}

impl<'t> KernelBatch<'t> {
    /// Lowers `points` on `template`: the layouts of models of up to the
    /// template's depth, and each point's pragma rows.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    pub fn new(template: &'t KernelTemplate, points: &[DesignPoint]) -> Self {
        assert!(!points.is_empty(), "empty batch");
        let (layer_0, rows, mut next) = layer_0(template, points);
        let layouts = Layouts::new(&template.in_edges, layer_0, template.depth, &template.layouts);
        let layout = layouts.get(0);
        let resident = layout.resident();
        let mut x = Matrix::zeros(layout.num_rows() - resident, NODE_FEATS);
        for b in 0..points.len() {
            let (first, nodes) = layout.first_needed(b);
            for (r, &i) in nodes.iter().enumerate() {
                // Only the pragma nodes are not resident in layer 0; each
                // one's rows come in the order of its groups.
                let k = next[i as usize].as_mut().expect("a pragma node");
                let row = &rows[*k * NODE_FEATS..][..NODE_FEATS];
                x.row_mut(first - resident + r).copy_from_slice(row);
                *k += 1;
            }
        }
        let encodings: Vec<Matrix> = points.iter().map(crate::model::encode_pragmas).collect();
        Self {
            template,
            num_graphs: points.len(),
            layouts,
            x,
            pragma_enc: Matrix::vcat(&encodings.iter().collect::<Vec<_>>()),
        }
    }

    /// Layer `l`'s layout (see [`Layouts`]), for `l <= depth`.
    pub(crate) fn layout(&self, l: usize) -> &Layout {
        self.layouts.get(l)
    }
}

/// Layer 0's grouping of `points`: each pragma node's points grouped by the
/// bits of its feature row, built once per distinct value of the node's
/// slot, since the row is a function of that value; every other node's
/// points in one group. Returns it with the rows of the pragma nodes'
/// groups, [`NODE_FEATS`] floats each, and the index of each pragma node's
/// first row among them (`None` for other nodes); a node's rows follow in
/// group order.
fn layer_0(
    template: &KernelTemplate,
    points: &[DesignPoint],
) -> (Grouping, Vec<f32>, Vec<Option<usize>>) {
    let num_nodes = template.num_nodes();
    let mut grouping = Grouping::uniform(num_nodes, points.len());
    let (mut rows, mut keys) = (Vec::new(), Vec::new());
    let mut first_row = vec![None; num_nodes];
    for (i, slot, node) in &template.pragma {
        first_row[*i] = Some(rows.len() / NODE_FEATS);
        grouping.group_by_key(
            *i,
            |b| points[b].value(*slot),
            |b, row| node_row(node, Some(&points[b]), row),
            NODE_FEATS,
            &mut rows,
            &mut keys,
        );
    }
    (grouping, rows, first_row)
}

/// Whether two rows hold the same bits. Rows of different pragma values
/// mostly differ in their last, raw-option column, so compare from the end.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.iter().rev().zip(b.iter().rev()).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelConfig, ModelKind, PredictionModel};
    use design_space::DesignSpace;
    use hls_ir::kernels;
    use proggraph::build_graph_bidirectional;

    /// A depth past every fixpoint: every layout up to it.
    const ALL: usize = usize::MAX;

    impl Grouping {
        /// Groups node `i`'s points by comparing them with the first point
        /// of each group: `b` and `c` share a group when `same(b, c)`, which
        /// must be an equivalence.
        fn set(&mut self, i: usize, same: impl Fn(usize, usize) -> bool) {
            let b_count = self.points();
            let ids = &mut self.ids[i * b_count..(i + 1) * b_count];
            // The first point of each group after group 0, which point 0 opens.
            let mut reps: Vec<usize> = Vec::new();
            for (b, id) in ids.iter_mut().enumerate().skip(1) {
                let found = std::iter::once(0).chain(reps.iter().copied()).position(|c| same(c, b));
                *id = match found {
                    Some(g) => g as u32,
                    None => {
                        reps.push(b);
                        reps.len() as u32
                    }
                };
            }
            self.counts[i] = reps.len() as u32 + 1;
        }
    }

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

    /// The layouts of a graph whose node `i` takes `values[b]` at point `b`
    /// for each `(i, values)` of `pragma`, and one value elsewhere.
    fn synthetic(in_edges: &InEdges, points: usize, pragma: &[(usize, Vec<u32>)]) -> Layouts {
        let mut layer_0 = Grouping::uniform(in_edges.num_nodes(), points);
        for (i, values) in pragma {
            layer_0.set(*i, |b, c| values[b] == values[c]);
        }
        let resident = Layouts::resident(in_edges, pragma.iter().map(|p| p.0), ALL);
        Layouts::new(in_edges, layer_0, ALL, &resident)
    }

    /// Every template, and a batch of `points` on it, lowered with every
    /// layout.
    fn lowered(g: &ProgramGraph, points: &[DesignPoint]) -> (KernelTemplate, Layouts, Matrix) {
        let template = KernelTemplate::new(g, ALL);
        let kb = KernelBatch::new(&template, points);
        let (layouts, x) = (kb.layouts, kb.x);
        (template, layouts, x)
    }

    /// The feature row of node `i` at point `b` in a batch's layout 0: the
    /// template's resident row, or one of the batch's own rows `x`.
    fn feature_row<'a>(
        template: &'a KernelTemplate,
        layouts: &Layouts,
        x: &'a Matrix,
        i: usize,
        b: usize,
    ) -> &'a [f32] {
        let (layout, row) = (layouts.get(0), layouts.get(0).row(i, b));
        match row.checked_sub(layout.resident()) {
            Some(own) => x.row(own),
            None => template.x.row(row),
        }
    }

    /// Asserts the grouping rule on every layout, one past the last
    /// included: node `i` shares a row between points `b` and `c` in
    /// layout 0 iff `same_input(i, b, c)`, and in layout `l + 1` iff it and
    /// each of its sources share one in layout `l`.
    fn assert_rule(
        in_edges: &InEdges,
        layouts: &Layouts,
        points: usize,
        same_input: impl Fn(usize, usize, usize) -> bool,
    ) {
        let n = in_edges.num_nodes();
        let pairs: Vec<(usize, usize)> =
            (0..points).flat_map(|b| (b + 1..points).map(move |c| (b, c))).collect();
        let shared = |l: usize, i: usize, (b, c): (usize, usize)| {
            layouts.get(l).row(i, b) == layouts.get(l).row(i, c)
        };
        for i in 0..n {
            for &(b, c) in &pairs {
                assert_eq!(shared(0, i, (b, c)), same_input(i, b, c), "layout 0, node {i}");
            }
        }
        for l in 0..layouts.0.len() {
            for i in 0..n {
                for &pair in &pairs {
                    let inputs = std::iter::once(&i).chain(in_edges.sources(i));
                    let expected = inputs.clone().all(|&s| shared(l, s, pair));
                    assert_eq!(shared(l + 1, i, pair), expected, "layout {}, node {i}", l + 1);
                }
            }
        }
    }

    /// Sweep-shaped batches of `space`: consecutive mixed-radix indices (the
    /// last slots vary), the same with every point twice, and a random draw.
    fn batches(space: &DesignSpace, points: usize, seed: u128) -> Vec<Vec<DesignPoint>> {
        let at = |k: u128| space.point_at(k % space.size());
        let base = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) % space.size();
        let sweep: Vec<_> = (0..points as u128).map(|k| at(base + k)).collect();
        let twice: Vec<_> = (0..points as u128).map(|k| at(base + k / 2)).collect();
        let random: Vec<_> = (0..points as u128)
            .map(|k| at(base.wrapping_add(k.wrapping_mul(0x5851_f42d_4c95_7f2d))))
            .collect();
        vec![sweep, twice, random]
    }

    #[test]
    fn one_point_has_one_row_per_node_in_every_layout() {
        for k in kernels::all_kernels() {
            let space = DesignSpace::from_kernel(&k);
            let g = build_graph_bidirectional(&k, &space);
            let n = g.num_nodes();
            let point = space.point_at(space.size() - 1);
            let (template, layouts, x) = lowered(&g, std::slice::from_ref(&point));
            // Only the resident rows change from layout to layout.
            assert_eq!(layouts.0.len(), template.layouts.0.len(), "{}", k.name());
            for l in 0..8 {
                let layout = layouts.get(l);
                assert_eq!(layout.num_rows(), n, "{}, layout {l}", k.name());
                let mut rows = layout.rows_at(0).to_vec();
                rows.sort_unstable();
                assert_eq!(rows, (0..n as u32).collect::<Vec<_>>());
            }
            let features = node_features(&g, Some(&point));
            for i in 0..n {
                let row = feature_row(&template, &layouts, &x, i, 0);
                assert_eq!(row, features.row(i), "{}, node {i}", k.name());
            }
        }
    }

    #[test]
    fn layer_0_groups_by_value_as_a_row_compare_does() {
        for k in kernels::all_kernels() {
            let space = DesignSpace::from_kernel(&k);
            let g = build_graph_bidirectional(&k, &space);
            let n = g.num_nodes();
            let mut sweep = batches(&space, 64, 11);
            sweep.push((0..600u128).map(|i| space.point_at(i % space.size())).collect());
            for points in sweep {
                let features: Vec<Matrix> =
                    points.iter().map(|p| node_features(&g, Some(p))).collect();
                // Each node's points compared row by row with the first
                // point of each group, as layer 0 was grouped before.
                let mut want = Grouping::uniform(n, points.len());
                for (i, slot) in g.pragma_nodes() {
                    want.set(i, |b, c| {
                        points[b].value(slot) == points[c].value(slot)
                            || same_bits(features[b].row(i), features[c].row(i))
                    });
                }
                let (got, rows, first_row) = layer_0(&KernelTemplate::new(&g, 0), &points);
                assert_eq!(got.ids, want.ids, "{}, B = {}", k.name(), points.len());
                assert_eq!(got.counts, want.counts, "{}", k.name());
                // Each group's row is the feature row of each of its points.
                for (i, first) in first_row.iter().enumerate() {
                    let Some(first) = first else { continue };
                    for (b, &id) in got.of(i).iter().enumerate() {
                        let at = (first + id as usize) * NODE_FEATS;
                        assert_eq!(&rows[at..at + NODE_FEATS], features[b].row(i), "node {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn keys_whose_rows_hold_equal_bits_share_a_group() {
        // Node 1 takes key `b` at point `b`, and its row is the key's parity
        // (as `-0.0` or `1.0`, but `0.0` for key 4): keys 0, 2 and 6 share
        // the first row's bits, key 4 does not, although `0.0 == -0.0`.
        let mut grouping = Grouping::uniform(2, 8);
        let (mut rows, mut keys) = (vec![5.0], Vec::new());
        let row = |b: usize| match b {
            4 => 0.0,
            _ if b.is_multiple_of(2) => -0.0,
            _ => 1.0,
        };
        grouping.group_by_key(1, |b| b, |b, out| out[0] = row(b), 1, &mut rows, &mut keys);
        assert_eq!(grouping.of(0), [0; 8]);
        assert_eq!(grouping.of(1), [0, 1, 0, 1, 2, 1, 0, 1]);
        assert_eq!(grouping.counts, [1, 3]);
        let bits: Vec<u32> = rows.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, [5.0f32, -0.0, 1.0, 0.0].map(f32::to_bits), "appended in group order");
    }

    #[test]
    fn identical_points_share_one_row_per_node() {
        let k = kernels::aes();
        let space = DesignSpace::from_kernel(&k);
        let g = build_graph_bidirectional(&k, &space);
        let n = g.num_nodes();
        let points = vec![space.point_at(space.size() / 3); 5];
        let (template, layouts, x) = lowered(&g, &points);
        assert_eq!(layouts.0.len(), template.layouts.0.len());
        let layout = layouts.get(0);
        assert_eq!(layout.num_rows(), n);
        let own = n - layout.resident();
        for b in 0..points.len() {
            assert_eq!(layout.rows_at(b), layout.rows_at(0), "point {b}");
            assert_eq!(layout.first_needed(b).1.len(), if b == 0 { own } else { 0 }, "point {b}");
        }
        assert_eq!(x, lowered(&g, &points[..1]).2);
    }

    #[test]
    fn a_pragma_with_two_values_over_four_points_splits_its_reach() {
        // Node 4 of the path takes value 7 at points 0 and 2, 9 at 1 and 3.
        let layouts = synthetic(&path(5), 4, &[(4, vec![7, 9, 7, 9])]);
        // Layout 4 splits every node: the fixpoint, so the last layout.
        assert_eq!(layouts.0.len(), 5);
        for (l, layout) in layouts.0.iter().enumerate() {
            // Point 0 needs one row per node; point 1 a second row for each
            // node within `l` hops of node 4; points 2 and 3 nothing new.
            // The nodes out of its reach are resident, and come first.
            let reach: Vec<u32> = (4 - l as u32..5).collect();
            assert_eq!(layout.num_rows(), 5 + reach.len(), "layout {l}");
            assert_eq!(layout.resident(), 4 - l, "layout {l}");
            assert_eq!(layout.first_needed(0), (4 - l, &reach[..]), "layout {l}");
            assert_eq!(layout.first_needed(1), (5, &reach[..]), "layout {l}");
            for b in [2, 3] {
                assert_eq!(layout.first_needed(b).1, &[] as &[u32], "layout {l}, point {b}");
                assert_eq!(layout.rows_at(b), layout.rows_at(b - 2), "layout {l}, point {b}");
            }
            for i in 0..5 {
                let second = reach.iter().position(|&r| r == i as u32).map_or(i, |r| 5 + r);
                assert_eq!(layout.row(i, 1), second, "layout {l}, node {i}");
            }
        }
    }

    #[test]
    fn rows_are_numbered_point_by_point_in_node_order() {
        for k in kernels::all_kernels() {
            let space = DesignSpace::from_kernel(&k);
            let g = build_graph_bidirectional(&k, &space);
            let n = g.num_nodes();
            for points in batches(&space, 17, 7) {
                let (template, layouts, _) = lowered(&g, &points);
                for (l, layout) in layouts.0.iter().enumerate() {
                    // The template's resident rows come first, in node order.
                    let resident = template.layout(l);
                    assert_eq!(layout.node[..layout.resident()], resident.node[..]);
                    for (r, &i) in resident.node.iter().enumerate() {
                        assert!((0..points.len()).all(|b| layout.row(i as usize, b) == r));
                    }
                    let mut next = layout.resident();
                    for b in 0..points.len() {
                        // Point `b`'s new rows follow the earlier points'
                        // rows, in node order, and every row it reads is
                        // one of those or its own.
                        let (first, nodes) = layout.first_needed(b);
                        assert_eq!(first, next, "{}, point {b}", k.name());
                        assert!(nodes.windows(2).all(|w| w[0] < w[1]));
                        for (r, &i) in nodes.iter().enumerate() {
                            assert_eq!(layout.row(i as usize, b), first + r);
                        }
                        next = first + nodes.len();
                        let rows = layout.rows_at(b);
                        assert_eq!(rows.len(), n);
                        for (i, &row) in rows.iter().enumerate() {
                            assert!((row as usize) < next, "{}, node {i}", k.name());
                            assert_eq!(layout.row(i, b), row as usize);
                        }
                    }
                    assert_eq!(next, layout.num_rows());
                }
            }
        }
    }

    #[test]
    fn templates_hold_the_rows_no_pragma_node_reaches() {
        // (kernel, nodes, resident rows of layer 0, of M7's four outputs)
        for (k, n, layer_0, outputs) in
            [(kernels::gemm_ncubed(), 28, 21, 30), (kernels::mm2(), 59, 45, 65)]
        {
            let space = DesignSpace::from_kernel(&k);
            let g = build_graph_bidirectional(&k, &space);
            let template = KernelTemplate::new(&g, 4);
            assert_eq!(template.num_nodes(), n, "{}", k.name());
            let pragma = g.pragma_nodes().len();
            let resident_rows = |l: usize| template.layout(l).num_rows();
            assert_eq!(resident_rows(0), n - pragma, "{}", k.name());
            assert_eq!(resident_rows(0), layer_0, "{}", k.name());
            let resident: usize = (1..=4).map(resident_rows).sum();
            assert_eq!(resident, outputs, "{}", k.name());
            assert_eq!(template.x, {
                let features = node_features(&g, None);
                let rows: Vec<&[f32]> = (0..n)
                    .filter(|i| g.nodes()[*i].pragma_slot.is_none())
                    .map(|i| features.row(i))
                    .collect();
                Matrix::from_rows(&rows)
            });
        }
    }

    #[test]
    fn layouts_past_the_last_equal_the_last() {
        let layouts = synthetic(&path(5), 4, &[(4, vec![7, 9, 7, 9])]);
        for l in 4..12 {
            assert_eq!(layouts.get(l), &layouts.0[4], "layer {l}");
        }
    }

    #[test]
    fn nodes_out_of_reach_of_every_pragma_node_stay_shared() {
        // The path 0 - 1 - 2, beside the edge 3 - 4.
        let e = InEdges::new(5, &[0, 1, 1, 2, 3, 4], &[1, 0, 2, 1, 4, 3]);
        let layouts = synthetic(&e, 3, &[(0, vec![0, 1, 2])]);
        assert_eq!(layouts.0.len(), 3);
        for l in 0..6 {
            let layout = layouts.get(l);
            // Nodes 3 and 4 are the last two resident rows at every point.
            let r = layout.resident() as u32;
            for b in 0..3 {
                assert_eq!(layout.rows_at(b)[3..], [r - 2, r - 1], "layer {l}, point {b}");
            }
        }
        assert_eq!(layouts.get(2).num_rows(), 5 + 2 * 3);
        let none = synthetic(&e, 3, &[]);
        assert_eq!(none.0.len(), 1);
        assert_eq!(none.get(0).num_rows(), 5);
    }

    #[test]
    fn kernel_batch_features_are_a_graph_batchs_rows_in_layout_0() {
        let k = kernels::aes();
        let space = DesignSpace::from_kernel(&k);
        let g = build_graph_bidirectional(&k, &space);
        let n = g.num_nodes();
        for len in [1, 2, 17] {
            for points in batches(&space, len, len as u128) {
                let inputs: Vec<GraphInput> =
                    points.iter().map(|p| GraphInput::from_graph(&g, Some(p))).collect();
                let items: Vec<_> = inputs.iter().zip(&points).collect();
                let batch = GraphBatch::new(&items);
                let template = KernelTemplate::new(&g, ALL);
                let kb = KernelBatch::new(&template, &points);
                let layout = kb.layout(0);
                assert_eq!(template.x.rows() + kb.x.rows(), layout.num_rows());
                for b in 0..len {
                    for i in 0..n {
                        let row = feature_row(&template, &kb.layouts, &kb.x, i, b);
                        assert_eq!(row, batch.x.row(b * n + i), "node {i}, point {b}, B = {len}");
                    }
                }
                assert_eq!(kb.pragma_enc, batch.pragma_x);
                assert_eq!(template.edge_attr, inputs[0].edge_attr);
            }
        }
    }

    #[test]
    fn layout_l_plus_1_refines_layout_l_by_the_sources_groups() {
        for k in kernels::all_kernels() {
            let space = DesignSpace::from_kernel(&k);
            let g = build_graph_bidirectional(&k, &space);
            for points in batches(&space, 9, 3) {
                let (template, layouts, _) = lowered(&g, &points);
                let features: Vec<Matrix> =
                    points.iter().map(|p| node_features(&g, Some(p))).collect();
                assert_rule(&template.in_edges, &layouts, points.len(), |i, b, c| {
                    same_bits(features[b].row(i), features[c].row(i))
                });
            }
        }
    }

    #[test]
    fn batches_of_many_more_possible_pairs_than_points_follow_the_rule() {
        // Node 1 of the path pairs node 0's 300 groups with node 2's 300:
        // 90,000 possible pairs over 600 points.
        let b_count = 600;
        let values = |f: fn(u32) -> u32| (0..b_count as u32).map(f).collect::<Vec<_>>();
        let pragma = [(0, values(|b| b % 300)), (2, values(|b| (b / 2) % 300))];
        let e = path(3);
        let layouts = synthetic(&e, b_count, &pragma);
        assert_rule(&e, &layouts, b_count, |i, b, c| {
            pragma.iter().all(|(p, v)| *p != i || v[b] == v[c])
        });
    }

    #[test]
    fn row_counts_never_exceed_the_shared_rows_plus_each_points_varying_rows() {
        for k in kernels::all_kernels() {
            let space = DesignSpace::from_kernel(&k);
            let g = build_graph_bidirectional(&k, &space);
            let n = g.num_nodes();
            for len in [2, 17, 64] {
                for points in batches(&space, len, 5) {
                    let (template, layouts, _) = lowered(&g, &points);
                    // The nodes within `l` hops of a pragma node: a row of
                    // their own at every point before row groups.
                    let mut reach = vec![false; n];
                    for (i, _) in g.pragma_nodes() {
                        reach[i] = true;
                    }
                    for l in 0..layouts.0.len() + 2 {
                        let varying = reach.iter().filter(|&&r| r).count();
                        let layout = layouts.get(l);
                        assert!(layout.num_rows() <= n - varying + len * varying);
                        assert_eq!(layout.resident(), n - varying, "layout {l}");
                        for i in (0..n).filter(|&i| !reach[i]) {
                            for b in 0..len {
                                assert_eq!(layout.row(i, b), layout.row(i, 0), "node {i}");
                            }
                        }
                        let grown: Vec<usize> = (0..n)
                            .filter(|&i| template.in_edges.sources(i).iter().any(|&s| reach[s]))
                            .collect();
                        for i in grown {
                            reach[i] = true;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lowering_stops_at_the_deepest_layout_a_model_reads() {
        // 64 consecutive points of 2mm, as a DSE sweep batches them: the
        // groupings keep getting finer up to layout 9.
        let k = kernels::mm2();
        let space = DesignSpace::from_kernel(&k);
        let g = build_graph_bidirectional(&k, &space);
        let points: Vec<_> = (0..64u128).map(|i| space.point_at(i)).collect();
        let (all_template, all_m7) = (KernelTemplate::new(&g, ALL), KernelTemplate::new(&g, 4));
        let all = KernelBatch::new(&all_template, &points);
        assert_eq!(all.layouts.0.len(), 10);
        // M7's 4 convolutions read layouts 0-4 only.
        let m7 = KernelBatch::new(&all_m7, &points);
        assert_eq!(m7.layouts.0.len(), 5);
        assert_eq!(m7.layouts.0[..], all.layouts.0[..5]);
        assert_eq!(m7.x, all.x);
    }

    #[test]
    #[should_panic(expected = "a model of 3 convolutions reads a batch lowered for 2")]
    fn a_model_deeper_than_its_batch_panics() {
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let g = build_graph_bidirectional(&k, &space);
        let model = PredictionModel::new(ModelKind::Full, ModelConfig::small(), &["y"]);
        assert_eq!(model.convolutions(), 3);
        let _ = model.template(&KernelTemplate::new(&g, 2));
    }

    #[test]
    #[should_panic(expected = "a model template of another kernel template")]
    fn a_model_template_of_another_kernel_template_panics() {
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let g = build_graph_bidirectional(&k, &space);
        let model = PredictionModel::new(ModelKind::Full, ModelConfig::small(), &["y"]);
        let depth = model.convolutions();
        // Two lowerings of the same kernel: still not each other's.
        let (built_on, other) = (KernelTemplate::new(&g, depth), KernelTemplate::new(&g, depth));
        let template = model.template(&built_on);
        let point = space.default_point();
        let _ = model.infer(&template, &KernelBatch::new(&other, std::slice::from_ref(&point)));
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let _ = GraphBatch::new(&[]);
    }
}
