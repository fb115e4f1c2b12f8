//! Incoming edges grouped by destination: the stable CSR that message
//! passing walks, both in the tape's fused attention
//! ([`Graph::attention_aggregate`](crate::Graph::attention_aggregate)) and
//! in `gdse-gnn`'s tape-free inference.

use std::ops::Range;

/// Incoming edges grouped by destination node (compressed sparse rows).
///
/// The grouping is stable: each node's incoming edges keep their order in
/// the edge list, which is the order the tape's scatter-add and segment
/// softmax visit them in. A walk over a node's entries therefore sums in
/// those ops' order, which is what keeps it bit-identical to them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InEdges {
    /// Node `i`'s entries are `offsets[i]..offsets[i + 1]`.
    offsets: Vec<usize>,
    /// Edge id (row of the edge list) of each entry.
    edge: Vec<usize>,
    /// Source node of each entry.
    src: Vec<usize>,
}

impl InEdges {
    /// Groups the edges `src[s] -> dst[s]` of a graph with `num_nodes`
    /// nodes by destination.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` differ in length or a destination is not
    /// below `num_nodes`.
    pub fn new(num_nodes: usize, src: &[usize], dst: &[usize]) -> Self {
        assert_eq!(src.len(), dst.len(), "one source per destination");
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
        for (e, (&s, &d)) in src.iter().zip(dst).enumerate() {
            edge[cursor[d]] = e;
            from[cursor[d]] = s;
            cursor[d] += 1;
        }
        Self {
            offsets,
            edge,
            src: from,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The entries of node `i`'s incoming edges.
    pub fn entries(&self, i: usize) -> Range<usize> {
        self.offsets[i]..self.offsets[i + 1]
    }

    /// Edge id (row of the edge list) of every entry.
    pub fn edges(&self) -> &[usize] {
        &self.edge
    }

    /// Source node of every entry.
    pub fn all_sources(&self) -> &[usize] {
        &self.src
    }

    /// Source nodes of node `i`'s incoming edges, in edge-list order.
    pub fn sources(&self, i: usize) -> &[usize] {
        &self.src[self.entries(i)]
    }
}
