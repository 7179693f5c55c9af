//! The core CSR graph type.

use core::fmt;

use crate::{GraphError, NodeId};

/// An immutable simple undirected graph in compressed sparse row form.
///
/// Neighbour lists are sorted, enabling `O(log d)` adjacency queries and
/// cache-friendly iteration — the inner loop of every simulator round walks
/// these lists. Construction validates that the graph is simple (no
/// self-loops, no parallel edges).
///
/// # Examples
///
/// ```
/// use mis_graph::Graph;
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 3);
/// assert_eq!(g.degree(1), 2);
/// assert!(g.has_edge(2, 1));
/// assert!(!g.has_edge(0, 3));
/// # Ok::<(), mis_graph::GraphError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes `adjacency` for node `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbour lists.
    adjacency: Vec<NodeId>,
    /// Number of undirected edges.
    edge_count: usize,
}

impl Graph {
    /// Builds a graph with `node_count` nodes from an iterator of edges.
    ///
    /// Edges may appear in any orientation and duplicates are merged, so
    /// `(0, 1)` and `(1, 0)` describe the same single edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] for an edge `(v, v)`,
    /// [`GraphError::NodeOutOfRange`] for an endpoint `≥ node_count`, and
    /// [`GraphError::TooManyNodes`] if `node_count` exceeds `u32::MAX`.
    pub fn from_edges<I>(node_count: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        if node_count > u32::MAX as usize {
            return Err(GraphError::TooManyNodes {
                requested: node_count,
            });
        }
        let mut normalized: Vec<(NodeId, NodeId)> = Vec::new();
        for (u, v) in edges {
            if u == v {
                return Err(GraphError::SelfLoop { node: u });
            }
            for w in [u, v] {
                if w as usize >= node_count {
                    return Err(GraphError::NodeOutOfRange {
                        node: w,
                        node_count,
                    });
                }
            }
            normalized.push((u.min(v), u.max(v)));
        }
        normalized.sort_unstable();
        normalized.dedup();
        Ok(Self::from_sorted_dedup_edges(node_count, &normalized))
    }

    /// Builds a graph from edges already normalised (`u < v`), sorted and
    /// deduplicated. Used internally by generators that construct edges in
    /// canonical order and by [`GraphBuilder`](crate::GraphBuilder).
    pub(crate) fn from_sorted_dedup_edges(node_count: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut degrees = vec![0usize; node_count];
        for &(u, v) in edges {
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(node_count + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &d in &degrees {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut adjacency = vec![0 as NodeId; acc];
        for &(u, v) in edges {
            adjacency[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            adjacency[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Each node's slice is filled in increasing order of the *other*
        // endpoint only for the first endpoint; sort every list to restore
        // the invariant for both directions.
        for v in 0..node_count {
            adjacency[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Self {
            offsets,
            adjacency,
            edge_count: edges.len(),
        }
    }

    /// A graph with `node_count` nodes and no edges.
    ///
    /// # Panics
    ///
    /// Panics if `node_count` exceeds the `u32` index space.
    #[must_use]
    pub fn empty(node_count: usize) -> Self {
        assert!(
            node_count <= u32::MAX as usize,
            "node count exceeds u32 index space"
        );
        Self {
            offsets: vec![0; node_count + 1],
            adjacency: Vec::new(),
            edge_count: 0,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted neighbour list of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.adjacency[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether nodes `u` and `v` are adjacent.
    ///
    /// Runs in `O(log min(deg u, deg v))`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    #[must_use]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all node ids `0..n`.
    #[must_use]
    pub fn nodes(&self) -> NodeIter {
        NodeIter {
            range: 0..self.node_count() as NodeId,
        }
    }

    /// Iterator over all undirected edges `(u, v)` with `u < v`.
    #[must_use]
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter {
            graph: self,
            node: 0,
            pos: 0,
        }
    }

    /// Maximum degree Δ (0 for the empty graph).
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Minimum degree δ (0 for the empty graph).
    #[must_use]
    pub fn min_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).min().unwrap_or(0)
    }

    /// Heap bytes held by the CSR adjacency structure (offset array plus
    /// neighbour array) — the denominator of the scale tier's
    /// bytes-per-node comparisons against
    /// [`CompressedGraph`](crate::CompressedGraph).
    #[must_use]
    pub fn adjacency_bytes(&self) -> usize {
        self.adjacency.len() * core::mem::size_of::<NodeId>()
            + self.offsets.len() * core::mem::size_of::<usize>()
    }

    /// Mean degree `2m / n` (0 for the empty graph).
    #[must_use]
    pub fn mean_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            2.0 * self.edge_count as f64 / self.node_count() as f64
        }
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count)
            .field("max_degree", &self.max_degree())
            .finish()
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "graph with {} nodes, {} edges",
            self.node_count(),
            self.edge_count
        )
    }
}

/// Iterator over node ids, returned by [`Graph::nodes`].
#[derive(Debug, Clone)]
pub struct NodeIter {
    range: core::ops::Range<NodeId>,
}

impl Iterator for NodeIter {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        self.range.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for NodeIter {}

/// Iterator over undirected edges `(u, v)` with `u < v`, returned by
/// [`Graph::edges`].
#[derive(Debug, Clone)]
pub struct EdgeIter<'a> {
    graph: &'a Graph,
    node: NodeId,
    pos: usize,
}

impl Iterator for EdgeIter<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        let n = self.graph.node_count() as NodeId;
        while self.node < n {
            let nbrs = self.graph.neighbors(self.node);
            while self.pos < nbrs.len() {
                let v = nbrs[self.pos];
                self.pos += 1;
                if self.node < v {
                    return Some((self.node, v));
                }
            }
            self.node += 1;
            self.pos = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> Graph {
        // 0-1, 1-2, 2-0 triangle with pendant 3 attached to 0.
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = triangle_plus_pendant();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.min_degree(), 1);
        assert!((g.mean_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = triangle_plus_pendant();
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(g.has_edge(u, v), g.has_edge(v, u));
            }
        }
        assert!(!g.has_edge(1, 1));
        assert!(!g.has_edge(1, 3));
    }

    #[test]
    fn duplicate_and_reversed_edges_merge() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1), (2, 1)]).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn self_loop_rejected() {
        let err = Graph::from_edges(3, [(1, 1)]).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { node: 1 });
    }

    #[test]
    fn out_of_range_rejected() {
        let err = Graph::from_edges(2, [(0, 5)]).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 5, .. }));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edges().count(), 0);
        let g0 = Graph::empty(0);
        assert!(g0.is_empty());
        assert_eq!(g0.mean_degree(), 0.0);
    }

    #[test]
    fn edges_iterator_yields_canonical_pairs_once() {
        let g = triangle_plus_pendant();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (0, 3), (1, 2)]);
    }

    #[test]
    fn nodes_iterator_is_exact_size() {
        let g = triangle_plus_pendant();
        let it = g.nodes();
        assert_eq!(it.len(), 4);
        assert_eq!(it.collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn adjacency_lists_are_sorted() {
        let g = Graph::from_edges(6, [(5, 0), (3, 0), (1, 0), (4, 0), (2, 0)]).unwrap();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn debug_and_display_are_nonempty() {
        let g = triangle_plus_pendant();
        assert!(format!("{g:?}").contains("Graph"));
        assert!(format!("{g}").contains("4 nodes"));
    }
}
