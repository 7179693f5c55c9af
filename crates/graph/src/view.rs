//! Implicit graph views: adjacency computed on the fly, never materialised.
//!
//! The classical MIS reductions ([`ops::line_graph`](crate::ops::line_graph),
//! [`ops::cartesian_product`](crate::ops::cartesian_product), per-phase
//! [`ops::induced_subgraph`](crate::ops::induced_subgraph)) all
//! *materialise* their derived graph
//! before the simulator starts — for a matching run on `G(10k, d≈64)` that
//! means building a ~320k-node line graph whose adjacency arrays dwarf the
//! base CSR by the mean degree. The [`GraphView`] trait lets the beeping
//! simulator and `mis-core`'s solve path run directly on **lazy adapters**
//! instead:
//!
//! * [`LineGraphView`] — `L(G)`, one node per edge of the base graph;
//! * [`ProductView`] — `G □ K_k`, the Luby colouring reduction;
//! * [`InducedView`] — the subgraph induced by a sorted node selection.
//!
//! Each adapter stores only `O(n + m)` indexing state over the borrowed base
//! CSR (never the derived adjacency, which is `O(Σ deg²)` for the line
//! graph) and computes neighbour lists on demand, in the exact order the
//! materialised [`ops`](crate::ops) constructions would store them.
//!
//! # The adjacency contract
//!
//! Implementations must describe a *simple undirected* graph and visit each
//! node's neighbours in **strictly ascending id order, without duplicates or
//! self-loops**, symmetrically (`u ∈ N(v) ⟺ v ∈ N(u)`). [`Graph`] satisfies
//! this by its CSR invariant; the adapters preserve it structurally. The
//! simulator's bitset propagation kernel exploits the ordering to fold
//! word-grouped neighbour masks.
//!
//! # Cursors
//!
//! A pass that reads node after node (a degree sweep, a propagation
//! pass) reads through one [`NeighborCursor`] from
//! [`GraphView::cursor`]. In-memory views return [`PerNode`], which
//! forwards each read to the per-node calls; the paged
//! [`DiskGraph`](crate::DiskGraph) keeps the block it read last, so a run
//! of reads inside one 64-node block costs one cache lookup.
//!
//! # Examples
//!
//! ```
//! use mis_graph::{generators, ops, GraphView, LineGraphView};
//!
//! let g = generators::path(4); // edges 0-1, 1-2, 2-3
//! let view = LineGraphView::new(&g);
//! let (materialized, edges) = ops::line_graph(&g);
//! assert_eq!(view.node_count(), materialized.node_count());
//! assert_eq!(view.edges(), &edges[..]);
//! for v in 0..view.node_count() as u32 {
//!     assert_eq!(view.neighbors_vec(v), materialized.neighbors(v));
//! }
//! ```

use core::ops::ControlFlow;

use crate::{Graph, NodeId};

/// Read-only adjacency interface shared by [`Graph`] and the lazy views.
///
/// The beeping simulator's propagation kernels, the message-passing
/// runtime of `mis-baselines`, and `mis-core`'s solve/verify path are all
/// generic over this trait, so a derived graph never has to be
/// materialised to be *simulated*. See the [module docs](self) for the
/// adjacency contract implementations must uphold.
///
/// # Examples
///
/// Code written against the trait runs identically on a CSR graph and on
/// any lazy adapter:
///
/// ```
/// use mis_graph::{generators, GraphView, ProductView};
///
/// fn isolated_nodes<G: GraphView + ?Sized>(g: &G) -> usize {
///     (0..g.node_count() as u32).filter(|&v| g.degree(v) == 0).count()
/// }
///
/// let g = generators::path(3);
/// assert_eq!(isolated_nodes(&g), 0);
/// let product = ProductView::new(&g, 2); // P₃ □ K₂: still no isolates
/// assert_eq!(isolated_nodes(&product), 0);
/// assert_eq!(product.max_degree(), g.max_degree() + 1);
/// ```
pub trait GraphView: Sync {
    /// The [`NeighborCursor`] that [`cursor`](Self::cursor) returns.
    type Cursor<'a>: NeighborCursor
    where
        Self: 'a;

    /// A cursor for one pass of reads. It answers exactly as
    /// [`degree`](Self::degree) and
    /// [`try_for_each_neighbor`](Self::try_for_each_neighbor) do, in any
    /// node order, but may keep state between reads (the paged backend
    /// keeps its current block).
    fn cursor(&self) -> Self::Cursor<'_>;

    /// Number of nodes; valid ids are exactly `0..node_count()`.
    fn node_count(&self) -> usize;

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    fn degree(&self, v: NodeId) -> usize;

    /// Visits the neighbours of `v` in strictly ascending id order until
    /// `f` breaks or the list is exhausted. Returns whatever the last call
    /// to `f` returned (`Continue` for an exhausted or empty list).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    fn try_for_each_neighbor<F>(&self, v: NodeId, f: F) -> ControlFlow<()>
    where
        F: FnMut(NodeId) -> ControlFlow<()>;

    /// Visits every neighbour of `v` in ascending id order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    fn for_each_neighbor<F>(&self, v: NodeId, mut f: F)
    where
        F: FnMut(NodeId),
    {
        let _ = self.try_for_each_neighbor(v, |u| {
            f(u);
            ControlFlow::Continue(())
        });
    }

    /// The neighbours of `v` collected into a vector (ascending).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    fn neighbors_vec(&self, v: NodeId) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.degree(v));
        self.for_each_neighbor(v, |u| out.push(u));
        out
    }

    /// Whether the view has no nodes.
    fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// Number of undirected edges (`Σ deg / 2` by default).
    fn edge_count(&self) -> usize {
        let mut cursor = self.cursor();
        let total: usize = (0..self.node_count() as NodeId)
            .map(|v| cursor.degree(v))
            .sum();
        total / 2
    }

    /// Maximum degree Δ (0 for the empty view).
    fn max_degree(&self) -> usize {
        let mut cursor = self.cursor();
        (0..self.node_count() as NodeId)
            .map(|v| cursor.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Whether `u` and `v` are adjacent (linear scan with early exit over
    /// the lower-degree endpoint's ascending neighbour list).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        let mut found = false;
        let _ = self.try_for_each_neighbor(a, |w| {
            if w >= b {
                found = w == b;
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        found
    }

    /// Materialises the view into a CSR [`Graph`] — the equivalence anchor
    /// for tests and benchmarks, **not** something the simulation path ever
    /// needs.
    fn materialize(&self) -> Graph {
        let n = self.node_count();
        let mut edges = Vec::with_capacity(self.edge_count());
        let mut cursor = self.cursor();
        for v in 0..n as NodeId {
            cursor.for_each_neighbor(v, |u| {
                if v < u {
                    edges.push((v, u));
                }
            });
        }
        Graph::from_edges(n, edges).expect("a GraphView describes a valid simple graph")
    }
}

/// Reads degrees and neighbour lists of one [`GraphView`] node after node,
/// for one pass. Answers exactly as the view's per-node calls do, in any
/// node order; an implementation may only make a run of nearby reads
/// cheaper.
///
/// # Examples
///
/// ```
/// use mis_graph::{generators, GraphView, NeighborCursor};
///
/// let g = generators::cycle(5);
/// let mut cursor = g.cursor();
/// let degrees: Vec<usize> = (0..5).map(|v| cursor.degree(v)).collect();
/// assert_eq!(degrees, vec![2; 5]);
/// let mut nbrs = Vec::new();
/// cursor.for_each_neighbor(0, |u| nbrs.push(u));
/// assert_eq!(nbrs, g.neighbors(0));
/// ```
pub trait NeighborCursor {
    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    fn degree(&mut self, v: NodeId) -> usize;

    /// Visits the neighbours of `v` in strictly ascending id order until
    /// `f` breaks, as [`GraphView::try_for_each_neighbor`] does.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    fn try_for_each_neighbor<F>(&mut self, v: NodeId, f: F) -> ControlFlow<()>
    where
        F: FnMut(NodeId) -> ControlFlow<()>;

    /// Visits every neighbour of `v` in ascending id order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    fn for_each_neighbor<F>(&mut self, v: NodeId, mut f: F)
    where
        F: FnMut(NodeId),
    {
        let _ = self.try_for_each_neighbor(v, |u| {
            f(u);
            ControlFlow::Continue(())
        });
    }
}

/// The cursor of a view whose per-node calls are already cheap: each read
/// forwards to [`GraphView::degree`] or
/// [`GraphView::try_for_each_neighbor`]. The CSR [`Graph`], the compressed
/// backend and the lazy views return it.
#[derive(Debug)]
pub struct PerNode<'a, G: ?Sized>(&'a G);

impl<'a, G: ?Sized> PerNode<'a, G> {
    /// A cursor over `graph`.
    #[must_use]
    pub fn new(graph: &'a G) -> Self {
        Self(graph)
    }
}

impl<G: GraphView + ?Sized> NeighborCursor for PerNode<'_, G> {
    #[inline]
    fn degree(&mut self, v: NodeId) -> usize {
        self.0.degree(v)
    }

    #[inline]
    fn try_for_each_neighbor<F>(&mut self, v: NodeId, f: F) -> ControlFlow<()>
    where
        F: FnMut(NodeId) -> ControlFlow<()>,
    {
        self.0.try_for_each_neighbor(v, f)
    }
}

impl GraphView for Graph {
    type Cursor<'a>
        = PerNode<'a, Self>
    where
        Self: 'a;

    fn cursor(&self) -> PerNode<'_, Self> {
        PerNode::new(self)
    }

    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    fn degree(&self, v: NodeId) -> usize {
        Graph::degree(self, v)
    }

    fn try_for_each_neighbor<F>(&self, v: NodeId, mut f: F) -> ControlFlow<()>
    where
        F: FnMut(NodeId) -> ControlFlow<()>,
    {
        for &u in self.neighbors(v) {
            f(u)?;
        }
        ControlFlow::Continue(())
    }

    fn is_empty(&self) -> bool {
        Graph::is_empty(self)
    }

    fn edge_count(&self) -> usize {
        Graph::edge_count(self)
    }

    fn max_degree(&self) -> usize {
        Graph::max_degree(self)
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        Graph::has_edge(self, u, v)
    }
}

/// The line graph `L(G)` as a lazy view: node `i` is edge `edges()[i]` of
/// the base graph (in [`Graph::edges`] order, matching
/// [`ops::line_graph`](crate::ops::line_graph)), and two nodes are adjacent
/// exactly when the corresponding base edges share an endpoint.
///
/// Stores `O(m)` indexing state (the canonical edge list plus one edge id
/// per CSR half-edge) instead of the `O(Σ deg²)` materialised line-graph
/// adjacency — on a mean-degree-`d` base graph that is a factor-`≈d/2`
/// memory saving, and construction is a single `O(m log d)` pass.
///
/// # Examples
///
/// ```
/// use mis_graph::{generators, GraphView, LineGraphView};
///
/// let g = generators::star(5); // all 4 edges share the hub
/// let lg = LineGraphView::new(&g);
/// assert_eq!(lg.node_count(), 4);
/// assert_eq!(lg.edge_count(), 6); // K4
/// assert_eq!(lg.edge_of(0), (0, 1));
/// ```
#[derive(Debug, Clone)]
pub struct LineGraphView<'g> {
    base: &'g Graph,
    /// Canonical edge list: line-graph node `i` is `edges[i] = (u, v)`,
    /// `u < v`, in [`Graph::edges`] order.
    edges: Vec<(NodeId, NodeId)>,
    /// CSR offsets of the base graph (recomputed from degrees; the base's
    /// own offsets are private to its module).
    offsets: Vec<usize>,
    /// For each base half-edge position `offsets[v] + j` (the `j`-th
    /// neighbour of `v`), the line-graph node id of that edge. Along one
    /// node's slice these ids are strictly ascending, which is what lets
    /// neighbour iteration merge two sorted runs.
    edge_ids: Vec<u32>,
}

impl<'g> LineGraphView<'g> {
    /// Builds the view over `base`.
    ///
    /// # Panics
    ///
    /// Panics if the base graph has more edges than the `u32` node-id
    /// space of the line graph allows.
    #[must_use]
    pub fn new(base: &'g Graph) -> Self {
        assert!(
            base.edge_count() <= u32::MAX as usize,
            "line graph would exceed the u32 node-id space"
        );
        let n = base.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        for v in 0..n {
            offsets.push(offsets[v] + Graph::degree(base, v as NodeId));
        }
        let mut edge_ids = vec![0u32; offsets[n]];
        let mut edges = Vec::with_capacity(base.edge_count());
        for v in base.nodes() {
            for (j, &u) in base.neighbors(v).iter().enumerate() {
                if v < u {
                    let id = u32::try_from(edges.len()).expect("edge id overflows u32");
                    edges.push((v, u));
                    edge_ids[offsets[v as usize] + j] = id;
                    let k = base
                        .neighbors(u)
                        .binary_search(&v)
                        .expect("CSR adjacency is symmetric");
                    edge_ids[offsets[u as usize] + k] = id;
                }
            }
        }
        Self {
            base,
            edges,
            offsets,
            edge_ids,
        }
    }

    /// The base graph the view borrows.
    #[must_use]
    pub fn base(&self) -> &'g Graph {
        self.base
    }

    /// The canonical edge list defining the node numbering — identical to
    /// the second component of [`ops::line_graph`](crate::ops::line_graph).
    #[must_use]
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// The base edge `(u, v)` (with `u < v`) that line-graph node `i`
    /// stands for.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn edge_of(&self, i: NodeId) -> (NodeId, NodeId) {
        self.edges[i as usize]
    }

    /// The edge ids incident to base node `v`, ascending.
    fn incident(&self, v: NodeId) -> &[u32] {
        &self.edge_ids[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }
}

impl GraphView for LineGraphView<'_> {
    type Cursor<'a>
        = PerNode<'a, Self>
    where
        Self: 'a;

    fn cursor(&self) -> PerNode<'_, Self> {
        PerNode::new(self)
    }

    fn node_count(&self) -> usize {
        self.edges.len()
    }

    fn degree(&self, i: NodeId) -> usize {
        let (u, v) = self.edges[i as usize];
        // Edges sharing u (other than this one) plus edges sharing v; a
        // simple base graph has no second edge sharing both endpoints.
        Graph::degree(self.base, u) + Graph::degree(self.base, v) - 2
    }

    fn try_for_each_neighbor<F>(&self, i: NodeId, mut f: F) -> ControlFlow<()>
    where
        F: FnMut(NodeId) -> ControlFlow<()>,
    {
        let (u, v) = self.edges[i as usize];
        // Each incident list is ascending in edge id; merge the two runs,
        // skipping this edge itself (the only id the runs share).
        let a = self.incident(u);
        let b = self.incident(v);
        let (mut ia, mut ib) = (0usize, 0usize);
        loop {
            while ia < a.len() && a[ia] == i {
                ia += 1;
            }
            while ib < b.len() && b[ib] == i {
                ib += 1;
            }
            match (a.get(ia), b.get(ib)) {
                (Some(&x), Some(&y)) => {
                    if x < y {
                        f(x)?;
                        ia += 1;
                    } else {
                        f(y)?;
                        ib += 1;
                    }
                }
                (Some(&x), None) => {
                    f(x)?;
                    ia += 1;
                }
                (None, Some(&y)) => {
                    f(y)?;
                    ib += 1;
                }
                (None, None) => return ControlFlow::Continue(()),
            }
        }
    }

    fn edge_count(&self) -> usize {
        // |E(L(G))| = Σ_v C(deg v, 2).
        self.base
            .nodes()
            .map(|v| {
                let d = Graph::degree(self.base, v);
                d * d.saturating_sub(1) / 2
            })
            .sum()
    }

    fn max_degree(&self) -> usize {
        self.edges
            .iter()
            .map(|&(u, v)| Graph::degree(self.base, u) + Graph::degree(self.base, v) - 2)
            .max()
            .unwrap_or(0)
    }
}

/// The cartesian product `G □ K_k` as a lazy view — the Luby reduction
/// from `(Δ+1)`-colouring to MIS, with **no** product graph materialised.
///
/// Node `(u, c)` is numbered `u·k + c`, matching
/// [`ops::cartesian_product`](crate::ops::cartesian_product) with a
/// complete palette graph. Neighbours of `(u, c)` are the other colours of
/// `u` plus `(w, c)` for every base neighbour `w`. The view stores nothing
/// beyond the base borrow and `k`.
///
/// # Examples
///
/// ```
/// use mis_graph::{generators, ops, GraphView, ProductView};
///
/// let g = generators::cycle(5);
/// let view = ProductView::new(&g, 3);
/// let materialized = ops::cartesian_product(&g, &generators::complete(3));
/// assert_eq!(view.node_count(), materialized.node_count());
/// assert_eq!(view.edge_count(), materialized.edge_count());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ProductView<'g> {
    base: &'g Graph,
    k: u32,
}

impl<'g> ProductView<'g> {
    /// Builds the view of `base □ K_k`. `k = 0` yields the empty view.
    ///
    /// # Panics
    ///
    /// Panics if `base.node_count() · k` exceeds the `u32` node-id space.
    #[must_use]
    pub fn new(base: &'g Graph, k: u32) -> Self {
        assert!(
            (base.node_count() as u64).saturating_mul(u64::from(k)) <= u64::from(u32::MAX),
            "product graph would exceed the u32 node-id space"
        );
        Self { base, k }
    }

    /// The base graph the view borrows.
    #[must_use]
    pub fn base(&self) -> &'g Graph {
        self.base
    }

    /// The palette size `k`.
    #[must_use]
    pub fn palette(&self) -> u32 {
        self.k
    }

    /// Decomposes a product node id into `(base node, colour)`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (in particular when `k = 0`).
    #[must_use]
    pub fn node_of(&self, id: NodeId) -> (NodeId, u32) {
        assert!((id as usize) < self.node_count(), "node {id} out of range");
        (id / self.k, id % self.k)
    }
}

impl GraphView for ProductView<'_> {
    type Cursor<'a>
        = PerNode<'a, Self>
    where
        Self: 'a;

    fn cursor(&self) -> PerNode<'_, Self> {
        PerNode::new(self)
    }

    fn node_count(&self) -> usize {
        self.base.node_count() * self.k as usize
    }

    fn degree(&self, id: NodeId) -> usize {
        let (u, _) = self.node_of(id);
        Graph::degree(self.base, u) + (self.k as usize - 1)
    }

    fn try_for_each_neighbor<F>(&self, id: NodeId, mut f: F) -> ControlFlow<()>
    where
        F: FnMut(NodeId) -> ControlFlow<()>,
    {
        let (u, c) = self.node_of(id);
        let nbrs = self.base.neighbors(u);
        // Base neighbours w < u come first (their blocks precede u's), then
        // u's own colour clique, then base neighbours w > u — all ascending.
        let split = nbrs.partition_point(|&w| w < u);
        for &w in &nbrs[..split] {
            f(w * self.k + c)?;
        }
        for b in 0..self.k {
            if b != c {
                f(u * self.k + b)?;
            }
        }
        for &w in &nbrs[split..] {
            f(w * self.k + c)?;
        }
        ControlFlow::Continue(())
    }

    fn edge_count(&self) -> usize {
        let k = self.k as usize;
        self.base.edge_count() * k + self.base.node_count() * (k * k.saturating_sub(1) / 2)
    }

    fn max_degree(&self) -> usize {
        if self.node_count() == 0 {
            0
        } else {
            self.base.max_degree() + (self.k as usize - 1)
        }
    }
}

/// The subgraph induced by a **sorted** node selection, as a lazy view.
///
/// Selected node `nodes[i]` becomes view node `i`; because the selection is
/// required to be strictly ascending, the relabelling is monotone and the
/// view inherits the base CSR's ascending neighbour order for free. The
/// numbering matches
/// [`ops::induced_subgraph`](crate::ops::induced_subgraph) on the same
/// (sorted) selection. Stores the selection plus one `u32` per base node
/// (the reverse map) — never the induced adjacency.
///
/// # Examples
///
/// ```
/// use mis_graph::{generators, GraphView, InducedView};
///
/// let g = generators::cycle(6);
/// let sub = InducedView::new(&g, &[0, 1, 2, 3]);
/// assert_eq!(sub.node_count(), 4);
/// assert_eq!(sub.edge_count(), 3); // the cycle edge 5-0 is cut
/// assert_eq!(sub.original(2), 2);
/// ```
#[derive(Debug, Clone)]
pub struct InducedView<'g> {
    base: &'g Graph,
    nodes: Vec<NodeId>,
    /// Base id → view id, `u32::MAX` for unselected nodes.
    remap: Vec<u32>,
}

impl<'g> InducedView<'g> {
    /// Builds the view induced by `nodes`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is not strictly ascending (which also rules out
    /// duplicates) or contains an out-of-range id.
    #[must_use]
    pub fn new(base: &'g Graph, nodes: &[NodeId]) -> Self {
        let mut remap = vec![u32::MAX; base.node_count()];
        let mut prev: Option<NodeId> = None;
        for (i, &v) in nodes.iter().enumerate() {
            assert!(
                (v as usize) < base.node_count(),
                "node {v} out of range for the base graph"
            );
            assert!(
                prev.is_none_or(|p| p < v),
                "selection must be strictly ascending (got {v} after {prev:?})"
            );
            prev = Some(v);
            remap[v as usize] = u32::try_from(i).expect("selection index overflows u32");
        }
        Self {
            base,
            nodes: nodes.to_vec(),
            remap,
        }
    }

    /// The base graph the view borrows.
    #[must_use]
    pub fn base(&self) -> &'g Graph {
        self.base
    }

    /// The selected base nodes, ascending (view node `i` is `selection()[i]`).
    #[must_use]
    pub fn selection(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The base node that view node `i` stands for.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn original(&self, i: NodeId) -> NodeId {
        self.nodes[i as usize]
    }
}

impl GraphView for InducedView<'_> {
    type Cursor<'a>
        = PerNode<'a, Self>
    where
        Self: 'a;

    fn cursor(&self) -> PerNode<'_, Self> {
        PerNode::new(self)
    }

    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn degree(&self, i: NodeId) -> usize {
        self.base
            .neighbors(self.nodes[i as usize])
            .iter()
            .filter(|&&u| self.remap[u as usize] != u32::MAX)
            .count()
    }

    fn try_for_each_neighbor<F>(&self, i: NodeId, mut f: F) -> ControlFlow<()>
    where
        F: FnMut(NodeId) -> ControlFlow<()>,
    {
        for &u in self.base.neighbors(self.nodes[i as usize]) {
            let mapped = self.remap[u as usize];
            if mapped != u32::MAX {
                f(mapped)?;
            }
        }
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, ops};
    use rand::{rngs::SmallRng, SeedableRng};

    /// Full structural equality between a view and a materialised graph.
    fn assert_view_matches(view: &impl GraphView, graph: &Graph) {
        assert_eq!(view.node_count(), graph.node_count());
        assert_eq!(GraphView::edge_count(view), graph.edge_count());
        assert_eq!(GraphView::max_degree(view), graph.max_degree());
        for v in graph.nodes() {
            assert_eq!(GraphView::degree(view, v), graph.degree(v), "degree({v})");
            assert_eq!(view.neighbors_vec(v), graph.neighbors(v), "neighbors({v})");
        }
        assert_eq!(&view.materialize(), graph);
    }

    fn test_graphs() -> Vec<(&'static str, Graph)> {
        let mut rng = SmallRng::seed_from_u64(99);
        vec![
            ("empty", Graph::empty(0)),
            ("isolated", Graph::empty(5)),
            ("path", generators::path(7)),
            ("cycle", generators::cycle(9)),
            ("star", generators::star(8)),
            ("complete", generators::complete(6)),
            ("grid", generators::grid2d(4, 5)),
            ("gnp", generators::gnp(30, 0.2, &mut rng)),
            ("tree", generators::random_tree(25, &mut rng)),
        ]
    }

    #[test]
    fn graph_implements_view_consistently() {
        for (name, g) in test_graphs() {
            assert_view_matches(&g, &g);
            let _ = name;
        }
    }

    #[test]
    fn line_view_matches_materialized_line_graph() {
        for (name, g) in test_graphs() {
            let view = LineGraphView::new(&g);
            let (lg, edges) = ops::line_graph(&g);
            assert_eq!(view.edges(), &edges[..], "{name}");
            assert_view_matches(&view, &lg);
        }
    }

    #[test]
    fn line_view_edge_of_round_trips() {
        let g = generators::grid2d(3, 4);
        let view = LineGraphView::new(&g);
        for (i, &(u, v)) in view.edges().iter().enumerate() {
            assert_eq!(view.edge_of(i as NodeId), (u, v));
            assert!(u < v);
            assert!(g.has_edge(u, v));
        }
        assert_eq!(view.base().node_count(), g.node_count());
    }

    #[test]
    fn product_view_matches_materialized_product() {
        for (name, g) in test_graphs() {
            for k in [1u32, 2, 4] {
                let view = ProductView::new(&g, k);
                let prod = ops::cartesian_product(&g, &generators::complete(k as usize));
                assert_view_matches(&view, &prod);
                let _ = name;
            }
        }
    }

    #[test]
    fn product_view_node_decomposition() {
        let g = generators::path(4);
        let view = ProductView::new(&g, 3);
        assert_eq!(view.palette(), 3);
        assert_eq!(view.node_of(0), (0, 0));
        assert_eq!(view.node_of(7), (2, 1));
        assert_eq!(view.base().node_count(), 4);
    }

    #[test]
    fn product_view_with_zero_palette_is_empty() {
        let g = generators::path(3);
        let view = ProductView::new(&g, 0);
        assert!(view.is_empty());
        assert_eq!(GraphView::edge_count(&view), 0);
        assert_eq!(GraphView::max_degree(&view), 0);
    }

    #[test]
    fn induced_view_matches_materialized_subgraph() {
        let mut rng = SmallRng::seed_from_u64(5);
        for (name, g) in test_graphs() {
            // Every third node, then every node, then nothing.
            use rand::Rng as _;
            let selections: Vec<Vec<NodeId>> = vec![
                (0..g.node_count() as NodeId).step_by(3).collect(),
                (0..g.node_count() as NodeId).collect(),
                Vec::new(),
                (0..g.node_count() as NodeId)
                    .filter(|_| rng.random_bool(0.5))
                    .collect(),
            ];
            for sel in selections {
                let view = InducedView::new(&g, &sel);
                let sub = ops::induced_subgraph(&g, &sel);
                assert_view_matches(&view, &sub);
                assert_eq!(view.selection(), &sel[..], "{name}");
            }
        }
    }

    #[test]
    fn induced_view_maps_ids_both_ways() {
        let g = generators::cycle(8);
        let view = InducedView::new(&g, &[1, 3, 4, 7]);
        assert_eq!(view.original(2), 4);
        assert!(view.has_edge(1, 2)); // base edge 3-4
        assert!(!view.has_edge(0, 1)); // base nodes 1, 3 not adjacent
        assert_eq!(view.base().node_count(), 8);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn induced_view_rejects_unsorted_selection() {
        let g = generators::path(4);
        let _ = InducedView::new(&g, &[2, 1]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn induced_view_rejects_duplicates() {
        let g = generators::path(4);
        let _ = InducedView::new(&g, &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn induced_view_rejects_out_of_range() {
        let g = generators::path(4);
        let _ = InducedView::new(&g, &[9]);
    }

    #[test]
    fn default_has_edge_agrees_with_graph() {
        let mut rng = SmallRng::seed_from_u64(11);
        let g = generators::gnp(20, 0.3, &mut rng);
        let view = LineGraphView::new(&g);
        let lg = view.materialize();
        for u in 0..view.node_count() as NodeId {
            for v in 0..view.node_count() as NodeId {
                assert_eq!(view.has_edge(u, v), lg.has_edge(u, v), "({u}, {v})");
            }
        }
    }

    #[test]
    fn early_exit_stops_iteration() {
        let g = generators::star(6);
        let mut seen = Vec::new();
        let flow = g.try_for_each_neighbor(0, |u| {
            seen.push(u);
            if seen.len() == 2 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(flow, ControlFlow::Break(()));
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn views_are_debug_and_clone() {
        let g = generators::path(4);
        let lv = LineGraphView::new(&g);
        assert!(format!("{lv:?}").contains("LineGraphView"));
        let pv = ProductView::new(&g, 2);
        assert!(format!("{:?}", pv.clone()).contains("ProductView"));
        let iv = InducedView::new(&g, &[0, 2]);
        assert!(format!("{:?}", iv.clone()).contains("InducedView"));
        let _ = lv.clone();
    }
}
