//! Compact undirected graph substrate for the `beeping-mis` workspace.
//!
//! This crate provides the network topologies on which the distributed MIS
//! algorithms of Scott, Jeavons & Xu (PODC 2013) and their baselines run:
//!
//! * [`Graph`] — an immutable, CSR-backed simple undirected graph with
//!   sorted adjacency lists (O(1) degree, O(log d) adjacency tests);
//! * [`GraphBuilder`] — incremental, validated construction;
//! * [`generators`] — every graph family used in the paper's experiments:
//!   Erdős–Rényi `G(n, p)` (Figures 3 and 5), rectangular grids (§5), the
//!   Theorem 1 clique-union lower-bound family, plus hexagonal lattices
//!   (the fly epithelium), random geometric graphs (sensor networks),
//!   trees, regular graphs, hypercubes and the classic fixed topologies;
//! * [`ops`] — connected components, induced subgraphs, disjoint unions,
//!   complements and degree statistics;
//! * [`view`] — the [`GraphView`] adjacency trait plus lazy derived-graph
//!   adapters ([`LineGraphView`], [`ProductView`], [`InducedView`]) that the
//!   simulator can run on without materialising the derived graph;
//! * [`io`] — an edge-list text format and Graphviz DOT export;
//! * [`compressed`] / [`stream`] — the scale tier: a delta-varint
//!   [`CompressedGraph`] backend, streaming shard generation in bounded
//!   memory, and the paged [`DiskGraph`] reader for graphs larger than RAM;
//! * [`backend`] — runs one computation on any of the three adjacency
//!   backends.
//!
//! # Examples
//!
//! ```
//! use mis_graph::{generators, Graph};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let g: Graph = generators::gnp(20, 0.5, &mut rng);
//! assert_eq!(g.node_count(), 20);
//! for v in g.nodes() {
//!     for &u in g.neighbors(v) {
//!         assert!(g.has_edge(u, v));
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
mod builder;
pub mod compressed;
mod error;
pub mod generators;
mod graph;
pub mod io;
pub mod ops;
pub mod stream;
pub mod view;

pub use builder::GraphBuilder;
pub use compressed::CompressedGraph;
pub use error::GraphError;
pub use graph::{EdgeIter, Graph, NodeIter};
pub use stream::{DiskCursor, DiskGraph, ShardWriter, ShardedGraphSummary, StreamError};
pub use view::{GraphView, InducedView, LineGraphView, NeighborCursor, PerNode, ProductView};

/// Index of a node in a [`Graph`].
///
/// Nodes of a graph with `n` vertices are exactly `0..n`. A plain `u32`
/// (rather than a newtype) keeps the inner simulation loops free of
/// conversions; all public APIs validate indices and document their panics.
pub type NodeId = u32;
