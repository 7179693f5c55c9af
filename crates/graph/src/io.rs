//! Plain-text edge-list serialisation, DIMACS `edge` format, and Graphviz
//! DOT export.
//!
//! The edge-list format is line-oriented:
//!
//! ```text
//! # comments start with '#'
//! nodes 5
//! 0 1
//! 1 2
//! ```
//!
//! A `nodes <n>` header fixes the node count (allowing isolated trailing
//! nodes); without it, the count is one more than the largest endpoint.

use std::io::{self, BufRead, Read, Write};
use std::path::Path;

use crate::stream::{ShardWriter, ShardedGraphSummary, StreamError};
use crate::{Graph, GraphBuilder, GraphError, NodeId};

/// Serialises a graph in the edge-list format.
///
/// Accepts any [`Write`] by value; pass `&mut writer` to keep ownership
/// (mutable references implement `Write` too).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Examples
///
/// ```
/// use mis_graph::{io::write_edge_list, Graph};
///
/// let g = Graph::from_edges(3, [(0, 1)])?;
/// let mut buf = Vec::new();
/// write_edge_list(&mut buf, &g)?;
/// let text = String::from_utf8(buf).unwrap();
/// assert!(text.contains("nodes 3"));
/// assert!(text.contains("0 1"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn write_edge_list<W: Write>(mut writer: W, g: &Graph) -> io::Result<()> {
    writeln!(writer, "nodes {}", g.node_count())?;
    for (u, v) in g.edges() {
        writeln!(writer, "{u} {v}")?;
    }
    Ok(())
}

/// Renders a graph as a string in the edge-list format.
#[must_use]
pub fn to_edge_list_string(g: &Graph) -> String {
    let mut buf = Vec::new();
    write_edge_list(&mut buf, g).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("edge list output is ASCII")
}

/// Parses the edge-list format from a string.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] for malformed lines and the usual
/// construction errors for invalid edges.
///
/// # Examples
///
/// ```
/// use mis_graph::io::parse_edge_list;
///
/// let g = parse_edge_list("nodes 4\n0 1\n2 3\n")?;
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 2);
/// # Ok::<(), mis_graph::GraphError>(())
/// ```
pub fn parse_edge_list(text: &str) -> Result<Graph, GraphError> {
    let mut declared_nodes: Option<usize> = None;
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut max_node: Option<NodeId> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("nodes ") {
            let n: usize = rest.trim().parse().map_err(|_| GraphError::Parse {
                line: line_no,
                reason: format!("invalid node count {rest:?}"),
            })?;
            declared_nodes = Some(n);
            continue;
        }
        let mut parts = line.split_whitespace();
        let (a, b) = match (parts.next(), parts.next(), parts.next()) {
            (Some(a), Some(b), None) => (a, b),
            _ => {
                return Err(GraphError::Parse {
                    line: line_no,
                    reason: format!("expected two endpoints, got {line:?}"),
                })
            }
        };
        let parse_node = |s: &str| -> Result<NodeId, GraphError> {
            s.parse().map_err(|_| GraphError::Parse {
                line: line_no,
                reason: format!("invalid node id {s:?}"),
            })
        };
        let (u, v) = (parse_node(a)?, parse_node(b)?);
        max_node = Some(max_node.map_or(u.max(v), |m| m.max(u).max(v)));
        edges.push((u, v));
    }
    let node_count = declared_nodes.unwrap_or_else(|| max_node.map_or(0, |m| m as usize + 1));
    Graph::from_edges(node_count, edges)
}

/// Reads and parses the edge-list format from any [`Read`].
///
/// Pass `&mut reader` to keep ownership of the reader.
///
/// # Errors
///
/// Returns a [`GraphError::Parse`] wrapping I/O failures (line 0) or any
/// parse/construction error.
pub fn read_edge_list<R: Read>(mut reader: R) -> Result<Graph, GraphError> {
    let mut text = String::new();
    reader
        .read_to_string(&mut text)
        .map_err(|e| GraphError::Parse {
            line: 0,
            reason: format!("I/O error: {e}"),
        })?;
    parse_edge_list(&text)
}

/// Renders the graph in Graphviz DOT format, optionally highlighting a set
/// of nodes (used by examples to display the selected MIS).
///
/// # Examples
///
/// ```
/// use mis_graph::{io::to_dot, Graph};
///
/// let g = Graph::from_edges(3, [(0, 1), (1, 2)])?;
/// let dot = to_dot(&g, &[0, 2]);
/// assert!(dot.starts_with("graph"));
/// assert!(dot.contains("0 -- 1"));
/// assert!(dot.contains("style=filled"));
/// # Ok::<(), mis_graph::GraphError>(())
/// ```
#[must_use]
pub fn to_dot(g: &Graph, highlighted: &[NodeId]) -> String {
    let mut out = String::from("graph G {\n  node [shape=circle];\n");
    // detlint: allow(D01) -- contains-only lookup; iteration order comes from g.nodes()
    let special: std::collections::HashSet<NodeId> = highlighted.iter().copied().collect();
    for v in g.nodes() {
        if special.contains(&v) {
            out.push_str(&format!(
                "  {v} [style=filled, fillcolor=gold, penwidth=2];\n"
            ));
        } else {
            out.push_str(&format!("  {v};\n"));
        }
    }
    for (u, v) in g.edges() {
        out.push_str(&format!("  {u} -- {v};\n"));
    }
    out.push_str("}\n");
    out
}

/// Serialises a graph in DIMACS `edge` format (`p edge n m` header,
/// `e u v` lines, **1-indexed** endpoints) — the interchange format of
/// the DIMACS clique/colouring challenges, accepted by most graph tools.
///
/// # Examples
///
/// ```
/// use mis_graph::{io::to_dimacs, Graph};
///
/// let g = Graph::from_edges(3, [(0, 1), (1, 2)])?;
/// let text = to_dimacs(&g);
/// assert!(text.contains("p edge 3 2"));
/// assert!(text.contains("e 1 2"));
/// # Ok::<(), mis_graph::GraphError>(())
/// ```
#[must_use]
pub fn to_dimacs(g: &Graph) -> String {
    let mut out = format!(
        "c generated by mis-graph\np edge {} {}\n",
        g.node_count(),
        g.edge_count()
    );
    for (u, v) in g.edges() {
        out.push_str(&format!("e {} {}\n", u + 1, v + 1));
    }
    out
}

/// Parses DIMACS `edge` format: `c` comment lines, one `p edge <n> <m>`
/// problem line, and `e <u> <v>` edge lines with 1-indexed endpoints.
///
/// The accepted-input behaviour is pinned:
///
/// * **duplicate edges** — `e 2 3` repeated, or reversed as `e 3 2` — are
///   silently deduplicated, matching common DIMACS instance files (the
///   declared `m` is not checked against the deduplicated count; use
///   [`parse_dimacs_strict`] when it should be);
/// * **self-loops** (`e 2 2`) are rejected with [`GraphError::SelfLoop`] —
///   the graphs here are simple, and silently dropping the line would
///   mask a corrupt instance;
/// * the problem line must carry **both** counts (`p edge <n> <m>`); a
///   header missing the edge count is malformed.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] when the problem line is missing,
/// repeated or malformed (unsupported format, missing or non-numeric
/// node/edge count), when an edge line is malformed or precedes the
/// problem line, or when an endpoint is `0`/out of range; and
/// [`GraphError::SelfLoop`] for a self-loop edge line.
///
/// # Examples
///
/// ```
/// use mis_graph::io::parse_dimacs;
///
/// let g = parse_dimacs("c a triangle\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")?;
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 3);
/// # Ok::<(), mis_graph::GraphError>(())
/// ```
pub fn parse_dimacs(text: &str) -> Result<Graph, GraphError> {
    parse_dimacs_inner(text).map(|(g, _declared)| g)
}

/// [`parse_dimacs`] with the declared edge count **cross-checked**: after
/// parsing (and the usual silent deduplication), the header's `m` must
/// equal the number of distinct edges of the instance.
///
/// Use this for instances you generate or control — [`to_dimacs`] always
/// writes the deduplicated count, so everything it emits round-trips
/// through strict parsing. Keep the lenient [`parse_dimacs`] for instance
/// files from the wild, whose headers are frequently off by the
/// duplicates they contain.
///
/// # Errors
///
/// Everything [`parse_dimacs`] returns, plus
/// [`GraphError::EdgeCountMismatch`] when the declared `m` differs from
/// the deduplicated edge count.
///
/// # Examples
///
/// ```
/// use mis_graph::io::parse_dimacs_strict;
/// use mis_graph::GraphError;
///
/// let g = parse_dimacs_strict("p edge 3 2\ne 1 2\ne 2 3\n")?;
/// assert_eq!(g.edge_count(), 2);
///
/// // The same instance with a duplicate edge line: the lenient parser
/// // dedupes silently, the strict one reports the header mismatch.
/// let err = parse_dimacs_strict("p edge 3 3\ne 1 2\ne 2 1\ne 2 3\n").unwrap_err();
/// assert_eq!(
///     err,
///     GraphError::EdgeCountMismatch {
///         declared: 3,
///         found: 2
///     }
/// );
/// # Ok::<(), mis_graph::GraphError>(())
/// ```
pub fn parse_dimacs_strict(text: &str) -> Result<Graph, GraphError> {
    let (g, declared) = parse_dimacs_inner(text)?;
    if g.edge_count() != declared {
        return Err(GraphError::EdgeCountMismatch {
            declared,
            found: g.edge_count(),
        });
    }
    Ok(g)
}

/// The node and edge counts `(n, m)` that a DIMACS document's problem line
/// declares, read through the lexer of [`parse_dimacs`] without building
/// anything: the lines before the problem line are checked as
/// [`parse_dimacs`] checks them, and the scan stops at the problem line.
/// A caller that caps the node count checks it here, before the parser
/// allocates anything sized by it.
///
/// # Errors
///
/// Returns what [`parse_dimacs`] returns for the lines up to and
/// including the problem line, and [`GraphError::Parse`] when the
/// document has no problem line.
///
/// # Examples
///
/// ```
/// use mis_graph::io::dimacs_problem;
///
/// assert_eq!(dimacs_problem("c big\np edge 20000000 0\n")?, (20_000_000, 0));
/// assert!(dimacs_problem("c no problem line\n").is_err());
/// # Ok::<(), mis_graph::GraphError>(())
/// ```
pub fn dimacs_problem(text: &str) -> Result<(usize, usize), GraphError> {
    for (idx, raw) in text.lines().enumerate() {
        if let DimacsLine::Problem { nodes, edges } = parse_dimacs_line(idx + 1, raw, None)? {
            return Ok((nodes, edges));
        }
    }
    Err(missing_problem_line())
}

fn missing_problem_line() -> GraphError {
    GraphError::Parse {
        line: 0,
        reason: "missing problem line".into(),
    }
}

/// One classified DIMACS line, as produced by [`parse_dimacs_line`].
enum DimacsLine {
    /// A comment or blank line.
    Skip,
    /// The `p edge <n> <m>` problem line.
    Problem {
        /// Declared node count `n`.
        nodes: usize,
        /// Declared edge count `m`.
        edges: usize,
    },
    /// An `e <u> <v>` edge line, already converted to 0-indexed endpoints.
    Edge(NodeId, NodeId),
}

/// Classifies and validates a single DIMACS line — the one lexer behind
/// both the in-RAM parser and [`parse_dimacs_streaming`], so the pinned
/// error behaviours cannot drift apart. `node_count` is the declared `n`
/// if a problem line was already seen.
fn parse_dimacs_line(
    line_no: usize,
    raw: &str,
    node_count: Option<usize>,
) -> Result<DimacsLine, GraphError> {
    let line = raw.trim();
    if line.is_empty() || line.starts_with('c') {
        return Ok(DimacsLine::Skip);
    }
    if let Some(rest) = line.strip_prefix("p ") {
        if node_count.is_some() {
            return Err(GraphError::Parse {
                line: line_no,
                reason: "duplicate problem line".into(),
            });
        }
        let mut parts = rest.split_whitespace();
        let format = parts.next();
        if format != Some("edge") && format != Some("col") {
            return Err(GraphError::Parse {
                line: line_no,
                reason: format!("unsupported DIMACS format {format:?}"),
            });
        }
        let nodes: usize =
            parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| GraphError::Parse {
                    line: line_no,
                    reason: "problem line needs a node count".into(),
                })?;
        let edges: usize =
            parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| GraphError::Parse {
                    line: line_no,
                    reason: "problem line needs an edge count".into(),
                })?;
        return Ok(DimacsLine::Problem { nodes, edges });
    }
    if let Some(rest) = line.strip_prefix("e ") {
        let n = node_count.ok_or_else(|| GraphError::Parse {
            line: line_no,
            reason: "edge line before problem line".into(),
        })?;
        let mut parts = rest.split_whitespace();
        let mut endpoint = || -> Result<NodeId, GraphError> {
            let s = parts.next().ok_or_else(|| GraphError::Parse {
                line: line_no,
                reason: "edge line needs two endpoints".into(),
            })?;
            let raw: usize = s.parse().map_err(|_| GraphError::Parse {
                line: line_no,
                reason: format!("invalid endpoint {s:?}"),
            })?;
            if raw == 0 || raw > n {
                return Err(GraphError::Parse {
                    line: line_no,
                    reason: format!("endpoint {raw} out of range 1..={n}"),
                });
            }
            Ok((raw - 1) as NodeId)
        };
        let (u, v) = (endpoint()?, endpoint()?);
        if u == v {
            // Reject at the offending line rather than deferring to
            // construction, so the named error carries the right node.
            return Err(GraphError::SelfLoop { node: u });
        }
        return Ok(DimacsLine::Edge(u, v));
    }
    Err(GraphError::Parse {
        line: line_no,
        reason: format!("unrecognised DIMACS line {line:?}"),
    })
}

/// The shared DIMACS parser: returns the graph plus the `m` the problem
/// line declared, so the strict entry point can cross-check it.
fn parse_dimacs_inner(text: &str) -> Result<(Graph, usize), GraphError> {
    let mut node_count: Option<usize> = None;
    let mut declared_edges = 0usize;
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        match parse_dimacs_line(idx + 1, raw, node_count)? {
            DimacsLine::Skip => {}
            DimacsLine::Problem { nodes, edges: m } => {
                node_count = Some(nodes);
                declared_edges = m;
            }
            DimacsLine::Edge(u, v) => edges.push((u, v)),
        }
    }
    let n = node_count.ok_or_else(missing_problem_line)?;
    Graph::from_edges(n, edges).map(|g| (g, declared_edges))
}

/// Streams a DIMACS `edge` instance into the sharded on-disk format in
/// bounded memory: edge lines go straight into a
/// [`ShardWriter`] without ever materialising the
/// edge list, so instances larger than RAM convert shard by shard.
///
/// Line validation is shared with [`parse_dimacs`] (same lexer, same
/// pinned errors). The header cross-check is always strict: after the
/// usual silent deduplication, the declared `m` must match the distinct
/// edge count — you are converting an instance to a durable on-disk form,
/// so a lying header should fail loudly, as in [`parse_dimacs_strict`].
///
/// The resulting directory is read back with
/// [`DiskGraph::open`](crate::DiskGraph::open).
///
/// # Errors
///
/// Returns [`StreamError::Graph`] for every error [`parse_dimacs_strict`]
/// reports (wrapping I/O read failures as `Parse` at the offending line),
/// and [`StreamError::Io`] for shard-writing failures.
///
/// # Panics
///
/// Panics if `nodes_per_shard` is zero or not a multiple of the block
/// size, as in [`ShardWriter::create`](crate::ShardWriter::create).
///
/// # Examples
///
/// ```
/// use mis_graph::{generators, io, CompressedGraph, DiskGraph};
/// use std::io::BufReader;
///
/// let g = generators::torus2d(5, 5);
/// let dir = std::env::temp_dir().join(format!("dimacs-stream-{}", std::process::id()));
/// let text = io::to_dimacs(&g);
/// let summary = io::parse_dimacs_streaming(BufReader::new(text.as_bytes()), &dir, 64)?;
/// assert_eq!(summary.edge_count, g.edge_count());
/// let back = CompressedGraph::from_view(&DiskGraph::open(&dir)?);
/// assert_eq!(back, CompressedGraph::from_view(&g));
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), mis_graph::StreamError>(())
/// ```
pub fn parse_dimacs_streaming<R: BufRead>(
    reader: R,
    dir: impl AsRef<Path>,
    nodes_per_shard: usize,
) -> Result<ShardedGraphSummary, StreamError> {
    let mut writer: Option<ShardWriter> = None;
    let mut node_count: Option<usize> = None;
    let mut declared_edges = 0usize;
    for (idx, line) in reader.lines().enumerate() {
        let raw = line.map_err(|e| GraphError::Parse {
            line: idx + 1,
            reason: format!("I/O error: {e}"),
        })?;
        match parse_dimacs_line(idx + 1, &raw, node_count)? {
            DimacsLine::Skip => {}
            DimacsLine::Problem { nodes, edges } => {
                node_count = Some(nodes);
                declared_edges = edges;
                writer = Some(ShardWriter::create(&dir, nodes, nodes_per_shard)?);
            }
            DimacsLine::Edge(u, v) => {
                writer
                    .as_mut()
                    .expect("the lexer rejects edge lines before the problem line")
                    .add_edge(u, v);
            }
        }
    }
    let writer = writer.ok_or_else(missing_problem_line)?;
    let summary = writer.finish()?;
    if summary.edge_count != declared_edges {
        return Err(GraphError::EdgeCountMismatch {
            declared: declared_edges,
            found: summary.edge_count,
        }
        .into());
    }
    Ok(summary)
}

/// Round-trips a graph through the edge-list format (serialise then parse).
/// Exposed for tests and as a self-check utility.
///
/// # Errors
///
/// Returns any parse error; a correct implementation never produces one.
pub fn round_trip(g: &Graph) -> Result<Graph, GraphError> {
    parse_edge_list(&to_edge_list_string(g))
}

/// Builds a graph from an iterator of `(u, v)` pairs without a declared
/// node count (count = max endpoint + 1). Convenience for hand-written
/// test fixtures.
///
/// # Errors
///
/// Returns the usual construction errors.
pub fn from_pairs<I>(pairs: I) -> Result<Graph, GraphError>
where
    I: IntoIterator<Item = (NodeId, NodeId)>,
{
    let edges: Vec<(NodeId, NodeId)> = pairs.into_iter().collect();
    let n = edges
        .iter()
        .map(|&(u, v)| u.max(v) as usize + 1)
        .max()
        .unwrap_or(0);
    let mut b = GraphBuilder::new(n);
    for (u, v) in edges {
        b.add_edge(u, v)?;
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn round_trip_preserves_graph() {
        let mut rng = SmallRng::seed_from_u64(42);
        let g = generators::gnp(40, 0.2, &mut rng);
        assert_eq!(round_trip(&g).unwrap(), g);
    }

    #[test]
    fn dimacs_round_trip_preserves_graph() {
        let mut rng = SmallRng::seed_from_u64(7);
        let g = generators::gnp(30, 0.3, &mut rng);
        assert_eq!(parse_dimacs(&to_dimacs(&g)).unwrap(), g);
    }

    #[test]
    fn dimacs_round_trip_preserves_isolated_nodes() {
        let g = Graph::from_edges(8, [(0, 7)]).unwrap();
        let h = parse_dimacs(&to_dimacs(&g)).unwrap();
        assert_eq!(h.node_count(), 8);
        assert_eq!(h.edge_count(), 1);
    }

    #[test]
    fn dimacs_tolerates_duplicates_and_col_format() {
        let g = parse_dimacs("p col 3 4\ne 1 2\ne 2 1\ne 2 3\ne 2 3\n").unwrap();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn dimacs_dedupes_silently_and_round_trips() {
        // Duplicate and reversed-duplicate edge lines collapse to one edge
        // each; serialising the result and re-parsing is the identity.
        let g = parse_dimacs("p edge 4 5\ne 1 2\ne 2 1\ne 2 3\ne 2 3\ne 3 4\n").unwrap();
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2) && g.has_edge(2, 3));
        assert_eq!(parse_dimacs(&to_dimacs(&g)).unwrap(), g);
    }

    #[test]
    fn strict_dimacs_round_trips_generated_instances() {
        // to_dimacs always writes the deduplicated count, so its output
        // must satisfy the strict parser for any graph.
        let mut rng = SmallRng::seed_from_u64(13);
        for g in [
            generators::gnp(40, 0.25, &mut rng),
            generators::path(9),
            Graph::empty(5),
            Graph::empty(0),
            generators::complete(7),
        ] {
            assert_eq!(parse_dimacs_strict(&to_dimacs(&g)).unwrap(), g);
        }
    }

    #[test]
    fn strict_dimacs_rejects_header_mismatch() {
        // Duplicates shrink the real count below the declared m …
        let err = parse_dimacs_strict("p edge 3 3\ne 1 2\ne 2 1\ne 2 3\n").unwrap_err();
        assert_eq!(
            err,
            GraphError::EdgeCountMismatch {
                declared: 3,
                found: 2
            }
        );
        // … an undercount is a mismatch too …
        let err = parse_dimacs_strict("p edge 3 1\ne 1 2\ne 2 3\n").unwrap_err();
        assert_eq!(
            err,
            GraphError::EdgeCountMismatch {
                declared: 1,
                found: 2
            }
        );
        // … and an exact header passes, duplicates included.
        let g = parse_dimacs_strict("p edge 3 2\ne 1 2\ne 2 1\ne 2 3\ne 3 2\n").unwrap();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn strict_dimacs_keeps_the_lenient_errors() {
        // Structural errors surface before the count check, unchanged.
        assert!(matches!(
            parse_dimacs_strict("p edge 3 1\ne 2 2\n"),
            Err(GraphError::SelfLoop { node: 1 })
        ));
        assert!(matches!(
            parse_dimacs_strict(""),
            Err(GraphError::Parse { .. })
        ));
        // And the lenient parser still accepts what strict rejects.
        let text = "p edge 3 3\ne 1 2\ne 2 1\ne 2 3\n";
        assert!(parse_dimacs(text).is_ok());
        assert!(parse_dimacs_strict(text).is_err());
    }

    #[test]
    fn dimacs_rejects_self_loop_with_named_error() {
        let err = parse_dimacs("p edge 3 1\ne 2 2\n").unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { node: 1 }); // 0-indexed node
                                                           // A later self-loop is still caught, after valid lines.
        let err = parse_dimacs("p edge 3 2\ne 1 2\ne 3 3\n").unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { node: 2 });
    }

    #[test]
    fn dimacs_rejects_header_without_edge_count() {
        let err = parse_dimacs("p edge 3\ne 1 2\n").unwrap_err();
        match err {
            GraphError::Parse { line, reason } => {
                assert_eq!(line, 1);
                assert!(reason.contains("edge count"), "{reason}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(parse_dimacs("p edge 3 x\n").is_err()); // non-numeric m
    }

    #[test]
    fn dimacs_rejects_malformed_input() {
        assert!(parse_dimacs("").is_err()); // no problem line
        assert!(parse_dimacs("e 1 2\np edge 3 1\n").is_err()); // edge first
        assert!(parse_dimacs("p edge 3 1\np edge 3 1\n").is_err()); // duplicate p
        assert!(parse_dimacs("p matrix 3 1\n").is_err()); // unknown format
        assert!(parse_dimacs("p edge 3 1\ne 0 2\n").is_err()); // 0 endpoint
        assert!(parse_dimacs("p edge 3 1\ne 1 4\n").is_err()); // out of range
        assert!(parse_dimacs("p edge 3 1\ne 1\n").is_err()); // one endpoint
        assert!(parse_dimacs("p edge 3 1\nx 1 2\n").is_err()); // unknown line
        assert!(parse_dimacs("p edge x 1\n").is_err()); // bad count
    }

    #[test]
    fn dimacs_error_reports_line_number() {
        let err = parse_dimacs("c fine\np edge 3 1\ne 1 9\n").unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn dimacs_empty_graph() {
        let g = parse_dimacs("p edge 0 0\n").unwrap();
        assert!(g.is_empty());
        assert!(to_dimacs(&g).contains("p edge 0 0"));
    }

    #[test]
    fn round_trip_preserves_isolated_nodes() {
        let g = Graph::from_edges(10, [(0, 1)]).unwrap();
        let h = round_trip(&g).unwrap();
        assert_eq!(h.node_count(), 10);
    }

    #[test]
    fn parse_ignores_comments_and_blanks() {
        let g = parse_edge_list("# header\n\nnodes 3\n# edge next\n0 2\n").unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn parse_without_header_infers_count() {
        let g = parse_edge_list("0 1\n1 4\n").unwrap();
        assert_eq!(g.node_count(), 5);
    }

    #[test]
    fn parse_empty_input() {
        let g = parse_edge_list("").unwrap();
        assert!(g.is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        let err = parse_edge_list("0 x\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
        let err = parse_edge_list("1 2 3\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
        let err = parse_edge_list("nodes many\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn parse_rejects_self_loop() {
        let err = parse_edge_list("3 3\n").unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { node: 3 });
    }

    /// Unique temp shard directory, removed on drop.
    struct StreamDir(std::path::PathBuf);

    impl StreamDir {
        fn new(label: &str) -> Self {
            static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!(
                "mis-graph-dimacs-{label}-{}-{n}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            StreamDir(dir)
        }
    }

    impl Drop for StreamDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn stream(text: &str, dir: &StreamDir) -> Result<ShardedGraphSummary, StreamError> {
        parse_dimacs_streaming(io::BufReader::new(text.as_bytes()), &dir.0, 64)
    }

    #[test]
    fn streaming_dimacs_round_trips_generated_instances() {
        let mut rng = SmallRng::seed_from_u64(17);
        for (label, g) in [
            ("gnp", generators::gnp(120, 0.1, &mut rng)),
            ("torus", generators::torus2d(9, 9)),
            ("edgeless", Graph::empty(70)),
            ("empty", Graph::empty(0)),
        ] {
            let dir = StreamDir::new(label);
            let summary = stream(&to_dimacs(&g), &dir).unwrap();
            assert_eq!(summary.node_count, g.node_count(), "{label}");
            assert_eq!(summary.edge_count, g.edge_count(), "{label}");
            let disk = crate::DiskGraph::open(&dir.0).unwrap();
            let back = crate::CompressedGraph::from_view(&disk);
            assert_eq!(back, crate::CompressedGraph::from_view(&g), "{label}");
        }
    }

    #[test]
    fn streaming_dimacs_dedupes_then_checks_header() {
        // Exact post-dedup header: accepted.
        let dir = StreamDir::new("dedup-ok");
        let summary = stream("p edge 3 2\ne 1 2\ne 2 1\ne 2 3\ne 3 2\n", &dir).unwrap();
        assert_eq!(summary.edge_count, 2);
        // Header counting the duplicates: strict mismatch.
        let dir = StreamDir::new("dedup-bad");
        assert!(matches!(
            stream("p edge 3 3\ne 1 2\ne 2 1\ne 2 3\n", &dir),
            Err(StreamError::Graph(GraphError::EdgeCountMismatch {
                declared: 3,
                found: 2
            }))
        ));
    }

    #[test]
    fn streaming_dimacs_rejects_malformed_input() {
        for (label, text) in [
            ("no-problem", ""),
            ("edge-first", "e 1 2\np edge 3 1\n"),
            ("dup-problem", "p edge 3 1\np edge 3 1\n"),
            ("bad-format", "p matrix 3 1\n"),
            ("zero-endpoint", "p edge 3 1\ne 0 2\n"),
            ("out-of-range", "p edge 3 1\ne 1 4\n"),
            ("one-endpoint", "p edge 3 1\ne 1\n"),
            ("self-loop", "p edge 3 1\ne 2 2\n"),
            ("unknown-line", "p edge 3 1\nx 1 2\n"),
            ("bad-count", "p edge x 1\n"),
        ] {
            let dir = StreamDir::new(label);
            let err = stream(text, &dir).unwrap_err();
            assert!(matches!(err, StreamError::Graph(_)), "{label}: {err}");
            // The in-RAM strict parser must agree line for line.
            assert!(parse_dimacs_strict(text).is_err(), "{label}");
        }
    }

    #[test]
    fn streaming_dimacs_reports_line_numbers_like_in_ram_parser() {
        let text = "c fine\np edge 3 1\ne 1 9\n";
        let dir = StreamDir::new("lines");
        match stream(text, &dir) {
            Err(StreamError::Graph(GraphError::Parse { line, .. })) => assert_eq!(line, 3),
            other => panic!("unexpected result {other:?}"),
        }
        match parse_dimacs(text) {
            Err(GraphError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("unexpected result {other:?}"),
        }
    }

    #[test]
    fn dot_output_shape() {
        let g = generators::path(3);
        let dot = to_dot(&g, &[1]);
        assert!(dot.contains("1 [style=filled"));
        assert!(dot.contains("0 -- 1;"));
        assert!(dot.contains("1 -- 2;"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn read_edge_list_from_reader() {
        let data = b"nodes 2\n0 1\n";
        let g = read_edge_list(&data[..]).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn from_pairs_infers_size() {
        let g = from_pairs([(0, 1), (1, 2)]).unwrap();
        assert_eq!(g.node_count(), 3);
        assert!(from_pairs([]).unwrap().is_empty());
    }
}
