//! MIS verification and the trivial sequential baselines.
//!
//! The paper's introduction notes that computing *some* MIS centrally is
//! trivial — scan nodes in any order, adding each node that keeps the set
//! independent. These baselines anchor correctness tests and size
//! comparisons; the checker validates every distributed run.

use core::fmt;

use rand::seq::SliceRandom;
use rand::Rng;

use mis_graph::{GraphView, NeighborCursor, NodeId};

/// A violation of the maximal-independent-set conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MisViolation {
    /// Two set members are adjacent (independence broken).
    AdjacentMembers {
        /// One endpoint of the offending edge.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// A node is neither in the set nor adjacent to it (maximality broken).
    UncoveredNode {
        /// The uncovered node.
        node: NodeId,
    },
    /// The candidate set mentions a node that is not in the graph.
    UnknownNode {
        /// The out-of-range node.
        node: NodeId,
    },
}

impl fmt::Display for MisViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MisViolation::AdjacentMembers { u, v } => {
                write!(f, "set members {u} and {v} are adjacent")
            }
            MisViolation::UncoveredNode { node } => {
                write!(f, "node {node} is neither in the set nor adjacent to it")
            }
            MisViolation::UnknownNode { node } => {
                write!(f, "node {node} does not exist in the graph")
            }
        }
    }
}

impl std::error::Error for MisViolation {}

/// Checks the full MIS conditions, reporting the first violation found.
///
/// # Errors
///
/// Returns the violated condition: independence, maximality, or node
/// range.
///
/// # Examples
///
/// ```
/// use mis_core::verify::check_mis;
/// use mis_graph::generators;
///
/// let g = generators::path(3);
/// assert!(check_mis(&g, &[0, 2]).is_ok());
/// assert!(check_mis(&g, &[0]).is_err()); // node 2 uncovered
/// assert!(check_mis(&g, &[0, 1]).is_err()); // adjacent members
/// ```
pub fn check_mis<G: GraphView + ?Sized>(g: &G, set: &[NodeId]) -> Result<(), MisViolation> {
    let n = g.node_count();
    let mut member = vec![false; n];
    for &v in set {
        if v as usize >= n {
            return Err(MisViolation::UnknownNode { node: v });
        }
        member[v as usize] = true;
    }
    let mut cursor = g.cursor();
    for &v in set {
        let mut offender = None;
        let _ = cursor.try_for_each_neighbor(v, |u| {
            if member[u as usize] {
                offender = Some(u);
                core::ops::ControlFlow::Break(())
            } else {
                core::ops::ControlFlow::Continue(())
            }
        });
        if let Some(u) = offender {
            return Err(MisViolation::AdjacentMembers {
                u: u.min(v),
                v: u.max(v),
            });
        }
    }
    for v in 0..n as NodeId {
        if !member[v as usize] {
            let mut covered = false;
            let _ = cursor.try_for_each_neighbor(v, |u| {
                if member[u as usize] {
                    covered = true;
                    core::ops::ControlFlow::Break(())
                } else {
                    core::ops::ControlFlow::Continue(())
                }
            });
            if !covered {
                return Err(MisViolation::UncoveredNode { node: v });
            }
        }
    }
    Ok(())
}

/// Whether `set` is an independent set of `g` (ignoring maximality).
#[must_use]
pub fn is_independent_set<G: GraphView + ?Sized>(g: &G, set: &[NodeId]) -> bool {
    let n = g.node_count();
    let mut member = vec![false; n];
    for &v in set {
        if v as usize >= n {
            return false;
        }
        member[v as usize] = true;
    }
    set.iter().all(|&v| {
        let mut clean = true;
        let _ = g.try_for_each_neighbor(v, |u| {
            if member[u as usize] {
                clean = false;
                core::ops::ControlFlow::Break(())
            } else {
                core::ops::ControlFlow::Continue(())
            }
        });
        clean
    })
}

/// Whether `set` is a *maximal* independent set of `g`.
#[must_use]
pub fn is_maximal_independent_set<G: GraphView + ?Sized>(g: &G, set: &[NodeId]) -> bool {
    check_mis(g, set).is_ok()
}

/// The trivial sequential MIS: scan nodes in ascending order, adding each
/// node whose neighbours are all outside the set (§1 of the paper).
///
/// Generic over [`GraphView`], so the sequential size anchor works on the
/// lazy derived-graph views too (the derived-graph baseline race uses it
/// there).
///
/// # Examples
///
/// ```
/// use mis_core::verify::{check_mis, greedy_mis};
/// use mis_graph::generators;
///
/// let g = generators::cycle(7);
/// let mis = greedy_mis(&g);
/// assert!(check_mis(&g, &mis).is_ok());
/// ```
#[must_use]
pub fn greedy_mis<G: GraphView + ?Sized>(g: &G) -> Vec<NodeId> {
    greedy_mis_in_order(g, 0..g.node_count() as NodeId)
}

/// Greedy MIS scanning nodes in the order produced by `order`.
///
/// Every MIS of `g` arises from *some* order, so this parameterisation
/// spans the whole solution space.
///
/// # Panics
///
/// Panics if `order` yields an out-of-range node.
pub fn greedy_mis_in_order<G, I>(g: &G, order: I) -> Vec<NodeId>
where
    G: GraphView + ?Sized,
    I: IntoIterator<Item = NodeId>,
{
    let mut blocked = vec![false; g.node_count()];
    let mut mis = Vec::new();
    for v in order {
        if !blocked[v as usize] {
            mis.push(v);
            blocked[v as usize] = true;
            g.for_each_neighbor(v, |u| {
                blocked[u as usize] = true;
            });
        }
    }
    mis.sort_unstable();
    mis
}

/// Greedy MIS over a uniformly random node order — the natural randomised
/// sequential baseline for MIS-size comparisons.
pub fn random_greedy_mis<G, R>(g: &G, rng: &mut R) -> Vec<NodeId>
where
    G: GraphView + ?Sized,
    R: Rng + ?Sized,
{
    let mut order: Vec<NodeId> = (0..g.node_count() as NodeId).collect();
    order.shuffle(rng);
    greedy_mis_in_order(g, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_graph::generators;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn check_detects_all_violation_kinds() {
        let g = generators::path(4); // 0-1-2-3
        assert_eq!(
            check_mis(&g, &[0, 1]),
            Err(MisViolation::AdjacentMembers { u: 0, v: 1 })
        );
        assert_eq!(
            check_mis(&g, &[0]),
            Err(MisViolation::UncoveredNode { node: 2 })
        );
        assert_eq!(
            check_mis(&g, &[9]),
            Err(MisViolation::UnknownNode { node: 9 })
        );
        assert!(check_mis(&g, &[0, 2]).is_ok());
        assert!(check_mis(&g, &[1, 3]).is_ok());
    }

    #[test]
    fn empty_graph_empty_set_is_mis() {
        let g = Graph::empty(0);
        assert!(check_mis(&g, &[]).is_ok());
    }

    #[test]
    fn isolated_nodes_must_be_included() {
        let g = Graph::empty(2);
        assert!(check_mis(&g, &[0, 1]).is_ok());
        assert_eq!(
            check_mis(&g, &[0]),
            Err(MisViolation::UncoveredNode { node: 1 })
        );
    }

    #[test]
    fn independence_check_alone() {
        let g = generators::path(4);
        assert!(is_independent_set(&g, &[0, 2]));
        assert!(is_independent_set(&g, &[0])); // not maximal but independent
        assert!(!is_independent_set(&g, &[0, 1]));
        assert!(!is_independent_set(&g, &[7]));
        assert!(!is_maximal_independent_set(&g, &[0]));
    }

    #[test]
    fn greedy_on_classic_graphs() {
        assert_eq!(greedy_mis(&generators::complete(5)), vec![0]);
        assert_eq!(greedy_mis(&generators::star(6)), vec![0]);
        assert_eq!(greedy_mis(&generators::path(5)), vec![0, 2, 4]);
        let g = generators::cycle(6);
        assert!(check_mis(&g, &greedy_mis(&g)).is_ok());
    }

    #[test]
    fn greedy_in_reverse_order() {
        let g = generators::star(5); // centre 0
        let mis = greedy_mis_in_order(&g, (0..5).rev());
        // Leaves scanned first: all four leaves enter, centre blocked.
        assert_eq!(mis, vec![1, 2, 3, 4]);
    }

    #[test]
    fn random_greedy_is_valid_on_families() {
        let rng = SmallRng::seed_from_u64(1);
        for g in [
            generators::gnp(40, 0.3, &mut rng.clone()),
            generators::grid2d(5, 5),
            generators::theorem1_family(3),
            generators::hypercube(4),
        ] {
            for seed in 0..5 {
                let mut r = SmallRng::seed_from_u64(seed);
                let mis = random_greedy_mis(&g, &mut r);
                assert!(check_mis(&g, &mis).is_ok());
            }
        }
    }

    #[test]
    fn check_mis_reads_a_disk_graph_once_per_block_and_pass() {
        // 300 nodes fill ⌈300/64⌉ = 5 blocks, each holding members and
        // non-members; one lookup per node would cost 300.
        let g = generators::grid2d(15, 20);
        let dir = std::env::temp_dir().join(format!("mis-core-verify-{}", std::process::id()));
        mis_graph::stream::write_sharded_from_view(&dir, &g, 128).expect("write shards");
        let disk = mis_graph::DiskGraph::open(&dir).expect("open shard directory");
        let mis = greedy_mis(&g);
        let lookups = |s: mis_graph::stream::DiskCacheStats| s.hits + s.misses;
        let before = lookups(disk.cache_stats());
        let on_disk = check_mis(&disk, &mis);
        let added = lookups(disk.cache_stats()) - before;
        let uncovered = check_mis(&disk, &mis[1..]);
        drop(disk);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(on_disk, Ok(()));
        assert_eq!(added, 10, "cache lookups of the two passes");
        assert_eq!(uncovered, check_mis(&g, &mis[1..]));
    }

    #[test]
    fn violations_display() {
        let v = MisViolation::AdjacentMembers { u: 1, v: 2 };
        assert!(v.to_string().contains("adjacent"));
        let v = MisViolation::UncoveredNode { node: 3 };
        assert!(v.to_string().contains("neither"));
        let v = MisViolation::UnknownNode { node: 4 };
        assert!(v.to_string().contains("not exist"));
    }

    use mis_graph::Graph;
}
