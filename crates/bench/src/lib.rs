//! Graph fixtures for `simbench`, the benchmark binary that records the
//! `BENCH_*.json` files.
//!
//! The fixtures are deterministic, so successive bench runs are
//! comparable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mis_graph::{generators, Graph, NodeId};
use rand::{rngs::SmallRng, SeedableRng};

/// Deterministic `G(n, d/(n−1))` fixture with mean degree ≈ `d` — the
/// kernel-throughput workload of `simbench`.
#[must_use]
pub fn gnp_mean_degree(n: usize, d: f64) -> Graph {
    let p = if n > 1 {
        (d / (n - 1) as f64).min(1.0)
    } else {
        0.0
    };
    generators::gnp(n, p, &mut SmallRng::seed_from_u64(0x5BA5 ^ n as u64))
}

/// Streaming twin of [`gnp_mean_degree`]: emits the identical edge
/// sequence (same seed, same skip-sampling draws) without ever holding the
/// CSR in memory — the generation side of the out-of-core scale tier,
/// feeding a [`mis_graph::ShardWriter`] directly.
pub fn gnp_mean_degree_edges(n: usize, d: f64, emit: impl FnMut(NodeId, NodeId)) {
    let p = if n > 1 {
        (d / (n - 1) as f64).min(1.0)
    } else {
        0.0
    };
    generators::gnp_edges(n, p, &mut SmallRng::seed_from_u64(0x5BA5 ^ n as u64), emit);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_gnp_matches_in_ram_fixture() {
        let g = gnp_mean_degree(300, 12.0);
        let mut edges = Vec::new();
        gnp_mean_degree_edges(300, 12.0, |u, v| edges.push((u.min(v), u.max(v))));
        edges.sort_unstable();
        let direct: Vec<(NodeId, NodeId)> = g.edges().collect();
        assert_eq!(edges, direct);
    }
}
