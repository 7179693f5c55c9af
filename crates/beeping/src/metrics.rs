//! Run metrics: rounds, beeps, signals, channel bits.

use core::fmt;

use mis_graph::{Graph, GraphView, NeighborCursor};

/// Quantities measured during a simulation run.
///
/// *Beeps* follow the paper's accounting (§5, Figure 5): a node that
/// signals during a time step — in either or both exchanges — has beeped
/// **once** in that step. *Signals* count raw emissions (a winning step
/// emits in both exchanges and contributes two signals but one beep).
/// Theorem 6 bounds expected beeps per node by a constant.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Metrics {
    /// Number of completed rounds.
    pub rounds: u32,
    /// Per-node beep counts (steps in which the node signalled).
    pub beeps: Vec<u32>,
    /// Per-node raw signal counts (per-exchange emissions).
    pub signals: Vec<u32>,
    /// Extra join re-announcements emitted by MIS members when the
    /// `mis_keeps_beeping` repair is enabled (kept out of `beeps`, which
    /// measures the algorithm itself).
    pub heartbeat_signals: u64,
}

impl Metrics {
    pub(crate) fn new(node_count: usize) -> Self {
        Self {
            rounds: 0,
            beeps: vec![0; node_count],
            signals: vec![0; node_count],
            heartbeat_signals: 0,
        }
    }

    /// Total beeps across all nodes.
    #[must_use]
    pub fn total_beeps(&self) -> u64 {
        self.beeps.iter().map(|&b| u64::from(b)).sum()
    }

    /// Mean beeps per node (0 for an empty graph) — the y-axis of the
    /// paper's Figure 5.
    #[must_use]
    pub fn mean_beeps_per_node(&self) -> f64 {
        if self.beeps.is_empty() {
            0.0
        } else {
            self.total_beeps() as f64 / self.beeps.len() as f64
        }
    }

    /// Largest per-node beep count (0 for an empty graph).
    #[must_use]
    pub fn max_beeps_per_node(&self) -> u32 {
        self.beeps.iter().copied().max().unwrap_or(0)
    }

    /// Bits transmitted over channel (edge) `{u, v}`: every beep of an
    /// endpoint sends one bit over the channel.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    #[must_use]
    pub fn channel_bits(&self, u: u32, v: u32) -> u64 {
        u64::from(self.signals[u as usize]) + u64::from(self.signals[v as usize])
    }

    /// Mean bits per channel over all edges of `g` (0 for edgeless
    /// graphs) — the same value as [`channel_bit_stats`]`.0`, computed in
    /// `O(n)`: each node's signals cross every incident edge once, so the
    /// per-edge total is `Σ_v signals[v] · deg(v)`. Batch plans record
    /// this per run; use [`channel_bit_stats`] when the maximum is needed
    /// too.
    ///
    /// [`channel_bit_stats`]: Self::channel_bit_stats
    ///
    /// # Panics
    ///
    /// Panics if `g` has more nodes than the metrics were recorded for.
    #[must_use]
    pub fn mean_channel_bits<G: GraphView + ?Sized>(&self, g: &G) -> f64 {
        assert!(
            g.node_count() <= self.signals.len(),
            "graph larger than the simulated network"
        );
        let edges = g.edge_count();
        if edges == 0 {
            return 0.0;
        }
        let mut cursor = g.cursor();
        let total: u64 = (0..g.node_count())
            .map(|v| u64::from(self.signals[v]) * cursor.degree(v as u32) as u64)
            .sum();
        total as f64 / edges as f64
    }

    /// Mean and maximum bits per channel over all edges of `g`
    /// (`(0, 0)` for edgeless graphs). The paper's §5 calls the per-channel
    /// total the *bit complexity per channel* and shows it is `O(1)`
    /// expected for the feedback algorithm.
    ///
    /// # Panics
    ///
    /// Panics if `g` has more nodes than the metrics were recorded for.
    #[must_use]
    pub fn channel_bit_stats(&self, g: &Graph) -> (f64, u64) {
        assert!(
            g.node_count() <= self.signals.len(),
            "graph larger than the simulated network"
        );
        let mut total = 0u64;
        let mut max = 0u64;
        let mut edges = 0u64;
        for (u, v) in g.edges() {
            let bits = self.channel_bits(u, v);
            total += bits;
            max = max.max(bits);
            edges += 1;
        }
        if edges == 0 {
            (0.0, 0)
        } else {
            (total as f64 / edges as f64, max)
        }
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rounds, {} beeps total ({:.3} mean, {} max per node)",
            self.rounds,
            self.total_beeps(),
            self.mean_beeps_per_node(),
            self.max_beeps_per_node()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_graph::generators;

    #[test]
    fn aggregates() {
        let mut m = Metrics::new(4);
        m.beeps = vec![1, 2, 0, 1];
        m.signals = vec![2, 3, 0, 1];
        assert_eq!(m.total_beeps(), 4);
        assert!((m.mean_beeps_per_node() - 1.0).abs() < 1e-12);
        assert_eq!(m.max_beeps_per_node(), 2);
    }

    #[test]
    fn empty_metrics() {
        let m = Metrics::new(0);
        assert_eq!(m.total_beeps(), 0);
        assert_eq!(m.mean_beeps_per_node(), 0.0);
        assert_eq!(m.max_beeps_per_node(), 0);
    }

    #[test]
    fn channel_bits_per_edge() {
        let mut m = Metrics::new(3);
        m.signals = vec![2, 3, 5];
        assert_eq!(m.channel_bits(0, 1), 5);
        assert_eq!(m.channel_bits(1, 2), 8);
    }

    #[test]
    fn channel_stats_on_path() {
        let g = generators::path(3);
        let mut m = Metrics::new(3);
        m.signals = vec![1, 1, 3];
        let (mean, max) = m.channel_bit_stats(&g);
        assert!((mean - 3.0).abs() < 1e-12); // edges: (0,1)=2, (1,2)=4
        assert_eq!(max, 4);
    }

    #[test]
    fn channel_stats_edgeless() {
        let g = mis_graph::Graph::empty(3);
        let m = Metrics::new(3);
        assert_eq!(m.channel_bit_stats(&g), (0.0, 0));
        assert_eq!(m.mean_channel_bits(&g), 0.0);
    }

    #[test]
    fn mean_channel_bits_matches_per_edge_sweep() {
        // The O(n) degree-weighted mean must equal the O(m) per-edge scan
        // exactly (both divide the same integer total).
        for g in [
            generators::path(7),
            generators::cycle(9),
            generators::complete(6),
            generators::grid2d(3, 4),
        ] {
            let mut m = Metrics::new(g.node_count());
            for v in 0..g.node_count() {
                m.signals[v] = (v as u32 * 7 + 3) % 11;
            }
            assert_eq!(m.mean_channel_bits(&g), m.channel_bit_stats(&g).0, "{g:?}");
        }
    }

    #[test]
    fn mean_channel_bits_reads_a_disk_graph_once_per_block() {
        // 300 nodes fill ⌈300/64⌉ = 5 blocks; one lookup per node would
        // cost 300.
        let g = generators::grid2d(15, 20);
        let dir = std::env::temp_dir().join(format!("mis-beeping-metrics-{}", std::process::id()));
        mis_graph::stream::write_sharded_from_view(&dir, &g, 128).expect("write shards");
        let disk = mis_graph::DiskGraph::open(&dir).expect("open shard directory");
        let mut m = Metrics::new(g.node_count());
        for v in 0..g.node_count() {
            m.signals[v] = (v as u32 * 5 + 1) % 7;
        }
        let lookups = |s: mis_graph::stream::DiskCacheStats| s.hits + s.misses;
        let before = lookups(disk.cache_stats());
        let on_disk = m.mean_channel_bits(&disk);
        let added = lookups(disk.cache_stats()) - before;
        drop(disk);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(on_disk, m.mean_channel_bits(&g));
        assert_eq!(added, 5, "cache lookups of one degree sweep");
    }

    #[test]
    fn display_mentions_rounds() {
        let m = Metrics::new(1);
        assert!(m.to_string().contains("rounds"));
    }
}
