//! Block misses of whole runs on the disk backend, pinned.
//!
//! A `DiskGraph` reads adjacency one 64-node block at a time through a
//! bounded LRU cache. How a run walks its nodes decides which blocks stay
//! resident, so the exact miss count of a run is a fingerprint of the
//! engine's access order and of the eviction policy. This suite pins that
//! count for runs on a graph four times larger than the cache, and checks
//! that the outcomes equal the CSR graph's. Hits are not pinned: reading a
//! block once per run of nodes instead of once per node lowers them
//! without changing which blocks are read.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use beeping_mis::baselines::{LubyPriorityFactory, MessageSimulator};
use beeping_mis::beeping::{SimConfig, Simulator};
use beeping_mis::core::FeedbackFactory;
use beeping_mis::graph::stream::write_sharded_from_view;
use beeping_mis::graph::{generators, DiskGraph, Graph};
use rand::{rngs::SmallRng, SeedableRng};

/// Self-cleaning unique temp directory for shard files.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let id = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("mis-disk-misses-{}-{tag}-{id}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        Self(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `G(4096, d≈16)` written in 4 shards of 1024 nodes and opened with a
/// 16-block cache: 64 blocks on disk, a quarter of them resident.
fn disk_fixture(dir: &TempDir) -> (Graph, DiskGraph) {
    let n = 4096;
    let g = generators::gnp(
        n,
        16.0 / (n - 1) as f64,
        &mut SmallRng::seed_from_u64(0xD15C),
    );
    write_sharded_from_view(dir.path(), &g, n / 4).expect("write shards");
    let disk = DiskGraph::open(dir.path())
        .expect("open shard directory")
        .with_cache_blocks(16);
    (g, disk)
}

#[test]
fn feedback_runs_keep_their_block_misses() {
    let dir = TempDir::new("feedback");
    let (g, disk) = disk_fixture(&dir);
    let mut misses = Vec::new();
    for seed in [1u64, 2, 3] {
        let on_disk =
            Simulator::new(&disk, &FeedbackFactory::new(), seed, SimConfig::default()).run();
        let on_csr = Simulator::new(&g, &FeedbackFactory::new(), seed, SimConfig::default()).run();
        assert_eq!(
            on_disk, on_csr,
            "seed {seed}: disk outcome differs from CSR"
        );
        misses.push(disk.cache_stats().misses);
    }
    // Cumulative misses after each run; the cache carries over.
    assert_eq!(
        misses,
        [1125, 2302, 3487],
        "block misses after each feedback run"
    );
}

#[test]
fn message_runs_keep_their_block_misses() {
    let dir = TempDir::new("message");
    let (g, disk) = disk_fixture(&dir);
    let mut misses = Vec::new();
    for seed in [1u64, 2] {
        let on_disk = MessageSimulator::new(&disk, &LubyPriorityFactory::new(), seed).run(10_000);
        let on_csr = MessageSimulator::new(&g, &LubyPriorityFactory::new(), seed).run(10_000);
        assert_eq!(
            on_disk, on_csr,
            "seed {seed}: disk outcome differs from CSR"
        );
        misses.push(disk.cache_stats().misses);
    }
    assert_eq!(misses, [636, 1282], "block misses after each Luby run");
}
