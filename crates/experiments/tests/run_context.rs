//! The settings a `RunContext` carries: its default, the `SimConfig` a
//! shard count selects, and the backend dispatch of `run_with_backend`.

use mis_beeping::{RngMode, SimConfig};
use mis_experiments::{run_with_backend, Backend, BackendOp, RunContext};
use mis_graph::GraphView;

/// Degree-sum probe: backend-independent by the GraphView contract.
struct DegreeSum;

impl BackendOp for DegreeSum {
    type Out = usize;
    fn run<G: GraphView + ?Sized>(self, g: &G) -> usize {
        (0..g.node_count() as u32).map(|v| g.degree(v)).sum()
    }
}

#[test]
fn default_context_is_auto_jobs_unsharded_csr() {
    let ctx = RunContext::default();
    assert_eq!(ctx.jobs, 0, "0 = one worker per core");
    assert_eq!(ctx.shards, None);
    assert_eq!(ctx.backend, Backend::Csr);
    assert_eq!(ctx.sim_config(), SimConfig::default());
}

#[test]
fn shard_count_selects_counter_mode() {
    let sharded = |shards| RunContext {
        shards: Some(shards),
        ..RunContext::default()
    };
    let config = sharded(4).sim_config();
    assert_eq!(config.rng, RngMode::Counter);
    assert_eq!(config.shards, 4);
    // --shards 1 still selects counter mode, so it agrees with any
    // other shard count.
    let config = sharded(1).sim_config();
    assert_eq!(config.rng, RngMode::Counter);
    assert_eq!(config.shards, 1);
}

#[test]
fn every_backend_serves_the_same_adjacency() {
    let g = mis_graph::generators::torus2d(8, 8);
    let reference = run_with_backend(&g, Backend::Csr, DegreeSum);
    assert_eq!(reference, 4 * 64);
    for b in [Backend::Compressed, Backend::Disk] {
        assert_eq!(
            run_with_backend(&g, b, DegreeSum),
            reference,
            "{}",
            b.name()
        );
    }
}
