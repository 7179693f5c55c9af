//! The process-wide overrides of `mis_experiments`: `set_default_jobs`,
//! `set_default_shards` and `set_default_backend`.
//!
//! Every `run_trials`, `sim_config()` and `run_on_backend` caller in a
//! process reads these globals, so the tests that write them run here, in
//! a test binary of their own, where no other test can observe a
//! half-restored override. Within this binary they take one lock in turn.
//! The disk backend's cleanup test runs under the same lock, since the
//! backend tests create the shard directories it looks for.

use std::sync::{Mutex, MutexGuard, PoisonError};

use mis_beeping::{RngMode, SimConfig};
use mis_experiments::{
    default_backend, default_jobs, default_shards, run_on_backend, run_with_backend,
    set_default_backend, set_default_jobs, set_default_shards, sim_config, Backend, BackendOp,
};
use mis_graph::GraphView;

/// Serialises the tests of this binary, which share the globals.
static OVERRIDES: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; its `Restore` guard has already
    // put the defaults back, so the next test may proceed.
    OVERRIDES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Degree-sum probe: backend-independent by the GraphView contract.
struct DegreeSum;

impl BackendOp for DegreeSum {
    type Out = usize;
    fn run<G: GraphView + ?Sized>(self, g: &G) -> usize {
        (0..g.node_count() as u32).map(|v| g.degree(v)).sum()
    }
}

#[test]
fn default_jobs_override_round_trips() {
    let _lock = exclusive();
    // Restore the process-wide default even if an assertion fails, so
    // a failure here cannot leak a stale override into other tests.
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_default_jobs(0);
        }
    }
    let _restore = Restore;
    set_default_jobs(3);
    assert_eq!(default_jobs(), 3);
    set_default_jobs(0);
    assert!(default_jobs() >= 1);
}

#[test]
fn shard_override_round_trips_and_shapes_the_config() {
    let _lock = exclusive();
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_default_shards(None);
        }
    }
    let _restore = Restore;
    assert_eq!(default_shards(), None);
    assert_eq!(sim_config(), SimConfig::default());
    set_default_shards(Some(4));
    assert_eq!(default_shards(), Some(4));
    let config = sim_config();
    assert_eq!(config.rng, RngMode::Counter);
    assert_eq!(config.shards, 4);
    set_default_shards(Some(1));
    // --shards 1 still selects counter mode, so it agrees with any
    // other shard count.
    assert_eq!(sim_config().rng, RngMode::Counter);
    assert_eq!(sim_config().shards, 1);
}

#[test]
fn backend_override_round_trips_and_dispatches() {
    let _lock = exclusive();
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_default_backend(Backend::Csr);
        }
    }
    let _restore = Restore;
    assert_eq!(default_backend(), Backend::Csr);

    let g = mis_graph::generators::torus2d(8, 8);
    let reference = run_on_backend(&g, DegreeSum);
    assert_eq!(reference, 4 * 64);
    for b in [Backend::Compressed, Backend::Disk] {
        set_default_backend(b);
        assert_eq!(default_backend(), b);
        assert_eq!(run_on_backend(&g, DegreeSum), reference, "{}", b.name());
    }
}

#[test]
fn explicit_backend_ignores_the_process_default() {
    let _lock = exclusive();
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_default_backend(Backend::Csr);
        }
    }
    let _restore = Restore;

    let g = mis_graph::generators::cycle(32);
    // Pin the process default to one backend and route through the
    // others explicitly: the default must not leak into the dispatch.
    set_default_backend(Backend::Disk);
    for b in [Backend::Csr, Backend::Compressed, Backend::Disk] {
        assert_eq!(run_with_backend(&g, b, DegreeSum), 64, "{}", b.name());
    }
    assert_eq!(default_backend(), Backend::Disk);
}

#[test]
fn panicking_disk_op_leaves_no_shard_directory() {
    // Under the lock, so no other test of this binary has a disk-backend
    // directory of this process open while the temp dir is scanned.
    let _lock = exclusive();

    /// Panics while the disk backend's shard directory exists.
    struct Panics;

    impl BackendOp for Panics {
        type Out = ();
        fn run<G: GraphView + ?Sized>(self, _g: &G) {
            panic!("deliberate panic inside the disk backend");
        }
    }

    let g = mis_graph::generators::cycle(32);
    let caught = std::panic::catch_unwind(|| run_with_backend(&g, Backend::Disk, Panics));
    assert!(caught.is_err());

    let prefix = format!("xp-disk-backend-{}-", std::process::id());
    let leftovers: Vec<String> = std::fs::read_dir(std::env::temp_dir())
        .expect("read the temp dir")
        .filter_map(Result::ok)
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with(&prefix))
        .collect();
    assert!(leftovers.is_empty(), "leaked {leftovers:?}");
}
