//! Deterministic multi-trial execution.
//!
//! [`run_trials`] is the experiment-level entry to the workspace's one
//! batched execution path: it derives per-trial seeds through the same
//! [`BatchPlan`] the engine-level [`RunPlan`](mis_core::RunPlan) uses and
//! fans the trials across the same work-stealing
//! [`parallel_indexed_map`] scheduler, so every figure — beeping or
//! message-passing — parallelises under `xp --jobs N` with bit-identical
//! results for any job count.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use mis_beeping::{RngMode, SimConfig};
use mis_core::{auto_jobs, parallel_indexed_map, BatchPlan};
use mis_graph::{stream, CompressedGraph, DiskGraph, Graph, GraphView};
use mis_stats::OnlineStats;

/// Worker-count override installed by [`set_default_jobs`] (`0` = one
/// worker per available core).
static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Intra-run shard override installed by [`set_default_shards`]
/// (`usize::MAX` = unset: stream-mode sequential, the historical
/// default).
static DEFAULT_SHARDS: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Sets the worker count every subsequent [`run_trials`] call uses
/// (`xp --jobs N` calls this once at startup). Pass `0` to restore the
/// default of one worker per available core.
///
/// Results never depend on this value — it only tunes the wall clock.
pub fn set_default_jobs(jobs: usize) {
    DEFAULT_JOBS.store(jobs, Ordering::Relaxed);
}

/// The worker count [`run_trials`] resolves to right now: the
/// [`set_default_jobs`] override if one is installed, otherwise one worker
/// per available core.
#[must_use]
pub fn default_jobs() -> usize {
    let jobs = DEFAULT_JOBS.load(Ordering::Relaxed);
    if jobs > 0 {
        jobs
    } else {
        auto_jobs()
    }
}

/// Sets the intra-run shard count every subsequent [`sim_config`] call
/// bakes into its [`SimConfig`] (`xp --shards N` calls this once at
/// startup; `Some(0)` = auto-detect, `None` restores the unset default).
///
/// Unlike [`set_default_jobs`], this *does* select a different — equally
/// valid — random sequence: sharded runs use the counter-based
/// [`RngMode::Counter`] derivation, so `--shards 1` and `--shards 4`
/// agree with each other but not with an unsharded stream-mode run.
pub fn set_default_shards(shards: Option<usize>) {
    DEFAULT_SHARDS.store(shards.unwrap_or(usize::MAX), Ordering::Relaxed);
}

/// The intra-run shard override currently installed by
/// [`set_default_shards`], if any.
#[must_use]
pub fn default_shards() -> Option<usize> {
    match DEFAULT_SHARDS.load(Ordering::Relaxed) {
        usize::MAX => None,
        s => Some(s),
    }
}

/// Adjacency backend override installed by [`set_default_backend`]
/// (indexes into [`Backend`]'s variants; CSR is the historical default).
static DEFAULT_BACKEND: AtomicUsize = AtomicUsize::new(0);

/// Counter making the per-process shard directories of the disk backend
/// unique.
static DISK_DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The adjacency backend a simulation reads its topology from.
///
/// Backends change only *where adjacency lives* — never the elected MIS:
/// all three serve the same neighbour lists through
/// [`GraphView`](mis_graph::GraphView), so outcomes are bit-identical
/// across this choice (pinned by `tests/backend_equivalence.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// In-RAM compressed sparse rows — fastest, biggest (the default).
    #[default]
    Csr,
    /// In-RAM delta-varint blocks ([`CompressedGraph`]): ≥2× fewer
    /// adjacency bytes per node on regular topologies, slower decode.
    Compressed,
    /// Paged from an on-disk shard directory ([`DiskGraph`]): graphs
    /// larger than RAM, slowest.
    Disk,
}

impl Backend {
    /// Parses a `--backend` value.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "csr" => Some(Backend::Csr),
            "compressed" => Some(Backend::Compressed),
            "disk" => Some(Backend::Disk),
            _ => None,
        }
    }

    /// The flag spelling of this backend.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backend::Csr => "csr",
            Backend::Compressed => "compressed",
            Backend::Disk => "disk",
        }
    }
}

/// Sets the adjacency backend every subsequent [`run_on_backend`] call
/// uses (`xp --backend X` calls this once at startup).
///
/// Like [`set_default_jobs`] — and unlike [`set_default_shards`] — this
/// never changes results, only the space/time point they are computed at.
pub fn set_default_backend(backend: Backend) {
    DEFAULT_BACKEND.store(backend as usize, Ordering::Relaxed);
}

/// The backend currently installed by [`set_default_backend`].
#[must_use]
pub fn default_backend() -> Backend {
    match DEFAULT_BACKEND.load(Ordering::Relaxed) {
        1 => Backend::Compressed,
        2 => Backend::Disk,
        _ => Backend::Csr,
    }
}

/// A simulation (or any graph computation) abstracted over the adjacency
/// backend. [`GraphView`] has generic methods, so it is not object-safe
/// and a `&dyn` can't cross this seam — implementors get the concrete
/// view through a generic method instead.
pub trait BackendOp {
    /// What the computation produces.
    type Out;
    /// Runs the computation against one concrete adjacency backend.
    fn run<G: GraphView + ?Sized>(self, g: &G) -> Self::Out;
}

/// Runs `op` against `g` served through the [`default_backend`]: the CSR
/// graph itself, a [`CompressedGraph`] re-encoding, or a [`DiskGraph`]
/// paging a temporary shard directory (written, used, and removed per
/// call).
///
/// # Panics
///
/// Panics if the disk backend cannot write or reopen its temporary shard
/// directory.
pub fn run_on_backend<Op: BackendOp>(g: &Graph, op: Op) -> Op::Out {
    run_with_backend(g, default_backend(), op)
}

/// [`run_on_backend`] with an explicit backend, bypassing the process-wide
/// [`set_default_backend`] override. Embedders that serve several
/// independent requests in one process (the `mis-serve` daemon) use this so
/// a per-request backend choice cannot couple through the global default.
///
/// # Panics
///
/// Panics if the disk backend cannot write or reopen its temporary shard
/// directory.
pub fn run_with_backend<Op: BackendOp>(g: &Graph, backend: Backend, op: Op) -> Op::Out {
    match backend {
        Backend::Csr => op.run(g),
        Backend::Compressed => op.run(&CompressedGraph::from_view(g)),
        Backend::Disk => {
            // Declared before `disk`, so it is dropped after it: the
            // directory goes even when the write, the open or `op` panics.
            let dir = ShardDir(std::env::temp_dir().join(format!(
                "xp-disk-backend-{}-{}",
                std::process::id(),
                DISK_DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
            )));
            stream::write_sharded_from_view(&dir.0, g, stream::DEFAULT_NODES_PER_SHARD)
                .expect("write disk-backend shard directory");
            let disk = DiskGraph::open(&dir.0).expect("reopen disk-backend shard directory");
            op.run(&disk)
        }
    }
}

/// A disk-backend shard directory, removed when dropped.
struct ShardDir(PathBuf);

impl Drop for ShardDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The base [`SimConfig`] experiments should build on: the plain default
/// when no shard override is installed, otherwise counter-mode with the
/// requested shard count. Experiments that construct a `SimConfig` start
/// from this so `xp --shards N` reaches every beeping simulation.
#[must_use]
pub fn sim_config() -> SimConfig {
    match default_shards() {
        None => SimConfig::default(),
        Some(s) => SimConfig::default()
            .with_rng_mode(RngMode::Counter)
            .with_shards(s),
    }
}

/// Runs `trials` independent trials of `f`, each with its own derived
/// seed, spreading work across [`default_jobs`] workers. Results come back
/// in trial order, so downstream statistics are independent of the thread
/// count.
///
/// # Examples
///
/// ```
/// let doubled = mis_experiments::run_trials(4, 9, |seed, idx| (idx, seed));
/// assert_eq!(doubled.len(), 4);
/// assert_eq!(doubled[2].0, 2);
/// ```
pub fn run_trials<T, F>(trials: usize, master_seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64, usize) -> T + Sync,
{
    run_trials_with_jobs(trials, master_seed, default_jobs(), f)
}

/// [`run_trials`] with an explicit worker count (`0` = one per available
/// core), bypassing the process-wide [`set_default_jobs`] override.
///
/// Use this from embedders that run several harnesses in one process and
/// must not couple through the global default.
pub fn run_trials_with_jobs<T, F>(trials: usize, master_seed: u64, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64, usize) -> T + Sync,
{
    // The same seed derivation and scheduler as the engine-level batch
    // path, so trial runs and `RunPlan` runs can never diverge.
    let plan = BatchPlan::new(master_seed, trials).with_jobs(jobs);
    parallel_indexed_map(plan.runs, plan.effective_jobs(), |i| f(plan.run_seed(i), i))
}

/// One point of a measured series: an x-value (usually `n`) with the
/// summary statistics of the measured quantity across trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// The independent variable (number of nodes, loss rate, …).
    pub x: f64,
    /// Statistics of the measured quantity across trials.
    pub stats: OnlineStats,
}

impl SeriesPoint {
    /// Builds a point from raw per-trial measurements.
    #[must_use]
    pub fn from_samples(x: f64, samples: impl IntoIterator<Item = f64>) -> Self {
        Self {
            x,
            stats: samples.into_iter().collect(),
        }
    }

    /// The sample mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// The sample standard deviation (the paper's error bars).
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.stats.std_dev()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trials_are_ordered_and_deterministic() {
        let a = run_trials(16, 5, |seed, idx| (idx, seed));
        let b = run_trials(16, 5, |seed, idx| (idx, seed));
        assert_eq!(a, b);
        for (i, (idx, _)) in a.iter().enumerate() {
            assert_eq!(*idx, i);
        }
        // Distinct seeds per trial.
        let mut seeds: Vec<u64> = a.iter().map(|&(_, s)| s).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 16);
    }

    #[test]
    fn zero_trials() {
        let v: Vec<u64> = run_trials(0, 1, |seed, _| seed);
        assert!(v.is_empty());
    }

    #[test]
    fn results_are_identical_for_any_job_count() {
        // Worker count must never leak into the results, only the wall
        // clock.
        let reference = run_trials(17, 9, |seed, idx| (idx, seed));
        for jobs in [1, 2, 5] {
            let got = run_trials_with_jobs(17, 9, jobs, |seed, idx| (idx, seed));
            assert_eq!(got, reference, "jobs = {jobs}");
        }
    }

    #[test]
    fn backend_parse_round_trips() {
        for b in [Backend::Csr, Backend::Compressed, Backend::Disk] {
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
        assert_eq!(Backend::parse("ram"), None);
    }

    #[test]
    fn series_point_statistics() {
        let p = SeriesPoint::from_samples(10.0, [1.0, 2.0, 3.0]);
        assert_eq!(p.x, 10.0);
        assert_eq!(p.mean(), 2.0);
        assert!((p.std_dev() - 1.0).abs() < 1e-12);
    }
}
