//! Run settings and deterministic multi-trial execution.
//!
//! A [`RunContext`] carries the settings an experiment executes under:
//! the worker count (`xp --jobs`), the intra-run shard count of beeping
//! simulations (`xp --shards`) and the adjacency [`Backend`]
//! (`xp --backend`). `xp` builds one from its flags and hands it to every
//! experiment's `run`; nothing is held in process-wide state, so two
//! harnesses in one process cannot couple through it.
//!
//! [`RunContext::run_trials`] is the experiment-level entry to the
//! workspace's one batched execution path: it derives per-trial seeds
//! through the same [`BatchPlan`] the engine-level
//! [`RunPlan`](mis_core::RunPlan) uses and fans the trials across the same
//! work-stealing [`parallel_indexed_map`] scheduler, so every figure —
//! beeping or message-passing — parallelises with bit-identical results
//! for any job count.

use mis_beeping::{RngMode, SimConfig};
use mis_core::{parallel_indexed_map, BatchPlan};
use mis_graph::backend::Backend;
use mis_stats::OnlineStats;

/// The settings a run of the experiments executes under.
///
/// The default is one worker per available core, unsharded stream-mode
/// simulations and the CSR backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunContext {
    /// Worker threads [`run_trials`](Self::run_trials) fans trials over
    /// (`0` = one per available core). Results never depend on it.
    pub jobs: usize,
    /// Intra-run shard count baked into [`sim_config`](Self::sim_config)
    /// (`None` = unsharded stream mode, `Some(0)` = one per core).
    pub shards: Option<usize>,
    /// The adjacency backend experiments that read one serve their graphs
    /// from (see [`run_with_backend`](mis_graph::backend::run_with_backend)).
    pub backend: Backend,
}

impl RunContext {
    /// The base [`SimConfig`] experiments build on: the plain default when
    /// [`shards`](Self::shards) is unset, otherwise counter mode with the
    /// requested shard count.
    ///
    /// Unlike the job count, a shard count *does* select a different —
    /// equally valid — random sequence: sharded runs use the
    /// counter-based [`RngMode::Counter`] derivation, so `Some(1)` and
    /// `Some(4)` agree with each other but not with an unsharded
    /// stream-mode run.
    #[must_use]
    pub fn sim_config(&self) -> SimConfig {
        match self.shards {
            None => SimConfig::default(),
            Some(s) => SimConfig::default()
                .with_rng_mode(RngMode::Counter)
                .with_shards(s),
        }
    }

    /// Runs `trials` independent trials of `f`, each with its own derived
    /// seed, spreading work across [`jobs`](Self::jobs) workers. Results
    /// come back in trial order, so downstream statistics are independent
    /// of the thread count.
    ///
    /// # Examples
    ///
    /// ```
    /// use mis_experiments::RunContext;
    ///
    /// let doubled = RunContext::default().run_trials(4, 9, |seed, idx| (idx, seed));
    /// assert_eq!(doubled.len(), 4);
    /// assert_eq!(doubled[2].0, 2);
    /// ```
    pub fn run_trials<T, F>(&self, trials: usize, master_seed: u64, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u64, usize) -> T + Sync,
    {
        // The same seed derivation and scheduler as the engine-level batch
        // path, so trial runs and `RunPlan` runs can never diverge.
        let plan = BatchPlan::new(master_seed, trials).with_jobs(self.jobs);
        parallel_indexed_map(plan.runs, plan.effective_jobs(), |i| f(plan.run_seed(i), i))
    }
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
        let ctx = RunContext::default();
        let a = ctx.run_trials(16, 5, |seed, idx| (idx, seed));
        let b = ctx.run_trials(16, 5, |seed, idx| (idx, seed));
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
        let v: Vec<u64> = RunContext::default().run_trials(0, 1, |seed, _| seed);
        assert!(v.is_empty());
    }

    #[test]
    fn results_are_identical_for_any_job_count() {
        // Worker count must never leak into the results, only the wall
        // clock.
        let reference = RunContext::default().run_trials(17, 9, |seed, idx| (idx, seed));
        for jobs in [1, 2, 5] {
            let ctx = RunContext {
                jobs,
                ..RunContext::default()
            };
            let got = ctx.run_trials(17, 9, |seed, idx| (idx, seed));
            assert_eq!(got, reference, "jobs = {jobs}");
        }
    }

    #[test]
    fn series_point_statistics() {
        let p = SeriesPoint::from_samples(10.0, [1.0, 2.0, 3.0]);
        assert_eq!(p.x, 10.0);
        assert_eq!(p.mean(), 2.0);
        assert!((p.std_dev() - 1.0).abs() < 1e-12);
    }
}
