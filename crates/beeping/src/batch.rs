//! Seed derivation and the work-stealing scheduler for batches of runs.
//!
//! The paper's headline claims (`O(log n)` rounds w.h.p., `O(1)` expected
//! beeps per node) are statistical, so every figure and theory check needs
//! hundreds of independent runs. A [`BatchPlan`] names such a batch: run
//! `i` draws its node RNG streams from its own derived seed (via
//! [`trial_seed`], the same derivation the experiment harness uses).
//! [`parallel_indexed_map`] fans the runs across scoped worker threads and
//! returns the results in index order, so a batch is **bit-identical
//! regardless of the worker count** and matches a plain sequential
//! [`Simulator::run`](crate::Simulator::run) per seed. `mis_core::RunPlan`
//! runs a batch through both.
//!
//! # Examples
//!
//! ```
//! use mis_beeping::batch::{parallel_indexed_map, BatchPlan};
//!
//! let plan = BatchPlan::new(42, 8).with_jobs(4);
//! let seeds = parallel_indexed_map(plan.runs, plan.effective_jobs(), |i| plan.run_seed(i));
//! assert_eq!(seeds.len(), 8);
//! // Run i's seed does not depend on the worker count.
//! assert_eq!(seeds[3], BatchPlan::new(42, 8).run_seed(3));
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::rng::trial_seed;

/// A batch of independent simulation runs: a master seed, a run count and
/// a worker count.
///
/// Run `i` uses the derived seed [`run_seed(i)`](Self::run_seed); the plan
/// itself never touches wall-clock state, so re-executing it reproduces
/// every outcome exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPlan {
    /// Master seed from which every run's seed is derived.
    pub master_seed: u64,
    /// Number of independent runs.
    pub runs: usize,
    /// Worker thread count; `0` (the default) means one worker per
    /// available core. The outcomes do not depend on this value.
    pub jobs: usize,
}

impl BatchPlan {
    /// A plan for `runs` runs derived from `master_seed`, with automatic
    /// worker count.
    #[must_use]
    pub fn new(master_seed: u64, runs: usize) -> Self {
        Self {
            master_seed,
            runs,
            jobs: 0,
        }
    }

    /// Sets the worker count (`0` = one per available core).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// The master seed of run `run` — the value to pass to
    /// [`Simulator::new`](crate::Simulator::new) to reproduce that run
    /// alone.
    #[must_use]
    pub fn run_seed(&self, run: usize) -> u64 {
        trial_seed(self.master_seed, run as u64)
    }

    /// The worker count this plan resolves to on this machine.
    #[must_use]
    pub fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            auto_jobs()
        }
    }
}

/// The automatic worker count: one per available core (1 when the core
/// count cannot be determined).
#[must_use]
pub fn auto_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Computes `f(0), …, f(count − 1)` on `jobs` scoped worker threads and
/// returns the results in index order.
///
/// Workers claim indices from an atomic cursor (work-stealing, so load
/// imbalance never idles a thread) and results are merged back by index —
/// scheduling can never affect the output. With `jobs <= 1` the map runs
/// sequentially on the calling thread. This is the scheduler under
/// `mis_core::RunPlan` and `mis-experiments`' trial runner.
#[must_use]
pub fn parallel_indexed_map<T, F>(count: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || count <= 1 {
        return (0..count).map(f).collect();
    }
    let jobs = jobs.min(count);
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                let f = &f;
                let next = &next;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            for (i, value) in handle.join().expect("worker panicked") {
                slots[i] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index was claimed by a worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_seeds_per_run() {
        let plan = BatchPlan::new(77, 64);
        let mut seeds: Vec<u64> = (0..plan.runs).map(|i| plan.run_seed(i)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 64);
    }

    #[test]
    fn effective_jobs_resolves() {
        assert_eq!(BatchPlan::new(0, 1).with_jobs(3).effective_jobs(), 3);
        assert!(BatchPlan::new(0, 1).effective_jobs() >= 1);
        assert!(auto_jobs() >= 1);
    }

    #[test]
    fn parallel_indexed_map_is_ordered_for_any_job_count() {
        let expected: Vec<usize> = (0..25).map(|i| i * i).collect();
        for jobs in [0, 1, 3, 8, 40] {
            let got = parallel_indexed_map(25, jobs, |i| i * i);
            assert_eq!(got, expected, "jobs = {jobs}");
        }
        assert!(parallel_indexed_map(0, 4, |i| i).is_empty());
    }
}
