//! Run plans: batched multi-seed execution with streaming statistics.
//!
//! This module is the workspace's **plan façade**: it re-exports the batch
//! primitives of `mis_beeping::batch` ([`BatchPlan`],
//! [`parallel_indexed_map`], [`auto_jobs`]) next to the engine-generic plan
//! types, so downstream code imports everything batching-related from one
//! place. [`RunPlan`] is the one batch runner.
//!
//! A [`RunPlan`] pairs an [`Engine`] with a seed range and a worker count,
//! and executes the whole batch through the work-stealing
//! [`parallel_indexed_map`] scheduler. Per-run results are reduced to
//! compact [`EngineRecord`]s inside the workers and folded into
//! `mis-stats` [`OnlineStats`] aggregates, so thousand-run batches never
//! hold every full outcome in memory at once. The default engine is the
//! beeping [`AlgorithmEngine`]; `mis_baselines::MessageEngine` runs the
//! message-passing families (Luby ×2, Métivier, greedy-local) through the
//! very same plan. [`RunPlan::execute`] is generic over
//! [`GraphView`], so a plan runs on a lazy derived-graph view (line graph,
//! product, induced subgraph) exactly as it runs on a CSR graph.
//!
//! The determinism contract is inherited from the scheduler: the records
//! are bit-identical for any `jobs` value and match the single-run path
//! seed for seed.
//!
//! Parallelism has two orthogonal levers, both result-neutral: `jobs`
//! fans independent *runs* across workers (this module), while
//! *intra-run sharding* splits one run's propagation across workers —
//! [`SimConfig::with_shards`] for the beeping engine (either RNG mode),
//! `MessageEngine::with_shards` for the message engine. Use `jobs` for
//! statistical batches of many seeds; use shards when a single huge-graph
//! run is the bottleneck. They compose.
//!
//! # Examples
//!
//! ```
//! use mis_core::{Algorithm, RunPlan};
//! use mis_graph::generators;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let g = generators::gnp(60, 0.3, &mut SmallRng::seed_from_u64(1));
//! let report = RunPlan::new(Algorithm::feedback(), 20)
//!     .with_master_seed(7)
//!     .with_jobs(4)
//!     .execute(&g);
//! assert_eq!(report.records().len(), 20);
//! assert_eq!(report.unterminated(), 0);
//! println!(
//!     "rounds: {:.1} ± {:.1}",
//!     report.rounds().mean(),
//!     report.rounds().std_dev()
//! );
//! ```

pub use mis_beeping::batch::{auto_jobs, parallel_indexed_map, BatchPlan};

use mis_beeping::SimConfig;
use mis_graph::GraphView;
use mis_stats::OnlineStats;

use crate::engine::{AlgorithmEngine, Engine, EngineRecord};
use crate::Algorithm;

/// The compact per-run result a [`RunPlan`] keeps for beeping engines:
/// everything the statistical experiments consume, without per-node
/// buffers.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The run's derived master seed (reproduces the run alone via
    /// [`run_algorithm`](crate::run_algorithm)).
    pub seed: u64,
    /// Rounds executed.
    pub rounds: u32,
    /// Mean beeps per node (the paper's Figure 5 quantity).
    pub mean_beeps_per_node: f64,
    /// Mean bits per channel (the paper's §5 quantity — comparable with
    /// the message engines' accounting).
    pub mean_bits_per_channel: f64,
    /// Size of the selected independent set. The membership itself is not
    /// retained — on a million-node graph a thousand runs of `Vec<NodeId>`
    /// would dominate memory; reproduce the run from [`seed`](Self::seed)
    /// when the actual set is needed.
    pub mis_size: usize,
    /// Whether every node became inactive before the round cap.
    pub terminated: bool,
}

impl EngineRecord for RunRecord {
    fn seed(&self) -> u64 {
        self.seed
    }

    fn rounds(&self) -> u32 {
        self.rounds
    }

    fn mis_size(&self) -> usize {
        self.mis_size
    }

    fn terminated(&self) -> bool {
        self.terminated
    }

    fn cost(&self) -> f64 {
        self.mean_beeps_per_node
    }

    fn bits_per_channel(&self) -> f64 {
        self.mean_bits_per_channel
    }
}

/// A batched multi-seed execution of one [`Engine`] on one graph.
///
/// The default engine is the beeping [`AlgorithmEngine`] (so
/// `RunPlan::new(Algorithm::feedback(), …)` keeps working); any other
/// engine plugs in through [`RunPlan::for_engine`]. [`execute`] accepts
/// any [`GraphView`] the engine is implemented for, so one plan runs on a
/// materialised CSR graph or a lazy derived-graph view alike.
///
/// [`execute`]: Self::execute
#[derive(Debug, Clone, PartialEq)]
pub struct RunPlan<E = AlgorithmEngine> {
    /// The engine every run executes.
    pub engine: E,
    /// Master seed for the whole batch; run `i` derives its own seed.
    pub master_seed: u64,
    /// Number of independent runs.
    pub runs: usize,
    /// Worker thread count (`0` = one per available core). Never affects
    /// the results, only the wall clock.
    pub jobs: usize,
}

impl RunPlan<AlgorithmEngine> {
    /// A plan running the beeping `algorithm` for `runs` independent
    /// seeds.
    #[must_use]
    pub fn new(algorithm: Algorithm, runs: usize) -> Self {
        Self::for_engine(AlgorithmEngine::new(algorithm), runs)
    }

    /// Replaces the shared simulator configuration.
    #[must_use]
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.engine.config = config;
        self
    }
}

impl<E> RunPlan<E> {
    /// A plan running `engine` for `runs` independent seeds.
    #[must_use]
    pub fn for_engine(engine: E, runs: usize) -> Self {
        Self {
            engine,
            master_seed: 0,
            runs,
            jobs: 0,
        }
    }

    /// Sets the batch master seed.
    #[must_use]
    pub fn with_master_seed(mut self, master_seed: u64) -> Self {
        self.master_seed = master_seed;
        self
    }

    /// Sets the worker count (`0` = one per available core).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// The seed-derivation view of this plan: every execution path derives
    /// its per-run seeds from this [`BatchPlan`].
    #[must_use]
    pub fn batch_plan(&self) -> BatchPlan {
        BatchPlan::new(self.master_seed, self.runs).with_jobs(self.jobs)
    }

    /// The master seed of run `run` — the value to pass to
    /// [`Engine::run`] to reproduce that run alone.
    #[must_use]
    pub fn run_seed(&self, run: usize) -> u64 {
        self.batch_plan().run_seed(run)
    }

    /// Executes every run and folds the records into a [`BatchReport`].
    ///
    /// Each run goes through [`Engine::run`] — the same call the
    /// single-run path uses — so the two can never diverge. `graph` may be
    /// any [`GraphView`] the engine is implemented for: a CSR `Graph` or a
    /// lazy derived-graph view.
    #[must_use]
    pub fn execute<G>(&self, graph: &G) -> BatchReport<E::Record>
    where
        G: GraphView + ?Sized,
        E: Engine<G>,
    {
        self.execute_observed(graph, |_| {})
    }

    /// [`execute`](Self::execute) with a completion observer: `observe(i)`
    /// is called once per run, from the worker that finished run `i`,
    /// immediately after its record is reduced. Observers must be cheap
    /// and side-effect-only (progress counters, run accounting) — they can
    /// never influence the records, which stay bit-identical to
    /// [`execute`](Self::execute) for any job count. The serving tier uses
    /// this to stream queued-job progress without touching the engine
    /// contract.
    #[must_use]
    pub fn execute_observed<G, F>(&self, graph: &G, observe: F) -> BatchReport<E::Record>
    where
        G: GraphView + ?Sized,
        E: Engine<G>,
        F: Fn(usize) + Sync,
    {
        let plan = self.batch_plan();
        let records = parallel_indexed_map(plan.runs, plan.effective_jobs(), |i| {
            let seed = plan.run_seed(i);
            let outcome = self.engine.run(graph, seed);
            let record = self.engine.record(graph, seed, &outcome);
            observe(i);
            record
        });
        BatchReport::from_records(records)
    }

    /// Executes every run and returns the **full** outcomes in seed order.
    ///
    /// Prefer [`execute`](Self::execute) for large batches — full outcomes
    /// keep per-node buffers alive.
    #[must_use]
    pub fn execute_outcomes<G>(&self, graph: &G) -> Vec<E::Outcome>
    where
        G: GraphView + ?Sized,
        E: Engine<G>,
        E::Outcome: Send,
    {
        let plan = self.batch_plan();
        parallel_indexed_map(plan.runs, plan.effective_jobs(), |i| {
            self.engine.run(graph, plan.run_seed(i))
        })
    }
}

/// Aggregated results of a [`RunPlan`]: per-seed records plus streaming
/// [`OnlineStats`] over the quantities the paper plots.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport<R: EngineRecord = RunRecord> {
    records: Vec<R>,
    rounds: OnlineStats,
    cost: OnlineStats,
    mis_size: OnlineStats,
    unterminated: usize,
}

impl<R: EngineRecord> BatchReport<R> {
    /// Folds per-run records into a report (records stay in seed order).
    #[must_use]
    pub fn from_records(records: Vec<R>) -> Self {
        let mut rounds = OnlineStats::new();
        let mut cost = OnlineStats::new();
        let mut mis_size = OnlineStats::new();
        let mut unterminated = 0;
        for r in &records {
            rounds.push(f64::from(r.rounds()));
            cost.push(r.cost());
            mis_size.push(r.mis_size() as f64);
            unterminated += usize::from(!r.terminated());
        }
        Self {
            records,
            rounds,
            cost,
            mis_size,
            unterminated,
        }
    }

    /// Per-seed records, in seed order.
    #[must_use]
    pub fn records(&self) -> &[R] {
        &self.records
    }

    /// Statistics of the round counts across runs.
    #[must_use]
    pub fn rounds(&self) -> &OnlineStats {
        &self.rounds
    }

    /// Statistics of the engine's per-run [cost](EngineRecord::cost)
    /// across runs: mean beeps per node for beeping engines, mean bits per
    /// channel for message engines.
    #[must_use]
    pub fn cost(&self) -> &OnlineStats {
        &self.cost
    }

    /// Statistics of the selected MIS sizes across runs.
    #[must_use]
    pub fn mis_size(&self) -> &OnlineStats {
        &self.mis_size
    }

    /// Number of runs that hit the round cap without terminating.
    #[must_use]
    pub fn unterminated(&self) -> usize {
        self.unterminated
    }
}

impl BatchReport<RunRecord> {
    /// Statistics of mean-beeps-per-node across runs (Figure 5's y-axis) —
    /// the beeping engine's [cost](EngineRecord::cost) axis.
    #[must_use]
    pub fn beeps_per_node(&self) -> &OnlineStats {
        &self.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_algorithm, CustomSchedule};
    use mis_graph::generators;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn report_matches_single_run_path_for_every_job_count() {
        let g = generators::gnp(50, 0.3, &mut SmallRng::seed_from_u64(2));
        let base = RunPlan::new(Algorithm::feedback(), 8).with_master_seed(11);
        let reference = base.clone().with_jobs(1).execute(&g);
        for jobs in [2, 4] {
            let parallel = base.clone().with_jobs(jobs).execute(&g);
            assert_eq!(parallel, reference, "jobs = {jobs}");
        }
        // Seed for seed, the records reproduce the plain single-run path.
        for record in reference.records() {
            let solo = run_algorithm(
                &g,
                &base.engine.algorithm,
                record.seed,
                SimConfig::default(),
            );
            assert_eq!(record.rounds, solo.rounds());
            assert_eq!(record.mis_size, solo.mis().len());
            assert_eq!(record.terminated, solo.terminated());
            assert_eq!(
                record.mean_bits_per_channel,
                solo.metrics().channel_bit_stats(&g).0
            );
        }
    }

    #[test]
    fn aggregates_fold_every_run() {
        let g = generators::cycle(40);
        let report = RunPlan::new(Algorithm::sweep(), 12)
            .with_master_seed(3)
            .execute(&g);
        assert_eq!(report.records().len(), 12);
        assert_eq!(report.rounds().count(), 12);
        assert_eq!(report.beeps_per_node().count(), 12);
        assert_eq!(report.cost().count(), 12);
        assert_eq!(report.mis_size().count(), 12);
        assert_eq!(report.unterminated(), 0);
        assert!(report.rounds().mean() >= 1.0);
        assert!(report.mis_size().mean() >= (40.0f64 / 3.0).floor());
    }

    #[test]
    fn every_algorithm_executes_in_batch() {
        let g = generators::grid2d(5, 5);
        for algo in [
            Algorithm::feedback(),
            Algorithm::sweep(),
            Algorithm::science(),
            Algorithm::constant(0.3),
            Algorithm::Custom(CustomSchedule::new(
                vec![1.0, 0.5, 0.25],
                crate::TailBehavior::Cycle,
            )),
        ] {
            let report = RunPlan::new(algo.clone(), 4)
                .with_master_seed(9)
                .with_jobs(2)
                .execute(&g);
            assert_eq!(report.records().len(), 4, "{}", algo.name());
            assert_eq!(report.unterminated(), 0, "{}", algo.name());
        }
    }

    #[test]
    fn intra_run_sharding_composes_with_jobs() {
        // The two parallelism levers are independent and result-neutral:
        // a sharded-counter config through a multi-worker plan must match
        // the same config run sequentially, seed for seed.
        use mis_beeping::RngMode;

        let g = generators::gnp(80, 0.15, &mut SmallRng::seed_from_u64(5));
        let config = SimConfig::default().with_rng_mode(RngMode::Counter);
        let reference = RunPlan::new(Algorithm::feedback(), 6)
            .with_config(config.clone())
            .with_master_seed(13)
            .with_jobs(1)
            .execute(&g);
        let sharded = RunPlan::new(Algorithm::feedback(), 6)
            .with_config(config.with_shards(4))
            .with_master_seed(13)
            .with_jobs(2)
            .execute(&g);
        assert_eq!(reference, sharded);
    }

    #[test]
    fn round_cap_shows_up_as_unterminated() {
        let g = generators::complete(2);
        let report = RunPlan::new(Algorithm::constant(1.0), 3)
            .with_config(SimConfig::default().with_max_rounds(20))
            .execute(&g);
        assert_eq!(report.unterminated(), 3);
        assert!(report.records().iter().all(|r| r.rounds == 20));
    }

    #[test]
    fn execute_outcomes_matches_execute_records() {
        let g = generators::gnp(30, 0.3, &mut SmallRng::seed_from_u64(6));
        let plan = RunPlan::new(Algorithm::feedback(), 5)
            .with_master_seed(4)
            .with_jobs(2);
        let outcomes = plan.execute_outcomes(&g);
        let report = plan.execute(&g);
        assert_eq!(outcomes.len(), report.records().len());
        for (outcome, record) in outcomes.iter().zip(report.records()) {
            assert_eq!(outcome.rounds(), record.rounds);
            assert_eq!(outcome.mis().len(), record.mis_size);
        }
    }

    #[test]
    fn empty_plan_and_zero_node_graph() {
        let none = RunPlan::new(Algorithm::feedback(), 0).execute_outcomes(&generators::cycle(6));
        assert!(none.is_empty());
        let outcomes = RunPlan::new(Algorithm::feedback(), 3)
            .with_jobs(2)
            .execute_outcomes(&mis_graph::Graph::empty(0));
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes.iter().all(|o| o.terminated() && o.rounds() == 0));
    }

    #[test]
    fn execute_observed_sees_every_run_and_matches_execute() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let g = generators::gnp(40, 0.2, &mut SmallRng::seed_from_u64(7));
        let plan = RunPlan::new(Algorithm::feedback(), 9)
            .with_master_seed(21)
            .with_jobs(3);
        let seen = AtomicUsize::new(0);
        let observed = plan.execute_observed(&g, |_i| {
            seen.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(seen.load(Ordering::Relaxed), 9);
        assert_eq!(observed, plan.execute(&g));
    }

    #[test]
    fn batch_plan_derives_the_same_seeds() {
        let plan = RunPlan::new(Algorithm::feedback(), 6)
            .with_master_seed(42)
            .with_jobs(3);
        let batch = plan.batch_plan();
        assert_eq!(batch.runs, 6);
        assert_eq!(batch.jobs, 3);
        for i in 0..6 {
            assert_eq!(plan.run_seed(i), batch.run_seed(i));
        }
    }
}
