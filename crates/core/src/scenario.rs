//! Worst-case adversary search over the scenario engine.
//!
//! The primitives — the serialisable [`ScenarioSpec`] and its
//! loss/delay/wake/churn models — live in [`mis_beeping::scenario`] (the
//! simulator must honour them, and this crate sits above the simulator);
//! this module re-exports them and adds the *search*:
//! [`AdversarySchedule`] mutates scenario specs across generations,
//! evaluates each candidate over a batch of runs through the ordinary
//! [`RunPlan`] work-stealing path, and keeps the fittest — maximising
//! either rounds-to-MIS or MIS-safety violations at a fixed loss budget.
//!
//! Everything is deterministic: candidate generation draws from
//! [`SmallRng`]s seeded per generation from the search seed, every
//! candidate is evaluated on the same per-run seeds, and fitness ties
//! break on the canonical spec JSON — the same search inputs always find
//! the same adversary.
//!
//! # Examples
//!
//! ```
//! use mis_core::scenario::{AdversarySchedule, Fitness};
//! use mis_core::Algorithm;
//! use mis_graph::generators;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let g = generators::gnp(60, 0.15, &mut SmallRng::seed_from_u64(1));
//! let report = AdversarySchedule::new(Algorithm::feedback(), 0.1)
//!     .with_generations(1)
//!     .with_population(2)
//!     .with_eval_runs(2)
//!     .search(&g);
//! // The uniform-loss baseline is always evaluated for comparison.
//! assert!(report.uniform.fitness > 0);
//! assert!(!report.best.is_empty());
//! ```

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mis_beeping::rng::{splitmix64, Fnv1a};
use mis_beeping::{NodeStatus, RunOutcome, SimConfig};
use mis_graph::GraphView;

pub use mis_beeping::scenario::{
    ChurnModel, ChurnWindow, DelayModel, Delivery, LossModel, ScenarioError, ScenarioSpec,
    WakePattern,
};

use crate::verify::check_mis;
use crate::{Algorithm, RunPlan};

/// What the adversary maximises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fitness {
    /// Total rounds-to-MIS across the evaluation runs (stress the
    /// paper's `O(log² n)` w.h.p. bound).
    #[default]
    Rounds,
    /// MIS-safety violations first (runs whose final set is not a valid
    /// MIS), rounds as the tiebreak.
    Violations,
}

/// One evaluated scenario: the spec plus everything needed to compare it
/// and to verify a replay byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluatedScenario {
    /// The scenario that was run.
    pub spec: ScenarioSpec,
    /// Rounds of each evaluation run, in seed order.
    pub rounds: Vec<u32>,
    /// [`outcome_digest`] of each evaluation run, in seed order — the
    /// byte-identity fingerprint replays are checked against.
    pub digests: Vec<u64>,
    /// Runs whose final set violated MIS safety (independence or
    /// maximality).
    pub violations: usize,
    /// Runs that hit the round cap.
    pub unterminated: usize,
    /// Scalar fitness under the schedule's [`Fitness`] axis (bigger is
    /// worse for the algorithm).
    pub fitness: u64,
}

impl EvaluatedScenario {
    /// Total rounds across the evaluation runs.
    #[must_use]
    pub fn total_rounds(&self) -> u64 {
        self.rounds.iter().map(|&r| u64::from(r)).sum()
    }
}

/// Result of an [`AdversarySchedule::search`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryReport {
    /// The uniform-loss baseline at the same loss budget — what the found
    /// adversaries must beat.
    pub uniform: EvaluatedScenario,
    /// The fittest scenarios found, best first.
    pub best: Vec<EvaluatedScenario>,
    /// Total distinct scenarios evaluated (baseline included).
    pub evaluated: usize,
}

impl AdversaryReport {
    /// Whether the best found scenario is strictly worse for the
    /// algorithm than uniform loss at the same budget.
    #[must_use]
    pub fn beats_uniform(&self) -> bool {
        self.best
            .first()
            .is_some_and(|b| b.fitness > self.uniform.fitness)
    }
}

/// A 64-bit FNV-1a fingerprint of a [`RunOutcome`] — statuses, rounds,
/// termination, and the per-node signal/beep counters. Two outcomes with
/// equal digests and equal rounds are byte-identical for replay purposes.
#[must_use]
pub fn outcome_digest(outcome: &RunOutcome) -> u64 {
    let mut h = Fnv1a::new();
    for s in outcome.statuses() {
        h.write_u8(match s {
            NodeStatus::Active => 0,
            NodeStatus::InMis => 1,
            NodeStatus::Covered => 2,
            NodeStatus::Asleep => 3,
        });
    }
    h.write_u8(u8::from(outcome.terminated()));
    h.write_u32(outcome.rounds());
    for &s in &outcome.metrics().signals {
        h.write_u32(s);
    }
    for &b in &outcome.metrics().beeps {
        h.write_u32(b);
    }
    h.finish()
}

/// Generation-based worst-case search: mutate scenario specs, evaluate
/// each over a fixed batch of seeds through [`RunPlan`], keep the
/// fittest, repeat.
///
/// The loss budget is **conserved**: every candidate's mean per-delivery
/// loss equals `loss_budget`, so a found adversary beats uniform loss by
/// *shaping* the same budget (per-edge concentration, delays, wake
/// staggering, churn), not by spending more of it.
#[derive(Debug, Clone)]
pub struct AdversarySchedule {
    /// Algorithm under attack.
    pub algorithm: Algorithm,
    /// Base simulator configuration (round cap, heartbeat repair); the
    /// candidate scenario is attached per evaluation.
    pub config: SimConfig,
    /// Mean per-delivery loss probability every candidate must spend
    /// exactly.
    pub loss_budget: f64,
    /// Latest wake round a mutated wake pattern may use.
    pub max_wake: u32,
    /// Largest per-delivery delay a mutated delay model may use (0
    /// disables delay mutations).
    pub max_delay: u32,
    /// Whether mutations may introduce churn.
    pub allow_churn: bool,
    /// Search generations.
    pub generations: usize,
    /// Candidates evaluated per generation.
    pub population: usize,
    /// Elites carried into the next generation's parent pool.
    pub survivors: usize,
    /// Runs per candidate evaluation (all candidates share the same
    /// per-run seeds).
    pub eval_runs: usize,
    /// Master seed of the evaluation batch.
    pub eval_seed: u64,
    /// Seed of the mutation stream.
    pub search_seed: u64,
    /// Worker threads per evaluation (`0` = one per core; never affects
    /// results).
    pub jobs: usize,
    /// What to maximise.
    pub fitness: Fitness,
}

impl AdversarySchedule {
    /// A schedule attacking `algorithm` with the given loss budget and
    /// small default search parameters (5 generations × 8 candidates,
    /// 3 survivors, 5 evaluation runs).
    #[must_use]
    pub fn new(algorithm: Algorithm, loss_budget: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&loss_budget) && !loss_budget.is_nan(),
            "loss budget must be a probability"
        );
        Self {
            algorithm,
            config: SimConfig::default()
                .with_max_rounds(20_000)
                .with_mis_keeps_beeping(true),
            loss_budget,
            max_wake: 64,
            max_delay: 8,
            allow_churn: true,
            generations: 5,
            population: 8,
            survivors: 3,
            eval_runs: 5,
            eval_seed: 0xE7A1,
            search_seed: 0x5EA2C4,
            jobs: 0,
            fitness: Fitness::default(),
        }
    }

    /// Replaces the base simulator configuration.
    #[must_use]
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the generation count.
    #[must_use]
    pub fn with_generations(mut self, generations: usize) -> Self {
        self.generations = generations;
        self
    }

    /// Sets the per-generation candidate count.
    #[must_use]
    pub fn with_population(mut self, population: usize) -> Self {
        self.population = population.max(1);
        self
    }

    /// Sets the elite count carried between generations.
    #[must_use]
    pub fn with_survivors(mut self, survivors: usize) -> Self {
        self.survivors = survivors.max(1);
        self
    }

    /// Sets the number of runs per candidate evaluation.
    #[must_use]
    pub fn with_eval_runs(mut self, eval_runs: usize) -> Self {
        self.eval_runs = eval_runs.max(1);
        self
    }

    /// Sets the evaluation batch master seed.
    #[must_use]
    pub fn with_eval_seed(mut self, eval_seed: u64) -> Self {
        self.eval_seed = eval_seed;
        self
    }

    /// Sets the mutation stream seed.
    #[must_use]
    pub fn with_search_seed(mut self, search_seed: u64) -> Self {
        self.search_seed = search_seed;
        self
    }

    /// Sets the worker thread count per evaluation.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the fitness axis.
    #[must_use]
    pub fn with_fitness(mut self, fitness: Fitness) -> Self {
        self.fitness = fitness;
        self
    }

    /// Caps the wake rounds and delays mutations may use, and gates
    /// churn.
    #[must_use]
    pub fn with_mutation_limits(mut self, max_wake: u32, max_delay: u32, churn: bool) -> Self {
        self.max_wake = max_wake;
        self.max_delay = max_delay;
        self.allow_churn = churn;
        self
    }

    /// The uniform-loss baseline spec at this schedule's budget.
    #[must_use]
    pub fn uniform_spec(&self) -> ScenarioSpec {
        ScenarioSpec::uniform_loss(self.eval_seed, self.loss_budget)
    }

    /// Evaluates one scenario over the schedule's seed batch through the
    /// ordinary [`RunPlan`] path (work-stealing, bit-identical for any
    /// job count).
    pub fn evaluate<G: GraphView + ?Sized>(
        &self,
        graph: &G,
        spec: ScenarioSpec,
    ) -> EvaluatedScenario {
        let config = self.config.clone().with_scenario(Arc::new(spec.clone()));
        let outcomes = RunPlan::new(self.algorithm.clone(), self.eval_runs)
            .with_config(config)
            .with_master_seed(self.eval_seed)
            .with_jobs(self.jobs)
            .execute_outcomes(graph);
        let rounds: Vec<u32> = outcomes.iter().map(RunOutcome::rounds).collect();
        let digests: Vec<u64> = outcomes.iter().map(outcome_digest).collect();
        let violations = outcomes
            .iter()
            .filter(|o| check_mis(graph, &o.mis()).is_err())
            .count();
        let unterminated = outcomes.iter().filter(|o| !o.terminated()).count();
        let total_rounds: u64 = rounds.iter().map(|&r| u64::from(r)).sum();
        let fitness = match self.fitness {
            Fitness::Rounds => total_rounds,
            // Violations dominate; rounds break ties. The shift keeps the
            // sum safely inside u64 for any realistic round budget.
            Fitness::Violations => ((violations as u64) << 40) | total_rounds.min((1 << 40) - 1),
        };
        EvaluatedScenario {
            spec,
            rounds,
            digests,
            violations,
            unterminated,
            fitness,
        }
    }

    /// One deterministic mutation of `parent`: always at least one
    /// structural change, with the loss budget conserved exactly.
    #[must_use]
    pub fn mutate(&self, parent: &ScenarioSpec, rng: &mut SmallRng) -> ScenarioSpec {
        let mut spec = parent.clone();
        spec.seed = rng.random::<u64>();
        // Loss: reshape the budget without changing its mean.
        if self.loss_budget > 0.0 && rng.random_bool(0.5) {
            let headroom = self.loss_budget.min(1.0 - self.loss_budget);
            if headroom > 0.0 && rng.random_bool(0.7) {
                let spread = headroom * rng.random_range(0.25..=1.0);
                spec.loss = LossModel::PerEdge {
                    lo: self.loss_budget - spread,
                    hi: self.loss_budget + spread,
                };
            } else {
                spec.loss = LossModel::Uniform {
                    p: self.loss_budget,
                };
            }
        }
        // At least one structural mutation among delay / wake / churn.
        let axes = 2 + usize::from(self.allow_churn);
        let forced = rng.random_range(0..axes);
        if self.max_delay > 0 && (forced == 0 || rng.random_bool(0.3)) {
            spec.delay = if rng.random_bool(0.2) {
                DelayModel::None
            } else {
                DelayModel::Random {
                    p: rng.random_range(0.05..=0.5),
                    max: rng.random_range(1..=self.max_delay),
                }
            };
        }
        if forced == 1 || rng.random_bool(0.3) {
            let latest = rng.random_range(1..=self.max_wake.max(1));
            spec.wake = match rng.random_range(0..5u32) {
                0 => WakePattern::None,
                1 => WakePattern::Wavefront {
                    stride: rng.random_range(1..=4),
                    latest,
                },
                2 => WakePattern::Alternating { round: latest },
                3 => WakePattern::DegreeTargeted {
                    fraction: rng.random_range(0.1..=0.5),
                    latest,
                },
                _ => WakePattern::Random {
                    fraction: rng.random_range(0.2..=0.8),
                    latest,
                },
            };
        }
        if self.allow_churn && (forced == 2 || rng.random_bool(0.2)) {
            spec.churn = if rng.random_bool(0.3) {
                ChurnModel::None
            } else {
                let earliest = rng.random_range(0..=self.max_wake.max(1));
                ChurnModel::Random {
                    p: rng.random_range(0.02..=0.2),
                    max_len: rng.random_range(1..=8),
                    earliest,
                    latest: earliest + rng.random_range(0..=self.max_wake.max(1)),
                }
            };
        }
        debug_assert!(spec.validate().is_ok(), "mutation produced {spec:?}");
        spec
    }

    /// Runs the generational search and returns the fittest scenarios
    /// plus the uniform baseline. Fully deterministic in the schedule's
    /// seeds.
    pub fn search<G: GraphView + ?Sized>(&self, graph: &G) -> AdversaryReport {
        let uniform = self.evaluate(graph, self.uniform_spec());
        // detlint: allow(D01) -- membership-only dedup set: inserted into and probed, never iterated
        let mut seen = std::collections::HashSet::from([uniform.spec.to_json_string()]);
        let mut pool: Vec<EvaluatedScenario> = vec![uniform.clone()];
        let mut evaluated = 1usize;
        for generation in 0..self.generations {
            // detlint: allow(D02) -- frozen stream: tests/corpus/worst_scenarios_seed.json was
            // mined with this derivation; re-deriving would re-roll the committed corpus.
            let mut rng = SmallRng::seed_from_u64(splitmix64(self.search_seed ^ generation as u64));
            let parents: Vec<ScenarioSpec> = pool
                .iter()
                .take(self.survivors.max(1))
                .map(|e| e.spec.clone())
                .collect();
            let mut fresh: Vec<ScenarioSpec> = Vec::new();
            let mut attempts = 0;
            while fresh.len() < self.population && attempts < self.population * 20 {
                attempts += 1;
                let parent = &parents[rng.random_range(0..parents.len())];
                let child = self.mutate(parent, &mut rng);
                if seen.insert(child.to_json_string()) {
                    fresh.push(child);
                }
            }
            for child in fresh {
                evaluated += 1;
                pool.push(self.evaluate(graph, child));
            }
            // Best first; canonical-JSON tiebreak keeps the order total
            // and deterministic.
            pool.sort_by(|a, b| {
                b.fitness
                    .cmp(&a.fitness)
                    .then_with(|| a.spec.to_json_string().cmp(&b.spec.to_json_string()))
            });
            pool.truncate((self.survivors.max(1) * 2).max(4));
        }
        AdversaryReport {
            uniform,
            best: pool,
            evaluated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_graph::generators;

    fn small_graph() -> mis_graph::Graph {
        generators::gnp(60, 0.15, &mut SmallRng::seed_from_u64(7))
    }

    fn quick_schedule() -> AdversarySchedule {
        AdversarySchedule::new(Algorithm::feedback(), 0.1)
            .with_generations(2)
            .with_population(3)
            .with_survivors(2)
            .with_eval_runs(2)
            .with_jobs(1)
    }

    #[test]
    fn evaluation_is_deterministic_and_replayable() {
        let g = small_graph();
        let sched = quick_schedule();
        let spec = ScenarioSpec::new(3)
            .with_loss(LossModel::PerEdge { lo: 0.0, hi: 0.2 })
            .with_wake(WakePattern::Wavefront {
                stride: 2,
                latest: 10,
            });
        let a = sched.evaluate(&g, spec.clone());
        let b = sched.evaluate(&g, spec.clone());
        assert_eq!(a, b);
        // Replay from the serialized spec: byte-identical digests.
        let replayed = ScenarioSpec::from_json_str(&spec.to_json_string()).unwrap();
        let c = sched.evaluate(&g, replayed);
        assert_eq!(a.digests, c.digests);
        assert_eq!(a.rounds, c.rounds);
        // And independent of the job count.
        let d = sched.clone().with_jobs(4).evaluate(&g, spec);
        assert_eq!(a.digests, d.digests);
    }

    #[test]
    fn mutations_conserve_the_loss_budget() {
        let sched = quick_schedule();
        let mut rng = SmallRng::seed_from_u64(11);
        let mut spec = sched.uniform_spec();
        for _ in 0..200 {
            spec = sched.mutate(&spec, &mut rng);
            assert!(spec.validate().is_ok(), "{spec:?}");
            assert!(
                (spec.loss.mean() - 0.1).abs() < 1e-9,
                "budget drifted: {:?}",
                spec.loss
            );
            if let WakePattern::Wavefront { latest, .. }
            | WakePattern::Alternating { round: latest }
            | WakePattern::DegreeTargeted { latest, .. }
            | WakePattern::Random { latest, .. } = spec.wake
            {
                assert!(latest <= sched.max_wake);
            }
            if let DelayModel::Random { max, .. } = spec.delay {
                assert!(max <= sched.max_delay);
            }
        }
    }

    #[test]
    fn churn_gate_is_respected() {
        let sched = quick_schedule().with_mutation_limits(16, 4, false);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut spec = sched.uniform_spec();
        for _ in 0..100 {
            spec = sched.mutate(&spec, &mut rng);
            assert_eq!(spec.churn, ChurnModel::None);
        }
    }

    #[test]
    fn search_is_deterministic() {
        let g = small_graph();
        let a = quick_schedule().search(&g);
        let b = quick_schedule().search(&g);
        assert_eq!(a, b);
        assert!(a.evaluated > a.best.len().min(3));
        // Pool is sorted best-first.
        assert!(a.best.windows(2).all(|w| w[0].fitness >= w[1].fitness));
    }

    #[test]
    fn violations_fitness_dominates_rounds() {
        let sched = quick_schedule().with_fitness(Fitness::Violations);
        let g = small_graph();
        let eval = sched.evaluate(&g, sched.uniform_spec());
        assert_eq!(
            eval.fitness >> 40,
            eval.violations as u64,
            "violations must occupy the high bits"
        );
    }

    #[test]
    fn outcome_digest_separates_runs() {
        use crate::run_algorithm;

        let g = small_graph();
        let a = run_algorithm(&g, &Algorithm::feedback(), 1, SimConfig::default());
        let b = run_algorithm(&g, &Algorithm::feedback(), 1, SimConfig::default());
        assert_eq!(outcome_digest(&a), outcome_digest(&b));
        let c = run_algorithm(&g, &Algorithm::feedback(), 2, SimConfig::default());
        assert_ne!(outcome_digest(&a), outcome_digest(&c));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_budget_panics() {
        let _ = AdversarySchedule::new(Algorithm::feedback(), 1.5);
    }
}
