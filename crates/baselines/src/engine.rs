//! The message-passing side of the unified execution layer.
//!
//! [`MessageEngine`] puts [`MessageSimulator`] behind
//! [`mis_core::engine::Engine`], so the message-passing baselines (Luby
//! ×2, Métivier, greedy-local) run through the **same** deterministic,
//! seed-ordered, work-stealing batch path
//! ([`RunPlan`](mis_core::RunPlan)) as the beeping algorithms. The engine
//! is implemented for every [`GraphView`], so a message family races the
//! beeping algorithms on a lazy derived-graph view (line graph, product,
//! induced subgraph) through the identical plan.
//!
//! # Examples
//!
//! ```
//! use mis_baselines::{LubyPriorityFactory, MessageEngine};
//! use mis_core::RunPlan;
//! use mis_graph::generators;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let g = generators::gnp(50, 0.2, &mut SmallRng::seed_from_u64(3));
//! let report = RunPlan::for_engine(MessageEngine::new(LubyPriorityFactory::new()), 12)
//!     .with_master_seed(5)
//!     .with_jobs(4) // bit-identical to --jobs 1, only faster
//!     .execute(&g);
//! assert_eq!(report.records().len(), 12);
//! assert_eq!(report.unterminated(), 0);
//! // For message engines the cost axis is mean bits per channel.
//! assert!(report.cost().mean() > 0.0);
//! ```

use std::sync::Arc;

use mis_beeping::scenario::ScenarioSpec;
use mis_core::engine::{Engine, EngineRecord, RunView};
use mis_graph::{GraphView, NodeId};

use crate::{InboxStrategy, MessageFactory, MessageSimulator, MsgRunOutcome};

/// Default round cap for engine-driven runs — the same generous ceiling
/// the experiments use for message baselines; hitting it marks the run
/// unterminated rather than panicking.
pub const DEFAULT_MESSAGE_ROUND_CAP: u32 = 1_000_000;

/// A message-passing execution engine: a [`MessageFactory`] plus a round
/// cap, an [`InboxStrategy`], and an optional adversarial scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct MessageEngine<F> {
    /// Builds the per-node processes of every run.
    pub factory: F,
    /// Round cap ([`DEFAULT_MESSAGE_ROUND_CAP`] by default).
    pub max_rounds: u32,
    /// Inbox delivery strategy (never affects results, only speed).
    pub inbox_strategy: InboxStrategy,
    /// Optional composable adversary every run of this engine faces
    /// (see `mis_beeping::scenario`).
    pub scenario: Option<Arc<ScenarioSpec>>,
    /// Intra-run worker threads per run (1 = sequential, 0 = auto; see
    /// [`MessageSimulator::run_sharded`]). Never affects results, only
    /// the wall clock.
    pub shards: usize,
}

impl<F> MessageEngine<F> {
    /// An engine running `factory`'s processes with the default round cap
    /// and the arena inbox strategy.
    #[must_use]
    pub fn new(factory: F) -> Self {
        Self {
            factory,
            max_rounds: DEFAULT_MESSAGE_ROUND_CAP,
            inbox_strategy: InboxStrategy::default(),
            scenario: None,
            shards: 1,
        }
    }

    /// Replaces the round cap.
    ///
    /// # Panics
    ///
    /// Panics if `max_rounds` is zero.
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: u32) -> Self {
        assert!(max_rounds > 0, "round cap must be positive");
        self.max_rounds = max_rounds;
        self
    }

    /// Replaces the inbox strategy (results are identical either way).
    #[must_use]
    pub fn with_inbox_strategy(mut self, strategy: InboxStrategy) -> Self {
        self.inbox_strategy = strategy;
        self
    }

    /// Attaches a composable adversary that every run of this engine
    /// faces (see `mis_beeping::scenario`).
    ///
    /// # Panics
    ///
    /// Panics with the validator's message if
    /// [`ScenarioSpec::validate`] rejects the spec.
    #[must_use]
    pub fn with_scenario(mut self, scenario: Arc<ScenarioSpec>) -> Self {
        if let Err(e) = scenario.validate() {
            panic!("{e}");
        }
        self.scenario = Some(scenario);
        self
    }

    /// Sets the intra-run shard count (1 = sequential, the default;
    /// 0 = auto-detect). Results are bit-identical for every value —
    /// see [`MessageSimulator::run_sharded`].
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }
}

/// The compact per-run record a [`RunPlan`](mis_core::RunPlan) keeps for
/// message engines — the counterpart of `mis_core`'s
/// [`RunRecord`](mis_core::RunRecord).
#[derive(Debug, Clone, PartialEq)]
pub struct MessageRunRecord {
    /// The run's derived master seed (reproduces the run alone via
    /// [`MessageSimulator::new`]).
    pub seed: u64,
    /// Rounds executed.
    pub rounds: u32,
    /// Size of the selected independent set (membership not retained;
    /// reproduce the run from [`seed`](Self::seed) when needed).
    pub mis_size: usize,
    /// Whether every node became inactive before the round cap.
    pub terminated: bool,
    /// Mean bits per channel over the graph's edges.
    pub mean_bits_per_channel: f64,
    /// Total edge deliveries across the run.
    pub messages_delivered: u64,
}

impl EngineRecord for MessageRunRecord {
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
        self.mean_bits_per_channel
    }

    fn bits_per_channel(&self) -> f64 {
        self.mean_bits_per_channel
    }
}

impl RunView for MsgRunOutcome {
    fn mis(&self) -> Vec<NodeId> {
        MsgRunOutcome::mis(self)
    }

    fn rounds(&self) -> u32 {
        MsgRunOutcome::rounds(self)
    }

    fn terminated(&self) -> bool {
        MsgRunOutcome::terminated(self)
    }
}

impl<F, G> Engine<G> for MessageEngine<F>
where
    F: MessageFactory + Sync,
    G: GraphView + ?Sized,
{
    type Outcome = MsgRunOutcome;
    type Record = MessageRunRecord;

    fn run(&self, graph: &G, seed: u64) -> MsgRunOutcome {
        let mut sim = MessageSimulator::new(graph, &self.factory, seed)
            .with_inbox_strategy(self.inbox_strategy);
        if let Some(scenario) = &self.scenario {
            sim = sim.with_scenario(Arc::clone(scenario));
        }
        sim.run_sharded(self.max_rounds, self.shards)
    }

    fn record(&self, graph: &G, seed: u64, outcome: &MsgRunOutcome) -> MessageRunRecord {
        MessageRunRecord {
            seed,
            rounds: outcome.rounds(),
            mis_size: outcome.mis().len(),
            terminated: outcome.terminated(),
            mean_bits_per_channel: outcome.metrics().mean_bits_per_channel(graph.edge_count()),
            messages_delivered: outcome.metrics().messages_delivered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LubyPriorityFactory, MetivierFactory};
    use mis_core::RunPlan;
    use mis_graph::generators;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn engine_matches_direct_simulator() {
        let g = generators::gnp(40, 0.3, &mut SmallRng::seed_from_u64(1));
        let engine = MessageEngine::new(LubyPriorityFactory::new());
        let via_engine = engine.run(&g, 17);
        let direct = MessageSimulator::new(&g, &LubyPriorityFactory::new(), 17)
            .run(DEFAULT_MESSAGE_ROUND_CAP);
        assert_eq!(via_engine, direct);
    }

    #[test]
    fn record_reduces_the_outcome() {
        let g = generators::grid2d(5, 5);
        let engine = MessageEngine::new(MetivierFactory::new());
        let outcome = engine.run(&g, 3);
        let record = engine.record(&g, 3, &outcome);
        assert_eq!(record.seed, 3);
        assert_eq!(record.rounds, outcome.rounds());
        assert_eq!(record.mis_size, outcome.mis().len());
        assert!(record.terminated);
        assert_eq!(
            record.mean_bits_per_channel,
            outcome.metrics().mean_bits_per_channel(g.edge_count())
        );
        assert_eq!(EngineRecord::cost(&record), record.mean_bits_per_channel);
    }

    #[test]
    fn sharded_engine_matches_sequential_engine() {
        let g = generators::gnp(60, 0.15, &mut SmallRng::seed_from_u64(8));
        let sequential = RunPlan::for_engine(MessageEngine::new(LubyPriorityFactory::new()), 6)
            .with_master_seed(2)
            .execute(&g);
        let sharded = RunPlan::for_engine(
            MessageEngine::new(LubyPriorityFactory::new()).with_shards(4),
            6,
        )
        .with_master_seed(2)
        .execute(&g);
        assert_eq!(sequential.records(), sharded.records());
    }

    #[test]
    fn shards_participate_in_engine_equality() {
        let a = MessageEngine::new(LubyPriorityFactory::new());
        let b = MessageEngine::new(LubyPriorityFactory::new()).with_shards(4);
        assert_ne!(a, b);
        assert_eq!(a, MessageEngine::new(LubyPriorityFactory::new()));
        // Scenarios compare by value: equal specs in distinct `Arc`s are
        // equal engines, and a different seed or no scenario is not.
        use mis_beeping::scenario::ScenarioSpec;
        let with = |seed| {
            a.clone()
                .with_scenario(Arc::new(ScenarioSpec::uniform_loss(seed, 0.1)))
        };
        assert_eq!(with(1), with(1));
        assert_ne!(with(1), with(2));
        assert_ne!(with(1), a);
    }

    #[test]
    #[should_panic(expected = "churn bounds are inverted")]
    fn inverted_churn_window_is_rejected_on_attach() {
        use mis_beeping::scenario::ChurnModel;

        let spec = ScenarioSpec::new(0).with_churn(ChurnModel::Random {
            p: 0.5,
            max_len: 3,
            earliest: 5,
            latest: 1,
        });
        let _ = MessageEngine::new(LubyPriorityFactory::new()).with_scenario(Arc::new(spec));
    }

    #[test]
    fn round_cap_marks_unterminated_instead_of_panicking() {
        // The sorted path needs ≈ n/2 rounds under greedy-local; cap at 2.
        let g = generators::path(30);
        let engine = MessageEngine::new(crate::GreedyLocalFactory::new()).with_max_rounds(2);
        let report = RunPlan::for_engine(engine, 3).execute(&g);
        assert_eq!(report.unterminated(), 3);
        assert!(report.records().iter().all(|r| r.rounds == 2));
    }

    #[test]
    fn run_view_forwards_to_the_outcome() {
        let g = generators::star(6);
        let engine = MessageEngine::new(LubyPriorityFactory::new());
        let outcome = engine.run(&g, 0);
        let view: &dyn RunView = &outcome;
        assert_eq!(view.mis(), outcome.mis());
        assert_eq!(view.rounds(), outcome.rounds());
        assert!(view.terminated());
    }
}
