//! The one registry of algorithm families.
//!
//! A [`Family`] names one of the algorithms the workspace races and
//! serves: a beeping [`Algorithm`] (feedback, sweep, science, constant) or
//! one of the four message-passing baselines of this crate. Its
//! [`name`](Family::name) is the wire name `mis-serve` requests use, and
//! [`dispatch`](Family::dispatch) builds the family's engine from a
//! [`SimConfig`] and hands it to a [`FamilyOp`]. Engines differ in type,
//! and [`Engine`] is generic over the graph, so the op receives the
//! concrete engine through a generic method instead of a trait object.
//!
//! # Examples
//!
//! ```
//! use mis_baselines::{Family, FamilyOp};
//! use mis_beeping::SimConfig;
//! use mis_core::engine::{Engine, RunView};
//! use mis_core::Algorithm;
//! use mis_graph::{generators, Graph};
//!
//! /// Rounds of one run of whatever engine a family builds.
//! struct Rounds<'g>(&'g Graph);
//!
//! impl FamilyOp<Graph> for Rounds<'_> {
//!     type Out = u32;
//!     fn run<E: Engine<Graph>>(self, engine: E) -> u32 {
//!         engine.run(self.0, 7).rounds()
//!     }
//! }
//!
//! let g = generators::cycle(12);
//! for family in [Family::Beeping(Algorithm::feedback()), Family::Metivier] {
//!     assert!(family.dispatch(&SimConfig::default(), Rounds(&g)) > 0);
//! }
//! ```

use mis_beeping::SimConfig;
use mis_core::engine::{AlgorithmEngine, Engine};
use mis_core::Algorithm;
use mis_graph::GraphView;

use crate::{
    GreedyLocalFactory, LubyMarkingFactory, LubyPriorityFactory, MessageEngine, MetivierFactory,
};

/// An algorithm family: a beeping schedule or a message-passing baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum Family {
    /// A beeping algorithm, run by the beeping simulator.
    Beeping(Algorithm),
    /// Luby's algorithm, random-priority form (messages).
    LubyPriority,
    /// Luby's algorithm, marking form (messages).
    LubyMarking,
    /// Métivier et al.'s bit-duel algorithm (messages).
    Metivier,
    /// Deterministic local-minimum greedy over node ids (messages).
    GreedyLocal,
}

/// A computation over whichever engine a [`Family`] builds.
pub trait FamilyOp<G: GraphView + ?Sized> {
    /// What the computation produces.
    type Out;
    /// Runs the computation with the family's engine.
    fn run<E: Engine<G>>(self, engine: E) -> Self::Out;
}

impl Family {
    /// The wire name (`feedback`, `sweep`, `science`, `constant`,
    /// `luby_priority`, `luby_marking`, `metivier`, `greedy_local`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Family::Beeping(algorithm) => algorithm.name(),
            Family::LubyPriority => "luby_priority",
            Family::LubyMarking => "luby_marking",
            Family::Metivier => "metivier",
            Family::GreedyLocal => "greedy_local",
        }
    }

    /// Whether this family runs on the message-passing runtime (`true`)
    /// rather than the beeping simulator.
    #[must_use]
    pub fn is_message(&self) -> bool {
        !matches!(self, Family::Beeping(_))
    }

    /// Builds this family's engine under `config` and runs `op` with it.
    ///
    /// A beeping family gets the whole config. A message family takes its
    /// round cap and shard count; `SimConfig::default()` gives it the
    /// engine [`MessageEngine::new`] builds.
    pub fn dispatch<G, Op>(&self, config: &SimConfig, op: Op) -> Op::Out
    where
        G: GraphView + ?Sized,
        Op: FamilyOp<G>,
    {
        match self {
            Family::Beeping(algorithm) => {
                op.run(AlgorithmEngine::new(algorithm.clone()).with_config(config.clone()))
            }
            Family::LubyPriority => op.run(message(LubyPriorityFactory::new(), config)),
            Family::LubyMarking => op.run(message(LubyMarkingFactory::new(), config)),
            Family::Metivier => op.run(message(MetivierFactory::new(), config)),
            Family::GreedyLocal => op.run(message(GreedyLocalFactory::new(), config)),
        }
    }
}

fn message<F>(factory: F, config: &SimConfig) -> MessageEngine<F> {
    MessageEngine::new(factory)
        .with_max_rounds(config.max_rounds)
        .with_shards(config.shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_MESSAGE_ROUND_CAP;
    use mis_core::engine::EngineRecord;
    use mis_graph::{generators, Graph};
    use rand::{rngs::SmallRng, SeedableRng};

    /// `(rounds, MIS size, bits per channel)` of one run.
    fn summary<E: Engine<Graph>>(engine: &E, g: &Graph, seed: u64) -> (u32, usize, f64) {
        let outcome = engine.run(g, seed);
        let record = engine.record(g, seed, &outcome);
        (
            record.rounds(),
            record.mis_size(),
            record.bits_per_channel(),
        )
    }

    struct Summary<'g>(&'g Graph, u64);

    impl FamilyOp<Graph> for Summary<'_> {
        type Out = (u32, usize, f64);
        fn run<E: Engine<Graph>>(self, engine: E) -> Self::Out {
            summary(&engine, self.0, self.1)
        }
    }

    fn all() -> [Family; 8] {
        [
            Family::Beeping(Algorithm::feedback()),
            Family::Beeping(Algorithm::sweep()),
            Family::Beeping(Algorithm::science()),
            Family::Beeping(Algorithm::constant(0.25)),
            Family::LubyPriority,
            Family::LubyMarking,
            Family::Metivier,
            Family::GreedyLocal,
        ]
    }

    #[test]
    fn default_config_builds_the_default_engines() {
        // The default config's cap and shard count are the message
        // engine's own defaults, so dispatching under it changes nothing.
        let config = SimConfig::default();
        assert_eq!(config.max_rounds, DEFAULT_MESSAGE_ROUND_CAP);
        assert_eq!(
            config.shards,
            MessageEngine::new(MetivierFactory::new()).shards
        );
        let g = generators::gnp(40, 0.2, &mut SmallRng::seed_from_u64(4));
        for seed in [1, 2, 3] {
            let beeping = |a: Algorithm| summary(&AlgorithmEngine::new(a), &g, seed);
            let direct = [
                beeping(Algorithm::feedback()),
                beeping(Algorithm::sweep()),
                beeping(Algorithm::science()),
                beeping(Algorithm::constant(0.25)),
                summary(&MessageEngine::new(LubyPriorityFactory::new()), &g, seed),
                summary(&MessageEngine::new(LubyMarkingFactory::new()), &g, seed),
                summary(&MessageEngine::new(MetivierFactory::new()), &g, seed),
                summary(&MessageEngine::new(GreedyLocalFactory::new()), &g, seed),
            ];
            for (family, want) in all().iter().zip(direct) {
                let got = family.dispatch(&config, Summary(&g, seed));
                assert_eq!(got, want, "{} seed {seed}", family.name());
            }
        }
    }

    #[test]
    fn message_families_take_the_round_cap() {
        let g = generators::cycle(30);
        let capped = SimConfig::default().with_max_rounds(1);
        for family in all().iter().filter(|f| f.is_message()) {
            let (rounds, _, _) = family.dispatch(&capped, Summary(&g, 5));
            assert!(rounds <= 1, "{}", family.name());
        }
    }
}
