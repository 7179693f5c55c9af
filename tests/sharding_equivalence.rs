//! Intra-run sharding is invisible in the results.
//!
//! In the beeping `Stepper`, sharding splits only the bitset kernel's pull
//! direction, which draws no randomness: every listener ORs the beeps
//! that reach it. In the message runtime it splits every per-node pass by
//! receiver range, under both inbox strategies and every scenario: a
//! receiver's inbox, parked delayed messages and churn mark belong to its
//! range alone. Process draws come from per-node streams in stream mode
//! and are pure functions of `(master seed, node, round)` in counter
//! mode, and loss, delay and churn answers are pure in their arguments,
//! so splitting a run across worker threads cannot change what any node
//! sees in either RNG mode.
//! This suite pins that contract end to end: sharded runs must be
//! bit-identical to sequential runs for every shard count, on both
//! simulator families (beeping and message-passing), under both
//! propagation kernels and both RNG modes, on base graphs and lazy
//! derived views, with and without an adversarial scenario — and the
//! counter-mode bitset kernel must agree with the scalar reference on
//! lossy runs (the configuration that used to fall back silently).

use std::sync::Arc;

use beeping_mis::baselines::{
    InboxStrategy, LubyPriorityFactory, MessageEngine, MessageFactory, MessageSimulator,
    MetivierFactory,
};
use beeping_mis::beeping::rng::trial_seed;
use beeping_mis::beeping::scenario::{ChurnModel, DelayModel, LossModel, WakePattern};
use beeping_mis::beeping::{
    FaultPlan, PropagationKernel, RngMode, RunOutcome, ScenarioSpec, SimConfig, Simulator,
};
use beeping_mis::core::{FeedbackFactory, RunPlan};
use beeping_mis::graph::{generators, Graph, GraphView, LineGraphView};
use proptest::prelude::*;
use rand::{rngs::SmallRng, SeedableRng};

/// Shard counts every equivalence check sweeps: sequential, even splits,
/// a count that leaves a ragged tail chunk, and auto-detect.
const SHARD_SWEEP: [usize; 5] = [1, 2, 4, 7, 0];

/// Message-engine round cap (every workload here terminates well below
/// it).
const MSG_CAP: u32 = 100_000;

fn feedback_run<G: GraphView + ?Sized>(g: &G, seed: u64, cfg: SimConfig) -> RunOutcome {
    Simulator::new(g, &FeedbackFactory::new(), seed, cfg).run()
}

/// Runs the feedback algorithm under `base` once per shard count and
/// asserts every outcome matches the sequential reference exactly.
fn assert_beeping_shards_agree<G: GraphView + ?Sized>(g: &G, seed: u64, base: &SimConfig) {
    let reference = feedback_run(g, seed, base.clone().with_shards(1));
    for shards in SHARD_SWEEP {
        let sharded = feedback_run(g, seed, base.clone().with_shards(shards));
        assert_eq!(
            sharded, reference,
            "beeping outcome changed at {shards} shard(s)"
        );
    }
}

/// Runs Luby-priority once per shard count and asserts every outcome
/// matches the sequential reference exactly.
fn assert_message_shards_agree<G: GraphView + ?Sized>(g: &G, seed: u64) {
    let factory = LubyPriorityFactory::new();
    let reference = MessageSimulator::new(g, &factory, seed).run(MSG_CAP);
    for shards in SHARD_SWEEP {
        let sharded = MessageSimulator::new(g, &factory, seed).run_sharded(MSG_CAP, shards);
        assert_eq!(
            sharded, reference,
            "message outcome changed at {shards} shard(s)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Beeping family, base graphs: sharded == sequential for every shard
    /// count under both kernels, and the kernels agree with each other
    /// (counter-mode draws make the kernel a pure implementation detail).
    #[test]
    fn beeping_sharded_matches_sequential_on_gnp(
        n in 1usize..120,
        p in 0.0f64..0.5,
        graph_seed in any::<u64>(),
        run_seed in any::<u64>(),
    ) {
        let g = generators::gnp(n, p, &mut SmallRng::seed_from_u64(graph_seed));
        let counter = SimConfig::default().with_rng_mode(RngMode::Counter);
        assert_beeping_shards_agree(&g, run_seed, &counter.clone().with_kernel(PropagationKernel::Bitset));
        assert_beeping_shards_agree(&g, run_seed, &counter.clone().with_kernel(PropagationKernel::Scalar));
        let scalar = feedback_run(&g, run_seed, counter.clone().with_kernel(PropagationKernel::Scalar));
        let bitset = feedback_run(&g, run_seed, counter.with_kernel(PropagationKernel::Bitset));
        prop_assert_eq!(scalar, bitset);
    }

    /// Message family, base graphs: sharded == sequential for every shard
    /// count (delivery is counter-free but order-pinned; the sharded
    /// pull path must reproduce the sequential inbox order exactly).
    #[test]
    fn message_sharded_matches_sequential_on_gnp(
        n in 1usize..90,
        p in 0.0f64..0.4,
        graph_seed in any::<u64>(),
        run_seed in any::<u64>(),
    ) {
        let g = generators::gnp(n, p, &mut SmallRng::seed_from_u64(graph_seed));
        assert_message_shards_agree(&g, run_seed);
    }

    /// Lossy counter-mode runs: the bitset kernel (no longer a silent
    /// scalar fallback) agrees with the scalar reference bit for bit, and
    /// both honour the kernel they were asked for.
    #[test]
    fn lossy_bitset_matches_lossy_scalar_in_counter_mode(
        n in 1usize..90,
        p in 0.0f64..0.5,
        loss in 0.0f64..0.9,
        graph_seed in any::<u64>(),
        run_seed in any::<u64>(),
    ) {
        let g = generators::gnp(n, p, &mut SmallRng::seed_from_u64(graph_seed));
        let lossy = SimConfig::default()
            .with_rng_mode(RngMode::Counter)
            .with_faults(FaultPlan { message_loss: loss, wake_rounds: Vec::new() });
        let scalar = feedback_run(&g, run_seed, lossy.clone().with_kernel(PropagationKernel::Scalar));
        let bitset = feedback_run(&g, run_seed, lossy.clone().with_kernel(PropagationKernel::Bitset));
        prop_assert_eq!(&scalar, &bitset);
        prop_assert_eq!(scalar.kernel_used(), PropagationKernel::Scalar);
        prop_assert_eq!(bitset.kernel_used(), PropagationKernel::Bitset);
        // And the lossy bitset path shards like any other counter run.
        assert_beeping_shards_agree(&g, run_seed, &lossy.with_kernel(PropagationKernel::Bitset));
    }
}

/// Derived views: the same equivalences hold when the "graph" is a lazy
/// line-graph view, for both simulator families.
#[test]
fn sharded_runs_agree_on_derived_views() {
    let base = generators::gnp(40, 0.2, &mut SmallRng::seed_from_u64(11));
    let view = LineGraphView::new(&base);
    for seed in 0..3 {
        assert_beeping_shards_agree(
            &view,
            seed,
            &SimConfig::default()
                .with_rng_mode(RngMode::Counter)
                .with_kernel(PropagationKernel::Bitset),
        );
        assert_message_shards_agree(&view, seed);
    }
}

/// A beeping run under a lossy scenario takes the sequential scalar
/// reference path, and a message scenario run shards by receiver range:
/// either way a shard request must be a no-op on the results.
#[test]
fn sharded_scenario_runs_match_sequential_scenario_runs() {
    let g = generators::gnp(60, 0.15, &mut SmallRng::seed_from_u64(5));
    let spec = ScenarioSpec::new(13).with_loss(LossModel::Uniform { p: 0.2 });
    let scenario: Arc<ScenarioSpec> = Arc::new(spec);

    let base = SimConfig::default()
        .with_rng_mode(RngMode::Counter)
        .with_kernel(PropagationKernel::Bitset)
        .with_scenario(Arc::clone(&scenario));
    let reference = feedback_run(&g, 7, base.clone().with_shards(1));
    assert_eq!(reference.kernel_used(), PropagationKernel::Scalar);
    for shards in SHARD_SWEEP {
        let sharded = feedback_run(&g, 7, base.clone().with_shards(shards));
        assert_eq!(
            sharded, reference,
            "scenario outcome changed at {shards} shard(s)"
        );
    }

    let factory = LubyPriorityFactory::new();
    let sequential = MessageSimulator::new(&g, &factory, 7)
        .with_scenario(Arc::clone(&scenario))
        .run(MSG_CAP);
    for shards in SHARD_SWEEP {
        let sharded = MessageSimulator::new(&g, &factory, 7)
            .with_scenario(Arc::clone(&scenario))
            .run_sharded(MSG_CAP, shards);
        assert_eq!(
            sharded, sequential,
            "message scenario outcome changed at {shards} shard(s)"
        );
    }
}

/// The message scenarios of the `round_digests` suite: none, then one per
/// adversary axis (wake-only, loss with delay, churn) and all four at once.
fn message_scenarios() -> Vec<Option<Arc<ScenarioSpec>>> {
    let spec = || ScenarioSpec::new(trial_seed(0x726f_756e_6473, 98));
    let wake = WakePattern::Wavefront {
        stride: 24,
        latest: 6,
    };
    let loss = LossModel::PerEdge { lo: 0.0, hi: 0.3 };
    let delay = DelayModel::Random { p: 0.2, max: 3 };
    let churn = ChurnModel::Random {
        p: 0.15,
        max_len: 4,
        earliest: 1,
        latest: 12,
    };
    [
        None,
        Some(spec().with_wake(wake.clone())),
        Some(spec().with_loss(loss.clone()).with_delay(delay.clone())),
        Some(spec().with_churn(churn.clone())),
        Some(
            spec()
                .with_wake(wake)
                .with_loss(loss)
                .with_delay(delay)
                .with_churn(churn),
        ),
    ]
    .into_iter()
    .map(|spec| spec.map(Arc::new))
    .collect()
}

/// Runs `factory` on `g` under every message scenario and both inbox
/// strategies, once per shard count, and asserts every outcome matches the
/// 1-shard run exactly.
fn assert_message_scenario_shards_agree<F: MessageFactory>(g: &Graph, factory: &F, seed: u64) {
    for scenario in message_scenarios() {
        for strategy in [InboxStrategy::Arena, InboxStrategy::FreshVecs] {
            let run = |shards: usize| {
                let mut sim = MessageSimulator::new(g, factory, seed).with_inbox_strategy(strategy);
                if let Some(spec) = &scenario {
                    sim = sim.with_scenario(Arc::clone(spec));
                }
                sim.run_sharded(MSG_CAP, shards)
            };
            let reference = run(1);
            for shards in SHARD_SWEEP {
                assert_eq!(
                    run(shards),
                    reference,
                    "{strategy:?} under {scenario:?} changed at {shards} shard(s)"
                );
            }
        }
    }
}

/// Message runs shard under every scenario and inbox strategy: each shard
/// count reproduces the 1-shard run, for a randomised family (Luby) and
/// one that simulates bit duels (Métivier), on a random graph and a grid.
#[test]
fn sharded_message_scenarios_match_sequential() {
    let gnp = generators::gnp(200, 0.05, &mut SmallRng::seed_from_u64(23));
    let grid = generators::grid2d(12, 16);
    for g in [&gnp, &grid] {
        for seed in 0..3 {
            assert_message_scenario_shards_agree(g, &LubyPriorityFactory::new(), seed);
            assert_message_scenario_shards_agree(g, &MetivierFactory::new(), seed);
        }
    }
}

/// The engine/batch layer carries shard counts through whole plans: a
/// sharded plan's records equal the sequential plan's for both families.
#[test]
fn sharded_plans_match_sequential_plans() {
    use beeping_mis::core::Algorithm;
    let g = generators::gnp(70, 0.12, &mut SmallRng::seed_from_u64(9));

    let beeping = |shards: usize| {
        RunPlan::new(Algorithm::feedback(), 5)
            .with_master_seed(3)
            .with_config(
                SimConfig::default()
                    .with_rng_mode(RngMode::Counter)
                    .with_kernel(PropagationKernel::Bitset)
                    .with_shards(shards),
            )
            .execute(&g)
    };
    let beeping_reference = beeping(1);
    let message = |shards: usize| {
        RunPlan::for_engine(
            MessageEngine::new(LubyPriorityFactory::new()).with_shards(shards),
            5,
        )
        .with_master_seed(3)
        .execute(&g)
    };
    let message_reference = message(1);
    for shards in [2, 4, 7, 0] {
        assert_eq!(beeping(shards).records(), beeping_reference.records());
        assert_eq!(message(shards).records(), message_reference.records());
    }
}

/// Stream-mode bitset runs shard too: the pull draws nothing, so every
/// shard count reproduces the unsharded stream run, with and without
/// sleeping listeners in the pull.
#[test]
fn stream_mode_sharded_runs_match_sequential() {
    let gnp = generators::gnp(300, 0.05, &mut SmallRng::seed_from_u64(17));
    let grid = generators::grid2d(20, 20);
    for (name, g) in [("gnp", &gnp), ("grid", &grid)] {
        let n = g.node_count() as u32;
        for wake_rounds in [Vec::new(), (0..n).map(|v| v % 5).collect()] {
            let base = SimConfig::default().with_faults(FaultPlan {
                message_loss: 0.0,
                wake_rounds,
            });
            assert_eq!(base.rng, RngMode::Stream);
            let reference = feedback_run(g, 5, base.clone());
            for shards in SHARD_SWEEP {
                // Struct update, so no builder can switch the RNG mode.
                let sharded = feedback_run(
                    g,
                    5,
                    SimConfig {
                        shards,
                        ..base.clone()
                    },
                );
                assert_eq!(sharded.kernel_used(), PropagationKernel::Bitset);
                assert_eq!(
                    sharded,
                    reference,
                    "{name} (sleepers: {}) changed at {shards} shard(s)",
                    !base.faults.wake_rounds.is_empty()
                );
            }
        }
    }
}

/// Stream mode is untouched by all of this: lossy stream-mode runs still
/// take the scalar reference path (the historical sequences replayed by
/// the corpus), explicitly recorded instead of silently substituted.
#[test]
fn lossy_stream_runs_still_record_the_scalar_fallback() {
    let g = generators::gnp(50, 0.2, &mut SmallRng::seed_from_u64(2));
    let lossy = SimConfig::default()
        .with_kernel(PropagationKernel::Bitset)
        .with_faults(FaultPlan {
            message_loss: 0.3,
            wake_rounds: Vec::new(),
        });
    assert_eq!(lossy.rng, RngMode::Stream);
    let outcome = feedback_run(&g, 4, lossy);
    assert_eq!(outcome.kernel_used(), PropagationKernel::Scalar);
}
