//! Engine-level invariants that must hold for every algorithm, graph and
//! seed: metric consistency, stepping/running equivalence, per-round
//! accounting seen through the round observer.

use beeping_mis::beeping::{NodeStatus, SimConfig, Simulator};
use beeping_mis::core::{run_algorithm, Algorithm, FeedbackFactory};
use beeping_mis::graph::generators;
use proptest::prelude::*;
use rand::{rngs::SmallRng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Signals ≥ beeps per node (a beep is a step with ≥1 signal, and a
    /// step emits at most 2 signals), and the MIS equals the InMis nodes.
    #[test]
    fn metric_consistency(
        n in 1usize..60,
        p in 0.0f64..1.0,
        graph_seed in any::<u64>(),
        run_seed in any::<u64>(),
    ) {
        let g = generators::gnp(n, p, &mut SmallRng::seed_from_u64(graph_seed));
        let outcome = run_algorithm(&g, &Algorithm::feedback(), run_seed, SimConfig::default());
        prop_assert!(outcome.terminated());
        let metrics = outcome.metrics();
        for v in 0..n {
            prop_assert!(metrics.signals[v] >= metrics.beeps[v]);
            prop_assert!(metrics.signals[v] <= 2 * metrics.beeps[v]);
        }
        let mis = outcome.mis();
        let from_status: Vec<u32> = outcome
            .statuses()
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == NodeStatus::InMis)
            .map(|(v, _)| v as u32)
            .collect();
        prop_assert_eq!(mis, from_status);
        // Every MIS member beeped at least once (it had to claim).
        for (v, s) in outcome.statuses().iter().enumerate() {
            if *s == NodeStatus::InMis {
                prop_assert!(metrics.beeps[v] >= 1, "silent joiner {v}");
            }
        }
        prop_assert_eq!(metrics.heartbeat_signals, 0); // repair off by default
    }

    /// Per-round accounting seen by an observer: join events equal the
    /// MIS size; the active count is non-increasing and ends at zero; and
    /// the candidates of a round (exchange-1 beepers not already in the
    /// MIS) never exceed the previous round's active count.
    #[test]
    fn trace_accounting(
        n in 1usize..50,
        graph_seed in any::<u64>(),
        run_seed in any::<u64>(),
    ) {
        let g = generators::gnp(n, 0.3, &mut SmallRng::seed_from_u64(graph_seed));
        let mut before = vec![NodeStatus::Active; n];
        let mut joins = 0;
        let mut actives = Vec::new();
        let mut candidates_fit = true;
        let outcome = Simulator::new(&g, &FeedbackFactory::new(), run_seed, SimConfig::default())
            .run_with_observer(|view| {
                let prev_active = before.iter().filter(|s| **s == NodeStatus::Active).count();
                let candidates = (0..n)
                    .filter(|&v| view.beeped[v] && before[v] != NodeStatus::InMis)
                    .count();
                candidates_fit &= candidates <= prev_active;
                joins += before
                    .iter()
                    .zip(view.status)
                    .filter(|(old, new)| **old != NodeStatus::InMis && **new == NodeStatus::InMis)
                    .count();
                actives.push(view.status.iter().filter(|s| **s == NodeStatus::Active).count());
                before.copy_from_slice(view.status);
            });
        prop_assert!(outcome.terminated());
        prop_assert_eq!(joins, outcome.mis().len());
        prop_assert!(actives.windows(2).all(|w| w[1] <= w[0]));
        prop_assert_eq!(actives.last().copied(), Some(0));
        prop_assert!(candidates_fit, "more candidates than active nodes");
    }

    /// Stepping the engine one round at a time gives the identical outcome
    /// to a one-shot run, for every seed.
    #[test]
    fn stepper_equals_run(
        n in 1usize..40,
        graph_seed in any::<u64>(),
        run_seed in any::<u64>(),
    ) {
        let g = generators::gnp(n, 0.4, &mut SmallRng::seed_from_u64(graph_seed));
        let factory = FeedbackFactory::new();
        let run = Simulator::new(&g, &factory, run_seed, SimConfig::default()).run();
        let mut stepper =
            Simulator::new(&g, &factory, run_seed, SimConfig::default()).into_stepper();
        while !stepper.is_done() {
            stepper.step();
        }
        prop_assert_eq!(stepper.finish(), run);
    }

    /// Rounds-metric equals the outcome's round count and is at least 1
    /// for any non-empty graph.
    #[test]
    fn round_counters_agree(
        n in 1usize..40,
        run_seed in any::<u64>(),
    ) {
        let g = generators::cycle(n.max(3));
        let outcome = run_algorithm(&g, &Algorithm::sweep(), run_seed, SimConfig::default());
        prop_assert_eq!(outcome.metrics().rounds, outcome.rounds());
        prop_assert!(outcome.rounds() >= 1);
    }
}

/// Empty graph: the run is over before it starts — zero rounds, empty
/// metrics, no round observed, terminated.
#[test]
fn empty_graph_invariants() {
    use beeping_mis::graph::Graph;
    let mut observed = 0;
    let outcome = Simulator::new(
        &Graph::empty(0),
        &FeedbackFactory::new(),
        3,
        SimConfig::default(),
    )
    .run_with_observer(|_| observed += 1);
    assert!(outcome.terminated());
    assert_eq!(outcome.rounds(), 0);
    assert!(outcome.mis().is_empty());
    assert!(outcome.statuses().is_empty());
    assert_eq!(observed, 0, "the observer saw a round of an empty graph");
    assert_eq!(outcome.metrics().total_beeps(), 0);
}

/// Single node: joins in round one having heard nothing, with exactly one
/// beep and two raw signals.
#[test]
fn single_node_invariants() {
    use beeping_mis::graph::Graph;
    let outcome = run_algorithm(
        &Graph::empty(1),
        &Algorithm::feedback(),
        9,
        SimConfig::default(),
    );
    assert!(outcome.terminated());
    assert_eq!(outcome.mis(), vec![0]);
    assert_eq!(outcome.statuses(), &[NodeStatus::InMis]);
    assert_eq!(outcome.metrics().beeps[0], 1);
    assert_eq!(outcome.metrics().signals[0], 2);
}

/// Disconnected components never hear each other: an isolated node's
/// `heard` flag stays false in every round of every run.
#[test]
fn isolated_nodes_never_hear() {
    use beeping_mis::graph::ops;
    use beeping_mis::graph::Graph;
    let g = ops::disjoint_union(&[generators::complete(8), Graph::empty(4)]);
    let factory = FeedbackFactory::new();
    for seed in 0..4 {
        let outcome =
            Simulator::new(&g, &factory, seed, SimConfig::default()).run_with_observer(|view| {
                for v in 8..12 {
                    assert!(!view.heard[v], "isolated node {v} heard a beep");
                }
            });
        assert!(outcome.terminated());
        // All four isolated nodes must end in the MIS.
        for v in 8..12u32 {
            assert!(outcome.mis().contains(&v));
        }
    }
}

/// Heartbeat signals are charged to the heartbeat counter, never to the
/// per-node algorithm metrics.
#[test]
fn heartbeats_do_not_pollute_beep_metrics() {
    let g = generators::star(10);
    let plain = run_algorithm(&g, &Algorithm::feedback(), 5, SimConfig::default());
    let with_repair = run_algorithm(
        &g,
        &Algorithm::feedback(),
        5,
        SimConfig::default().with_mis_keeps_beeping(true),
    );
    // Identical randomness, identical algorithm decisions: per-node beep
    // metrics match exactly; only the heartbeat counter differs.
    assert_eq!(plain.metrics().beeps, with_repair.metrics().beeps);
    assert_eq!(plain.metrics().signals, with_repair.metrics().signals);
    assert_eq!(plain.metrics().heartbeat_signals, 0);
    assert!(with_repair.metrics().heartbeat_signals > 0);
}
