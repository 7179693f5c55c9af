//! Fault-injection behaviour: the paper's algorithm on unreliable
//! networks, with and without the local repairs — plus the churn edge
//! cases of the composable scenario engine (nodes leaving mid-MIS, whole
//! neighbourhoods vanishing, degenerate graphs under every scenario
//! kind).

use std::sync::Arc;

use beeping_mis::baselines::{LubyPriorityFactory, MessageSimulator};
use beeping_mis::beeping::rng::trial_seed;
use beeping_mis::beeping::scenario::{
    ChurnModel, ChurnWindow, DelayModel, LossModel, ScenarioSpec, WakePattern,
};
use beeping_mis::beeping::{FaultPlan, NodeStatus, SimConfig};
use beeping_mis::core::{
    run_algorithm, solve_mis_with_config, verify::check_mis, Algorithm, FeedbackConfig,
};
use beeping_mis::graph::generators;
use rand::{rngs::SmallRng, Rng, SeedableRng};

fn repaired() -> Algorithm {
    Algorithm::feedback_with(FeedbackConfig::default().with_cautious_join(true))
}

fn lossy(loss: f64) -> SimConfig {
    SimConfig::default()
        .with_max_rounds(50_000)
        .with_faults(FaultPlan {
            message_loss: loss,
            wake_rounds: vec![],
        })
}

#[test]
fn fault_free_control_never_violates() {
    let g = generators::gnp(80, 0.4, &mut SmallRng::seed_from_u64(1));
    for seed in 0..10 {
        let r = solve_mis_with_config(&g, &Algorithm::feedback(), seed, SimConfig::default());
        assert!(r.is_ok(), "fault-free run failed: {:?}", r.err());
    }
}

#[test]
fn repaired_variant_survives_late_wakeups() {
    let n = 70;
    for seed in 0..10u64 {
        let g = generators::gnp(n, 0.3, &mut SmallRng::seed_from_u64(seed));
        let mut wake_rng = SmallRng::seed_from_u64(trial_seed(seed, 1));
        let wake_rounds: Vec<u32> = (0..n)
            .map(|_| {
                if wake_rng.random_bool(0.4) {
                    wake_rng.random_range(1..40)
                } else {
                    0
                }
            })
            .collect();
        let cfg = SimConfig::default()
            .with_max_rounds(50_000)
            .with_mis_keeps_beeping(true)
            .with_faults(FaultPlan {
                message_loss: 0.0,
                wake_rounds,
            });
        let outcome = run_algorithm(&g, &repaired(), seed, cfg);
        assert!(outcome.terminated(), "seed {seed} hit the round cap");
        check_mis(&g, &outcome.mis())
            .unwrap_or_else(|e| panic!("seed {seed}: repaired run violated MIS: {e}"));
    }
}

#[test]
fn plain_variant_can_violate_under_wakeups() {
    // Statistical sanity for the experiment's premise: with many sleepers
    // and no repair, at least one violation appears across seeds.
    let n = 70;
    let mut violations = 0;
    for seed in 0..10u64 {
        let g = generators::gnp(n, 0.3, &mut SmallRng::seed_from_u64(seed));
        let mut wake_rng = SmallRng::seed_from_u64(trial_seed(seed, 1));
        let wake_rounds: Vec<u32> = (0..n)
            .map(|_| {
                if wake_rng.random_bool(0.4) {
                    wake_rng.random_range(10..60)
                } else {
                    0
                }
            })
            .collect();
        let cfg = SimConfig::default()
            .with_max_rounds(50_000)
            .with_faults(FaultPlan {
                message_loss: 0.0,
                wake_rounds,
            });
        let outcome = run_algorithm(&g, &Algorithm::feedback(), seed, cfg);
        if outcome.terminated() && check_mis(&g, &outcome.mis()).is_err() {
            violations += 1;
        }
    }
    assert!(
        violations > 0,
        "expected the unrepaired algorithm to break under heavy wake-up faults"
    );
}

#[test]
fn moderate_message_loss_slows_but_terminates() {
    let g = generators::gnp(60, 0.4, &mut SmallRng::seed_from_u64(3));
    for seed in 0..5 {
        let outcome = run_algorithm(
            &g,
            &repaired(),
            seed,
            lossy(0.1).with_mis_keeps_beeping(true),
        );
        assert!(
            outcome.terminated(),
            "loss run hit round cap at seed {seed}"
        );
        // Rounds may grow, but not explode.
        assert!(
            outcome.rounds() < 5_000,
            "rounds {} too large",
            outcome.rounds()
        );
    }
}

#[test]
fn repair_reduces_violations_under_loss() {
    let trials = 20u64;
    let mut plain_violations = 0;
    let mut repaired_violations = 0;
    for seed in 0..trials {
        let g = generators::gnp(60, 0.4, &mut SmallRng::seed_from_u64(trial_seed(seed, 2)));
        let plain_outcome = run_algorithm(&g, &Algorithm::feedback(), seed, lossy(0.15));
        if plain_outcome.terminated() && check_mis(&g, &plain_outcome.mis()).is_err() {
            plain_violations += 1;
        }
        let repaired_outcome = run_algorithm(
            &g,
            &repaired(),
            seed,
            lossy(0.15).with_mis_keeps_beeping(true),
        );
        if repaired_outcome.terminated() && check_mis(&g, &repaired_outcome.mis()).is_err() {
            repaired_violations += 1;
        }
    }
    assert!(
        repaired_violations <= plain_violations,
        "repair made things worse: {repaired_violations} > {plain_violations}"
    );
    assert!(
        plain_violations > 0,
        "15% loss should break the plain algorithm at least once in {trials} trials"
    );
}

// ---- Churn edge cases of the composable scenario engine ----

fn scenario_config(spec: ScenarioSpec) -> SimConfig {
    SimConfig::default()
        .with_max_rounds(10_000)
        .with_mis_keeps_beeping(true)
        .with_scenario(Arc::new(spec))
}

/// A node that churns out *while in the MIS* is frozen, not removed: its
/// heartbeats stop, so newly woken neighbours see an empty neighbourhood
/// and join too — exactly the independence violation a real departure
/// would cause. The checker must report it.
#[test]
fn mis_member_churning_out_lets_neighbours_join() {
    let g = generators::path(3);
    // Node 1 runs alone from round 0 and joins the MIS; it churns out at
    // round 8, after which nodes 0 and 2 wake into silence.
    let spec = ScenarioSpec::new(0)
        .with_wake(WakePattern::Explicit {
            rounds: vec![10, 0, 10],
        })
        .with_churn(ChurnModel::Explicit {
            windows: vec![ChurnWindow {
                node: 1,
                from: 8,
                until: 60,
            }],
        });
    let mut violations = 0;
    for seed in 0..10u64 {
        let outcome = run_algorithm(&g, &repaired(), seed, scenario_config(spec.clone()));
        assert!(outcome.terminated(), "seed {seed} hit the round cap");
        if outcome.statuses()[1] == NodeStatus::InMis && check_mis(&g, &outcome.mis()).is_err() {
            violations += 1;
        }
    }
    assert!(
        violations > 0,
        "a MIS member vanishing mid-run should produce detectable violations"
    );
}

/// When a node's *entire neighbourhood* churns out, the node decides
/// alone; the returning neighbours must still be absorbed safely (covered
/// by the survivor's heartbeats), leaving a valid MIS.
#[test]
fn node_survives_all_neighbours_churning_out() {
    let g = generators::star(5);
    let spec = ScenarioSpec::new(0).with_churn(ChurnModel::Explicit {
        windows: (1..5)
            .map(|leaf| ChurnWindow {
                node: leaf,
                from: 0,
                until: 30,
            })
            .collect(),
    });
    for seed in 0..5u64 {
        let outcome = run_algorithm(&g, &repaired(), seed, scenario_config(spec.clone()));
        assert!(outcome.terminated(), "seed {seed} hit the round cap");
        assert_eq!(
            outcome.mis(),
            vec![0],
            "the centre should decide alone while every leaf is away"
        );
        assert!(
            outcome.rounds() >= 30,
            "the run must outlast the churn window for the leaves to decide"
        );
        check_mis(&g, &outcome.mis())
            .unwrap_or_else(|e| panic!("seed {seed}: returning leaves broke the MIS: {e}"));
    }
}

/// Every scenario kind on degenerate graphs — empty, single-node, and
/// fully disconnected — for both simulator families: never panic, always
/// terminate, always produce a valid MIS.
#[test]
fn degenerate_graphs_survive_every_scenario_kind() {
    let graphs = [
        (
            "empty",
            generators::gnp(0, 0.0, &mut SmallRng::seed_from_u64(0)),
        ),
        ("single", generators::path(1)),
        (
            "disconnected",
            generators::gnp(6, 0.0, &mut SmallRng::seed_from_u64(0)),
        ),
    ];
    let specs = [
        ("uniform loss", ScenarioSpec::uniform_loss(7, 0.3)),
        (
            "per-edge loss",
            ScenarioSpec::new(7).with_loss(LossModel::PerEdge { lo: 0.1, hi: 0.5 }),
        ),
        (
            "delay",
            ScenarioSpec::new(7).with_delay(DelayModel::Random { p: 0.5, max: 3 }),
        ),
        (
            "explicit wake",
            ScenarioSpec::new(7).with_wake(WakePattern::Explicit {
                rounds: vec![4, 0, 9],
            }),
        ),
        (
            "wavefront wake",
            ScenarioSpec::new(7).with_wake(WakePattern::Wavefront {
                stride: 2,
                latest: 12,
            }),
        ),
        (
            "alternating wake",
            ScenarioSpec::new(7).with_wake(WakePattern::Alternating { round: 6 }),
        ),
        (
            "degree-targeted wake",
            ScenarioSpec::new(7).with_wake(WakePattern::DegreeTargeted {
                fraction: 0.5,
                latest: 8,
            }),
        ),
        (
            "random wake",
            ScenarioSpec::new(7).with_wake(WakePattern::Random {
                fraction: 0.5,
                latest: 8,
            }),
        ),
        (
            "explicit churn",
            ScenarioSpec::new(7).with_churn(ChurnModel::Explicit {
                windows: vec![ChurnWindow {
                    node: 0,
                    from: 2,
                    until: 10,
                }],
            }),
        ),
        (
            "random churn",
            ScenarioSpec::new(7).with_churn(ChurnModel::Random {
                p: 0.3,
                max_len: 5,
                earliest: 0,
                latest: 10,
            }),
        ),
    ];
    for (graph_name, g) in &graphs {
        for (spec_name, spec) in &specs {
            let outcome = run_algorithm(g, &repaired(), 1, scenario_config(spec.clone()));
            assert!(
                outcome.terminated(),
                "beeping: {spec_name} on {graph_name} hit the round cap"
            );
            check_mis(g, &outcome.mis()).unwrap_or_else(|e| {
                panic!("beeping: {spec_name} on {graph_name} broke the MIS: {e}")
            });

            let msg = MessageSimulator::new(g, &LubyPriorityFactory::new(), 1)
                .with_scenario(Arc::new(spec.clone()))
                .run(100_000);
            assert!(
                msg.terminated(),
                "message: {spec_name} on {graph_name} hit the round cap"
            );
            check_mis(g, &msg.mis()).unwrap_or_else(|e| {
                panic!("message: {spec_name} on {graph_name} broke the MIS: {e}")
            });
        }
    }
}
