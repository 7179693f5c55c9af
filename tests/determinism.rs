//! Reproducibility: everything is a pure function of its seeds.

use beeping_mis::baselines::{LubyPriorityFactory, MessageEngine, MessageSimulator};
use beeping_mis::beeping::{SimConfig, Simulator};
use beeping_mis::core::{run_algorithm, solve_mis, Algorithm, FeedbackFactory, RunPlan};
use beeping_mis::experiments::{fig5, RunContext};
use beeping_mis::graph::generators;
use rand::{rngs::SmallRng, SeedableRng};

#[test]
fn graph_generators_are_seed_deterministic() {
    for seed in [0u64, 1, 99] {
        let a = generators::gnp(50, 0.4, &mut SmallRng::seed_from_u64(seed));
        let b = generators::gnp(50, 0.4, &mut SmallRng::seed_from_u64(seed));
        assert_eq!(a, b);
        let a = generators::random_geometric(50, 0.2, &mut SmallRng::seed_from_u64(seed));
        let b = generators::random_geometric(50, 0.2, &mut SmallRng::seed_from_u64(seed));
        assert_eq!(a, b);
        let a = generators::random_tree(50, &mut SmallRng::seed_from_u64(seed));
        let b = generators::random_tree(50, &mut SmallRng::seed_from_u64(seed));
        assert_eq!(a, b);
    }
}

#[test]
fn solver_outcomes_repeat_exactly() {
    let g = generators::gnp(60, 0.5, &mut SmallRng::seed_from_u64(8));
    for algo in [
        Algorithm::feedback(),
        Algorithm::sweep(),
        Algorithm::science(),
    ] {
        let a = solve_mis(&g, &algo, 31).unwrap();
        let b = solve_mis(&g, &algo, 31).unwrap();
        assert_eq!(a.mis(), b.mis(), "{}", algo.name());
        assert_eq!(a.rounds(), b.rounds());
        assert_eq!(a.outcome().metrics(), b.outcome().metrics());
    }
}

#[test]
fn same_seed_yields_identical_run_outcome() {
    // The fixed-seed reproduction story: rebuilding the graph and rerunning
    // `solve_mis` with the same seeds must reproduce the *entire*
    // `RunOutcome` — beep schedule metrics, round count, final states —
    // not just the selected set.
    let a = {
        let g = generators::gnp(80, 0.2, &mut SmallRng::seed_from_u64(42));
        solve_mis(&g, &Algorithm::feedback(), 1234).unwrap()
    };
    let b = {
        let g = generators::gnp(80, 0.2, &mut SmallRng::seed_from_u64(42));
        solve_mis(&g, &Algorithm::feedback(), 1234).unwrap()
    };
    assert_eq!(a.outcome(), b.outcome());
    assert_eq!(a.mis(), b.mis());
}

#[test]
fn message_runtime_repeats_exactly() {
    let g = generators::gnp(40, 0.3, &mut SmallRng::seed_from_u64(9));
    let a = MessageSimulator::new(&g, &LubyPriorityFactory::new(), 17).run(10_000);
    let b = MessageSimulator::new(&g, &LubyPriorityFactory::new(), 17).run(10_000);
    assert_eq!(a, b);
}

#[test]
fn batch_runs_are_identical_for_any_job_count() {
    // The tentpole determinism contract: a batch at --jobs 4 yields
    // exactly the same per-seed RunOutcomes (rounds, beeps, MIS
    // membership) as --jobs 1 and as the existing single-run path.
    let g = generators::gnp(60, 0.25, &mut SmallRng::seed_from_u64(14));
    let factory = FeedbackFactory::new();
    let plan = RunPlan::new(Algorithm::feedback(), 12).with_master_seed(21);
    let sequential = plan.clone().with_jobs(1).execute_outcomes(&g);
    let parallel = plan.clone().with_jobs(4).execute_outcomes(&g);
    assert_eq!(sequential, parallel);
    for (i, outcome) in sequential.iter().enumerate() {
        let solo = Simulator::new(&g, &factory, plan.run_seed(i), SimConfig::default()).run();
        assert_eq!(*outcome, solo, "run {i} differs from the single-run path");
        assert_eq!(outcome.mis(), solo.mis());
        assert_eq!(outcome.metrics().beeps, solo.metrics().beeps);
    }
}

#[test]
fn run_plan_reports_are_identical_for_any_job_count() {
    let g = generators::grid2d(8, 9);
    let base = RunPlan::new(Algorithm::feedback(), 10).with_master_seed(33);
    let one = base.clone().with_jobs(1).execute(&g);
    let four = base.clone().with_jobs(4).execute(&g);
    assert_eq!(one, four);
    // And each record reproduces the plain single-run path seed for seed.
    for record in one.records() {
        let solo = run_algorithm(
            &g,
            &base.engine.algorithm,
            record.seed,
            SimConfig::default(),
        );
        assert_eq!(record.rounds, solo.rounds());
        assert_eq!(record.mis_size, solo.mis().len());
    }
}

#[test]
fn message_engine_plans_are_identical_for_any_job_count() {
    // The same contract through the unified engine layer: the message
    // runtime's batches must be bit-identical whatever the worker count.
    let g = generators::gnp(50, 0.3, &mut SmallRng::seed_from_u64(16));
    let base = RunPlan::for_engine(MessageEngine::new(LubyPriorityFactory::new()), 10)
        .with_master_seed(44);
    let one = base.clone().with_jobs(1).execute(&g);
    let four = base.clone().with_jobs(4).execute(&g);
    assert_eq!(one, four);
    for record in one.records() {
        let solo = MessageSimulator::new(&g, &LubyPriorityFactory::new(), record.seed).run(100_000);
        assert_eq!(record.rounds, solo.rounds());
        assert_eq!(record.mis_size, solo.mis().len());
    }
}

#[test]
fn trial_runner_is_order_stable() {
    // Identical results regardless of how threads interleave.
    let ctx = RunContext::default();
    let a = ctx.run_trials(20, 3, |seed, idx| seed.wrapping_mul(idx as u64 + 1));
    let b = ctx.run_trials(20, 3, |seed, idx| seed.wrapping_mul(idx as u64 + 1));
    assert_eq!(a, b);
}

#[test]
fn experiments_repeat_exactly() {
    let config = fig5::Fig5Config {
        sizes: vec![20, 40],
        trials: 5,
        edge_probability: 0.5,
        include_science: false,
        seed: 77,
    };
    let a = fig5::run(&config, &RunContext::default());
    let b = fig5::run(&config, &RunContext::default());
    for (pa, pb) in a.feedback.iter().zip(&b.feedback) {
        assert_eq!(pa.mean(), pb.mean());
        assert_eq!(pa.std_dev(), pb.std_dev());
    }
}

#[test]
fn different_seeds_give_different_runs() {
    let g = generators::gnp(60, 0.5, &mut SmallRng::seed_from_u64(10));
    let a = solve_mis(&g, &Algorithm::feedback(), 1).unwrap();
    let b = solve_mis(&g, &Algorithm::feedback(), 2).unwrap();
    // Either the set or the metrics must differ for a 60-node dense graph.
    assert!(
        a.mis() != b.mis() || a.outcome().metrics() != b.outcome().metrics(),
        "independent seeds produced identical runs"
    );
}
