//! The message engine on the unified batch path: determinism for any job
//! count, arena/fresh-vec equivalence, and degenerate-graph behaviour —
//! mirroring `tests/determinism.rs` for the beeping engine.

use beeping_mis::baselines::{
    GreedyLocalFactory, InboxStrategy, LubyMarkingFactory, LubyPriorityFactory, MessageEngine,
    MessageFactory, MessageSimulator, MetivierFactory, MsgRunOutcome,
};
use beeping_mis::core::engine::Engine;
use beeping_mis::core::RunPlan;
use beeping_mis::graph::{generators, Graph};
use rand::{rngs::SmallRng, SeedableRng};

#[test]
fn message_batches_are_identical_for_any_job_count() {
    // The tentpole determinism contract, message-engine edition: a batch
    // at --jobs 4 yields exactly the same per-seed records as --jobs 1 and
    // as a solo MessageSimulator run per seed.
    let g = generators::gnp(60, 0.25, &mut SmallRng::seed_from_u64(14));
    let base = RunPlan::for_engine(MessageEngine::new(LubyPriorityFactory::new()), 12)
        .with_master_seed(21);
    let sequential = base.clone().with_jobs(1).execute(&g);
    for jobs in [2, 4, 7] {
        let parallel = base.clone().with_jobs(jobs).execute(&g);
        assert_eq!(parallel, sequential, "jobs = {jobs}");
    }
    for record in sequential.records() {
        let solo = MessageSimulator::new(&g, &LubyPriorityFactory::new(), record.seed).run(100_000);
        assert_eq!(record.rounds, solo.rounds(), "seed {}", record.seed);
        assert_eq!(record.mis_size, solo.mis().len());
        assert_eq!(record.terminated, solo.terminated());
        assert_eq!(
            record.mean_bits_per_channel,
            solo.metrics().mean_bits_per_channel(g.edge_count())
        );
        assert_eq!(record.messages_delivered, solo.metrics().messages_delivered);
    }
}

#[test]
fn execute_outcomes_matches_solo_runs_bit_for_bit() {
    let g = generators::grid2d(7, 8);
    let plan = RunPlan::for_engine(MessageEngine::new(MetivierFactory::new()), 6)
        .with_master_seed(33)
        .with_jobs(3);
    let outcomes = plan.execute_outcomes(&g);
    assert_eq!(outcomes.len(), 6);
    for (i, outcome) in outcomes.iter().enumerate() {
        let solo = plan.engine.run(&g, plan.run_seed(i));
        assert_eq!(*outcome, solo, "run {i} differs from the single-run path");
    }
}

fn run_both_strategies<F: MessageFactory>(
    g: &Graph,
    factory: impl Fn() -> F,
    seed: u64,
) -> (MsgRunOutcome, MsgRunOutcome) {
    let arena = MessageSimulator::new(g, &factory(), seed)
        .with_inbox_strategy(InboxStrategy::Arena)
        .run(100_000);
    let fresh = MessageSimulator::new(g, &factory(), seed)
        .with_inbox_strategy(InboxStrategy::FreshVecs)
        .run(100_000);
    (arena, fresh)
}

#[test]
fn arena_inboxes_are_bit_identical_to_fresh_vecs_for_every_family() {
    // The inbox-arena refactor must not change a single status, round
    // count or accounted bit, for any message algorithm in the repo.
    let mut rng = SmallRng::seed_from_u64(31);
    let families = [
        generators::gnp(60, 0.5, &mut rng),
        generators::gnp(80, 0.05, &mut rng),
        generators::complete(15),
        generators::path(25),
        generators::star(20),
        generators::grid2d(6, 7),
        generators::theorem1_family(4),
        generators::disjoint_cliques(&[5, 4, 3, 2, 1]),
        Graph::empty(6),
    ];
    for (i, g) in families.iter().enumerate() {
        for seed in 0..3 {
            let (a, f) = run_both_strategies(g, LubyPriorityFactory::new, seed);
            assert_eq!(a, f, "luby priority, family {i} seed {seed}");
            let (a, f) = run_both_strategies(g, LubyMarkingFactory::new, seed);
            assert_eq!(a, f, "luby marking, family {i} seed {seed}");
            let (a, f) = run_both_strategies(g, MetivierFactory::new, seed);
            assert_eq!(a, f, "métivier, family {i} seed {seed}");
            let (a, f) = run_both_strategies(g, GreedyLocalFactory::new, seed);
            assert_eq!(a, f, "greedy local, family {i} seed {seed}");
        }
    }
}

#[test]
fn empty_graph_batch_terminates_instantly() {
    let g = Graph::empty(0);
    let report = RunPlan::for_engine(MessageEngine::new(LubyPriorityFactory::new()), 3)
        .with_master_seed(5)
        .with_jobs(2)
        .execute(&g);
    assert_eq!(report.records().len(), 3);
    assert_eq!(report.unterminated(), 0);
    assert!(report.records().iter().all(|r| r.rounds == 0));
    assert!(report.records().iter().all(|r| r.mis_size == 0));
    assert_eq!(report.cost().mean(), 0.0);
}

#[test]
fn single_node_batch_selects_the_node() {
    let g = Graph::empty(1);
    let report = RunPlan::for_engine(MessageEngine::new(LubyPriorityFactory::new()), 4)
        .with_jobs(2)
        .execute(&g);
    assert_eq!(report.unterminated(), 0);
    assert!(report.records().iter().all(|r| r.mis_size == 1));
    assert!(report.records().iter().all(|r| r.rounds == 1));
}

#[test]
fn disconnected_graph_batch_covers_every_component() {
    // Isolated nodes and cliques of several sizes: every component must
    // contribute to the MIS, through every job count.
    let g = generators::disjoint_cliques(&[6, 4, 1, 1, 3]);
    let base =
        RunPlan::for_engine(MessageEngine::new(MetivierFactory::new()), 6).with_master_seed(8);
    let one = base.clone().with_jobs(1).execute(&g);
    let four = base.clone().with_jobs(4).execute(&g);
    assert_eq!(one, four);
    assert_eq!(one.unterminated(), 0);
    // One MIS node per clique (the two isolated nodes count as cliques).
    assert!(one.records().iter().all(|r| r.mis_size == 5));
    for record in one.records() {
        let outcome = base.engine.run(&g, record.seed);
        beeping_mis::core::verify::check_mis(&g, &outcome.mis()).unwrap();
    }
}

#[test]
fn race_tables_are_identical_for_any_job_count() {
    // The acceptance check behind `xp race --quick --jobs N`: the rendered
    // tables must be byte-identical whatever the worker count.
    use beeping_mis::experiments::{race, RunContext};
    let config = race::RaceConfig {
        trials: 3,
        seed: 99,
        scale: 3,
        surface: race::RaceSurface::Base,
    };
    let jobs = |jobs| RunContext {
        jobs,
        ..RunContext::default()
    };
    let one = race::run(&config, &jobs(1)).render();
    let four = race::run(&config, &jobs(4)).render();
    assert_eq!(one, four);
}
