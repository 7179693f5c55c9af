//! Message-passing baselines on lazy derived-graph views: every family's
//! runs must be byte-identical to the same runs on the materialised
//! derived graph, for every view, strategy, and job count — the gate
//! behind `xp race --on {line,product,induced}` and the
//! `simbench --suite baselines` views point.

use beeping_mis::baselines::{
    GreedyLocalFactory, InboxStrategy, LubyMarkingFactory, LubyPriorityFactory, MessageEngine,
    MessageFactory, MessageSimulator, MetivierFactory, MsgRunOutcome,
};
use beeping_mis::core::RunPlan;
use beeping_mis::experiments::{race, RunContext};
use beeping_mis::graph::{
    generators, ops, Graph, GraphView, InducedView, LineGraphView, NodeId, ProductView,
};
use rand::{rngs::SmallRng, SeedableRng};

fn base_graphs() -> Vec<Graph> {
    let mut rng = SmallRng::seed_from_u64(23);
    vec![
        generators::gnp(40, 0.2, &mut rng),
        generators::grid2d(5, 6),
        generators::star(9),
        generators::cycle(12),
        generators::theorem1_family(3),
    ]
}

fn run_family<F: MessageFactory, G: GraphView + ?Sized>(
    g: &G,
    factory: &F,
    seed: u64,
) -> MsgRunOutcome {
    MessageSimulator::new(g, factory, seed).run(100_000)
}

/// Runs all four families on `view` and on `materialized` and asserts the
/// outcomes byte-identical (same node numbering, so same statuses, rounds,
/// and accounted bits).
fn assert_families_agree<G: GraphView + ?Sized>(view: &G, materialized: &Graph, label: &str) {
    for seed in 0..3 {
        let pairs: [(MsgRunOutcome, MsgRunOutcome); 4] = [
            (
                run_family(view, &LubyPriorityFactory::new(), seed),
                run_family(materialized, &LubyPriorityFactory::new(), seed),
            ),
            (
                run_family(view, &LubyMarkingFactory::new(), seed),
                run_family(materialized, &LubyMarkingFactory::new(), seed),
            ),
            (
                run_family(view, &MetivierFactory::new(), seed),
                run_family(materialized, &MetivierFactory::new(), seed),
            ),
            (
                run_family(view, &GreedyLocalFactory::new(), seed),
                run_family(materialized, &GreedyLocalFactory::new(), seed),
            ),
        ];
        for (i, (on_view, on_materialized)) in pairs.iter().enumerate() {
            assert_eq!(on_view, on_materialized, "{label}, family {i}, seed {seed}");
            assert!(on_view.terminated(), "{label}, family {i}, seed {seed}");
            beeping_mis::core::verify::check_mis(view, &on_view.mis())
                .unwrap_or_else(|e| panic!("{label}, family {i}, seed {seed}: {e}"));
        }
    }
}

#[test]
fn all_families_on_line_views_match_materialized_line_graphs() {
    for (i, g) in base_graphs().iter().enumerate() {
        let view = LineGraphView::new(g);
        let (lg, _edges) = ops::line_graph(g);
        assert_families_agree(&view, &lg, &format!("line view of base {i}"));
    }
}

#[test]
fn all_families_on_product_views_match_materialized_products() {
    for (i, g) in base_graphs().iter().enumerate() {
        for k in [1usize, 3] {
            let view = ProductView::new(g, k as u32);
            let prod = ops::cartesian_product(g, &generators::complete(k));
            assert_families_agree(&view, &prod, &format!("product view (k={k}) of base {i}"));
        }
    }
}

#[test]
fn all_families_on_induced_views_match_materialized_subgraphs() {
    for (i, g) in base_graphs().iter().enumerate() {
        let even: Vec<NodeId> = (0..g.node_count() as NodeId).step_by(2).collect();
        let view = InducedView::new(g, &even);
        let sub = ops::induced_subgraph(g, &even);
        assert_families_agree(&view, &sub, &format!("induced view of base {i}"));
    }
}

#[test]
fn arena_and_fresh_vecs_agree_on_line_views() {
    // The inbox-strategy equivalence, re-proven on a lazy view: the arena
    // delivery must not depend on the graph being a CSR.
    for (i, g) in base_graphs().iter().enumerate() {
        let view = LineGraphView::new(g);
        for seed in 0..2 {
            let arena = MessageSimulator::new(&view, &LubyPriorityFactory::new(), seed)
                .with_inbox_strategy(InboxStrategy::Arena)
                .run(100_000);
            let fresh = MessageSimulator::new(&view, &LubyPriorityFactory::new(), seed)
                .with_inbox_strategy(InboxStrategy::FreshVecs)
                .run(100_000);
            assert_eq!(arena, fresh, "base {i} seed {seed}");
            let arena = MessageSimulator::new(&view, &MetivierFactory::new(), seed)
                .with_inbox_strategy(InboxStrategy::Arena)
                .run(100_000);
            let fresh = MessageSimulator::new(&view, &MetivierFactory::new(), seed)
                .with_inbox_strategy(InboxStrategy::FreshVecs)
                .run(100_000);
            assert_eq!(arena, fresh, "métivier, base {i} seed {seed}");
        }
    }
}

#[test]
fn degenerate_views_behave_like_degenerate_graphs() {
    let g = generators::disjoint_cliques(&[4, 3, 1, 1, 2]);

    // Empty view: an empty induced selection terminates in zero rounds.
    let empty = InducedView::new(&g, &[]);
    let outcome = run_family(&empty, &LubyPriorityFactory::new(), 0);
    assert!(outcome.terminated());
    assert_eq!(outcome.rounds(), 0);
    assert!(outcome.mis().is_empty());

    // Single-node view: the node joins in one round.
    let single = InducedView::new(&g, &[0]);
    let outcome = run_family(&single, &LubyPriorityFactory::new(), 0);
    assert!(outcome.terminated());
    assert_eq!(outcome.mis(), vec![0]);
    assert_eq!(outcome.rounds(), 1);

    // Disconnected view: every component of the selection contributes.
    let spread: Vec<NodeId> = vec![0, 1, 7, 8, 9]; // clique pieces + isolates
    let view = InducedView::new(&g, &spread);
    let sub = ops::induced_subgraph(&g, &spread);
    for seed in 0..3 {
        let on_view = run_family(&view, &MetivierFactory::new(), seed);
        let on_sub = run_family(&sub, &MetivierFactory::new(), seed);
        assert_eq!(on_view, on_sub, "seed {seed}");
        beeping_mis::core::verify::check_mis(&view, &on_view.mis()).unwrap();
    }

    // A product view with an empty palette is the empty graph.
    let zero = ProductView::new(&g, 0);
    let outcome = run_family(&zero, &GreedyLocalFactory::new(), 0);
    assert!(outcome.terminated());
    assert_eq!(outcome.rounds(), 0);
}

#[test]
fn engine_batches_on_views_are_job_count_invariant() {
    // RunPlan::execute on a lazy view: bit-identical records for any job
    // count, matching the solo simulator runs seed for seed.
    let g = generators::gnp(30, 0.25, &mut SmallRng::seed_from_u64(44));
    let view = LineGraphView::new(&g);
    let base =
        RunPlan::for_engine(MessageEngine::new(LubyPriorityFactory::new()), 8).with_master_seed(17);
    let solo = base.clone().with_jobs(1).execute(&view);
    for jobs in [2, 4] {
        let parallel = base.clone().with_jobs(jobs).execute(&view);
        assert_eq!(parallel, solo, "jobs = {jobs}");
    }
    for record in solo.records() {
        let outcome = run_family(&view, &LubyPriorityFactory::new(), record.seed);
        assert_eq!(record.rounds, outcome.rounds(), "seed {}", record.seed);
        assert_eq!(record.mis_size, outcome.mis().len());
        assert_eq!(
            record.mean_bits_per_channel,
            outcome
                .metrics()
                .mean_bits_per_channel(GraphView::edge_count(&view))
        );
    }
}

#[test]
fn derived_race_tables_are_identical_for_any_job_count() {
    // The acceptance check behind `xp race --on line --jobs N`: the
    // rendered tables must be byte-identical whatever the worker count.
    let config = race::RaceConfig {
        trials: 2,
        seed: 41,
        scale: 3,
        surface: race::RaceSurface::Line,
    };
    let jobs = |jobs| RunContext {
        jobs,
        ..RunContext::default()
    };
    let one = race::run(&config, &jobs(1)).render();
    let four = race::run(&config, &jobs(4)).render();
    assert_eq!(one, four);
    assert!(one.contains("L(G)"));
}
