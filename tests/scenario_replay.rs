//! Scenario replay properties: a scenario rebuilt from its serialized
//! spec (JSON + seed) drives **byte-identical** runs — same statuses,
//! rounds, and metrics — for the beeping and the message-passing
//! families, on the base graph and on a lazy derived view, and for any
//! worker-thread count. This is the contract `xp replay` and the
//! committed corpus (`tests/corpus/worst_scenarios_seed.json`) rest on.

use std::sync::Arc;

use beeping_mis::baselines::{LubyPriorityFactory, MessageEngine};
use beeping_mis::beeping::scenario::{
    ChurnModel, DelayModel, LossModel, ScenarioSpec, WakePattern,
};
use beeping_mis::beeping::SimConfig;
use beeping_mis::core::{Algorithm, RunPlan};
use beeping_mis::graph::{generators, Graph, LineGraphView};
use proptest::prelude::*;
use rand::{rngs::SmallRng, SeedableRng};

/// Deterministically derives a valid spec covering every model axis from
/// sampled primitives (the vendored proptest has no combinator
/// strategies, so the combination logic lives here).
fn build_spec(seed: u64, sel: u32, p: f64, q: f64, latest: u32) -> ScenarioSpec {
    let latest = 1 + latest % 16;
    let mut spec = ScenarioSpec::new(seed);
    spec = match sel % 3 {
        0 => spec,
        1 => spec.with_loss(LossModel::Uniform { p: p * 0.3 }),
        _ => spec.with_loss(LossModel::PerEdge {
            lo: p * 0.1,
            hi: p * 0.1 + q * 0.3,
        }),
    };
    if (sel / 3) % 2 == 1 {
        spec = spec.with_delay(DelayModel::Random {
            p: 0.05 + q * 0.4,
            max: 1 + sel % 3,
        });
    }
    spec = match (sel / 6) % 5 {
        0 => spec,
        1 => spec.with_wake(WakePattern::Wavefront {
            stride: 1 + sel % 3,
            latest,
        }),
        2 => spec.with_wake(WakePattern::Alternating { round: latest }),
        3 => spec.with_wake(WakePattern::DegreeTargeted {
            fraction: 0.1 + q * 0.4,
            latest,
        }),
        _ => spec.with_wake(WakePattern::Random {
            fraction: 0.2 + q * 0.5,
            latest,
        }),
    };
    if (sel / 30) % 2 == 1 {
        spec = spec.with_churn(ChurnModel::Random {
            p: 0.02 + q * 0.1,
            max_len: 1 + sel % 4,
            earliest: 0,
            latest,
        });
    }
    spec.validate().expect("constructed spec must be valid");
    spec
}

/// Serialises and re-parses a spec — the round trip every replay does.
fn round_trip(spec: &ScenarioSpec) -> ScenarioSpec {
    let text = spec.to_json_string();
    let back = ScenarioSpec::from_json_str(&text).expect("own JSON must parse");
    assert_eq!(back.to_json_string(), text, "canonical form must be stable");
    back
}

fn beeping_config(spec: ScenarioSpec) -> SimConfig {
    SimConfig::default()
        .with_max_rounds(20_000)
        .with_mis_keeps_beeping(true)
        .with_scenario(Arc::new(spec))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(14))]

    /// Beeping family on `G(n, p)`: original spec on 1 job vs replayed
    /// spec on 4 jobs — outcomes must be byte-identical.
    #[test]
    fn beeping_replay_is_byte_identical(
        n in 2usize..40,
        edge_p in 0.0f64..0.5,
        graph_seed in any::<u64>(),
        master in any::<u64>(),
        seed in any::<u64>(),
        sel in 0u32..1024,
        p in 0.0f64..1.0,
        q in 0.0f64..1.0,
        latest in 0u32..64,
    ) {
        let g = generators::gnp(n, edge_p, &mut SmallRng::seed_from_u64(graph_seed));
        let spec = build_spec(seed, sel, p, q, latest);
        let original = RunPlan::new(Algorithm::feedback(), 3)
            .with_config(beeping_config(spec.clone()))
            .with_master_seed(master)
            .with_jobs(1)
            .execute_outcomes(&g);
        let replayed = RunPlan::new(Algorithm::feedback(), 3)
            .with_config(beeping_config(round_trip(&spec)))
            .with_master_seed(master)
            .with_jobs(4)
            .execute_outcomes(&g);
        prop_assert_eq!(original, replayed);
    }

    /// The same property on a lazy derived view (the line graph), where
    /// node numbering, degrees, and the wake schedule all differ from the
    /// base graph.
    #[test]
    fn beeping_replay_holds_on_the_line_view(
        n in 2usize..14,
        edge_p in 0.1f64..0.6,
        graph_seed in any::<u64>(),
        master in any::<u64>(),
        seed in any::<u64>(),
        sel in 0u32..1024,
        q in 0.0f64..1.0,
    ) {
        let g: Graph = generators::gnp(n, edge_p, &mut SmallRng::seed_from_u64(graph_seed));
        let view = LineGraphView::new(&g);
        let spec = build_spec(seed, sel, 0.4, q, 12);
        let original = RunPlan::new(Algorithm::feedback(), 2)
            .with_config(beeping_config(spec.clone()))
            .with_master_seed(master)
            .with_jobs(1)
            .execute_outcomes(&view);
        let replayed = RunPlan::new(Algorithm::feedback(), 2)
            .with_config(beeping_config(round_trip(&spec)))
            .with_master_seed(master)
            .with_jobs(4)
            .execute_outcomes(&view);
        prop_assert_eq!(original, replayed);
    }

    /// Message-passing family: the same replay contract through
    /// `MessageEngine` on the base graph and the line view.
    #[test]
    fn message_replay_is_byte_identical(
        n in 2usize..24,
        edge_p in 0.0f64..0.5,
        graph_seed in any::<u64>(),
        master in any::<u64>(),
        seed in any::<u64>(),
        sel in 0u32..1024,
        p in 0.0f64..1.0,
        q in 0.0f64..1.0,
    ) {
        let g: Graph = generators::gnp(n, edge_p, &mut SmallRng::seed_from_u64(graph_seed));
        let spec = build_spec(seed, sel, p, q, 10);
        let engine = |s: ScenarioSpec| {
            MessageEngine::new(LubyPriorityFactory::new())
                .with_max_rounds(100_000)
                .with_scenario(Arc::new(s))
        };
        let original = RunPlan::for_engine(engine(spec.clone()), 3)
            .with_master_seed(master)
            .with_jobs(1)
            .execute_outcomes(&g);
        let replayed = RunPlan::for_engine(engine(round_trip(&spec)), 3)
            .with_master_seed(master)
            .with_jobs(4)
            .execute_outcomes(&g);
        prop_assert_eq!(original, replayed);

        let view = LineGraphView::new(&g);
        let on_view = RunPlan::for_engine(engine(spec.clone()), 2)
            .with_master_seed(master)
            .with_jobs(1)
            .execute_outcomes(&view);
        let on_view_replayed = RunPlan::for_engine(engine(round_trip(&spec)), 2)
            .with_master_seed(master)
            .with_jobs(4)
            .execute_outcomes(&view);
        prop_assert_eq!(on_view, on_view_replayed);
    }
}

/// The committed seed corpus must keep replaying byte-identically — this
/// is the regression gate behind `xp replay
/// tests/corpus/worst_scenarios_seed.json` in CI.
#[test]
fn committed_corpus_replays_byte_identically() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/corpus/worst_scenarios_seed.json"
    );
    let text = std::fs::read_to_string(path).expect("seed corpus must be committed");
    let replay = beeping_mis::experiments::fuzz::replay_str(
        &text,
        &beeping_mis::experiments::RunContext::default(),
    )
    .expect("well-formed corpus");
    assert!(
        replay.entries.len() >= 3,
        "seed corpus should hold at least the baseline plus two adversaries"
    );
    assert!(replay.all_match(), "{}", replay.render());
}
