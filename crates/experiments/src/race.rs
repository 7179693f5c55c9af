//! Baseline race: the paper's algorithm against the classical field.
//!
//! Round, MIS-size and bit-complexity comparison of the beeping algorithms
//! (feedback, sweep, science) and the message-passing baselines (Luby ×2,
//! Métivier et al.) on shared workloads, plus the sequential greedy as the
//! size anchor. This substantiates the paper's positioning: feedback
//! matches Luby's `O(log n)` rounds with 1-bit messages and `O(1)` bits
//! per channel.
//!
//! The field is seven [`Family`] values from `mis_baselines`' registry.
//! Every one — beeping or message-passing — executes through the unified
//! [`Engine`] layer with the engine [`Family::dispatch`] builds under the
//! default `SimConfig`, and the trials fan out over the same
//! work-stealing batch path as every other experiment
//! ([`RunContext::run_trials`]), so `xp race --jobs N` parallelises the
//! whole figure with bit-identical tables for any job count.
//!
//! With `xp race --on {line,product,induced}` the whole field races on a
//! **lazy derived-graph view** of each workload instead of the base graph
//! ([`RaceSurface`]): Luby on `L(G)` is a classical distributed
//! maximal-matching baseline, raced head-to-head against beeping-MIS on
//! the very same implicit view — the derived adjacency is never
//! materialised for any contender.

use mis_baselines::{Family, FamilyOp};
use mis_beeping::SimConfig;
use mis_core::engine::{Engine, EngineRecord, RunView};
use mis_core::verify::{check_mis, random_greedy_mis};
use mis_core::Algorithm;
use mis_graph::{generators, Graph, GraphView, InducedView, LineGraphView, NodeId, ProductView};
use mis_stats::{OnlineStats, Table};
use rand::{rngs::SmallRng, SeedableRng};

use crate::seeds::{alg, alg_seed, experiment, stage_seed};
use crate::RunContext;

/// The graph surface every contender races on: the base workload graph or
/// a lazy derived-graph view of it (`xp race --on …`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum RaceSurface {
    /// The base workload graph itself.
    #[default]
    Base,
    /// The line graph `L(G)` as a [`LineGraphView`] — the elected MIS is a
    /// maximal *matching* of the base graph, so this pits beeping-MIS
    /// against Luby-style matching baselines.
    Line,
    /// The cartesian product `G □ K₃` as a [`ProductView`] (a fixed
    /// 3-colour palette keeps the node count at `3n` across workloads).
    Product,
    /// The subgraph induced by the even-numbered nodes, as an
    /// [`InducedView`] — the iterated-MIS phase shape.
    Induced,
}

impl RaceSurface {
    /// Short name for flags, titles and tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RaceSurface::Base => "base",
            RaceSurface::Line => "line",
            RaceSurface::Product => "product",
            RaceSurface::Induced => "induced",
        }
    }

    /// Parses a `--on` flag value.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "base" => Some(RaceSurface::Base),
            "line" => Some(RaceSurface::Line),
            "product" => Some(RaceSurface::Product),
            "induced" => Some(RaceSurface::Induced),
            _ => None,
        }
    }

    /// The label appended to workload names ("L(G)", "G □ K₃", …).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RaceSurface::Base => "",
            RaceSurface::Line => " on L(G)",
            RaceSurface::Product => " on G □ K₃",
            RaceSurface::Induced => " on G[even]",
        }
    }
}

/// Configuration for the race.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceConfig {
    /// Trials per (workload, contender).
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
    /// Workload scale multiplier (1 = full).
    pub scale: usize,
    /// The surface raced on (base graph or a lazy derived view).
    pub surface: RaceSurface,
}

impl RaceConfig {
    /// Full-scale settings.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            trials: 30,
            seed: 2013,
            scale: 1,
            surface: RaceSurface::Base,
        }
    }

    /// A fast smoke-test variant.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            trials: 6,
            seed: 2013,
            scale: 2, // divides workload sizes by 2
            surface: RaceSurface::Base,
        }
    }

    /// Replaces the race surface.
    #[must_use]
    pub fn on(mut self, surface: RaceSurface) -> Self {
        self.surface = surface;
        self
    }
}

impl Default for RaceConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// The seven families racing, with their table labels, in report order.
fn field() -> [(Family, &'static str); 7] {
    [
        (Family::Beeping(Algorithm::feedback()), "feedback (beeps)"),
        (Family::Beeping(Algorithm::sweep()), "sweep (beeps)"),
        (Family::Beeping(Algorithm::science()), "science (beeps)"),
        (Family::LubyPriority, "Luby priority (msgs)"),
        (Family::LubyMarking, "Luby marking (msgs)"),
        (Family::Metivier, "Métivier (bit duels)"),
        (Family::GreedyLocal, "greedy local-min (ids)"),
    ]
}

/// One verified run of a family's engine on one graph and seed.
struct Verified<'g, G: ?Sized> {
    g: &'g G,
    seed: u64,
}

impl<G: GraphView + ?Sized> FamilyOp<G> for Verified<'_, G> {
    type Out = (f64, f64, f64);

    fn run<E: Engine<G>>(self, engine: E) -> Self::Out {
        run_engine(&engine, self.g, self.seed)
    }
}

/// One verified run of any engine, returning `(rounds, MIS size, mean
/// bits per channel)`: beeping and message families share this code path
/// (and its correctness checks) exactly, on any [`GraphView`].
///
/// # Panics
///
/// Panics if the run fails to terminate or yields an invalid MIS.
fn run_engine<G, E>(engine: &E, g: &G, seed: u64) -> (f64, f64, f64)
where
    G: GraphView + ?Sized,
    E: Engine<G>,
{
    let outcome = engine.run(g, seed);
    assert!(outcome.terminated(), "contender hit the round cap");
    check_mis(g, &outcome.mis()).expect("contender produced an invalid MIS");
    let record = engine.record(g, seed, &outcome);
    (
        f64::from(record.rounds()),
        record.mis_size() as f64,
        record.bits_per_channel(),
    )
}

/// Per-family statistics on one workload.
#[derive(Debug, Clone)]
pub struct FamilyStats {
    /// Which algorithm.
    pub family: Family,
    /// Its table label.
    pub label: &'static str,
    /// Rounds across trials.
    pub rounds: OnlineStats,
    /// MIS size across trials.
    pub mis_size: OnlineStats,
    /// Mean bits per channel across trials.
    pub bits_per_channel: OnlineStats,
}

/// Results for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadResults {
    /// Workload label.
    pub name: String,
    /// One entry per racing family, in report order.
    pub contenders: Vec<FamilyStats>,
    /// Mean greedy (sequential) MIS size, for scale.
    pub greedy_size: OnlineStats,
}

/// Results of the whole race.
#[derive(Debug, Clone)]
pub struct RaceResults {
    /// One entry per workload.
    pub workloads: Vec<WorkloadResults>,
}

type WorkloadGen = Box<dyn Fn(u64) -> Graph + Sync>;

fn workloads(scale: usize) -> Vec<(String, WorkloadGen)> {
    let s = scale.max(1);
    let gnp_n = 120 / s;
    let sparse_n = 200 / s;
    let grid_side = 12 / s;
    let rgg_n = 150 / s;
    let clique_side = 5;
    vec![
        (
            format!("G({gnp_n}, 0.5)"),
            Box::new(move |seed| generators::gnp(gnp_n, 0.5, &mut SmallRng::seed_from_u64(seed)))
                as WorkloadGen,
        ),
        (
            format!("G({sparse_n}, 0.1)"),
            Box::new(move |seed| {
                generators::gnp(sparse_n, 0.1, &mut SmallRng::seed_from_u64(seed))
            }),
        ),
        (
            format!("grid {grid_side}×{grid_side}"),
            Box::new(move |_| generators::grid2d(grid_side, grid_side)),
        ),
        (
            format!("RGG({rgg_n}, 0.15)"),
            Box::new(move |seed| {
                generators::random_geometric(rgg_n, 0.15, &mut SmallRng::seed_from_u64(seed))
            }),
        ),
        (
            format!("cliques m={clique_side}"),
            Box::new(move |_| generators::theorem1_family(clique_side)),
        ),
    ]
}

/// One trial of the whole field on one surface: the sequential greedy
/// size anchor plus every family, all on the same [`GraphView`].
fn trial_on<G: GraphView + ?Sized>(g: &G, trial_seed: u64) -> (f64, Vec<(f64, f64, f64)>) {
    let mut rng = SmallRng::seed_from_u64(alg_seed(trial_seed, alg::GREEDY));
    let greedy = random_greedy_mis(g, &mut rng).len() as f64;
    let config = SimConfig::default();
    let seed = alg_seed(trial_seed, alg::CONTENDER);
    let runs: Vec<(f64, f64, f64)> = field()
        .iter()
        .map(|(family, _)| family.dispatch(&config, Verified { g, seed }))
        .collect();
    (greedy, runs)
}

/// Runs the race, fanning trials out over `ctx.jobs` workers.
///
/// # Panics
///
/// Panics if any family fails on any workload (a correctness bug).
#[must_use]
pub fn run(config: &RaceConfig, ctx: &RunContext) -> RaceResults {
    assert!(config.trials > 0, "need at least one trial");
    let mut results = Vec::new();
    for (wi, (name, make_graph)) in workloads(config.scale).into_iter().enumerate() {
        let master = stage_seed(config.seed, experiment::RACE, wi as u64);
        let surface = config.surface;
        let per_trial = ctx.run_trials(config.trials, master, |trial_seed, _| {
            let g = make_graph(trial_seed);
            // The view is rebuilt from the base CSR inside the trial (the
            // same purity contract as `Engine::run`), so trials stay
            // independent and job-count invariant.
            match surface {
                RaceSurface::Base => trial_on(&g, trial_seed),
                RaceSurface::Line => trial_on(&LineGraphView::new(&g), trial_seed),
                RaceSurface::Product => trial_on(&ProductView::new(&g, 3), trial_seed),
                RaceSurface::Induced => {
                    let even: Vec<NodeId> = (0..g.node_count() as NodeId).step_by(2).collect();
                    trial_on(&InducedView::new(&g, &even), trial_seed)
                }
            }
        });
        let contenders = field()
            .into_iter()
            .enumerate()
            .map(|(ci, (family, label))| FamilyStats {
                family,
                label,
                rounds: per_trial.iter().map(|(_, runs)| runs[ci].0).collect(),
                mis_size: per_trial.iter().map(|(_, runs)| runs[ci].1).collect(),
                bits_per_channel: per_trial.iter().map(|(_, runs)| runs[ci].2).collect(),
            })
            .collect();
        results.push(WorkloadResults {
            name: format!("{name}{}", surface.label()),
            contenders,
            greedy_size: per_trial.iter().map(|&(g, _)| g).collect(),
        });
    }
    RaceResults { workloads: results }
}

impl WorkloadResults {
    /// The per-workload table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::with_columns(&[
            "algorithm",
            "rounds mean",
            "rounds sd",
            "MIS size",
            "bits/channel",
        ]);
        t.numeric();
        for c in &self.contenders {
            t.push_row(vec![
                c.label.to_owned(),
                format!("{:.1}", c.rounds.mean()),
                format!("{:.1}", c.rounds.std_dev()),
                format!("{:.1}", c.mis_size.mean()),
                format!("{:.1}", c.bits_per_channel.mean()),
            ]);
        }
        t.push_row(vec![
            "greedy sequential (size anchor)".into(),
            "-".into(),
            "-".into(),
            format!("{:.1}", self.greedy_size.mean()),
            "-".into(),
        ]);
        t
    }
}

impl RaceResults {
    /// Full markdown body: one table per workload plus the headline
    /// comparison.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for w in &self.workloads {
            out.push_str(&format!("### {}\n\n{}\n", w.name, w.table().to_markdown()));
        }
        out.push_str(
            "Expected shape: feedback ≈ Luby on rounds (both O(log n)), sweep \
             noticeably slower (O(log² n) pressure), feedback lowest on \
             bits/channel (O(1), Theorem 6), Luby priority highest (64-bit \
             values every round), Métivier low (O(log n) duel bits).\n",
        );
        out
    }

    /// Convenience lookup of one family's mean rounds on workload `w`.
    #[must_use]
    pub fn mean_rounds(&self, workload: usize, family: &Family) -> Option<f64> {
        self.workloads
            .get(workload)?
            .contenders
            .iter()
            .find_map(|c| (c.family == *family).then(|| c.rounds.mean()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RaceResults {
        run(
            &RaceConfig {
                trials: 4,
                seed: 77,
                scale: 3,
                surface: RaceSurface::Base,
            },
            &RunContext::default(),
        )
    }

    #[test]
    fn race_produces_all_cells() {
        let results = tiny();
        assert_eq!(results.workloads.len(), 5);
        for w in &results.workloads {
            assert_eq!(w.contenders.len(), 7);
            for c in &w.contenders {
                assert!(c.rounds.mean() >= 1.0, "{} on {}", c.label, w.name);
                assert!(c.mis_size.mean() >= 1.0);
            }
            assert!(w.greedy_size.mean() >= 1.0);
        }
    }

    #[test]
    fn feedback_bits_below_luby_bits() {
        let results = tiny();
        for w in &results.workloads {
            let feedback = w
                .contenders
                .iter()
                .find(|c| c.family == Family::Beeping(Algorithm::feedback()))
                .unwrap();
            let luby = w
                .contenders
                .iter()
                .find(|c| c.family == Family::LubyPriority)
                .unwrap();
            assert!(
                feedback.bits_per_channel.mean() < luby.bits_per_channel.mean(),
                "bits/channel on {}: feedback {} !< luby {}",
                w.name,
                feedback.bits_per_channel.mean(),
                luby.bits_per_channel.mean()
            );
        }
    }

    #[test]
    fn derived_surface_races_fill_every_cell() {
        // The derived-graph race: all seven families on the same lazy
        // view, every surface, with the correctness checks of run_engine
        // live on every run.
        for surface in [
            RaceSurface::Line,
            RaceSurface::Product,
            RaceSurface::Induced,
        ] {
            let results = run(
                &RaceConfig {
                    trials: 2,
                    seed: 5,
                    scale: 3,
                    surface,
                },
                &RunContext::default(),
            );
            assert_eq!(results.workloads.len(), 5, "{}", surface.name());
            for w in &results.workloads {
                assert!(w.name.ends_with(surface.label().trim_start()), "{}", w.name);
                assert_eq!(w.contenders.len(), 7);
                for c in &w.contenders {
                    assert!(c.rounds.mean() >= 1.0, "{} on {}", c.label, w.name);
                }
            }
        }
    }

    #[test]
    fn surface_names_parse_and_label() {
        for surface in [
            RaceSurface::Base,
            RaceSurface::Line,
            RaceSurface::Product,
            RaceSurface::Induced,
        ] {
            assert_eq!(RaceSurface::parse(surface.name()), Some(surface));
        }
        assert_eq!(RaceSurface::parse("torus"), None);
        assert_eq!(RaceSurface::default(), RaceSurface::Base);
        assert!(RaceSurface::Base.label().is_empty());
        assert!(RaceSurface::Line.label().contains("L(G)"));
        let config = RaceConfig::quick().on(RaceSurface::Line);
        assert_eq!(config.surface, RaceSurface::Line);
    }

    #[test]
    fn render_contains_every_workload() {
        let results = tiny();
        let body = results.render();
        for w in &results.workloads {
            assert!(body.contains(&w.name));
        }
        assert!(body.contains("greedy sequential"));
        let feedback = Family::Beeping(Algorithm::feedback());
        assert!(results.mean_rounds(0, &feedback).is_some());
        assert!(results.mean_rounds(9, &feedback).is_none());
    }
}
