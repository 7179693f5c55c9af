//! MIS as a building block: matching, colouring and backbone election.
//!
//! The paper's conclusion claims that MIS selection “can also be used as a
//! fundamental building block in algorithms for many other problems in
//! distributed computing”. This experiment substantiates the claim with
//! the reductions of `mis-apps`: every application below runs the beeping
//! feedback algorithm (and the DISC'11 sweep, for comparison) as its only
//! distributed primitive and inherits its round behaviour.
//!
//! All three tables fan their trials out through
//! [`RunContext::run_trials`] — the unified work-stealing batch path — and
//! each per-trial application run executes through an [`AppEngine`] (the
//! `Engine` implementation for the reductions), so `xp apps --jobs N`
//! parallelises one of the slowest figures in the repo with bit-identical
//! tables for any job count and the derived graphs stay lazy views (no
//! line-graph or product materialisation per trial).

use mis_apps::{coloring, dominating, matching, AppEngine};
use mis_beeping::rng::trial_seed;
use mis_core::engine::Engine as _;
use mis_core::Algorithm;
use mis_graph::{generators, ops, Graph};
use mis_stats::{OnlineStats, Table};
use rand::{rngs::SmallRng, SeedableRng};

use crate::seeds::{experiment, stage_seed};
use crate::RunContext;

/// Per-algorithm sub-stream tags. Each one is mixed into the trial seed
/// through the same SplitMix64 derivation the batch planner uses
/// ([`trial_seed`]), so distinct (workload, trial, algorithm) triples get
/// fully decorrelated seeds — the previous `trial_seed ^ 0xA` / `^ 0xB`
/// derivation made adjacent algorithms' streams single-bit flips of each
/// other.
const FEEDBACK_STREAM: u64 = 0xA;
/// See [`FEEDBACK_STREAM`].
const SWEEP_STREAM: u64 = 0xB;

/// Configuration for the applications experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct AppsConfig {
    /// Trials per workload (each draws a fresh graph where applicable).
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
}

impl AppsConfig {
    /// Full-scale settings.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            trials: 30,
            seed: 2013,
        }
    }

    /// A fast smoke-test variant.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            trials: 5,
            seed: 2013,
        }
    }
}

impl Default for AppsConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Per-workload matching measurements.
#[derive(Debug, Clone)]
pub struct MatchingRow {
    /// Workload label.
    pub name: String,
    /// Matching size under the feedback algorithm.
    pub feedback_size: OnlineStats,
    /// Rounds under the feedback algorithm.
    pub feedback_rounds: OnlineStats,
    /// Rounds under the DISC'11 sweep.
    pub sweep_rounds: OnlineStats,
    /// Sequential greedy matching size (reference).
    pub greedy_size: OnlineStats,
}

/// Per-workload colouring measurements.
#[derive(Debug, Clone)]
pub struct ColoringRow {
    /// Workload label.
    pub name: String,
    /// The `Δ+1` palette bound.
    pub palette: OnlineStats,
    /// Colours used by the product reduction.
    pub product_colors: OnlineStats,
    /// Rounds of the single product MIS run.
    pub product_rounds: OnlineStats,
    /// Colours used by iterated MIS.
    pub iterated_colors: OnlineStats,
    /// Total rounds across the iterated phases.
    pub iterated_rounds: OnlineStats,
    /// Colours used by sequential first-fit (reference).
    pub greedy_colors: OnlineStats,
}

/// Per-workload backbone measurements (on connected workloads only).
#[derive(Debug, Clone)]
pub struct BackboneRow {
    /// Workload label.
    pub name: String,
    /// Elected clusterheads (= MIS size).
    pub heads: OnlineStats,
    /// Connector nodes added to join the heads.
    pub connectors: OnlineStats,
    /// Largest one-hop cluster.
    pub max_cluster: OnlineStats,
    /// Rounds of the MIS election.
    pub rounds: OnlineStats,
}

/// Results of the applications experiment.
#[derive(Debug, Clone)]
pub struct AppsResults {
    /// Matching table rows.
    pub matching: Vec<MatchingRow>,
    /// Colouring table rows.
    pub coloring: Vec<ColoringRow>,
    /// Backbone table rows.
    pub backbone: Vec<BackboneRow>,
}

type WorkloadGen = Box<dyn Fn(u64) -> Graph + Sync>;

fn workloads() -> Vec<(String, WorkloadGen)> {
    vec![
        (
            "G(60, 0.1)".into(),
            Box::new(|seed| generators::gnp(60, 0.1, &mut SmallRng::seed_from_u64(seed)))
                as WorkloadGen,
        ),
        (
            "G(60, 0.5)".into(),
            Box::new(|seed| generators::gnp(60, 0.5, &mut SmallRng::seed_from_u64(seed))),
        ),
        ("grid 8×8".into(), Box::new(|_| generators::grid2d(8, 8))),
        (
            "RGG(60, 0.22)".into(),
            Box::new(|seed| {
                generators::random_geometric(60, 0.22, &mut SmallRng::seed_from_u64(seed))
            }),
        ),
        (
            "tree 60".into(),
            Box::new(|seed| generators::random_tree(60, &mut SmallRng::seed_from_u64(seed))),
        ),
    ]
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics on zero trials or if any run fails (a correctness bug).
#[must_use]
pub fn run(config: &AppsConfig, ctx: &RunContext) -> AppsResults {
    assert!(config.trials > 0, "need at least one trial");
    let mut matching_rows = Vec::new();
    let mut coloring_rows = Vec::new();
    let mut backbone_rows = Vec::new();
    let matching_feedback = AppEngine::matching(Algorithm::feedback());
    let matching_sweep = AppEngine::matching(Algorithm::sweep());
    let product_coloring = AppEngine::coloring(Algorithm::feedback());
    let clustering_engine = AppEngine::clustering(Algorithm::feedback());
    for (wi, (name, make_graph)) in workloads().into_iter().enumerate() {
        let matching_master = stage_seed(config.seed, experiment::APPS_MATCHING, wi as u64);

        let samples = ctx.run_trials(config.trials, matching_master, |tseed, _| {
            let g = make_graph(tseed);
            let feedback = matching_feedback.run(&g, trial_seed(tseed, FEEDBACK_STREAM));
            let sweep = matching_sweep.run(&g, trial_seed(tseed, SWEEP_STREAM));
            let greedy = matching::greedy_matching(&g).len() as f64;
            assert!(
                feedback.matching().is_some() && sweep.matching().is_some(),
                "matching elections terminate and verify"
            );
            (
                feedback.app_size() as f64,
                f64::from(feedback.rounds()),
                f64::from(sweep.rounds()),
                greedy,
            )
        });
        matching_rows.push(MatchingRow {
            name: name.clone(),
            feedback_size: samples.iter().map(|&(a, _, _, _)| a).collect(),
            feedback_rounds: samples.iter().map(|&(_, b, _, _)| b).collect(),
            sweep_rounds: samples.iter().map(|&(_, _, c, _)| c).collect(),
            greedy_size: samples.iter().map(|&(_, _, _, d)| d).collect(),
        });

        let coloring_master = stage_seed(config.seed, experiment::APPS_COLORING, wi as u64);
        let samples = ctx.run_trials(config.trials, coloring_master, |tseed, _| {
            let g = make_graph(tseed);
            let product = product_coloring.run(&g, tseed);
            let product = product
                .coloring()
                .expect("Δ+1 palette cannot be exhausted")
                .clone();
            let iterated = coloring::iterated_mis_coloring(&g, &Algorithm::feedback(), tseed)
                .expect("terminates");
            let greedy = coloring::greedy_coloring(&g);
            let greedy_colors = greedy.iter().max().map_or(0, |&c| c + 1);
            (
                g.max_degree() as f64 + 1.0,
                f64::from(product.color_count()),
                f64::from(product.rounds()),
                f64::from(iterated.color_count()),
                f64::from(iterated.rounds()),
                f64::from(greedy_colors),
            )
        });
        coloring_rows.push(ColoringRow {
            name: name.clone(),
            palette: samples.iter().map(|&(a, ..)| a).collect(),
            product_colors: samples.iter().map(|&(_, b, ..)| b).collect(),
            product_rounds: samples.iter().map(|&(_, _, c, ..)| c).collect(),
            iterated_colors: samples.iter().map(|&(_, _, _, d, _, _)| d).collect(),
            iterated_rounds: samples.iter().map(|&(_, _, _, _, e, _)| e).collect(),
            greedy_colors: samples.iter().map(|&(.., f)| f).collect(),
        });

        let backbone_master = stage_seed(config.seed, experiment::APPS_BACKBONE, wi as u64);
        let samples = ctx.run_trials(config.trials, backbone_master, |tseed, _| {
            let g = make_graph(tseed);
            if !ops::is_connected(&g) {
                return None; // backbone undefined on disconnected draws
            }
            // Deliberately the same seed for both calls: the backbone row
            // describes ONE election, so the CDS must be built over the
            // same MIS the clusterheads came from (heads == CDS core);
            // decorrelating them would pair connectors with foreign heads.
            let clusters = clustering_engine.run(&g, tseed);
            let clusters = clusters.clustering().expect("terminates").clone();
            let cds = dominating::connected_dominating_set(&g, &Algorithm::feedback(), tseed)
                .expect("connected");
            debug_assert_eq!(clusters.heads(), cds.heads(), "one election, one MIS");
            Some((
                clusters.cluster_count() as f64,
                cds.connectors().len() as f64,
                clusters.max_cluster_size() as f64,
                f64::from(clusters.rounds()),
            ))
        });
        let connected: Vec<_> = samples.into_iter().flatten().collect();
        if !connected.is_empty() {
            backbone_rows.push(BackboneRow {
                name,
                heads: connected.iter().map(|&(a, _, _, _)| a).collect(),
                connectors: connected.iter().map(|&(_, b, _, _)| b).collect(),
                max_cluster: connected.iter().map(|&(_, _, c, _)| c).collect(),
                rounds: connected.iter().map(|&(_, _, _, d)| d).collect(),
            });
        }
    }
    AppsResults {
        matching: matching_rows,
        coloring: coloring_rows,
        backbone: backbone_rows,
    }
}

impl AppsResults {
    /// The matching table.
    #[must_use]
    pub fn matching_table(&self) -> Table {
        let mut t = Table::with_columns(&[
            "workload",
            "feedback |M|",
            "feedback rounds",
            "sweep rounds",
            "greedy |M|",
        ]);
        t.numeric();
        for row in &self.matching {
            t.push_row(vec![
                row.name.clone(),
                format!("{:.2}", row.feedback_size.mean()),
                format!("{:.1}", row.feedback_rounds.mean()),
                format!("{:.1}", row.sweep_rounds.mean()),
                format!("{:.2}", row.greedy_size.mean()),
            ]);
        }
        t
    }

    /// The colouring table.
    #[must_use]
    pub fn coloring_table(&self) -> Table {
        let mut t = Table::with_columns(&[
            "workload",
            "Δ+1",
            "product colours",
            "product rounds",
            "iterated colours",
            "iterated rounds",
            "greedy colours",
        ]);
        t.numeric();
        for row in &self.coloring {
            t.push_row(vec![
                row.name.clone(),
                format!("{:.1}", row.palette.mean()),
                format!("{:.2}", row.product_colors.mean()),
                format!("{:.1}", row.product_rounds.mean()),
                format!("{:.2}", row.iterated_colors.mean()),
                format!("{:.1}", row.iterated_rounds.mean()),
                format!("{:.2}", row.greedy_colors.mean()),
            ]);
        }
        t
    }

    /// The backbone table.
    #[must_use]
    pub fn backbone_table(&self) -> Table {
        let mut t =
            Table::with_columns(&["workload", "heads", "connectors", "max cluster", "rounds"]);
        t.numeric();
        for row in &self.backbone {
            t.push_row(vec![
                row.name.clone(),
                format!("{:.2}", row.heads.mean()),
                format!("{:.2}", row.connectors.mean()),
                format!("{:.2}", row.max_cluster.mean()),
                format!("{:.1}", row.rounds.mean()),
            ]);
        }
        t
    }

    /// Full markdown body.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "### Maximal matching (MIS on the line graph)\n\n{}\n\
             Feedback needs fewer rounds than the sweep on every workload, \
             mirroring Figure 3 on the line graph; matching sizes track the \
             sequential greedy reference.\n\n\
             ### (Δ+1)-colouring (product reduction vs iterated MIS)\n\n{}\n\
             Both distributed reductions stay within the Δ+1 palette. The \
             product reduction pays one larger MIS instance; iterated MIS \
             pays several small ones.\n\n\
             ### Clusterheads & connected backbone (connected draws only)\n\n{}\n\
             Heads are the MIS; adding ≤2 connectors per virtual edge keeps \
             the backbone within 3× the head count.\n",
            self.matching_table().to_markdown(),
            self.coloring_table().to_markdown(),
            self.backbone_table().to_markdown(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_algorithm_seed_streams_are_well_separated() {
        // Regression test for the old `trial_seed ^ 0xA` / `^ 0xB`
        // derivation, which handed adjacent algorithms single-bit-flip
        // seeds. Every (workload, trial, algorithm) triple must now map to
        // a distinct seed, and no two seeds may be near-collisions in
        // Hamming distance (well-mixed 64-bit values differ in ≈32 bits;
        // anything below 10 would indicate structured correlation).
        let mut seeds = Vec::new();
        for wi in 0..5u64 {
            let master = stage_seed(2013, experiment::APPS_MATCHING, wi);
            let plan = mis_core::BatchPlan::new(master, 4);
            for t in 0..4 {
                let tseed = plan.run_seed(t);
                for tag in [FEEDBACK_STREAM, SWEEP_STREAM] {
                    seeds.push(trial_seed(tseed, tag));
                }
            }
        }
        for i in 0..seeds.len() {
            for j in (i + 1)..seeds.len() {
                // detlint: allow(D02) -- Hamming-distance probe comparing seeds, not deriving one
                let dist = (seeds[i] ^ seeds[j]).count_ones();
                assert!(
                    dist >= 10,
                    "seeds {i} and {j} differ in only {dist} bits \
                     ({:#x} vs {:#x})",
                    seeds[i],
                    seeds[j]
                );
            }
        }
    }

    #[test]
    fn apps_experiment_is_sane() {
        let results = run(&AppsConfig { trials: 3, seed: 7 }, &RunContext::default());
        assert_eq!(results.matching.len(), 5);
        assert_eq!(results.coloring.len(), 5);
        assert!(!results.backbone.is_empty());
        for row in &results.matching {
            // Two maximal matchings are within a factor 2 of each other.
            assert!(row.feedback_size.mean() * 2.0 >= row.greedy_size.mean());
            assert!(row.feedback_size.mean() > 0.0);
        }
        for row in &results.coloring {
            assert!(row.product_colors.mean() <= row.palette.mean() + 1e-9);
            assert!(row.iterated_colors.mean() <= row.palette.mean() + 1e-9);
        }
    }

    #[test]
    fn grid_palette_is_five() {
        let results = run(&AppsConfig { trials: 2, seed: 3 }, &RunContext::default());
        let grid = results
            .coloring
            .iter()
            .find(|r| r.name == "grid 8×8")
            .unwrap();
        assert_eq!(grid.palette.mean(), 5.0); // Δ = 4 on an interior-heavy grid
    }

    #[test]
    fn backbone_heads_dominate_grid() {
        let results = run(&AppsConfig { trials: 2, seed: 5 }, &RunContext::default());
        let grid = results
            .backbone
            .iter()
            .find(|r| r.name == "grid 8×8")
            .unwrap();
        // An MIS on an 8×8 grid has between 16 (perfect spacing) and 32 nodes.
        assert!(grid.heads.mean() >= 16.0 - 1e-9);
        assert!(grid.heads.mean() <= 32.0 + 1e-9);
    }

    #[test]
    fn render_has_three_sections() {
        let results = run(&AppsConfig { trials: 2, seed: 9 }, &RunContext::default());
        let text = results.render();
        assert!(text.contains("Maximal matching"));
        assert!(text.contains("colouring"));
        assert!(text.contains("backbone"));
    }
}
