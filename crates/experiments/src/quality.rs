//! MIS-size quality: how large are the selected sets?
//!
//! The paper's introduction stresses that different MISes of one graph
//! “can vary greatly in size” and that the *maximum* independent set is
//! NP-hard. This experiment quantifies where the distributed algorithms
//! land between the greedy baseline and the exact optimum `α(G)` (computed
//! by branch and bound on small graphs).

use mis_baselines::exact::maximum_independent_set;
use mis_core::verify::random_greedy_mis;
use mis_core::{solve_mis, Algorithm};
use mis_graph::{generators, Graph};
use mis_stats::{OnlineStats, Table};
use rand::{rngs::SmallRng, SeedableRng};

use crate::seeds::{alg, alg_seed, experiment, stage_seed};
use crate::RunContext;

/// Configuration for the quality experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityConfig {
    /// Trials per workload (each draws a fresh graph where applicable).
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
}

impl QualityConfig {
    /// Full-scale settings.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            trials: 40,
            seed: 2013,
        }
    }

    /// A fast smoke-test variant.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            trials: 8,
            seed: 2013,
        }
    }
}

impl Default for QualityConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Per-workload quality measurements.
#[derive(Debug, Clone)]
pub struct QualityRow {
    /// Workload label.
    pub name: String,
    /// Exact independence number `α(G)` (mean across trial graphs).
    pub alpha: OnlineStats,
    /// Feedback MIS size.
    pub feedback: OnlineStats,
    /// Sweep MIS size.
    pub sweep: OnlineStats,
    /// Random-order greedy MIS size.
    pub greedy: OnlineStats,
}

impl QualityRow {
    /// Feedback size as a fraction of the optimum.
    #[must_use]
    pub fn feedback_ratio(&self) -> f64 {
        if self.alpha.mean() == 0.0 {
            1.0
        } else {
            self.feedback.mean() / self.alpha.mean()
        }
    }
}

/// Results of the quality experiment.
#[derive(Debug, Clone)]
pub struct QualityResults {
    /// One row per workload.
    pub rows: Vec<QualityRow>,
}

type QualityGen = Box<dyn Fn(u64) -> Graph + Sync>;

fn workloads() -> Vec<(String, QualityGen)> {
    vec![
        (
            "G(24, 0.2)".into(),
            Box::new(|seed| generators::gnp(24, 0.2, &mut SmallRng::seed_from_u64(seed)))
                as QualityGen,
        ),
        (
            "G(24, 0.5)".into(),
            Box::new(|seed| generators::gnp(24, 0.5, &mut SmallRng::seed_from_u64(seed))),
        ),
        ("grid 5×5".into(), Box::new(|_| generators::grid2d(5, 5))),
        ("cycle 25".into(), Box::new(|_| generators::cycle(25))),
        (
            "RGG(25, 0.3)".into(),
            Box::new(|seed| {
                generators::random_geometric(25, 0.3, &mut SmallRng::seed_from_u64(seed))
            }),
        ),
        (
            "tree 25".into(),
            Box::new(|seed| generators::random_tree(25, &mut SmallRng::seed_from_u64(seed))),
        ),
    ]
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics on zero trials or if any run fails (a correctness bug).
#[must_use]
pub fn run(config: &QualityConfig, ctx: &RunContext) -> QualityResults {
    assert!(config.trials > 0, "need at least one trial");
    let rows = workloads()
        .into_iter()
        .enumerate()
        .map(|(wi, (name, make_graph))| {
            let master = stage_seed(config.seed, experiment::QUALITY, wi as u64);
            let samples = ctx.run_trials(config.trials, master, |trial_seed, _| {
                let g = make_graph(trial_seed);
                let alpha = maximum_independent_set(&g).len() as f64;
                let feedback = solve_mis(
                    &g,
                    &Algorithm::feedback(),
                    alg_seed(trial_seed, alg::FEEDBACK),
                )
                .expect("terminates")
                .mis()
                .len() as f64;
                let sweep = solve_mis(&g, &Algorithm::sweep(), alg_seed(trial_seed, alg::SWEEP))
                    .expect("terminates")
                    .mis()
                    .len() as f64;
                let greedy = random_greedy_mis(
                    &g,
                    &mut SmallRng::seed_from_u64(alg_seed(trial_seed, alg::GREEDY)),
                )
                .len() as f64;
                (alpha, feedback, sweep, greedy)
            });
            QualityRow {
                name,
                alpha: samples.iter().map(|&(a, _, _, _)| a).collect(),
                feedback: samples.iter().map(|&(_, f, _, _)| f).collect(),
                sweep: samples.iter().map(|&(_, _, s, _)| s).collect(),
                greedy: samples.iter().map(|&(_, _, _, g)| g).collect(),
            }
        })
        .collect();
    QualityResults { rows }
}

impl QualityResults {
    /// The data table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::with_columns(&[
            "workload",
            "α(G) exact",
            "feedback",
            "sweep",
            "greedy",
            "feedback/α",
        ]);
        t.numeric();
        for row in &self.rows {
            t.push_row(vec![
                row.name.clone(),
                format!("{:.2}", row.alpha.mean()),
                format!("{:.2}", row.feedback.mean()),
                format!("{:.2}", row.sweep.mean()),
                format!("{:.2}", row.greedy.mean()),
                format!("{:.2}", row.feedback_ratio()),
            ]);
        }
        t
    }

    /// Full markdown body.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}\nAll three MIS procedures land in the same band — well below \
             the NP-hard optimum on dense graphs, near it on sparse ones — \
             because any MIS is reachable by some greedy order. The paper \
             optimises *time*, not size; this table confirms no size was \
             sacrificed relative to the classical baselines.\n",
            self.table().to_markdown()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_is_sane() {
        let results = run(
            &QualityConfig {
                trials: 5,
                seed: 11,
            },
            &RunContext::default(),
        );
        assert_eq!(results.rows.len(), 6);
        for row in &results.rows {
            // No MIS can beat the exact optimum.
            assert!(
                row.feedback.mean() <= row.alpha.mean() + 1e-9,
                "{}: feedback {} > α {}",
                row.name,
                row.feedback.mean(),
                row.alpha.mean()
            );
            assert!(row.sweep.mean() <= row.alpha.mean() + 1e-9);
            assert!(row.greedy.mean() <= row.alpha.mean() + 1e-9);
            // But it is a substantial fraction of it.
            assert!(
                row.feedback_ratio() > 0.5,
                "{}: ratio {}",
                row.name,
                row.feedback_ratio()
            );
        }
    }

    #[test]
    fn cycle_alpha_is_exact() {
        let results = run(
            &QualityConfig { trials: 2, seed: 1 },
            &RunContext::default(),
        );
        let cycle_row = results.rows.iter().find(|r| r.name == "cycle 25").unwrap();
        assert_eq!(cycle_row.alpha.mean(), 12.0); // ⌊25/2⌋
    }

    #[test]
    fn render_mentions_optimum() {
        let results = run(
            &QualityConfig { trials: 2, seed: 2 },
            &RunContext::default(),
        );
        assert!(results.render().contains("α"));
    }
}
