//! §5 / Theorem 6: beeps per node are `O(1)` — ≈1.1 on grids and `G(n,½)`.

use mis_core::{solve_mis, Algorithm};
use mis_graph::generators;
use mis_stats::Table;

use crate::seeds::{experiment, stage_seed};
use crate::{RunContext, SeriesPoint};

/// Configuration for the grid beeps experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct GridBeepsConfig {
    /// Grid shapes `(rows, cols)` to measure.
    pub grids: Vec<(usize, usize)>,
    /// Trials per shape (paper: 200 for Figure 5-class data).
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
}

impl GridBeepsConfig {
    /// Paper-scale settings: grids from 25 to 1000 nodes.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            grids: vec![(5, 5), (10, 10), (10, 20), (20, 20), (20, 40), (25, 40)],
            trials: 200,
            seed: 2013,
        }
    }

    /// A fast smoke-test variant.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            grids: vec![(5, 5), (10, 10)],
            trials: 20,
            seed: 2013,
        }
    }
}

impl Default for GridBeepsConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Per-shape measurements.
#[derive(Debug, Clone)]
pub struct GridBeepsRow {
    /// Grid shape.
    pub shape: (usize, usize),
    /// Mean-beeps-per-node statistics across trials.
    pub beeps: SeriesPoint,
    /// Max-beeps-at-any-node statistics across trials.
    pub max_beeps: SeriesPoint,
    /// Rounds statistics across trials.
    pub rounds: SeriesPoint,
}

/// Results of the grid beeps experiment.
#[derive(Debug, Clone)]
pub struct GridBeepsResults {
    /// One row per grid shape.
    pub rows: Vec<GridBeepsRow>,
}

/// Runs the feedback algorithm on rectangular grids and measures beeps.
///
/// # Panics
///
/// Panics if the configuration has no grids or zero trials.
#[must_use]
pub fn run(config: &GridBeepsConfig, ctx: &RunContext) -> GridBeepsResults {
    assert!(!config.grids.is_empty(), "need at least one grid");
    assert!(config.trials > 0, "need at least one trial");
    let rows = config
        .grids
        .iter()
        .enumerate()
        .map(|(i, &(r, c))| {
            let g = generators::grid2d(r, c);
            let master = stage_seed(config.seed, experiment::GRID_BEEPS, i as u64);
            let samples = ctx.run_trials(config.trials, master, |trial_seed, _| {
                let result = solve_mis(&g, &Algorithm::feedback(), trial_seed).expect("terminates");
                (
                    result.mean_beeps_per_node(),
                    f64::from(result.outcome().metrics().max_beeps_per_node()),
                    f64::from(result.rounds()),
                )
            });
            let n = (r * c) as f64;
            GridBeepsRow {
                shape: (r, c),
                beeps: SeriesPoint::from_samples(n, samples.iter().map(|&(b, _, _)| b)),
                max_beeps: SeriesPoint::from_samples(n, samples.iter().map(|&(_, m, _)| m)),
                rounds: SeriesPoint::from_samples(n, samples.iter().map(|&(_, _, r)| r)),
            }
        })
        .collect();
    GridBeepsResults { rows }
}

impl GridBeepsResults {
    /// The data table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::with_columns(&[
            "grid",
            "n",
            "beeps/node mean",
            "beeps/node sd",
            "max beeps mean",
            "rounds mean",
        ]);
        t.numeric();
        for row in &self.rows {
            t.push_row(vec![
                format!("{}×{}", row.shape.0, row.shape.1),
                format!("{}", row.beeps.x as usize),
                format!("{:.3}", row.beeps.mean()),
                format!("{:.3}", row.beeps.std_dev()),
                format!("{:.2}", row.max_beeps.mean()),
                format!("{:.2}", row.rounds.mean()),
            ]);
        }
        t
    }

    /// Overall mean beeps per node across all shapes (the ≈1.1 claim).
    #[must_use]
    pub fn overall_mean_beeps(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(|r| r.beeps.mean()).sum::<f64>() / self.rows.len() as f64
    }

    /// Full markdown body.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}\nOverall mean beeps per node: {:.3} (paper: ≈ 1.1 on grids; \
             Theorem 6 proves O(1) expected). The flat column confirms the \
             bound does not grow with n.\n",
            self.table().to_markdown(),
            self.overall_mean_beeps()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beeps_per_node_are_constant_and_near_paper_value() {
        let config = GridBeepsConfig {
            grids: vec![(5, 5), (12, 12)],
            trials: 25,
            seed: 7,
        };
        let results = run(&config, &RunContext::default());
        for row in &results.rows {
            assert!(
                row.beeps.mean() > 0.8 && row.beeps.mean() < 1.6,
                "beeps/node {} on {:?}",
                row.beeps.mean(),
                row.shape
            );
        }
        // Constant in n: the two shapes differ 5.7× in nodes but the means
        // stay close.
        let diff = (results.rows[0].beeps.mean() - results.rows[1].beeps.mean()).abs();
        assert!(diff < 0.3, "beeps/node drift {diff}");
        let overall = results.overall_mean_beeps();
        assert!((0.8..1.6).contains(&overall));
    }

    #[test]
    fn render_and_table() {
        let config = GridBeepsConfig {
            grids: vec![(4, 4)],
            trials: 5,
            seed: 1,
        };
        let results = run(&config, &RunContext::default());
        assert!(results.table().to_csv().contains("4×4"));
        assert!(results.render().contains("Theorem 6"));
    }
}
