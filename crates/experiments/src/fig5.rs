//! Figure 5: mean beeps per node on `G(n, ½)`.
//!
//! The paper runs both algorithms for `n` up to 200 with 200 trials per
//! point: the sweep's beeps per node grow with `n`, while the feedback
//! algorithm stays flat around 1.1 (Theorem 6 proves an `O(1)` bound).
//! §5 further notes that the *informed* Science'11 schedule — probabilities
//! computed from `n` and `Δ` — also keeps beeps bounded; the optional
//! third series verifies that claim.

use mis_core::{solve_mis, Algorithm};
use mis_graph::generators;
use mis_stats::{AsciiPlot, ModelCurve, ModelFit, Series};
use rand::{rngs::SmallRng, SeedableRng};

use crate::report::series_table;
use crate::seeds::{alg, alg_seed, experiment, stage_seed};
use crate::{RunContext, SeriesPoint};

/// Configuration for the Figure 5 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Config {
    /// Graph sizes to sweep.
    pub sizes: Vec<usize>,
    /// Trials per point (paper: 200).
    pub trials: usize,
    /// Edge probability (paper: ½).
    pub edge_probability: f64,
    /// Also measure the Science'11 informed schedule (§5's constant-beeps
    /// claim).
    pub include_science: bool,
    /// Master seed.
    pub seed: u64,
}

impl Fig5Config {
    /// The paper's settings: `n = 20, 40, …, 200`, 200 trials.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            sizes: (1..=10).map(|k| k * 20).collect(),
            trials: 200,
            edge_probability: 0.5,
            include_science: false,
            seed: 2013,
        }
    }

    /// A fast smoke-test variant.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            sizes: vec![20, 60, 120],
            trials: 25,
            edge_probability: 0.5,
            include_science: false,
            seed: 2013,
        }
    }

    /// Enables the Science'11 series.
    #[must_use]
    pub fn with_science(mut self) -> Self {
        self.include_science = true;
        self
    }
}

impl Default for Fig5Config {
    fn default() -> Self {
        Self::paper()
    }
}

/// Measured series for Figure 5.
#[derive(Debug, Clone)]
pub struct Fig5Results {
    /// Mean beeps per node of the sweep, per size.
    pub sweep: Vec<SeriesPoint>,
    /// Mean beeps per node of the feedback algorithm, per size.
    pub feedback: Vec<SeriesPoint>,
    /// Mean beeps per node of the Science'11 schedule, when enabled.
    pub science: Option<Vec<SeriesPoint>>,
    /// Constant-model fit of the feedback series (Theorem 6's shape).
    pub feedback_constant_fit: ModelFit,
}

/// Runs the experiment (paired trials on shared graphs).
///
/// # Panics
///
/// Panics if the configuration has no sizes or zero trials.
#[must_use]
pub fn run(config: &Fig5Config, ctx: &RunContext) -> Fig5Results {
    assert!(!config.sizes.is_empty(), "need at least one size");
    assert!(config.trials > 0, "need at least one trial");
    let mut sweep = Vec::new();
    let mut feedback = Vec::new();
    let mut science: Option<Vec<SeriesPoint>> = config.include_science.then(Vec::new);
    for (si, &n) in config.sizes.iter().enumerate() {
        let master = stage_seed(config.seed, experiment::FIG5, si as u64);
        let samples = ctx.run_trials(config.trials, master, |trial_seed, _| {
            let mut graph_rng = SmallRng::seed_from_u64(trial_seed);
            let g = generators::gnp(n, config.edge_probability, &mut graph_rng);
            let s = solve_mis(&g, &Algorithm::sweep(), alg_seed(trial_seed, alg::SWEEP))
                .expect("sweep terminates")
                .mean_beeps_per_node();
            let f = solve_mis(
                &g,
                &Algorithm::feedback(),
                alg_seed(trial_seed, alg::FEEDBACK),
            )
            .expect("feedback terminates")
            .mean_beeps_per_node();
            let sci = if config.include_science {
                solve_mis(
                    &g,
                    &Algorithm::science(),
                    alg_seed(trial_seed, alg::SCIENCE),
                )
                .expect("science terminates")
                .mean_beeps_per_node()
            } else {
                0.0
            };
            (s, f, sci)
        });
        sweep.push(SeriesPoint::from_samples(
            n as f64,
            samples.iter().map(|&(s, _, _)| s),
        ));
        feedback.push(SeriesPoint::from_samples(
            n as f64,
            samples.iter().map(|&(_, f, _)| f),
        ));
        if let Some(sci_series) = science.as_mut() {
            sci_series.push(SeriesPoint::from_samples(
                n as f64,
                samples.iter().map(|&(_, _, c)| c),
            ));
        }
    }

    let ns: Vec<f64> = config.sizes.iter().map(|&n| n as f64).collect();
    let feedback_means: Vec<f64> = feedback.iter().map(SeriesPoint::mean).collect();
    Fig5Results {
        feedback_constant_fit: ModelFit::fit(ModelCurve::Constant, &ns, &feedback_means),
        sweep,
        feedback,
        science,
    }
}

impl Fig5Results {
    /// The figure's data table.
    #[must_use]
    pub fn table(&self) -> mis_stats::Table {
        let mut series: Vec<(&str, &[SeriesPoint])> = vec![
            ("sweep beeps/node", &self.sweep),
            ("feedback beeps/node", &self.feedback),
        ];
        if let Some(science) = &self.science {
            series.push(("science beeps/node", science));
        }
        series_table("n", &series)
    }

    /// ASCII rendition of Figure 5.
    #[must_use]
    pub fn plot(&self) -> String {
        let mut plot = AsciiPlot::new(70, 18);
        plot.labels("number of nodes n", "mean beeps per node");
        plot.add_series(Series::new(
            "sweep (global probabilities)",
            'G',
            self.sweep.iter().map(|p| (p.x, p.mean())).collect(),
        ));
        plot.add_series(Series::new(
            "feedback (local probabilities)",
            'L',
            self.feedback.iter().map(|p| (p.x, p.mean())).collect(),
        ));
        if let Some(science) = &self.science {
            plot.add_series(Series::new(
                "science (informed schedule)",
                'S',
                science.iter().map(|p| (p.x, p.mean())).collect(),
            ));
        }
        plot.render()
    }

    /// Full markdown body.
    #[must_use]
    pub fn render(&self) -> String {
        let growth_note = {
            let first = self.sweep.first().map_or(0.0, SeriesPoint::mean);
            let last = self.sweep.last().map_or(0.0, SeriesPoint::mean);
            format!(
                "Sweep beeps/node grow from {first:.2} to {last:.2} across the size range; \
                 feedback stays ≈ {:.2} (constant fit, R² against constant {:.3}). \
                 Paper: feedback ≈ 1.1 and flat.",
                self.feedback_constant_fit.coefficient(),
                self.feedback_constant_fit.r_squared().max(0.0)
            )
        };
        format!(
            "{}\n{growth_note}\n\n```text\n{}```\n",
            self.table().to_markdown(),
            self.plot()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feedback_is_flat_and_low() {
        let mut config = Fig5Config::quick();
        config.trials = 20;
        config.sizes = vec![20, 80, 160];
        let results = run(&config, &RunContext::default());
        for p in &results.feedback {
            assert!(
                p.mean() > 0.5 && p.mean() < 2.0,
                "feedback beeps/node {} at n = {}",
                p.mean(),
                p.x
            );
        }
        // Sweep emits more beeps than feedback at the largest size.
        let last_sweep = results.sweep.last().unwrap().mean();
        let last_feedback = results.feedback.last().unwrap().mean();
        assert!(last_sweep > last_feedback);
    }

    #[test]
    fn sweep_beeps_grow_with_n() {
        let mut config = Fig5Config::quick();
        config.trials = 20;
        config.sizes = vec![20, 160];
        let results = run(&config, &RunContext::default());
        assert!(results.sweep[1].mean() > results.sweep[0].mean());
    }

    #[test]
    fn science_series_is_bounded() {
        let mut config = Fig5Config::quick().with_science();
        config.trials = 10;
        config.sizes = vec![30, 120];
        let results = run(&config, &RunContext::default());
        let science = results.science.as_ref().unwrap();
        assert_eq!(science.len(), 2);
        // §5: informed schedule keeps beeps bounded by a small constant.
        for p in science {
            assert!(p.mean() < 4.0, "science beeps/node {} at {}", p.mean(), p.x);
        }
        assert!(results.render().contains("science beeps/node"));
    }

    #[test]
    fn render_has_table_and_plot() {
        let mut config = Fig5Config::quick();
        config.trials = 4;
        config.sizes = vec![24, 48];
        let results = run(&config, &RunContext::default());
        let body = results.render();
        assert!(body.contains("feedback beeps/node"));
        assert!(body.contains("```text"));
    }
}
