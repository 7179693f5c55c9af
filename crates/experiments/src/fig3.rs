//! Figure 3: mean rounds to select an MIS on `G(n, ½)`.
//!
//! The paper runs the DISC'11 global sweep and the feedback algorithm on
//! random graphs with edge probability ½ for `n` up to 1000, 100 trials
//! per point, and observes that the sweep tracks `(log₂ n)²` while the
//! feedback algorithm tracks `2.5 log₂ n`.

use mis_core::{solve_mis, Algorithm};
use mis_graph::generators;
use mis_stats::{
    log2_squared, mann_whitney_u, AsciiPlot, MannWhitney, ModelCurve, ModelFit, Series,
};
use rand::{rngs::SmallRng, SeedableRng};

use crate::report::series_table;
use crate::seeds::{alg, alg_seed, experiment, stage_seed};
use crate::{RunContext, SeriesPoint};

/// Configuration for the Figure 3 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Config {
    /// Graph sizes to sweep (the x-axis).
    pub sizes: Vec<usize>,
    /// Trials per point (paper: 100).
    pub trials: usize,
    /// Edge probability of the random graphs (paper: ½).
    pub edge_probability: f64,
    /// Master seed.
    pub seed: u64,
}

impl Fig3Config {
    /// The paper's settings: `n = 100, 200, …, 1000`, 100 trials.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            sizes: (1..=10).map(|k| k * 100).collect(),
            trials: 100,
            edge_probability: 0.5,
            seed: 2013,
        }
    }

    /// A fast smoke-test variant.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            sizes: vec![50, 100, 200, 400],
            trials: 15,
            edge_probability: 0.5,
            seed: 2013,
        }
    }
}

impl Default for Fig3Config {
    fn default() -> Self {
        Self::paper()
    }
}

/// Measured series and model fits for Figure 3.
#[derive(Debug, Clone)]
pub struct Fig3Results {
    /// Rounds of the global sweep algorithm, per size.
    pub sweep: Vec<SeriesPoint>,
    /// Rounds of the feedback algorithm, per size.
    pub feedback: Vec<SeriesPoint>,
    /// Best-fit coefficient of the sweep series against `(log₂ n)²`.
    pub sweep_fit: ModelFit,
    /// Best-fit coefficient of the feedback series against `log₂ n`.
    pub feedback_fit: ModelFit,
    /// Model ranked best (by R²) for the sweep series.
    pub sweep_best_model: ModelFit,
    /// Model ranked best (by R²) for the feedback series.
    pub feedback_best_model: ModelFit,
    /// Mann–Whitney U test of sweep vs feedback rounds at the largest
    /// size (two-sided).
    pub separation_test: MannWhitney,
}

/// Runs the experiment.
///
/// Each trial draws a fresh `G(n, p)` and runs *both* algorithms on the
/// same graph (paired trials reduce variance without biasing means).
///
/// # Panics
///
/// Panics if the configuration is degenerate (no sizes or zero trials).
#[must_use]
pub fn run(config: &Fig3Config, ctx: &RunContext) -> Fig3Results {
    assert!(!config.sizes.is_empty(), "need at least one size");
    assert!(config.trials > 0, "need at least one trial");
    let mut sweep = Vec::new();
    let mut feedback = Vec::new();
    let mut largest_samples: (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    for (si, &n) in config.sizes.iter().enumerate() {
        let master = stage_seed(config.seed, experiment::FIG3, si as u64);
        let samples = ctx.run_trials(config.trials, master, |trial_seed, _| {
            let mut graph_rng = SmallRng::seed_from_u64(trial_seed);
            let g = generators::gnp(n, config.edge_probability, &mut graph_rng);
            let s = solve_mis(&g, &Algorithm::sweep(), alg_seed(trial_seed, alg::SWEEP))
                .expect("sweep terminates")
                .rounds();
            let f = solve_mis(
                &g,
                &Algorithm::feedback(),
                alg_seed(trial_seed, alg::FEEDBACK),
            )
            .expect("feedback terminates")
            .rounds();
            (f64::from(s), f64::from(f))
        });
        sweep.push(SeriesPoint::from_samples(
            n as f64,
            samples.iter().map(|&(s, _)| s),
        ));
        feedback.push(SeriesPoint::from_samples(
            n as f64,
            samples.iter().map(|&(_, f)| f),
        ));
        if si + 1 == config.sizes.len() {
            largest_samples = (
                samples.iter().map(|&(s, _)| s).collect(),
                samples.iter().map(|&(_, f)| f).collect(),
            );
        }
    }

    let ns: Vec<f64> = config.sizes.iter().map(|&n| n as f64).collect();
    let sweep_means: Vec<f64> = sweep.iter().map(SeriesPoint::mean).collect();
    let feedback_means: Vec<f64> = feedback.iter().map(SeriesPoint::mean).collect();
    Fig3Results {
        sweep_fit: ModelFit::fit(ModelCurve::LogSquaredN, &ns, &sweep_means),
        feedback_fit: ModelFit::fit(ModelCurve::LogN, &ns, &feedback_means),
        sweep_best_model: ModelFit::compare_all(&ns, &sweep_means)[0],
        feedback_best_model: ModelFit::compare_all(&ns, &feedback_means)[0],
        separation_test: mann_whitney_u(&largest_samples.0, &largest_samples.1),
        sweep,
        feedback,
    }
}

impl Fig3Results {
    /// The figure's data table (markdown).
    #[must_use]
    pub fn table(&self) -> mis_stats::Table {
        series_table(
            "n",
            &[
                ("sweep rounds", &self.sweep),
                ("feedback rounds", &self.feedback),
            ],
        )
    }

    /// ASCII rendition of Figure 3 with both reference curves.
    #[must_use]
    pub fn plot(&self) -> String {
        let mut plot = AsciiPlot::new(70, 22);
        plot.labels("number of nodes n", "rounds to MIS");
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
        plot.add_curve("(log2 n)^2", '-', log2_squared, 60);
        plot.add_curve("2.5 log2 n", '.', mis_stats::feedback_reference, 60);
        plot.render()
    }

    /// Full markdown body: table, fits, shape verdict, plot.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}\nModel fits (through origin):\n\n\
             - sweep    ≈ {}\n\
             - feedback ≈ {}\n\n\
             Best-R² model selection: sweep → `{}`, feedback → `{}`.\n\n\
             Separation at the largest size (Mann–Whitney, two-sided): {}.\n\n\
             Paper's reference constants: sweep ≈ 1.0·(log₂ n)², feedback ≈ 2.5·log₂ n.\n\n\
             ```text\n{}```\n",
            self.table().to_markdown(),
            self.sweep_fit,
            self.feedback_fit,
            self.sweep_best_model.curve(),
            self.feedback_best_model.curve(),
            self.separation_test,
            self.plot()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_has_expected_shape() {
        let mut config = Fig3Config::quick();
        config.trials = 8;
        config.sizes = vec![50, 100, 200];
        let results = run(&config, &RunContext::default());
        assert_eq!(results.sweep.len(), 3);
        assert_eq!(results.feedback.len(), 3);
        // Feedback beats sweep on mean rounds at every tested size.
        for (s, f) in results.sweep.iter().zip(&results.feedback) {
            assert!(
                f.mean() < s.mean(),
                "feedback {} !< sweep {} at n = {}",
                f.mean(),
                s.mean(),
                s.x
            );
        }
        // Fit coefficients are in a sane band around the paper's values.
        assert!(
            results.sweep_fit.coefficient() > 0.4 && results.sweep_fit.coefficient() < 2.5,
            "sweep coefficient {}",
            results.sweep_fit.coefficient()
        );
        assert!(
            results.feedback_fit.coefficient() > 1.2 && results.feedback_fit.coefficient() < 5.0,
            "feedback coefficient {}",
            results.feedback_fit.coefficient()
        );
        // The separation is statistically unambiguous even at smoke scale.
        assert!(
            results.separation_test.significant_at(0.01),
            "no significant separation: {}",
            results.separation_test
        );
    }

    #[test]
    fn render_includes_table_fits_and_plot() {
        let mut config = Fig3Config::quick();
        config.trials = 3;
        config.sizes = vec![30, 60];
        let results = run(&config, &RunContext::default());
        let body = results.render();
        assert!(body.contains("sweep rounds mean"));
        assert!(body.contains("Model fits"));
        assert!(body.contains("log2 n"));
        assert!(!results.table().is_empty());
        assert!(results.plot().contains('G'));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut config = Fig3Config::quick();
        config.trials = 3;
        config.sizes = vec![40];
        let a = run(&config, &RunContext::default());
        let b = run(&config, &RunContext::default());
        assert_eq!(a.sweep[0].mean(), b.sweep[0].mean());
        assert_eq!(a.feedback[0].std_dev(), b.feedback[0].std_dev());
    }

    #[test]
    #[should_panic(expected = "at least one size")]
    fn empty_sizes_panic() {
        let mut config = Fig3Config::quick();
        config.sizes.clear();
        let _ = run(&config, &RunContext::default());
    }
}
