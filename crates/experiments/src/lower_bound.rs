//! Theorem 1: the clique-union family separates global schedules from
//! local feedback.
//!
//! The family `⋃_{d ≤ m} m · K_d` (with `m ≈ n^{1/3}`) forces any preset
//! probability sequence to spend `Ω(log² n)` rounds, because different
//! clique sizes need different probabilities and a global sequence must
//! sweep through all of them. The feedback algorithm adapts each clique
//! locally and stays at `O(log n)`.

use mis_core::{solve_mis, Algorithm};
use mis_graph::generators;
use mis_stats::{AsciiPlot, ModelCurve, ModelFit, Series};

use crate::report::series_table;
use crate::seeds::{alg, alg_seed, experiment, stage_seed};
use crate::{RunContext, SeriesPoint};

/// Configuration for the lower-bound experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerBoundConfig {
    /// Target node counts; each is rounded down to the nearest realisable
    /// family size via [`generators::theorem1_side_for_nodes`].
    pub target_sizes: Vec<usize>,
    /// Trials per point.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
}

impl LowerBoundConfig {
    /// Paper-scale settings: families up to ~10⁴ nodes.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            target_sizes: vec![100, 300, 1_000, 3_000, 10_000],
            trials: 50,
            seed: 2013,
        }
    }

    /// A fast smoke-test variant.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            target_sizes: vec![100, 500, 2_000],
            trials: 10,
            seed: 2013,
        }
    }
}

impl Default for LowerBoundConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Results of the lower-bound experiment.
#[derive(Debug, Clone)]
pub struct LowerBoundResults {
    /// Actual family sizes used (after rounding to realisable `m`).
    pub sizes: Vec<usize>,
    /// Sweep rounds per size.
    pub sweep: Vec<SeriesPoint>,
    /// Feedback rounds per size.
    pub feedback: Vec<SeriesPoint>,
    /// Sweep fitted against `(log₂ n)²`.
    pub sweep_fit: ModelFit,
    /// Sweep fitted against `log₂ n` (should fit worse).
    pub sweep_log_fit: ModelFit,
    /// Feedback fitted against `log₂ n`.
    pub feedback_fit: ModelFit,
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics if the configuration is degenerate or a target size is too small
/// to realise even `m = 1`.
#[must_use]
pub fn run(config: &LowerBoundConfig, ctx: &RunContext) -> LowerBoundResults {
    assert!(!config.target_sizes.is_empty(), "need at least one size");
    assert!(config.trials > 0, "need at least one trial");
    let mut sizes = Vec::new();
    let mut sweep = Vec::new();
    let mut feedback = Vec::new();
    for (i, &target) in config.target_sizes.iter().enumerate() {
        let side = generators::theorem1_side_for_nodes(target);
        assert!(side > 0, "target size {target} cannot realise the family");
        let g = generators::theorem1_family(side);
        let n = g.node_count();
        sizes.push(n);
        let master = stage_seed(config.seed, experiment::LOWER_BOUND, i as u64);
        let samples = ctx.run_trials(config.trials, master, |trial_seed, _| {
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
    }
    let ns: Vec<f64> = sizes.iter().map(|&n| n as f64).collect();
    let sweep_means: Vec<f64> = sweep.iter().map(SeriesPoint::mean).collect();
    let feedback_means: Vec<f64> = feedback.iter().map(SeriesPoint::mean).collect();
    LowerBoundResults {
        sweep_fit: ModelFit::fit(ModelCurve::LogSquaredN, &ns, &sweep_means),
        sweep_log_fit: ModelFit::fit(ModelCurve::LogN, &ns, &sweep_means),
        feedback_fit: ModelFit::fit(ModelCurve::LogN, &ns, &feedback_means),
        sizes,
        sweep,
        feedback,
    }
}

impl LowerBoundResults {
    /// The data table.
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

    /// ASCII plot of both series.
    #[must_use]
    pub fn plot(&self) -> String {
        let mut plot = AsciiPlot::new(70, 20);
        plot.labels("family size n", "rounds to MIS");
        plot.add_series(Series::new(
            "sweep (global)",
            'G',
            self.sweep.iter().map(|p| (p.x, p.mean())).collect(),
        ));
        plot.add_series(Series::new(
            "feedback (local)",
            'L',
            self.feedback.iter().map(|p| (p.x, p.mean())).collect(),
        ));
        plot.render()
    }

    /// The separation ratio at the largest size: sweep rounds divided by
    /// feedback rounds.
    #[must_use]
    pub fn final_separation(&self) -> f64 {
        match (self.sweep.last(), self.feedback.last()) {
            (Some(s), Some(f)) if f.mean() > 0.0 => s.mean() / f.mean(),
            _ => 0.0,
        }
    }

    /// Full markdown body.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}\nFits: sweep ≈ {} (vs log-fit R² {:.3}); feedback ≈ {}.\n\
             Separation at the largest family: sweep/feedback = {:.2}×.\n\
             Theorem 1 predicts sweep = Ω(log² n) while feedback = O(log n): \
             the sweep series should fit (log₂ n)² markedly better than \
             log₂ n, and the gap should widen with n.\n\n```text\n{}```\n",
            self.table().to_markdown(),
            self.sweep_fit,
            self.sweep_log_fit.r_squared(),
            self.feedback_fit,
            self.final_separation(),
            self.plot()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separation_shows_up_even_quickly() {
        let config = LowerBoundConfig {
            target_sizes: vec![200, 2_000],
            trials: 8,
            seed: 3,
        };
        let results = run(&config, &RunContext::default());
        assert_eq!(results.sizes.len(), 2);
        // Feedback is faster at both sizes and the ratio grows.
        let r0 = results.sweep[0].mean() / results.feedback[0].mean();
        let r1 = results.final_separation();
        assert!(r1 > 1.0, "no separation at the largest size: {r1}");
        assert!(
            r1 > r0 * 0.8,
            "separation shrank sharply: {r0} -> {r1} (noise allowance exceeded)"
        );
    }

    #[test]
    fn sizes_are_realised_family_sizes() {
        let config = LowerBoundConfig {
            target_sizes: vec![100],
            trials: 2,
            seed: 1,
        };
        let results = run(&config, &RunContext::default());
        let m = generators::theorem1_side_for_nodes(100);
        assert_eq!(results.sizes[0], m * m * (m + 1) / 2);
    }

    #[test]
    fn render_mentions_theorem() {
        let config = LowerBoundConfig {
            target_sizes: vec![100, 400],
            trials: 3,
            seed: 2,
        };
        let body = run(&config, &RunContext::default()).render();
        assert!(body.contains("Theorem 1"));
        assert!(body.contains("sweep rounds mean"));
    }
}
