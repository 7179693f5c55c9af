//! Theorem 2: the termination time is `O(log n)` *with high probability*.
//!
//! Beyond the mean (Figure 3), Theorem 2 asserts an exponential tail: the
//! probability that the feedback algorithm exceeds `K·(k+1)·log n` steps
//! decays like `n^{-k}`. This experiment measures the empirical
//! distribution of termination times and its tail beyond `c · log₂ n` for
//! several `c`.

use mis_core::{solve_mis, Algorithm};
use mis_graph::generators;
use mis_stats::{Histogram, Summary, Table};
use rand::{rngs::SmallRng, SeedableRng};

use crate::seeds::{alg, alg_seed, experiment, stage_seed};
use crate::RunContext;

/// Configuration for the tail experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct TailsConfig {
    /// Graph sizes to test.
    pub sizes: Vec<usize>,
    /// Trials per size (needs to be large to resolve tails).
    pub trials: usize,
    /// Edge probability of the random graphs.
    pub edge_probability: f64,
    /// Tail thresholds as multiples of `log₂ n`.
    pub thresholds: Vec<f64>,
    /// Master seed.
    pub seed: u64,
}

impl TailsConfig {
    /// Full-scale settings.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            sizes: vec![64, 256, 1024],
            trials: 400,
            edge_probability: 0.5,
            thresholds: vec![2.5, 3.0, 4.0, 5.0],
            seed: 2013,
        }
    }

    /// A fast smoke-test variant.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            sizes: vec![64, 256],
            trials: 60,
            edge_probability: 0.5,
            thresholds: vec![2.5, 4.0],
            seed: 2013,
        }
    }
}

impl Default for TailsConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Distribution of termination times for one size.
#[derive(Debug, Clone)]
pub struct TailRow {
    /// Number of nodes.
    pub n: usize,
    /// Distribution of rounds across trials.
    pub rounds: Summary,
    /// For each configured threshold `c`: the empirical
    /// `P[rounds > c·log₂ n]`.
    pub tail_fractions: Vec<(f64, f64)>,
}

/// Results of the tail experiment.
#[derive(Debug, Clone)]
pub struct TailsResults {
    /// One row per size.
    pub rows: Vec<TailRow>,
}

/// Runs the experiment (feedback algorithm only — the paper's subject).
///
/// # Panics
///
/// Panics on degenerate configurations (no sizes, zero trials, sizes < 2).
#[must_use]
pub fn run(config: &TailsConfig, ctx: &RunContext) -> TailsResults {
    assert!(!config.sizes.is_empty(), "need at least one size");
    assert!(config.trials > 0, "need at least one trial");
    let rows = config
        .sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            assert!(n >= 2, "sizes below 2 make log₂ n degenerate");
            let master = stage_seed(config.seed, experiment::TAILS, i as u64);
            let samples = ctx.run_trials(config.trials, master, |trial_seed, _| {
                let mut graph_rng = SmallRng::seed_from_u64(trial_seed);
                let g = generators::gnp(n, config.edge_probability, &mut graph_rng);
                f64::from(
                    solve_mis(
                        &g,
                        &Algorithm::feedback(),
                        alg_seed(trial_seed, alg::FEEDBACK),
                    )
                    .expect("feedback terminates")
                    .rounds(),
                )
            });
            let rounds = Summary::from_slice(&samples);
            let log_n = (n as f64).log2();
            let tail_fractions = config
                .thresholds
                .iter()
                .map(|&c| (c, rounds.tail_fraction(c * log_n)))
                .collect();
            TailRow {
                n,
                rounds,
                tail_fractions,
            }
        })
        .collect();
    TailsResults { rows }
}

impl TailsResults {
    /// The data table: quantiles plus tail fractions.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut headers = vec![
            "n".to_owned(),
            "mean".to_owned(),
            "median".to_owned(),
            "p90".to_owned(),
            "p99".to_owned(),
            "max".to_owned(),
        ];
        if let Some(first) = self.rows.first() {
            for (c, _) in &first.tail_fractions {
                headers.push(format!("P[>{c}·log2 n]"));
            }
        }
        let mut t = Table::new(headers);
        t.numeric();
        for row in &self.rows {
            let mut cells = vec![
                row.n.to_string(),
                format!("{:.2}", row.rounds.mean()),
                format!("{:.1}", row.rounds.median()),
                format!("{:.1}", row.rounds.quantile(0.9)),
                format!("{:.1}", row.rounds.quantile(0.99)),
                format!("{:.0}", row.rounds.max()),
            ];
            for &(_, frac) in &row.tail_fractions {
                cells.push(format!("{frac:.4}"));
            }
            t.push_row(cells);
        }
        t
    }

    /// Histogram of the largest size's distribution.
    #[must_use]
    pub fn histogram(&self) -> Option<Histogram> {
        let row = self.rows.last()?;
        let lo = row.rounds.min().floor();
        let hi = row.rounds.max().ceil().max(lo + 1.0);
        let mut h = Histogram::new(lo, hi, 12);
        h.extend(row.rounds.sorted_values().iter().copied());
        Some(h)
    }

    /// Full markdown body.
    #[must_use]
    pub fn render(&self) -> String {
        let hist = self
            .histogram()
            .map(|h| {
                format!(
                    "\nDistribution at the largest n:\n\n```text\n{}```\n",
                    h.render(40)
                )
            })
            .unwrap_or_default();
        format!(
            "{}\nTheorem 2 predicts exponentially decaying tails: the \
             `P[> c·log₂ n]` columns should collapse towards 0 as c grows, \
             faster at larger n.\n{hist}",
            self.table().to_markdown()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tails_collapse_with_threshold() {
        let config = TailsConfig {
            sizes: vec![128],
            trials: 40,
            edge_probability: 0.5,
            thresholds: vec![2.0, 6.0],
            seed: 4,
        };
        let results = run(&config, &RunContext::default());
        let row = &results.rows[0];
        let loose = row.tail_fractions[0].1;
        let tight = row.tail_fractions[1].1;
        assert!(tight <= loose, "tail did not shrink: {loose} -> {tight}");
        assert!(tight < 0.2, "P[> 6 log n] = {tight} is too heavy");
        // Rounds concentrate around a few dozen for n = 128.
        assert!(row.rounds.mean() > 5.0 && row.rounds.mean() < 60.0);
    }

    #[test]
    fn table_and_histogram_render() {
        let config = TailsConfig {
            sizes: vec![32, 64],
            trials: 15,
            edge_probability: 0.5,
            thresholds: vec![3.0],
            seed: 5,
        };
        let results = run(&config, &RunContext::default());
        let body = results.render();
        assert!(body.contains("P[>3·log2 n]"));
        assert!(results.histogram().is_some());
        assert!(body.contains("Theorem 2"));
    }

    #[test]
    #[should_panic(expected = "below 2")]
    fn tiny_size_panics() {
        let config = TailsConfig {
            sizes: vec![1],
            trials: 1,
            edge_probability: 0.5,
            thresholds: vec![],
            seed: 0,
        };
        let _ = run(&config, &RunContext::default());
    }
}
