//! SOP selection-time statistics across the in-silico model family.
//!
//! §1 of the paper recounts that Afek et al. settled on the *stochastic
//! rate change* accumulation model because the statistics of observed SOP
//! selection times ruled out simpler variants. This experiment replays
//! that comparison on simulated tissue: all three accumulation models run
//! on the same hexagonal epithelium, and their selection-time
//! distributions are compared by dispersion (coefficient of variation)
//! and pairwise Kolmogorov–Smirnov distance. The discrete feedback
//! algorithm runs on the same tissue as the algorithmic reference: its
//! pattern density should match the biological models' (it is the same
//! MIS problem), while its round count is far smaller.

use mis_biology::sop::{run_sop_selection, AccumulationModel, SopParams};
use mis_core::{solve_mis, Algorithm};
use mis_graph::generators;
use mis_stats::{ks_test, OnlineStats, Table};
use rand::{rngs::SmallRng, SeedableRng};

use crate::seeds::{experiment, stage_seed};
use crate::RunContext;

/// Configuration for the SOP-timing experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct SopConfig {
    /// Trials per model.
    pub trials: usize,
    /// Hex-tissue side length (rows = cols).
    pub side: usize,
    /// Master seed.
    pub seed: u64,
}

impl SopConfig {
    /// Full-scale settings.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            trials: 40,
            side: 10,
            seed: 2013,
        }
    }

    /// A fast smoke-test variant.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            trials: 6,
            side: 6,
            seed: 2013,
        }
    }
}

impl Default for SopConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Per-model selection statistics.
#[derive(Debug, Clone)]
pub struct SopRow {
    /// Model label.
    pub name: &'static str,
    /// Mean selection step across all SOPs and trials.
    pub mean_time: OnlineStats,
    /// Coefficient of variation of selection times per trial.
    pub cv: OnlineStats,
    /// Collision events per trial.
    pub collisions: OnlineStats,
    /// Selected SOPs as a fraction of cells.
    pub density: OnlineStats,
    /// Pooled selection times for distribution tests.
    pub pooled_times: Vec<f64>,
}

/// Results of the SOP-timing experiment.
#[derive(Debug, Clone)]
pub struct SopResults {
    /// One row per accumulation model.
    pub rows: Vec<SopRow>,
    /// The discrete feedback algorithm's SOP density on the same tissue.
    pub algorithm_density: OnlineStats,
    /// The discrete algorithm's rounds on the same tissue.
    pub algorithm_rounds: OnlineStats,
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics on zero trials or if any run fails to complete (a bug: the
/// models are guaranteed to terminate well within the step cap).
#[must_use]
pub fn run(config: &SopConfig, ctx: &RunContext) -> SopResults {
    assert!(config.trials > 0, "need at least one trial");
    let tissue = generators::hex_grid(config.side, config.side);
    let cells = tissue.node_count() as f64;

    let rows = AccumulationModel::all()
        .into_iter()
        .enumerate()
        .map(|(mi, model)| {
            let master = stage_seed(config.seed, experiment::SOP_MODEL, mi as u64);
            let samples = ctx.run_trials(config.trials, master, |trial_seed, _| {
                let outcome = run_sop_selection(
                    &tissue,
                    SopParams::for_model(model),
                    &mut SmallRng::seed_from_u64(trial_seed),
                );
                assert!(outcome.completed(), "{} hit the step cap", model.name());
                let times = outcome.times();
                let mean = times.iter().sum::<f64>() / times.len().max(1) as f64;
                (
                    mean,
                    outcome.selection_time_cv().unwrap_or(0.0),
                    outcome.collisions() as f64,
                    outcome.selected().len() as f64 / cells,
                    times,
                )
            });
            SopRow {
                name: model.name(),
                mean_time: samples.iter().map(|&(m, _, _, _, _)| m).collect(),
                cv: samples.iter().map(|&(_, c, _, _, _)| c).collect(),
                collisions: samples.iter().map(|&(_, _, c, _, _)| c).collect(),
                density: samples.iter().map(|&(_, _, _, d, _)| d).collect(),
                pooled_times: samples.into_iter().flat_map(|(_, _, _, _, t)| t).collect(),
            }
        })
        .collect();

    let alg_master = stage_seed(config.seed, experiment::SOP_ALG, 0);
    let alg = ctx.run_trials(config.trials, alg_master, |trial_seed, _| {
        let result = solve_mis(&tissue, &Algorithm::feedback(), trial_seed).expect("terminates");
        (
            result.mis().len() as f64 / cells,
            f64::from(result.rounds()),
        )
    });
    SopResults {
        rows,
        algorithm_density: alg.iter().map(|&(d, _)| d).collect(),
        algorithm_rounds: alg.iter().map(|&(_, r)| r).collect(),
    }
}

impl SopResults {
    /// The per-model statistics table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::with_columns(&[
            "model",
            "mean selection step",
            "CV of times",
            "collisions/trial",
            "SOP density",
        ]);
        t.numeric();
        for row in &self.rows {
            t.push_row(vec![
                row.name.to_owned(),
                format!("{:.1}", row.mean_time.mean()),
                format!("{:.2}", row.cv.mean()),
                format!("{:.1}", row.collisions.mean()),
                format!("{:.3}", row.density.mean()),
            ]);
        }
        t.push_row(vec![
            "feedback algorithm (rounds)".into(),
            format!("{:.1}", self.algorithm_rounds.mean()),
            "—".into(),
            "—".into(),
            format!("{:.3}", self.algorithm_density.mean()),
        ]);
        t
    }

    /// Pairwise KS distances between the models' pooled selection-time
    /// distributions.
    #[must_use]
    pub fn ks_table(&self) -> Table {
        let mut t = Table::with_columns(&["model pair", "KS distance", "p-value"]);
        t.numeric();
        for i in 0..self.rows.len() {
            for j in i + 1..self.rows.len() {
                let ks = ks_test(&self.rows[i].pooled_times, &self.rows[j].pooled_times);
                t.push_row(vec![
                    format!("{} vs {}", self.rows[i].name, self.rows[j].name),
                    format!("{:.3}", ks.statistic),
                    format!("{:.2e}", ks.p_value),
                ]);
            }
        }
        t
    }

    /// Full markdown body.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}\nAll three in-silico models and the discrete algorithm settle \
             on the same pattern class (SOP densities agree within a few \
             percent — it is the same MIS problem). What separates them is \
             *timing*: the fixed-rate model's selection times are the most \
             regular (lowest CV), the drawn-once-rate model is the most \
             dispersed, and the stochastic-rate-change model sits between — \
             the dispersion signature Afek et al. matched against fly data.\n\n\
             ### Distribution separation (pairwise two-sample KS)\n\n{}\n\
             The KS distances confirm the three models are distinguishable \
             from timing statistics alone, which is how the Science'11 \
             analysis selected among them.\n",
            self.table().to_markdown(),
            self.ks_table().to_markdown(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sop_experiment_is_sane() {
        let results = run(
            &SopConfig {
                trials: 4,
                side: 6,
                seed: 3,
            },
            &RunContext::default(),
        );
        assert_eq!(results.rows.len(), 3);
        for row in &results.rows {
            assert!(
                row.density.mean() > 0.1 && row.density.mean() < 0.5,
                "{}",
                row.name
            );
            assert!(!row.pooled_times.is_empty());
        }
        // Pattern density agrees with the discrete algorithm's ballpark.
        let bio = results.rows[2].density.mean();
        let alg = results.algorithm_density.mean();
        assert!((bio - alg).abs() < 0.15, "bio {bio} vs algorithm {alg}");
    }

    #[test]
    fn fixed_rate_is_least_dispersed() {
        let results = run(
            &SopConfig {
                trials: 6,
                side: 8,
                seed: 7,
            },
            &RunContext::default(),
        );
        let fixed = results
            .rows
            .iter()
            .find(|r| r.name == "fixed rate")
            .unwrap();
        let once = results
            .rows
            .iter()
            .find(|r| r.name == "random rate (once)")
            .unwrap();
        assert!(
            fixed.cv.mean() < once.cv.mean(),
            "fixed CV {} should be below random-once CV {}",
            fixed.cv.mean(),
            once.cv.mean()
        );
    }

    #[test]
    fn ks_separates_fixed_from_random_once() {
        let results = run(
            &SopConfig {
                trials: 6,
                side: 8,
                seed: 9,
            },
            &RunContext::default(),
        );
        let fixed = &results.rows[0].pooled_times;
        let once = &results.rows[1].pooled_times;
        let ks = ks_test(fixed, once);
        assert!(ks.significant_at(0.01), "{ks}");
    }

    #[test]
    fn render_has_both_tables() {
        let results = run(
            &SopConfig {
                trials: 3,
                side: 5,
                seed: 1,
            },
            &RunContext::default(),
        );
        let text = results.render();
        assert!(text.contains("KS"));
        assert!(text.contains("feedback algorithm"));
    }
}
