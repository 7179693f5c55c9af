//! Fault-injection extension: message loss and late wake-ups.
//!
//! The paper assumes a reliable synchronous network. This experiment
//! measures what actually breaks without one, and whether two local
//! repairs restore safety:
//!
//! * **plain** — the paper's algorithm verbatim;
//! * **repaired** — winners yield to simultaneous join announcements
//!   (`cautious_join`) and MIS members re-announce every round
//!   (`mis_keeps_beeping`), mirroring persistent lateral inhibition by SOP
//!   cells.
//!
//! Reported per fault level: termination rate, MIS-violation rate, and
//! rounds (for terminated runs).

use mis_beeping::FaultPlan;
use mis_core::verify::check_mis;
use mis_core::{run_algorithm, Algorithm, FeedbackConfig};
use mis_graph::generators;
use mis_stats::{OnlineStats, Table};
use rand::{rngs::SmallRng, Rng, SeedableRng};

use crate::seeds::{alg, alg_seed, experiment, stage_seed};
use crate::RunContext;

/// Configuration for the fault experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsConfig {
    /// Nodes in the `G(n, p)` workload.
    pub n: usize,
    /// Edge probability of the workload.
    pub edge_probability: f64,
    /// Message-loss probabilities to test (0 is the control).
    pub loss_rates: Vec<f64>,
    /// Fraction of nodes waking late in the wake-up scenario.
    pub sleeper_fraction: f64,
    /// Latest wake-up round.
    pub max_wake_round: u32,
    /// Trials per scenario.
    pub trials: usize,
    /// Round cap (fault runs can stall; keep it finite).
    pub max_rounds: u32,
    /// Master seed.
    pub seed: u64,
}

impl FaultsConfig {
    /// Full-scale settings.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            n: 200,
            edge_probability: 0.5,
            loss_rates: vec![0.0, 0.01, 0.05, 0.1, 0.2],
            sleeper_fraction: 0.3,
            max_wake_round: 40,
            trials: 60,
            max_rounds: 20_000,
            seed: 2013,
        }
    }

    /// A fast smoke-test variant.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            n: 80,
            edge_probability: 0.5,
            loss_rates: vec![0.0, 0.1],
            sleeper_fraction: 0.3,
            max_wake_round: 20,
            trials: 12,
            max_rounds: 10_000,
            seed: 2013,
        }
    }
}

impl Default for FaultsConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Measurements for one (scenario, variant) cell.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Scenario label (loss rate or wake-up).
    pub scenario: String,
    /// Algorithm variant label.
    pub variant: String,
    /// Fraction of trials that terminated before the round cap.
    pub termination_rate: f64,
    /// Fraction of trials whose final set violated the MIS conditions.
    pub violation_rate: f64,
    /// Rounds across terminated trials.
    pub rounds: OnlineStats,
}

/// Results of the fault experiments.
#[derive(Debug, Clone)]
pub struct FaultsResults {
    /// One row per (scenario, variant).
    pub rows: Vec<FaultRow>,
}

/// The variants every scenario runs: `(name, algorithm, repair)`. The
/// repaired one joins cautiously and keeps MIS members beeping.
fn variants() -> [(&'static str, Algorithm, bool); 2] {
    [
        ("plain", Algorithm::feedback(), false),
        (
            "repaired",
            Algorithm::feedback_with(FeedbackConfig::default().with_cautious_join(true)),
            true,
        ),
    ]
}

/// Runs both fault scenarios across both variants.
///
/// # Panics
///
/// Panics on degenerate configurations.
#[must_use]
pub fn run(config: &FaultsConfig, ctx: &RunContext) -> FaultsResults {
    assert!(config.trials > 0, "need at least one trial");
    assert!(
        (0.0..=1.0).contains(&config.sleeper_fraction),
        "sleeper fraction must be a probability"
    );
    let mut rows = Vec::new();
    for (i, &loss) in config.loss_rates.iter().enumerate() {
        for variant in &variants() {
            rows.push(measure(
                config,
                ctx,
                format!("loss ε = {loss}"),
                variant,
                stage_seed(config.seed, experiment::FAULTS_LOSS, i as u64),
                move |_, _| FaultPlan {
                    message_loss: loss,
                    wake_rounds: vec![],
                },
            ));
        }
    }
    // Late wake-up scenario.
    for variant in &variants() {
        let sleeper_fraction = config.sleeper_fraction;
        let max_wake = config.max_wake_round;
        let n = config.n;
        rows.push(measure(
            config,
            ctx,
            format!(
                "wake-up ({}% sleep ≤ {} rounds)",
                (sleeper_fraction * 100.0).round(),
                max_wake
            ),
            variant,
            stage_seed(config.seed, experiment::FAULTS_WAKE, 0),
            move |trial_seed, _| {
                let mut rng = SmallRng::seed_from_u64(alg_seed(trial_seed, alg::WAKE_PLAN));
                let wake_rounds = (0..n)
                    .map(|_| {
                        if rng.random_bool(sleeper_fraction) {
                            rng.random_range(1..=max_wake)
                        } else {
                            0
                        }
                    })
                    .collect();
                FaultPlan {
                    message_loss: 0.0,
                    wake_rounds,
                }
            },
        ));
    }
    FaultsResults { rows }
}

fn measure(
    config: &FaultsConfig,
    ctx: &RunContext,
    scenario: String,
    &(variant, ref algorithm, repair): &(&str, Algorithm, bool),
    master: u64,
    plan: impl Fn(u64, usize) -> FaultPlan + Sync,
) -> FaultRow {
    let samples = ctx.run_trials(config.trials, master, |trial_seed, idx| {
        let mut graph_rng = SmallRng::seed_from_u64(trial_seed);
        let g = generators::gnp(config.n, config.edge_probability, &mut graph_rng);
        let sim = ctx
            .sim_config()
            .with_max_rounds(config.max_rounds)
            .with_mis_keeps_beeping(repair)
            .with_faults(plan(trial_seed, idx));
        let outcome = run_algorithm(&g, algorithm, alg_seed(trial_seed, alg::FAULT_ALG), sim);
        let violated = outcome.terminated() && check_mis(&g, &outcome.mis()).is_err();
        (outcome.terminated(), violated, f64::from(outcome.rounds()))
    });
    let terminated = samples.iter().filter(|&&(t, _, _)| t).count();
    let violations = samples.iter().filter(|&&(_, v, _)| v).count();
    FaultRow {
        scenario,
        variant: variant.to_owned(),
        termination_rate: terminated as f64 / samples.len() as f64,
        violation_rate: violations as f64 / samples.len() as f64,
        rounds: samples
            .iter()
            .filter(|&&(t, _, _)| t)
            .map(|&(_, _, r)| r)
            .collect(),
    }
}

impl FaultsResults {
    /// The data table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::with_columns(&[
            "scenario",
            "variant",
            "terminated",
            "violations",
            "rounds mean",
        ]);
        t.numeric();
        for row in &self.rows {
            t.push_row(vec![
                row.scenario.clone(),
                row.variant.clone(),
                format!("{:.0}%", row.termination_rate * 100.0),
                format!("{:.1}%", row.violation_rate * 100.0),
                format!("{:.1}", row.rounds.mean()),
            ]);
        }
        t
    }

    /// Violation rate of a given variant in the worst scenario.
    #[must_use]
    pub fn worst_violation_rate(&self, variant: &str) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.variant == variant)
            .map(|r| r.violation_rate)
            .fold(0.0, f64::max)
    }

    /// Full markdown body.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}\nWorst violation rates — plain: {:.1}%, repaired: {:.1}%. \
             The repaired variant (cautious join + MIS heartbeats) should \
             eliminate violations at the cost of extra signals; the plain \
             algorithm is correct only on the reliable network the paper \
             assumes.\n",
            self.table().to_markdown(),
            self.worst_violation_rate("plain") * 100.0,
            self.worst_violation_rate("repaired") * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_scenario_is_clean() {
        let config = FaultsConfig {
            n: 50,
            edge_probability: 0.5,
            loss_rates: vec![0.0],
            sleeper_fraction: 0.2,
            max_wake_round: 10,
            trials: 8,
            max_rounds: 10_000,
            seed: 3,
        };
        let results = run(&config, &RunContext::default());
        // Rows: (loss 0 × 2 variants) + (wake-up × 2 variants).
        assert_eq!(results.rows.len(), 4);
        let control_plain = &results.rows[0];
        assert_eq!(control_plain.termination_rate, 1.0);
        assert_eq!(control_plain.violation_rate, 0.0);
    }

    #[test]
    fn repair_eliminates_wakeup_violations() {
        let config = FaultsConfig {
            n: 60,
            edge_probability: 0.3,
            loss_rates: vec![],
            sleeper_fraction: 0.5,
            max_wake_round: 30,
            trials: 10,
            max_rounds: 10_000,
            seed: 4,
        };
        let results = run(&config, &RunContext::default());
        let plain = results.rows.iter().find(|r| r.variant == "plain").unwrap();
        let repaired = results
            .rows
            .iter()
            .find(|r| r.variant == "repaired")
            .unwrap();
        // The point of the experiment: plain breaks, repaired does not.
        assert!(
            plain.violation_rate > 0.0,
            "expected plain violations under heavy wake-up faults"
        );
        assert_eq!(
            repaired.violation_rate, 0.0,
            "repaired variant must stay safe"
        );
        assert_eq!(repaired.termination_rate, 1.0);
    }

    #[test]
    fn render_has_rows() {
        let config = FaultsConfig {
            n: 30,
            edge_probability: 0.5,
            loss_rates: vec![0.1],
            sleeper_fraction: 0.0,
            max_wake_round: 1,
            trials: 4,
            max_rounds: 5_000,
            seed: 5,
        };
        let body = run(&config, &RunContext::default()).render();
        assert!(body.contains("loss ε = 0.1"));
        assert!(body.contains("repaired"));
    }
}
