//! §6 robustness ablations: the feedback constants barely matter.
//!
//! The paper's conclusion asserts the algorithm keeps its performance when
//! the up/down factors deviate from 2, differ from each other, vary
//! between nodes, or when initial probabilities differ from ½. Each
//! variant here runs the full algorithm on the same workload and reports
//! rounds and beeps; all should land within a small constant factor of the
//! paper-default baseline.

use mis_beeping::rng::{node_seed, splitmix64};
use mis_beeping::{FnFactory, Simulator};
use mis_core::verify::check_mis;
use mis_core::{FeedbackConfig, FeedbackProcess};
use mis_graph::generators;
use mis_stats::{OnlineStats, Table};
use rand::{rngs::SmallRng, SeedableRng};

use crate::seeds::{alg, alg_seed, experiment, stage_seed};
use crate::RunContext;

/// Configuration for the robustness experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessConfig {
    /// Nodes in the `G(n, p)` workload.
    pub n: usize,
    /// Edge probability of the workload.
    pub edge_probability: f64,
    /// Trials per variant.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
}

impl RobustnessConfig {
    /// Full-scale settings.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            n: 300,
            edge_probability: 0.5,
            trials: 60,
            seed: 2013,
        }
    }

    /// A fast smoke-test variant.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            n: 100,
            edge_probability: 0.5,
            trials: 12,
            seed: 2013,
        }
    }
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// How one variant chooses per-node configurations.
#[derive(Debug, Clone, PartialEq)]
enum VariantKind {
    /// The same configuration at every node.
    Uniform(FeedbackConfig),
    /// Random per-node symmetric factors in `[1.3, 4]`.
    HeterogeneousFactors,
    /// Random per-node initial probabilities in `{½, ¼, …, 1/32}`.
    HeterogeneousInitial,
}

/// One measured ablation variant.
#[derive(Debug, Clone)]
pub struct VariantResult {
    /// Variant label.
    pub name: String,
    /// Rounds across trials.
    pub rounds: OnlineStats,
    /// Mean beeps per node across trials.
    pub beeps: OnlineStats,
}

/// Results of the robustness experiment.
#[derive(Debug, Clone)]
pub struct RobustnessResults {
    /// The paper-default baseline, first.
    pub variants: Vec<VariantResult>,
}

fn variants() -> Vec<(String, VariantKind)> {
    let base = FeedbackConfig::default();
    let mut list: Vec<(String, VariantKind)> = vec![(
        "baseline (×2 / ÷2, p₀ = ½)".into(),
        VariantKind::Uniform(base),
    )];
    for gamma in [1.25, 1.5, 3.0, 4.0] {
        list.push((
            format!("symmetric factor {gamma}"),
            VariantKind::Uniform(base.with_factors(gamma, gamma)),
        ));
    }
    list.push((
        "asymmetric (×2 / ÷4)".into(),
        VariantKind::Uniform(base.with_factors(2.0, 4.0)),
    ));
    list.push((
        "asymmetric (×4 / ÷2)".into(),
        VariantKind::Uniform(base.with_factors(4.0, 2.0)),
    ));
    for p0 in [0.25, 1.0 / 16.0] {
        list.push((
            format!("initial p₀ = {p0}"),
            VariantKind::Uniform(base.with_initial_p(p0)),
        ));
    }
    list.push((
        "probability floor 1/64".into(),
        VariantKind::Uniform(base.with_min_p(1.0 / 64.0)),
    ));
    list.push((
        "per-node random factors ∈ [1.3, 4]".into(),
        VariantKind::HeterogeneousFactors,
    ));
    list.push((
        "per-node random p₀ ∈ {½ … 1/32}".into(),
        VariantKind::HeterogeneousInitial,
    ));
    list
}

/// Unit-interval hash of `(seed, node)` for per-node parameter draws.
fn unit_hash(seed: u64, node: u32) -> f64 {
    (splitmix64(node_seed(seed, node)) >> 11) as f64 / (1u64 << 53) as f64
}

/// Runs the experiment.
///
/// Every run is verified to be a correct MIS — robustness includes never
/// sacrificing correctness.
///
/// # Panics
///
/// Panics if any variant produces an invalid MIS or fails to terminate, or
/// the configuration is degenerate.
#[must_use]
pub fn run(config: &RobustnessConfig, ctx: &RunContext) -> RobustnessResults {
    assert!(config.trials > 0, "need at least one trial");
    let variant_list = variants();
    let mut results = Vec::with_capacity(variant_list.len());
    for (vi, (name, kind)) in variant_list.into_iter().enumerate() {
        let master = stage_seed(config.seed, experiment::ROBUSTNESS, vi as u64);
        let samples = ctx.run_trials(config.trials, master, |trial_seed, _| {
            let mut graph_rng = SmallRng::seed_from_u64(trial_seed);
            let g = generators::gnp(config.n, config.edge_probability, &mut graph_rng);
            let cfg_seed = splitmix64(trial_seed);
            let kind = kind.clone();
            let factory = FnFactory(move |node, _degree, _info: &_| {
                let cfg = match kind {
                    VariantKind::Uniform(cfg) => cfg,
                    VariantKind::HeterogeneousFactors => {
                        let gamma = 1.3 + 2.7 * unit_hash(cfg_seed, node);
                        FeedbackConfig::default().with_factors(gamma, gamma)
                    }
                    VariantKind::HeterogeneousInitial => {
                        let exp = 1 + (splitmix64(node_seed(cfg_seed, node)) % 5) as i32;
                        FeedbackConfig::default().with_initial_p(0.5f64.powi(exp))
                    }
                };
                FeedbackProcess::new(cfg)
            });
            let sim_seed = alg_seed(trial_seed, alg::VARIANT_SIM);
            let outcome = Simulator::new(&g, &factory, sim_seed, ctx.sim_config()).run();
            assert!(outcome.terminated(), "variant failed to terminate");
            check_mis(&g, &outcome.mis()).expect("variant produced an invalid MIS");
            (
                f64::from(outcome.rounds()),
                outcome.metrics().mean_beeps_per_node(),
            )
        });
        results.push(VariantResult {
            name,
            rounds: samples.iter().map(|&(r, _)| r).collect(),
            beeps: samples.iter().map(|&(_, b)| b).collect(),
        });
    }
    RobustnessResults { variants: results }
}

impl RobustnessResults {
    /// The data table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t =
            Table::with_columns(&["variant", "rounds mean", "rounds sd", "beeps/node mean"]);
        t.numeric();
        for v in &self.variants {
            t.push_row(vec![
                v.name.clone(),
                format!("{:.2}", v.rounds.mean()),
                format!("{:.2}", v.rounds.std_dev()),
                format!("{:.3}", v.beeps.mean()),
            ]);
        }
        t
    }

    /// Largest slowdown of any variant relative to the baseline (1.0 means
    /// nothing slower than baseline).
    #[must_use]
    pub fn worst_slowdown(&self) -> f64 {
        let Some(baseline) = self.variants.first() else {
            return 1.0;
        };
        let base = baseline.rounds.mean().max(1.0);
        self.variants
            .iter()
            .map(|v| v.rounds.mean() / base)
            .fold(1.0, f64::max)
    }

    /// Full markdown body.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}\nWorst slowdown vs baseline: {:.2}×. §6 of the paper \
             predicts all variants stay within a small constant factor and \
             every run remains a correct MIS (verified on every trial).\n",
            self.table().to_markdown(),
            self.worst_slowdown()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_stay_close_to_baseline() {
        let config = RobustnessConfig {
            n: 80,
            edge_probability: 0.5,
            trials: 6,
            seed: 9,
        };
        let results = run(&config, &RunContext::default());
        assert!(results.variants.len() >= 10);
        assert!(results.variants[0].name.contains("baseline"));
        let worst = results.worst_slowdown();
        assert!(
            worst < 6.0,
            "a variant is {worst}× slower than baseline — robustness claim violated"
        );
    }

    #[test]
    fn unit_hash_is_in_unit_interval_and_varies() {
        let xs: Vec<f64> = (0..50).map(|v| unit_hash(3, v)).collect();
        for &x in &xs {
            assert!((0.0..1.0).contains(&x));
        }
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        sorted.dedup();
        assert!(sorted.len() > 40, "hash values collide too much");
    }

    #[test]
    fn render_table() {
        let config = RobustnessConfig {
            n: 40,
            edge_probability: 0.5,
            trials: 3,
            seed: 2,
        };
        let body = run(&config, &RunContext::default()).render();
        assert!(body.contains("baseline"));
        assert!(body.contains("Worst slowdown"));
        assert!(body.contains("per-node random factors"));
    }
}
