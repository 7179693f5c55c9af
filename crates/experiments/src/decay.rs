//! Active-set decay: how fast does the network fall silent?
//!
//! The proof of Theorem 2 works vertex-locally, but its global consequence
//! is visible in one curve: the number of still-active nodes per round.
//! For the feedback algorithm the active set collapses geometrically after
//! a short warm-up; for the sweep it decays in bursts, once per phase
//! visit to the “right” probability. This experiment records both curves.

use mis_beeping::SimConfig;
use mis_core::{run_algorithm, Algorithm};
use mis_graph::{generators, GraphView};
use mis_stats::{AsciiPlot, Series, Table};
use rand::{rngs::SmallRng, SeedableRng};

use crate::seeds::{alg, alg_seed};
use crate::{run_with_backend, BackendOp, RunContext};

/// Configuration for the decay experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct DecayConfig {
    /// Number of nodes in the `G(n, ½)` workload.
    pub n: usize,
    /// Trials to average the curves over.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
}

impl DecayConfig {
    /// Full-scale settings.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            n: 500,
            trials: 50,
            seed: 2013,
        }
    }

    /// A fast smoke-test variant.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            n: 120,
            trials: 10,
            seed: 2013,
        }
    }
}

impl Default for DecayConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Results: mean active-node counts per round for both algorithms.
#[derive(Debug, Clone)]
pub struct DecayResults {
    /// Workload size.
    pub n: usize,
    /// Mean active nodes after round `t` (feedback algorithm).
    pub feedback: Vec<f64>,
    /// Mean active nodes after round `t` (sweep algorithm).
    pub sweep: Vec<f64>,
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics on degenerate configurations or non-terminating runs.
#[must_use]
pub fn run(config: &DecayConfig, ctx: &RunContext) -> DecayResults {
    assert!(config.trials > 0, "need at least one trial");
    let curves = ctx.run_trials(config.trials, config.seed, |trial_seed, _| {
        let mut graph_rng = SmallRng::seed_from_u64(trial_seed);
        let g = generators::gnp(config.n, 0.5, &mut graph_rng);
        let sim = ctx.sim_config().with_active_series(true);
        // Dispatch through the context's backend so `xp decay --backend X`
        // replays the identical simulation from compressed or paged
        // adjacency (active curves are pinned bit-identical across
        // backends).
        run_with_backend(
            &g,
            ctx.backend,
            DecayTrial {
                trial_seed,
                sim: &sim,
            },
        )
    });
    DecayResults {
        n: config.n,
        feedback: average_series(curves.iter().map(|(f, _)| f.as_slice())),
        sweep: average_series(curves.iter().map(|(_, s)| s.as_slice())),
    }
}

/// One decay trial (feedback + sweep on the same workload), generic over
/// the adjacency backend.
struct DecayTrial<'a> {
    trial_seed: u64,
    sim: &'a SimConfig,
}

impl BackendOp for DecayTrial<'_> {
    type Out = (Vec<usize>, Vec<usize>);

    fn run<G: GraphView + ?Sized>(self, g: &G) -> Self::Out {
        let f = run_algorithm(
            g,
            &Algorithm::feedback(),
            alg_seed(self.trial_seed, alg::FEEDBACK),
            self.sim.clone(),
        );
        assert!(f.terminated());
        let s = run_algorithm(
            g,
            &Algorithm::sweep(),
            alg_seed(self.trial_seed, alg::SWEEP),
            self.sim.clone(),
        );
        assert!(s.terminated());
        (
            f.metrics().active_series.clone(),
            s.metrics().active_series.clone(),
        )
    }
}

/// Averages variable-length series; finished runs contribute zeros beyond
/// their end (their active count *is* zero from then on).
fn average_series<'a>(series: impl Iterator<Item = &'a [usize]> + Clone) -> Vec<f64> {
    let count = series.clone().count().max(1);
    let max_len = series.clone().map(<[usize]>::len).max().unwrap_or(0);
    let mut means = vec![0.0; max_len];
    for s in series {
        for (t, &v) in s.iter().enumerate() {
            means[t] += v as f64;
        }
    }
    for m in &mut means {
        *m /= count as f64;
    }
    means
}

impl DecayResults {
    /// Rounds until the mean active count first drops below `threshold`,
    /// per algorithm (`None` if it never does — impossible for terminated
    /// runs with threshold ≥ 0).
    #[must_use]
    pub fn rounds_to_below(&self, threshold: f64) -> (Option<usize>, Option<usize>) {
        let find = |series: &[f64]| series.iter().position(|&v| v < threshold);
        (find(&self.feedback), find(&self.sweep))
    }

    /// Table of the curves, decimated to at most 20 rows.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::with_columns(&["round", "feedback active", "sweep active"]);
        t.numeric();
        let len = self.feedback.len().max(self.sweep.len());
        let step = len.div_ceil(20).max(1);
        for round in (0..len).step_by(step) {
            t.push_row(vec![
                round.to_string(),
                format!("{:.1}", self.feedback.get(round).copied().unwrap_or(0.0)),
                format!("{:.1}", self.sweep.get(round).copied().unwrap_or(0.0)),
            ]);
        }
        t
    }

    /// ASCII plot of both decay curves.
    #[must_use]
    pub fn plot(&self) -> String {
        let mut plot = AsciiPlot::new(70, 18);
        plot.labels("round", "mean active nodes");
        plot.add_series(Series::new(
            "feedback",
            'L',
            self.feedback
                .iter()
                .enumerate()
                .map(|(t, &v)| (t as f64, v))
                .collect(),
        ));
        plot.add_series(Series::new(
            "sweep",
            'G',
            self.sweep
                .iter()
                .enumerate()
                .map(|(t, &v)| (t as f64, v))
                .collect(),
        ));
        plot.render()
    }

    /// Full markdown body.
    #[must_use]
    pub fn render(&self) -> String {
        let (f50, s50) = self.rounds_to_below(self.n as f64 * 0.5);
        let (f1, s1) = self.rounds_to_below(1.0);
        format!(
            "{}\nRounds to halve the active set — feedback: {}, sweep: {}. \
             Rounds to (mean) < 1 active — feedback: {}, sweep: {}.\n\n\
             ```text\n{}```\n",
            self.table().to_markdown(),
            fmt_opt(f50),
            fmt_opt(s50),
            fmt_opt(f1),
            fmt_opt(s1),
            self.plot()
        )
    }
}

fn fmt_opt(v: Option<usize>) -> String {
    v.map_or_else(|| "—".into(), |r| r.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feedback_decays_faster() {
        let results = run(
            &DecayConfig {
                n: 80,
                trials: 8,
                seed: 5,
            },
            &RunContext::default(),
        );
        let (f, s) = results.rounds_to_below(1.0);
        assert!(
            f.unwrap() < s.unwrap(),
            "feedback {f:?} !< sweep {s:?} to empty the network"
        );
        // Curves start at (close to) n and are non-increasing.
        assert!(results.feedback[0] <= 80.0);
        assert!(results.feedback.windows(2).all(|w| w[1] <= w[0] + 1e-9));
    }

    #[test]
    fn average_series_handles_ragged_input() {
        let series: Vec<Vec<usize>> = vec![vec![4, 2, 1, 0], vec![4, 0]];
        let avg = average_series(series.iter().map(Vec::as_slice));
        assert_eq!(avg, vec![4.0, 1.0, 0.5, 0.0]);
    }

    #[test]
    fn render_has_plot_and_table() {
        let results = run(
            &DecayConfig {
                n: 40,
                trials: 3,
                seed: 1,
            },
            &RunContext::default(),
        );
        let body = results.render();
        assert!(body.contains("feedback active"));
        assert!(body.contains("```text"));
    }
}
