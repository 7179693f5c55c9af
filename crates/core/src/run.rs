//! One-call entry points: pick an [`Algorithm`], get a verified MIS.

use core::fmt;
use std::sync::Arc;

use mis_beeping::{RoundView, RunOutcome, SimConfig, Simulator};
use mis_graph::{GraphView, NodeId};

use crate::verify::{check_mis, MisViolation};
use crate::{
    ConstantSchedule, CustomSchedule, FeedbackConfig, FeedbackFactory, GlobalScheduleFactory,
    ScienceSchedule, SweepSchedule,
};

/// Selects which MIS algorithm to run.
///
/// # Examples
///
/// ```
/// use mis_core::Algorithm;
///
/// let paper = Algorithm::feedback();
/// let comparator = Algorithm::sweep();
/// assert_ne!(paper.name(), comparator.name());
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Algorithm {
    /// The paper's feedback-adaptive algorithm (Table 1 / Definition 1).
    Feedback(FeedbackConfig),
    /// Afek et al. DISC'11: uninformed global sweep `1, ½ | 1, ½, ¼ | …`.
    Sweep,
    /// Afek et al. Science'11: informed ramp from `1/(2Δ)` to `½`, each
    /// doubling phase lasting `phase_factor · ⌈log₂ n⌉` steps.
    Science {
        /// Steps-per-phase multiplier (default 2).
        phase_factor: u32,
    },
    /// Every node beeps with the same fixed probability forever.
    Constant {
        /// The fixed beeping probability.
        p: f64,
    },
    /// An arbitrary preset probability sequence (probing Theorem 1).
    Custom(CustomSchedule),
}

impl Algorithm {
    /// The paper's algorithm with default parameters.
    #[must_use]
    pub fn feedback() -> Self {
        Algorithm::Feedback(FeedbackConfig::default())
    }

    /// The paper's algorithm with a custom configuration.
    #[must_use]
    pub fn feedback_with(config: FeedbackConfig) -> Self {
        Algorithm::Feedback(config)
    }

    /// The DISC'11 sweep comparator.
    #[must_use]
    pub fn sweep() -> Self {
        Algorithm::Sweep
    }

    /// The Science'11 informed-schedule comparator with the default phase
    /// factor of 2.
    #[must_use]
    pub fn science() -> Self {
        Algorithm::Science { phase_factor: 2 }
    }

    /// A constant-probability schedule.
    #[must_use]
    pub fn constant(p: f64) -> Self {
        Algorithm::Constant { p }
    }

    /// Short name for tables and plots.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Feedback(_) => "feedback",
            Algorithm::Sweep => "sweep",
            Algorithm::Science { .. } => "science",
            Algorithm::Constant { .. } => "constant",
            Algorithm::Custom(_) => "custom",
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Algorithm::Feedback(cfg) => write!(f, "{cfg}"),
            Algorithm::Science { phase_factor } => {
                write!(f, "science(phase_factor={phase_factor})")
            }
            Algorithm::Constant { p } => write!(f, "constant(p={p})"),
            _ => f.write_str(self.name()),
        }
    }
}

/// Failure modes of [`solve_mis`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SolveError {
    /// The simulation hit the configured round cap before every node
    /// became inactive.
    RoundLimitReached {
        /// The cap that was hit.
        rounds: u32,
    },
    /// The run terminated but the selected set violates the MIS conditions
    /// (possible only under fault injection).
    InvalidResult(MisViolation),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::RoundLimitReached { rounds } => {
                write!(f, "round cap of {rounds} reached before termination")
            }
            SolveError::InvalidResult(v) => write!(f, "selected set is not an MIS: {v}"),
        }
    }
}

impl std::error::Error for SolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolveError::InvalidResult(v) => Some(v),
            SolveError::RoundLimitReached { .. } => None,
        }
    }
}

/// A verified MIS selection produced by [`solve_mis`].
#[derive(Debug, Clone, PartialEq)]
pub struct MisResult {
    mis: Vec<NodeId>,
    outcome: RunOutcome,
}

impl MisResult {
    /// The selected maximal independent set, sorted ascending.
    #[must_use]
    pub fn mis(&self) -> &[NodeId] {
        &self.mis
    }

    /// Number of rounds the algorithm ran.
    #[must_use]
    pub fn rounds(&self) -> u32 {
        self.outcome.rounds()
    }

    /// Mean beeps per node (the paper's Figure 5 quantity).
    #[must_use]
    pub fn mean_beeps_per_node(&self) -> f64 {
        self.outcome.metrics().mean_beeps_per_node()
    }

    /// Full simulation outcome (metrics, statuses).
    #[must_use]
    pub fn outcome(&self) -> &RunOutcome {
        &self.outcome
    }
}

/// Runs `algorithm` on `graph` (seeded by `seed`) with the given simulator
/// configuration, **without** verifying the result. Fault-injection
/// experiments use this to observe violations; prefer [`solve_mis`]
/// otherwise.
///
/// Generic over [`GraphView`], so the same dispatch runs on a materialised
/// CSR graph or on a lazy derived-graph view (`LineGraphView`,
/// `ProductView`, `InducedView`) without building the derived adjacency.
#[must_use]
pub fn run_algorithm<G: GraphView + ?Sized>(
    graph: &G,
    algorithm: &Algorithm,
    seed: u64,
    config: SimConfig,
) -> RunOutcome {
    run_algorithm_with_observer(graph, algorithm, seed, config, |_| {})
}

/// Like [`run_algorithm`], invoking `observer` after every round with a
/// [`RoundView`], as [`Simulator::run_with_observer`] does. Per-round
/// series, such as the active-node count, are recorded this way.
///
/// # Examples
///
/// ```
/// use mis_beeping::{NodeStatus, SimConfig};
/// use mis_core::{run_algorithm_with_observer, Algorithm};
///
/// let g = mis_graph::generators::cycle(12);
/// let mut active = Vec::new();
/// let config = SimConfig::default();
/// let outcome = run_algorithm_with_observer(&g, &Algorithm::feedback(), 7, config, |view| {
///     active.push(view.status.iter().filter(|s| **s == NodeStatus::Active).count());
/// });
/// assert_eq!(active.len() as u32, outcome.rounds());
/// assert_eq!(active.last(), Some(&0));
/// ```
#[must_use]
pub fn run_algorithm_with_observer<G: GraphView + ?Sized>(
    graph: &G,
    algorithm: &Algorithm,
    seed: u64,
    config: SimConfig,
    observer: impl FnMut(&RoundView<'_>),
) -> RunOutcome {
    match algorithm {
        Algorithm::Feedback(cfg) => {
            let factory = FeedbackFactory::with_config(*cfg);
            Simulator::new(graph, &factory, seed, config).run_with_observer(observer)
        }
        Algorithm::Sweep => {
            let factory = GlobalScheduleFactory::new(|_| SweepSchedule::new());
            Simulator::new(graph, &factory, seed, config).run_with_observer(observer)
        }
        Algorithm::Science { phase_factor } => {
            let pf = *phase_factor;
            let factory = GlobalScheduleFactory::new(move |info: &mis_beeping::NetworkInfo| {
                ScienceSchedule::for_network(info.node_count, info.max_degree, pf)
            });
            Simulator::new(graph, &factory, seed, config).run_with_observer(observer)
        }
        Algorithm::Constant { p } => {
            let p = *p;
            let factory = GlobalScheduleFactory::new(move |_| ConstantSchedule::new(p));
            Simulator::new(graph, &factory, seed, config).run_with_observer(observer)
        }
        Algorithm::Custom(schedule) => {
            let shared = Arc::new(schedule.clone());
            let factory = GlobalScheduleFactory::new(move |_| Arc::clone(&shared));
            Simulator::new(graph, &factory, seed, config).run_with_observer(observer)
        }
    }
}

/// Runs `algorithm` on `graph` with the default simulator configuration
/// and verifies the selected set.
///
/// # Errors
///
/// Returns [`SolveError::RoundLimitReached`] if the (very generous) default
/// round cap is hit, or [`SolveError::InvalidResult`] if verification fails
/// (impossible for these algorithms on a fault-free network; it would
/// indicate a bug).
pub fn solve_mis<G: GraphView + ?Sized>(
    graph: &G,
    algorithm: &Algorithm,
    seed: u64,
) -> Result<MisResult, SolveError> {
    solve_mis_with_config(graph, algorithm, seed, SimConfig::default())
}

/// Like [`solve_mis`] with an explicit simulator configuration.
///
/// # Errors
///
/// As [`solve_mis`]; note that fault-injecting configurations can make
/// both error variants reachable.
pub fn solve_mis_with_config<G: GraphView + ?Sized>(
    graph: &G,
    algorithm: &Algorithm,
    seed: u64,
    config: SimConfig,
) -> Result<MisResult, SolveError> {
    let outcome = run_algorithm(graph, algorithm, seed, config);
    if !outcome.terminated() {
        return Err(SolveError::RoundLimitReached {
            rounds: outcome.rounds(),
        });
    }
    let mis = outcome.mis();
    check_mis(graph, &mis).map_err(SolveError::InvalidResult)?;
    Ok(MisResult { mis, outcome })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_graph::{generators, Graph};
    use rand::{rngs::SmallRng, SeedableRng};

    fn families() -> Vec<(&'static str, Graph)> {
        let mut rng = SmallRng::seed_from_u64(100);
        vec![
            ("gnp", generators::gnp(50, 0.5, &mut rng)),
            ("sparse gnp", generators::gnp(60, 0.05, &mut rng)),
            ("complete", generators::complete(20)),
            ("empty", Graph::empty(10)),
            ("path", generators::path(30)),
            ("cycle", generators::cycle(31)),
            ("star", generators::star(25)),
            ("grid", generators::grid2d(6, 6)),
            ("hex", generators::hex_grid(5, 5)),
            ("torus", generators::torus2d(4, 5)),
            ("tree", generators::random_tree(40, &mut rng)),
            ("regular", generators::random_regular(30, 4, &mut rng)),
            ("cliques", generators::theorem1_family(4)),
            ("hypercube", generators::hypercube(5)),
            ("bipartite", generators::complete_bipartite(7, 9)),
            ("geometric", generators::random_geometric(60, 0.2, &mut rng)),
        ]
    }

    #[test]
    fn all_algorithms_solve_all_families() {
        let algorithms = [
            Algorithm::feedback(),
            Algorithm::sweep(),
            Algorithm::science(),
            Algorithm::constant(0.3),
        ];
        for (name, g) in families() {
            for algo in &algorithms {
                let result = solve_mis(&g, algo, 7).unwrap_or_else(|e| {
                    panic!("{} on {name}: {e}", algo.name());
                });
                assert!(
                    check_mis(&g, result.mis()).is_ok(),
                    "{} on {name} produced an invalid set",
                    algo.name()
                );
            }
        }
    }

    #[test]
    fn custom_schedule_solves() {
        let g = generators::cycle(12);
        let algo = Algorithm::Custom(CustomSchedule::new(
            vec![1.0, 0.5, 0.25],
            crate::TailBehavior::Cycle,
        ));
        let result = solve_mis(&g, &algo, 3).unwrap();
        assert!(check_mis(&g, result.mis()).is_ok());
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::gnp(40, 0.5, &mut SmallRng::seed_from_u64(4));
        let a = solve_mis(&g, &Algorithm::feedback(), 11).unwrap();
        let b = solve_mis(&g, &Algorithm::feedback(), 11).unwrap();
        assert_eq!(a.mis(), b.mis());
        assert_eq!(a.rounds(), b.rounds());
    }

    #[test]
    fn round_cap_is_reported() {
        // Constant p = 1 on K₂ can never terminate.
        let g = generators::complete(2);
        let cfg = SimConfig::default().with_max_rounds(25);
        let err = solve_mis_with_config(&g, &Algorithm::constant(1.0), 1, cfg).unwrap_err();
        assert_eq!(err, SolveError::RoundLimitReached { rounds: 25 });
        assert!(err.to_string().contains("25"));
    }

    #[test]
    fn feedback_beats_sweep_on_rounds_at_scale() {
        // The headline claim, in miniature: on G(300, ½) feedback needs
        // fewer rounds than the sweep, for typical seeds.
        let g = generators::gnp(300, 0.5, &mut SmallRng::seed_from_u64(5));
        let mut feedback_wins = 0;
        for seed in 0..10 {
            let f = solve_mis(&g, &Algorithm::feedback(), seed).unwrap();
            let s = solve_mis(&g, &Algorithm::sweep(), seed).unwrap();
            if f.rounds() < s.rounds() {
                feedback_wins += 1;
            }
        }
        assert!(
            feedback_wins >= 8,
            "feedback won only {feedback_wins}/10 trials"
        );
    }

    #[test]
    fn result_accessors() {
        let g = generators::star(8);
        let r = solve_mis(&g, &Algorithm::feedback(), 2).unwrap();
        assert!(!r.mis().is_empty());
        assert!(r.rounds() >= 1);
        assert!(r.mean_beeps_per_node() > 0.0);
        assert_eq!(r.outcome().rounds(), r.rounds());
    }

    #[test]
    fn algorithm_names_and_display() {
        assert_eq!(Algorithm::feedback().name(), "feedback");
        assert_eq!(Algorithm::sweep().name(), "sweep");
        assert_eq!(Algorithm::science().name(), "science");
        assert_eq!(Algorithm::constant(0.5).name(), "constant");
        assert!(Algorithm::science().to_string().contains("phase_factor"));
        assert!(Algorithm::constant(0.25).to_string().contains("0.25"));
        assert!(Algorithm::feedback().to_string().contains("p0"));
    }

    #[test]
    fn solve_error_display_and_source() {
        use std::error::Error as _;
        let e = SolveError::InvalidResult(MisViolation::UncoveredNode { node: 1 });
        assert!(e.to_string().contains("not an MIS"));
        assert!(e.source().is_some());
        let e = SolveError::RoundLimitReached { rounds: 9 };
        assert!(e.source().is_none());
    }
}
