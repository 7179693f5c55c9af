//! The Collier et al. lateral-inhibition model on a graph.

use core::fmt;

use rand::Rng;

use mis_graph::{Graph, NodeId};

use crate::ode::{rk4_step, Rk4Scratch};

/// Parameters of the Collier et al. (1996) model.
///
/// The defaults are in the pattern-forming regime identified in that paper
/// (strong feedback, Hill coefficients 2): homogeneous steady states are
/// unstable and near-uniform initial conditions resolve into alternating
/// high-Delta/high-Notch cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollierParams {
    /// Half-saturation constant `a` of Notch activation.
    pub a: f64,
    /// Inhibition strength `b` of Delta suppression.
    pub b: f64,
    /// Hill coefficient `k` of Notch activation.
    pub k: f64,
    /// Hill coefficient `h` of Delta inhibition.
    pub h: f64,
    /// Relative Delta kinetics speed `ν`.
    pub nu: f64,
    /// Integration step size.
    pub dt: f64,
    /// Maximum integration steps before giving up on convergence.
    pub max_steps: u32,
    /// Convergence threshold: steady when the largest |d/dt| over all
    /// state variables falls below this.
    pub tolerance: f64,
    /// Amplitude of the random perturbation around the uniform initial
    /// state (the “slight excess of Delta” of Figure 4).
    pub noise: f64,
}

impl Default for CollierParams {
    fn default() -> Self {
        Self {
            a: 0.01,
            b: 100.0,
            k: 2.0,
            h: 2.0,
            nu: 1.0,
            dt: 0.05,
            max_steps: 200_000,
            tolerance: 1e-7,
            noise: 0.01,
        }
    }
}

impl CollierParams {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a message for non-positive constants or steps.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("a", self.a),
            ("b", self.b),
            ("k", self.k),
            ("h", self.h),
            ("nu", self.nu),
            ("dt", self.dt),
            ("tolerance", self.tolerance),
        ] {
            if v.is_nan() || v <= 0.0 || !v.is_finite() {
                return Err(format!("{name} must be positive and finite, got {v}"));
            }
        }
        if self.max_steps == 0 {
            return Err("max_steps must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.noise) {
            return Err(format!("noise must be in [0, 1], got {}", self.noise));
        }
        Ok(())
    }
}

/// Continuous state of one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellState {
    /// Notch activity `n_i ∈ [0, 1]`.
    pub notch: f64,
    /// Delta activity `d_i ∈ [0, 1]`.
    pub delta: f64,
}

/// The lateral-inhibition model bound to a graph topology.
///
/// Cells live on the graph's nodes; each cell's Notch is activated by the
/// *mean* Delta of its neighbours, and its Delta is suppressed by its own
/// Notch (Figure 4 of the paper).
#[derive(Debug, Clone)]
pub struct CollierModel<'g> {
    graph: &'g Graph,
    params: CollierParams,
}

impl<'g> CollierModel<'g> {
    /// Binds the model to a topology.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid (see
    /// [`CollierParams::validate`]).
    #[must_use]
    pub fn new(graph: &'g Graph, params: CollierParams) -> Self {
        params
            .validate()
            .unwrap_or_else(|e| panic!("invalid Collier parameters: {e}"));
        Self { graph, params }
    }

    /// The bound parameters.
    #[must_use]
    pub fn params(&self) -> &CollierParams {
        &self.params
    }

    /// Notch activation Hill function `F`.
    #[must_use]
    pub fn activation(&self, mean_neighbour_delta: f64) -> f64 {
        let x = mean_neighbour_delta.powf(self.params.k);
        x / (self.params.a + x)
    }

    /// Delta inhibition Hill function `G`.
    #[must_use]
    pub fn inhibition(&self, own_notch: f64) -> f64 {
        1.0 / (1.0 + self.params.b * own_notch.powf(self.params.h))
    }

    /// Integrates from a slightly perturbed uniform state until steady
    /// state (or the step budget runs out).
    pub fn run_to_steady_state<R: Rng + ?Sized>(&self, rng: &mut R) -> PatternOutcome {
        let n = self.graph.node_count();
        // State layout: [notch_0, …, notch_{n-1}, delta_0, …, delta_{n-1}].
        let mut y = vec![0.0f64; 2 * n];
        for i in 0..n {
            y[i] = 0.5 + self.params.noise * (rng.random::<f64>() - 0.5);
            y[n + i] = 0.5 + self.params.noise * (rng.random::<f64>() - 0.5);
        }
        let mut scratch = Rk4Scratch::default();
        let mut derivative = vec![0.0f64; 2 * n];
        let mut steps = 0u32;
        let mut converged = false;
        while steps < self.params.max_steps {
            rk4_step(&mut y, self.params.dt, &mut scratch, |y, dy| {
                self.vector_field(y, dy);
            });
            steps += 1;
            // Convergence check every 32 steps keeps the loop cheap.
            if steps.is_multiple_of(32) {
                self.vector_field(&y, &mut derivative);
                let max_rate = derivative.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
                if max_rate < self.params.tolerance {
                    converged = true;
                    break;
                }
            }
        }
        let cells = (0..n)
            .map(|i| CellState {
                notch: y[i],
                delta: y[n + i],
            })
            .collect();
        PatternOutcome {
            cells,
            steps,
            converged,
        }
    }

    /// Writes the Collier vector field of `y` into `dy`.
    fn vector_field(&self, y: &[f64], dy: &mut [f64]) {
        let n = self.graph.node_count();
        for i in 0..n {
            let nbrs = self.graph.neighbors(i as NodeId);
            let mean_delta = if nbrs.is_empty() {
                0.0
            } else {
                nbrs.iter().map(|&j| y[n + j as usize]).sum::<f64>() / nbrs.len() as f64
            };
            dy[i] = self.activation(mean_delta) - y[i];
            dy[n + i] = self.params.nu * (self.inhibition(y[i]) - y[n + i]);
        }
    }
}

/// Result of integrating the model to (near) steady state.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternOutcome {
    cells: Vec<CellState>,
    steps: u32,
    converged: bool,
}

impl PatternOutcome {
    /// Final state of every cell.
    #[must_use]
    pub fn cells(&self) -> &[CellState] {
        &self.cells
    }

    /// Integration steps performed.
    #[must_use]
    pub fn steps(&self) -> u32 {
        self.steps
    }

    /// Whether the tolerance was reached before the step budget ran out.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Cells in the *sending* fate (Delta above ½) — the continuous
    /// analogue of MIS membership.
    #[must_use]
    pub fn high_delta_cells(&self) -> Vec<NodeId> {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.delta > 0.5)
            .map(|(i, _)| i as NodeId)
            .collect()
    }

    /// The fraction of cells whose fate is ambiguous (Delta in the middle
    /// band `[0.2, 0.8]`) — near zero when the switch is ultrasensitive.
    #[must_use]
    pub fn ambiguous_fraction(&self) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        let mid = self
            .cells
            .iter()
            .filter(|c| (0.2..=0.8).contains(&c.delta))
            .count();
        mid as f64 / self.cells.len() as f64
    }
}

impl fmt::Display for PatternOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cells, {} senders, {} steps{}",
            self.cells.len(),
            self.high_delta_cells().len(),
            self.steps,
            if self.converged {
                ""
            } else {
                " (not converged)"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_graph::generators;
    use rand::{rngs::SmallRng, SeedableRng};

    fn run(g: &Graph, seed: u64) -> PatternOutcome {
        let mut rng = SmallRng::seed_from_u64(seed);
        CollierModel::new(g, CollierParams::default()).run_to_steady_state(&mut rng)
    }

    #[test]
    fn two_cells_polarise() {
        // The minimal Figure 4 scenario: two coupled cells end in opposite
        // fates.
        let g = generators::complete(2);
        let outcome = run(&g, 1);
        assert!(outcome.converged(), "{outcome}");
        let senders = outcome.high_delta_cells();
        assert_eq!(senders.len(), 1, "{outcome}");
        let cells = outcome.cells();
        let (s, r) = if senders[0] == 0 { (0, 1) } else { (1, 0) };
        assert!(cells[s].delta > 0.9 && cells[s].notch < 0.1);
        assert!(cells[r].delta < 0.1 && cells[r].notch > 0.9);
    }

    #[test]
    fn senders_form_independent_set_on_cycles() {
        for (n, seed) in [(6, 2u64), (9, 3), (12, 4)] {
            let g = generators::cycle(n);
            let outcome = run(&g, seed);
            let senders: std::collections::HashSet<_> =
                outcome.high_delta_cells().into_iter().collect();
            assert!(!senders.is_empty(), "no senders on C{n}");
            for &s in &senders {
                for &u in g.neighbors(s) {
                    assert!(!senders.contains(&u), "adjacent senders {s}, {u} on C{n}");
                }
            }
        }
    }

    #[test]
    fn fates_are_ultrasensitive() {
        let g = generators::cycle(10);
        let outcome = run(&g, 5);
        assert!(
            outcome.ambiguous_fraction() < 0.15,
            "ambiguous fraction {}",
            outcome.ambiguous_fraction()
        );
    }

    #[test]
    fn isolated_cell_becomes_sender() {
        // No neighbours → no Notch activation → Delta rises to 1.
        let g = Graph::empty(1);
        let outcome = run(&g, 6);
        assert_eq!(outcome.high_delta_cells(), vec![0]);
        assert!(outcome.cells()[0].notch < 0.05);
    }

    #[test]
    fn hex_patch_patterns_like_sop_selection() {
        let g = generators::hex_grid(4, 4);
        let outcome = run(&g, 7);
        let senders: std::collections::HashSet<_> =
            outcome.high_delta_cells().into_iter().collect();
        // Independence of the sending fate.
        for &s in &senders {
            for &u in g.neighbors(s) {
                assert!(!senders.contains(&u));
            }
        }
        // A reasonable density of SOPs (between 1/7 and 1/2 of cells).
        assert!(senders.len() * 7 >= g.node_count());
        assert!(senders.len() * 2 <= g.node_count() + 1);
    }

    #[test]
    fn hill_functions_have_expected_shape() {
        let g = Graph::empty(1);
        let model = CollierModel::new(&g, CollierParams::default());
        assert!(model.activation(0.0) < 1e-9);
        assert!(model.activation(1.0) > 0.9);
        assert!(model.activation(0.5) < model.activation(1.0));
        assert!((model.inhibition(0.0) - 1.0).abs() < 1e-12);
        assert!(model.inhibition(1.0) < 0.05);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::cycle(8);
        assert_eq!(run(&g, 9), run(&g, 9));
    }

    #[test]
    #[should_panic(expected = "invalid Collier parameters")]
    fn bad_params_panic() {
        let g = Graph::empty(1);
        let _ = CollierModel::new(
            &g,
            CollierParams {
                dt: 0.0,
                ..CollierParams::default()
            },
        );
    }

    #[test]
    fn validate_messages() {
        assert!(CollierParams::default().validate().is_ok());
        let bad = CollierParams {
            noise: 2.0,
            ..CollierParams::default()
        };
        assert!(bad.validate().unwrap_err().contains("noise"));
        let bad = CollierParams {
            max_steps: 0,
            ..CollierParams::default()
        };
        assert!(bad.validate().unwrap_err().contains("max_steps"));
    }

    #[test]
    fn display_mentions_senders() {
        let g = generators::complete(2);
        assert!(run(&g, 10).to_string().contains("senders"));
    }

    use mis_graph::Graph;
}
