//! Simulation configuration and fault injection plans.

use std::sync::Arc;

use crate::json::Json;
use crate::scenario::{scenario_eq, Scenario};

/// Fault-injection plan for a simulation run.
///
/// The paper's algorithm is designed for a reliable synchronous network;
/// §6 argues the approach is robust to perturbations. This plan injects two
/// realistic perturbations so that claim can be measured:
///
/// * **message loss** — each beep delivery over each directed edge is
///   dropped independently with probability `message_loss`;
/// * **late wake-ups** — node `v` stays [`Asleep`](crate::NodeStatus::Asleep)
///   (neither beeping nor hearing) until round `wake_rounds[v]`.
///
/// Late wake-ups can break correctness (a late node cannot know a silent
/// neighbour is already in the MIS); the `mis_keeps_beeping` repair in
/// [`SimConfig`] makes MIS members re-announce every round, restoring
/// safety at the cost of extra signals.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Probability that an individual beep delivery is lost (per directed
    /// edge, per exchange). Zero means a reliable network.
    pub message_loss: f64,
    /// Per-node wake-up rounds; empty means all nodes start awake. Nodes
    /// beyond the vector's length start awake.
    pub wake_rounds: Vec<u32>,
}

/// Rejection reason from [`FaultPlan::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlanError {
    /// `message_loss` was NaN — comparing it against a random draw would
    /// silently deliver everything.
    NanLoss,
    /// `message_loss` was outside `[0, 1]`.
    LossOutOfRange(
        /// The offending value.
        f64,
    ),
}

impl core::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FaultPlanError::NanLoss => write!(f, "message loss probability must not be NaN"),
            FaultPlanError::LossOutOfRange(v) => {
                write!(f, "message loss probability must be in [0, 1], got {v}")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

impl FaultPlan {
    /// A reliable, all-awake network (the paper's setting).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Checks the plan for nonsense values instead of silently sampling
    /// garbage: `message_loss` must be a real probability in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// [`FaultPlanError::NanLoss`] for NaN, and
    /// [`FaultPlanError::LossOutOfRange`] for values outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        if self.message_loss.is_nan() {
            return Err(FaultPlanError::NanLoss);
        }
        if !(0.0..=1.0).contains(&self.message_loss) {
            return Err(FaultPlanError::LossOutOfRange(self.message_loss));
        }
        Ok(())
    }

    /// Whether this plan injects no faults at all.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.message_loss == 0.0 && self.wake_rounds.iter().all(|&w| w == 0)
    }

    /// Wake round for `node` (0 when unspecified).
    #[must_use]
    pub fn wake_round(&self, node: u32) -> u32 {
        self.wake_rounds.get(node as usize).copied().unwrap_or(0)
    }
}

/// Which implementation computes the per-exchange beep propagation
/// (`heard[v] = OR of beeps over v's neighbours`).
///
/// Both kernels produce **bit-identical** `heard` vectors and therefore
/// identical [`RunOutcome`](crate::RunOutcome)s; the choice only affects
/// speed. `tests/kernel_equivalence.rs` pins the equivalence with property
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PropagationKernel {
    /// Reference implementation: push from each beeping node, in
    /// ascending id order, to its neighbours, one delivery at a time.
    Scalar,
    /// Packed `u64` bitset kernel (the default): beeps live one bit per
    /// node, and each exchange picks push or pull direction from the beep
    /// density — pulling walks the CSR adjacency word-at-a-time with an
    /// early exit on the first beeping word.
    ///
    /// With [`RngMode::Counter`], the bitset kernel also runs lossy
    /// (`message_loss > 0`) configurations: counter-keyed loss draws are
    /// pure functions of `(edge, round, exchange)`, so no shared stream
    /// order constrains the kernel. Under the legacy [`RngMode::Stream`],
    /// lossy runs still take the scalar reference path (per-delivery loss
    /// draws must consume the fault RNG in reference order), and so do
    /// delivery-perturbing/churning scenario runs in either mode — the
    /// substitution is no longer silent: the kernel that actually ran is
    /// recorded as [`RunOutcome::kernel_used`](crate::RunOutcome::kernel_used).
    #[default]
    Bitset,
}

impl PropagationKernel {
    /// The canonical wire spelling of this kernel (`scalar` / `bitset`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PropagationKernel::Scalar => "scalar",
            PropagationKernel::Bitset => "bitset",
        }
    }

    /// Parses a canonical wire spelling written by [`Self::name`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "scalar" => Some(PropagationKernel::Scalar),
            "bitset" => Some(PropagationKernel::Bitset),
            _ => None,
        }
    }
}

/// How the simulator derives its random draws (see [`crate::rng`]).
///
/// Both modes are deterministic per master seed; they define *different*
/// (equally valid) random sequences, so switching modes changes individual
/// run outcomes while preserving every statistical property.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RngMode {
    /// Legacy stateful streams (the default): each node consumes its own
    /// [`node_rng`](crate::rng::node_rng) stream across rounds, and
    /// per-delivery loss draws consume one shared fault stream in the
    /// scalar reference order. Committed replay artifacts (the fuzz
    /// corpus, pinned determinism digests) were recorded in this mode and
    /// stay byte-identical under it.
    #[default]
    Stream,
    /// Stateless counter-based draws: every draw is
    /// [`mix`](crate::rng::mix)`(master, domain, …)` keyed by its
    /// coordinates — `(node, round)` for process draws,
    /// `(sender, receiver, round, exchange)` for loss draws. Draw order is
    /// irrelevant by construction, which legalises intra-run sharding
    /// ([`SimConfig::shards`]) and the bitset kernel on lossy runs.
    Counter,
}

impl RngMode {
    /// The canonical wire spelling of this mode (`stream` / `counter`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RngMode::Stream => "stream",
            RngMode::Counter => "counter",
        }
    }

    /// Parses a canonical wire spelling written by [`Self::name`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "stream" => Some(RngMode::Stream),
            "counter" => Some(RngMode::Counter),
            _ => None,
        }
    }
}

/// Configuration for a [`Simulator`](crate::Simulator) run.
///
/// # Examples
///
/// ```
/// use mis_beeping::{PropagationKernel, SimConfig};
///
/// let cfg = SimConfig::default()
///     .with_max_rounds(10_000)
///     .with_mis_keeps_beeping(true)
///     .with_kernel(PropagationKernel::Scalar);
/// assert_eq!(cfg.max_rounds, 10_000);
/// assert_eq!(cfg.kernel, PropagationKernel::Scalar);
/// ```
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Hard cap on simulated rounds; the run reports
    /// non-termination if the cap is reached. The default (1 million) is
    /// far beyond anything the `O(log n)` algorithms need.
    pub max_rounds: u32,
    /// Fault-injection plan (defaults to none).
    pub faults: FaultPlan,
    /// When `true`, nodes already in the MIS keep beeping in **both**
    /// exchanges of every subsequent round: the first-exchange heartbeat
    /// inhibits late wakers from claiming next to an MIS member, and the
    /// second-exchange heartbeat lets them terminate as covered. This
    /// repairs correctness under late wake-ups and mirrors the persistent
    /// lateral inhibition of SOP cells in the biological system.
    pub mis_keeps_beeping: bool,
    /// Which beep-propagation implementation to use (defaults to the
    /// packed [`PropagationKernel::Bitset`] kernel).
    pub kernel: PropagationKernel,
    /// RNG derivation discipline (defaults to the legacy
    /// [`RngMode::Stream`], which keeps existing replay artifacts
    /// byte-identical).
    pub rng: RngMode,
    /// Intra-run shard count for the propagation phase: the bitset
    /// kernel's pull direction splits its listener range across this many
    /// scoped worker threads. `1` (the default) runs sequentially; `0`
    /// means one shard per available core. Requires
    /// [`RngMode::Counter`] to take effect (stream draws are
    /// order-coupled), and the outcomes are bit-identical for every shard
    /// count — `tests/sharding_equivalence.rs` pins this.
    pub shards: usize,
    /// Optional composable adversary (defaults to none). A scenario
    /// layers on top of `faults`: wake rounds merge by taking the later
    /// of the two, and scenario loss/delay/churn apply in addition to
    /// the plan's uniform loss. Runs with a delivery-perturbing or
    /// churning scenario use the scalar reference kernel, like lossy
    /// [`FaultPlan`] runs.
    pub scenario: Option<Arc<dyn Scenario>>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            max_rounds: 1_000_000,
            faults: FaultPlan::none(),
            mis_keeps_beeping: false,
            kernel: PropagationKernel::default(),
            rng: RngMode::default(),
            shards: 1,
            scenario: None,
        }
    }
}

impl PartialEq for SimConfig {
    fn eq(&self, other: &Self) -> bool {
        // Scenarios compare by canonical spec (equal specs imply
        // identical behaviour), which keeps this an equivalence relation.
        self.max_rounds == other.max_rounds
            && self.faults == other.faults
            && self.mis_keeps_beeping == other.mis_keeps_beeping
            && self.kernel == other.kernel
            && self.rng == other.rng
            && self.shards == other.shards
            && scenario_eq(self.scenario.as_ref(), other.scenario.as_ref())
    }
}

impl SimConfig {
    /// Replaces the round cap.
    ///
    /// # Panics
    ///
    /// Panics if `max_rounds` is zero.
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: u32) -> Self {
        assert!(max_rounds > 0, "round cap must be positive");
        self.max_rounds = max_rounds;
        self
    }

    /// Replaces the fault plan.
    ///
    /// # Panics
    ///
    /// Panics if [`FaultPlan::validate`] rejects the plan (`message_loss`
    /// NaN or outside `[0, 1]`).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        if let Err(e) = faults.validate() {
            panic!("{e}");
        }
        self.faults = faults;
        self
    }

    /// Attaches a composable adversary (see
    /// [`scenario`](crate::scenario)).
    #[must_use]
    pub fn with_scenario(mut self, scenario: Arc<dyn Scenario>) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// Enables or disables the MIS re-announcement repair.
    #[must_use]
    pub fn with_mis_keeps_beeping(mut self, on: bool) -> Self {
        self.mis_keeps_beeping = on;
        self
    }

    /// Selects the beep-propagation kernel.
    #[must_use]
    pub fn with_kernel(mut self, kernel: PropagationKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Selects the RNG derivation discipline.
    #[must_use]
    pub fn with_rng_mode(mut self, rng: RngMode) -> Self {
        self.rng = rng;
        self
    }

    /// Sets the intra-run shard count (`0` = one shard per core) and,
    /// for any value other than `1`, switches to [`RngMode::Counter`] —
    /// sharding is only legal when draws are order-independent.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        if shards != 1 {
            self.rng = RngMode::Counter;
        }
        self
    }

    /// The canonical JSON tree of this configuration: every field
    /// materialised (defaults included), keys in a fixed alphabetical
    /// order, scenarios by their canonical spec. Two configs are equal
    /// ([`PartialEq`]) **iff** their canonical JSON renders to the same
    /// text, which is what makes the tree usable as a content-address
    /// component — the serving tier keys its result cache on it.
    ///
    /// # Examples
    ///
    /// ```
    /// use mis_beeping::SimConfig;
    ///
    /// let a = SimConfig::default().with_max_rounds(10).with_shards(2);
    /// let b = SimConfig::default().with_shards(2).with_max_rounds(10);
    /// assert_eq!(a.canonical_json().render(), b.canonical_json().render());
    /// assert_ne!(
    ///     a.canonical_json().render(),
    ///     SimConfig::default().canonical_json().render()
    /// );
    /// ```
    #[must_use]
    pub fn canonical_json(&self) -> Json {
        Json::Obj(vec![
            (
                "faults".to_owned(),
                Json::Obj(vec![
                    (
                        "message_loss".to_owned(),
                        Json::Num(self.faults.message_loss),
                    ),
                    (
                        "wake_rounds".to_owned(),
                        Json::Arr(
                            self.faults
                                .wake_rounds
                                .iter()
                                .map(|&w| Json::Num(f64::from(w)))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "kernel".to_owned(),
                Json::Str(self.kernel.name().to_owned()),
            ),
            (
                "max_rounds".to_owned(),
                Json::Num(f64::from(self.max_rounds)),
            ),
            (
                "mis_keeps_beeping".to_owned(),
                Json::Bool(self.mis_keeps_beeping),
            ),
            ("rng".to_owned(), Json::Str(self.rng.name().to_owned())),
            (
                "scenario".to_owned(),
                match &self.scenario {
                    // Scenario specs are already canonical compact JSON.
                    Some(s) => Json::parse(&s.spec_json()).unwrap_or(Json::Null),
                    None => Json::Null,
                },
            ),
            ("shards".to_owned(), Json::Num(self.shards as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fault_free() {
        let cfg = SimConfig::default();
        assert!(cfg.faults.is_none());
        assert!(!cfg.mis_keeps_beeping);
        assert_eq!(cfg.kernel, PropagationKernel::Bitset);
        assert_eq!(cfg.rng, RngMode::Stream);
        assert_eq!(cfg.shards, 1);
    }

    #[test]
    fn rng_mode_and_shards_are_selectable() {
        let cfg = SimConfig::default().with_rng_mode(RngMode::Counter);
        assert_eq!(cfg.rng, RngMode::Counter);
        assert_eq!(cfg.shards, 1);
        // Any shard count other than 1 implies counter draws.
        let sharded = SimConfig::default().with_shards(4);
        assert_eq!(sharded.shards, 4);
        assert_eq!(sharded.rng, RngMode::Counter);
        let auto = SimConfig::default().with_shards(0);
        assert_eq!(auto.shards, 0);
        assert_eq!(auto.rng, RngMode::Counter);
        // shards = 1 is the sequential no-op and leaves the mode alone.
        let seq = SimConfig::default().with_shards(1);
        assert_eq!(seq.rng, RngMode::Stream);
    }

    #[test]
    fn rng_mode_and_shards_affect_equality() {
        let base = SimConfig::default();
        assert_ne!(base, base.clone().with_rng_mode(RngMode::Counter));
        assert_ne!(base, base.clone().with_shards(2));
        assert_eq!(base, base.clone().with_shards(1));
    }

    #[test]
    fn kernel_is_selectable() {
        let cfg = SimConfig::default().with_kernel(PropagationKernel::Scalar);
        assert_eq!(cfg.kernel, PropagationKernel::Scalar);
        let back = cfg.with_kernel(PropagationKernel::Bitset);
        assert_eq!(back.kernel, PropagationKernel::Bitset);
    }

    #[test]
    fn fault_plan_queries() {
        let plan = FaultPlan {
            message_loss: 0.0,
            wake_rounds: vec![0, 5, 2],
        };
        assert!(!plan.is_none());
        assert_eq!(plan.wake_round(1), 5);
        assert_eq!(plan.wake_round(99), 0);
        assert!(FaultPlan::none().is_none());
    }

    #[test]
    fn builder_chain() {
        let cfg = SimConfig::default()
            .with_max_rounds(5)
            .with_mis_keeps_beeping(true)
            .with_faults(FaultPlan {
                message_loss: 0.1,
                wake_rounds: vec![],
            });
        assert_eq!(cfg.max_rounds, 5);
        assert!(cfg.mis_keeps_beeping);
        assert_eq!(cfg.faults.message_loss, 0.1);
    }

    #[test]
    #[should_panic(expected = "round cap")]
    fn zero_round_cap_panics() {
        let _ = SimConfig::default().with_max_rounds(0);
    }

    fn loss_plan(message_loss: f64) -> FaultPlan {
        FaultPlan {
            message_loss,
            wake_rounds: vec![],
        }
    }

    #[test]
    fn validate_accepts_boundary_probabilities() {
        assert_eq!(loss_plan(0.0).validate(), Ok(()));
        assert_eq!(loss_plan(1.0).validate(), Ok(()));
        assert_eq!(loss_plan(0.5).validate(), Ok(()));
        // The builder accepts the full closed interval too.
        let cfg = SimConfig::default().with_faults(loss_plan(1.0));
        assert_eq!(cfg.faults.message_loss, 1.0);
    }

    #[test]
    fn validate_rejects_out_of_range_loss() {
        assert_eq!(
            loss_plan(1.5).validate(),
            Err(FaultPlanError::LossOutOfRange(1.5))
        );
        assert_eq!(
            loss_plan(-0.1).validate(),
            Err(FaultPlanError::LossOutOfRange(-0.1))
        );
        assert_eq!(
            loss_plan(f64::INFINITY).validate(),
            Err(FaultPlanError::LossOutOfRange(f64::INFINITY))
        );
        let msg = loss_plan(2.0).validate().unwrap_err().to_string();
        assert!(msg.contains("[0, 1]"), "{msg}");
    }

    #[test]
    fn validate_rejects_nan_loss() {
        assert_eq!(loss_plan(f64::NAN).validate(), Err(FaultPlanError::NanLoss));
    }

    #[test]
    #[should_panic(expected = "message loss")]
    fn bad_loss_probability_panics() {
        let _ = SimConfig::default().with_faults(loss_plan(1.5));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_loss_probability_panics() {
        let _ = SimConfig::default().with_faults(loss_plan(f64::NAN));
    }

    #[test]
    fn kernel_and_rng_names_round_trip() {
        for k in [PropagationKernel::Scalar, PropagationKernel::Bitset] {
            assert_eq!(PropagationKernel::parse(k.name()), Some(k));
        }
        for r in [RngMode::Stream, RngMode::Counter] {
            assert_eq!(RngMode::parse(r.name()), Some(r));
        }
        assert_eq!(PropagationKernel::parse("simd"), None);
        assert_eq!(RngMode::parse("hybrid"), None);
    }

    #[test]
    fn canonical_json_is_deterministic_and_total() {
        let cfg = SimConfig::default()
            .with_max_rounds(123)
            .with_mis_keeps_beeping(true)
            .with_kernel(PropagationKernel::Scalar)
            .with_shards(3)
            .with_faults(FaultPlan {
                message_loss: 0.25,
                wake_rounds: vec![0, 4],
            });
        let text = cfg.canonical_json().render();
        // Round-trips through the parser and re-renders identically.
        assert_eq!(Json::parse(&text).unwrap().render(), text);
        // Every outcome-bearing knob is present.
        for key in [
            "faults",
            "kernel",
            "max_rounds",
            "mis_keeps_beeping",
            "rng",
            "scenario",
            "shards",
        ] {
            assert!(
                text.contains(&format!("\"{key}\"")),
                "missing {key}: {text}"
            );
        }
        assert!(text.contains("\"scalar\""));
        assert!(text.contains("\"counter\""));
    }

    #[test]
    fn canonical_json_separates_distinct_configs() {
        let base = SimConfig::default();
        let texts = [
            base.canonical_json().render(),
            base.clone().with_max_rounds(5).canonical_json().render(),
            base.clone()
                .with_kernel(PropagationKernel::Scalar)
                .canonical_json()
                .render(),
            base.clone()
                .with_rng_mode(RngMode::Counter)
                .canonical_json()
                .render(),
            base.clone().with_shards(4).canonical_json().render(),
            base.clone()
                .with_scenario(Arc::new(crate::scenario::ScenarioSpec::uniform_loss(
                    1, 0.1,
                )))
                .canonical_json()
                .render(),
        ];
        for (i, a) in texts.iter().enumerate() {
            for b in texts.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        // Equal configs render equal canonical text.
        assert_eq!(
            base.canonical_json().render(),
            SimConfig::default().canonical_json().render()
        );
    }

    #[test]
    fn scenario_affects_config_equality() {
        use crate::scenario::ScenarioSpec;

        let base = SimConfig::default();
        assert_eq!(base, base.clone());
        let a = base
            .clone()
            .with_scenario(Arc::new(ScenarioSpec::uniform_loss(1, 0.1)));
        let same = base
            .clone()
            .with_scenario(Arc::new(ScenarioSpec::uniform_loss(1, 0.1)));
        let diff = base
            .clone()
            .with_scenario(Arc::new(ScenarioSpec::uniform_loss(2, 0.1)));
        assert_eq!(a, same);
        assert_ne!(a, diff);
        assert_ne!(a, base);
    }
}
