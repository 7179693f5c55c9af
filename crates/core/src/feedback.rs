//! The paper's feedback-adaptive algorithm (Table 1 / Definition 1).

use core::fmt;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::Rng;

use mis_beeping::{BeepingProcess, NetworkInfo, ProcessFactory, Verdict};
use mis_graph::NodeId;

/// Configuration of the feedback algorithm.
///
/// The defaults are exactly Definition 1 of the paper: `p` starts at ½, is
/// halved when a neighbour beeps, doubled otherwise, and capped at ½.
/// §6 of the paper notes the algorithm is robust to changing these
/// constants — the factors need not be exactly 2, need not be equal, may
/// differ between nodes, and the initial value need not be ½ — which is
/// precisely what the robustness experiments vary.
///
/// # Examples
///
/// ```
/// use mis_core::FeedbackConfig;
///
/// let paper = FeedbackConfig::default();
/// assert_eq!(paper.initial_p, 0.5);
/// let gentle = FeedbackConfig::default().with_factors(1.5, 1.5);
/// assert_eq!(gentle.up_factor, 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedbackConfig {
    /// Initial beeping probability (paper: ½).
    pub initial_p: f64,
    /// Upper cap on the probability (paper: ½).
    pub max_p: f64,
    /// Multiplier applied after a silent step (paper: 2).
    pub up_factor: f64,
    /// Divisor applied after hearing a beep (paper: 2).
    pub down_factor: f64,
    /// Lower floor on the probability (paper: none, i.e. 0; a positive
    /// floor is an ablation knob).
    pub min_p: f64,
    /// When `true`, a winning candidate yields if it *also* hears a join
    /// announcement. In a fault-free network this never happens, so the
    /// behaviour matches Table 1 exactly; under fault injection it restores
    /// safety (used together with the simulator's `mis_keeps_beeping`).
    pub cautious_join: bool,
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        Self {
            initial_p: 0.5,
            max_p: 0.5,
            up_factor: 2.0,
            down_factor: 2.0,
            min_p: 0.0,
            cautious_join: false,
        }
    }
}

impl FeedbackConfig {
    /// Validates the configuration, returning a description of the first
    /// problem found (used by constructors; exposed for config-file style
    /// callers).
    ///
    /// # Errors
    ///
    /// Returns a message when probabilities leave `(0, 1]`/`[0, 1]` ranges
    /// or factors are not greater than 1.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.initial_p > 0.0 && self.initial_p <= 1.0) {
            return Err(format!("initial_p {} must be in (0, 1]", self.initial_p));
        }
        if !(self.max_p > 0.0 && self.max_p <= 1.0) {
            return Err(format!("max_p {} must be in (0, 1]", self.max_p));
        }
        if self.initial_p > self.max_p {
            return Err(format!(
                "initial_p {} exceeds max_p {}",
                self.initial_p, self.max_p
            ));
        }
        if !(self.min_p >= 0.0 && self.min_p <= self.initial_p) {
            return Err(format!("min_p {} must be in [0, initial_p]", self.min_p));
        }
        // `is_nan` checks are explicit so NaN inputs are rejected rather
        // than slipping past a plain `<=` comparison.
        if self.up_factor.is_nan() || self.up_factor <= 1.0 {
            return Err(format!("up_factor {} must exceed 1", self.up_factor));
        }
        if self.down_factor.is_nan() || self.down_factor <= 1.0 {
            return Err(format!("down_factor {} must exceed 1", self.down_factor));
        }
        Ok(())
    }

    /// Replaces the up/down factors (§6 robustness knob).
    #[must_use]
    pub fn with_factors(mut self, up: f64, down: f64) -> Self {
        self.up_factor = up;
        self.down_factor = down;
        self
    }

    /// Replaces the initial probability (§6 robustness knob).
    #[must_use]
    pub fn with_initial_p(mut self, p: f64) -> Self {
        self.initial_p = p;
        self
    }

    /// Sets a probability floor (ablation knob; the paper uses none).
    #[must_use]
    pub fn with_min_p(mut self, p: f64) -> Self {
        self.min_p = p;
        self
    }

    /// Enables the cautious join rule (for fault-injected runs).
    #[must_use]
    pub fn with_cautious_join(mut self, on: bool) -> Self {
        self.cautious_join = on;
        self
    }
}

/// Per-node state of the feedback algorithm (Table 1 of the paper).
///
/// The round protocol, in the two-exchange encoding of the simulator:
///
/// * *exchange 1* — beep with the private probability `p`;
/// * *exchange 2* — a candidate that heard silence announces it joins;
/// * *end of round* — joiners terminate in the MIS; hearers of a join
///   terminate covered; otherwise `p` is decreased if a beep was heard and
///   increased (up to the cap) if not.
///
/// The configuration sits behind an [`Arc`]: a [`FeedbackFactory`] shares
/// one among all its nodes, so the per-node record is 24 bytes.
///
/// # Examples
///
/// ```
/// use mis_beeping::BeepingProcess;
/// use mis_core::{FeedbackConfig, FeedbackProcess};
///
/// let p = FeedbackProcess::new(FeedbackConfig::default());
/// assert_eq!(p.beep_probability(), 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct FeedbackProcess {
    config: Arc<FeedbackConfig>,
    p: f64,
    beeped: bool,
    heard: bool,
}

impl FeedbackProcess {
    /// Creates a fresh process in the initial state.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`FeedbackConfig::validate`]).
    #[must_use]
    pub fn new(config: FeedbackConfig) -> Self {
        Self::shared(Arc::new(config))
    }

    /// Creates a fresh process running a configuration shared with other
    /// nodes; panics like [`new`](Self::new).
    fn shared(config: Arc<FeedbackConfig>) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid feedback config: {e}"));
        Self {
            p: config.initial_p,
            config,
            beeped: false,
            heard: false,
        }
    }

    /// The configuration this process runs with.
    #[must_use]
    pub fn config(&self) -> &FeedbackConfig {
        &self.config
    }
}

impl BeepingProcess for FeedbackProcess {
    fn exchange1(&mut self, rng: &mut SmallRng) -> bool {
        self.beeped = rng.random_bool(self.p);
        self.beeped
    }

    fn exchange2(&mut self, heard: bool) -> bool {
        self.heard = heard;
        self.beeped && !heard
    }

    fn end_round(&mut self, heard_join: bool) -> Verdict {
        let claiming = self.beeped && !self.heard;
        if claiming {
            if self.config.cautious_join && heard_join {
                // Fault repair: a simultaneous join announcement means the
                // network misbehaved; yield rather than risk adjacency.
                return Verdict::Covered;
            }
            return Verdict::JoinMis;
        }
        if heard_join {
            return Verdict::Covered;
        }
        // Feedback update (Definition 1): down on a heard beep, up on
        // silence, capped at max_p and floored at min_p.
        if self.heard {
            self.p = (self.p / self.config.down_factor).max(self.config.min_p);
        } else {
            self.p = (self.p * self.config.up_factor).min(self.config.max_p);
        }
        Verdict::Continue
    }

    fn beep_probability(&self) -> f64 {
        self.p
    }
}

/// Factory installing an identical [`FeedbackProcess`] at every node — the
/// paper's uniform, anonymous setting.
///
/// Every process it creates shares the factory's one configuration.
/// For heterogeneous configurations (per-node factors, §6), build processes
/// with [`mis_beeping::FnFactory`] and [`FeedbackProcess::new`] directly.
#[derive(Debug, Clone, Default)]
pub struct FeedbackFactory {
    config: Arc<FeedbackConfig>,
}

impl FeedbackFactory {
    /// Factory with the paper's default configuration.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Factory with a custom configuration.
    #[must_use]
    pub fn with_config(config: FeedbackConfig) -> Self {
        Self {
            config: Arc::new(config),
        }
    }

    /// The configuration installed at every node.
    #[must_use]
    pub fn config(&self) -> &FeedbackConfig {
        &self.config
    }
}

impl ProcessFactory for FeedbackFactory {
    type Process = FeedbackProcess;

    fn create(&self, _node: NodeId, _degree: usize, _info: &NetworkInfo) -> FeedbackProcess {
        FeedbackProcess::shared(Arc::clone(&self.config))
    }
}

impl fmt::Display for FeedbackConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "feedback(p0={}, cap={}, up=×{}, down=÷{}{})",
            self.initial_p,
            self.max_p,
            self.up_factor,
            self.down_factor,
            if self.cautious_join { ", cautious" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_beeping::rng::node_rng;

    fn run_round(
        p: &mut FeedbackProcess,
        rng: &mut SmallRng,
        heard1: bool,
        heard2: bool,
    ) -> Verdict {
        let _ = p.exchange1(rng);
        let _ = p.exchange2(heard1);
        p.end_round(heard2)
    }

    #[test]
    fn probability_doubles_on_silence_and_halves_on_beeps() {
        let mut proc = FeedbackProcess::new(FeedbackConfig::default());
        let mut rng = node_rng(1, 0);
        // Force a known starting point by pushing p down twice.
        for _ in 0..2 {
            let v = run_round(&mut proc, &mut rng, true, false);
            assert_eq!(v, Verdict::Continue);
        }
        assert!((proc.beep_probability() - 0.125).abs() < 1e-12);
        // One silent round doubles (if the node does not win, it might
        // instead join; repeat until a non-beeping silent round occurs).
        loop {
            let before = proc.beep_probability();
            let _ = proc.exchange1(&mut rng);
            let claimed = proc.exchange2(false);
            if claimed {
                // Node would join; reset state instead of terminating.
                proc = FeedbackProcess::new(FeedbackConfig::default());
                for _ in 0..2 {
                    let _ = run_round(&mut proc, &mut rng, true, false);
                }
                continue;
            }
            let v = proc.end_round(false);
            assert_eq!(v, Verdict::Continue);
            assert!((proc.beep_probability() - (before * 2.0).min(0.5)).abs() < 1e-12);
            break;
        }
    }

    #[test]
    fn probability_caps_at_max() {
        let mut proc = FeedbackProcess::new(FeedbackConfig::default());
        let mut rng = node_rng(2, 0);
        for _ in 0..10 {
            let _ = proc.exchange1(&mut rng);
            let claimed = proc.exchange2(false);
            if claimed {
                return; // joined; cap property vacuous on this path
            }
            let _ = proc.end_round(false);
            assert!(proc.beep_probability() <= 0.5 + 1e-12);
        }
    }

    #[test]
    fn floor_is_respected() {
        let cfg = FeedbackConfig::default().with_min_p(0.1);
        let mut proc = FeedbackProcess::new(cfg);
        let mut rng = node_rng(3, 0);
        for _ in 0..20 {
            let _ = run_round(&mut proc, &mut rng, true, false);
        }
        assert!(proc.beep_probability() >= 0.1 - 1e-12);
    }

    #[test]
    fn winner_joins_and_hearer_covers() {
        let mut proc = FeedbackProcess::new(FeedbackConfig::default());
        let mut rng = node_rng(4, 0);
        // Drive until the process beeps, then feed silence.
        loop {
            let beeped = proc.exchange1(&mut rng);
            let claim = proc.exchange2(false);
            if beeped {
                assert!(claim);
                assert_eq!(proc.end_round(false), Verdict::JoinMis);
                break;
            }
            let _ = proc.end_round(false);
        }

        let mut other = FeedbackProcess::new(FeedbackConfig::default());
        let _ = other.exchange1(&mut rng);
        let _ = other.exchange2(true); // heard the winner's candidate beep
        assert_eq!(other.end_round(true), Verdict::Covered);
    }

    #[test]
    fn cautious_join_yields_on_simultaneous_announcement() {
        let cfg = FeedbackConfig::default().with_cautious_join(true);
        let mut proc = FeedbackProcess::new(cfg);
        let mut rng = node_rng(5, 0);
        loop {
            let beeped = proc.exchange1(&mut rng);
            let _ = proc.exchange2(false);
            if beeped {
                assert_eq!(proc.end_round(true), Verdict::Covered);
                break;
            }
            let _ = proc.end_round(false);
        }
    }

    #[test]
    fn paper_default_joins_despite_announcement() {
        // Faithful Table 1: "if signalling then join the MIS".
        let mut proc = FeedbackProcess::new(FeedbackConfig::default());
        let mut rng = node_rng(6, 0);
        loop {
            let beeped = proc.exchange1(&mut rng);
            let _ = proc.exchange2(false);
            if beeped {
                assert_eq!(proc.end_round(true), Verdict::JoinMis);
                break;
            }
            let _ = proc.end_round(false);
        }
    }

    #[test]
    fn config_validation_catches_mistakes() {
        assert!(FeedbackConfig::default().validate().is_ok());
        assert!(FeedbackConfig {
            initial_p: 0.0,
            ..FeedbackConfig::default()
        }
        .validate()
        .is_err());
        assert!(FeedbackConfig {
            initial_p: 0.9,
            max_p: 0.5,
            ..FeedbackConfig::default()
        }
        .validate()
        .is_err());
        assert!(FeedbackConfig::default()
            .with_factors(1.0, 2.0)
            .validate()
            .is_err());
        assert!(FeedbackConfig::default()
            .with_factors(2.0, 0.5)
            .validate()
            .is_err());
        assert!(FeedbackConfig::default()
            .with_min_p(0.9)
            .validate()
            .is_err());
    }

    #[test]
    #[should_panic(expected = "invalid feedback config")]
    fn bad_config_panics_on_construction() {
        let _ = FeedbackProcess::new(FeedbackConfig::default().with_initial_p(2.0));
    }

    #[test]
    fn factory_processes_share_one_config() {
        let factory = FeedbackFactory::with_config(FeedbackConfig::default().with_min_p(0.01));
        let info = NetworkInfo {
            node_count: 2,
            max_degree: 1,
        };
        let a = factory.create(0, 1, &info);
        let b = factory.create(1, 1, &info);
        assert!(core::ptr::eq(a.config(), b.config()));
        assert!(core::ptr::eq(a.config(), factory.config()));
        assert!(core::mem::size_of::<FeedbackProcess>() <= 24);
    }

    #[test]
    #[should_panic(expected = "invalid feedback config")]
    fn bad_factory_config_panics_on_create() {
        // Building the factory accepts any config; the first node built
        // from it panics, as a process built directly would.
        let factory = FeedbackFactory::with_config(FeedbackConfig::default().with_initial_p(2.0));
        let info = NetworkInfo {
            node_count: 1,
            max_degree: 0,
        };
        let _ = factory.create(0, 0, &info);
    }

    #[test]
    fn asymmetric_factors_work() {
        let cfg = FeedbackConfig::default().with_factors(3.0, 1.5);
        let mut proc = FeedbackProcess::new(cfg);
        let mut rng = node_rng(7, 0);
        let _ = run_round(&mut proc, &mut rng, true, false);
        assert!((proc.beep_probability() - 0.5 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn display_shows_parameters() {
        let s = FeedbackConfig::default().to_string();
        assert!(s.contains("p0=0.5"));
        let s = FeedbackConfig::default()
            .with_cautious_join(true)
            .to_string();
        assert!(s.contains("cautious"));
    }
}
