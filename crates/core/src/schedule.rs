//! Preset global probability schedules (the algorithm class of §3).
//!
//! In the approach of Afek et al., every node beeps with the same
//! probability `p_t` in step `t`, where the sequence `p_1, p_2, …` is fixed
//! in advance. Theorem 1 of the paper shows that *no* such sequence can
//! beat `Ω(log² n)` rounds on the clique-union family. The schedules here
//! are the concrete instances used in the paper's experiments.

use core::fmt;
use std::sync::Arc;

/// A preset sequence of beeping probabilities indexed by time step.
///
/// Implementations must return values in `[0, 1]` for every step.
pub trait ProbabilitySchedule {
    /// The probability with which every node beeps at `step` (0-based).
    fn probability(&self, step: u32) -> f64;

    /// Human-readable name for experiment reports.
    fn name(&self) -> &str;
}

impl<S: ProbabilitySchedule + ?Sized> ProbabilitySchedule for Arc<S> {
    fn probability(&self, step: u32) -> f64 {
        (**self).probability(step)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

/// The refined DISC'11 schedule of Afek et al. as described in the paper's
/// introduction: phases `k = 1, 2, 3, …`; phase `k` has `k + 1` steps with
/// probabilities `1, ½, ¼, …, 2^{-k}`.
///
/// The overall sequence therefore begins
/// `1, ½ | 1, ½, ¼ | 1, ½, ¼, ⅛ | …` — requiring no knowledge of the
/// network. This is the “Global Probability Values” series of Figures 3
/// and 5.
///
/// # Examples
///
/// ```
/// use mis_core::{ProbabilitySchedule, SweepSchedule};
///
/// let s = SweepSchedule::new();
/// let first: Vec<f64> = (0..9).map(|t| s.probability(t)).collect();
/// assert_eq!(
///     first,
///     vec![1.0, 0.5, 1.0, 0.5, 0.25, 1.0, 0.5, 0.25, 0.125]
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepSchedule;

impl SweepSchedule {
    /// Creates the sweep schedule.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl ProbabilitySchedule for SweepSchedule {
    fn probability(&self, step: u32) -> f64 {
        // Steps before phase k: sum_{i=1}^{k-1} (i + 1) = (k - 1)(k + 2)/2.
        // Find the phase containing `step`, then the offset within it.
        let step = u64::from(step);
        let mut k = 1u64;
        // Solve (k-1)(k+2)/2 <= step by initial estimate + local walk.
        let est = (((2.0 * step as f64 + 2.25).sqrt()) - 0.5).floor() as u64;
        k = k.max(est.saturating_sub(2)).max(1);
        while (k) * (k + 3) / 2 <= step {
            k += 1;
        }
        let start = (k - 1) * (k + 2) / 2;
        let offset = (step - start) as u32; // 0..=k
        0.5f64.powi(offset as i32)
    }

    fn name(&self) -> &str {
        "sweep (Afek et al. DISC'11)"
    }
}

/// The original Science'11 schedule: probabilities computed from the
/// network size `n` and maximum degree `Δ`, increasing gradually from
/// `1/(2Δ)` to `½` in doubling phases of `steps_per_phase` steps each, and
/// holding at `½` afterwards.
///
/// The paper (§5) observes that with this informed schedule the mean number
/// of beeps per node stays bounded by a constant, unlike the uninformed
/// sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScienceSchedule {
    base: f64,
    phases: u32,
    steps_per_phase: u32,
}

impl ScienceSchedule {
    /// Builds the schedule for a network with `node_count` nodes and
    /// maximum degree `max_degree`; each doubling phase lasts
    /// `phase_factor · ⌈log₂ n⌉` steps (the paper's `O(log n)`; a
    /// `phase_factor` of 2 matches the qualitative behaviour).
    ///
    /// # Panics
    ///
    /// Panics if `phase_factor` is zero.
    #[must_use]
    pub fn for_network(node_count: usize, max_degree: usize, phase_factor: u32) -> Self {
        assert!(phase_factor > 0, "phase factor must be positive");
        let delta = max_degree.max(1) as f64;
        let base = (1.0 / (2.0 * delta)).min(0.5);
        // Number of doublings from base to 1/2.
        let phases = (0.5 / base).log2().ceil() as u32 + 1;
        let log_n = (node_count.max(2) as f64).log2().ceil() as u32;
        Self {
            base,
            phases,
            steps_per_phase: phase_factor * log_n.max(1),
        }
    }

    /// Number of steps before the schedule saturates at ½.
    #[must_use]
    pub fn ramp_length(&self) -> u32 {
        self.phases * self.steps_per_phase
    }
}

impl ProbabilitySchedule for ScienceSchedule {
    fn probability(&self, step: u32) -> f64 {
        let phase = (step / self.steps_per_phase).min(self.phases);
        (self.base * 2f64.powi(phase as i32)).min(0.5)
    }

    fn name(&self) -> &str {
        "science (Afek et al. Science'11)"
    }
}

/// A constant probability at every step — the simplest member of the
/// global-schedule class, and the strawman that motivates adaptivity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantSchedule(f64);

impl ConstantSchedule {
    /// Creates the schedule.
    ///
    /// # Panics
    ///
    /// Panics if `p` lies outside `[0, 1]`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        Self(p)
    }

    /// The constant probability.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.0
    }
}

impl ProbabilitySchedule for ConstantSchedule {
    fn probability(&self, _step: u32) -> f64 {
        self.0
    }
    fn name(&self) -> &str {
        "constant"
    }
}

/// A monotone decreasing schedule: start at `initial`, halve every
/// `steps_per_level` steps, never increasing again.
///
/// The natural “obvious fix” one might try instead of sweeping — and a
/// useful foil for Theorem 1: it commits to each probability scale exactly
/// once, so cliques whose scale has *passed* before they got lucky are
/// stranded with ever-shrinking win probability. On mixed clique sizes it
/// performs even worse than the sweep.
///
/// # Examples
///
/// ```
/// use mis_core::{DecreasingSchedule, ProbabilitySchedule};
///
/// let s = DecreasingSchedule::new(0.5, 3);
/// assert_eq!(s.probability(0), 0.5);
/// assert_eq!(s.probability(2), 0.5);
/// assert_eq!(s.probability(3), 0.25);
/// assert_eq!(s.probability(6), 0.125);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecreasingSchedule {
    initial: f64,
    steps_per_level: u32,
}

impl DecreasingSchedule {
    /// Creates the schedule.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is outside `(0, 1]` or `steps_per_level` is 0.
    #[must_use]
    pub fn new(initial: f64, steps_per_level: u32) -> Self {
        assert!(
            initial > 0.0 && initial <= 1.0,
            "initial probability must be in (0, 1]"
        );
        assert!(steps_per_level > 0, "steps per level must be positive");
        Self {
            initial,
            steps_per_level,
        }
    }
}

impl ProbabilitySchedule for DecreasingSchedule {
    fn probability(&self, step: u32) -> f64 {
        let level = (step / self.steps_per_level).min(1000);
        self.initial * 0.5f64.powi(level as i32)
    }
    fn name(&self) -> &str {
        "decreasing"
    }
}

/// What a [`CustomSchedule`] does after its explicit sequence is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TailBehavior {
    /// Repeat the final value forever (default).
    #[default]
    Hold,
    /// Restart the sequence from the beginning.
    Cycle,
}

/// An arbitrary user-supplied probability sequence, for probing Theorem 1
/// with any candidate schedule.
///
/// # Examples
///
/// ```
/// use mis_core::{CustomSchedule, ProbabilitySchedule, TailBehavior};
///
/// let s = CustomSchedule::new(vec![1.0, 0.25], TailBehavior::Cycle);
/// assert_eq!(s.probability(0), 1.0);
/// assert_eq!(s.probability(3), 0.25);
/// let h = CustomSchedule::new(vec![1.0, 0.25], TailBehavior::Hold);
/// assert_eq!(h.probability(100), 0.25);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CustomSchedule {
    values: Vec<f64>,
    tail: TailBehavior,
}

impl CustomSchedule {
    /// Creates a schedule from explicit step probabilities.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or any value lies outside `[0, 1]`.
    #[must_use]
    pub fn new(values: Vec<f64>, tail: TailBehavior) -> Self {
        assert!(!values.is_empty(), "schedule needs at least one value");
        for &v in &values {
            assert!((0.0..=1.0).contains(&v), "probability must be in [0, 1]");
        }
        Self { values, tail }
    }
}

impl ProbabilitySchedule for CustomSchedule {
    fn probability(&self, step: u32) -> f64 {
        let i = step as usize;
        match self.tail {
            TailBehavior::Hold => self.values[i.min(self.values.len() - 1)],
            TailBehavior::Cycle => self.values[i % self.values.len()],
        }
    }
    fn name(&self) -> &str {
        "custom"
    }
}

impl fmt::Display for SweepSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Display for ScienceSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (base={}, {}×{} ramp)",
            self.name(),
            self.base,
            self.phases,
            self.steps_per_phase
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_matches_paper_sequence() {
        // From the paper: 1, ½, 1, ½, ¼, 1, ½, ¼, ⅛, 1, ½, ¼, ⅛, 1/16, …
        let expected = [
            1.0, 0.5, //
            1.0, 0.5, 0.25, //
            1.0, 0.5, 0.25, 0.125, //
            1.0, 0.5, 0.25, 0.125, 0.0625,
        ];
        let s = SweepSchedule::new();
        for (t, &e) in expected.iter().enumerate() {
            assert_eq!(s.probability(t as u32), e, "step {t}");
        }
    }

    #[test]
    fn sweep_large_steps_dont_overflow() {
        let s = SweepSchedule::new();
        let p = s.probability(u32::MAX);
        assert!((0.0..=1.0).contains(&p));
        // Start of a late phase is always 1.
        // Phase k starts at (k-1)(k+2)/2; pick k = 10_000.
        let k: u64 = 10_000;
        let start = ((k - 1) * (k + 2) / 2) as u32;
        assert_eq!(s.probability(start), 1.0);
        assert_eq!(s.probability(start + 3), 0.125);
    }

    #[test]
    fn science_ramps_and_saturates() {
        let s = ScienceSchedule::for_network(1024, 64, 2);
        assert!((s.probability(0) - 1.0 / 128.0).abs() < 1e-12);
        // Non-decreasing and eventually 1/2.
        let mut last = 0.0;
        for t in 0..s.ramp_length() + 10 {
            let p = s.probability(t);
            assert!(p >= last);
            last = p;
        }
        assert_eq!(s.probability(s.ramp_length() + 100), 0.5);
    }

    #[test]
    fn science_handles_degenerate_networks() {
        let s = ScienceSchedule::for_network(1, 0, 1);
        assert_eq!(s.probability(0), 0.5);
        let s = ScienceSchedule::for_network(2, 1, 1);
        assert!(s.probability(0) > 0.0);
    }

    #[test]
    fn constant_is_constant() {
        let s = ConstantSchedule::new(0.25);
        assert_eq!(s.value(), 0.25);
        for t in [0, 5, 1000] {
            assert_eq!(s.probability(t), 0.25);
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn constant_rejects_bad_probability() {
        let _ = ConstantSchedule::new(-0.1);
    }

    #[test]
    fn custom_hold_and_cycle() {
        let hold = CustomSchedule::new(vec![0.5, 0.1], TailBehavior::Hold);
        assert_eq!(hold.probability(0), 0.5);
        assert_eq!(hold.probability(1), 0.1);
        assert_eq!(hold.probability(9), 0.1);
        let cyc = CustomSchedule::new(vec![0.5, 0.1], TailBehavior::Cycle);
        assert_eq!(cyc.probability(2), 0.5);
        assert_eq!(cyc.probability(3), 0.1);
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn custom_rejects_empty() {
        let _ = CustomSchedule::new(vec![], TailBehavior::Hold);
    }

    #[test]
    fn arc_forwarding() {
        let s = Arc::new(SweepSchedule::new());
        assert_eq!(s.probability(0), 1.0);
        assert!(s.name().contains("sweep"));
    }

    #[test]
    fn decreasing_schedule_levels() {
        let s = DecreasingSchedule::new(1.0, 2);
        assert_eq!(s.probability(0), 1.0);
        assert_eq!(s.probability(1), 1.0);
        assert_eq!(s.probability(2), 0.5);
        assert_eq!(s.probability(5), 0.25);
        // Deep steps approach zero without panicking or underflow UB.
        assert!(s.probability(u32::MAX) >= 0.0);
        assert_eq!(s.name(), "decreasing");
    }

    #[test]
    #[should_panic(expected = "steps per level")]
    fn decreasing_zero_steps_panics() {
        let _ = DecreasingSchedule::new(0.5, 0);
    }

    #[test]
    fn names_and_display() {
        assert!(SweepSchedule::new().to_string().contains("sweep"));
        assert!(ScienceSchedule::for_network(8, 3, 1)
            .to_string()
            .contains("science"));
        assert_eq!(ConstantSchedule::new(0.5).name(), "constant");
        assert_eq!(
            CustomSchedule::new(vec![1.0], TailBehavior::Hold).name(),
            "custom"
        );
    }
}
