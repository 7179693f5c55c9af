//! Confidence intervals for sample means.

use core::fmt;

use crate::OnlineStats;

/// A two-sided confidence interval for a sample mean, using the normal
/// approximation (appropriate for the trial counts used in the paper's
/// experiments: 100–200 per point).
///
/// # Examples
///
/// ```
/// use mis_stats::{ConfidenceInterval, OnlineStats};
///
/// let stats: OnlineStats = (0..100).map(|i| (i % 10) as f64).collect();
/// let ci = ConfidenceInterval::from_stats(&stats, 0.95);
/// assert!(ci.contains(stats.mean()));
/// assert!(ci.low() < ci.high());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    mean: f64,
    half_width: f64,
    level: f64,
}

impl ConfidenceInterval {
    /// Builds an interval at the given confidence `level` (e.g. `0.95`) from
    /// summary statistics.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not strictly between 0 and 1.
    #[must_use]
    pub fn from_stats(stats: &OnlineStats, level: f64) -> Self {
        assert!(
            level > 0.0 && level < 1.0,
            "confidence level must lie in (0, 1)"
        );
        let z = z_score(level);
        Self {
            mean: stats.mean(),
            half_width: z * stats.std_err(),
            level,
        }
    }

    /// Point estimate (the sample mean).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Lower endpoint.
    #[must_use]
    pub fn low(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper endpoint.
    #[must_use]
    pub fn high(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Half-width (`z · sem`).
    #[must_use]
    pub fn half_width(&self) -> f64 {
        self.half_width
    }

    /// Confidence level the interval was built for.
    #[must_use]
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Whether `x` lies inside the interval (inclusive).
    #[must_use]
    pub fn contains(&self, x: f64) -> bool {
        x >= self.low() && x <= self.high()
    }
}

impl fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.4} ± {:.4} ({:.0}% CI)",
            self.mean,
            self.half_width,
            self.level * 100.0
        )
    }
}

/// Two-sided standard-normal quantile for common confidence levels, with a
/// rational approximation fallback for other levels.
fn z_score(level: f64) -> f64 {
    // Exact-enough table entries for the levels experiments actually use.
    match (level * 1000.0).round() as u32 {
        800 => 1.2816,
        900 => 1.6449,
        950 => 1.9600,
        980 => 2.3263,
        990 => 2.5758,
        999 => 3.2905,
        _ => inverse_normal_cdf(0.5 + level / 2.0),
    }
}

/// Acklam's rational approximation of the inverse normal CDF.
///
/// Absolute error below 1.15e-9 over the open unit interval, which is far
/// tighter than anything the experiment harness needs.
fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probability must lie in (0, 1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_scores_match_tables() {
        assert!((z_score(0.95) - 1.96).abs() < 1e-3);
        assert!((z_score(0.99) - 2.5758).abs() < 1e-3);
        assert!((z_score(0.9) - 1.6449).abs() < 1e-3);
    }

    #[test]
    fn inverse_cdf_round_values() {
        // Φ⁻¹(0.975) ≈ 1.959964
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-5);
        // Φ⁻¹(0.5) = 0
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
        // symmetry
        assert!((inverse_normal_cdf(0.01) + inverse_normal_cdf(0.99)).abs() < 1e-6);
    }

    #[test]
    fn interval_widens_with_level() {
        let stats: OnlineStats = (0..50).map(f64::from).collect();
        let ci90 = ConfidenceInterval::from_stats(&stats, 0.90);
        let ci99 = ConfidenceInterval::from_stats(&stats, 0.99);
        assert!(ci99.half_width() > ci90.half_width());
        assert_eq!(ci90.mean(), ci99.mean());
    }

    #[test]
    fn interval_contains_mean() {
        let stats: OnlineStats = [1.0, 2.0, 3.0].into_iter().collect();
        let ci = ConfidenceInterval::from_stats(&stats, 0.95);
        assert!(ci.contains(2.0));
        assert!(!ci.contains(1000.0));
    }

    #[test]
    #[should_panic(expected = "confidence level")]
    fn bad_level_panics() {
        let stats = OnlineStats::new();
        let _ = ConfidenceInterval::from_stats(&stats, 1.5);
    }

    #[test]
    fn display_mentions_level() {
        let stats: OnlineStats = [1.0, 2.0].into_iter().collect();
        let ci = ConfidenceInterval::from_stats(&stats, 0.95);
        assert!(format!("{ci}").contains("95%"));
    }
}
