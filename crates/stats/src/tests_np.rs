//! Nonparametric significance tests.
//!
//! The experiment harness uses these to back its comparative claims
//! (“feedback needs fewer rounds than the sweep”) with more than a pair of
//! means: a rank test that is robust to the skewed, integer-valued round
//! distributions the simulations produce.

use core::fmt;

/// Result of a Mann–Whitney U test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MannWhitney {
    /// The U statistic of the *first* sample.
    pub u: f64,
    /// Standard-normal z-score of U under the null (normal approximation
    /// with tie correction).
    pub z: f64,
    /// Two-sided p-value from the normal approximation.
    pub p_value: f64,
}

impl MannWhitney {
    /// Whether the two-sided p-value is below `alpha`.
    #[must_use]
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

impl fmt::Display for MannWhitney {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U={:.1}, z={:.2}, p={:.4}", self.u, self.z, self.p_value)
    }
}

/// Two-sided Mann–Whitney U test: are samples `a` and `b` drawn from
/// distributions with the same location?
///
/// Uses the normal approximation with tie correction — accurate for the
/// sample sizes experiments use (tens to hundreds per group).
///
/// # Panics
///
/// Panics if either sample is empty.
///
/// # Examples
///
/// ```
/// use mis_stats::mann_whitney_u;
///
/// let fast: Vec<f64> = (0..40).map(|i| 10.0 + (i % 5) as f64).collect();
/// let slow: Vec<f64> = (0..40).map(|i| 30.0 + (i % 7) as f64).collect();
/// let test = mann_whitney_u(&fast, &slow);
/// assert!(test.significant_at(0.001));
/// ```
#[must_use]
pub fn mann_whitney_u(a: &[f64], b: &[f64]) -> MannWhitney {
    assert!(!a.is_empty() && !b.is_empty(), "samples must be non-empty");
    let n1 = a.len() as f64;
    let n2 = b.len() as f64;

    // Pool and rank with midranks for ties.
    let mut pooled: Vec<(f64, bool)> = a
        .iter()
        .map(|&x| (x, true))
        .chain(b.iter().map(|&x| (x, false)))
        .collect();
    pooled.sort_by(|p, q| p.0.partial_cmp(&q.0).expect("NaN observation"));

    let total = pooled.len();
    let mut rank_sum_a = 0.0f64;
    let mut tie_term = 0.0f64;
    let mut i = 0usize;
    while i < total {
        let mut j = i;
        while j + 1 < total && pooled[j + 1].0 == pooled[i].0 {
            j += 1;
        }
        let count = (j - i + 1) as f64;
        // Midrank of the tie group (ranks are 1-based).
        let midrank = (i + 1 + j + 1) as f64 / 2.0;
        for p in &pooled[i..=j] {
            if p.1 {
                rank_sum_a += midrank;
            }
        }
        tie_term += count * count * count - count;
        i = j + 1;
    }

    let u = rank_sum_a - n1 * (n1 + 1.0) / 2.0;
    let mean_u = n1 * n2 / 2.0;
    let n = n1 + n2;
    let variance = n1 * n2 / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
    let z = if variance > 0.0 {
        (u - mean_u) / variance.sqrt()
    } else {
        0.0
    };
    MannWhitney {
        u,
        z,
        p_value: 2.0 * (1.0 - standard_normal_cdf(z.abs())),
    }
}

/// Standard normal CDF via the complementary error function
/// (Abramowitz–Stegun 7.1.26 polynomial, |error| < 1.5e-7).
fn standard_normal_cdf(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.2316419 * x.abs());
    let poly = t
        * (0.319381530
            + t * (-0.356563782 + t * (1.781477937 + t * (-1.821255978 + t * 1.330274429))));
    let tail = (-(x * x) / 2.0).exp() / (2.0 * core::f64::consts::PI).sqrt() * poly;
    if x >= 0.0 {
        1.0 - tail
    } else {
        tail
    }
}

/// Result of a two-sample Kolmogorov–Smirnov test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KolmogorovSmirnov {
    /// The KS statistic: the supremum distance between the two empirical
    /// CDFs, in `[0, 1]`.
    pub statistic: f64,
    /// Asymptotic two-sided p-value (Kolmogorov distribution).
    pub p_value: f64,
}

impl KolmogorovSmirnov {
    /// Whether the two-sided p-value is below `alpha`.
    #[must_use]
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

impl fmt::Display for KolmogorovSmirnov {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D={:.3}, p={:.4}", self.statistic, self.p_value)
    }
}

/// Two-sample Kolmogorov–Smirnov test: are samples `a` and `b` drawn from
/// the same distribution?
///
/// Unlike [`mann_whitney_u`], which only detects location shifts, the KS
/// statistic responds to any difference in distribution *shape* — the
/// relevant comparison for selection-time distributions, where competing
/// accumulation models produce similar means but different dispersion.
/// The p-value uses the asymptotic Kolmogorov distribution, accurate for
/// samples of a few dozen or more.
///
/// # Panics
///
/// Panics if either sample is empty.
///
/// # Examples
///
/// ```
/// use mis_stats::ks_test;
///
/// let uniform: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
/// let squashed: Vec<f64> = (0..100).map(|i| (i as f64 / 100.0).powi(3)).collect();
/// let test = ks_test(&uniform, &squashed);
/// assert!(test.significant_at(0.01));
/// ```
#[must_use]
pub fn ks_test(a: &[f64], b: &[f64]) -> KolmogorovSmirnov {
    assert!(!a.is_empty() && !b.is_empty(), "samples must be non-empty");
    let mut xs = a.to_vec();
    let mut ys = b.to_vec();
    xs.sort_unstable_by(f64::total_cmp);
    ys.sort_unstable_by(f64::total_cmp);
    let (n1, n2) = (xs.len(), ys.len());
    let (mut i, mut j) = (0usize, 0usize);
    let mut statistic = 0.0f64;
    while i < n1 && j < n2 {
        let x = xs[i].min(ys[j]);
        while i < n1 && xs[i] <= x {
            i += 1;
        }
        while j < n2 && ys[j] <= x {
            j += 1;
        }
        let d = (i as f64 / n1 as f64 - j as f64 / n2 as f64).abs();
        statistic = statistic.max(d);
    }
    let en = ((n1 * n2) as f64 / (n1 + n2) as f64).sqrt();
    let p_value = kolmogorov_sf((en + 0.12 + 0.11 / en) * statistic);
    KolmogorovSmirnov { statistic, p_value }
}

/// Survival function of the Kolmogorov distribution,
/// `Q(λ) = 2 Σ_{k≥1} (−1)^{k−1} exp(−2 k² λ²)`, clamped to `[0, 1]`.
fn kolmogorov_sf(lambda: f64) -> f64 {
    if lambda < 1e-3 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64) * (k as f64) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mann_whitney_detects_separation() {
        let low: Vec<f64> = (0..50).map(|i| (i % 10) as f64).collect();
        let high: Vec<f64> = (0..50).map(|i| 100.0 + (i % 10) as f64).collect();
        let t = mann_whitney_u(&low, &high);
        assert_eq!(t.u, 0.0); // total separation
        assert!(t.significant_at(1e-6));
    }

    #[test]
    fn mann_whitney_identical_samples_not_significant() {
        let xs: Vec<f64> = (0..60).map(|i| (i % 12) as f64).collect();
        let t = mann_whitney_u(&xs, &xs);
        assert!((t.u - (60.0 * 60.0) / 2.0).abs() < 1e-9);
        assert!(!t.significant_at(0.05));
        assert!(t.p_value > 0.9);
    }

    #[test]
    fn mann_whitney_handles_heavy_ties() {
        let a = vec![1.0; 30];
        let mut b = vec![1.0; 15];
        b.extend(vec![2.0; 15]);
        let t = mann_whitney_u(&a, &b);
        assert!(t.p_value < 0.05, "{t}");
    }

    #[test]
    fn normal_cdf_reference_points() {
        assert!((standard_normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((standard_normal_cdf(1.96) - 0.975).abs() < 1e-4);
        assert!((standard_normal_cdf(-1.96) - 0.025).abs() < 1e-4);
    }

    #[test]
    fn display_has_p_value() {
        let t = mann_whitney_u(&[1.0, 2.0], &[3.0, 4.0]);
        assert!(t.to_string().contains("p="));
    }

    #[test]
    fn ks_identical_samples_have_zero_distance() {
        let xs: Vec<f64> = (0..80).map(|i| (i % 17) as f64).collect();
        let t = ks_test(&xs, &xs);
        assert_eq!(t.statistic, 0.0);
        assert!(t.p_value > 0.99);
    }

    #[test]
    fn ks_disjoint_samples_have_distance_one() {
        let a: Vec<f64> = (0..30).map(f64::from).collect();
        let b: Vec<f64> = (0..30).map(|i| 1000.0 + f64::from(i)).collect();
        let t = ks_test(&a, &b);
        assert_eq!(t.statistic, 1.0);
        assert!(t.significant_at(1e-6));
    }

    #[test]
    fn ks_detects_shape_difference_with_equal_means() {
        // Symmetric around 0 with very different spread: Mann-Whitney sees
        // nothing, KS does.
        let narrow: Vec<f64> = (0..100).map(|i| (f64::from(i) - 49.5) / 500.0).collect();
        let wide: Vec<f64> = (0..100).map(|i| (f64::from(i) - 49.5) / 5.0).collect();
        let ks = ks_test(&narrow, &wide);
        assert!(ks.significant_at(0.001), "{ks}");
        let mw = mann_whitney_u(&narrow, &wide);
        assert!(!mw.significant_at(0.05), "{mw}");
    }

    #[test]
    fn ks_statistic_known_value() {
        // F_a jumps to 1 at 0; F_b jumps to 1 at 1. At x=0 the gap is
        // |1 - 0| = 1 for singletons; with half overlap it's 0.5.
        let a = [0.0, 1.0];
        let b = [1.0, 2.0];
        let t = ks_test(&a, &b);
        assert!((t.statistic - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ks_is_symmetric() {
        let a: Vec<f64> = (0..50).map(|i| f64::from(i % 13)).collect();
        let b: Vec<f64> = (0..70).map(|i| f64::from(i % 7) * 1.7).collect();
        let ab = ks_test(&a, &b);
        let ba = ks_test(&b, &a);
        assert!((ab.statistic - ba.statistic).abs() < 1e-12);
        assert!((ab.p_value - ba.p_value).abs() < 1e-12);
    }

    #[test]
    fn kolmogorov_sf_reference_points() {
        // Q(1.36) ≈ 0.049 — the classical 5% critical value.
        assert!((kolmogorov_sf(1.36) - 0.049).abs() < 0.002);
        assert!(kolmogorov_sf(0.0) == 1.0);
        assert!(kolmogorov_sf(3.0) < 1e-6);
    }

    #[test]
    fn ks_display_has_statistic() {
        let t = ks_test(&[1.0, 2.0], &[3.0, 4.0]);
        assert!(t.to_string().contains("D="));
    }
}
