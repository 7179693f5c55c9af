//! Least-squares fits of experimental series against model curves.
//!
//! The paper claims that on `G(n, ½)` the global-sweep algorithm takes
//! `≈ (log₂ n)²` rounds while the feedback algorithm takes `≈ 2.5 log₂ n`
//! rounds. This module fits measured series against those model shapes and
//! reports the fitted coefficient and the goodness of fit, so the experiment
//! harness can verify *shape* claims rather than absolute constants.

use core::fmt;

/// Ordinary least-squares line `y = intercept + slope · x`.
///
/// # Examples
///
/// ```
/// use mis_stats::LinearFit;
///
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// let ys = [3.0, 5.0, 7.0, 9.0];
/// let fit = LinearFit::fit(&xs, &ys);
/// assert!((fit.slope() - 2.0).abs() < 1e-12);
/// assert!((fit.intercept() - 1.0).abs() < 1e-12);
/// assert!((fit.r_squared() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    slope: f64,
    intercept: f64,
    r_squared: f64,
}

impl LinearFit {
    /// Fits a line through `(xs[i], ys[i])` pairs.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or fewer than two points are
    /// given, or if all `x` values coincide.
    #[must_use]
    pub fn fit(xs: &[f64], ys: &[f64]) -> Self {
        assert_eq!(xs.len(), ys.len(), "mismatched series lengths");
        assert!(xs.len() >= 2, "need at least two points to fit a line");
        let n = xs.len() as f64;
        let mean_x = xs.iter().sum::<f64>() / n;
        let mean_y = ys.iter().sum::<f64>() / n;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        for (&x, &y) in xs.iter().zip(ys) {
            sxx += (x - mean_x) * (x - mean_x);
            sxy += (x - mean_x) * (y - mean_y);
        }
        assert!(sxx > 0.0, "all x values coincide; slope is undefined");
        let slope = sxy / sxx;
        let intercept = mean_y - slope * mean_x;
        let r_squared = r_squared(ys, |i| intercept + slope * xs[i]);
        Self {
            slope,
            intercept,
            r_squared,
        }
    }

    /// Fits `y = slope · x` (no intercept).
    ///
    /// # Panics
    ///
    /// Panics on mismatched lengths, empty input, or all-zero `x`.
    #[must_use]
    pub fn fit_through_origin(xs: &[f64], ys: &[f64]) -> Self {
        assert_eq!(xs.len(), ys.len(), "mismatched series lengths");
        assert!(!xs.is_empty(), "need at least one point");
        let sxx: f64 = xs.iter().map(|x| x * x).sum();
        assert!(sxx > 0.0, "all x values are zero; slope is undefined");
        let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
        let slope = sxy / sxx;
        let r_squared = r_squared(ys, |i| slope * xs[i]);
        Self {
            slope,
            intercept: 0.0,
            r_squared,
        }
    }

    /// Fitted slope.
    #[must_use]
    pub fn slope(&self) -> f64 {
        self.slope
    }

    /// Fitted intercept (zero for origin fits).
    #[must_use]
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Coefficient of determination of the fit.
    #[must_use]
    pub fn r_squared(&self) -> f64 {
        self.r_squared
    }

    /// Predicted value at `x`.
    #[must_use]
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

impl fmt::Display for LinearFit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "y = {:.4}·x {} {:.4} (R²={:.4})",
            self.slope,
            if self.intercept < 0.0 { "-" } else { "+" },
            self.intercept.abs(),
            self.r_squared
        )
    }
}

/// The model curves the paper compares against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelCurve {
    /// `c · log₂ n` — the optimal-round-complexity shape (feedback, Luby).
    LogN,
    /// `c · (log₂ n)²` — the global-schedule shape (Theorem 1).
    LogSquaredN,
    /// `c · n` — linear (sanity reference; a sequential scan).
    Linear,
    /// `c` — constant (Theorem 6's beeps-per-node shape).
    Constant,
}

impl ModelCurve {
    /// Evaluates the *basis function* of the curve at `n` (coefficient 1).
    #[must_use]
    pub fn basis(&self, n: f64) -> f64 {
        match self {
            ModelCurve::LogN => n.log2(),
            ModelCurve::LogSquaredN => {
                let l = n.log2();
                l * l
            }
            ModelCurve::Linear => n,
            ModelCurve::Constant => 1.0,
        }
    }

    /// All model curves, for exhaustive model comparison.
    #[must_use]
    pub fn all() -> [ModelCurve; 4] {
        [
            ModelCurve::LogN,
            ModelCurve::LogSquaredN,
            ModelCurve::Linear,
            ModelCurve::Constant,
        ]
    }
}

impl fmt::Display for ModelCurve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ModelCurve::LogN => "c·log2(n)",
            ModelCurve::LogSquaredN => "c·log2(n)^2",
            ModelCurve::Linear => "c·n",
            ModelCurve::Constant => "c",
        };
        f.write_str(s)
    }
}

/// Result of fitting one [`ModelCurve`] to a measured series.
///
/// # Examples
///
/// ```
/// use mis_stats::{ModelCurve, ModelFit};
///
/// // A series that really is 2.5·log2(n):
/// let ns: [f64; 4] = [64.0, 128.0, 256.0, 512.0];
/// let ys: Vec<f64> = ns.iter().map(|n| 2.5 * n.log2()).collect();
/// let fit = ModelFit::fit(ModelCurve::LogN, &ns, &ys);
/// assert!((fit.coefficient() - 2.5).abs() < 1e-9);
/// assert!(fit.r_squared() > 0.999);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelFit {
    curve: ModelCurve,
    coefficient: f64,
    r_squared: f64,
}

impl ModelFit {
    /// Fits `y ≈ c · basis(n)` by least squares through the origin.
    ///
    /// # Panics
    ///
    /// Panics on mismatched or empty series.
    #[must_use]
    pub fn fit(curve: ModelCurve, ns: &[f64], ys: &[f64]) -> Self {
        let xs: Vec<f64> = ns.iter().map(|&n| curve.basis(n)).collect();
        let lf = LinearFit::fit_through_origin(&xs, ys);
        Self {
            curve,
            coefficient: lf.slope(),
            r_squared: lf.r_squared(),
        }
    }

    /// Fits every model curve and returns them ordered best-first by R².
    ///
    /// # Panics
    ///
    /// Panics on mismatched or empty series.
    #[must_use]
    pub fn compare_all(ns: &[f64], ys: &[f64]) -> Vec<ModelFit> {
        let mut fits: Vec<ModelFit> = ModelCurve::all()
            .into_iter()
            .map(|c| ModelFit::fit(c, ns, ys))
            .collect();
        fits.sort_by(|a, b| {
            b.r_squared
                .partial_cmp(&a.r_squared)
                .expect("R² comparison")
        });
        fits
    }

    /// The model curve that was fitted.
    #[must_use]
    pub fn curve(&self) -> ModelCurve {
        self.curve
    }

    /// Fitted multiplicative coefficient `c`.
    #[must_use]
    pub fn coefficient(&self) -> f64 {
        self.coefficient
    }

    /// Coefficient of determination against the measured series.
    #[must_use]
    pub fn r_squared(&self) -> f64 {
        self.r_squared
    }

    /// Predicted value at `n`.
    #[must_use]
    pub fn predict(&self, n: f64) -> f64 {
        self.coefficient * self.curve.basis(n)
    }
}

impl fmt::Display for ModelFit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} with c={:.3} (R²={:.4})",
            self.curve, self.coefficient, self.r_squared
        )
    }
}

fn r_squared(ys: &[f64], predicted: impl Fn(usize) -> f64) -> f64 {
    let n = ys.len() as f64;
    let mean_y = ys.iter().sum::<f64>() / n;
    let ss_tot: f64 = ys.iter().map(|y| (y - mean_y) * (y - mean_y)).sum();
    let ss_res: f64 = ys
        .iter()
        .enumerate()
        .map(|(i, y)| {
            let e = y - predicted(i);
            e * e
        })
        .sum();
    if ss_tot == 0.0 {
        // A constant series: perfect iff residuals vanish.
        if ss_res == 0.0 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_line_recovers_parameters() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 1.0).collect();
        let fit = LinearFit::fit(&xs, &ys);
        assert!((fit.slope() - 3.0).abs() < 1e-12);
        assert!((fit.intercept() + 1.0).abs() < 1e-12);
        assert!((fit.r_squared() - 1.0).abs() < 1e-12);
        assert!((fit.predict(20.0) - 59.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_line_has_lower_r_squared() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 2.0 * x + if i % 2 == 0 { 5.0 } else { -5.0 })
            .collect();
        let fit = LinearFit::fit(&xs, &ys);
        assert!(fit.r_squared() < 1.0);
        assert!((fit.slope() - 2.0).abs() < 0.2);
    }

    #[test]
    fn origin_fit_has_zero_intercept() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [2.0, 4.0, 6.0];
        let fit = LinearFit::fit_through_origin(&xs, &ys);
        assert_eq!(fit.intercept(), 0.0);
        assert!((fit.slope() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "mismatched")]
    fn mismatched_lengths_panic() {
        let _ = LinearFit::fit(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn single_point_panics() {
        let _ = LinearFit::fit(&[1.0], &[1.0]);
    }

    #[test]
    fn model_selection_prefers_true_shape() {
        let ns: Vec<f64> = [50.0, 100.0, 200.0, 400.0, 800.0].to_vec();
        // Construct a genuinely log²-shaped series.
        let ys: Vec<f64> = ns.iter().map(|n| 0.9 * n.log2() * n.log2()).collect();
        let fits = ModelFit::compare_all(&ns, &ys);
        assert_eq!(fits[0].curve(), ModelCurve::LogSquaredN);
        assert!((fits[0].coefficient() - 0.9).abs() < 1e-9);

        let ys_log: Vec<f64> = ns.iter().map(|n| 2.5 * n.log2()).collect();
        let fits = ModelFit::compare_all(&ns, &ys_log);
        assert_eq!(fits[0].curve(), ModelCurve::LogN);
    }

    #[test]
    fn constant_model_fits_flat_series() {
        let ns = [10.0, 100.0, 1000.0];
        let ys = [1.1, 1.1, 1.1];
        let fit = ModelFit::fit(ModelCurve::Constant, &ns, &ys);
        assert!((fit.coefficient() - 1.1).abs() < 1e-12);
        assert!((fit.r_squared() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn basis_values() {
        assert_eq!(ModelCurve::LogN.basis(8.0), 3.0);
        assert_eq!(ModelCurve::LogSquaredN.basis(8.0), 9.0);
        assert_eq!(ModelCurve::Linear.basis(8.0), 8.0);
        assert_eq!(ModelCurve::Constant.basis(8.0), 1.0);
    }

    #[test]
    fn display_formats() {
        let fit = LinearFit::fit(&[1.0, 2.0], &[1.0, 2.0]);
        assert!(format!("{fit}").contains("R²"));
        assert!(format!("{}", ModelCurve::LogN).contains("log2"));
    }
}
