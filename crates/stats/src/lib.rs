//! Statistics toolkit for the `beeping-mis` experiment harness.
//!
//! This crate provides the numerical machinery needed to regenerate the
//! figures of *“Feedback from nature: an optimal distributed algorithm for
//! maximal independent set selection”* (Scott, Jeavons & Xu, PODC 2013):
//!
//! * [`OnlineStats`] / [`Summary`] — streaming and batch summary statistics
//!   (mean, standard deviation, standard error, quantiles) used for the
//!   error bars in Figures 3 and 5;
//! * [`regression`] — least-squares fits of experimental series against the
//!   paper's model curves `(log₂ n)²` and `c · log₂ n`;
//! * [`Histogram`] — binned distributions (termination-time tails,
//!   beeps-per-node distributions);
//! * [`Table`] — markdown/CSV rendering of result tables;
//! * [`AsciiPlot`] — terminal scatter plots mirroring the paper's figures.
//!
//! # Examples
//!
//! ```
//! use mis_stats::Summary;
//!
//! let s = Summary::from_iter([1.0, 2.0, 3.0, 4.0]);
//! assert_eq!(s.mean(), 2.5);
//! assert!((s.std_dev() - 1.2909944).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod plot;
pub mod regression;
mod summary;
mod table;
mod tests_np;

pub use histogram::Histogram;
pub use plot::{AsciiPlot, Series};
pub use regression::{LinearFit, ModelCurve, ModelFit};
pub use summary::{OnlineStats, Summary};
pub use table::{Align, Table};
pub use tests_np::{ks_test, mann_whitney_u, KolmogorovSmirnov, MannWhitney};

/// Base-2 logarithm as used throughout the paper (`log n` always means
/// `log₂ n` there).
///
/// # Examples
///
/// ```
/// assert_eq!(mis_stats::log2(8.0), 3.0);
/// ```
#[must_use]
pub fn log2(x: f64) -> f64 {
    x.log2()
}

/// The paper's reference curve for the global-sweep algorithm: `(log₂ n)²`.
///
/// This is the dashed upper line of Figure 3.
///
/// # Examples
///
/// ```
/// assert_eq!(mis_stats::log2_squared(1024.0), 100.0);
/// ```
#[must_use]
pub fn log2_squared(n: f64) -> f64 {
    let l = n.log2();
    l * l
}

/// The paper's reference curve for the feedback algorithm: `2.5 · log₂ n`.
///
/// This is the dotted lower line of Figure 3.
///
/// # Examples
///
/// ```
/// assert_eq!(mis_stats::feedback_reference(1024.0), 25.0);
/// ```
#[must_use]
pub fn feedback_reference(n: f64) -> f64 {
    2.5 * n.log2()
}
