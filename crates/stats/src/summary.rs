//! Streaming (Welford) and batch summary statistics.

use core::fmt;

/// Numerically stable streaming estimator of mean and variance
/// (Welford's algorithm), plus min/max tracking.
///
/// Use this when observations arrive one at a time and storing them all is
/// unnecessary; use [`Summary`] when quantiles are also needed.
///
/// # Examples
///
/// ```
/// use mis_stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.count(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty estimator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another estimator into this one (parallel Welford merge).
    ///
    /// The result is identical (up to floating-point rounding) to pushing all
    /// of `other`'s observations into `self`.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations pushed so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the observations (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 when fewer than two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean (`std_dev / sqrt(count)`).
    #[must_use]
    pub fn std_err(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation ([`f64::INFINITY`] when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation ([`f64::NEG_INFINITY`] when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.count,
            self.mean(),
            self.std_dev(),
            self.min,
            self.max
        )
    }
}

/// Batch summary of a sample, retaining the sorted data so that medians and
/// arbitrary quantiles are available.
///
/// # Examples
///
/// ```
/// use mis_stats::Summary;
///
/// let s = Summary::from_iter([5.0, 1.0, 3.0]);
/// assert_eq!(s.median(), 3.0);
/// assert_eq!(s.min(), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Summary {
    sorted: Vec<f64>,
    online: OnlineStats,
}

impl Summary {
    /// Builds a summary from a slice of observations.
    #[must_use]
    pub fn from_slice(data: &[f64]) -> Self {
        Self::from_iter(data.iter().copied())
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` when the summary holds no observations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Arithmetic mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.online.mean()
    }

    /// Unbiased sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.online.std_dev()
    }

    /// Standard error of the mean.
    #[must_use]
    pub fn std_err(&self) -> f64 {
        self.online.std_err()
    }

    /// Smallest observation.
    ///
    /// # Panics
    ///
    /// Panics when the summary is empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest observation.
    ///
    /// # Panics
    ///
    /// Panics when the summary is empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("summary is empty")
    }

    /// Median (linear interpolation between the two central order statistics
    /// for even sample sizes).
    ///
    /// # Panics
    ///
    /// Panics when the summary is empty.
    #[must_use]
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Quantile `q ∈ [0, 1]` with linear interpolation.
    ///
    /// # Panics
    ///
    /// Panics when the summary is empty or `q` lies outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty summary");
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Fraction of observations strictly greater than `threshold`.
    ///
    /// This is the empirical tail probability used to validate the
    /// high-probability bound of Theorem 2.
    #[must_use]
    pub fn tail_fraction(&self, threshold: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let above = self.sorted.partition_point(|&x| x <= threshold);
        (self.sorted.len() - above) as f64 / self.sorted.len() as f64
    }

    /// Borrow the sorted observations.
    #[must_use]
    pub fn sorted_values(&self) -> &[f64] {
        &self.sorted
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut sorted: Vec<f64> = iter.into_iter().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN observation"));
        let online = sorted.iter().copied().collect();
        Self { sorted, online }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "n=0 (empty)");
        }
        write!(
            f,
            "n={} mean={:.3} sd={:.3} median={:.3} range=[{:.3}, {:.3}]",
            self.count(),
            self.mean(),
            self.std_dev(),
            self.median(),
            self.min(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_matches_textbook_values() {
        let s: OnlineStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.mean(), 5.0);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_empty_is_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_err(), 0.0);
    }

    #[test]
    fn online_single_observation() {
        let mut s = OnlineStats::new();
        s.push(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let (left, right) = data.split_at(37);
        let mut a: OnlineStats = left.iter().copied().collect();
        let b: OnlineStats = right.iter().copied().collect();
        a.merge(&b);
        let all: OnlineStats = data.iter().copied().collect();
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: OnlineStats = [1.0, 2.0].into_iter().collect();
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn summary_median_odd_and_even() {
        let odd = Summary::from_iter([3.0, 1.0, 2.0]);
        assert_eq!(odd.median(), 2.0);
        let even = Summary::from_iter([4.0, 1.0, 3.0, 2.0]);
        assert_eq!(even.median(), 2.5);
    }

    #[test]
    fn summary_quantiles_interpolate() {
        let s = Summary::from_iter([0.0, 10.0]);
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.quantile(0.25), 2.5);
        assert_eq!(s.quantile(1.0), 10.0);
    }

    #[test]
    fn summary_tail_fraction() {
        let s = Summary::from_iter([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.tail_fraction(2.0), 0.5);
        assert_eq!(s.tail_fraction(0.0), 1.0);
        assert_eq!(s.tail_fraction(4.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "quantile of empty summary")]
    fn summary_quantile_empty_panics() {
        let s = Summary::default();
        let _ = s.quantile(0.5);
    }

    #[test]
    fn summary_single_value() {
        let s = Summary::from_iter([7.0]);
        assert_eq!(s.median(), 7.0);
        assert_eq!(s.quantile(0.99), 7.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", OnlineStats::new()).is_empty());
        assert!(!format!("{}", Summary::default()).is_empty());
        assert!(!format!("{}", Summary::from_iter([1.0])).is_empty());
    }
}
