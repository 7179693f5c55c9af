//! Uniform-bin histograms with terminal rendering.

use core::fmt;

/// A histogram with uniformly sized bins over a closed range.
///
/// Used by the experiment harness for termination-time and beeps-per-node
/// distributions.
///
/// # Examples
///
/// ```
/// use mis_stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// for x in [1.0, 1.5, 9.9, 5.0] {
///     h.add(x);
/// }
/// assert_eq!(h.total(), 4);
/// assert_eq!(h.count(0), 2); // [0, 2)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    low: f64,
    high: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[low, high)` with `bins` uniform bins.
    ///
    /// Values equal to `high` are counted in the last bin so that closed
    /// ranges like round counts bin naturally.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `low >= high`.
    #[must_use]
    pub fn new(low: f64, high: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(low < high, "histogram range must be non-empty");
        Self {
            low,
            high,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Creates a histogram spanning exactly the range of `samples` and
    /// fills it — the one-call constructor for "show me this
    /// distribution" use.
    ///
    /// A constant sample gets a unit-width range around its value so the
    /// histogram is still renderable.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty, contains a NaN, or `bins == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use mis_stats::Histogram;
    ///
    /// let h = Histogram::from_samples(&[1.0, 2.0, 2.5, 9.0], 4);
    /// assert_eq!(h.total(), 4);
    /// assert_eq!(h.underflow() + h.overflow(), 0);
    /// ```
    #[must_use]
    pub fn from_samples(samples: &[f64], bins: usize) -> Self {
        assert!(!samples.is_empty(), "histogram needs at least one sample");
        let mut low = f64::INFINITY;
        let mut high = f64::NEG_INFINITY;
        for &x in samples {
            assert!(!x.is_nan(), "histogram samples must not be NaN");
            low = low.min(x);
            high = high.max(x);
        }
        if low == high {
            low -= 0.5;
            high += 0.5;
        }
        let mut h = Self::new(low, high, bins);
        h.extend(samples.iter().copied());
        h
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        if x < self.low {
            self.underflow += 1;
        } else if x > self.high {
            self.overflow += 1;
        } else {
            let bins = self.counts.len();
            let width = (self.high - self.low) / bins as f64;
            let idx = (((x - self.low) / width) as usize).min(bins - 1);
            self.counts[idx] += 1;
        }
    }

    /// Number of bins.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Observations below the range.
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations above the range.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations, including under/overflow.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// The `[low, high)` edges of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        assert!(i < self.counts.len(), "bin index out of range");
        let width = (self.high - self.low) / self.counts.len() as f64;
        (
            self.low + i as f64 * width,
            self.low + (i + 1) as f64 * width,
        )
    }

    /// Renders a horizontal bar chart, one line per bin.
    #[must_use]
    pub fn render(&self, max_bar: usize) -> String {
        let peak = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let (lo, hi) = self.bin_edges(i);
            let bar_len = (c as usize * max_bar).div_ceil(peak as usize) * usize::from(c > 0);
            out.push_str(&format!(
                "[{lo:8.2}, {hi:8.2}) |{} {c}\n",
                "#".repeat(bar_len)
            ));
        }
        if self.underflow > 0 {
            out.push_str(&format!("underflow: {}\n", self.underflow));
        }
        if self.overflow > 0 {
            out.push_str(&format!("overflow:  {}\n", self.overflow));
        }
        out
    }
}

impl Extend<f64> for Histogram {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.add(x);
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(40))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_receive_values() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.add(0.0);
        h.add(0.99);
        h.add(5.5);
        h.add(9.99);
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(5), 1);
        assert_eq!(h.count(9), 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn boundary_value_goes_to_last_bin() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.add(10.0);
        assert_eq!(h.count(9), 1);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn out_of_range_tracked() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(-5.0);
        h.add(2.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn edges_are_uniform() {
        let h = Histogram::new(0.0, 10.0, 5);
        assert_eq!(h.bin_edges(0), (0.0, 2.0));
        assert_eq!(h.bin_edges(4), (8.0, 10.0));
    }

    #[test]
    fn render_contains_counts() {
        let mut h = Histogram::new(0.0, 4.0, 2);
        h.extend([1.0, 1.2, 3.0]);
        let s = h.render(10);
        assert!(s.contains('#'));
        assert!(s.lines().count() >= 2);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn from_samples_covers_the_range() {
        let h = Histogram::from_samples(&[3.0, 7.0, 5.0, 4.0], 4);
        assert_eq!(h.total(), 4);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.bin_edges(0).0, 3.0);
        assert_eq!(h.bin_edges(3).1, 7.0);
    }

    #[test]
    fn from_samples_handles_constant_input() {
        let h = Histogram::from_samples(&[2.0, 2.0, 2.0], 3);
        assert_eq!(h.total(), 3);
        assert_eq!(h.bin_edges(0).0, 1.5);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn from_samples_rejects_empty() {
        let _ = Histogram::from_samples(&[], 3);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn from_samples_rejects_nan() {
        let _ = Histogram::from_samples(&[1.0, f64::NAN], 3);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_range_panics() {
        let _ = Histogram::new(1.0, 1.0, 3);
    }
}
