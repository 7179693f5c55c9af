//! ASCII scatter/line plots for terminal figure output.
//!
//! The experiment harness uses this to render terminal versions of the
//! paper's Figures 3 and 5: multiple data series plus reference curves on a
//! shared pair of axes.

use core::fmt;

/// One named data series for an [`AsciiPlot`].
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    name: String,
    glyph: char,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series from `(x, y)` points, drawn with `glyph`.
    #[must_use]
    pub fn new(name: impl Into<String>, glyph: char, points: Vec<(f64, f64)>) -> Self {
        Self {
            name: name.into(),
            glyph,
            points,
        }
    }

    /// Series name shown in the legend.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Glyph used to draw the series.
    #[must_use]
    pub fn glyph(&self) -> char {
        self.glyph
    }

    /// Borrow the data points.
    #[must_use]
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }
}

/// A fixed-size character-grid plot with axes and a legend.
///
/// # Examples
///
/// ```
/// use mis_stats::{AsciiPlot, Series};
///
/// let mut plot = AsciiPlot::new(40, 10);
/// plot.add_series(Series::new("data", '*', vec![(0.0, 0.0), (10.0, 5.0)]));
/// let s = plot.render();
/// assert!(s.contains('*'));
/// assert!(s.contains("data"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AsciiPlot {
    width: usize,
    height: usize,
    series: Vec<Series>,
    x_label: String,
    y_label: String,
}

impl AsciiPlot {
    /// Creates an empty plot with a `width × height` drawing area
    /// (exclusive of axis decorations).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is below 2.
    #[must_use]
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width >= 2 && height >= 2, "plot area too small");
        Self {
            width,
            height,
            series: Vec::new(),
            x_label: String::new(),
            y_label: String::new(),
        }
    }

    /// Sets the axis labels.
    pub fn labels(&mut self, x: impl Into<String>, y: impl Into<String>) -> &mut Self {
        self.x_label = x.into();
        self.y_label = y.into();
        self
    }

    /// Adds a data series.
    pub fn add_series(&mut self, series: Series) -> &mut Self {
        self.series.push(series);
        self
    }

    /// Adds a reference curve sampled from a function over the current
    /// x-range of the data (drawn with `glyph`, `samples` points).
    ///
    /// Does nothing if no data series has been added yet.
    pub fn add_curve(
        &mut self,
        name: impl Into<String>,
        glyph: char,
        f: impl Fn(f64) -> f64,
        samples: usize,
    ) -> &mut Self {
        let Some(((x0, x1), _)) = self.ranges() else {
            return self;
        };
        let n = samples.max(2);
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let x = x0 + (x1 - x0) * i as f64 / (n - 1) as f64;
                (x, f(x))
            })
            .collect();
        self.series.push(Series::new(name, glyph, pts));
        self
    }

    fn ranges(&self) -> Option<((f64, f64), (f64, f64))> {
        let mut xs: Option<(f64, f64)> = None;
        let mut ys: Option<(f64, f64)> = None;
        for s in &self.series {
            for &(x, y) in s.points() {
                xs = Some(xs.map_or((x, x), |(lo, hi)| (lo.min(x), hi.max(x))));
                ys = Some(ys.map_or((y, y), |(lo, hi)| (lo.min(y), hi.max(y))));
            }
        }
        Some((xs?, ys?))
    }

    /// Renders the plot (grid, axes, legend) to a string.
    ///
    /// Returns a placeholder message when no points have been added.
    #[must_use]
    pub fn render(&self) -> String {
        let Some(((x0, x1), (y0, y1))) = self.ranges() else {
            return "(empty plot)\n".to_owned();
        };
        let x_span = if x1 > x0 { x1 - x0 } else { 1.0 };
        let y_span = if y1 > y0 { y1 - y0 } else { 1.0 };
        let mut grid = vec![vec![' '; self.width]; self.height];
        for s in &self.series {
            for &(x, y) in s.points() {
                let cx = (((x - x0) / x_span) * (self.width - 1) as f64).round() as usize;
                let cy = (((y - y0) / y_span) * (self.height - 1) as f64).round() as usize;
                let row = self.height - 1 - cy.min(self.height - 1);
                let col = cx.min(self.width - 1);
                // Data glyphs win over reference-curve dots already present.
                if grid[row][col] == ' ' || grid[row][col] == '.' {
                    grid[row][col] = s.glyph();
                }
            }
        }

        let mut out = String::new();
        if !self.y_label.is_empty() {
            out.push_str(&format!("{}\n", self.y_label));
        }
        for (i, row) in grid.iter().enumerate() {
            let y_tick = y1 - y_span * i as f64 / (self.height - 1) as f64;
            out.push_str(&format!("{y_tick:9.2} |"));
            out.extend(row.iter());
            out.push('\n');
        }
        out.push_str(&format!("{:9} +{}\n", "", "-".repeat(self.width)));
        out.push_str(&format!(
            "{:9}  {:<w$.2}{:>w2$.2}",
            "",
            x0,
            x1,
            w = self.width / 2,
            w2 = self.width - self.width / 2
        ));
        if !self.x_label.is_empty() {
            out.push_str(&format!("  ({})", self.x_label));
        }
        out.push('\n');
        for s in &self.series {
            out.push_str(&format!("    {}  {}\n", s.glyph(), s.name()));
        }
        out
    }
}

impl fmt::Display for AsciiPlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plot_renders_placeholder() {
        let plot = AsciiPlot::new(10, 5);
        assert!(plot.render().contains("empty"));
    }

    #[test]
    fn corners_are_plotted() {
        let mut plot = AsciiPlot::new(20, 10);
        plot.add_series(Series::new("s", '*', vec![(0.0, 0.0), (1.0, 1.0)]));
        let s = plot.render();
        assert_eq!(s.matches('*').count(), 3); // 2 points + 1 legend glyph
    }

    #[test]
    fn legend_lists_all_series() {
        let mut plot = AsciiPlot::new(20, 10);
        plot.add_series(Series::new("alpha", 'a', vec![(0.0, 0.0)]));
        plot.add_series(Series::new("beta", 'b', vec![(1.0, 1.0)]));
        let s = plot.render();
        assert!(s.contains("alpha"));
        assert!(s.contains("beta"));
    }

    #[test]
    fn reference_curve_uses_data_range() {
        let mut plot = AsciiPlot::new(30, 10);
        plot.add_series(Series::new("pts", '*', vec![(1.0, 1.0), (9.0, 3.0)]));
        plot.add_curve("ref", '.', |x| x / 3.0, 20);
        let s = plot.render();
        assert!(s.contains('.'));
        assert!(s.contains("ref"));
    }

    #[test]
    fn curve_on_empty_plot_is_noop() {
        let mut plot = AsciiPlot::new(10, 5);
        plot.add_curve("ref", '.', |x| x, 10);
        assert!(plot.render().contains("empty"));
    }

    #[test]
    fn single_point_does_not_divide_by_zero() {
        let mut plot = AsciiPlot::new(10, 5);
        plot.add_series(Series::new("one", 'o', vec![(5.0, 5.0)]));
        let s = plot.render();
        assert!(s.contains('o'));
    }

    #[test]
    fn labels_appear() {
        let mut plot = AsciiPlot::new(10, 5);
        plot.labels("n", "rounds");
        plot.add_series(Series::new("s", '*', vec![(0.0, 0.0), (1.0, 2.0)]));
        let s = plot.render();
        assert!(s.contains("(n)"));
        assert!(s.contains("rounds"));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_plot_panics() {
        let _ = AsciiPlot::new(1, 1);
    }
}
