//! Markdown and CSV table rendering for experiment reports.

use core::fmt;

/// Column alignment in markdown output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Align {
    /// Left-aligned column (default).
    #[default]
    Left,
    /// Right-aligned column — use for numbers.
    Right,
    /// Centre-aligned column.
    Center,
}

/// A simple rectangular table that renders to GitHub-flavoured markdown or
/// CSV. This is what `xp` uses to print the paper's data series.
///
/// # Examples
///
/// ```
/// use mis_stats::{Align, Table};
///
/// let mut t = Table::new(vec!["n".into(), "rounds".into()]);
/// t.align(0, Align::Right);
/// t.push_row(vec!["100".into(), "17.2".into()]);
/// let md = t.to_markdown();
/// assert!(md.lines().next().unwrap().contains("rounds"));
/// assert!(t.to_csv().starts_with("n,rounds"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    #[must_use]
    pub fn new(headers: Vec<String>) -> Self {
        assert!(!headers.is_empty(), "table needs at least one column");
        let aligns = vec![Align::Left; headers.len()];
        Self {
            headers,
            aligns,
            rows: Vec::new(),
        }
    }

    /// Convenience constructor from string slices.
    #[must_use]
    pub fn with_columns(headers: &[&str]) -> Self {
        Self::new(headers.iter().map(|s| (*s).to_owned()).collect())
    }

    /// Sets the alignment for column `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn align(&mut self, col: usize, align: Align) -> &mut Self {
        self.aligns[col] = align;
        self
    }

    /// Right-aligns every column except the first (the typical numeric
    /// layout of the paper's tables).
    pub fn numeric(&mut self) -> &mut Self {
        for a in self.aligns.iter_mut().skip(1) {
            *a = Align::Right;
        }
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) -> &mut Self {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(row);
        self
    }

    /// Appends a row built from `Display` values.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_display_row<D: fmt::Display>(&mut self, row: &[D]) -> &mut Self {
        self.push_row(row.iter().map(|d| d.to_string()).collect())
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as GitHub-flavoured markdown with padded columns.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let widths = self.column_widths();
        let mut out = String::new();
        out.push('|');
        for (h, w) in self.headers.iter().zip(&widths) {
            out.push_str(&format!(" {h:<w$} |"));
        }
        out.push('\n');
        out.push('|');
        for (a, w) in self.aligns.iter().zip(&widths) {
            let bar = match a {
                Align::Left => format!("{:-<w$}", "", w = w + 2),
                Align::Right => format!("{:-<w$}:", "", w = w + 1),
                Align::Center => format!(":{:-<w$}:", "", w = *w),
            };
            out.push_str(&bar);
            out.push('|');
        }
        out.push('\n');
        for row in &self.rows {
            out.push('|');
            for ((cell, w), a) in row.iter().zip(&widths).zip(&self.aligns) {
                match a {
                    Align::Right => out.push_str(&format!(" {cell:>w$} |")),
                    _ => out.push_str(&format!(" {cell:<w$} |")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders as RFC-4180-ish CSV (quotes cells containing commas, quotes
    /// or newlines).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let write_row = |out: &mut String, row: &[String]| {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if cell.contains([',', '"', '\n']) {
                    out.push('"');
                    out.push_str(&cell.replace('"', "\"\""));
                    out.push('"');
                } else {
                    out.push_str(cell);
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    fn column_widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_markdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::with_columns(&["n", "mean", "sd"]);
        t.numeric();
        t.push_row(vec!["100".into(), "17.25".into(), "2.1".into()]);
        t.push_row(vec!["1000".into(), "24.9".into(), "2.3".into()]);
        t
    }

    #[test]
    fn markdown_has_header_separator_and_rows() {
        let md = sample().to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("mean"));
        assert!(lines[1].contains("---"));
        assert!(lines[3].contains("1000"));
    }

    #[test]
    fn markdown_right_alignment_marker() {
        let md = sample().to_markdown();
        let sep = md.lines().nth(1).unwrap();
        // numeric() right-aligns all but the first column.
        assert!(sep.matches(":|").count() >= 2);
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = Table::with_columns(&["a", "b"]);
        t.push_row(vec!["x,y".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn display_rows_format() {
        let mut t = Table::with_columns(&["a", "b"]);
        t.push_display_row(&[1.5, 2.5]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert!(t.to_csv().contains("1.5,2.5"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::with_columns(&["a"]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_headers_panic() {
        let _ = Table::new(vec![]);
    }
}
