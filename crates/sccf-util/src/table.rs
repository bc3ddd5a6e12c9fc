//! Minimal text table rendering (markdown and TSV).
//!
//! The `repro` harness emits every paper table through this type, so all
//! experiment output is greppable, diffable and pasteable into a
//! report without a serialization dependency.

use std::fmt::Write as _;

/// A simple rectangular table: a header row plus data rows of strings.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn title(&self) -> &str {
        &self.title
    }

    /// Append a row; short rows are padded with empty cells, long rows are
    /// a programming error.
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert!(
            cells.len() <= self.header.len(),
            "row has {} cells but table has {} columns",
            cells.len(),
            self.header.len()
        );
        let mut cells = cells;
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// Convenience: append a row of displayable values.
    pub fn push<S: ToString>(&mut self, cells: &[S]) {
        self.add_row(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Render as GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "### {}", self.title);
            out.push('\n');
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(line, " {:<width$} |", c, width = w);
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{:-<width$}|", "", width = w + 2);
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Render as tab-separated values (header first).
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join("\t"));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join("\t"));
        }
        out
    }
}

/// Format a float with 4 decimal places — the precision the paper's tables use.
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Format a float with 2 decimal places (latencies, percentages).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a ratio as a signed percentage string, e.g. `+12.75%`.
pub fn pct(x: f64) -> String {
    format!("{:+.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_shape() {
        let mut t = Table::new("Demo", &["a", "bb"]);
        t.push(&["1", "2"]);
        t.push(&["333", "4"]);
        let md = t.to_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| a   | bb |"));
        assert!(md.contains("| 333 | 4  |"));
        let lines: Vec<&str> = md.lines().collect();
        // title, blank, header, separator, two rows
        assert_eq!(lines.len(), 6);
    }

    #[test]
    fn tsv_shape() {
        let mut t = Table::new("", &["x", "y"]);
        t.push(&["1", "2"]);
        assert_eq!(t.to_tsv(), "x\ty\n1\t2\n");
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new("", &["a", "b", "c"]);
        t.add_row(vec!["only".into()]);
        assert!(t.to_tsv().contains("only\t\t"));
    }

    #[test]
    #[should_panic(expected = "row has 3 cells")]
    fn long_rows_panic() {
        let mut t = Table::new("", &["a"]);
        t.push(&["1", "2", "3"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f4(0.123456), "0.1235");
        assert_eq!(f2(1.5), "1.50");
        assert_eq!(pct(0.025), "+2.50%");
        assert_eq!(pct(-0.01), "-1.00%");
    }
}
