//! Plain-text result tables (aligned console output and CSV).
//!
//! Every experiment runner prints one of these per figure; keeping the
//! formatting here means the `repro` binary and the examples all produce
//! identical output.

use std::fmt;

/// A simple rectangular table of strings with a header row.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: Vec<String>) -> Self {
        Table {
            title: title.into(),
            header,
            rows: Vec::new(),
        }
    }

    /// Convenience constructor taking `&str` headers.
    pub fn with_columns(title: impl Into<String>, columns: &[&str]) -> Self {
        Table::new(title, columns.iter().map(|c| c.to_string()).collect())
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.header.len()
    }

    /// Adds a row of already-formatted cells.
    ///
    /// # Panics
    ///
    /// Panics if the number of cells does not match the number of columns.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row has {} cells but the table has {} columns",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
    }

    /// Adds a row of numeric cells, formatted with 4 decimal places, after a
    /// leading label cell.
    pub fn push_labeled_row(&mut self, label: impl Into<String>, values: &[f64]) {
        let mut cells = vec![label.into()];
        cells.extend(values.iter().map(|v| format!("{v:.4}")));
        self.push_row(cells);
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table as a JSON object `{title, header, rows}` with the
    /// cells kept as their already-formatted strings.
    pub fn to_json(&self) -> crate::json::JsonValue {
        use crate::json::JsonValue;
        let rows: Vec<JsonValue> = self
            .rows
            .iter()
            .map(|row| JsonValue::Array(row.iter().map(|c| c.as_str().into()).collect()))
            .collect();
        JsonValue::object()
            .with("title", self.title.as_str())
            .with(
                "header",
                JsonValue::Array(self.header.iter().map(|h| h.as_str().into()).collect()),
            )
            .with("rows", rows)
    }

    /// Renders the table as CSV (header first, no title).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Compute per-column widths over header and rows.
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let fmt_row = |row: &[String]| -> String {
            row.iter()
                .enumerate()
                .map(|(i, c)| {
                    format!(
                        "{:>width$}",
                        c,
                        width = widths.get(i).copied().unwrap_or(c.len())
                    )
                })
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.header))?;
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::with_columns("Figure 4", &["scheme", "sleep=3s", "sleep=15s"]);
        t.push_labeled_row("MQ-JIT", &[0.99, 0.98]);
        t.push_labeled_row("NP", &[0.35, 0.1]);
        t
    }

    #[test]
    fn dimensions() {
        let t = sample();
        assert_eq!(t.title(), "Figure 4");
        assert_eq!(t.column_count(), 3);
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    #[should_panic]
    fn wrong_row_length_panics() {
        let mut t = Table::with_columns("x", &["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn csv_round_trips_values() {
        let csv = sample().to_csv();
        assert!(csv.starts_with("scheme,sleep=3s,sleep=15s\n"));
        assert!(csv.contains("MQ-JIT,0.9900,0.9800"));
        assert!(csv.contains("NP,0.3500,0.1000"));
    }

    #[test]
    fn display_aligns_and_includes_everything() {
        let text = format!("{}", sample());
        assert!(text.contains("== Figure 4 =="));
        assert!(text.contains("MQ-JIT"));
        assert!(text.contains("0.3500"));
        // Header separator present.
        assert!(text.contains("---"));
    }

    #[test]
    fn empty_table_displays() {
        let t = Table::with_columns("empty", &["a"]);
        assert_eq!(t.row_count(), 0);
        assert!(!format!("{t}").is_empty());
        assert_eq!(t.to_csv(), "a\n");
    }
}
