//! ASCII table and CSV rendering for experiment reports.

use std::fmt::Write as _;

/// A simple text table: headers plus rows, rendered with aligned columns
/// or as CSV. Numeric-looking cells are right-aligned.
///
/// # Examples
///
/// ```
/// use memories_console::report::Table;
///
/// let mut t = Table::new(["cache", "miss ratio"]);
/// t.row(["64MB", "0.1234"]);
/// t.row(["1GB", "0.0567"]);
/// let text = t.render();
/// assert!(text.contains("cache"));
/// assert!(text.contains("0.0567"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title line rendered above the table.
    #[must_use]
    pub fn with_title(mut self, title: &str) -> Self {
        self.title = Some(title.to_string());
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header count.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn looks_numeric(cell: &str) -> bool {
        !cell.is_empty()
            && cell
                .chars()
                .all(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E' | '%' | 'x'))
    }

    /// Renders the aligned ASCII table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if let Some(title) = &self.title {
            writeln!(out, "{title}").expect("writing to String cannot fail");
        }
        let mut line = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            write!(line, "{:<width$}", h, width = widths[i]).expect("infallible");
        }
        writeln!(out, "{line}").expect("infallible");
        writeln!(out, "{}", "-".repeat(line.len())).expect("infallible");
        for row in &self.rows {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                if Self::looks_numeric(cell) {
                    write!(line, "{:>width$}", cell, width = widths[i]).expect("infallible");
                } else {
                    write!(line, "{:<width$}", cell, width = widths[i]).expect("infallible");
                }
            }
            writeln!(out, "{}", line.trim_end()).expect("infallible");
        }
        out
    }
}

/// Formats a byte count with binary units (e.g. `64MB`, `1GB`).
pub fn bytes(value: u64) -> String {
    const UNITS: [(&str, u64); 3] = [("GB", 1 << 30), ("MB", 1 << 20), ("KB", 1 << 10)];
    // Largest applicable unit; exact multiples print without decimals.
    for (name, unit) in UNITS {
        if value >= unit {
            return if value.is_multiple_of(unit) {
                format!("{}{}", value / unit, name)
            } else {
                format!("{:.2}{}", value as f64 / unit as f64, name)
            };
        }
    }
    format!("{value}B")
}

/// Formats a duration in seconds with a human unit (ms / s / min / h /
/// days) matching the paper's table style.
pub fn seconds(value: f64) -> String {
    if value < 1.0 {
        format!("{:.2} ms", value * 1000.0)
    } else if value < 120.0 {
        format!("{value:.2} s")
    } else if value < 2.0 * 3600.0 {
        format!("{:.2} min", value / 60.0)
    } else if value < 2.0 * 86_400.0 {
        format!("{:.2} h", value / 3600.0)
    } else {
        format!("{:.2} days", value / 86_400.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(["name", "value"]).with_title("demo");
        t.row(["short", "1"]);
        t.row(["a-much-longer-name", "123456"]);
        let text = t.render();
        assert!(text.starts_with("demo\n"));
        let lines: Vec<&str> = text.lines().collect();
        // header, separator, two rows
        assert_eq!(lines.len(), 5);
        assert!(lines[1].contains("name"));
        // Numeric column right-aligned: "1" appears padded.
        assert!(lines[3].ends_with("     1"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_is_checked() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn byte_and_time_formatting() {
        assert_eq!(bytes(64 << 20), "64MB");
        assert_eq!(bytes(2 << 30), "2GB");
        assert_eq!(bytes(512), "512B");
        assert_eq!(bytes(3 * (1 << 20) / 2), "1.50MB");
        assert_eq!(bytes((1 << 30) + (1 << 29)), "1.50GB");
        assert_eq!(bytes((1 << 20) + 7), "1.00MB");
        assert_eq!(seconds(0.00328), "3.28 ms");
        assert_eq!(seconds(3.0), "3.00 s");
        assert!(seconds(1000.0).ends_with("min"));
        assert!(seconds(13.0 * 3600.0).ends_with('h'));
        assert!(seconds(3.0 * 86_400.0).ends_with("days"));
    }
}
