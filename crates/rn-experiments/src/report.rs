//! Plain-text report tables.
//!
//! Every experiment produces one or more [`Table`]s: a title, a header row
//! and data rows, rendered as aligned monospace text (the same style as the
//! rows a paper's evaluation section would print). Tables are for people;
//! the machine-readable reports ([`crate::emit`] and the gate binaries'
//! `--json` files) are written with the dependency-free encoders in
//! `rn_telemetry::json`.

use std::fmt;

/// A rectangular report table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table title, e.g. `"E2: broadcast completion round vs 2n-3"`.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; each row must have exactly `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
    /// Optional free-form notes rendered under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table with the given title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row width does not match the header width.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
    }

    /// Appends a note rendered under the table.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let mut header_line = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            header_line.push_str(&format!("{:width$}", h, width = widths[i]));
            if i + 1 < cols {
                header_line.push_str("  ");
            }
        }
        out.push_str(&header_line);
        out.push('\n');
        out.push_str(&"-".repeat(header_line.len()));
        out.push('\n');
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:width$}", cell, width = widths[i]));
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Convenience: format a float with three significant decimals.
pub fn fmt_f64(x: f64) -> String {
    format!("{x:.3}")
}

/// Convenience: format an optional round count (`-` when absent).
pub fn fmt_opt(x: Option<u64>) -> String {
    x.map_or_else(|| "-".to_string(), |v| v.to_string())
}

/// Convenience: format a boolean as `yes` / `NO` (loud when false, because a
/// `false` in these reports means a theorem check failed).
pub fn fmt_bool(b: bool) -> String {
    if b {
        "yes".to_string()
    } else {
        "NO".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_render() {
        let mut t = Table::new("demo", &["family", "n", "rounds"]);
        t.push_row(vec!["path".into(), "16".into(), "29".into()]);
        t.push_row(vec!["cycle".into(), "16".into(), "17".into()]);
        t.push_note("bound is 2n-3");
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("family"));
        assert!(s.contains("path"));
        assert!(s.contains("note: bound is 2n-3"));
        assert_eq!(t.row_count(), 2);
        assert_eq!(format!("{t}"), s);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn alignment_pads_to_widest_cell() {
        let mut t = Table::new("w", &["x", "yyyyyy"]);
        t.push_row(vec!["aaaaaaaaaa".into(), "b".into()]);
        let line = t.render();
        let rows: Vec<&str> = line.lines().collect();
        // header line and data line have the same prefix width for column 1
        assert_eq!(rows[1].find("yyyyyy").unwrap(), rows[3].find('b').unwrap());
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_f64(1.23456), "1.235");
        assert_eq!(fmt_opt(Some(9)), "9");
        assert_eq!(fmt_opt(None), "-");
        assert_eq!(fmt_bool(true), "yes");
        assert_eq!(fmt_bool(false), "NO");
    }
}
