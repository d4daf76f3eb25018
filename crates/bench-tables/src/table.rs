//! Plain-text and CSV rendering of experiment tables.

use std::fmt;

/// A titled table of string cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table title, printed above the grid.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows; each must have `headers.len()` cells (enforced by
    /// [`Table::push_row`]).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the grid (assumptions, targets).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics when the cell count does not match the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells, table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Appends a note line.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders as CSV (headers + rows; title and notes as `#` comments).
    pub fn to_csv(&self) -> String {
        fn esc(cell: &str) -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = format!("# {}\n", self.title);
        for note in &self.notes {
            out.push_str(&format!("# {note}\n"));
        }
        out.push_str(&self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Column widths over headers and cells.
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let header_line: Vec<String> =
            self.headers.iter().zip(&widths).map(|(h, w)| format!("{h:>w$}", w = w)).collect();
        writeln!(f, "{}", header_line.join("  "))?;
        writeln!(f, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (cols.max(1) - 1)))?;
        for row in &self.rows {
            let line: Vec<String> =
                row.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect();
            writeln!(f, "{}", line.join("  "))?;
        }
        for note in &self.notes {
            writeln!(f, "  note: {note}")?;
        }
        Ok(())
    }
}

/// Formats a float with engineering-friendly precision for table cells.
pub fn fnum(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e5 || v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", &["N", "E_s"]);
        t.push_row(vec!["100".into(), "0.25".into()]);
        t.push_row(vec!["200".into(), "0.31".into()]);
        t.push_note("target 0.3");
        t
    }

    #[test]
    fn display_contains_everything() {
        let s = format!("{}", sample());
        assert!(s.contains("Demo"));
        assert!(s.contains("E_s"));
        assert!(s.contains("0.31"));
        assert!(s.contains("target 0.3"));
    }

    #[test]
    fn columns_align() {
        let s = format!("{}", sample());
        let lines: Vec<&str> = s.lines().collect();
        // Header and rows right-align: the last char column of "N" values
        // lines up.
        assert!(lines[1].trim_start().starts_with('N'));
    }

    #[test]
    #[should_panic(expected = "row has 1 cells")]
    fn ragged_row_rejected() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn csv_escapes_and_structures() {
        let mut t = Table::new("T", &["a", "b"]);
        t.push_row(vec!["1,5".into(), "plain".into()]);
        t.push_note("n");
        let csv = t.to_csv();
        assert!(csv.starts_with("# T\n# n\na,b\n"));
        assert!(csv.contains("\"1,5\",plain"));
    }

    #[test]
    fn fnum_ranges() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(0.3123), "0.3123");
        assert_eq!(fnum(310.4), "310.4");
        assert!(fnum(2.07e7).contains('e'));
        assert!(fnum(1e-5).contains('e'));
    }
}
