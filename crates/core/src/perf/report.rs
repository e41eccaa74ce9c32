//! Plain-text table rendering for the experiment harnesses.

/// A simple left-aligned text table.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(c, cell)| format!(" {:<width$} ", cell, width = widths[c]))
                .collect::<Vec<_>>()
                .join("|")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        let _ = ncols;
        out
    }
}

/// Format a microsecond value the way the paper's tables do.
pub fn us(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.1}")
    }
}

/// Format an MFlop/s value.
pub fn mflops(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["x".into(), "1".into()]);
        t.row(&["long-name".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines same width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(s.contains("long-name"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn number_formats() {
        assert_eq!(us(13.5), "13.5");
        assert_eq!(us(115.0), "115");
        assert_eq!(us(100000.0), "100000");
        assert_eq!(mflops(487.3), "487");
        assert_eq!(mflops(6.2), "6.2");
    }
}
