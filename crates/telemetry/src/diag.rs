//! Deterministic per-timestep diagnostics series.
//!
//! The GCM run-health monitor (`gcm::monitor`) records one [`DiagRow`]
//! per model timestep — conserved-quantity budgets, CFL numbers,
//! min/max extrema, CG convergence statistics — and hands the
//! accumulated [`DiagSeries`] to one of three exporters here:
//!
//! * [`DiagSeries::render_text`] — an aligned, human-readable table in
//!   the spirit of MITgcm's `monitor` package output;
//! * [`DiagSeries::render_json`] — a machine-readable series;
//! * [`DiagSeries::render_prom`] — the final row as Prometheus gauges
//!   alongside the fabric metrics.
//!
//! All three render from `BTreeMap`-ordered columns with the fixed
//! six-decimal formatting of [`crate::prom::fixed`], so two same-seed
//! runs produce byte-identical documents (asserted by
//! `tests/determinism.rs`). Non-finite values — which the blowup
//! sentinel exists to catch — render as `NaN`/`+Inf`/`-Inf` in text and
//! prom, and as quoted strings in JSON (bare `NaN` is not valid JSON).

use crate::export::escape;
use crate::prom::{fixed, PromText};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One timestep's worth of named diagnostics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DiagRow {
    pub step: u64,
    values: BTreeMap<&'static str, f64>,
}

impl DiagRow {
    pub fn new(step: u64) -> DiagRow {
        DiagRow {
            step,
            values: BTreeMap::new(),
        }
    }

    /// Set one named value (last write wins).
    pub fn set(&mut self, key: &'static str, value: f64) -> &mut DiagRow {
        self.values.insert(key, value);
        self
    }

    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.get(key).copied()
    }

    /// Key-sorted iteration over the row's values.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.values.iter().map(|(k, v)| (*k, *v))
    }
}

/// An append-only series of per-step diagnostic rows.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DiagSeries {
    name: String,
    rows: Vec<DiagRow>,
}

impl DiagSeries {
    pub fn new(name: &str) -> DiagSeries {
        DiagSeries {
            name: name.to_string(),
            rows: Vec::new(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn push(&mut self, row: DiagRow) {
        self.rows.push(row);
    }

    pub fn rows(&self) -> &[DiagRow] {
        &self.rows
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Drop every row past the first `len` (used by the resilient
    /// stepper to rewind diagnostics to the last checkpoint on a
    /// rank-crash rollback, so the replay re-records them and the final
    /// series stays byte-identical to an uninterrupted run).
    pub fn truncate(&mut self, len: usize) {
        self.rows.truncate(len);
    }

    /// Last recorded value of `key`, if any row carries it.
    pub fn last(&self, key: &str) -> Option<f64> {
        self.rows.iter().rev().find_map(|r| r.get(key))
    }

    /// Maximum of `key` over the series (`total_cmp` order, so NaN sorts
    /// above +Inf and is never silently lost).
    pub fn max(&self, key: &str) -> Option<f64> {
        self.rows
            .iter()
            .filter_map(|r| r.get(key))
            .max_by(|a, b| a.total_cmp(b))
    }

    /// Sorted union of every row's column names.
    fn columns(&self) -> Vec<&'static str> {
        let mut cols: BTreeMap<&'static str, ()> = BTreeMap::new();
        for r in &self.rows {
            for (k, _) in r.iter() {
                cols.insert(k, ());
            }
        }
        cols.into_keys().collect()
    }

    /// Aligned text table: one line per step, one column per metric,
    /// right-justified fixed-decimal values, `-` where a row lacks a
    /// column.
    pub fn render_text(&self) -> String {
        let cols = self.columns();
        // Pre-render every cell so column widths fit the data exactly.
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                cols.iter()
                    .map(|c| r.get(c).map_or_else(|| "-".to_string(), fixed))
                    .collect()
            })
            .collect();
        let mut widths: Vec<usize> = cols.iter().map(|c| c.len()).collect();
        for row in &rendered {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let step_w = self
            .rows
            .iter()
            .map(|r| r.step.to_string().len())
            .chain(["step".len()])
            .max()
            .unwrap_or(4);

        let mut out = String::new();
        let _ = writeln!(out, "# diag series: {}", self.name);
        let _ = write!(out, "{:>step_w$}", "step");
        for (c, w) in cols.iter().zip(&widths) {
            let _ = write!(out, "  {c:>w$}");
        }
        out.push('\n');
        for (r, row) in self.rows.iter().zip(&rendered) {
            let _ = write!(out, "{:>step_w$}", r.step);
            for (cell, w) in row.iter().zip(&widths) {
                let _ = write!(out, "  {cell:>w$}");
            }
            out.push('\n');
        }
        out
    }

    /// Machine-readable JSON: `{"series": ..., "rows": [{"step": n,
    /// "metric": value, ...}, ...]}` with key-sorted members. Non-finite
    /// values are encoded as the strings `"NaN"` / `"+Inf"` / `"-Inf"`.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"series\":\"{}\",\"rows\":[", escape(&self.name));
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"step\":{}", r.step);
            for (k, v) in r.iter() {
                if v.is_finite() {
                    let _ = write!(out, ",\"{}\":{}", escape(k), fixed(v));
                } else {
                    let _ = write!(out, ",\"{}\":\"{}\"", escape(k), fixed(v));
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Prometheus gauges for the *final* row (gauges carry latest
    /// values), plus a `<prefix>_diag_steps` gauge with the number of
    /// monitored steps.
    pub fn render_prom(&self, prefix: &str) -> String {
        let mut p = PromText::new();
        let steps_name = format!("{prefix}_diag_steps");
        p.type_line(&steps_name, "gauge");
        p.sample(
            &steps_name,
            &[("series", &self.name)],
            self.rows.len() as f64,
        );
        if let Some(last) = self.rows.last() {
            let name = format!("{prefix}_diag");
            p.type_line(&name, "gauge");
            for (k, v) in last.iter() {
                p.sample(&name, &[("series", &self.name), ("metric", k)], v);
            }
        }
        p.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_series() -> DiagSeries {
        let mut s = DiagSeries::new("ocean");
        let mut r0 = DiagRow::new(0);
        r0.set("cfl_adv", 0.125).set("ke_u", 3.5);
        s.push(r0);
        let mut r1 = DiagRow::new(1);
        r1.set("cfl_adv", 0.25)
            .set("ke_u", 4.0)
            .set("div_max", 1e-3);
        s.push(r1);
        s
    }

    #[test]
    fn text_table_is_aligned_and_handles_missing_columns() {
        let t = sample_series().render_text();
        assert!(t.starts_with("# diag series: ocean\n"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // Header carries the sorted column union; row 0 lacks div_max.
        assert_eq!(
            lines[1].split_whitespace().collect::<Vec<_>>(),
            ["step", "cfl_adv", "div_max", "ke_u"]
        );
        assert!(lines[2].split_whitespace().any(|c| c == "-"));
        // Every data line is exactly as wide as the header line.
        assert_eq!(lines[2].len(), lines[1].len());
        assert_eq!(lines[3].len(), lines[1].len());
    }

    #[test]
    fn json_sorts_keys_and_quotes_non_finite() {
        let mut s = DiagSeries::new("x");
        let mut r = DiagRow::new(3);
        r.set("b", f64::NAN).set("a", 1.0).set("c", f64::INFINITY);
        s.push(r);
        assert_eq!(
            s.render_json(),
            "{\"series\":\"x\",\"rows\":[{\"step\":3,\"a\":1.000000,\"b\":\"NaN\",\"c\":\"+Inf\"}]}"
        );
    }

    #[test]
    fn prom_renders_last_row_as_gauges() {
        let p = sample_series().render_prom("hyades");
        assert!(p.contains("hyades_diag_steps{series=\"ocean\"} 2.000000"));
        assert!(p.contains("hyades_diag{series=\"ocean\",metric=\"div_max\"} 0.001000"));
        assert!(p.contains("metric=\"cfl_adv\"} 0.250000"));
        // Row-0-only values are not in the final-row gauges.
        assert!(!p.contains("3.500000"));
    }

    #[test]
    fn exports_are_deterministic() {
        let s = sample_series();
        assert_eq!(s.render_text(), sample_series().render_text());
        assert_eq!(s.render_json(), sample_series().render_json());
        assert_eq!(s.render_prom("h"), sample_series().render_prom("h"));
    }

    #[test]
    fn series_queries() {
        let s = sample_series();
        assert_eq!(s.len(), 2);
        assert_eq!(s.last("ke_u"), Some(4.0));
        assert_eq!(s.last("div_max"), Some(1e-3));
        assert_eq!(s.max("cfl_adv"), Some(0.25));
        assert_eq!(s.max("absent"), None);
    }
}
