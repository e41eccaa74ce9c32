//! Critical-path slack: model-predicted vs observed path length.
//!
//! The phase model (eqs. 4–13) predicts what one step *should* cost when
//! every rank interleaves compute and comm perfectly; the critical-path
//! profiler (`hyades_telemetry::critpath`) measures what the slowest
//! chain through the run *actually* cost. This module lines the two up,
//! per step: a residual near zero says no rank added schedule-induced
//! stall beyond the model's serial phases; a large positive residual is
//! exactly the straggler signature the profiler's attribution table then
//! localizes.
//!
//! For a coupled run both isomorphs step inside one timestep, so the
//! per-step prediction is the sum of the two models' step costs
//! (eqs. 4–10 instantiated per isomorph, each with its own `Ni`).

use crate::perf::model::PerfModel;
use crate::perf::phases::relative_residual;
use crate::perf::report::Table;

/// Predicted cost of one *coupled* timestep: both isomorphs' PS phases
/// plus their DS phases scaled by that step's solver iteration counts.
pub fn predicted_coupled_step(
    atmos: &PerfModel,
    ocean: &PerfModel,
    ni_atmos: u64,
    ni_ocean: u64,
) -> f64 {
    atmos.t_step(ni_atmos as f64) + ocean.t_step(ni_ocean as f64)
}

/// One step of the critical-path residual series.
#[derive(Clone, Copy, Debug)]
pub struct SlackRow {
    pub step: u64,
    pub predicted_s: f64,
    /// Observed critical-path share of this step, in seconds.
    pub observed_s: f64,
    /// `(observed − predicted) / predicted`.
    pub residual: f64,
}

/// Per-step predicted vs observed critical-path lengths.
#[derive(Clone, Debug)]
pub struct SlackSeries {
    pub rows: Vec<SlackRow>,
}

impl SlackSeries {
    /// Largest |per-step residual| (NaN/∞ propagate).
    pub fn max_abs_residual(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.residual.abs())
            .fold(0.0, f64::max)
    }

    /// Deterministic text table, one line per step.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["step", "predicted_s", "observed_path_s", "residual"]);
        for r in &self.rows {
            t.row(&[
                r.step.to_string(),
                format!("{:.6}", r.predicted_s),
                format!("{:.6}", r.observed_s),
                format!("{:+.2}%", r.residual * 100.0),
            ]);
        }
        format!(
            "critical path vs phase model ({} steps):\n{}",
            self.rows.len(),
            t.render()
        )
    }
}

/// Pair up per-step predictions and observed critical-path lengths
/// (both in seconds, same step order).
///
/// # Panics
/// If the two series differ in length: a critical path that misses a
/// step would otherwise publish a shorter table and a smaller maximum
/// residual without a word.
pub fn critpath_series(predicted_s: &[f64], observed_s: &[f64]) -> SlackSeries {
    assert_eq!(
        predicted_s.len(),
        observed_s.len(),
        "critpath_series: {} predicted steps but {} observed",
        predicted_s.len(),
        observed_s.len()
    );
    let rows = predicted_s
        .iter()
        .zip(observed_s)
        .enumerate()
        .map(|(i, (&p, &o))| SlackRow {
            step: i as u64 + 1,
            predicted_s: p,
            observed_s: o,
            residual: relative_residual(p, o),
        })
        .collect();
    SlackSeries { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::model::paper_atmosphere;

    #[test]
    fn coupled_prediction_sums_both_isomorphs() {
        let m = paper_atmosphere();
        let single = m.tps_compute() + m.tps_exch() + 40.0 * (m.tds_compute() + m.tds_comm());
        let coupled = predicted_coupled_step(&m, &m, 40, 40);
        assert!((coupled - 2.0 * single).abs() < 1e-12);
        // DS scales with each isomorph's own iteration count.
        let asym = predicted_coupled_step(&m, &m, 40, 0);
        assert!(asym < coupled && asym > single);
    }

    #[test]
    fn residuals_localize_the_hot_step() {
        let s = critpath_series(&[1.0, 1.0, 1.0], &[1.0, 1.0, 1.5]);
        assert_eq!(s.rows.len(), 3);
        assert!(s.rows[0].residual.abs() < 1e-12);
        assert!((s.rows[2].residual - 0.5).abs() < 1e-12);
        assert!((s.max_abs_residual() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "3 predicted steps but 2 observed")]
    fn a_step_missing_from_the_path_is_an_error() {
        critpath_series(&[1.0, 1.0, 1.0], &[1.0, 1.0]);
    }

    #[test]
    fn zero_prediction_with_observation_is_flagged() {
        let s = critpath_series(&[0.0], &[0.1]);
        assert!(s.rows[0].residual.is_infinite() && s.rows[0].residual > 0.0);
        let s = critpath_series(&[0.0], &[0.0]);
        assert_eq!(s.rows[0].residual, 0.0);
    }

    #[test]
    fn render_is_deterministic_and_labelled() {
        let a = critpath_series(&[1.0, 2.0], &[1.1, 1.9]).render();
        let b = critpath_series(&[1.0, 2.0], &[1.1, 1.9]).render();
        assert_eq!(a, b);
        assert!(a.contains("critical path vs phase model (2 steps)"));
        assert!(a.contains("+10.00%"));
        assert!(a.contains("-5.00%"));
    }
}
