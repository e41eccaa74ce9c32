//! Model-vs-measured phase profiling.
//!
//! §5.3 validates eqs. (4)–(13) against one wall-clock number (183
//! observed vs 181 predicted minutes). With the telemetry recorder the
//! same comparison can be made *per phase term*: an instrumented run
//! yields measured PS-compute, PS-comm, DS-compute, and DS-comm seconds
//! (charged against the same cost models the simulator uses), and this
//! module lines them up against the analytical predictions, emitting a
//! residual for each term. A residual near zero says the closed-form
//! model and the executable model agree; a large one localizes the
//! disagreement to a single equation.
//!
//! The four predictions, for `nt` steps and `ni_total` cumulative solver
//! iterations:
//!
//! ```text
//! PS compute = Nt · Nps·nxyz/Fps          (eq. 5)
//! PS comm    = Nt · 5·t_exch_xyz          (eq. 6)
//! DS compute = Ni_total · Nds·nxy/Fds     (eq. 8)
//! DS comm    = Ni_total · (2·t_exch_xy + 2·t_gsum)   (eqs. 9–10)
//! ```

use crate::perf::model::PerfModel;
use crate::perf::report::Table;

/// Measured per-phase seconds from an instrumented run (one rank's
/// charged totals, or a mean over ranks).
#[derive(Clone, Copy, Debug, Default)]
pub struct MeasuredPhases {
    pub ps_compute_s: f64,
    pub ps_comm_s: f64,
    pub ds_compute_s: f64,
    pub ds_comm_s: f64,
}

impl MeasuredPhases {
    pub fn total(&self) -> f64 {
        self.ps_compute_s + self.ps_comm_s + self.ds_compute_s + self.ds_comm_s
    }
}

/// One phase term of the comparison.
#[derive(Clone, Copy, Debug)]
pub struct PhaseRow {
    pub name: &'static str,
    pub predicted_s: f64,
    pub measured_s: f64,
}

/// Relative residual `(measured − predicted) / predicted`; zero when the
/// prediction itself is zero and the measurement agrees, infinite in sign
/// of the measurement otherwise.
pub fn relative_residual(predicted: f64, measured: f64) -> f64 {
    if predicted == 0.0 {
        if measured == 0.0 {
            0.0
        } else {
            f64::INFINITY.copysign(measured)
        }
    } else {
        (measured - predicted) / predicted
    }
}

impl PhaseRow {
    /// [`relative_residual`] of this term.
    pub fn residual(&self) -> f64 {
        relative_residual(self.predicted_s, self.measured_s)
    }
}

/// The full model-vs-measured comparison for one run.
#[derive(Clone, Debug)]
pub struct PhaseComparison {
    pub nt: u64,
    /// Cumulative solver iterations over the run (`Nt · Ni` in the
    /// paper's mean-iteration notation).
    pub ni_total: u64,
    pub rows: Vec<PhaseRow>,
}

impl PhaseComparison {
    pub fn predicted_total(&self) -> f64 {
        self.rows.iter().map(|r| r.predicted_s).sum()
    }

    pub fn measured_total(&self) -> f64 {
        self.rows.iter().map(|r| r.measured_s).sum()
    }

    /// Largest |residual| over the four terms (NaN/∞ propagate).
    pub fn max_abs_residual(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.residual().abs())
            .fold(0.0, f64::max)
    }

    /// Render the comparison as a deterministic text table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["phase term", "predicted_s", "measured_s", "residual"]);
        for r in &self.rows {
            t.row(&[
                r.name.to_string(),
                format!("{:.6}", r.predicted_s),
                format!("{:.6}", r.measured_s),
                format!("{:+.2}%", r.residual() * 100.0),
            ]);
        }
        t.row(&[
            "total".to_string(),
            format!("{:.6}", self.predicted_total()),
            format!("{:.6}", self.measured_total()),
            {
                let p = self.predicted_total();
                let m = self.measured_total();
                if p == 0.0 {
                    "n/a".to_string()
                } else {
                    format!("{:+.2}%", (m - p) / p * 100.0)
                }
            },
        ]);
        format!(
            "model-vs-measured phases: nt={} ni_total={}\n{}",
            self.nt,
            self.ni_total,
            t.render()
        )
    }
}

/// One step's measured phase seconds plus the solver iteration count
/// that step actually took — the inputs the per-step prediction needs.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepSample {
    /// CG iterations this step (`Ni` varies step to step).
    pub ni: u64,
    pub measured: MeasuredPhases,
}

/// One step of the residual series: predicted/measured totals and the
/// per-term residuals for that step alone.
#[derive(Clone, Copy, Debug)]
pub struct StepResidualRow {
    pub step: u64,
    pub ni: u64,
    pub predicted_s: f64,
    pub measured_s: f64,
    /// `(measured − predicted) / predicted` for the whole step.
    pub residual: f64,
}

/// Per-step model-vs-measured drift over a run. The end-of-run
/// [`PhaseComparison`] averages residuals away; this series shows
/// *when* the model and the run diverge (e.g. an `Ni` ramp as the
/// pressure field roughens).
#[derive(Clone, Debug)]
pub struct ResidualSeries {
    pub rows: Vec<StepResidualRow>,
}

impl ResidualSeries {
    /// Largest |per-step residual| over the run.
    pub fn max_abs_residual(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.residual.abs())
            .fold(0.0, f64::max)
    }

    /// Deterministic text table, one line per step.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["step", "ni", "predicted_s", "measured_s", "residual"]);
        for r in &self.rows {
            t.row(&[
                r.step.to_string(),
                r.ni.to_string(),
                format!("{:.6}", r.predicted_s),
                format!("{:.6}", r.measured_s),
                format!("{:+.2}%", r.residual * 100.0),
            ]);
        }
        format!(
            "per-step model-vs-measured residuals ({} steps):\n{}",
            self.rows.len(),
            t.render()
        )
    }
}

/// Build the per-step residual series: each sample is one step's charged
/// phase seconds (differences of consecutive recorder snapshots) against
/// the model's prediction for one step with that step's `Ni`.
pub fn step_residual_series(model: &PerfModel, samples: &[StepSample]) -> ResidualSeries {
    let rows = samples
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let predicted = model.t_step(s.ni as f64);
            let measured = s.measured.total();
            StepResidualRow {
                step: i as u64 + 1,
                ni: s.ni,
                predicted_s: predicted,
                measured_s: measured,
                residual: relative_residual(predicted, measured),
            }
        })
        .collect();
    ResidualSeries { rows }
}

/// Compare an instrumented run's measured phase seconds against the
/// analytical model, term by term.
pub fn compare(
    model: &PerfModel,
    nt: u64,
    ni_total: u64,
    measured: &MeasuredPhases,
) -> PhaseComparison {
    let nt_f = nt as f64;
    let ni_f = ni_total as f64;
    let rows = vec![
        PhaseRow {
            name: "ps.compute",
            predicted_s: nt_f * model.tps_compute(),
            measured_s: measured.ps_compute_s,
        },
        PhaseRow {
            name: "ps.comm",
            predicted_s: nt_f * model.tps_exch(),
            measured_s: measured.ps_comm_s,
        },
        PhaseRow {
            name: "ds.compute",
            predicted_s: ni_f * model.tds_compute(),
            measured_s: measured.ds_compute_s,
        },
        PhaseRow {
            name: "ds.comm",
            predicted_s: ni_f * model.tds_comm(),
            measured_s: measured.ds_comm_s,
        },
    ];
    PhaseComparison { nt, ni_total, rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::model::paper_atmosphere;

    #[test]
    fn perfect_measurement_has_zero_residuals() {
        let m = paper_atmosphere();
        let (nt, ni_total) = (100u64, 6000u64);
        let measured = MeasuredPhases {
            ps_compute_s: nt as f64 * m.tps_compute(),
            ps_comm_s: nt as f64 * m.tps_exch(),
            ds_compute_s: ni_total as f64 * m.tds_compute(),
            ds_comm_s: ni_total as f64 * m.tds_comm(),
        };
        let cmp = compare(&m, nt, ni_total, &measured);
        assert!(cmp.max_abs_residual() < 1e-12, "{}", cmp.render());
        assert!((cmp.predicted_total() - cmp.measured_total()).abs() < 1e-12);
    }

    #[test]
    fn residual_signs_follow_the_measurement() {
        let m = paper_atmosphere();
        let nt = 10u64;
        let measured = MeasuredPhases {
            ps_compute_s: nt as f64 * m.tps_compute() * 1.5, // 50% over
            ps_comm_s: nt as f64 * m.tps_exch() * 0.5,       // 50% under
            ds_compute_s: 0.0,
            ds_comm_s: 0.0,
        };
        let cmp = compare(&m, nt, 0, &measured);
        assert!((cmp.rows[0].residual() - 0.5).abs() < 1e-12);
        assert!((cmp.rows[1].residual() + 0.5).abs() < 1e-12);
        // ni_total = 0 ⇒ DS predictions are zero and measurements agree.
        assert_eq!(cmp.rows[2].residual(), 0.0);
        assert_eq!(cmp.rows[3].residual(), 0.0);
    }

    #[test]
    fn render_is_deterministic_and_labelled() {
        let m = paper_atmosphere();
        let measured = MeasuredPhases {
            ps_compute_s: 1.0,
            ps_comm_s: 0.25,
            ds_compute_s: 2.0,
            ds_comm_s: 0.5,
        };
        let a = compare(&m, 50, 3000, &measured).render();
        let b = compare(&m, 50, 3000, &measured).render();
        assert_eq!(a, b);
        for label in ["ps.compute", "ps.comm", "ds.compute", "ds.comm", "total"] {
            assert!(a.contains(label), "missing {label} in:\n{a}");
        }
        assert!(a.contains("nt=50 ni_total=3000"));
    }

    #[test]
    fn step_series_localizes_drift_to_the_step() {
        let m = paper_atmosphere();
        let per_step = |ni: u64, scale: f64| StepSample {
            ni,
            measured: MeasuredPhases {
                ps_compute_s: m.tps_compute() * scale,
                ps_comm_s: m.tps_exch() * scale,
                ds_compute_s: ni as f64 * m.tds_compute() * scale,
                ds_comm_s: ni as f64 * m.tds_comm() * scale,
            },
        };
        // Steps 1–2 match the model exactly; step 3 runs 20% hot.
        let series = step_residual_series(
            &m,
            &[per_step(60, 1.0), per_step(55, 1.0), per_step(80, 1.2)],
        );
        assert_eq!(series.rows.len(), 3);
        assert!(series.rows[0].residual.abs() < 1e-12);
        assert!(series.rows[1].residual.abs() < 1e-12);
        assert!((series.rows[2].residual - 0.2).abs() < 1e-12);
        assert!((series.max_abs_residual() - 0.2).abs() < 1e-12);
        assert_eq!(series.rows[2].step, 3);
        assert_eq!(series.rows[2].ni, 80);
        let r = series.render();
        assert_eq!(
            r,
            step_residual_series(
                &m,
                &[per_step(60, 1.0), per_step(55, 1.0), per_step(80, 1.2),]
            )
            .render()
        );
        assert!(r.contains("per-step model-vs-measured residuals (3 steps)"));
        assert!(r.contains("+20.00%"));
    }

    #[test]
    fn zero_prediction_with_nonzero_measurement_is_flagged() {
        let r = PhaseRow {
            name: "ds.comm",
            predicted_s: 0.0,
            measured_s: 0.1,
        };
        assert!(r.residual().is_infinite() && r.residual() > 0.0);
    }
}
