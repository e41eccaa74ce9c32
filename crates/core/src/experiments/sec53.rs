//! E6 — §5.3: validating the performance model.
//!
//! Two validations are reported:
//!
//! 1. **The paper's own numbers**: plugging Figure 11's parameters into
//!    eqs. (12)–(13) must reproduce the published 30.1 + 151 ≈ 181 min
//!    prediction against 183 min observed.
//! 2. **This reproduction's closed loop**: the time-charging executor
//!    replays an instrumented run of our GCM (actual flops, actual
//!    per-step solver iterations) and extrapolates to the year-long run;
//!    the closed-form model (mean parameters) must predict that
//!    "observed" time to within a couple of percent, which is the same
//!    agreement the paper demonstrates.

use crate::charging::run_charged;
use crate::perf::model::PerfModel;
use crate::perf::params::{paper_validation_run, DsParams, PsParams};
use crate::perf::validate::{paper_validation, validate, Validation};
use hyades_gcm::config::ModelConfig;
use hyades_gcm::decomp::Decomp;

/// Closed-loop validation on a reduced grid (per-cell coefficients are
/// grid-size independent).
pub fn closed_loop(steps: usize) -> (Validation, f64) {
    let d = Decomp::blocks(32, 16, 1, 1, 3);
    let mut cfg = ModelConfig::atmosphere_2p8125(Decomp::blocks(128, 64, 1, 1, 3));
    cfg.grid = hyades_gcm::grid::Grid::global(32, 16, 5, 78.75, vec![2.0e4; 5]);
    cfg.decomp = d;
    // Charge with the paper's 8-endpoint layout and its measured
    // communication costs.
    let base = crate::perf::model::paper_atmosphere();
    let run = run_charged(cfg, &base, steps);
    let nt = paper_validation_run().nt;
    let observed_minutes = run.extrapolated_minutes(nt);
    // Closed-form prediction from the run's mean parameters.
    let pm = PerfModel {
        ps: PsParams {
            nps: run.measured_nps,
            ..base.ps
        },
        ds: DsParams {
            nds: run.measured_nds,
            ..base.ds
        },
    };
    (
        validate(&pm, nt, run.mean_ni, observed_minutes),
        run.mean_ni,
    )
}

pub fn run() -> String {
    let paper = paper_validation();
    let (ours, ni) = closed_loop(6);
    format!(
        "E6  Section 5.3: validation of the performance model\n\n\
         Paper's validation (Figure 11 parameters, Nt=77760, Ni=60):\n\
         predicted communication: {:6.1} min   (paper: 30.1)\n\
         predicted computation:   {:6.1} min   (paper: 151)\n\
         predicted total:         {:6.1} min   vs observed 183 min ({:+.1}%)\n\n\
         This reproduction's closed loop (instrumented GCM -> charging executor,\n\
         mean Ni = {ni:.1}):\n\
         model-predicted total:   {:6.1} min\n\
         charged 'observed':      {:6.1} min   ({:+.1}%)\n",
        paper.predicted_comm_minutes,
        paper.predicted_comp_minutes,
        paper.predicted_total_minutes,
        paper.relative_error * 100.0,
        ours.predicted_total_minutes,
        ours.observed_minutes,
        ours.relative_error * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers_reproduced() {
        let v = paper_validation();
        assert!((v.predicted_comm_minutes - 30.1).abs() < 1.0);
        assert!((v.predicted_comp_minutes - 151.0).abs() < 1.5);
        assert!(v.relative_error.abs() < 0.02);
    }

    #[test]
    fn closed_loop_agrees_within_three_percent() {
        let (v, ni) = closed_loop(4);
        assert!(
            v.relative_error.abs() < 0.03,
            "model vs charged run disagree: {v:?}"
        );
        assert!(ni > 1.0);
        assert!(v.observed_minutes > 0.0);
    }

    #[test]
    fn report_renders() {
        let r = run();
        assert!(r.contains("183 min"));
        assert!(r.contains("closed loop"));
    }
}
