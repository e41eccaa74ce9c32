//! §5.3: validating the performance model against an observed run.
//!
//! The paper checks its model against a one-year atmospheric simulation:
//! predicted 30.1 min of communication + 151 min of computation = 181 min
//! versus 183 min of observed wall-clock (1.1% error). This module
//! performs that comparison for any (model, observation) pair; the
//! observation can come from the paper (the published 183 min) or from
//! the time-charging executor replaying a simulated run.

use crate::perf::model::PerfModel;

/// Outcome of one validation.
#[derive(Clone, Copy, Debug)]
pub struct Validation {
    pub nt: u64,
    pub ni: f64,
    pub predicted_comm_minutes: f64,
    pub predicted_comp_minutes: f64,
    pub predicted_total_minutes: f64,
    pub observed_minutes: f64,
    /// (predicted − observed) / observed.
    pub relative_error: f64,
}

/// Compare the model's prediction against an observed runtime.
pub fn validate(m: &PerfModel, nt: u64, ni: f64, observed_minutes: f64) -> Validation {
    let comm = m.t_comm(nt, ni) / 60.0;
    let comp = m.t_comp(nt, ni) / 60.0;
    let total = m.t_run(nt, ni) / 60.0;
    Validation {
        nt,
        ni,
        predicted_comm_minutes: comm,
        predicted_comp_minutes: comp,
        predicted_total_minutes: total,
        observed_minutes,
        relative_error: (total - observed_minutes) / observed_minutes,
    }
}

/// The paper's §5.3 validation, end to end.
pub fn paper_validation() -> Validation {
    let run = crate::perf::params::paper_validation_run();
    validate(
        &crate::perf::model::paper_atmosphere(),
        run.nt,
        run.ni,
        run.observed_minutes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_validation_agrees_within_two_percent() {
        let v = paper_validation();
        assert!((v.predicted_comm_minutes - 30.1).abs() < 1.0, "{v:?}");
        assert!((v.predicted_comp_minutes - 151.0).abs() < 1.5, "{v:?}");
        assert!(v.relative_error.abs() < 0.02, "{v:?}");
    }

    #[test]
    fn components_sum_to_total() {
        let v = paper_validation();
        let sum = v.predicted_comm_minutes + v.predicted_comp_minutes;
        assert!((sum - v.predicted_total_minutes).abs() < 1e-9);
    }

    #[test]
    fn error_sign_convention() {
        let m = crate::perf::model::paper_atmosphere();
        let slow_obs = validate(&m, 1000, 60.0, 1e9);
        assert!(
            slow_obs.relative_error < 0.0,
            "prediction below observation"
        );
    }
}
