//! The time-charging executor.
//!
//! Runs the *functional* GCM and charges each step with simulated wall
//! time: measured flops divided by the sustained kernel rates, plus the
//! communication primitives at their interconnect costs, using the
//! *actual* per-step solver iteration count rather than a mean. This is
//! the "observed" side of the §5.3 validation — the closest synthetic
//! equivalent of running the year-long simulation on the real cluster —
//! while the closed-form performance model provides the prediction.

use crate::perf::model::PerfModel;
use hyades_comms::SerialWorld;
use hyades_gcm::config::ModelConfig;
use hyades_gcm::driver::Model;

/// Result of a charged run.
#[derive(Clone, Debug)]
pub struct ChargedRun {
    /// Steps actually executed.
    pub steps: usize,
    /// Simulated wall time charged (s).
    pub charged_seconds: f64,
    /// Split for the comm/compute validation.
    pub compute_seconds: f64,
    pub comm_seconds: f64,
    /// Mean solver iterations observed.
    pub mean_ni: f64,
    /// Flop coefficients measured from the run (per-cell Nps, per-column
    /// per-iteration Nds).
    pub measured_nps: f64,
    pub measured_nds: f64,
}

impl ChargedRun {
    /// Linearly extrapolate the charged time to `nt` steps (minutes).
    pub fn extrapolated_minutes(&self, nt: u64) -> f64 {
        self.charged_seconds * nt as f64 / self.steps as f64 / 60.0
    }
}

/// Execute `steps` of the model on one rank, charging time per the
/// performance-model parameters in `pm` (whose `nps`/`nds`/`nxyz`/`nxy`
/// describe the target cluster layout — e.g. Figure 11's 8-endpoint
/// coupled configuration) but using the run's *measured* flop
/// coefficients and per-step solver iteration counts.
pub fn run_charged(cfg: ModelConfig, pm: &PerfModel, steps: usize) -> ChargedRun {
    assert!(steps > 0);
    let mut model = Model::new(cfg, 0);
    let mut world = SerialWorld;
    let mut compute = 0.0f64;
    let mut comm = 0.0f64;
    let mut total_ni = 0u64;
    let wet_cells = model.masks.wet_cells.max(1) as f64;
    let wet_cols = model.masks.wet_columns().max(1) as f64;
    for _ in 0..steps {
        let s = model.step(&mut world);
        assert!(s.cg_converged, "solver diverged during charged run");
        // Per-cell coefficients from this step's measured flops, applied
        // to the target layout's per-endpoint cell counts.
        let nps_step = s.ps_flops as f64 / wet_cells;
        let nds_step = if s.cg_iterations > 0 {
            s.ds_flops as f64 / (s.cg_iterations as f64 * wet_cols)
        } else {
            0.0
        };
        let ni = s.cg_iterations as f64;
        compute += nps_step * pm.ps.nxyz as f64 / (pm.ps.fps_mflops * 1e6)
            + ni * nds_step * pm.ds.nxy as f64 / (pm.ds.fds_mflops * 1e6);
        comm += pm.tps_exch() + ni * pm.tds_comm();
        total_ni += s.cg_iterations as u64;
    }
    let (nps, nds) = model.measured_n_coefficients();
    ChargedRun {
        steps,
        charged_seconds: compute + comm,
        compute_seconds: compute,
        comm_seconds: comm,
        mean_ni: total_ni as f64 / steps as f64,
        measured_nps: nps,
        measured_nds: nds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::model::paper_atmosphere;
    use hyades_gcm::decomp::Decomp;

    #[test]
    fn charged_run_produces_consistent_split() {
        let d = Decomp::blocks(16, 8, 1, 1, 3);
        let cfg = ModelConfig::test_ocean(16, 8, 4, d);
        let pm = paper_atmosphere();
        let r = run_charged(cfg, &pm, 5);
        assert_eq!(r.steps, 5);
        assert!(r.charged_seconds > 0.0);
        let sum = r.compute_seconds + r.comm_seconds;
        assert!((sum - r.charged_seconds).abs() < 1e-12);
        assert!(r.mean_ni > 0.0);
        assert!(r.measured_nps > 50.0);
    }

    #[test]
    fn extrapolation_scales_linearly() {
        let d = Decomp::blocks(16, 8, 1, 1, 3);
        let cfg = ModelConfig::test_ocean(16, 8, 4, d);
        let pm = paper_atmosphere();
        let r = run_charged(cfg, &pm, 4);
        let m1 = r.extrapolated_minutes(100);
        let m2 = r.extrapolated_minutes(200);
        assert!((m2 / m1 - 2.0).abs() < 1e-12);
    }
}
