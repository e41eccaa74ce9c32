//! E18 — §5/§6: GCM run-health observatory over a coupled run.
//!
//! The paper's century-in-two-weeks argument (§6) presumes runs that
//! *finish*: a coupled integration that blows up on day 30 of an
//! unattended fortnight wastes the machine. This experiment drives the
//! coupled atmosphere–ocean pair through the monitored stepper
//! ([`hyades_gcm::monitor::RunMonitor`]) on the 4-rank thread world and
//! emits the per-timestep diagnostics: conserved-quantity budgets,
//! CFL/stability indicators, per-field extremes with blame coordinates,
//! and the CG convergence telemetry — the MITgcm `monitor` package
//! recast on deterministic reductions, so the health record itself is
//! byte-identical run to run.

use crate::tour::TourConfig;

/// Fixed seed: the experiment is a regression artefact, not a sweep.
const SEED: u64 = 0xD1A_607;

pub fn run() -> String {
    let d = TourConfig::new(SEED).run_coupled_diag();
    let mut out = String::new();
    out.push_str("E18: GCM run-health observatory (coupled pair, 4 ranks)\n\n");
    out.push_str(&d.text);
    out.push_str(&format!(
        "\nsteps monitored = {} per component, sentinel trips = {}\n",
        d.steps, d.sentinel_trips
    ));
    out.push_str(&format!(
        "CG iterations: p50 = {}, p99 = {}; max advective CFL = {:.6}\n",
        d.cg_iters_p50, d.cg_iters_p99, d.max_cfl
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_carries_both_series_and_a_clean_bill() {
        let r = super::run();
        assert!(r.contains("# diag series: atmos"), "{r}");
        assert!(r.contains("# diag series: ocean"), "{r}");
        assert!(r.contains("sentinel trips = 0"), "{r}");
        assert!(r.contains("CG iterations: p50 ="), "{r}");
        for col in ["vol_anom", "cfl_adv", "cg_iters", "theta_max"] {
            assert!(r.contains(col), "missing column {col}:\n{r}");
        }
    }
}
