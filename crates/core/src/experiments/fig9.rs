//! E9 — Figure 9: model output from a coupled run.
//!
//! The paper shows ocean currents at 25 m and the atmospheric zonal wind
//! at 250 mb from the coupled simulation. This experiment spins up a
//! reduced coupled configuration and renders the equivalent fields
//! (surface-level ocean temperature/currents, upper-level zonal wind) as
//! ASCII maps plus summary statistics. The full-resolution run is
//! available through `examples/coupled_climate.rs`.

use crate::scenario::small_coupled_scenario;
use hyades_comms::SerialWorld;
use hyades_gcm::coupler::CoupledModel;
use hyades_gcm::diagnostics::{ascii_map, global_diagnostics, zonal_mean};

/// Spin up a small coupled run for `steps` steps.
pub fn spin_up(steps: usize) -> CoupledModel {
    let mut c = small_coupled_scenario(32, 16, 4);
    let mut wa = SerialWorld;
    let mut wo = SerialWorld;
    for _ in 0..steps {
        let (sa, so) = c.step(&mut wa, &mut wo);
        assert!(sa.cg_converged && so.cg_converged, "solver diverged");
    }
    c
}

pub fn run() -> String {
    let c = spin_up(60);
    let mut w = SerialWorld;
    let da = global_diagnostics(&c.atmos, &mut w);
    let do_ = global_diagnostics(&c.ocean, &mut w);
    // Zonal-mean zonal wind at the upper atmospheric level (the paper's
    // 250 mb panel corresponds to our level 3 of 5).
    let mut zonal = String::new();
    for (lat, mean) in zonal_mean(&c.atmos, &c.atmos.state.u, 3) {
        zonal.push_str(&format!("{lat:7.1}  {mean:8.3}\n"));
    }
    format!(
        "E9  Figure 9: coupled-model output after spin-up (reduced 32x16 grid)\n\n\
         ATMOSPHERE  max speed {:.2} m/s, CFL {:.3}\n\
         zonal-mean zonal wind at upper level (lat, u m/s):\n{zonal}\n\
         OCEAN  max speed {:.3} m/s, heat content {:.3e}\n\
         sea-surface temperature map ('#' = land):\n{}",
        da.max_speed,
        da.cfl,
        do_.max_speed,
        do_.heat_content,
        ascii_map(&c.ocean, 0, 32),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coupled_spin_up_develops_winds_and_currents() {
        let c = spin_up(40);
        let mut w = SerialWorld;
        let da = global_diagnostics(&c.atmos, &mut w);
        let do_ = global_diagnostics(&c.ocean, &mut w);
        // Radiative forcing must have spun up a circulation...
        assert!(da.max_speed > 0.1, "atmosphere stayed at rest");
        // ...within physical bounds.
        assert!(da.max_speed < 150.0, "atmosphere blew up: {}", da.max_speed);
        assert!(da.cfl < 1.0, "CFL violated: {}", da.cfl);
        // The ocean responds through the coupled stress.
        assert!(do_.max_speed > 1e-7, "ocean never moved");
        assert!(do_.max_speed < 3.0, "ocean blew up: {}", do_.max_speed);
        assert!(c.atmos.state.is_finite() && c.ocean.state.is_finite());
    }

    #[test]
    fn report_renders_maps() {
        let r = run();
        assert!(r.contains("zonal-mean"));
        assert!(r.contains("sea-surface temperature"));
    }
}
