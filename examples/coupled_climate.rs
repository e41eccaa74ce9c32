//! The paper's headline workload: the coupled atmosphere–ocean simulation
//! at 2.8125° (128×64; 5-level atmosphere, 15-level ocean with idealized
//! continents). Runs a spin-up and writes the Figure 9-equivalent output
//! fields as CSV under `output/`.
//!
//! ```sh
//! cargo run --release --example coupled_climate -- [steps]
//! ```
//!
//! The default 200 steps (~one simulated day of atmosphere) is a
//! demonstration; pass more steps for a longer spin-up.

use hyades::gcm::diagnostics::{global_diagnostics, tile_level_csv};
use hyades::scenario::paper_coupled_scenario;
use hyades_comms::SerialWorld;
use std::fs;

fn main() {
    let steps: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);

    println!("building the 2.8125 deg coupled configuration (128x64)...");
    let mut coupled = paper_coupled_scenario(4);
    let mut wa = SerialWorld;
    let mut wo = SerialWorld;

    println!(
        "running {steps} coupled steps (dt_atm = {:.0}s, dt_oce = {:.0}s)...",
        coupled.atmos.cfg.dt, coupled.ocean.cfg.dt
    );
    for step in 1..=steps {
        let (sa, so) = coupled.step(&mut wa, &mut wo);
        assert!(
            sa.cg_converged && so.cg_converged,
            "solver diverged at step {step}"
        );
        if step % 50 == 0 || step == steps {
            let mut w = SerialWorld;
            let da = global_diagnostics(&coupled.atmos, &mut w);
            let doc = global_diagnostics(&coupled.ocean, &mut w);
            println!(
                "step {step:5}: |v|atm {:6.2} m/s (CFL {:.3})  |v|oce {:7.4} m/s  \
                 Ni {:3}/{:3}",
                da.max_speed, da.cfl, doc.max_speed, sa.cg_iterations, so.cg_iterations
            );
        }
    }

    fs::create_dir_all("output").expect("create output dir");
    // Figure 9 equivalents: upper-level atmospheric winds (the paper's
    // 250 mb zonal velocity panel) and surface ocean state (the 25 m
    // currents panel).
    fs::write(
        "output/atmos_upper_level.csv",
        tile_level_csv(&coupled.atmos, 3),
    )
    .expect("write atmos csv");
    fs::write(
        "output/ocean_surface.csv",
        tile_level_csv(&coupled.ocean, 0),
    )
    .expect("write ocean csv");
    println!("\nwrote output/atmos_upper_level.csv and output/ocean_surface.csv");
    println!(
        "mean Ni: atmosphere {:.1}, ocean {:.1} (paper's coupled runs: ~60)",
        coupled.atmos.mean_cg_iterations(),
        coupled.ocean.mean_cg_iterations()
    );
    let (anps, ands) = coupled.atmos.measured_n_coefficients();
    let (onps, onds) = coupled.ocean.measured_n_coefficients();
    println!("measured Nps/Nds: atmosphere {anps:.0}/{ands:.0}, ocean {onps:.0}/{onds:.0}");
    println!("(paper's Figure 11: 781/36 and 751/36)");
}
