//! A paleo-climate investigation — the paper's motivating use case: the
//! coupled configuration "is especially well suited to predictability
//! studies of the contemporary climate and to paleo-climate
//! investigations" (§5), and the affordability of a dedicated cluster is
//! what makes such *spontaneous* numerical experiments possible.
//!
//! Two coupled runs from identical initial conditions: a contemporary
//! control and a "cold paleo" run with the radiative-equilibrium
//! temperature lowered by 10 K (a crude ice-age stand-in). The experiment
//! reports how the simulated climate responds: surface-air temperature,
//! jet strength, humidity, and SST.
//!
//! ```sh
//! cargo run --release --example paleo_experiment -- [steps]
//! ```

use hyades::gcm::diagnostics::global_diagnostics;
use hyades::scenario::small_coupled_scenario;
use hyades_comms::SerialWorld;

struct Climate {
    mean_surface_theta: f64,
    jet_max: f64,
    mean_humidity: f64,
    mean_sst: f64,
}

fn simulate(theta_eq_offset: f64, steps: usize) -> Climate {
    let mut c = small_coupled_scenario(32, 16, 4);
    c.atmos.cfg.theta_eq_offset = theta_eq_offset;
    let mut wa = SerialWorld;
    let mut wo = SerialWorld;
    for _ in 0..steps {
        let (sa, so) = c.step(&mut wa, &mut wo);
        assert!(sa.cg_converged && so.cg_converged);
    }
    let (nx, ny) = (c.atmos.tile.nx as i64, c.atmos.tile.ny as i64);
    let n = (nx * ny) as f64;
    let mut t0 = 0.0;
    let mut q = 0.0;
    let mut jet: f64 = 0.0;
    for j in 0..ny {
        for i in 0..nx {
            t0 += c.atmos.state.theta.at(i, j, 0);
            q += c.atmos.state.s.at(i, j, 0);
            jet = jet.max(c.atmos.state.u.at(i, j, 3).abs());
        }
    }
    let mut sst = 0.0;
    let mut wet = 0.0;
    for j in 0..ny {
        for i in 0..nx {
            if c.ocean.masks.c(i, j, 0) > 0.0 {
                sst += c.ocean.state.theta.at(i, j, 0);
                wet += 1.0;
            }
        }
    }
    let mut w = SerialWorld;
    let d = global_diagnostics(&c.atmos, &mut w);
    assert!(d.cfl < 1.0);
    Climate {
        mean_surface_theta: t0 / n,
        jet_max: jet,
        mean_humidity: q / n,
        mean_sst: sst / wet,
    }
}

fn main() {
    let steps: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300);

    println!("paleo-climate experiment: control vs -10 K radiative equilibrium");
    println!("({steps} coupled steps each on the reduced 32x16 grid)\n");
    let control = simulate(0.0, steps);
    let paleo = simulate(-10.0, steps);

    println!("quantity                       control      paleo      response");
    println!(
        "surface-air theta (K)        {:9.2}  {:9.2}   {:+7.2}",
        control.mean_surface_theta,
        paleo.mean_surface_theta,
        paleo.mean_surface_theta - control.mean_surface_theta
    );
    println!(
        "upper-level jet max (m/s)    {:9.2}  {:9.2}   {:+7.2}",
        control.jet_max,
        paleo.jet_max,
        paleo.jet_max - control.jet_max
    );
    println!(
        "surface humidity (g/kg)      {:9.3}  {:9.3}   {:+7.3}",
        control.mean_humidity * 1e3,
        paleo.mean_humidity * 1e3,
        (paleo.mean_humidity - control.mean_humidity) * 1e3
    );
    println!(
        "sea-surface temperature (C)  {:9.2}  {:9.2}   {:+7.2}",
        control.mean_sst,
        paleo.mean_sst,
        paleo.mean_sst - control.mean_sst
    );
    println!(
        "\nexpected physics: the cold run cools the surface atmosphere toward its\n\
         reduced equilibrium and carries less moisture (Clausius–Clapeyron);\n\
         the ocean responds more slowly through the turbulent heat flux."
    );
}
