//! Wind-driven ocean spin-up on a real multi-threaded decomposition:
//! eight ranks in the paper's 4×2 tile layout (Figure 4), with a
//! strips-vs-blocks comparison (Figure 5's two decomposition styles).
//!
//! ```sh
//! cargo run --release --example ocean_gyre -- [steps]
//! ```

use hyades::gcm::config::{ModelConfig, SurfaceForcing};
use hyades::gcm::decomp::Decomp;
use hyades::gcm::diagnostics::global_diagnostics;
use hyades::gcm::driver::Model;
use hyades_comms::{CommWorld, ThreadWorld};

fn run_decomp(name: &str, decomp: Decomp, steps: usize) -> (f64, f64) {
    let results = ThreadWorld::run(decomp.n_ranks(), |world| {
        let mut cfg = ModelConfig::test_ocean(64, 32, 6, decomp);
        cfg.forcing = SurfaceForcing::Climatology;
        let mut model = Model::new(cfg, world.rank());
        for _ in 0..steps {
            let s = model.step(world);
            assert!(s.cg_converged);
        }
        let d = global_diagnostics(&model, world);
        (d.max_speed, d.kinetic_energy)
    });
    let (max_speed, ke) = results[0];
    println!(
        "{name:<22} {ranks} ranks  {steps} steps  \
         max current {max_speed:7.4} m/s  KE {ke:.3e}",
        ranks = decomp.n_ranks()
    );
    (max_speed, ke)
}

fn main() {
    let steps: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100);

    println!("wind-driven ocean spin-up, 64x32x6, two decomposition styles\n");
    let blocks = run_decomp(
        "compact blocks (4x2)",
        Decomp::blocks(64, 32, 4, 2, 3),
        steps,
    );
    let strips = run_decomp("long strips (1x8)", Decomp::strips(64, 32, 8, 3), steps);
    let serial = run_decomp("serial (1x1)", Decomp::blocks(64, 32, 1, 1, 3), steps);

    // Same physics regardless of decomposition: initial conditions are
    // keyed by global index and reductions are rank-ordered, so remaining
    // differences are floating-point roundoff amplified by the flow (sums
    // over tiles associate differently).
    let agree = |a: (f64, f64), b: (f64, f64)| {
        ((a.0 - b.0).abs() / a.0.max(1e-12)).max((a.1 - b.1).abs() / a.1.max(1e-12))
    };
    println!(
        "\nrelative diagnostic difference blocks vs strips: {:.2e}, blocks vs serial: {:.2e}",
        agree(blocks, strips),
        agree(blocks, serial)
    );
    println!(
        "(tile shape is a performance knob; answers agree to roundoff growth — Figure 5's point)"
    );
}
