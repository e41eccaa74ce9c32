//! E5 — Figure 11: performance-model parameters, paper vs measured.
//!
//! `Nps`/`Nds` are measured by instrumented runs of this implementation's
//! kernels; `texch`/`tgsum` come from the simulated fabric's stand-alone
//! benchmarks. The paper's values were obtained the same way on the real
//! hardware, so this table is the honest side-by-side.

use crate::perf::report::Table;
use hyades_cluster::interconnect::{ExchangeShape, Interconnect};
use hyades_comms::measured::{measure_exchange_mixmode, simulated_arctic_model};
use hyades_comms::SerialWorld;
use hyades_gcm::config::ModelConfig;
use hyades_gcm::decomp::Decomp;
use hyades_gcm::driver::Model;

/// Measured flop coefficients from `steps` instrumented steps of a model.
pub fn measure_flops(cfg: ModelConfig, steps: usize) -> (f64, f64, f64) {
    let mut m = Model::new(cfg, 0);
    let mut w = SerialWorld;
    hyades_gcm::flops::reset();
    m.run(&mut w, steps);
    let (nps, nds) = m.measured_n_coefficients();
    (nps, nds, m.mean_cg_iterations())
}

/// Measured communication costs on the simulated fabric for the coupled
/// 8-endpoint layout (32×32 tiles): `(texch_xyz(levels), texch_xy, tgsum_2x8)`.
///
/// The PS exchange runs in the paper's *mixed mode* (both SMP processors
/// own tiles; the slave's remote legs go through the master, §4.1); the
/// DS exchange and global sum run on the masters.
pub fn measure_comm(levels: u32) -> (f64, f64, f64) {
    let net = simulated_arctic_model();
    let ds = ExchangeShape::square_tile(32, 1, 1, 8);
    let leg_bytes = (32 * 3 * levels * 8) as u64;
    let ps_mix = measure_exchange_mixmode(hyades_startx::HostParams::default(), 4, 2, leg_bytes);
    (
        ps_mix.as_us_f64(),
        net.exchange_time(&ds).as_us_f64(),
        net.smp_gsum_time(8).as_us_f64(),
    )
}

pub fn run() -> String {
    // Reduced-size instrumented runs (the coefficients are per-cell, so a
    // smaller grid measures the same numbers much faster).
    let d = Decomp::blocks(32, 16, 1, 1, 3);
    let mut acfg = ModelConfig::atmosphere_2p8125(Decomp::blocks(128, 64, 1, 1, 3));
    acfg.grid = hyades_gcm::grid::Grid::global(32, 16, 5, 78.75, vec![2.0e4; 5]);
    acfg.decomp = d;
    let (a_nps, a_nds, a_ni) = measure_flops(acfg, 3);
    let mut ocfg = ModelConfig::ocean_2p8125(Decomp::blocks(128, 64, 1, 1, 3));
    ocfg.grid = hyades_gcm::grid::Grid::global(
        32,
        16,
        15,
        78.75,
        hyades_gcm::grid::stretched_levels(15, 4000.0),
    );
    ocfg.decomp = d;
    ocfg.continents = false;
    let (o_nps, o_nds, o_ni) = measure_flops(ocfg, 3);

    let (a_xyz, xy, gsum) = measure_comm(5);
    let (o_xyz, _, _) = measure_comm(15);

    let mut t = Table::new(&["parameter", "paper", "this reproduction"]);
    t.row(&[
        "PS atmos: Nps (flops/cell)".into(),
        "781".into(),
        format!("{a_nps:.0}"),
    ]);
    t.row(&[
        "PS atmos: texch_xyz (us)".into(),
        "1640".into(),
        format!("{a_xyz:.0}"),
    ]);
    t.row(&[
        "PS ocean: Nps (flops/cell)".into(),
        "751".into(),
        format!("{o_nps:.0}"),
    ]);
    t.row(&[
        "PS ocean: texch_xyz (us)".into(),
        "4573".into(),
        format!("{o_xyz:.0}"),
    ]);
    t.row(&[
        "DS: Nds (flops/col/iter)".into(),
        "36".into(),
        format!("{:.0}", 0.5 * (a_nds + o_nds)),
    ]);
    t.row(&[
        "DS: tgsum 2x8-way (us)".into(),
        "13.5".into(),
        format!("{gsum:.1}"),
    ]);
    t.row(&["DS: texch_xy (us)".into(), "115".into(), format!("{xy:.0}")]);
    t.row(&[
        "DS: mean Ni (solver iters)".into(),
        "60".into(),
        format!("{:.0}/{:.0} (atm/oce)", a_ni, o_ni),
    ]);
    t.row(&[
        "nxyz per endpoint (atmos)".into(),
        "5120".into(),
        "5120 (128x64x5 / 8)".into(),
    ]);
    t.row(&[
        "nxyz per endpoint (ocean)".into(),
        "15360".into(),
        "15360 (128x64x15 / 8)".into(),
    ]);
    t.row(&[
        "nxy per endpoint".into(),
        "1024".into(),
        "1024 (128x64 / 8)".into(),
    ]);
    format!(
        "E5  Figure 11: performance model parameters (2.8125 deg, 8 endpoints)\n\
         Nps/Nds measured from instrumented kernels; exchange/global-sum\n\
         costs measured on the simulated Arctic fabric.\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_nps_same_order_as_paper() {
        let d = Decomp::blocks(16, 8, 1, 1, 3);
        let cfg = ModelConfig::test_ocean(16, 8, 5, d);
        let (nps, nds, ni) = measure_flops(cfg, 3);
        // Paper: 751–781 and 36. Our leaner kernels must be within ~3× on
        // Nps and close on Nds.
        assert!((250.0..1600.0).contains(&nps), "Nps {nps}");
        assert!((15.0..60.0).contains(&nds), "Nds {nds}");
        assert!(ni > 1.0);
    }

    #[test]
    fn measured_comm_same_order_as_paper() {
        let (xyz5, xy, gsum) = measure_comm(5);
        // Paper: 1640 / 115 / 13.5 µs. The simulated fabric reproduces
        // the gsum closely and the exchanges within a small factor (the
        // paper's exchange includes host-side effects we model leanly —
        // see EXPERIMENTS.md).
        assert!((8.0..20.0).contains(&gsum), "gsum {gsum}");
        assert!((60.0..250.0).contains(&xy), "texch_xy {xy}");
        assert!((250.0..2000.0).contains(&xyz5), "texch_xyz {xyz5}");
        // Ocean exchange ~3x the atmosphere's (15 vs 5 levels).
        let (xyz15, _, _) = measure_comm(15);
        let ratio = xyz15 / xyz5;
        assert!((2.2..3.3).contains(&ratio), "level scaling {ratio}");
    }
}
