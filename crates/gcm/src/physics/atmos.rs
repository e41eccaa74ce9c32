//! The 5-level intermediate-complexity atmospheric package.
//!
//! Modeled on the simplified parameterization suite the paper cites
//! (Molteni's 5-level primitive-equation physics): Newtonian relaxation
//! toward a Held–Suarez-style radiative-equilibrium temperature, Rayleigh
//! friction in the boundary layer, bulk surface evaporation over the
//! ocean, large-scale condensation with latent heating, and (shared with
//! the ocean) dry convective adjustment.

use crate::config::ModelConfig;
use crate::field::Band;
use crate::flops::{self, Phase};
use crate::kernel::{select, Cols, TileGeom};
use crate::physics::BoundaryFields;
use crate::state::{Masks, ModelState};
use crate::tile::Tile;

/// Latent heat of vaporization (J/kg).
pub const L_VAP: f64 = 2.5e6;
/// Heat capacity of dry air (J/kg/K).
pub const CP_AIR: f64 = 1004.0;
/// Relaxation time toward radiative equilibrium, interior (s).
pub const TAU_RAD: f64 = 40.0 * 86400.0;
/// Relaxation time in the boundary layer (s).
pub const TAU_RAD_SURF: f64 = 4.0 * 86400.0;
/// Rayleigh friction time in the boundary layer (s).
pub const TAU_FRICTION: f64 = 1.0 * 86400.0;
/// Evaporation bulk time scale (s).
pub const TAU_EVAP: f64 = 10.0 * 86400.0;

/// Flops per wet cell of the forcing pass.
pub const FLOPS_PER_CELL: u64 = 24;

/// Held–Suarez-style radiative-equilibrium potential temperature at
/// latitude `lat` (radians) and level `k`.
pub fn theta_eq(cfg: &ModelConfig, lat: f64, k: usize) -> f64 {
    let exner = cfg.eos.exner(k);
    let sin2 = lat.sin().powi(2);
    let cos2 = 1.0 - sin2;
    // In temperature: T_eq = max(200, [315 − 60 sin²φ − 10 log(p/p0) cos²φ]·(p/p0)^κ)
    let t_strat = 200.0;
    let lnp = exner.powf(1.0 / crate::eos::KAPPA).ln(); // ln(p/p00)
    let t_eq = (315.0 + cfg.theta_eq_offset - 60.0 * sin2 - 10.0 * lnp * cos2) * exner;
    t_eq.max(t_strat) / exner
}

/// Saturation specific humidity at temperature `t` (K) and pressure `p`
/// (Pa), via Tetens' formula.
pub fn q_sat(t: f64, p: f64) -> f64 {
    let es = 611.2 * (17.67 * (t - 273.15) / (t - 29.65)).exp();
    (0.622 * es / (p - 0.378 * es)).clamp(0.0, 0.1)
}

/// Add radiative relaxation, boundary-layer friction, and surface
/// evaporation to the tendencies.
///
/// Levels outermost, then rows: the equilibrium temperature depends on
/// the row's latitude and the level only, so it is evaluated once per
/// (row, level), and the surface terms are a second pass over the rows
/// of level 0.
#[allow(clippy::too_many_arguments)]
pub(crate) fn forcing(
    cfg: &ModelConfig,
    tile: &Tile,
    _geom: &TileGeom,
    masks: &Masks,
    state: &ModelState,
    bc: &BoundaryFields,
    [mut gu, mut gv, mut gt, mut gs]: [Band<'_>; 4],
    ext: i64,
) {
    let cols = Cols::new(tile.nx, ext);
    let n = cols.n;
    let mut cells = 0u64;
    for k in 0..cfg.grid.nz {
        let tau = if k == 0 { TAU_RAD_SURF } else { TAU_RAD };
        for j in gt.rows(ext) {
            let gj = tile.gy(j).clamp(0, cfg.grid.ny as i64 - 1);
            let teq = theta_eq(cfg, cfg.grid.lat_c(gj), k);
            let wet = cols.cells(masks, j);
            let theta = cols.of(&state.theta, j, k);
            let gt = cols.of_mut(&mut gt, j, k);
            // Dry cells keep their tendencies as they are (not `+ 0.0`).
            for i in 0..n {
                let is_wet = wet.open(k, i);
                gt[i] = select(is_wet, gt[i] + (teq - theta[i]) / tau, gt[i]);
                cells += is_wet as u64;
            }
            if k == 0 {
                let (u, v) = (cols.of(&state.u, j, k), cols.of(&state.v, j, k));
                let (q, sst) = (cols.of(&state.s, j, k), cols.of(&bc.sst, j, 0));
                let gu = cols.of_mut(&mut gu, j, k);
                let gv = cols.of_mut(&mut gv, j, k);
                let gs = cols.of_mut(&mut gs, j, k);
                for i in (0..n).filter(|&i| wet.open(k, i)) {
                    // Rayleigh friction on the boundary-layer winds.
                    gu[i] += -u[i] / TAU_FRICTION;
                    gv[i] += -v[i] / TAU_FRICTION;
                    // Bulk evaporation toward saturation at the SST.
                    if sst[i] > 0.0 {
                        let p0 = crate::eos::P00 * 0.9;
                        let deficit = q_sat(sst[i], p0) - q[i];
                        if deficit > 0.0 {
                            gs[i] += deficit / TAU_EVAP;
                        }
                    }
                }
            }
        }
    }
    flops::add(Phase::Ps, cells * FLOPS_PER_CELL);
}

/// Flops per wet cell of the condensation pass.
pub const CONDENSE_FLOPS_PER_CELL: u64 = 14;

/// Large-scale condensation: humidity above saturation rains out within a
/// step, heating the layer by `L/cp · Δq` (converted to potential
/// temperature through the Exner function), on the rows the bands of `θ`
/// and the humidity `s` hold. The Exner function and the layer-centre
/// pressure are evaluated once per level.
pub(crate) fn condensation(
    cfg: &ModelConfig,
    tile: &Tile,
    masks: &Masks,
    theta: &mut Band<'_>,
    s: &mut Band<'_>,
) {
    let cols = Cols::new(tile.nx, 0);
    let mut cells = 0u64;
    for k in 0..cfg.grid.nz {
        let exner = cfg.eos.exner(k);
        // Layer-centre pressure from the Exner function.
        let p = crate::eos::P00 * exner.powf(1.0 / crate::eos::KAPPA);
        for j in theta.rows(0) {
            let wet = cols.cells(masks, j);
            let theta = cols.of_mut(theta, j, k);
            let s = cols.of_mut(s, j, k);
            for i in 0..cols.n {
                if !wet.open(k, i) {
                    continue;
                }
                let qs = q_sat(theta[i] * exner, p);
                let q = s[i];
                if q > qs {
                    let dq = q - qs;
                    s[i] = qs;
                    theta[i] += L_VAP / CP_AIR * dq / exner;
                }
                cells += 1;
            }
        }
    }
    flops::add(Phase::Ps, cells * CONDENSE_FLOPS_PER_CELL);
}

/// The cell-at-a-time loops the row sweeps above replaced, kept as what
/// the sweeps are compared with, bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::kernel::Workspace;

    /// Add radiative relaxation, boundary-layer friction, and surface
    /// evaporation to the tendencies.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn forcing(
        cfg: &ModelConfig,
        tile: &Tile,
        _geom: &TileGeom,
        masks: &Masks,
        state: &ModelState,
        bc: &BoundaryFields,
        ws: &mut Workspace,
        ext: i64,
    ) {
        let nz = cfg.grid.nz;
        let (nx, ny) = (tile.nx as i64, tile.ny as i64);
        let mut cells = 0u64;
        for j in -ext..ny + ext {
            let gj = tile.gy(j).clamp(0, cfg.grid.ny as i64 - 1);
            let lat = cfg.grid.lat_c(gj);
            for i in -ext..nx + ext {
                for k in 0..nz {
                    if masks.c(i, j, k) == 0.0 {
                        continue;
                    }
                    let tau = if k == 0 { TAU_RAD_SURF } else { TAU_RAD };
                    let teq = theta_eq(cfg, lat, k);
                    ws.gt.add(i, j, k, (teq - state.theta.at(i, j, k)) / tau);
                    if k == 0 {
                        // Rayleigh friction on the boundary-layer winds.
                        ws.gu.add(i, j, k, -state.u.at(i, j, k) / TAU_FRICTION);
                        ws.gv.add(i, j, k, -state.v.at(i, j, k) / TAU_FRICTION);
                        // Bulk evaporation toward saturation at the SST.
                        let sst = bc.sst.at(i, j, 0);
                        if sst > 0.0 {
                            let p0 = crate::eos::P00 * 0.9;
                            let qs = q_sat(sst, p0);
                            let deficit = qs - state.s.at(i, j, k);
                            if deficit > 0.0 {
                                ws.gs.add(i, j, k, deficit / TAU_EVAP);
                            }
                        }
                    }
                    cells += 1;
                }
            }
        }
        flops::add(Phase::Ps, cells * FLOPS_PER_CELL);
    }

    /// Large-scale condensation: humidity above saturation rains out within a
    /// step, heating the layer by `L/cp · Δq` (converted to potential
    /// temperature through the Exner function).
    pub(crate) fn condensation(
        cfg: &ModelConfig,
        tile: &Tile,
        masks: &Masks,
        state: &mut ModelState,
    ) {
        let nz = cfg.grid.nz;
        let (nx, ny) = (tile.nx as i64, tile.ny as i64);
        let mut cells = 0u64;
        for j in 0..ny {
            for i in 0..nx {
                for k in 0..nz {
                    if masks.c(i, j, k) == 0.0 {
                        continue;
                    }
                    let exner = cfg.eos.exner(k);
                    let t = state.theta.at(i, j, k) * exner;
                    // Layer-centre pressure from the Exner function.
                    let p = crate::eos::P00 * exner.powf(1.0 / crate::eos::KAPPA);
                    let qs = q_sat(t, p);
                    let q = state.s.at(i, j, k);
                    if q > qs {
                        let dq = q - qs;
                        state.s.set(i, j, k, qs);
                        state.theta.add(i, j, k, L_VAP / CP_AIR * dq / exner);
                    }
                    cells += 1;
                }
            }
        }
        flops::add(Phase::Ps, cells * CONDENSE_FLOPS_PER_CELL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::Decomp;
    use crate::kernel::Workspace;
    use crate::physics::apply_forcing;
    use crate::state::ModelState;
    use crate::topography::Topography;

    fn atm() -> (
        ModelConfig,
        Tile,
        TileGeom,
        Masks,
        ModelState,
        Workspace,
        BoundaryFields,
    ) {
        let d = Decomp::blocks(128, 64, 1, 1, 3);
        let cfg = ModelConfig::atmosphere_2p8125(d);
        let tile = d.tile(0);
        let topo = Topography::aquaplanet(&cfg.grid);
        let masks = Masks::build(&cfg, &tile, &topo);
        let geom = TileGeom::build(&cfg, &tile);
        let st = ModelState::initial(&cfg, &tile, &masks);
        let ws = Workspace::new(&cfg, &tile);
        let bc = BoundaryFields::new(&tile);
        (cfg, tile, geom, masks, st, ws, bc)
    }

    #[test]
    fn equilibrium_profile_is_warm_equator_cold_pole() {
        let (cfg, ..) = atm();
        let eq = theta_eq(&cfg, 0.0, 0);
        let pole = theta_eq(&cfg, 1.2, 0);
        assert!(eq > pole + 30.0, "eq {eq} pole {pole}");
        // Stratospheric floor: very high levels relax toward 200 K in
        // temperature, which is a large θ.
        let top = theta_eq(&cfg, 0.0, 4);
        assert!(top * cfg.eos.exner(4) >= 199.9);
    }

    #[test]
    fn q_sat_grows_with_temperature() {
        let q0 = q_sat(280.0, 9.0e4);
        let q1 = q_sat(300.0, 9.0e4);
        assert!(q1 > 2.0 * q0);
        assert!((0.001..0.05).contains(&q1), "qsat(300K) = {q1}");
    }

    #[test]
    fn relaxation_pulls_toward_equilibrium() {
        let (cfg, tile, geom, masks, mut st, mut ws, bc) = atm();
        // Uniform 350 K is warmer than every θ_eq at level 0 except the
        // stratospheric floor; the tendency must cool.
        for (i, j, _k) in st.theta.clone().interior() {
            st.theta.set(i, j, 0, 350.0);
        }
        apply_forcing(&cfg, &tile, &geom, &masks, &st, &bc, &mut ws, 0);
        assert!(ws.gt.at(64, 32, 0) < 0.0);
    }

    #[test]
    fn friction_damps_surface_wind_only() {
        let (cfg, tile, geom, masks, mut st, mut ws, bc) = atm();
        st.u.fill(10.0);
        apply_forcing(&cfg, &tile, &geom, &masks, &st, &bc, &mut ws, 0);
        assert!(ws.gu.at(10, 32, 0) < 0.0);
        assert_eq!(ws.gu.at(10, 32, 3), 0.0, "no friction aloft");
    }

    #[test]
    fn evaporation_requires_warm_sst_and_dry_air() {
        let (cfg, tile, geom, masks, st, mut ws, mut bc) = atm();
        bc.sst.fill(300.0);
        apply_forcing(&cfg, &tile, &geom, &masks, &st, &bc, &mut ws, 0);
        assert!(ws.gs.at(64, 32, 0) > 0.0, "warm sea evaporates");
        assert_eq!(ws.gs.at(64, 32, 2), 0.0, "no surface flux aloft");
    }

    #[test]
    fn condensation_rains_out_supersaturation() {
        let (cfg, tile, _geom, masks, mut st, _ws, _bc) = atm();
        let before_theta = st.theta.at(64, 32, 0);
        st.s.set(64, 32, 0, 0.05); // grossly supersaturated
        condensation(&cfg, &tile, &masks, &mut st.theta.band(), &mut st.s.band());
        let t = cfg.eos.temperature(st.theta.at(64, 32, 0), 0);
        let p = crate::eos::P00 * cfg.eos.exner(0).powf(1.0 / crate::eos::KAPPA);
        assert!(st.s.at(64, 32, 0) <= q_sat(t, p) + 1e-12);
        assert!(
            st.theta.at(64, 32, 0) > before_theta,
            "latent heat must warm the layer"
        );
    }
}
