//! Ocean surface forcing: wind stress, heat, and freshwater (as salinity
//! restoring). Standalone runs use analytic climatological profiles; in
//! coupled runs the stress and heat flux arrive from the atmosphere
//! through the coupler.

use crate::config::{ModelConfig, SurfaceForcing};
use crate::field::Band;
use crate::flops::{self, Phase};
use crate::kernel::{Cols, TileGeom};
use crate::physics::BoundaryFields;
use crate::state::{Masks, ModelState};
use crate::tile::Tile;

/// Reference seawater density (kg/m³).
pub const RHO0: f64 = 1035.0;
/// Seawater heat capacity (J/kg/K).
pub const CP_SEA: f64 = 3994.0;
/// Surface tracer restoring time scale (s).
pub const TAU_RESTORE: f64 = 30.0 * 86400.0;

/// Flops per wet surface cell of the forcing pass.
pub const FLOPS_PER_CELL: u64 = 18;

/// Climatological zonal wind stress (N/m²): easterly trades near the
/// equator, westerlies in mid-latitudes.
pub fn tau_x_climatology(lat: f64, lat_max: f64) -> f64 {
    let phi = lat / lat_max; // −1..1
    0.1 * (-(3.0 * std::f64::consts::FRAC_PI_2 * phi).cos())
        * (std::f64::consts::FRAC_PI_2 * phi).cos()
}

/// Climatological SST (°C) and sea-surface salinity (psu).
pub fn surface_climatology(lat: f64) -> (f64, f64) {
    let c2 = lat.cos().powi(2);
    (2.0 + 25.0 * c2, 34.0 + 2.5 * c2)
}

/// Add wind stress, heat, and salinity forcing to the tendencies: a sweep
/// over the rows of the surface level, the row's climatology evaluated
/// once.
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
    let dz0 = cfg.grid.dz[0];
    let lat_max = -cfg.grid.lat0;
    let coupled = cfg.forcing == SurfaceForcing::Coupled;
    let k = 0usize;
    let mut cells = 0u64;
    for j in gt.rows(ext) {
        let (wet, u_faces, v_faces) = (
            cols.cells(masks, j),
            cols.u_faces(masks, j),
            cols.v_faces(masks, j),
        );
        let gu = cols.of_mut(&mut gu, j, k);
        let gv = cols.of_mut(&mut gv, j, k);
        let gt = cols.of_mut(&mut gt, j, k);
        // A masked point keeps its tendency as it is (not `+ 0.0`).
        if coupled {
            // Momentum: wind stress on the surface level; tracers: the
            // coupler's heat flux.
            let (taux, tauy) = (cols.of(&bc.taux, j, 0), cols.of(&bc.tauy, j, 0));
            let qflux = cols.of(&bc.qflux, j, 0);
            for i in 0..n {
                if u_faces.open(k, i) {
                    gu[i] += taux[i] / (RHO0 * dz0);
                }
                if v_faces.open(k, i) {
                    gv[i] += tauy[i] / (RHO0 * dz0);
                }
                if wet.open(k, i) {
                    gt[i] += qflux[i] / (RHO0 * CP_SEA * dz0);
                    cells += 1;
                }
            }
        } else {
            // Climatological stress; tracers restored to the row's
            // climatology.
            let gj = tile.gy(j).clamp(0, cfg.grid.ny as i64 - 1);
            let lat = cfg.grid.lat_c(gj);
            let tx = tau_x_climatology(lat, lat_max);
            let (t_star, s_star) = surface_climatology(lat);
            let (theta, s) = (cols.of(&state.theta, j, k), cols.of(&state.s, j, k));
            let gs = cols.of_mut(&mut gs, j, k);
            for i in 0..n {
                if u_faces.open(k, i) {
                    gu[i] += tx / (RHO0 * dz0);
                }
                if wet.open(k, i) {
                    gt[i] += (t_star - theta[i]) / TAU_RESTORE;
                    gs[i] += (s_star - s[i]) / TAU_RESTORE;
                    cells += 1;
                }
            }
        }
    }
    flops::add(Phase::Ps, cells * FLOPS_PER_CELL);
}

/// The cell-at-a-time loops the row sweeps above replaced, kept as what
/// the sweeps are compared with, bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::kernel::Workspace;

    /// Add wind stress, heat, and salinity forcing to the tendencies.
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
        let (nx, ny) = (tile.nx as i64, tile.ny as i64);
        let dz0 = cfg.grid.dz[0];
        let lat_max = -cfg.grid.lat0;
        let coupled = cfg.forcing == SurfaceForcing::Coupled;
        let mut cells = 0u64;
        for j in -ext..ny + ext {
            let gj = tile.gy(j).clamp(0, cfg.grid.ny as i64 - 1);
            let lat = cfg.grid.lat_c(gj);
            for i in -ext..nx + ext {
                let k = 0usize;
                // Momentum: wind stress on the surface level.
                if masks.u(i, j, k) != 0.0 {
                    let tx = if coupled {
                        bc.taux.at(i, j, 0)
                    } else {
                        tau_x_climatology(lat, lat_max)
                    };
                    ws.gu.add(i, j, k, tx / (RHO0 * dz0));
                }
                if masks.v(i, j, k) != 0.0 && coupled {
                    ws.gv.add(i, j, k, bc.tauy.at(i, j, 0) / (RHO0 * dz0));
                }
                // Tracers: restoring (climatology) or flux (coupled).
                if masks.c(i, j, k) != 0.0 {
                    if coupled {
                        ws.gt
                            .add(i, j, k, bc.qflux.at(i, j, 0) / (RHO0 * CP_SEA * dz0));
                    } else {
                        let (t_star, s_star) = surface_climatology(lat);
                        ws.gt
                            .add(i, j, k, (t_star - state.theta.at(i, j, k)) / TAU_RESTORE);
                        ws.gs
                            .add(i, j, k, (s_star - state.s.at(i, j, k)) / TAU_RESTORE);
                    }
                    cells += 1;
                }
            }
        }
        flops::add(Phase::Ps, cells * FLOPS_PER_CELL);
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

    fn oce() -> (
        ModelConfig,
        Tile,
        TileGeom,
        Masks,
        ModelState,
        Workspace,
        BoundaryFields,
    ) {
        let d = Decomp::blocks(128, 64, 1, 1, 3);
        let mut cfg = ModelConfig::ocean_2p8125(d);
        cfg.continents = false;
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
    fn wind_stress_pattern() {
        let lat_max = (78.75f64).to_radians();
        // Easterlies at the equator…
        assert!(tau_x_climatology(0.0, lat_max) < 0.0);
        // …westerlies in mid-latitudes.
        assert!(tau_x_climatology((45f64).to_radians(), lat_max) > 0.0);
        // Symmetric about the equator.
        let a = tau_x_climatology((30f64).to_radians(), lat_max);
        let b = tau_x_climatology((-30f64).to_radians(), lat_max);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn climatology_forcing_pushes_surface_tracers() {
        let (cfg, tile, geom, masks, mut st, mut ws, bc) = oce();
        // Uniform cold, fresh surface: restoring must warm and salt the
        // tropics.
        for (i, j, _) in st.ps.clone().interior() {
            st.theta.set(i, j, 0, 0.0);
            st.s.set(i, j, 0, 30.0);
        }
        apply_forcing(&cfg, &tile, &geom, &masks, &st, &bc, &mut ws, 0);
        assert!(ws.gt.at(64, 32, 0) > 0.0);
        assert!(ws.gs.at(64, 32, 0) > 0.0);
        assert_eq!(ws.gt.at(64, 32, 5), 0.0, "forcing is surface-only");
    }

    #[test]
    fn coupled_mode_uses_boundary_fields() {
        let (mut cfg, tile, geom, masks, st, mut ws, mut bc) = oce();
        cfg.forcing = SurfaceForcing::Coupled;
        bc.qflux.fill(100.0); // 100 W/m² warming
        bc.taux.fill(0.1);
        apply_forcing(&cfg, &tile, &geom, &masks, &st, &bc, &mut ws, 0);
        let dz0 = cfg.grid.dz[0];
        let expect = 100.0 / (RHO0 * CP_SEA * dz0);
        assert!((ws.gt.at(10, 32, 0) - expect).abs() < 1e-15);
        assert!(ws.gu.at(10, 32, 0) > 0.0);
    }
}
