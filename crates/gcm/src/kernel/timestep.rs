//! Adams–Bashforth-2 extrapolation and the state update (eq. 1).
//!
//! `v^{n+1} = v^n + Δt (G^{n+1/2} − ∇p^{n+1/2})` with
//! `G^{n+1/2} = (3/2 + ε)G^n − (1/2 + ε)G^{n−1}` (the MITgcm's slightly
//! stabilized AB2). The pressure-gradient force is applied without
//! extrapolation: the hydrostatic part here, the surface part after the
//! DS solve.

use crate::config::ModelConfig;
use crate::field::Field3;
use crate::flops::{self, Phase};
use crate::kernel::{TileGeom, Workspace};
use crate::state::{Masks, ModelState};
use crate::tile::Tile;

pub const AB2_FLOPS_PER_CELL: u64 = 4;
pub const UPDATE_FLOPS_PER_CELL: u64 = 14;
pub const CORRECT_FLOPS_PER_CELL: u64 = 8;

/// Extrapolate `g` with AB2 against `g_prev`, storing the extrapolated
/// value in `g` and the *pre-extrapolation* tendency in `g_prev` for the
/// next step. On the first step the tendency is used as-is
/// (forward Euler).
pub fn ab2_extrapolate(
    g: &mut Field3,
    g_prev: &mut Field3,
    ab_eps: f64,
    first_step: bool,
    ext: i64,
) {
    let (nx, ny) = (g.nx() as i64, g.ny() as i64);
    let (a, b) = if first_step {
        (1.0, 0.0)
    } else {
        (1.5 + ab_eps, 0.5 + ab_eps)
    };
    let mut cells = 0u64;
    for k in 0..g.nz() {
        for j in -ext..ny + ext {
            for i in -ext..nx + ext {
                let gn = g.at(i, j, k);
                let gm = g_prev.at(i, j, k);
                g.set(i, j, k, a * gn - b * gm);
                g_prev.set(i, j, k, gn);
                cells += 1;
            }
        }
    }
    flops::add(Phase::Ps, cells * AB2_FLOPS_PER_CELL);
}

/// Provisional velocities: `v* = v^n + Δt (Ĝ − ∇p_hy)` on the interior
/// extended by `ext` (needs `phy` on `ext+1`... the x-gradient at a
/// u-point uses `phy(i-1)` and `phy(i)`).
pub fn velocity_star(
    cfg: &ModelConfig,
    tile: &Tile,
    geom: &TileGeom,
    masks: &Masks,
    state: &ModelState,
    ws: &mut Workspace,
    ext: i64,
) {
    let nz = cfg.grid.nz;
    let (nx, ny) = (tile.nx as i64, tile.ny as i64);
    let dt = cfg.dt;
    let mut cells = 0u64;
    for k in 0..nz {
        for j in -ext..ny + ext {
            for i in -ext..nx + ext {
                let mu = masks.u.at(i, j, k);
                let dpdx = (state.phy.at(i, j, k) - state.phy.at(i - 1, j, k)) / geom.dxc_at(j);
                ws.ustar.set(
                    i,
                    j,
                    k,
                    mu * (state.u.at(i, j, k) + dt * (ws.gu.at(i, j, k) - dpdx)),
                );
                let mv = masks.v.at(i, j, k);
                let dpdy = (state.phy.at(i, j, k) - state.phy.at(i, j - 1, k)) / geom.dy;
                ws.vstar.set(
                    i,
                    j,
                    k,
                    mv * (state.v.at(i, j, k) + dt * (ws.gv.at(i, j, k) - dpdy)),
                );
                cells += 1;
            }
        }
    }
    flops::add(Phase::Ps, cells * UPDATE_FLOPS_PER_CELL);
}

/// Step the tracers forward on the interior: `θ^{n+1} = θ^n + Δt·Ĝθ`.
pub fn update_tracers(cfg: &ModelConfig, masks: &Masks, state: &mut ModelState, ws: &Workspace) {
    let mut cells = 0u64;
    for (i, j, k) in ws.gt.interior() {
        if masks.c.at(i, j, k) == 0.0 {
            continue;
        }
        state.theta.add(i, j, k, cfg.dt * ws.gt.at(i, j, k));
        state.s.add(i, j, k, cfg.dt * ws.gs.at(i, j, k));
        cells += 1;
    }
    flops::add(Phase::Ps, cells * 4);
}

/// Depth-integrated divergence of the provisional flow (the elliptic
/// right-hand side, m³/s), on the interior.
pub fn divergence_rhs(
    cfg: &ModelConfig,
    tile: &Tile,
    geom: &TileGeom,
    masks: &Masks,
    ws: &mut Workspace,
) {
    let nz = cfg.grid.nz;
    let (nx, ny) = (tile.nx as i64, tile.ny as i64);
    let mut cells = 0u64;
    for j in 0..ny {
        let dy = geom.dy;
        for i in 0..nx {
            let mut div = 0.0;
            for k in 0..nz {
                let dz = cfg.grid.dz[k];
                // Face thicknesses carry the partial-cell fractions
                // (§3.2): the open area of each face is dz·hu (or dz·hv).
                let uin = ws.ustar.at(i, j, k) * masks.hu.at(i, j, k);
                let uout = ws.ustar.at(i + 1, j, k) * masks.hu.at(i + 1, j, k);
                let vin = ws.vstar.at(i, j, k) * masks.hv.at(i, j, k) * geom.dxs_at(j);
                let vout = ws.vstar.at(i, j + 1, k) * masks.hv.at(i, j + 1, k) * geom.dxs_at(j + 1);
                div += (uout - uin) * dy * dz + (vout - vin) * dz;
                cells += 1;
            }
            ws.rhs.set(i, j, div);
        }
    }
    flops::add(Phase::Ps, cells * 9);
}

/// Final update: subtract the surface-pressure gradient from the
/// provisional velocities (interior only; the next step's exchange
/// refreshes the halo). `state.ps` must hold a width-1 halo.
pub fn correct_velocities(
    cfg: &ModelConfig,
    tile: &Tile,
    geom: &TileGeom,
    masks: &Masks,
    state: &mut ModelState,
    ws: &Workspace,
) {
    let nz = cfg.grid.nz;
    let (nx, ny) = (tile.nx as i64, tile.ny as i64);
    let dt = cfg.dt;
    let ModelState { ps, u, v, .. } = state;
    let mut cells = 0u64;
    for k in 0..nz {
        for j in 0..ny {
            for i in 0..nx {
                let mu = masks.u.at(i, j, k);
                let dpdx = (ps.at(i, j) - ps.at(i - 1, j)) / geom.dxc_at(j);
                u.set(i, j, k, mu * (ws.ustar.at(i, j, k) - dt * dpdx));
                let mv = masks.v.at(i, j, k);
                let dpdy = (ps.at(i, j) - ps.at(i, j - 1)) / geom.dy;
                v.set(i, j, k, mv * (ws.vstar.at(i, j, k) - dt * dpdy));
                cells += 1;
            }
        }
    }
    flops::add(Phase::Ps, cells * CORRECT_FLOPS_PER_CELL);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::Decomp;
    use crate::state::ModelState;
    use crate::topography::Topography;

    fn setup() -> (ModelConfig, Tile, TileGeom, Masks, ModelState, Workspace) {
        let d = Decomp::blocks(8, 8, 1, 1, 3);
        let cfg = ModelConfig::test_ocean(8, 8, 3, d);
        let tile = d.tile(0);
        let topo = Topography::aquaplanet(&cfg.grid);
        let masks = Masks::build(&cfg, &tile, &topo);
        let geom = TileGeom::build(&cfg, &tile);
        let st = ModelState::initial(&cfg, &tile, &masks);
        let ws = Workspace::new(&cfg, &tile);
        (cfg, tile, geom, masks, st, ws)
    }

    #[test]
    fn ab2_first_step_is_euler() {
        let (_, _, _, _, _, mut ws) = setup();
        ws.gu.fill(2.0);
        let mut prev = ws.gu.clone();
        prev.fill(99.0);
        ab2_extrapolate(&mut ws.gu, &mut prev, 0.01, true, 0);
        assert_eq!(ws.gu.at(1, 1, 0), 2.0);
        assert_eq!(prev.at(1, 1, 0), 2.0, "history must store the raw G");
    }

    #[test]
    fn ab2_extrapolates_linear_growth() {
        let (_, _, _, _, _, mut ws) = setup();
        // G^n = 3, G^{n-1} = 1: AB2 with ε=0 extrapolates to 4.
        ws.gu.fill(3.0);
        let mut prev = ws.gu.clone();
        prev.fill(1.0);
        ab2_extrapolate(&mut ws.gu, &mut prev, 0.0, false, 0);
        assert!((ws.gu.at(2, 2, 1) - 4.0).abs() < 1e-14);
        assert_eq!(prev.at(2, 2, 1), 3.0);
    }

    #[test]
    fn pressure_gradient_accelerates_from_high_to_low() {
        let (cfg, tile, geom, masks, mut st, mut ws) = setup();
        // phy high at i<4, low at i>=4 (level 0 only): u* should point
        // from high to low pressure across the i=4 face.
        for j in -3..11i64 {
            for i in -3..11i64 {
                st.phy.set(i, j, 0, if i < 4 { 1.0 } else { 0.0 });
            }
        }
        velocity_star(&cfg, &tile, &geom, &masks, &st, &mut ws, 0);
        assert!(ws.ustar.at(4, 4, 0) > 0.0, "flow toward low pressure");
        assert!(ws.ustar.at(2, 4, 0) == 0.0, "no gradient, no flow");
    }

    #[test]
    fn correction_removes_divergence_source() {
        let (cfg, tile, geom, masks, mut st, mut ws) = setup();
        // ps bump at one cell: the correction pushes flow out of it.
        st.ps.set(4, 4, 10.0);
        ws.ustar.fill(0.0);
        ws.vstar.fill(0.0);
        correct_velocities(&cfg, &tile, &geom, &masks, &mut st, &ws);
        // West face of (4,4): dp/dx > 0 so u < 0 (out of the bump
        // westward); east face (5,4): u > 0.
        assert!(st.u.at(4, 4, 0) < 0.0);
        assert!(st.u.at(5, 4, 0) > 0.0);
        assert!(st.v.at(4, 4, 0) < 0.0);
        assert!(st.v.at(4, 5, 0) > 0.0);
    }

    #[test]
    fn rhs_zero_for_nondivergent_flow() {
        let (cfg, tile, geom, masks, _st, mut ws) = setup();
        ws.ustar.fill(0.25);
        ws.vstar.fill(0.0);
        divergence_rhs(&cfg, &tile, &geom, &masks, &mut ws);
        assert!(ws.rhs.interior_max_abs() < 1e-9);
    }

    #[test]
    fn rhs_measures_divergence() {
        let (cfg, tile, geom, masks, _st, mut ws) = setup();
        // Outflow from cell (3,3) at level 0 only.
        ws.ustar.set(4, 3, 0, 0.5);
        divergence_rhs(&cfg, &tile, &geom, &masks, &mut ws);
        let expect = 0.5 * geom.dy * cfg.grid.dz[0];
        assert!((ws.rhs.at(3, 3) - expect).abs() < 1e-9);
        assert!((ws.rhs.at(4, 3) + expect).abs() < 1e-9);
    }
}
