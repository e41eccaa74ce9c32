//! Adams–Bashforth-2 extrapolation and the state update (eq. 1).
//!
//! `v^{n+1} = v^n + Δt (G^{n+1/2} − ∇p^{n+1/2})` with
//! `G^{n+1/2} = (3/2 + ε)G^n − (1/2 + ε)G^{n−1}` (the MITgcm's slightly
//! stabilized AB2). The pressure-gradient force is applied without
//! extrapolation: the hydrostatic part here, the surface part after the
//! DS solve.

use crate::config::ModelConfig;
use crate::field::{Band, Field3};
use crate::flops::{self, Phase};
use crate::kernel::{select, Cols, TileGeom, Workspace};
use crate::state::{Masks, ModelState};
use crate::tile::Tile;

pub const AB2_FLOPS_PER_CELL: u64 = 4;
pub const UPDATE_FLOPS_PER_CELL: u64 = 14;
pub const CORRECT_FLOPS_PER_FACE: u64 = 4;

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
    ab2_extrapolate_rows([g.band(), g_prev.band()], ab_eps, first_step, ext);
}

/// [`ab2_extrapolate`] on the rows the bands of `g`, `g_prev` hold.
pub(crate) fn ab2_extrapolate_rows(
    [mut g, mut g_prev]: [Band<'_>; 2],
    ab_eps: f64,
    first_step: bool,
    ext: i64,
) {
    let cols = Cols::new(g.nx(), ext);
    let (a, b) = if first_step {
        (1.0, 0.0)
    } else {
        (1.5 + ab_eps, 0.5 + ab_eps)
    };
    let mut cells = 0u64;
    for k in 0..g.nz() {
        for j in g.rows(ext) {
            let (g, g_prev) = (cols.of_mut(&mut g, j, k), cols.of_mut(&mut g_prev, j, k));
            for (g, g_prev) in g.iter_mut().zip(g_prev) {
                let gn = *g;
                *g = a * gn - b * *g_prev;
                *g_prev = gn;
            }
            cells += cols.n as u64;
        }
    }
    flops::add(Phase::Ps, cells * AB2_FLOPS_PER_CELL);
}

/// Provisional velocities: `v* = v^n + Δt (Ĝ − ∇p_hy)` on the interior
/// extended by `ext`, written over the extrapolated tendencies `Ĝ` in
/// `ws.gu`, `ws.gv` (the sweep is pointwise, and the raw tendency the
/// next step's AB2 needs is already in `gu_prev`, `gv_prev`). The
/// pressure gradient at a u-point (v-point) differences `phy` across the
/// face, so `phy` must be valid one column further west (one row further
/// south): on `ext + 1`.
pub fn velocity_star(
    cfg: &ModelConfig,
    tile: &Tile,
    geom: &TileGeom,
    masks: &Masks,
    state: &ModelState,
    ws: &mut Workspace,
    ext: i64,
) {
    let bands = [ws.gu.band(), ws.gv.band()];
    velocity_star_rows(cfg, tile, geom, masks, state, bands, ext);
}

/// [`velocity_star`] on the rows the bands of `Ĝu`, `Ĝv` hold, `u*`, `v*`
/// replacing them.
pub(crate) fn velocity_star_rows(
    cfg: &ModelConfig,
    tile: &Tile,
    geom: &TileGeom,
    masks: &Masks,
    state: &ModelState,
    [mut gu, mut gv]: [Band<'_>; 2],
    ext: i64,
) {
    let cols = Cols::new(tile.nx, ext);
    let cols_west = cols.wider(1, 0);
    let n = cols.n;
    let (dt, dy) = (cfg.dt, geom.dy);
    let mut cells = 0u64;
    for k in 0..cfg.grid.nz {
        for j in gu.rows(ext) {
            let dxc = geom.dxc_at(j);
            // Cell `i` of the sweep is at index `i + 1` of `phy`'s row.
            let (phy, phy_south) = (
                cols_west.of(&state.phy, j, k),
                cols.of(&state.phy, j - 1, k),
            );
            let (u_faces, v_faces) = (cols.u_faces(masks, j), cols.v_faces(masks, j));
            let (u, v) = (cols.of(&state.u, j, k), cols.of(&state.v, j, k));
            let (gu, gv) = (cols.of_mut(&mut gu, j, k), cols.of_mut(&mut gv, j, k));
            for i in 0..n {
                let dpdx = (phy[i + 1] - phy[i]) / dxc;
                gu[i] = u_faces.wet(k, i) * (u[i] + dt * (gu[i] - dpdx));
                let dpdy = (phy[i + 1] - phy_south[i]) / dy;
                gv[i] = v_faces.wet(k, i) * (v[i] + dt * (gv[i] - dpdy));
            }
            cells += n as u64;
        }
    }
    flops::add(Phase::Ps, cells * UPDATE_FLOPS_PER_CELL);
}

/// Step the tracers forward on the interior: `θ^{n+1} = θ^n + Δt·Ĝθ`,
/// with the tendencies `gt`, `gs`, on the rows the bands of `θ`, `s` hold.
pub(crate) fn update_tracers(
    cfg: &ModelConfig,
    masks: &Masks,
    gt: &Field3,
    gs: &Field3,
    [mut theta, mut s]: [Band<'_>; 2],
) {
    let cols = Cols::new(theta.nx(), 0);
    let dt = cfg.dt;
    let mut cells = 0u64;
    for k in 0..theta.nz() {
        for j in theta.rows(0) {
            let wet = cols.cells(masks, j);
            let (gt, gs) = (cols.of(gt, j, k), cols.of(gs, j, k));
            let theta = cols.of_mut(&mut theta, j, k);
            let s = cols.of_mut(&mut s, j, k);
            for i in 0..cols.n {
                // A dry cell keeps its values as they are (not `+ 0.0`).
                let is_wet = wet.open(k, i);
                theta[i] = select(is_wet, theta[i] + dt * gt[i], theta[i]);
                s[i] = select(is_wet, s[i] + dt * gs[i], s[i]);
                cells += is_wet as u64;
            }
        }
    }
    flops::add(Phase::Ps, cells * 4);
}

/// Depth-integrated divergence of the provisional flow `u*`, `v*` in
/// `ws.gu`, `ws.gv` (the elliptic right-hand side, m³/s), on the
/// interior.
pub fn divergence_rhs(
    cfg: &ModelConfig,
    tile: &Tile,
    geom: &TileGeom,
    masks: &Masks,
    ws: &mut Workspace,
) {
    let rhs = ws.rhs.band();
    divergence_rhs_rows(cfg, tile, geom, masks, &ws.gu, &ws.gv, rhs);
}

/// [`divergence_rhs`] of `ustar`, `vstar` on the rows the band of `rhs`
/// holds.
pub(crate) fn divergence_rhs_rows(
    cfg: &ModelConfig,
    tile: &Tile,
    geom: &TileGeom,
    masks: &Masks,
    ustar: &Field3,
    vstar: &Field3,
    mut rhs: Band<'_>,
) {
    let cols = Cols::new(tile.nx, 0);
    let cols_east = cols.wider(0, 1);
    let n = cols.n;
    let dy = geom.dy;
    let mut cells = 0u64;
    for j in rhs.rows(0) {
        let (dxs_south, dxs_north) = (geom.dxs_at(j), geom.dxs_at(j + 1));
        // The row's west faces and the east face of its last cell, its
        // south faces and its north faces.
        let u_faces = cols_east.u_faces(masks, j);
        let (south, north) = (cols.v_faces(masks, j), cols.v_faces(masks, j + 1));
        // The row of `rhs` is the accumulator of its columns' sums.
        let rhs = cols.of_mut(&mut rhs, j, 0);
        rhs.fill(0.0);
        for k in 0..cfg.grid.nz {
            let dz = cfg.grid.dz[k];
            // Face thicknesses carry the partial-cell fractions (§3.2):
            // the open area of each face is dz·hu (or dz·hv).
            let u = cols_east.of(ustar, j, k);
            let (v_south, v_north) = (cols.of(vstar, j, k), cols.of(vstar, j + 1, k));
            for i in 0..n {
                let uin = u[i] * u_faces.thickness(k, i);
                let uout = u[i + 1] * u_faces.thickness(k, i + 1);
                let vin = v_south[i] * south.thickness(k, i) * dxs_south;
                let vout = v_north[i] * north.thickness(k, i) * dxs_north;
                rhs[i] += (uout - uin) * dy * dz + (vout - vin) * dz;
            }
            cells += n as u64;
        }
    }
    flops::add(Phase::Ps, cells * 9);
}

/// Final update: subtract the gradient of `ps` (width-1 halo) from the
/// provisional velocities `ustar`, `vstar` on the rows the bands of `u`,
/// `v` hold: `u` on the interior rows with the tile's east face
/// (`i = nx`), `v` on the interior columns with its north face (`j = ny`),
/// which `hydrostatic::diagnose_w` reads. `ustar`, `vstar` are valid there
/// (`velocity_star` runs on +1) and so is `ps` after the solve's exchange;
/// the next step's exchange refreshes the rest of the halo.
#[expect(
    clippy::too_many_arguments,
    reason = "a kernel takes each field it reads or writes as an argument of its own"
)]
pub(crate) fn correct_velocities(
    cfg: &ModelConfig,
    tile: &Tile,
    geom: &TileGeom,
    masks: &Masks,
    ps: &Field3,
    ustar: &Field3,
    vstar: &Field3,
    [mut u, mut v]: [Band<'_>; 2],
) {
    let cols = Cols::new(tile.nx, 0);
    let (cols_east, cols_both) = (cols.wider(0, 1), cols.wider(1, 1));
    let n = cols.n;
    let (dt, dy) = (cfg.dt, geom.dy);
    let v_rows = v.rows(1);
    let v_rows = v_rows.start.max(0)..v_rows.end;
    let mut faces = 0u64;
    for k in 0..cfg.grid.nz {
        for j in u.rows(0) {
            let dxc = geom.dxc_at(j);
            // Face `i` is at index `i + 1` of `ps`'s row.
            let ps = cols_both.of(ps, j, 0);
            let u_faces = cols_east.u_faces(masks, j);
            let ustar = cols_east.of(ustar, j, k);
            let u = cols_east.of_mut(&mut u, j, k);
            for i in 0..n + 1 {
                let dpdx = (ps[i + 1] - ps[i]) / dxc;
                u[i] = u_faces.wet(k, i) * (ustar[i] - dt * dpdx);
            }
            faces += n as u64 + 1;
        }
        for j in v_rows.clone() {
            let (ps, ps_south) = (cols.of(ps, j, 0), cols.of(ps, j - 1, 0));
            let v_faces = cols.v_faces(masks, j);
            let vstar = cols.of(vstar, j, k);
            let v = cols.of_mut(&mut v, j, k);
            for i in 0..n {
                let dpdy = (ps[i] - ps_south[i]) / dy;
                v[i] = v_faces.wet(k, i) * (vstar[i] - dt * dpdy);
            }
            faces += n as u64;
        }
    }
    flops::add(Phase::Ps, faces * CORRECT_FLOPS_PER_FACE);
}

/// The cell-at-a-time loops the row sweeps above replaced, kept as what
/// the sweeps are compared with, bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Extrapolate `g` with AB2 against `g_prev`, storing the extrapolated
    /// value in `g` and the *pre-extrapolation* tendency in `g_prev` for the
    /// next step. On the first step the tendency is used as-is
    /// (forward Euler).
    pub(crate) fn ab2_extrapolate(
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
    /// extended by `ext`, over `Ĝ` (needs `phy` on `ext+1`... the
    /// x-gradient at a u-point uses `phy(i-1)` and `phy(i)`).
    pub(crate) fn velocity_star(
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
                    let mu = masks.u(i, j, k);
                    let dpdx = (state.phy.at(i, j, k) - state.phy.at(i - 1, j, k)) / geom.dxc_at(j);
                    ws.gu.set(
                        i,
                        j,
                        k,
                        mu * (state.u.at(i, j, k) + dt * (ws.gu.at(i, j, k) - dpdx)),
                    );
                    let mv = masks.v(i, j, k);
                    let dpdy = (state.phy.at(i, j, k) - state.phy.at(i, j - 1, k)) / geom.dy;
                    ws.gv.set(
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
    pub(crate) fn update_tracers(
        cfg: &ModelConfig,
        masks: &Masks,
        state: &mut ModelState,
        ws: &Workspace,
    ) {
        let mut cells = 0u64;
        for (i, j, k) in ws.gt.interior() {
            if masks.c(i, j, k) == 0.0 {
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
    pub(crate) fn divergence_rhs(
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
                    let uin = ws.gu.at(i, j, k) * masks.hu(i, j, k);
                    let uout = ws.gu.at(i + 1, j, k) * masks.hu(i + 1, j, k);
                    let vin = ws.gv.at(i, j, k) * masks.hv(i, j, k) * geom.dxs_at(j);
                    let vout = ws.gv.at(i, j + 1, k) * masks.hv(i, j + 1, k) * geom.dxs_at(j + 1);
                    div += (uout - uin) * dy * dz + (vout - vin) * dz;
                    cells += 1;
                }
                ws.rhs.set(i, j, 0, div);
            }
        }
        flops::add(Phase::Ps, cells * 9);
    }

    /// Final update: subtract the surface-pressure gradient from the
    /// provisional velocities (interior only; the next step's exchange
    /// refreshes the halo). `state.ps` must hold a width-1 halo.
    pub(crate) fn correct_velocities(
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
        let mut faces = 0u64;
        for k in 0..nz {
            for j in 0..=ny {
                for i in 0..=nx {
                    if j < ny {
                        let mu = masks.u(i, j, k);
                        let dpdx = (ps.at(i, j, 0) - ps.at(i - 1, j, 0)) / geom.dxc_at(j);
                        u.set(i, j, k, mu * (ws.gu.at(i, j, k) - dt * dpdx));
                        faces += 1;
                    }
                    if i < nx {
                        let mv = masks.v(i, j, k);
                        let dpdy = (ps.at(i, j, 0) - ps.at(i, j - 1, 0)) / geom.dy;
                        v.set(i, j, k, mv * (ws.gv.at(i, j, k) - dt * dpdy));
                        faces += 1;
                    }
                }
            }
        }
        flops::add(Phase::Ps, faces * CORRECT_FLOPS_PER_FACE);
    }
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
        assert!(ws.gu.at(4, 4, 0) > 0.0, "flow toward low pressure");
        assert!(ws.gu.at(2, 4, 0) == 0.0, "no gradient, no flow");
    }

    #[test]
    fn correction_removes_divergence_source() {
        let (cfg, tile, geom, masks, mut st, mut ws) = setup();
        // ps bump at one cell: the correction pushes flow out of it.
        st.ps.set(4, 4, 0, 10.0);
        ws.gu.fill(0.0);
        ws.gv.fill(0.0);
        let uv = [st.u.band(), st.v.band()];
        correct_velocities(&cfg, &tile, &geom, &masks, &st.ps, &ws.gu, &ws.gv, uv);
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
        ws.gu.fill(0.25);
        ws.gv.fill(0.0);
        divergence_rhs(&cfg, &tile, &geom, &masks, &mut ws);
        assert!(ws.rhs.interior_max_abs() < 1e-9);
    }

    #[test]
    fn rhs_measures_divergence() {
        let (cfg, tile, geom, masks, _st, mut ws) = setup();
        // Outflow from cell (3,3) at level 0 only.
        ws.gu.set(4, 3, 0, 0.5);
        divergence_rhs(&cfg, &tile, &geom, &masks, &mut ws);
        let expect = 0.5 * geom.dy * cfg.grid.dz[0];
        assert!((ws.rhs.at(3, 3, 0) - expect).abs() < 1e-9);
        assert!((ws.rhs.at(4, 3, 0) + expect).abs() < 1e-9);
    }
}

#[cfg(test)]
mod sweep_tests {
    use super::*;
    use crate::kernel::fixtures::{cases, Case};

    // First (forward Euler) and later steps, every `ext` of the halo.
    #[test]
    fn ab2_sweep_matches_the_reference_bit_for_bit() {
        for case in cases() {
            let eps = case.cfg.ab_eps;
            for first in [true, false] {
                for ext in 0..=3 {
                    case.check(
                        &format!("ab2_extrapolate, first {first}, ext {ext}"),
                        |st, ws| {
                            ab2_extrapolate(&mut ws.gu, &mut st.gu_prev, eps, first, ext);
                            ab2_extrapolate(&mut ws.gt, &mut st.gt_prev, eps, first, ext);
                        },
                        |st, ws| {
                            reference::ab2_extrapolate(
                                &mut ws.gu,
                                &mut st.gu_prev,
                                eps,
                                first,
                                ext,
                            );
                            reference::ab2_extrapolate(
                                &mut ws.gt,
                                &mut st.gt_prev,
                                eps,
                                first,
                                ext,
                            );
                        },
                    );
                }
            }
        }
    }

    // `Model::step` uses `ext = 1`; the gradient reaches one column west
    // and one row south, so 2 is the limit.
    #[test]
    fn velocity_star_sweep_matches_the_reference_bit_for_bit() {
        for case in cases() {
            let Case {
                cfg,
                tile,
                geom,
                masks,
                ..
            } = &case;
            for ext in 0..=2 {
                case.check(
                    &format!("velocity_star, ext {ext}"),
                    |st, ws| velocity_star(cfg, tile, geom, masks, st, ws, ext),
                    |st, ws| reference::velocity_star(cfg, tile, geom, masks, st, ws, ext),
                );
            }
        }
    }

    #[test]
    fn interior_sweeps_match_their_references_bit_for_bit() {
        for case in cases() {
            let Case {
                cfg,
                tile,
                geom,
                masks,
                ..
            } = &case;
            case.check(
                "update_tracers",
                |st, ws| {
                    let ts = [st.theta.band(), st.s.band()];
                    update_tracers(cfg, masks, &ws.gt, &ws.gs, ts)
                },
                |st, ws| reference::update_tracers(cfg, masks, st, ws),
            );
            case.check(
                "divergence_rhs",
                |_, ws| divergence_rhs(cfg, tile, geom, masks, ws),
                |_, ws| reference::divergence_rhs(cfg, tile, geom, masks, ws),
            );
            case.check(
                "correct_velocities",
                |st, ws| {
                    let (ps, uv) = (&st.ps, [st.u.band(), st.v.band()]);
                    correct_velocities(cfg, tile, geom, masks, ps, &ws.gu, &ws.gv, uv)
                },
                |st, ws| reference::correct_velocities(cfg, tile, geom, masks, st, ws),
            );
        }
    }

    #[test]
    #[should_panic(expected = "outside field")]
    fn velocity_star_beyond_the_halo_panics() {
        let case = cases().swap_remove(0);
        let mut ws = case.ws.clone();
        let Case {
            cfg,
            tile,
            geom,
            masks,
            state,
            ..
        } = &case;
        velocity_star(cfg, tile, geom, masks, state, &mut ws, 3);
    }
}
