//! Tendency evaluation: `G_v = g_v(v, b)` and the tracer counterparts
//! (§3.1, Figure 6).
//!
//! * **Momentum** (advective form, centred horizontal / upwind vertical):
//!   advection, Coriolis, spherical metric terms, horizontal Laplacian and
//!   vertical viscosity. The pressure-gradient force is *not* part of `G`
//!   — it is applied un-extrapolated in the update (eq. 1).
//! * **Tracers** (flux form, centred horizontal / upwind vertical):
//!   advection plus diffusion; flux form makes tracer content exactly
//!   conservative under the discretely non-divergent projected flow.
//!
//! Every term uses only a 3×3 (×3 vertical) stencil, which is what makes
//! halo overcomputation possible (§4).

use crate::config::ModelConfig;
use crate::field::{Band, Field3};
use crate::flops::{self, Phase};
use crate::kernel::{select, Cols, Columns, TileGeom, Workspace};
use crate::state::{Masks, ModelState};
use crate::tile::Tile;

/// Approximate flops per wet cell for the two momentum tendencies
/// (counted from the arithmetic below, masks and upwind selection
/// included: 62 each).
pub const MOMENTUM_FLOPS_PER_CELL: u64 = 124;
/// Approximate flops per wet cell per tracer.
pub const TRACER_FLOPS_PER_CELL: u64 = 70;

/// The rows of one field a momentum tendency reads around row `j` of
/// level `k`: the row itself, its south and north neighbours and the rows
/// above and below, each one column wider on both sides than the sweep
/// (cell `i` of the sweep is at index `i + 1`).
struct Stencil<'a> {
    c: &'a [f64],
    s: &'a [f64],
    n: &'a [f64],
    up: &'a [f64],
    dn: &'a [f64],
}

impl<'a> Stencil<'a> {
    fn of(f: &'a Field3, j: i64, lev: &Level, wide: &Cols) -> Self {
        Stencil {
            c: wide.of(f, j, lev.k),
            s: wide.of(f, j - 1, lev.k),
            n: wide.of(f, j + 1, lev.k),
            up: wide.of(f, j, lev.ku),
            dn: wide.of(f, j, lev.kd),
        }
    }
}

/// The masks of one kind of face that a momentum tendency reads around
/// row `j` of level `k`, as wide as a [`Stencil`]'s rows: those of the row
/// and of its south and north neighbours, built from the face columns
/// once per row and level into `rows`, which the sweep keeps; those above
/// and below, from the row's `columns`.
struct FaceMasks<'a> {
    c: &'a [f64],
    s: &'a [f64],
    n: &'a [f64],
    columns: Columns<'a>,
}

impl<'a> FaceMasks<'a> {
    fn build(
        faces: impl Fn(i64) -> Columns<'a>,
        j: i64,
        k: usize,
        wide: &Cols,
        rows: &'a mut [Vec<f64>; 3],
    ) -> Self {
        for (row, j) in rows.iter_mut().zip([j, j - 1, j + 1]) {
            row.resize(wide.n, 0.0);
            faces(j).wet_row(k, row);
        }
        let [c, s, n] = rows.each_ref().map(|row| &row[..wide.n]);
        FaceMasks {
            c,
            s,
            n,
            columns: faces(j),
        }
    }
}

/// What one level contributes to every row of it: thickness, whether
/// there is a level above / below, and the interface spacings.
struct Level {
    k: usize,
    /// The levels above and below to read, where the level itself stands
    /// in for a missing neighbour (the one-sided vertical upwind flux
    /// reads the cell's own value there).
    ku: usize,
    kd: usize,
    dz: f64,
    has_up: bool,
    has_dn: bool,
    /// Distance between the centres of levels `k − 1` and `k` (of `k` and
    /// `k + 1`); unused at the lid (floor).
    dzi_up: f64,
    dzi_dn: f64,
}

impl Level {
    fn of(dz: &[f64], k: usize) -> Level {
        let (has_up, has_dn) = (k > 0, k + 1 < dz.len());
        let ku = if has_up { k - 1 } else { k };
        let kd = if has_dn { k + 1 } else { k };
        Level {
            k,
            ku,
            kd,
            dz: dz[k],
            has_up,
            has_dn,
            dzi_up: 0.5 * (dz[ku] + dz[k]),
            dzi_dn: 0.5 * (dz[kd] + dz[k]),
        }
    }
}

/// Evaluate `G_u`, `G_v` on the interior extended by `ext` rings
/// (requires state valid on `ext+1`).
pub fn momentum_tendencies(
    cfg: &ModelConfig,
    tile: &Tile,
    geom: &TileGeom,
    masks: &Masks,
    state: &ModelState,
    ws: &mut Workspace,
    ext: i64,
) {
    let bands = [ws.gu.band(), ws.gv.band()];
    momentum_tendencies_rows(cfg, tile, geom, masks, state, bands, ext);
}

/// [`momentum_tendencies`] on the rows the bands of `G_u`, `G_v` hold.
///
/// Row sweeps with the row's metric factors hoisted and every branch of
/// the cell body a select, so the two loops vectorise. The kernel stays
/// divide-bound — twenty divides a cell — because multiplying by hoisted
/// reciprocals instead changes result bits (DESIGN, "PS hot path").
pub(crate) fn momentum_tendencies_rows(
    cfg: &ModelConfig,
    tile: &Tile,
    geom: &TileGeom,
    masks: &Masks,
    state: &ModelState,
    [mut gu, mut gv]: [Band<'_>; 2],
    ext: i64,
) {
    let cols = Cols::new(tile.nx, ext);
    let wide = cols.wider(1, 1);
    let (visc_h, visc_v) = (cfg.visc_h, cfg.visc_v);
    let dy = geom.dy;
    let (two_dy, dy2) = (2.0 * dy, dy * dy);
    let [mut mu_rows, mut mv_rows]: [[Vec<f64>; 3]; 2] = Default::default();
    let mut cells = 0u64;
    for k in 0..cfg.grid.nz {
        let lev = Level::of(&cfg.grid.dz, k);
        let w_rows = |j: i64| (wide.of(&state.w, j, k), wide.of(&state.w, j, lev.kd));
        for j in gu.rows(ext) {
            let u = Stencil::of(&state.u, j, &lev, &wide);
            let v = Stencil::of(&state.v, j, &lev, &wide);
            let mu = FaceMasks::build(|j| wide.u_faces(masks, j), j, k, &wide, &mut mu_rows);
            let mv = FaceMasks::build(|j| wide.v_faces(masks, j), j, k, &wide, &mut mv_rows);
            let (w_c, w_dn_c) = w_rows(j);
            let (w_s, w_dn_s) = w_rows(j - 1);

            // ---- G_u at the u-points (west faces) of the row ----
            let dxc = geom.dxc_at(j);
            let (two_dxc, dxc2) = (2.0 * dxc, dxc * dxc);
            let (f_c, tanr_c) = (geom.f_c_at(j), geom.tanr_c_at(j));
            let gu = cols.of_mut(&mut gu, j, k);
            for (i, gu) in gu.iter_mut().enumerate() {
                let c = i + 1;
                let uc = u.c[c];
                // v averaged to the u-point (4 surrounding v-points).
                let vbar = 0.25
                    * (v.c[c - 1] * mv.c[c - 1]
                        + v.c[c] * mv.c[c]
                        + v.n[c - 1] * mv.n[c - 1]
                        + v.n[c] * mv.n[c]);
                // Horizontal advection (centred, masked one-sided at
                // walls via the face masks).
                let dudx = (u.c[c + 1] * mu.c[c + 1] - u.c[c - 1] * mu.c[c - 1]) / two_dxc;
                let dudy = (u.n[c] * mu.n[c] - u.s[c] * mu.s[c]) / two_dy;
                let mut g = -(uc * dudx + vbar * dudy);
                // Vertical advection, first-order upwind on the two
                // interfaces (w > 0 flows toward smaller k).
                let w_top = 0.5 * (w_c[c - 1] + w_c[c]);
                let w_bot = select(lev.has_dn, 0.5 * (w_dn_c[c - 1] + w_dn_c[c]), 0.0);
                g += vertical_advection(&lev, uc, u.up[c], u.dn[c], w_top, w_bot);
                // Coriolis + metric.
                g += (f_c + uc * tanr_c) * vbar;
                // Horizontal Laplacian viscosity (free-slip at walls:
                // dry-neighbour contributions vanish).
                let lap = mu.c[c + 1] * (u.c[c + 1] - uc) / dxc2
                    + mu.c[c - 1] * (u.c[c - 1] - uc) / dxc2
                    + mu.n[c] * (u.n[c] - uc) / dy2
                    + mu.s[c] * (u.s[c] - uc) / dy2;
                g += visc_h * lap;
                let vv = vertical_viscosity(
                    &lev,
                    uc,
                    (u.up[c], mu.columns.wet(lev.ku, c)),
                    (u.dn[c], mu.columns.wet(lev.kd, c)),
                );
                g += visc_v * vv / lev.dz;
                *gu = select(mu.c[c] != 0.0, g, 0.0);
            }

            // ---- G_v at the v-points (south faces) of the row ----
            let dxs = geom.dxs_at(j);
            let (two_dxs, dxs2) = (2.0 * dxs, dxs * dxs);
            let (f_s, tanr_s) = (geom.f_s_at(j), geom.tanr_s_at(j));
            let gv = cols.of_mut(&mut gv, j, k);
            for (i, gv) in gv.iter_mut().enumerate() {
                let c = i + 1;
                let vc = v.c[c];
                let ubar = 0.25
                    * (u.s[c] * mu.s[c]
                        + u.s[c + 1] * mu.s[c + 1]
                        + u.c[c] * mu.c[c]
                        + u.c[c + 1] * mu.c[c + 1]);
                let dvdx = (v.c[c + 1] * mv.c[c + 1] - v.c[c - 1] * mv.c[c - 1]) / two_dxs;
                let dvdy = (v.n[c] * mv.n[c] - v.s[c] * mv.s[c]) / two_dy;
                let mut g = -(ubar * dvdx + vc * dvdy);
                let w_top = 0.5 * (w_s[c] + w_c[c]);
                let w_bot = select(lev.has_dn, 0.5 * (w_dn_s[c] + w_dn_c[c]), 0.0);
                g += vertical_advection(&lev, vc, v.up[c], v.dn[c], w_top, w_bot);
                // Coriolis + metric (note the sign).
                g -= (f_s + ubar * tanr_s) * ubar;
                let lap = mv.c[c + 1] * (v.c[c + 1] - vc) / dxs2
                    + mv.c[c - 1] * (v.c[c - 1] - vc) / dxs2
                    + mv.n[c] * (v.n[c] - vc) / dy2
                    + mv.s[c] * (v.s[c] - vc) / dy2;
                g += visc_h * lap;
                let vv = vertical_viscosity(
                    &lev,
                    vc,
                    (v.up[c], mv.columns.wet(lev.ku, c)),
                    (v.dn[c], mv.columns.wet(lev.kd, c)),
                );
                g += visc_v * vv / lev.dz;
                *gv = select(mv.c[c] != 0.0, g, 0.0);
            }
            cells += cols.n as u64;
        }
    }
    flops::add(Phase::Ps, cells * MOMENTUM_FLOPS_PER_CELL);
}

/// First-order upwind vertical advection of a velocity component `x`
/// through the cell's two interfaces (`w > 0` flows toward smaller `k`);
/// `x_top`/`x_bot` are the values above and below, the cell's own at the
/// lid and the floor.
#[inline(always)]
fn vertical_advection(lev: &Level, x: f64, x_top: f64, x_bot: f64, w_top: f64, w_bot: f64) -> f64 {
    let flux_top = select(w_top > 0.0, w_top * x, w_top * x_top);
    let flux_bot = select(w_bot > 0.0, w_bot * x_bot, w_bot * x);
    (flux_bot - flux_top - x * (w_bot - w_top)) / lev.dz
}

/// Vertical viscosity (zero-flux at top/bottom and across dry faces):
/// the sum over the wet neighbours `(value, face mask)` above and below.
///
/// The cell-at-a-time loop started from `vv = 0.0` and skipped the `+=`
/// of a missing neighbour. As selects that is `(0.0 + a) + b` with `0.0`
/// for a skipped term — not a bare select of the term, which would keep
/// the `−0.0` that `0.0 + −0.0` turns into `+0.0`.
#[inline(always)]
fn vertical_viscosity(
    lev: &Level,
    x: f64,
    (x_up, m_up): (f64, f64),
    (x_dn, m_dn): (f64, f64),
) -> f64 {
    let from_above = select(lev.has_up & (m_up != 0.0), (x_up - x) / lev.dzi_up, 0.0);
    let from_below = select(lev.has_dn & (m_dn != 0.0), (x_dn - x) / lev.dzi_dn, 0.0);
    0.0 + from_above + from_below
}

/// Flux-form tendency for one tracer on the interior extended by `ext`.
#[expect(
    clippy::too_many_arguments,
    reason = "a kernel takes each field it reads or writes as an argument of its own"
)]
pub fn tracer_tendency(
    cfg: &ModelConfig,
    tile: &Tile,
    geom: &TileGeom,
    masks: &Masks,
    state: &ModelState,
    tracer: &Field3,
    out: &mut Field3,
    diff_h: f64,
    diff_v: f64,
    ext: i64,
) {
    let out = out.band();
    tracer_tendency_rows(
        cfg, tile, geom, masks, state, tracer, out, diff_h, diff_v, ext,
    );
}

/// [`tracer_tendency`] on the rows the band `out` holds.
///
/// Horizontal advective + diffusive fluxes through the faces (centred
/// advection: the face value is the mean of the two adjacent cells;
/// down-gradient diffusion; masked faces carry no flux; partial cells
/// shrink the open face area and the cell volume by the same §3.2
/// fractions, so fluxes stay exactly conservative), each computed once: a
/// cell's east flux is its east neighbour's west flux and its north flux
/// the south flux of the cell to the north, expression for expression, so
/// differencing the shared values is what differencing four fluxes of its
/// own was.
#[expect(
    clippy::too_many_arguments,
    reason = "a kernel takes each field it reads or writes as an argument of its own"
)]
pub(crate) fn tracer_tendency_rows(
    cfg: &ModelConfig,
    tile: &Tile,
    geom: &TileGeom,
    masks: &Masks,
    state: &ModelState,
    tracer: &Field3,
    mut out: Band<'_>,
    diff_h: f64,
    diff_v: f64,
    ext: i64,
) {
    let t = tracer;
    let rows = out.rows(ext);
    // An empty band has no first row whose south faces could be read.
    if rows.is_empty() {
        return;
    }
    let cols = Cols::new(tile.nx, ext);
    let (cols_east, cols_wide) = (cols.wider(0, 1), cols.wider(1, 1));
    let n = cols.n;
    let dy = geom.dy;
    // x-face fluxes of a row: the west face of each of its cells and
    // the east face of the last. y-face fluxes of a row's south faces
    // and of its north faces, which are the next row's south faces.
    let mut fx = vec![0.0; n + 1];
    let mut fy_south = vec![0.0; n];
    let mut fy_north = vec![0.0; n];
    let mut cells = 0u64;
    for k in 0..cfg.grid.nz {
        let lev = Level::of(&cfg.grid.dz, k);
        let (dz, ku, kd) = (lev.dz, lev.ku, lev.kd);
        // Fluxes through the south faces of row `j`, from the two rows
        // straddling them.
        let y_fluxes = |j: i64, fy: &mut [f64]| {
            let fy = &mut fy[..n];
            let (faces, v) = (cols.v_faces(masks, j), cols.of(&state.v, j, k));
            let (t_m, t_p) = (cols.of(t, j - 1, k), cols.of(t, j, k));
            let dxs = geom.dxs_at(j);
            for i in 0..n {
                fy[i] = faces.thickness(k, i)
                    * dxs
                    * dz
                    * (v[i] * (0.5 * (t_m[i] + t_p[i])) - diff_h * (t_p[i] - t_m[i]) / dy);
            }
        };
        y_fluxes(rows.start, &mut fy_north);
        for j in rows.clone() {
            std::mem::swap(&mut fy_south, &mut fy_north);
            y_fluxes(j + 1, &mut fy_north);

            // Cell `i` of the sweep is at index `i + 1` of the wide
            // tracer row; face `f` lies between indices `f` and `f + 1`.
            let t_c = cols_wide.of(t, j, k);
            let faces = cols_east.u_faces(masks, j);
            let u = cols_east.of(&state.u, j, k);
            let dxc = geom.dxc_at(j);
            let fx = &mut fx[..n + 1];
            for f in 0..n + 1 {
                fx[f] = faces.thickness(k, f)
                    * dy
                    * dz
                    * (u[f] * (0.5 * (t_c[f] + t_c[f + 1])) - diff_h * (t_c[f + 1] - t_c[f]) / dxc);
            }

            let wet = cols.cells(masks, j);
            let (t_up, t_dn) = (cols.of(t, j, ku), cols.of(t, j, kd));
            let (w_top, w_bot) = (cols.of(&state.w, j, k), cols.of(&state.w, j, kd));
            let (fy_south, fy_north) = (&fy_south[..n], &fy_north[..n]);
            let area = geom.area_at(j);
            let out = cols.of_mut(&mut out, j, k);
            for i in 0..n {
                let hc = wet.thickness(k, i);
                let vol = area * dz * hc.max(1e-12);
                let mut g = -(fx[i + 1] - fx[i] + fy_north[i] - fy_south[i]) / vol;
                // Vertical: upwind advection + diffusion across wet
                // interfaces (w > 0 moves fluid toward smaller k). The
                // budget divides by the cell's *effective* thickness
                // dz·hc, so the shared interface flux cancels exactly
                // between a full cell and a shaved §3.2 partial cell.
                // A closed interface adds nothing — not even `+ 0.0`,
                // which would turn a `−0.0` into `+0.0`.
                let dz_eff = dz * hc.max(1e-12);
                let tc = t_c[i + 1];
                let (wtop, wbot) = (w_top[i], w_bot[i]);
                let donor = select(wtop > 0.0, tc, t_up[i]);
                let through_top = (-wtop * donor + diff_v * (t_up[i] - tc) / lev.dzi_up) / dz_eff;
                g = select(lev.has_up & wet.open(ku, i), g + through_top, g);
                let donor = select(wbot > 0.0, t_dn[i], tc);
                let through_bottom = (wbot * donor + diff_v * (t_dn[i] - tc) / lev.dzi_dn) / dz_eff;
                g = select(lev.has_dn & wet.open(kd, i), g + through_bottom, g);
                let is_wet = wet.open(k, i);
                out[i] = select(is_wet, g, 0.0);
                cells += is_wet as u64;
            }
        }
    }
    flops::add(Phase::Ps, cells * TRACER_FLOPS_PER_CELL);
}

/// The cell-at-a-time loops the row sweeps above replaced, kept as what
/// the sweeps are compared with, bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Evaluate `G_u`, `G_v` on the interior extended by `ext` rings
    /// (requires state valid on `ext+1`).
    pub(crate) fn momentum_tendencies(
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
        let (u, v, w) = (&state.u, &state.v, &state.w);
        let mut cells = 0u64;
        for k in 0..nz {
            let dz = cfg.grid.dz[k];
            for j in -ext..ny + ext {
                let dy = geom.dy;
                for i in -ext..nx + ext {
                    // ---- G_u at the u-point (west face of cell i,j) ----
                    if masks.u(i, j, k) != 0.0 {
                        let dxc = geom.dxc_at(j);
                        let uc = u.at(i, j, k);
                        // v averaged to the u-point (4 surrounding v-points).
                        let vbar = 0.25
                            * (v.at(i - 1, j, k) * masks.v(i - 1, j, k)
                                + v.at(i, j, k) * masks.v(i, j, k)
                                + v.at(i - 1, j + 1, k) * masks.v(i - 1, j + 1, k)
                                + v.at(i, j + 1, k) * masks.v(i, j + 1, k));
                        // Horizontal advection (centred, masked one-sided at
                        // walls via the face masks).
                        let dudx = (u.at(i + 1, j, k) * masks.u(i + 1, j, k)
                            - u.at(i - 1, j, k) * masks.u(i - 1, j, k))
                            / (2.0 * dxc);
                        let dudy = (u.at(i, j + 1, k) * masks.u(i, j + 1, k)
                            - u.at(i, j - 1, k) * masks.u(i, j - 1, k))
                            / (2.0 * dy);
                        let mut g = -(uc * dudx + vbar * dudy);
                        // Vertical advection, first-order upwind on the two
                        // interfaces (w > 0 flows toward smaller k).
                        let w_top = 0.5 * (w.at(i - 1, j, k) + w.at(i, j, k));
                        let w_bot = if k + 1 < nz {
                            0.5 * (w.at(i - 1, j, k + 1) + w.at(i, j, k + 1))
                        } else {
                            0.0
                        };
                        let u_top = if k > 0 { u.at(i, j, k - 1) } else { uc };
                        let u_bot = if k + 1 < nz { u.at(i, j, k + 1) } else { uc };
                        let flux_top = if w_top > 0.0 {
                            w_top * uc
                        } else {
                            w_top * u_top
                        };
                        let flux_bot = if w_bot > 0.0 {
                            w_bot * u_bot
                        } else {
                            w_bot * uc
                        };
                        g += (flux_bot - flux_top - uc * (w_bot - w_top)) / dz;
                        // Coriolis + metric.
                        g += (geom.f_c_at(j) + uc * geom.tanr_c_at(j)) * vbar;
                        // Horizontal Laplacian viscosity (free-slip at walls:
                        // dry-neighbour contributions vanish).
                        let lap = masks.u(i + 1, j, k) * (u.at(i + 1, j, k) - uc) / (dxc * dxc)
                            + masks.u(i - 1, j, k) * (u.at(i - 1, j, k) - uc) / (dxc * dxc)
                            + masks.u(i, j + 1, k) * (u.at(i, j + 1, k) - uc) / (dy * dy)
                            + masks.u(i, j - 1, k) * (u.at(i, j - 1, k) - uc) / (dy * dy);
                        g += cfg.visc_h * lap;
                        // Vertical viscosity (zero-flux at top/bottom).
                        let mut vv = 0.0;
                        if k > 0 && masks.u(i, j, k - 1) != 0.0 {
                            vv += (u.at(i, j, k - 1) - uc) / (0.5 * (cfg.grid.dz[k - 1] + dz));
                        }
                        if k + 1 < nz && masks.u(i, j, k + 1) != 0.0 {
                            vv += (u.at(i, j, k + 1) - uc) / (0.5 * (cfg.grid.dz[k + 1] + dz));
                        }
                        g += cfg.visc_v * vv / dz;
                        ws.gu.set(i, j, k, g);
                    } else {
                        ws.gu.set(i, j, k, 0.0);
                    }

                    // ---- G_v at the v-point (south face of cell i,j) ----
                    if masks.v(i, j, k) != 0.0 {
                        let dxs = geom.dxs_at(j);
                        let vc = v.at(i, j, k);
                        let ubar = 0.25
                            * (u.at(i, j - 1, k) * masks.u(i, j - 1, k)
                                + u.at(i + 1, j - 1, k) * masks.u(i + 1, j - 1, k)
                                + u.at(i, j, k) * masks.u(i, j, k)
                                + u.at(i + 1, j, k) * masks.u(i + 1, j, k));
                        let dvdx = (v.at(i + 1, j, k) * masks.v(i + 1, j, k)
                            - v.at(i - 1, j, k) * masks.v(i - 1, j, k))
                            / (2.0 * dxs);
                        let dvdy = (v.at(i, j + 1, k) * masks.v(i, j + 1, k)
                            - v.at(i, j - 1, k) * masks.v(i, j - 1, k))
                            / (2.0 * geom.dy);
                        let mut g = -(ubar * dvdx + vc * dvdy);
                        let w_top = 0.5 * (w.at(i, j - 1, k) + w.at(i, j, k));
                        let w_bot = if k + 1 < nz {
                            0.5 * (w.at(i, j - 1, k + 1) + w.at(i, j, k + 1))
                        } else {
                            0.0
                        };
                        let v_top = if k > 0 { v.at(i, j, k - 1) } else { vc };
                        let v_bot = if k + 1 < nz { v.at(i, j, k + 1) } else { vc };
                        let flux_top = if w_top > 0.0 {
                            w_top * vc
                        } else {
                            w_top * v_top
                        };
                        let flux_bot = if w_bot > 0.0 {
                            w_bot * v_bot
                        } else {
                            w_bot * vc
                        };
                        g += (flux_bot - flux_top - vc * (w_bot - w_top)) / dz;
                        // Coriolis + metric (note the sign).
                        g -= (geom.f_s_at(j) + ubar * geom.tanr_s_at(j)) * ubar;
                        let lap = masks.v(i + 1, j, k) * (v.at(i + 1, j, k) - vc) / (dxs * dxs)
                            + masks.v(i - 1, j, k) * (v.at(i - 1, j, k) - vc) / (dxs * dxs)
                            + masks.v(i, j + 1, k) * (v.at(i, j + 1, k) - vc) / (geom.dy * geom.dy)
                            + masks.v(i, j - 1, k) * (v.at(i, j - 1, k) - vc) / (geom.dy * geom.dy);
                        g += cfg.visc_h * lap;
                        let mut vv = 0.0;
                        if k > 0 && masks.v(i, j, k - 1) != 0.0 {
                            vv += (v.at(i, j, k - 1) - vc) / (0.5 * (cfg.grid.dz[k - 1] + dz));
                        }
                        if k + 1 < nz && masks.v(i, j, k + 1) != 0.0 {
                            vv += (v.at(i, j, k + 1) - vc) / (0.5 * (cfg.grid.dz[k + 1] + dz));
                        }
                        g += cfg.visc_v * vv / dz;
                        ws.gv.set(i, j, k, g);
                    } else {
                        ws.gv.set(i, j, k, 0.0);
                    }
                    cells += 1;
                }
            }
        }
        flops::add(Phase::Ps, cells * MOMENTUM_FLOPS_PER_CELL);
    }

    /// Flux-form tendency for one tracer on the interior extended by `ext`.
    #[expect(
        clippy::too_many_arguments,
        reason = "the cell-at-a-time reference keeps the signature of the kernel it checks"
    )]
    pub(crate) fn tracer_tendency(
        cfg: &ModelConfig,
        tile: &Tile,
        geom: &TileGeom,
        masks: &Masks,
        state: &ModelState,
        tracer: &Field3,
        out: &mut Field3,
        diff_h: f64,
        diff_v: f64,
        ext: i64,
    ) {
        let nz = cfg.grid.nz;
        let (nx, ny) = (tile.nx as i64, tile.ny as i64);
        let (u, v, w) = (&state.u, &state.v, &state.w);
        let t = tracer;
        let mut cells = 0u64;
        for k in 0..nz {
            let dz = cfg.grid.dz[k];
            for j in -ext..ny + ext {
                let dy = geom.dy;
                let area = geom.area_at(j);
                let dxc = geom.dxc_at(j);
                for i in -ext..nx + ext {
                    let vol = area * dz * masks.hc(i, j, k).max(1e-12);
                    if masks.c(i, j, k) == 0.0 {
                        out.set(i, j, k, 0.0);
                        continue;
                    }
                    // Horizontal advective + diffusive fluxes through the four
                    // faces (centred advection, down-gradient diffusion;
                    // masked faces carry no flux; partial cells shrink the
                    // open face area and the cell volume by the same §3.2
                    // fractions, so fluxes stay exactly conservative).
                    let mu_w = masks.hu(i, j, k);
                    let mu_e = masks.hu(i + 1, j, k);
                    let mv_s = masks.hv(i, j, k);
                    let mv_n = masks.hv(i, j + 1, k);
                    let uw = u.at(i, j, k);
                    let ue = u.at(i + 1, j, k);
                    let vs = v.at(i, j, k);
                    let vn = v.at(i, j + 1, k);
                    let fx_w = mu_w
                        * dy
                        * dz
                        * (uw * (0.5 * (t.at(i - 1, j, k) + t.at(i, j, k)))
                            - diff_h * (t.at(i, j, k) - t.at(i - 1, j, k)) / dxc);
                    let fx_e = mu_e
                        * dy
                        * dz
                        * (ue * (0.5 * (t.at(i, j, k) + t.at(i + 1, j, k)))
                            - diff_h * (t.at(i + 1, j, k) - t.at(i, j, k)) / dxc);
                    let fy_s = mv_s
                        * geom.dxs_at(j)
                        * dz
                        * (vs * (0.5 * (t.at(i, j - 1, k) + t.at(i, j, k)))
                            - diff_h * (t.at(i, j, k) - t.at(i, j - 1, k)) / dy);
                    let fy_n = mv_n
                        * geom.dxs_at(j + 1)
                        * dz
                        * (vn * (0.5 * (t.at(i, j, k) + t.at(i, j + 1, k)))
                            - diff_h * (t.at(i, j + 1, k) - t.at(i, j, k)) / dy);
                    let mut g = -(fx_e - fx_w + fy_n - fy_s) / vol;
                    // Vertical: upwind advection + diffusion across wet
                    // interfaces (w > 0 moves fluid toward smaller k). The
                    // budget divides by the cell's *effective* thickness
                    // dz·hc, so the shared interface flux cancels exactly
                    // between a full cell and a shaved §3.2 partial cell.
                    let dz_eff = dz * masks.hc(i, j, k).max(1e-12);
                    let tc = t.at(i, j, k);
                    if k > 0 && masks.c(i, j, k - 1) != 0.0 {
                        let wtop = w.at(i, j, k);
                        let donor = if wtop > 0.0 { tc } else { t.at(i, j, k - 1) };
                        let dzi = 0.5 * (cfg.grid.dz[k - 1] + dz);
                        g += (-wtop * donor + diff_v * (t.at(i, j, k - 1) - tc) / dzi) / dz_eff;
                    }
                    if k + 1 < nz && masks.c(i, j, k + 1) != 0.0 {
                        let wbot = w.at(i, j, k + 1);
                        let donor = if wbot > 0.0 { t.at(i, j, k + 1) } else { tc };
                        let dzi = 0.5 * (cfg.grid.dz[k + 1] + dz);
                        g += (wbot * donor + diff_v * (t.at(i, j, k + 1) - tc) / dzi) / dz_eff;
                    }
                    out.set(i, j, k, g);
                    cells += 1;
                }
            }
        }
        flops::add(Phase::Ps, cells * TRACER_FLOPS_PER_CELL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::Decomp;
    use crate::kernel::hydrostatic::diagnose_w;
    use crate::state::ModelState;
    use crate::topography::Topography;

    fn setup(nz: usize) -> (ModelConfig, Tile, TileGeom, Masks, ModelState, Workspace) {
        let d = Decomp::blocks(16, 8, 1, 1, 3);
        let cfg = ModelConfig::test_ocean(16, 8, nz, d);
        let tile = d.tile(0);
        let topo = Topography::aquaplanet(&cfg.grid);
        let masks = Masks::build(&cfg, &tile, &topo);
        let geom = TileGeom::build(&cfg, &tile);
        let st = ModelState::initial(&cfg, &tile, &masks);
        let ws = Workspace::new(&cfg, &tile);
        (cfg, tile, geom, masks, st, ws)
    }

    #[test]
    fn rest_state_has_zero_momentum_tendency() {
        let (cfg, tile, geom, masks, mut st, mut ws) = setup(3);
        st.theta.fill(cfg.eos.theta_ref);
        st.s.fill(cfg.eos.s_ref);
        momentum_tendencies(&cfg, &tile, &geom, &masks, &st, &mut ws, 0);
        assert_eq!(ws.gu.interior_max_abs(), 0.0);
        assert_eq!(ws.gv.interior_max_abs(), 0.0);
    }

    #[test]
    fn coriolis_turns_zonal_flow() {
        let (cfg, tile, geom, masks, mut st, mut ws) = setup(3);
        st.theta.fill(cfg.eos.theta_ref);
        st.s.fill(cfg.eos.s_ref);
        st.u.fill(0.1);
        momentum_tendencies(&cfg, &tile, &geom, &masks, &st, &mut ws, 0);
        // Northern-hemisphere (f > 0) zonal flow: Gv = -f·u < 0
        // (deflection to the right). Row 6 of an 8-row grid spanning ±60°
        // is well north.
        let j = 6i64;
        assert!(geom.f_s_at(j) > 0.0);
        assert!(ws.gv.at(4, j, 1) < 0.0);
        // Southern hemisphere: deflection to the left.
        let js = 2i64;
        assert!(geom.f_s_at(js) < 0.0);
        assert!(ws.gv.at(4, js, 1) > 0.0);
        // No zonal tendency from a uniform zonal flow (zonal symmetry,
        // v = 0 so no Coriolis on u).
        assert!(ws.gu.interior_max_abs() < 1e-15);
    }

    #[test]
    fn viscosity_damps_shear() {
        let (cfg, tile, geom, masks, mut st, mut ws) = setup(3);
        st.theta.fill(cfg.eos.theta_ref);
        st.s.fill(cfg.eos.s_ref);
        // A single u spike: Laplacian should pull it down and its
        // neighbours up.
        st.u.set(8, 4, 1, 1.0);
        momentum_tendencies(&cfg, &tile, &geom, &masks, &st, &mut ws, 0);
        assert!(ws.gu.at(8, 4, 1) < 0.0, "spike must decay");
        assert!(ws.gu.at(7, 4, 1) > 0.0, "neighbour must be dragged along");
        assert!(ws.gu.at(9, 4, 1) > 0.0);
    }

    #[test]
    fn tracer_flux_form_conserves_content() {
        let (cfg, tile, geom, masks, mut st, mut ws) = setup(3);
        // An arbitrary (masked) velocity field and tracer distribution:
        // the volume-integrated tendency must vanish up to roundoff
        // because fluxes telescope (periodic x, walls in y, w from
        // continuity).
        for (i, j, k) in st.u.clone().interior() {
            st.u.set(i, j, k, 0.03 * ((i + 2 * j) as f64 * 0.7 + k as f64).sin());
            st.v.set(
                i,
                j,
                k,
                0.02 * ((2 * i - j) as f64 * 0.9).cos() * masks.v(i, j, k),
            );
            st.theta
                .set(i, j, k, 10.0 + ((i * j) as f64 * 0.3).sin() + k as f64);
        }
        // Halos must be consistent for the flux computation: single tile,
        // so exchange = periodic wrap; emulate with the halo module.
        let d = Decomp::blocks(16, 8, 1, 1, 3);
        let mut world = hyades_comms::SerialWorld;
        crate::halo::exchange3(
            &mut world,
            &d,
            &tile,
            &mut [&mut st.u, &mut st.v, &mut st.theta],
            3,
        );
        diagnose_w(&cfg, &tile, &geom, &masks, &st.u, &st.v, st.w.band(), 1);
        // Zero diffusivity: advection alone must conserve.
        tracer_tendency(
            &cfg,
            &tile,
            &geom,
            &masks,
            &st,
            &st.theta.clone(),
            &mut ws.gt,
            0.0,
            0.0,
            0,
        );
        // Volume-weighted integral of the tendency.
        let mut total = 0.0;
        let mut scale = 0.0;
        for (i, j, k) in ws.gt.interior() {
            let vol = geom.area_at(j) * cfg.grid.dz[k];
            total += ws.gt.at(i, j, k) * vol;
            scale += ws.gt.at(i, j, k).abs() * vol;
        }
        assert!(
            total.abs() < 1e-9 * scale.max(1.0),
            "tracer not conserved: {total} (scale {scale})"
        );
    }

    #[test]
    fn diffusion_smooths_extrema() {
        let (cfg, tile, geom, masks, mut st, mut ws) = setup(3);
        st.theta.fill(10.0);
        st.theta.set(8, 4, 1, 11.0);
        tracer_tendency(
            &cfg,
            &tile,
            &geom,
            &masks,
            &st,
            &st.theta.clone(),
            &mut ws.gt,
            cfg.diff_h,
            0.0,
            0,
        );
        assert!(ws.gt.at(8, 4, 1) < 0.0);
        assert!(ws.gt.at(7, 4, 1) > 0.0);
        assert!(ws.gt.at(8, 5, 1) > 0.0);
    }

    /// Advect a top-hat round the periodic channel with no diffusion: the
    /// flux form conserves the tracer integral step after step, and the
    /// centred face value overshoots at the fronts (why the presets all
    /// carry a horizontal diffusivity).
    #[test]
    fn centred_advection_of_a_top_hat_conserves_and_overshoots() {
        let d = Decomp::blocks(32, 4, 1, 1, 3);
        let mut cfg = ModelConfig::test_ocean(32, 4, 1, d);
        cfg.dt = 2000.0;
        let tile = d.tile(0);
        let topo = Topography::aquaplanet(&cfg.grid);
        let masks = Masks::build(&cfg, &tile, &topo);
        let geom = TileGeom::build(&cfg, &tile);
        let mut world = hyades_comms::SerialWorld;
        let mut st = ModelState::initial(&cfg, &tile, &masks);
        st.u.fill(1.0); // uniform zonal flow, non-divergent
        st.v.fill(0.0);
        st.w.fill(0.0);
        for (i, j, k) in st.theta.clone().interior() {
            st.theta
                .set(i, j, k, if (8..16).contains(&i) { 1.0 } else { 0.0 });
        }
        let mut ws = Workspace::new(&cfg, &tile);
        for _ in 0..40 {
            crate::halo::exchange3(
                &mut world,
                &d,
                &tile,
                &mut [&mut st.u, &mut st.v, &mut st.theta],
                3,
            );
            tracer_tendency(
                &cfg,
                &tile,
                &geom,
                &masks,
                &st,
                &st.theta.clone(),
                &mut ws.gt,
                0.0,
                0.0,
                0,
            );
            for (i, j, k) in ws.gt.interior() {
                st.theta.add(i, j, k, cfg.dt * ws.gt.at(i, j, k));
            }
        }
        let (mut min, mut max, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
        for (i, j, k) in st.theta.interior() {
            let v = st.theta.at(i, j, k);
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        assert!((sum - 32.0).abs() < 1e-9, "sum {sum}");
        assert!(
            min < -0.01 || max > 1.01,
            "unexpectedly monotone [{min}, {max}]"
        );
    }

    #[test]
    fn land_points_have_zero_tendency() {
        let d = Decomp::blocks(16, 8, 1, 1, 3);
        let mut cfg = ModelConfig::test_ocean(16, 8, 3, d);
        cfg.continents = true;
        let tile = d.tile(0);
        let topo = Topography::idealized_continents(&cfg.grid);
        let masks = Masks::build(&cfg, &tile, &topo);
        let geom = TileGeom::build(&cfg, &tile);
        let mut st = ModelState::initial(&cfg, &tile, &masks);
        st.u.fill(0.1);
        st.v.fill(0.05);
        let mut ws = Workspace::new(&cfg, &tile);
        momentum_tendencies(&cfg, &tile, &geom, &masks, &st, &mut ws, 0);
        for (i, j, k) in ws.gu.interior() {
            if masks.u(i, j, k) == 0.0 {
                assert_eq!(ws.gu.at(i, j, k), 0.0);
            }
            if masks.v(i, j, k) == 0.0 {
                assert_eq!(ws.gv.at(i, j, k), 0.0);
            }
        }
    }
}

#[cfg(test)]
mod sweep_tests {
    use super::*;
    use crate::kernel::fixtures::{cases, Case};

    // Every `ext` a width-3 halo affords the stencil; `Model::step` uses 1.
    #[test]
    fn momentum_sweep_matches_the_reference_bit_for_bit() {
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
                    &format!("momentum_tendencies, ext {ext}"),
                    |st, ws| momentum_tendencies(cfg, tile, geom, masks, st, ws, ext),
                    |st, ws| reference::momentum_tendencies(cfg, tile, geom, masks, st, ws, ext),
                );
            }
        }
    }

    // Both tracers, with and without explicit vertical diffusion, every
    // `ext` a width-3 halo affords the stencil (`Model::step` uses 0).
    #[test]
    fn tracer_sweep_matches_the_reference_bit_for_bit() {
        type Kernel = fn(
            &ModelConfig,
            &Tile,
            &TileGeom,
            &Masks,
            &ModelState,
            &Field3,
            &mut Field3,
            f64,
            f64,
            i64,
        );
        for case in cases() {
            let Case {
                cfg,
                tile,
                geom,
                masks,
                ..
            } = &case;
            for (kh, diff_v) in [(cfg.diff_h, 0.0), (cfg.diff_h, cfg.diff_v), (0.0, 0.0)] {
                for ext in 0..=2 {
                    let both = |kernel: Kernel, st: &mut ModelState, ws: &mut Workspace| {
                        let (theta, s) = (&st.theta, &st.s);
                        kernel(
                            cfg, tile, geom, masks, st, theta, &mut ws.gt, kh, diff_v, ext,
                        );
                        kernel(cfg, tile, geom, masks, st, s, &mut ws.gs, kh, diff_v, ext);
                    };
                    case.check(
                        &format!("tracer_tendency, diff {kh}/{diff_v}, ext {ext}"),
                        |st, ws| both(tracer_tendency, st, ws),
                        |st, ws| both(reference::tracer_tendency, st, ws),
                    );
                }
            }
        }
    }

    // The whole-field comparison rarely meets `g = −0.0` together with a
    // lone `−0.0` viscous term, which is where a bare select would show.
    #[test]
    fn vertical_viscosity_adds_like_the_skipped_adds_it_replaced() {
        let values = [0.0, -0.0, 1.5, -2.0];
        for flags in 0..16u8 {
            let [has_up, has_dn, wet_up, wet_dn] = [1, 2, 4, 8].map(|bit| flags & bit != 0);
            let lev = Level {
                k: 1,
                ku: 0,
                kd: 2,
                dz: 100.0,
                has_up,
                has_dn,
                dzi_up: 80.0,
                dzi_dn: 120.0,
            };
            let (m_up, m_dn) = (wet_up as u8 as f64, wet_dn as u8 as f64);
            for x in values {
                for x_up in values {
                    for x_dn in values {
                        let mut vv = 0.0;
                        if has_up && m_up != 0.0 {
                            vv += (x_up - x) / lev.dzi_up;
                        }
                        if has_dn && m_dn != 0.0 {
                            vv += (x_dn - x) / lev.dzi_dn;
                        }
                        let got = vertical_viscosity(&lev, x, (x_up, m_up), (x_dn, m_dn));
                        assert_eq!(got.to_bits(), vv.to_bits(), "{flags:04b} {x} {x_up} {x_dn}");
                    }
                }
            }
        }
    }

    // One ring beyond what the halo affords: the cell-at-a-time loops
    // read the neighbouring row in a release build and returned plausible
    // numbers.
    #[test]
    #[should_panic(expected = "outside field")]
    fn momentum_beyond_the_halo_panics() {
        let case = cases().swap_remove(0);
        let mut ws = case.ws.clone();
        momentum_tendencies(
            &case.cfg,
            &case.tile,
            &case.geom,
            &case.masks,
            &case.state,
            &mut ws,
            3,
        );
    }

    #[test]
    #[should_panic(expected = "outside field")]
    fn tracer_beyond_the_halo_panics() {
        let case = cases().swap_remove(0);
        let mut out = case.ws.gt.clone();
        tracer_tendency(
            &case.cfg,
            &case.tile,
            &case.geom,
            &case.masks,
            &case.state,
            &case.state.theta,
            &mut out,
            1.0e3,
            0.0,
            3,
        );
    }
}
