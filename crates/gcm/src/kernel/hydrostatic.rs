//! Buoyancy, hydrostatic pressure, and diagnostic vertical velocity.
//!
//! In the hydrostatic limit, vertical variations of pressure are computed
//! from the buoyancy (§3.1): `p_hy(k)` accumulates `hydro_sign · b` down
//! (ocean) or up (atmosphere isomorph) the column. The vertical velocity
//! is diagnosed from continuity, integrating from the far boundary where
//! the normal flow vanishes.

use crate::config::ModelConfig;
use crate::eos::FluidKind;
use crate::field::{Band, Field3};
use crate::flops::{self, Phase};
use crate::kernel::{select, Cols, TileGeom};
use crate::state::{Masks, ModelState};
use crate::tile::Tile;

/// Flops per wet cell: buoyancy (5) + hydrostatic accumulation (4).
pub const FLOPS_PER_CELL: u64 = 9;

/// Evaluate the hydrostatic pressure from the buoyancy on the interior
/// extended by `ext` halo rings. The buoyancy itself is not kept: each
/// cell's is used by its own and the next level's midpoint only.
pub fn buoyancy_and_phy(
    cfg: &ModelConfig,
    tile: &Tile,
    masks: &Masks,
    state: &mut ModelState,
    ext: i64,
) {
    let phy = state.phy.band();
    buoyancy_and_phy_rows(cfg, tile, masks, &state.theta, &state.s, phy, ext);
}

/// [`buoyancy_and_phy`] from `theta` and `s` on the rows the band of
/// `phy` holds.
pub(crate) fn buoyancy_and_phy_rows(
    cfg: &ModelConfig,
    tile: &Tile,
    masks: &Masks,
    theta: &Field3,
    s: &Field3,
    phy: Band<'_>,
    ext: i64,
) {
    // The fluid is matched here, once, so the row body is monomorphic.
    let eos = &cfg.eos;
    match eos.kind {
        FluidKind::Ocean => {
            buoyancy_and_phy_with(cfg, tile, masks, theta, s, phy, ext, |theta, s, _| {
                eos.buoyancy_ocean(theta, s)
            })
        }
        FluidKind::Atmosphere => {
            buoyancy_and_phy_with(cfg, tile, masks, theta, s, phy, ext, |theta, _, k| {
                eos.buoyancy_atmosphere(theta, k)
            })
        }
    }
}

/// Rows outermost, levels in the middle, a row of columns innermost; the
/// two column carries of the accumulation are a row each.
#[expect(
    clippy::too_many_arguments,
    reason = "a kernel takes each field it reads or writes as an argument of its own"
)]
fn buoyancy_and_phy_with(
    cfg: &ModelConfig,
    tile: &Tile,
    masks: &Masks,
    theta: &Field3,
    s: &Field3,
    mut phy: Band<'_>,
    ext: i64,
    buoyancy: impl Fn(f64, f64, usize) -> f64,
) {
    let dz = &cfg.grid.dz;
    let sign = cfg.eos.hydro_sign;
    let cols = Cols::new(tile.nx, ext);
    let n = cols.n;
    // Pressure accumulated down to here, and the buoyancy of the last wet
    // cell above.
    let mut p = vec![0.0; n];
    let mut b_above = vec![0.0; n];
    let mut cells = 0u64;
    for j in phy.rows(ext) {
        let wet = cols.cells(masks, j);
        p.fill(0.0);
        b_above.fill(0.0);
        for k in 0..cfg.grid.nz {
            // Midpoint rule: contribution of the half-levels flanking
            // interface k.
            let dz_half = if k == 0 {
                0.5 * dz[0]
            } else {
                0.5 * (dz[k - 1] + dz[k])
            };
            let (theta, s) = (cols.of(theta, j, k), cols.of(s, j, k));
            let phy = cols.of_mut(&mut phy, j, k);
            for i in 0..n {
                let here = buoyancy(theta[i], s[i], k);
                let b_mid = if k == 0 {
                    here
                } else {
                    0.5 * (b_above[i] + here)
                };
                let below = p[i] + sign * b_mid * dz_half;
                // A dry cell stores the pressure above it, and leaves both
                // carries as they are.
                let is_wet = wet.open(k, i);
                p[i] = select(is_wet, below, p[i]);
                phy[i] = p[i];
                b_above[i] = select(is_wet, here, b_above[i]);
                cells += is_wet as u64;
            }
        }
    }
    flops::add(Phase::Ps, cells * FLOPS_PER_CELL);
}

/// Flops per wet cell for the continuity integration.
pub const W_FLOPS_PER_CELL: u64 = 9;

/// Diagnose `w` (the velocity across the interface between cell `k` and
/// cell `k-1`, positive toward `k-1`) from the divergence of `(u, v)`,
/// integrating from the far boundary (`w = 0` below the deepest wet cell).
/// Computed on the interior extended by `ext` rings, on the rows the band
/// of `w` holds. It reads `u` on the east face of the last column and `v`
/// on the north face of the last row too: at `ext = 0`, the faces
/// `timestep::correct_velocities` writes beyond the interior.
#[expect(
    clippy::too_many_arguments,
    reason = "a kernel takes each field it reads or writes as an argument of its own"
)]
pub(crate) fn diagnose_w(
    cfg: &ModelConfig,
    tile: &Tile,
    geom: &TileGeom,
    masks: &Masks,
    u: &Field3,
    v: &Field3,
    mut w: Band<'_>,
    ext: i64,
) {
    let dy = geom.dy;
    let cols = Cols::new(tile.nx, ext);
    let cols_east = cols.wider(0, 1);
    let n = cols.n;
    // `w` at the interface below, a row of columns: the integration runs
    // bottom-up, rows outermost.
    let mut w_below = vec![0.0; n];
    let mut cells = 0u64;
    for j in w.rows(ext) {
        let area = geom.area_at(j);
        let (dxs_south, dxs_north) = (geom.dxs_at(j), geom.dxs_at(j + 1));
        let wet = cols.cells(masks, j);
        // The row's west faces and the east face of its last cell, its
        // south faces and its north faces.
        let u_faces = cols_east.u_faces(masks, j);
        let (south, north) = (cols.v_faces(masks, j), cols.v_faces(masks, j + 1));
        w_below.fill(0.0); // interface kmax: solid boundary
        for k in (0..cfg.grid.nz).rev() {
            let dz = cfg.grid.dz[k];
            let u = cols_east.of(u, j, k);
            let (v_south, v_north) = (cols.of(v, j, k), cols.of(v, j + 1, k));
            let w = cols.of_mut(&mut w, j, k);
            for i in 0..n {
                // Open face areas include the partial-cell fractions.
                let uin = u[i] * u_faces.thickness(k, i);
                let uout = u[i + 1] * u_faces.thickness(k, i + 1);
                let vin = v_south[i] * south.thickness(k, i) * dxs_south;
                let vout = v_north[i] * north.thickness(k, i) * dxs_north;
                let hdiv = (uout - uin) * dy * dz + (vout - vin) * dz;
                let w_here = w_below[i] - hdiv / area;
                // Below the bottom: no flow (+0.0), and the carry stays
                // the solid boundary's.
                let open = wet.open(k, i);
                w[i] = select(open, w_here, 0.0);
                w_below[i] = select(open, w_here, w_below[i]);
                cells += open as u64;
            }
        }
    }
    flops::add(Phase::Ps, cells * W_FLOPS_PER_CELL);
}

/// The cell-at-a-time loops the row sweeps above replaced, kept as what
/// the sweeps are compared with, bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Evaluate buoyancy and hydrostatic pressure on the interior extended by
    /// `ext` halo rings.
    pub(crate) fn buoyancy_and_phy(
        cfg: &ModelConfig,
        tile: &Tile,
        masks: &Masks,
        state: &mut ModelState,
        ext: i64,
    ) {
        let nz = cfg.grid.nz;
        let sign = cfg.eos.hydro_sign;
        let (nx, ny) = (tile.nx as i64, tile.ny as i64);
        let mut cells = 0u64;
        for j in -ext..ny + ext {
            for i in -ext..nx + ext {
                let mut p = 0.0;
                let mut b_above = 0.0;
                for k in 0..nz {
                    if masks.c(i, j, k) == 0.0 {
                        state.phy.set(i, j, k, p);
                        continue;
                    }
                    let b = cfg
                        .eos
                        .buoyancy(state.theta.at(i, j, k), state.s.at(i, j, k), k);
                    // Midpoint rule: contribution of the half-levels flanking
                    // interface k.
                    let dz_half = if k == 0 {
                        0.5 * cfg.grid.dz[0]
                    } else {
                        0.5 * (cfg.grid.dz[k - 1] + cfg.grid.dz[k])
                    };
                    let b_mid = if k == 0 { b } else { 0.5 * (b_above + b) };
                    p += sign * b_mid * dz_half;
                    state.phy.set(i, j, k, p);
                    b_above = b;
                    cells += 1;
                }
            }
        }
        flops::add(Phase::Ps, cells * FLOPS_PER_CELL);
    }

    /// Diagnose `w` (the velocity across the interface between cell `k` and
    /// cell `k-1`, positive toward `k-1`) from the divergence of `(u, v)`,
    /// integrating from the far boundary (`w = 0` below the deepest wet cell).
    /// Computed on the interior extended by `ext` rings (requires `u`, `v`
    /// valid on `ext+1`).
    #[expect(
        clippy::too_many_arguments,
        reason = "the cell-at-a-time reference keeps the signature of the kernel it checks"
    )]
    pub(crate) fn diagnose_w(
        cfg: &ModelConfig,
        tile: &Tile,
        geom: &TileGeom,
        masks: &Masks,
        u: &Field3,
        v: &Field3,
        w: &mut Field3,
        ext: i64,
    ) {
        let nz = cfg.grid.nz;
        let (nx, ny) = (tile.nx as i64, tile.ny as i64);
        let mut cells = 0u64;
        for j in -ext..ny + ext {
            let dy = geom.dy;
            let area = geom.area_at(j);
            for i in -ext..nx + ext {
                let kmax = masks.kmax.at(i, j, 0) as usize;
                // Below the bottom: no flow.
                for k in kmax..nz {
                    w.set(i, j, k, 0.0);
                }
                if kmax == 0 {
                    continue;
                }
                let mut w_below = 0.0; // interface kmax: solid boundary
                for k in (0..kmax).rev() {
                    let dz = cfg.grid.dz[k];
                    // Open face areas include the partial-cell fractions.
                    let uin = u.at(i, j, k) * masks.hu(i, j, k);
                    let uout = u.at(i + 1, j, k) * masks.hu(i + 1, j, k);
                    let vin = v.at(i, j, k) * masks.hv(i, j, k) * geom.dxs_at(j);
                    let vout = v.at(i, j + 1, k) * masks.hv(i, j + 1, k) * geom.dxs_at(j + 1);
                    let hdiv = (uout - uin) * dy * dz + (vout - vin) * dz;
                    let w_here = w_below - hdiv / area;
                    w.set(i, j, k, w_here);
                    w_below = w_here;
                    cells += 1;
                }
            }
        }
        flops::add(Phase::Ps, cells * W_FLOPS_PER_CELL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::Decomp;
    use crate::state::ModelState;
    use crate::topography::Topography;

    fn setup() -> (ModelConfig, Tile, TileGeom, Masks, ModelState) {
        let d = Decomp::blocks(8, 8, 1, 1, 3);
        let cfg = ModelConfig::test_ocean(8, 8, 4, d);
        let tile = d.tile(0);
        let topo = Topography::aquaplanet(&cfg.grid);
        let masks = Masks::build(&cfg, &tile, &topo);
        let geom = TileGeom::build(&cfg, &tile);
        let st = ModelState::initial(&cfg, &tile, &masks);
        (cfg, tile, geom, masks, st)
    }

    #[test]
    fn phy_increases_downward_for_stratified_ocean() {
        let (cfg, tile, _geom, masks, mut st) = setup();
        buoyancy_and_phy(&cfg, &tile, &masks, &mut st, 0);
        // Warm (buoyant) surface water: b > 0 near the top; with
        // hydro_sign = -1 the perturbation pressure *decreases* downward
        // relative to the reference... it must at least be monotone and
        // finite, and zero buoyancy would give zero phy.
        for k in 0..4 {
            assert!(st.phy.at(2, 3, k).is_finite());
        }
        // Uniform reference state gives identically zero phy.
        st.theta.fill(cfg.eos.theta_ref);
        st.s.fill(cfg.eos.s_ref);
        buoyancy_and_phy(&cfg, &tile, &masks, &mut st, 0);
        for k in 0..4 {
            assert_eq!(st.phy.at(2, 3, k), 0.0);
        }
    }

    #[test]
    fn cold_column_has_higher_pressure_at_depth() {
        let (cfg, tile, _geom, masks, mut st) = setup();
        st.s.fill(cfg.eos.s_ref);
        st.theta.fill(cfg.eos.theta_ref);
        // Make column (1,1) colder (denser) than reference.
        for k in 0..4 {
            st.theta.set(1, 1, k, cfg.eos.theta_ref - 5.0);
        }
        buoyancy_and_phy(&cfg, &tile, &masks, &mut st, 0);
        // Cold column: b < 0, phy = -∫b dz > 0 and growing with depth.
        assert!(st.phy.at(1, 1, 0) > 0.0);
        assert!(st.phy.at(1, 1, 3) > st.phy.at(1, 1, 0));
        // Reference column unchanged at zero.
        assert_eq!(st.phy.at(3, 3, 3), 0.0);
    }

    #[test]
    fn w_zero_for_divergence_free_zonal_flow() {
        let (cfg, tile, geom, masks, mut st) = setup();
        // Uniform zonal flow on the periodic channel is non-divergent.
        st.u.fill(0.1);
        st.v.fill(0.0);
        diagnose_w(&cfg, &tile, &geom, &masks, &st.u, &st.v, st.w.band(), 0);
        assert!(
            st.w.interior_max_abs() < 1e-12,
            "{}",
            st.w.interior_max_abs()
        );
    }

    #[test]
    fn w_balances_convergence() {
        let (cfg, tile, geom, masks, mut st) = setup();
        // Convergent flow in one cell column: u steps from 0.1 to 0 at
        // i = 3 in level 0 only.
        for j in 0..8 {
            for i in 0..=3i64 {
                st.u.set(i, j, 0, 0.1);
            }
        }
        diagnose_w(&cfg, &tile, &geom, &masks, &st.u, &st.v, st.w.band(), 0);
        // Column (3, j): inflow at level 0 must go up through interface 0
        // (rigid lid ⇒ w(0) computed nonzero = residual divergence that
        // the surface-pressure solve would remove). Here we just verify
        // the continuity arithmetic: w at the top interface equals minus
        // the column-integrated divergence / area.
        let j = 4i64;
        let dz0 = cfg.grid.dz[0];
        let inflow = 0.1 * geom.dy * dz0;
        let expect = inflow / geom.area_at(j);
        assert!(
            (st.w.at(3, j, 0) - expect).abs() < 1e-12,
            "{} vs {expect}",
            st.w.at(3, j, 0)
        );
        // Neighbouring columns without convergence: w = 0.
        assert_eq!(st.w.at(1, j, 0), 0.0);
    }

    #[test]
    fn flops_are_counted() {
        let (cfg, tile, _geom, masks, mut st) = setup();
        crate::flops::reset();
        buoyancy_and_phy(&cfg, &tile, &masks, &mut st, 0);
        let (ps, ds) = crate::flops::read();
        assert_eq!(ps, 8 * 8 * 4 * FLOPS_PER_CELL);
        assert_eq!(ds, 0);
        crate::flops::reset();
    }
}

#[cfg(test)]
mod sweep_tests {
    use super::*;
    use crate::kernel::fixtures::{cases, Case};

    // `Model::step` uses `ext = 2`; the cell-local kernel can go to 3.
    #[test]
    fn buoyancy_and_phy_sweep_matches_the_reference_bit_for_bit() {
        for case in cases() {
            let Case {
                cfg, tile, masks, ..
            } = &case;
            for ext in 0..=3 {
                case.check(
                    &format!("buoyancy_and_phy, ext {ext}"),
                    |st, _| buoyancy_and_phy(cfg, tile, masks, st, ext),
                    |st, _| reference::buoyancy_and_phy(cfg, tile, masks, st, ext),
                );
            }
        }
    }

    // `Model::step` uses `ext = 0`, the gterms tests 1; the stencil
    // reaches one column east and one row north, so 2 is the limit.
    #[test]
    fn diagnose_w_sweep_matches_the_reference_bit_for_bit() {
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
                    &format!("diagnose_w, ext {ext}"),
                    |st, _| diagnose_w(cfg, tile, geom, masks, &st.u, &st.v, st.w.band(), ext),
                    |st, _| {
                        reference::diagnose_w(cfg, tile, geom, masks, &st.u, &st.v, &mut st.w, ext)
                    },
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside field")]
    fn buoyancy_and_phy_beyond_the_halo_panics() {
        let case = cases().swap_remove(0);
        let mut st = case.state.clone();
        buoyancy_and_phy(&case.cfg, &case.tile, &case.masks, &mut st, 4);
    }

    #[test]
    #[should_panic(expected = "outside field")]
    fn diagnose_w_beyond_the_halo_panics() {
        let case = cases().swap_remove(0);
        let mut w = case.state.w.clone();
        let Case {
            cfg,
            tile,
            geom,
            masks,
            state,
            ..
        } = &case;
        diagnose_w(cfg, tile, geom, masks, &state.u, &state.v, w.band(), 3);
    }
}
