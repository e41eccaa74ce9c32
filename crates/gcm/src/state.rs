//! Per-tile model state, masks, and initial conditions.

use crate::config::ModelConfig;
use crate::eos::FluidKind;
use crate::field::{Band, Field3};
use crate::kernel::{band_split, in_bands, in_column, thickness, wet};
use crate::tile::Tile;
use crate::topography::Topography;
use std::ops::Range;

/// Land/wet masks and column geometry on a tile (including halo, built
/// directly from the global topography so no exchange is needed).
///
/// A column of the topography is wet from the top down to its `kmax`-th
/// level, and only its deepest wet cell can be shaved (§3.2), so a tile
/// stores per column what is per column: the wet levels and the thickness
/// fraction of the bottom cell — of each cell's column, and of each west
/// and south face's, which is open where both its cells are. The six 3-D
/// masks of the finite-volume scheme are views of these pairs
/// (`kernel::wet`, `kernel::thickness`): a sweep builds each value inline
/// from the pairs' rows, a cell-at-a-time loop asks for a cell
/// ([`Masks::c`] and the rest).
#[derive(Clone, Debug)]
pub struct Masks {
    /// Wet levels per column.
    pub kmax: Field3,
    /// Thickness fraction of each column's deepest wet cell (1.0 on a
    /// full cell, 0.0 on land).
    pub(crate) bottom: Field3,
    /// Wet levels of each west face (u-point): those of the shallower of
    /// its two columns.
    pub(crate) kmax_u: Field3,
    /// Open fraction of each west face's deepest wet level: the smaller
    /// thickness fraction of its two cells there.
    pub(crate) bottom_u: Field3,
    /// The same for each south face (v-point).
    pub(crate) kmax_v: Field3,
    pub(crate) bottom_v: Field3,
    /// Fluid depth per column (m, or Pa for the atmosphere isomorph).
    pub depth: Field3,
    /// Number of wet interior cells on this tile.
    pub wet_cells: u64,
    wet_columns: u64,
}

/// The face between the columns `(kmax, bottom)` of its two cells: the
/// levels both are wet on, and on the deepest of them the smaller of the
/// two cells' thickness fractions — the shallower column's bottom
/// fraction, or the smaller of the two bottom fractions where both end
/// there (a cell above its column's bottom is full).
fn face((ka, ba): (f64, f64), (kb, bb): (f64, f64)) -> (f64, f64) {
    if ka < kb {
        (ka, ba)
    } else if kb < ka {
        (kb, bb)
    } else {
        (ka, ba.min(bb))
    }
}

impl Masks {
    /// Each column of the tile and its halo, and the columns west and
    /// south of it, looked up in the topography.
    pub fn build(cfg: &ModelConfig, tile: &Tile, topo: &Topography) -> Masks {
        let (nx, ny, nz, h) = (tile.nx, tile.ny, cfg.grid.nz, tile.halo);
        let plane = || Field3::new(nx, ny, 1, h);
        let (mut kmax, mut bottom, mut depth) = (plane(), plane(), plane());
        let (mut kmax_u, mut bottom_u, mut kmax_v, mut bottom_v) =
            (plane(), plane(), plane(), plane());
        let column = |gi: i64, gj: i64| {
            let levels = topo.kmax(gi, gj);
            let bottom = match levels {
                0 => 0.0,
                _ => topo.hfac(gi, gj, levels as usize - 1),
            };
            (levels as f64, bottom)
        };
        let hi = h as i64;
        for j in -hi..ny as i64 + hi {
            for i in -hi..nx as i64 + hi {
                let (gi, gj) = (tile.gx(i), tile.gy(j));
                let here = column(gi, gj);
                let (west, south) = (
                    face(here, column(gi - 1, gj)),
                    face(here, column(gi, gj - 1)),
                );
                let pairs = [
                    (&mut kmax, &mut bottom, here),
                    (&mut kmax_u, &mut bottom_u, west),
                    (&mut kmax_v, &mut bottom_v, south),
                ];
                for (levels, fraction, (l, f)) in pairs {
                    levels.set(i, j, 0, l);
                    fraction.set(i, j, 0, f);
                }
                depth.set(i, j, 0, topo.depth(&cfg.grid, gi, gj));
            }
        }
        // A column has its top `kmax` levels wet.
        let levels = || kmax.interior().map(|(i, j, _)| kmax.at(i, j, 0) as u64);
        let wet_cells = levels().map(|l| l.min(nz as u64)).sum();
        let wet_columns = levels().filter(|&l| l > 0).count() as u64;
        Masks {
            kmax,
            bottom,
            kmax_u,
            bottom_u,
            kmax_v,
            bottom_v,
            depth,
            wet_cells,
            wet_columns,
        }
    }

    /// Number of wet columns on this tile (DS works on the vertically
    /// integrated 2-D state).
    pub fn wet_columns(&self) -> u64 {
        self.wet_columns
    }

    /// Cell-centre wet mask of cell `(i, j, k)` (1.0 wet / 0.0 land).
    pub fn c(&self, i: i64, j: i64, k: usize) -> f64 {
        wet(k, self.kmax.at(i, j, 0))
    }

    /// West-face (u-point) mask: 1.0 where both cells are wet.
    pub fn u(&self, i: i64, j: i64, k: usize) -> f64 {
        wet(k, self.kmax_u.at(i, j, 0))
    }

    /// South-face (v-point) mask: 1.0 where both cells are wet.
    pub fn v(&self, i: i64, j: i64, k: usize) -> f64 {
        wet(k, self.kmax_v.at(i, j, 0))
    }

    /// Cell thickness factor: 1.0 above the column's bottom cell, the
    /// shaved fraction on it, 0.0 on land — the §3.2 partial cells.
    pub fn hc(&self, i: i64, j: i64, k: usize) -> f64 {
        thickness(k, self.kmax.at(i, j, 0), self.bottom.at(i, j, 0))
    }

    /// Open fraction of the west face: the smaller `hc` of its two cells.
    pub fn hu(&self, i: i64, j: i64, k: usize) -> f64 {
        thickness(k, self.kmax_u.at(i, j, 0), self.bottom_u.at(i, j, 0))
    }

    /// Open fraction of the south face, likewise.
    pub fn hv(&self, i: i64, j: i64, k: usize) -> f64 {
        thickness(k, self.kmax_v.at(i, j, 0), self.bottom_v.at(i, j, 0))
    }
}

/// A band's levels, halo width and columns (halo included), which the
/// set-up sweeps its bands by. Taken from the tile, the same numbers would
/// reach the row accessors the solver shares: `hyades-lint` summarises a
/// function once for all its callers and sees the tile as rank-dependent,
/// so the solver's rows would look rank-dependent to it (DESIGN §20).
fn band_indices(band: &Band<'_>) -> (usize, i64, Range<i64>) {
    let (h, nx) = (band.halo() as i64, band.nx() as i64);
    (band.nz(), h, -h..nx + h)
}

/// The rows of `θ` and `s` the bands hold, at rest with a stable
/// stratification; `cos2` is `cos²` of each row's latitude.
fn initial_rows(
    cfg: &ModelConfig,
    tile: &Tile,
    masks: &Masks,
    cos2: &[f64],
    [mut theta, mut s]: [Band<'_>; 2],
) {
    let (levels, halo, is) = band_indices(&theta);
    for k in 0..levels {
        let z = cfg.grid.z_center(k);
        let (decay_t, decay_s) = ((-z / 1000.0).exp(), (-z / 500.0).exp());
        let frac = (k as f64 + 0.5) / levels as f64;
        for j in theta.rows(halo) {
            let cos2 = cos2[(j + halo) as usize];
            let kmax = masks.kmax.row(j, 0, is.clone());
            let (theta, s) = (theta.row_mut(j, k, is.clone()), s.row_mut(j, k, is.clone()));
            for (n, i) in is
                .clone()
                .enumerate()
                .filter(|&(n, _)| in_column(k, kmax[n]))
            {
                let pert = 0.05 * perturbation(cfg.seed, tile.gx(i), tile.gy(j), k);
                (theta[n], s[n]) = match cfg.eos.kind {
                    FluidKind::Ocean => {
                        // Warm surface, cold abyss; meridional gradient
                        // confined to the upper levels.
                        let surface = 2.0 + 25.0 * cos2;
                        let t = 2.0 + (surface - 2.0) * decay_t;
                        (t + pert, 35.0 + 0.5 * decay_s)
                    }
                    FluidKind::Atmosphere => {
                        // θ increasing with height (stable), warm equator.
                        let t = 270.0 + 45.0 * frac + 25.0 * cos2 * (1.0 - frac);
                        (t + pert, 0.010 * cos2 * (1.0 - frac).max(0.0))
                    }
                };
            }
        }
    }
}

/// Prognostic and diagnostic fields of one tile.
#[derive(Clone, Debug)]
pub struct ModelState {
    /// Zonal velocity at west faces (m/s).
    pub u: Field3,
    /// Meridional velocity at south faces (m/s).
    pub v: Field3,
    /// Vertical velocity at the top interface of each cell (m/s, or Pa/s
    /// for the atmosphere).
    pub w: Field3,
    /// Potential temperature (K / °C).
    pub theta: Field3,
    /// Second tracer: salinity (psu) or specific humidity (kg/kg).
    pub s: Field3,
    /// Adams–Bashforth history: tendencies from the previous step.
    pub gu_prev: Field3,
    pub gv_prev: Field3,
    pub gt_prev: Field3,
    pub gs_prev: Field3,
    /// Surface pressure / surface geopotential (m²/s², i.e. p/ρ0).
    pub ps: Field3,
    /// Hydrostatic pressure / geopotential anomaly at cell centres.
    pub phy: Field3,
    /// True until the first step has run (the AB2 history is empty and the
    /// step runs forward-Euler).
    pub first_step: bool,
}

/// Deterministic, decomposition-independent perturbation in `[-1, 1]`
/// keyed by global cell index.
pub fn perturbation(seed: u64, gi: i64, gj: i64, k: usize) -> f64 {
    let mut z = seed
        ^ (gi as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (gj as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ (k as u64).wrapping_mul(0x1656_67B1_9E37_79F9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

impl ModelState {
    /// State at rest with a stably-stratified temperature field, a uniform
    /// second tracer, and a small deterministic perturbation to break
    /// zonal symmetry.
    pub fn initial(cfg: &ModelConfig, tile: &Tile, masks: &Masks) -> ModelState {
        ModelState::initial_split(cfg, tile, masks, band_split(tile, cfg.grid.nz))
    }

    /// [`initial`](ModelState::initial) whole (`None`) or split at row
    /// `mid`.
    pub(crate) fn initial_split(
        cfg: &ModelConfig,
        tile: &Tile,
        masks: &Masks,
        mid: Option<i64>,
    ) -> ModelState {
        let (nx, ny, nz, h) = (tile.nx, tile.ny, cfg.grid.nz, tile.halo);
        let f3 = || Field3::new(nx, ny, nz, h);
        let mut st = ModelState {
            u: f3(),
            v: f3(),
            w: f3(),
            theta: f3(),
            s: f3(),
            gu_prev: f3(),
            gv_prev: f3(),
            gt_prev: f3(),
            gs_prev: f3(),
            ps: Field3::new(nx, ny, 1, h),
            phy: f3(),
            first_step: true,
        };
        // Level by level and row by row, as two bands of rows on a large
        // tile: `cos²` of the row's latitude and the level's profile are
        // evaluated once.
        let hi = h as i64;
        let cos2: Vec<f64> = (-hi..(ny as i64 + hi))
            .map(|j| {
                let lat = cfg.grid.lat_c(tile.gy(j).clamp(0, cfg.grid.ny as i64 - 1));
                lat.cos().powi(2)
            })
            .collect();
        in_bands(mid, [st.theta.band(), st.s.band()], |bands| {
            initial_rows(cfg, tile, masks, &cos2, bands)
        });
        st
    }

    /// All prognostic fields finite?
    pub fn is_finite(&self) -> bool {
        self.u.all_finite()
            && self.v.all_finite()
            && self.w.all_finite()
            && self.theta.all_finite()
            && self.s.all_finite()
    }
}

/// The cell-at-a-time loops the level-major set-up replaced, kept as what
/// it is compared with, bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// The six masks as 3-D fields (tile and halo), and the columns' wet
    /// levels and depths, expanded cell by cell from the topography.
    pub(crate) struct Expanded {
        pub c: Field3,
        pub u: Field3,
        pub v: Field3,
        pub hc: Field3,
        pub hu: Field3,
        pub hv: Field3,
        pub kmax: Field3,
        pub depth: Field3,
        pub wet_cells: u64,
        pub wet_columns: u64,
    }

    pub(crate) fn masks(cfg: &ModelConfig, tile: &Tile, topo: &Topography) -> Expanded {
        let (nx, ny, nz, h) = (tile.nx, tile.ny, cfg.grid.nz, tile.halo);
        let mut c = Field3::new(nx, ny, nz, h);
        let mut u = Field3::new(nx, ny, nz, h);
        let mut v = Field3::new(nx, ny, nz, h);
        let mut hc = Field3::new(nx, ny, nz, h);
        let mut hu = Field3::new(nx, ny, nz, h);
        let mut hv = Field3::new(nx, ny, nz, h);
        let mut kmax = Field3::new(nx, ny, 1, h);
        let mut depth = Field3::new(nx, ny, 1, h);
        let hi = h as i64;
        for j in -hi..(ny as i64 + hi) {
            for i in -hi..(nx as i64 + hi) {
                let (gi, gj) = (tile.gx(i), tile.gy(j));
                kmax.set(i, j, 0, topo.kmax(gi, gj) as f64);
                depth.set(i, j, 0, topo.depth(&cfg.grid, gi, gj));
                for k in 0..nz {
                    let wc = topo.wet(gi, gj, k);
                    c.set(i, j, k, wc as u8 as f64);
                    let wu = wc && topo.wet(gi - 1, gj, k);
                    u.set(i, j, k, wu as u8 as f64);
                    let wv = wc && topo.wet(gi, gj - 1, k);
                    v.set(i, j, k, wv as u8 as f64);
                    // Partial-cell factors (1.0 on full cells).
                    let fc = topo.hfac(gi, gj, k);
                    hc.set(i, j, k, fc);
                    hu.set(i, j, k, fc.min(topo.hfac(gi - 1, gj, k)));
                    hv.set(i, j, k, fc.min(topo.hfac(gi, gj - 1, k)));
                }
            }
        }
        let mut wet_cells = 0;
        for (i, j, k) in c.interior() {
            if c.at(i, j, k) > 0.0 {
                wet_cells += 1;
            }
        }
        let wet_columns = kmax
            .interior()
            .filter(|&(i, j, _)| kmax.at(i, j, 0) > 0.0)
            .count() as u64;
        Expanded {
            c,
            u,
            v,
            hc,
            hu,
            hv,
            kmax,
            depth,
            wet_cells,
            wet_columns,
        }
    }

    pub(crate) fn initial(cfg: &ModelConfig, tile: &Tile, masks: &Masks) -> ModelState {
        let (nx, ny, nz, h) = (tile.nx, tile.ny, cfg.grid.nz, tile.halo);
        // Only θ and s start other than at zero.
        let mut st = ModelState::initial(cfg, tile, masks);
        st.theta = Field3::new(nx, ny, nz, h);
        st.s = Field3::new(nx, ny, nz, h);
        let hi = h as i64;
        for j in -hi..(ny as i64 + hi) {
            for i in -hi..(nx as i64 + hi) {
                let (gi, gj) = (tile.gx(i), tile.gy(j));
                let lat = cfg.grid.lat_c(tile.gy(j).clamp(0, cfg.grid.ny as i64 - 1));
                for k in 0..nz {
                    if masks.c(i, j, k) == 0.0 {
                        continue;
                    }
                    let pert = 0.05 * perturbation(cfg.seed, gi, gj, k);
                    let (theta, s) = match cfg.eos.kind {
                        FluidKind::Ocean => {
                            let z = cfg.grid.z_center(k);
                            let surface = 2.0 + 25.0 * lat.cos().powi(2);
                            let t = 2.0 + (surface - 2.0) * (-z / 1000.0).exp();
                            (t + pert, 35.0 + 0.5 * (-z / 500.0).exp())
                        }
                        FluidKind::Atmosphere => {
                            let frac = (k as f64 + 0.5) / nz as f64;
                            let t = 270.0 + 45.0 * frac + 25.0 * lat.cos().powi(2) * (1.0 - frac);
                            (t + pert, 0.010 * lat.cos().powi(2) * (1.0 - frac).max(0.0))
                        }
                    };
                    st.theta.set(i, j, k, theta);
                    st.s.set(i, j, k, s);
                }
            }
        }
        st
    }
}

#[cfg(test)]
mod set_up_tests {
    use super::*;
    use crate::decomp::Decomp;
    use crate::kernel::fixtures::cases;
    use crate::kernel::Cols;

    fn bits<'a>(fields: impl IntoIterator<Item = &'a [f64]>) -> Vec<u64> {
        fields.into_iter().flatten().map(|x| x.to_bits()).collect()
    }

    /// A mask of a cell, as a cell-at-a-time loop asks for it.
    type Cell = fn(&Masks, i64, i64, usize) -> f64;
    /// A mask of cell `i` of a row `j` of columns on level `k`, as a sweep
    /// builds it.
    type Row = fn(&Cols, &Masks, i64, usize, usize) -> f64;

    /// Every value of the six masks, halo included, from the cell
    /// accessors and from the rows of columns the sweeps build them from,
    /// against the cell-at-a-time expansion from the topography; and the
    /// columns' wet levels, depths and wet counts.
    fn assert_views_match_the_expansion(cfg: &ModelConfig, tile: &Tile, topo: &Topography) {
        let (got, want) = (
            Masks::build(cfg, tile, topo),
            reference::masks(cfg, tile, topo),
        );
        let h = tile.halo as i64;
        let cols = Cols::new(tile.nx, h);
        let (is, js) = (-h..tile.nx as i64 + h, -h..tile.ny as i64 + h);
        let label = format!(
            "{}x{} tile at ({}, {})",
            tile.nx, tile.ny, tile.gx0, tile.gy0
        );
        let masks: [(&str, &Field3, Cell, Row); 6] = [
            ("c", &want.c, Masks::c, |cols, m, j, k, i| {
                cols.cells(m, j).wet(k, i)
            }),
            ("u", &want.u, Masks::u, |cols, m, j, k, i| {
                cols.u_faces(m, j).wet(k, i)
            }),
            ("v", &want.v, Masks::v, |cols, m, j, k, i| {
                cols.v_faces(m, j).wet(k, i)
            }),
            ("hc", &want.hc, Masks::hc, |cols, m, j, k, i| {
                cols.cells(m, j).thickness(k, i)
            }),
            ("hu", &want.hu, Masks::hu, |cols, m, j, k, i| {
                cols.u_faces(m, j).thickness(k, i)
            }),
            ("hv", &want.hv, Masks::hv, |cols, m, j, k, i| {
                cols.v_faces(m, j).thickness(k, i)
            }),
        ];
        for (name, expanded, cell, row) in masks {
            for k in 0..cfg.grid.nz {
                for j in js.clone() {
                    let want = bits([expanded.row(j, k, is.clone())]);
                    let cells: Vec<u64> =
                        is.clone().map(|i| cell(&got, i, j, k).to_bits()).collect();
                    assert_eq!(
                        cells, want,
                        "{label}: {name} of the cells of row {j}, level {k}"
                    );
                    let rows: Vec<u64> = (0..cols.n)
                        .map(|i| row(&cols, &got, j, k, i).to_bits())
                        .collect();
                    assert_eq!(rows, want, "{label}: {name} of row {j}, level {k}");
                }
            }
        }
        assert_eq!(
            bits([got.kmax.raw()]),
            bits([want.kmax.raw()]),
            "{label}: kmax"
        );
        assert_eq!(
            bits([got.depth.raw()]),
            bits([want.depth.raw()]),
            "{label}: depth"
        );
        assert_eq!(
            (got.wet_cells, got.wet_columns),
            (want.wet_cells, want.wet_columns),
            "{label}"
        );
    }

    /// The staircase, the scattered land and the continents of the kernel
    /// fixtures, both fluids, with and without holes.
    #[test]
    fn masks_are_the_cell_by_cell_expansion_on_the_fixtures() {
        for case in cases() {
            assert_views_match_the_expansion(&case.cfg, &case.tile, &case.topo);
        }
    }

    /// The 2.8125° ocean with continents whole and cut 2 × 2, and the 1°
    /// ocean's tile.
    #[test]
    fn masks_are_the_cell_by_cell_expansion_on_the_paper_grids() {
        for (cfg, tiles) in [
            (
                ModelConfig::ocean_2p8125(Decomp::blocks(128, 64, 1, 1, 3)),
                1,
            ),
            (
                ModelConfig::ocean_2p8125(Decomp::blocks(128, 64, 2, 2, 3)),
                4,
            ),
            (
                ModelConfig::ocean_1deg(Decomp::blocks(360, 160, 1, 1, 3)),
                1,
            ),
        ] {
            let topo = Topography::idealized_continents(&cfg.grid);
            for rank in 0..tiles {
                assert_views_match_the_expansion(&cfg, &cfg.decomp.tile(rank), &topo);
            }
        }
    }

    /// Every word of the initial state, halo included, against the
    /// cell-at-a-time loop.
    #[test]
    fn level_major_set_up_matches_the_reference_bit_for_bit() {
        let state = |st: &ModelState| bits([st.theta.raw(), st.s.raw()]);
        for case in cases() {
            let (cfg, tile, label) = (&case.cfg, &case.tile, &case.label);
            let (got, want) = (
                ModelState::initial(cfg, tile, &case.masks),
                reference::initial(cfg, tile, &case.masks),
            );
            assert!(
                state(&got) == state(&want),
                "{label}: initial state differs"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::Decomp;
    use crate::topography::Topography;

    fn setup() -> (ModelConfig, Tile, Masks) {
        let d = Decomp::blocks(16, 8, 1, 1, 3);
        let cfg = ModelConfig::test_ocean(16, 8, 4, d);
        let tile = d.tile(0);
        let topo = Topography::aquaplanet(&cfg.grid);
        let masks = Masks::build(&cfg, &tile, &topo);
        (cfg, tile, masks)
    }

    #[test]
    fn masks_on_aquaplanet() {
        let (cfg, tile, masks) = setup();
        assert_eq!(masks.wet_cells, (16 * 8 * 4) as u64);
        // Interior cells wet; u faces wet (periodic).
        assert_eq!(masks.c(0, 0, 0), 1.0);
        assert_eq!(masks.u(0, 0, 0), 1.0);
        // v face at the southern wall is land-masked (j-1 outside).
        assert_eq!(masks.v(3, 0, 0), 0.0);
        assert_eq!(masks.v(3, 1, 0), 1.0);
        // Halo rows beyond the wall are land.
        assert_eq!(masks.c(3, -1, 0), 0.0);
        let _ = (cfg, tile);
    }

    #[test]
    fn initial_state_is_stably_stratified() {
        let (cfg, tile, masks) = setup();
        let st = ModelState::initial(&cfg, &tile, &masks);
        // Ocean: buoyancy must decrease with depth almost everywhere (the
        // 0.05 K perturbation cannot overturn a ~1 K/level gradient).
        let mut violations = 0;
        for j in 0..8i64 {
            for i in 0..16i64 {
                for k in 0..3usize {
                    let b0 = cfg.eos.buoyancy(st.theta.at(i, j, k), st.s.at(i, j, k), k);
                    let b1 =
                        cfg.eos
                            .buoyancy(st.theta.at(i, j, k + 1), st.s.at(i, j, k + 1), k + 1);
                    if cfg.eos.unstable(b0, b1) {
                        violations += 1;
                    }
                }
            }
        }
        assert_eq!(violations, 0);
        assert!(st.is_finite());
        assert!(st.first_step);
    }

    #[test]
    fn initial_state_at_rest() {
        let (cfg, tile, masks) = setup();
        let st = ModelState::initial(&cfg, &tile, &masks);
        assert_eq!(st.u.interior_max_abs(), 0.0);
        assert_eq!(st.v.interior_max_abs(), 0.0);
        assert_eq!(st.ps.interior_max_abs(), 0.0);
    }

    #[test]
    fn initial_state_does_not_depend_on_the_cut() {
        // One tile of a 4×2 cut against the same cells of a single tile.
        let initial = |d: Decomp, rank: usize| {
            let cfg = ModelConfig::test_ocean(16, 8, 3, d);
            let tile = d.tile(rank);
            let masks = Masks::build(&cfg, &tile, &Topography::aquaplanet(&cfg.grid));
            let state = ModelState::initial(&cfg, &tile, &masks);
            (tile, state)
        };
        let (_, whole) = initial(Decomp::blocks(16, 8, 1, 1, 3), 0);
        let (tile, part) = initial(Decomp::blocks(16, 8, 4, 2, 3), 5);
        assert_eq!((tile.gx0, tile.gy0, tile.nx, tile.ny), (4, 4, 4, 4));
        let (dx, dy) = (tile.gx0 as i64, tile.gy0 as i64);
        for (i, j, k) in part.theta.interior() {
            for (p, w) in [(&part.theta, &whole.theta), (&part.s, &whole.s)] {
                let (a, b) = (p.at(i, j, k), w.at(i + dx, j + dy, k));
                assert_eq!(a.to_bits(), b.to_bits(), "cell ({i}, {j}, {k})");
            }
        }
    }

    #[test]
    fn perturbation_is_deterministic_and_bounded() {
        for gi in [-3i64, 0, 7, 127] {
            for gj in [0i64, 5] {
                let a = perturbation(42, gi, gj, 2);
                let b = perturbation(42, gi, gj, 2);
                assert_eq!(a, b);
                assert!((-1.0..=1.0).contains(&a));
                assert_ne!(a, perturbation(43, gi, gj, 2));
            }
        }
    }

    #[test]
    fn atmosphere_initial_profile() {
        let d = Decomp::blocks(128, 64, 1, 1, 3);
        let cfg = ModelConfig::atmosphere_2p8125(d);
        let tile = d.tile(0);
        let topo = Topography::aquaplanet(&cfg.grid);
        let masks = Masks::build(&cfg, &tile, &topo);
        let st = ModelState::initial(&cfg, &tile, &masks);
        // θ increases with height (stable) and is warmer at the equator
        // near the surface.
        let eq = 32i64;
        let pole = 2i64;
        assert!(st.theta.at(0, eq, 4) > st.theta.at(0, eq, 0));
        assert!(st.theta.at(0, eq, 0) > st.theta.at(0, pole, 0));
        // Humidity is confined to the warm lower levels.
        assert!(st.s.at(0, eq, 0) > st.s.at(0, eq, 4));
    }
}
