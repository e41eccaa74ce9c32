//! Topography: sculpting the model grid to land masses (§3.2).
//!
//! As in the MITgcm, cells are shaved/partial (Adcroft et al. 1997): each
//! column carries a wet-level count `kmax(i,j)` (0 = land) and the
//! thickness fraction of its deepest wet cell, from which the cell and
//! face masks, the open fractions of cells and faces, and the depth field
//! `H` of the surface-pressure equation are derived.

use crate::grid::Grid;

/// Fixed-point denominator for the bottom-cell thickness fraction:
/// `hfrac` stores `round(fraction * HFRAC_ONE)`, so 1.0 and 0.5 are
/// exact and the worst quantization error is 2^-16 of a cell — while
/// keeping the mask at half the footprint of an f64 (the reason the
/// field was f32 before; u16 halves it again and keeps the GCM free of
/// reduced-precision floats).
const HFRAC_ONE: u16 = 1 << 15;

/// Global topography: wet levels per column, with an optional fractional
/// thickness for the bottom cell ("partial/shaved cells", Adcroft, Hill &
/// Marshall 1997 — the paper's §3.2: "the finite volume scheme allows
/// both the face area and the volume of a cell that is open to flow to
/// vary in space, so that the volumes can be made to fit irregular
/// geometries").
#[derive(Clone, Debug)]
pub struct Topography {
    nx: usize,
    ny: usize,
    kmax: Vec<u16>,
    /// Thickness fraction of the deepest wet cell, in fixed-point units
    /// of [`HFRAC_ONE`] (`HFRAC_ONE` = full cell).
    hfrac: Vec<u16>,
}

impl Topography {
    /// All-ocean planet (the atmosphere isomorph always uses this: its
    /// "depth" is the full mass of the air column).
    pub fn aquaplanet(grid: &Grid) -> Topography {
        Topography {
            nx: grid.nx,
            ny: grid.ny,
            kmax: vec![grid.nz as u16; grid.nx * grid.ny],
            hfrac: vec![HFRAC_ONE; grid.nx * grid.ny],
        }
    }

    /// Idealized continents: two meridional land bars (an "Americas" bar
    /// and an "Afro-Eurasia" bar) splitting the ocean into two basins
    /// connected by a circumpolar channel in the south, plus a shelf
    /// (reduced depth) along the land margins. A caricature of Figure 4's
    /// irregular geometry that exercises masked cells, varying `H`, and
    /// basin boundaries.
    pub fn idealized_continents(grid: &Grid) -> Topography {
        let nx = grid.nx;
        let ny = grid.ny;
        let mut kmax = vec![grid.nz as u16; nx * ny];
        let bar = |frac: f64| -> usize { (frac * nx as f64) as usize };
        let bar1 = bar(0.25); // "Americas"
        let bar2 = bar(0.70); // "Afro-Eurasia"
        let bar2_w = bar(0.12).max(2);
        for j in 0..ny {
            let lat = grid.lat_c(j as i64).to_degrees();
            for i in 0..nx {
                let in_bar1 = i >= bar1 && i < bar1 + 2 && lat > -55.0;
                let in_bar2 = i >= bar2 && i < bar2 + bar2_w && lat > -35.0 && lat < 65.0;
                let idx = j * nx + i;
                if in_bar1 || in_bar2 {
                    kmax[idx] = 0;
                } else {
                    // Continental shelf: half depth next to land.
                    let near_bar = (i + 1 >= bar1 && i < bar1 + 3 && lat > -55.0)
                        || (i + 1 >= bar2 && i < bar2 + bar2_w + 1 && lat > -35.0 && lat < 65.0);
                    if near_bar && kmax[idx] > 0 {
                        kmax[idx] = (grid.nz as u16 / 2).max(1);
                    }
                }
            }
        }
        let hfrac = vec![HFRAC_ONE; nx * ny];
        Topography {
            nx,
            ny,
            kmax,
            hfrac,
        }
    }

    /// Build from a continuous depth field using partial bottom cells:
    /// each column's deepest wet cell is shaved to match `depth_of(i, j)`
    /// exactly (down to `hfac_min` of a level; shallower columns become
    /// land). This is the §3.2 mechanism that lets the grid "fit irregular
    /// geometries" without staircase error.
    pub fn from_depths(
        grid: &Grid,
        hfac_min: f64,
        depth_of: impl Fn(usize, usize) -> f64,
    ) -> Topography {
        let (nx, ny) = (grid.nx, grid.ny);
        let mut kmax = vec![0u16; nx * ny];
        let mut hfrac = vec![HFRAC_ONE; nx * ny];
        for j in 0..ny {
            for i in 0..nx {
                let target = depth_of(i, j).max(0.0);
                let idx = j * nx + i;
                let mut remaining = target;
                let mut k = 0usize;
                while k < grid.nz && remaining >= grid.dz[k] {
                    remaining -= grid.dz[k];
                    k += 1;
                }
                if k < grid.nz && remaining >= hfac_min * grid.dz[k] {
                    // Shave the bottom cell to the leftover depth.
                    kmax[idx] = (k + 1) as u16;
                    hfrac[idx] = ((remaining / grid.dz[k]) * HFRAC_ONE as f64).round() as u16;
                } else {
                    kmax[idx] = k as u16;
                    hfrac[idx] = HFRAC_ONE;
                }
            }
        }
        Topography {
            nx,
            ny,
            kmax,
            hfrac,
        }
    }

    /// An idealized smooth basin: a mid-ocean ridge plus sloping shelves —
    /// continuous bathymetry that exercises the partial cells.
    pub fn smooth_ridge(grid: &Grid) -> Topography {
        let full = grid.full_depth();
        let (nx, ny) = (grid.nx, grid.ny);
        Topography::from_depths(grid, 0.2, |i, j| {
            let x = i as f64 / nx as f64;
            let y = j as f64 / ny as f64;
            // Ridge at x = 0.5, shallowing toward the y walls.
            let ridge = 1.0 - 0.55 * (-((x - 0.5) / 0.08).powi(2)).exp();
            let shelf = (4.0 * y.min(1.0 - y)).min(1.0);
            full * ridge * (0.15 + 0.85 * shelf)
        })
    }

    /// Wet levels at global column `(i, j)`; x wraps periodically, y
    /// outside the domain is land (the polar walls).
    pub fn kmax(&self, i: i64, j: i64) -> u16 {
        if j < 0 || j >= self.ny as i64 {
            return 0;
        }
        let i = i.rem_euclid(self.nx as i64) as usize;
        self.kmax[j as usize * self.nx + i]
    }

    /// Is cell `(i, j, k)` wet?
    pub fn wet(&self, i: i64, j: i64, k: usize) -> bool {
        (k as u16) < self.kmax(i, j)
    }

    /// Thickness fraction of cell `(i, j, k)`: 1 for interior wet cells,
    /// the shaved fraction for the bottom cell, 0 for land.
    pub fn hfac(&self, i: i64, j: i64, k: usize) -> f64 {
        let km = self.kmax(i, j);
        if (k as u16) >= km {
            0.0
        } else if (k as u16) + 1 == km {
            let ii = i.rem_euclid(self.nx as i64) as usize;
            if j < 0 || j >= self.ny as i64 {
                return 0.0;
            }
            self.hfrac[j as usize * self.nx + ii] as f64 / HFRAC_ONE as f64
        } else {
            1.0
        }
    }

    /// Fluid depth of column `(i, j)` (m), including the shaved bottom
    /// cell.
    pub fn depth(&self, grid: &Grid, i: i64, j: i64) -> f64 {
        let km = self.kmax(i, j) as usize;
        if km == 0 {
            return 0.0;
        }
        let full: f64 = grid.dz[..km - 1].iter().sum();
        full + grid.dz[km - 1] * self.hfac(i, j, km - 1)
    }

    /// Total number of wet cells.
    pub fn wet_cells(&self) -> u64 {
        self.kmax.iter().map(|&k| k as u64).sum()
    }

    /// Cut column `(i, j)` to its top `levels` wet levels, if it has more;
    /// its new bottom cell is a full one.
    #[cfg(test)]
    pub(crate) fn cut(&mut self, i: usize, j: usize, levels: u16) {
        let column = j * self.nx + i;
        if levels < self.kmax[column] {
            self.kmax[column] = levels;
            self.hfrac[column] = HFRAC_ONE;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::uniform_levels;

    fn grid() -> Grid {
        Grid::coupled_2p8125(5, uniform_levels(5, 1e4))
    }

    #[test]
    fn aquaplanet_all_wet() {
        let g = grid();
        let t = Topography::aquaplanet(&g);
        assert_eq!(t.wet_cells(), (128 * 64 * 5) as u64);
        assert!(t.wet(0, 0, 4));
        assert!(!t.wet(0, 0, 5));
    }

    #[test]
    fn polar_walls_are_land() {
        let g = grid();
        let t = Topography::aquaplanet(&g);
        assert_eq!(t.kmax(5, -1), 0);
        assert_eq!(t.kmax(5, 64), 0);
        assert!(t.kmax(5, 0) > 0);
    }

    #[test]
    fn x_wraps_periodically() {
        let g = grid();
        let t = Topography::idealized_continents(&g);
        assert_eq!(t.kmax(-1, 10), t.kmax(127, 10));
        assert_eq!(t.kmax(128, 10), t.kmax(0, 10));
    }

    #[test]
    fn continents_block_flow_but_leave_channel() {
        let g = grid();
        let t = Topography::idealized_continents(&g);
        // Land exists.
        let wet = t.kmax.iter().filter(|&&k| k > 0).count() as f64 / t.kmax.len() as f64;
        assert!(wet < 1.0);
        assert!(wet > 0.6, "mostly ocean");
        // Southern-ocean row is circumpolar (all wet): pick a row near
        // -60° latitude.
        let j_south = (0..64)
            .find(|&j| g.lat_c(j as i64).to_degrees() > -60.0)
            .unwrap() as i64;
        for i in 0..128 {
            assert!(t.kmax(i, j_south) > 0, "channel blocked at i={i}");
        }
        // Mid-latitude row is blocked somewhere.
        let j_mid = (0..64)
            .find(|&j| g.lat_c(j as i64).to_degrees() > 30.0)
            .unwrap() as i64;
        assert!((0..128).any(|i| t.kmax(i, j_mid) == 0), "no land at 30N");
    }

    #[test]
    fn shelf_has_reduced_depth() {
        let g = grid();
        let t = Topography::idealized_continents(&g);
        let full = g.full_depth();
        let depths: Vec<f64> = (0..128).map(|i| t.depth(&g, i, 32)).collect();
        assert!(depths.contains(&0.0), "land depth 0");
        assert!(depths.contains(&full), "open-ocean full depth");
        assert!(
            depths.iter().any(|&d| d > 0.0 && d < full * 0.75),
            "shelf depths present"
        );
    }
}

#[cfg(test)]
mod partial_cell_tests {
    use super::*;
    use crate::grid::{uniform_levels, Grid};

    fn grid() -> Grid {
        Grid::global(32, 16, 8, 60.0, uniform_levels(8, 4000.0))
    }

    #[test]
    fn partial_cells_match_target_depths_exactly() {
        let g = grid();
        let depth_of = |i: usize, j: usize| 800.0 + 37.0 * i as f64 + 11.0 * j as f64;
        let t = Topography::from_depths(&g, 0.2, depth_of);
        for j in 0..16 {
            for i in 0..32 {
                let want = depth_of(i, j).min(g.full_depth());
                let got = t.depth(&g, i as i64, j as i64);
                // Exact unless clipped by hfac_min (at most 0.2 of a level).
                assert!(
                    (got - want).abs() <= 0.2 * 500.0 + 1e-9,
                    "({i},{j}): {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn partial_cells_beat_staircase_representation() {
        // The Adcroft-et-al point the paper cites: a sloping bottom is
        // represented far more accurately by shaved cells than by
        // full-cell rounding.
        let g = grid();
        let depth_of = |i: usize, _j: usize| 1000.0 + 2500.0 * (i as f64 / 31.0);
        let shaved = Topography::from_depths(&g, 0.2, depth_of);
        let mut err_shaved = 0.0f64;
        let mut err_stairs = 0.0f64;
        for i in 0..32usize {
            let want = depth_of(i, 0);
            err_shaved += (shaved.depth(&g, i as i64, 0) - want).abs();
            // Staircase: full levels only.
            let km = (want / 500.0).floor() as usize;
            let stairs: f64 = g.dz[..km.min(8)].iter().sum();
            err_stairs += (stairs - want).abs();
        }
        assert!(
            err_shaved < 0.15 * err_stairs,
            "shaved {err_shaved} vs staircase {err_stairs}"
        );
    }

    #[test]
    fn hfac_structure() {
        let g = grid();
        let t = Topography::from_depths(&g, 0.2, |_, _| 1250.0);
        // 1250 m = 2 full 500-m levels + half of the third.
        assert_eq!(t.kmax(3, 3), 3);
        assert_eq!(t.hfac(3, 3, 0), 1.0);
        assert_eq!(t.hfac(3, 3, 1), 1.0);
        assert!((t.hfac(3, 3, 2) - 0.5).abs() < 1e-9);
        assert_eq!(t.hfac(3, 3, 3), 0.0);
        assert!((t.depth(&g, 3, 3) - 1250.0).abs() < 1e-9);
    }

    #[test]
    fn too_shallow_remainder_rounds_down() {
        let g = grid();
        // 1020 m: the 20-m remainder is below 0.2·500 = 100 m → 2 levels.
        let t = Topography::from_depths(&g, 0.2, |_, _| 1020.0);
        assert_eq!(t.kmax(0, 0), 2);
        assert!((t.depth(&g, 0, 0) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn smooth_ridge_has_partial_cells_and_a_ridge() {
        let g = grid();
        let t = Topography::smooth_ridge(&g);
        // Partial cells exist somewhere.
        let mut partial = 0;
        for j in 0..16i64 {
            for i in 0..32i64 {
                let km = t.kmax(i, j);
                if km > 0 {
                    let f = t.hfac(i, j, km as usize - 1);
                    if f < 0.999 {
                        partial += 1;
                    }
                }
            }
        }
        assert!(partial > 50, "only {partial} shaved columns");
        // The ridge crest is shallower than the flanks.
        let crest = t.depth(&g, 16, 8);
        let flank = t.depth(&g, 4, 8);
        assert!(crest < 0.7 * flank, "crest {crest} vs flank {flank}");
    }
}
