//! Per-tile model state, masks, and initial conditions.

use crate::config::ModelConfig;
use crate::eos::FluidKind;
use crate::field::{Field2, Field3};
use crate::tile::Tile;
use crate::topography::Topography;

/// Land/wet masks and column geometry on a tile (including halo, built
/// directly from the global topography so no exchange is needed).
#[derive(Clone, Debug)]
pub struct Masks {
    /// Cell-centre wet mask (1.0 wet / 0.0 land).
    pub c: Field3,
    /// West-face (u-point) mask.
    pub u: Field3,
    /// South-face (v-point) mask.
    pub v: Field3,
    /// Cell thickness factors (1 interior, shaved fraction at the bottom,
    /// 0 on land) — the §3.2 partial cells.
    pub hc: Field3,
    /// Face thickness factors: the open fraction of each u/v face (the
    /// minimum of the two adjacent cells).
    pub hu: Field3,
    pub hv: Field3,
    /// Wet levels per column.
    pub kmax: Field2,
    /// Fluid depth per column (m, or Pa for the atmosphere isomorph).
    pub depth: Field2,
    /// Number of wet interior cells on this tile.
    pub wet_cells: u64,
    wet_columns: u64,
}

impl Masks {
    pub fn build(cfg: &ModelConfig, tile: &Tile, topo: &Topography) -> Masks {
        let (nx, ny, nz, h) = (tile.nx, tile.ny, cfg.grid.nz, tile.halo);
        let mut c = Field3::new(nx, ny, nz, h);
        let mut u = Field3::new(nx, ny, nz, h);
        let mut v = Field3::new(nx, ny, nz, h);
        let mut hc = Field3::new(nx, ny, nz, h);
        let mut hu = Field3::new(nx, ny, nz, h);
        let mut hv = Field3::new(nx, ny, nz, h);
        let mut kmax = Field2::new(nx, ny, h);
        let mut depth = Field2::new(nx, ny, h);
        let hi = h as i64;
        for j in -hi..(ny as i64 + hi) {
            for i in -hi..(nx as i64 + hi) {
                let (gi, gj) = (tile.gx(i), tile.gy(j));
                kmax.set(i, j, topo.kmax(gi, gj) as f64);
                depth.set(i, j, topo.depth(&cfg.grid, gi, gj));
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
            .filter(|&(i, j)| kmax.at(i, j) > 0.0)
            .count() as u64;
        Masks {
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

    /// Number of wet columns on this tile (DS works on the vertically
    /// integrated 2-D state).
    pub fn wet_columns(&self) -> u64 {
        self.wet_columns
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
    pub ps: Field2,
    /// Hydrostatic pressure / geopotential anomaly at cell centres.
    pub phy: Field3,
    /// Buoyancy.
    pub b: Field3,
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
            ps: Field2::new(nx, ny, h),
            phy: f3(),
            b: f3(),
            first_step: true,
        };
        let hi = h as i64;
        for j in -hi..(ny as i64 + hi) {
            for i in -hi..(nx as i64 + hi) {
                let (gi, gj) = (tile.gx(i), tile.gy(j));
                let lat = cfg.grid.lat_c(tile.gy(j).clamp(0, cfg.grid.ny as i64 - 1));
                for k in 0..nz {
                    if masks.c.at(i, j, k) == 0.0 {
                        continue;
                    }
                    let pert = 0.05 * perturbation(cfg.seed, gi, gj, k);
                    let (theta, s) = match cfg.eos.kind {
                        FluidKind::Ocean => {
                            // Warm surface, cold abyss; meridional gradient
                            // confined to the upper levels.
                            let z = cfg.grid.z_center(k);
                            let surface = 2.0 + 25.0 * lat.cos().powi(2);
                            let t = 2.0 + (surface - 2.0) * (-z / 1000.0).exp();
                            (t + pert, 35.0 + 0.5 * (-z / 500.0).exp())
                        }
                        FluidKind::Atmosphere => {
                            // θ increasing with height (stable), warm
                            // equator.
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

    /// All prognostic fields finite?
    pub fn is_finite(&self) -> bool {
        self.u.all_finite()
            && self.v.all_finite()
            && self.w.all_finite()
            && self.theta.all_finite()
            && self.s.all_finite()
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
        assert_eq!(masks.c.at(0, 0, 0), 1.0);
        assert_eq!(masks.u.at(0, 0, 0), 1.0);
        // v face at the southern wall is land-masked (j-1 outside).
        assert_eq!(masks.v.at(3, 0, 0), 0.0);
        assert_eq!(masks.v.at(3, 1, 0), 1.0);
        // Halo rows beyond the wall are land.
        assert_eq!(masks.c.at(3, -1, 0), 0.0);
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
