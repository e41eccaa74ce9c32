//! Spherical lat–lon Arakawa C-grid geometry.
//!
//! The global domain spans all longitudes and latitudes `±lat_max`
//! (poleward rows are land: walls replace the polar singularity). On the
//! C-grid, tracers/pressure live at cell centres, `u` at west faces, `v`
//! at south faces, and `w` at the interfaces between vertical levels.

/// Earth radius (m).
pub const EARTH_RADIUS: f64 = 6.371e6;
/// Rotation rate (rad/s).
pub const OMEGA: f64 = 7.292e-5;
/// Gravitational acceleration (m/s²).
pub const GRAVITY: f64 = 9.81;

/// Global grid description (identical on every tile; tiles index into it
/// with their global offsets).
#[derive(Clone, Debug)]
pub struct Grid {
    /// Number of cells in longitude (periodic).
    pub nx: usize,
    /// Number of cells in latitude.
    pub ny: usize,
    /// Number of vertical levels.
    pub nz: usize,
    /// Southernmost cell edge latitude (radians).
    pub lat0: f64,
    /// Cell size in longitude (radians).
    pub dlon: f64,
    /// Cell size in latitude (radians).
    pub dlat: f64,
    /// Level thicknesses (m for the ocean; the atmosphere isomorph uses a
    /// mass-equivalent depth coordinate).
    pub dz: Vec<f64>,
    /// Planet radius (m).
    pub radius: f64,
    /// Rotation rate (rad/s).
    pub omega: f64,
}

impl Grid {
    /// Global lat–lon grid of `nx × ny × nz` cells spanning latitudes
    /// `±lat_max_deg`.
    pub fn global(nx: usize, ny: usize, nz: usize, lat_max_deg: f64, dz: Vec<f64>) -> Grid {
        assert_eq!(dz.len(), nz);
        assert!(nx >= 2 && ny >= 2 && nz >= 1);
        let lat_max = lat_max_deg.to_radians();
        Grid {
            nx,
            ny,
            nz,
            lat0: -lat_max,
            dlon: std::f64::consts::TAU / nx as f64,
            dlat: 2.0 * lat_max / ny as f64,
            dz,
            radius: EARTH_RADIUS,
            omega: OMEGA,
        }
    }

    /// The paper's coupled resolution: 2.8125° (128 × 64).
    pub fn coupled_2p8125(nz: usize, dz: Vec<f64>) -> Grid {
        Grid::global(128, 64, nz, 78.75, dz)
    }

    /// Latitude of cell-centre row `j` (radians), `j ∈ [0, ny)`.
    pub fn lat_c(&self, j: i64) -> f64 {
        self.lat0 + (j as f64 + 0.5) * self.dlat
    }

    /// Latitude of the south face of row `j`.
    pub fn lat_s(&self, j: i64) -> f64 {
        self.lat0 + j as f64 * self.dlat
    }

    /// Grid spacing in x at cell-centre row `j` (m). Clamped away from the
    /// pole (rows outside the domain are land anyway).
    pub fn dx_c(&self, j: i64) -> f64 {
        self.radius * self.lat_c(j).cos().max(1e-3) * self.dlon
    }

    /// Grid spacing in x at the south face of row `j` (m) — where `v`
    /// lives.
    pub fn dx_s(&self, j: i64) -> f64 {
        self.radius * self.lat_s(j).cos().max(1e-3) * self.dlon
    }

    /// Grid spacing in y (m); uniform.
    pub fn dy(&self) -> f64 {
        self.radius * self.dlat
    }

    /// Horizontal cell area at row `j` (m²).
    pub fn cell_area(&self, j: i64) -> f64 {
        self.dx_c(j) * self.dy()
    }

    /// Coriolis parameter at cell-centre row `j`.
    pub fn coriolis_c(&self, j: i64) -> f64 {
        2.0 * self.omega * self.lat_c(j).sin()
    }

    /// Coriolis parameter at the south face of row `j` (for `v` points).
    pub fn coriolis_s(&self, j: i64) -> f64 {
        2.0 * self.omega * self.lat_s(j).sin()
    }

    /// `tan(lat)/R` metric factor at row `j` (spherical momentum metric
    /// terms).
    pub fn metric_tan_over_r(&self, j: i64) -> f64 {
        self.lat_c(j).tan() / self.radius
    }

    /// Total fluid depth if every level is wet (m).
    pub fn full_depth(&self) -> f64 {
        self.dz.iter().sum()
    }

    /// Depth of the centre of level `k` below the surface.
    pub fn z_center(&self, k: usize) -> f64 {
        let above: f64 = self.dz[..k].iter().sum();
        above + 0.5 * self.dz[k]
    }

    /// Smallest horizontal spacing on the grid (CFL limits).
    pub fn min_dx(&self) -> f64 {
        (0..self.ny as i64)
            .map(|j| self.dx_c(j))
            .fold(f64::INFINITY, f64::min)
            .min(self.dy())
    }
}

/// Uniform level thicknesses summing to `total`.
pub fn uniform_levels(nz: usize, total: f64) -> Vec<f64> {
    vec![total / nz as f64; nz]
}

/// Ocean-style stretched levels: thin near the surface, thick at depth,
/// summing to `total`.
pub fn stretched_levels(nz: usize, total: f64) -> Vec<f64> {
    let weights: Vec<f64> = (0..nz)
        .map(|k| 1.0 + 2.0 * k as f64 / (nz as f64 - 1.0).max(1.0))
        .collect();
    let sum: f64 = weights.iter().sum();
    weights.into_iter().map(|w| w / sum * total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid {
        Grid::coupled_2p8125(5, uniform_levels(5, 1.0e4))
    }

    #[test]
    fn shape_and_spacing() {
        let g = grid();
        assert_eq!(g.nx, 128);
        assert_eq!(g.ny, 64);
        assert!((g.dlon.to_degrees() - 2.8125).abs() < 1e-9);
        assert!((g.dlat.to_degrees() - 2.4609375).abs() < 1e-9);
        // dy uniform, ~273 km.
        assert!((g.dy() / 1e3 - 273.7).abs() < 1.0);
    }

    #[test]
    fn equator_dx_is_312_km() {
        let g = grid();
        // At the equator dx = R·dlon ≈ 312.7 km; rows 31/32 straddle it.
        let dx = g.dx_s(32);
        assert!((dx / 1e3 - 312.7).abs() < 1.0, "dx {dx}");
    }

    #[test]
    fn coriolis_antisymmetric() {
        let g = grid();
        for j in 0..32 {
            let south = g.coriolis_c(j);
            let north = g.coriolis_c(63 - j);
            assert!((south + north).abs() < 1e-18, "row {j}");
        }
        // Mid-latitude magnitude ~1e-4.
        let f45 = 2.0 * g.omega * (45f64).to_radians().sin();
        assert!((f45 - 1.03e-4).abs() < 1e-6);
    }

    #[test]
    fn areas_positive_and_latitude_dependent() {
        let g = grid();
        let eq = g.cell_area(32);
        let polar = g.cell_area(0);
        assert!(eq > polar, "equatorial cells are larger");
        assert!(polar > 0.0);
    }

    #[test]
    fn level_helpers() {
        let g = grid();
        assert!((g.full_depth() - 1.0e4).abs() < 1e-9);
        assert!((g.z_center(0) - 1.0e3).abs() < 1e-9);
        assert!((g.z_center(4) - 9.0e3).abs() < 1e-9);
    }

    #[test]
    fn stretched_levels_sum_and_grow() {
        let dz = stretched_levels(15, 4000.0);
        assert_eq!(dz.len(), 15);
        assert!((dz.iter().sum::<f64>() - 4000.0).abs() < 1e-9);
        assert!(dz[14] > dz[0] * 2.5);
    }

    #[test]
    fn min_dx_at_wall_row() {
        let g = grid();
        // Smallest dx at the highest latitude row.
        let expect = g.dx_c(0).min(g.dx_c(63));
        assert!((g.min_dx() - expect.min(g.dy())).abs() < 1e-9);
    }
}
