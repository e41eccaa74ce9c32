//! The discrete surface-pressure operator.
//!
//! Integrating `∇h·(H ∇h ps)` over a cell and applying Gauss's theorem
//! gives a 5-point stencil with *face transmissibilities*
//! `a_face = H_face · (face length) / (centre distance)`; `H_face` is the
//! shallower of the two adjacent column depths (zero at land faces, which
//! encodes the no-normal-flow boundary condition). The assembled operator
//! is symmetric positive-semidefinite (constant nullspace over each
//! connected wet region), exactly what conjugate gradients wants.

use crate::config::ModelConfig;
use crate::field::Field3;
use crate::grid::GRAVITY;
use crate::kernel::TileGeom;
use crate::solver::mic::Mic0;
use crate::state::Masks;
use crate::tile::Tile;
use hyades_telemetry as telemetry;

/// Per-tile operator coefficients (built from globally-known topography,
/// so no exchange is needed; valid on the full halo extent).
#[derive(Clone, Debug)]
pub struct EllipticCoeffs {
    /// West-face transmissibility of cell (i,j).
    pub aw: Field3,
    /// South-face transmissibility of cell (i,j).
    pub a_s: Field3,
    /// Diagonal: sum of the four face transmissibilities.
    pub diag: Field3,
    /// The operator's incomplete factor over the tile's own columns:
    /// CG's preconditioner.
    pub(crate) mic: Mic0,
}

/// Flops per wet column for one operator application.
pub const APPLY_FLOPS_PER_CELL: u64 = 9;

impl EllipticCoeffs {
    pub fn build(cfg: &ModelConfig, tile: &Tile, geom: &TileGeom, masks: &Masks) -> EllipticCoeffs {
        let (nx, ny, h) = (tile.nx, tile.ny, tile.halo);
        let mut aw = Field3::new(nx, ny, 1, h);
        let mut a_s = Field3::new(nx, ny, 1, h);
        let mut diag = Field3::new(nx, ny, 1, h);
        let hi = h as i64 - 1; // need neighbours at +1: build to h-1
        for j in -hi..(ny as i64 + hi) {
            for i in -hi..(nx as i64 + hi) {
                let d = masks.depth.at(i, j, 0);
                let dw = masks.depth.at(i - 1, j, 0);
                let ds = masks.depth.at(i, j - 1, 0);
                let hw = d.min(dw);
                let hs = d.min(ds);
                aw.set(i, j, 0, hw * geom.dy / geom.dxc_at(j));
                a_s.set(i, j, 0, hs * geom.dxs_at(j) / geom.dy);
            }
        }
        // Linear implicit free surface (Crank–Nicolson-free variant): the
        // surface elevation η = ps/g evolves as ∂η/∂t = −∇·(H v̄), which
        // adds `area/(g·Δt²)` to the diagonal. The augmented operator is
        // strictly positive-definite — the nullspace of the rigid-lid
        // operator disappears.
        let fs = if cfg.free_surface {
            1.0 / (GRAVITY * cfg.dt * cfg.dt)
        } else {
            0.0
        };
        let di = h as i64 - 2;
        for j in -di..(ny as i64 + di) {
            for i in -di..(nx as i64 + di) {
                let wet = (masks.depth.at(i, j, 0) > 0.0) as u8 as f64;
                diag.set(
                    i,
                    j,
                    0,
                    aw.at(i, j, 0)
                        + aw.at(i + 1, j, 0)
                        + a_s.at(i, j, 0)
                        + a_s.at(i, j + 1, 0)
                        + wet * fs * geom.area_at(j),
                );
            }
        }
        let mic = Mic0::build(tile, &aw, &a_s, &diag);
        EllipticCoeffs { aw, a_s, diag, mic }
    }

    /// `out = (−A)·x` on the interior: positive-semidefinite form
    /// `Σ_faces a·(x − x_nbr)`. `x` needs a width-1 halo.
    pub fn apply(&self, tile: &Tile, x: &Field3, out: &mut Field3) {
        self.apply_with(tile, x, out, |_, _| {});
    }

    /// [`apply`](Self::apply) that also returns `Σ x·out` over the
    /// interior — CG's `p·q` from the sweep that forms `q`. One
    /// accumulator running in row-major order: the sum a separate pass
    /// over `x` and `out` would give, bit for bit.
    pub(crate) fn apply_dot(&self, tile: &Tile, x: &Field3, out: &mut Field3) -> f64 {
        let mut dot = 0.0;
        self.apply_with(tile, x, out, |x, out| dot += x * out);
        dot
    }

    /// The operator kernel: a sweep over row slices that hands each
    /// cell's `(x, out)` to `each` in row-major order.
    #[inline(always)]
    fn apply_with(
        &self,
        tile: &Tile,
        x: &Field3,
        out: &mut Field3,
        mut each: impl FnMut(f64, f64),
    ) {
        let nx = tile.nx as i64;
        let n = tile.nx;
        telemetry::count("gcm.elliptic", "operator_applies", 1);
        for j in 0..tile.ny as i64 {
            // Every operand cut to a slice of exactly `n` cells, so the
            // bounds are checked here and not per cell.
            let xc = x.row(j, 0, -1..nx + 1);
            let (xw, xc, xe) = (&xc[..n], &xc[1..n + 1], &xc[2..n + 2]);
            let xs = &x.row(j - 1, 0, 0..nx)[..n];
            let xn = &x.row(j + 1, 0, 0..nx)[..n];
            let diag = &self.diag.row(j, 0, 0..nx)[..n];
            let aw = self.aw.row(j, 0, 0..nx + 1);
            let (aw, ae) = (&aw[..n], &aw[1..n + 1]);
            let a_s = &self.a_s.row(j, 0, 0..nx)[..n];
            let a_n = &self.a_s.row(j + 1, 0, 0..nx)[..n];
            let q = &mut out.row_mut(j, 0, 0..nx)[..n];
            for i in 0..n {
                let v = diag[i] * xc[i]
                    - aw[i] * xw[i]
                    - ae[i] * xe[i]
                    - a_s[i] * xs[i]
                    - a_n[i] * xn[i];
                q[i] = v;
                each(xc[i], v);
            }
        }
    }

    /// The cell-at-a-time operator `apply` was until PR 13: the reference
    /// its row kernel is tested against.
    #[cfg(test)]
    pub(crate) fn apply_reference(&self, tile: &Tile, x: &Field3, out: &mut Field3) {
        let (nx, ny) = (tile.nx as i64, tile.ny as i64);
        for j in 0..ny {
            for i in 0..nx {
                let xc = x.at(i, j, 0);
                let q = self.diag.at(i, j, 0) * xc
                    - self.aw.at(i, j, 0) * x.at(i - 1, j, 0)
                    - self.aw.at(i + 1, j, 0) * x.at(i + 1, j, 0)
                    - self.a_s.at(i, j, 0) * x.at(i, j - 1, 0)
                    - self.a_s.at(i, j + 1, 0) * x.at(i, j + 1, 0);
                out.set(i, j, 0, q);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::Decomp;
    use crate::state::Masks;
    use crate::topography::Topography;

    fn setup(continents: bool) -> (ModelConfig, Tile, TileGeom, Masks, EllipticCoeffs) {
        let d = Decomp::blocks(16, 8, 1, 1, 3);
        let cfg = ModelConfig::test_ocean(16, 8, 4, d);
        let tile = d.tile(0);
        let topo = if continents {
            Topography::idealized_continents(&cfg.grid)
        } else {
            Topography::aquaplanet(&cfg.grid)
        };
        let masks = Masks::build(&cfg, &tile, &topo);
        let geom = TileGeom::build(&cfg, &tile);
        let coeffs = EllipticCoeffs::build(&cfg, &tile, &geom, &masks);
        (cfg, tile, geom, masks, coeffs)
    }

    #[test]
    fn constant_field_is_in_nullspace() {
        let (_cfg, tile, _geom, _masks, coeffs) = setup(false);
        let mut x = Field3::new(16, 8, 1, 3);
        x.fill(5.0);
        let mut out = Field3::new(16, 8, 1, 3);
        coeffs.apply(&tile, &x, &mut out);
        // Interior rows away from walls: exact zero. Wall rows: the
        // missing face has zero transmissibility (depth 0 outside), so
        // also zero.
        assert!(
            out.interior_max_abs() < 1e-6 * coeffs.diag.at(0, 4, 0),
            "{}",
            out.interior_max_abs()
        );
    }

    #[test]
    fn row_kernel_matches_the_cell_at_a_time_reference() {
        for continents in [false, true] {
            let (_cfg, tile, _geom, _masks, coeffs) = setup(continents);
            // Values everywhere, halo included: the stencil reads ring 1.
            let mut x = Field3::new(16, 8, 1, 3);
            for (n, v) in x.raw_mut().iter_mut().enumerate() {
                *v = ((n * 37 % 101) as f64 - 50.0) * 0.37;
            }
            let mut want = Field3::new(16, 8, 1, 3);
            want.fill(-1.0);
            let mut got = want.clone();
            coeffs.apply_reference(&tile, &x, &mut want);
            coeffs.apply(&tile, &x, &mut got);
            let bits = |f: &Field3| f.raw().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "interior equal, halo untouched");
            let dot = coeffs.apply_dot(&tile, &x, &mut got);
            assert_eq!(bits(&got), bits(&want));
            let mut want_dot = 0.0;
            for (i, j, _) in x.interior() {
                want_dot += x.at(i, j, 0) * want.at(i, j, 0);
            }
            assert_eq!(dot.to_bits(), want_dot.to_bits());
        }
    }

    #[test]
    fn operator_is_symmetric() {
        // <Ax, y> == <x, Ay> for random-ish x, y over the interior with
        // zero halos (halo terms vanish because x,y are zero there).
        let (_cfg, tile, _geom, _masks, coeffs) = setup(true);
        let mut x = Field3::new(16, 8, 1, 3);
        let mut y = Field3::new(16, 8, 1, 3);
        for (n, (i, j, _)) in x.clone().interior().enumerate() {
            x.set(i, j, 0, ((n * 37 % 17) as f64) - 8.0);
            y.set(i, j, 0, ((n * 53 % 13) as f64) - 6.0);
        }
        let mut ax = Field3::new(16, 8, 1, 3);
        let mut ay = Field3::new(16, 8, 1, 3);
        coeffs.apply(&tile, &x, &mut ax);
        coeffs.apply(&tile, &y, &mut ay);
        let dot = |a: &Field3, b: &Field3| -> f64 {
            a.interior()
                .map(|(i, j, _)| a.at(i, j, 0) * b.at(i, j, 0))
                .sum()
        };
        let axy = dot(&ax, &y);
        let xay = dot(&x, &ay);
        assert!(
            (axy - xay).abs() < 1e-9 * axy.abs().max(1.0),
            "asymmetry: {axy} vs {xay}"
        );
    }

    #[test]
    fn operator_is_positive_semidefinite() {
        let (_cfg, tile, _geom, _masks, coeffs) = setup(true);
        let mut x = Field3::new(16, 8, 1, 3);
        for (n, (i, j, _)) in x.clone().interior().enumerate() {
            x.set(i, j, 0, ((n * 31 % 23) as f64) - 11.0);
        }
        let mut ax = Field3::new(16, 8, 1, 3);
        coeffs.apply(&tile, &x, &mut ax);
        let xax: f64 = x
            .interior()
            .map(|(i, j, _)| x.at(i, j, 0) * ax.at(i, j, 0))
            .sum();
        assert!(xax >= -1e-9, "negative quadratic form: {xax}");
        assert!(xax > 0.0, "nonconstant field must have positive energy");
    }

    #[test]
    fn land_faces_have_zero_transmissibility() {
        let (_cfg, _tile, _geom, masks, coeffs) = setup(true);
        for (i, j, _) in coeffs.aw.clone().interior() {
            if masks.depth.at(i, j, 0) == 0.0 || masks.depth.at(i - 1, j, 0) == 0.0 {
                assert_eq!(coeffs.aw.at(i, j, 0), 0.0);
            }
        }
    }

    #[test]
    fn diag_positive_on_wet_columns() {
        let (_cfg, _tile, _geom, masks, coeffs) = setup(true);
        for (i, j, _) in coeffs.diag.clone().interior() {
            if masks.depth.at(i, j, 0) > 0.0 {
                assert!(
                    coeffs.diag.at(i, j, 0) > 0.0,
                    "isolated wet cell at ({i},{j})"
                );
            }
        }
    }
}
