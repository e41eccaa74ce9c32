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
use crate::kernel::TileGeom;
use crate::solver::coarse::{Coarse, BLOCKS};
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
    /// The coarse space on the block grid: CG's deflation.
    pub(crate) coarse: Coarse,
}

/// Flops per wet column for one operator application.
pub const APPLY_FLOPS_PER_CELL: u64 = 9;

impl EllipticCoeffs {
    pub fn build(cfg: &ModelConfig, tile: &Tile, geom: &TileGeom, masks: &Masks) -> EllipticCoeffs {
        EllipticCoeffs::on_blocks(cfg, tile, geom, masks, BLOCKS)
    }

    /// [`build`](Self::build) with the coarse space on a `blocks` grid.
    pub(crate) fn on_blocks(
        cfg: &ModelConfig,
        tile: &Tile,
        geom: &TileGeom,
        masks: &Masks,
        blocks: [usize; 2],
    ) -> EllipticCoeffs {
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
        let di = h as i64 - 2;
        for j in -di..(ny as i64 + di) {
            for i in -di..(nx as i64 + di) {
                diag.set(
                    i,
                    j,
                    0,
                    aw.at(i, j, 0) + aw.at(i + 1, j, 0) + a_s.at(i, j, 0) + a_s.at(i, j + 1, 0),
                );
            }
        }
        let mic = Mic0::build(tile, &aw, &a_s, &diag);
        let coarse = Coarse::new(cfg, tile, masks, (&aw, &a_s), blocks);
        EllipticCoeffs {
            aw,
            a_s,
            diag,
            mic,
            coarse,
        }
    }

    /// `out = (−A)·x` on the interior: positive-semidefinite form
    /// `Σ_faces a·(x − x_nbr)`. `x` needs a width-1 halo.
    pub fn apply(&self, tile: &Tile, x: &Field3, out: &mut Field3) {
        self.apply_rows(tile, x, out, |_, _, _| {});
    }

    /// [`apply`](Self::apply) that also returns `Σ x·out` over the
    /// interior — CG's `p·q` — and leaves each block's sum of `out` in
    /// `s` (`Zᵀq`): both summed run by run as [`dot_and_sum`] adds them,
    /// each row's runs west to east, rows south to north.
    pub(crate) fn apply_dot(
        &self,
        tile: &Tile,
        x: &Field3,
        out: &mut Field3,
        s: &mut [f64],
    ) -> f64 {
        let mut dot = 0.0;
        s.fill(0.0);
        self.apply_rows(tile, x, out, |j, x, q| {
            for (cols, k) in self.coarse.row_blocks(j) {
                let (d, sum) = dot_and_sum(&x[cols.clone()], &q[cols]);
                dot += d;
                s[k] += sum;
            }
        });
        dot
    }

    /// The operator kernel: a sweep over row slices that hands each row
    /// `j`'s interior `x` and `out` to `each` once the row is done.
    #[inline(always)]
    fn apply_rows(
        &self,
        tile: &Tile,
        x: &Field3,
        out: &mut Field3,
        mut each: impl FnMut(i64, &[f64], &[f64]),
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
                q[i] = diag[i] * xc[i]
                    - aw[i] * xw[i]
                    - ae[i] * xe[i]
                    - a_s[i] * xs[i]
                    - a_n[i] * xn[i];
            }
            each(j, xc, q);
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

/// Cells a lane of [`dot_and_sum`] takes in turn.
const LANES: usize = 4;

/// `(Σ x·q, Σ q)` over a run of cells, each in [`LANES`] partial sums —
/// lane `l` takes the cells `l, l + 4, …` of the whole groups of four,
/// lane 0 then the rest — added `(s0 + s1) + (s2 + s3)`: four chains of
/// adds in flight instead of one.
#[inline(always)]
fn dot_and_sum(x: &[f64], q: &[f64]) -> (f64, f64) {
    let (mut d, mut s) = ([0.0; LANES], [0.0; LANES]);
    let (xs, qs) = (x.chunks_exact(LANES), q.chunks_exact(LANES));
    let (x_rest, q_rest) = (xs.remainder(), qs.remainder());
    for (x, q) in xs.zip(qs) {
        for l in 0..LANES {
            d[l] += x[l] * q[l];
            s[l] += q[l];
        }
    }
    for (x, q) in x_rest.iter().zip(q_rest) {
        d[0] += x * q;
        s[0] += q;
    }
    ((d[0] + d[1]) + (d[2] + d[3]), (s[0] + s[1]) + (s[2] + s[3]))
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
            let mut sums = vec![f64::NAN; coeffs.coarse.blocks()];
            let dot = coeffs.apply_dot(&tile, &x, &mut got, &mut sums);
            assert_eq!(bits(&got), bits(&want));
            // The sums' order is the cg sweep tests' business; here
            // they only have to be the sums, to rounding.
            let (mut want_dot, mut want_sum, mut scale) = (0.0, 0.0, 0.0);
            for (i, j, _) in x.interior() {
                want_dot += x.at(i, j, 0) * want.at(i, j, 0);
                want_sum += want.at(i, j, 0);
                scale += (x.at(i, j, 0) * want.at(i, j, 0)).abs() + want.at(i, j, 0).abs();
            }
            let sum: f64 = sums.iter().sum();
            assert!(
                (dot - want_dot).abs() <= 1e-13 * scale,
                "{dot} against {want_dot}"
            );
            assert!(
                (sum - want_sum).abs() <= 1e-13 * scale,
                "{sum} against {want_sum}"
            );
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
