//! The CG preconditioner: a tile-local modified incomplete Cholesky
//! factor of the surface-pressure operator, zero fill.
//!
//! `M = (D̃ + L) D̃⁻¹ (D̃ + L)ᵀ`, where `L` holds the operator's west and
//! south couplings *inside the tile* — those across a tile edge or the
//! periodic wrap are dropped, so `M` is block-diagonal per rank, SPD,
//! and `M⁻¹` needs no exchange — and the pivots absorb the share [`OMEGA`]
//! of the fill the product creates (the relaxed "modified" variant: at
//! `ω = 1` the row sums of `M` are the tile block's, at `ω = 0` this is
//! plain IC(0)):
//!
//! ```text
//! d̃(i,j) = d(i,j) − aw·(aw + ω·an(i−1,j)) / d̃(i−1,j)
//!                 − as·(as + ω·ae(i,j−1)) / d̃(i,j−1)
//! ```
//!
//! A column without a positive diagonal — dry, or wet and cut off from
//! all four neighbours under the rigid lid — gets `1/d̃ = 0`: `M⁻¹`
//! leaves it at zero.
//!
//! Applying `M⁻¹` is two triangular sweeps over the tile,
//!
//! ```text
//! forward   y(i,j) = (r/d̃ + cs·y(i,j−1)) + cw·y(i−1,j)     rows ascending, west to east
//! backward  z(i,j) = (y    + cn·z(i,j+1)) + ce·z(i+1,j)     rows descending, east to west
//! ```
//!
//! with `c* = a*/d̃` stored. Along a row each value waits for its
//! neighbour's multiply and add — a latency chain, eight cycles a column
//! whatever the machine's width — so rows go [`SKEW`] at a time and
//! *skewed*: row `k` of a group runs `k` columns behind row `k − 1`, the
//! value it needs from that row is then the one computed a step earlier,
//! and four chains are in flight at once. Every cell still evaluates the
//! same expression on the same operands, so the skewed sweep equals the
//! row-at-a-time one bit for bit; the latter handles the `ny % 4` rows
//! left over and tiles narrower than four columns.

use crate::field::Field3;
use crate::tile::Tile;

/// Share of the dropped fill the pivots absorb. Fixed: over 64 steps of
/// the 64×32 coupled pair, `ω = 0 / 0.5 / 0.9 / 0.95 / 0.98 / 1.0` cost
/// 7 464 / 6 566 / 6 053 / 6 253 / 6 749 / 9 709 CG iterations (`hbench`
/// `gcm.cg_iters`, before the coarse space; EXPERIMENTS.md §16).
const OMEGA: f64 = 0.9;

/// Rows in a skewed group.
const SKEW: usize = 4;

/// The factor of one tile's operator: `1/d̃` and the four couplings
/// scaled by it, in fields shaped like the solver's (zero off the
/// interior) so that one index addresses a cell in all of them.
#[derive(Clone, Debug)]
pub(crate) struct Mic0 {
    inv: Field3,
    cw: Field3,
    cs: Field3,
    ce: Field3,
    cn: Field3,
}

/// The rows a sweep is working on and the one it reached them from, of
/// every field it touches: `z`, which it writes, the residual, and the
/// factor's — `cl` the coupling along a row (`cw` forward, `ce`
/// backward), `cv` the one to the row before (`cs`, `cn`). Whole rows,
/// equally long, one index for a cell in all five.
struct Span<'a> {
    z: &'a mut [f64],
    r: &'a [f64],
    inv: &'a [f64],
    cl: &'a [f64],
    cv: &'a [f64],
}

impl Span<'_> {
    /// The cell at `at`. `vert` is the previous row's value in its
    /// column, `carry` its own row's value in the previous column (and,
    /// on return, its own), `dot` the row's running `r·z` (backward
    /// only).
    #[inline(always)]
    fn cell<const BACK: bool>(&mut self, at: usize, vert: f64, carry: &mut f64, dot: &mut f64) {
        let lead = if BACK {
            self.z[at]
        } else {
            self.inv[at] * self.r[at]
        };
        *carry = (lead + self.cv[at] * vert) + self.cl[at] * *carry;
        self.z[at] = *carry;
        if BACK {
            *dot += self.r[at] * *carry;
        }
    }
}

/// The column a sweep over `n` reaches at step `t`.
#[inline(always)]
fn column<const BACK: bool>(n: usize, t: usize) -> usize {
    if BACK {
        n - 1 - t
    } else {
        t
    }
}

/// One row of `n` columns, a column at a time: `row` and `prev` are the
/// positions of its column 0 and of the previous row's. Returns the
/// row's `r·z` (backward).
fn sweep_row<const BACK: bool>(span: &mut Span<'_>, n: usize, prev: usize, row: usize) -> f64 {
    let (mut carry, mut dot) = (0.0, 0.0);
    for t in 0..n {
        let i = column::<BACK>(n, t);
        let vert = span.z[prev + i];
        span.cell::<BACK>(row + i, vert, &mut carry, &mut dot);
    }
    dot
}

/// `SKEW` rows of `n ≥ SKEW` columns in sweep order, skewed: at step `t`
/// row `k` is `t − k` columns into its sweep. Returns each row's `r·z`
/// (backward).
fn sweep_skewed<const BACK: bool>(
    span: &mut Span<'_>,
    n: usize,
    prev: usize,
    rows: [usize; SKEW],
) -> [f64; SKEW] {
    assert!(n >= SKEW);
    let mut sweep = Skewed {
        n,
        prev,
        rows,
        carry: [0.0; SKEW],
        dot: [0.0; SKEW],
    };
    // Only the first and last `SKEW − 1` steps have rows outside their
    // range; the loop between them carries no test.
    for t in 0..SKEW - 1 {
        sweep.step::<BACK, false>(span, t);
    }
    for t in SKEW - 1..n {
        sweep.step::<BACK, true>(span, t);
    }
    for t in n..n + SKEW - 1 {
        sweep.step::<BACK, false>(span, t);
    }
    sweep.dot
}

/// A skewed group under way: where its rows are, and each row's newest
/// value and running `r·z`.
struct Skewed {
    n: usize,
    prev: usize,
    rows: [usize; SKEW],
    carry: [f64; SKEW],
    dot: [f64; SKEW],
}

impl Skewed {
    /// Step `t`: every row inside its range (all of them, if `ALL`)
    /// moves a column on. Rows go last to first, so that `carry[k − 1]`
    /// is still row `k − 1`'s value from the step before — the one in
    /// row `k`'s column.
    #[inline(always)]
    fn step<const BACK: bool, const ALL: bool>(&mut self, span: &mut Span<'_>, t: usize) {
        for k in (0..SKEW).rev() {
            if ALL || (k..self.n + k).contains(&t) {
                let i = column::<BACK>(self.n, t - k);
                let vert = if k == 0 {
                    span.z[self.prev + i]
                } else {
                    self.carry[k - 1]
                };
                span.cell::<BACK>(self.rows[k] + i, vert, &mut self.carry[k], &mut self.dot[k]);
            }
        }
    }
}

impl Mic0 {
    /// Factor the operator with west/south transmissibilities `aw`,
    /// `a_s` and diagonal `diag` over the interior of `tile`.
    pub(crate) fn build(tile: &Tile, aw: &Field3, a_s: &Field3, diag: &Field3) -> Mic0 {
        let (nx, ny) = (tile.nx as i64, tile.ny as i64);
        let plane = || Field3::new(tile.nx, tile.ny, 1, tile.halo);
        let (mut inv, mut cw, mut cs, mut ce, mut cn) =
            (plane(), plane(), plane(), plane(), plane());
        // The four couplings of (i, j) inside the tile: zero across its
        // edge. (A land face has zero transmissibility already.)
        let west = |i: i64, j: i64| if i > 0 { aw.at(i, j, 0) } else { 0.0 };
        let south = |i: i64, j: i64| if j > 0 { a_s.at(i, j, 0) } else { 0.0 };
        let east = |i: i64, j: i64| if i + 1 < nx { aw.at(i + 1, j, 0) } else { 0.0 };
        let north = |i: i64, j: i64| if j + 1 < ny { a_s.at(i, j + 1, 0) } else { 0.0 };
        for j in 0..ny {
            for i in 0..nx {
                let d = diag.at(i, j, 0);
                if d <= 0.0 {
                    continue;
                }
                let (w, s) = (west(i, j), south(i, j));
                let mut pivot = d;
                if w > 0.0 {
                    pivot -= w * (w + OMEGA * north(i - 1, j)) * inv.at(i - 1, j, 0);
                }
                if s > 0.0 {
                    pivot -= s * (s + OMEGA * east(i, j - 1)) * inv.at(i, j - 1, 0);
                }
                assert!(
                    pivot > 0.0 && pivot.is_finite(),
                    "MIC(0) pivot {pivot} at column ({i}, {j}) of tile {}: diagonal {d}",
                    tile.rank
                );
                let scale = 1.0 / pivot;
                inv.set(i, j, 0, scale);
                cw.set(i, j, 0, scale * w);
                cs.set(i, j, 0, scale * s);
                ce.set(i, j, 0, scale * east(i, j));
                cn.set(i, j, 0, scale * north(i, j));
            }
        }
        Mic0 {
            inv,
            cw,
            cs,
            ce,
            cn,
        }
    }

    /// `z = M⁻¹ r` on the interior; returns `r·z`, summed a row at a
    /// time (east to west) and the rows' sums added from the last row
    /// to the first — the order the backward sweep finishes them in.
    /// `r` and `z` are fields of `tile`'s shape. Of `z`'s halo the
    /// sweeps read row −1 and row `ny`, against a zero coupling: it must
    /// be finite (the solver's `z` is never written there).
    pub(crate) fn solve(&self, tile: &Tile, r: &Field3, z: &mut Field3) -> f64 {
        let shape = (tile.nx, tile.ny, tile.halo);
        assert!(
            tile.halo >= 1 && [r, z].iter().all(|f| (f.nx(), f.ny(), f.halo()) == shape),
            "fields of another shape than the tile's ({shape:?})"
        );
        let (n, ny) = (tile.nx, tile.ny);
        // Rows `0..skewed` go `SKEW` at a time, the rest one by one.
        let skewed = if n >= SKEW { ny - ny % SKEW } else { 0 };
        for j in (0..skewed).step_by(SKEW) {
            let (mut span, prev, rows) = self.span::<false, SKEW>(tile, r, z, j);
            sweep_skewed::<false>(&mut span, n, prev, rows);
        }
        for j in skewed..ny {
            let (mut span, prev, [row]) = self.span::<false, 1>(tile, r, z, j);
            sweep_row::<false>(&mut span, n, prev, row);
        }
        let mut rz = 0.0;
        for j in (skewed..ny).rev() {
            let (mut span, prev, [row]) = self.span::<true, 1>(tile, r, z, j);
            rz += sweep_row::<true>(&mut span, n, prev, row);
        }
        for j in (0..skewed).step_by(SKEW).rev() {
            let (mut span, prev, rows) = self.span::<true, SKEW>(tile, r, z, j);
            for dot in sweep_skewed::<true>(&mut span, n, prev, rows) {
                rz += dot;
            }
        }
        rz
    }

    /// Rows `j..j + K` and the row the sweep reaches them from, with the
    /// positions in the span of column 0 of that row and of the `K` rows
    /// in sweep order.
    fn span<'a, const BACK: bool, const K: usize>(
        &'a self,
        tile: &Tile,
        r: &'a Field3,
        z: &'a mut Field3,
        j: usize,
    ) -> (Span<'a>, usize, [usize; K]) {
        let j = j as i64;
        let js = if BACK {
            j..j + K as i64 + 1
        } else {
            j - 1..j + K as i64
        };
        let (cl, cv) = if BACK {
            (&self.ce, &self.cn)
        } else {
            (&self.cw, &self.cs)
        };
        let z = z.rows_mut(js.clone(), 0);
        // All five cut to one length: one bounds check serves a cell.
        let len = z.len();
        let span = Span {
            z,
            r: &r.rows(js.clone(), 0)[..len],
            inv: &self.inv.rows(js.clone(), 0)[..len],
            cl: &cl.rows(js.clone(), 0)[..len],
            cv: &cv.rows(js, 0)[..len],
        };
        let stride = tile.nx + 2 * tile.halo;
        // In sweep order the span's rows are 0 (the one before) to `K`.
        let column0 = |row: usize| (if BACK { K - row } else { row }) * stride + tile.halo;
        (span, column0(0), std::array::from_fn(|k| column0(k + 1)))
    }

    /// The point-Jacobi preconditioner `M = D` in the factor's clothes:
    /// the baseline the iteration counts are tested against.
    #[cfg(test)]
    pub(crate) fn jacobi(tile: &Tile, diag: &Field3) -> Mic0 {
        let uncoupled = Field3::new(tile.nx, tile.ny, 1, tile.halo);
        Mic0::build(tile, &uncoupled, &uncoupled, diag)
    }

    /// [`solve`](Self::solve) a cell at a time, straight from the two
    /// recurrences: the reference the sweeps are tested against.
    #[cfg(test)]
    pub(crate) fn solve_reference(&self, tile: &Tile, r: &Field3, z: &mut Field3) -> f64 {
        let (nx, ny) = (tile.nx as i64, tile.ny as i64);
        for j in 0..ny {
            for i in 0..nx {
                let west = if i > 0 { z.at(i - 1, j, 0) } else { 0.0 };
                let y = (self.inv.at(i, j, 0) * r.at(i, j, 0)
                    + self.cs.at(i, j, 0) * z.at(i, j - 1, 0))
                    + self.cw.at(i, j, 0) * west;
                z.set(i, j, 0, y);
            }
        }
        let mut rz = 0.0;
        for j in (0..ny).rev() {
            let mut row = 0.0;
            for i in (0..nx).rev() {
                let east = if i + 1 < nx { z.at(i + 1, j, 0) } else { 0.0 };
                let v = (z.at(i, j, 0) + self.cn.at(i, j, 0) * z.at(i, j + 1, 0))
                    + self.ce.at(i, j, 0) * east;
                z.set(i, j, 0, v);
                row += r.at(i, j, 0) * v;
            }
            rz += row;
        }
        rz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::decomp::Decomp;
    use crate::kernel::TileGeom;
    use crate::solver::fixtures::{bits, scattered_land, varied};
    use crate::solver::EllipticCoeffs;
    use crate::state::Masks;
    use crate::topography::Topography;

    #[test]
    fn skewed_sweeps_match_the_cell_at_a_time_reference_bit_for_bit() {
        for nx in [1usize, 2, 3, 5, 16, 33] {
            for ny in [1usize, 3, 4, 6, 9] {
                let (_cfg, tile, _geom, masks, coeffs) = scattered_land(nx, ny);
                let case = format!("{nx} x {ny}");
                if nx >= 3 && ny >= 3 {
                    // The wet column no coupling reaches.
                    let isolated = masks.depth.at(2, 2, 0) > 0.0 && coeffs.diag.at(2, 2, 0) == 0.0;
                    assert!(isolated, "{case}");
                }
                let r = varied(&tile, 1);
                // `z` starts as whatever the last solve left,
                // between the zero halo the solver's `z` keeps.
                let mut z = Field3::new(nx, ny, 1, tile.halo);
                for (i, j, _) in r.interior() {
                    z.set(i, j, 0, 0.5 * r.at(i, j, 0) - 0.1);
                }
                let mut want = z.clone();
                let rz = coeffs.mic.solve(&tile, &r, &mut z);
                let want_rz = coeffs.mic.solve_reference(&tile, &r, &mut want);
                assert_eq!(bits(&z), bits(&want), "{case}: z");
                assert_eq!(rz.to_bits(), want_rz.to_bits(), "{case}: r.z");
                assert!(rz > 0.0, "{case}: r.z = {rz}");
            }
        }
    }

    /// `M⁻¹` is symmetric, positive, zero on every column without a
    /// positive diagonal, and the inverse of the `M` the module's head
    /// defines.
    fn check_inverse(tile: &Tile, coeffs: &EllipticCoeffs, case: &str) {
        let mic = &coeffs.mic;
        let (nx, ny) = (tile.nx as i64, tile.ny as i64);

        // Every pivot positive (`build` asserts it, too), and none where
        // there is no diagonal.
        let mut dry = 0;
        for (i, j, _) in coeffs.diag.interior() {
            let pivot_inv = mic.inv.at(i, j, 0);
            if coeffs.diag.at(i, j, 0) > 0.0 {
                assert!(
                    pivot_inv > 0.0 && pivot_inv.is_finite(),
                    "{case}: ({i}, {j})"
                );
            } else {
                dry += 1;
                assert_eq!(pivot_inv, 0.0, "{case}: ({i}, {j})");
            }
        }
        assert!(dry > 0, "{case}: no land");

        let (a, b) = (varied(tile, 5), varied(tile, 8));
        let mut za = Field3::new(tile.nx, tile.ny, 1, tile.halo);
        let mut zb = za.clone();
        let aza = mic.solve(tile, &a, &mut za);
        mic.solve(tile, &b, &mut zb);
        let dot = |f: &Field3, g: &Field3| -> (f64, f64) {
            f.interior().fold((0.0, 0.0), |(sum, scale), (i, j, _)| {
                let term = f.at(i, j, 0) * g.at(i, j, 0);
                (sum + term, scale + term.abs())
            })
        };
        let ((zab, scale_ab), (azb, scale_ba)) = (dot(&za, &b), dot(&a, &zb));
        assert!(
            (zab - azb).abs() <= 1e-12 * (scale_ab + scale_ba),
            "{case}: <M^-1 a, b> = {zab}, <a, M^-1 b> = {azb}"
        );
        assert!(
            aza > 0.0 && dot(&a, &za).0 > 0.0,
            "{case}: <M^-1 a, a> = {aza}"
        );
        for (i, j, _) in za.interior() {
            if coeffs.diag.at(i, j, 0) <= 0.0 {
                assert_eq!(
                    (za.at(i, j, 0), zb.at(i, j, 0)),
                    (0.0, 0.0),
                    "{case}: ({i}, {j})"
                );
            }
        }

        // M z = (D̃ + L) D̃⁻¹ (D̃ + L)ᵀ z gives `a` back. With u = D̃⁻¹(D̃ + L)ᵀ z,
        // i.e. u = z − ce·z_east − cn·z_north, and L's entries −a = −c·d̃:
        let mut u = Field3::new(tile.nx, tile.ny, 1, tile.halo);
        for (i, j, _) in za.interior() {
            let east = if i + 1 < nx { za.at(i + 1, j, 0) } else { 0.0 };
            let north = if j + 1 < ny { za.at(i, j + 1, 0) } else { 0.0 };
            u.set(
                i,
                j,
                0,
                za.at(i, j, 0) - mic.ce.at(i, j, 0) * east - mic.cn.at(i, j, 0) * north,
            );
        }
        let (mut worst, mut size) = (0.0f64, 0.0f64);
        for (i, j, _) in u.interior() {
            let inv = mic.inv.at(i, j, 0);
            if inv == 0.0 {
                continue;
            }
            let west = if i > 0 { u.at(i - 1, j, 0) } else { 0.0 };
            let south = if j > 0 { u.at(i, j - 1, 0) } else { 0.0 };
            let back =
                (u.at(i, j, 0) - mic.cw.at(i, j, 0) * west - mic.cs.at(i, j, 0) * south) / inv;
            worst = worst.max((back - a.at(i, j, 0)).abs());
            size = size.max(a.at(i, j, 0).abs());
        }
        assert!(
            worst <= 1e-9 * size,
            "{case}: M M^-1 a off by {worst} of {size}"
        );
    }

    #[test]
    fn inverse_is_symmetric_positive_and_zero_on_land() {
        let (_cfg, tile, _geom, _masks, coeffs) = scattered_land(16, 9);
        check_inverse(&tile, &coeffs, "scattered land");
        let grids = [
            (
                "128x64",
                ModelConfig::ocean_2p8125(Decomp::blocks(128, 64, 1, 1, 3)),
            ),
            (
                "360x160",
                ModelConfig::ocean_1deg(Decomp::blocks(360, 160, 1, 1, 3)),
            ),
        ];
        for (case, cfg) in grids {
            let tile = cfg.decomp.tile(0);
            let topo = Topography::idealized_continents(&cfg.grid);
            let masks = Masks::build(&cfg, &tile, &topo);
            let geom = TileGeom::build(&cfg, &tile);
            check_inverse(
                &tile,
                &EllipticCoeffs::build(&cfg, &tile, &geom, &masks),
                case,
            );
        }
    }
}
