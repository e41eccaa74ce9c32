//! CG's coarse space: one piecewise-constant vector per block of a fixed
//! grid of blocks over the global grid (Nicolaides 1987; DEF1 of Tang et
//! al. 2009).
//!
//! Block `k`'s vector `z_k` is the indicator of its wet columns; `Z` has
//! them as columns, and the coarse operator is the `nb × nb` matrix
//! `E = ZᵀÂZ`, with `Â = −A` the solver's operator. A piecewise-constant
//! field `Zc` has no gradient inside a block, so
//!
//! ```text
//! (ÂZc)(i) = Σ_faces a·(c_k(i) − c_k(nbr))
//! ```
//!
//! sums over the faces of cell `i` that cross a block edge only (≈ 6 % of
//! the 1° tile's cells). Each tile assembles its share of `E` from the
//! faces it owns — the west and south faces of its interior cells — and
//! applies `ÂZc` from the transmissibilities of the block-edge faces, not
//! from an operator sweep.
//!
//! `E` is positive semidefinite. It is singular for the constant (the
//! rigid lid's nullspace), for an all-land block (a zero row) and for a
//! closed basin made of whole blocks. The dense Cholesky factor drops
//! every block whose pivot falls below [`DROP`] of its diagonal and
//! solves with `c_k = 0` there: it is the factor of `E` restricted to
//! the blocks it keeps.

use crate::config::ModelConfig;
use crate::field::Field3;
use crate::state::Masks;
use crate::tile::Tile;
use hyades_comms::CommWorld;
use std::ops::Range;
use std::sync::OnceLock;

/// The block grid: Hyades' 16 ranks, 4 × 4 over the global grid (as many
/// as the grid has columns or rows where that is fewer).
pub const BLOCKS: [usize; 2] = [4, 4];

/// A pivot at or below this share of its diagonal drops its block.
const DROP: f64 = 1e-10;

/// A run of interior columns in one block column.
#[derive(Clone, Copy, Debug)]
struct Segment {
    start: usize,
    end: usize,
    bx: usize,
}

/// A face of an interior cell that crosses a block edge: the cell's
/// column, its block, the neighbour's block and the transmissibility.
#[derive(Clone, Copy, Debug)]
struct Face {
    i: usize,
    k: usize,
    l: usize,
    a: f64,
}

/// A tile's view of the coarse space, built with the operator.
#[derive(Clone, Debug)]
pub(crate) struct Coarse {
    nb: usize,
    segments: Vec<Segment>,
    /// Per interior row, the first block of its block row (`by·nbx`).
    rows: Vec<usize>,
    /// The faces of the tile's cells across block edges with a nonzero
    /// transmissibility, row by row (`row_faces[j]..row_faces[j + 1]`):
    /// per row the west and east faces at segment ends, then the south
    /// faces, then the north ones.
    faces: Vec<Face>,
    row_faces: Vec<usize>,
    /// This tile's share of `E` (row-major, `nb × nb`), then of each
    /// block's wet columns.
    local: Vec<f64>,
    /// The factor of the assembled `E`, built on the first solve.
    factor: OnceLock<Factor>,
}

impl Coarse {
    /// The tile's segments, rows, block-edge faces and share of `E` on a
    /// `blocks` grid of blocks, clamped to the grid.
    pub(crate) fn new(
        cfg: &ModelConfig,
        tile: &Tile,
        masks: &Masks,
        (aw, a_s): (&Field3, &Field3),
        blocks: [usize; 2],
    ) -> Coarse {
        let (gnx, gny) = (cfg.grid.nx, cfg.grid.ny);
        let (nbx, nby) = (blocks[0].min(gnx), blocks[1].min(gny));
        let nb = nbx * nby;
        let bx = |i: i64| tile.gx(i).rem_euclid(gnx as i64) as usize * nbx / gnx;
        // The block row of row `j`, `None` beyond the walls.
        let by = |j: i64| {
            let gj = tile.gy(j);
            (0..gny as i64)
                .contains(&gj)
                .then(|| gj as usize * nby / gny)
        };

        let mut segments: Vec<Segment> = Vec::new();
        for i in 0..tile.nx {
            let b = bx(i as i64);
            match segments.last_mut() {
                Some(seg) if seg.bx == b => seg.end = i + 1,
                _ => segments.push(Segment {
                    start: i,
                    end: i + 1,
                    bx: b,
                }),
            }
        }

        let nx = tile.nx as i64;
        let (mut rows, mut faces, mut row_faces) = (Vec::new(), Vec::new(), vec![0]);
        for j in 0..tile.ny as i64 {
            let row_by = tile.gy(j) as usize * nby / gny;
            let base = row_by * nbx;
            let mut face = |i: usize, l: usize, a: f64| {
                let k = base + bx(i as i64);
                if a != 0.0 {
                    faces.push(Face { i, k, l, a });
                }
            };
            let aw = aw.row(j, 0, 0..nx + 1);
            for seg in &segments {
                let (w, e) = (bx(seg.start as i64 - 1), bx(seg.end as i64));
                if w != seg.bx {
                    face(seg.start, base + w, aw[seg.start]);
                }
                if e != seg.bx {
                    face(seg.end - 1, base + e, aw[seg.end]);
                }
            }
            for (across, a_row) in [(j - 1, j), (j + 1, j + 1)] {
                let Some(other) = by(across).filter(|&b| b != row_by) else {
                    continue;
                };
                let a = a_s.row(a_row, 0, 0..nx);
                for seg in &segments {
                    for (i, &a) in (seg.start..seg.end).zip(&a[seg.start..seg.end]) {
                        face(i, other * nbx + seg.bx, a);
                    }
                }
            }
            row_faces.push(faces.len());
            rows.push(base);
        }

        let mut coarse = Coarse {
            nb,
            segments,
            rows,
            faces,
            row_faces,
            local: Vec::new(),
            factor: OnceLock::new(),
        };
        coarse.local = coarse.assemble(tile, masks);
        coarse
    }

    /// This tile's share of `E` and of the blocks' wet columns: the rows
    /// of `E` that its cells' block-edge faces make
    /// (`(ZᵀÂZ)_kl = Σ_{i in k} (Âz_l)_i`).
    fn assemble(&self, tile: &Tile, masks: &Masks) -> Vec<f64> {
        let nb = self.nb;
        let mut e = vec![0.0; nb * nb + nb];
        for &Face { k, l, a, .. } in &self.faces {
            e[k * nb + k] += a;
            e[k * nb + l] -= a;
        }
        let nx = tile.nx as i64;
        for j in 0..tile.ny as i64 {
            let depth = masks.depth.row(j, 0, 0..nx);
            for (cols, k) in self.row_blocks(j) {
                let wet = depth[cols].iter().filter(|&&d| d > 0.0).count();
                e[nb * nb + k] += wet as f64;
            }
        }
        e
    }

    /// This tile's share of `E`, then of the blocks' wet columns.
    #[cfg(test)]
    pub(crate) fn local_share(&self) -> &[f64] {
        &self.local
    }

    /// Blocks in all (dropped ones included).
    pub(crate) fn blocks(&self) -> usize {
        self.nb
    }

    /// The factor of `E`; the first call assembles `E` with one
    /// reduction, which every rank issues on its first solve.
    pub(crate) fn factor(&self, world: &mut dyn CommWorld) -> &Factor {
        self.factor.get_or_init(|| {
            let mut e = self.local.clone();
            world.global_sum_vec(&mut e);
            Factor::new(self.nb, &e)
        })
    }

    /// Interior row `j`'s segments as (columns, block).
    #[inline]
    pub(crate) fn row_blocks(&self, j: i64) -> impl Iterator<Item = (Range<usize>, usize)> + '_ {
        let base = self.rows[j as usize];
        self.segments
            .iter()
            .map(move |seg| (seg.start..seg.end, base + seg.bx))
    }

    /// `f −= ÂZc` on the interior: per cell, its block-edge faces west,
    /// east, south and north.
    pub(crate) fn subtract_az(&self, tile: &Tile, c: &[f64], f: &mut Field3) {
        let nx = tile.nx as i64;
        for (j, faces) in (0..tile.ny as i64).zip(self.row_faces.windows(2)) {
            let f = f.row_mut(j, 0, 0..nx);
            for &Face { i, k, l, a } in &self.faces[faces[0]..faces[1]] {
                f[i] -= a * (c[k] - c[l]);
            }
        }
    }

    /// `x += Zc` on the wet interior, skipping the blocks where `c` is 0.
    pub(crate) fn add_z(&self, tile: &Tile, masks: &Masks, c: &[f64], x: &mut Field3) {
        let nx = tile.nx as i64;
        for j in 0..tile.ny as i64 {
            let depth = masks.depth.row(j, 0, 0..nx);
            let x = x.row_mut(j, 0, 0..nx);
            for (cols, k) in self.row_blocks(j).filter(|&(_, k)| c[k] != 0.0) {
                let cells = x[cols.clone()].iter_mut().zip(&depth[cols]);
                for (x, _) in cells.filter(|(_, &d)| d > 0.0) {
                    *x += c[k];
                }
            }
        }
    }
}

/// The inverse of `E` on the blocks the dense Cholesky factor keeps.
#[derive(Clone, Debug)]
pub(crate) struct Factor {
    nb: usize,
    /// `E⁻¹` on the kept blocks, row-major; a dropped block's row and
    /// column are zero.
    inv: Vec<f64>,
    /// Wet columns per block, over the whole grid.
    pub(crate) counts: Vec<f64>,
}

impl Factor {
    /// Factor `e` (row-major `E`, then the blocks' wet columns) as
    /// `E = LLᵀ`, dropping each block whose pivot is at or below [`DROP`]
    /// of its diagonal, and invert it column by column.
    fn new(nb: usize, e: &[f64]) -> Factor {
        let mut l = vec![0.0; nb * nb];
        let mut keep = vec![true; nb];
        for k in 0..nb {
            let pivot = e[k * nb + k] - (0..k).map(|j| l[k * nb + j] * l[k * nb + j]).sum::<f64>();
            let kept = pivot > DROP * e[k * nb + k];
            if !kept {
                keep[k] = false;
                l[k * nb..k * nb + k].fill(0.0);
                continue;
            }
            let lkk = pivot.sqrt();
            l[k * nb + k] = lkk;
            for i in k + 1..nb {
                let dot: f64 = (0..k).map(|j| l[i * nb + j] * l[k * nb + j]).sum();
                l[i * nb + k] = (e[i * nb + k] - dot) / lkk;
            }
        }
        // Column j of E⁻¹: forward with L, backward with Lᵀ, on the kept
        // blocks. E⁻¹ is symmetric, so it is stored as row j.
        let mut inv = vec![0.0; nb * nb];
        let mut y = vec![0.0; nb];
        for j in (0..nb).filter(|&j| keep[j]) {
            for k in 0..nb {
                y[k] = if keep[k] {
                    let unit = if k == j { 1.0 } else { 0.0 };
                    let sum: f64 = (0..k).map(|m| l[k * nb + m] * y[m]).sum();
                    (unit - sum) / l[k * nb + k]
                } else {
                    0.0
                };
            }
            for k in (0..nb).rev().filter(|&k| keep[k]) {
                let sum: f64 = (k + 1..nb).map(|i| l[i * nb + k] * y[i]).sum();
                y[k] = (y[k] - sum) / l[k * nb + k];
            }
            inv[j * nb..(j + 1) * nb].copy_from_slice(&y);
        }
        Factor {
            nb,
            inv,
            counts: e[nb * nb..].to_vec(),
        }
    }

    /// `c = E⁻¹s` on the blocks kept, 0 on the dropped ones.
    #[inline]
    pub(crate) fn solve(&self, s: &[f64], c: &mut [f64]) {
        for (c, row) in c.iter_mut().zip(self.inv.chunks_exact(self.nb)) {
            *c = row.iter().zip(s).map(|(a, s)| a * s).sum();
        }
    }

    /// Whether block `k` is in the coarse space.
    #[cfg(test)]
    pub(crate) fn keeps(&self, k: usize) -> bool {
        self.inv[k * self.nb + k] != 0.0
    }
}
