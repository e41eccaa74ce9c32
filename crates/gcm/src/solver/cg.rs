//! Preconditioned conjugate gradients for the surface pressure, deflated
//! by a coarse space.
//!
//! The communication pattern per iteration is the paper's (§4): one
//! exchange applied to *two* fields over a one-element halo, and *two*
//! global sums. The preconditioner is the operator's tile-local
//! incomplete factor (`solver::mic`, built with the operator): it is
//! block-diagonal per rank, so applying it communicates nothing.
//!
//! The coarse space (`solver::coarse`) is one piecewise-constant vector
//! per block of a fixed 4 × 4 grid of blocks over the global grid — `Z`,
//! with `E = ZᵀÂZ` its `nb × nb` operator, assembled by one reduction and
//! factored on the first solve. The solve starts from `x₀ + Z·E⁻¹Zᵀr₀`,
//! which leaves `Zᵀr = 0`, and every direction is made `Â`-orthogonal to
//! `Z`: with `q = Âp`, `s = Zᵀq` and `c = E⁻¹s`, the step runs along
//! `p − Zc`, whose image is `q − ÂZc`. The block sums `s` ride in the `p·q`
//! reduction (`nb + 1` words in one call), `p·Â(p − Zc) = p·q − c·s` needs
//! no other, `ÂZc` is applied from the faces across block edges, and `x`
//! takes its `−αZc` once, at the end: the coarse space adds no message to
//! an iteration; it lowers the iteration count.
//! The operator's constant nullspace is handled by removing the mean of
//! the right-hand side over wet cells (the compatibility condition) — the
//! global integral of a flux divergence vanishes, so the subtraction only
//! sheds roundoff — and by the coarse factor dropping one block.
//!
//! The solve stops when `‖r‖ ≤ cg_rtol·‖r₀‖`, with `r₀ = b − Âx₀` the
//! residual of the *warm-started* first guess (the previous step's
//! pressure) before the coarse correction, not `b`: `cg_rtol` asks for a
//! reduction of whatever error the warm start left, however small that
//! already was.

use crate::config::ModelConfig;
use crate::decomp::Decomp;
use crate::field::Field3;
use crate::flops::{self, Phase};
use crate::halo;
use crate::kernel::TileGeom;
use crate::solver::elliptic::{EllipticCoeffs, APPLY_FLOPS_PER_CELL};
use crate::state::Masks;
use crate::tile::Tile;
use hyades_comms::CommWorld;
use hyades_telemetry as telemetry;

/// Flops per wet column per CG iteration besides the operator: `p·q` and
/// the block sum of `q` (3); `x += αp`, `r −= αq` and `r·r` (2 each, 6);
/// the forward sweep `(r/d̃ + cs·y) + cw·y` with `1/d̃` stored (5); the
/// backward sweep `(y + cn·z) + ce·z` (4) with its `r·z` (2); and
/// `p = z + βp` (2). Not counted: the coarse correction on the cells at
/// block edges, the `nb × nb` products and the one `x += Z·shift` a solve.
pub const CG_FLOPS_PER_CELL: u64 = 22;

/// Outcome of one solve.
#[derive(Clone, Copy, Debug)]
pub struct CgResult {
    pub iterations: usize,
    /// `‖r₀‖` — the absolute residual norm of the warm start, before the
    /// coarse correction (so this measures how far the previous step's
    /// pressure drifted).
    pub initial_residual: f64,
    /// Final absolute `‖r‖`.
    pub final_residual: f64,
    /// Final `‖r‖ / ‖r₀‖`: the reduction from the warm-started first
    /// residual, which is what the stopping test compares with
    /// `cg_rtol` — not `‖r‖ / ‖b‖`.
    pub rel_residual: f64,
    pub converged: bool,
}

/// Reusable solver scratch.
#[derive(Clone, Debug)]
pub struct CgSolver {
    r: Field3,
    /// Written on the interior only and never exchanged: its halo stays
    /// the zeros it was allocated as, which `Mic0::solve` reads.
    z: Field3,
    p: Field3,
    q: Field3,
    /// A reduction's words: a scalar, then one per block.
    sums: Vec<f64>,
    /// The coarse correction `c` of the step, one word per block.
    c: Vec<f64>,
    /// What `x` still owes `Z·`: `c₀` of the start less `αc` of every
    /// step (`x` is not read before the end of the solve).
    shift: Vec<f64>,
}

impl CgSolver {
    pub fn new(tile: &Tile) -> CgSolver {
        let f = || Field3::new(tile.nx, tile.ny, 1, tile.halo);
        CgSolver {
            r: f(),
            z: f(),
            p: f(),
            q: f(),
            sums: Vec::new(),
            c: Vec::new(),
            shift: Vec::new(),
        }
    }

    /// Solve `(−A)·x = −rhs/Δt` for the surface pressure `x` (in-place;
    /// the incoming `x` is used as the initial guess, which across time
    /// steps gives the solver a warm start). `coeffs` must be the
    /// operator built from `masks`.
    ///
    /// One iteration is three sweeps over row slices — `q = (−A)p` with
    /// `p·q` and the block sums; the `x` and `r` updates with `r·r`, then
    /// `z = M⁻¹r` with `r·z`; the new direction — and the coarse
    /// correction of `q` at block edges, and allocates nothing beyond the
    /// messages the exchange primitive hands to the world. `r·r` keeps one
    /// accumulator running in row-major order, `p·q` and the block sums
    /// add four lanes per block run (`elliptic::dot_and_sum`), and `r·z` is
    /// summed row by row in the order the backward sweep finishes the
    /// rows, so results are those of the cell-at-a-time loops kept below
    /// as test references, bit for bit.
    #[expect(
        clippy::too_many_arguments,
        reason = "the solve reads the world, the configuration, the tile, its geometry, masks and coefficients, and both fields it works on"
    )]
    pub fn solve(
        &mut self,
        world: &mut dyn CommWorld,
        cfg: &ModelConfig,
        decomp: &Decomp,
        tile: &Tile,
        // Not read (the operator has no area term); `hbench` passes it.
        _geom: &TileGeom,
        coeffs: &EllipticCoeffs,
        masks: &Masks,
        rhs_vol: &Field3,
        x: &mut Field3,
    ) -> CgResult {
        let factor = coeffs.coarse.factor(world);
        let nb = coeffs.coarse.blocks();
        self.c.resize(nb, 0.0);

        // One reduction: the sum and count of −rhs/Δt over wet columns
        // and the block sums of the warm start's residual before the
        // mean of b (removed to make b compatible) is known.
        halo::exchange3(world, decomp, tile, &mut [x], 1);
        coeffs.apply(tile, x, &mut self.q);
        self.sums.resize(nb + 2, 0.0);
        self.warm_start_sums(cfg, tile, coeffs, masks, rhs_vol);
        world.global_sum_vec(&mut self.sums);
        let mean_b = if self.sums[1] == 0.0 {
            0.0
        } else {
            self.sums[0] / self.sums[1]
        };
        for (s, &n) in self.sums[2..].iter_mut().zip(&factor.counts) {
            *s -= mean_b * n;
        }
        factor.solve(&self.sums[2..], &mut self.c);
        self.shift.clone_from(&self.c);

        // r = b − (−A)x, then r −= (−A)Zc, z = M⁻¹ r, p = z.
        let mut init = self.start(cfg, tile, coeffs, masks, rhs_vol, mean_b);
        world.global_sum_vec(&mut init);
        let (mut rz, mut rr, rr0) = (init[0], init[1], init[2]);
        if rr0 == 0.0 {
            return CgResult {
                iterations: 0,
                initial_residual: 0.0,
                final_residual: 0.0,
                rel_residual: 0.0,
                converged: true,
            };
        }
        let target = cfg.cg_rtol * cfg.cg_rtol * rr0;

        let wet_cols = masks.wet_columns();
        let mut iterations = 0;
        self.sums.truncate(nb + 1);
        while rr > target && iterations < cfg.cg_max_iters {
            iterations += 1;
            // The paper's per-iteration exchange: two 2-D fields, width 1.
            halo::exchange3(world, decomp, tile, &mut [&mut self.p, &mut self.r], 1);
            // Global sum #1: p·q and the block sums s = Zᵀq.
            let (pq, s) = self.sums.split_at_mut(1);
            pq[0] = coeffs.apply_dot(tile, &self.p, &mut self.q, s);
            world.global_sum_vec(&mut self.sums);
            factor.solve(&self.sums[1..], &mut self.c);
            let cs: f64 = self.c.iter().zip(&self.sums[1..]).map(|(c, s)| c * s).sum();
            let pq = self.sums[0] - cs;
            if pq <= 0.0 {
                break; // p in the nullspace: converged to roundoff
            }
            let alpha = rz / pq;
            coeffs.coarse.subtract_az(tile, &self.c, &mut self.q);
            for (shift, c) in self.shift.iter_mut().zip(&self.c) {
                *shift -= alpha * c;
            }
            // Global sum #2: (r·z, r·r) in one reduction.
            let mut pair = self.update(tile, coeffs, masks, alpha, x);
            world.global_sum_vec(&mut pair);
            let (rz_new, rr_new) = (pair[0], pair[1]);
            // Per-iteration convergence trace: ‖r‖² reduction rate in
            // permille (e.g. 250 = each iteration leaves a quarter of
            // the squared residual). Saturates at the histogram's u64.
            if rr > 0.0 {
                telemetry::observe_hist(
                    "gcm.cg",
                    "reduction_permille",
                    ((rr_new / rr) * 1000.0) as u64,
                );
            }
            rr = rr_new;
            flops::add(
                Phase::Ds,
                wet_cols * (APPLY_FLOPS_PER_CELL + CG_FLOPS_PER_CELL),
            );
            if rr <= target {
                break;
            }
            let beta = rz_new / rz;
            rz = rz_new;
            self.redirect(tile, beta);
        }
        coeffs.coarse.add_z(tile, masks, &self.shift, x);
        // Publish the halo of the solution for the velocity correction.
        halo::exchange3(world, decomp, tile, &mut [x], 1);
        let rel_residual = (rr / rr0).sqrt();
        telemetry::count("gcm.cg", "solves", 1);
        telemetry::count("gcm.cg", "iterations", iterations as u64);
        telemetry::observe("gcm.cg", "rel_residual", rel_residual);
        telemetry::observe_hist("gcm.cg", "iterations_per_solve", iterations as u64);
        CgResult {
            iterations,
            initial_residual: rr0.sqrt(),
            final_residual: rr.sqrt(),
            rel_residual,
            converged: rr <= target,
        }
    }

    /// With `q = (−A)x` in place, into `sums`: `Σ −rhs/Δt` and the count
    /// over wet columns, then per block `Σ (b − q)` of `b` before its mean
    /// is removed.
    fn warm_start_sums(
        &mut self,
        cfg: &ModelConfig,
        tile: &Tile,
        coeffs: &EllipticCoeffs,
        masks: &Masks,
        rhs_vol: &Field3,
    ) {
        let nx = tile.nx as i64;
        let (sums, blocks) = self.sums.split_at_mut(2);
        sums.fill(0.0);
        blocks.fill(0.0);
        for j in 0..tile.ny as i64 {
            let depth = masks.depth.row(j, 0, 0..nx);
            let rhs = rhs_vol.row(j, 0, 0..nx);
            let q = self.q.row(j, 0, 0..nx);
            for (cols, k) in coeffs.coarse.row_blocks(j) {
                for i in cols.filter(|&i| depth[i] > 0.0) {
                    let b = -rhs[i] / cfg.dt;
                    sums[0] += b;
                    sums[1] += 1.0;
                    blocks[k] += b - q[i];
                }
            }
        }
    }

    /// With `q = (−A)x` in place and the coarse correction `c` of the warm
    /// start's residual in `self.c`: `r = b − q` on wet columns and zero
    /// on dry ones, then `r −= (−A)Zc` (the residual of `x + Zc`),
    /// `z = M⁻¹r`, `p = z`;
    /// returns `[r·z, r·r, r₀·r₀]`, `r₀` the residual before the
    /// correction.
    fn start(
        &mut self,
        cfg: &ModelConfig,
        tile: &Tile,
        coeffs: &EllipticCoeffs,
        masks: &Masks,
        rhs_vol: &Field3,
        mean_b: f64,
    ) -> [f64; 3] {
        let nx = tile.nx as i64;
        let n = tile.nx;
        let mut rr0 = 0.0;
        for j in 0..tile.ny as i64 {
            let depth = &masks.depth.row(j, 0, 0..nx)[..n];
            let rhs = &rhs_vol.row(j, 0, 0..nx)[..n];
            let q = &self.q.row(j, 0, 0..nx)[..n];
            let r = &mut self.r.row_mut(j, 0, 0..nx)[..n];
            for i in 0..n {
                let wet = depth[i] > 0.0;
                if !wet {
                    r[i] = 0.0;
                    continue;
                }
                let ri = (-rhs[i] / cfg.dt - mean_b) - q[i];
                r[i] = ri;
                rr0 += ri * ri;
            }
        }
        coeffs.coarse.subtract_az(tile, &self.c, &mut self.r);
        let mut rr = 0.0;
        for j in 0..tile.ny as i64 {
            let depth = masks.depth.row(j, 0, 0..nx);
            let r = self.r.row(j, 0, 0..nx);
            for (&r, _) in r.iter().zip(depth).filter(|(_, &d)| d > 0.0) {
                rr += r * r;
            }
        }
        let rz = coeffs.mic.solve(tile, &self.r, &mut self.z);
        for j in 0..tile.ny as i64 {
            self.p
                .row_mut(j, 0, 0..nx)
                .copy_from_slice(self.z.row(j, 0, 0..nx));
        }
        [rz, rr, rr0]
    }

    /// Sweep 2: `x += αp`, `r −= αq` on wet columns (`q` already
    /// corrected to `(−A)(p − Zc)`; `x` gets its `−αZc` at the end of the
    /// solve), then `z = M⁻¹r` (forward rows ascending, backward rows
    /// descending); returns `[r·z, r·r]` of the new residual — `r·r` one
    /// sum in row-major order, `r·z` as `Mic0::solve` adds it.
    fn update(
        &mut self,
        tile: &Tile,
        coeffs: &EllipticCoeffs,
        masks: &Masks,
        alpha: f64,
        x: &mut Field3,
    ) -> [f64; 2] {
        let nx = tile.nx as i64;
        let n = tile.nx;
        let mut rr = 0.0;
        for j in 0..tile.ny as i64 {
            let depth = &masks.depth.row(j, 0, 0..nx)[..n];
            let diag = &coeffs.diag.row(j, 0, 0..nx)[..n];
            let p = &self.p.row(j, 0, 0..nx)[..n];
            let q = &self.q.row(j, 0, 0..nx)[..n];
            let x = &mut x.row_mut(j, 0, 0..nx)[..n];
            let r = &mut self.r.row_mut(j, 0, 0..nx)[..n];
            for i in 0..n {
                // `depth > 0` is the wet test. A dry column has four
                // zero transmissibilities, so
                // `d > 0` already proves the column wet and `depth` is
                // read only where the diagonal vanishes: on land and on
                // a wet column cut off from all four neighbours.
                let wet = diag[i] > 0.0 || depth[i] > 0.0;
                if !wet {
                    continue;
                }
                x[i] += alpha * p[i];
                let ri = r[i] - alpha * q[i];
                r[i] = ri;
                rr += ri * ri;
            }
        }
        let rz = coeffs.mic.solve(tile, &self.r, &mut self.z);
        [rz, rr]
    }

    /// Sweep 3: `p = z + βp`.
    fn redirect(&mut self, tile: &Tile, beta: f64) {
        let nx = tile.nx as i64;
        for j in 0..tile.ny as i64 {
            let z = self.z.row(j, 0, 0..nx);
            for (p, &z) in self.p.row_mut(j, 0, 0..nx).iter_mut().zip(z) {
                *p = z + beta * *p;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::Decomp;
    use crate::kernel::TileGeom;
    use crate::solver::coarse::BLOCKS;
    use crate::solver::fixtures::{bits, scattered_land, varied};
    use crate::solver::mic::Mic0;
    use crate::topography::Topography;
    use hyades_comms::{SerialWorld, ThreadWorld};

    #[expect(
        clippy::too_many_arguments,
        reason = "the residual check reads what the solve it checks reads"
    )]
    fn residual_of(
        tile: &Tile,
        coeffs: &EllipticCoeffs,
        masks: &Masks,
        cfg: &ModelConfig,
        rhs: &Field3,
        x: &Field3,
        world: &mut dyn CommWorld,
        decomp: &Decomp,
    ) -> f64 {
        let mut xx = x.clone();
        halo::exchange3(world, decomp, tile, &mut [&mut xx], 1);
        let mut ax = Field3::new(tile.nx, tile.ny, 1, tile.halo);
        coeffs.apply(tile, &xx, &mut ax);
        // Compare against the de-meaned b.
        let (mut sb, mut n) = (0.0, 0.0);
        for (i, j, _) in rhs.interior() {
            if masks.depth.at(i, j, 0) > 0.0 {
                sb += -rhs.at(i, j, 0) / cfg.dt;
                n += 1.0;
            }
        }
        world.global_sum_vec(&mut [sb, n]);
        let mean = sb / n;
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, j, _) in rhs.interior() {
            if masks.depth.at(i, j, 0) > 0.0 {
                let b = -rhs.at(i, j, 0) / cfg.dt - mean;
                num += (b - ax.at(i, j, 0)).powi(2);
                den += b * b;
            }
        }
        (world.global_sum(num) / world.global_sum(den).max(1e-300)).sqrt()
    }

    fn rhs_pattern(tile: &Tile, masks: &Masks) -> Field3 {
        // A compatible (zero-mean over wet cells) right-hand side.
        let mut rhs = Field3::new(tile.nx, tile.ny, 1, tile.halo);
        let mut wetcells = Vec::new();
        for (i, j, _) in rhs.clone().interior() {
            if masks.depth.at(i, j, 0) > 0.0 {
                wetcells.push((i, j));
            }
        }
        for (n, &(i, j)) in wetcells.iter().enumerate() {
            let gx = (tile.gx(i) * 13 + tile.gy(j) * 7) % 19;
            rhs.set(
                i,
                j,
                0,
                (gx as f64 - 9.0) * 1e4 + if n % 2 == 0 { 5e3 } else { -5e3 },
            );
        }
        rhs
    }

    fn sum_bits<const N: usize>(sums: [f64; N]) -> [u64; N] {
        sums.map(f64::to_bits)
    }

    /// The block of interior or halo cell `(i, j)` on a `blocks` grid,
    /// and whether its row is inside the grid.
    fn block_of(cfg: &ModelConfig, tile: &Tile, blocks: [usize; 2], i: i64, j: i64) -> usize {
        let (gnx, gny) = (cfg.grid.nx, cfg.grid.ny);
        let (nbx, nby) = (blocks[0].min(gnx), blocks[1].min(gny));
        let gi = tile.gx(i).rem_euclid(gnx as i64) as usize;
        let gj = tile.gy(j) as usize;
        (gj * nby / gny) * nbx + gi * nbx / gnx
    }

    /// `f −= (−A)Zc` cell at a time: each face of the cell whose
    /// neighbour lies in another block, west, east, south, north.
    fn reference_subtract_az(
        cfg: &ModelConfig,
        tile: &Tile,
        coeffs: &EllipticCoeffs,
        blocks: [usize; 2],
        c: &[f64],
        f: &mut Field3,
    ) {
        let gny = cfg.grid.ny as i64;
        for j in 0..tile.ny as i64 {
            for i in 0..tile.nx as i64 {
                let k = block_of(cfg, tile, blocks, i, j);
                let gj = tile.gy(j);
                let faces = [
                    (i - 1, j, coeffs.aw.at(i, j, 0), true),
                    (i + 1, j, coeffs.aw.at(i + 1, j, 0), true),
                    (i, j - 1, coeffs.a_s.at(i, j, 0), gj > 0),
                    (i, j + 1, coeffs.a_s.at(i, j + 1, 0), gj + 1 < gny),
                ];
                for (ni, nj, a, inside) in faces {
                    if !inside {
                        continue;
                    }
                    let l = block_of(cfg, tile, blocks, ni, nj);
                    if l != k {
                        f.add(i, j, 0, -(a * (c[k] - c[l])));
                    }
                }
            }
        }
    }

    /// The set-up loop of `solve` cell at a time.
    fn reference_start(
        s: &mut CgSolver,
        cfg: &ModelConfig,
        tile: &Tile,
        coeffs: &EllipticCoeffs,
        masks: &Masks,
        rhs_vol: &Field3,
        mean_b: f64,
    ) -> [f64; 3] {
        let (nx, ny) = (tile.nx as i64, tile.ny as i64);
        let mut rr0 = 0.0;
        for j in 0..ny {
            for i in 0..nx {
                let wet = masks.depth.at(i, j, 0) > 0.0;
                if !wet {
                    s.r.set(i, j, 0, 0.0);
                    continue;
                }
                let b = -rhs_vol.at(i, j, 0) / cfg.dt - mean_b;
                let r = b - s.q.at(i, j, 0);
                s.r.set(i, j, 0, r);
                rr0 += r * r;
            }
        }
        let c = s.c.clone();
        reference_subtract_az(cfg, tile, coeffs, BLOCKS, &c, &mut s.r);
        let mut rr = 0.0;
        for j in 0..ny {
            for i in 0..nx {
                if masks.depth.at(i, j, 0) > 0.0 {
                    rr += s.r.at(i, j, 0) * s.r.at(i, j, 0);
                }
            }
        }
        let rz = coeffs.mic.solve_reference(tile, &s.r, &mut s.z);
        for (i, j, _) in s.z.clone().interior() {
            s.p.set(i, j, 0, s.z.at(i, j, 0));
        }
        [rz, rr, rr0]
    }

    /// Sweep 2 cell at a time.
    fn reference_update(
        s: &mut CgSolver,
        tile: &Tile,
        coeffs: &EllipticCoeffs,
        masks: &Masks,
        alpha: f64,
        x: &mut Field3,
    ) -> [f64; 2] {
        let mut rr = 0.0;
        for j in 0..tile.ny as i64 {
            for i in 0..tile.nx as i64 {
                let wet = masks.depth.at(i, j, 0) > 0.0;
                if !wet {
                    continue;
                }
                x.add(i, j, 0, alpha * s.p.at(i, j, 0));
                let r = s.r.at(i, j, 0) - alpha * s.q.at(i, j, 0);
                s.r.set(i, j, 0, r);
                rr += r * r;
            }
        }
        let rz = coeffs.mic.solve_reference(tile, &s.r, &mut s.z);
        [rz, rr]
    }

    /// Sweep 3 cell at a time.
    fn reference_redirect(s: &mut CgSolver, tile: &Tile, beta: f64) {
        for j in 0..tile.ny as i64 {
            for i in 0..tile.nx as i64 {
                let p = s.z.at(i, j, 0) + beta * s.p.at(i, j, 0);
                s.p.set(i, j, 0, p);
            }
        }
    }

    #[test]
    fn fused_sweeps_match_the_cell_at_a_time_references_bit_for_bit() {
        for nx in [1usize, 5, 16, 33] {
            let (cfg, tile, _geom, masks, coeffs) = scattered_land(nx, 6);
            let case = format!("nx {nx}");
            let dry = masks
                .depth
                .interior()
                .filter(|&(i, j, _)| masks.depth.at(i, j, 0) == 0.0);
            assert!(dry.count() > 0, "{case}: no land");
            if nx >= 3 {
                assert!(masks.depth.at(2, 2, 0) > 0.0 && coeffs.diag.at(2, 2, 0) == 0.0);
            }

            let (rhs, x0) = (varied(&tile, 1), varied(&tile, 2));
            let mut fused = CgSolver::new(&tile);
            for (f, salt) in [&mut fused.r, &mut fused.z, &mut fused.p, &mut fused.q]
                .into_iter()
                .zip(3..)
            {
                *f = varied(&tile, salt);
            }
            // A coarse correction with a zero: a dropped block.
            let nb = coeffs.coarse.blocks();
            fused.c = (0..nb).map(|k| 0.375 * k as f64 - 1.125).collect();
            let mut cells = fused.clone();
            let state = |s: &CgSolver| [bits(&s.r), bits(&s.z), bits(&s.p), bits(&s.q)];

            // Set-up from a non-zero mean and a non-zero first guess.
            let got = fused.start(&cfg, &tile, &coeffs, &masks, &rhs, 0.125);
            let want = reference_start(&mut cells, &cfg, &tile, &coeffs, &masks, &rhs, 0.125);
            assert_eq!(sum_bits(got), sum_bits(want), "{case}: start sums");
            assert_eq!(state(&fused), state(&cells), "{case}: start fields");

            // Two iterations' worth of sweeps, each on the state the
            // one before left behind.
            let (mut x, mut x_cells) = (x0.clone(), x0.clone());
            for (alpha, beta) in [(0.75, 0.5), (-1.25e-3, 3.0)] {
                let mut sums = vec![f64::NAN; nb];
                let pq = coeffs.apply_dot(&tile, &fused.p, &mut fused.q, &mut sums);
                coeffs.apply_reference(&tile, &cells.p, &mut cells.q);
                // Per row, each block's run of cells in four lanes:
                // lane `n % 4` for the `n`-th cell of the run's whole
                // groups of four, lane 0 for the rest.
                let (mut want_pq, mut want_sums) = (0.0, vec![0.0; nb]);
                for j in 0..tile.ny as i64 {
                    let mut i = 0;
                    while i < tile.nx as i64 {
                        let k = block_of(&cfg, &tile, BLOCKS, i, j);
                        let len = (i..tile.nx as i64)
                            .take_while(|&e| block_of(&cfg, &tile, BLOCKS, e, j) == k)
                            .count() as i64;
                        let (mut d, mut t) = ([0.0; 4], [0.0; 4]);
                        for n in 0..len {
                            let lane = if n < len / 4 * 4 { (n % 4) as usize } else { 0 };
                            let (p, q) = (cells.p.at(i + n, j, 0), cells.q.at(i + n, j, 0));
                            d[lane] += p * q;
                            t[lane] += q;
                        }
                        want_pq += (d[0] + d[1]) + (d[2] + d[3]);
                        want_sums[k] += (t[0] + t[1]) + (t[2] + t[3]);
                        i += len;
                    }
                }
                assert_eq!(pq.to_bits(), want_pq.to_bits(), "{case}: p.q");
                let sum_bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(sum_bits(&sums), sum_bits(&want_sums), "{case}: Z'q");
                assert_eq!(state(&fused), state(&cells), "{case}: sweep 1 fields");

                coeffs.coarse.subtract_az(&tile, &fused.c, &mut fused.q);
                let c = cells.c.clone();
                reference_subtract_az(&cfg, &tile, &coeffs, BLOCKS, &c, &mut cells.q);
                assert_eq!(state(&fused), state(&cells), "{case}: coarse correction");

                let got = fused.update(&tile, &coeffs, &masks, alpha, &mut x);
                let want =
                    reference_update(&mut cells, &tile, &coeffs, &masks, alpha, &mut x_cells);
                assert_eq!(sum_bits(&got), sum_bits(&want), "{case}: sweep 2 sums");
                assert_eq!(state(&fused), state(&cells), "{case}: sweep 2 fields");
                assert_eq!(bits(&x), bits(&x_cells), "{case}: x");

                fused.redirect(&tile, beta);
                reference_redirect(&mut cells, &tile, beta);
                assert_eq!(state(&fused), state(&cells), "{case}: sweep 3 fields");
            }

            // The end of the solve: x += Zc on the wet columns.
            coeffs.coarse.add_z(&tile, &masks, &fused.c, &mut x);
            for (i, j, _) in masks.depth.interior() {
                if masks.depth.at(i, j, 0) > 0.0 {
                    let ck = cells.c[block_of(&cfg, &tile, BLOCKS, i, j)];
                    if ck != 0.0 {
                        x_cells.add(i, j, 0, ck);
                    }
                }
            }
            assert_eq!(bits(&x), bits(&x_cells), "{case}: x + Zc");
        }
    }

    #[test]
    fn solves_aquaplanet_poisson_serial() {
        let d = Decomp::blocks(16, 8, 1, 1, 3);
        let cfg = ModelConfig::test_ocean(16, 8, 4, d);
        let tile = d.tile(0);
        let topo = Topography::aquaplanet(&cfg.grid);
        let masks = Masks::build(&cfg, &tile, &topo);
        let geom = TileGeom::build(&cfg, &tile);
        let coeffs = EllipticCoeffs::build(&cfg, &tile, &geom, &masks);
        let rhs = rhs_pattern(&tile, &masks);
        let mut x = Field3::new(16, 8, 1, 3);
        let mut world = SerialWorld;
        let mut solver = CgSolver::new(&tile);
        let res = solver.solve(
            &mut world, &cfg, &d, &tile, &geom, &coeffs, &masks, &rhs, &mut x,
        );
        assert!(res.converged, "CG did not converge: {res:?}");
        let rr = residual_of(&tile, &coeffs, &masks, &cfg, &rhs, &x, &mut world, &d);
        assert!(rr < 1e-6, "true residual {rr}");
    }

    #[test]
    fn solves_with_continents() {
        let d = Decomp::blocks(32, 16, 1, 1, 3);
        let mut cfg = ModelConfig::test_ocean(32, 16, 4, d);
        cfg.continents = true;
        let tile = d.tile(0);
        let topo = Topography::idealized_continents(&cfg.grid);
        let masks = Masks::build(&cfg, &tile, &topo);
        let geom = TileGeom::build(&cfg, &tile);
        let coeffs = EllipticCoeffs::build(&cfg, &tile, &geom, &masks);
        let rhs = rhs_pattern(&tile, &masks);
        let mut x = Field3::new(32, 16, 1, 3);
        let mut world = SerialWorld;
        let mut solver = CgSolver::new(&tile);
        let res = solver.solve(
            &mut world, &cfg, &d, &tile, &geom, &coeffs, &masks, &rhs, &mut x,
        );
        assert!(res.converged, "CG did not converge: {res:?}");
        // Land cells stay untouched.
        for (i, j, _) in x.clone().interior() {
            if masks.depth.at(i, j, 0) == 0.0 {
                assert_eq!(x.at(i, j, 0), 0.0);
            }
        }
    }

    #[test]
    fn parallel_solution_matches_serial() {
        let (nx, ny, nz) = (16usize, 8usize, 3usize);
        // Serial reference.
        let ds = Decomp::blocks(nx, ny, 1, 1, 3);
        let cfg_s = ModelConfig::test_ocean(nx, ny, nz, ds);
        let tile_s = ds.tile(0);
        let topo = Topography::aquaplanet(&cfg_s.grid);
        let masks_s = Masks::build(&cfg_s, &tile_s, &topo);
        let geom_s = TileGeom::build(&cfg_s, &tile_s);
        let coeffs_s = EllipticCoeffs::build(&cfg_s, &tile_s, &geom_s, &masks_s);
        let rhs_s = rhs_pattern(&tile_s, &masks_s);
        let mut x_s = Field3::new(nx, ny, 1, 3);
        let mut world = SerialWorld;
        let serial = CgSolver::new(&tile_s).solve(
            &mut world, &cfg_s, &ds, &tile_s, &geom_s, &coeffs_s, &masks_s, &rhs_s, &mut x_s,
        );
        assert!(serial.converged);

        // 2×2 parallel run.
        let dp = Decomp::blocks(nx, ny, 2, 2, 3);
        let results = ThreadWorld::run(4, |w| {
            let cfg = ModelConfig::test_ocean(nx, ny, nz, dp);
            let tile = dp.tile(w.rank());
            let topo = Topography::aquaplanet(&cfg.grid);
            let masks = Masks::build(&cfg, &tile, &topo);
            let geom = TileGeom::build(&cfg, &tile);
            let coeffs = EllipticCoeffs::build(&cfg, &tile, &geom, &masks);
            let rhs = rhs_pattern(&tile, &masks);
            let mut x = Field3::new(tile.nx, tile.ny, 1, 3);
            let res = CgSolver::new(&tile)
                .solve(w, &cfg, &dp, &tile, &geom, &coeffs, &masks, &rhs, &mut x);
            assert!(res.converged);
            // The factor stops at the tile's edge, so four tiles
            // precondition less well than one: a little, not a lot.
            assert!(
                2 * res.iterations <= 3 * serial.iterations,
                "{} iterations on 2x2 tiles, {} on one",
                res.iterations,
                serial.iterations
            );
            // Return interior (global index, value) pairs.
            let mut out = Vec::new();
            for (i, j, _) in x.clone().interior() {
                out.push(((tile.gx(i), tile.gy(j)), x.at(i, j, 0)));
            }
            out
        });
        // Solutions agree up to a constant (the nullspace); compare
        // differences from each solution's own mean.
        // BTreeMap: the mean below sums the values, and float addition
        // over hash-iteration order would not be reproducible
        // (hyades-lint float-reduce-unordered).
        let mut par = std::collections::BTreeMap::new();
        for chunk in results {
            for (g, v) in chunk {
                par.insert(g, v);
            }
        }
        let mean_s: f64 = x_s.interior_sum() / (nx * ny) as f64;
        let mean_p: f64 = par.values().sum::<f64>() / par.len() as f64;
        let mut max_diff = 0.0f64;
        let mut max_mag = 0.0f64;
        for (i, j, _) in x_s.clone().interior() {
            let a = x_s.at(i, j, 0) - mean_s;
            let b = par[&(i, j)] - mean_p;
            max_diff = max_diff.max((a - b).abs());
            max_mag = max_mag.max(a.abs());
        }
        assert!(
            max_diff < 1e-6 * max_mag.max(1.0),
            "parallel/serial mismatch: {max_diff} vs magnitude {max_mag}"
        );
    }

    #[test]
    fn zero_rhs_is_immediate() {
        let d = Decomp::blocks(16, 8, 1, 1, 3);
        let cfg = ModelConfig::test_ocean(16, 8, 3, d);
        let tile = d.tile(0);
        let topo = Topography::aquaplanet(&cfg.grid);
        let masks = Masks::build(&cfg, &tile, &topo);
        let geom = TileGeom::build(&cfg, &tile);
        let coeffs = EllipticCoeffs::build(&cfg, &tile, &geom, &masks);
        let rhs = Field3::new(16, 8, 1, 3);
        let mut x = Field3::new(16, 8, 1, 3);
        let mut world = SerialWorld;
        let res = CgSolver::new(&tile).solve(
            &mut world, &cfg, &d, &tile, &geom, &coeffs, &masks, &rhs, &mut x,
        );
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
        assert_eq!(x.interior_max_abs(), 0.0);
    }

    /// A cold solve of `rhs_pattern` on the 32×16 test ocean, aquaplanet
    /// or with continents, with the coarse space on a `blocks` grid:
    /// iterations, and whether the factor keeps block 0.
    fn cold_solve_32x16(continents: bool, blocks: [usize; 2], jacobi: bool) -> (usize, bool) {
        let d = Decomp::blocks(32, 16, 1, 1, 3);
        let cfg = ModelConfig::test_ocean(32, 16, 4, d);
        let tile = d.tile(0);
        let topo = if continents {
            Topography::idealized_continents(&cfg.grid)
        } else {
            Topography::aquaplanet(&cfg.grid)
        };
        let masks = Masks::build(&cfg, &tile, &topo);
        let geom = TileGeom::build(&cfg, &tile);
        let mut coeffs = EllipticCoeffs::on_blocks(&cfg, &tile, &geom, &masks, blocks);
        if jacobi {
            // The same operator behind `M = D`.
            coeffs.mic = Mic0::jacobi(&tile, &coeffs.diag);
        }
        let rhs = rhs_pattern(&tile, &masks);
        let mut x = Field3::new(32, 16, 1, 3);
        let mut world = SerialWorld;
        let res = CgSolver::new(&tile).solve(
            &mut world, &cfg, &d, &tile, &geom, &coeffs, &masks, &rhs, &mut x,
        );
        assert!(res.converged, "{res:?}");
        (res.iterations, coeffs.coarse.factor(&mut world).keeps(0))
    }

    #[test]
    fn one_block_under_the_rigid_lid_is_plain_pcg() {
        // Plain MIC(0)-preconditioned CG took 27 and 31 iterations on
        // these solves before the coarse space; its one block spans the
        // constant, the nullspace, and the factor drops it.
        for (continents, plain) in [(false, 27), (true, 31)] {
            assert_eq!(cold_solve_32x16(continents, [1, 1], false), (plain, false));
            let (deflated, _) = cold_solve_32x16(continents, BLOCKS, false);
            assert!(deflated < plain, "{deflated} iterations on 16 blocks");
        }
    }

    #[test]
    fn iteration_counts_are_a_third_of_point_jacobi() {
        // §5.3's year of atmosphere averages Ni = 60 at 128×64. Without
        // the coarse space the cold 32×16 aquaplanet solve takes 27
        // iterations and point Jacobi 81; warm-started in a run the
        // deflated solver averages 38 a step on the benchmark's 64×32
        // coupled pair and 100 on the 1° ocean (`hbench` `gcm.cg_iters`
        // over `gcm.steps`).
        let (iterations, _) = cold_solve_32x16(false, [1, 1], false);
        let (baseline, _) = cold_solve_32x16(false, [1, 1], true);
        assert!(
            3 * iterations <= baseline,
            "{iterations} iterations against point Jacobi's {baseline}"
        );
    }

    /// Depths (m) of the coarse-space cases on the 32×16 test grid, whose
    /// 4 × 4 blocks are 8 × 4 columns: an all-land block, a closed basin
    /// inside an ocean block, and a closed basin that is a block's only
    /// water.
    fn basin_depth(case: &str, gi: usize, gj: usize) -> f64 {
        let (bi, bj) = (gi % 8, gj % 4);
        let block = (gi / 8, gj / 4);
        let ring = (1..=5).contains(&bi) && (0..=3).contains(&bj);
        let lake = (2..=4).contains(&bi) && (1..=2).contains(&bj);
        let water = 1000.0 + 500.0 * ((gi + 3 * gj) % 5) as f64;
        match (case, block) {
            ("all-land block", (1, 1)) => 0.0,
            ("basin inside an ocean block", (2, 2)) | ("basin alone in its block", (3, 1))
                if ring && !lake =>
            {
                0.0
            }
            ("basin alone in its block", (3, 1)) if !lake => 0.0,
            _ => water,
        }
    }

    #[test]
    fn deflated_solves_meet_the_absolute_target() {
        // b = (−A)x_true: compatible on every basin, as a flux divergence
        // is. After the solve the true residual ‖b − (−A)x‖ must meet the
        // solver's target cg_rtol·‖b − (−A)x₀‖.
        let cases: [(&str, usize, usize); 5] = [
            ("aquaplanet", 16, 8),
            ("scattered land", 16, 8),
            ("all-land block", 32, 16),
            ("basin inside an ocean block", 32, 16),
            ("basin alone in its block", 32, 16),
        ];
        for (case, nx, ny) in cases {
            let d = Decomp::blocks(nx, ny, 1, 1, 3);
            let cfg = ModelConfig::test_ocean(nx, ny, 4, d);
            let tile = d.tile(0);
            let topo = match case {
                "aquaplanet" => Topography::aquaplanet(&cfg.grid),
                "scattered land" => crate::solver::fixtures::scattered_topography(&cfg),
                _ => Topography::from_depths(&cfg.grid, 0.2, |gi, gj| basin_depth(case, gi, gj)),
            };
            let masks = Masks::build(&cfg, &tile, &topo);
            let geom = TileGeom::build(&cfg, &tile);
            let coeffs = EllipticCoeffs::build(&cfg, &tile, &geom, &masks);
            let mut world = SerialWorld;
            let mut wet = |f: &mut Field3, salt: usize| {
                *f = varied(&tile, salt);
                for (i, j, _) in masks.depth.interior() {
                    if masks.depth.at(i, j, 0) == 0.0 {
                        f.set(i, j, 0, 0.0);
                    }
                }
                halo::exchange3(&mut world, &d, &tile, &mut [f], 1);
            };
            let (mut x_true, mut x0) = (Field3::new(nx, ny, 1, 3), Field3::new(nx, ny, 1, 3));
            wet(&mut x_true, 5);
            wet(&mut x0, 6);
            let mut rhs = Field3::new(nx, ny, 1, 3);
            coeffs.apply(&tile, &x_true, &mut rhs);
            for (i, j, _) in masks.depth.interior() {
                rhs.set(i, j, 0, -cfg.dt * rhs.at(i, j, 0));
            }

            // b as the solver forms it, and ‖b − (−A)x‖ over wet columns.
            let (mut sb, mut n) = (0.0, 0.0);
            for (i, j, _) in masks.depth.interior() {
                if masks.depth.at(i, j, 0) > 0.0 {
                    sb += -rhs.at(i, j, 0) / cfg.dt;
                    n += 1.0;
                }
            }
            let mean = sb / n;
            let b = |i: i64, j: i64| -rhs.at(i, j, 0) / cfg.dt - mean;
            let residual = |x: &Field3| {
                let mut ax = Field3::new(nx, ny, 1, 3);
                coeffs.apply(&tile, x, &mut ax);
                let wet = masks
                    .depth
                    .interior()
                    .filter(|&(i, j, _)| masks.depth.at(i, j, 0) > 0.0);
                wet.map(|(i, j, _)| (b(i, j) - ax.at(i, j, 0)).powi(2))
                    .sum::<f64>()
                    .sqrt()
            };
            let target = cfg.cg_rtol * residual(&x0);

            let mut x = x0.clone();
            let res = CgSolver::new(&tile).solve(
                &mut world, &cfg, &d, &tile, &geom, &coeffs, &masks, &rhs, &mut x,
            );
            assert!(res.converged, "{case}: {res:?}");
            let got = residual(&x);
            assert!(
                got <= target,
                "{case}: true residual {got:e}, target {target:e}, {res:?}"
            );

            let factor = coeffs.coarse.factor(&mut world);
            let dropped: Vec<usize> = (0..16).filter(|&k| !factor.keeps(k)).collect();
            let want: &[usize] = match case {
                "all-land block" => &[5, 15],
                "basin alone in its block" => &[7, 15],
                _ => &[15],
            };
            assert_eq!(dropped, want, "{case}: dropped blocks");
        }
    }

    #[test]
    fn a_cut_assembles_the_same_coarse_operator_and_iterates_alike() {
        let (nx, ny) = (32usize, 16usize);
        let build = |d: Decomp, rank: usize, blocks: [usize; 2]| {
            let mut cfg = ModelConfig::test_ocean(nx, ny, 4, d);
            cfg.continents = true;
            let tile = d.tile(rank);
            let topo = Topography::idealized_continents(&cfg.grid);
            let masks = Masks::build(&cfg, &tile, &topo);
            let geom = TileGeom::build(&cfg, &tile);
            let coeffs = EllipticCoeffs::on_blocks(&cfg, &tile, &geom, &masks, blocks);
            (cfg, tile, geom, masks, coeffs)
        };
        // Iterations of a cold solve, with MIC(0) or point Jacobi.
        let solve = |w: &mut dyn CommWorld, d: Decomp, blocks: [usize; 2], jacobi: bool| {
            let (cfg, tile, geom, masks, mut coeffs) = build(d, w.rank(), blocks);
            if jacobi {
                coeffs.mic = Mic0::jacobi(&tile, &coeffs.diag);
            }
            let rhs = rhs_pattern(&tile, &masks);
            let mut x = Field3::new(tile.nx, tile.ny, 1, 3);
            let res = CgSolver::new(&tile)
                .solve(w, &cfg, &d, &tile, &geom, &coeffs, &masks, &rhs, &mut x);
            assert!(res.converged, "{res:?}");
            res.iterations
        };

        let whole = Decomp::blocks(nx, ny, 1, 1, 3);
        let cut = Decomp::blocks(nx, ny, 2, 2, 3);
        let e_whole = build(whole, 0, BLOCKS).4.coarse.local_share().to_vec();
        let mut e_cut = vec![0.0; e_whole.len()];
        for rank in 0..4 {
            for (e, v) in e_cut
                .iter_mut()
                .zip(build(cut, rank, BLOCKS).4.coarse.local_share())
            {
                *e += v;
            }
        }
        let scale = e_whole.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (a, b) in e_whole.iter().zip(&e_cut) {
            assert!(
                (a - b).abs() <= 1e-13 * scale,
                "E: {a} on one tile, {b} on four"
            );
        }

        let iterations = |d: Decomp, blocks, jacobi| {
            let counts = ThreadWorld::run(d.n_ranks(), |w| solve(w, d, blocks, jacobi));
            assert!(counts.iter().all(|&n| n == counts[0]));
            counts[0]
        };
        // A preconditioner that does not see the cut: the coarse space
        // does not either, up to summation order.
        let (one, four) = (
            iterations(whole, BLOCKS, true),
            iterations(cut, BLOCKS, true),
        );
        assert!(
            one.abs_diff(four) <= 2,
            "point Jacobi: {four} iterations on 2x2 tiles, {one} on one"
        );
        // MIC(0) stops at the tile's edge, so four tiles precondition less
        // well than one; the coarse space takes most of that back.
        let penalty = |blocks| iterations(cut, blocks, false) - iterations(whole, blocks, false);
        let (plain, deflated) = (penalty([1, 1]), penalty(BLOCKS));
        assert!(
            deflated <= 4 && 3 * deflated <= plain,
            "the cut costs {deflated} iterations deflated, {plain} plain"
        );
    }
}
