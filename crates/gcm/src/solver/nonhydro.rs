//! The non-hydrostatic extension (§3.1).
//!
//! The model "separates the pressure into hydrostatic, surface and
//! non-hydrostatic parts"; climate-scale runs are hydrostatic, but the
//! same kernel serves "non-hydrostatic rotating fluid dynamics" (Marshall
//! et al. 1997a, 1998). In non-hydrostatic mode the vertical velocity
//! becomes prognostic (`G_w = −v·∇w + ν∇²w`; the buoyancy cancels against
//! the hydrostatic pressure by construction) and a *three-dimensional*
//! Poisson equation is solved for `p_nh` so the full 3-D flow is
//! non-divergent:
//!
//! ```text
//! ∇·(1/V · A_face ∇ p_nh) = ∇·v* / Δt,   v^{n+1} = v* − Δt ∇p_nh
//! ```
//!
//! The solver is a Jacobi-preconditioned CG over 3-D fields with the
//! surface solve's communication (one width-1 exchange and two global
//! sums per iteration). In the hydrostatic limit (aspect ratio → 0) the correction
//! vanishes — the paper's stated justification for running climate
//! configurations hydrostatically — and a regression test pins that.

use crate::config::ModelConfig;
use crate::decomp::Decomp;
use crate::field::Field3;
use crate::flops::{self, Phase};
use crate::halo;
use crate::kernel::TileGeom;
use crate::state::{Masks, ModelState};
use crate::tile::Tile;
use hyades_comms::CommWorld;

/// Flops per wet cell per CG3 iteration (7-point operator + CG updates).
pub const CG3_FLOPS_PER_CELL: u64 = 27;

/// Face transmissibilities of the 3-D operator.
#[derive(Clone, Debug)]
pub struct NhCoeffs {
    /// West face of cell (i,j,k): `dy·dz/dx` (0 at land).
    aw: Field3,
    /// South face: `dx_s·dz/dy`.
    a_s: Field3,
    /// Top interface between k and k−1: `area/dz_interface`.
    at: Field3,
    diag: Field3,
}

impl NhCoeffs {
    pub fn build(cfg: &ModelConfig, tile: &Tile, geom: &TileGeom, masks: &Masks) -> NhCoeffs {
        let (nx, ny, nz, h) = (tile.nx, tile.ny, cfg.grid.nz, tile.halo);
        let mut aw = Field3::new(nx, ny, nz, h);
        let mut a_s = Field3::new(nx, ny, nz, h);
        let mut at = Field3::new(nx, ny, nz, h);
        let mut diag = Field3::new(nx, ny, nz, h);
        let hi = h as i64 - 1;
        for k in 0..nz {
            let dz = cfg.grid.dz[k];
            for j in -hi..(ny as i64 + hi) {
                for i in -hi..(nx as i64 + hi) {
                    aw.set(
                        i,
                        j,
                        k,
                        masks.hu.at(i, j, k) * geom.dy * dz / geom.dxc_at(j),
                    );
                    a_s.set(
                        i,
                        j,
                        k,
                        masks.hv.at(i, j, k) * geom.dxs_at(j) * dz / geom.dy,
                    );
                    let vert_ok =
                        k > 0 && masks.c.at(i, j, k) != 0.0 && masks.c.at(i, j, k - 1) != 0.0;
                    if vert_ok {
                        let dzi = 0.5 * (cfg.grid.dz[k - 1] + dz);
                        at.set(i, j, k, geom.area_at(j) / dzi);
                    }
                }
            }
        }
        let di = h as i64 - 2;
        for k in 0..nz {
            for j in -di..(ny as i64 + di) {
                for i in -di..(nx as i64 + di) {
                    let below = if k + 1 < nz { at.at(i, j, k + 1) } else { 0.0 };
                    diag.set(
                        i,
                        j,
                        k,
                        aw.at(i, j, k)
                            + aw.at(i + 1, j, k)
                            + a_s.at(i, j, k)
                            + a_s.at(i, j + 1, k)
                            + at.at(i, j, k)
                            + below,
                    );
                }
            }
        }
        NhCoeffs { aw, a_s, at, diag }
    }

    /// `out = (−A3)·x` on the interior (`x` needs a width-1 halo).
    pub fn apply(&self, tile: &Tile, nz: usize, x: &Field3, out: &mut Field3) {
        let (nx, ny) = (tile.nx as i64, tile.ny as i64);
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let xc = x.at(i, j, k);
                    let mut q = self.diag.at(i, j, k) * xc
                        - self.aw.at(i, j, k) * x.at(i - 1, j, k)
                        - self.aw.at(i + 1, j, k) * x.at(i + 1, j, k)
                        - self.a_s.at(i, j, k) * x.at(i, j - 1, k)
                        - self.a_s.at(i, j + 1, k) * x.at(i, j + 1, k);
                    if k > 0 {
                        q -= self.at.at(i, j, k) * x.at(i, j, k - 1);
                    }
                    if k + 1 < nz {
                        q -= self.at.at(i, j, k + 1) * x.at(i, j, k + 1);
                    }
                    out.set(i, j, k, q);
                }
            }
        }
    }
}

/// 3-D divergence of the provisional flow (volume flux units, m³/s):
/// `rhs(i,j,k) = hdiv + (w_k − w_{k+1})·area`.
#[allow(clippy::too_many_arguments)]
pub fn divergence3(
    cfg: &ModelConfig,
    tile: &Tile,
    geom: &TileGeom,
    masks: &Masks,
    u: &Field3,
    v: &Field3,
    w: &Field3,
    out: &mut Field3,
) {
    let nz = cfg.grid.nz;
    let (nx, ny) = (tile.nx as i64, tile.ny as i64);
    for k in 0..nz {
        let dz = cfg.grid.dz[k];
        for j in 0..ny {
            let area = geom.area_at(j);
            for i in 0..nx {
                if masks.c.at(i, j, k) == 0.0 {
                    out.set(i, j, k, 0.0);
                    continue;
                }
                let uin = u.at(i, j, k) * masks.hu.at(i, j, k);
                let uout = u.at(i + 1, j, k) * masks.hu.at(i + 1, j, k);
                let vin = v.at(i, j, k) * masks.hv.at(i, j, k) * geom.dxs_at(j);
                let vout = v.at(i, j + 1, k) * masks.hv.at(i, j + 1, k) * geom.dxs_at(j + 1);
                let w_top = w.at(i, j, k);
                let w_bot = if k + 1 < nz { w.at(i, j, k + 1) } else { 0.0 };
                let div = (uout - uin) * geom.dy * dz + (vout - vin) * dz + (w_top - w_bot) * area;
                out.set(i, j, k, div);
            }
        }
    }
}

/// The non-hydrostatic solver state.
pub struct NonHydroSolver {
    coeffs: NhCoeffs,
    r: Field3,
    z: Field3,
    p: Field3,
    q: Field3,
    /// The non-hydrostatic pressure (kept across steps as a warm start).
    pub pnh: Field3,
}

/// Result of one 3-D solve.
#[derive(Clone, Copy, Debug)]
pub struct Nh3Result {
    pub iterations: usize,
    pub converged: bool,
}

impl NonHydroSolver {
    pub fn new(cfg: &ModelConfig, tile: &Tile, geom: &TileGeom, masks: &Masks) -> NonHydroSolver {
        let f = || Field3::new(tile.nx, tile.ny, cfg.grid.nz, tile.halo);
        NonHydroSolver {
            coeffs: NhCoeffs::build(cfg, tile, geom, masks),
            r: f(),
            z: f(),
            p: f(),
            q: f(),
            pnh: f(),
        }
    }

    /// Solve `(−A3)·pnh = −rhs/Δt` and subtract `Δt·∇pnh` from
    /// `(u, v, w)` so the 3-D flow is discretely non-divergent.
    #[allow(clippy::too_many_arguments)]
    pub fn project(
        &mut self,
        world: &mut dyn CommWorld,
        cfg: &ModelConfig,
        decomp: &Decomp,
        tile: &Tile,
        geom: &TileGeom,
        masks: &Masks,
        state: &mut ModelState,
    ) -> Nh3Result {
        let nz = cfg.grid.nz;
        let (nx, ny) = (tile.nx as i64, tile.ny as i64);
        let mut rhs = self.q.clone();
        divergence3(
            cfg, tile, geom, masks, &state.u, &state.v, &state.w, &mut rhs,
        );

        // Compatibility: remove the wet-cell mean of b = −rhs/Δt.
        let mut sums = [0.0f64, 0.0];
        for (i, j, k) in rhs.interior() {
            if masks.c.at(i, j, k) != 0.0 {
                sums[0] += -rhs.at(i, j, k) / cfg.dt;
                sums[1] += 1.0;
            }
        }
        world.global_sum_vec(&mut sums);
        let mean_b = if sums[1] > 0.0 {
            sums[0] / sums[1]
        } else {
            0.0
        };

        // Warm-started residual.
        halo::exchange3(world, decomp, tile, &mut [&mut self.pnh], 1);
        self.coeffs.apply(tile, nz, &self.pnh, &mut self.q);
        let mut rz = 0.0;
        let mut rr0 = 0.0;
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    if masks.c.at(i, j, k) == 0.0 {
                        self.r.set(i, j, k, 0.0);
                        self.z.set(i, j, k, 0.0);
                        self.p.set(i, j, k, 0.0);
                        continue;
                    }
                    let b = -rhs.at(i, j, k) / cfg.dt - mean_b;
                    let r = b - self.q.at(i, j, k);
                    self.r.set(i, j, k, r);
                    let d = self.coeffs.diag.at(i, j, k);
                    let z = if d > 0.0 { r / d } else { 0.0 };
                    self.z.set(i, j, k, z);
                    self.p.set(i, j, k, z);
                    rz += r * z;
                    rr0 += r * r;
                }
            }
        }
        let mut init = [rz, rr0];
        world.global_sum_vec(&mut init);
        let (mut rz, rr0) = (init[0], init[1]);
        let mut iterations = 0;
        let mut converged = rr0 == 0.0;
        if !converged {
            let target = cfg.cg_rtol * cfg.cg_rtol * rr0;
            let wet = masks.wet_cells.max(1);
            while iterations < cfg.cg_max_iters {
                iterations += 1;
                halo::exchange3(world, decomp, tile, &mut [&mut self.p], 1);
                self.coeffs.apply(tile, nz, &self.p, &mut self.q);
                let mut pq = 0.0;
                for (i, j, k) in self.p.interior() {
                    pq += self.p.at(i, j, k) * self.q.at(i, j, k);
                }
                let pq = world.global_sum(pq);
                if pq <= 0.0 {
                    converged = true;
                    break;
                }
                let alpha = rz / pq;
                let mut rz_new = 0.0;
                let mut rr_new = 0.0;
                for k in 0..nz {
                    for j in 0..ny {
                        for i in 0..nx {
                            if masks.c.at(i, j, k) == 0.0 {
                                continue;
                            }
                            self.pnh.add(i, j, k, alpha * self.p.at(i, j, k));
                            let r = self.r.at(i, j, k) - alpha * self.q.at(i, j, k);
                            self.r.set(i, j, k, r);
                            let d = self.coeffs.diag.at(i, j, k);
                            let z = if d > 0.0 { r / d } else { 0.0 };
                            self.z.set(i, j, k, z);
                            rz_new += r * z;
                            rr_new += r * r;
                        }
                    }
                }
                let mut pair = [rz_new, rr_new];
                world.global_sum_vec(&mut pair);
                let rr = pair[1];
                flops::add(Phase::Ds, wet * CG3_FLOPS_PER_CELL);
                if rr <= target {
                    converged = true;
                    break;
                }
                let beta = pair[0] / rz;
                rz = pair[0];
                for (i, j, k) in self.z.clone().interior() {
                    let p = self.z.at(i, j, k) + beta * self.p.at(i, j, k);
                    self.p.set(i, j, k, p);
                }
            }
        }

        // Correct the velocities with ∇pnh.
        halo::exchange3(world, decomp, tile, &mut [&mut self.pnh], 1);
        let dt = cfg.dt;
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    if masks.u.at(i, j, k) != 0.0 {
                        let g = (self.pnh.at(i, j, k) - self.pnh.at(i - 1, j, k)) / geom.dxc_at(j);
                        state.u.add(i, j, k, -dt * g);
                    }
                    if masks.v.at(i, j, k) != 0.0 {
                        let g = (self.pnh.at(i, j, k) - self.pnh.at(i, j - 1, k)) / geom.dy;
                        state.v.add(i, j, k, -dt * g);
                    }
                    // Interface between k and k−1 (w positive toward k−1).
                    if k > 0 && masks.c.at(i, j, k) != 0.0 && masks.c.at(i, j, k - 1) != 0.0 {
                        let dzi = 0.5 * (cfg.grid.dz[k - 1] + cfg.grid.dz[k]);
                        let g = (self.pnh.at(i, j, k - 1) - self.pnh.at(i, j, k)) / dzi;
                        state.w.add(i, j, k, -dt * g);
                    }
                }
            }
        }
        Nh3Result {
            iterations,
            converged,
        }
    }
}

/// Prognostic tendency for `w` in non-hydrostatic mode: advection of `w`
/// plus Laplacian smoothing (the buoyancy term cancels against the
/// hydrostatic pressure by construction). Computed on the interior.
pub fn w_tendency(
    cfg: &ModelConfig,
    tile: &Tile,
    geom: &TileGeom,
    masks: &Masks,
    state: &ModelState,
    out: &mut Field3,
) {
    let nz = cfg.grid.nz;
    let (nx, ny) = (tile.nx as i64, tile.ny as i64);
    let w = &state.w;
    for k in 0..nz {
        for j in 0..ny {
            let dy = geom.dy;
            let dx = geom.dxc_at(j);
            for i in 0..nx {
                // w lives on the interface between k and k−1; it is only
                // active where both cells are wet.
                if k == 0 || masks.c.at(i, j, k) == 0.0 || masks.c.at(i, j, k - 1) == 0.0 {
                    out.set(i, j, k, 0.0);
                    continue;
                }
                let wc = w.at(i, j, k);
                // Horizontal advecting velocities averaged to the w-point.
                let ubar = 0.25
                    * (state.u.at(i, j, k)
                        + state.u.at(i + 1, j, k)
                        + state.u.at(i, j, k - 1)
                        + state.u.at(i + 1, j, k - 1));
                let vbar = 0.25
                    * (state.v.at(i, j, k)
                        + state.v.at(i, j + 1, k)
                        + state.v.at(i, j, k - 1)
                        + state.v.at(i, j + 1, k - 1));
                let dwdx = (w.at(i + 1, j, k) - w.at(i - 1, j, k)) / (2.0 * dx);
                let dwdy = (w.at(i, j + 1, k) - w.at(i, j - 1, k)) / (2.0 * dy);
                let mut g = -(ubar * dwdx + vbar * dwdy);
                // Horizontal smoothing for stability.
                let lap = (w.at(i + 1, j, k) - 2.0 * wc + w.at(i - 1, j, k)) / (dx * dx)
                    + (w.at(i, j + 1, k) - 2.0 * wc + w.at(i, j - 1, k)) / (dy * dy);
                g += cfg.visc_h * lap;
                out.set(i, j, k, g);
            }
        }
    }
    flops::add(Phase::Ps, (tile.nx * tile.ny * nz) as u64 * 24);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::topography::Topography;
    use hyades_comms::SerialWorld;

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
    fn operator_kills_constants_and_is_spd() {
        let (cfg, tile, geom, masks, _st) = setup();
        let coeffs = NhCoeffs::build(&cfg, &tile, &geom, &masks);
        let mut x = Field3::new(8, 8, 4, 3);
        x.fill(3.0);
        let mut out = Field3::new(8, 8, 4, 3);
        coeffs.apply(&tile, 4, &x, &mut out);
        // Scale the roundoff tolerance by the operator magnitude: the
        // vertical transmissibilities are ~1e8, so exact cancellation
        // leaves ~1e-14 relative noise.
        let scale = coeffs.diag.interior_max_abs() * 3.0;
        assert!(
            out.interior_max_abs() < 1e-12 * scale,
            "{} vs scale {scale}",
            out.interior_max_abs()
        );
        // SPD on a non-constant field.
        for (n, (i, j, k)) in x.clone().interior().enumerate() {
            x.set(i, j, k, ((n * 29 % 13) as f64) - 6.0);
        }
        coeffs.apply(&tile, 4, &x, &mut out);
        let xax: f64 = x
            .interior()
            .map(|(i, j, k)| x.at(i, j, k) * out.at(i, j, k))
            .sum();
        assert!(xax > 0.0);
    }

    #[test]
    fn projection_removes_3d_divergence() {
        let (cfg, tile, geom, masks, mut st) = setup();
        // A messy divergent flow.
        for (i, j, k) in st.u.clone().interior() {
            st.u.set(i, j, k, 0.05 * ((i * 3 + j + k as i64) as f64).sin());
            st.v.set(
                i,
                j,
                k,
                0.04 * ((i - 2 * j) as f64).cos() * masks.v.at(i, j, k),
            );
            if k > 0 {
                st.w.set(i, j, k, 0.01 * ((i + j) as f64 * 0.3).sin());
            }
        }
        let d = Decomp::blocks(8, 8, 1, 1, 3);
        let mut world = SerialWorld;
        halo::exchange3(
            &mut world,
            &d,
            &tile,
            &mut [&mut st.u, &mut st.v, &mut st.w],
            1,
        );
        let mut div = Field3::new(8, 8, 4, 3);
        divergence3(&cfg, &tile, &geom, &masks, &st.u, &st.v, &st.w, &mut div);
        let before = div.interior_max_abs();
        assert!(before > 0.0);

        let mut solver = NonHydroSolver::new(&cfg, &tile, &geom, &masks);
        let res = solver.project(&mut world, &cfg, &d, &tile, &geom, &masks, &mut st);
        assert!(res.converged, "{res:?}");

        halo::exchange3(
            &mut world,
            &d,
            &tile,
            &mut [&mut st.u, &mut st.v, &mut st.w],
            1,
        );
        divergence3(&cfg, &tile, &geom, &masks, &st.u, &st.v, &st.w, &mut div);
        let after = div.interior_max_abs();
        assert!(
            after < 1e-5 * before,
            "divergence only reduced {before} -> {after}"
        );
    }

    #[test]
    fn nondivergent_flow_needs_no_correction() {
        let (cfg, tile, geom, masks, mut st) = setup();
        st.u.fill(0.2); // uniform zonal flow on the periodic channel
        let d = Decomp::blocks(8, 8, 1, 1, 3);
        let mut world = SerialWorld;
        let u_before = st.u.clone();
        let mut solver = NonHydroSolver::new(&cfg, &tile, &geom, &masks);
        let res = solver.project(&mut world, &cfg, &d, &tile, &geom, &masks, &mut st);
        assert!(res.converged);
        assert!(res.iterations <= 2, "iterations {}", res.iterations);
        let mut maxd = 0.0f64;
        for (i, j, k) in st.u.clone().interior() {
            maxd = maxd.max((st.u.at(i, j, k) - u_before.at(i, j, k)).abs());
        }
        assert!(maxd < 1e-12, "uniform flow perturbed by {maxd}");
    }
}
