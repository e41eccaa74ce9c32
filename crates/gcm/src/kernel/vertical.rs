//! Implicit vertical mixing.
//!
//! Explicit vertical diffusion limits the time step by `κ_v·Δt/Δz² < ½`,
//! which bites hard in the ocean's thin surface layers (the MITgcm treats
//! vertical mixing implicitly for exactly this reason, and convective
//! schemes often raise `κ_v` by orders of magnitude). The backward-Euler
//! tridiagonal solve here is unconditionally stable and exactly
//! conservative: solve `(I − Δt·D) x^{n+1} = x^n` column by column, where
//! `D` is the flux-form vertical diffusion operator with no-flux
//! boundaries.

use crate::config::ModelConfig;
use crate::field::{Band, Field3};
use crate::flops::{self, Phase};
use crate::kernel::{in_column, select, Cols};
use crate::state::Masks;
use crate::tile::Tile;

/// Flops per wet cell of one implicit column solve (Thomas algorithm).
pub const FLOPS_PER_CELL: u64 = 14;

/// The Thomas algorithm's factors, which depend on the level and on
/// whether it is the column's last wet one, not on the column: built once
/// a call and shared by every column (scratch reused across calls).
///
/// Row `k` of a column with `kmax` wet levels is `a·x_{k−1} + b·x_k +
/// c·x_{k+1}` with `a = −up`, `c = −dn`, `b = 1 + up + dn`, where `dn` is
/// zero on the last wet level (`k + 1 = kmax`) and nowhere else — so the
/// forward elimination's pivot is `m[k]` above the last level and
/// `m_last[k]` on it, and `cp[k]` is only ever needed above it.
#[derive(Clone, Debug, Default)]
pub struct Tridiag {
    a: Vec<f64>,      // sub-diagonal
    cp: Vec<f64>,     // c / pivot, above the column's last level
    m: Vec<f64>,      // pivot, above the column's last level
    m_last: Vec<f64>, // pivot on the column's last level
}

impl Tridiag {
    pub fn new(nz: usize) -> Tridiag {
        Tridiag {
            a: vec![0.0; nz],
            cp: vec![0.0; nz],
            m: vec![0.0; nz],
            m_last: vec![0.0; nz],
        }
    }

    /// The factors of a step with diffusivity `kappa`, or `None` when the
    /// step leaves every column as it is (no diffusivity, or one level).
    pub(crate) fn factored(&mut self, cfg: &ModelConfig, kappa: f64) -> Option<&Tridiag> {
        if kappa <= 0.0 || cfg.grid.nz < 2 {
            return None;
        }
        self.factor(kappa, cfg.dt, &cfg.grid.dz);
        Some(self)
    }

    /// Factor the operator for diffusivity `kappa` on levels `dz`.
    /// Flux-form coefficients: flux between k-1 and k is
    /// κ·(x_{k-1} − x_k)/dz_interface; cell k's budget divides by
    /// dz_k. No-flux at the two ends.
    fn factor(&mut self, kappa: f64, dt: f64, dz: &[f64]) {
        let nz = dz.len();
        for v in [&mut self.a, &mut self.cp, &mut self.m, &mut self.m_last] {
            v.resize(nz, 0.0);
        }
        for k in 0..nz {
            let up = if k > 0 {
                kappa * dt / (0.5 * (dz[k - 1] + dz[k]) * dz[k])
            } else {
                0.0
            };
            // As on a level above its column's last; `cp` of the deepest
            // level is never read.
            let dn = if k + 1 < nz {
                kappa * dt / (0.5 * (dz[k] + dz[k + 1]) * dz[k])
            } else {
                0.0
            };
            let a = -up;
            // The level above is never its column's last.
            let pivot = |b: f64| if k == 0 { b } else { b - a * self.cp[k - 1] };
            // On the last level `dn` is 0.0, and `1 + up + 0.0` is `1 + up`.
            let (m, m_last) = (pivot(1.0 + up + dn), pivot(1.0 + up));
            self.a[k] = a;
            self.m[k] = m;
            self.m_last[k] = m_last;
            self.cp[k] = -dn / m;
        }
    }
}

/// Apply one backward-Euler implicit vertical diffusion step with
/// diffusivity `kappa` to `field`, over the columns of the interior.
///
/// Every column is its own tridiagonal system, but all of them share the
/// factors in `scratch`; the forward elimination and the back
/// substitution run in place, level by level over a row of columns, on
/// the columns whose `kmax` puts the level inside them.
pub fn implicit_vertical_diffusion(
    cfg: &ModelConfig,
    tile: &Tile,
    masks: &Masks,
    field: &mut Field3,
    kappa: f64,
    scratch: &mut Tridiag,
) {
    if let Some(factors) = scratch.factored(cfg, kappa) {
        implicit_vertical_diffusion_rows(cfg, tile, masks, field.band(), factors);
    }
}

/// [`implicit_vertical_diffusion`] with `factors` on the rows the band
/// of the field holds. The factors are only read, so bands of one field
/// share them.
pub(crate) fn implicit_vertical_diffusion_rows(
    cfg: &ModelConfig,
    tile: &Tile,
    masks: &Masks,
    mut field: Band<'_>,
    factors: &Tridiag,
) {
    let nz = cfg.grid.nz;
    let Tridiag { a, cp, m, m_last } = factors;
    let cols = Cols::new(tile.nx, 0);
    let n = cols.n;
    let mut cells = 0u64;
    for j in field.rows(0) {
        let kmax = cols.of(&masks.kmax, j, 0);
        // Columns of fewer than two levels have nothing to mix.
        let top = cols.of_mut(&mut field, j, 0);
        for i in 0..n {
            let solved = in_column(1, kmax[i]);
            top[i] = select(solved, top[i] / m[0], top[i]);
            cells += if solved { kmax[i] as u64 } else { 0 };
        }
        for k in 1..nz {
            let (above, here) = cols.pair(&mut field, j, k - 1, k);
            for i in 0..n {
                let pivot = select(in_column(k + 1, kmax[i]), m[k], m_last[k]);
                let x = (here[i] - a[k] * above[i]) / pivot;
                here[i] = select(in_column(k, kmax[i]), x, here[i]);
            }
        }
        for k in (0..nz.saturating_sub(1)).rev() {
            let (below, here) = cols.pair(&mut field, j, k + 1, k);
            for i in 0..n {
                let x = here[i] - cp[k] * below[i];
                here[i] = select(in_column(k + 1, kmax[i]), x, here[i]);
            }
        }
    }
    flops::add(Phase::Ps, cells * FLOPS_PER_CELL);
}

/// The cell-at-a-time loops the row sweeps above replaced, kept as what
/// the sweeps are compared with, bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Scratch for the Thomas algorithm (reused across columns).
    #[derive(Clone, Debug, Default)]
    pub(crate) struct Tridiag {
        a: Vec<f64>, // sub-diagonal
        b: Vec<f64>, // diagonal
        c: Vec<f64>, // super-diagonal
        d: Vec<f64>, // rhs / solution
        cp: Vec<f64>,
    }

    impl Tridiag {
        pub(crate) fn new(nz: usize) -> Tridiag {
            Tridiag {
                a: vec![0.0; nz],
                b: vec![0.0; nz],
                c: vec![0.0; nz],
                d: vec![0.0; nz],
                cp: vec![0.0; nz],
            }
        }

        /// Solve the system in place; the solution lands in `d[..n]`.
        /// Standard Thomas forward sweep + back substitution.
        pub(crate) fn solve(&mut self, n: usize) {
            assert!(n >= 1);
            self.cp[0] = self.c[0] / self.b[0];
            self.d[0] /= self.b[0];
            for k in 1..n {
                let m = self.b[k] - self.a[k] * self.cp[k - 1];
                self.cp[k] = self.c[k] / m;
                self.d[k] = (self.d[k] - self.a[k] * self.d[k - 1]) / m;
            }
            for k in (0..n.saturating_sub(1)).rev() {
                self.d[k] -= self.cp[k] * self.d[k + 1];
            }
        }
    }

    /// Apply one backward-Euler implicit vertical diffusion step with
    /// diffusivity `kappa` to `field`, column by column over the interior.
    pub(crate) fn implicit_vertical_diffusion(
        cfg: &ModelConfig,
        tile: &Tile,
        masks: &Masks,
        field: &mut Field3,
        kappa: f64,
        scratch: &mut Tridiag,
    ) {
        if kappa <= 0.0 {
            return;
        }
        let (nx, ny) = (tile.nx as i64, tile.ny as i64);
        let dt = cfg.dt;
        let dz = &cfg.grid.dz;
        let mut cells = 0u64;
        for j in 0..ny {
            for i in 0..nx {
                let kmax = masks.kmax.at(i, j, 0) as usize;
                if kmax < 2 {
                    continue;
                }
                // Flux-form coefficients: flux between k-1 and k is
                // κ·(x_{k-1} − x_k)/dz_interface; cell k's budget divides by
                // dz_k. No-flux at the two ends.
                for k in 0..kmax {
                    let up = if k > 0 {
                        kappa * dt / (0.5 * (dz[k - 1] + dz[k]) * dz[k])
                    } else {
                        0.0
                    };
                    let dn = if k + 1 < kmax {
                        kappa * dt / (0.5 * (dz[k] + dz[k + 1]) * dz[k])
                    } else {
                        0.0
                    };
                    scratch.a[k] = -up;
                    scratch.c[k] = -dn;
                    scratch.b[k] = 1.0 + up + dn;
                    scratch.d[k] = field.at(i, j, k);
                    cells += 1;
                }
                scratch.solve(kmax);
                for k in 0..kmax {
                    field.set(i, j, k, scratch.d[k]);
                }
            }
        }
        flops::add(Phase::Ps, cells * FLOPS_PER_CELL);
    }

    #[test]
    fn thomas_solves_known_system() {
        // [2 1 0; 1 2 1; 0 1 2] x = [4; 8; 8] → x = [1; 2; 3].
        let mut t = Tridiag::new(3);
        t.a.copy_from_slice(&[0.0, 1.0, 1.0]);
        t.b.copy_from_slice(&[2.0, 2.0, 2.0]);
        t.c.copy_from_slice(&[1.0, 1.0, 0.0]);
        t.d.copy_from_slice(&[4.0, 8.0, 8.0]);
        t.solve(3);
        for (got, want) in t.d.iter().zip([1.0, 2.0, 3.0]) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::Decomp;
    use crate::topography::Topography;

    fn setup(nz: usize) -> (ModelConfig, Tile, Masks) {
        let d = Decomp::blocks(4, 4, 1, 1, 3);
        let cfg = ModelConfig::test_ocean(4, 4, nz, d);
        let tile = d.tile(0);
        let topo = Topography::aquaplanet(&cfg.grid);
        let masks = Masks::build(&cfg, &tile, &topo);
        (cfg, tile, masks)
    }

    #[test]
    fn conserves_column_content_exactly() {
        let (cfg, tile, masks) = setup(6);
        let mut f = Field3::new(4, 4, 6, 3);
        for k in 0..6 {
            f.set(1, 1, k, (k * k) as f64 - 3.0);
        }
        let before: f64 = (0..6).map(|k| f.at(1, 1, k) * cfg.grid.dz[k]).sum();
        let mut scratch = Tridiag::new(6);
        implicit_vertical_diffusion(&cfg, &tile, &masks, &mut f, 1e-2, &mut scratch);
        let after: f64 = (0..6).map(|k| f.at(1, 1, k) * cfg.grid.dz[k]).sum();
        assert!(
            (before - after).abs() < 1e-10 * before.abs().max(1.0),
            "{before} -> {after}"
        );
    }

    #[test]
    fn smooths_towards_column_mean() {
        let (cfg, tile, masks) = setup(4);
        let mut f = Field3::new(4, 4, 4, 3);
        f.set(2, 2, 0, 10.0);
        let mut scratch = Tridiag::new(4);
        // A huge diffusivity (unconditionally stable!) homogenizes the
        // 4-km column: the diffusive length sqrt(2*kappa*t) with kappa =
        // 1000 m2/s over 50 hour-long steps is ~19 km >> 4 km.
        for _ in 0..50 {
            implicit_vertical_diffusion(&cfg, &tile, &masks, &mut f, 1000.0, &mut scratch);
        }
        let total_dz: f64 = cfg.grid.dz.iter().sum();
        let mean = 10.0 * cfg.grid.dz[0] / total_dz;
        for k in 0..4 {
            assert!(
                (f.at(2, 2, k) - mean).abs() < 0.05 * mean,
                "level {k}: {} vs mean {mean}",
                f.at(2, 2, k)
            );
        }
    }

    #[test]
    fn stable_where_explicit_would_blow_up() {
        let (cfg, tile, masks) = setup(6);
        // Explicit limit: κ·dt/dz² < 0.5. With dt=3600 s and the thinnest
        // dz ≈ 127 m, κ = 100 m²/s gives a ratio of ~22 — explosively
        // unstable explicitly; the implicit solve must stay bounded and
        // monotone.
        let mut f = Field3::new(4, 4, 6, 3);
        for k in 0..6 {
            f.set(0, 0, k, if k == 2 { 1.0 } else { 0.0 });
        }
        let mut scratch = Tridiag::new(6);
        implicit_vertical_diffusion(&cfg, &tile, &masks, &mut f, 100.0, &mut scratch);
        for k in 0..6 {
            let v = f.at(0, 0, k);
            assert!((0.0..=1.0).contains(&v), "level {k} out of bounds: {v}");
        }
    }

    #[test]
    fn land_columns_untouched() {
        let d = Decomp::blocks(16, 8, 1, 1, 3);
        let mut cfg = ModelConfig::test_ocean(16, 8, 4, d);
        cfg.continents = true;
        let tile = d.tile(0);
        let topo = Topography::idealized_continents(&cfg.grid);
        let masks = Masks::build(&cfg, &tile, &topo);
        let mut f = Field3::new(16, 8, 4, 3);
        f.fill(5.0);
        let before = f.clone();
        let mut scratch = Tridiag::new(4);
        implicit_vertical_diffusion(&cfg, &tile, &masks, &mut f, 1.0, &mut scratch);
        for (i, j, k) in f.clone().interior() {
            if masks.kmax.at(i, j, 0) < 2.0 {
                assert_eq!(f.at(i, j, k), before.at(i, j, k));
            }
        }
    }
}

#[cfg(test)]
mod sweep_tests {
    use super::*;
    use crate::kernel::fixtures::{cases, Case};

    // Columns of 0, 1, 2, … and all `nz` levels side by side; a weak and
    // a violent diffusivity, and none.
    #[test]
    fn implicit_diffusion_sweep_matches_the_reference_bit_for_bit() {
        for case in cases() {
            let Case {
                cfg, tile, masks, ..
            } = &case;
            let nz = cfg.grid.nz;
            for kappa in [0.0, cfg.diff_v, 1.0e4 * cfg.diff_v] {
                case.check(
                    &format!("implicit_vertical_diffusion, kappa {kappa}"),
                    |st, _| {
                        // Scratch of the wrong size and with stale
                        // contents: the factors are rebuilt every call.
                        let mut scratch = Tridiag::new(1);
                        for field in [&mut st.theta, &mut st.s, &mut st.u] {
                            implicit_vertical_diffusion(
                                cfg,
                                tile,
                                masks,
                                field,
                                kappa,
                                &mut scratch,
                            );
                        }
                    },
                    |st, _| {
                        let mut scratch = reference::Tridiag::new(nz);
                        for field in [&mut st.theta, &mut st.s, &mut st.u] {
                            reference::implicit_vertical_diffusion(
                                cfg,
                                tile,
                                masks,
                                field,
                                kappa,
                                &mut scratch,
                            );
                        }
                    },
                );
            }
        }
    }
}
