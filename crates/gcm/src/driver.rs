//! The model driver: Figure 6 as executable code.
//!
//! ```text
//! INITIALIZE: define topography, initial flow and tracer distributions
//! FOR each time step n DO
//!   PS:  step forward state  v^n = v^{n-1} + Δt(G^{n-1/2} − ∇p^{n-1/2})
//!        calculate time derivatives  G^{n+1/2} = g_v(v, b)
//!        calculate hydrostatic p     p_hy = hy(b)
//!   DS:  solve for pressure  ∇h·(H ∇h ps) = …
//! END FOR
//! ```
//!
//! Communication per step: one width-3 exchange of the five model fields
//! (u, v, w, θ, s) at the top of PS — overcomputation covers the rest —
//! and, inside DS, one width-1 two-field exchange plus two global sums
//! per solver iteration.

use crate::config::ModelConfig;
use crate::flops;
use crate::halo;
use crate::kernel::vertical::{implicit_vertical_diffusion_rows, Tridiag};
use crate::kernel::{band_split, gterms, hydrostatic, in_bands, timestep, TileGeom, Workspace};
use crate::physics::{self, BoundaryFields};
use crate::solver::{CgResult, CgSolver, EllipticCoeffs};
use crate::state::{Masks, ModelState};
use crate::tile::Tile;
use crate::topography::Topography;
use hyades_comms::CommWorld;
use hyades_telemetry as telemetry;
use std::sync::Arc;

/// Per-step statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepStats {
    /// Solver iterations this step (the paper's `Ni`).
    pub cg_iterations: usize,
    /// Final `‖r‖ / ‖r₀‖` of the surface-pressure solve: the reduction
    /// from the warm-started first residual (`CgResult::rel_residual`),
    /// not a residual relative to the right-hand side.
    pub cg_residual: f64,
    /// Absolute `‖r₀‖` of the surface-pressure solve (warm-start drift).
    pub cg_initial_residual: f64,
    /// Absolute final `‖r‖`.
    pub cg_final_residual: f64,
    pub cg_converged: bool,
    /// Flops this rank spent in each phase this step.
    pub ps_flops: u64,
    pub ds_flops: u64,
    /// Local maximum horizontal speed (m/s) — CFL tripwire.
    pub max_speed: f64,
}

/// One isomorph instance on one rank.
pub struct Model {
    pub cfg: ModelConfig,
    pub tile: Tile,
    pub geom: TileGeom,
    pub masks: Masks,
    pub topo: Arc<Topography>,
    pub state: ModelState,
    pub bc: BoundaryFields,
    ws: Workspace,
    coeffs: EllipticCoeffs,
    solver: CgSolver,
    tridiag: Tridiag,
    pub steps_taken: u64,
    /// Cumulative solver iterations (for the mean `Ni`).
    pub total_cg_iterations: u64,
    /// Cumulative flops.
    pub total_ps_flops: u64,
    pub total_ds_flops: u64,
}

impl Model {
    /// Build the model for `rank` of the configured decomposition.
    pub fn new(cfg: ModelConfig, rank: usize) -> Model {
        let topo = Arc::new(if cfg.continents {
            Topography::idealized_continents(&cfg.grid)
        } else {
            Topography::aquaplanet(&cfg.grid)
        });
        Model::with_topography(cfg, rank, topo)
    }

    /// Build with an explicit (shared) topography.
    pub fn with_topography(cfg: ModelConfig, rank: usize, topo: Arc<Topography>) -> Model {
        assert!(
            cfg.decomp.halo >= 3,
            "PS overcomputation needs a width-3 halo"
        );
        let tile = cfg.decomp.tile(rank);
        let geom = TileGeom::build(&cfg, &tile);
        let masks = Masks::build(&cfg, &tile, &topo);
        let state = ModelState::initial(&cfg, &tile, &masks);
        let ws = Workspace::new(&cfg, &tile);
        let coeffs = EllipticCoeffs::build(&cfg, &tile, &geom, &masks);
        let solver = CgSolver::new(&tile);
        let tridiag = Tridiag::new(cfg.grid.nz);
        let bc = BoundaryFields::new(&tile);
        Model {
            cfg,
            tile,
            geom,
            masks,
            topo,
            state,
            bc,
            ws,
            coeffs,
            solver,
            tridiag,
            steps_taken: 0,
            total_cg_iterations: 0,
            total_ps_flops: 0,
            total_ds_flops: 0,
        }
    }

    /// Advance one time step (Figure 6). `world` supplies exchange and
    /// global sum.
    ///
    /// The step is the sequential composition of five phases. Only
    /// `begin`, `solve` and `close` touch `world` or telemetry;
    /// `tendencies` and `finish_state` are this tile's own arithmetic,
    /// which is what lets a large tile run each of their kernels as two
    /// row bands on two threads (`kernel::band_split`, `kernel::in_bands`).
    pub fn step(&mut self, world: &mut dyn CommWorld) -> StepStats {
        self.step_split(world, band_split(&self.tile, self.cfg.grid.nz))
    }

    /// [`step`](Model::step) with the PS kernels run whole (`None`) or
    /// split at row `mid`.
    pub(crate) fn step_split(&mut self, world: &mut dyn CommWorld, mid: Option<i64>) -> StepStats {
        let (cg, flops) = flops::counted(|| {
            self.begin(world);
            self.tendencies(mid);
            let cg = self.solve(world);
            self.finish_state(mid);
            cg
        });
        self.close(flops, cg)
    }

    /// PS, communication: one exchange of the five model fields, width 3
    /// (§4: "an exchange must be performed for each of the model
    /// three-dimensional state variables over a halo width of at least
    /// three points").
    fn begin(&mut self, world: &mut dyn CommWorld) {
        telemetry::set_phase(telemetry::Phase::Ps);
        let st = &mut self.state;
        halo::exchange3(
            world,
            &self.cfg.decomp,
            &self.tile,
            &mut [&mut st.u, &mut st.v, &mut st.w, &mut st.theta, &mut st.s],
            3,
        );
    }

    /// PS, tile-local: tendencies through the elliptic right-hand side,
    /// each kernel whole or split at row `mid` ([`in_bands`]). No world or
    /// telemetry call.
    fn tendencies(&mut self, mid: Option<i64>) {
        // Hydrostatic pressure from the buoyancy, overcomputed on +2.
        in_bands(mid, [self.state.phy.band()], |[phy]| {
            let (theta, s) = (&self.state.theta, &self.state.s);
            hydrostatic::buoyancy_and_phy_rows(&self.cfg, &self.tile, &self.masks, theta, s, phy, 2)
        });

        // Tendencies: momentum on +1 (feeds v* on +1), tracers on the
        // interior.
        in_bands(mid, [self.ws.gu.band(), self.ws.gv.band()], |g| {
            let (cfg, tile, geom, masks) = (&self.cfg, &self.tile, &self.geom, &self.masks);
            gterms::momentum_tendencies_rows(cfg, tile, geom, masks, &self.state, g, 1)
        });
        let diff_v = if self.cfg.implicit_vertical {
            0.0
        } else {
            self.cfg.diff_v
        };
        let tracers = [
            (&self.state.theta, &mut self.ws.gt),
            (&self.state.s, &mut self.ws.gs),
        ];
        for (tracer, g) in tracers {
            in_bands(mid, [g.band()], |[g]| {
                let (cfg, tile, geom, masks) = (&self.cfg, &self.tile, &self.geom, &self.masks);
                let (state, diff_h) = (&self.state, self.cfg.diff_h);
                gterms::tracer_tendency_rows(
                    cfg, tile, geom, masks, state, tracer, g, diff_h, diff_v, 0,
                )
            });
        }
        let ws = &mut self.ws;
        let g = [ws.gu.band(), ws.gv.band(), ws.gt.band(), ws.gs.band()];
        in_bands(mid, g, |g| {
            let (cfg, tile, geom, masks) = (&self.cfg, &self.tile, &self.geom, &self.masks);
            physics::apply_forcing_rows(cfg, tile, geom, masks, &self.state, &self.bc, g, 1)
        });

        // Adams–Bashforth extrapolation (momentum on +1, tracers interior).
        let first = self.state.first_step;
        for (g, g_prev, ext) in [
            (&mut self.ws.gu, &mut self.state.gu_prev, 1),
            (&mut self.ws.gv, &mut self.state.gv_prev, 1),
            (&mut self.ws.gt, &mut self.state.gt_prev, 0),
            (&mut self.ws.gs, &mut self.state.gs_prev, 0),
        ] {
            in_bands(mid, [g.band(), g_prev.band()], |g| {
                timestep::ab2_extrapolate_rows(g, self.cfg.ab_eps, first, ext)
            });
        }
        self.state.first_step = false;

        // Provisional velocities, over the extrapolated tendencies, and
        // tracer update.
        in_bands(mid, [self.ws.gu.band(), self.ws.gv.band()], |g| {
            let (cfg, tile, geom, masks) = (&self.cfg, &self.tile, &self.geom, &self.masks);
            timestep::velocity_star_rows(cfg, tile, geom, masks, &self.state, g, 1)
        });
        in_bands(mid, [self.state.theta.band(), self.state.s.band()], |ts| {
            timestep::update_tracers(&self.cfg, &self.masks, &self.ws.gt, &self.ws.gs, ts)
        });

        // Elliptic right-hand side.
        in_bands(mid, [self.ws.rhs.band()], |[rhs]| {
            let (cfg, tile, geom, masks) = (&self.cfg, &self.tile, &self.geom, &self.masks);
            let (ustar, vstar) = (&self.ws.gu, &self.ws.gv);
            timestep::divergence_rhs_rows(cfg, tile, geom, masks, ustar, vstar, rhs)
        });
    }

    /// DS: the surface-pressure solve. Post-solve work (velocity
    /// correction, adjustments, mixing) belongs to PS in the paper's
    /// two-phase accounting, so the phase is PS again on return.
    fn solve(&mut self, world: &mut dyn CommWorld) -> CgResult {
        telemetry::set_phase(telemetry::Phase::Ds);
        let cg = self.solver.solve(
            world,
            &self.cfg,
            &self.cfg.decomp,
            &self.tile,
            &self.geom,
            &self.coeffs,
            &self.masks,
            &self.ws.rhs,
            &mut self.state.ps,
        );
        telemetry::set_phase(telemetry::Phase::Ps);
        cg
    }

    /// PS, tile-local: velocity correction through implicit vertical
    /// mixing, each kernel whole or split at row `mid` ([`in_bands`]). No
    /// world or telemetry call.
    fn finish_state(&mut self, mid: Option<i64>) {
        // Final update.
        in_bands(mid, [self.state.u.band(), self.state.v.band()], |uv| {
            let (cfg, tile, geom, masks) = (&self.cfg, &self.tile, &self.geom, &self.masks);
            let (ps, ustar, vstar) = (&self.state.ps, &self.ws.gu, &self.ws.gv);
            timestep::correct_velocities(cfg, tile, geom, masks, ps, ustar, vstar, uv)
        });
        // w is diagnosed from continuity.
        in_bands(mid, [self.state.w.band()], |[w]| {
            let (cfg, tile, geom, masks) = (&self.cfg, &self.tile, &self.geom, &self.masks);
            let (u, v) = (&self.state.u, &self.state.v);
            hydrostatic::diagnose_w(cfg, tile, geom, masks, u, v, w, 0)
        });

        // Adjustments (convection, condensation).
        in_bands(mid, [self.state.theta.band(), self.state.s.band()], |ts| {
            physics::post_adjust(&self.cfg, &self.tile, &self.masks, ts)
        });

        // Implicit vertical tracer mixing (backward Euler), if configured.
        if !self.cfg.implicit_vertical {
            return;
        }
        if let Some(factors) = self.tridiag.factored(&self.cfg, self.cfg.diff_v) {
            for field in [&mut self.state.theta, &mut self.state.s] {
                in_bands(mid, [field.band()], |[f]| {
                    implicit_vertical_diffusion_rows(&self.cfg, &self.tile, &self.masks, f, factors)
                });
            }
        }
    }

    /// Bookkeeping: charge the step's `(ps, ds)` flops, count the step,
    /// leave the PS/DS phases and report.
    fn close(&mut self, (ps_flops, ds_flops): (u64, u64), cg: CgResult) -> StepStats {
        telemetry::charge_flops(telemetry::Phase::Ps, ps_flops);
        telemetry::charge_flops(telemetry::Phase::Ds, ds_flops);
        telemetry::count("gcm.driver", "steps", 1);
        telemetry::set_phase(telemetry::Phase::Outside);
        self.steps_taken += 1;
        self.total_cg_iterations += cg.iterations as u64;
        self.total_ps_flops += ps_flops;
        self.total_ds_flops += ds_flops;

        let max_speed = self
            .state
            .u
            .interior_max_abs()
            .max(self.state.v.interior_max_abs());
        StepStats {
            cg_iterations: cg.iterations,
            cg_residual: cg.rel_residual,
            cg_initial_residual: cg.initial_residual,
            cg_final_residual: cg.final_residual,
            cg_converged: cg.converged,
            ps_flops,
            ds_flops,
            max_speed,
        }
    }

    /// Max |∇·(H u*)| over the tile interior after the most recent step
    /// — the divergence that fed the elliptic right-hand side. A healthy
    /// run keeps this bounded; growth is an early blowup signal.
    pub fn divergence_norm(&self) -> f64 {
        self.ws.rhs.interior_max_abs()
    }

    /// Run `n` steps, returning the last step's stats.
    pub fn run(&mut self, world: &mut dyn CommWorld, n: usize) -> StepStats {
        let mut last = StepStats::default();
        for _ in 0..n {
            last = self.step(world);
        }
        last
    }

    /// Mean solver iterations per step so far (the paper's `Ni`).
    pub fn mean_cg_iterations(&self) -> f64 {
        if self.steps_taken == 0 {
            0.0
        } else {
            self.total_cg_iterations as f64 / self.steps_taken as f64
        }
    }

    /// Measured per-cell flop counts `(Nps, Nds)` in the sense of
    /// Figure 11: PS flops per wet cell per step, and DS flops per wet
    /// column per solver iteration.
    pub fn measured_n_coefficients(&self) -> (f64, f64) {
        if self.steps_taken == 0 || self.masks.wet_cells == 0 {
            return (0.0, 0.0);
        }
        let nps =
            self.total_ps_flops as f64 / (self.steps_taken as f64 * self.masks.wet_cells as f64);
        let cols = self.masks.wet_columns() as f64;
        let nds = if self.total_cg_iterations == 0 {
            0.0
        } else {
            self.total_ds_flops as f64 / (self.total_cg_iterations as f64 * cols)
        };
        (nps, nds)
    }
}

#[cfg(test)]
mod band_tests {
    use super::*;
    use crate::config::SurfaceForcing;
    use crate::decomp::Decomp;
    use crate::field::Field3;
    use crate::kernel::fixtures::{cases, Case};
    use hyades_comms::SerialWorld;

    /// One PS kernel call of the step, as `tendencies` / `finish_state`
    /// make it: whole, or split at a row.
    type Kernel = fn(&Case, &mut ModelState, &mut Workspace, Option<i64>);

    /// Every kernel call of the two phases, the forcing also coupled, AB2
    /// on a first and a later step, the implicit mixing also violent.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        vec![
            ("buoyancy_and_phy", |c, st, _, mid| {
                in_bands(mid, [st.phy.band()], |[phy]| {
                    let (theta, s) = (&st.theta, &st.s);
                    hydrostatic::buoyancy_and_phy_rows(&c.cfg, &c.tile, &c.masks, theta, s, phy, 2)
                })
            }),
            ("momentum_tendencies", |c, st, ws, mid| {
                in_bands(mid, [ws.gu.band(), ws.gv.band()], |g| {
                    gterms::momentum_tendencies_rows(&c.cfg, &c.tile, &c.geom, &c.masks, st, g, 1)
                })
            }),
            ("tracer_tendency", |c, st, ws, mid| {
                for (tracer, g) in [(&st.theta, &mut ws.gt), (&st.s, &mut ws.gs)] {
                    in_bands(mid, [g.band()], |[g]| {
                        let (cfg, kh, kv) = (&c.cfg, c.cfg.diff_h, c.cfg.diff_v);
                        gterms::tracer_tendency_rows(
                            cfg, &c.tile, &c.geom, &c.masks, st, tracer, g, kh, kv, 0,
                        )
                    });
                }
            }),
            ("apply_forcing", |c, st, ws, mid| {
                for forcing in [c.cfg.forcing, SurfaceForcing::Coupled] {
                    let cfg = ModelConfig {
                        forcing,
                        ..c.cfg.clone()
                    };
                    let g = [ws.gu.band(), ws.gv.band(), ws.gt.band(), ws.gs.band()];
                    in_bands(mid, g, |g| {
                        physics::apply_forcing_rows(
                            &cfg, &c.tile, &c.geom, &c.masks, st, &c.bc, g, 1,
                        )
                    });
                }
            }),
            ("ab2_extrapolate", |c, st, ws, mid| {
                for first in [true, false] {
                    for (g, g_prev, ext) in [
                        (&mut ws.gu, &mut st.gu_prev, 1),
                        (&mut ws.gs, &mut st.gs_prev, 0),
                    ] {
                        in_bands(mid, [g.band(), g_prev.band()], |g| {
                            timestep::ab2_extrapolate_rows(g, c.cfg.ab_eps, first, ext)
                        });
                    }
                }
            }),
            ("velocity_star", |c, st, ws, mid| {
                in_bands(mid, [ws.gu.band(), ws.gv.band()], |g| {
                    timestep::velocity_star_rows(&c.cfg, &c.tile, &c.geom, &c.masks, st, g, 1)
                })
            }),
            ("update_tracers", |c, st, ws, mid| {
                in_bands(mid, [st.theta.band(), st.s.band()], |ts| {
                    timestep::update_tracers(&c.cfg, &c.masks, &ws.gt, &ws.gs, ts)
                })
            }),
            ("divergence_rhs", |c, _, ws, mid| {
                in_bands(mid, [ws.rhs.band()], |[rhs]| {
                    let (ustar, vstar) = (&ws.gu, &ws.gv);
                    timestep::divergence_rhs_rows(
                        &c.cfg, &c.tile, &c.geom, &c.masks, ustar, vstar, rhs,
                    )
                })
            }),
            ("correct_velocities", |c, st, ws, mid| {
                in_bands(mid, [st.u.band(), st.v.band()], |uv| {
                    let (ps, ustar, vstar) = (&st.ps, &ws.gu, &ws.gv);
                    timestep::correct_velocities(
                        &c.cfg, &c.tile, &c.geom, &c.masks, ps, ustar, vstar, uv,
                    )
                })
            }),
            ("diagnose_w", |c, st, _, mid| {
                in_bands(mid, [st.w.band()], |[w]| {
                    let (u, v) = (&st.u, &st.v);
                    hydrostatic::diagnose_w(&c.cfg, &c.tile, &c.geom, &c.masks, u, v, w, 0)
                })
            }),
            ("post_adjust", |c, st, _, mid| {
                in_bands(mid, [st.theta.band(), st.s.band()], |ts| {
                    physics::post_adjust(&c.cfg, &c.tile, &c.masks, ts)
                })
            }),
            ("implicit_vertical_diffusion", |c, st, _, mid| {
                for kappa in [c.cfg.diff_v, 1.0e4 * c.cfg.diff_v] {
                    let mut tridiag = Tridiag::new(c.cfg.grid.nz);
                    let Some(factors) = tridiag.factored(&c.cfg, kappa) else {
                        continue;
                    };
                    for field in [&mut st.theta, &mut st.s] {
                        in_bands(mid, [field.band()], |[f]| {
                            implicit_vertical_diffusion_rows(&c.cfg, &c.tile, &c.masks, f, factors)
                        });
                    }
                }
            }),
        ]
    }

    /// Each kernel split at every row of the tile — halo rows, the empty
    /// bands at either end, one-row bands — writes every word and charges
    /// every flop the whole kernel does, on every fixture tile.
    #[test]
    fn every_kernel_split_at_every_row_matches_the_whole_kernel() {
        let kernels = kernels();
        for case in cases() {
            let h = case.tile.halo as i64;
            for mid in -h..=case.tile.ny as i64 + h {
                for (name, kernel) in &kernels {
                    case.check(
                        &format!("{name} split at row {mid}"),
                        |st, ws| kernel(&case, st, ws, Some(mid)),
                        |st, ws| kernel(&case, st, ws, None),
                    );
                }
            }
        }
    }

    /// Every word a step writes or keeps, and its counters.
    fn model_bits(m: &Model) -> Vec<u64> {
        let (st, ws) = (&m.state, &m.ws);
        let f3 = [
            &st.u,
            &st.v,
            &st.w,
            &st.theta,
            &st.s,
            &st.gu_prev,
            &st.gv_prev,
            &st.gt_prev,
            &st.gs_prev,
            &st.phy,
            &ws.gu,
            &ws.gv,
            &ws.gt,
            &ws.gs,
        ];
        let f2 = [&st.ps, &ws.rhs];
        let words = f3.iter().map(|f| f.raw()).chain(f2.iter().map(|f| f.raw()));
        let mut bits: Vec<u64> = words.flatten().map(|x| x.to_bits()).collect();
        bits.extend([
            u64::from(st.first_step),
            m.steps_taken,
            m.total_cg_iterations,
            m.total_ps_flops,
            m.total_ds_flops,
        ]);
        bits
    }

    fn stats_bits(s: &StepStats) -> [u64; 8] {
        [
            s.cg_iterations as u64,
            s.cg_residual.to_bits(),
            s.cg_initial_residual.to_bits(),
            s.cg_final_residual.to_bits(),
            u64::from(s.cg_converged),
            s.ps_flops,
            s.ds_flops,
            s.max_speed.to_bits(),
        ]
    }

    /// Steps with every kernel split at a row, against the same steps
    /// whole: every word of the model, the `StepStats` and this thread's
    /// flop counters, on a forced ocean with continents and implicit
    /// mixing and on an atmosphere of odd width that condenses.
    #[test]
    fn split_steps_are_bit_identical_to_whole_steps() {
        let d = Decomp::blocks(16, 8, 1, 1, 3);
        let mut ocean = ModelConfig::test_ocean(16, 8, 5, d);
        (ocean.forcing, ocean.continents, ocean.implicit_vertical) =
            (SurfaceForcing::Climatology, true, true);
        let atmos = ModelConfig::test_atmosphere(17, 8, Decomp::blocks(17, 8, 1, 1, 3));
        for cfg in [ocean, atmos] {
            for mid in [-3, -1, 0, 1, 4, 7, 8, 11] {
                let (mut split, mut whole) =
                    (Model::new(cfg.clone(), 0), Model::new(cfg.clone(), 0));
                for step in 1..=4 {
                    let at = format!("{:?} split at row {mid}, step {step}", cfg.eos.kind);
                    let (got, got_flops) =
                        flops::counted(|| split.step_split(&mut SerialWorld, Some(mid)));
                    let (want, want_flops) =
                        flops::counted(|| whole.step_split(&mut SerialWorld, None));
                    assert_eq!(stats_bits(&got), stats_bits(&want), "{at}: stats");
                    assert_eq!(got_flops, want_flops, "{at}: this thread's flop counters");
                    assert!(model_bits(&split) == model_bits(&whole), "{at}: model bits");
                    assert!(got.ps_flops > 0 && got.ds_flops > 0);
                }
            }
        }
    }

    /// A panic on the helper's band (the rows below the cut) re-raises on
    /// the caller with the helper's own payload.
    #[test]
    fn a_panic_on_the_helper_band_reaches_the_caller() {
        let mut f = Field3::new(4, 6, 2, 3);
        let run = std::panic::AssertUnwindSafe(|| {
            in_bands(Some(3), [f.band()], |[band]| {
                if band.rows(3).start < 3 {
                    panic!("helper band");
                }
            })
        });
        let payload = std::panic::catch_unwind(run).expect_err("the helper's band panicked");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper band"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SurfaceForcing;
    use crate::decomp::Decomp;
    use hyades_comms::{SerialWorld, ThreadWorld};

    fn small_cfg(px: usize, py: usize) -> ModelConfig {
        let d = Decomp::blocks(16, 8, px, py, 3);
        ModelConfig::test_ocean(16, 8, 4, d)
    }

    #[test]
    fn steps_run_and_stay_finite() {
        let mut m = Model::new(small_cfg(1, 1), 0);
        let mut w = SerialWorld;
        for _ in 0..10 {
            let s = m.step(&mut w);
            assert!(s.cg_converged, "solver failed: {s:?}");
        }
        assert!(m.state.is_finite());
        assert_eq!(m.steps_taken, 10);
    }

    #[test]
    fn unforced_run_conserves_tracer_content() {
        let mut m = Model::new(small_cfg(1, 1), 0);
        let mut w = SerialWorld;
        let heat = |m: &Model| -> f64 {
            let mut h = 0.0;
            for (i, j, k) in m.state.theta.interior() {
                h += m.state.theta.at(i, j, k) * m.geom.area_at(j) * m.cfg.grid.dz[k];
            }
            h
        };
        let before = heat(&m);
        m.run(&mut w, 20);
        let after = heat(&m);
        let rel = ((after - before) / before).abs();
        assert!(rel < 1e-9, "heat drifted by {rel}");
    }

    #[test]
    fn projection_keeps_flow_nondivergent() {
        let mut m = Model::new(small_cfg(1, 1), 0);
        let mut w = SerialWorld;
        m.run(&mut w, 5);
        // Recompute the depth-integrated divergence of the *final*
        // velocities: it should be at solver-tolerance level.
        let mut ws = Workspace::new(&m.cfg, &m.tile);
        ws.gu = m.state.u.clone();
        ws.gv = m.state.v.clone();
        // Refresh halos for the divergence stencil.
        halo::exchange3(
            &mut w,
            &m.cfg.decomp,
            &m.tile,
            &mut [&mut ws.gu, &mut ws.gv],
            1,
        );
        timestep::divergence_rhs(&m.cfg, &m.tile, &m.geom, &m.masks, &mut ws);
        // Scale: typical column transport.
        let scale: f64 = m.geom.area_at(4) * 1e-6;
        assert!(
            ws.rhs.interior_max_abs() < scale,
            "divergence {} vs scale {scale}",
            ws.rhs.interior_max_abs()
        );
    }

    #[test]
    fn parallel_run_matches_serial_bitwise_stats() {
        // 4-rank and serial runs of the same configuration must agree on
        // the global diagnostics to near-roundoff (deterministic
        // reductions; the physics is decomposition-independent).
        let steps = 5;
        let serial_heat = {
            let mut m = Model::new(small_cfg(1, 1), 0);
            let mut w = SerialWorld;
            m.run(&mut w, steps);
            let mut h = 0.0;
            for (i, j, k) in m.state.theta.interior() {
                h += m.state.theta.at(i, j, k) * m.geom.area_at(j) * m.cfg.grid.dz[k];
            }
            h
        };
        let par_heats = ThreadWorld::run(4, |w| {
            let mut m = Model::new(small_cfg(2, 2), w.rank());
            m.run(w, steps);
            let mut h = 0.0;
            for (i, j, k) in m.state.theta.interior() {
                h += m.state.theta.at(i, j, k) * m.geom.area_at(j) * m.cfg.grid.dz[k];
            }
            h
        });
        let par_heat: f64 = par_heats.iter().sum();
        let rel = ((par_heat - serial_heat) / serial_heat).abs();
        assert!(rel < 1e-9, "serial {serial_heat} vs parallel {par_heat}");
    }

    #[test]
    fn forced_ocean_spins_up_circulation() {
        let d = Decomp::blocks(16, 8, 1, 1, 3);
        let mut cfg = ModelConfig::test_ocean(16, 8, 4, d);
        cfg.forcing = SurfaceForcing::Climatology;
        let mut m = Model::new(cfg, 0);
        let mut w = SerialWorld;
        let s = m.run(&mut w, 30);
        assert!(s.max_speed > 1e-6, "wind stress should drive a current");
        assert!(
            s.max_speed < 3.0,
            "speeds should stay oceanic: {}",
            s.max_speed
        );
        assert!(m.state.is_finite());
    }

    #[test]
    fn measured_flop_coefficients_are_sane() {
        let mut m = Model::new(small_cfg(1, 1), 0);
        let mut w = SerialWorld;
        m.run(&mut w, 5);
        let (nps, nds) = m.measured_n_coefficients();
        // Figure 11 quotes Nps ≈ 751–781 and Nds = 36. Our leaner PS
        // kernels must land within the same order of magnitude; the DS
        // iteration is counted flop by flop (operator 9 + CG 21).
        assert!((100.0..2000.0).contains(&nps), "Nps = {nps}");
        assert_eq!(nds, 30.0);
    }
}

#[cfg(test)]
mod free_surface_tests {
    use super::*;
    use crate::config::SurfaceForcing;
    use crate::decomp::Decomp;
    use hyades_comms::SerialWorld;

    fn cfg(free_surface: bool) -> ModelConfig {
        let d = Decomp::blocks(16, 8, 1, 1, 3);
        let mut cfg = ModelConfig::test_ocean(16, 8, 4, d);
        cfg.forcing = SurfaceForcing::Climatology;
        cfg.free_surface = free_surface;
        cfg
    }

    #[test]
    fn free_surface_run_stays_finite_with_bounded_eta() {
        let mut m = Model::new(cfg(true), 0);
        let mut w = SerialWorld;
        for _ in 0..30 {
            let s = m.step(&mut w);
            assert!(s.cg_converged);
        }
        assert!(m.state.is_finite());
        // η = ps/g must stay at oceanic magnitudes (metres, not km).
        let eta_max = m.state.ps.interior_max_abs() / crate::grid::GRAVITY;
        assert!(eta_max < 5.0, "eta {eta_max} m");
        assert!(eta_max > 1e-9, "surface never moved");
    }

    #[test]
    fn free_surface_and_rigid_lid_agree_on_slow_dynamics() {
        // The free surface admits (implicitly damped) external gravity
        // waves the rigid lid filters, so velocities differ by a bounded
        // barotropic sloshing transient during spin-up; the slow fields
        // (tracers) must track closely.
        let steps = 20;
        let mut rl = Model::new(cfg(false), 0);
        let mut fs = Model::new(cfg(true), 0);
        let mut w = SerialWorld;
        rl.run(&mut w, steps);
        fs.run(&mut w, steps);
        let scale = rl.state.u.interior_max_abs().max(1e-12);
        let mut max_du = 0.0f64;
        let mut max_dt = 0.0f64;
        for (i, j, k) in rl.state.u.clone().interior() {
            max_du = max_du.max((rl.state.u.at(i, j, k) - fs.state.u.at(i, j, k)).abs());
            max_dt = max_dt.max((rl.state.theta.at(i, j, k) - fs.state.theta.at(i, j, k)).abs());
        }
        assert!(
            max_du < 0.5 * scale,
            "u differs by {max_du} (scale {scale}) — more than sloshing"
        );
        assert!(max_dt < 0.05, "theta differs by {max_dt} K");
    }

    #[test]
    fn free_surface_solver_converges_faster() {
        // The augmented diagonal improves the operator's conditioning:
        // the free-surface solve should need no more iterations than the
        // rigid lid, typically fewer.
        let mut rl = Model::new(cfg(false), 0);
        let mut fs = Model::new(cfg(true), 0);
        let mut w = SerialWorld;
        let mut rl_iters = 0usize;
        let mut fs_iters = 0usize;
        for _ in 0..10 {
            rl_iters += rl.step(&mut w).cg_iterations;
            fs_iters += fs.step(&mut w).cg_iterations;
        }
        assert!(
            fs_iters <= rl_iters + 5,
            "free surface {fs_iters} vs rigid lid {rl_iters}"
        );
    }
}

#[cfg(test)]
mod construction_tests {
    use super::*;
    use crate::decomp::Decomp;

    #[test]
    #[should_panic(expected = "width-3 halo")]
    fn narrow_halo_rejected() {
        let d = Decomp::blocks(16, 8, 1, 1, 2);
        let cfg = ModelConfig::test_ocean(16, 8, 3, d);
        let _ = Model::new(cfg, 0);
    }

    #[test]
    #[should_panic]
    fn rank_out_of_range_rejected() {
        let d = Decomp::blocks(16, 8, 2, 1, 3);
        let cfg = ModelConfig::test_ocean(16, 8, 3, d);
        let _ = Model::new(cfg, 2);
    }
}

#[cfg(test)]
mod partial_cell_model_tests {
    use super::*;
    use crate::config::SurfaceForcing;
    use crate::decomp::Decomp;
    use crate::topography::Topography;
    use hyades_comms::SerialWorld;
    use std::sync::Arc;

    fn shaved_model() -> Model {
        let d = Decomp::blocks(16, 8, 1, 1, 3);
        let mut cfg = ModelConfig::test_ocean(16, 8, 6, d);
        cfg.forcing = SurfaceForcing::Climatology;
        let topo = Arc::new(Topography::smooth_ridge(&cfg.grid));
        Model::with_topography(cfg, 0, topo)
    }

    #[test]
    fn shaved_cell_run_conserves_tracers_without_forcing() {
        let d = Decomp::blocks(16, 8, 1, 1, 3);
        let cfg = ModelConfig::test_ocean(16, 8, 6, d); // forcing: None
        let topo = Arc::new(Topography::smooth_ridge(&cfg.grid));
        let mut m = Model::with_topography(cfg, 0, topo);
        let mut w = SerialWorld;
        let heat = |m: &Model| -> f64 {
            let mut h = 0.0;
            for (i, j, k) in m.state.theta.interior() {
                let vol = m.geom.area_at(j) * m.cfg.grid.dz[k] * m.masks.hc(i, j, k);
                h += m.state.theta.at(i, j, k) * vol;
            }
            h
        };
        let before = heat(&m);
        m.run(&mut w, 15);
        let after = heat(&m);
        let rel = ((after - before) / before).abs();
        assert!(rel < 1e-9, "heat drifted by {rel} over shaved cells");
        assert!(m.state.is_finite());
    }

    #[test]
    fn shaved_cell_projection_is_divergence_free_in_partial_volumes() {
        let mut m = shaved_model();
        let mut w = SerialWorld;
        m.run(&mut w, 10);
        // Recompute the depth-integrated divergence with the partial-cell
        // face factors: must sit at solver tolerance.
        let mut ws = crate::kernel::Workspace::new(&m.cfg, &m.tile);
        ws.gu = m.state.u.clone();
        ws.gv = m.state.v.clone();
        crate::halo::exchange3(
            &mut w,
            &m.cfg.decomp,
            &m.tile,
            &mut [&mut ws.gu, &mut ws.gv],
            1,
        );
        timestep::divergence_rhs(&m.cfg, &m.tile, &m.geom, &m.masks, &mut ws);
        let scale = m.geom.area_at(4) * 1e-6;
        assert!(
            ws.rhs.interior_max_abs() < scale,
            "divergence {} over shaved cells",
            ws.rhs.interior_max_abs()
        );
    }

    #[test]
    fn flow_feels_the_ridge() {
        let mut m = shaved_model();
        let mut w = SerialWorld;
        m.run(&mut w, 40);
        assert!(m.state.is_finite());
        // Bottom-intensified blocking: speeds in the deepest level above
        // the ridge crest region stay bounded and the run is stable.
        let s = m
            .state
            .u
            .interior_max_abs()
            .max(m.state.v.interior_max_abs());
        assert!(s > 1e-6 && s < 3.0, "speed {s}");
    }
}
