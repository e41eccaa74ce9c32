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
use crate::kernel::vertical::{implicit_vertical_diffusion, Tridiag};
use crate::kernel::{gterms, hydrostatic, timestep, TileGeom, Workspace};
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
    /// [`begin`], [`solve`] and [`close`] touch `world` or telemetry;
    /// [`tendencies`] and [`finish_state`] are this tile's own arithmetic,
    /// which is what lets [`CoupledModel::step`] run the atmosphere's and
    /// the ocean's side by side.
    ///
    /// [`begin`]: Model::begin
    /// [`solve`]: Model::solve
    /// [`close`]: Model::close
    /// [`tendencies`]: Model::tendencies
    /// [`finish_state`]: Model::finish_state
    /// [`CoupledModel::step`]: crate::coupler::CoupledModel::step
    pub fn step(&mut self, world: &mut dyn CommWorld) -> StepStats {
        let (cg, flops) = flops::counted(|| {
            self.begin(world);
            self.tendencies();
            let cg = self.solve(world);
            self.finish_state();
            cg
        });
        self.close(flops, cg)
    }

    /// PS, communication: one exchange of the five model fields, width 3
    /// (§4: "an exchange must be performed for each of the model
    /// three-dimensional state variables over a halo width of at least
    /// three points").
    pub(crate) fn begin(&mut self, world: &mut dyn CommWorld) {
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

    /// PS, tile-local: tendencies through the elliptic right-hand side.
    /// No world or telemetry call.
    pub(crate) fn tendencies(&mut self) {
        // Buoyancy and hydrostatic pressure, overcomputed on +2.
        hydrostatic::buoyancy_and_phy(&self.cfg, &self.tile, &self.masks, &mut self.state, 2);

        // Tendencies: momentum on +1 (feeds v* on +1), tracers on the
        // interior.
        gterms::momentum_tendencies(
            &self.cfg,
            &self.tile,
            &self.geom,
            &self.masks,
            &self.state,
            &mut self.ws,
            1,
        );
        gterms::tracer_tendency(
            &self.cfg,
            &self.tile,
            &self.geom,
            &self.masks,
            &self.state,
            &self.state.theta,
            &mut self.ws.gt,
            self.cfg.diff_h,
            if self.cfg.implicit_vertical {
                0.0
            } else {
                self.cfg.diff_v
            },
            0,
        );
        gterms::tracer_tendency(
            &self.cfg,
            &self.tile,
            &self.geom,
            &self.masks,
            &self.state,
            &self.state.s,
            &mut self.ws.gs,
            self.cfg.diff_h,
            if self.cfg.implicit_vertical {
                0.0
            } else {
                self.cfg.diff_v
            },
            0,
        );
        physics::apply_forcing(
            &self.cfg,
            &self.tile,
            &self.geom,
            &self.masks,
            &self.state,
            &self.bc,
            &mut self.ws,
            1,
        );

        // Adams–Bashforth extrapolation (momentum on +1, tracers interior).
        let first = self.state.first_step;
        timestep::ab2_extrapolate(
            &mut self.ws.gu,
            &mut self.state.gu_prev,
            self.cfg.ab_eps,
            first,
            1,
        );
        timestep::ab2_extrapolate(
            &mut self.ws.gv,
            &mut self.state.gv_prev,
            self.cfg.ab_eps,
            first,
            1,
        );
        timestep::ab2_extrapolate(
            &mut self.ws.gt,
            &mut self.state.gt_prev,
            self.cfg.ab_eps,
            first,
            0,
        );
        timestep::ab2_extrapolate(
            &mut self.ws.gs,
            &mut self.state.gs_prev,
            self.cfg.ab_eps,
            first,
            0,
        );
        self.state.first_step = false;

        // Provisional velocities and tracer update.
        timestep::velocity_star(
            &self.cfg,
            &self.tile,
            &self.geom,
            &self.masks,
            &self.state,
            &mut self.ws,
            1,
        );
        timestep::update_tracers(&self.cfg, &self.masks, &mut self.state, &self.ws);

        // Elliptic right-hand side.
        timestep::divergence_rhs(&self.cfg, &self.tile, &self.geom, &self.masks, &mut self.ws);
    }

    /// DS: the surface-pressure solve. Post-solve work (velocity
    /// correction, adjustments, mixing) belongs to PS in the paper's
    /// two-phase accounting, so the phase is PS again on return.
    pub(crate) fn solve(&mut self, world: &mut dyn CommWorld) -> CgResult {
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
    /// mixing. No world or telemetry call.
    pub(crate) fn finish_state(&mut self) {
        // Final update.
        timestep::correct_velocities(
            &self.cfg,
            &self.tile,
            &self.geom,
            &self.masks,
            &mut self.state,
            &self.ws,
        );
        // w is diagnosed from continuity.
        hydrostatic::diagnose_w(
            &self.cfg,
            &self.tile,
            &self.geom,
            &self.masks,
            &self.state.u,
            &self.state.v,
            &mut self.state.w,
            0,
        );

        // Adjustments (convection, condensation).
        physics::post_adjust(&self.cfg, &self.tile, &self.masks, &mut self.state);

        // Implicit vertical tracer mixing (backward Euler), if configured.
        if self.cfg.implicit_vertical {
            implicit_vertical_diffusion(
                &self.cfg,
                &self.tile,
                &self.masks,
                &mut self.state.theta,
                self.cfg.diff_v,
                &mut self.tridiag,
            );
            implicit_vertical_diffusion(
                &self.cfg,
                &self.tile,
                &self.masks,
                &mut self.state.s,
                self.cfg.diff_v,
                &mut self.tridiag,
            );
        }
    }

    /// Bookkeeping: charge the step's `(ps, ds)` flops, count the step,
    /// leave the PS/DS phases and report.
    pub(crate) fn close(&mut self, (ps_flops, ds_flops): (u64, u64), cg: CgResult) -> StepStats {
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
        ws.ustar = m.state.u.clone();
        ws.vstar = m.state.v.clone();
        // Refresh halos for the divergence stencil.
        halo::exchange3(
            &mut w,
            &m.cfg.decomp,
            &m.tile,
            &mut [&mut ws.ustar, &mut ws.vstar],
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
                let vol = m.geom.area_at(j) * m.cfg.grid.dz[k] * m.masks.hc.at(i, j, k);
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
        ws.ustar = m.state.u.clone();
        ws.vstar = m.state.v.clone();
        crate::halo::exchange3(
            &mut w,
            &m.cfg.decomp,
            &m.tile,
            &mut [&mut ws.ustar, &mut ws.vstar],
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
