//! Cross-crate integration: the functional GCM running on a real
//! multi-threaded decomposition must agree with the serial run, and the
//! communication pattern per step must match the paper's accounting
//! (one 5-field PS exchange; two fields + two global sums per DS
//! iteration).

use hyades::comms::{CommWorld, SerialWorld, ThreadWorld};
use hyades::gcm::config::{ModelConfig, SurfaceForcing};
use hyades::gcm::decomp::Decomp;
use hyades::gcm::diagnostics::global_diagnostics;
use hyades::gcm::driver::Model;

fn forced_cfg(d: Decomp) -> ModelConfig {
    let mut cfg = ModelConfig::test_ocean(32, 16, 4, d);
    cfg.forcing = SurfaceForcing::Climatology;
    cfg
}

#[test]
fn eight_rank_run_matches_serial_diagnostics() {
    let steps = 8;
    let serial = {
        let mut m = Model::new(forced_cfg(Decomp::blocks(32, 16, 1, 1, 3)), 0);
        let mut w = SerialWorld;
        m.run(&mut w, steps);
        let d = global_diagnostics(&m, &mut w);
        (d.kinetic_energy, d.heat_content, d.max_speed)
    };
    let par = ThreadWorld::run(8, |w| {
        let mut m = Model::new(forced_cfg(Decomp::blocks(32, 16, 4, 2, 3)), w.rank());
        m.run(w, steps);
        let d = global_diagnostics(&m, w);
        (d.kinetic_energy, d.heat_content, d.max_speed)
    });
    // Every rank computed identical global diagnostics.
    for r in &par {
        assert_eq!(*r, par[0], "ranks disagree on global diagnostics");
    }
    let (ke_s, heat_s, v_s) = serial;
    let (ke_p, heat_p, v_p) = par[0];
    // Under surface forcing the trajectories differ at roundoff (solver
    // partial sums associate differently per decomposition), so even the
    // heat content picks up a tiny difference through the restoring
    // fluxes; it stays far below any physical signal.
    assert!(
        ((heat_p - heat_s) / heat_s).abs() < 1e-7,
        "heat: serial {heat_s} vs parallel {heat_p}"
    );
    // Kinetic energy and peak speed feel the solver's roundoff (per-tile
    // partial sums associate differently than the serial sweep), which
    // the nonlinear terms amplify over steps: roundoff-growth tolerance.
    assert!(
        ((ke_p - ke_s) / ke_s.max(1e-30)).abs() < 5e-4,
        "KE: serial {ke_s} vs parallel {ke_p}"
    );
    assert!(((v_p - v_s) / v_s.max(1e-30)).abs() < 5e-3);
}

#[test]
fn counting_world_sees_paper_communication_pattern() {
    /// A CommWorld decorator that counts primitive invocations.
    struct Counting<'a> {
        inner: &'a mut SerialWorld,
        exchanges: usize,
        exchanged_fields_guess: usize,
        gsums: usize,
    }
    impl CommWorld for Counting<'_> {
        fn rank(&self) -> usize {
            self.inner.rank()
        }
        fn size(&self) -> usize {
            self.inner.size()
        }
        fn exchange(&mut self, out: Vec<(usize, Vec<f64>)>) -> Vec<(usize, Vec<f64>)> {
            self.exchanges += 1;
            // The x-phase message of a multi-field exchange reveals the
            // field count: len = 1 + fields·w·ny·nz.
            if let Some((_, data)) = out.first() {
                self.exchanged_fields_guess = data.len();
            }
            self.inner.exchange(out)
        }
        fn global_sum_vec(&mut self, xs: &mut [f64]) {
            self.gsums += 1;
            self.inner.global_sum_vec(xs)
        }
        fn global_max(&mut self, x: f64) -> f64 {
            self.inner.global_max(x)
        }
        fn barrier(&mut self) {
            self.inner.barrier()
        }
        fn gather(&mut self, data: Vec<f64>) -> Option<Vec<Vec<f64>>> {
            self.inner.gather(data)
        }
    }

    let mut m = Model::new(forced_cfg(Decomp::blocks(32, 16, 1, 1, 3)), 0);
    let mut serial = SerialWorld;
    // Warm up one step so the solver has a warm start (typical Ni).
    m.step(&mut serial);
    let mut w = Counting {
        inner: &mut serial,
        exchanges: 0,
        exchanged_fields_guess: 0,
        gsums: 0,
    };
    let stats = m.step(&mut w);
    let ni = stats.cg_iterations;

    // Every halo exchange is 2 CommWorld calls (x phase + y phase).
    // Per step: the PS 5-field exchange (2), the solver's warm-start and
    // final ps exchanges (2 + 2), and the per-iteration two-field
    // exchange (2·ni).
    let expected_exchange_calls = 6 + 2 * ni;
    assert_eq!(
        w.exchanges, expected_exchange_calls,
        "exchange call count (ni = {ni})"
    );
    // Global sums: 2 per CG iteration + 2 setup reductions.
    let expected_gsums = 2 * ni + 2;
    assert_eq!(w.gsums, expected_gsums, "gsum count (ni = {ni})");
    assert!(ni > 0);
}

#[test]
fn coupled_pair_runs_on_threads() {
    // Each isomorph on its own 2-rank world, stepping in lockstep within
    // each rank team. (The full split-cluster layout is a perf-model
    // concern; here we verify the functional path is thread-clean.)
    let results = ThreadWorld::run(2, |w| {
        let mut cfg = ModelConfig::test_ocean(16, 8, 3, Decomp::blocks(16, 8, 2, 1, 3));
        cfg.forcing = SurfaceForcing::Climatology;
        let mut m = Model::new(cfg, w.rank());
        for _ in 0..5 {
            let s = m.step(w);
            assert!(s.cg_converged);
        }
        m.state.is_finite()
    });
    assert!(results.into_iter().all(|ok| ok));
}

#[test]
fn live_gcm_comm_time_shows_the_interconnect_gap() {
    // Run the *actual* model under the TimedWorld decorator on both
    // interconnect cost models: the identical functional traffic costs
    // orders of magnitude more on Gigabit Ethernet — Figure 12's verdict
    // measured on a live run rather than on the closed-form shapes.
    use hyades::cluster::ethernet::gigabit_ethernet;
    use hyades::cluster::interconnect::{arctic_paper, Interconnect};
    use hyades::comms::TimedWorld;

    let run = |net: &(dyn Interconnect + Sync)| -> (f64, f64) {
        let results = ThreadWorld::run(8, |inner| {
            let mut w = TimedWorld::new(inner, net);
            let mut m = Model::new(forced_cfg(Decomp::blocks(32, 16, 4, 2, 3)), w.rank());
            for _ in 0..3 {
                let s = m.step(&mut w);
                assert!(s.cg_converged);
            }
            (w.comm_seconds(), m.mean_cg_iterations())
        });
        results[0]
    };
    let (arctic_s, ni_a) = run(&arctic_paper());
    let (ge_s, ni_g) = run(&gigabit_ethernet());
    assert_eq!(ni_a, ni_g, "same trajectory on both timings");
    assert!(arctic_s > 0.0);
    assert!(
        ge_s > 20.0 * arctic_s,
        "GE comm {ge_s}s vs Arctic {arctic_s}s on identical traffic"
    );
}

#[test]
fn coupled_pair_runs_on_eight_threads_and_matches_serial() {
    // Both isomorphs decomposed over the same 8-rank world (each rank
    // owns the matching tiles, so the coupler's boundary exchange stays
    // tile-local — the functional analogue of the paper's split-cluster
    // coupled run).
    use hyades::gcm::config::ModelConfig;
    use hyades::gcm::coupler::CoupledModel;
    use hyades::gcm::diagnostics::global_diagnostics;
    use hyades::gcm::grid::{stretched_levels, Grid};
    use hyades::gcm::RunMonitor;

    fn pair(d: Decomp) -> CoupledModel {
        let acfg = ModelConfig::test_atmosphere(32, 16, d);
        let mut ocfg = ModelConfig::test_ocean(32, 16, 6, d);
        ocfg.grid = Grid::global(32, 16, 6, 60.0, stretched_levels(6, 3000.0));
        ocfg.forcing = hyades::gcm::config::SurfaceForcing::Coupled;
        CoupledModel::new(
            hyades::gcm::driver::Model::new(acfg, d.tile(0).rank),
            hyades::gcm::driver::Model::new(ocfg, 0),
            2,
        )
    }

    let steps = 6;
    let serial_heat = {
        let d = Decomp::blocks(32, 16, 1, 1, 3);
        let mut c = pair(d);
        let mut w = SerialWorld;
        for _ in 0..steps {
            c.step(&mut w, &mut SerialWorld);
        }
        let dg = global_diagnostics(&c.ocean, &mut w);
        dg.heat_content
    };

    let par_heats = ThreadWorld::run(8, |w| {
        let d = Decomp::blocks(32, 16, 4, 2, 3);
        // Build per-rank models directly (CoupledModel::new expects
        // matching tiles; rank comes from the world).
        let acfg = ModelConfig::test_atmosphere(32, 16, d);
        let mut ocfg = ModelConfig::test_ocean(32, 16, 6, d);
        ocfg.grid = Grid::global(32, 16, 6, 60.0, stretched_levels(6, 3000.0));
        ocfg.forcing = hyades::gcm::config::SurfaceForcing::Coupled;
        let mut c = CoupledModel::new(
            hyades::gcm::driver::Model::new(acfg, w.rank()),
            hyades::gcm::driver::Model::new(ocfg, w.rank()),
            2,
        );
        // The two isomorphs share one world per rank; step_monitored
        // keeps the collective schedule in lockstep across ranks.
        let (mut ma, mut mo) = (RunMonitor::new("atmos"), RunMonitor::new("ocean"));
        for _ in 0..steps {
            assert!(c.step_monitored(w, &mut ma, &mut mo).2, "sentinel tripped");
        }
        global_diagnostics(&c.ocean, w).heat_content
    });
    for h in &par_heats {
        assert!(
            ((h - serial_heat) / serial_heat).abs() < 1e-7,
            "{h} vs {serial_heat}"
        );
    }
}

/// The paper's own 128×64 coupled pair at its default cap of 200
/// iterations: both surface-pressure solves converge, and the run stays
/// finite, on each of its first 32 steps. Under point Jacobi not one of
/// these steps converged.
#[test]
#[ignore = "about a second in release; scripts/check.sh runs it"]
fn paper_grid_converges_while_finite() {
    let mut pair = hyades::scenario::paper_coupled_scenario(4);
    assert_eq!(pair.atmos.cfg.cg_max_iters, 200);
    assert_eq!(pair.ocean.cfg.cg_max_iters, 200);
    let (mut wa, mut wo) = (SerialWorld, SerialWorld);
    for step in 1..=32 {
        let (sa, so) = pair.step(&mut wa, &mut wo);
        assert!(
            sa.cg_converged && so.cg_converged,
            "step {step}: atmosphere {} iterations to {:.1e}, ocean {} to {:.1e}",
            sa.cg_iterations,
            sa.cg_residual,
            so.cg_iterations,
            so.cg_residual
        );
        assert!(
            sa.max_speed.is_finite() && so.max_speed.is_finite(),
            "step {step}"
        );
    }
}
