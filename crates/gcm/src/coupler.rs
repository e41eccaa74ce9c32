//! The atmosphere–ocean coupler (§5.1).
//!
//! In coupled simulations the two isomorphs run concurrently, periodically
//! exchanging boundary conditions: the ocean hands the atmosphere its
//! surface temperature; the atmosphere hands back wind stress and a net
//! surface heat flux. On Hyades each isomorph occupied half the cluster;
//! in this functional implementation the two models share an address
//! space and the coupler copies fields directly (the timing aspects of
//! the split-cluster layout are handled by the performance model).
//!
//! Both models must share the same horizontal grid and decomposition (the
//! paper's coupled run uses 2.8125° for both).
//!
//! [`CoupledModel::step`] gives the pair the concurrency the paper's
//! layout had, on the one rank's two cores. When the atmosphere's world
//! can move to another thread ([`CommWorld::as_send`]) and no telemetry
//! recorder is on, the atmosphere's whole step runs on a scoped helper
//! thread while the calling thread runs the ocean's, so the two CG solves
//! overlap:
//!
//! ```text
//! caller:  o.step(wo)  couple
//! helper:  a.step(wa)
//! ```
//!
//! Otherwise — a world that cannot move (one that borrows the caller's
//! state, as a tracing decorator does), or a recorder on the caller, which
//! the helper's thread would not have — the two steps run one after the
//! other on the caller.
//!
//! Why the side-by-side step is exact: each world sees only its own
//! model's calls, in the order `atmos.step` / `ocean.step` would send
//! them; each model runs its own phases in its own order on its own data,
//! so every bit of both states is the sequential composition's; the flop
//! counters are thread-local, so the helper returns what it counted and
//! the caller adds it to its own; with the recorder off every telemetry
//! call is a no-op on either thread; a helper panic re-raises on the
//! caller with its own payload.
//! [`step_monitored`](CoupledModel::step_monitored) — one world for both
//! isomorphs, the tour's path with the recorder on — stays sequential.
//! On every path each model runs its kernels as one band of rows: the
//! split of a large tile's kernels across two threads
//! (`kernel::in_bands`) is `Model::step`'s, for an isomorph stepped alone.

use crate::config::SurfaceForcing;
use crate::driver::{Model, StepStats};
use crate::eos::FluidKind;
use crate::flops::{self, Phase};
use crate::physics::atmos::L_VAP;
use hyades_comms::CommWorld;
use hyades_telemetry as telemetry;

/// Bulk transfer coefficients for the air–sea fluxes.
pub const CD_MOMENTUM: f64 = 1.3e-3;
pub const CH_HEAT: f64 = 15.0; // W/m²/K effective exchange coefficient
pub const RHO_AIR: f64 = 1.2;

/// A coupled pair on one rank.
pub struct CoupledModel {
    pub atmos: Model,
    pub ocean: Model,
    /// Coupling interval in steps.
    pub couple_every: u64,
    steps: u64,
}

impl CoupledModel {
    pub fn new(mut atmos: Model, mut ocean: Model, couple_every: u64) -> CoupledModel {
        assert_eq!(atmos.cfg.eos.kind, FluidKind::Atmosphere);
        assert_eq!(ocean.cfg.eos.kind, FluidKind::Ocean);
        assert_eq!(atmos.tile.nx, ocean.tile.nx, "grids must match");
        assert_eq!(atmos.tile.ny, ocean.tile.ny, "grids must match");
        assert!(couple_every >= 1);
        atmos.cfg.forcing = SurfaceForcing::Climatology; // radiative package stays on
        ocean.cfg.forcing = SurfaceForcing::Coupled;
        let mut c = CoupledModel {
            atmos,
            ocean,
            couple_every,
            steps: 0,
        };
        c.exchange_boundary_conditions();
        c
    }

    /// Copy SST to the atmosphere and wind stress / heat flux to the
    /// ocean, on the interior: the ocean's next step fills the ring of
    /// its three fields in its width-3 exchange.
    pub fn exchange_boundary_conditions(&mut self) {
        let nx = self.atmos.tile.nx as i64;
        let ny = self.atmos.tile.ny as i64;
        for j in 0..ny {
            for i in 0..nx {
                let ocean_wet = self.ocean.masks.c(i, j, 0) > 0.0;
                // Ocean → atmosphere: SST in Kelvin (ocean θ is °C).
                let sst_k = if ocean_wet {
                    self.ocean.state.theta.at(i, j, 0) + 273.15
                } else {
                    0.0 // land: no evaporation
                };
                self.atmos.bc.sst.set(i, j, 0, sst_k);

                // Atmosphere → ocean: bulk wind stress from the lowest
                // layer winds.
                let ua = self.atmos.state.u.at(i, j, 0);
                let va = self.atmos.state.v.at(i, j, 0);
                let speed = (ua * ua + va * va).sqrt();
                self.ocean
                    .bc
                    .taux
                    .set(i, j, 0, RHO_AIR * CD_MOMENTUM * speed * ua);
                self.ocean
                    .bc
                    .tauy
                    .set(i, j, 0, RHO_AIR * CD_MOMENTUM * speed * va);

                // Net surface heat flux into the ocean: relaxation toward
                // the overlying air temperature plus evaporative cooling.
                if ocean_wet {
                    let t_air = self
                        .atmos
                        .cfg
                        .eos
                        .temperature(self.atmos.state.theta.at(i, j, 0), 0);
                    let q_turb = CH_HEAT * (t_air - sst_k);
                    // Evaporative cooling proportional to the atmosphere's
                    // moisture uptake capacity.
                    let qs = crate::physics::atmos::q_sat(sst_k, 0.9 * crate::eos::P00);
                    let deficit = (qs - self.atmos.state.s.at(i, j, 0)).max(0.0);
                    let evap_mass = RHO_AIR * deficit * self.atmos.cfg.grid.dz[0]
                        / (9.81 * crate::physics::atmos::TAU_EVAP);
                    let q_evap = -L_VAP * evap_mass;
                    self.ocean.bc.qflux.set(i, j, 0, q_turb + q_evap);
                } else {
                    self.ocean.bc.qflux.set(i, j, 0, 0.0);
                }
            }
        }
    }

    /// Step both isomorphs once, exchanging boundary conditions every
    /// `couple_every` steps. Both models advance by their own `dt`; the
    /// paper's coupled run steps them synchronously. The two steps run
    /// side by side when the atmosphere's world can move and no recorder
    /// is on, one after the other otherwise (module doc); the result is
    /// bit for bit `atmos.step(atmos_world)` then `ocean.step(ocean_world)`.
    pub fn step(
        &mut self,
        atmos_world: &mut dyn CommWorld,
        ocean_world: &mut dyn CommWorld,
    ) -> (StepStats, StepStats) {
        let (atmos, ocean) = (&mut self.atmos, &mut self.ocean);
        let stats = match atmos_world.as_send() {
            Some(wa) if !telemetry::enabled() => {
                let ((sa, _), (so, _)) = side_by_side(
                    || atmos.step_split(wa, None),
                    || ocean.step_split(ocean_world, None),
                );
                (sa, so)
            }
            _ => (
                atmos.step_split(atmos_world, None),
                ocean.step_split(ocean_world, None),
            ),
        };
        self.count_and_couple();
        stats
    }

    /// What follows the two model steps of every coupled step.
    fn count_and_couple(&mut self) {
        self.steps += 1;
        if self.steps.is_multiple_of(self.couple_every) {
            self.exchange_boundary_conditions();
        }
    }

    /// Coupled steps taken so far (the resilient stepper keys its fault
    /// plan and checkpoint cadence off this).
    pub fn steps_taken(&self) -> u64 {
        self.steps
    }

    /// Step both isomorphs through a *shared* communicator (each rank
    /// owns the matching tiles of both models), then let each isomorph's
    /// [`RunMonitor`] observe its model through the same communicator.
    /// Atmosphere before ocean, stepping before observing: the collectives
    /// interleave identically on every rank, so the lockstep schedule is
    /// deadlock-free. Returns both isomorphs' step statistics (the
    /// critical-path tour drives the phase model with their CG iteration
    /// counts) and `true` while both are healthy; on `false` the caller
    /// stops stepping and reads the blame from the tripped monitor.
    ///
    /// [`RunMonitor`]: crate::monitor::RunMonitor
    pub fn step_monitored(
        &mut self,
        world: &mut dyn CommWorld,
        atmos_monitor: &mut crate::monitor::RunMonitor,
        ocean_monitor: &mut crate::monitor::RunMonitor,
    ) -> (StepStats, StepStats, bool) {
        let sa = self.atmos.step_split(world, None);
        let so = self.ocean.step_split(world, None);
        self.count_and_couple();
        let ha = atmos_monitor.observe(world, &self.atmos, &sa);
        let ho = ocean_monitor.observe(world, &self.ocean, &so);
        (sa, so, ha && ho)
    }

    /// Checkpoint both isomorphs into one stream.
    ///
    /// Must be called at a coupling boundary (`steps` a multiple of
    /// `couple_every`): the boundary fields are not stored but re-derived
    /// on load, which is only bit-exact when the last derivation used the
    /// current state.
    pub fn save_checkpoint(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        assert!(
            self.steps.is_multiple_of(self.couple_every),
            "checkpoint coupled runs at coupling boundaries (step {} with couple_every {})",
            self.steps,
            self.couple_every
        );
        crate::checkpoint::save(&self.atmos, w)?;
        crate::checkpoint::save(&self.ocean, w)?;
        w.write_all(&self.steps.to_le_bytes())
    }

    /// Restore both isomorphs (the pair must match the saved
    /// configuration) and re-derive the boundary fields. On `Err` the pair
    /// is as it was: neither isomorph is written until both images and the
    /// step count have been read and verified.
    pub fn load_checkpoint(&mut self, r: &mut impl std::io::Read) -> std::io::Result<()> {
        use crate::checkpoint::Staged;
        let atmos = Staged::read(&self.atmos, r)?;
        let ocean = Staged::read(&self.ocean, r)?;
        let mut b = [0u8; 8];
        r.read_exact(&mut b)?;
        atmos.commit(&mut self.atmos);
        ocean.commit(&mut self.ocean);
        self.steps = u64::from_le_bytes(b);
        // Boundary fields are diagnostic: rebuild from the restored state
        // so the next steps see exactly the fluxes the saved run would.
        self.exchange_boundary_conditions();
        Ok(())
    }
}

/// A value with the flops `(ps, ds)` counted while computing it.
pub(crate) type Counted<T> = (T, (u64, u64));

/// Run `helper` on a scoped thread while this thread runs `caller`, and
/// return what each computed with the flops `(ps, ds)` it counted. The
/// counters are thread-local, so the helper's count is also added to this
/// thread's: `flops::read` afterwards is what running both here would
/// have left. A panic on the helper re-raises here with its own payload.
pub(crate) fn side_by_side<A: Send, B>(
    helper: impl FnOnce() -> A + Send,
    caller: impl FnOnce() -> B,
) -> (Counted<A>, Counted<B>) {
    let ((a, theirs), mine) = std::thread::scope(|s| {
        let h = s.spawn(|| flops::counted(helper));
        let mine = flops::counted(caller);
        let theirs = h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
        (theirs, mine)
    });
    flops::add(Phase::Ps, theirs.0);
    flops::add(Phase::Ds, theirs.1);
    ((a, theirs), mine)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::decomp::Decomp;
    use crate::grid::{stretched_levels, Grid};
    use hyades_comms::SerialWorld;

    /// The 16×8 test pair, coupled every second step.
    pub(super) fn small_pair() -> CoupledModel {
        pair_on(16, 8, false)
    }

    /// A pair on an `nx × ny` grid; `continents` puts land in the ocean.
    pub(super) fn pair_on(nx: usize, ny: usize, continents: bool) -> CoupledModel {
        pair_tiles(Decomp::blocks(nx, ny, 1, 1, 3), 0, continents)
    }

    /// Rank `rank`'s tiles of the pair on the grid `d` cuts.
    pub(crate) fn pair_tiles(d: Decomp, rank: usize, continents: bool) -> CoupledModel {
        let (nx, ny) = (d.nx, d.ny);
        let acfg = ModelConfig::test_atmosphere(nx, ny, d);
        let mut ocfg = ModelConfig::test_ocean(nx, ny, 6, d);
        ocfg.grid = Grid::global(nx, ny, 6, 60.0, stretched_levels(6, 3000.0));
        ocfg.forcing = crate::config::SurfaceForcing::Coupled;
        ocfg.continents = continents;
        let atmos = Model::new(acfg, rank);
        let ocean = Model::new(ocfg, rank);
        CoupledModel::new(atmos, ocean, 2)
    }

    #[test]
    fn boundary_conditions_flow_both_ways() {
        let c = small_pair();
        // SST handed to the atmosphere is the ocean's surface θ in K.
        let sst = c.atmos.bc.sst.at(4, 4, 0);
        let expect = c.ocean.state.theta.at(4, 4, 0) + 273.15;
        assert!((sst - expect).abs() < 1e-12);
        // At rest the initial wind stress is zero.
        assert_eq!(c.ocean.bc.taux.at(4, 4, 0), 0.0);
    }

    #[test]
    fn monitored_coupled_steps_stay_healthy() {
        use crate::monitor::RunMonitor;
        let mut c = small_pair();
        let mut w = SerialWorld;
        let mut ma = RunMonitor::new("atmos");
        let mut mo = RunMonitor::new("ocean");
        for _ in 0..4 {
            assert!(c.step_monitored(&mut w, &mut ma, &mut mo).2);
        }
        assert_eq!(ma.steps(), 4);
        assert_eq!(mo.series().len(), 4);
        assert_eq!(ma.trips() + mo.trips(), 0);
    }

    #[test]
    fn coupled_steps_stay_finite() {
        let mut c = small_pair();
        let mut wa = SerialWorld;
        let mut wo = SerialWorld;
        for _ in 0..6 {
            let (sa, so) = c.step(&mut wa, &mut wo);
            assert!(sa.cg_converged && so.cg_converged);
        }
        assert!(c.atmos.state.is_finite());
        assert!(c.ocean.state.is_finite());
    }

    #[test]
    fn atmosphere_drives_ocean_stress_after_spinup() {
        let mut c = small_pair();
        let mut wa = SerialWorld;
        let mut wo = SerialWorld;
        for _ in 0..20 {
            c.step(&mut wa, &mut wo);
        }
        // The radiative forcing spins up winds, which must appear as
        // stress on the ocean.
        let mut max_tau = 0.0f64;
        for (i, j, _) in c.ocean.bc.taux.clone().interior() {
            max_tau = max_tau.max(c.ocean.bc.taux.at(i, j, 0).abs());
        }
        assert!(max_tau > 0.0, "no momentum flux reached the ocean");
    }

    #[test]
    fn heat_flux_cools_warm_water_under_cold_air() {
        let mut c = small_pair();
        // Make the ocean much warmer than the air.
        for (i, j, _) in c.ocean.state.ps.clone().interior() {
            c.ocean.state.theta.set(i, j, 0, 30.0);
        }
        c.exchange_boundary_conditions();
        // Mid-latitude air is colder than 30 °C water: flux must cool.
        assert!(c.ocean.bc.qflux.at(8, 4, 0) < 0.0);
    }
}

#[cfg(test)]
mod schedule_tests {
    use super::tests::{pair_on, small_pair};
    use super::*;
    use hyades_comms::SerialWorld;

    /// Every bit of both models' state, boundary fields and counters.
    fn pair_bits(c: &CoupledModel) -> Vec<u64> {
        let mut bits = vec![c.steps];
        for m in [&c.atmos, &c.ocean] {
            let st = &m.state;
            for f in [
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
            ] {
                bits.extend(f.raw().iter().map(|x| x.to_bits()));
            }
            for f in [&st.ps, &m.bc.sst, &m.bc.taux, &m.bc.tauy, &m.bc.qflux] {
                bits.extend(f.raw().iter().map(|x| x.to_bits()));
            }
            bits.extend([
                u64::from(st.first_step),
                m.steps_taken,
                m.total_cg_iterations,
                m.total_ps_flops,
                m.total_ds_flops,
            ]);
        }
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

    /// A one-rank world that answers as `SerialWorld` does and records
    /// each call with the bits of its arguments. The derived collectives
    /// are recorded as the primitives they are made of. It moves to
    /// another thread (`as_send`).
    #[derive(Default)]
    struct Recording {
        calls: Vec<(&'static str, Vec<u64>)>,
    }

    impl Recording {
        fn log(&mut self, method: &'static str, args: impl IntoIterator<Item = f64>) {
            self.calls
                .push((method, args.into_iter().map(f64::to_bits).collect()));
        }
    }

    impl CommWorld for Recording {
        fn rank(&self) -> usize {
            0
        }
        fn size(&self) -> usize {
            1
        }
        fn exchange(&mut self, outgoing: Vec<(usize, Vec<f64>)>) -> Vec<(usize, Vec<f64>)> {
            let args = outgoing
                .iter()
                .flat_map(|(to, data)| std::iter::once(*to as f64).chain(data.iter().copied()));
            self.log("exchange", args.collect::<Vec<_>>());
            SerialWorld.exchange(outgoing)
        }
        fn global_sum_vec(&mut self, xs: &mut [f64]) {
            self.log("global_sum_vec", xs.iter().copied());
        }
        fn global_max(&mut self, x: f64) -> f64 {
            self.log("global_max", [x]);
            x
        }
        fn barrier(&mut self) {
            self.log("barrier", []);
        }
        fn gather(&mut self, data: Vec<f64>) -> Option<Vec<Vec<f64>>> {
            self.log("gather", data.iter().copied());
            Some(vec![data])
        }
        fn as_send(&mut self) -> Option<&mut (dyn CommWorld + Send)> {
            Some(self)
        }
    }

    /// The coupled step against `atmos.step; ocean.step; count_and_couple`
    /// over nine steps (four coupling boundaries), on the 16×8 test pair
    /// and on an odd-`nx` pair with continents, through worlds that move
    /// (whole steps side by side): each world's calls with their argument
    /// bits, both `StepStats`, this thread's flop counters and every bit of
    /// both states.
    #[test]
    fn step_side_by_side_is_the_sequential_composition() {
        for (nx, ny, continents) in [(16, 8, false), (17, 8, true)] {
            let (mut concurrent, mut sequential) =
                (pair_on(nx, ny, continents), pair_on(nx, ny, continents));
            for step in 1..=9 {
                let (mut wa, mut wo) = (Recording::default(), Recording::default());
                let (got, got_flops) = flops::counted(|| concurrent.step(&mut wa, &mut wo));
                let (mut sa, mut so) = (Recording::default(), Recording::default());
                let (want, want_flops) = flops::counted(|| {
                    let want = (
                        sequential.atmos.step(&mut sa),
                        sequential.ocean.step(&mut so),
                    );
                    sequential.count_and_couple();
                    want
                });
                let at = format!("{nx}x{ny} pair, step {step}");
                assert!(!sa.calls.is_empty() && !so.calls.is_empty());
                assert!(wa.calls == sa.calls, "{at}: atmosphere world calls");
                assert!(wo.calls == so.calls, "{at}: ocean world calls");
                assert_eq!(
                    stats_bits(&got.0),
                    stats_bits(&want.0),
                    "{at}: atmosphere stats"
                );
                assert_eq!(stats_bits(&got.1), stats_bits(&want.1), "{at}: ocean stats");
                assert_eq!(got_flops, want_flops, "{at}: this thread's flop counters");
                assert!(
                    pair_bits(&concurrent) == pair_bits(&sequential),
                    "{at}: state bits"
                );
                assert!(got.0.ps_flops > 0 && got.1.ps_flops > 0 && got.0.ds_flops > 0);
            }
            assert_eq!(concurrent.steps_taken(), 9);
        }
    }

    /// `step_monitored`'s one world sees the atmosphere's call sequence,
    /// then the ocean's, then each monitor's.
    #[test]
    fn the_shared_world_sees_the_atmosphere_then_the_ocean() {
        use crate::monitor::RunMonitor;
        let (mut sequential, mut shared) = (small_pair(), small_pair());
        let monitors = || (RunMonitor::new("atmos"), RunMonitor::new("ocean"));
        let ((mut sma, mut smo), (mut ma, mut mo)) = (monitors(), monitors());
        for step in 1..=5 {
            let (mut sa, mut so) = (Recording::default(), Recording::default());
            let a = sequential.atmos.step(&mut sa);
            let o = sequential.ocean.step(&mut so);
            sequential.count_and_couple();
            let (mut oa, mut oo) = (Recording::default(), Recording::default());
            sma.observe(&mut oa, &sequential.atmos, &a);
            smo.observe(&mut oo, &sequential.ocean, &o);
            let mut w = Recording::default();
            shared.step_monitored(&mut w, &mut ma, &mut mo);
            assert!(
                w.calls == [sa.calls, so.calls, oa.calls, oo.calls].concat(),
                "step {step}: the shared world's calls differ"
            );
        }
    }

    /// A recorder on the calling thread keeps both steps there: with
    /// worlds that move, two coupled steps leave the recorder what two
    /// sequential `atmos.step; ocean.step` leave it. (The helper's thread
    /// has no recorder; an atmosphere step run there would leave its
    /// counters, spans and phase totals out.)
    #[test]
    fn a_recorder_on_the_caller_keeps_both_steps_there() {
        let summary = |run: &mut dyn FnMut()| {
            telemetry::enable(0);
            run();
            let rank = telemetry::disable().expect("recording");
            telemetry::RunTelemetry::single(rank).text_summary()
        };
        let (mut concurrent, mut sequential) = (small_pair(), small_pair());
        let got = summary(&mut || {
            for _ in 0..2 {
                concurrent.step(&mut SerialWorld, &mut SerialWorld);
            }
        });
        let want = summary(&mut || {
            for _ in 0..2 {
                sequential.atmos.step(&mut SerialWorld);
                sequential.ocean.step(&mut SerialWorld);
                sequential.count_and_couple();
            }
        });
        assert!(want.contains("gcm.cg"), "{want}");
        assert_eq!(got, want);
        assert!(pair_bits(&concurrent) == pair_bits(&sequential));
    }

    /// The helper's flops and result reach the calling thread, and its
    /// panic reaches the caller with the helper's own payload.
    #[test]
    fn side_by_side_returns_what_each_side_computed_and_the_helpers_panic() {
        let (both, total) = flops::counted(|| {
            side_by_side(
                || {
                    flops::add(Phase::Ps, 5);
                    'a'
                },
                || {
                    flops::add(Phase::Ds, 3);
                    2
                },
            )
        });
        assert_eq!(both, (('a', (5, 0)), (2, (0, 3))));
        assert_eq!(total, (5, 3));

        let payload = std::panic::catch_unwind(|| side_by_side(|| panic!("helper tile"), || ()))
            .expect_err("the helper panicked");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper tile"));
    }

    /// A world that moves and fails on its first call: the atmosphere's
    /// step, on the helper, panics there, and the coupled step re-raises
    /// that panic with the world's own payload.
    struct Down;

    impl CommWorld for Down {
        fn rank(&self) -> usize {
            0
        }
        fn size(&self) -> usize {
            1
        }
        fn exchange(&mut self, _: Vec<(usize, Vec<f64>)>) -> Vec<(usize, Vec<f64>)> {
            panic!("atmosphere world down")
        }
        fn global_sum_vec(&mut self, _: &mut [f64]) {
            unreachable!("the step exchanges first")
        }
        fn global_max(&mut self, _: f64) -> f64 {
            unreachable!("the step exchanges first")
        }
        fn barrier(&mut self) {
            unreachable!("the step exchanges first")
        }
        fn gather(&mut self, _: Vec<f64>) -> Option<Vec<Vec<f64>>> {
            unreachable!("the step exchanges first")
        }
        fn as_send(&mut self) -> Option<&mut (dyn CommWorld + Send)> {
            Some(self)
        }
    }

    #[test]
    fn a_panic_in_the_moved_step_reaches_the_caller_with_its_payload() {
        let mut c = small_pair();
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.step(&mut Down, &mut SerialWorld)
        }))
        .expect_err("the atmosphere's world failed");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"atmosphere world down")
        );
    }
}

/// ROADMAP item 1(d), characterised and not changed: what the +1 ring of
/// the boundary fields holds, and whether it reaches the model state.
/// `apply_forcing(.., ext = 1)` reads that ring.
#[cfg(test)]
mod ring_tests {
    use super::tests::small_pair;
    use super::*;
    use crate::field::Field3;
    use hyades_comms::SerialWorld;

    /// The four sides of the +1 ring: the west and east columns, then the
    /// south and north rows (corners included).
    const SIDES: [&str; 4] = ["west", "east", "south", "north"];

    fn side(f: &Field3, side: &str) -> Vec<(i64, i64)> {
        let (nx, ny) = (f.nx() as i64, f.ny() as i64);
        match side {
            "west" => (0..ny).map(|j| (-1, j)).collect(),
            "east" => (0..ny).map(|j| (nx, j)).collect(),
            "south" => (-1..=nx).map(|i| (i, -1)).collect(),
            _ => (-1..=nx).map(|i| (i, ny)).collect(),
        }
    }

    /// The four boundary fields, by name, with a perturbation of each's
    /// own scale.
    const FIELDS: [(&str, f64); 4] = [
        ("sst", 1.0),
        ("taux", 0.05),
        ("tauy", 0.05),
        ("qflux", 50.0),
    ];

    fn field<'a>(c: &'a mut CoupledModel, name: &str) -> &'a mut Field3 {
        match name {
            "sst" => &mut c.atmos.bc.sst,
            "taux" => &mut c.ocean.bc.taux,
            "tauy" => &mut c.ocean.bc.tauy,
            _ => &mut c.ocean.bc.qflux,
        }
    }

    /// The pair after four steps (a coupling boundary; the winds, hence
    /// the stress, are no longer zero).
    fn spun_up() -> CoupledModel {
        let mut c = small_pair();
        for _ in 0..4 {
            c.step(&mut SerialWorld, &mut SerialWorld);
        }
        c
    }

    /// Interior bits of every prognostic field and AB2 memory of both
    /// isomorphs.
    fn interior_bits(c: &CoupledModel) -> Vec<u64> {
        let mut bits = Vec::new();
        for st in [&c.atmos.state, &c.ocean.state] {
            for f in [
                &st.u,
                &st.v,
                &st.w,
                &st.theta,
                &st.s,
                &st.gu_prev,
                &st.gv_prev,
                &st.gt_prev,
                &st.gs_prev,
            ] {
                bits.extend(f.interior().map(|(i, j, k)| f.at(i, j, k).to_bits()));
            }
            bits.extend(
                st.ps
                    .interior()
                    .map(|(i, j, _)| st.ps.at(i, j, 0).to_bits()),
            );
        }
        bits
    }

    /// `exchange_boundary_conditions` writes the interior only, and the
    /// ocean's next step fills the ring of τ and the heat flux in its
    /// width-3 exchange: the periodic wrap of the interior on the west and
    /// east, the wall's zeros on the south and north. The SST's ring,
    /// which the atmosphere does not exchange, keeps its zeros.
    #[test]
    fn the_ring_is_the_wrapped_interior_after_a_step() {
        let mut c = spun_up();
        c.step(&mut SerialWorld, &mut SerialWorld);
        for (name, _) in FIELDS {
            let f = field(&mut c, name);
            let nx = f.nx() as i64;
            for s in SIDES {
                for (i, j) in side(f, s) {
                    let want = match (name, s) {
                        ("sst", _) | (_, "south" | "north") => 0.0,
                        _ => f.at(i.rem_euclid(nx), j, 0),
                    };
                    assert_eq!(
                        f.at(i, j, 0).to_bits(),
                        want.to_bits(),
                        "{name} at ({i}, {j})"
                    );
                }
            }
        }
        let taux = &c.ocean.bc.taux;
        assert!(side(taux, "east")
            .iter()
            .any(|&(i, j)| taux.at(i, j, 0) != 0.0));
    }

    /// Perturb one side of one field's ring, step once, and see whether
    /// any interior bit of either isomorph moves. None does: the ocean's
    /// exchange overwrites the ring of τ and the heat flux before its
    /// forcing reads it, and what the atmosphere computes from the SST's
    /// ring (its humidity tendency there) no later row reads.
    #[test]
    fn no_side_of_the_ring_reaches_the_interior() {
        let mut reference = spun_up();
        reference.step(&mut SerialWorld, &mut SerialWorld);
        let want = interior_bits(&reference);
        for (name, delta) in FIELDS {
            for s in SIDES {
                let mut c = spun_up();
                let f = field(&mut c, name);
                for (i, j) in side(f, s) {
                    f.add(i, j, 0, delta);
                }
                c.step(&mut SerialWorld, &mut SerialWorld);
                assert!(interior_bits(&c) == want, "{name} {s} reaches the interior");
            }
        }
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::tests::small_pair;
    use hyades_comms::SerialWorld;

    #[test]
    fn coupled_restart_is_bit_exact() {
        let mut wa = SerialWorld;
        let mut wo = SerialWorld;
        let mut straight = small_pair();
        for _ in 0..8 {
            straight.step(&mut wa, &mut wo);
        }

        let mut first = small_pair();
        for _ in 0..4 {
            first.step(&mut wa, &mut wo);
        }
        let mut buf = Vec::new();
        first.save_checkpoint(&mut buf).unwrap();
        let mut resumed = small_pair();
        resumed.load_checkpoint(&mut buf.as_slice()).unwrap();
        for _ in 0..4 {
            resumed.step(&mut wa, &mut wo);
        }

        assert_eq!(
            straight.atmos.state.theta.raw(),
            resumed.atmos.state.theta.raw(),
            "atmosphere diverged after coupled restart"
        );
        assert_eq!(
            straight.ocean.state.u.raw(),
            resumed.ocean.state.u.raw(),
            "ocean diverged after coupled restart"
        );
        assert_eq!(straight.steps, resumed.steps);
    }

    /// A pair image whose ocean half fails verification must not restore
    /// the atmosphere half either; nor may one cut short of the step count.
    #[test]
    fn rejected_pair_image_leaves_both_isomorphs_as_they_were() {
        let mut w = SerialWorld;
        let mut source = small_pair();
        for _ in 0..4 {
            source.step(&mut w, &mut SerialWorld);
        }
        let mut image = Vec::new();
        source.save_checkpoint(&mut image).unwrap();
        let mut flipped = image.clone();
        let in_ocean_ps = image.len() - 8 - 8 - 16;
        flipped[in_ocean_ps] ^= 0x01;
        let cut = &image[..image.len() - 8];

        let mut target = small_pair();
        for _ in 0..2 {
            target.step(&mut w, &mut SerialWorld);
        }
        let mut before = Vec::new();
        target.save_checkpoint(&mut before).unwrap();
        for bad in [flipped.as_slice(), cut] {
            target.load_checkpoint(&mut &*bad).unwrap_err();
            let mut after = Vec::new();
            target.save_checkpoint(&mut after).unwrap();
            assert!(after == before, "a refused image changed the pair");
            assert_eq!(target.atmos.steps_taken, 2);
        }
    }
}
