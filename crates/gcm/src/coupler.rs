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

use crate::config::SurfaceForcing;
use crate::driver::{Model, StepStats};
use crate::eos::FluidKind;
use crate::physics::atmos::L_VAP;
use hyades_comms::CommWorld;

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
    /// ocean.
    pub fn exchange_boundary_conditions(&mut self) {
        let nx = self.atmos.tile.nx as i64;
        let ny = self.atmos.tile.ny as i64;
        for j in 0..ny {
            for i in 0..nx {
                let ocean_wet = self.ocean.masks.c.at(i, j, 0) > 0.0;
                // Ocean → atmosphere: SST in Kelvin (ocean θ is °C).
                let sst_k = if ocean_wet {
                    self.ocean.state.theta.at(i, j, 0) + 273.15
                } else {
                    0.0 // land: no evaporation
                };
                self.atmos.bc.sst.set(i, j, sst_k);

                // Atmosphere → ocean: bulk wind stress from the lowest
                // layer winds.
                let ua = self.atmos.state.u.at(i, j, 0);
                let va = self.atmos.state.v.at(i, j, 0);
                let speed = (ua * ua + va * va).sqrt();
                self.ocean
                    .bc
                    .taux
                    .set(i, j, RHO_AIR * CD_MOMENTUM * speed * ua);
                self.ocean
                    .bc
                    .tauy
                    .set(i, j, RHO_AIR * CD_MOMENTUM * speed * va);

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
                    self.ocean.bc.qflux.set(i, j, q_turb + q_evap);
                } else {
                    self.ocean.bc.qflux.set(i, j, 0.0);
                }
            }
        }
    }

    /// Step both isomorphs once, exchanging boundary conditions every
    /// `couple_every` steps. Both models advance by their own `dt`; the
    /// paper's coupled run steps them synchronously.
    pub fn step(
        &mut self,
        atmos_world: &mut dyn CommWorld,
        ocean_world: &mut dyn CommWorld,
    ) -> (StepStats, StepStats) {
        let sa = self.atmos.step(atmos_world);
        let so = self.ocean.step(ocean_world);
        self.count_and_couple();
        (sa, so)
    }

    /// What follows the two model steps of every coupled step.
    fn count_and_couple(&mut self) {
        self.steps += 1;
        if self.steps.is_multiple_of(self.couple_every) {
            self.exchange_boundary_conditions();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::decomp::Decomp;
    use crate::grid::{stretched_levels, Grid};
    use hyades_comms::SerialWorld;

    fn small_pair() -> CoupledModel {
        let d = Decomp::blocks(16, 8, 1, 1, 3);
        // Miniature atmosphere: reuse the standard preset's physics on a
        // small grid.
        let mut acfg = ModelConfig::atmosphere_2p8125(Decomp::blocks(128, 64, 1, 1, 3));
        acfg.grid = Grid::global(16, 8, 5, 60.0, vec![2.0e4; 5]);
        acfg.decomp = d;
        acfg.dt = 600.0;
        let mut ocfg = ModelConfig::test_ocean(16, 8, 6, d);
        ocfg.grid = Grid::global(16, 8, 6, 60.0, stretched_levels(6, 3000.0));
        ocfg.forcing = crate::config::SurfaceForcing::Coupled;
        let atmos = Model::new(acfg, 0);
        let ocean = Model::new(ocfg, 0);
        CoupledModel::new(atmos, ocean, 2)
    }

    #[test]
    fn boundary_conditions_flow_both_ways() {
        let c = small_pair();
        // SST handed to the atmosphere is the ocean's surface θ in K.
        let sst = c.atmos.bc.sst.at(4, 4);
        let expect = c.ocean.state.theta.at(4, 4, 0) + 273.15;
        assert!((sst - expect).abs() < 1e-12);
        // At rest the initial wind stress is zero.
        assert_eq!(c.ocean.bc.taux.at(4, 4), 0.0);
    }

    #[test]
    fn monitored_coupled_steps_stay_healthy() {
        use crate::monitor::{RunMonitor, SentinelConfig};
        let mut c = small_pair();
        let mut w = SerialWorld;
        let mut ma = RunMonitor::new("atmos", SentinelConfig::default());
        let mut mo = RunMonitor::new("ocean", SentinelConfig::default());
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
        for (i, j) in c.ocean.bc.taux.clone().interior() {
            max_tau = max_tau.max(c.ocean.bc.taux.at(i, j).abs());
        }
        assert!(max_tau > 0.0, "no momentum flux reached the ocean");
    }

    #[test]
    fn heat_flux_cools_warm_water_under_cold_air() {
        let mut c = small_pair();
        // Make the ocean much warmer than the air.
        for (i, j) in c.ocean.state.ps.clone().interior() {
            c.ocean.state.theta.set(i, j, 0, 30.0);
        }
        c.exchange_boundary_conditions();
        // Mid-latitude air is colder than 30 °C water: flux must cool.
        assert!(c.ocean.bc.qflux.at(8, 4) < 0.0);
    }
}

impl CoupledModel {
    /// Coupled steps taken so far (the resilient stepper keys its fault
    /// plan and checkpoint cadence off this).
    pub fn steps_taken(&self) -> u64 {
        self.steps
    }

    /// Step both isomorphs through a *shared* communicator (each rank
    /// owns the matching tiles of both models): the functional layout for
    /// thread-parallel coupled runs. Collectives interleave identically on
    /// every rank, so the lockstep schedule is deadlock-free.
    pub fn step_shared(&mut self, world: &mut dyn CommWorld) -> (StepStats, StepStats) {
        let sa = self.atmos.step(world);
        let so = self.ocean.step(world);
        self.count_and_couple();
        (sa, so)
    }

    /// [`step_shared`] with run-health monitoring: after stepping, each
    /// isomorph's [`RunMonitor`] observes its model through the same
    /// shared communicator (again in a fixed atmos-then-ocean order, so
    /// the collective schedule stays identical on every rank). Returns
    /// both isomorphs' step statistics (the critical-path tour drives the
    /// phase model with their CG iteration counts) and `true` while both
    /// are healthy; on `false` the caller stops stepping and reads the
    /// blame from the tripped monitor.
    ///
    /// [`step_shared`]: CoupledModel::step_shared
    /// [`RunMonitor`]: crate::monitor::RunMonitor
    pub fn step_monitored(
        &mut self,
        world: &mut dyn CommWorld,
        atmos_monitor: &mut crate::monitor::RunMonitor,
        ocean_monitor: &mut crate::monitor::RunMonitor,
    ) -> (StepStats, StepStats, bool) {
        let (sa, so) = self.step_shared(world);
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

#[cfg(test)]
mod checkpoint_tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::decomp::Decomp;
    use crate::grid::{stretched_levels, Grid};
    use hyades_comms::SerialWorld;

    fn pair() -> CoupledModel {
        let d = Decomp::blocks(16, 8, 1, 1, 3);
        let mut acfg = ModelConfig::atmosphere_2p8125(Decomp::blocks(128, 64, 1, 1, 3));
        acfg.grid = Grid::global(16, 8, 5, 60.0, vec![2.0e4; 5]);
        acfg.decomp = d;
        acfg.dt = 600.0;
        let mut ocfg = ModelConfig::test_ocean(16, 8, 6, d);
        ocfg.grid = Grid::global(16, 8, 6, 60.0, stretched_levels(6, 3000.0));
        ocfg.forcing = crate::config::SurfaceForcing::Coupled;
        CoupledModel::new(Model::new(acfg, 0), Model::new(ocfg, 0), 2)
    }

    #[test]
    fn coupled_restart_is_bit_exact() {
        let mut wa = SerialWorld;
        let mut wo = SerialWorld;
        let mut straight = pair();
        for _ in 0..8 {
            straight.step(&mut wa, &mut wo);
        }

        let mut first = pair();
        for _ in 0..4 {
            first.step(&mut wa, &mut wo);
        }
        let mut buf = Vec::new();
        first.save_checkpoint(&mut buf).unwrap();
        let mut resumed = pair();
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
        let mut source = pair();
        for _ in 0..4 {
            source.step_shared(&mut w);
        }
        let mut image = Vec::new();
        source.save_checkpoint(&mut image).unwrap();
        let mut flipped = image.clone();
        let in_ocean_ps = image.len() - 8 - 8 - 16;
        flipped[in_ocean_ps] ^= 0x01;
        let cut = &image[..image.len() - 8];

        let mut target = pair();
        for _ in 0..2 {
            target.step_shared(&mut w);
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
