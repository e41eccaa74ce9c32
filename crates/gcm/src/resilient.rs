//! Checkpoint/rollback resilience for coupled runs.
//!
//! The Hyades fault model (`hyades_des::fault`) schedules rank crashes
//! at specific coupled-model steps. This module gives the coupler a
//! recovery discipline for them: a [`ResilientRunner`] checkpoints the
//! full coupled state at every coupling boundary (every `couple_every`
//! steps, where [`CoupledModel::save_checkpoint`] is exact), and when the
//! fault plan declares a rank dead at step N it rolls the *whole* run
//! back to the last checkpoint and replays forward.
//!
//! Rolling every rank back — rather than restarting only the dead one —
//! is what keeps the collective schedule uniform: the [`FaultPlan`] is
//! replicated, so every rank sees the same crash at the same step and
//! takes the same rollback branch, and no rank is ever left stranded in
//! a reduction (`lint::uniform` would flag anything less). Because the
//! model is deterministic, replaying from a coupling-boundary checkpoint
//! reproduces the lost steps bit-for-bit; the run's final state is
//! indistinguishable from one that never crashed (asserted by
//! `crash_recovery_is_bit_identical` below, and by
//! `tests/recovery.rs` at the workspace level).
//!
//! Run-health monitors are rewound along with the state
//! ([`RunMonitor::truncate`]), so the replayed steps re-record their
//! diagnostics rows and the exported series stays byte-identical too.
//! Recovery work is visible, not free: restarts and replayed steps are
//! counted in [`RecoveryStats`], charged to telemetry under
//! `gcm.recovery`, and dropped as flight-recorder crumbs attributed to
//! the crashed rank.

use crate::coupler::CoupledModel;
use crate::monitor::RunMonitor;
use hyades_comms::CommWorld;
use hyades_des::fault::FaultPlan;
use hyades_telemetry::{self as telemetry, flight};
use std::collections::BTreeSet;

/// What recovery cost: checkpoints taken, rollbacks performed, and
/// steps re-run that an uninterrupted run would have run once.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    pub checkpoints: u64,
    pub restarts: u64,
    pub replayed_steps: u64,
}

/// Drives a [`CoupledModel`] through a [`FaultPlan`], checkpointing at
/// every coupling boundary and rolling back on planned crashes.
#[derive(Debug)]
pub struct ResilientRunner {
    plan: FaultPlan,
    /// In-memory image of the last checkpoint (a real deployment would
    /// put this on the neighbour's disk; the recovery semantics are the
    /// same).
    checkpoint: Vec<u8>,
    checkpoint_step: u64,
    /// Crash steps already fired: a replay passing the same step again
    /// must not re-crash, or the run would livelock.
    consumed: BTreeSet<u64>,
    stats: RecoveryStats,
}

impl ResilientRunner {
    /// Checkpoint `model`'s current state (normally step 0, a coupling
    /// boundary) and arm the plan.
    pub fn new(model: &CoupledModel, plan: FaultPlan) -> ResilientRunner {
        let mut checkpoint = Vec::new();
        save_image(model, &mut checkpoint);
        ResilientRunner {
            plan,
            checkpoint,
            checkpoint_step: model.steps_taken(),
            consumed: BTreeSet::new(),
            stats: RecoveryStats::default(),
        }
    }

    pub fn stats(&self) -> RecoveryStats {
        self.stats
    }

    /// Run `model` up to `total_steps` coupled steps, recovering from
    /// every planned crash along the way. Before each step, if the plan
    /// schedules a crash at the step about to run (and it has not fired
    /// yet), roll back to the last checkpoint instead of stepping —
    /// restoring model state, rewinding both monitors, and charging the
    /// recovery to telemetry. Otherwise take a monitored step and
    /// checkpoint at a coupling boundary. Returns `true` if the run
    /// finished healthy, `false` on a sentinel trip (rollback does not
    /// resurrect a physically blown-up run).
    ///
    /// Collective: every rank calls this with the same (replicated)
    /// runner state, so the rollback branch is rank-uniform by
    /// construction.
    // lint:allow(collective-divergence, every rank holds the same replicated FaultPlan and consumed set, so all ranks take the same rollback-vs-step branch)
    pub fn run(
        &mut self,
        model: &mut CoupledModel,
        world: &mut dyn CommWorld,
        atmos_monitor: &mut RunMonitor,
        ocean_monitor: &mut RunMonitor,
        total_steps: u64,
    ) -> bool {
        while model.steps_taken() < total_steps {
            let next = model.steps_taken() + 1;
            if let Some(crash) = self.plan.crash_at_step(next) {
                if self.consumed.insert(next) {
                    let to_step = self.checkpoint_step;
                    let replayed = (next - 1) - to_step;
                    self.stats.restarts += 1;
                    self.stats.replayed_steps += replayed;
                    model
                        .load_checkpoint(&mut self.checkpoint.as_slice())
                        // lint:allow(unwrap-in-lib, the image was written by save_image from this same pair, so its shapes and trailer match; only a defect can fail here)
                        .expect("in-memory checkpoint restore never fails");
                    atmos_monitor.truncate(to_step);
                    ocean_monitor.truncate(to_step);
                    telemetry::count("gcm.recovery", "restarts", 1);
                    telemetry::count("gcm.recovery", "replayed_steps", replayed);
                    flight::crumb(next, crash.rank, "recovery.crash", crash.rank as u64);
                    flight::crumb(next, crash.rank, "recovery.rollback", to_step);
                    continue;
                }
            }
            let (_, _, healthy) = model.step_monitored(world, atmos_monitor, ocean_monitor);
            if !healthy {
                return false;
            }
            if model.steps_taken().is_multiple_of(model.couple_every) {
                save_image(model, &mut self.checkpoint);
                self.checkpoint_step = model.steps_taken();
                self.stats.checkpoints += 1;
                telemetry::count("gcm.recovery", "checkpoints", 1);
                flight::crumb(
                    model.steps_taken(),
                    world.rank(),
                    "recovery.checkpoint",
                    self.checkpoint.len() as u64,
                );
            }
        }
        true
    }
}

/// Overwrite `image` with `model`'s checkpoint.
fn save_image(model: &CoupledModel, image: &mut Vec<u8>) {
    image.clear();
    model
        .save_checkpoint(image)
        // lint:allow(unwrap-in-lib, writing into a Vec<u8> cannot fail, and the writer is the only source of an io::Error in save_checkpoint)
        .expect("in-memory checkpoint never fails");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::decomp::Decomp;
    use crate::driver::Model;
    use crate::grid::{stretched_levels, Grid};
    use hyades_comms::SerialWorld;

    fn pair() -> CoupledModel {
        let d = Decomp::blocks(16, 8, 1, 1, 3);
        let acfg = ModelConfig::test_atmosphere(16, 8, d);
        let mut ocfg = ModelConfig::test_ocean(16, 8, 6, d);
        ocfg.grid = Grid::global(16, 8, 6, 60.0, stretched_levels(6, 3000.0));
        ocfg.forcing = crate::config::SurfaceForcing::Coupled;
        CoupledModel::new(Model::new(acfg, 0), Model::new(ocfg, 0), 2)
    }

    fn monitors() -> (RunMonitor, RunMonitor) {
        (RunMonitor::new("atmos"), RunMonitor::new("ocean"))
    }

    #[test]
    fn crash_recovery_is_bit_identical() {
        // Uninterrupted reference: 8 monitored coupled steps.
        let mut w = SerialWorld;
        let mut clean = pair();
        let (mut cma, mut cmo) = monitors();
        for _ in 0..8 {
            let (_, _, ok) = clean.step_monitored(&mut w, &mut cma, &mut cmo);
            assert!(ok);
        }

        // Resilient run with rank 0 crashing at step 6 (checkpoints at
        // every coupling boundary, every second step, so the rollback
        // target is step 4 and step 5 is replayed).
        let plan = FaultPlan::new(0x5EED).rank_crash(0, 6);
        let mut c = pair();
        let mut r = ResilientRunner::new(&c, plan);
        let (mut ma, mut mo) = monitors();
        assert!(r.run(&mut c, &mut w, &mut ma, &mut mo, 8));

        // Recovery happened and was charged.
        let s = r.stats();
        assert_eq!(s.restarts, 1);
        assert_eq!(s.replayed_steps, 1);
        // Checkpoints at steps 2, 4, then (replayed) 6, 8.
        assert_eq!(s.checkpoints, 4);
        assert_eq!(c.steps_taken(), 8);

        // The recovered run is bit-identical to the uninterrupted one:
        // every prognostic field and the full diagnostics series.
        assert_eq!(clean.atmos.state.theta.raw(), c.atmos.state.theta.raw());
        assert_eq!(clean.atmos.state.u.raw(), c.atmos.state.u.raw());
        assert_eq!(clean.ocean.state.theta.raw(), c.ocean.state.theta.raw());
        assert_eq!(clean.ocean.state.u.raw(), c.ocean.state.u.raw());
        assert_eq!(clean.ocean.state.ps.raw(), c.ocean.state.ps.raw());
        assert_eq!(cma.series(), ma.series());
        assert_eq!(cmo.series(), mo.series());
        assert_eq!(cma.series().render_json(), ma.series().render_json());
    }

    #[test]
    fn multiple_crashes_each_fire_once() {
        let mut w = SerialWorld;
        let plan = FaultPlan::new(1).rank_crash(2, 3).rank_crash(1, 7);
        let mut c = pair();
        let mut r = ResilientRunner::new(&c, plan);
        let (mut ma, mut mo) = monitors();
        assert!(r.run(&mut c, &mut w, &mut ma, &mut mo, 8));
        let s = r.stats();
        assert_eq!(s.restarts, 2);
        // Both crashes land right after a checkpoint (3 after 2, 7
        // after 6), so neither rollback replays any step.
        assert_eq!(s.replayed_steps, 0);
        assert_eq!(c.steps_taken(), 8);

        let mut clean = pair();
        let (mut cma, mut cmo) = monitors();
        for _ in 0..8 {
            clean.step_monitored(&mut w, &mut cma, &mut cmo);
        }
        assert_eq!(clean.ocean.state.theta.raw(), c.ocean.state.theta.raw());
    }

    #[test]
    fn empty_plan_is_a_plain_monitored_run() {
        let mut w = SerialWorld;
        let mut c = pair();
        let mut r = ResilientRunner::new(&c, FaultPlan::default());
        let (mut ma, mut mo) = monitors();
        assert!(r.run(&mut c, &mut w, &mut ma, &mut mo, 8));
        let s = r.stats();
        assert_eq!(s.restarts, 0);
        assert_eq!(s.replayed_steps, 0);
        // One checkpoint at each coupling boundary: steps 2, 4, 6, 8.
        assert_eq!(c.couple_every, 2);
        assert_eq!(s.checkpoints, 4);
        assert_eq!(ma.steps(), 8);
    }
}
