//! Per-timestep run-health monitor and blowup sentinel.
//!
//! MITgcm ships a `monitor` package that prints global statistics every
//! time step precisely because coupled fine-grid runs fail in ways only
//! per-step diagnostics catch: a CG solve that silently degrades, a CFL
//! violation, a NaN born in one tile's physics column. This module is
//! that package's isomorph for the reproduction:
//!
//! * [`RunMonitor::observe`] computes, after every model step,
//!   conserved-quantity budgets (area integral of `ps`, tracer
//!   integrals, kinetic energy per velocity component), stability
//!   indicators (advective and gravity-wave CFL numbers, max divergence
//!   norm), per-field min/max extrema with the owning rank/level/cell,
//!   and the step's CG convergence trace — every number reduced through
//!   the [`CommWorld`] collectives so all ranks agree bit-for-bit and
//!   the reductions are charged to telemetry like real communication.
//! * A blowup sentinel watches the same reduced values for NaN/Inf and
//!   threshold breaches. On trip it attributes blame — the *first*
//!   offending field/level/cell in a deterministic order — drops
//!   flight-recorder crumbs, captures a snapshot of the reduced state,
//!   and reports failure gracefully instead of letting the run dissolve
//!   into NaN soup.
//!
//! Every rank calls [`RunMonitor::observe`] collectively (the reduction
//! schedule is identical on all ranks, and on every step whether or not
//! the sentinel trips), so a trip can never leave one rank stranded in a
//! collective.

use crate::driver::{Model, StepStats};
use crate::field::Field3;
use crate::grid::GRAVITY;
use hyades_comms::CommWorld;
use hyades_telemetry::diag::{DiagRow, DiagSeries};
use hyades_telemetry::{self as telemetry, flight, prom::fixed};
use std::fmt::Write as _;

/// Prognostic fields in blame order: a non-finite value is attributed to
/// the first field (in this order) that carries one.
const FIELDS: [&str; 6] = ["u", "v", "w", "theta", "s", "ps"];

/// The sentinel trips when the global max horizontal speed exceeds this
/// (m/s). Deliberately loose, like [`MAX_CFL`]: the thresholds catch a
/// run that is already unphysical, not one that is merely energetic.
const MAX_SPEED: f64 = 1.0e3;

/// The sentinel trips when the advective CFL number exceeds this.
const MAX_CFL: f64 = 1.0;

/// What tripped the sentinel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlowupKind {
    /// NaN or ±Inf in a prognostic field.
    NonFinite,
    /// Global max speed breached `MAX_SPEED`.
    Speed,
    /// Advective CFL breached `MAX_CFL`.
    Cfl,
}

/// Blame attribution for a tripped sentinel. Identical on every rank.
#[derive(Clone, Debug)]
pub struct BlowupReport {
    pub step: u64,
    pub kind: BlowupKind,
    /// Offending field name (one of `FIELDS`).
    pub field: &'static str,
    /// Rank owning the offending cell.
    pub rank: usize,
    pub level: usize,
    /// Global cell indices.
    pub gi: i64,
    pub gj: i64,
    /// Breaching value for threshold trips; NaN for [`BlowupKind::NonFinite`].
    pub value: f64,
    /// Deterministic snapshot of the reduced diagnostics at the trip.
    pub snapshot: String,
}

impl BlowupReport {
    pub fn render(&self) -> String {
        let what = match self.kind {
            BlowupKind::NonFinite => "non-finite value".to_string(),
            BlowupKind::Speed => format!("speed {} m/s over threshold", fixed(self.value)),
            BlowupKind::Cfl => format!("CFL {} over threshold", fixed(self.value)),
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "BLOWUP at step {}: {what} in field {} (rank {}, level {}, cell gi={} gj={})",
            self.step, self.field, self.rank, self.level, self.gi, self.gj
        );
        out.push_str(&self.snapshot);
        out
    }
}

/// Pack an owner location into a reduction tag: rank(19b) above
/// level(6b) above gj(14b) above gi(14b) — 53 bits, exactly
/// representable as an `f64` as [`CommWorld::global_argmax`] requires.
fn pack_loc(rank: usize, k: usize, gj: i64, gi: i64) -> u64 {
    debug_assert!(rank < (1 << 19) && k < (1 << 6) && gj < (1 << 14) && gi < (1 << 14));
    ((rank as u64) << 34) | ((k as u64) << 28) | ((gj as u64) << 14) | gi as u64
}

fn unpack_loc(tag: u64) -> (usize, usize, i64, i64) {
    (
        (tag >> 34) as usize,
        ((tag >> 28) & 0x3f) as usize,
        ((tag >> 14) & 0x3fff) as i64,
        (tag & 0x3fff) as i64,
    )
}

/// Blame key for the sentinel: orders by (field, level, gj, gi, rank) so
/// the global minimum is the *first* offending cell in a deterministic
/// scan order, independent of how many ranks saw trouble.
fn pack_blame(field: usize, k: usize, gj: i64, gi: i64, rank: usize) -> u64 {
    debug_assert!(field < (1 << 3) && rank < (1 << 14));
    ((field as u64) << 48)
        | ((k as u64) << 42)
        | ((gj as u64) << 28)
        | ((gi as u64) << 14)
        | rank as u64
}

fn unpack_blame(key: u64) -> (usize, usize, i64, i64, usize) {
    (
        (key >> 48) as usize,
        ((key >> 42) & 0x3f) as usize,
        ((key >> 28) & 0x3fff) as i64,
        ((key >> 14) & 0x3fff) as i64,
        (key & 0x3fff) as usize,
    )
}

/// One field's reduced extrema with owner attribution.
struct Extremes {
    max: f64,
    max_tag: u64,
    min: f64,
    min_tag: u64,
}

/// The per-run monitor: accumulates a [`DiagSeries`] row per observed
/// step and arms the blowup sentinel.
#[derive(Debug)]
pub struct RunMonitor {
    series: DiagSeries,
    steps: u64,
    trips: u64,
    report: Option<BlowupReport>,
}

impl RunMonitor {
    /// `name` labels the series in every exporter (e.g. `"ocean"`).
    pub fn new(name: &str) -> RunMonitor {
        RunMonitor {
            series: DiagSeries::new(name),
            steps: 0,
            trips: 0,
            report: None,
        }
    }

    pub fn series(&self) -> &DiagSeries {
        &self.series
    }

    pub fn steps(&self) -> u64 {
        self.steps
    }

    pub fn trips(&self) -> u64 {
        self.trips
    }

    pub fn blowup(&self) -> Option<&BlowupReport> {
        self.report.as_ref()
    }

    /// Rewind the monitor to `to_steps` observed steps, dropping every
    /// later diagnostics row. The resilient stepper calls this on a
    /// rank-crash rollback so the replayed steps re-record their rows
    /// and the final series is byte-identical to an uninterrupted run.
    /// Trip state is not rewound — a sentinel trip before the crash is
    /// still a trip.
    pub fn truncate(&mut self, to_steps: u64) {
        assert!(to_steps <= self.steps, "cannot truncate forward");
        self.series.truncate(to_steps as usize);
        self.steps = to_steps;
    }

    /// Observe one completed step. Collective: every rank must call with
    /// its own `model`/`stats`. Returns `true` while the run is healthy;
    /// `false` once the sentinel has tripped (the report is identical on
    /// every rank — callers stop stepping and render it).
    pub fn observe(&mut self, world: &mut dyn CommWorld, model: &Model, stats: &StepStats) -> bool {
        let step = model.steps_taken;
        self.steps += 1;
        let rank = world.rank();
        let mut row = DiagRow::new(step);

        // --- conserved-quantity budgets: one batched rank-order sum ---
        let b = local_budgets(model);
        let mut sums = b;
        world.global_sum_vec(&mut sums);
        row.set("vol_anom", sums[0]);
        row.set("theta_int", sums[1]);
        row.set("s_int", sums[2]);
        row.set("ke_u", sums[3]);
        row.set("ke_v", sums[4]);
        row.set("ke_w", sums[5]);

        // --- stability indicators -----------------------------------
        let dt = model.cfg.dt;
        let min_dx = model.cfg.grid.min_dx();
        let speed = world.global_max(stats.max_speed);
        let cfl_adv = speed * dt / min_dx;
        let cfl_gw = (GRAVITY * model.cfg.grid.full_depth()).sqrt() * dt / min_dx;
        let div_max = world.global_max(model.divergence_norm());
        row.set("speed_max", speed);
        row.set("cfl_adv", cfl_adv);
        row.set("cfl_gw", cfl_gw);
        row.set("div_max", div_max);

        // --- CG convergence trace (already global on every rank) ----
        row.set("cg_iters", stats.cg_iterations as f64);
        row.set("cg_r0", stats.cg_initial_residual);
        row.set("cg_rfinal", stats.cg_final_residual);
        row.set("cg_converged", if stats.cg_converged { 1.0 } else { 0.0 });

        // --- per-field extrema with owner attribution ---------------
        let s = &model.state;
        let fields3: [(&Field3, [&'static str; 6]); 5] = [
            (
                &s.u,
                [
                    "u_max",
                    "u_max_rank",
                    "u_max_k",
                    "u_min",
                    "u_min_rank",
                    "u_min_k",
                ],
            ),
            (
                &s.v,
                [
                    "v_max",
                    "v_max_rank",
                    "v_max_k",
                    "v_min",
                    "v_min_rank",
                    "v_min_k",
                ],
            ),
            (
                &s.w,
                [
                    "w_max",
                    "w_max_rank",
                    "w_max_k",
                    "w_min",
                    "w_min_rank",
                    "w_min_k",
                ],
            ),
            (
                &s.theta,
                [
                    "theta_max",
                    "theta_max_rank",
                    "theta_max_k",
                    "theta_min",
                    "theta_min_rank",
                    "theta_min_k",
                ],
            ),
            (
                &s.s,
                [
                    "s_max",
                    "s_max_rank",
                    "s_max_k",
                    "s_min",
                    "s_min_rank",
                    "s_min_k",
                ],
            ),
        ];
        let extremes = fields3.map(|(f, _)| extremes3(world, model, f, rank));
        for ((_, cols), e) in fields3.iter().zip(&extremes) {
            let (max_rank, max_k, _, _) = unpack_loc(e.max_tag);
            let (min_rank, min_k, _, _) = unpack_loc(e.min_tag);
            row.set(cols[0], e.max);
            row.set(cols[1], max_rank as f64);
            row.set(cols[2], max_k as f64);
            row.set(cols[3], e.min);
            row.set(cols[4], min_rank as f64);
            row.set(cols[5], min_k as f64);
        }
        let eps = extremes3(world, model, &s.ps, rank);
        let (ps_max_rank, _, _, _) = unpack_loc(eps.max_tag);
        let (ps_min_rank, _, _, _) = unpack_loc(eps.min_tag);
        row.set("ps_max", eps.max);
        row.set("ps_max_rank", ps_max_rank as f64);
        row.set("ps_min", eps.min);
        row.set("ps_min_rank", ps_min_rank as f64);

        // --- sentinel -----------------------------------------------
        // The non-finite scan + reduction runs every step on every rank
        // regardless of local state, so the collective schedule never
        // diverges across ranks. The verdict issues no collective: a
        // threshold trip blames the owner of the `u` / `v` extremes the
        // loop above has already reduced onto every rank.
        let local_blame = first_non_finite(model, rank);
        let blame = world.global_min(local_blame.map_or(f64::INFINITY, |k| k as f64));

        telemetry::count("gcm.monitor", "steps", 1);
        telemetry::observe("gcm.monitor", "cfl_adv", cfl_adv);
        telemetry::observe("gcm.monitor", "div_max", div_max);
        flight::crumb(step, rank, "monitor.step", stats.cg_iterations as u64);

        let [eu, ev, ..] = &extremes;
        let verdict = if blame.is_finite() {
            let (field, k, gj, gi, owner) = unpack_blame(blame as u64);
            Some((BlowupKind::NonFinite, field, k, gj, gi, owner, f64::NAN))
        } else if speed > MAX_SPEED {
            // Blame the owner of the fastest |u| or |v| cell.
            let (val, tag, field) =
                if eu.max.abs().max(eu.min.abs()) >= ev.max.abs().max(ev.min.abs()) {
                    pick_abs_extreme(eu, 0)
                } else {
                    pick_abs_extreme(ev, 1)
                };
            let (owner, k, gj, gi) = unpack_loc(tag);
            Some((BlowupKind::Speed, field, k, gj, gi, owner, val))
        } else if cfl_adv > MAX_CFL {
            let (val, tag, field) = pick_abs_extreme(eu, 0);
            let (owner, k, gj, gi) = unpack_loc(tag);
            Some((BlowupKind::Cfl, field, k, gj, gi, owner, val))
        } else {
            None
        };

        row.set("sentinel_trip", if verdict.is_some() { 1.0 } else { 0.0 });
        let tripped = verdict.is_some();
        let snapshot = if tripped {
            row_snapshot(&row)
        } else {
            String::new()
        };
        self.series.push(row);

        if let Some((kind, field, k, gj, gi, owner, value)) = verdict {
            // Only the first trip is reported; later observations (if a
            // harness keeps stepping) just count.
            self.trips += 1;
            telemetry::count("gcm.monitor", "sentinel_trips", 1);
            flight::crumb(
                step,
                rank,
                "monitor.trip",
                pack_blame(field, k, gj, gi, owner),
            );
            if self.report.is_none() {
                self.report = Some(BlowupReport {
                    step,
                    kind,
                    field: FIELDS.get(field).copied().unwrap_or("?"),
                    rank: owner,
                    level: k,
                    gi,
                    gj,
                    value,
                    snapshot,
                });
            }
            return false;
        }
        !tripped
    }
}

/// Returns `(value, owner_tag, field_idx)` for whichever signed extreme
/// of `e` has the larger magnitude.
fn pick_abs_extreme(e: &Extremes, field_idx: usize) -> (f64, u64, usize) {
    if e.max.abs() >= e.min.abs() {
        (e.max, e.max_tag, field_idx)
    } else {
        (e.min, e.min_tag, field_idx)
    }
}

/// Local contributions to the batched budget reduction:
/// `[vol_anom, theta_int, s_int, ke_u, ke_v, ke_w]`.
fn local_budgets(model: &Model) -> [f64; 6] {
    let s = &model.state;
    let m = &model.masks;
    let g = &model.geom;
    let dz = &model.cfg.grid.dz;
    let mut out = [0.0f64; 6];
    for (i, j, _) in s.ps.interior() {
        if m.depth.at(i, j, 0) > 0.0 {
            out[0] += g.area_at(j) * s.ps.at(i, j, 0);
        }
    }
    for (i, j, k) in s.theta.interior() {
        let vol = g.area_at(j) * dz[k];
        let wet_c = m.c(i, j, k);
        out[1] += wet_c * vol * s.theta.at(i, j, k);
        out[2] += wet_c * vol * s.s.at(i, j, k);
        out[3] += 0.5 * m.u(i, j, k) * vol * s.u.at(i, j, k).powi(2);
        out[4] += 0.5 * m.v(i, j, k) * vol * s.v.at(i, j, k).powi(2);
        out[5] += 0.5 * wet_c * vol * s.w.at(i, j, k).powi(2);
    }
    out
}

/// Reduced min/max of a field with deterministic owner attribution.
fn extremes3(world: &mut dyn CommWorld, model: &Model, f: &Field3, rank: usize) -> Extremes {
    let t = &model.tile;
    let mut max = f64::NEG_INFINITY;
    let mut min = f64::INFINITY;
    let (mut max_loc, mut min_loc) = ((0usize, 0i64, 0i64), (0usize, 0i64, 0i64));
    for (i, j, k) in f.interior() {
        let v = f.at(i, j, k);
        if v > max {
            max = v;
            max_loc = (k, t.gy(j), t.gx(i));
        }
        if v < min {
            min = v;
            min_loc = (k, t.gy(j), t.gx(i));
        }
    }
    reduce_extremes(world, rank, max, max_loc, min, min_loc)
}

fn reduce_extremes(
    world: &mut dyn CommWorld,
    rank: usize,
    max: f64,
    max_loc: (usize, i64, i64),
    min: f64,
    min_loc: (usize, i64, i64),
) -> Extremes {
    let (max, max_tag) = world.global_argmax(max, pack_loc(rank, max_loc.0, max_loc.1, max_loc.2));
    let (min, min_tag) = world.global_argmin(min, pack_loc(rank, min_loc.0, min_loc.1, min_loc.2));
    Extremes {
        max,
        max_tag,
        min,
        min_tag,
    }
}

/// First non-finite value in this rank's prognostic state, as a blame
/// key ordered (field, level, gj, gi, rank); `None` when clean.
fn first_non_finite(model: &Model, rank: usize) -> Option<u64> {
    let s = &model.state;
    let t = &model.tile;
    let fields: [&Field3; 6] = [&s.u, &s.v, &s.w, &s.theta, &s.s, &s.ps];
    let mut best: Option<u64> = None;
    for (fi, f) in fields.iter().enumerate() {
        for (i, j, k) in f.interior() {
            if !f.at(i, j, k).is_finite() {
                let key = pack_blame(fi, k, t.gy(j), t.gx(i), rank);
                best = Some(best.map_or(key, |b| b.min(key)));
                break; // interior() scans in (k, j, i) order: first hit wins
            }
        }
    }
    best
}

/// Render one reduced row as a key = value snapshot (the "state dump" a
/// tripped sentinel attaches to its report).
fn row_snapshot(row: &DiagRow) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "reduced state at step {}:", row.step);
    for (k, v) in row.iter() {
        let _ = writeln!(out, "  {k} = {}", fixed(v));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::decomp::Decomp;
    use hyades_comms::SerialWorld;

    fn small_model() -> Model {
        let d = Decomp::blocks(16, 8, 1, 1, 3);
        Model::new(ModelConfig::test_ocean(16, 8, 4, d), 0)
    }

    #[test]
    fn healthy_run_records_per_step_rows() {
        let mut w = SerialWorld;
        let mut m = small_model();
        let mut mon = RunMonitor::new("ocean");
        for _ in 0..3 {
            let stats = m.step(&mut w);
            assert!(mon.observe(&mut w, &m, &stats), "healthy run tripped");
        }
        assert_eq!(mon.steps(), 3);
        assert_eq!(mon.trips(), 0);
        assert!(mon.blowup().is_none());
        let s = mon.series();
        assert_eq!(s.len(), 3);
        // Budgets and indicators are present and finite.
        for key in [
            "vol_anom",
            "theta_int",
            "s_int",
            "ke_u",
            "ke_v",
            "ke_w",
            "cfl_adv",
            "cfl_gw",
            "div_max",
            "cg_iters",
            "theta_max",
            "ps_min",
        ] {
            let v = s.last(key).unwrap_or(f64::NAN);
            assert!(v.is_finite(), "{key} = {v}");
        }
        assert!(s.last("cfl_adv").unwrap_or(2.0) < 1.0, "advective CFL sane");
        assert_eq!(s.last("sentinel_trip"), Some(0.0));
        // Temperature extrema bracket the test-ocean initial profile.
        let tmax = s.last("theta_max").unwrap_or(0.0);
        let tmin = s.last("theta_min").unwrap_or(0.0);
        assert!(tmax > tmin);
    }

    #[test]
    fn nan_injection_is_blamed_to_field_level_and_cell() {
        let mut w = SerialWorld;
        let mut m = small_model();
        let mut mon = RunMonitor::new("ocean");
        let stats = m.step(&mut w);
        // Poison one interior theta cell at a known location.
        m.state.theta.set(5, 3, 2, f64::NAN);
        assert!(!mon.observe(&mut w, &m, &stats), "sentinel must trip");
        let r = mon.blowup().expect("no blowup report");
        assert_eq!(r.kind, BlowupKind::NonFinite);
        assert_eq!(r.field, "theta");
        assert_eq!(r.rank, 0);
        assert_eq!(r.level, 2);
        assert_eq!((r.gi, r.gj), (5, 3));
        assert_eq!(r.step, 1);
        assert!(r.render().contains("field theta"));
        assert!(r.render().contains("reduced state at step 1"));
        assert_eq!(mon.trips(), 1);
    }

    #[test]
    fn earlier_field_in_blame_order_wins() {
        let mut w = SerialWorld;
        let mut m = small_model();
        let mut mon = RunMonitor::new("ocean");
        let stats = m.step(&mut w);
        m.state.s.set(1, 1, 0, f64::INFINITY);
        m.state.v.set(7, 2, 1, f64::NAN);
        mon.observe(&mut w, &m, &stats);
        let r = mon.blowup().expect("no blowup report");
        // v precedes s in FIELDS even though s's cell scans earlier.
        assert_eq!(r.field, "v");
        assert_eq!((r.level, r.gi, r.gj), (1, 7, 2));
    }

    #[test]
    fn speed_threshold_trips_with_owner() {
        let mut w = SerialWorld;
        let mut m = small_model();
        let mut mon = RunMonitor::new("ocean");
        let mut stats = m.step(&mut w);
        m.state.u.set(4, 4, 0, -2.0e3);
        stats.max_speed = 2.0e3; // what the driver would report for this state
        assert!(!mon.observe(&mut w, &m, &stats));
        let r = mon.blowup().expect("no blowup report");
        assert_eq!(r.kind, BlowupKind::Speed);
        assert_eq!(r.field, "u");
        assert_eq!((r.level, r.gi, r.gj), (0, 4, 4));
        assert_eq!(r.value, -2.0e3);
    }

    /// The one-rank world, recording the name of every primitive
    /// collective it is asked for (`global_min` and the arg-reductions
    /// arrive as `global_max` calls).
    #[derive(Default)]
    struct Recording(Vec<&'static str>);

    impl CommWorld for Recording {
        fn rank(&self) -> usize {
            0
        }
        fn size(&self) -> usize {
            1
        }
        fn exchange(&mut self, outgoing: Vec<(usize, Vec<f64>)>) -> Vec<(usize, Vec<f64>)> {
            self.0.push("exchange");
            SerialWorld.exchange(outgoing)
        }
        fn global_sum_vec(&mut self, _xs: &mut [f64]) {
            self.0.push("global_sum_vec");
        }
        fn global_max(&mut self, x: f64) -> f64 {
            self.0.push("global_max");
            x
        }
        fn barrier(&mut self) {
            self.0.push("barrier");
        }
        fn gather(&mut self, data: Vec<f64>) -> Option<Vec<Vec<f64>>> {
            self.0.push("gather");
            Some(vec![data])
        }
    }

    /// A trip on speed or on CFL issues exactly the collectives a quiet
    /// step does: the verdict blames from the extremes every step has
    /// already reduced. |u| = 500 m/s is below the speed threshold but an
    /// advective CFL of about 1.2 on the test ocean at Δt = 3 600 s.
    #[test]
    fn threshold_trips_issue_the_quiet_schedule() {
        let mut m = small_model();
        let stats = m.step(&mut SerialWorld);
        let mut observe = |speed: f64| {
            m.state.u.set(4, 4, 0, -speed);
            let stats = StepStats {
                max_speed: speed,
                ..stats
            };
            let mut w = Recording::default();
            let mut mon = RunMonitor::new("ocean");
            mon.observe(&mut w, &m, &stats);
            let cfl = mon.series().last("cfl_adv").unwrap_or(f64::NAN);
            let trip = mon.blowup().map(|r| (r.kind, r.field, r.level, r.gi, r.gj));
            (w.0, cfl, trip)
        };
        let (quiet, quiet_cfl, none) = observe(2.0);
        assert_eq!(none, None);
        assert!(quiet_cfl < MAX_CFL, "CFL {quiet_cfl}");
        let (cfl, cfl_value, cfl_trip) = observe(500.0);
        assert!((1.1..1.3).contains(&cfl_value), "CFL {cfl_value}");
        assert_eq!(cfl_trip, Some((BlowupKind::Cfl, "u", 0, 4, 4)));
        let (speed, _, speed_trip) = observe(2.0e3);
        assert_eq!(speed_trip, Some((BlowupKind::Speed, "u", 0, 4, 4)));
        assert!(quiet.len() > 10, "{quiet:?}");
        assert_eq!(speed, quiet);
        assert_eq!(cfl, quiet);
    }

    #[test]
    fn loc_packing_roundtrips() {
        let tag = pack_loc(37, 12, 1000, 2047);
        assert_eq!(unpack_loc(tag), (37, 12, 1000, 2047));
        let key = pack_blame(4, 63, 16383, 0, 11);
        assert_eq!(unpack_blame(key), (4, 63, 16383, 0, 11));
        // Keys stay exactly representable as f64.
        let as_f = key as f64;
        assert_eq!(as_f as u64, key);
    }
}
