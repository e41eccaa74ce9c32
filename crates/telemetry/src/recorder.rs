//! Thread-local span recorder with a zero-cost disabled path.
//!
//! Mirrors the `gcm::flops` idiom: one `thread_local` [`Cell<bool>`] gate
//! that every entry point checks first (`#[inline]`, single predictable
//! branch when telemetry is off), backed by a `RefCell<Option<Recorder>>`
//! holding the actual state while enabled.
//!
//! Two timelines coexist:
//!
//! * **Event timeline** ([`record_span`], pid [`DES_PID`]) — spans stamped
//!   with explicit simulator time by DES actors (Arctic routers, StarT-X
//!   NIU state machines, exchange/gsum protocol nodes). The track id is
//!   the actor id.
//! * **Charged timeline** ([`charge_comm`] / [`charge_flops`], pid
//!   [`GCM_PID`]) — a per-rank clock advanced by analytically-charged
//!   costs while the *functional* GCM runs (the same time-charging
//!   methodology as §5 of the paper: compute time = flops / F, comm time
//!   from the interconnect model). The track id is the rank.
//!
//! Charged costs are attributed to the current PS/DS [`Phase`] so the
//! end-of-run [`PhaseTotals`] decompose exactly like eqs. (4)–(13).

use crate::registry::Registry;
use hyades_des::{SimDuration, SimTime};
use std::cell::{Cell, RefCell};

/// Chrome-trace process id for the charged per-rank GCM timeline.
pub const GCM_PID: u32 = 0;
/// Chrome-trace process id for the event-level DES timeline.
pub const DES_PID: u32 = 1;

/// Which side of the Figure 6 step decomposition we are in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Prognostic step: G-terms, AB2 extrapolation, tendency updates.
    Ps,
    /// Diagnostic step: the elliptic pressure solve (CG iterations).
    Ds,
    /// Outside any model step (setup, diagnostics, microbenchmarks).
    Outside,
}

/// One completed span on either timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    pub pid: u32,
    pub tid: u64,
    pub cat: &'static str,
    pub name: &'static str,
    pub start: SimTime,
    pub dur: SimDuration,
}

/// Simulated time charged to each phase, split compute vs communication.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    pub ps_compute: SimDuration,
    pub ps_comm: SimDuration,
    pub ds_compute: SimDuration,
    pub ds_comm: SimDuration,
    /// Communication charged outside any PS/DS phase.
    pub outside_comm: SimDuration,
}

impl PhaseTotals {
    pub fn merge(&mut self, other: &PhaseTotals) {
        self.ps_compute += other.ps_compute;
        self.ps_comm += other.ps_comm;
        self.ds_compute += other.ds_compute;
        self.ds_comm += other.ds_comm;
        self.outside_comm += other.outside_comm;
    }

    /// Everything charged, all phases, compute + comm.
    pub fn total(&self) -> SimDuration {
        self.ps_compute + self.ps_comm + self.ds_compute + self.ds_comm + self.outside_comm
    }
}

/// Everything one rank recorded, returned by [`disable`].
#[derive(Debug)]
pub struct RankTelemetry {
    pub rank: usize,
    pub spans: Vec<SpanRecord>,
    pub registry: Registry,
    pub phases: PhaseTotals,
    /// Final value of the charged clock.
    pub clock: SimTime,
}

struct Recorder {
    rank: usize,
    spans: Vec<SpanRecord>,
    registry: Registry,
    phases: PhaseTotals,
    clock: SimTime,
    phase: Phase,
}

/// Sustained PS flop rate that converts flops to charged time (Figure 11:
/// Fps = 50 MFlop/s).
pub const FPS_MFLOPS: f64 = 50.0;

/// Sustained DS flop rate (Figure 11: Fds = 60 MFlop/s).
pub const FDS_MFLOPS: f64 = 60.0;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Is telemetry recording on this thread? The disabled fast path of every
/// entry point is exactly this load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Start recording on this thread, charging compute at [`FPS_MFLOPS`] /
/// [`FDS_MFLOPS`]. Replaces any prior recorder.
pub fn enable(rank: usize) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            rank,
            spans: Vec::new(),
            registry: Registry::new(),
            phases: PhaseTotals::default(),
            clock: SimTime::ZERO,
            phase: Phase::Outside,
        });
    });
    ENABLED.with(|e| e.set(true));
}

/// Stop recording and hand back everything this thread collected.
/// Returns `None` if telemetry was not enabled.
pub fn disable() -> Option<RankTelemetry> {
    ENABLED.with(|e| e.set(false));
    RECORDER
        .with(|r| r.borrow_mut().take())
        .map(|rec| RankTelemetry {
            rank: rec.rank,
            spans: rec.spans,
            registry: rec.registry,
            phases: rec.phases,
            clock: rec.clock,
        })
}

#[inline]
fn with_recorder(f: impl FnOnce(&mut Recorder)) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            f(rec);
        }
    });
}

/// Mark the PS/DS phase boundary; subsequent charged costs are attributed
/// to `phase`.
#[inline]
pub fn set_phase(phase: Phase) {
    if !enabled() {
        return;
    }
    with_recorder(|rec| rec.phase = phase);
}

/// The phase charged costs are currently attributed to
/// ([`Phase::Outside`] when disabled).
#[inline]
pub fn current_phase() -> Phase {
    if !enabled() {
        return Phase::Outside;
    }
    let mut p = Phase::Outside;
    with_recorder(|rec| p = rec.phase);
    p
}

/// Record a completed span on the event timeline (pid [`DES_PID`]).
/// `track` is typically the DES actor id; `start` is simulator time.
#[inline]
pub fn record_span(
    track: u64,
    cat: &'static str,
    name: &'static str,
    start: SimTime,
    dur: SimDuration,
) {
    if !enabled() {
        return;
    }
    with_recorder(|rec| {
        rec.spans.push(SpanRecord {
            pid: DES_PID,
            tid: track,
            cat,
            name,
            start,
            dur,
        });
        rec.registry.observe_duration_us(cat, name, dur);
    });
}

/// Charge a communication cost to the rank's timeline, attributed to the
/// current phase. Appends a span at the charged clock and advances it.
#[inline]
pub fn charge_comm(name: &'static str, dur: SimDuration) {
    if !enabled() {
        return;
    }
    with_recorder(|rec| {
        let tid = rec.rank as u64;
        rec.spans.push(SpanRecord {
            pid: GCM_PID,
            tid,
            cat: "comm",
            name,
            start: rec.clock,
            dur,
        });
        rec.clock += dur;
        match rec.phase {
            Phase::Ps => rec.phases.ps_comm += dur,
            Phase::Ds => rec.phases.ds_comm += dur,
            Phase::Outside => rec.phases.outside_comm += dur,
        }
        rec.registry.observe_duration_us("comm", name, dur);
    });
}

/// Charge `flops` floating-point operations of `phase` compute to the
/// rank's timeline, converted through the sustained phase rate
/// (compute time = flops / F, eq. (5)/(8) methodology).
#[inline]
pub fn charge_flops(phase: Phase, flops: u64) {
    if !enabled() || flops == 0 {
        return;
    }
    with_recorder(|rec| {
        let (rate_mflops, name) = match phase {
            Phase::Ps => (FPS_MFLOPS, "ps.compute"),
            Phase::Ds => (FDS_MFLOPS, "ds.compute"),
            Phase::Outside => (FPS_MFLOPS, "compute"),
        };
        let dur = SimDuration::from_secs_f64(flops as f64 / (rate_mflops * 1e6));
        let tid = rec.rank as u64;
        rec.spans.push(SpanRecord {
            pid: GCM_PID,
            tid,
            cat: "compute",
            name,
            start: rec.clock,
            dur,
        });
        rec.clock += dur;
        match phase {
            Phase::Ps => rec.phases.ps_compute += dur,
            Phase::Ds => rec.phases.ds_compute += dur,
            Phase::Outside => {}
        }
        rec.registry.add_count("compute", name, flops);
    });
}

/// Current value of the charged per-rank clock in integer picoseconds
/// (0 when disabled). The commlog stamps communication events with this
/// clock: it is simulated time, so stamped logs replay byte-identically
/// across double runs — the property the critical-path profiler's
/// determinism rests on.
#[inline]
pub fn charged_clock_ps() -> u64 {
    if !enabled() {
        return 0;
    }
    let mut ps = 0u64;
    with_recorder(|rec| ps = rec.clock.since(SimTime::ZERO).as_ps());
    ps
}

/// Snapshot of the per-phase charged totals so far (all zero when
/// disabled). The run-health monitor differences consecutive snapshots
/// to attribute charged time to individual timesteps.
#[inline]
pub fn phase_totals() -> PhaseTotals {
    if !enabled() {
        return PhaseTotals::default();
    }
    let mut totals = PhaseTotals::default();
    with_recorder(|rec| totals = rec.phases);
    totals
}

/// Bump a registry counter.
#[inline]
pub fn count(component: &'static str, metric: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    with_recorder(|rec| rec.registry.add_count(component, metric, delta));
}

/// Record a registry statistics sample.
#[inline]
pub fn observe(component: &'static str, metric: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    with_recorder(|rec| rec.registry.observe(component, metric, value));
}

/// Record a duration sample (stored in microseconds).
#[inline]
pub fn observe_duration_us(component: &'static str, metric: &'static str, d: SimDuration) {
    if !enabled() {
        return;
    }
    with_recorder(|rec| rec.registry.observe_duration_us(component, metric, d));
}

/// Record a registry histogram sample.
#[inline]
pub fn observe_hist(component: &'static str, metric: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    with_recorder(|rec| rec.registry.observe_hist(component, metric, value));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_path_records_nothing() {
        assert!(!enabled());
        record_span(0, "c", "n", SimTime::ZERO, SimDuration::from_us(1));
        charge_comm("exchange", SimDuration::from_us(1));
        charge_flops(Phase::Ps, 1000);
        count("c", "n", 1);
        observe("c", "n", 1.0);
        observe_hist("c", "n", 1);
        assert!(disable().is_none());
    }

    #[test]
    fn charged_clock_advances_and_phases_split() {
        enable(3);
        assert!(enabled());
        set_phase(Phase::Ps);
        assert_eq!(current_phase(), Phase::Ps);
        charge_flops(Phase::Ps, 50_000_000); // 1 s at 50 MFlop/s
        charge_comm("exchange", SimDuration::from_us(10));
        set_phase(Phase::Ds);
        charge_flops(Phase::Ds, 60_000_000); // 1 s at 60 MFlop/s
        charge_comm("gsum", SimDuration::from_us(4));
        let clock_ps = charged_clock_ps();
        let t = disable().unwrap();
        assert_eq!(clock_ps, t.clock.since(SimTime::ZERO).as_ps());
        assert_eq!(charged_clock_ps(), 0, "disabled clock reads zero");
        assert!(!enabled());
        assert_eq!(t.rank, 3);
        assert_eq!(t.phases.ps_compute, SimDuration::from_secs_f64(1.0));
        assert_eq!(t.phases.ds_compute, SimDuration::from_secs_f64(1.0));
        assert_eq!(t.phases.ps_comm, SimDuration::from_us(10));
        assert_eq!(t.phases.ds_comm, SimDuration::from_us(4));
        assert_eq!(t.clock, SimTime::ZERO + t.phases.total());
        assert_eq!(t.spans.len(), 4);
        // Spans tile the charged timeline with no gaps.
        let mut clock = SimTime::ZERO;
        for s in &t.spans {
            assert_eq!(s.pid, GCM_PID);
            assert_eq!(s.tid, 3);
            assert_eq!(s.start, clock);
            clock += s.dur;
        }
    }

    #[test]
    fn event_spans_carry_explicit_time() {
        enable(0);
        let start = SimTime::from_us_f64(7.5);
        record_span(42, "arctic", "router.tx", start, SimDuration::from_ns(500));
        let t = disable().unwrap();
        assert_eq!(t.spans.len(), 1);
        let s = &t.spans[0];
        assert_eq!(s.pid, DES_PID);
        assert_eq!(s.tid, 42);
        assert_eq!(s.start, start);
        // Event spans do not advance the charged clock.
        assert_eq!(t.clock, SimTime::ZERO);
        // But they do feed the registry.
        assert_eq!(t.registry.stat("arctic", "router.tx").unwrap().count(), 1);
    }

    #[test]
    fn registry_metrics_roundtrip() {
        enable(1);
        count("arctic.router", "packets", 5);
        observe("comms.gsum", "latency_us", 4.0);
        observe_duration_us("comms.gsum", "span", SimDuration::from_us(2));
        observe_hist("startx.vi", "bytes", 4096);
        let t = disable().unwrap();
        assert_eq!(t.registry.counter("arctic.router", "packets"), 5);
        assert_eq!(
            t.registry.stat("comms.gsum", "latency_us").unwrap().count(),
            1
        );
        assert_eq!(t.registry.hist("startx.vi", "bytes").unwrap().total(), 1);
    }

    #[test]
    fn outside_comm_is_tracked_separately() {
        enable(0);
        charge_comm("barrier", SimDuration::from_us(3));
        let t = disable().unwrap();
        assert_eq!(t.phases.outside_comm, SimDuration::from_us(3));
        assert_eq!(t.phases.ps_comm, SimDuration::ZERO);
    }
}
