//! Thread-local communication event log for `ThreadWorld` ranks.
//!
//! The happens-before checker ([`crate::matcher::check`]) needs the
//! exact sequence of communication operations each rank performed —
//! keyed channel sends/recvs and shared-memory reductions — to replay
//! them under vector clocks and prove every matched send/recv pair is
//! ordered. Each rank [`install`]s a log on its own thread before the
//! run and [`take`]s it after; recording is a no-op otherwise (same
//! zero-cost-when-disabled idiom as [`crate::flight`]).
//!
//! Since the critical-path profiler ([`crate::critpath`]) the log keeps
//! more than the bare event stream: every event is a [`Stamped`] record
//! carrying the rank's charged simulated clock at record time, the
//! charged cost of the primitive op the event belongs to (stamped by
//! `TimedWorld` through [`begin_op`]), the op ordinal, the current
//! timestep tag ([`mark_step`]), and the PS/DS phase. All of it is
//! simulated time and per-rank counters — nothing wall-clock, so
//! stamped logs replay byte-identically across double runs. Callers
//! that only need the communication structure (the hb checker) use
//! [`take`], a projection that drops the stamps.

use crate::recorder::{self, Phase};
use std::cell::{Cell, RefCell};

/// One communication operation performed by the recording rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommEvent {
    /// Posted `words` values on the keyed channel to rank `to`.
    Send { to: usize, words: usize },
    /// Consumed `words` values from the keyed channel from rank `from`.
    Recv { from: usize, words: usize },
    /// Joined the all-ranks shared-memory reduction numbered `generation`
    /// (a global sum / max / barrier; the generation counter totally
    /// orders reductions across the run).
    Reduce { generation: u64 },
}

/// One logged event plus the timing/attribution metadata the
/// critical-path profiler reconstructs the global event DAG from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamped {
    pub ev: CommEvent,
    /// The rank's charged simulated clock (integer picoseconds) when the
    /// event was recorded — i.e. *after* the op's cost was charged.
    /// Zero on untimed runs (no recorder enabled).
    pub at_ps: u64,
    /// Charged cost of the primitive op this event belongs to, stamped
    /// by the enclosing [`begin_op`]. Zero on untimed runs.
    pub cost_ps: u64,
    /// Primitive-op ordinal on this rank (one `begin_op` = one op).
    /// Zero before the first `begin_op`.
    pub op: u32,
    /// Timestep tag set by [`mark_step`]; zero before the first mark.
    pub step: u32,
    /// PS/DS phase the op was charged to.
    pub phase: Phase,
}

thread_local! {
    static INSTALLED: Cell<bool> = const { Cell::new(false) };
    static LOG: RefCell<Vec<Stamped>> = const { RefCell::new(Vec::new()) };
    static OP: Cell<u32> = const { Cell::new(0) };
    static OP_COST: Cell<u64> = const { Cell::new(0) };
    static STEP: Cell<u32> = const { Cell::new(0) };
}

/// Start logging communication events on this thread (clears any
/// previous log and resets the op/step tags).
pub fn install() {
    LOG.with(|l| l.borrow_mut().clear());
    OP.with(|o| o.set(0));
    OP_COST.with(|c| c.set(0));
    STEP.with(|s| s.set(0));
    INSTALLED.with(|i| i.set(true));
}

/// Is a log installed on this thread?
#[inline]
pub fn installed() -> bool {
    INSTALLED.with(|i| i.get())
}

/// Open a new primitive op with charged cost `cost_ps`: subsequent
/// events belong to it until the next call. `TimedWorld` calls this once
/// per primitive (exchange / reduction / gather), right after charging
/// the cost model. No-op without an installed log.
#[inline]
pub fn begin_op(cost_ps: u64) {
    if !installed() {
        return;
    }
    OP.with(|o| o.set(o.get() + 1));
    OP_COST.with(|c| c.set(cost_ps));
}

/// Tag subsequent events with timestep `step` (1-based by convention).
/// The critical-path report segments its per-step tables on this tag.
#[inline]
pub fn mark_step(step: u32) {
    if !installed() {
        return;
    }
    STEP.with(|s| s.set(step));
}

/// Append an event if a log is installed; otherwise a no-op. The stamp
/// is read from the telemetry recorder's charged clock (zero when no
/// recorder is enabled).
#[inline]
pub fn record(ev: CommEvent) {
    if !installed() {
        return;
    }
    let stamped = Stamped {
        ev,
        at_ps: recorder::charged_clock_ps(),
        cost_ps: OP_COST.with(|c| c.get()),
        op: OP.with(|o| o.get()),
        step: STEP.with(|s| s.get()),
        phase: recorder::current_phase(),
    };
    LOG.with(|l| l.borrow_mut().push(stamped));
}

/// Stop logging and return the bare events recorded on this thread (the
/// happens-before checker's input; stamps dropped).
pub fn take() -> Vec<CommEvent> {
    take_stamped().into_iter().map(|s| s.ev).collect()
}

/// Stop logging and return the full stamped records (the critical-path
/// profiler's input).
pub fn take_stamped() -> Vec<Stamped> {
    INSTALLED.with(|i| i.set(false));
    LOG.with(|l| std::mem::take(&mut *l.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_noop_without_install() {
        assert!(!installed());
        record(CommEvent::Send { to: 1, words: 4 });
        assert!(take().is_empty());
    }

    #[test]
    fn installed_log_captures_in_order() {
        install();
        record(CommEvent::Send { to: 2, words: 8 });
        record(CommEvent::Recv { from: 2, words: 8 });
        record(CommEvent::Reduce { generation: 0 });
        let log = take();
        assert!(!installed());
        assert_eq!(
            log,
            vec![
                CommEvent::Send { to: 2, words: 8 },
                CommEvent::Recv { from: 2, words: 8 },
                CommEvent::Reduce { generation: 0 },
            ]
        );
    }

    #[test]
    fn reinstall_clears_previous_log() {
        install();
        record(CommEvent::Reduce { generation: 7 });
        install();
        record(CommEvent::Reduce { generation: 8 });
        assert_eq!(take(), vec![CommEvent::Reduce { generation: 8 }]);
    }

    #[test]
    fn ops_and_steps_tag_stamped_records() {
        install();
        record(CommEvent::Send { to: 1, words: 4 }); // before any op
        begin_op(250);
        mark_step(1);
        record(CommEvent::Send { to: 1, words: 2 });
        record(CommEvent::Recv { from: 1, words: 2 });
        begin_op(90);
        mark_step(2);
        record(CommEvent::Reduce { generation: 0 });
        let log = take_stamped();
        assert!(!installed());
        assert_eq!(log.len(), 4);
        assert_eq!((log[0].op, log[0].step, log[0].cost_ps), (0, 0, 0));
        assert_eq!((log[1].op, log[1].step, log[1].cost_ps), (1, 1, 250));
        assert_eq!((log[2].op, log[2].step, log[2].cost_ps), (1, 1, 250));
        assert_eq!((log[3].op, log[3].step, log[3].cost_ps), (2, 2, 90));
        // No recorder enabled: stamps are zero, phase Outside.
        assert!(log.iter().all(|s| s.at_ps == 0));
        assert!(log.iter().all(|s| s.phase == Phase::Outside));
    }

    #[test]
    fn stamps_follow_the_charged_clock() {
        use hyades_des::SimDuration;
        crate::recorder::enable(0);
        install();
        crate::recorder::set_phase(Phase::Ds);
        let cost = SimDuration::from_us(3);
        begin_op(cost.as_ps());
        crate::recorder::charge_comm("gsum", cost);
        record(CommEvent::Reduce { generation: 0 });
        let log = take_stamped();
        let tel = crate::recorder::disable().unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].at_ps, cost.as_ps());
        assert_eq!(log[0].cost_ps, cost.as_ps());
        assert_eq!(log[0].phase, Phase::Ds);
        assert_eq!(tel.phases.ds_comm, cost);
    }
}
