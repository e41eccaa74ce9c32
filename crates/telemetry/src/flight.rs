//! Thread-local flight recorder built on [`hyades_des::trace::Trace`].
//!
//! Simulated components (Arctic routers, NIU state machines) call
//! [`record`] at interesting event-path points; the call is a no-op
//! unless a harness has [`install`]ed a trace on this thread. Test
//! harnesses dump the buffer when an assertion fails — the event history
//! that led to the failure, like a black box pulled from wreckage.

use hyades_des::trace::Trace;
use hyades_des::{ActorId, SimTime};
use std::cell::{Cell, RefCell};

thread_local! {
    static INSTALLED: Cell<bool> = const { Cell::new(false) };
    static FLIGHT: RefCell<Option<Trace>> = const { RefCell::new(None) };
}

/// Records a flight recorder holds; the oldest are dropped first.
const CAPACITY: usize = 4096;

/// Install a bounded flight recorder on this thread (`CAPACITY`
/// records). Replaces any existing recorder.
pub fn install() {
    FLIGHT.with(|f| *f.borrow_mut() = Some(Trace::new(CAPACITY)));
    INSTALLED.with(|i| i.set(true));
}

/// Is a flight recorder installed on this thread?
#[inline]
pub fn installed() -> bool {
    INSTALLED.with(|i| i.get())
}

/// Append a record if a recorder is installed; otherwise a no-op.
#[inline]
pub fn record(at: SimTime, actor: ActorId, label: &'static str, detail: u64) {
    if !installed() {
        return;
    }
    FLIGHT.with(|f| {
        if let Some(tr) = f.borrow_mut().as_mut() {
            tr.record(at, actor, label, detail);
        }
    });
}

/// Convenience for model-side callers (the GCM monitor) that live
/// outside the DES and have no natural [`SimTime`]/[`ActorId`]: stamp
/// the crumb with the timestep number as microseconds and the rank as
/// the actor, so sentinel breadcrumbs interleave readably with a
/// `Trace::dump`.
#[inline]
pub fn crumb(step: u64, rank: usize, label: &'static str, detail: u64) {
    record(
        SimTime::from_us_f64(step as f64),
        ActorId(rank),
        label,
        detail,
    );
}

/// Remove and return the recorder (for dumping after a failure).
pub fn take() -> Option<Trace> {
    INSTALLED.with(|i| i.set(false));
    FLIGHT.with(|f| f.borrow_mut().take())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_noop_without_install() {
        assert!(!installed());
        record(SimTime::ZERO, ActorId(0), "ev", 1);
        assert!(take().is_none());
    }

    #[test]
    fn installed_recorder_captures_events() {
        install();
        assert!(installed());
        record(SimTime::from_us_f64(1.0), ActorId(2), "router.tx", 7);
        record(SimTime::from_us_f64(2.0), ActorId(3), "router.rx", 7);
        let tr = take().unwrap();
        assert!(!installed());
        assert_eq!(tr.len(), 2);
        let labels: Vec<&str> = tr.iter().map(|r| r.label).collect();
        assert_eq!(labels, ["router.tx", "router.rx"]);
        assert!(tr.dump().contains("router.tx"));
    }

    #[test]
    fn reinstall_replaces_buffer() {
        install();
        record(SimTime::ZERO, ActorId(0), "old", 0);
        install();
        record(SimTime::ZERO, ActorId(0), "new", 0);
        let tr = take().unwrap();
        assert_eq!(tr.len(), 1);
        assert_eq!(tr.iter().next().unwrap().label, "new");
    }
}
