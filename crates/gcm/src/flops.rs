//! Floating-point operation accounting.
//!
//! The performance model of §5.2 is parameterized by `Nps` and `Nds`, the
//! number of floating-point operations per grid cell in the PS and DS
//! phases, "determined by inspecting the model code" (Figure 11: 781 for
//! the atmosphere, 751 for the ocean, 36 per column per solver iteration).
//! We do the same inspection mechanically: every kernel declares the flop
//! count of its inner loop body next to the loop and reports
//! `cells × flops_per_cell` to a thread-local counter, scoped by phase.
//! Figure 11 can then show the paper's counts alongside the counts
//! *measured from this implementation*.

use std::cell::Cell;

thread_local! {
    static PS_FLOPS: Cell<u64> = const { Cell::new(0) };
    static DS_FLOPS: Cell<u64> = const { Cell::new(0) };
}

/// Which phase the work belongs to (Figure 6).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Prognostic step: tendencies, hydrostatic pressure, state update.
    Ps,
    /// Diagnostic step: the surface-pressure solver.
    Ds,
}

/// Record `n` floating-point operations in `phase`.
#[inline]
pub fn add(phase: Phase, n: u64) {
    match phase {
        Phase::Ps => PS_FLOPS.with(|c| c.set(c.get() + n)),
        Phase::Ds => DS_FLOPS.with(|c| c.set(c.get() + n)),
    }
}

/// Read the current counters (ps, ds).
pub fn read() -> (u64, u64) {
    (PS_FLOPS.with(Cell::get), DS_FLOPS.with(Cell::get))
}

/// Run `f`, returning its result and the flops `(ps, ds)` it counted on
/// this thread.
pub(crate) fn counted<R>(f: impl FnOnce() -> R) -> (R, (u64, u64)) {
    let before = read();
    let r = f();
    let after = read();
    (r, (after.0 - before.0, after.1 - before.1))
}

/// Reset both counters, returning their previous values.
pub fn reset() -> (u64, u64) {
    let out = read();
    PS_FLOPS.with(|c| c.set(0));
    DS_FLOPS.with(|c| c.set(0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_phase() {
        reset();
        add(Phase::Ps, 100);
        add(Phase::Ds, 7);
        add(Phase::Ps, 50);
        assert_eq!(read(), (150, 7));
        assert_eq!(reset(), (150, 7));
        assert_eq!(read(), (0, 0));
    }

    #[test]
    fn thread_local_isolation() {
        reset();
        add(Phase::Ps, 42);
        let other = std::thread::spawn(|| {
            add(Phase::Ps, 1);
            read().0
        })
        .join()
        .unwrap();
        assert_eq!(other, 1);
        assert_eq!(read().0, 42);
        reset();
    }
}
