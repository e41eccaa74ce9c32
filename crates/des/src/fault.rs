//! Deterministic fault plans.
//!
//! The paper's Hyades cluster assumed a reliable Arctic fabric: per-stage
//! CRC *detects* corruption, but §2.2 treats a failed check as a
//! catastrophic error and the measured runs never had to survive one. A
//! production-scale system serving month-long climate runs must keep
//! stepping when a link corrupts packets, an NIU stalls, or a rank dies
//! mid-step. This module is the *plan* half of that story: a seeded,
//! fully deterministic description of which faults happen when, shared
//! verbatim by every rank so fault handling never desynchronizes the
//! collective schedule.
//!
//! * [`FaultPlan`] — scheduled [`LinkFaultWindow`]s (corrupt/drop rates
//!   active over a simulated-time interval), [`NiuStall`] intervals
//!   (an injection port holds its queue until the window closes), and
//!   [`RankCrash`] events (a rank loses its in-memory model state at a
//!   given coupled step).
//!
//! Injection lives with the consumers (`arctic` applies link windows
//! and stalls at its injection ports, `gcm` applies rank crashes in its
//! resilient stepper); this module only describes the schedule, which is
//! why it lives beside the simulation clock it is written in.

use crate::SimTime;
use std::fmt::Write as _;

/// A corrupt/drop-rate window on the fabric's injection links: between
/// `from` (inclusive) and `until` (exclusive), packets entering the
/// fabric are corrupted or dropped at the given per-packet rates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFaultWindow {
    pub from: SimTime,
    pub until: SimTime,
    /// Per-packet single-bit-flip probability while the window is open.
    pub corrupt_rate: f64,
    /// Per-packet drop probability (checked before corruption).
    pub drop_rate: f64,
}

impl LinkFaultWindow {
    pub fn covers(&self, at: SimTime) -> bool {
        self.from <= at && at < self.until
    }
}

/// An NIU stall: endpoint `endpoint`'s injection port stops granting the
/// link between `from` and `until`; queued packets wait the stall out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NiuStall {
    pub endpoint: u16,
    pub from: SimTime,
    pub until: SimTime,
}

/// A rank loses its in-memory model state at the *start* of coupled
/// step `at_step` (1-based, matching `steps_taken + 1`). Recovery is
/// the resilient stepper's job: restart from the last checkpoint and
/// replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankCrash {
    pub rank: usize,
    pub at_step: u64,
}

/// A seeded, deterministic fault schedule. The seed feeds the per-port
/// corruption RNG streams so two runs of the same plan inject byte-for-
/// byte identical faults; the plan itself is replicated on every rank,
/// so decisions taken from it (notably crash recovery) are uniform
/// across the collective.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    pub seed: u64,
    pub link_windows: Vec<LinkFaultWindow>,
    pub niu_stalls: Vec<NiuStall>,
    pub rank_crashes: Vec<RankCrash>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Add a link corrupt/drop window over `[from_us, until_us)`
    /// microseconds of simulated time.
    pub fn link_window(
        mut self,
        from_us: f64,
        until_us: f64,
        corrupt_rate: f64,
        drop_rate: f64,
    ) -> FaultPlan {
        assert!(from_us <= until_us, "window must not be inverted");
        assert!(
            (0.0..=1.0).contains(&corrupt_rate) && (0.0..=1.0).contains(&drop_rate),
            "rates must be probabilities"
        );
        self.link_windows.push(LinkFaultWindow {
            from: SimTime::from_us_f64(from_us),
            until: SimTime::from_us_f64(until_us),
            corrupt_rate,
            drop_rate,
        });
        self
    }

    /// Stall endpoint `endpoint`'s NIU over `[from_us, until_us)`.
    pub fn niu_stall(mut self, endpoint: u16, from_us: f64, until_us: f64) -> FaultPlan {
        assert!(from_us <= until_us, "stall must not be inverted");
        self.niu_stalls.push(NiuStall {
            endpoint,
            from: SimTime::from_us_f64(from_us),
            until: SimTime::from_us_f64(until_us),
        });
        self
    }

    /// Crash `rank` at the start of coupled step `at_step` (1-based).
    pub fn rank_crash(mut self, rank: usize, at_step: u64) -> FaultPlan {
        assert!(at_step >= 1, "steps are 1-based");
        self.rank_crashes.push(RankCrash { rank, at_step });
        self
    }

    /// The link window covering `at`, if any (first match wins — plans
    /// with overlapping windows are ordered by insertion).
    pub fn link_window_at(&self, at: SimTime) -> Option<&LinkFaultWindow> {
        self.link_windows.iter().find(|w| w.covers(at))
    }

    /// If `endpoint`'s NIU is stalled at `at`, the time the stall ends.
    pub fn stalled_until(&self, endpoint: u16, at: SimTime) -> Option<SimTime> {
        self.niu_stalls
            .iter()
            .filter(|s| s.endpoint == endpoint && s.from <= at && at < s.until)
            .map(|s| s.until)
            .max()
    }

    /// The crash scheduled for step `step`, if any. At most one rank
    /// crashes per step in a well-formed plan; the lowest rank wins.
    pub fn crash_at_step(&self, step: u64) -> Option<&RankCrash> {
        self.rank_crashes
            .iter()
            .filter(|c| c.at_step == step)
            .min_by_key(|c| c.rank)
    }

    pub fn is_empty(&self) -> bool {
        self.link_windows.is_empty() && self.niu_stalls.is_empty() && self.rank_crashes.is_empty()
    }

    /// Deterministic one-plan-per-line rendering for run manifests.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# fault plan (seed {:#x})", self.seed);
        for w in &self.link_windows {
            let _ = writeln!(
                out,
                "link-window {}..{} us corrupt {:.4} drop {:.4}",
                w.from.as_us_f64(),
                w.until.as_us_f64(),
                w.corrupt_rate,
                w.drop_rate
            );
        }
        for s in &self.niu_stalls {
            let _ = writeln!(
                out,
                "niu-stall ep{} {}..{} us",
                s.endpoint,
                s.from.as_us_f64(),
                s.until.as_us_f64()
            );
        }
        for c in &self.rank_crashes {
            let _ = writeln!(out, "rank-crash rank {} at step {}", c.rank, c.at_step);
        }
        if self.is_empty() {
            out.push_str("(no faults scheduled)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_and_renders_deterministically() {
        let p = FaultPlan::new(0xFA)
            .link_window(10.0, 20.0, 0.5, 0.1)
            .niu_stall(3, 5.0, 9.0)
            .rank_crash(2, 4);
        assert_eq!(p.link_windows.len(), 1);
        assert_eq!(p.niu_stalls.len(), 1);
        assert_eq!(p.rank_crashes.len(), 1);
        assert!(!p.is_empty());
        let r = p.render();
        assert_eq!(r, p.render(), "render must be deterministic");
        assert!(r.contains("link-window 10..20 us corrupt 0.5000 drop 0.1000"));
        assert!(r.contains("niu-stall ep3 5..9 us"));
        assert!(r.contains("rank-crash rank 2 at step 4"));
    }

    #[test]
    fn window_lookup_honours_half_open_interval() {
        let p = FaultPlan::new(1).link_window(10.0, 20.0, 0.2, 0.0);
        assert!(p.link_window_at(SimTime::from_us_f64(9.9)).is_none());
        assert!(p.link_window_at(SimTime::from_us_f64(10.0)).is_some());
        assert!(p.link_window_at(SimTime::from_us_f64(19.9)).is_some());
        assert!(p.link_window_at(SimTime::from_us_f64(20.0)).is_none());
    }

    #[test]
    fn stall_lookup_is_per_endpoint_and_takes_longest_cover() {
        let p = FaultPlan::new(1)
            .niu_stall(0, 0.0, 10.0)
            .niu_stall(0, 5.0, 30.0)
            .niu_stall(1, 0.0, 50.0);
        let at = SimTime::from_us_f64(6.0);
        assert_eq!(p.stalled_until(0, at), Some(SimTime::from_us_f64(30.0)));
        assert_eq!(p.stalled_until(1, at), Some(SimTime::from_us_f64(50.0)));
        assert_eq!(p.stalled_until(2, at), None);
        assert_eq!(p.stalled_until(0, SimTime::from_us_f64(40.0)), None);
    }

    #[test]
    fn crash_lookup_prefers_lowest_rank() {
        let p = FaultPlan::new(1).rank_crash(3, 5).rank_crash(1, 5);
        assert_eq!(p.crash_at_step(5).map(|c| c.rank), Some(1));
        assert_eq!(p.crash_at_step(4), None);
    }

    #[test]
    #[should_panic(expected = "probabilities")]
    fn invalid_rates_rejected() {
        let _ = FaultPlan::new(0).link_window(0.0, 1.0, 1.5, 0.0);
    }
}
