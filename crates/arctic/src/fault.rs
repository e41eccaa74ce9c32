//! Fault injection for exercising the CRC / 1-bit-status path.
//!
//! Arctic's link technology lets software "assume error-free operations";
//! corrupted packets are a catastrophic-failure case detected via CRC and a
//! 1-bit status word (§2.2). This module provides deterministic corruption
//! (and, for harsher scenarios, outright drops) of in-flight packets so
//! tests can verify the detection path end to end.
//!
//! Every injected fault is *observable*: [`FaultInjector::apply`] leaves a
//! flight-recorder crumb and bumps the `arctic.fault` counters in the
//! telemetry registry, so a run manifest shows exactly how many packets
//! were corrupted or dropped — faults never disappear silently into the
//! simulation.

use crate::packet::Packet;
use hyades_des::fault::{FaultPlan, LinkFaultWindow};
use hyades_des::rng::SplitMix64;
use hyades_des::{ActorId, SimTime};
use hyades_telemetry as telemetry;
use hyades_telemetry::flight;
use std::sync::Arc;

/// One injection port's view of a [`FaultPlan`]: corrupts or drops
/// packets at the rates of the plan's link window covering the moment
/// they enter the fabric (outside every window nothing is injected and
/// nothing is drawn), and answers whether the port's NIU is stalled.
pub struct FaultInjector {
    rng: SplitMix64,
    plan: Arc<FaultPlan>,
    endpoint: u16,
    pub injected: u64,
    pub dropped: u64,
}

impl FaultInjector {
    /// The injector of `endpoint`'s port. The port index is mixed into
    /// the plan seed (as stream `endpoint + 1`) so ports draw independent
    /// deterministic sequences.
    pub fn windowed(plan: Arc<FaultPlan>, endpoint: u16) -> Self {
        let stream = u64::from(endpoint) + 1;
        let mut mix = SplitMix64::new(plan.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        FaultInjector {
            rng: SplitMix64::new(mix.next_u64()),
            plan,
            endpoint,
            injected: 0,
            dropped: 0,
        }
    }

    /// If this port's NIU is stalled at `at`, the time the stall ends.
    pub fn stalled_until(&self, at: SimTime) -> Option<SimTime> {
        self.plan.stalled_until(self.endpoint, at)
    }

    /// Flip one random payload bit with probability `rate`.
    fn corrupt_with(&mut self, pkt: &mut Packet, rate: f64) -> bool {
        if rate <= 0.0 || self.rng.next_f64() >= rate {
            return false;
        }
        let word = self.rng.next_below(pkt.payload.len() as u64) as usize;
        let bit = self.rng.next_below(32) as u32;
        pkt.flip_bit(word, bit);
        self.injected += 1;
        true
    }

    /// Apply the fault model to a packet about to enter the fabric: the
    /// drop draw first, then the corruption draw. Returns `false` if the
    /// packet is dropped (the caller must not forward it). Both outcomes
    /// leave a flight-recorder crumb and a registry counter so the faults
    /// are visible in run manifests.
    pub fn apply(&mut self, pkt: &mut Packet, at: SimTime, actor: ActorId) -> bool {
        let Some(&LinkFaultWindow {
            corrupt_rate,
            drop_rate,
            ..
        }) = self.plan.link_window_at(at)
        else {
            return true;
        };
        if drop_rate > 0.0 && self.rng.next_f64() < drop_rate {
            self.dropped += 1;
            flight::record(at, actor, "fault.drop", pkt.usr_tag as u64);
            telemetry::count("arctic.fault", "dropped", 1);
            return false;
        }
        if self.corrupt_with(pkt, corrupt_rate) {
            flight::record(at, actor, "fault.corrupt", pkt.usr_tag as u64);
            telemetry::count("arctic.fault", "corrupted", 1);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Priority;

    /// Endpoint 0's injector under one window over `[0, 100)` µs.
    fn windowed(seed: u64, corrupt_rate: f64, drop_rate: f64) -> FaultInjector {
        let plan = FaultPlan::new(seed).link_window(0.0, 100.0, corrupt_rate, drop_rate);
        FaultInjector::windowed(Arc::new(plan), 0)
    }

    const INSIDE: SimTime = SimTime::ZERO;

    #[test]
    fn zero_rate_window_never_corrupts() {
        let mut f = windowed(1, 0.0, 0.0);
        let mut pkt = Packet::new(0, 1, Priority::Low, 0, vec![1, 2, 3]);
        for _ in 0..100 {
            assert!(f.apply(&mut pkt, INSIDE, ActorId(0)));
        }
        assert!(pkt.verify());
        assert_eq!((f.injected, f.dropped), (0, 0));
    }

    #[test]
    fn unit_rate_window_always_corrupts_and_crc_detects() {
        let mut f = windowed(2, 1.0, 0.0);
        for i in 0..50u32 {
            let mut pkt = Packet::new(0, 1, Priority::Low, 0, vec![i, i + 1, i + 2]);
            assert!(f.apply(&mut pkt, INSIDE, ActorId(0)));
            assert!(!pkt.verify(), "single bit flip must fail the CRC");
        }
        assert_eq!(f.injected, 50);
    }

    #[test]
    fn intermediate_rate_is_roughly_honoured() {
        let mut f = windowed(3, 0.3, 0.0);
        for i in 0..1000u32 {
            let mut pkt = Packet::new(0, 1, Priority::Low, 0, vec![i, 0]);
            f.apply(&mut pkt, INSIDE, ActorId(0));
        }
        assert!(
            (200..400).contains(&f.injected),
            "rate drifted: {}/1000",
            f.injected
        );
    }

    #[test]
    fn nothing_is_injected_or_drawn_outside_the_window() {
        let mut f = windowed(4, 1.0, 1.0);
        let before = f.rng.clone().next_u64();
        let mut pkt = Packet::new(0, 1, Priority::Low, 0, vec![1, 2]);
        assert!(f.apply(&mut pkt, SimTime::from_us_f64(100.0), ActorId(0)));
        assert!(pkt.verify());
        assert_eq!((f.injected, f.dropped), (0, 0));
        assert_eq!(f.rng.next_u64(), before, "a clean packet must not draw");
    }

    #[test]
    fn apply_drops_at_unit_drop_rate_and_is_observable() {
        flight::install();
        let mut f = windowed(7, 0.0, 1.0);
        let mut pkt = Packet::new(0, 1, Priority::Low, 42, vec![1, 2]);
        assert!(!f.apply(&mut pkt, INSIDE, ActorId(3)));
        assert_eq!(f.dropped, 1);
        let tr = flight::take().unwrap();
        let labels: Vec<&str> = tr.iter().map(|r| r.label).collect();
        assert_eq!(labels, ["fault.drop"]);
    }

    #[test]
    fn apply_corrupts_and_leaves_crumb() {
        flight::install();
        let mut f = windowed(8, 1.0, 0.0);
        let mut pkt = Packet::new(0, 1, Priority::Low, 9, vec![1, 2]);
        assert!(f.apply(&mut pkt, INSIDE, ActorId(0)));
        assert!(!pkt.verify());
        assert_eq!(f.injected, 1);
        let tr = flight::take().unwrap();
        assert_eq!(tr.iter().next().unwrap().label, "fault.corrupt");
    }

    #[test]
    fn port_streams_are_independent_but_deterministic() {
        let plan = Arc::new(FaultPlan::new(11).link_window(0.0, 100.0, 0.5, 0.1));
        let mut a0 = FaultInjector::windowed(Arc::clone(&plan), 0);
        let mut b0 = FaultInjector::windowed(Arc::clone(&plan), 0);
        let mut a1 = FaultInjector::windowed(plan, 1);
        let draw0 = a0.rng.next_u64();
        assert_eq!(draw0, b0.rng.next_u64(), "same port, same draws");
        assert_ne!(draw0, a1.rng.next_u64(), "different ports diverge");
    }
}
