//! The optimized exchange primitive (§4.1).
//!
//! An exchange brings halo regions into a consistent state. On Hyades it is
//! implemented as *two separate VI-mode transfers in opposite directions*,
//! carried out sequentially because a single transfer alone saturates the
//! PCI bus. Each transfer pays a one-time ~8.6 µs negotiation; data then
//! streams at 110 MByte/s with staging copies overlapped with DMA.
//!
//! A full exchange pairs each node with its grid neighbors in a fixed
//! schedule (an edge coloring of the tile graph): in each round every node
//! belongs to exactly one pair, the designated member sends first, then the
//! roles reverse. A 4-neighbor tile therefore performs 8 sequential
//! transfer legs per field.
//!
//! This module decides *which* legs run: it builds the exchange's
//! [`CommGraph`], which the nodes run and `schedule::verify` proves. Each
//! leg is the one simulated VI transfer,
//! [`hyades_startx::vi::ExchangeNode`]'s REQ → ACK → DATA → DONE envelope
//! with its go-back-N recovery — the same leg Figure 7 times.

use hyades_des::fault::FaultPlan;
use hyades_des::{SimDuration, SimTime};
use hyades_startx::node::{run_nodes, CommGraph};
use hyades_startx::recovery::RecoveryCounters;
use hyades_startx::vi::{
    exchange_round, ExchangeNode, LegMsg, StartExchange, ViConfig, EXCHANGE_LEG,
    EXCHANGE_RECOVERY_LEG,
};
use hyades_startx::HostParams;
use std::rc::Rc;

/// The edge-colored exchange of a periodic `px × py` tile grid with every
/// transfer running `leg`. Rounds: x-pairs at even x, x-pairs at odd x,
/// then the same in y (skipped when the dimension is 1); in each round
/// every node is in one pair, whose two legs run in opposite directions.
fn torus(px: u16, py: u16, leg: &[LegMsg]) -> CommGraph {
    for (extent, name) in [(px, "px"), (py, "py")] {
        let pairable = extent == 1 || (extent >= 2 && extent.is_multiple_of(2));
        assert!(pairable, "{name} must be even (or 1) for pairing");
    }
    let mut g = CommGraph::new(px * py);
    let mut round = 0;
    // Pair along x, then along y: (tiles along the pairing axis, lanes
    // across it, the rank stride of each).
    for (len, lanes, step, lane_step) in [(px, py, 1, px), (py, px, px, 1)] {
        if len < 2 {
            continue;
        }
        let rank = |at: u16, lane: u16| at * step + lane * lane_step;
        // With two tiles along the axis both colors map to the same single
        // pair; the second round stays so both directions of halo move
        // (east and west edges are distinct data).
        for parity in 0..2u16 {
            for lane in 0..lanes {
                for at in (parity..len).step_by(2) {
                    let (a, b) = (rank(at, lane), rank((at + 1) % len, lane));
                    exchange_round(&mut g, a, b, round, leg);
                }
            }
            round += 1;
        }
    }
    g
}

/// The §4.1 exchange for a periodic `px × py` tile grid, the graph
/// [`measure_exchange`] runs (the DATA stream is one enveloped message).
pub fn exchange_graph(px: u16, py: u16) -> CommGraph {
    torus(px, py, &EXCHANGE_LEG)
}

/// The exchange with every recovery leg exercised once per transfer.
/// Verifying this graph proves the extended protocol keeps per-channel
/// tag uniqueness and stays deadlock-free even when *every* retransmit
/// path fires.
pub fn exchange_recovery_graph(px: u16, py: u16) -> CommGraph {
    torus(px, py, &EXCHANGE_RECOVERY_LEG)
}

/// Measurement: run one exchange over a `px × py` periodic tile grid with
/// `leg_bytes` per transfer leg; returns the time until the last node
/// finishes its schedule.
pub fn measure_exchange(host: HostParams, px: u16, py: u16, leg_bytes: u64) -> SimDuration {
    measure_exchange_inner(host, px, py, leg_bytes, None).0
}

/// Measurement under a [`FaultPlan`]: same exchange, but with the plan's
/// link-fault windows and NIU stalls installed on every port. Returns the
/// completion time (recovery is charged to simulated time) and the summed
/// per-node recovery counters.
pub fn measure_exchange_faulty(
    host: HostParams,
    px: u16,
    py: u16,
    leg_bytes: u64,
    plan: &FaultPlan,
) -> (SimDuration, RecoveryCounters) {
    measure_exchange_inner(host, px, py, leg_bytes, Some(plan))
}

fn measure_exchange_inner(
    host: HostParams,
    px: u16,
    py: u16,
    leg_bytes: u64,
    plan: Option<&FaultPlan>,
) -> (SimDuration, RecoveryCounters) {
    let graph = Rc::new(exchange_graph(px, py));
    let mut last = SimTime::ZERO;
    let mut recovery = RecoveryCounters::default();
    run_nodes(
        host,
        px * py,
        plan,
        |ep| ExchangeNode::new(ep, Rc::clone(&graph), leg_bytes, ViConfig::default()),
        |_| StartExchange,
        |e, node: &ExchangeNode| {
            let f = node.finished;
            last = last.max(f.unwrap_or_else(|| panic!("node {e} never finished its exchange")));
            recovery.merge(&node.recovery);
        },
    );
    (last.since(SimTime::ZERO), recovery)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_by_two_has_eight_legs() {
        // The 8-endpoint isomorph grid: 4 rounds × 2 legs each = 8
        // sequential transfers per node (4 neighbors).
        let g = exchange_graph(4, 2);
        assert!(g.program.iter().all(|p| p.len() == 8 * EXCHANGE_LEG.len()));
    }

    #[test]
    fn ds_exchange_latency_matches_paper_order() {
        // DS shape: 32×32 tile, halo 1, one level, 8 B elements → 256 B per
        // leg, 8 legs. Paper (Figure 11): texch_xy = 115 µs.
        let t = measure_exchange(HostParams::default(), 4, 2, 256);
        let us = t.as_us_f64();
        assert!(
            (80.0..190.0).contains(&us),
            "DS exchange {us} µs vs paper 115 µs"
        );
    }

    #[test]
    fn ps_exchange_latency_scales_with_block() {
        // PS atmosphere shape: halo 3 × 5 levels → 3840 B per leg.
        let ps = measure_exchange(HostParams::default(), 4, 2, 3840);
        let ds = measure_exchange(HostParams::default(), 4, 2, 256);
        assert!(ps > ds * 2, "PS exchange should dominate DS: {ps} vs {ds}");
        // Streaming bound: 8 legs × 3840 B at 110 MB/s ≈ 279 µs of pure
        // data time; with per-leg overheads expect 380–700 µs.
        let us = ps.as_us_f64();
        assert!((330.0..800.0).contains(&us), "PS exchange {us} µs");
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let clean = measure_exchange(HostParams::default(), 4, 2, 1024);
        let (t, r) =
            measure_exchange_faulty(HostParams::default(), 4, 2, 1024, &FaultPlan::new(0xEC));
        assert_eq!(t, clean);
        assert_eq!(r, RecoveryCounters::default());
    }

    #[test]
    fn faulty_exchange_recovers_and_is_deterministic() {
        // Aggressive corrupt+drop window over the opening legs plus an NIU
        // stall: the protocol must still complete every schedule, and do it
        // identically on a re-run.
        let plan = FaultPlan::new(0xEC)
            .link_window(0.0, 120.0, 0.3, 0.15)
            .niu_stall(1, 10.0, 60.0);
        let (t, r) = measure_exchange_faulty(HostParams::default(), 4, 2, 1024, &plan);
        let clean = measure_exchange(HostParams::default(), 4, 2, 1024);
        assert!(
            r.corrupt_discarded > 0,
            "corruption window never hit a packet: {r:?}"
        );
        assert!(
            r.total_retransmits() > 0,
            "recovery never retransmitted: {r:?}"
        );
        assert!(t > clean, "recovery must cost simulated time");
        let (t2, r2) = measure_exchange_faulty(HostParams::default(), 4, 2, 1024, &plan);
        assert_eq!(t, t2, "faulty run must be deterministic");
        assert_eq!(r, r2, "recovery counters must be deterministic");
    }

    #[test]
    fn drop_only_window_recovers_via_timeouts() {
        // No corruption (no NAK fast path): dropped packets are recovered
        // purely by the timeout ladder (REQ2 / PROBE / RETRY).
        let plan = FaultPlan::new(0x0D).link_window(0.0, 80.0, 0.0, 0.4);
        let (t, r) = measure_exchange_faulty(HostParams::default(), 2, 2, 512, &plan);
        assert!(t.as_us_f64() > 0.0);
        if r.timeouts == 0 {
            // The seed could in principle drop nothing; make sure that's
            // actually why.
            assert_eq!(r.total_retransmits(), 0);
        } else {
            assert!(
                r.req_resends + r.probes > 0,
                "timeouts without resends: {r:?}"
            );
        }
    }

    /// `[crc_computations, packets injected, dropped, corrupted, stage
    /// crossings]` counted while `run` runs under a telemetry recorder.
    fn crc_counts(run: impl FnOnce()) -> [u64; 5] {
        hyades_telemetry::enable(0);
        run();
        let reg = hyades_telemetry::disable().unwrap().registry;
        [
            ("arctic.packet", "crc_computations"),
            ("arctic.txport", "packets_injected"),
            ("arctic.fault", "dropped"),
            ("arctic.fault", "corrupted"),
            ("arctic.router", "stage_crossings"),
        ]
        .map(|(component, metric)| reg.counter(component, metric))
    }

    /// A packet's CRC is computed when it is built and again only after
    /// an injected bit flip: a per-stage recompute would multiply the
    /// count by the stages a packet crosses.
    #[test]
    fn crc_is_computed_once_per_packet_and_once_per_flip() {
        let clean = crc_counts(|| {
            measure_exchange(HostParams::default(), 4, 4, 4096);
        });
        // 3 200 packets, each across 4 stages.
        assert_eq!(clean, [3200, 3200, 0, 0, 12800]);

        let plan = FaultPlan::new(0xEC)
            .link_window(0.0, 120.0, 0.3, 0.15)
            .niu_stall(1, 10.0, 60.0);
        let faulty = crc_counts(|| {
            measure_exchange_faulty(HostParams::default(), 4, 2, 1024, &plan);
        });
        // Every packet built (injected or dropped), plus every flip.
        let [crcs, injected, dropped, flipped, _] = faulty;
        assert_eq!(crcs, injected + dropped + flipped);
        assert_eq!(faulty, [550, 525, 7, 18, 1725]);
    }

    #[test]
    fn exchange_time_grows_linearly_in_bytes_past_overhead() {
        let t1 = measure_exchange(HostParams::default(), 4, 2, 4096).as_us_f64();
        let t2 = measure_exchange(HostParams::default(), 4, 2, 8192).as_us_f64();
        let t3 = measure_exchange(HostParams::default(), 4, 2, 16384).as_us_f64();
        let d1 = t2 - t1;
        let d2 = t3 - t2;
        assert!(
            (d2 / (2.0 * d1) - 1.0).abs() < 0.25,
            "non-linear growth: {t1} {t2} {t3}"
        );
    }
}
