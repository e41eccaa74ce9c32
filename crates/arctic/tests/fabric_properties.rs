//! Property-based tests of the simulated fabric's delivery guarantees:
//! every injected packet is delivered exactly once, uncorrupted, and
//! packets between the same pair keep their injection order under the
//! deterministic routing mode (Arctic's per-path FIFO guarantee, §2.2).

use hyades_arctic::network::{ArcticConfig, ArcticNetwork, SinkEndpoint};
use hyades_arctic::packet::{Packet, Priority, UpRoute};
use hyades_des::{ActorId, SimTime, Simulator};
use hyades_telemetry::flight;
use proptest::prelude::*;

/// Dumps the flight recorder when a property fails: the router/NIU event
/// paths append to the thread-local `des::Trace` installed by
/// [`run_fabric`], and this guard prints the buffered event history while
/// the failing assertion unwinds — the "black box" for the wreck.
struct FlightDumpOnFailure;

impl Drop for FlightDumpOnFailure {
    fn drop(&mut self) {
        if std::thread::panicking() {
            if let Some(tr) = flight::take() {
                eprintln!(
                    "--- arctic flight recorder: last {} events ({} dropped) ---\n{}",
                    tr.len(),
                    tr.dropped(),
                    tr.dump()
                );
            }
        }
    }
}

#[derive(Debug, Clone)]
struct Injection {
    src: u16,
    dst: u16,
    at_us: u32,
    payload_words: usize,
    high: bool,
}

fn injection_strategy(n: u16) -> impl Strategy<Value = Injection> {
    (0..n, 0..n, 0u32..500, 2usize..=22, any::<bool>()).prop_map(
        |(src, dst, at_us, payload_words, high)| Injection {
            src,
            dst,
            at_us,
            payload_words,
            high,
        },
    )
}

fn run_fabric(n: u16, uproute: UpRoute, injections: &[Injection]) -> Vec<Vec<(u64, Packet)>> {
    // Arm the flight recorder: router enqueue/tx and NIU injection events
    // are recorded as they happen, bounded to the most recent 4096.
    flight::install();
    let mut sim = Simulator::new();
    let sinks: Vec<ActorId> = (0..n)
        .map(|_| sim.add_actor(SinkEndpoint::default()))
        .collect();
    let cfg = ArcticConfig {
        uproute,
        ..ArcticConfig::default()
    };
    let net = ArcticNetwork::build(&mut sim, &sinks, cfg);
    for (seq, inj) in injections.iter().enumerate() {
        let mut payload = vec![0u32; inj.payload_words];
        payload[0] = seq as u32;
        let pkt = Packet::new(
            inj.src,
            inj.dst,
            if inj.high {
                Priority::High
            } else {
                Priority::Low
            },
            (seq % 0x7FF) as u16,
            payload,
        );
        net.inject_at(&mut sim, SimTime::from_us_f64(inj.at_us as f64), pkt);
    }
    sim.run();
    sinks
        .iter()
        .map(|&id| {
            sim.actor::<SinkEndpoint>(id)
                .deliveries
                .iter()
                .map(|(t, p)| (t.as_ps(), p.clone()))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_packet_delivered_exactly_once_uncorrupted(
        injections in prop::collection::vec(injection_strategy(8), 1..120),
        random_route in any::<bool>(),
    ) {
        let uproute = if random_route { UpRoute::Random } else { UpRoute::SourceSpread };
        let _flight_dump = FlightDumpOnFailure;
        let delivered = run_fabric(8, uproute, &injections);
        let mut seen = vec![0u32; injections.len()];
        for (dst, sink) in delivered.iter().enumerate() {
            for (_, pkt) in sink {
                prop_assert!(!pkt.corrupted);
                prop_assert_eq!(pkt.dst as usize, dst, "misrouted packet");
                let seq = pkt.payload[0] as usize;
                prop_assert!(seq < injections.len());
                prop_assert_eq!(injections[seq].dst as usize, dst);
                prop_assert_eq!(injections[seq].src, pkt.src);
                seen[seq] += 1;
            }
        }
        for (seq, &count) in seen.iter().enumerate() {
            prop_assert_eq!(count, 1, "packet {} delivered {} times", seq, count);
        }
    }

    #[test]
    fn same_pair_same_priority_is_fifo_under_deterministic_routing(
        injections in prop::collection::vec(injection_strategy(8), 1..120),
    ) {
        // Make the ordering well-defined: sort by injection time; packets
        // of a pair injected at the same microsecond keep vector order
        // (the queue breaks time ties by insertion sequence).
        let mut inj = injections.clone();
        inj.sort_by_key(|i| i.at_us);
        let _flight_dump = FlightDumpOnFailure;
        let delivered = run_fabric(8, UpRoute::SourceSpread, &inj);
        // For each (src, dst, priority) class, delivery order must match
        // injection order.
        for sink in &delivered {
            let mut last_seen: std::collections::HashMap<(u16, bool), usize> =
                std::collections::HashMap::new();
            for (_, pkt) in sink {
                let seq = pkt.payload[0] as usize;
                let key = (pkt.src, pkt.priority == Priority::High);
                if let Some(&prev) = last_seen.get(&key) {
                    // Same pair & class: injection times must be
                    // non-decreasing along the delivery order.
                    prop_assert!(
                        inj[prev].at_us <= inj[seq].at_us
                            || (inj[prev].at_us == inj[seq].at_us),
                        "FIFO violated: {} then {}", prev, seq
                    );
                    if inj[prev].at_us == inj[seq].at_us {
                        prop_assert!(prev < seq, "tie order violated: {} then {}", prev, seq);
                    }
                }
                last_seen.insert(key, seq);
            }
        }
    }
}

/// The flight recorder actually sees the router/NIU event paths: a short
/// deterministic run leaves injection, enqueue, and transmit records in
/// the buffer (guards against the instrumentation silently rotting).
#[test]
fn flight_recorder_captures_router_and_niu_events() {
    let injections = [
        Injection {
            src: 0,
            dst: 7,
            at_us: 0,
            payload_words: 4,
            high: true,
        },
        Injection {
            src: 3,
            dst: 1,
            at_us: 2,
            payload_words: 8,
            high: false,
        },
    ];
    let _ = run_fabric(8, UpRoute::SourceSpread, &injections);
    let tr = flight::take().expect("run_fabric installs the recorder");
    assert!(!tr.is_empty());
    for label in ["txport.inject", "router.enqueue", "router.tx"] {
        assert!(
            tr.iter().any(|r| r.label == label),
            "no '{label}' record in:\n{}",
            tr.dump()
        );
    }
    // Packet 0's injection is the first record of its path.
    assert_eq!(tr.last_matching("txport.inject", 2).len(), 2);
}
