//! Synthetic traffic workloads: characterizing the fabric under load.
//!
//! The paper's claims about Arctic — full bisection bandwidth, multiple
//! simultaneous transfers with undiminished pair-wise bandwidth, path
//! diversity through the random up-route — are exercised here with the
//! standard network-evaluation patterns: nearest-neighbour, permutations
//! (transpose, bit-reverse), uniform random, and hotspot traffic, at a
//! configurable offered load.

use crate::network::{ArcticConfig, ArcticNetwork, Delivered, Inject};
use crate::observatory::{FabricReport, Observatory, ObservatoryConfig};
use crate::packet::{u64_from_words, words_from_u64, Packet, Priority, UpRoute};
use hyades_des::event::Payload;
use hyades_des::rng::SplitMix64;
use hyades_des::stats::OnlineStats;
use hyades_des::{Actor, ActorId, Ctx, SimDuration, SimTime, Simulator};

/// Traffic pattern: who sends to whom.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// Every node sends to a ring neighbour (the GCM-like case).
    NearestNeighbor,
    /// Node `i` sends to `bit_reverse(i)` — a fixed permutation.
    BitReverse,
    /// Node `i` of `n` sends to `(i + n/2) mod n` — maximal-distance
    /// permutation crossing the bisection.
    Transpose,
    /// Every node picks a uniformly random destination per packet.
    UniformRandom,
    /// Every node hammers endpoint 0.
    Hotspot,
}

impl Pattern {
    fn dst(&self, src: u16, n: u16, rng: &mut SplitMix64) -> u16 {
        match self {
            Pattern::NearestNeighbor => (src + 1) % n,
            Pattern::BitReverse => {
                let bits = n.trailing_zeros();
                let mut d = 0u16;
                for b in 0..bits {
                    if src & (1 << b) != 0 {
                        d |= 1 << (bits - 1 - b);
                    }
                }
                d
            }
            Pattern::Transpose => (src + n / 2) % n,
            Pattern::UniformRandom => {
                let mut d = rng.next_below(n as u64) as u16;
                if d == src {
                    d = (d + 1) % n;
                }
                d
            }
            Pattern::Hotspot => {
                if src == 0 {
                    1
                } else {
                    0
                }
            }
        }
    }
}

/// Measured behaviour under one workload.
#[derive(Clone, Debug)]
pub struct TrafficResult {
    pub pattern: Pattern,
    pub offered_fraction: f64,
    /// Aggregate delivered payload bandwidth (MByte/s) during the
    /// measurement window.
    pub delivered_mbyte_per_sec: f64,
    /// Per-packet network latency statistics (µs), measurement window
    /// only.
    pub latency: OnlineStats,
    pub packets_delivered: u64,
    /// Whole-run totals (warmup and drain included): events the simulator
    /// dispatched and router stages crossed. Exact for a given seed, so
    /// golden tests pin them across commits.
    pub events_dispatched: u64,
    pub stage_crossings: u64,
}

/// Source actor injecting fixed-size packets at the offered rate.
struct Source {
    me: u16,
    n: u16,
    tx_port: ActorId,
    pattern: Pattern,
    rng: SplitMix64,
    gap: SimDuration,
    stop_at: SimTime,
}

struct Fire;

impl Actor for Source {
    fn on_event(&mut self, ev: Payload, ctx: &mut Ctx<'_>) {
        let Ok(_) = ev.downcast::<Fire>() else {
            panic!("source expects Fire events");
        };
        if ctx.now() >= self.stop_at {
            return;
        }
        let dst = self.pattern.dst(self.me, self.n, &mut self.rng);
        // Stamp the injection time into the payload for latency
        // accounting; pad to the full 88-byte payload.
        let mut payload = words_from_u64(ctx.now().as_ps());
        payload.resize(22, 0);
        let pkt = Packet::new(self.me, dst, Priority::Low, 1, payload);
        ctx.send_now(self.tx_port, Inject(pkt));
        // Deterministic jitter (±25%) around the nominal gap keeps
        // sources from phase-locking.
        let jitter = (self.rng.next_f64() - 0.5) * 0.5;
        let next = SimDuration::from_us_f64(self.gap.as_us_f64() * (1.0 + jitter));
        ctx.wake_after(next, Fire);
    }
}

/// Sink recording delivery latency during the measurement window.
struct Sink {
    warmup_until: SimTime,
    window_end: SimTime,
    latency: OnlineStats,
    payload_bytes: u64,
    packets: u64,
}

impl Actor for Sink {
    fn on_event(&mut self, ev: Payload, ctx: &mut Ctx<'_>) {
        let Ok(d) = ev.downcast::<Delivered>() else {
            panic!("sink expects Delivered events");
        };
        assert!(!d.pkt.corrupted);
        if ctx.now() < self.warmup_until || ctx.now() >= self.window_end {
            // Outside the measurement window (including the backlog that
            // drains after injection stops).
            return;
        }
        let injected = SimTime::from_ps(u64_from_words(&d.pkt.payload));
        self.latency.push(ctx.now().since(injected).as_us_f64());
        self.payload_bytes += d.pkt.payload_bytes();
        self.packets += 1;
    }
}

/// Run `pattern` at `offered_fraction` of the per-endpoint link payload
/// capacity for `measure_us` (after an equal warmup), on `n` endpoints.
pub fn run_traffic(
    n: u16,
    pattern: Pattern,
    uproute: UpRoute,
    offered_fraction: f64,
    measure_us: f64,
    seed: u64,
) -> TrafficResult {
    run_traffic_impl(
        n,
        pattern,
        uproute,
        offered_fraction,
        measure_us,
        seed,
        None,
    )
    .0
}

/// [`run_traffic`] with the fabric observatory attached: samples every
/// link at `obs.interval` and returns the [`FabricReport`] alongside the
/// traffic result. Deterministic for a given seed.
pub fn run_traffic_observed(
    n: u16,
    pattern: Pattern,
    uproute: UpRoute,
    offered_fraction: f64,
    measure_us: f64,
    seed: u64,
    obs: ObservatoryConfig,
) -> (TrafficResult, FabricReport) {
    let (result, report) = run_traffic_impl(
        n,
        pattern,
        uproute,
        offered_fraction,
        measure_us,
        seed,
        Some(obs),
    );
    match report {
        Some(r) => (result, r),
        None => unreachable!("observatory config was provided"),
    }
}

fn run_traffic_impl(
    n: u16,
    pattern: Pattern,
    uproute: UpRoute,
    offered_fraction: f64,
    measure_us: f64,
    seed: u64,
    obs: Option<ObservatoryConfig>,
) -> (TrafficResult, Option<FabricReport>) {
    assert!((0.0..=1.0).contains(&offered_fraction));
    let mut sim = Simulator::new();
    let warmup = SimTime::from_us_f64(measure_us);
    let stop = SimTime::from_us_f64(2.0 * measure_us);
    let sinks: Vec<ActorId> = (0..n)
        .map(|_| {
            sim.add_actor(Sink {
                warmup_until: warmup,
                window_end: stop,
                latency: OnlineStats::new(),
                payload_bytes: 0,
                packets: 0,
            })
        })
        .collect();
    let cfg = ArcticConfig {
        uproute,
        ..ArcticConfig::default()
    };
    let net = ArcticNetwork::build(&mut sim, &sinks, cfg);
    let observatory = obs.map(|o| Observatory::attach(&mut sim, &net, o));
    // Per-endpoint payload capacity: 88-byte payload in a 96-byte packet
    // on a 150 MB/s link → 137.5 MB/s of payload; the offered gap follows.
    let payload_rate = 150.0 * 88.0 / 96.0 * offered_fraction;
    let gap = SimDuration::from_us_f64(88.0 / payload_rate);
    let mut seeder = SplitMix64::new(seed);
    for e in 0..n {
        let src = sim.add_actor(Source {
            me: e,
            n,
            tx_port: net.tx_port(e),
            pattern,
            rng: SplitMix64::new(seeder.next_u64()),
            gap,
            stop_at: stop,
        });
        // Stagger the starts within one gap.
        let offset = SimDuration::from_ps(seeder.next_below(gap.as_ps().max(1)));
        sim.schedule(SimTime::ZERO + offset, src, Fire);
    }
    sim.run();

    let mut latency = OnlineStats::new();
    let mut bytes = 0u64;
    let mut packets = 0u64;
    for &id in &sinks {
        let s = sim.actor::<Sink>(id);
        bytes += s.payload_bytes;
        packets += s.packets;
        latency.merge(&s.latency);
    }
    let measure_s = measure_us * 1e-6;
    let result = TrafficResult {
        pattern,
        offered_fraction,
        delivered_mbyte_per_sec: bytes as f64 / measure_s / 1e6,
        latency,
        packets_delivered: packets,
        events_dispatched: sim.events_dispatched(),
        stage_crossings: net.total_stage_crossings(&sim),
    };
    let report = observatory.map(|o| o.collect(&sim, &net));
    (result, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MEASURE_US: f64 = 400.0;

    #[test]
    fn nearest_neighbor_delivers_offered_load() {
        let r = run_traffic(
            16,
            Pattern::NearestNeighbor,
            UpRoute::SourceSpread,
            0.7,
            MEASURE_US,
            1,
        );
        // 16 endpoints × 0.7 × 137.5 MB/s ≈ 1540 MB/s aggregate.
        let offered = 16.0 * 0.7 * 137.5;
        assert!(
            r.delivered_mbyte_per_sec > 0.9 * offered,
            "delivered {} of offered {offered}",
            r.delivered_mbyte_per_sec
        );
        // Uncongested latency: a couple of µs.
        assert!(r.latency.mean() < 5.0, "mean latency {}", r.latency.mean());
    }

    #[test]
    fn transpose_permutation_is_nonblocking_with_source_spread() {
        let r = run_traffic(
            16,
            Pattern::Transpose,
            UpRoute::SourceSpread,
            0.8,
            MEASURE_US,
            2,
        );
        let offered = 16.0 * 0.8 * 137.5;
        assert!(
            r.delivered_mbyte_per_sec > 0.9 * offered,
            "delivered {} of offered {offered}",
            r.delivered_mbyte_per_sec
        );
    }

    #[test]
    fn bit_reverse_is_the_deterministic_routing_adversary() {
        // The textbook butterfly worst case: with a fixed up-path per
        // source, bit-reverse traffic funnels through shared links and
        // congests badly…
        let det = run_traffic(
            16,
            Pattern::BitReverse,
            UpRoute::SourceSpread,
            0.8,
            MEASURE_US,
            3,
        );
        let offered = 16.0 * 0.8 * 137.5;
        assert!(
            det.delivered_mbyte_per_sec < 0.75 * offered,
            "expected congestion, delivered {} of {offered}",
            det.delivered_mbyte_per_sec
        );
        assert!(det.latency.mean() > 20.0, "{}", det.latency.mean());
        // …and this is exactly why Arctic's header has the random-uproute
        // feature: randomized path diversity restores full throughput.
        let rnd = run_traffic(16, Pattern::BitReverse, UpRoute::Random, 0.8, MEASURE_US, 3);
        assert!(
            rnd.delivered_mbyte_per_sec > 0.9 * offered,
            "random uproute delivered {}",
            rnd.delivered_mbyte_per_sec
        );
        assert!(rnd.latency.mean() < 10.0, "{}", rnd.latency.mean());
    }

    #[test]
    fn random_routing_keeps_transpose_throughput() {
        let det = run_traffic(
            16,
            Pattern::Transpose,
            UpRoute::SourceSpread,
            0.8,
            MEASURE_US,
            4,
        );
        let rnd = run_traffic(16, Pattern::Transpose, UpRoute::Random, 0.8, MEASURE_US, 4);
        // Transpose is friendly to both: random routing carries the large
        // majority of the deterministic throughput.
        assert!(rnd.delivered_mbyte_per_sec > 0.7 * det.delivered_mbyte_per_sec);
    }

    #[test]
    fn hotspot_saturates_the_victim_link() {
        let r = run_traffic(
            16,
            Pattern::Hotspot,
            UpRoute::SourceSpread,
            0.8,
            MEASURE_US,
            5,
        );
        // 15 sources × 0.8 × 137.5 ≈ 1650 MB/s offered at node 0, but one
        // down-link delivers at most ~137.5 MB/s of payload (plus node 0's
        // own stream to node 1).
        assert!(
            r.delivered_mbyte_per_sec < 320.0,
            "hotspot delivered {}",
            r.delivered_mbyte_per_sec
        );
        // Queueing shows up as latency.
        assert!(r.latency.max() > 20.0, "max latency {}", r.latency.max());
    }

    #[test]
    fn uniform_random_stays_stable_at_half_load() {
        let r = run_traffic(
            16,
            Pattern::UniformRandom,
            UpRoute::SourceSpread,
            0.5,
            MEASURE_US,
            6,
        );
        let offered = 16.0 * 0.5 * 137.5;
        assert!(r.delivered_mbyte_per_sec > 0.85 * offered);
        assert!(r.latency.mean() < 10.0);
    }

    #[test]
    fn observed_bit_reverse_congestion_names_hotspots() {
        // The deterministic-routing adversary again, this time with the
        // observatory watching: the funnel links must be flagged.
        let (r, rep) = run_traffic_observed(
            16,
            Pattern::BitReverse,
            UpRoute::SourceSpread,
            0.8,
            MEASURE_US,
            3,
            ObservatoryConfig::new(5.0, 2.0 * MEASURE_US),
        );
        assert!(r.packets_delivered > 0);
        assert!(rep.ticks >= (2.0 * MEASURE_US / 5.0) as u64 - 1);
        assert!(
            !rep.hotspots.is_empty(),
            "congested bit-reverse must flag at least one hotspot"
        );
        assert!(rep.hotspots[0].flows.iter().any(|f| f.packets > 0));
        // A sampled, congested link shows nonzero utilization and stalls.
        let worst = &rep.hotspots[0];
        assert!(worst.util_mean > 0.5, "worst link util {}", worst.util_mean);
        assert!(worst.stall_us > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_traffic(8, Pattern::UniformRandom, UpRoute::Random, 0.6, 200.0, 7);
        let b = run_traffic(8, Pattern::UniformRandom, UpRoute::Random, 0.6, 200.0, 7);
        assert_eq!(a.packets_delivered, b.packets_delivered);
        assert_eq!(a.delivered_mbyte_per_sec, b.delivered_mbyte_per_sec);
    }
}
