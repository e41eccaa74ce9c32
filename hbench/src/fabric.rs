//! `fabric_saturated`: the `des` + `arctic` hot path in three long
//! simulations per repetition, each run to full drain. The traffic
//! sources and sinks are the harness's own actors (the recipe of
//! `arctic::workload::Source`: 22-word payload, low priority, ±25 %
//! jitter), so every packet can carry a sequence number and be checked
//! on delivery.

use crate::harness::{time_calls, Digest, Outcome, Workload};
use crate::metrics::{per_second, LayerMetrics};
use crate::trace::Tracer;
use hyades_arctic::network::{ArcticConfig, ArcticNetwork, Delivered, Inject, SinkEndpoint};
use hyades_arctic::observatory::ObservatoryConfig;
use hyades_arctic::packet::{u64_from_words, words_from_u64, Packet, Priority, UpRoute};
use hyades_arctic::workload::{run_traffic, run_traffic_observed, Pattern};
use hyades_des::event::Payload;
use hyades_des::rng::SplitMix64;
use hyades_des::stats::OnlineStats;
use hyades_des::{Actor, ActorId, Ctx, SimDuration, SimTime, Simulator};
use std::time::Instant;

const ENDPOINTS: u16 = 16;
const SPAN_BUILD: &str = "arctic.build";
const SPAN_RUN: &str = "des.run";

/// Who sends to whom.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dest {
    BitReverse,
    UniformRandom,
    NearestNeighbor,
}

/// One traffic mix: destination rule, offered share of the per-endpoint
/// payload capacity, and how long the sources inject (simulated µs).
struct Mix {
    span: &'static str,
    dest: Dest,
    load: f64,
    inject_us: f64,
}

/// Congested with deep queues; moderate random load; near-saturated but
/// contention-free neighbour traffic.
const MIXES: [Mix; 3] = [
    Mix {
        span: "arctic.bitrev",
        dest: Dest::BitReverse,
        load: 0.8,
        inject_us: 4_000.0,
    },
    Mix {
        span: "arctic.uniform",
        dest: Dest::UniformRandom,
        load: 0.5,
        inject_us: 8_000.0,
    },
    Mix {
        span: "arctic.nn",
        dest: Dest::NearestNeighbor,
        load: 0.9,
        inject_us: 8_000.0,
    },
];

struct Fire;

/// Payload word 3: a function of (source, destination, sequence number)
/// the sink recomputes, so a payload mix-up shows even with a good CRC.
fn stamp(src: u16, dst: u16, seq: u32) -> u32 {
    (u32::from(src) << 24 | u32::from(dst) << 16) ^ seq.wrapping_mul(0x9E37_79B9)
}

struct Source {
    me: u16,
    tx_port: ActorId,
    dest: Dest,
    rng: SplitMix64,
    gap: SimDuration,
    stop_at: SimTime,
    /// Next sequence number per destination.
    next_seq: Vec<u32>,
    injected: u64,
}

impl Source {
    fn pick(&mut self) -> u16 {
        let (src, n) = (self.me, ENDPOINTS);
        match self.dest {
            Dest::NearestNeighbor => (src + 1) % n,
            Dest::BitReverse => src.reverse_bits() >> (16 - n.trailing_zeros()),
            Dest::UniformRandom => {
                let d = self.rng.next_below(u64::from(n)) as u16;
                if d == src {
                    (d + 1) % n
                } else {
                    d
                }
            }
        }
    }
}

impl Actor for Source {
    fn on_event(&mut self, ev: Payload, ctx: &mut Ctx<'_>) {
        assert!(ev.is::<Fire>(), "source expects Fire events");
        if ctx.now() >= self.stop_at {
            return;
        }
        let dst = self.pick();
        let seq = self.next_seq[usize::from(dst)];
        self.next_seq[usize::from(dst)] += 1;
        let mut payload = words_from_u64(ctx.now().as_ps());
        payload.push(seq);
        payload.push(stamp(self.me, dst, seq));
        payload.resize(22, 0);
        let pkt = Packet::new(self.me, dst, Priority::Low, 1, payload);
        ctx.send_now(self.tx_port, Inject(pkt));
        self.injected += 1;
        let jitter = (self.rng.next_f64() - 0.5) * 0.5;
        let next = SimDuration::from_us_f64(self.gap.as_us_f64() * (1.0 + jitter));
        ctx.wake_after(next, Fire);
    }
}

struct Sink {
    me: u16,
    /// Next sequence number expected from each source.
    expect: Vec<u32>,
    delivered: u64,
    bad: u64,
    payload_bytes: u64,
    latency: OnlineStats,
}

impl Actor for Sink {
    fn on_event(&mut self, ev: Payload, ctx: &mut Ctx<'_>) {
        let Ok(d) = ev.downcast::<Delivered>() else {
            panic!("sink expects Delivered events");
        };
        let pkt = &d.pkt;
        let src = usize::from(pkt.src);
        let seq = pkt.payload[2];
        let ok = !pkt.corrupted
            && pkt.dst == self.me
            && pkt.payload[3] == stamp(pkt.src, pkt.dst, seq)
            && pkt.crc == pkt.compute_crc()
            && self.expect.get(src) == Some(&seq);
        self.bad += u64::from(!ok);
        if let Some(e) = self.expect.get_mut(src) {
            *e = seq.wrapping_add(1);
        }
        self.delivered += 1;
        self.payload_bytes += pkt.payload_bytes();
        let injected = SimTime::from_ps(u64_from_words(&pkt.payload));
        self.latency.push(ctx.now().since(injected).as_us_f64());
    }
}

/// Simulated statistics of one mix (all exact).
#[derive(Clone, Copy, Debug, Default)]
struct MixStats {
    packets: u64,
    events: u64,
    stage_crossings: u64,
    crc_failures: u64,
    latency_mean_us: f64,
    mbyte_per_s: f64,
}

fn run_mix(mix: &Mix, seed: u64, tracer: &Tracer, out: &mut Outcome) -> MixStats {
    let n = ENDPOINTS;
    let build = tracer.begin(SPAN_BUILD);
    let mut sim = Simulator::new();
    let sinks: Vec<ActorId> = (0..n)
        .map(|me| {
            sim.add_actor(Sink {
                me,
                expect: vec![0; usize::from(n)],
                delivered: 0,
                bad: 0,
                payload_bytes: 0,
                latency: OnlineStats::new(),
            })
        })
        .collect();
    let cfg = ArcticConfig {
        uproute: UpRoute::SourceSpread,
        seed,
        ..ArcticConfig::default()
    };
    let net = ArcticNetwork::build(&mut sim, &sinks, cfg);
    // 88-byte payload in a 96-byte packet on a 150 MB/s link.
    let payload_rate = 150.0 * 88.0 / 96.0 * mix.load;
    let gap = SimDuration::from_us_f64(88.0 / payload_rate);
    let mut seeder = SplitMix64::new(seed);
    let sources: Vec<ActorId> = (0..n)
        .map(|me| {
            let src = sim.add_actor(Source {
                me,
                tx_port: net.tx_port(me),
                dest: mix.dest,
                rng: SplitMix64::new(seeder.next_u64()),
                gap,
                stop_at: SimTime::from_us_f64(mix.inject_us),
                next_seq: vec![0; usize::from(n)],
                injected: 0,
            });
            let offset = SimDuration::from_ps(seeder.next_below(gap.as_ps().max(1)));
            sim.schedule(SimTime::ZERO + offset, src, Fire);
            src
        })
        .collect();
    tracer.end(build);

    tracer.span(SPAN_RUN, || sim.run());

    let injected: u64 = sources
        .iter()
        .map(|&id| sim.actor::<Source>(id).injected)
        .sum();
    let mut s = MixStats {
        events: sim.events_dispatched(),
        stage_crossings: net.total_stage_crossings(&sim),
        crc_failures: net.total_crc_failures(&sim),
        ..MixStats::default()
    };
    let (mut latency, mut bytes, mut bad) = (OnlineStats::new(), 0, 0);
    for &id in &sinks {
        let k = sim.actor::<Sink>(id);
        s.packets += k.delivered;
        bytes += k.payload_bytes;
        bad += k.bad;
        latency.merge(&k.latency);
    }
    s.latency_mean_us = latency.mean();
    s.mbyte_per_s = bytes as f64 / mix.inject_us;
    // Every packet checked on delivery (intact, in order, at the right
    // endpoint); then the totals: exactly once, and fully drained.
    out.attempted += s.packets;
    out.failed += bad;
    out.check(s.packets == injected && injected > 0);
    out.check(sim.pending_events() == 0);
    out.check(s.crc_failures == 0);
    s
}

pub struct FabricSaturated {
    seed: u64,
    last: [MixStats; 3],
}

impl FabricSaturated {
    pub fn new(seed: u64) -> FabricSaturated {
        FabricSaturated {
            seed,
            last: [MixStats::default(); 3],
        }
    }
}

impl Workload for FabricSaturated {
    fn rep(&mut self, tracer: &Tracer) -> Outcome {
        let mut out = Outcome::default();
        let mut d = Digest::default();
        for (i, mix) in MIXES.iter().enumerate() {
            let id = tracer.begin(mix.span);
            let s = run_mix(mix, self.seed.wrapping_add(i as u64), tracer, &mut out);
            tracer.end(id);
            for w in [s.packets, s.events, s.stage_crossings, s.crc_failures] {
                d.word(w);
            }
            d.f64s(&[s.latency_mean_us, s.mbyte_per_s]);
            self.last[i] = s;
        }
        out.digest = d.finish();
        out
    }

    fn layer_metrics(&mut self, tracer: &Tracer, _wall_s: f64, m: &mut LayerMetrics) {
        let [bitrev, uniform, nn] = self.last;
        let sum = |f: fn(&MixStats) -> u64| self.last.iter().map(f).sum::<u64>() as f64;
        let (events, packets) = (sum(|s| s.events), sum(|s| s.packets));
        let run_s = tracer.per_rep(SPAN_RUN).total_s;
        m.set("des.events", events);
        m.set("des.events_per_s", per_second(events, run_s));
        m.set("des.ns_per_event", run_s * 1e9 / events);
        m.set("arctic.packets", packets);
        m.set("arctic.packets_per_s", per_second(packets, run_s));
        m.set("arctic.stage_crossings", sum(|s| s.stage_crossings));
        m.set("arctic.crc_failures", sum(|s| s.crc_failures));
        for mix in &MIXES {
            let name = format!("{}_s", mix.span);
            m.set(&name, tracer.per_rep(mix.span).total_s);
        }
        m.set("arctic.bitrev_latency_mean_us", bitrev.latency_mean_us);
        m.set("arctic.uniform_latency_mean_us", uniform.latency_mean_us);
        m.set("arctic.nn_mbyte_per_s", nn.mbyte_per_s);

        m.set("arctic.build_us", fabric_build_us());
        m.set("des.dispatch_per_s", des_dispatch_per_s());
        // What watching costs: arctic's own observed run over its plain one.
        let seed = self.seed;
        let plain = time_calls(|| {
            run_traffic(
                16,
                Pattern::BitReverse,
                UpRoute::SourceSpread,
                0.8,
                400.0,
                seed,
            );
        });
        let observed = time_calls(|| {
            let obs = ObservatoryConfig::new(5.0, 800.0);
            run_traffic_observed(
                16,
                Pattern::BitReverse,
                UpRoute::SourceSpread,
                0.8,
                400.0,
                seed,
                obs,
            );
        });
        m.set("arctic.observed_ratio", observed / plain);
    }
}

/// Host µs to construct one 16-endpoint fabric: the cost every
/// `measure_*` primitive of `comm_primitives` pays per call.
pub fn fabric_build_us() -> f64 {
    let t = time_calls(|| {
        let mut sim = Simulator::new();
        let ids: Vec<ActorId> = (0..ENDPOINTS)
            .map(|_| sim.add_actor(SinkEndpoint::default()))
            .collect();
        std::hint::black_box(ArcticNetwork::build(
            &mut sim,
            &ids,
            ArcticConfig::default(),
        ));
    });
    t * 1e6
}

/// Bare event dispatch: one relay actor waking itself, no routers.
pub fn des_dispatch_per_s() -> f64 {
    struct Relay {
        left: u64,
    }
    impl Actor for Relay {
        fn on_event(&mut self, _ev: Payload, ctx: &mut Ctx<'_>) {
            if self.left > 0 {
                self.left -= 1;
                ctx.wake_after(SimDuration::from_ns(1), ());
            }
        }
    }
    const EVENTS: u64 = 500_000;
    let mut sim = Simulator::new();
    let id = sim.add_actor(Relay { left: EVENTS });
    sim.schedule(SimTime::ZERO, id, ());
    let t0 = Instant::now();
    sim.run();
    sim.events_dispatched() as f64 / t0.elapsed().as_secs_f64()
}
