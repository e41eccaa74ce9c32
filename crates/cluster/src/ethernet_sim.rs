//! A packet-level Ethernet-switch baseline with the same observability
//! hooks as the Arctic fabric.
//!
//! The [`ethernet`](crate::ethernet) module carries the paper's
//! *analytical* Ethernet comparators (primitive costs measured on real
//! hardware). This module adds a small *simulated* comparator: one
//! store-and-forward switch with per-output-port FIFO queues, so the
//! Arctic-vs-Ethernet contrast the paper asserts (§6) becomes observable
//! — the identical `telemetry::sampler` ticks that profile Arctic's
//! links profile the Ethernet switch ports, and the same congestion that
//! Arctic's fat-tree spreads across path diversity piles up visibly in a
//! single switch queue.
//!
//! Model choices (deliberately simple; this is a contrast baseline, not
//! a switch model):
//!
//! * **Store-and-forward**: a frame is queued for its output port only
//!   after it has fully arrived; output serialization restarts per hop
//!   (unlike Arctic's cut-through, which pays serialization once).
//! * **Single switch**, one output port per endpoint, each at the link
//!   rate (Fast Ethernet 12.5 MByte/s, Gigabit 125 MByte/s).
//! * **Ethernet framing**: 64-byte minimum frame, plus 38 bytes of
//!   preamble / header / FCS / inter-frame gap overhead per frame — the
//!   reason fine-grain traffic collapses on Ethernet (§6's tgsum gap).

use hyades_des::event::Payload;
use hyades_des::{Actor, ActorId, Ctx, SimDuration, SimTime, Simulator};
use hyades_telemetry::sampler::{self, SampleTick, SamplerActor};
use std::collections::VecDeque;

/// Minimum Ethernet frame payload-bearing size (bytes on the wire before
/// overhead).
pub const MIN_FRAME_BYTES: u64 = 64;
/// Per-frame overhead: preamble+SFD (8) + MAC header (14) + FCS (4) +
/// inter-frame gap (12).
pub const FRAME_OVERHEAD_BYTES: u64 = 38;

/// Link rates of the paper's comparator Ethernets, in MByte/s.
pub const FAST_ETHERNET_MBYTE_PER_SEC: f64 = 12.5;
pub const GIGABIT_ETHERNET_MBYTE_PER_SEC: f64 = 125.0;

/// A frame in flight.
#[derive(Clone, Debug)]
pub struct EtherFrame {
    pub src: u16,
    pub dst: u16,
    /// User bytes carried.
    pub payload_bytes: u64,
    pub injected_at: SimTime,
}

impl EtherFrame {
    /// Bytes the frame occupies on a link, with minimum-size padding and
    /// framing overhead.
    pub fn wire_bytes(&self) -> u64 {
        self.payload_bytes.max(MIN_FRAME_BYTES) + FRAME_OVERHEAD_BYTES
    }
}

/// Delivery event to an endpoint actor.
pub struct EtherDelivered {
    pub frame: EtherFrame,
}

/// Injection event: switch a frame towards its destination.
pub struct EtherInject(pub EtherFrame);

enum SwitchEv {
    /// A frame has fully arrived at the switch (store-and-forward).
    Recv(EtherFrame),
    /// Output port `port` may have become free.
    TryTx { port: usize },
}

struct OutPort {
    endpoint: ActorId,
    free_at: SimTime,
    queue: VecDeque<(SimTime, EtherFrame)>,
    packets: u64,
    max_queue: usize,
    stall_ps: u64,
    stalls: u64,
}

/// One store-and-forward switch: the whole "fabric" of the baseline.
pub struct SwitchActor {
    rate_mbyte_per_sec: f64,
    /// Switching latency applied to each frame before it is eligible for
    /// its output port.
    pub forward_latency: SimDuration,
    ports: Vec<OutPort>,
}

impl SwitchActor {
    fn port_for(&self, dst: u16) -> usize {
        dst as usize
    }

    fn recv(&mut self, frame: EtherFrame, ctx: &mut Ctx<'_>) {
        let port = self.port_for(frame.dst);
        let ready = ctx.now() + self.forward_latency;
        let q = &mut self.ports[port];
        q.queue.push_back((ready, frame));
        q.max_queue = q.max_queue.max(q.queue.len());
        let at = ready.max(q.free_at);
        ctx.send_after(at - ctx.now(), ctx.self_id(), SwitchEv::TryTx { port });
    }

    fn try_tx(&mut self, port: usize, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let q = &mut self.ports[port];
        if now < q.free_at || q.queue.is_empty() {
            return;
        }
        let Some((ready, frame)) = q.queue.pop_front() else {
            return;
        };
        let waited = now.as_ps().saturating_sub(ready.as_ps());
        if waited > 0 {
            q.stalls += 1;
            q.stall_ps += waited;
        }
        let ser = SimDuration::for_bytes_at(frame.wire_bytes(), self.rate_mbyte_per_sec);
        q.free_at = now + ser;
        q.packets += 1;
        // Store-and-forward: the endpoint sees the frame once it has
        // fully serialized out of the switch.
        ctx.send_after(ser, q.endpoint, EtherDelivered { frame });
        if !self.ports[port].queue.is_empty() {
            let free = self.ports[port].free_at;
            ctx.send_after(free - now, ctx.self_id(), SwitchEv::TryTx { port });
        }
    }

    /// Answer a [`SampleTick`] with each port's queue occupancy, the
    /// series the Arctic routers report as `occ`, under the `ether.link`
    /// component.
    fn sample(&mut self, ctx: &mut Ctx<'_>) {
        if !sampler::installed() {
            return;
        }
        let now = ctx.now();
        for (i, q) in self.ports.iter().enumerate() {
            let entity = format!("p{i}");
            sampler::record("ether.link", &entity, "occ", now, q.queue.len() as f64);
        }
    }
}

impl Actor for SwitchActor {
    fn on_event(&mut self, ev: Payload, ctx: &mut Ctx<'_>) {
        match ev.downcast::<SwitchEv>() {
            Ok(ev) => match *ev {
                SwitchEv::Recv(f) => self.recv(f, ctx),
                SwitchEv::TryTx { port } => self.try_tx(port, ctx),
            },
            Err(other) => match other.downcast::<SampleTick>() {
                Ok(_) => self.sample(ctx),
                Err(_) => panic!("switch received unexpected event"),
            },
        }
    }
}

/// The assembled baseline: endpoints' injection NICs feeding one switch.
pub struct EthernetSim {
    switch: ActorId,
    rate_mbyte_per_sec: f64,
    n: u16,
}

impl EthernetSim {
    /// Build the switch for `endpoint_actors.len()` endpoints;
    /// `endpoint_actors[i]` receives [`EtherDelivered`] events addressed
    /// to endpoint `i`.
    pub fn build(
        sim: &mut Simulator,
        endpoint_actors: &[ActorId],
        rate_mbyte_per_sec: f64,
    ) -> Self {
        let ports = endpoint_actors
            .iter()
            .map(|&ep| OutPort {
                endpoint: ep,
                free_at: SimTime::ZERO,
                queue: VecDeque::new(),
                packets: 0,
                max_queue: 0,
                stall_ps: 0,
                stalls: 0,
            })
            .collect();
        let switch = sim.add_actor(SwitchActor {
            rate_mbyte_per_sec,
            // A contemporary store-and-forward switch forwarding decision.
            forward_latency: SimDuration::from_us_f64(5.0),
            ports,
        });
        EthernetSim {
            switch,
            rate_mbyte_per_sec,
            n: endpoint_actors.len() as u16,
        }
    }

    pub fn n_endpoints(&self) -> u16 {
        self.n
    }

    /// Inject a frame from outside the simulation: it reaches the switch
    /// after its own injection-link serialization (store-and-forward).
    pub fn inject_at(&self, sim: &mut Simulator, at: SimTime, mut frame: EtherFrame) {
        assert!(frame.dst < self.n, "dst out of range");
        frame.injected_at = at;
        let arrival = SimDuration::for_bytes_at(frame.wire_bytes(), self.rate_mbyte_per_sec);
        sim.schedule(at + arrival, self.switch, SwitchEv::Recv(frame));
    }

    /// Start the sampler over the switch (install first with
    /// [`sampler::install`], or use [`EthernetSim::observe`]).
    pub fn observe(&self, sim: &mut Simulator, interval: SimDuration, until: SimTime) -> ActorId {
        sampler::install(interval);
        SamplerActor::start(sim, vec![self.switch], interval, until)
    }

    /// Per-port summary after a run: (packets, max queue depth, stalls,
    /// stall picoseconds), indexed by destination endpoint.
    pub fn port_stats(&self, sim: &Simulator, port: usize) -> (u64, usize, u64, u64) {
        let s = sim.actor::<SwitchActor>(self.switch);
        let p = &s.ports[port];
        (p.packets, p.max_queue, p.stalls, p.stall_ps)
    }
}

/// A sink endpoint recording deliveries (mirror of the Arctic one).
#[derive(Default)]
pub struct EtherSink {
    pub deliveries: Vec<(SimTime, EtherFrame)>,
}

impl Actor for EtherSink {
    fn on_event(&mut self, ev: Payload, ctx: &mut Ctx<'_>) {
        if let Ok(d) = ev.downcast::<EtherDelivered>() {
            self.deliveries.push((ctx.now(), d.frame));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: u16, rate: f64) -> (Simulator, EthernetSim, Vec<ActorId>) {
        let mut sim = Simulator::new();
        let eps: Vec<ActorId> = (0..n)
            .map(|_| sim.add_actor(EtherSink::default()))
            .collect();
        let net = EthernetSim::build(&mut sim, &eps, rate);
        (sim, net, eps)
    }

    #[test]
    fn single_frame_latency_is_two_serializations_plus_forwarding() {
        let (mut sim, net, eps) = build(4, FAST_ETHERNET_MBYTE_PER_SEC);
        let frame = EtherFrame {
            src: 0,
            dst: 3,
            payload_bytes: 1000,
            injected_at: SimTime::ZERO,
        };
        let wire = frame.wire_bytes();
        net.inject_at(&mut sim, SimTime::ZERO, frame);
        sim.run();
        let sink = sim.actor::<EtherSink>(eps[3]);
        assert_eq!(sink.deliveries.len(), 1);
        let ser = SimDuration::for_bytes_at(wire, FAST_ETHERNET_MBYTE_PER_SEC);
        let expected = ser + SimDuration::from_us_f64(5.0) + ser;
        assert_eq!(sink.deliveries[0].0.since(SimTime::ZERO), expected);
        // Store-and-forward at 12.5 MB/s: ~171 us for a 1000-byte frame —
        // two orders beyond Arctic's ~1.3 us small-packet latency.
        assert!(expected.as_us_f64() > 150.0);
    }

    #[test]
    fn min_frame_padding_and_overhead_apply() {
        let f = EtherFrame {
            src: 0,
            dst: 1,
            payload_bytes: 8,
            injected_at: SimTime::ZERO,
        };
        assert_eq!(f.wire_bytes(), MIN_FRAME_BYTES + FRAME_OVERHEAD_BYTES);
    }

    #[test]
    fn hotspot_queue_is_visible_to_the_sampler() {
        let (mut sim, net, _) = build(8, FAST_ETHERNET_MBYTE_PER_SEC);
        let sampler_id = net.observe(
            &mut sim,
            SimDuration::from_us(50),
            SimTime::from_us_f64(5000.0),
        );
        // 7 sources hammer endpoint 0 — on a single switch there is no
        // path diversity to hide behind.
        for s in 1..8u16 {
            for i in 0..10 {
                net.inject_at(
                    &mut sim,
                    SimTime::from_us_f64(i as f64),
                    EtherFrame {
                        src: s,
                        dst: 0,
                        payload_bytes: 1000,
                        injected_at: SimTime::ZERO,
                    },
                );
            }
        }
        sim.run();
        let ticks = sim.actor::<SamplerActor>(sampler_id).ticks;
        assert!(ticks > 0);
        let samples = sampler::take().expect("observed run");
        let s = samples.get("ether.link", "p0", "occ").expect("sampled");
        assert!(
            s.p99() > 4.0,
            "70 frames into one 12.5 MB/s port must queue: p99 {}",
            s.p99()
        );
        let (packets, max_q, stalls, _) = net.port_stats(&sim, 0);
        assert_eq!(packets, 70);
        assert!(max_q > 4);
        assert!(stalls > 0);
    }

    #[test]
    fn deterministic_double_run_is_bit_identical() {
        // Every port's sampled occupancy series, (tick ps, value bits).
        let run = || -> Vec<Vec<(u64, u64)>> {
            let (mut sim, net, _) = build(4, GIGABIT_ETHERNET_MBYTE_PER_SEC);
            net.observe(
                &mut sim,
                SimDuration::from_us(20),
                SimTime::from_us_f64(500.0),
            );
            for s in 1..4u16 {
                for i in 0..5 {
                    net.inject_at(
                        &mut sim,
                        SimTime::from_us_f64(i as f64 * 7.0),
                        EtherFrame {
                            src: s,
                            dst: 0,
                            payload_bytes: 500,
                            injected_at: SimTime::ZERO,
                        },
                    );
                }
            }
            sim.run();
            let samples = sampler::take().expect("observed");
            (0..4)
                .map(|p| {
                    let occ = samples.get("ether.link", &format!("p{p}"), "occ");
                    occ.expect("every port is sampled")
                        .points
                        .iter()
                        .map(|&(t, v)| (t.as_ps(), v.to_bits()))
                        .collect()
                })
                .collect()
        };
        let a = run();
        assert!(a[0].iter().any(|&(_, v)| f64::from_bits(v) > 0.0));
        assert_eq!(a, run());
    }
}
