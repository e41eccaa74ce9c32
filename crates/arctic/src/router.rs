//! The Arctic router model.
//!
//! Each router is a 4×4 crossbar (2 down-ports, 2 up-ports) with:
//!
//! * a **fall-through latency** of 0.15 µs applied to the packet head at
//!   each stage (§2.2),
//! * **150 MByte/s** output links with cut-through forwarding — the head is
//!   forwarded as soon as the output link is granted, while the link stays
//!   occupied for the packet's serialization time (so serialization is paid
//!   once end-to-end, not per stage),
//! * **two priorities** per output port: a queued high-priority packet is
//!   always granted the link before any queued low-priority packet (a
//!   high-priority message "cannot be blocked by low-priority messages"),
//!   though an in-flight packet is never preempted mid-transmission,
//! * **CRC verification** at every stage: a mismatch sets the packet's
//!   corruption bit, which the endpoint surfaces as the 1-bit status word.
//!   A stage reuses the CRC the packet remembers ([`Packet::verify`]).
//!
//! FIFO order within a priority class at each port follows arrival order, so
//! two packets following the same path are delivered in injection order —
//! Arctic's per-path FIFO guarantee.

use crate::packet::{Packet, Priority, HEADER_WORDS, MAX_PAYLOAD_WORDS};
use crate::topology::{FatTree, RouterAddr};
use hyades_des::event::Payload;
use hyades_des::{Actor, ActorId, Ctx, SimDuration, SimTime};
use hyades_telemetry as telemetry;
use hyades_telemetry::flight;
use hyades_telemetry::sampler::{self, SampleTick};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Number of ports on an Arctic router (2 down + 2 up).
pub const PORTS: usize = 4;

/// Port index helpers: ports 0,1 are down-ports, 2,3 are up-ports.
pub fn down_port_index(b: u8) -> usize {
    b as usize
}
pub fn up_port_index(p: u8) -> usize {
    2 + p as usize
}

/// A packet head arriving on a router input. A router forwards the box it
/// received to the next stage, so a packet is allocated once at injection
/// rather than once per stage.
pub struct Arrive(pub Packet);

/// Self-event: the output link for `port` may have become free.
struct TryTx {
    port: usize,
}

/// Where an output port leads.
#[derive(Clone, Copy, Debug)]
pub enum PortTarget {
    /// Another router stage.
    Router(ActorId),
    /// The final hop: deliver to an endpoint actor. The delivery event is
    /// scheduled at the packet *tail* (head + serialization), which is what
    /// the NIU's receive logic observes.
    Endpoint(ActorId),
    /// Unwired (up-ports at the top level).
    None,
}

struct OutputPort {
    target: PortTarget,
    free_at: SimTime,
    /// Queued packets with the time their head becomes eligible for the
    /// link (arrival + fall-through): the earliest grant, and the baseline
    /// for stall accounting.
    high: VecDeque<(SimTime, Box<Arrive>)>,
    low: VecDeque<(SimTime, Box<Arrive>)>,
    /// Packets granted this link.
    packets: u64,
    /// Link-busy time accumulated over the run (serialization charged at
    /// grant), and the value last reported to the sampler.
    busy_ps: u64,
    sampled_busy_ps: u64,
    /// Flow-control stall time: how long packet heads waited for this
    /// output link *beyond* the fall-through, i.e. blocked by link
    /// occupancy — the wormhole analogue of credit stalls.
    stall_ps: u64,
    /// Per-flow grant counts, kept only while the sampler observatory is
    /// installed (it costs a map insert per packet).
    flows: BTreeMap<(u16, u16), u64>,
}

impl OutputPort {
    fn new(target: PortTarget) -> Self {
        OutputPort {
            target,
            free_at: SimTime::ZERO,
            high: VecDeque::new(),
            low: VecDeque::new(),
            packets: 0,
            busy_ps: 0,
            sampled_busy_ps: 0,
            stall_ps: 0,
            flows: BTreeMap::new(),
        }
    }

    fn queued(&self) -> usize {
        self.high.len() + self.low.len()
    }
}

/// Crossbar fall-through of one router stage (§2.2: 0.15 µs).
pub(crate) const FALL_THROUGH: SimDuration = SimDuration::from_us_f64(0.15);

/// Link bandwidth (§2.2: 150 MByte/s in each direction).
pub(crate) const LINK_MBYTE_PER_SEC: f64 = 150.0;

/// Head latency of one wire hop between stages.
pub(crate) const WIRE_LATENCY: SimDuration = SimDuration::from_ns(10);

/// The per-grant value derived from the link bandwidth, shared by all of
/// a fabric's routers and injection ports.
pub struct LinkModel {
    /// Serialization time by packet size in wire words, each entry the
    /// value of [`SimDuration::for_bytes_at`] — which costs an f64 divide
    /// and a libm `round`, too dear to repeat on every link grant.
    ser_by_words: [SimDuration; HEADER_WORDS + MAX_PAYLOAD_WORDS + 1],
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel {
            ser_by_words: std::array::from_fn(|words| {
                SimDuration::for_bytes_at(4 * words as u64, LINK_MBYTE_PER_SEC)
            }),
        }
    }
}

impl LinkModel {
    /// Time `pkt` occupies a link.
    pub fn serialization(&self, pkt: &Packet) -> SimDuration {
        self.ser_by_words[HEADER_WORDS + pkt.payload.len()]
    }
}

/// One simulated Arctic router.
pub struct RouterActor {
    addr: RouterAddr,
    tree: Arc<FatTree>,
    link: Arc<LinkModel>,
    ports: Vec<OutputPort>,
    /// Stage-level CRC failures observed (packets are still forwarded with
    /// their corruption bit set).
    pub crc_failures: u64,
    /// Total packets routed through this stage.
    pub packets_routed: u64,
    /// Each wired output port with its sampler label, made on the first
    /// [`SampleTick`] (an unobserved run formats none).
    sampled: Vec<(usize, String)>,
}

impl RouterActor {
    pub fn new(addr: RouterAddr, tree: Arc<FatTree>, link: Arc<LinkModel>) -> Self {
        RouterActor {
            addr,
            tree,
            link,
            ports: (0..PORTS)
                .map(|_| OutputPort::new(PortTarget::None))
                .collect(),
            crc_failures: 0,
            packets_routed: 0,
            sampled: Vec::new(),
        }
    }

    pub fn addr(&self) -> RouterAddr {
        self.addr
    }

    /// Wire an output port (done by the network builder).
    pub fn wire_port(&mut self, port: usize, target: PortTarget) {
        self.ports[port].target = target;
    }

    /// Packets granted an output port's link.
    pub fn port_packets(&self, port: usize) -> u64 {
        self.ports[port].packets
    }

    /// Is this output port wired to anything?
    pub fn port_is_wired(&self, port: usize) -> bool {
        !matches!(self.ports[port].target, PortTarget::None)
    }

    /// Total flow-control stall picoseconds at an output port.
    pub fn port_stall_ps(&self, port: usize) -> u64 {
        self.ports[port].stall_ps
    }

    /// Per-flow grant counts for a port, in (src, dst) order. Populated
    /// only while the sampler observatory is installed.
    pub fn port_flows(&self, port: usize) -> Vec<((u16, u16), u64)> {
        self.ports[port]
            .flows
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect()
    }

    /// The sampler entity label for one of this router's output links.
    pub fn link_entity(addr: RouterAddr, port: usize) -> String {
        format!("l{}.w{}.p{}", addr.level, addr.word, port)
    }

    fn route(&self, pkt: &Packet) -> usize {
        if pkt.up_remaining > 0 {
            let p = ((pkt.uproute_bits >> self.addr.level) & 1) as u8;
            up_port_index(p)
        } else {
            let b = self.tree.down_port(self.addr.level, pkt.dst);
            down_port_index(b)
        }
    }

    fn enqueue(&mut self, mut ev: Box<Arrive>, ctx: &mut Ctx<'_>) {
        let pkt = &mut ev.0;
        // Per-stage CRC verification.
        if !pkt.verify() {
            self.crc_failures += 1;
            flight::record(
                ctx.now(),
                ctx.self_id(),
                "router.crc_fail",
                pkt.usr_tag as u64,
            );
            telemetry::count("arctic.router", "crc_failures", 1);
        }
        self.packets_routed += 1;
        telemetry::count("arctic.router", "stage_crossings", 1);
        flight::record(
            ctx.now(),
            ctx.self_id(),
            "router.enqueue",
            pkt.usr_tag as u64,
        );
        let port = self.route(pkt);
        if pkt.up_remaining > 0 {
            pkt.up_remaining -= 1;
        }
        // The head has now fallen through the crossbar; the link grant can
        // happen no earlier than `FALL_THROUGH` from arrival.
        let ready = ctx.now() + FALL_THROUGH;
        let q = &mut self.ports[port];
        match pkt.priority {
            Priority::High => q.high.push_back((ready, ev)),
            Priority::Low => q.low.push_back((ready, ev)),
        }
        let at = ready.max(q.free_at);
        ctx.send_after(at - ctx.now(), ctx.self_id(), TryTx { port });
    }

    fn try_tx(&mut self, port: usize, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let q = &mut self.ports[port];
        if now < q.free_at {
            return;
        }
        // Only a head that has fallen through may take the link; among
        // those, high priority is never blocked behind queued low priority.
        let fallen = |(ready, _): &mut (SimTime, Box<Arrive>)| *ready <= now;
        let granted = q.high.pop_front_if(fallen);
        let Some((ready, mut ev)) = granted.or_else(|| q.low.pop_front_if(fallen)) else {
            // A link that frees before the queued heads fall through waits
            // for the first of them.
            let first = [&q.high, &q.low]
                .into_iter()
                .filter_map(|fifo| fifo.front().map(|(ready, _)| *ready))
                .min();
            if let Some(ready) = first {
                ctx.send_after(ready - now, ctx.self_id(), TryTx { port });
            }
            return;
        };
        let pkt = &mut ev.0;
        // Time the head waited for the link beyond its fall-through —
        // the flow-control stall this grant resolves.
        q.stall_ps += (now - ready).as_ps();
        let ser = self.link.serialization(pkt);
        q.free_at = now + ser;
        q.packets += 1;
        q.busy_ps += ser.as_ps();
        if sampler::installed() {
            *q.flows.entry((pkt.src, pkt.dst)).or_insert(0) += 1;
        }
        telemetry::record_span(ctx.self_id().0 as u64, "arctic", "router.tx", now, ser);
        telemetry::observe_hist("arctic.router", "tx_queue_depth", q.queued() as u64);
        flight::record(now, ctx.self_id(), "router.tx", pkt.usr_tag as u64);
        match q.target {
            PortTarget::Router(next) => {
                // Cut-through: the head reaches the next stage after the
                // wire latency; the body streams behind it.
                ctx.send_boxed_after(WIRE_LATENCY, next, ev);
            }
            PortTarget::Endpoint(ep) => {
                // Delivery completes at the packet tail.
                let Arrive(pkt) = *ev;
                ctx.send_after(WIRE_LATENCY + ser, ep, crate::network::Delivered { pkt });
            }
            PortTarget::None => panic!(
                "router {:?} routed a packet out of an unwired port {port}",
                self.addr
            ),
        }
        // If more packets are queued, re-arm when the link frees.
        if self.ports[port].queued() > 0 {
            let free = self.ports[port].free_at;
            ctx.send_after(free - now, ctx.self_id(), TryTx { port });
        }
    }

    /// Answer a [`SampleTick`]: report each wired output link's queue
    /// occupancy and `busy_us`, the link-busy time since the previous tick
    /// (serialization is charged at grant time, so a packet spanning a
    /// tick boundary is attributed to the window that granted it).
    fn sample(&mut self, ctx: &mut Ctx<'_>) {
        if !sampler::installed() {
            return;
        }
        if self.sampled.is_empty() {
            let addr = self.addr;
            self.sampled = (0..PORTS)
                .filter(|&port| self.port_is_wired(port))
                .map(|port| (port, RouterActor::link_entity(addr, port)))
                .collect();
        }
        let now = ctx.now();
        for (port, entity) in &self.sampled {
            let q = &mut self.ports[*port];
            sampler::record("arctic.link", entity, "occ", now, q.queued() as f64);
            let busy = q.busy_ps - q.sampled_busy_ps;
            q.sampled_busy_ps = q.busy_ps;
            sampler::record("arctic.link", entity, "busy_us", now, busy as f64 / 1e6);
        }
    }
}

impl Actor for RouterActor {
    fn on_event(&mut self, ev: Payload, ctx: &mut Ctx<'_>) {
        let ev = match ev.downcast::<Arrive>() {
            Ok(arrive) => return self.enqueue(arrive, ctx),
            Err(other) => other,
        };
        match ev.downcast::<TryTx>() {
            Ok(kick) => self.try_tx(kick.port, ctx),
            Err(other) => match other.downcast::<SampleTick>() {
                Ok(_) => self.sample(ctx),
                Err(other) => panic!("router received unexpected event: {other:?}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_index_layout() {
        assert_eq!(down_port_index(0), 0);
        assert_eq!(down_port_index(1), 1);
        assert_eq!(up_port_index(0), 2);
        assert_eq!(up_port_index(1), 3);
    }

    #[test]
    fn link_model_serialization_equals_for_bytes_at() {
        let link = LinkModel::default();
        for words in 0..=MAX_PAYLOAD_WORDS {
            let pkt = Packet::new(0, 1, Priority::Low, 0, vec![0; words]);
            assert_eq!(
                link.serialization(&pkt),
                SimDuration::for_bytes_at(pkt.wire_bytes(), LINK_MBYTE_PER_SEC),
                "{words} payload words"
            );
        }
    }

    /// A link that frees after a short packet must not go to a packet
    /// whose head is still falling through: the second packet arrives
    /// 0.12 µs after the first, so the first's 0.107 µs on the link ends
    /// 0.013 µs before the second may be granted.
    #[test]
    fn a_head_is_granted_only_after_it_has_fallen_through() {
        let mut sim = hyades_des::Simulator::new();
        let sink = sim.add_actor(crate::network::SinkEndpoint::default());
        let link = Arc::new(LinkModel::default());
        let mut router = RouterActor::new(
            RouterAddr { level: 0, word: 0 },
            Arc::new(FatTree::new(16)),
            Arc::clone(&link),
        );
        router.wire_port(down_port_index(0), PortTarget::Endpoint(sink));
        let id = sim.add_actor(router);
        let arrivals = [0.0, 0.12].map(SimTime::from_us_f64);
        for (tag, &at) in arrivals.iter().enumerate() {
            let pkt = Packet::new(1, 0, Priority::Low, tag as u16, vec![7, 8]);
            sim.schedule(at, id, Arrive(pkt));
        }
        sim.run();
        let sink = sim.actor::<crate::network::SinkEndpoint>(sink);
        let got: Vec<SimTime> = sink.deliveries.iter().map(|(at, _)| *at).collect();
        let ser = link.serialization(&sink.deliveries[0].1);
        let want = arrivals.map(|at| at + FALL_THROUGH + WIRE_LATENCY + ser);
        assert_eq!(got, want);
        assert_eq!(sim.actor::<RouterActor>(id).port_stall_ps(0), 0);
    }

    /// The CRC a packet remembers from a clean check does not hide a bit
    /// flipped after it: the next stage fails the check and forwards the
    /// packet flagged.
    #[test]
    fn a_stage_catches_a_flip_after_a_clean_check() {
        let mut sim = hyades_des::Simulator::new();
        let sink = sim.add_actor(crate::network::SinkEndpoint::default());
        let mut router = RouterActor::new(
            RouterAddr { level: 0, word: 0 },
            Arc::new(FatTree::new(16)),
            Arc::new(LinkModel::default()),
        );
        router.wire_port(down_port_index(0), PortTarget::Endpoint(sink));
        let id = sim.add_actor(router);
        let mut pkt = Packet::new(1, 0, Priority::Low, 3, vec![7, 8, 9]);
        assert!(pkt.verify());
        pkt.flip_bit(2, 31);
        sim.schedule(SimTime::ZERO, id, Arrive(pkt));
        sim.run();
        assert_eq!(sim.actor::<RouterActor>(id).crc_failures, 1);
        let sink = sim.actor::<crate::network::SinkEndpoint>(sink);
        assert_eq!(sink.deliveries.len(), 1);
        assert_eq!(sink.corrupted, 1, "endpoint must see the 1-bit status");
    }

    #[test]
    fn routing_direction_selection() {
        let tree = Arc::new(FatTree::new(16));
        let r = RouterActor::new(
            RouterAddr { level: 1, word: 0 },
            tree,
            Arc::new(LinkModel::default()),
        );
        // Ascending packet follows its uproute bit for level 1.
        let mut pkt = Packet::new(0, 15, Priority::Low, 0, vec![0; 2]);
        pkt.up_remaining = 2;
        pkt.uproute_bits = 0b10; // bit 1 set -> up-port 1
        assert_eq!(r.route(&pkt), up_port_index(1));
        // Descending packet follows the destination bit for level 1.
        pkt.up_remaining = 0;
        assert_eq!(r.route(&pkt), down_port_index(((15 >> 1) & 1) as u8));
    }
}
