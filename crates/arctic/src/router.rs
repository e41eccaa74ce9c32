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
    /// Queued packets with the time their head became eligible for the
    /// link (arrival + fall-through): the baseline for stall accounting.
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
        match self.ser_by_words.get(HEADER_WORDS + pkt.payload.len()) {
            Some(&ser) => ser,
            // `payload` is a public field: a hand-built oversize packet
            // is still timed, just not from the table.
            None => SimDuration::for_bytes_at(pkt.wire_bytes(), LINK_MBYTE_PER_SEC),
        }
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
        if now < q.free_at || q.queued() == 0 {
            return;
        }
        // High priority is never blocked behind queued low priority.
        let (ready, mut ev) = match q.high.pop_front() {
            Some(p) => p,
            None => match q.low.pop_front() {
                Some(p) => p,
                None => return,
            },
        };
        let pkt = &mut ev.0;
        // Time the head waited for the link beyond its fall-through —
        // the flow-control stall this grant resolves.
        q.stall_ps += now.as_ps().saturating_sub(ready.as_ps());
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
        let now = ctx.now();
        let addr = self.addr;
        for (i, q) in self.ports.iter_mut().enumerate() {
            if matches!(q.target, PortTarget::None) {
                continue;
            }
            let entity = RouterActor::link_entity(addr, i);
            sampler::record("arctic.link", &entity, "occ", now, q.queued() as f64);
            let busy = q.busy_ps - q.sampled_busy_ps;
            q.sampled_busy_ps = q.busy_ps;
            sampler::record("arctic.link", &entity, "busy_us", now, busy as f64 / 1e6);
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
        // Every legal size from the table, then one oversize hand-built
        // packet through the fallback.
        for words in (0..=MAX_PAYLOAD_WORDS).chain([40]) {
            let mut pkt = Packet::new(0, 1, Priority::Low, 0, vec![]);
            pkt.payload = vec![0; words];
            assert_eq!(
                link.serialization(&pkt),
                SimDuration::for_bytes_at(pkt.wire_bytes(), LINK_MBYTE_PER_SEC),
                "{words} payload words"
            );
        }
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
