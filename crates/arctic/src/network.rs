//! The assembled fabric: routers + injection ports + delivery plumbing.

use crate::fault::FaultInjector;
use crate::packet::{Packet, UpRoute};
use crate::router::{
    down_port_index, up_port_index, Arrive, LinkModel, PortTarget, RouterActor, FALL_THROUGH,
    LINK_MBYTE_PER_SEC, WIRE_LATENCY,
};
use crate::topology::{DownTarget, FatTree, RouterAddr};
use hyades_des::event::Payload;
use hyades_des::fault::FaultPlan;
use hyades_des::rng::SplitMix64;
use hyades_des::{Actor, ActorId, Ctx, SimDuration, SimTime, Simulator};
use hyades_telemetry as telemetry;
use hyades_telemetry::flight;
use std::sync::Arc;

/// Fabric configuration: how packets pick their up-routes. The hardware
/// timing is the paper's constants ([`crate::router`]).
#[derive(Clone, Copy, Debug)]
pub struct ArcticConfig {
    pub uproute: UpRoute,
    /// Seed for random up-route selection (only used in `UpRoute::Random`).
    pub seed: u64,
}

impl Default for ArcticConfig {
    fn default() -> Self {
        ArcticConfig {
            uproute: UpRoute::SourceSpread,
            seed: 0xA7C71C,
        }
    }
}

/// Delivery event scheduled to an endpoint actor when a packet's tail
/// arrives. The endpoint checks `pkt.corrupted` — the 1-bit status word.
pub struct Delivered {
    pub pkt: Packet,
}

/// Injection event: send this packet into the fabric.
pub struct Inject(pub Packet);

/// Per-endpoint transmit port: models the NIU-to-leaf-router link
/// (150 MByte/s) and stamps routing state onto outgoing packets.
///
/// Like the StarT-X hardware (Figure 1a), the port keeps *separate high- and
/// low-priority transmit queues*: a queued high-priority message is granted
/// the link ahead of any queued low-priority messages.
pub struct TxPort {
    endpoint: u16,
    leaf: ActorId,
    tree: Arc<FatTree>,
    link: Arc<LinkModel>,
    uproute: UpRoute,
    rng: SplitMix64,
    free_at: SimTime,
    high: std::collections::VecDeque<Packet>,
    low: std::collections::VecDeque<Packet>,
    /// This port's share of the fault plan installed by
    /// [`ArcticNetwork::apply_fault_plan`]: packets granted the link pass
    /// through it (corrupt/drop windows), and while it reports an NIU
    /// stall the port grants nothing — queued packets wait the stall out.
    fault: Option<FaultInjector>,
    /// Guard so each stall window arms one wake and records one span.
    stall_armed_until: SimTime,
    pub stall_waits: u64,
}

/// Internal self-event: the injection link may have become free.
struct TxKick;

impl TxPort {
    fn uproute_bits(&mut self) -> u16 {
        match self.uproute {
            UpRoute::SourceSpread => self.endpoint & 0x3FFF,
            UpRoute::Random => (self.rng.next_u64() & 0x3FFF) as u16,
        }
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        if now < self.free_at {
            ctx.send_after(self.free_at - now, ctx.self_id(), TxKick);
            return;
        }
        if let Some(until) = self.fault.as_ref().and_then(|f| f.stalled_until(now)) {
            if self.high.is_empty() && self.low.is_empty() {
                return;
            }
            // One wake (and one observable span) per stall window, not
            // one per queued packet.
            if self.stall_armed_until < until {
                self.stall_armed_until = until;
                self.stall_waits += 1;
                let wait = until.since(now);
                telemetry::record_span(u64::from(self.endpoint), "arctic", "niu.stall", now, wait);
                telemetry::count("arctic.niu", "stall_waits", 1);
                flight::record(now, ctx.self_id(), "niu.stall", wait.as_ps());
                ctx.send_after(wait, ctx.self_id(), TxKick);
            }
            return;
        }
        // A packet dropped by the injector never occupied the link: go
        // straight on to the next queued one. (A loop, not recursion — a
        // backlog dropped wholesale would otherwise overflow the stack.)
        let pkt = loop {
            let Some(mut pkt) = self.high.pop_front().or_else(|| self.low.pop_front()) else {
                return;
            };
            let id = ctx.self_id();
            if self
                .fault
                .as_mut()
                .is_none_or(|f| f.apply(&mut pkt, now, id))
            {
                break pkt;
            }
        };
        let ser = self.link.serialization(&pkt);
        self.free_at = now + ser;
        telemetry::record_span(ctx.self_id().0 as u64, "arctic", "niu.inject", now, ser);
        telemetry::count("arctic.txport", "packets_injected", 1);
        telemetry::count("arctic.txport", "bytes_injected", pkt.wire_bytes());
        flight::record(now, ctx.self_id(), "txport.inject", pkt.usr_tag as u64);
        // Cut-through: head reaches the leaf router one wire latency after
        // transmission starts.
        ctx.send_after(WIRE_LATENCY, self.leaf, Arrive(pkt));
        if !self.high.is_empty() || !self.low.is_empty() {
            ctx.send_after(ser, ctx.self_id(), TxKick);
        }
    }
}

impl Actor for TxPort {
    fn on_event(&mut self, ev: Payload, ctx: &mut Ctx<'_>) {
        match ev.downcast::<Inject>() {
            Ok(inject) => {
                let Inject(mut pkt) = *inject;
                assert_eq!(pkt.src, self.endpoint, "packet src must match its port");
                pkt.up_remaining = self.tree.up_hops(pkt.src, pkt.dst);
                pkt.uproute_bits = self.uproute_bits();
                match pkt.priority {
                    crate::packet::Priority::High => self.high.push_back(pkt),
                    crate::packet::Priority::Low => self.low.push_back(pkt),
                }
                self.pump(ctx);
            }
            Err(other) => match other.downcast::<TxKick>() {
                Ok(_) => self.pump(ctx),
                Err(_) => panic!("TxPort unexpected event"),
            },
        }
    }
}

/// The assembled Arctic fabric within a [`Simulator`].
pub struct ArcticNetwork {
    tree: Arc<FatTree>,
    cfg: ArcticConfig,
    router_ids: Vec<ActorId>,
    tx_ports: Vec<ActorId>,
    endpoints: Vec<ActorId>,
}

impl ArcticNetwork {
    /// Build the fabric for `endpoint_actors.len()` endpoints (a power of
    /// two). `endpoint_actors[i]` receives [`Delivered`] events addressed to
    /// endpoint `i`.
    pub fn build(sim: &mut Simulator, endpoint_actors: &[ActorId], cfg: ArcticConfig) -> Self {
        let n = endpoint_actors.len() as u16;
        let tree = Arc::new(FatTree::new(n));
        let link = Arc::new(LinkModel::default());

        // Pass 1: create the routers.
        let mut router_ids = Vec::with_capacity(tree.total_routers());
        for addr in tree.routers() {
            let id = sim.add_actor(RouterActor::new(addr, Arc::clone(&tree), Arc::clone(&link)));
            router_ids.push(id);
        }
        let idx = |addr: RouterAddr| -> usize {
            addr.level as usize * tree.routers_per_level() as usize + addr.word as usize
        };

        // Pass 2: wire the ports.
        for addr in tree.routers() {
            let id = router_ids[idx(addr)];
            for b in 0..2u8 {
                let target = match tree.down_neighbor(addr, b) {
                    DownTarget::Endpoint(e) => PortTarget::Endpoint(endpoint_actors[e as usize]),
                    DownTarget::Router(r) => PortTarget::Router(router_ids[idx(r)]),
                };
                sim.actor_mut::<RouterActor>(id)
                    .wire_port(down_port_index(b), target);
            }
            if addr.level + 1 < tree.levels() {
                for p in 0..2u8 {
                    let up = tree.up_neighbor(addr, p);
                    sim.actor_mut::<RouterActor>(id)
                        .wire_port(up_port_index(p), PortTarget::Router(router_ids[idx(up)]));
                }
            }
        }

        // Pass 3: per-endpoint injection ports.
        let mut tx_ports = Vec::with_capacity(n as usize);
        let mut seed_rng = SplitMix64::new(cfg.seed);
        for e in 0..n {
            let (leaf, _) = tree.leaf_of(e);
            let id = sim.add_actor(TxPort {
                endpoint: e,
                leaf: router_ids[idx(leaf)],
                tree: Arc::clone(&tree),
                link: Arc::clone(&link),
                uproute: cfg.uproute,
                rng: SplitMix64::new(seed_rng.next_u64()),
                free_at: SimTime::ZERO,
                high: std::collections::VecDeque::new(),
                low: std::collections::VecDeque::new(),
                fault: None,
                stall_armed_until: SimTime::ZERO,
                stall_waits: 0,
            });
            tx_ports.push(id);
        }

        ArcticNetwork {
            tree,
            cfg,
            router_ids,
            tx_ports,
            endpoints: endpoint_actors.to_vec(),
        }
    }

    /// Build a fabric of `n` endpoints whose endpoint `e` is the actor
    /// `make(e, tx_port(e))` — for protocol actors that must know their
    /// injection port. The endpoints take their actor ids, in endpoint
    /// order, before the fabric's own actors do — exactly as if they had
    /// been added first and handed to [`ArcticNetwork::build`].
    pub fn build_with(
        sim: &mut Simulator,
        n: u16,
        cfg: ArcticConfig,
        mut make: impl FnMut(u16, ActorId) -> Box<dyn Actor>,
    ) -> Self {
        let ids: Vec<ActorId> = (0..n).map(|_| sim.reserve()).collect();
        let net = Self::build(sim, &ids, cfg);
        for e in 0..n {
            sim.insert_actor_at(net.endpoint(e), make(e, net.tx_port(e)));
        }
        net
    }

    pub fn n_endpoints(&self) -> u16 {
        self.tree.n_endpoints()
    }

    pub fn tree(&self) -> &FatTree {
        &self.tree
    }

    pub fn config(&self) -> &ArcticConfig {
        &self.cfg
    }

    /// The injection actor for an endpoint. Actors send
    /// [`Inject`]`(packet)` events here; harnesses can `sim.schedule` to it.
    pub fn tx_port(&self, endpoint: u16) -> ActorId {
        self.tx_ports[endpoint as usize]
    }

    /// The delivery actor registered for an endpoint.
    pub fn endpoint(&self, endpoint: u16) -> ActorId {
        self.endpoints[endpoint as usize]
    }

    /// Thread a deterministic [`FaultPlan`] through the fabric: every
    /// injection port gets an injector over the shared plan (link windows
    /// drawn from the port's own stream of the plan seed, and the
    /// endpoint's NIU stalls). Call after [`ArcticNetwork::build`], before
    /// the workload starts.
    pub fn apply_fault_plan(&self, sim: &mut Simulator, plan: &FaultPlan) {
        let plan = Arc::new(plan.clone());
        for e in 0..self.n_endpoints() {
            sim.actor_mut::<TxPort>(self.tx_port(e)).fault =
                Some(FaultInjector::windowed(Arc::clone(&plan), e));
        }
    }

    /// Total NIU stall waits across all injection ports.
    pub fn stall_waits(&self, sim: &Simulator) -> u64 {
        self.tx_ports
            .iter()
            .map(|&id| sim.actor::<TxPort>(id).stall_waits)
            .sum()
    }

    /// Inject a packet from outside the simulation at time `at`.
    pub fn inject_at(&self, sim: &mut Simulator, at: SimTime, pkt: Packet) {
        let port = self.tx_port(pkt.src);
        sim.schedule(at, port, Inject(pkt));
    }

    /// Router actor ids, level-major (`idx = level * routers_per_level +
    /// word`) — the actors the observatory samples and whose per-port
    /// state it collects.
    pub fn router_actor_ids(&self) -> &[ActorId] {
        &self.router_ids
    }

    /// Fault-injection totals across all injection ports:
    /// (packets corrupted, packets dropped).
    pub fn fault_counts(&self, sim: &Simulator) -> (u64, u64) {
        let mut corrupted = 0;
        let mut dropped = 0;
        for &id in &self.tx_ports {
            if let Some(f) = &sim.actor::<TxPort>(id).fault {
                corrupted += f.injected;
                dropped += f.dropped;
            }
        }
        (corrupted, dropped)
    }

    /// Sum of CRC failures observed across all router stages.
    pub fn total_crc_failures(&self, sim: &Simulator) -> u64 {
        self.router_ids
            .iter()
            .map(|&id| sim.actor::<RouterActor>(id).crc_failures)
            .sum()
    }

    /// Total packets routed across all stages (a packet through k stages
    /// counts k times).
    pub fn total_stage_crossings(&self, sim: &Simulator) -> u64 {
        self.router_ids
            .iter()
            .map(|&id| sim.actor::<RouterActor>(id).packets_routed)
            .sum()
    }

    /// Predicted uncontended head latency from `s` to `d` for a packet of
    /// `wire_bytes`, per the cut-through timing model: one fall-through and
    /// one wire hop per stage, plus the injection wire hop and the final
    /// serialization.
    pub fn uncontended_latency(&self, s: u16, d: u16, wire_bytes: u64) -> SimDuration {
        let stages = self.tree.path_stages(s, d) as u64;
        let per_stage = FALL_THROUGH + WIRE_LATENCY;
        let ser = SimDuration::for_bytes_at(wire_bytes, LINK_MBYTE_PER_SEC);
        WIRE_LATENCY + per_stage * stages + ser
    }
}

/// A simple endpoint that records every delivery: used by tests and
/// measurement harnesses.
#[derive(Default)]
pub struct SinkEndpoint {
    pub deliveries: Vec<(SimTime, Packet)>,
    pub corrupted: u64,
}

impl Actor for SinkEndpoint {
    fn on_event(&mut self, ev: Payload, ctx: &mut Ctx<'_>) {
        let Ok(d) = ev.downcast::<Delivered>() else {
            panic!("sink expects Delivered events");
        };
        if d.pkt.corrupted {
            self.corrupted += 1;
        }
        self.deliveries.push((ctx.now(), d.pkt));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Priority;

    fn build(n: u16, cfg: ArcticConfig) -> (Simulator, ArcticNetwork) {
        let mut sim = Simulator::new();
        let eps: Vec<ActorId> = (0..n)
            .map(|_| sim.add_actor(SinkEndpoint::default()))
            .collect();
        let net = ArcticNetwork::build(&mut sim, &eps, cfg);
        (sim, net)
    }

    fn t_us(us: f64) -> SimTime {
        SimTime::from_us_f64(us)
    }

    #[test]
    fn single_packet_latency_matches_model() {
        let (mut sim, net) = build(16, ArcticConfig::default());
        let pkt = Packet::new(0, 15, Priority::High, 1, vec![1, 2]);
        let wire = pkt.wire_bytes();
        net.inject_at(&mut sim, SimTime::ZERO, pkt);
        sim.run();
        let sink = sim.actor::<SinkEndpoint>(net.endpoint(15));
        assert_eq!(sink.deliveries.len(), 1);
        let (at, _) = &sink.deliveries[0];
        let expected = net.uncontended_latency(0, 15, wire);
        assert_eq!(at.since(SimTime::ZERO), expected);
        // 7 stages for a worst-case 16-endpoint path; latency ~1.2 us for a
        // 16-byte packet — the order of the paper's measured 1.3 us.
        let us = expected.as_us_f64();
        assert!((1.0..1.5).contains(&us), "unexpected latency {us} us");
    }

    #[test]
    fn same_leaf_path_is_short() {
        let (mut sim, net) = build(16, ArcticConfig::default());
        let pkt = Packet::new(2, 3, Priority::High, 0, vec![0, 0]);
        let wire = pkt.wire_bytes();
        net.inject_at(&mut sim, SimTime::ZERO, pkt);
        sim.run();
        let expected = net.uncontended_latency(2, 3, wire);
        assert!(expected.as_us_f64() < 0.4, "1-stage path should be fast");
        let sink = sim.actor::<SinkEndpoint>(net.endpoint(3));
        assert_eq!(sink.deliveries[0].0.since(SimTime::ZERO), expected);
    }

    #[test]
    fn source_spread_uproute_preserves_fifo_order() {
        let (mut sim, net) = build(16, ArcticConfig::default());
        for i in 0..50u32 {
            let pkt = Packet::new(1, 14, Priority::Low, 7, vec![i, 0]);
            net.inject_at(&mut sim, SimTime::ZERO, pkt);
        }
        sim.run();
        let sink = sim.actor::<SinkEndpoint>(net.endpoint(14));
        assert_eq!(sink.deliveries.len(), 50);
        let order: Vec<u32> = sink.deliveries.iter().map(|(_, p)| p.payload[0]).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>(), "FIFO violated");
    }

    #[test]
    fn high_priority_overtakes_queued_low() {
        let (mut sim, net) = build(16, ArcticConfig::default());
        // Saturate the path with low-priority packets, then inject one
        // high-priority packet slightly later.
        for i in 0..20u32 {
            let pkt = Packet::new(0, 15, Priority::Low, 0, vec![i; 22]);
            net.inject_at(&mut sim, SimTime::ZERO, pkt);
        }
        let hi = Packet::new(0, 15, Priority::High, 1, vec![999, 0]);
        net.inject_at(&mut sim, t_us(1.0), hi);
        sim.run();
        let sink = sim.actor::<SinkEndpoint>(net.endpoint(15));
        assert_eq!(sink.deliveries.len(), 21);
        let pos = sink
            .deliveries
            .iter()
            .position(|(_, p)| p.usr_tag == 1)
            .unwrap();
        assert!(
            pos < 8,
            "high-priority packet was blocked behind {pos} low-priority packets"
        );
    }

    #[test]
    fn corrupted_packet_is_flagged_not_dropped() {
        let (mut sim, net) = build(16, ArcticConfig::default());
        let mut pkt = Packet::new(0, 9, Priority::High, 0, vec![5, 6]);
        pkt.flip_bit(0, 0); // corrupt after CRC computation
        net.inject_at(&mut sim, SimTime::ZERO, pkt);
        sim.run();
        assert!(net.total_crc_failures(&sim) >= 1);
        let sink = sim.actor::<SinkEndpoint>(net.endpoint(9));
        assert_eq!(sink.deliveries.len(), 1);
        assert_eq!(sink.corrupted, 1, "endpoint must see the 1-bit status");
    }

    #[test]
    fn bisection_pairs_sustain_full_bandwidth() {
        // 8 simultaneous disjoint pairs crossing the bisection: each pair
        // should see the same completion time as a single pair (fat-tree
        // non-blocking claim, §4.1 "multiple simultaneous transfers with
        // undiminished pair-wise bandwidth").
        let cfg = ArcticConfig::default();
        let pairs: Vec<(u16, u16)> = (0..8u16).map(|i| (i, i + 8)).collect();
        let npkts = 100;

        let solo_time = {
            let (mut sim, net) = build(16, cfg);
            for i in 0..npkts {
                let pkt = Packet::new(0, 8, Priority::Low, (i % 0x7FF) as u16, vec![0; 22]);
                net.inject_at(&mut sim, SimTime::ZERO, pkt);
            }
            sim.run();
            sim.now()
        };

        let (mut sim, net) = build(16, cfg);
        for &(s, d) in &pairs {
            for i in 0..npkts {
                let pkt = Packet::new(s, d, Priority::Low, (i % 0x7FF) as u16, vec![0; 22]);
                net.inject_at(&mut sim, SimTime::ZERO, pkt);
            }
        }
        sim.run();
        let all_time = sim.now();
        let ratio = all_time.as_us_f64() / solo_time.as_us_f64();
        assert!(
            ratio < 1.05,
            "bisection degraded: 8 pairs took {ratio:.2}x a single pair"
        );
    }

    #[test]
    fn random_uproute_spreads_load() {
        let cfg = ArcticConfig {
            uproute: UpRoute::Random,
            ..ArcticConfig::default()
        };
        let (mut sim, net) = build(16, cfg);
        for i in 0..200u32 {
            let pkt = Packet::new(0, 15, Priority::Low, 0, vec![i, 0]);
            net.inject_at(&mut sim, SimTime::ZERO, pkt);
        }
        sim.run();
        // All packets delivered even with random paths.
        let sink = sim.actor::<SinkEndpoint>(net.endpoint(15));
        assert_eq!(sink.deliveries.len(), 200);
        // Load on the two up-ports of the source's leaf router should be
        // split, not all on one port.
        let leaf_id = {
            let (leaf, _) = net.tree().leaf_of(0);
            // router ids are level-major; leaf index = word
            net.router_ids[leaf.word as usize]
        };
        let r = sim.actor::<RouterActor>(leaf_id);
        let p0 = r.port_packets(up_port_index(0));
        let p1 = r.port_packets(up_port_index(1));
        assert!(
            p0 > 20 && p1 > 20,
            "random uproute unbalanced: {p0} vs {p1}"
        );
    }

    #[test]
    fn niu_stall_window_delays_queued_packets() {
        let (mut sim, net) = build(16, ArcticConfig::default());
        let plan = FaultPlan::new(0xF0).niu_stall(0, 0.0, 25.0);
        net.apply_fault_plan(&mut sim, &plan);
        let pkt = Packet::new(0, 15, Priority::High, 1, vec![1, 2]);
        let wire = pkt.wire_bytes();
        net.inject_at(&mut sim, SimTime::ZERO, pkt);
        // An unstalled endpoint is unaffected.
        let free = Packet::new(1, 14, Priority::High, 2, vec![3, 4]);
        let free_wire = free.wire_bytes();
        net.inject_at(&mut sim, SimTime::ZERO, free);
        sim.run();
        let expected = net.uncontended_latency(0, 15, wire);
        let stalled_at = sim.actor::<SinkEndpoint>(net.endpoint(15)).deliveries[0].0;
        assert_eq!(
            stalled_at.since(SimTime::ZERO),
            SimDuration::from_us_f64(25.0) + expected,
            "stalled packet must wait out the window"
        );
        let free_at = sim.actor::<SinkEndpoint>(net.endpoint(14)).deliveries[0].0;
        assert_eq!(
            free_at.since(SimTime::ZERO),
            net.uncontended_latency(1, 14, free_wire)
        );
        assert_eq!(net.stall_waits(&sim), 1);
    }

    #[test]
    fn link_window_faults_only_inside_the_window() {
        let (mut sim, net) = build(16, ArcticConfig::default());
        // Window [0, 5) us drops everything; afterwards the link is clean.
        let plan = FaultPlan::new(0xF1).link_window(0.0, 5.0, 0.0, 1.0);
        net.apply_fault_plan(&mut sim, &plan);
        for i in 0..4u32 {
            let pkt = Packet::new(0, 9, Priority::High, i as u16, vec![i, 0]);
            net.inject_at(&mut sim, SimTime::ZERO, pkt);
        }
        let late = Packet::new(0, 9, Priority::High, 99, vec![7, 0]);
        net.inject_at(&mut sim, t_us(6.0), late);
        sim.run();
        let sink = sim.actor::<SinkEndpoint>(net.endpoint(9));
        assert_eq!(sink.deliveries.len(), 1, "in-window packets must drop");
        assert_eq!(sink.deliveries[0].1.usr_tag, 99);
        let (_, dropped) = net.fault_counts(&sim);
        assert_eq!(dropped, 4);
    }

    #[test]
    fn dropping_a_stalled_backlog_does_not_recurse() {
        // 50 000 packets queue behind an NIU stall; when it lifts, the
        // drop window discards every one of them within a single pump.
        const BACKLOG: u64 = 50_000;
        let (mut sim, net) = build(16, ArcticConfig::default());
        let plan = FaultPlan::new(0xF1)
            .niu_stall(0, 0.0, 25.0)
            .link_window(0.0, 100.0, 0.0, 1.0);
        net.apply_fault_plan(&mut sim, &plan);
        for i in 0..BACKLOG {
            let pkt = Packet::new(0, 9, Priority::Low, (i % 0x7FF) as u16, vec![i as u32, 0]);
            net.inject_at(&mut sim, SimTime::ZERO, pkt);
        }
        sim.run();
        assert_eq!(net.fault_counts(&sim).1, BACKLOG);
        let sink = sim.actor::<SinkEndpoint>(net.endpoint(9));
        assert!(sink.deliveries.is_empty(), "every packet must drop");
    }

    #[test]
    fn plan_injection_is_deterministic() {
        let run = || {
            let (mut sim, net) = build(16, ArcticConfig::default());
            let plan = FaultPlan::new(0xF2).link_window(0.0, 100.0, 0.5, 0.2);
            net.apply_fault_plan(&mut sim, &plan);
            for i in 0..50u32 {
                let pkt = Packet::new(0, 15, Priority::Low, (i % 0x7FF) as u16, vec![i, 0]);
                net.inject_at(&mut sim, SimTime::ZERO, pkt);
            }
            sim.run();
            let sink = sim.actor::<SinkEndpoint>(net.endpoint(15));
            (
                net.fault_counts(&sim),
                sink.deliveries.len(),
                sink.corrupted,
            )
        };
        let a = run();
        assert_eq!(a, run(), "plan-driven faults must be deterministic");
        assert!(a.0 .0 > 0 && a.0 .1 > 0, "window rates must bite: {a:?}");
    }

    #[test]
    fn self_send_loops_through_leaf() {
        let (mut sim, net) = build(4, ArcticConfig::default());
        let pkt = Packet::new(2, 2, Priority::High, 0, vec![42, 0]);
        net.inject_at(&mut sim, SimTime::ZERO, pkt);
        sim.run();
        let sink = sim.actor::<SinkEndpoint>(net.endpoint(2));
        assert_eq!(sink.deliveries.len(), 1);
        assert_eq!(sink.deliveries[0].1.payload[0], 42);
    }
}
