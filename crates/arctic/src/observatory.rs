//! The fabric observatory: per-link time series and hotspot detection.
//!
//! [`Observatory::attach`] installs the thread-local sampler and plants a
//! [`SamplerActor`] that ticks every router at a fixed simulated interval;
//! each router answers by reporting its output links' queue occupancy and
//! link-busy time (see `router::sample`). After the simulation runs,
//! [`Observatory::collect`] folds the samples and the routers' own
//! counters into a [`FabricReport`]:
//!
//! * a [`LinkSummary`] per wired output link (utilization, mean
//!   occupancy, packets),
//! * a [`Hotspot`] per link whose sampled occupancy p99 exceeds the
//!   configured threshold, naming the flows that fed it,
//! * fault-injection totals, so faults are visible in the report rather
//!   than silently absorbed.
//!
//! E15 prints the report; same-seed double runs collect bit-identical
//! reports (asserted by `tests/determinism.rs`).

use crate::network::ArcticNetwork;
use crate::router::{RouterActor, PORTS};
use hyades_des::{ActorId, SimDuration, SimTime, Simulator};
use hyades_telemetry::sampler::{self, SamplerActor};

/// A link is a hotspot when its sampled occupancy p99 exceeds this many
/// queued packets.
pub const HOTSPOT_OCC_P99: f64 = 4.0;

/// How many contributing flows a hotspot names.
const TOP_FLOWS: usize = 4;

/// Observatory configuration: when to sample.
#[derive(Clone, Copy, Debug)]
pub struct ObservatoryConfig {
    /// Sampling interval (simulated time).
    pub interval: SimDuration,
    /// Last tick time: the sampler expires here so the simulation drains.
    pub until: SimTime,
}

impl ObservatoryConfig {
    /// Sample every `interval_us` until `until_us`.
    pub fn new(interval_us: f64, until_us: f64) -> Self {
        ObservatoryConfig {
            interval: SimDuration::from_us_f64(interval_us),
            until: SimTime::from_us_f64(until_us),
        }
    }
}

/// One wired output link's summarized behaviour.
#[derive(Clone, Debug)]
pub struct LinkSummary {
    /// Sampler entity label (`l{level}.w{word}.p{port}`).
    pub entity: String,
    /// Mean fraction of each sampling window the link spent serializing.
    pub util_mean: f64,
    /// Mean sampled queue occupancy, in packets.
    pub occ_mean: f64,
    pub packets: u64,
}

/// A flow contributing to a hotspot link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowShare {
    pub src: u16,
    pub dst: u16,
    pub packets: u64,
}

/// A link whose sampled occupancy p99 exceeded the threshold.
#[derive(Clone, Debug)]
pub struct Hotspot {
    pub entity: String,
    pub occ_p99: f64,
    pub util_mean: f64,
    pub stall_us: f64,
    /// Top contributing flows by grant count (count desc, then (src,
    /// dst) asc — deterministic).
    pub flows: Vec<FlowShare>,
}

/// Everything the observatory saw in one run.
#[derive(Clone, Debug)]
pub struct FabricReport {
    pub ticks: u64,
    pub links: Vec<LinkSummary>,
    pub hotspots: Vec<Hotspot>,
    pub faults_corrupted: u64,
    pub faults_dropped: u64,
}

/// Handle returned by [`Observatory::attach`]; collect after `sim.run()`.
pub struct Observatory {
    cfg: ObservatoryConfig,
    sampler_id: ActorId,
}

impl Observatory {
    /// Install the thread-local sampler and start the sampling actor over
    /// every router of `net`.
    pub fn attach(sim: &mut Simulator, net: &ArcticNetwork, cfg: ObservatoryConfig) -> Observatory {
        sampler::install(cfg.interval);
        let targets = net.router_actor_ids().to_vec();
        let sampler_id = SamplerActor::start(sim, targets, cfg.interval, cfg.until);
        Observatory { cfg, sampler_id }
    }

    /// Fold the sampled series and router counters into a report. Call
    /// after the simulation has run.
    pub fn collect(self, sim: &Simulator, net: &ArcticNetwork) -> FabricReport {
        let samples = sampler::take().unwrap_or_else(|| {
            // The store can only be missing if someone re-installed the
            // sampler mid-run; treat as an empty observation.
            sampler::install(self.cfg.interval);
            sampler::take().unwrap_or_else(|| unreachable!("sampler was just installed"))
        });
        let interval_us = self.cfg.interval.as_ps() as f64 / 1e6;
        let ticks = sim.actor::<SamplerActor>(self.sampler_id).ticks;

        let mut links = Vec::new();
        let mut hotspots = Vec::new();
        for (addr, &id) in net.tree().routers().zip(net.router_actor_ids()) {
            let r = sim.actor::<RouterActor>(id);
            for port in 0..PORTS {
                if !r.port_is_wired(port) {
                    continue;
                }
                let entity = RouterActor::link_entity(addr, port);
                let occ = samples.get("arctic.link", &entity, "occ");
                let busy = samples.get("arctic.link", &entity, "busy_us");
                let (occ_mean, occ_p99) = match occ {
                    Some(s) => (s.mean(), s.p99()),
                    None => (0.0, 0.0),
                };
                let util_mean = match busy {
                    Some(s) if interval_us > 0.0 => s.mean() / interval_us,
                    _ => 0.0,
                };
                let summary = LinkSummary {
                    entity: entity.clone(),
                    util_mean,
                    occ_mean,
                    packets: r.port_packets(port),
                };
                if occ_p99 > HOTSPOT_OCC_P99 {
                    let mut flows: Vec<FlowShare> = r
                        .port_flows(port)
                        .into_iter()
                        .map(|((src, dst), packets)| FlowShare { src, dst, packets })
                        .collect();
                    flows.sort_by(|a, b| {
                        b.packets
                            .cmp(&a.packets)
                            .then((a.src, a.dst).cmp(&(b.src, b.dst)))
                    });
                    flows.truncate(TOP_FLOWS);
                    hotspots.push(Hotspot {
                        entity,
                        occ_p99,
                        util_mean,
                        stall_us: r.port_stall_ps(port) as f64 / 1e6,
                        flows,
                    });
                }
                links.push(summary);
            }
        }
        // Worst hotspots first; entity breaks ties deterministically.
        hotspots.sort_by(|a, b| {
            b.occ_p99
                .total_cmp(&a.occ_p99)
                .then(a.entity.cmp(&b.entity))
        });

        let (faults_corrupted, faults_dropped) = net.fault_counts(sim);
        FabricReport {
            ticks,
            links,
            hotspots,
            faults_corrupted,
            faults_dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{ArcticConfig, SinkEndpoint};
    use crate::packet::{Packet, Priority};

    fn congested_run() -> FabricReport {
        let mut sim = Simulator::new();
        let eps: Vec<ActorId> = (0..16)
            .map(|_| sim.add_actor(SinkEndpoint::default()))
            .collect();
        let net = ArcticNetwork::build(&mut sim, &eps, ArcticConfig::default());
        let obs = Observatory::attach(&mut sim, &net, ObservatoryConfig::new(2.0, 120.0));
        // Hammer endpoint 0's down-link from many sources: a guaranteed
        // hotspot at the leaf.
        for s in 1..16u16 {
            for i in 0..30u32 {
                let pkt = Packet::new(s, 0, Priority::Low, (i % 0x7FF) as u16, vec![i; 22]);
                net.inject_at(&mut sim, SimTime::ZERO, pkt);
            }
        }
        sim.run();
        obs.collect(&sim, &net)
    }

    #[test]
    fn congestion_is_detected_with_contributing_flows() {
        let rep = congested_run();
        assert!(rep.ticks > 0);
        assert!(!rep.links.is_empty());
        assert!(
            !rep.hotspots.is_empty(),
            "a 15-to-1 hammer must produce a hotspot"
        );
        // The worst hotspot is the victim's leaf down-link, fed by flows
        // all destined for endpoint 0.
        let h = &rep.hotspots[0];
        assert_eq!(h.entity, "l0.w0.p0", "expected the leaf down-link: {h:?}");
        assert!(!h.flows.is_empty());
        assert!(h.flows.iter().all(|f| f.dst == 0), "{:?}", h.flows);
        assert!(h.occ_p99 > HOTSPOT_OCC_P99);
        assert!(h.stall_us > 0.0, "congestion must show up as stalls");
    }

    #[test]
    fn quiet_fabric_has_no_hotspots() {
        let mut sim = Simulator::new();
        let eps: Vec<ActorId> = (0..4)
            .map(|_| sim.add_actor(SinkEndpoint::default()))
            .collect();
        let net = ArcticNetwork::build(&mut sim, &eps, ArcticConfig::default());
        let obs = Observatory::attach(&mut sim, &net, ObservatoryConfig::new(2.0, 20.0));
        net.inject_at(
            &mut sim,
            SimTime::ZERO,
            Packet::new(0, 3, Priority::High, 1, vec![1, 2]),
        );
        sim.run();
        let rep = obs.collect(&sim, &net);
        assert!(rep.hotspots.is_empty());
        let active = rep.links.iter().filter(|l| l.packets > 0).count();
        assert_eq!(active, 3, "one 3-stage path");
    }
}
