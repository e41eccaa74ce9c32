//! The fabric observatory: per-link time series, hotspot detection, and
//! deterministic exporters.
//!
//! [`Observatory::attach`] installs the thread-local sampler and plants a
//! [`SamplerActor`] that ticks every router and injection port at a fixed
//! simulated interval; each target answers by reporting queue occupancy,
//! link-busy time, and flow-control stalls (see `router::sample`). After
//! the simulation runs, [`Observatory::collect`] folds the samples and the
//! routers' own counters into a [`FabricReport`]:
//!
//! * a [`LinkSummary`] per wired output link (utilization, occupancy
//!   mean/p99/max, stalls, traffic totals),
//! * a [`Hotspot`] per link whose sampled occupancy p99 exceeds the
//!   configured threshold, naming the flows that fed it,
//! * fault-injection and CRC-failure totals, so faults are visible in the
//!   manifest rather than silently absorbed.
//!
//! Two exporters render the report: [`FabricReport::prometheus`]
//! (Prometheus text exposition) and [`FabricReport::json_manifest`]
//! (a per-run JSON document). Both use fixed six-decimal formatting and
//! sorted iteration only, so same-seed double runs are byte-identical
//! (asserted by `tests/determinism.rs`).

use crate::network::ArcticNetwork;
use crate::router::{RouterActor, PORTS};
use hyades_des::{ActorId, SimDuration, SimTime, Simulator};
use hyades_telemetry::export::escape;
use hyades_telemetry::prom::{fixed, PromText};
use hyades_telemetry::sampler::{self, SampleSet, SamplerActor};
use std::fmt::Write as _;

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
    pub samples: usize,
    /// Mean fraction of each sampling window the link spent serializing.
    pub util_mean: f64,
    pub occ_mean: f64,
    pub occ_p99: f64,
    pub occ_max: f64,
    /// Flow-control stalls resolved at this link: count and total time.
    pub stalls: u64,
    pub stall_us: f64,
    pub packets: u64,
    pub bytes: u64,
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
    pub n_endpoints: u16,
    pub interval_us: f64,
    pub ticks: u64,
    pub links: Vec<LinkSummary>,
    pub hotspots: Vec<Hotspot>,
    pub faults_corrupted: u64,
    pub faults_dropped: u64,
    pub crc_failures: u64,
    /// The raw sample set (NIU series included), for ad-hoc queries.
    pub samples: SampleSet,
}

/// Handle returned by [`Observatory::attach`]; collect after `sim.run()`.
pub struct Observatory {
    cfg: ObservatoryConfig,
    sampler_id: ActorId,
}

impl Observatory {
    /// Install the thread-local sampler and start the sampling actor over
    /// every router and injection port of `net`.
    pub fn attach(sim: &mut Simulator, net: &ArcticNetwork, cfg: ObservatoryConfig) -> Observatory {
        sampler::install(cfg.interval);
        let sampler_id = SamplerActor::start(sim, net.sampler_targets(), cfg.interval, cfg.until);
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
                let (packets, bytes, _) = r.port_stats(port);
                let (stalls, stall_ps) = r.port_stalls(port);
                let (occ_mean, occ_p99, occ_max, n) = match occ {
                    Some(s) => (s.mean(), s.p99(), s.max(), s.len()),
                    None => (0.0, 0.0, 0.0, 0),
                };
                let util_mean = match busy {
                    Some(s) if interval_us > 0.0 => s.mean() / interval_us,
                    _ => 0.0,
                };
                let summary = LinkSummary {
                    entity: entity.clone(),
                    samples: n,
                    util_mean,
                    occ_mean,
                    occ_p99,
                    occ_max,
                    stalls,
                    stall_us: stall_ps as f64 / 1e6,
                    packets,
                    bytes,
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
                        stall_us: stall_ps as f64 / 1e6,
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
            n_endpoints: net.n_endpoints(),
            interval_us,
            ticks,
            links,
            hotspots,
            faults_corrupted,
            faults_dropped,
            crc_failures: net.total_crc_failures(sim),
            samples,
        }
    }
}

impl FabricReport {
    /// Prometheus text exposition (see module docs; byte-identical across
    /// same-seed runs).
    pub fn prometheus(&self) -> String {
        let mut p = PromText::new();
        p.type_line("hyades_fabric_ticks", "gauge");
        p.sample("hyades_fabric_ticks", &[], self.ticks as f64);
        p.type_line("hyades_fabric_endpoints", "gauge");
        p.sample("hyades_fabric_endpoints", &[], self.n_endpoints as f64);

        p.type_line("hyades_link_util_mean", "gauge");
        for l in &self.links {
            p.sample("hyades_link_util_mean", &[("link", &l.entity)], l.util_mean);
        }
        p.type_line("hyades_link_occ", "gauge");
        for l in &self.links {
            p.sample(
                "hyades_link_occ",
                &[("link", &l.entity), ("agg", "mean")],
                l.occ_mean,
            );
            p.sample(
                "hyades_link_occ",
                &[("link", &l.entity), ("agg", "p99")],
                l.occ_p99,
            );
            p.sample(
                "hyades_link_occ",
                &[("link", &l.entity), ("agg", "max")],
                l.occ_max,
            );
        }
        p.type_line("hyades_link_stall_us_total", "counter");
        for l in &self.links {
            p.sample(
                "hyades_link_stall_us_total",
                &[("link", &l.entity)],
                l.stall_us,
            );
        }
        p.type_line("hyades_link_packets_total", "counter");
        for l in &self.links {
            p.sample(
                "hyades_link_packets_total",
                &[("link", &l.entity)],
                l.packets as f64,
            );
        }
        p.type_line("hyades_link_bytes_total", "counter");
        for l in &self.links {
            p.sample(
                "hyades_link_bytes_total",
                &[("link", &l.entity)],
                l.bytes as f64,
            );
        }

        // NIU injection-port series, straight from the sample set
        // (BTreeMap order).
        p.type_line("hyades_niu_busy_us_total", "counter");
        for (k, s) in self.samples.iter() {
            if k.component == "arctic.niu" && k.metric == "busy_us" {
                let total: f64 = s.points.iter().map(|&(_, v)| v).sum();
                p.sample("hyades_niu_busy_us_total", &[("ep", &k.entity)], total);
            }
        }

        p.type_line("hyades_fabric_hotspot_occ_p99", "gauge");
        for h in &self.hotspots {
            p.sample(
                "hyades_fabric_hotspot_occ_p99",
                &[("link", &h.entity)],
                h.occ_p99,
            );
        }
        p.type_line("hyades_fault_total", "counter");
        p.sample(
            "hyades_fault_total",
            &[("kind", "corrupted")],
            self.faults_corrupted as f64,
        );
        p.sample(
            "hyades_fault_total",
            &[("kind", "dropped")],
            self.faults_dropped as f64,
        );
        p.type_line("hyades_crc_failures_total", "counter");
        p.sample("hyades_crc_failures_total", &[], self.crc_failures as f64);
        p.finish()
    }

    /// Deterministic per-run JSON manifest. `run` names the scenario;
    /// `seed` records what seeded it.
    pub fn json_manifest(&self, run: &str, seed: u64) -> String {
        let mut o = String::new();
        let _ = write!(
            o,
            "{{\n  \"run\": \"{}\",\n  \"seed\": {seed},\n  \"n_endpoints\": {},\n  \
             \"interval_us\": {},\n  \"ticks\": {},\n  \"hotspot_occ_p99_threshold\": {},\n",
            escape(run),
            self.n_endpoints,
            fixed(self.interval_us),
            self.ticks,
            fixed(HOTSPOT_OCC_P99),
        );
        o.push_str("  \"links\": [\n");
        for (i, l) in self.links.iter().enumerate() {
            let _ = writeln!(
                o,
                "    {{\"link\": \"{}\", \"samples\": {}, \"util_mean\": {}, \
                 \"occ_mean\": {}, \"occ_p99\": {}, \"occ_max\": {}, \"stalls\": {}, \
                 \"stall_us\": {}, \"packets\": {}, \"bytes\": {}}}{}",
                escape(&l.entity),
                l.samples,
                fixed(l.util_mean),
                fixed(l.occ_mean),
                fixed(l.occ_p99),
                fixed(l.occ_max),
                l.stalls,
                fixed(l.stall_us),
                l.packets,
                l.bytes,
                if i + 1 < self.links.len() { "," } else { "" },
            );
        }
        o.push_str("  ],\n  \"hotspots\": [\n");
        for (i, h) in self.hotspots.iter().enumerate() {
            let _ = write!(
                o,
                "    {{\"link\": \"{}\", \"occ_p99\": {}, \"util_mean\": {}, \
                 \"stall_us\": {}, \"flows\": [",
                escape(&h.entity),
                fixed(h.occ_p99),
                fixed(h.util_mean),
                fixed(h.stall_us),
            );
            for (j, f) in h.flows.iter().enumerate() {
                let _ = write!(
                    o,
                    "{}{{\"src\": {}, \"dst\": {}, \"packets\": {}}}",
                    if j > 0 { ", " } else { "" },
                    f.src,
                    f.dst,
                    f.packets,
                );
            }
            let _ = writeln!(
                o,
                "]}}{}",
                if i + 1 < self.hotspots.len() { "," } else { "" }
            );
        }
        let _ = write!(
            o,
            "  ],\n  \"faults\": {{\"corrupted\": {}, \"dropped\": {}, \"crc_failures\": {}}}\n}}\n",
            self.faults_corrupted, self.faults_dropped, self.crc_failures,
        );
        o
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
    fn exports_render_and_agree_with_the_report() {
        let rep = congested_run();
        let prom = rep.prometheus();
        assert!(prom.contains("# TYPE hyades_link_occ gauge"));
        assert!(prom.contains("hyades_fabric_hotspot_occ_p99{link=\"l0.w0.p0\"}"));
        let json = rep.json_manifest("congested", 0);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"run\": \"congested\""));
        assert!(json.contains("\"link\": \"l0.w0.p0\""));
        assert!(json.contains("\"faults\": {\"corrupted\": 0, \"dropped\": 0"));
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
