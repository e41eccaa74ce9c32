//! E15 — fabric observatory: per-link telemetry of the Arctic fat-tree
//! versus the Ethernet baseline.
//!
//! The paper argues (§2.2, §6) that Arctic sustains fine-grain GCM
//! communication where Ethernet cannot. This experiment makes the claim
//! observable at the *link* level: it runs the deterministic-routing
//! adversary (bit-reverse at 0.8 offered load) with the fabric
//! observatory attached, reports the congested links and the flows that
//! feed them, then shows how the random up-route disperses the same
//! traffic — and contrasts both with a hammered single-switch Ethernet
//! port, where no path diversity exists to disperse anything.

use hyades_arctic::observatory::{ObservatoryConfig, HOTSPOT_OCC_P99};
use hyades_arctic::packet::UpRoute;
use hyades_arctic::workload::{run_traffic_observed, Pattern};
use hyades_cluster::ethernet_sim::{
    EtherFrame, EtherSink, EthernetSim, FAST_ETHERNET_MBYTE_PER_SEC,
};
use hyades_des::{SimDuration, SimTime, Simulator};
use hyades_telemetry::sampler;
use std::fmt::Write as _;

/// Fixed seed: the experiment is a regression artefact, not a sweep.
const SEED: u64 = 0x0B5_E7A;
const MEASURE_US: f64 = 400.0;

pub fn run() -> String {
    let mut out = String::new();
    out.push_str("E15: fabric observatory — per-link telemetry under congestion\n\n");

    let obs = ObservatoryConfig::new(5.0, 2.0 * MEASURE_US);
    let (det, det_rep) = run_traffic_observed(
        16,
        Pattern::BitReverse,
        UpRoute::SourceSpread,
        0.8,
        MEASURE_US,
        SEED,
        obs,
    );
    let _ = writeln!(
        out,
        "[arctic, bit-reverse 0.8 load, source-spread uproute]\n\
         delivered {:.0} MB/s, mean latency {:.1} us, {} hotspot link(s) \
         (occ p99 > {:.0})",
        det.delivered_mbyte_per_sec,
        det.latency.mean(),
        det_rep.hotspots.len(),
        HOTSPOT_OCC_P99,
    );
    for h in det_rep.hotspots.iter().take(4) {
        let _ = write!(
            out,
            "  {}: occ p99 {:.1}, util {:.2}, stalled {:.0} us; fed by",
            h.entity, h.occ_p99, h.util_mean, h.stall_us
        );
        for f in &h.flows {
            let _ = write!(out, " {}->{} ({} pkts)", f.src, f.dst, f.packets);
        }
        out.push('\n');
    }

    let (rnd, rnd_rep) = run_traffic_observed(
        16,
        Pattern::BitReverse,
        UpRoute::Random,
        0.8,
        MEASURE_US,
        SEED,
        obs,
    );
    let _ = writeln!(
        out,
        "\n[arctic, same traffic, random uproute]\n\
         delivered {:.0} MB/s, mean latency {:.1} us, {} hotspot link(s) — \
         path diversity disperses the funnel",
        rnd.delivered_mbyte_per_sec,
        rnd.latency.mean(),
        rnd_rep.hotspots.len(),
    );

    // Ethernet contrast: hammer one port of a store-and-forward switch.
    let mut sim = Simulator::new();
    let eps: Vec<_> = (0..16)
        .map(|_| sim.add_actor(EtherSink::default()))
        .collect();
    let net = EthernetSim::build(&mut sim, &eps, FAST_ETHERNET_MBYTE_PER_SEC);
    net.observe(
        &mut sim,
        SimDuration::from_us(50),
        SimTime::from_us_f64(20_000.0),
    );
    for s in 1..16u16 {
        for i in 0..10 {
            net.inject_at(
                &mut sim,
                SimTime::from_us_f64(i as f64 * 3.0),
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
    let samples = sampler::take().map(|s| {
        s.get("ether.link", "p0", "occ")
            .map(|occ| (occ.mean(), occ.p99(), occ.max()))
            .unwrap_or((0.0, 0.0, 0.0))
    });
    let (occ_mean, occ_p99, occ_max) = samples.unwrap_or((0.0, 0.0, 0.0));
    let (packets, max_q, stalls, stall_ps) = net.port_stats(&sim, 0);
    let _ = writeln!(
        out,
        "\n[fast ethernet switch, 15-to-1 hammer on port 0]\n\
         {} frames through one 12.5 MB/s port: occ mean {:.1} / p99 {:.1} / \
         max {:.0}, {} stalls totalling {:.0} us, peak queue {}",
        packets,
        occ_mean,
        occ_p99,
        occ_max,
        stalls,
        stall_ps as f64 / 1e6,
        max_q,
    );
    let _ = writeln!(
        out,
        "\nThe fat-tree's congestion is a *routing* artefact (random uproute \
         removes it); the Ethernet queue is *structural* — one port, no \
         diversity. This is the interconnect-level view behind Figure 12."
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_shows_hotspots_and_both_fabrics() {
        let r = super::run();
        assert!(r.contains("hotspot link(s)"), "{r}");
        assert!(r.contains("source-spread uproute"), "{r}");
        assert!(r.contains("random uproute"), "{r}");
        assert!(r.contains("fast ethernet switch"), "{r}");
        assert!(r.contains("fed by"), "hotspot flows must be named:\n{r}");
    }

    #[test]
    fn deterministic_double_run() {
        assert_eq!(super::run(), super::run());
    }
}
