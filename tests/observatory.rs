//! Fabric-observatory integration tests: the analytical queue-occupancy
//! cross-check and fault visibility in the collected report.

use hyades::arctic::network::{ArcticConfig, ArcticNetwork, SinkEndpoint};
use hyades::arctic::observatory::{Observatory, ObservatoryConfig};
use hyades::arctic::packet::{Packet, Priority, UpRoute};
use hyades::arctic::workload::{run_traffic_observed, Pattern};
use hyades::des::sim::Simulator;
use hyades::des::time::SimTime;
use hyades::fault::FaultPlan;
use hyades::perf::queueing::{md1_mean_queue, mm1_mean_queue};

/// Cross-check the sampled leaf down-link occupancy against the
/// `perf::queueing` analytical models. See `md1_mean_queue`'s doc comment
/// for the systematic bias: arrivals are paced (smoother than Poisson,
/// pushing occupancy below M/M/1) while the 0.15 us fall-through holds
/// packets out of service (pushing it above M/D/1). The run is
/// deterministic, so the test pins the true [M/D/1, M/M/1] bracket:
/// measured 0.285 against md1 0.249 / mm1 0.498 at util ~0.5.
#[test]
fn sampled_occupancy_brackets_analytical_queue_models() {
    let (_, report) = run_traffic_observed(
        16,
        Pattern::UniformRandom,
        UpRoute::SourceSpread,
        0.5,
        400.0,
        0x0CC_CAFE,
        ObservatoryConfig::new(2.0, 800.0),
    );

    // Leaf down-links (l0.*.p0 / l0.*.p1): each aggregates the traffic of
    // 15 sources into one endpoint, the closest thing the fabric has to a
    // textbook single-server queue with near-Poisson arrivals.
    let mut n = 0u32;
    let (mut occ_sum, mut md1_sum, mut mm1_sum) = (0.0, 0.0, 0.0);
    for l in report.links.iter().filter(|l| {
        l.entity.starts_with("l0.") && (l.entity.ends_with(".p0") || l.entity.ends_with(".p1"))
    }) {
        let rho = l.util_mean.min(0.95);
        println!(
            "{}: util {:.3} occ_mean {:.3}  md1 {:.3} mm1 {:.3}",
            l.entity,
            l.util_mean,
            l.occ_mean,
            md1_mean_queue(rho),
            mm1_mean_queue(rho)
        );
        n += 1;
        occ_sum += l.occ_mean;
        md1_sum += md1_mean_queue(rho);
        mm1_sum += mm1_mean_queue(rho);
    }
    assert_eq!(n, 16, "expected one down-link per endpoint");
    let (occ, md1, mm1) = (occ_sum / n as f64, md1_sum / n as f64, mm1_sum / n as f64);
    println!("mean over {n} leaf down-links: occ {occ:.3}, md1 {md1:.3}, mm1 {mm1:.3}");
    assert!(
        occ > 0.05,
        "moderate load should show queueing (occ {occ:.3})"
    );
    assert!(
        occ > md1 && occ < mm1,
        "sampled occupancy {occ:.3} fell outside the [M/D/1, M/M/1] \
         bracket [{md1:.3}, {mm1:.3}]"
    );
}

/// Injected faults must be visible end to end, in the collected report.
#[test]
fn faults_surface_in_the_report() {
    let mut sim = Simulator::new();
    let eps: Vec<_> = (0..16)
        .map(|_| sim.add_actor(SinkEndpoint::default()))
        .collect();
    let net = ArcticNetwork::build(&mut sim, &eps, ArcticConfig::default());
    // One window spanning the whole run.
    let plan = FaultPlan::new(0xBAD_5EED).link_window(0.0, 1.0e9, 0.05, 0.05);
    net.apply_fault_plan(&mut sim, &plan);
    let obs = Observatory::attach(&mut sim, &net, ObservatoryConfig::new(5.0, 200.0));
    for i in 0..400u16 {
        let (src, dst) = (i % 16, (i * 7 + 3) % 16);
        if src == dst {
            continue;
        }
        net.inject_at(
            &mut sim,
            SimTime::from_us_f64((i as f64) * 0.25),
            Packet::new(src, dst, Priority::Low, i % 2048, vec![i as u32; 4]),
        );
    }
    sim.run();
    let report = obs.collect(&sim, &net);

    assert!(
        report.faults_corrupted > 0 && report.faults_dropped > 0,
        "5% fault rates over ~400 packets must fire (corrupted {}, dropped {})",
        report.faults_corrupted,
        report.faults_dropped
    );
}
