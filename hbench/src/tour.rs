//! `cluster_tour`: the simulated-cluster front door. One repetition runs
//! the four `core::tour` entry points (profiling, run-health,
//! critical-path, fault-recovery) and writes the merged artifact bundle.
//! Tiles are 8×4, so `gcm` kernels do almost nothing here: this is the
//! bypass workload for kernel work, and per-call overheads of `comms`
//! worlds, `telemetry`, `fault` and `perf` dominate. `core::tour` runs 4
//! rank threads — the program's shape, not the harness's.

use crate::harness::{time_calls, Digest, Outcome, Workload};
use crate::metrics::LayerMetrics;
use crate::trace::Tracer;
use hyades::tour::TourConfig;
use hyades_cluster::ethernet_sim::{
    EtherFrame, EtherSink, EthernetSim, FAST_ETHERNET_MBYTE_PER_SEC,
};
use hyades_cluster::interconnect::{arctic_paper, ExchangeShape, Interconnect};
use hyades_comms::{CommWorld, SerialWorld, ThreadWorld, TimedWorld};
use hyades_des::{SimTime, Simulator};
use hyades_telemetry::{write_artifacts_to_dir, Exporter};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Steps of the profiling tour and of the three coupled tours.
const TOUR_STEPS: usize = 80;
const COUPLED_STEPS: usize = 20;

/// Exact values and sizes of the last repetition.
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    spans: usize,
    chrome_bytes: usize,
    bundle_bytes: usize,
    critpath_residual: f64,
    critpath_msgs: usize,
    model_residual: f64,
    step_residual: f64,
    restarts: u64,
    replayed_steps: u64,
    retries: u64,
    backoff_waits: u64,
}

pub struct ClusterTour {
    seed: u64,
    artifact_dir: PathBuf,
    last: Counts,
}

/// The tour's seed is folded into this range. Its recovery legs are the
/// `comms` protocol that panics on ~4 % of fault-plan seeds in
/// `comm_primitives` (see `comm.rs`); the four tours were run for every
/// seed below 1024 and all completed, and a benchmark may not run an
/// operation that fails.
const VETTED_SEEDS: u64 = 1024;

impl ClusterTour {
    pub fn new(seed: u64, artifact_dir: PathBuf) -> ClusterTour {
        ClusterTour {
            seed: seed % VETTED_SEEDS,
            artifact_dir,
            last: Counts::default(),
        }
    }
}

impl Workload for ClusterTour {
    fn rep(&mut self, tracer: &Tracer) -> Outcome {
        let mut out = Outcome::default();
        let cfg = TourConfig::new(self.seed)
            .steps(TOUR_STEPS)
            .coupled_steps(COUPLED_STEPS);
        let tour = tracer.span("core.tour", || cfg.run_tour());
        let diag = tracer.span("core.diag", || cfg.run_coupled_diag());
        let crit = tracer.span("core.critpath", || cfg.run_critpath());
        let faulty = cfg
            .clone()
            .fault_plan(TourConfig::demo_fault_plan(self.seed));
        let rec = tracer.span("core.resilient", || faulty.run_resilient());
        let bundle = tour
            .exporter()
            .extend_from(&diag.exporter())
            .extend_from(&crit.exporter("critpath"))
            .extend_from(&rec.exporter());
        let written = tracer.span("telemetry.export", || {
            write_artifacts_to_dir(&bundle, &self.artifact_dir)
        });

        out.check(written.is_ok());
        out.check(diag.sentinel_trips == 0);
        out.check(rec.recovered_identical);
        out.check(rec.json.contains("\"gsum_exact_under_faults\": true"));
        out.check(rec.restarts >= 1);
        out.check(rec.retries >= 1);
        // Every artifact byte-identical across repetitions.
        let mut d = Digest::default();
        let mut bundle_bytes = 0;
        for a in bundle.artifacts() {
            d.bytes(a.file_name().as_bytes());
            d.bytes(a.bytes.as_bytes());
            bundle_bytes += a.bytes.len();
        }
        out.digest = d.finish();
        self.last = Counts {
            spans: tour.span_count,
            chrome_bytes: tour.chrome_json.len() + crit.chrome_json.len(),
            bundle_bytes,
            critpath_residual: crit.max_step_residual,
            critpath_msgs: crit.messages,
            model_residual: tour.max_abs_residual,
            step_residual: tour.max_step_residual,
            restarts: rec.restarts,
            replayed_steps: rec.replayed_steps,
            retries: rec.retries,
            backoff_waits: rec.backoff_waits,
        };
        out
    }

    fn layer_metrics(&mut self, tracer: &Tracer, _wall_s: f64, m: &mut LayerMetrics) {
        for (span, metric) in [
            ("core.tour", "core.tour_s"),
            ("core.diag", "core.diag_s"),
            ("core.critpath", "core.critpath_s"),
            ("core.resilient", "core.resilient_s"),
            ("telemetry.export", "telemetry.export_s"),
        ] {
            m.set(metric, tracer.per_rep(span).total_s);
        }
        let c = self.last;
        m.set("telemetry.spans", c.spans as f64);
        m.set("telemetry.chrome_bytes", c.chrome_bytes as f64);
        m.set("telemetry.bundle_bytes", c.bundle_bytes as f64);
        m.set("telemetry.critpath_residual", c.critpath_residual);
        m.set("telemetry.critpath_msgs", c.critpath_msgs as f64);
        m.set("perf.model_residual", c.model_residual);
        m.set("perf.step_residual", c.step_residual);
        m.set("fault.restarts", c.restarts as f64);
        m.set("fault.replayed_steps", c.replayed_steps as f64);
        m.set("fault.retries", c.retries as f64);
        m.set("fault.backoff_waits", c.backoff_waits as f64);

        let (exchange, gsum) = thread_world_rates();
        m.set("comms.thread_exchange_per_s", exchange);
        m.set("comms.thread_gsum_per_s", gsum);
        m.set("comms.timed_ns_per_op", timed_world_ns_per_op());
        m.set("cluster.model_calls_per_s", model_calls_per_s());
        m.set("cluster.ether_frames_per_s", ether_frames_per_s());
    }
}

/// Halo-sized ring exchanges and global sums per second between two
/// `ThreadWorld` ranks (rank 0's clock).
fn thread_world_rates() -> (f64, f64) {
    const OPS: usize = 20_000;
    let rates = ThreadWorld::run(2, |w| {
        let peer = 1 - w.rank();
        let t0 = Instant::now();
        for _ in 0..OPS {
            black_box(w.exchange(vec![(peer, vec![1.0; 96])]));
        }
        let exchange = OPS as f64 / t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for i in 0..OPS {
            black_box(w.global_sum(i as f64));
        }
        (exchange, OPS as f64 / t0.elapsed().as_secs_f64())
    });
    rates[0]
}

/// What `TimedWorld`'s charging adds to one serial primitive call.
fn timed_world_ns_per_op() -> f64 {
    fn ops(w: &mut dyn CommWorld) {
        for i in 0..2_000 {
            black_box(w.exchange(vec![(0, vec![1.0; 96])]));
            black_box(w.global_sum(i as f64));
        }
    }
    let bare = time_calls(|| ops(&mut SerialWorld));
    let net = arctic_paper();
    let timed = time_calls(|| ops(&mut TimedWorld::new(&mut SerialWorld, &net)));
    (timed - bare) * 1e9 / 4_000.0
}

/// Analytical interconnect model evaluations per second.
fn model_calls_per_s() -> f64 {
    let net = arctic_paper();
    let shape = ExchangeShape::square_tile(32, 3, 5, 8);
    const CALLS: usize = 1_000;
    let t = time_calls(|| {
        for n in 0..CALLS {
            black_box(net.exchange_time(black_box(&shape)));
            black_box(net.gsum_time(2 << (n % 4)));
        }
    });
    2.0 * CALLS as f64 / t
}

/// The hammered-port Ethernet contrast: 15 senders, one victim port.
fn ether_frames_per_s() -> f64 {
    const PER_SENDER: usize = 10;
    let t = time_calls(|| {
        let mut sim = Simulator::new();
        let eps: Vec<_> = (0..16)
            .map(|_| sim.add_actor(EtherSink::default()))
            .collect();
        let enet = EthernetSim::build(&mut sim, &eps, FAST_ETHERNET_MBYTE_PER_SEC);
        for s in 1..16u16 {
            for i in 0..PER_SENDER {
                enet.inject_at(
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
    });
    (15 * PER_SENDER) as f64 / t
}
