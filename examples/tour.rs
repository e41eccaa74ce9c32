//! The tour front door: the four `core::tour` runs on the simulated
//! 4-rank cluster, one merged artifact bundle, three verdicts.
//!
//! ```sh
//! cargo run --release --example tour
//! ```
//!
//! * profiling (E14) — instrumented GCM + DES microbench, model-vs-measured
//!   phase report;
//! * run health (E18) — monitored coupled pair, blowup sentinel armed;
//! * critical path (E19) — balanced run, then rank 2 slowed by 50 Mflop of
//!   PS compute per step;
//! * fault recovery (E21) — planned rank crash, lossy link window and NIU
//!   stall.
//!
//! Every artifact lands in `target/tour/` through the unified exporter
//! (load `trace.json` / `critpath_trace.json` in chrome://tracing or
//! https://ui.perfetto.dev). Exits non-zero if the sentinel tripped, the
//! injected straggler was misattributed, or the recovered run is not
//! bit-identical to the uninterrupted one.

use hyades::telemetry::write_artifacts_to_dir;
use hyades::tour::{Straggler, TourConfig};
use std::path::Path;

fn main() {
    let seed = 7;
    let straggler = Straggler {
        rank: 2,
        extra_flops: 50_000_000,
    };
    let cfg = TourConfig::new(seed);
    println!("running the four tours (seed {seed})...\n");
    let tour = cfg.run_tour();
    let diag = cfg.run_coupled_diag();
    let crit = cfg.run_critpath();
    let slowed = cfg.clone().straggler(straggler).run_critpath();
    let rec = cfg
        .clone()
        .fault_plan(TourConfig::demo_fault_plan(seed))
        .run_resilient();

    println!("{}", tour.phase_report);
    println!("{}", diag.text);
    println!("{}", crit.report);
    println!("{}", crit.slack_report);
    println!("{}", slowed.report);
    println!("{}", rec.report);

    let bundle = tour
        .exporter()
        .extend_from(&diag.exporter())
        .extend_from(&crit.exporter("critpath"))
        .extend_from(&slowed.exporter("critpath_straggler"))
        .extend_from(&rec.exporter());
    let dir = Path::new("target/tour");
    let paths = write_artifacts_to_dir(&bundle, dir).expect("write target/tour");
    println!("wrote {} artifacts to {}", paths.len(), dir.display());

    let mut failures = Vec::new();
    if diag.sentinel_trips != 0 {
        failures.push(format!(
            "blowup sentinel tripped {} time(s) on the healthy run",
            diag.sentinel_trips
        ));
    }
    if slowed.blame.map(|(rank, _)| rank) != Some(straggler.rank) {
        failures.push(format!(
            "straggler misattributed: injected rank {}, blamed {:?}",
            straggler.rank, slowed.blame
        ));
    }
    if !rec.recovered_identical {
        failures.push("recovered run is not bit-identical to the uninterrupted run".to_string());
    }
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    println!(
        "tour OK: {} spans, max |phase residual| {:.1}%, sentinel quiet, straggler rank {} blamed, \
         {} restart(s) / {} retransmit(s) recovered bit-identically",
        tour.span_count,
        tour.max_abs_residual * 100.0,
        straggler.rank,
        rec.restarts,
        rec.retries
    );
}
