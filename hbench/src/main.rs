//! `hbench` — the Hyades benchmark: six fixed workloads, end-to-end
//! metrics with bounds, and a separate traced run for per-layer numbers.
//!
//! ```text
//! hbench --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! hbench all [--seed N] [--seconds S]                    every workload, untraced then traced
//! hbench compare A.json B.json                           apply the bounds to two result sets
//! hbench spec                                            print BENCHMARK.json
//! ```
//!
//! See `hbench/README.md` for what each workload and metric is for.

mod comm;
mod compare;
mod fabric;
mod gcm;
mod harness;
mod lint;
mod metrics;
mod report;
mod stats;
mod tour;
mod trace;

use harness::Workload;
use metrics::{RUN_SECONDS, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

const DEFAULT_SEED: u64 = 1999;

/// Where traces, artifacts and result documents go: inside the build
/// directory, which is inside the checkout and git-ignored.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("hbench/target"), PathBuf::from);
    target.join("hbench-out")
}

fn build(name: &str, seed: u64, out: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "coupled_serial" => Box::new(gcm::CoupledSerial::new(seed)),
        "ocean_1deg" => Box::new(gcm::Ocean1Deg::new(seed)),
        "cluster_tour" => Box::new(tour::ClusterTour::new(seed, out.join("artifacts"))),
        "fabric_saturated" => Box::new(fabric::FabricSaturated::new(seed)),
        "comm_primitives" => Box::new(comm::CommPrimitives::new(seed)),
        "lint_tree" => Box::new(lint::LintTree::default()),
        _ => return None,
    })
}

fn detail_path(out: &Path, workload: &str, trace: bool) -> PathBuf {
    let kind = if trace { "traced" } else { "untraced" };
    out.join(format!("{workload}.{kind}.json"))
}

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("{flag}: cannot read `{value}`");
        match flag.as_str() {
            "--workload" => o.workload = Some(value.to_string()),
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=600.0).contains(&o.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(o)
}

/// One workload, one run, in this process.
fn run_one(o: &Options, started: Instant) -> Result<bool, String> {
    let name = o.workload.as_deref().ok_or("--workload is required")?;
    let out = out_dir();
    if build(name, o.seed, &out).is_none() {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload `{name}`; one of {known:?}"));
    }
    let make = || build(name, o.seed, &out).expect("workload name was checked");
    let r = harness::run(name, &make, o.seconds, o.trace, &out, started)
        .map_err(|e| format!("writing under {}: {e}", out.display()))?;
    std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(detail_path(&out, name, o.trace), report::detail_json(&r)))
        .map_err(|e| format!("writing under {}: {e}", out.display()))?;
    print!("{}", report::human(name, o.seed, &r));
    println!("{}", report::driver_line(&r));
    // A run that completed exits 0; its verdict is the `correct` key.
    Ok(true)
}

/// Every workload in a fresh process each (clean peak RSS and
/// allocator), untraced then traced, collected into `results.json`.
fn run_all(o: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let out = out_dir();
    let mut all_correct = true;
    let mut doc = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"workloads\": {{\n",
        o.seed, o.seconds
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        let mut runs = Vec::new();
        for trace in [false, true] {
            let status = Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &o.seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .status()
                .map_err(|e| format!("starting {}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("{} (trace {trace}) exited with {status}", w.name));
            }
            let path = detail_path(&out, w.name, trace);
            let detail = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            all_correct &= detail.starts_with("{\"correct\": true,");
            runs.push(detail);
        }
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        doc.push_str(&format!(
            "\"{}\": {{\"untraced\": {}, \"traced\": {}}}{sep}\n",
            w.name, runs[0], runs[1]
        ));
    }
    doc.push_str("}}\n");
    let path = out.join("results.json");
    std::fs::write(&path, doc).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("results: {}", path.display());
    Ok(all_correct)
}

fn run_compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("usage: hbench compare A.json B.json".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
    let (report, ok) = compare::compare(&read(a)?, &read(b)?)?;
    print!("{report}");
    Ok(ok)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", metrics::spec());
            Ok(true)
        }
        Some("compare") => run_compare(&args[1..]),
        Some("all") => parse_options(&args[1..]).and_then(|o| run_all(&o)),
        _ => parse_options(&args).and_then(|o| run_one(&o, started)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hbench: {e}");
            ExitCode::from(2)
        }
    }
}
