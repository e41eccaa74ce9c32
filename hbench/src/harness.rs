//! One measured run of one workload: set-up, timed repetitions, output
//! checks, and the readings of either the end-to-end or the traced run.
//!
//! Every repetition is a closed, fixed-work batch job executed
//! single-threaded from here (threads a workload's own program starts
//! are the program's shape, not the harness's). `--seconds` only decides
//! how many repetitions are sampled; the work in one repetition is a
//! constant of the workload.

use crate::metrics::LayerMetrics;
use crate::stats::Summary;
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Span the harness opens around every traced repetition.
pub const SPAN_REP: &str = "bench.rep";

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// No further set-up starts once set-up has taken this long: three take
/// 3–4.5 s on a quiet host, and a run must end within the driver's limit
/// even when thread hand-offs cost sixteen times the usual.
const SETUP_LIMIT_S: f64 = 10.0;
/// Fewest timed repetitions per kind (untraced, and traced if tracing).
pub const MIN_REPS: usize = 3;

/// What one repetition reports back.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Output checks made and failed inside the repetition.
    pub attempted: u64,
    pub failed: u64,
    /// Digest of everything that must be identical across repetitions
    /// (final state, simulated statistics, rendered artifacts).
    pub digest: u64,
}

impl Outcome {
    /// Count one output check.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// A workload: inputs generated from the seed at construction, then any
/// number of identical repetitions.
pub trait Workload {
    /// Run the whole fixed job once, from construction of the program's
    /// objects to the final checksum, recording spans on `tracer`.
    fn rep(&mut self, tracer: &Tracer) -> Outcome;

    /// Fill the per-layer readings of a traced run: counts and span
    /// totals of the repetitions just run, plus stand-alone probes.
    /// `wall_s` is the fastest untraced repetition.
    fn layer_metrics(&mut self, tracer: &Tracer, wall_s: f64, m: &mut LayerMetrics);
}

/// Seconds per call of `f`, for the stand-alone probes: repeated until
/// 50 ms and 3 calls have passed.
pub fn time_calls(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || t0.elapsed().as_secs_f64() < 0.05 {
        f();
        calls += 1;
    }
    t0.elapsed().as_secs_f64() / f64::from(calls)
}

/// The digest repetitions are compared by: FNV-1a taken a 64-bit word
/// at a time, so that hashing an 18 MB artifact bundle or a 40 MB model
/// state stays a small share of the repetition it is timed in. Every step
/// is a bijection of the state, so two inputs that differ in one word
/// differ in the digest.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
    pub fn f64s(&mut self, xs: &[f64]) {
        for x in xs {
            self.word(x.to_bits());
        }
    }
    pub fn bytes(&mut self, bs: &[u8]) {
        let mut chunks = bs.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("chunks of 8")));
        }
        for &b in chunks.remainder() {
            self.word(u64::from(b));
        }
        self.word(bs.len() as u64);
    }
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Everything one run measured.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub wall: Summary,
    /// The untraced repetitions behind `wall`, in the order they ran.
    pub reps: Vec<f64>,
    pub setup: Summary,
    pub peak_rss_mb: f64,
    /// Present on a traced run.
    pub layers: Option<LayerMetrics>,
    pub trace_file: Option<PathBuf>,
}

/// User + system CPU seconds of this process so far (all threads), from
/// `/proc/self/stat`; 0 where that file does not exist.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name: utime and stime are
    // the 12th and 13th, in clock ticks (100 Hz on Linux).
    let after = stat.rsplit(')').next().unwrap_or("");
    let f: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set (`VmHWM`) of this process in MB; 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run `build`'s workload: up to [`SETUPS`] set-ups (input generation
/// plus one untimed warm-up repetition each, the first counted from
/// `process_start`), then timed repetitions for `seconds`. With `trace`,
/// untraced and traced repetitions interleave so the overhead is measured
/// in the same run, and the spans are written to `out_dir`.
pub fn run(
    name: &str,
    build: &dyn Fn() -> Box<dyn Workload>,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
    process_start: Instant,
) -> std::io::Result<RunResult> {
    let tracer = Tracer::new();
    let mut total = Outcome::default();
    let mut reference: Option<u64> = None;
    let mut judge = |o: Outcome, total: &mut Outcome| {
        total.attempted += o.attempted;
        total.failed += o.failed;
        // Same seed, same job: every repetition must reproduce the first.
        total.check(*reference.get_or_insert(o.digest) == o.digest);
    };

    // Set up again until there are SETUPS samples — or until set-up alone
    // has taken SETUP_LIMIT_S, which only a badly disturbed host does.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut w = loop {
        let t0 = if setups.is_empty() {
            process_start
        } else {
            Instant::now()
        };
        let mut w = build();
        let o = w.rep(&tracer);
        setups.push(t0.elapsed().as_secs_f64());
        judge(o, &mut total);
        if setups.len() == SETUPS || process_start.elapsed().as_secs_f64() > SETUP_LIMIT_S {
            break w;
        }
    };

    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut cpu, mut reps) = (0.0, 0u32);
    let began = Instant::now();
    while began.elapsed().as_secs_f64() < seconds
        || plain.len() < MIN_REPS
        || (trace && traced.len() < MIN_REPS)
    {
        // U T T U …: each kind runs after each kind, so neither always
        // inherits the heap layout the other left behind.
        let on = trace && matches!(reps % 4, 1 | 2);
        tracer.start_rep(reps, on);
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let id = tracer.begin(SPAN_REP);
        let o = w.rep(&tracer);
        tracer.end(id);
        let dt = t0.elapsed().as_secs_f64();
        cpu += cpu_seconds() - cpu0;
        judge(o, &mut total);
        (if on { &mut traced } else { &mut plain }).push(dt);
        reps += 1;
    }
    tracer.start_rep(reps, false);
    let wall = Summary::of(&plain);
    let peak = peak_rss_mb();

    let (mut layers, mut trace_file) = (None, None);
    if trace {
        let mut m = LayerMetrics::default();
        let traced_wall = Summary::of(&traced);
        m.set("bench.trace_overhead", traced_wall.min / wall.min - 1.0);
        m.set("bench.cpu_s", cpu / f64::from(reps));
        m.set("bench.rep_iqr", wall.rel_iqr());
        w.layer_metrics(&tracer, wall.min, &mut m);
        std::fs::create_dir_all(out_dir)?;
        let path = out_dir.join(format!("{name}.trace.json"));
        std::fs::write(&path, tracer.chrome_json())?;
        layers = Some(m);
        trace_file = Some(path);
    }
    Ok(RunResult {
        attempted: total.attempted,
        failed: total.failed,
        wall,
        reps: plain,
        setup: Summary::of(&setups),
        peak_rss_mb: peak,
        layers,
        trace_file,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in workload: one span and one check per repetition.
    struct Fake {
        reps: u64,
        break_check: bool,
        /// Output changes from one repetition to the next.
        drift: bool,
    }

    impl Workload for Fake {
        fn rep(&mut self, tracer: &Tracer) -> Outcome {
            tracer.span("test.work", || std::hint::black_box(()));
            self.reps += 1;
            let mut o = Outcome::default();
            o.check(!self.break_check);
            o.digest = if self.drift { self.reps } else { 7 };
            o
        }
        fn layer_metrics(&mut self, tracer: &Tracer, _: f64, m: &mut LayerMetrics) {
            m.set("des.events", tracer.per_rep("test.work").calls);
        }
    }

    fn run_fake(break_check: bool, drift: bool, trace: bool) -> RunResult {
        let dir = std::env::temp_dir().join(format!("hbench-harness-test-{}", std::process::id()));
        let build = move || -> Box<dyn Workload> {
            Box::new(Fake {
                reps: 0,
                break_check,
                drift,
            })
        };
        run("fake", &build, 0.0, trace, &dir, Instant::now()).unwrap()
    }

    const REPS: u64 = (SETUPS + MIN_REPS) as u64;

    #[test]
    fn healthy_workload_has_no_failures() {
        let r = run_fake(false, false, false);
        // Each repetition: its own check plus the digest check.
        assert_eq!((r.attempted, r.failed), (2 * REPS, 0));
        assert_eq!((r.wall.n, r.setup.n), (MIN_REPS, SETUPS));
        assert!(r.layers.is_none());
    }

    #[test]
    fn a_deliberately_broken_check_makes_failures_non_zero() {
        let r = run_fake(true, false, false);
        assert_eq!(r.failed, REPS);
        assert!(r.failed as f64 / r.attempted as f64 > 0.0);
    }

    #[test]
    fn output_that_differs_between_repetitions_fails() {
        // Each set-up builds afresh and reproduces the reference; the
        // timed repetitions reuse one workload and drift away from it.
        let r = run_fake(false, true, false);
        assert_eq!(r.failed, MIN_REPS as u64);
    }

    #[test]
    fn traced_run_interleaves_and_fills_every_layer_metric() {
        let r = run_fake(false, false, true);
        assert_eq!(r.wall.n, MIN_REPS);
        let m = r.layers.expect("traced run has layer metrics");
        // One `test.work` span per traced repetition.
        assert_eq!(m.get("des.events"), 1.0);
        assert_eq!(m.get("lint.files"), 0.0);
        let json = std::fs::read_to_string(r.trace_file.unwrap()).unwrap();
        assert_eq!(json.matches(SPAN_REP).count(), 1);
        assert_eq!(json.matches("test.work").count(), 1);
    }

    #[test]
    fn digest_separates_values_and_lengths() {
        let d = |f: &dyn Fn(&mut Digest)| {
            let mut d = Digest::default();
            f(&mut d);
            d.finish()
        };
        assert_eq!(d(&|d| d.f64s(&[1.0, 2.0])), d(&|d| d.f64s(&[1.0, 2.0])));
        assert_ne!(d(&|d| d.f64s(&[1.0, 2.0])), d(&|d| d.f64s(&[2.0, 1.0])));
        assert_ne!(d(&|d| d.f64s(&[0.0])), d(&|d| d.f64s(&[-0.0])));
        assert_ne!(d(&|d| d.bytes(b"ab")), d(&|d| d.bytes(b"a")));
    }

    #[test]
    fn proc_readings_are_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
            assert!(cpu_seconds().is_finite());
        }
    }
}
