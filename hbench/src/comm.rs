//! `comm_primitives`: the `des`/`arctic` layers used the opposite way to
//! `fabric_saturated` — thousands of tiny simulations, where
//! `Simulator::new` + `ArcticNetwork::build` + the `comms` state machines
//! and their retry legs dominate. A change that speeds the long
//! simulations by making construction dearer shows here.

use crate::fabric::fabric_build_us;
use crate::harness::{Digest, Outcome, Workload};
use crate::metrics::{per_second, LayerMetrics};
use crate::trace::Tracer;
use hyades::fault::FaultPlan;
use hyades_comms::barrier::measure_barrier;
use hyades_comms::exchange::{measure_exchange, measure_exchange_faulty};
use hyades_comms::gsum::{measure_gsum, measure_gsum_faulty, measure_gsum_tree};
use hyades_comms::mpistart::measure_mpi_allreduce;
use hyades_comms::RecoveryCounters;
use hyades_des::rng::SplitMix64;
use hyades_startx::logp::figure2;
use hyades_startx::vi::{bandwidth_sweep, ViConfig};
use hyades_startx::HostParams;

/// Calls per repetition of each primitive (fixed; a repetition is about
/// a second on the reference box).
const EXCHANGES: usize = 10;
const GSUMS: usize = 100;
const FAULTY_EXCHANGES: usize = 20;
const FAULTY_GSUMS: usize = 200;
const VI_SWEEPS: usize = 25;
const LOGP_FIGURES: usize = 100;

const GRIDS: [(u16, u16); 2] = [(2, 2), (4, 4)];
const LEG_BYTES: [u64; 3] = [256, 4096, 16384];
const GSUM_SIZES: [usize; 4] = [2, 4, 8, 16];

/// Span name and the number of primitive completions one call of it is.
const KINDS: [(&str, &str, f64); 9] = [
    ("comms.exchange", "comms.exchange_per_s", 1.0),
    ("comms.gsum", "comms.gsum_per_s", 1.0),
    ("comms.gsum_tree", "comms.gsum_tree_per_s", 1.0),
    ("comms.barrier", "comms.barrier_per_s", 1.0),
    ("comms.mpi_allreduce", "comms.mpi_allreduce_per_s", 1.0),
    ("comms.exchange_faulty", "comms.exchange_faulty_per_s", 1.0),
    ("comms.gsum_faulty", "comms.gsum_faulty_per_s", 1.0),
    // One sweep is 16 transfers (4 B … 128 KB); one figure is 2 rows.
    ("startx.vi_sweep", "startx.vi_transfers_per_s", 16.0),
    ("startx.logp", "startx.logp_rows_per_s", 2.0),
];

/// Exact (simulated) values of the last repetition.
#[derive(Clone, Copy, Debug, Default)]
struct Simulated {
    retries: u64,
    backoff_waits: u64,
    exchange_4x4_4096_us: f64,
    gsum_16_us: f64,
    pio_rtt_half_us: f64,
    vi_peak_mbyte_per_s: f64,
}

pub struct CommPrimitives {
    /// Reduction operands: sixteenths in ±128, so every summation order
    /// gives the same bits and the check below is exact.
    operands: Vec<f64>,
    plan: FaultPlan,
    last: Simulated,
}

/// Fault plans are drawn from seeds below this. `comms::exchange`'s
/// recovery legs panic ("Proceed in unexpected phase") on 88 of the
/// first 2000 plan seeds for this very exchange — 34 is the smallest —
/// and a benchmark may not run an operation that fails; the defect is
/// outside this directory and is recorded, not fixed. Every seed below 32
/// completes, for the exchange and for the global sum.
const VETTED_PLAN_SEEDS: u64 = 32;

impl CommPrimitives {
    pub fn new(seed: u64) -> CommPrimitives {
        let mut rng = SplitMix64::new(seed);
        CommPrimitives {
            operands: (0..16)
                .map(|_| (rng.next_below(4096) as f64 - 2048.0) / 16.0)
                .collect(),
            plan: FaultPlan::new(seed % VETTED_PLAN_SEEDS)
                .link_window(0.0, 60.0, 0.2, 0.1)
                .niu_stall(1, 5.0, 25.0),
            last: Simulated::default(),
        }
    }
}

/// A gsum completes with the rank-ordered sum of its operands, bit for
/// bit, or it failed.
fn summed(out: &mut Outcome, d: &mut Digest, value: f64, us: f64, vals: &[f64]) {
    out.check(value.to_bits() == vals.iter().sum::<f64>().to_bits());
    d.f64s(&[value, us]);
}

impl Workload for CommPrimitives {
    fn rep(&mut self, tracer: &Tracer) -> Outcome {
        let host = HostParams::default();
        let mut out = Outcome::default();
        let mut d = Digest::default();
        let mut sim = Simulated::default();
        let mut recovery = RecoveryCounters::default();

        for (px, py) in GRIDS {
            for leg in LEG_BYTES {
                for _ in 0..EXCHANGES {
                    let t = tracer.span("comms.exchange", || measure_exchange(host, px, py, leg));
                    out.check(t.as_us_f64() > 0.0);
                    d.f64s(&[t.as_us_f64()]);
                    if (px, py, leg) == (4, 4, 4096) {
                        sim.exchange_4x4_4096_us = t.as_us_f64();
                    }
                }
            }
        }
        for n in GSUM_SIZES {
            let vals = &self.operands[..n];
            for smp in [false, true] {
                for _ in 0..GSUMS {
                    let g = tracer.span("comms.gsum", || measure_gsum(host, vals, smp));
                    summed(&mut out, &mut d, g.value, g.elapsed.as_us_f64(), vals);
                    if n == 16 && !smp {
                        sim.gsum_16_us = g.elapsed.as_us_f64();
                    }
                }
            }
        }
        let vals = &self.operands[..];
        for _ in 0..GSUMS {
            let g = tracer.span("comms.gsum_tree", || measure_gsum_tree(host, vals));
            summed(&mut out, &mut d, g.value, g.elapsed.as_us_f64(), vals);
            let t = tracer.span("comms.barrier", || measure_barrier(host, 16));
            out.check(t.as_us_f64() > 0.0);
            d.f64s(&[t.as_us_f64()]);
            let g = tracer.span("comms.mpi_allreduce", || measure_mpi_allreduce(vals));
            summed(&mut out, &mut d, g.value, g.elapsed.as_us_f64(), vals);
        }
        for _ in 0..FAULTY_EXCHANGES {
            let (t, r) = tracer.span("comms.exchange_faulty", || {
                measure_exchange_faulty(host, 4, 4, 4096, &self.plan)
            });
            out.check(t.as_us_f64() > 0.0);
            d.f64s(&[t.as_us_f64()]);
            recovery.merge(&r);
        }
        for _ in 0..FAULTY_GSUMS {
            let (g, r) = tracer.span("comms.gsum_faulty", || {
                measure_gsum_faulty(host, vals, &self.plan)
            });
            summed(&mut out, &mut d, g.value, g.elapsed.as_us_f64(), vals);
            recovery.merge(&r);
        }
        for _ in 0..VI_SWEEPS {
            let sweep = tracer.span("startx.vi_sweep", || {
                bandwidth_sweep(host, ViConfig::default())
            });
            out.check(sweep.len() == 16);
            sim.vi_peak_mbyte_per_s = sweep.iter().map(|t| t.mbyte_per_sec).fold(0.0, f64::max);
            for t in &sweep {
                d.f64s(&[t.elapsed.as_us_f64()]);
            }
        }
        for _ in 0..LOGP_FIGURES {
            let rows = tracer.span("startx.logp", || figure2(host));
            out.check(rows.len() == 2);
            sim.pio_rtt_half_us = rows[0].half_rtt.as_us_f64();
            for r in &rows {
                d.f64s(&[r.os.as_us_f64(), r.or.as_us_f64(), r.half_rtt.as_us_f64()]);
            }
        }
        sim.retries = recovery.retries;
        sim.backoff_waits = recovery.timeouts;
        d.word(sim.retries);
        d.word(sim.backoff_waits);
        out.digest = d.finish();
        self.last = sim;
        out
    }

    fn layer_metrics(&mut self, tracer: &Tracer, _wall_s: f64, m: &mut LayerMetrics) {
        for (span, metric, per_call) in KINDS {
            let t = tracer.per_rep(span);
            m.set(metric, per_second(t.calls * per_call, t.total_s));
        }
        let s = self.last;
        m.set("comms.retries", s.retries as f64);
        m.set("comms.backoff_waits", s.backoff_waits as f64);
        m.set("comms.exchange_4x4_4096_us", s.exchange_4x4_4096_us);
        m.set("comms.gsum_16_us", s.gsum_16_us);
        m.set("startx.pio_rtt_half_us", s.pio_rtt_half_us);
        m.set("startx.vi_peak_mbyte_per_s", s.vi_peak_mbyte_per_s);
        m.set("arctic.build_us", fabric_build_us());
    }
}
