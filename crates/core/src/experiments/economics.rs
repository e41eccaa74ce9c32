//! E13 — the affordability argument (§1, §2, §6).
//!
//! The paper's thesis is economic as much as technical: the cluster costs
//! "less than $100,000, about evenly divided between the processing nodes
//! and the interconnect", which makes it *ownable* by a single research
//! group — "the turn-around time is simply the CPU time", with no shared
//! job queue. This experiment quantifies the price–performance gap
//! against the Figure 10 vector machines.
//!
//! Vector-machine prices are circa-1999 street estimates (documented as
//! such; exact contract prices were never public): they are comparator
//! data in the same sense as the Figure 10 sustained rates.

use crate::experiments::fig10::{hyades_16proc_gflops, hyades_single_proc_gflops};
use crate::perf::queueing::{campaign_hours, SharedQueue};
use crate::perf::report::Table;
use hyades_cluster::machines::figure10_vector_rows;

/// Estimated 1999 system price (USD) for each Figure 10 configuration.
pub fn estimated_price_usd(name: &str, processors: u32) -> f64 {
    let per_cpu = match name {
        "Cray Y-MP" => 2.5e6,
        "Cray C90" => 2.0e6,
        "NEC SX-4" => 1.0e6,
        _ => panic!("unknown machine {name}"),
    };
    per_cpu * processors as f64
}

/// Dollars per sustained MFlop/s on the GCM workload.
pub struct PricePerf {
    pub name: String,
    pub procs: u32,
    pub price_usd: f64,
    pub sustained_mflops: f64,
    pub usd_per_mflops: f64,
}

pub fn rows() -> Vec<PricePerf> {
    let mut out: Vec<PricePerf> = figure10_vector_rows()
        .into_iter()
        .map(|v| {
            let price = estimated_price_usd(v.name, v.processors);
            PricePerf {
                name: v.name.to_string(),
                procs: v.processors,
                price_usd: price,
                sustained_mflops: v.sustained_mflops,
                usd_per_mflops: price / v.sustained_mflops,
            }
        })
        .collect();
    let (sixteen, _) = hyades_16proc_gflops();
    let hyades_mf = sixteen * 1000.0;
    out.push(PricePerf {
        name: "Hyades".to_string(),
        procs: 16,
        price_usd: 100_000.0,
        sustained_mflops: hyades_mf,
        usd_per_mflops: 100_000.0 / hyades_mf,
    });
    let _ = hyades_single_proc_gflops();
    out
}

pub fn run() -> String {
    let mut t = Table::new(&[
        "system",
        "procs",
        "est. price (1999 USD)",
        "sustained (MF/s)",
        "$ / sustained MF/s",
    ]);
    let rows = rows();
    for r in &rows {
        t.row(&[
            r.name.clone(),
            r.procs.to_string(),
            format!("{:.1}M", r.price_usd / 1e6),
            format!("{:.0}", r.sustained_mflops),
            format!("{:.0}", r.usd_per_mflops),
        ]);
    }
    let hyades = rows.last().unwrap();
    let best_vector = rows[..rows.len() - 1]
        .iter()
        .map(|r| r.usd_per_mflops)
        .fold(f64::INFINITY, f64::min);
    // The queue-time half of the argument: a 20-experiment campaign of
    // 3-CPU-hour jobs (the validated one-year run) on a shared machine at
    // 85% utilization vs the dedicated cluster.
    let q = SharedQueue::new(0.85, 3.0, 1.5);
    let shared = campaign_hours(Some(&q), 20, 3.0);
    let dedicated = campaign_hours(None, 20, 3.0);
    format!(
        "E13 The economics of a personal supercomputer\n\n{}\n\
         Hyades delivers a sustained MFlop/s for ${:.0} against ${:.0} on the most\n\
         cost-effective vector machine — a {:.0}x price-performance advantage.\n\
         Queue time: a 20-experiment campaign of 3-CPU-hour jobs takes {:.0} h\n\
         dedicated vs ~{:.0} h behind a shared queue at 85% utilization (M/G/1,\n\
         cv=1.5) — the \"CPU time dwarfed by the job queue\" effect of section 6.\n\
         Prices are published-estimate comparator data; the Hyades rate is computed\n\
         by this reproduction (E4).\n",
        t.render(),
        hyades.usd_per_mflops,
        best_vector,
        best_vector / hyades.usd_per_mflops,
        dedicated,
        shared,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hyades_wins_price_performance_by_an_order_of_magnitude() {
        let rows = rows();
        let hyades = rows.last().unwrap();
        assert_eq!(hyades.name, "Hyades");
        for v in &rows[..rows.len() - 1] {
            let advantage = v.usd_per_mflops / hyades.usd_per_mflops;
            assert!(
                advantage > 5.0,
                "{} {}cpu: only {advantage:.1}x",
                v.name,
                v.procs
            );
        }
    }

    #[test]
    fn hyades_cost_within_paper_budget() {
        let rows = rows();
        let hyades = rows.last().unwrap();
        assert!(hyades.price_usd <= 100_000.0);
        assert!(hyades.sustained_mflops > 500.0);
    }

    #[test]
    fn report_renders() {
        let r = run();
        assert!(r.contains("price-performance advantage"));
        assert!(r.contains("NEC SX-4"));
    }
}
