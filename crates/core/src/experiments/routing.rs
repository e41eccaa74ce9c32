//! E12 — §2.2's fabric features under adversarial traffic.
//!
//! Arctic's header carries a "random uproute" option (Figure 1b). This
//! study shows why: with one fixed up-path per source, the fat-tree is
//! only rearrangeably non-blocking, and the classic bit-reverse
//! permutation collapses its throughput; randomized path diversity
//! restores it. The GCM's own patterns (neighbor exchanges) are friendly
//! either way, which is why the communication library can afford the
//! deterministic mode (and gain Arctic's per-path FIFO ordering).

use crate::perf::report::Table;
use hyades_arctic::packet::UpRoute;
use hyades_arctic::workload::{run_traffic, Pattern, TrafficResult};
use std::fmt::Write as _;

const LOAD: f64 = 0.8;
const WINDOW_US: f64 = 400.0;

/// The traffic patterns of the study: (pattern, table label, CSV label).
const PATTERNS: [(Pattern, &str, &str); 5] = [
    (Pattern::NearestNeighbor, "nearest-neighbor", "nearest"),
    (Pattern::Transpose, "transpose", "transpose"),
    (Pattern::BitReverse, "bit-reverse", "bitreverse"),
    (Pattern::UniformRandom, "uniform random", "uniform"),
    (Pattern::Hotspot, "hotspot", "hotspot"),
];

const UPROUTES: [(UpRoute, &str); 2] = [
    (UpRoute::SourceSpread, "deterministic"),
    (UpRoute::Random, "random"),
];

pub fn measure(pattern: Pattern, uproute: UpRoute, seed: u64) -> TrafficResult {
    run_traffic(16, pattern, uproute, LOAD, WINDOW_US, seed)
}

pub fn run() -> String {
    let offered = 16.0 * LOAD * 137.5;
    let mut t = Table::new(&[
        "pattern",
        "uproute",
        "delivered (MB/s)",
        "% offered",
        "mean latency (us)",
    ]);
    for (i, (p, name, _)) in PATTERNS.iter().enumerate() {
        for (up, upname) in UPROUTES {
            let r = measure(*p, up, 10 + i as u64);
            t.row(&[
                name.to_string(),
                upname.to_string(),
                format!("{:.0}", r.delivered_mbyte_per_sec),
                format!("{:.0}%", r.delivered_mbyte_per_sec / offered * 100.0),
                format!("{:.1}", r.latency.mean()),
            ]);
        }
    }
    format!(
        "E12 Fabric routing study: 16 endpoints at {:.0}% offered load\n\
         (offered aggregate {offered:.0} MB/s of payload)\n\n{}\n\
         Bit-reverse collapses deterministic routing (the butterfly worst case);\n\
         Arctic's random-uproute feature restores full throughput. Hotspot traffic\n\
         is bounded by the victim's single link regardless of routing.\n",
        LOAD * 100.0,
        t.render()
    )
}

/// Delivered bandwidth and latency of every case as point data. Seeds are
/// 100 + pattern index (the table's are 10 +): the ones the digest pinned
/// in `tests/determinism.rs` was generated with.
pub fn csv() -> String {
    let mut csv = String::from("pattern,uproute,delivered_mbs,mean_latency_us,max_latency_us\n");
    for (i, (p, _, name)) in PATTERNS.iter().enumerate() {
        for (up, upname) in UPROUTES {
            let r = measure(*p, up, 100 + i as u64);
            let _ = writeln!(
                csv,
                "{name},{upname},{:.1},{:.2},{:.2}",
                r.delivered_mbyte_per_sec,
                r.latency.mean(),
                r.latency.max()
            );
        }
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_all_patterns() {
        let r = run();
        for name in ["nearest-neighbor", "bit-reverse", "hotspot"] {
            assert!(r.contains(name), "missing {name}");
        }
    }
}
