//! E2 — Figure 7: VI-mode transfer bandwidth as a function of block size,
//! and the two §4.1 design choices that rest on it: small staging chunks
//! (the copy/DMA overlap) and one wide halo exchange instead of several
//! narrow ones (overcomputation).

use crate::perf::report::Table;
use hyades_comms::exchange::measure_exchange;
use hyades_des::SimDuration;
use hyades_startx::vi::{bandwidth_sweep, measure_transfer, TransferMeasurement, ViConfig};
use hyades_startx::HostParams;
use std::fmt::Write as _;

/// Paper anchors: 56.8 MB/s at 1 KB, ≥90% of 110 MB/s at 9 KB, 110 MB/s
/// peak.
pub const PAPER_1KB_MBS: f64 = 56.8;
pub const PAPER_PEAK_MBS: f64 = 110.0;

/// Sweep the figure's block sizes on the simulated fabric.
pub fn measure() -> Vec<TransferMeasurement> {
    bandwidth_sweep(HostParams::default(), ViConfig::default())
}

/// §4.1 ablation: a 64 KB transfer staged in chunks of each size, as
/// (chunk bytes, perceived MB/s). The copy/DMA overlap only pays with
/// small chunks; a large chunk serializes the first copy.
pub fn chunk_sweep() -> Vec<(u64, f64)> {
    [256u64, 512, 2048, 8192, 65536]
        .into_iter()
        .map(|chunk_bytes| {
            let cfg = ViConfig { chunk_bytes };
            let m = measure_transfer(HostParams::default(), cfg, 16, 65536);
            (chunk_bytes, m.mbyte_per_sec)
        })
        .collect()
}

/// §4.1 ablation: the PS halo of one field of a 32×32×5 atmosphere tile
/// on a 4×2 process grid, as (one width-3 exchange, three width-1
/// exchanges). The paper buys redundant flops with the wider halo; a
/// code without overcomputation needs an exchange between sub-stages.
pub fn overcomputation() -> (SimDuration, SimDuration) {
    let host = HostParams::default();
    let (leg_w3, leg_w1) = (32 * 3 * 5 * 8, 32 * 5 * 8);
    (
        measure_exchange(host, 4, 2, leg_w3),
        measure_exchange(host, 4, 2, leg_w1) * 3,
    )
}

pub fn run() -> String {
    let sweep = measure();
    let mut t = Table::new(&["block (B)", "time (us)", "bandwidth (MB/s)", "% of peak"]);
    for m in &sweep {
        t.row(&[
            m.len.to_string(),
            format!("{:.1}", m.elapsed.as_us_f64()),
            format!("{:.1}", m.mbyte_per_sec),
            format!("{:.0}%", m.mbyte_per_sec / PAPER_PEAK_MBS * 100.0),
        ]);
    }
    let mut chunks = Table::new(&["staging chunk (B)", "bandwidth (MB/s)"]);
    for (chunk, mbs) in chunk_sweep() {
        chunks.row(&[chunk.to_string(), format!("{mbs:.1}")]);
    }
    let (wide, narrow) = overcomputation();
    let mut halo = Table::new(&["PS halo strategy (one field)", "time (us)"]);
    halo.row(&[
        "one width-3 exchange (overcompute)".into(),
        format!("{:.1}", wide.as_us_f64()),
    ]);
    halo.row(&[
        "three width-1 exchanges".into(),
        format!("{:.1}", narrow.as_us_f64()),
    ]);
    format!(
        "E2  Figure 7: perceived VI-mode transfer bandwidth vs block size\n\
         (paper: {PAPER_1KB_MBS} MB/s at 1 KB; 90% of {PAPER_PEAK_MBS} MB/s by ~9 KB)\n\n{}\n\
         Section 4.1 ablation: VI staging chunk size, 64 KB transfer\n\n{}\n\
         Section 4.1 ablation: halo width, 32x32x5 tile on a 4x2 process grid\n\n{}\n\
         overcomputation saves {:.0}% of PS exchange time\n",
        t.render(),
        chunks.render(),
        halo.render(),
        (1.0 - wide.as_us_f64() / narrow.as_us_f64()) * 100.0
    )
}

/// The bandwidth curve as point data.
pub fn csv() -> String {
    let mut csv = String::from("block_bytes,time_us,mbyte_per_sec\n");
    for m in measure() {
        let _ = writeln!(
            csv,
            "{},{:.3},{:.3}",
            m.len,
            m.elapsed.as_us_f64(),
            m.mbyte_per_sec
        );
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_matches_paper_anchors() {
        let sweep = measure();
        let at = |len: u64| {
            sweep
                .iter()
                .find(|m| m.len == len)
                .unwrap_or_else(|| panic!("no sample at {len}"))
                .mbyte_per_sec
        };
        // 1 KB: 56.8 MB/s ± 15%.
        assert!(
            (at(1024) - PAPER_1KB_MBS).abs() / PAPER_1KB_MBS < 0.15,
            "{}",
            at(1024)
        );
        // Half-power point near 1 KB: 512 B below 50%, 4 KB above 75%.
        assert!(at(512) < 0.5 * PAPER_PEAK_MBS);
        assert!(at(4096) > 0.75 * PAPER_PEAK_MBS);
        // ~90% by 8–16 KB.
        assert!(at(16384) > 0.9 * PAPER_PEAK_MBS);
        // Peak approached at 128 KB.
        assert!(at(131072) > 0.95 * PAPER_PEAK_MBS);
        assert!(at(131072) <= PAPER_PEAK_MBS + 0.5);
    }

    #[test]
    fn report_has_all_sixteen_block_sizes() {
        let r = run();
        // 4 B .. 128 KB in powers of two = 16 rows.
        assert_eq!(measure().len(), 16);
        assert!(r.contains("131072"));
        assert!(r.contains("Figure 7"));
    }
}
