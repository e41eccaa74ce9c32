//! E3 — §4.2: global-sum latencies and the least-squares fit, and the
//! algorithm choice behind them: the paper spends `N·log2 N` messages on a
//! `log2 N`-latency butterfly where the conventional binary-tree reduce +
//! broadcast sends `2(N−1)` over a `2·log2 N` critical path. On a
//! latency-bound primitive called 2 × Ni times a model step the path
//! length decides.

use crate::perf::fit::log2_fit;
use crate::perf::report::Table;
use hyades_comms::gsum::{latency_table, measure_gsum_tree};
use hyades_startx::HostParams;
use std::fmt::Write as _;

/// Paper values: (N, plain µs, 2×N SMP µs).
pub const PAPER: [(u16, f64, f64); 4] = [
    (2, 4.0, 4.8),
    (4, 8.3, 9.1),
    (8, 12.8, 13.5),
    (16, 18.2, 19.5),
];

/// Paper fit: `t = 4.67·log2 N − 0.95` µs.
pub const PAPER_FIT: (f64, f64) = (4.67, -0.95);

pub struct GsumReport {
    /// (N, measured plain µs, measured SMP µs).
    pub rows: Vec<(u16, f64, f64)>,
    /// Our least-squares fit (C, B) to the plain latencies.
    pub fit: (f64, f64),
}

pub fn measure() -> GsumReport {
    let table = latency_table(HostParams::default());
    let rows: Vec<(u16, f64, f64)> = table
        .iter()
        .map(|(n, plain, smp)| (*n, plain.elapsed.as_us_f64(), smp.elapsed.as_us_f64()))
        .collect();
    let pts: Vec<(u32, f64)> = rows.iter().map(|&(n, t, _)| (n as u32, t)).collect();
    GsumReport {
        fit: log2_fit(&pts),
        rows,
    }
}

/// The comparator's latency (µs) for each `N` of [`PAPER`]: tree reduce to
/// node 0, then broadcast back down (the operands do not move the time).
pub fn measure_tree() -> Vec<f64> {
    PAPER
        .iter()
        .map(|&(n, ..)| {
            measure_gsum_tree(HostParams::default(), &vec![1.0; usize::from(n)])
                .elapsed
                .as_us_f64()
        })
        .collect()
}

pub fn run() -> String {
    let rep = measure();
    let mut t = Table::new(&["N-way", "t (us)", "paper", "2xN-way (us)", "paper"]);
    let mut algo = Table::new(&["N-way", "butterfly (us)", "tree (us)", "tree/butterfly"]);
    for (((n, plain, smp), paper), tree) in rep.rows.iter().zip(PAPER.iter()).zip(measure_tree()) {
        t.row(&[
            n.to_string(),
            format!("{plain:.1}"),
            format!("{}", paper.1),
            format!("{smp:.1}"),
            format!("{}", paper.2),
        ]);
        algo.row(&[
            n.to_string(),
            format!("{plain:.1}"),
            format!("{tree:.1}"),
            format!("{:.2}x", tree / plain),
        ]);
    }
    format!(
        "E3  Section 4.2: N-way global sum latency (simulated fabric)\n\n{}\n\
         least-squares fit: t = {:.2}*log2(N) {:+.2} us   (paper: {}*log2(N) {:+})\n\n\
         Section 4.2 ablation: butterfly vs tree reduce + broadcast\n\n{}",
        t.render(),
        rep.fit.0,
        rep.fit.1,
        PAPER_FIT.0,
        PAPER_FIT.1,
        algo.render()
    )
}

/// The latencies as point data, paper values alongside; the fit rides as
/// a trailing comment line.
pub fn csv() -> String {
    let rep = measure();
    let mut csv = String::from("n,measured_us,measured_smp_us,paper_us,paper_smp_us\n");
    for ((n, plain, smp), paper) in rep.rows.iter().zip(PAPER.iter()) {
        let _ = writeln!(csv, "{n},{plain:.3},{smp:.3},{},{}", paper.1, paper.2);
    }
    let _ = writeln!(
        csv,
        "# fit: t = {:.3}*log2(N) + {:.3}",
        rep.fit.0, rep.fit.1
    );
    csv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_match_paper_within_25_percent() {
        let rep = measure();
        for ((n, plain, smp), paper) in rep.rows.iter().zip(PAPER.iter()) {
            assert!(
                (plain - paper.1).abs() / paper.1 < 0.25,
                "{n}-way: {plain} vs {}",
                paper.1
            );
            assert!(
                (smp - paper.2).abs() / paper.2 < 0.25,
                "2x{n}-way: {smp} vs {}",
                paper.2
            );
        }
    }

    #[test]
    fn fit_slope_is_in_paper_regime() {
        let rep = measure();
        // Paper slope 4.67 µs/round; ours must be the same order with the
        // same log-linear form.
        assert!(
            (3.0..6.0).contains(&rep.fit.0),
            "slope {} out of range",
            rep.fit.0
        );
        assert!(rep.fit.1.abs() < 3.0, "intercept {}", rep.fit.1);
    }

    #[test]
    fn report_renders() {
        let r = run();
        assert!(r.contains("least-squares fit"));
        assert!(r.contains("16"));
    }
}
