//! E1 — Figure 2: LogP characteristics of PIO message passing.

use crate::perf::report::Table;
use hyades_startx::logp::{figure2, LogPRow};
use hyades_startx::HostParams;
use std::fmt::Write as _;

/// Paper values: (payload, Os, Or, RTT/2, L) in µs.
pub const PAPER: [(u64, f64, f64, f64, f64); 2] =
    [(8, 0.4, 2.0, 3.7, 1.3), (64, 1.7, 8.6, 11.7, 1.4)];

/// Measured rows from the simulated fabric.
pub fn measure() -> Vec<LogPRow> {
    figure2(HostParams::default())
}

/// Render the paper-vs-simulation table.
pub fn run() -> String {
    let rows = measure();
    let mut t = Table::new(&[
        "size (B)",
        "Os (us)",
        "Or (us)",
        "RTT/2 (us)",
        "L (us)",
        "paper Os/Or/RTT2/L",
    ]);
    for (row, paper) in rows.iter().zip(PAPER.iter()) {
        t.row(&[
            row.payload_bytes.to_string(),
            format!("{:.2}", row.os.as_us_f64()),
            format!("{:.2}", row.or.as_us_f64()),
            format!("{:.2}", row.half_rtt.as_us_f64()),
            format!("{:.2}", row.latency.as_us_f64()),
            format!("{}/{}/{}/{}", paper.1, paper.2, paper.3, paper.4),
        ]);
    }
    format!(
        "E1  Figure 2: LogP characteristics of StarT-X PIO messaging\n\
         (simulated fabric, 16 endpoints, worst-case 7-stage path)\n\n{}",
        t.render()
    )
}

/// The measured rows as point data, paper values alongside.
pub fn csv() -> String {
    let mut csv = String::from("payload_bytes,os_us,or_us,half_rtt_us,latency_us,paper_os,paper_or,paper_half_rtt,paper_latency\n");
    for (row, paper) in measure().iter().zip(PAPER.iter()) {
        let _ = writeln!(
            csv,
            "{},{:.3},{:.3},{:.3},{:.3},{},{},{},{}",
            row.payload_bytes,
            row.os.as_us_f64(),
            row.or.as_us_f64(),
            row.half_rtt.as_us_f64(),
            row.latency.as_us_f64(),
            paper.1,
            paper.2,
            paper.3,
            paper.4
        );
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_rows_within_15_percent_of_paper() {
        for (row, paper) in measure().iter().zip(PAPER.iter()) {
            let checks = [
                (row.os.as_us_f64(), paper.1),
                (row.or.as_us_f64(), paper.2),
                (row.half_rtt.as_us_f64(), paper.3),
            ];
            for (ours, theirs) in checks {
                assert!(
                    (ours - theirs).abs() / theirs < 0.15,
                    "size {}: {ours} vs paper {theirs}",
                    paper.0
                );
            }
            // Latency is the small residual of the subtraction; allow a
            // wider band.
            assert!(
                (row.latency.as_us_f64() - paper.4).abs() / paper.4 < 0.35,
                "L {} vs {}",
                row.latency,
                paper.4
            );
        }
    }

    #[test]
    fn report_renders() {
        let r = run();
        assert!(r.contains("Figure 2"));
        assert!(r.contains("RTT/2"));
        assert!(r.lines().count() > 5);
    }
}
