//! E8 — §6: the HPVM/Myrinet comparison.
//!
//! The paper's argument for application-specific primitives: a
//! general-purpose cluster suite with comparable hardware (HPVM on
//! Myrinet) needs more than 50 µs for a 16-way barrier — over 2.5× the
//! Hyades context-specific primitive — and moves 1-KB blocks at
//! ~42 MByte/s, about 25% slower than the Hyades exchange legs.

use crate::perf::report::Table;
use hyades_cluster::ethernet::hpvm_myrinet;
use hyades_cluster::interconnect::Interconnect;
use hyades_comms::barrier::measure_barrier;
use hyades_startx::vi::{measure_transfer, ViConfig};
use hyades_startx::HostParams;

pub struct HpvmComparison {
    pub hyades_barrier_us: f64,
    pub hpvm_barrier_us: f64,
    pub hyades_1kb_mbs: f64,
    pub hpvm_1kb_mbs: f64,
}

pub fn measure() -> HpvmComparison {
    let host = HostParams::default();
    let hpvm = hpvm_myrinet();
    let hyades_barrier = measure_barrier(host, 16).as_us_f64();
    let t1k = measure_transfer(host, ViConfig::default(), 16, 1024);
    HpvmComparison {
        hyades_barrier_us: hyades_barrier,
        hpvm_barrier_us: hpvm.barrier_time(16).as_us_f64(),
        hyades_1kb_mbs: t1k.mbyte_per_sec,
        hpvm_1kb_mbs: 1024.0 / hpvm.ptp_time(1024).as_secs_f64() / 1e6,
    }
}

pub fn run() -> String {
    let c = measure();
    let mut t = Table::new(&["metric", "Hyades (simulated)", "HPVM/Myrinet", "ratio"]);
    t.row(&[
        "16-way barrier (us)".into(),
        format!("{:.1}", c.hyades_barrier_us),
        format!("{:.1}", c.hpvm_barrier_us),
        format!("{:.1}x", c.hpvm_barrier_us / c.hyades_barrier_us),
    ]);
    t.row(&[
        "1-KB transfer (MB/s)".into(),
        format!("{:.1}", c.hyades_1kb_mbs),
        format!("{:.1}", c.hpvm_1kb_mbs),
        format!(
            "{:.0}% slower",
            (1.0 - c.hpvm_1kb_mbs / c.hyades_1kb_mbs) * 100.0
        ),
    ]);
    format!(
        "E8  Section 6: application-specific primitives vs the general-purpose\n\
         HPVM suite on comparable hardware\n\n{}\n\
         paper: HPVM barrier > 50 us (>2.5x Hyades); HPVM 1-KB transfers ~42 MB/s\n\
         (~25% slower than the Hyades exchange).\n",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_ratio_exceeds_2_5x() {
        let c = measure();
        assert!(c.hpvm_barrier_us > 50.0);
        assert!(
            c.hpvm_barrier_us / c.hyades_barrier_us > 2.5,
            "{} vs {}",
            c.hpvm_barrier_us,
            c.hyades_barrier_us
        );
    }

    #[test]
    fn hpvm_1kb_rate_about_42() {
        let c = measure();
        assert!((c.hpvm_1kb_mbs - 42.0).abs() < 1.0, "{}", c.hpvm_1kb_mbs);
        // ~25% slower than Hyades's 1-KB exchange leg.
        let slowdown = 1.0 - c.hpvm_1kb_mbs / c.hyades_1kb_mbs;
        assert!((0.2..0.3).contains(&slowdown), "slowdown {slowdown}");
    }

    #[test]
    fn report_renders() {
        assert!(run().contains("HPVM"));
    }
}
