//! E7 — Figure 12: Potential Floating-Point Performance by interconnect.
//!
//! The Fast/Gigabit Ethernet rows use primitive costs calibrated to the
//! paper's stand-alone measurements; the Arctic row is *measured on the
//! simulated fabric*. The derived Pfpp columns — who can support the
//! fine-grain DS phase, by what factor the Ethernets miss — are computed,
//! not copied, and the paper's published row is shown alongside.

use crate::perf::model::{paper_atmosphere, PerfModel};
use crate::perf::pfpp::{self, PfppRow};
use crate::perf::report::{mflops, us, Table};
use hyades_cluster::ethernet::{fast_ethernet, gigabit_ethernet};
use hyades_comms::measured::simulated_arctic_model;
use std::fmt::Write as _;

/// Paper's Figure 12 rows: (name, tgsum, texch_xy, texch_xyz, Pfpp_ps,
/// Pfpp_ds) in µs / MFlop/s.
pub const PAPER: [(&str, f64, f64, f64, f64, f64); 3] = [
    ("F.E.", 942.0, 10_008.0, 100_000.0, 8.0, 1.6),
    ("G.E.", 1_193.0, 1_789.0, 5_742.0, 139.0, 6.2),
    ("Arctic", 13.5, 115.0, 1_640.0, 487.0, 143.0),
];

/// Build the three rows (plus the paper-constant Arctic row for
/// reference) on the 2.8125° atmosphere configuration.
pub fn rows() -> Vec<PfppRow> {
    let base = paper_atmosphere();
    let fe = base.on_interconnect(&fast_ethernet(), 5, 8);
    let ge = base.on_interconnect(&gigabit_ethernet(), 5, 8);
    let arctic_sim = base.on_interconnect(&simulated_arctic_model(), 5, 8);
    vec![
        pfpp::row("Fast Ethernet", &fe),
        pfpp::row("Gigabit Ethernet", &ge),
        pfpp::row("Arctic (simulated)", &arctic_sim),
        pfpp::row("Arctic (paper)", &base),
    ]
}

pub fn run() -> String {
    let mut t = Table::new(&[
        "interconnect",
        "tgsum (us)",
        "texch_xy (us)",
        "texch_xyz (us)",
        "Pfpp_ps (MF/s)",
        "Pfpp_ds (MF/s)",
        "verdict",
    ]);
    for r in rows() {
        let verdict = match (r.viable_for_ps(), r.viable_for_ds()) {
            (true, true) => "supports PS and DS",
            (true, false) => "PS only (DS-bound)",
            _ => "interconnect-bound",
        };
        t.row(&[
            r.name.clone(),
            us(r.tgsum_us),
            us(r.texch_xy_us),
            us(r.texch_xyz_us),
            mflops(r.pfpp_ps),
            mflops(r.pfpp_ds),
            verdict.to_string(),
        ]);
    }
    let budget = PfppRow::ds_comm_budget_us(36.0, 1024, 60.0);
    let m: PerfModel = paper_atmosphere();
    let ge = m.on_interconnect(&gigabit_ethernet(), 5, 8);
    let ge_sum = ge.ds.tgsum_us + ge.ds.texch_xy_us;
    format!(
        "E7  Figure 12: Potential Floating-Point Performance, 2.8125 deg atmosphere,\n\
         sixteen processors on eight SMPs\n\n{}\n\
         DS budget: tgsum + texch_xy must not exceed {budget:.0} us for Pfpp_ds = 60 MF/s\n\
         (paper: 306 us); Gigabit Ethernet is at {ge_sum:.0} us, a factor {:.1} away.\n",
        t.render(),
        ge_sum / budget,
    )
}

/// The rows as point data.
pub fn csv() -> String {
    let mut csv = String::from(
        "interconnect,tgsum_us,texch_xy_us,texch_xyz_us,pfpp_ps_mflops,pfpp_ds_mflops\n",
    );
    for r in rows() {
        let _ = writeln!(
            csv,
            "{},{:.2},{:.2},{:.2},{:.2},{:.2}",
            r.name, r.tgsum_us, r.texch_xy_us, r.texch_xyz_us, r.pfpp_ps, r.pfpp_ds
        );
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ethernet_rows_match_paper_figures() {
        let rows = rows();
        let fe = &rows[0];
        let ge = &rows[1];
        assert!((fe.pfpp_ps - 8.0).abs() < 0.3, "FE Pfpp_ps {}", fe.pfpp_ps);
        assert!((fe.pfpp_ds - 1.6).abs() < 0.2, "FE Pfpp_ds {}", fe.pfpp_ds);
        assert!(
            (ge.pfpp_ps - 139.0).abs() < 3.0,
            "GE Pfpp_ps {}",
            ge.pfpp_ps
        );
        assert!((ge.pfpp_ds - 6.2).abs() < 0.3, "GE Pfpp_ds {}", ge.pfpp_ds);
    }

    #[test]
    fn simulated_arctic_dominates_both_ethernets() {
        let rows = rows();
        let (fe, ge, arctic) = (&rows[0], &rows[1], &rows[2]);
        assert!(arctic.pfpp_ds > 10.0 * ge.pfpp_ds);
        assert!(arctic.pfpp_ds > 50.0 * fe.pfpp_ds);
        assert!(arctic.pfpp_ps > 2.0 * ge.pfpp_ps);
        // Only Arctic clears both phases.
        assert!(arctic.viable_for_ps() && arctic.viable_for_ds());
        assert!(ge.viable_for_ps() && !ge.viable_for_ds());
        assert!(!fe.viable_for_ps() && !fe.viable_for_ds());
    }

    #[test]
    fn simulated_arctic_close_to_paper_row() {
        let rows = rows();
        let (sim, paper) = (&rows[2], &rows[3]);
        // Global sum within ~25%.
        assert!(
            (sim.tgsum_us - paper.tgsum_us).abs() / paper.tgsum_us < 0.3,
            "tgsum {} vs {}",
            sim.tgsum_us,
            paper.tgsum_us
        );
        // Exchanges: same order (our lean host model is faster; see
        // EXPERIMENTS.md); Pfpp conclusions unchanged.
        assert!(sim.texch_xy_us < 3.0 * paper.texch_xy_us);
        assert!(sim.texch_xyz_us < 3.0 * paper.texch_xyz_us);
        assert!(sim.pfpp_ds > 100.0);
    }

    #[test]
    fn ge_misses_ds_budget_by_about_10x() {
        let m = paper_atmosphere().on_interconnect(&gigabit_ethernet(), 5, 8);
        let budget = PfppRow::ds_comm_budget_us(36.0, 1024, 60.0);
        let factor = (m.ds.tgsum_us + m.ds.texch_xy_us) / budget;
        assert!((7.0..13.0).contains(&factor), "factor {factor}");
    }

    #[test]
    fn report_renders() {
        let r = run();
        assert!(r.contains("Gigabit Ethernet"));
        assert!(r.contains("DS budget"));
    }
}
