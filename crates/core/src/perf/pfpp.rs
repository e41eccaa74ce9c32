//! Potential Floating-Point Performance (eqs. 14–15) and the Figure 12
//! analysis.
//!
//! `Pfpp` is the per-processor rate the application would sustain if
//! computation took zero time — a pure measure of how much application
//! performance the interconnect can support. If `Pfpp ≫ F` the system is
//! compute-bound and faster processors pay off; if `Pfpp < F` the
//! interconnect is the wall.

use crate::perf::model::PerfModel;

/// One row of Figure 12.
#[derive(Clone, Debug)]
pub struct PfppRow {
    pub name: String,
    pub tgsum_us: f64,
    pub texch_xy_us: f64,
    pub texch_xyz_us: f64,
    /// MFlop/s, eq. (14).
    pub pfpp_ps: f64,
    /// MFlop/s, eq. (15).
    pub pfpp_ds: f64,
    /// Reference sustained kernel rates for the verdicts.
    pub fps_mflops: f64,
    pub fds_mflops: f64,
}

/// Compute eq. (14): `Pfpp_ps = Nps·nxyz / (5·texch_xyz)`.
pub fn pfpp_ps(m: &PerfModel) -> f64 {
    m.ps.nps * m.ps.nxyz as f64 / (5.0 * m.ps.texch_xyz_us * 1e-6) / 1e6
}

/// Compute eq. (15): `Pfpp_ds = Nds·nxy / (2·tgsum + 2·texch_xy)`.
pub fn pfpp_ds(m: &PerfModel) -> f64 {
    m.ds.nds * m.ds.nxy as f64 / (2.0 * (m.ds.tgsum_us + m.ds.texch_xy_us) * 1e-6) / 1e6
}

/// Build a Figure 12 row from a model instance.
pub fn row(name: &str, m: &PerfModel) -> PfppRow {
    PfppRow {
        name: name.to_string(),
        tgsum_us: m.ds.tgsum_us,
        texch_xy_us: m.ds.texch_xy_us,
        texch_xyz_us: m.ps.texch_xyz_us,
        pfpp_ps: pfpp_ps(m),
        pfpp_ds: pfpp_ds(m),
        fps_mflops: m.ps.fps_mflops,
        fds_mflops: m.ds.fds_mflops,
    }
}

impl PfppRow {
    /// Is this interconnect viable for the coarse-grain PS phase
    /// (`Pfpp_ps` comfortably above the processor rate)?
    pub fn viable_for_ps(&self) -> bool {
        self.pfpp_ps > self.fps_mflops
    }

    /// Is it viable for the fine-grain DS phase?
    pub fn viable_for_ds(&self) -> bool {
        self.pfpp_ds > self.fds_mflops
    }

    /// §5.4's threshold: the `tgsum + texch_xy` budget (µs) that would
    /// make `Pfpp_ds` equal the processor rate.
    pub fn ds_comm_budget_us(nds: f64, nxy: u64, fds_mflops: f64) -> f64 {
        // Pfpp_ds = Nds·nxy/(2·budget) = Fds  ⇒  budget = Nds·nxy/(2·Fds)
        nds * nxy as f64 / (2.0 * fds_mflops) // MFlops cancel: result in µs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::model::{paper_atmosphere, PerfModel};
    use crate::perf::params::{DsParams, PsParams};

    fn with_comm(tgsum: f64, txy: f64, txyz: f64) -> PerfModel {
        let base = paper_atmosphere();
        PerfModel {
            ps: PsParams {
                texch_xyz_us: txyz,
                ..base.ps
            },
            ds: DsParams {
                tgsum_us: tgsum,
                texch_xy_us: txy,
                ..base.ds
            },
        }
    }

    #[test]
    fn figure12_arctic_row() {
        let m = with_comm(13.5, 115.0, 1640.0);
        assert!((pfpp_ps(&m) - 487.0).abs() < 2.0, "{}", pfpp_ps(&m));
        assert!((pfpp_ds(&m) - 143.0).abs() < 2.0, "{}", pfpp_ds(&m));
        let r = row("Arctic", &m);
        assert!(r.viable_for_ps() && r.viable_for_ds());
    }

    #[test]
    fn figure12_fast_ethernet_row() {
        let m = with_comm(942.0, 10_008.0, 100_000.0);
        assert!((pfpp_ps(&m) - 8.0).abs() < 0.1, "{}", pfpp_ps(&m));
        assert!((pfpp_ds(&m) - 1.6).abs() < 0.15, "{}", pfpp_ds(&m));
        let r = row("Fast Ethernet", &m);
        assert!(!r.viable_for_ps() && !r.viable_for_ds());
    }

    #[test]
    fn figure12_gigabit_ethernet_row() {
        let m = with_comm(1_193.0, 1_789.0, 5_742.0);
        assert!((pfpp_ps(&m) - 139.0).abs() < 1.0, "{}", pfpp_ps(&m));
        assert!((pfpp_ds(&m) - 6.2).abs() < 0.1, "{}", pfpp_ds(&m));
        let r = row("Gigabit Ethernet", &m);
        // §5.4: GE is viable for coarse-grain PS …
        assert!(r.viable_for_ps());
        // … but an order of magnitude short for fine-grain DS.
        assert!(!r.viable_for_ds());
        assert!(r.pfpp_ds < r.fds_mflops / 5.0);
    }

    #[test]
    fn ds_budget_is_306_microseconds() {
        // §5.4: "To achieve Pfpp_ds of 60 MFlop/s, the sum of tgsum and
        // texch_xy cannot exceed 306 µs."
        let budget = PfppRow::ds_comm_budget_us(36.0, 1024, 60.0);
        assert!((budget - 307.2).abs() < 2.0, "{budget}");
        // Gigabit Ethernet is nearly a factor of ten away.
        let ge_sum = 1_193.0 + 1_789.0;
        let factor = ge_sum / budget;
        assert!((8.0..12.0).contains(&factor), "GE factor {factor}");
    }

    #[test]
    fn pfpp_is_monotone_in_comm_cost() {
        let fast = with_comm(10.0, 100.0, 1000.0);
        let slow = with_comm(100.0, 1000.0, 10_000.0);
        assert!(pfpp_ps(&fast) > pfpp_ps(&slow));
        assert!(pfpp_ds(&fast) > pfpp_ds(&slow));
    }
}
