//! Equations (4)–(13): phase times, run time, and the comm/compute split.

use crate::perf::params::{DsParams, PsParams};
use hyades_cluster::interconnect::{ExchangeShape, Interconnect};

/// The assembled performance model of one isomorph configuration.
#[derive(Clone, Copy, Debug)]
pub struct PerfModel {
    pub ps: PsParams,
    pub ds: DsParams,
}

impl PerfModel {
    /// PS compute time (s), eq. (5).
    pub fn tps_compute(&self) -> f64 {
        self.ps.nps * self.ps.nxyz as f64 / (self.ps.fps_mflops * 1e6)
    }

    /// PS communication time (s), eq. (6): five 3-D field exchanges.
    pub fn tps_exch(&self) -> f64 {
        5.0 * self.ps.texch_xyz_us * 1e-6
    }

    /// One PS pass (s), eq. (4).
    pub fn tps(&self) -> f64 {
        self.tps_compute() + self.tps_exch()
    }

    /// DS compute time per solver iteration (s), eq. (8).
    pub fn tds_compute(&self) -> f64 {
        self.ds.nds * self.ds.nxy as f64 / (self.ds.fds_mflops * 1e6)
    }

    /// DS communication per iteration (s), eqs. (9)–(10): two 2-D
    /// exchanges and two global sums.
    pub fn tds_comm(&self) -> f64 {
        (2.0 * self.ds.texch_xy_us + 2.0 * self.ds.tgsum_us) * 1e-6
    }

    /// One DS iteration (s), eq. (7).
    pub fn tds(&self) -> f64 {
        self.tds_compute() + self.tds_comm()
    }

    /// One time step (s) at `ni` solver iterations: a PS pass plus `ni`
    /// DS iterations, the per-step term of eq. (11).
    pub fn t_step(&self, ni: f64) -> f64 {
        self.tps() + ni * self.tds()
    }

    /// Total run time (s) for `nt` steps at `ni` mean solver iterations,
    /// eq. (11).
    pub fn t_run(&self, nt: u64, ni: f64) -> f64 {
        nt as f64 * self.tps() + nt as f64 * ni * self.tds()
    }

    /// Total communication time (s), eq. (12).
    pub fn t_comm(&self, nt: u64, ni: f64) -> f64 {
        let nt = nt as f64;
        2.0 * nt * ni * self.ds.tgsum_us * 1e-6
            + nt * self.tps_exch()
            + 2.0 * nt * ni * self.ds.texch_xy_us * 1e-6
    }

    /// Total computation time (s), eq. (13).
    pub fn t_comp(&self, nt: u64, ni: f64) -> f64 {
        nt as f64 * self.tps_compute() + nt as f64 * ni * self.tds_compute()
    }

    /// Sustained application rate (MFlop/s) aggregated over
    /// `n_endpoints`, at `ni` solver iterations per step.
    pub fn sustained_mflops(&self, n_endpoints: u32, ni: f64) -> f64 {
        let flops_per_endpoint =
            self.ps.nps * self.ps.nxyz as f64 + ni * self.ds.nds * self.ds.nxy as f64;
        n_endpoints as f64 * flops_per_endpoint / self.t_step(ni) / 1e6
    }

    /// Parallel efficiency relative to a communication-free machine.
    pub fn efficiency(&self, ni: f64) -> f64 {
        let t_comp = self.tps_compute() + ni * self.tds_compute();
        t_comp / self.t_step(ni)
    }

    /// Re-cost the communication terms on a different interconnect,
    /// keeping the compute parameters. `levels` is the isomorph's
    /// vertical resolution; tiles are the standard 32×32 columns with a
    /// width-3 PS halo and width-1 DS halo, 8-byte elements.
    pub fn on_interconnect(
        &self,
        net: &dyn Interconnect,
        levels: u32,
        n_endpoints: u32,
    ) -> PerfModel {
        let edge = (self.ds.nxy as f64).sqrt().round() as u32;
        let ps_shape = ExchangeShape::square_tile(edge, 3, levels, 8);
        let ds_shape = ExchangeShape::square_tile(edge, 1, 1, 8);
        PerfModel {
            ps: PsParams {
                texch_xyz_us: net.exchange_time(&ps_shape).as_us_f64(),
                ..self.ps
            },
            ds: DsParams {
                texch_xy_us: net.exchange_time(&ds_shape).as_us_f64(),
                tgsum_us: net.smp_gsum_time(n_endpoints).as_us_f64(),
                ..self.ds
            },
        }
    }
}

/// The paper's atmosphere model instance (Figure 11).
pub fn paper_atmosphere() -> PerfModel {
    PerfModel {
        ps: crate::perf::params::paper_atmos_ps(),
        ds: crate::perf::params::paper_ds(),
    }
}

/// The paper's ocean model instance (Figure 11).
pub fn paper_ocean() -> PerfModel {
    PerfModel {
        ps: crate::perf::params::paper_ocean_ps(),
        ds: crate::perf::params::paper_ds(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::params::paper_validation_run;

    #[test]
    fn section_5_3_predicted_times() {
        // §5.3: Nt = 77760, Ni = 60 → Tcomm ≈ 30.1 min, Tcomp ≈ 151 min,
        // total ≈ 181 min vs 183 observed.
        let m = paper_atmosphere();
        let run = paper_validation_run();
        let comm_min = m.t_comm(run.nt, run.ni) / 60.0;
        let comp_min = m.t_comp(run.nt, run.ni) / 60.0;
        assert!((comm_min - 30.1).abs() < 1.0, "Tcomm {comm_min} min");
        assert!((comp_min - 151.0).abs() < 1.5, "Tcomp {comp_min} min");
        let total_min = m.t_run(run.nt, run.ni) / 60.0;
        assert!((total_min - 181.0).abs() < 2.0, "Trun {total_min} min");
        // Agreement with the observed 183 minutes within ~2%.
        assert!((total_min - run.observed_minutes).abs() / run.observed_minutes < 0.02);
    }

    #[test]
    fn run_time_decomposes_exactly() {
        let m = paper_ocean();
        let (nt, ni) = (1000u64, 60.0);
        let sum = m.t_comm(nt, ni) + m.t_comp(nt, ni);
        assert!((sum - m.t_run(nt, ni)).abs() < 1e-9 * m.t_run(nt, ni));
    }

    #[test]
    fn coupled_rate_from_figure_11_parameters() {
        // §5.1 claims 1.6–1.8 GFlop/s combined. Plugging Figure 11's own
        // per-endpoint parameters into eq. (11) yields ~0.7 GFlop/s —
        // an internal tension of the paper (its Figure 10 headline rates
        // correspond to the *full-cluster* single-isomorph runs). We pin
        // the model's actual output and document the discrepancy in
        // EXPERIMENTS.md.
        let ni = 60.0;
        let atmos = paper_atmosphere().sustained_mflops(8, ni);
        let ocean = paper_ocean().sustained_mflops(8, ni);
        let total = atmos + ocean;
        assert!(
            (600.0..900.0).contains(&total),
            "combined rate {total} MFlop/s"
        );
        // Both isomorphs individually sustain hundreds of MFlop/s.
        assert!(atmos > 250.0 && ocean > 250.0, "{atmos} / {ocean}");
    }

    #[test]
    fn efficiency_shrinks_with_more_solver_iterations() {
        let m = paper_atmosphere();
        assert!(m.efficiency(20.0) > m.efficiency(200.0));
        assert!(m.efficiency(60.0) > 0.5 && m.efficiency(60.0) < 1.0);
    }

    #[test]
    fn interconnect_substitution_changes_only_comm() {
        let m = paper_atmosphere();
        let fe = hyades_cluster::ethernet::fast_ethernet();
        let m_fe = m.on_interconnect(&fe, 5, 8);
        assert_eq!(m.ps.nps, m_fe.ps.nps);
        assert_eq!(m.ds.fds_mflops, m_fe.ds.fds_mflops);
        // Fast Ethernet's exchanges are orders of magnitude slower.
        assert!(m_fe.ps.texch_xyz_us > 20.0 * m.ps.texch_xyz_us);
        assert!(m_fe.ds.tgsum_us > 500.0);
    }
}
