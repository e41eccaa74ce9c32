//! E10 — §6's production-throughput claim: "the Hyades cluster is a
//! platform on which a century long synchronous climate simulation,
//! coupling an atmosphere at 2.8° resolution to a 1° ocean, can be
//! completed within a two week period."
//!
//! Both isomorphs run concurrently on half the cluster each (8 endpoints,
//! 16 processors); the coupled run finishes when the slower isomorph
//! does. The atmosphere's year is §5.3's validated 183 minutes; the 1°
//! ocean is costed through the same performance model with communication
//! from the simulated fabric.

use crate::perf::model::{paper_atmosphere, PerfModel};
use crate::perf::params::{paper_ds, paper_ocean_ps, DsParams, PsParams};
use hyades_cluster::interconnect::{ExchangeShape, Interconnect};
use hyades_comms::measured::simulated_arctic_model;

/// The 1° ocean: 360×160 columns (walls poleward of ±80°), 15 levels, on
/// 8 endpoints (4×2 tiles of 90×80), both SMP processors working per
/// endpoint (the mixed-mode configuration: 2 × 50 MFlop/s per endpoint on
/// PS, 2 × 60 on DS).
pub fn ocean_1deg_model() -> PerfModel {
    let net = simulated_arctic_model();
    let (tx, ty, levels) = (90u32, 80u32, 15u32);
    let ps_shape = ExchangeShape::tile(tx, ty, 3, levels, 8);
    let ds_shape = ExchangeShape::tile(tx, ty, 1, 1, 8);
    let (ps, ds) = (paper_ocean_ps(), paper_ds());
    PerfModel {
        ps: PsParams {
            nxyz: (tx * ty * levels) as u64,
            texch_xyz_us: net.exchange_time(&ps_shape).as_us_f64(),
            fps_mflops: 2.0 * ps.fps_mflops, // both processors of the SMP
            ..ps
        },
        ds: DsParams {
            nxy: (tx * ty) as u64,
            tgsum_us: net.smp_gsum_time(8).as_us_f64(),
            texch_xy_us: net.exchange_time(&ds_shape).as_us_f64(),
            fds_mflops: 2.0 * ds.fds_mflops,
            ..ds
        },
    }
}

/// Ocean time stepping at 1°: one-hour steps, more solver iterations on
/// the finer grid (CG iteration count grows roughly with the grid
/// diameter: ~60 at 128×64 → ~150 at 360×160).
pub const OCEAN_STEPS_PER_YEAR: u64 = 8766;
pub const OCEAN_NI: f64 = 150.0;

/// Wall-clock days for a century of each isomorph and of the coupled run.
pub struct CenturyEstimate {
    pub atmos_days: f64,
    pub ocean_days: f64,
    pub coupled_days: f64,
}

pub fn estimate() -> CenturyEstimate {
    // Atmosphere: the §5.3-validated year.
    let atmos = paper_atmosphere();
    let atmos_year_s = atmos.t_run(77_760, 60.0);
    // Ocean at 1°.
    let ocean = ocean_1deg_model();
    let ocean_year_s = ocean.t_run(OCEAN_STEPS_PER_YEAR, OCEAN_NI);
    let to_days = |s: f64| s * 100.0 / 86_400.0;
    let (a, o) = (to_days(atmos_year_s), to_days(ocean_year_s));
    CenturyEstimate {
        atmos_days: a,
        ocean_days: o,
        // Synchronous coupling: the two run concurrently on disjoint
        // halves; the slower isomorph sets the pace.
        coupled_days: a.max(o),
    }
}

pub fn run() -> String {
    let e = estimate();
    let ocean = ocean_1deg_model();
    format!(
        "E10 Section 6: century-long coupled simulation throughput\n\n\
         atmosphere (2.8125 deg, validated 183 min/yr): {:.1} days/century\n\
         ocean (1 deg, 360x160x15, {} steps/yr, Ni={}): {:.1} days/century\n\
         (ocean efficiency {:.0}%, texch_xyz {:.0} us, texch_xy {:.0} us)\n\n\
         coupled century (slower isomorph paces): {:.1} days\n\
         paper's claim: \"within a two week period\" -> {}\n",
        e.atmos_days,
        OCEAN_STEPS_PER_YEAR,
        OCEAN_NI,
        e.ocean_days,
        ocean.efficiency(OCEAN_NI) * 100.0,
        ocean.ps.texch_xyz_us,
        ocean.ds.texch_xy_us,
        e.coupled_days,
        if e.coupled_days <= 14.5 {
            "HOLDS"
        } else {
            "DOES NOT HOLD"
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn century_fits_in_two_weeks() {
        let e = estimate();
        // Atmosphere: 183 min/yr × 100 ≈ 12.7 days.
        assert!((12.0..13.5).contains(&e.atmos_days), "{}", e.atmos_days);
        // The 1° ocean must keep pace on its half of the cluster.
        assert!(e.ocean_days < 14.5, "ocean century {} days", e.ocean_days);
        assert!(e.coupled_days <= 14.5, "coupled {} days", e.coupled_days);
        // And the claim is not trivially slack: it is within ~3 days of
        // the two-week budget.
        assert!(e.coupled_days > 9.0);
    }

    #[test]
    fn ocean_is_compute_dominated_at_one_degree() {
        // Bigger tiles = coarser grain: the 1° ocean should be *more*
        // efficient than the 2.8° configuration, which is the reason a
        // personal cluster can afford the finer ocean at all.
        let one_deg = ocean_1deg_model();
        let coarse = crate::perf::model::paper_ocean();
        assert!(one_deg.efficiency(OCEAN_NI) > coarse.efficiency(60.0));
        assert!(one_deg.efficiency(OCEAN_NI) > 0.85);
    }

    #[test]
    fn report_renders() {
        let r = run();
        assert!(r.contains("two week"));
        assert!(r.contains("HOLDS"));
    }
}
