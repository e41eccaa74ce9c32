//! Performance-model parameters (Figure 11).
//!
//! Measured values for the coupled ocean–atmosphere simulation at 2.8125°,
//! each isomorph on sixteen processors over eight SMPs (i.e. eight network
//! endpoints; `nxyz`/`nxy` are per endpoint). The sustained rates are the
//! ones the telemetry recorder charges compute at.

use hyades_telemetry::{FDS_MFLOPS, FPS_MFLOPS};

/// PS-phase parameters of one isomorph.
#[derive(Clone, Copy, Debug)]
pub struct PsParams {
    /// Floating-point operations per grid cell per PS pass.
    pub nps: f64,
    /// 3-D grid cells per endpoint.
    pub nxyz: u64,
    /// One 3-D field exchange (µs).
    pub texch_xyz_us: f64,
    /// Sustained PS kernel rate (MFlop/s).
    pub fps_mflops: f64,
}

/// DS-phase parameters (identical for both isomorphs in the coupled run).
#[derive(Clone, Copy, Debug)]
pub struct DsParams {
    /// Flops per vertical column per solver iteration.
    pub nds: f64,
    /// Columns per endpoint.
    pub nxy: u64,
    /// One global sum (µs) — the 2×8-way configuration.
    pub tgsum_us: f64,
    /// One 2-D field exchange (µs).
    pub texch_xy_us: f64,
    /// Sustained DS kernel rate (MFlop/s).
    pub fds_mflops: f64,
}

/// Figure 11, atmosphere PS row.
pub fn paper_atmos_ps() -> PsParams {
    PsParams {
        nps: 781.0,
        nxyz: 5120,
        texch_xyz_us: 1640.0,
        fps_mflops: FPS_MFLOPS,
    }
}

/// Figure 11, ocean PS row.
pub fn paper_ocean_ps() -> PsParams {
    PsParams {
        nps: 751.0,
        nxyz: 15360,
        texch_xyz_us: 4573.0,
        fps_mflops: FPS_MFLOPS,
    }
}

/// Figure 11, DS row.
pub fn paper_ds() -> DsParams {
    DsParams {
        nds: 36.0,
        nxy: 1024,
        tgsum_us: 13.5,
        texch_xy_us: 115.0,
        fds_mflops: FDS_MFLOPS,
    }
}

/// §5.3's one-year atmospheric validation run.
pub struct ValidationRun {
    pub nt: u64,
    pub ni: f64,
    pub observed_minutes: f64,
}

pub fn paper_validation_run() -> ValidationRun {
    ValidationRun {
        nt: 77_760,
        ni: 60.0,
        observed_minutes: 183.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure11_values() {
        let a = paper_atmos_ps();
        let o = paper_ocean_ps();
        let d = paper_ds();
        assert_eq!(a.nxyz, 5120);
        assert_eq!(o.nxyz, 15360);
        assert_eq!(d.nxy, 1024);
        // Consistency: nxyz = nxy × levels (5 for the atmosphere, 15 for
        // the ocean) — the geometry behind Figure 11.
        assert_eq!(a.nxyz, d.nxy * 5);
        assert_eq!(o.nxyz, d.nxy * 15);
        // 8 endpoints × 1024 columns = the 128×64 global grid.
        assert_eq!(8 * d.nxy, 128 * 64);
    }

    #[test]
    fn ocean_exchange_scales_with_levels() {
        // texch_xyz should scale roughly with the halo volume (levels):
        // 15/5 = 3 vs measured 4573/1640 = 2.79.
        let ratio = paper_ocean_ps().texch_xyz_us / paper_atmos_ps().texch_xyz_us;
        assert!((2.4..3.2).contains(&ratio), "{ratio}");
    }
}
