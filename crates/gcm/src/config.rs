//! Model configuration presets.

use crate::decomp::Decomp;
use crate::eos::{atmos_5level_pressures, Eos, P00};
use crate::grid::{stretched_levels, Grid};

/// How the ocean surface boundary is forced when running uncoupled.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SurfaceForcing {
    /// No forcing (spin-down / conservation tests).
    None,
    /// Analytic zonal wind stress + restoring of θ/s to latitudinal
    /// profiles (ocean), or the built-in radiative package (atmosphere).
    Climatology,
    /// Boundary conditions supplied by the coupler.
    Coupled,
}

/// Complete configuration of one model instance (one isomorph).
#[derive(Clone, Debug)]
pub struct ModelConfig {
    pub grid: Grid,
    pub eos: Eos,
    pub decomp: Decomp,
    /// Time step (s).
    pub dt: f64,
    /// Horizontal Laplacian viscosity (m²/s).
    pub visc_h: f64,
    /// Vertical viscosity (m²/s or Pa²/s in the atmosphere's coordinate).
    pub visc_v: f64,
    /// Horizontal tracer diffusivity (m²/s).
    pub diff_h: f64,
    /// Vertical tracer diffusivity.
    pub diff_v: f64,
    /// Adams–Bashforth stabilizing offset (MITgcm's `abEps`).
    pub ab_eps: f64,
    /// CG solver: relative residual target.
    pub cg_rtol: f64,
    /// CG solver: iteration cap.
    pub cg_max_iters: usize,
    pub forcing: SurfaceForcing,
    /// Whether to use the idealized-continent topography (ocean only).
    pub continents: bool,
    /// Treat vertical tracer diffusion implicitly (backward Euler,
    /// unconditionally stable — required for large `diff_v`).
    pub implicit_vertical: bool,
    /// Uniform offset applied to the radiative-equilibrium temperature
    /// (K). The knob for the paleo-climate experiments the paper's
    /// configuration "is especially well suited to": 0 is the contemporary
    /// climate; negative values emulate reduced solar forcing / ice-age
    /// boundary conditions.
    pub theta_eq_offset: f64,
    /// Random-seed for the initial perturbation.
    pub seed: u64,
}

impl ModelConfig {
    /// The paper's atmosphere at 2.8125°: 128×64, five 200-hPa layers,
    /// Nt = 77760 steps per year ⇒ dt ≈ 405.5 s.
    pub fn atmosphere_2p8125(decomp: Decomp) -> ModelConfig {
        let nz = 5;
        let dp = vec![P00 / nz as f64; nz];
        let grid = Grid::coupled_2p8125(nz, dp);
        assert_eq!(decomp.nx, grid.nx);
        assert_eq!(decomp.ny, grid.ny);
        ModelConfig {
            grid,
            eos: Eos::atmosphere(&atmos_5level_pressures()),
            decomp,
            dt: 365.25 * 86400.0 / 77760.0,
            visc_h: 1.2e5,
            visc_v: 10.0,
            diff_h: 1.2e5,
            diff_v: 10.0,
            ab_eps: 0.01,
            cg_rtol: 1e-7,
            cg_max_iters: 200,
            forcing: SurfaceForcing::Climatology,
            continents: false,
            implicit_vertical: false,
            theta_eq_offset: 0.0,
            seed: 1999,
        }
    }

    /// The paper's coupled-run ocean at 2.8125° with 15 stretched levels
    /// over 4000 m.
    pub fn ocean_2p8125(decomp: Decomp) -> ModelConfig {
        let nz = 15;
        let grid = Grid::coupled_2p8125(nz, stretched_levels(nz, 4000.0));
        assert_eq!(decomp.nx, grid.nx);
        assert_eq!(decomp.ny, grid.ny);
        ModelConfig {
            grid,
            eos: Eos::ocean(nz),
            decomp,
            dt: 3600.0,
            visc_h: 2.0e5,
            visc_v: 1.0e-3,
            diff_h: 1.0e3,
            diff_v: 1.0e-4,
            ab_eps: 0.01,
            cg_rtol: 1e-7,
            cg_max_iters: 200,
            forcing: SurfaceForcing::Climatology,
            continents: true,
            implicit_vertical: false,
            theta_eq_offset: 0.0,
            seed: 2425,
        }
    }

    /// The 1° ocean of §6's century run: 360×160 columns (walls poleward
    /// of ±80°), 15 stretched levels over 4500 m.
    pub fn ocean_1deg(decomp: Decomp) -> ModelConfig {
        let nz = 15;
        let grid = Grid::global(360, 160, nz, 80.0, stretched_levels(nz, 4500.0));
        assert_eq!(decomp.nx, grid.nx);
        assert_eq!(decomp.ny, grid.ny);
        ModelConfig {
            grid,
            eos: Eos::ocean(nz),
            decomp,
            dt: 3600.0,
            visc_h: 2.0e4,
            visc_v: 1.0e-3,
            diff_h: 5.0e2,
            diff_v: 1.0e-4,
            ab_eps: 0.01,
            // `cg_rtol` is a reduction from the warm-started residual
            // (`solver::cg`), so 1e-5 already leaves the divergence
            // residual dynamically negligible; the deflated solver meets
            // it in about 100 iterations a step (116 and 82 on the first
            // two), and the cap is over an order of magnitude of slack.
            cg_rtol: 1e-5,
            cg_max_iters: 1500,
            forcing: SurfaceForcing::Climatology,
            continents: true,
            implicit_vertical: true,
            theta_eq_offset: 0.0,
            seed: 360,
        }
    }

    /// A small, fast configuration for tests: `nx × ny` grid, `nz` levels,
    /// aquaplanet ocean, no forcing.
    pub fn test_ocean(nx: usize, ny: usize, nz: usize, decomp: Decomp) -> ModelConfig {
        let grid = Grid::global(nx, ny, nz, 60.0, stretched_levels(nz, 4000.0));
        ModelConfig {
            grid,
            eos: Eos::ocean(nz),
            decomp,
            dt: 3600.0,
            visc_h: 1.0e5,
            visc_v: 1.0e-3,
            diff_h: 1.0e3,
            diff_v: 1.0e-5,
            ab_eps: 0.01,
            cg_rtol: 1e-8,
            cg_max_iters: 500,
            forcing: SurfaceForcing::None,
            continents: false,
            implicit_vertical: false,
            theta_eq_offset: 0.0,
            seed: 7,
        }
    }

    /// The paper's atmosphere in miniature, for tests and the tour: the
    /// 2.8125° preset's physics on an `nx × ny` grid (walls at ±60°) of
    /// five 200-hPa layers, stepped at Δt = 600 s.
    pub fn test_atmosphere(nx: usize, ny: usize, decomp: Decomp) -> ModelConfig {
        ModelConfig {
            grid: Grid::global(nx, ny, 5, 60.0, vec![2.0e4; 5]),
            decomp,
            dt: 600.0,
            ..ModelConfig::atmosphere_2p8125(Decomp::blocks(128, 64, 1, 1, 3))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eos::FluidKind;

    #[test]
    fn paper_atmosphere_step_count() {
        let d = Decomp::blocks(128, 64, 4, 2, 3);
        let cfg = ModelConfig::atmosphere_2p8125(d);
        // One year in Nt = 77760 steps.
        let steps_per_year = 365.25 * 86400.0 / cfg.dt;
        assert!((steps_per_year - 77760.0).abs() < 1.0);
        assert_eq!(cfg.eos.kind, FluidKind::Atmosphere);
        assert_eq!(cfg.grid.nz, 5);
    }

    #[test]
    fn ocean_preset_shape() {
        let d = Decomp::blocks(128, 64, 4, 2, 3);
        let cfg = ModelConfig::ocean_2p8125(d);
        assert_eq!(cfg.grid.nz, 15);
        assert!((cfg.grid.full_depth() - 4000.0).abs() < 1e-9);
        assert_eq!(cfg.eos.kind, FluidKind::Ocean);
    }

    /// `test_atmosphere` builds, field for field, the miniature that
    /// tests and the tour used to shrink from the paper preset by hand.
    #[test]
    fn test_atmosphere_is_the_hand_shrunk_preset() {
        for (nx, ny, px, py) in [
            (16, 8, 1, 1),
            (16, 8, 2, 2),
            (17, 8, 1, 1),
            (32, 16, 1, 1),
            (32, 16, 4, 2),
        ] {
            let d = Decomp::blocks(nx, ny, px, py, 3);
            let mut by_hand = ModelConfig::atmosphere_2p8125(Decomp::blocks(128, 64, 1, 1, 3));
            by_hand.grid = Grid::global(nx, ny, 5, 60.0, vec![2.0e4; 5]);
            by_hand.decomp = d;
            by_hand.dt = 600.0;
            assert_eq!(
                format!("{:?}", ModelConfig::test_atmosphere(nx, ny, d)),
                format!("{by_hand:?}"),
                "{nx}x{ny} on {px}x{py}"
            );
        }
    }
}

#[cfg(test)]
mod one_degree_tests {
    use super::*;
    use crate::decomp::Decomp;
    use crate::driver::Model;
    use hyades_comms::SerialWorld;

    #[test]
    fn one_degree_preset_shape() {
        let d = Decomp::blocks(360, 160, 4, 2, 3);
        let cfg = ModelConfig::ocean_1deg(d);
        assert_eq!(cfg.grid.nx * cfg.grid.ny, 57_600);
        // Per-endpoint cells at 8 endpoints: 360*160*15/8 = 108 000 — the
        // E10 throughput analysis' nxyz.
        assert_eq!(cfg.grid.nx * cfg.grid.ny * cfg.grid.nz / 8, 108_000);
        assert!((cfg.grid.dlon.to_degrees() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_degree_model_steps() {
        // One functional step of the full 1° ocean (the century run's
        // workhorse): solver converges, state stays finite.
        let d = Decomp::blocks(360, 160, 1, 1, 3);
        let cfg = ModelConfig::ocean_1deg(d);
        let mut m = Model::new(cfg, 0);
        let mut w = SerialWorld;
        let s = m.step(&mut w);
        assert!(s.cg_converged, "{s:?}");
        assert!(m.state.is_finite());
        assert!(s.cg_iterations > 10, "1° grid should need a real solve");
    }
}
