//! Equations of state: buoyancy for the two isomorphs (§3).
//!
//! The model exploits the isomorphism between an incompressible fluid in a
//! height coordinate (the ocean) and a compressible fluid in a pressure
//! coordinate (the atmosphere): the same kernel steps both, with the
//! fluid-specific pieces confined to
//!
//! * the **buoyancy** `b(θ, s, k)` — linear seawater EOS for the ocean;
//!   linearized ideal-gas `α' = (R/p)(p/p00)^κ · θ'` for the atmosphere —
//! * the **hydrostatic sign** (pressure grows downward in the ocean,
//!   geopotential grows upward in the atmosphere's `ζ = ps − p`
//!   coordinate), and
//! * the direction in which a column is statically unstable.

use crate::grid::GRAVITY;

/// Reference surface pressure for the atmosphere isomorph (Pa).
pub const P00: f64 = 1.0e5;
/// Gas constant of dry air (J/kg/K).
pub const R_DRY: f64 = 287.0;
/// `R/cp` for dry air.
pub const KAPPA: f64 = 2.0 / 7.0;

/// Which fluid this model instance is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FluidKind {
    Ocean,
    Atmosphere,
}

/// Equation-of-state parameters for one isomorph.
#[derive(Clone, Debug)]
pub struct Eos {
    pub kind: FluidKind,
    /// Reference potential temperature (K or °C offset).
    pub theta_ref: f64,
    /// Reference second tracer (salinity psu / specific humidity).
    pub s_ref: f64,
    /// Ocean: thermal expansion coefficient (1/K).
    pub alpha_t: f64,
    /// Ocean: haline contraction coefficient (1/psu).
    pub beta_s: f64,
    /// Per-level buoyancy coefficient (atmosphere: `(R/p_k)(p_k/p00)^κ`;
    /// ocean: unused).
    pub cb: Vec<f64>,
    /// Sign of the hydrostatic integration: `-1` for the ocean (pressure
    /// accumulates downward from the surface), `+1` for the atmosphere
    /// (geopotential accumulates upward from the surface).
    pub hydro_sign: f64,
}

impl Eos {
    /// Linear seawater EOS: `b = g·(α·(θ−θ0) − β·(s−s0))`.
    pub fn ocean(nz: usize) -> Eos {
        Eos {
            kind: FluidKind::Ocean,
            theta_ref: 10.0,
            s_ref: 35.0,
            alpha_t: 2.0e-4,
            beta_s: 7.4e-4,
            cb: vec![0.0; nz],
            hydro_sign: -1.0,
        }
    }

    /// Atmosphere isomorph on layers whose centres sit at pressures
    /// `p_centers` (Pa): `b = (R/p_k)(p_k/p00)^κ · (θ − θ0)` is the
    /// linearized specific-volume anomaly.
    pub fn atmosphere(p_centers: &[f64]) -> Eos {
        Eos {
            kind: FluidKind::Atmosphere,
            theta_ref: 300.0,
            s_ref: 0.0,
            alpha_t: 0.0,
            beta_s: 0.0,
            cb: p_centers
                .iter()
                .map(|&p| (R_DRY / p) * (p / P00).powf(KAPPA))
                .collect(),
            hydro_sign: 1.0,
        }
    }

    /// Number of flops of one `buoyancy` evaluation (for the Nps census).
    pub const FLOPS: u64 = 5;

    /// Buoyancy of a cell at level `k` with potential temperature `theta`
    /// and second tracer `s`.
    #[inline]
    pub fn buoyancy(&self, theta: f64, s: f64, k: usize) -> f64 {
        match self.kind {
            FluidKind::Ocean => self.buoyancy_ocean(theta, s),
            FluidKind::Atmosphere => self.buoyancy_atmosphere(theta, k),
        }
    }

    /// The two arms of [`Eos::buoyancy`], for row sweeps that match the
    /// fluid once, outside the row.
    #[inline]
    pub(crate) fn buoyancy_ocean(&self, theta: f64, s: f64) -> f64 {
        GRAVITY * (self.alpha_t * (theta - self.theta_ref) - self.beta_s * (s - self.s_ref))
    }

    #[inline]
    pub(crate) fn buoyancy_atmosphere(&self, theta: f64, k: usize) -> f64 {
        self.cb[k] * (theta - self.theta_ref)
    }

    /// True if the buoyancy pair `(b_near, b_far)` — `near` closer to the
    /// coupling interface (smaller `k`) — is statically unstable and the
    /// cells should convectively mix.
    ///
    /// Ocean (`k` grows downward): unstable when buoyancy *increases* with
    /// depth. Atmosphere (`k` grows upward): unstable when buoyancy
    /// *decreases* with height.
    #[inline]
    pub fn unstable(&self, b_near: f64, b_far: f64) -> bool {
        match self.kind {
            FluidKind::Ocean => b_far > b_near + 1e-12,
            FluidKind::Atmosphere => b_far < b_near - 1e-12,
        }
    }

    /// Absolute temperature from potential temperature at level `k`
    /// (`T = θ·(p/p00)^κ` for the atmosphere; the ocean returns θ
    /// unchanged).
    pub fn temperature(&self, theta: f64, k: usize) -> f64 {
        theta * self.exner(k)
    }

    /// Exner function `(p_k/p00)^κ` at level `k` (atmosphere; 1 for the
    /// ocean).
    pub fn exner(&self, k: usize) -> f64 {
        match self.kind {
            FluidKind::Ocean => 1.0,
            FluidKind::Atmosphere => {
                // cb = (R/p)(p/p00)^κ ⇒ (p/p00)^κ = cb·p/R; recover p from
                // cb numerically: p = p00·(cb·p00/R)^{1/(κ−1)}.
                let ratio = self.cb[k] * P00 / R_DRY; // (p/p00)^(κ-1)
                ratio.powf(KAPPA / (KAPPA - 1.0))
            }
        }
    }
}

/// Standard 5-level atmosphere layer-centre pressures (Pa): uniform 200-hPa
/// layers from the surface up (the intermediate-complexity 5-level package
/// the paper uses).
pub fn atmos_5level_pressures() -> Vec<f64> {
    vec![9.0e4, 7.0e4, 5.0e4, 3.0e4, 1.0e4]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ocean_buoyancy_signs() {
        let eos = Eos::ocean(5);
        // Warm water is buoyant.
        assert!(eos.buoyancy(20.0, 35.0, 0) > 0.0);
        // Salty water is dense.
        assert!(eos.buoyancy(10.0, 36.0, 0) < 0.0);
        // Reference state is neutral.
        assert_eq!(eos.buoyancy(10.0, 35.0, 2), 0.0);
        // Magnitude: 10 K warming ≈ 2e-3 g ≈ 0.0196 m/s².
        let b = eos.buoyancy(20.0, 35.0, 0);
        assert!((b - GRAVITY * 2.0e-3).abs() < 1e-12);
    }

    #[test]
    fn atmos_buoyancy_scales_with_height() {
        let eos = Eos::atmosphere(&atmos_5level_pressures());
        let b0 = eos.buoyancy(310.0, 0.0, 0);
        let b4 = eos.buoyancy(310.0, 0.0, 4);
        assert!(b0 > 0.0);
        // R/p grows with height faster than the Exner factor decays.
        assert!(b4 > b0);
    }

    #[test]
    fn stability_conventions() {
        let ocean = Eos::ocean(3);
        // Ocean: buoyant (light) water *below* dense water is unstable.
        assert!(ocean.unstable(-0.01, 0.01));
        assert!(!ocean.unstable(0.01, -0.01));
        let atmos = Eos::atmosphere(&atmos_5level_pressures());
        // Atmosphere: buoyancy decreasing upward is unstable.
        assert!(atmos.unstable(0.01, -0.01));
        assert!(!atmos.unstable(-0.01, 0.01));
    }

    #[test]
    fn exner_recovers_pressure_ratio() {
        let ps = atmos_5level_pressures();
        let eos = Eos::atmosphere(&ps);
        for (k, &p) in ps.iter().enumerate() {
            let expect = (p / P00).powf(KAPPA);
            assert!(
                (eos.exner(k) - expect).abs() < 1e-10,
                "level {k}: {} vs {expect}",
                eos.exner(k)
            );
        }
        // Ocean Exner is unity.
        assert_eq!(Eos::ocean(2).exner(1), 1.0);
    }

    #[test]
    fn temperature_from_theta() {
        let ps = atmos_5level_pressures();
        let eos = Eos::atmosphere(&ps);
        // At 500 hPa, θ=300 K is T ≈ 246 K.
        let t = eos.temperature(300.0, 2);
        assert!((t - 300.0 * (0.5f64).powf(KAPPA)).abs() < 1e-9);
        assert!((t - 246.0).abs() < 1.0);
        // Ocean: identity.
        assert_eq!(Eos::ocean(2).temperature(12.5, 0), 12.5);
    }

    #[test]
    fn hydro_signs() {
        assert_eq!(Eos::ocean(1).hydro_sign, -1.0);
        assert_eq!(Eos::atmosphere(&[5.0e4]).hydro_sign, 1.0);
    }
}
