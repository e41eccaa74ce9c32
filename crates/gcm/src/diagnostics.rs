//! Diagnostics: conservation checks, CFL monitoring, and field output
//! (the CSV/ASCII equivalents of Figure 9's current and wind maps).

use crate::driver::Model;
use hyades_comms::CommWorld;
use std::fmt::Write as _;

/// Globally-reduced diagnostics of one model instance.
#[derive(Clone, Copy, Debug)]
pub struct GlobalDiagnostics {
    /// Volume-integrated kinetic energy (m⁵/s² scaled by ρ0 elsewhere).
    pub kinetic_energy: f64,
    /// Volume-integrated potential temperature (heat content proxy).
    pub heat_content: f64,
    /// Volume-integrated second tracer.
    pub tracer_content: f64,
    /// Global maximum horizontal speed (m/s).
    pub max_speed: f64,
    /// Advective CFL number at the smallest grid spacing.
    pub cfl: f64,
}

/// Compute globally-reduced diagnostics (collective: every rank calls).
pub fn global_diagnostics(model: &Model, world: &mut dyn CommWorld) -> GlobalDiagnostics {
    let st = &model.state;
    let mut sums = [0.0f64; 3];
    for (i, j, k) in st.theta.interior() {
        let vol = model.geom.area_at(j) * model.cfg.grid.dz[k] * model.masks.c(i, j, k);
        let u = st.u.at(i, j, k);
        let v = st.v.at(i, j, k);
        sums[0] += 0.5 * (u * u + v * v) * vol;
        sums[1] += st.theta.at(i, j, k) * vol;
        sums[2] += st.s.at(i, j, k) * vol;
    }
    world.global_sum_vec(&mut sums);
    let local_max = st.u.interior_max_abs().max(st.v.interior_max_abs());
    let max_speed = world.global_max(local_max);
    GlobalDiagnostics {
        kinetic_energy: sums[0],
        heat_content: sums[1],
        tracer_content: sums[2],
        max_speed,
        cfl: max_speed * model.cfg.dt / model.cfg.grid.min_dx(),
    }
}

/// A single level of a field gathered to dense global form (serial /
/// single-tile harnesses only: reads this rank's tile).
pub fn tile_level_csv(model: &Model, level: usize) -> String {
    let mut out = String::new();
    let t = &model.tile;
    let _ = writeln!(out, "# gi,gj,lat_deg,u,v,theta,s,ps");
    for j in 0..t.ny as i64 {
        let lat = model.cfg.grid.lat_c(t.gy(j)).to_degrees();
        for i in 0..t.nx as i64 {
            let _ = writeln!(
                out,
                "{},{},{:.3},{:.6},{:.6},{:.4},{:.5},{:.5}",
                t.gx(i),
                t.gy(j),
                lat,
                model.state.u.at(i, j, level),
                model.state.v.at(i, j, level),
                model.state.theta.at(i, j, level),
                model.state.s.at(i, j, level),
                model.state.ps.at(i, j),
            );
        }
    }
    out
}

/// Render a tile field level as a coarse ASCII map (rows north to south),
/// for terminal-friendly Figure 9 style output.
pub fn ascii_map(model: &Model, level: usize, width: usize) -> String {
    let t = &model.tile;
    let glyphs: &[u8] = b" .:-=+*#%@";
    let mut vals = Vec::new();
    for j in 0..t.ny as i64 {
        for i in 0..t.nx as i64 {
            if model.masks.c(i, j, level) > 0.0 {
                vals.push(model.state.theta.at(i, j, level));
            }
        }
    }
    if vals.is_empty() {
        return String::from("(all land)\n");
    }
    let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-12);
    let step_i = (t.nx / width.min(t.nx)).max(1);
    let mut out = String::new();
    for j in (0..t.ny as i64).rev() {
        for i in (0..t.nx as i64).step_by(step_i) {
            if model.masks.c(i, j, level) == 0.0 {
                out.push('#');
            } else {
                let v = model.state.theta.at(i, j, level);
                let g = ((v - min) / span * (glyphs.len() - 1) as f64) as usize;
                out.push(glyphs[g.min(glyphs.len() - 1)] as char);
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::decomp::Decomp;
    use hyades_comms::SerialWorld;

    fn model() -> Model {
        let d = Decomp::blocks(16, 8, 1, 1, 3);
        Model::new(ModelConfig::test_ocean(16, 8, 3, d), 0)
    }

    #[test]
    fn diagnostics_of_resting_state() {
        let m = model();
        let mut w = SerialWorld;
        let d = global_diagnostics(&m, &mut w);
        assert_eq!(d.kinetic_energy, 0.0);
        assert!(d.heat_content > 0.0);
        assert_eq!(d.max_speed, 0.0);
        assert_eq!(d.cfl, 0.0);
    }

    #[test]
    fn csv_has_all_cells() {
        let m = model();
        let csv = tile_level_csv(&m, 0);
        // Header + 16×8 rows.
        assert_eq!(csv.lines().count(), 1 + 16 * 8);
        assert!(csv.starts_with("# gi,gj"));
    }

    #[test]
    fn ascii_map_dimensions() {
        let m = model();
        let map = ascii_map(&m, 0, 16);
        assert_eq!(map.lines().count(), 8);
        assert!(map.lines().all(|l| l.len() == 16));
    }
}

// ---------------------------------------------------------------------------
// Climate diagnostics (single-tile / gathered analyses)
// ---------------------------------------------------------------------------

/// Zonal-mean of a 3-D field at one level: `(latitude_deg, mean)` per row
/// of this rank's tile (masked cells excluded).
pub fn zonal_mean(model: &Model, field: &crate::field::Field3, level: usize) -> Vec<(f64, f64)> {
    let t = &model.tile;
    let mut out = Vec::with_capacity(t.ny);
    for j in 0..t.ny as i64 {
        let lat = model.cfg.grid.lat_c(t.gy(j)).to_degrees();
        let mut sum = 0.0;
        let mut n = 0.0;
        for i in 0..t.nx as i64 {
            if model.masks.c(i, j, level) > 0.0 {
                sum += field.at(i, j, level);
                n += 1.0;
            }
        }
        out.push((lat, if n > 0.0 { sum / n } else { 0.0 }));
    }
    out
}

/// Meridional overturning streamfunction ψ(j, k) in Sverdrups
/// (10⁶ m³/s): the northward transport above interface `k` at latitude
/// row `j`, accumulated from the surface:
/// `ψ(j,k) = Σ_{k' < k} Σ_i v(i,j,k')·dx_s(j)·dz(k')`.
/// Rows are the tile's v-point latitudes; `k` ranges over `0..=nz`.
pub fn overturning_streamfunction(model: &Model) -> Vec<Vec<f64>> {
    let t = &model.tile;
    let nz = model.cfg.grid.nz;
    let mut psi = vec![vec![0.0f64; nz + 1]; t.ny];
    for (j, row) in psi.iter_mut().enumerate() {
        let jj = j as i64;
        let dx = model.geom.dxs_at(jj);
        let mut acc = 0.0;
        for k in 0..nz {
            let dz = model.cfg.grid.dz[k];
            let mut vsum = 0.0;
            for i in 0..t.nx as i64 {
                vsum += model.state.v.at(i, jj, k) * model.masks.v(i, jj, k);
            }
            acc += vsum * dx * dz;
            row[k + 1] = acc / 1e6; // Sverdrups
        }
    }
    psi
}

/// Poleward heat transport (PW) across each v-point latitude:
/// `ρ0·cp · Σ_{i,k} v·θ·dx·dz · 1e-15`.
pub fn poleward_heat_transport(model: &Model) -> Vec<(f64, f64)> {
    let t = &model.tile;
    let nz = model.cfg.grid.nz;
    let (rho_cp, to_kelvin) = match model.cfg.eos.kind {
        crate::eos::FluidKind::Ocean => (
            crate::physics::ocean::RHO0 * crate::physics::ocean::CP_SEA,
            273.15,
        ),
        // Atmosphere isomorph: "dz" is Δp, mass per area = Δp/g, so the
        // factor is cp/g.
        crate::eos::FluidKind::Atmosphere => {
            (crate::physics::atmos::CP_AIR / crate::grid::GRAVITY, 0.0)
        }
    };
    let mut out = Vec::with_capacity(t.ny);
    for j in 0..t.ny as i64 {
        let lat = model.cfg.grid.lat_s(t.gy(j)).to_degrees();
        let dx = model.geom.dxs_at(j);
        let mut flux = 0.0;
        for k in 0..nz {
            let dz = model.cfg.grid.dz[k];
            for i in 0..t.nx as i64 {
                if model.masks.v(i, j, k) > 0.0 {
                    // θ interpolated to the v-point, in Kelvin.
                    let th = 0.5
                        * (model.state.theta.at(i, j - 1, k) + model.state.theta.at(i, j, k))
                        + to_kelvin;
                    flux += model.state.v.at(i, j, k) * th * dx * dz;
                }
            }
        }
        out.push((lat, rho_cp * flux / 1e15));
    }
    out
}

#[cfg(test)]
mod climate_tests {
    use super::*;
    use crate::config::{ModelConfig, SurfaceForcing};
    use crate::decomp::Decomp;
    use hyades_comms::SerialWorld;

    fn spun_up(steps: usize) -> Model {
        let d = Decomp::blocks(16, 8, 1, 1, 3);
        let mut cfg = ModelConfig::test_ocean(16, 8, 4, d);
        cfg.forcing = SurfaceForcing::Climatology;
        let mut m = Model::new(cfg, 0);
        let mut w = SerialWorld;
        m.run(&mut w, steps);
        m
    }

    #[test]
    fn streamfunction_vanishes_at_rest_and_at_boundaries() {
        let d = Decomp::blocks(16, 8, 1, 1, 3);
        let m = Model::new(ModelConfig::test_ocean(16, 8, 4, d), 0);
        let psi = overturning_streamfunction(&m);
        assert_eq!(psi.len(), 8);
        assert_eq!(psi[0].len(), 5);
        for row in &psi {
            for &v in row {
                assert_eq!(v, 0.0, "rest state has no overturning");
            }
        }
    }

    #[test]
    fn streamfunction_closes_at_depth_after_spinup() {
        let m = spun_up(30);
        let psi = overturning_streamfunction(&m);
        // Surface boundary: ψ(j, 0) = 0 by construction. Bottom: the
        // projected flow has no net depth-integrated meridional transport
        // through a full latitude circle except roundoff + wall effects,
        // so ψ(j, nz) must be small relative to the interior extrema.
        let interior_max = psi
            .iter()
            .flat_map(|r| r.iter().cloned())
            .fold(0.0f64, |a, b| a.max(b.abs()));
        if interior_max > 0.0 {
            for row in &psi {
                assert_eq!(row[0], 0.0);
                assert!(
                    row[4].abs() <= 0.2 * interior_max + 1e-12,
                    "bottom psi {} vs interior {interior_max}",
                    row[4]
                );
            }
        }
    }

    #[test]
    fn heat_transport_finite_and_zero_at_walls() {
        let m = spun_up(30);
        let ht = poleward_heat_transport(&m);
        assert_eq!(ht.len(), 8);
        // Southernmost v-row is the wall: mask kills the flux.
        assert_eq!(ht[0].1, 0.0);
        // Magnitude check against a physical scale for THIS grid (the toy
        // 16x8 domain has ~2300 km cells, so transient transports far
        // exceed Earth's ~2 PW): bound by rho*cp * max|v| * section area
        // * temperature range.
        let vmax = m.state.v.interior_max_abs();
        let section = m.geom.dxs_at(4) * 16.0 * m.cfg.grid.full_depth();
        let scale =
            crate::physics::ocean::RHO0 * crate::physics::ocean::CP_SEA * vmax * section * 300.0
                / 1e15;
        for &(lat, pw) in &ht {
            assert!(pw.is_finite(), "lat {lat}");
            assert!(pw.abs() <= scale, "transport {pw} PW vs scale {scale}");
        }
    }

    #[test]
    fn zonal_mean_shape() {
        let m = spun_up(5);
        let zm = zonal_mean(&m, &m.state.theta, 0);
        assert_eq!(zm.len(), 8);
        // Warm at the equator-most rows, colder at the walls.
        let eq = zm[4].1;
        let pole = zm[0].1;
        assert!(eq > pole, "equator {eq} vs pole {pole}");
    }
}
