//! The DS-phase solver (Figure 6): the two-dimensional elliptic equation
//! for the surface pressure, `∇h·(H ∇h ps) = rhs`, discretized with
//! symmetric face transmissibilities ([`elliptic`]) and solved with a
//! conjugate-gradient method ([`cg`]) preconditioned by a tile-local
//! modified incomplete Cholesky factor (`mic`) and deflated by a coarse
//! space on a fixed grid of blocks (`coarse`), whose communication
//! pattern matches the paper exactly: one two-field width-1 halo
//! exchange and two global sums per iteration.

pub mod cg;
mod coarse;
pub mod elliptic;
mod mic;

pub use cg::{CgResult, CgSolver};
pub use elliptic::EllipticCoeffs;

/// What the sweep tests of [`cg`] and `mic` run on.
#[cfg(test)]
pub(crate) mod fixtures {
    use super::EllipticCoeffs;
    use crate::config::ModelConfig;
    use crate::decomp::Decomp;
    use crate::field::Field3;
    use crate::kernel::TileGeom;
    use crate::state::Masks;
    use crate::tile::Tile;
    use crate::topography::Topography;

    /// An `nx × ny` tile (halo 3) of an ocean three columns wider and a
    /// row taller, whose land follows a fixed scatter, with its operator. From `nx = 3`,
    /// `ny = 3` up, column (2, 2) is wet between four dry neighbours:
    /// wet with a zero diagonal.
    pub(crate) fn scattered_land(
        nx: usize,
        ny: usize,
    ) -> (ModelConfig, Tile, TileGeom, Masks, EllipticCoeffs) {
        // The sweeps never exchange, so any tile of the grid will do —
        // also one narrower than its halo, which `Decomp::blocks` refuses.
        let d = Decomp::blocks(16, 8, 1, 1, 3);
        let cfg = ModelConfig::test_ocean(nx + 3, ny + 1, 4, d);
        let tile = offset_tile(nx, ny);
        let masks = Masks::build(&cfg, &tile, &scattered_topography(&cfg));
        let geom = TileGeom::build(&cfg, &tile);
        let coeffs = EllipticCoeffs::build(&cfg, &tile, &geom, &masks);
        (cfg, tile, geom, masks, coeffs)
    }

    /// The land of [`scattered_land`].
    pub(crate) fn scattered_topography(cfg: &ModelConfig) -> Topography {
        Topography::from_depths(&cfg.grid, 0.2, |gi, j| {
            let around_2_2 = (gi as i64 - 3).abs() + (j as i64 - 2).abs();
            match around_2_2 {
                0 => 3000.0,
                1 => 0.0,
                _ if (gi * 7 + j * 3) % 5 == 0 => 0.0,
                _ => 1000.0 + 700.0 * ((gi + 2 * j) % 4) as f64,
            }
        })
    }

    /// An `nx × ny` tile (halo 3) one column in from the west edge of a
    /// grid three columns wider and a row taller: the periodic wrap and
    /// the southern wall are in its halo.
    pub(crate) fn offset_tile(nx: usize, ny: usize) -> Tile {
        Tile {
            rank: 0,
            tx: 0,
            ty: 0,
            gx0: 1,
            gy0: 0,
            nx,
            ny,
            halo: 3,
        }
    }

    /// A field with a different value in every cell, halo included.
    pub(crate) fn varied(tile: &Tile, salt: usize) -> Field3 {
        let mut f = Field3::new(tile.nx, tile.ny, 1, tile.halo);
        for (n, v) in f.raw_mut().iter_mut().enumerate() {
            *v = (((n + salt) * 7919 % 1009) as f64 - 504.0) * 1.0e-3 * (1 + salt % 3) as f64;
        }
        f
    }

    pub(crate) fn bits(f: &Field3) -> Vec<u64> {
        f.raw().iter().map(|v| v.to_bits()).collect()
    }
}
