//! The PS-phase numerical kernel (Figure 6): tendency evaluation,
//! hydrostatic pressure, and Adams–Bashforth time stepping.
//!
//! All kernels are formulated "to compute on a single tile at a time"
//! (§4) and accept an *extension* parameter: with halo width 3 and
//! 3×3-point stencils, tendencies can be **overcomputed** on a ring of
//! halo cells so that a single exchange per time step suffices — the
//! paper's key PS-phase communication optimization.
//!
//! Every kernel here and in `physics` is a sweep over row slices
//! (`Cols`): one span check per row in every build, cell bodies
//! written with `select` so the loops vectorise, and each cell's
//! expression and operation order exactly those of the cell-at-a-time
//! loop it replaced, which survives beside it as `#[cfg(test)] mod
//! reference` and is compared bit for bit (DESIGN §17).
//!
//! Each kernel has one body, which sweeps the rows its output bands
//! (`field::Band`) hold — `momentum_tendencies_rows` and so on; a `pub`
//! kernel function runs it on whole fields. The step calls the bodies
//! from one table, `driver::STEP`, with the ring each writes; a large
//! tile's rows run as two bands on two threads (`in_bands`), every output
//! row the same expression in the same order either way (DESIGN §20).

pub mod gterms;
pub mod hydrostatic;
pub mod timestep;
pub mod vertical;

use crate::config::ModelConfig;
use crate::coupler::side_by_side;
use crate::field::{Band, Field3};
use crate::state::Masks;
use crate::tile::Tile;
use std::ops::Range;

/// Tiles of fewer cells run their kernels whole. A split costs a thread
/// spawn and join per kernel — 26–50 µs hot, 80–150 µs once the second
/// core has gone idle — and a step ran seventeen kernels as measured
/// (thirteen rows now, so fewer spawns); it saves at
/// most half of their 50–65 ns a cell a step (≈ 21 ns measured). At the
/// idle cost that breaks even near 120 000 cells, hot near 30 000
/// (DESIGN §20).
const SPLIT_MIN_CELLS: usize = 1 << 17;

/// The row at which a tile's kernels are cut in two: mid-tile if it has
/// at least `SPLIT_MIN_CELLS` cells over its `nz` levels, none if fewer.
pub(crate) fn band_split(tile: &Tile, nz: usize) -> Option<i64> {
    (tile.columns() * nz >= SPLIT_MIN_CELLS).then_some(tile.ny as i64 / 2)
}

/// Run a kernel on the rows of `bands`: whole (`mid` is `None`), or cut
/// at row `mid`, the rows below it on a scoped helper thread and the rest
/// on this one (`coupler::side_by_side`: the helper's flops are added to
/// this thread's counters, and its panic re-raises here). Each output row
/// is computed by the same body either way, so every bit is the same. The
/// bands are disjoint, and the borrow of every field the kernel writes
/// ends at the join, before the next kernel may read a row of the other
/// band.
pub(crate) fn in_bands<'a, const N: usize>(
    mid: Option<i64>,
    mut bands: [Band<'a>; N],
    kernel: impl Fn([Band<'a>; N]) + Sync,
) {
    match mid {
        None => kernel(bands),
        Some(mid) => {
            let upper = bands.each_mut().map(|band| band.split_off(mid));
            side_by_side(|| kernel(bands), || kernel(upper));
        }
    }
}

/// `if c { a } else { b }` with both arms evaluated, as the selects of a
/// sweep's cell body are written: plain `if` expressions come out of the
/// optimiser as branches around loads again, which keeps the loop scalar.
pub(crate) use std::hint::select_unpredictable as select;

/// Whether level `k` is among the top `kmax` levels of a column, for the
/// wet-level count a mask stores as `f64`: `k < kmax as usize` without
/// the conversion, which does not vectorise. The two agree for every
/// `kmax` — the cast truncates toward zero and saturates (NaN to 0), and
/// `k + 1` is an integer.
#[inline(always)]
pub(crate) fn in_column(k: usize, kmax: f64) -> bool {
    (k + 1) as f64 <= kmax
}

/// The wet mask on level `k` of a column (of a cell or of a face) with
/// `kmax` wet levels: 1.0 on its top `kmax` levels, 0.0 below.
#[inline(always)]
pub(crate) fn wet(k: usize, kmax: f64) -> f64 {
    select(in_column(k, kmax), 1.0, 0.0)
}

/// The thickness factor on level `k` of a column with `kmax` wet levels
/// whose deepest has the thickness fraction `bottom`: 1.0 above it,
/// `bottom` on it, 0.0 below (the §3.2 partial cells).
#[inline(always)]
pub(crate) fn thickness(k: usize, kmax: f64, bottom: f64) -> f64 {
    // `below` counts the wet levels under level `k`, exactly. Above the
    // bottom cell it is at least 1, and the sum clamps to 1.0; on it, 0,
    // and the sum is `bottom` exactly; under it, at most −1, and the sum
    // clamps to 0.0 (−1 + 1 is +0.0). Two clamps cost fewer instructions
    // than two selects on the level.
    let below = kmax - (k + 1) as f64;
    let x = below + bottom;
    let x = select(x > 0.0, x, 0.0);
    select(x < 1.0, x, 1.0)
}

/// A span of columns that a kernel sweep takes of every row it reads or
/// writes. Each row comes as a slice whose span is checked against the
/// field (halo included) in every build, cut to the span's length `n`, so
/// that the inner loops index `0..n` without bounds checks.
#[derive(Debug)]
pub(crate) struct Cols {
    is: Range<i64>,
    pub n: usize,
}

impl Cols {
    /// Columns `-ext..nx + ext`: the interior extended by `ext` rings.
    #[inline]
    pub fn new(nx: usize, ext: i64) -> Cols {
        let is = -ext..nx as i64 + ext;
        let n = (is.end - is.start).max(0) as usize;
        Cols { is, n }
    }

    /// `west` more columns before the span and `east` more after it. The
    /// length is stated in terms of `self.n`, so that an index `i + east`
    /// for `i < self.n` is visibly in range.
    #[inline]
    pub fn wider(&self, west: usize, east: usize) -> Cols {
        Cols {
            is: self.is.start - west as i64..self.is.end + east as i64,
            n: self.n + west + east,
        }
    }

    #[inline]
    pub fn of<'a>(&self, f: &'a Field3, j: i64, k: usize) -> &'a [f64] {
        &f.row(j, k, self.is.clone())[..self.n]
    }

    /// The row on level `k` of a band, to write.
    #[inline]
    pub fn of_mut<'a>(&self, band: &'a mut Band<'_>, j: i64, k: usize) -> &'a mut [f64] {
        &mut band.row_mut(j, k, self.is.clone())[..self.n]
    }

    /// The row on two different levels of one band: `k_read` to read,
    /// `k_write` to write.
    #[inline]
    pub fn pair<'a>(
        &self,
        band: &'a mut Band<'_>,
        j: i64,
        k_read: usize,
        k_write: usize,
    ) -> (&'a [f64], &'a mut [f64]) {
        let (read, write) = band.row_pair(j, k_read, k_write, self.is.clone());
        (&read[..self.n], &mut write[..self.n])
    }

    /// The columns of the cells of row `j`.
    #[inline]
    pub fn cells<'a>(&self, masks: &'a Masks, j: i64) -> Columns<'a> {
        let (kmax, bottom) = (self.of(&masks.kmax, j, 0), self.of(&masks.bottom, j, 0));
        Columns { kmax, bottom }
    }

    /// The columns of the west faces (u-points) of row `j`.
    #[inline]
    pub fn u_faces<'a>(&self, masks: &'a Masks, j: i64) -> Columns<'a> {
        let (kmax, bottom) = (self.of(&masks.kmax_u, j, 0), self.of(&masks.bottom_u, j, 0));
        Columns { kmax, bottom }
    }

    /// The columns of the south faces (v-points) of row `j`.
    #[inline]
    pub fn v_faces<'a>(&self, masks: &'a Masks, j: i64) -> Columns<'a> {
        let (kmax, bottom) = (self.of(&masks.kmax_v, j, 0), self.of(&masks.bottom_v, j, 0));
        Columns { kmax, bottom }
    }
}

/// A row of columns — of cells, or of west or south faces — that a sweep
/// reads its masks from: on every level, each mask value of the row is
/// built inline from a column's wet levels and bottom fraction, the same
/// `f64` as [`Masks::c`] and the rest give for the cell.
#[derive(Clone, Copy)]
pub(crate) struct Columns<'a> {
    kmax: &'a [f64],
    bottom: &'a [f64],
}

impl Columns<'_> {
    /// Whether column `i` is open on level `k` (its mask is 1.0).
    #[inline(always)]
    pub fn open(&self, k: usize, i: usize) -> bool {
        in_column(k, self.kmax[i])
    }

    /// The mask of column `i` on level `k`: [`wet`].
    #[inline(always)]
    pub fn wet(&self, k: usize, i: usize) -> f64 {
        wet(k, self.kmax[i])
    }

    /// The masks of the columns on level `k`, into `out`.
    #[inline]
    pub fn wet_row(&self, k: usize, out: &mut [f64]) {
        for (out, &kmax) in out.iter_mut().zip(self.kmax) {
            *out = wet(k, kmax);
        }
    }

    /// The open fraction of column `i` on level `k`: [`thickness`].
    #[inline(always)]
    pub fn thickness(&self, k: usize, i: usize) -> f64 {
        thickness(k, self.kmax[i], self.bottom[i])
    }
}

/// Per-tile geometry cache: row-indexed metric factors (the grid is
/// zonally symmetric, so geometry depends on the latitude row only).
/// Rows are indexed by *local* j including the halo.
#[derive(Clone, Debug)]
pub struct TileGeom {
    h: i64,
    /// dx at cell centres / u-points (m).
    pub dxc: Vec<f64>,
    /// dx at south faces / v-points (m).
    pub dxs: Vec<f64>,
    /// dy (m), uniform.
    pub dy: f64,
    /// Coriolis parameter at centres (u latitudes).
    pub f_c: Vec<f64>,
    /// Coriolis parameter at south faces (v latitudes).
    pub f_s: Vec<f64>,
    /// tan(lat)/R at centres.
    pub tanr_c: Vec<f64>,
    /// tan(lat)/R at south faces.
    pub tanr_s: Vec<f64>,
    /// Horizontal cell area (m²).
    pub area: Vec<f64>,
    /// Level thicknesses.
    pub dz: Vec<f64>,
}

impl TileGeom {
    pub fn build(cfg: &ModelConfig, tile: &Tile) -> TileGeom {
        let h = tile.halo as i64;
        let ny = tile.ny as i64;
        let grid = &cfg.grid;
        let clampj = |j: i64| tile.gy(j).clamp(-1, grid.ny as i64);
        let rows: Vec<i64> = (-h..ny + h).collect();
        TileGeom {
            h,
            dxc: rows.iter().map(|&j| grid.dx_c(clampj(j))).collect(),
            dxs: rows.iter().map(|&j| grid.dx_s(clampj(j))).collect(),
            dy: grid.dy(),
            f_c: rows.iter().map(|&j| grid.coriolis_c(clampj(j))).collect(),
            f_s: rows.iter().map(|&j| grid.coriolis_s(clampj(j))).collect(),
            tanr_c: rows
                .iter()
                .map(|&j| grid.metric_tan_over_r(clampj(j)))
                .collect(),
            tanr_s: rows
                .iter()
                .map(|&j| {
                    let gj = clampj(j);
                    grid.lat_s(gj).tan() / grid.radius
                })
                .collect(),
            area: rows.iter().map(|&j| grid.cell_area(clampj(j))).collect(),
            dz: grid.dz.clone(),
        }
    }

    #[inline]
    fn row(&self, j: i64) -> usize {
        (j + self.h) as usize
    }

    #[inline]
    pub fn dxc_at(&self, j: i64) -> f64 {
        self.dxc[self.row(j)]
    }
    #[inline]
    pub fn dxs_at(&self, j: i64) -> f64 {
        self.dxs[self.row(j)]
    }
    #[inline]
    pub fn f_c_at(&self, j: i64) -> f64 {
        self.f_c[self.row(j)]
    }
    #[inline]
    pub fn f_s_at(&self, j: i64) -> f64 {
        self.f_s[self.row(j)]
    }
    #[inline]
    pub fn tanr_c_at(&self, j: i64) -> f64 {
        self.tanr_c[self.row(j)]
    }
    #[inline]
    pub fn tanr_s_at(&self, j: i64) -> f64 {
        self.tanr_s[self.row(j)]
    }
    #[inline]
    pub fn area_at(&self, j: i64) -> f64 {
        self.area[self.row(j)]
    }
}

/// Scratch fields reused across steps.
#[derive(Clone, Debug)]
pub struct Workspace {
    /// Current tendencies; `gu`, `gv` hold the provisional
    /// (pre-projection) velocities `u*`, `v*` from `velocity_star` on.
    pub gu: Field3,
    pub gv: Field3,
    pub gt: Field3,
    pub gs: Field3,
    /// Depth-integrated divergence of the provisional flow (m³/s).
    pub rhs: Field3,
}

impl Workspace {
    pub fn new(cfg: &ModelConfig, tile: &Tile) -> Workspace {
        let (nx, ny, nz, h) = (tile.nx, tile.ny, cfg.grid.nz, tile.halo);
        Workspace {
            gu: Field3::new(nx, ny, nz, h),
            gv: Field3::new(nx, ny, nz, h),
            gt: Field3::new(nx, ny, nz, h),
            gs: Field3::new(nx, ny, nz, h),
            rhs: Field3::new(nx, ny, 1, h),
        }
    }
}

/// What the sweep tests of the PS kernels (here and in `physics`) run
/// on, and how they compare a sweep with its cell-at-a-time reference.
#[cfg(test)]
pub(crate) mod fixtures {
    use super::{TileGeom, Workspace};
    use crate::config::{ModelConfig, SurfaceForcing};
    use crate::decomp::Decomp;
    use crate::eos::{Eos, FluidKind, P00};
    use crate::field::Field3;
    use crate::flops;
    use crate::physics::BoundaryFields;
    use crate::solver::fixtures::{offset_tile, scattered_land, scattered_topography};
    use crate::state::{perturbation, Masks, ModelState};
    use crate::tile::Tile;
    use crate::topography::Topography;

    /// One tile with every word of its state, workspace and boundary
    /// fields (halo included) set.
    pub(crate) struct Case {
        pub label: String,
        pub cfg: ModelConfig,
        pub tile: Tile,
        /// What `masks` was built from.
        pub topo: Topography,
        pub geom: TileGeom,
        pub masks: Masks,
        pub state: ModelState,
        pub ws: Workspace,
        pub bc: BoundaryFields,
    }

    /// Pseudo-random finite values around `mid` with both signs of the
    /// deviation, and exact `+0.0` and `−0.0` entries.
    fn vary(f: &mut [f64], salt: u64, mid: f64, amp: f64) {
        for (n, v) in f.iter_mut().enumerate() {
            *v = match n % 13 {
                3 => 0.0,
                7 => -0.0,
                _ => mid + amp * perturbation(salt, n as i64, 0, 0),
            };
        }
    }

    impl Case {
        pub(crate) fn new(label: String, cfg: ModelConfig, tile: Tile, topo: Topography) -> Case {
            let masks = Masks::build(&cfg, &tile, &topo);
            let geom = TileGeom::build(&cfg, &tile);
            let mut state = ModelState::initial(&cfg, &tile, &masks);
            let mut ws = Workspace::new(&cfg, &tile);
            let mut bc = BoundaryFields::new(&tile);
            let atmosphere = cfg.eos.kind == FluidKind::Atmosphere;
            let mut salt = 0u64;
            let mut fill = |f: &mut [f64], mid: f64, amp: f64| {
                salt += 1;
                vary(f, salt, mid, amp);
            };
            for f in [&mut state.u, &mut state.v] {
                fill(f.raw_mut(), 0.0, 2.0);
            }
            fill(state.w.raw_mut(), 0.0, 1e-3);
            for f in [
                &mut state.gu_prev,
                &mut state.gv_prev,
                &mut state.gt_prev,
                &mut state.gs_prev,
                &mut ws.gu,
                &mut ws.gv,
                &mut ws.gt,
                &mut ws.gs,
            ] {
                fill(f.raw_mut(), 0.0, 1e-4);
            }
            fill(state.phy.raw_mut(), 0.0, 1.5);
            fill(state.ps.raw_mut(), 0.0, 10.0);
            fill(ws.rhs.raw_mut(), 0.0, 1e3);
            fill(bc.taux.raw_mut(), 0.0, 0.2);
            fill(bc.tauy.raw_mut(), 0.0, 0.2);
            fill(bc.qflux.raw_mut(), 0.0, 200.0);
            // Some sea-surface temperatures at or below zero: no
            // evaporation there.
            fill(bc.sst.raw_mut(), 150.0, 160.0);
            // Tracers: a stable stratification under noise that overturns
            // it in every third column and leaves the others stable; the
            // atmosphere's humidity straddles saturation.
            let (t0, dt_dk, s0, s_amp) = if atmosphere {
                (285.0, 12.0, 0.012, 0.012)
            } else {
                (22.0, -4.0, 35.0, 0.3)
            };
            let h = tile.halo as i64;
            for k in 0..cfg.grid.nz {
                for j in -h..tile.ny as i64 + h {
                    for i in -h..tile.nx as i64 + h {
                        let amp = if (i + 2 * j).rem_euclid(3) == 0 {
                            20.0
                        } else {
                            0.5
                        };
                        let r = perturbation(77, i, j, k);
                        state.theta.set(i, j, k, t0 + dt_dk * k as f64 + amp * r);
                        let q = perturbation(78, i, j, k);
                        state.s.set(i, j, k, s0 + s_amp * q);
                        // A few exact zeros of either sign here too.
                        match (3 * i + 5 * j + k as i64).rem_euclid(17) {
                            2 => state.theta.set(i, j, k, -0.0),
                            9 => state.s.set(i, j, k, -0.0),
                            13 => state.s.set(i, j, k, 0.0),
                            _ => {}
                        }
                    }
                }
            }
            Case {
                label,
                cfg,
                tile,
                topo,
                geom,
                masks,
                state,
                ws,
                bc,
            }
        }

        /// The same tile with no flow: every word of `u`, `v` and `w` a
        /// zero of either sign, so that most of what the kernels compute
        /// is a zero whose sign shows in the result.
        fn at_rest(mut self) -> Case {
            for (salt, f) in [&mut self.state.u, &mut self.state.v, &mut self.state.w]
                .into_iter()
                .enumerate()
            {
                for (n, v) in f.raw_mut().iter_mut().enumerate() {
                    let minus = perturbation(salt as u64, n as i64, 0, 0) < 0.0;
                    *v = if minus { -0.0 } else { 0.0 };
                }
            }
            self.label += ", at rest";
            self
        }

        /// The same tile with column holes: each column dry from the
        /// first level of the scatter `(i + 2j + 3k) mod 5 = 0` down, if
        /// that is above its bottom (a hole on level 0 makes it land).
        /// A topography can make no other hole: a column is wet from the
        /// top down to its bottom.
        fn with_holes(mut self) -> Case {
            let grid = &self.cfg.grid;
            for j in 0..grid.ny {
                for i in 0..grid.nx {
                    if let Some(k) = (0..grid.nz).find(|k| (i + 2 * j + 3 * k) % 5 == 0) {
                        self.topo.cut(i, j, k as u16);
                    }
                }
            }
            self.masks = Masks::build(&self.cfg, &self.tile, &self.topo);
            self.label += ", with holes";
            self
        }

        /// Run `sweep` and `reference` from this case's state: every word
        /// of the state and the workspace, halo included, and the flops
        /// each charged must come out the same.
        pub(crate) fn check(
            &self,
            what: &str,
            sweep: impl Fn(&mut ModelState, &mut Workspace),
            reference: impl Fn(&mut ModelState, &mut Workspace),
        ) {
            let run = |kernel: &dyn Fn(&mut ModelState, &mut Workspace)| {
                let (mut state, mut ws) = (self.state.clone(), self.ws.clone());
                let ((), counted) = flops::counted(|| kernel(&mut state, &mut ws));
                (bits(&state, &ws), counted)
            };
            let (got, got_flops) = run(&sweep);
            let (want, want_flops) = run(&reference);
            assert_eq!(got_flops, want_flops, "{what}, {}: flops", self.label);
            for ((name, got), (_, want)) in got.iter().zip(&want) {
                let differing = got.iter().zip(want).filter(|(a, b)| a != b).count();
                assert_eq!(differing, 0, "{what}, {}: {name} differs", self.label);
            }
        }
    }

    /// The raw storage of every field a PS kernel can write, as bits.
    fn bits(state: &ModelState, ws: &Workspace) -> Vec<(&'static str, Vec<u64>)> {
        let f3 = |f: &Field3| f.raw().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        vec![
            ("u", f3(&state.u)),
            ("v", f3(&state.v)),
            ("w", f3(&state.w)),
            ("theta", f3(&state.theta)),
            ("s", f3(&state.s)),
            ("gu_prev", f3(&state.gu_prev)),
            ("gv_prev", f3(&state.gv_prev)),
            ("gt_prev", f3(&state.gt_prev)),
            ("gs_prev", f3(&state.gs_prev)),
            ("phy", f3(&state.phy)),
            ("ps", crate::solver::fixtures::bits(&state.ps)),
            ("gu", f3(&ws.gu)),
            ("gv", f3(&ws.gv)),
            ("gt", f3(&ws.gt)),
            ("gs", f3(&ws.gs)),
            ("rhs", crate::solver::fixtures::bits(&ws.rhs)),
        ]
    }

    /// A configuration of either fluid on a `gnx × gny × nz` grid, forced
    /// by its climatology.
    fn config(gnx: usize, gny: usize, nz: usize, fluid: FluidKind) -> ModelConfig {
        // The sweeps never exchange, so the decomposition is not used.
        let d = Decomp::blocks(16, 8, 1, 1, 3);
        let mut cfg = ModelConfig::test_ocean(gnx, gny, nz, d);
        cfg.forcing = SurfaceForcing::Climatology;
        if fluid == FluidKind::Atmosphere {
            let centre = |k: usize| P00 * (1.0 - (k as f64 + 0.5) / nz as f64);
            cfg.eos = Eos::atmosphere(&(0..nz).map(centre).collect::<Vec<_>>());
            cfg.grid.dz = vec![P00 / nz as f64; nz];
            cfg.dt = 400.0;
            (cfg.visc_v, cfg.diff_v) = (10.0, 10.0);
        }
        cfg
    }

    /// An `nx × ny` tile (halo 3) of a grid three columns wider and a row
    /// taller — the wrap and the southern wall are in its halo — whose
    /// columns have 0, 1, 2, … or all `nz` wet levels in a fixed scatter,
    /// every third wet column with a shaved bottom cell.
    fn staircase(nx: usize, ny: usize, nz: usize, fluid: FluidKind) -> Case {
        let cfg = config(nx + 3, ny + 1, nz, fluid);
        let tile = offset_tile(nx, ny);
        let dz = &cfg.grid.dz;
        let topo = Topography::from_depths(&cfg.grid, 0.2, |gi, j| {
            let levels = [nz, 1, 0, 2, nz, nz - nz / 3][(gi * 7 + j * 3) % 6].min(nz);
            if levels == 0 {
                return 0.0;
            }
            let bottom = if (gi + j) % 3 == 0 { 0.6 } else { 1.01 };
            dz[..levels - 1].iter().sum::<f64>() + bottom * dz[levels - 1]
        });
        let label = format!("staircase {fluid:?} {nx}x{ny}x{nz}");
        Case::new(label, cfg, tile, topo)
    }

    /// The tiles every sweep is compared with its reference on: both
    /// fluids, `nz ∈ {1, 2, 5}`, `nx ∈ {1, 2, 5, 16}` over the staircase,
    /// some of them again at rest and with column holes; the
    /// solver's scattered land (an isolated wet column among them); the
    /// idealized continents on a whole 16 × 8 grid, under both fluids, and
    /// on the middle tile of three in y of a 16 × 12 grid, the one tile
    /// with the grid's rows beyond both its south and north edges.
    pub(crate) fn cases() -> Vec<Case> {
        let mut cases = Vec::new();
        for fluid in [FluidKind::Ocean, FluidKind::Atmosphere] {
            for nz in [1, 2, 5] {
                for nx in [1, 2, 5, 16] {
                    cases.push(staircase(nx, 4, nz, fluid));
                }
            }
        }
        for fluid in [FluidKind::Ocean, FluidKind::Atmosphere] {
            cases.push(staircase(5, 4, 5, fluid).at_rest());
            cases.push(staircase(16, 3, 2, fluid).at_rest().with_holes());
            cases.push(staircase(5, 4, 5, fluid).with_holes());
        }
        for nx in [1, 2, 5, 16] {
            let (mut cfg, tile, ..) = scattered_land(nx, 6);
            cfg.forcing = SurfaceForcing::Climatology;
            let topo = scattered_topography(&cfg);
            let label = format!("scattered land {nx}x6x4");
            cases.push(Case::new(label, cfg, tile, topo));
        }
        for fluid in [FluidKind::Ocean, FluidKind::Atmosphere] {
            for nz in [1, 2, 5] {
                let cfg = config(16, 8, nz, fluid);
                let tile = Decomp::blocks(16, 8, 1, 1, 3).tile(0);
                let topo = Topography::idealized_continents(&cfg.grid);
                let label = format!("continents {fluid:?} 16x8x{nz}");
                cases.push(Case::new(label, cfg, tile, topo));
            }
            let cfg = config(16, 12, 5, fluid);
            let tile = Decomp::blocks(16, 12, 1, 3, 3).tile(1);
            let topo = Topography::idealized_continents(&cfg.grid);
            let label = format!("continents {fluid:?} 16x12x5, middle tile");
            cases.push(Case::new(label, cfg, tile, topo));
        }
        cases
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::Decomp;

    #[test]
    fn in_column_is_the_truncating_cast_compared() {
        let counts = [
            0.0,
            -0.0,
            0.5,
            1.0,
            1.999,
            2.0,
            15.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0e300,
            u16::MAX as f64,
        ];
        for kmax in counts {
            for k in [0usize, 1, 2, 14, 15, 65_534, 65_535] {
                assert_eq!(in_column(k, kmax), k < kmax as usize, "{k} of {kmax}");
            }
        }
    }

    #[test]
    fn cols_cut_rows_to_their_length() {
        let mut f = Field3::new(5, 4, 2, 3);
        let mut g = Field3::new(5, 4, 1, 3);
        for (n, v) in f.raw_mut().iter_mut().enumerate() {
            *v = n as f64;
        }
        g.raw_mut().copy_from_slice(&f.raw()[..11 * 10]);
        let cols = Cols::new(5, 1);
        let wide = cols.wider(2, 1);
        assert_eq!((cols.n, wide.n), (7, 10));
        assert_eq!(cols.of(&f, 2, 1), f.row(2, 1, -1..6));
        assert_eq!(wide.of(&f, -3, 0), f.row(-3, 0, -3..7));
        assert_eq!(wide.of(&g, 0, 0), wide.of(&f, 0, 0));
        cols.of_mut(&mut f.band(), 0, 1)[0] = -1.0;
        cols.of_mut(&mut g.band(), 3, 0)[6] = -2.0;
        assert_eq!((f.at(-1, 0, 1), g.at(5, 3, 0)), (-1.0, -2.0));
    }

    #[test]
    #[should_panic(expected = "outside field")]
    fn cols_beyond_the_halo_panic() {
        let f = Field3::new(5, 4, 2, 3);
        let _ = Cols::new(5, 3).wider(0, 1).of(&f, 0, 0);
    }

    #[test]
    fn fixtures_hold_the_edge_cases_the_sweep_tests_lean_on() {
        let cases = fixtures::cases();
        let case = cases
            .iter()
            .find(|c| c.label == "staircase Ocean 16x4x5")
            .expect("the widest staircase");
        // Columns of 0, 1, 2 and all 5 levels, some with a shaved bottom.
        let levels: Vec<usize> = case
            .masks
            .kmax
            .interior()
            .map(|(i, j, _)| case.masks.kmax.at(i, j, 0) as usize)
            .collect();
        for want in [0, 1, 2, 5] {
            assert!(levels.contains(&want), "no column of {want} levels");
        }
        let bottom = &case.masks.bottom;
        assert!(bottom
            .interior()
            .any(|(i, j, _)| 0.0 < bottom.at(i, j, 0) && bottom.at(i, j, 0) < 1.0));
        // Both signs of `w`, and zeros of both signs.
        let w = case.state.w.raw();
        assert!(w.iter().any(|&x| x > 0.0) && w.iter().any(|&x| x < 0.0));
        for zero in [0.0f64, -0.0] {
            assert!(w.iter().any(|x| x.to_bits() == zero.to_bits()));
        }
        // The variants: no flow, and columns cut shorter.
        let at_rest = cases.iter().filter(|c| c.label.contains("at rest"));
        assert!(at_rest.clone().count() >= 2);
        for c in at_rest {
            assert!(c.state.u.raw().iter().all(|&x| x == 0.0));
        }
        let kmax = |label: &str| {
            let case = cases.iter().find(|c| c.label == label).expect(label);
            let kmax = &case.masks.kmax;
            kmax.interior()
                .map(|(i, j, _)| kmax.at(i, j, 0))
                .collect::<Vec<_>>()
        };
        let whole = kmax("staircase Ocean 5x4x5");
        let holed = kmax("staircase Ocean 5x4x5, with holes");
        let pairs = || whole.iter().zip(&holed);
        assert!(pairs().all(|(whole, holed)| holed <= whole));
        assert!(pairs().any(|(&whole, &holed)| 0.0 < holed && holed < whole));
        assert!(pairs().any(|(&whole, &holed)| holed == 0.0 && whole > 0.0));
    }

    #[test]
    fn geometry_rows_cover_halo() {
        let d = Decomp::blocks(16, 8, 2, 2, 3);
        let cfg = ModelConfig::test_ocean(16, 8, 3, d);
        let t = d.tile(3); // north-east tile
        let g = TileGeom::build(&cfg, &t);
        // Halo rows index cleanly and are finite.
        assert!(g.dxc_at(-3) > 0.0);
        assert!(g.dxc_at(t.ny as i64 + 2) > 0.0);
        assert!(g.f_c_at(0).is_finite());
        // Northern tile has larger |f| than at its south edge.
        assert!(g.f_c_at(t.ny as i64 - 1).abs() > g.f_c_at(0).abs());
    }

    #[test]
    fn geometry_matches_global_grid() {
        let d = Decomp::blocks(16, 8, 2, 2, 2);
        let cfg = ModelConfig::test_ocean(16, 8, 3, d);
        let t = d.tile(2); // ty = 1
        let g = TileGeom::build(&cfg, &t);
        for j in 0..t.ny as i64 {
            assert_eq!(g.dxc_at(j), cfg.grid.dx_c(t.gy(j)));
            assert_eq!(g.f_s_at(j), cfg.grid.coriolis_s(t.gy(j)));
            assert_eq!(g.area_at(j), cfg.grid.cell_area(t.gy(j)));
        }
    }
}
