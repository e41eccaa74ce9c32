//! Physics packages: the intermediate-complexity forcing of the two
//! isomorphs (§5: "an intermediate complexity atmospheric physics package
//! … designed for exploratory climate simulations", after Molteni's
//! 5-level scheme) plus the ocean surface forcing.
//!
//! Forcing terms are added to the `G` tendencies (and thus ride through
//! the Adams–Bashforth extrapolation like every other term); adjustment
//! processes (convection, large-scale condensation) act on the updated
//! state at the end of the step.

pub mod atmos;
pub mod ocean;

use crate::config::{ModelConfig, SurfaceForcing};
use crate::eos::FluidKind;
use crate::field::{Band, Field3};
use crate::flops::{self, Phase};
use crate::kernel::{in_column, Cols, TileGeom, Workspace};
use crate::state::{Masks, ModelState};
use crate::tile::Tile;

/// Boundary fields supplied by the coupler (or filled from climatology).
#[derive(Clone, Debug)]
pub struct BoundaryFields {
    /// Sea-surface temperature seen by the atmosphere (K).
    pub sst: Field3,
    /// Surface wind stress seen by the ocean (N/m²).
    pub taux: Field3,
    pub tauy: Field3,
    /// Net downward surface heat flux into the ocean (W/m²).
    pub qflux: Field3,
}

impl BoundaryFields {
    pub fn new(tile: &Tile) -> BoundaryFields {
        let f = || Field3::new(tile.nx, tile.ny, 1, tile.halo);
        BoundaryFields {
            sst: f(),
            taux: f(),
            tauy: f(),
            qflux: f(),
        }
    }
}

/// Add the fluid-appropriate forcing to the tendencies in `ws`.
#[allow(clippy::too_many_arguments)]
pub fn apply_forcing(
    cfg: &ModelConfig,
    tile: &Tile,
    geom: &TileGeom,
    masks: &Masks,
    state: &ModelState,
    bc: &BoundaryFields,
    ws: &mut Workspace,
    ext: i64,
) {
    let bands = [ws.gu.band(), ws.gv.band(), ws.gt.band(), ws.gs.band()];
    apply_forcing_rows(cfg, tile, geom, masks, state, bc, bands, ext);
}

/// [`apply_forcing`] on the rows the bands of the tendencies
/// `[gu, gv, gt, gs]` hold.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_forcing_rows(
    cfg: &ModelConfig,
    tile: &Tile,
    geom: &TileGeom,
    masks: &Masks,
    state: &ModelState,
    bc: &BoundaryFields,
    tendencies: [Band<'_>; 4],
    ext: i64,
) {
    if cfg.forcing == SurfaceForcing::None {
        return;
    }
    match cfg.eos.kind {
        FluidKind::Atmosphere => atmos::forcing(cfg, tile, geom, masks, state, bc, tendencies, ext),
        FluidKind::Ocean => ocean::forcing(cfg, tile, geom, masks, state, bc, tendencies, ext),
    }
}

/// End-of-step adjustments on the updated state (interior only), on the
/// rows the bands of `θ` and the second tracer hold.
pub(crate) fn post_adjust(cfg: &ModelConfig, tile: &Tile, masks: &Masks, bands: [Band<'_>; 2]) {
    let [mut theta, mut s] = bands;
    convective_adjustment_rows(cfg, tile, masks, &mut theta, &mut s);
    if cfg.eos.kind == FluidKind::Atmosphere && cfg.forcing != SurfaceForcing::None {
        atmos::condensation(cfg, tile, masks, &mut theta, &mut s);
    }
}

/// Flops per wet cell of one adjustment sweep.
pub const CONVECT_FLOPS_PER_CELL: u64 = 12;

/// Enforce static stability column by column: statically unstable
/// neighbouring cells are mixed to their thickness-weighted mean
/// (potential temperature and the second tracer together). One pass
/// stabilizes a column exactly; convection is re-triggered next step if
/// the dynamics destabilize it again.
pub fn convective_adjustment(
    cfg: &ModelConfig,
    tile: &Tile,
    masks: &Masks,
    state: &mut ModelState,
) {
    let (mut theta, mut s) = (state.theta.band(), state.s.band());
    convective_adjustment_rows(cfg, tile, masks, &mut theta, &mut s);
}

/// [`convective_adjustment`] on the rows the bands of `θ`, `s` hold.
fn convective_adjustment_rows(
    cfg: &ModelConfig,
    tile: &Tile,
    masks: &Masks,
    theta: &mut Band<'_>,
    s: &mut Band<'_>,
) {
    // The fluid is matched here, once, so the prescan's row body is
    // monomorphic.
    let eos = &cfg.eos;
    match eos.kind {
        FluidKind::Ocean => adjust_unstable_columns(cfg, tile, masks, theta, s, |theta, s, _| {
            eos.buoyancy_ocean(theta, s)
        }),
        FluidKind::Atmosphere => {
            adjust_unstable_columns(cfg, tile, masks, theta, s, |theta, _, k| {
                eos.buoyancy_atmosphere(theta, k)
            })
        }
    }
}

/// A run of levels mixed to one value.
struct Group {
    k_first: usize,
    k_last: usize,
    t_sum: f64, // Σ θ·dz
    s_sum: f64,
    w: f64, // Σ dz
}

/// Prescan each row for the columns the merge would change, then merge
/// those. While no merge has happened every group on [`adjust_column`]'s
/// stack is a single level, so its first merge — if any — is of two
/// neighbouring levels that test unstable as one-level groups: a column
/// without such a pair comes out of the merge as it went in, and the
/// prescan makes that test level by level over a row of columns. It must
/// compare what the merge compares: a one-level group's mean is
/// `(θ·dz)/dz`, which need not be `θ` to the last bit.
fn adjust_unstable_columns(
    cfg: &ModelConfig,
    tile: &Tile,
    masks: &Masks,
    theta: &mut Band<'_>,
    s: &mut Band<'_>,
    buoyancy: impl Fn(f64, f64, usize) -> f64,
) {
    let cols = Cols::new(tile.nx, 0);
    let n = cols.n;
    // Buoyancy of the level above (nearer the coupling interface), and
    // whether an unstable pair has been seen, per column of the row.
    let mut b_near = vec![0.0; n];
    let mut unstable = vec![false; n];
    let mut stack = Vec::new();
    let mut cells = 0u64;
    for j in theta.rows(0) {
        let kmax = cols.of(&masks.kmax, j, 0);
        unstable.fill(false);
        for k in 0..cfg.grid.nz {
            let dz = cfg.grid.dz[k];
            // Read here; written below, in the flagged columns only.
            let (theta, s) = (cols.of_mut(theta, j, k), cols.of_mut(s, j, k));
            for i in 0..n {
                let b_far = buoyancy(theta[i] * dz / dz, s[i] * dz / dz, k);
                let pair_in_column = (k > 0) & in_column(k, kmax[i]);
                unstable[i] |= pair_in_column & cfg.eos.unstable(b_near[i], b_far);
                b_near[i] = b_far;
            }
        }
        for (i, &levels) in kmax.iter().enumerate() {
            let levels = levels as usize;
            if levels < 2 {
                continue;
            }
            cells += levels as u64;
            if unstable[i] {
                adjust_column(cfg, theta, s, &mut stack, (i as i64, j), levels);
            }
        }
    }
    flops::add(Phase::Ps, cells * CONVECT_FLOPS_PER_CELL);
}

/// Complete adjustment of the top `kmax` levels of column `(i, j)` via
/// group merging: walk away from the coupling interface keeping a stack
/// of fully-mixed layer groups; whenever the newest group is unstably
/// stratified against the one above it on the stack, merge them
/// (thickness-weighted) and re-check.
fn adjust_column(
    cfg: &ModelConfig,
    theta: &mut Band<'_>,
    s: &mut Band<'_>,
    stack: &mut Vec<Group>,
    (i, j): (i64, i64),
    kmax: usize,
) {
    stack.clear();
    for k in 0..kmax {
        let dz = cfg.grid.dz[k];
        stack.push(Group {
            k_first: k,
            k_last: k,
            t_sum: *theta.cell_mut(i, j, k) * dz,
            s_sum: *s.cell_mut(i, j, k) * dz,
            w: dz,
        });
        // Merge while the top two stack entries are unstable at
        // their shared interface.
        while stack.len() >= 2 {
            let lower = &stack[stack.len() - 1];
            let upper = &stack[stack.len() - 2];
            let (tu, su) = (upper.t_sum / upper.w, upper.s_sum / upper.w);
            let (tl, sl) = (lower.t_sum / lower.w, lower.s_sum / lower.w);
            let b_near = cfg.eos.buoyancy(tu, su, upper.k_last);
            let b_far = cfg.eos.buoyancy(tl, sl, lower.k_first);
            if cfg.eos.unstable(b_near, b_far) {
                // Both always present under the `len() >= 2` guard.
                let Some(lower) = stack.pop() else { break };
                let Some(upper) = stack.last_mut() else { break };
                upper.k_last = lower.k_last;
                upper.t_sum += lower.t_sum;
                upper.s_sum += lower.s_sum;
                upper.w += lower.w;
            } else {
                break;
            }
        }
    }
    // Write the mixed values back.
    for g in stack.iter() {
        if g.k_first == g.k_last {
            continue;
        }
        let (t, q) = (g.t_sum / g.w, g.s_sum / g.w);
        for k in g.k_first..=g.k_last {
            *theta.cell_mut(i, j, k) = t;
            *s.cell_mut(i, j, k) = q;
        }
    }
}

/// The cell-at-a-time loops the row sweeps above replaced, kept as what
/// the sweeps are compared with, bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Enforce static stability column by column: statically unstable
    /// neighbouring cells are mixed to their thickness-weighted mean
    /// (potential temperature and the second tracer together). A few sweeps
    /// per step suffice — convection is re-triggered next step if needed.
    pub(crate) fn convective_adjustment(
        cfg: &ModelConfig,
        tile: &Tile,
        masks: &Masks,
        state: &mut ModelState,
    ) {
        let (nx, ny) = (tile.nx as i64, tile.ny as i64);
        let mut cells = 0u64;
        // Complete adjustment via group merging: walk away from the coupling
        // interface keeping a stack of fully-mixed layer groups; whenever the
        // newest group is unstably stratified against the one above it on the
        // stack, merge them (thickness-weighted) and re-check. One pass
        // stabilizes any column exactly.
        struct Group {
            k_first: usize,
            k_last: usize,
            t_sum: f64, // Σ θ·dz
            s_sum: f64,
            w: f64, // Σ dz
        }
        let mut stack: Vec<Group> = Vec::new();
        for j in 0..ny {
            for i in 0..nx {
                let kmax = masks.kmax.at(i, j, 0) as usize;
                if kmax < 2 {
                    continue;
                }
                stack.clear();
                for k in 0..kmax {
                    let dz = cfg.grid.dz[k];
                    stack.push(Group {
                        k_first: k,
                        k_last: k,
                        t_sum: state.theta.at(i, j, k) * dz,
                        s_sum: state.s.at(i, j, k) * dz,
                        w: dz,
                    });
                    cells += 1;
                    // Merge while the top two stack entries are unstable at
                    // their shared interface.
                    while stack.len() >= 2 {
                        let lower = &stack[stack.len() - 1];
                        let upper = &stack[stack.len() - 2];
                        let (tu, su) = (upper.t_sum / upper.w, upper.s_sum / upper.w);
                        let (tl, sl) = (lower.t_sum / lower.w, lower.s_sum / lower.w);
                        let b_near = cfg.eos.buoyancy(tu, su, upper.k_last);
                        let b_far = cfg.eos.buoyancy(tl, sl, lower.k_first);
                        if cfg.eos.unstable(b_near, b_far) {
                            // Both always present under the `len() >= 2` guard.
                            let Some(lower) = stack.pop() else { break };
                            let Some(upper) = stack.last_mut() else { break };
                            upper.k_last = lower.k_last;
                            upper.t_sum += lower.t_sum;
                            upper.s_sum += lower.s_sum;
                            upper.w += lower.w;
                        } else {
                            break;
                        }
                    }
                }
                // Write the mixed values back.
                for g in &stack {
                    if g.k_first == g.k_last {
                        continue;
                    }
                    let t = g.t_sum / g.w;
                    let s = g.s_sum / g.w;
                    for k in g.k_first..=g.k_last {
                        state.theta.set(i, j, k, t);
                        state.s.set(i, j, k, s);
                    }
                }
            }
        }
        flops::add(Phase::Ps, cells * CONVECT_FLOPS_PER_CELL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::Decomp;
    use crate::state::ModelState;
    use crate::topography::Topography;

    #[test]
    fn convective_adjustment_stabilizes_ocean_column() {
        let d = Decomp::blocks(8, 4, 1, 1, 3);
        let cfg = ModelConfig::test_ocean(8, 4, 4, d);
        let tile = d.tile(0);
        let topo = Topography::aquaplanet(&cfg.grid);
        let masks = Masks::build(&cfg, &tile, &topo);
        let mut st = ModelState::initial(&cfg, &tile, &masks);
        // Make one column violently unstable: cold on top of warm.
        st.s.fill(cfg.eos.s_ref);
        for k in 0..4 {
            st.theta.set(2, 2, k, 5.0 + 3.0 * k as f64); // warm below
        }
        convective_adjustment(&cfg, &tile, &masks, &mut st);
        // After adjustment the column must be (weakly) stable.
        for k in 0..3usize {
            let b0 = cfg.eos.buoyancy(st.theta.at(2, 2, k), st.s.at(2, 2, k), k);
            let b1 = cfg
                .eos
                .buoyancy(st.theta.at(2, 2, k + 1), st.s.at(2, 2, k + 1), k + 1);
            assert!(
                !cfg.eos.unstable(b0, b1),
                "still unstable at k={k}: {b0} vs {b1}"
            );
        }
    }

    #[test]
    fn adjustment_conserves_heat_content() {
        let d = Decomp::blocks(8, 4, 1, 1, 3);
        let cfg = ModelConfig::test_ocean(8, 4, 4, d);
        let tile = d.tile(0);
        let topo = Topography::aquaplanet(&cfg.grid);
        let masks = Masks::build(&cfg, &tile, &topo);
        let mut st = ModelState::initial(&cfg, &tile, &masks);
        for k in 0..4 {
            st.theta.set(1, 1, k, 20.0 - 4.0 * k as f64);
            st.theta.set(2, 2, k, 5.0 + 3.0 * k as f64);
        }
        let heat = |st: &ModelState| -> f64 {
            let mut h = 0.0;
            for (i, j, k) in st.theta.interior() {
                h += st.theta.at(i, j, k) * cfg.grid.dz[k];
            }
            h
        };
        let before = heat(&st);
        convective_adjustment(&cfg, &tile, &masks, &mut st);
        let after = heat(&st);
        assert!(
            (before - after).abs() < 1e-9 * before.abs(),
            "heat not conserved: {before} -> {after}"
        );
    }

    #[test]
    fn stable_column_untouched() {
        let d = Decomp::blocks(8, 4, 1, 1, 3);
        let cfg = ModelConfig::test_ocean(8, 4, 4, d);
        let tile = d.tile(0);
        let topo = Topography::aquaplanet(&cfg.grid);
        let masks = Masks::build(&cfg, &tile, &topo);
        let mut st = ModelState::initial(&cfg, &tile, &masks);
        let before = st.theta.clone();
        convective_adjustment(&cfg, &tile, &masks, &mut st);
        // The initial profile is stable, so nothing changes.
        for (i, j, k) in before.interior() {
            assert_eq!(st.theta.at(i, j, k), before.at(i, j, k));
        }
    }
}

#[cfg(test)]
mod sweep_tests {
    use super::*;
    use crate::config::SurfaceForcing;
    use crate::kernel::fixtures::{cases, Case};

    // The fixture overturns every third column and leaves the rest
    // stably stratified, so flagged and unflagged columns sit side by
    // side in every row.
    #[test]
    fn convective_adjustment_prescan_matches_the_reference_bit_for_bit() {
        let (mut mixed, mut left_alone) = (0, 0);
        for case in cases() {
            let Case {
                cfg, tile, masks, ..
            } = &case;
            case.check(
                "convective_adjustment",
                |st, _| convective_adjustment(cfg, tile, masks, st),
                |st, _| reference::convective_adjustment(cfg, tile, masks, st),
            );
            let mut after = case.state.clone();
            convective_adjustment(cfg, tile, masks, &mut after);
            for (i, j, _) in masks.kmax.interior() {
                let levels = masks.kmax.at(i, j, 0) as usize;
                if levels < 2 {
                    continue;
                }
                let same = (0..levels).all(|k| {
                    after.theta.at(i, j, k).to_bits() == case.state.theta.at(i, j, k).to_bits()
                });
                *(if same { &mut left_alone } else { &mut mixed }) += 1;
            }
        }
        assert!(
            mixed > 50 && left_alone > 50,
            "{mixed} mixed, {left_alone} not"
        );
    }

    // A pair of levels on the instability threshold to the last bit: as
    // the means `(θ·dz)/dz` of one-level groups they test unstable, as raw
    // `θ` stable — a prescan of raw `θ` would leave the column alone and
    // the merge would mix it.
    #[test]
    fn prescan_tests_the_means_the_merge_forms() {
        use crate::decomp::Decomp;
        use crate::topography::Topography;
        let d = Decomp::blocks(8, 4, 1, 1, 3);
        let cfg = ModelConfig::test_ocean(8, 4, 2, d);
        let tile = d.tile(0);
        let masks = Masks::build(&cfg, &tile, &Topography::aquaplanet(&cfg.grid));
        let (eos, dz) = (&cfg.eos, &cfg.grid.dz);
        let mean = |theta: f64, k: usize| theta * dz[k] / dz[k];
        let unstable = |near: f64, far: f64| {
            eos.unstable(
                eos.buoyancy(near, eos.s_ref, 0),
                eos.buoyancy(far, eos.s_ref, 1),
            )
        };
        let on_the_threshold = (0..20_000).find_map(|n| {
            let near = 5.0 + 1.0e-3 * n as f64;
            if mean(near, 0) != near {
                return Option::None;
            }
            // The first `far` (doubles of one sign order as their bits)
            // that tests unstable under `near`, and the last that does not.
            let (mut stable, mut overturns) = (near.to_bits(), (near + 1.0).to_bits());
            assert!(!unstable(near, near) && unstable(near, near + 1.0));
            while overturns - stable > 1 {
                let mid = stable + (overturns - stable) / 2;
                if unstable(near, f64::from_bits(mid)) {
                    overturns = mid;
                } else {
                    stable = mid;
                }
            }
            let far = f64::from_bits(stable);
            (mean(far, 1).to_bits() == overturns).then_some((near, far))
        });
        let (near, far) = on_the_threshold.expect("no pair on the threshold among 20 000");
        let mut state = ModelState::initial(&cfg, &tile, &masks);
        state.s.fill(eos.s_ref);
        state.theta.set(1, 1, 0, near);
        state.theta.set(1, 1, 1, far);
        let mut want = state.clone();
        reference::convective_adjustment(&cfg, &tile, &masks, &mut want);
        assert_ne!(
            want.theta.at(1, 1, 0),
            near,
            "the merge leaves the pair alone"
        );
        convective_adjustment(&cfg, &tile, &masks, &mut state);
        assert_eq!(state.theta, want.theta);
        assert_eq!(state.s, want.s);
    }

    // Both fluids, no forcing, climatology and coupled, every `ext` of the
    // halo (`Model::step` uses 1).
    #[test]
    fn forcing_sweeps_match_their_references_bit_for_bit() {
        use SurfaceForcing::*;
        for mut case in cases() {
            for forcing in [None, Climatology, Coupled] {
                case.cfg.forcing = forcing;
                let Case {
                    cfg,
                    tile,
                    geom,
                    masks,
                    bc,
                    ..
                } = &case;
                let reference = match cfg.eos.kind {
                    FluidKind::Atmosphere => atmos::reference::forcing,
                    FluidKind::Ocean => ocean::reference::forcing,
                };
                for ext in 0..=3 {
                    case.check(
                        &format!("apply_forcing, {forcing:?}, ext {ext}"),
                        |st, ws| apply_forcing(cfg, tile, geom, masks, st, bc, ws, ext),
                        |st, ws| {
                            if forcing != None {
                                reference(cfg, tile, geom, masks, st, bc, ws, ext)
                            }
                        },
                    );
                }
            }
        }
    }

    // The fixture's humidity straddles saturation.
    #[test]
    fn condensation_sweep_matches_the_reference_bit_for_bit() {
        let mut rained = 0;
        for case in cases() {
            let Case {
                cfg, tile, masks, ..
            } = &case;
            let condensation = |st: &mut ModelState| {
                let (mut theta, mut s) = (st.theta.band(), st.s.band());
                atmos::condensation(cfg, tile, masks, &mut theta, &mut s)
            };
            case.check(
                "condensation",
                |st, _| condensation(st),
                |st, _| atmos::reference::condensation(cfg, tile, masks, st),
            );
            let mut after = case.state.clone();
            condensation(&mut after);
            rained += (after.s != case.state.s) as usize;
        }
        assert!(rained > 0, "no case condensed anything");
    }
}
