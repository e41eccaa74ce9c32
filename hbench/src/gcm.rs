//! The two workloads that drive the `gcm` layer and nothing else:
//! `coupled_serial` (cache-resident coupled pair) and `ocean_1deg`
//! (864 000 cells, solver-dominated), plus the stand-alone kernel probes
//! both report — one definition each, run on the workload's own tile and
//! state the way §5.2 of the paper measures Fps and Fds.

use crate::harness::{time_calls, Digest, Outcome, Workload};
use crate::metrics::{per_second, LayerMetrics};
use crate::stats::percentile;
use crate::trace::{TracedWorld, Tracer, SPAN_EXCHANGE, SPAN_GSUM};
use hyades_comms::{CommWorld, SerialWorld};
use hyades_gcm::checkpoint;
use hyades_gcm::config::ModelConfig;
use hyades_gcm::coupler::CoupledModel;
use hyades_gcm::decomp::Decomp;
use hyades_gcm::driver::{Model, StepStats};
use hyades_gcm::flops;
use hyades_gcm::grid::{stretched_levels, Grid};
use hyades_gcm::halo;
use hyades_gcm::kernel::{gterms, hydrostatic, timestep, Workspace};
use hyades_gcm::physics;
use hyades_gcm::solver::cg::CgSolver;
use hyades_gcm::solver::elliptic::EllipticCoeffs;
use hyades_gcm::state::ModelState;
use std::hint::black_box;
use std::time::Instant;

const SPAN_BUILD: &str = "gcm.build";
const SPAN_STEP: &str = "gcm.step";

/// `coupled_serial`: grid and horizon. The 64×32 pair goes non-finite
/// near step 470; 64 steps stays far inside that horizon.
const COUPLED_NX: usize = 64;
const COUPLED_NY: usize = 32;
pub const COUPLED_STEPS: usize = 64;
const COUPLE_EVERY: u64 = 4;
/// The default cap of 200 leaves most early steps unconverged.
const COUPLED_CG_MAX_ITERS: usize = 1000;

/// `ocean_1deg`: the run is non-finite from step 18–19, so the horizon
/// is short; the first steps are also the solver-heaviest.
pub const OCEAN_STEPS: usize = 2;

/// Steps of the paper-grid horizon canary.
const CANARY_STEPS: usize = 64;

/// What a repetition counted, kept for the per-layer readings.
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    model_steps: u64,
    cell_steps: u64,
    cg_iters: u64,
    flops: u64,
    unconverged: u64,
    nonfinite: u64,
    model_seconds: f64,
}

impl Counts {
    fn add_step(&mut self, m: &Model, s: &StepStats) {
        self.model_steps += 1;
        self.cell_steps += (m.tile.nx * m.tile.ny * m.cfg.grid.nz) as u64;
        self.cg_iters += s.cg_iterations as u64;
        self.flops += s.ps_flops + s.ds_flops;
    }

    /// The two checks every step gets: the solve converged, the state is
    /// still finite.
    fn check_step(&mut self, out: &mut Outcome, converged: bool, finite: bool) {
        out.check(converged);
        out.check(finite);
        self.unconverged += u64::from(!converged);
        self.nonfinite += u64::from(!finite);
    }
}

fn digest_model(d: &mut Digest, m: &Model) {
    let st = &m.state;
    for f in [&st.u, &st.v, &st.w, &st.theta, &st.s] {
        d.f64s(f.raw());
    }
    d.f64s(st.ps.raw());
}

/// The coupled pair the way `scenario::small_coupled_scenario(64, 32, 4)`
/// builds it, with the seed in both components and a CG cap that lets
/// every step converge.
pub fn build_coupled(seed: u64, nx: usize, ny: usize) -> CoupledModel {
    let d = Decomp::blocks(nx, ny, 1, 1, 3);
    let paper = Decomp::blocks(128, 64, 1, 1, 3);
    let mut acfg = ModelConfig::atmosphere_2p8125(paper);
    acfg.grid = Grid::global(nx, ny, 5, 78.75, vec![2.0e4; 5]);
    acfg.decomp = d;
    acfg.cg_max_iters = COUPLED_CG_MAX_ITERS;
    acfg.seed = seed;
    let mut ocfg = ModelConfig::ocean_2p8125(paper);
    ocfg.grid = Grid::global(nx, ny, 15, 78.75, stretched_levels(15, 4000.0));
    ocfg.decomp = d;
    ocfg.continents = true;
    ocfg.cg_max_iters = COUPLED_CG_MAX_ITERS;
    ocfg.seed = seed ^ 0x5555;
    CoupledModel::new(Model::new(acfg, 0), Model::new(ocfg, 0), COUPLE_EVERY)
}

pub struct CoupledSerial {
    seed: u64,
    counts: Counts,
    last: Option<CoupledModel>,
}

impl CoupledSerial {
    pub fn new(seed: u64) -> CoupledSerial {
        CoupledSerial {
            seed,
            counts: Counts::default(),
            last: None,
        }
    }
}

/// One checked coupled step.
fn coupled_step(
    pair: &mut CoupledModel,
    wa: &mut dyn CommWorld,
    wo: &mut dyn CommWorld,
    tracer: &Tracer,
    out: &mut Outcome,
    c: &mut Counts,
) {
    let id = tracer.begin(SPAN_STEP);
    let (sa, so) = pair.step(wa, wo);
    tracer.end(id);
    c.add_step(&pair.atmos, &sa);
    c.add_step(&pair.ocean, &so);
    let finite = pair.atmos.state.is_finite() && pair.ocean.state.is_finite();
    c.check_step(out, sa.cg_converged && so.cg_converged, finite);
}

impl Workload for CoupledSerial {
    fn rep(&mut self, tracer: &Tracer) -> Outcome {
        let mut out = Outcome::default();
        let mut c = Counts::default();
        let mut pair = tracer.span(SPAN_BUILD, || {
            build_coupled(self.seed, COUPLED_NX, COUPLED_NY)
        });
        let traced = || TracedWorld {
            inner: SerialWorld,
            tracer,
        };
        let (mut ta, mut to, mut ba, mut bo) = (traced(), traced(), SerialWorld, SerialWorld);
        let (wa, wo): (&mut dyn CommWorld, &mut dyn CommWorld) = if tracer.is_on() {
            (&mut ta, &mut to)
        } else {
            (&mut ba, &mut bo)
        };
        for _ in 0..COUPLED_STEPS {
            coupled_step(&mut pair, wa, wo, tracer, &mut out, &mut c);
        }
        // The pair is stepped synchronously; the atmosphere's clock is
        // the one the paper quotes simulated days in.
        c.model_seconds = COUPLED_STEPS as f64 * pair.atmos.cfg.dt;
        let mut d = Digest::default();
        digest_model(&mut d, &pair.atmos);
        digest_model(&mut d, &pair.ocean);
        out.digest = d.finish();
        self.counts = c;
        self.last = Some(pair);
        out
    }

    fn layer_metrics(&mut self, tracer: &Tracer, wall_s: f64, m: &mut LayerMetrics) {
        let mut pair = self.last.take().expect("a repetition ran first");
        in_run_metrics(&self.counts, tracer, wall_s, m);
        let (nps, nds) = pair.atmos.measured_n_coefficients();
        m.set("gcm.nps", nps);
        m.set("gcm.nds", nds);

        // Coupler and checkpoint on the pair, kernels on the ocean (the
        // component with three quarters of the cells).
        let t = time_calls(|| pair.exchange_boundary_conditions());
        m.set("gcm.coupler_bc_us", t * 1e6);
        let mut image = Vec::new();
        let t = time_calls(|| {
            image.clear();
            pair.save_checkpoint(&mut image)
                .expect("checkpoint to memory");
            pair.load_checkpoint(&mut image.as_slice())
                .expect("checkpoint from memory");
        });
        m.set(
            "gcm.checkpoint_mb_per_s",
            2.0 * image.len() as f64 / 1e6 / t,
        );
        kernel_probes(&mut pair.ocean, m);
        m.set("bench.triad_gb_per_s", triad_gb_per_s());

        let (finite, converged) = paper_grid_canary();
        m.set("gcm.paper_grid_finite_steps", finite as f64);
        m.set("gcm.paper_grid_converged_steps", converged as f64);
    }
}

/// Horizon canary: the paper's 128×64 pair at its default configuration
/// (CG cap 200). Counts the steps after which both states are still
/// finite and the steps on which both solves converged. The defect is
/// recorded here, not fixed.
fn paper_grid_canary() -> (usize, usize) {
    let mut pair = hyades::scenario::paper_coupled_scenario(COUPLE_EVERY);
    let (mut wa, mut wo) = (SerialWorld, SerialWorld);
    let (mut finite, mut converged) = (0, 0);
    for _ in 0..CANARY_STEPS {
        let (sa, so) = pair.step(&mut wa, &mut wo);
        finite += usize::from(pair.atmos.state.is_finite() && pair.ocean.state.is_finite());
        converged += usize::from(sa.cg_converged && so.cg_converged);
    }
    (finite, converged)
}

pub struct Ocean1Deg {
    seed: u64,
    counts: Counts,
    last: Option<Model>,
}

impl Ocean1Deg {
    pub fn new(seed: u64) -> Ocean1Deg {
        Ocean1Deg {
            seed,
            counts: Counts::default(),
            last: None,
        }
    }
}

impl Workload for Ocean1Deg {
    fn rep(&mut self, tracer: &Tracer) -> Outcome {
        let mut out = Outcome::default();
        let mut c = Counts::default();
        let mut model = tracer.span(SPAN_BUILD, || {
            let mut cfg = ModelConfig::ocean_1deg(Decomp::blocks(360, 160, 1, 1, 3));
            cfg.seed = self.seed;
            Model::new(cfg, 0)
        });
        let mut traced = TracedWorld {
            inner: SerialWorld,
            tracer,
        };
        let mut bare = SerialWorld;
        let world: &mut dyn CommWorld = if tracer.is_on() {
            &mut traced
        } else {
            &mut bare
        };
        for _ in 0..OCEAN_STEPS {
            let id = tracer.begin(SPAN_STEP);
            let s = model.step(world);
            tracer.end(id);
            c.add_step(&model, &s);
            c.check_step(&mut out, s.cg_converged, model.state.is_finite());
        }
        c.model_seconds = OCEAN_STEPS as f64 * model.cfg.dt;
        let mut d = Digest::default();
        digest_model(&mut d, &model);
        out.digest = d.finish();
        self.counts = c;
        self.last = Some(model);
        out
    }

    fn layer_metrics(&mut self, tracer: &Tracer, wall_s: f64, m: &mut LayerMetrics) {
        let mut model = self.last.take().expect("a repetition ran first");
        in_run_metrics(&self.counts, tracer, wall_s, m);
        let (nps, nds) = model.measured_n_coefficients();
        m.set("gcm.nps", nps);
        m.set("gcm.nds", nds);
        let mut image = Vec::new();
        let t = time_calls(|| {
            image.clear();
            checkpoint::save(&model, &mut image).expect("checkpoint to memory");
            checkpoint::load(&mut model, &mut image.as_slice()).expect("checkpoint from memory");
        });
        m.set(
            "gcm.checkpoint_mb_per_s",
            2.0 * image.len() as f64 / 1e6 / t,
        );
        kernel_probes(&mut model, m);
        m.set("bench.triad_gb_per_s", triad_gb_per_s());
    }
}

/// Readings that come from the repetitions themselves.
fn in_run_metrics(c: &Counts, tracer: &Tracer, wall_s: f64, m: &mut LayerMetrics) {
    m.set("gcm.steps", c.model_steps as f64);
    m.set("gcm.cell_steps", c.cell_steps as f64);
    m.set("gcm.cell_steps_per_s", c.cell_steps as f64 / wall_s);
    m.set("gcm.sdpd", c.model_seconds / wall_s);
    m.set("gcm.mflops", c.flops as f64 / wall_s / 1e6);
    m.set("gcm.cg_iters", c.cg_iters as f64);
    m.set("gcm.cg_iters_per_s", c.cg_iters as f64 / wall_s);
    m.set("gcm.unconverged_steps", c.unconverged as f64);
    m.set("gcm.nonfinite_steps", c.nonfinite as f64);
    let steps_ms: Vec<f64> = tracer
        .durations_ns(SPAN_STEP)
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    m.set("gcm.step_p50_ms", percentile(&steps_ms, 0.5));
    m.set("gcm.step_p90_ms", percentile(&steps_ms, 0.9));
    m.set("gcm.step_self_s", tracer.per_rep(SPAN_STEP).self_s);
    let (ex, gs) = (tracer.per_rep(SPAN_EXCHANGE), tracer.per_rep(SPAN_GSUM));
    m.set("comms.world_exchange_calls", ex.calls);
    m.set("comms.world_exchange_s", ex.total_s);
    m.set("comms.world_gsum_calls", gs.calls);
    m.set("comms.world_gsum_s", gs.total_s);
}

/// Stand-alone kernel rates on `model`'s tile and current state. The
/// model's prognostic state is read, not advanced (only the halo ring,
/// `phy`/`b` and the previous-tendency slots are rewritten, as every
/// step does).
pub fn kernel_probes(model: &mut Model, m: &mut LayerMetrics) {
    let Model {
        cfg,
        tile,
        geom,
        masks,
        state,
        bc,
        ..
    } = model;
    let (cfg, tile, geom, masks, bc) = (&*cfg, &*tile, &*geom, &*masks, &*bc);
    let cells = (tile.nx * tile.ny * cfg.grid.nz) as f64;
    let cols = (tile.nx * tile.ny) as f64;
    let mut ws = Workspace::new(cfg, tile);
    let mut world = SerialWorld;
    let decomp = cfg.decomp;

    let t = time_calls(|| {
        halo::exchange3(
            &mut world,
            &decomp,
            tile,
            &mut [
                &mut state.u,
                &mut state.v,
                &mut state.w,
                &mut state.theta,
                &mut state.s,
            ],
            3,
        )
    });
    m.set("gcm.k_halo3_per_s", 1.0 / t);

    // The PS kernels, in the order a step runs them.
    let theta = state.theta.clone();
    let diff_v = if cfg.implicit_vertical {
        0.0
    } else {
        cfg.diff_v
    };
    type Kernel<'a> = &'a dyn Fn(&mut ModelState, &mut Workspace);
    let hydro: Kernel<'_> = &|st, _| hydrostatic::buoyancy_and_phy(cfg, tile, masks, st, 2);
    let momentum: Kernel<'_> =
        &|st, ws| gterms::momentum_tendencies(cfg, tile, geom, masks, st, ws, 1);
    let tracer: Kernel<'_> = &|st, ws| {
        let (kh, gt) = (cfg.diff_h, &mut ws.gt);
        gterms::tracer_tendency(cfg, tile, geom, masks, st, &theta, gt, kh, diff_v, 0)
    };
    let forcing: Kernel<'_> =
        &|st, ws| physics::apply_forcing(cfg, tile, geom, masks, st, bc, ws, 1);
    // AB2 extrapolation, provisional velocities, elliptic right-hand side.
    let stepping: Kernel<'_> = &|st, ws| {
        timestep::ab2_extrapolate(&mut ws.gu, &mut st.gu_prev, cfg.ab_eps, false, 1);
        timestep::ab2_extrapolate(&mut ws.gv, &mut st.gv_prev, cfg.ab_eps, false, 1);
        timestep::velocity_star(cfg, tile, geom, masks, st, ws, 1);
        timestep::divergence_rhs(cfg, tile, geom, masks, ws);
    };
    let kernels = [
        ("gcm.k_hydrostatic_cells_per_s", hydro),
        ("gcm.k_momentum_cells_per_s", momentum),
        ("gcm.k_tracer_cells_per_s", tracer),
        ("gcm.k_forcing_cells_per_s", forcing),
        ("gcm.k_timestep_cells_per_s", stepping),
    ];
    for (metric, kernel) in kernels {
        let t = time_calls(|| kernel(state, &mut ws));
        m.set(metric, cells / t);
    }

    // Fps: the whole sequence, flops as the kernels count them.
    let mut sequence = || kernels.iter().for_each(|(_, k)| k(state, &mut ws));
    let (ps0, _) = flops::read();
    sequence();
    let (ps1, _) = flops::read();
    let t = time_calls(sequence);
    m.set("gcm.fps_mflops", (ps1 - ps0) as f64 / t / 1e6);

    // Elliptic operator and a cold CG solve of the rhs just built.
    let coeffs = EllipticCoeffs::build(cfg, tile, geom, masks);
    let mut out = ws.rhs.clone();
    let t = time_calls(|| coeffs.apply(tile, black_box(&ws.rhs), &mut out));
    m.set("gcm.k_elliptic_cols_per_s", cols / t);

    let mut solver = CgSolver::new(tile);
    let mut x = ws.rhs.clone();
    x.fill(0.0);
    let (_, ds0) = flops::read();
    let t0 = Instant::now();
    let r = solver.solve(
        &mut world, cfg, &decomp, tile, geom, &coeffs, masks, &ws.rhs, &mut x,
    );
    let secs = t0.elapsed().as_secs_f64();
    let (_, ds1) = flops::read();
    m.set(
        "gcm.k_cg_iters_per_s",
        per_second(r.iterations as f64, secs),
    );
    m.set("gcm.fds_mflops", per_second((ds1 - ds0) as f64 / 1e6, secs));
}

/// STREAM triad `a = b + s·c` over three 128 MiB arrays (384 MiB in all,
/// beyond this host's 260 MiB L3): the memory roofline, measured in the
/// same run as the kernels it bounds. Bytes are computed (24 per
/// element), not counted.
pub fn triad_gb_per_s() -> f64 {
    const N: usize = 16 << 20;
    let b = vec![1.5f64; N];
    let c = vec![0.25f64; N];
    let mut a = vec![0.0f64; N];
    let mut best = f64::INFINITY;
    for pass in 0..4 {
        let s = 3.0 + pass as f64;
        let t0 = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        black_box(&mut a);
        if pass > 0 {
            best = best.min(t0.elapsed().as_secs_f64());
        }
    }
    (24 * N) as f64 / best / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The decorator forwards every method unchanged: eight steps of the
    /// coupled pair end in the same bits with it and without it, and it
    /// saw the traffic.
    #[test]
    fn traced_world_leaves_the_run_bit_identical() {
        let run = |tracer: Option<&Tracer>| {
            let mut pair = build_coupled(1999, 16, 8);
            let (mut out, mut c) = (Outcome::default(), Counts::default());
            let off = Tracer::new();
            for _ in 0..8 {
                match tracer {
                    Some(tracer) => {
                        let (mut wa, mut wo) = (
                            TracedWorld {
                                inner: SerialWorld,
                                tracer,
                            },
                            TracedWorld {
                                inner: SerialWorld,
                                tracer,
                            },
                        );
                        coupled_step(&mut pair, &mut wa, &mut wo, tracer, &mut out, &mut c);
                    }
                    None => coupled_step(
                        &mut pair,
                        &mut SerialWorld,
                        &mut SerialWorld,
                        &off,
                        &mut out,
                        &mut c,
                    ),
                }
            }
            let mut d = Digest::default();
            digest_model(&mut d, &pair.atmos);
            digest_model(&mut d, &pair.ocean);
            (d.finish(), out, c.cg_iters)
        };
        let tracer = Tracer::new();
        tracer.start_rep(0, true);
        let (bare, traced) = (run(None), run(Some(&tracer)));
        assert_eq!(bare, traced);
        assert_eq!(bare.1.failed, 0);
        assert_eq!(tracer.total(SPAN_STEP).calls, 8);
        // One exchange and two reductions per CG iteration, at least.
        assert!(tracer.total(SPAN_EXCHANGE).calls >= traced.2);
        assert!(tracer.total(SPAN_GSUM).calls >= 2 * traced.2);
    }

    /// Every `CommWorld` method reaches the inner world with its
    /// arguments and returns its answer.
    #[test]
    fn traced_world_forwards_every_method() {
        struct Echo(Vec<&'static str>);
        impl CommWorld for Echo {
            fn rank(&self) -> usize {
                3
            }
            fn size(&self) -> usize {
                5
            }
            fn exchange(&mut self, o: Vec<(usize, Vec<f64>)>) -> Vec<(usize, Vec<f64>)> {
                self.0.push("exchange");
                o
            }
            fn global_sum(&mut self, x: f64) -> f64 {
                self.0.push("global_sum");
                x + 1.0
            }
            fn global_sum_vec(&mut self, xs: &mut [f64]) {
                self.0.push("global_sum_vec");
                xs[0] = 9.0;
            }
            fn global_max(&mut self, x: f64) -> f64 {
                self.0.push("global_max");
                x + 2.0
            }
            fn global_min(&mut self, x: f64) -> f64 {
                self.0.push("global_min");
                x + 3.0
            }
            fn global_argmax(&mut self, v: f64, t: u64) -> (f64, u64) {
                self.0.push("global_argmax");
                (v, t + 1)
            }
            fn global_argmin(&mut self, v: f64, t: u64) -> (f64, u64) {
                self.0.push("global_argmin");
                (v, t + 2)
            }
            fn barrier(&mut self) {
                self.0.push("barrier");
            }
            fn gather(&mut self, data: Vec<f64>) -> Option<Vec<Vec<f64>>> {
                self.0.push("gather");
                Some(vec![data])
            }
        }
        let tracer = Tracer::new();
        tracer.start_rep(0, true);
        let mut w = TracedWorld {
            inner: Echo(Vec::new()),
            tracer: &tracer,
        };
        assert_eq!((w.rank(), w.size()), (3, 5));
        assert_eq!(w.exchange(vec![(1, vec![2.0])]), vec![(1, vec![2.0])]);
        assert_eq!(w.global_sum(1.0), 2.0);
        let mut xs = [0.0];
        w.global_sum_vec(&mut xs);
        assert_eq!(xs, [9.0]);
        assert_eq!(w.global_max(1.0), 3.0);
        assert_eq!(w.global_min(1.0), 4.0);
        assert_eq!(w.global_argmax(1.0, 10), (1.0, 11));
        assert_eq!(w.global_argmin(1.0, 10), (1.0, 12));
        w.barrier();
        assert_eq!(w.gather(vec![4.0]), Some(vec![vec![4.0]]));
        // Each call went to the method of the same name — none fell back
        // to a trait default that would re-route through another.
        assert_eq!(
            w.inner.0,
            [
                "exchange",
                "global_sum",
                "global_sum_vec",
                "global_max",
                "global_min",
                "global_argmax",
                "global_argmin",
                "barrier",
                "gather"
            ]
        );
        assert_eq!(tracer.total(SPAN_EXCHANGE).calls, 1);
        assert_eq!(tracer.total(SPAN_GSUM).calls, 6);
        assert_eq!(tracer.total(crate::trace::SPAN_OTHER).calls, 2);
    }
}
