//! The telemetry tour: one instrumented run through every tier.
//!
//! Exercises the whole flight-recorder stack in a single deterministic
//! harness:
//!
//! 1. a 2×2-rank functional GCM run under a [`TimedWorld`] with per-rank
//!    telemetry recorders — PS/DS phase attribution, charged comm and
//!    compute spans, and the metric registry;
//! 2. a DES microbenchmark pass (exchange + global sum on the simulated
//!    Arctic fabric) with the event-timeline spans from the router, NIU,
//!    and comms actors, plus the flight recorder ring;
//! 3. a model-vs-measured phase report lining the run's charged PS/DS
//!    seconds up against eqs. (4)–(13) of the paper.
//!
//! Everything is a pure function of `seed`: two runs with the same seed
//! produce byte-identical artifacts (the determinism test pins this), and
//! different seeds perturb both the physics and the microbench shapes.

use crate::perf::model::PerfModel;
use crate::perf::params::{DsParams, PsParams};
use crate::perf::phases::{self, MeasuredPhases, StepSample};
use hyades_cluster::interconnect::{arctic_paper, ExchangeShape, Interconnect};
use hyades_comms::exchange::{measure_exchange, measure_exchange_faulty};
use hyades_comms::gsum::{measure_gsum, measure_gsum_faulty};
use hyades_comms::{CommWorld, RecoveryCounters, ThreadWorld, TimedWorld};
use hyades_des::fault::FaultPlan;
use hyades_des::rng::SplitMix64;
use hyades_gcm::config::{ModelConfig, SurfaceForcing};
use hyades_gcm::coupler::CoupledModel;
use hyades_gcm::decomp::Decomp;
use hyades_gcm::driver::Model;
use hyades_gcm::grid::{stretched_levels, Grid};
use hyades_gcm::halo::exchange_leg_bytes;
use hyades_gcm::monitor::RunMonitor;
use hyades_gcm::resilient::ResilientRunner;
use hyades_startx::HostParams;
use hyades_telemetry as telemetry;
use hyades_telemetry::artifact::{Artifact, ArtifactKind, Prebuilt};
use hyades_telemetry::{flight, RankTelemetry, RunTelemetry, FDS_MFLOPS, FPS_MFLOPS};
use std::fmt::Write as _;

/// Grid/decomposition constants of the tour run.
const NX: usize = 16;
const NY: usize = 8;
const NZ: usize = 4;
const PX: usize = 2;
const PY: usize = 2;
const NRANKS: usize = PX * PY;
const STEPS: usize = 4;

/// One configuration for every tour entry point: the four tours
/// (profiling E14, run-health E18, critical-path E19, fault-recovery
/// E21) are methods on it. `seed` is the only required input.
#[derive(Clone, Debug)]
pub struct TourConfig {
    /// Seeds the physics perturbation and the microbench shapes.
    pub seed: u64,
    /// GCM steps of the single-model profiling tour.
    pub steps: usize,
    /// Coupled steps of the diag/critpath/resilient tours.
    pub coupled_steps: usize,
    /// Injected compute straggler (critical-path tour only).
    pub straggler: Option<Straggler>,
    /// Fault schedule: drives the resilient tour's crash/rollback and
    /// the DES recovery legs' link faults. Empty means fault-free.
    pub fault_plan: FaultPlan,
}

impl TourConfig {
    pub fn new(seed: u64) -> TourConfig {
        TourConfig {
            seed,
            steps: STEPS,
            coupled_steps: CSTEPS,
            straggler: None,
            fault_plan: FaultPlan::default(),
        }
    }

    pub fn steps(mut self, steps: usize) -> TourConfig {
        self.steps = steps;
        self
    }

    pub fn coupled_steps(mut self, steps: usize) -> TourConfig {
        self.coupled_steps = steps;
        self
    }

    pub fn straggler(mut self, s: Straggler) -> TourConfig {
        self.straggler = Some(s);
        self
    }

    pub fn fault_plan(mut self, plan: FaultPlan) -> TourConfig {
        self.fault_plan = plan;
        self
    }

    /// The demonstration fault schedule of the resilient tour: a mid-run
    /// rank crash plus a seeded window of link corruption and one NIU
    /// stall, so every recovery mechanism (rollback/replay, CRC
    /// retransmit, stall timeout) fires in one run.
    pub fn demo_fault_plan(seed: u64) -> FaultPlan {
        FaultPlan::new(seed)
            .rank_crash(1, 3)
            .link_window(0.0, 60.0, 0.2, 0.1)
            .niu_stall(1, 5.0, 25.0)
    }
}

/// Everything the tour produces.
pub struct TourArtifacts {
    /// Chrome trace-event JSON (load in chrome://tracing or Perfetto).
    pub chrome_json: String,
    /// Deterministic text summary of spans, counters, stats, histograms,
    /// with the DES flight-recorder dump appended.
    pub text_summary: String,
    /// Model-vs-measured phase report with per-term residuals.
    pub phase_report: String,
    /// Per-step model-vs-measured residual series (drift over the run,
    /// not just the end-state average).
    pub residual_series: String,
    /// Largest |relative residual| over the four phase terms.
    pub max_abs_residual: f64,
    /// Largest |per-step residual| over the run.
    pub max_step_residual: f64,
    /// Total spans across all ranks (sanity handle for tests).
    pub span_count: usize,
}

/// What the analytical model needs from one stepped model instance: the
/// run's measured flop coefficients and its wet cell/column counts.
#[derive(Clone, Copy)]
struct ModelInputs {
    nps: f64,
    nds: f64,
    wet_cells: u64,
    wet_columns: u64,
}

impl ModelInputs {
    fn of(m: &Model) -> ModelInputs {
        let (nps, nds) = m.measured_n_coefficients();
        ModelInputs {
            nps,
            nds,
            wet_cells: m.masks.wet_cells,
            wet_columns: m.masks.wet_columns(),
        }
    }
}

/// Per-worker results shipped back from the fan-out.
struct RankRun {
    telemetry: RankTelemetry,
    /// Stamped comm log (feeds the Chrome flow events).
    stamped: Vec<telemetry::commlog::Stamped>,
    total_cg_iterations: u64,
    inputs: ModelInputs,
    /// This rank's per-step charged phase deltas + iteration counts.
    steps: Vec<StepSample>,
}

fn run_rank<W: CommWorld>(world: &mut W, tour: &TourConfig) -> RankRun {
    let rank = world.rank();
    telemetry::enable(rank);
    telemetry::commlog::install();
    let d = Decomp::blocks(NX, NY, PX, PY, 3);
    let cfg = ModelConfig::test_ocean(NX, NY, NZ, d);
    let mut m = Model::new(cfg, rank);
    // Seeded perturbation of the initial stratification: makes the run a
    // genuine function of `seed` (solver trajectories, residuals, and the
    // exported artifacts all move with it).
    let mut rng =
        SplitMix64::new(tour.seed ^ (rank as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for (i, j, k) in m.state.theta.clone().interior() {
        m.state.theta.add(i, j, k, (rng.next_f64() - 0.5) * 0.2);
    }
    let net = arctic_paper();
    let mut timed = TimedWorld::new(world, &net);
    let mut steps = Vec::with_capacity(tour.steps);
    for _ in 0..tour.steps {
        let before = telemetry::phase_totals();
        let s = m.step(&mut timed);
        assert!(s.cg_converged, "tour solver diverged");
        let after = telemetry::phase_totals();
        steps.push(StepSample {
            ni: s.cg_iterations as u64,
            measured: MeasuredPhases {
                ps_compute_s: (after.ps_compute - before.ps_compute).as_secs_f64(),
                ps_comm_s: (after.ps_comm - before.ps_comm).as_secs_f64(),
                ds_compute_s: (after.ds_compute - before.ds_compute).as_secs_f64(),
                ds_comm_s: (after.ds_comm - before.ds_comm).as_secs_f64(),
            },
        });
    }
    let inputs = ModelInputs::of(&m);
    RankRun {
        stamped: telemetry::commlog::take_stamped(),
        telemetry: telemetry::disable().expect("telemetry was enabled"),
        total_cg_iterations: m.total_cg_iterations,
        inputs,
        steps,
    }
}

/// The seeded shapes of the DES microbench legs (profiling and recovery
/// tours): the 2×2 exchange's bytes per leg and the 8 gsum operands.
fn microbench_shapes(seed: u64) -> (u64, Vec<f64>) {
    let leg_bytes = 256 + (seed % 7) * 64;
    let values = (0..8)
        .map(|i| ((seed >> (i % 8)) & 0xF) as f64 + i as f64)
        .collect();
    (leg_bytes, values)
}

/// Take the flight recorder installed for the microbench legs and render
/// its dump.
fn take_flight_dump() -> String {
    let tr = flight::take().expect("flight recorder was installed");
    format!(
        "[flight recorder] {} events ({} dropped)\n{}",
        tr.len(),
        tr.dropped(),
        tr.dump()
    )
}

/// The DES microbenchmark leg: exchange + butterfly gsum on the simulated
/// fabric, recorded as event-timeline spans under a dedicated rank, with
/// the flight recorder capturing router/NIU/comms breadcrumbs.
fn run_microbench(seed: u64) -> (RankTelemetry, String) {
    telemetry::enable(NRANKS);
    flight::install();
    let host = HostParams::default();
    let (leg_bytes, values) = microbench_shapes(seed);
    let t_exch = measure_exchange(host, 2, 2, leg_bytes);
    let g = measure_gsum(host, &values, false);
    telemetry::observe_duration_us("tour.microbench", "exchange_elapsed_us", t_exch);
    telemetry::observe_duration_us("tour.microbench", "gsum_elapsed_us", g.elapsed);
    telemetry::count("tour.microbench", "exchange_leg_bytes", leg_bytes);
    let dump = take_flight_dump();
    let tel = telemetry::disable().expect("telemetry was enabled");
    (tel, dump)
}

/// Build the analytical model for one model instance on the tour's 2×2
/// decomposition: `nz` levels, the run's measured flop coefficients, the
/// interconnect cost model `TimedWorld` charged against, and the rates
/// the recorder charged compute at as `Fps`/`Fds`.
fn model_for(net: &dyn Interconnect, nz: usize, inputs: ModelInputs) -> PerfModel {
    let tile = Decomp::blocks(NX, NY, PX, PY, 3).tile(0);
    // One field exchange: x phase moves strips to 2 neighbors (send +
    // receive legs each), then y phase moves halo-widened rows.
    let exch = |levels: usize, width: usize| {
        let (x, y) = exchange_leg_bytes(&tile, levels, width);
        net.exchange_time(&ExchangeShape::from_legs(vec![x, x, x, x, y, y, y, y]))
    };
    // 3-D fields go at width 3, 2-D fields at width 1.
    let (texch_xyz, texch_xy) = (exch(nz, 3), exch(1, 1));
    PerfModel {
        ps: PsParams {
            nps: inputs.nps,
            nxyz: inputs.wet_cells,
            texch_xyz_us: texch_xyz.as_us_f64(),
            fps_mflops: FPS_MFLOPS,
        },
        ds: DsParams {
            nds: inputs.nds,
            nxy: inputs.wet_columns,
            tgsum_us: net.gsum_time(NRANKS as u32).as_us_f64(),
            texch_xy_us: texch_xy.as_us_f64(),
            fds_mflops: FDS_MFLOPS,
        },
    }
}

impl TourConfig {
    /// The profiling tour (E14): instrumented GCM fan-out + DES
    /// microbench + model-vs-measured phase report.
    pub fn run_tour(&self) -> TourArtifacts {
        // 1. Instrumented GCM fan-out.
        let net = arctic_paper();
        let mut runs = ThreadWorld::run(NRANKS, |w| run_rank(w, self));

        // 2. DES microbench on this thread, as an extra "rank" holding the
        //    event timeline.
        let (bench_tel, flight_dump) = run_microbench(self.seed);

        // 3. Model-vs-measured phase comparison (mean over the GCM ranks;
        //    every rank ran the same-shape tile, so the mean is the
        //    per-rank story eqs. (4)–(13) tell).
        let model = model_for(&net, NZ, runs[0].inputs);
        let mut totals = telemetry::PhaseTotals::default();
        for r in &runs {
            totals.merge(&r.telemetry.phases);
        }
        let n = NRANKS as f64;
        let measured = MeasuredPhases {
            ps_compute_s: totals.ps_compute.as_secs_f64() / n,
            ps_comm_s: totals.ps_comm.as_secs_f64() / n,
            ds_compute_s: totals.ds_compute.as_secs_f64() / n,
            ds_comm_s: totals.ds_comm.as_secs_f64() / n,
        };
        let ni_total = runs[0].total_cg_iterations;
        let cmp = phases::compare(&model, self.steps as u64, ni_total, &measured);

        // Per-step residual series: each step's sample is the rank-mean of
        // the charged phase deltas (iteration counts are global, so any
        // rank's `ni` works).
        let step_samples: Vec<StepSample> = (0..self.steps)
            .map(|i| {
                let mean = |term: fn(&MeasuredPhases) -> f64| {
                    runs.iter().map(|r| term(&r.steps[i].measured)).sum::<f64>() / n
                };
                StepSample {
                    ni: runs[0].steps[i].ni,
                    measured: MeasuredPhases {
                        ps_compute_s: mean(|m| m.ps_compute_s),
                        ps_comm_s: mean(|m| m.ps_comm_s),
                        ds_compute_s: mean(|m| m.ds_compute_s),
                        ds_comm_s: mean(|m| m.ds_comm_s),
                    },
                }
            })
            .collect();
        let series = phases::step_residual_series(&model, &step_samples);

        // 4. Merge per-rank telemetry (rank order, then the bench rank) and
        //    export both formats. Matched send→recv pairs from the stamped
        //    comm logs become Chrome flow events, so the cross-rank arrows
        //    are visible in the trace viewer.
        let stamped: Vec<Vec<telemetry::commlog::Stamped>> = runs
            .iter_mut()
            .map(|r| std::mem::take(&mut r.stamped))
            .collect();
        let mut ranks: Vec<RankTelemetry> = runs.drain(..).map(|r| r.telemetry).collect();
        ranks.push(bench_tel);
        let mut run_tel = RunTelemetry::from_ranks(ranks);
        run_tel.set_flows(telemetry::flows_from_stamped(&stamped));

        TourArtifacts {
            chrome_json: run_tel.chrome_trace_json(),
            text_summary: format!("{}\n{}", run_tel.text_summary(), flight_dump),
            phase_report: cmp.render(),
            residual_series: series.render(),
            max_abs_residual: cmp.max_abs_residual(),
            max_step_residual: series.max_abs_residual(),
            span_count: run_tel.span_count(),
        }
    }
}

// --- the coupled tours' shared run -------------------------------------

/// Steps of the coupled tours.
const CSTEPS: usize = 4;

/// Coupling interval of the coupled tours' pair, in steps; the resilient
/// tour checkpoints at every coupling boundary.
const COUPLE_EVERY: u64 = 2;

/// The coupled pair of the coupled tours: miniature 2.8125°-style
/// atmosphere over a test ocean, both on the tour's 2×2 decomposition.
fn coupled_pair(rank: usize) -> CoupledModel {
    let d = Decomp::blocks(NX, NY, PX, PY, 3);
    let acfg = ModelConfig::test_atmosphere(NX, NY, d);
    let mut ocfg = ModelConfig::test_ocean(NX, NY, 6, d);
    ocfg.grid = Grid::global(NX, NY, 6, 60.0, stretched_levels(6, 3000.0));
    ocfg.forcing = SurfaceForcing::Coupled;
    CoupledModel::new(Model::new(acfg, rank), Model::new(ocfg, rank), COUPLE_EVERY)
}

/// Build the seeded coupled pair shared by the diag/critpath/resilient
/// tours: `coupled_pair` for this rank with the ocean stratification
/// perturbed by `seed` and the boundary fields re-derived so the coupled
/// state stays self-consistent.
fn seeded_coupled_pair(rank: usize, seed: u64) -> CoupledModel {
    let mut c = coupled_pair(rank);
    let mut rng = SplitMix64::new(seed ^ (rank as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for (i, j, k) in c.ocean.state.theta.clone().interior() {
        c.ocean
            .state
            .theta
            .add(i, j, k, (rng.next_f64() - 0.5) * 0.2);
    }
    c.exchange_boundary_conditions();
    c
}

/// One rank's uninterrupted coupled run.
struct CoupledRun {
    pair: CoupledModel,
    atmos: RunMonitor,
    ocean: RunMonitor,
    /// Per-step CG iteration counts for each isomorph (globally reduced,
    /// so identical on every rank).
    ni_atmos: Vec<u64>,
    ni_ocean: Vec<u64>,
}

/// The per-rank loop of every coupled tour: the seeded pair stepped
/// `tour.coupled_steps` times under a [`TimedWorld`] with both run-health
/// monitors on and the sentinel armed, each step marked in the comm log
/// (a no-op unless the caller installed one). `straggler`, if it names
/// this rank, is charged before every step.
fn run_coupled_steps<W: CommWorld>(
    world: &mut W,
    tour: &TourConfig,
    straggler: Option<Straggler>,
) -> CoupledRun {
    let rank = world.rank();
    let mut pair = seeded_coupled_pair(rank, tour.seed);
    let net = arctic_paper();
    let mut timed = TimedWorld::new(world, &net);
    let mut atmos = RunMonitor::new("atmos");
    let mut ocean = RunMonitor::new("ocean");
    let mut ni_atmos = Vec::with_capacity(tour.coupled_steps);
    let mut ni_ocean = Vec::with_capacity(tour.coupled_steps);
    for s in 0..tour.coupled_steps {
        telemetry::commlog::mark_step(s as u32 + 1);
        if let Some(st) = straggler.filter(|st| st.rank == rank) {
            // The perturbation lands *before* the step's first comm op:
            // compute after a rank's last recorded event is invisible to
            // the critical-path DAG.
            telemetry::charge_flops(telemetry::Phase::Ps, st.extra_flops);
        }
        let (sa, so, healthy) = pair.step_monitored(&mut timed, &mut atmos, &mut ocean);
        assert!(
            healthy,
            "coupled tour tripped the sentinel: {}",
            atmos
                .blowup()
                .or(ocean.blowup())
                .map(|r| r.render())
                .unwrap_or_default()
        );
        ni_atmos.push(sa.cg_iterations as u64);
        ni_ocean.push(so.cg_iterations as u64);
    }
    CoupledRun {
        pair,
        atmos,
        ocean,
        ni_atmos,
        ni_ocean,
    }
}

/// Both isomorphs' per-timestep diagnostics tables, atmosphere first.
fn diag_text(atmos: &RunMonitor, ocean: &RunMonitor) -> String {
    format!(
        "{}\n{}",
        atmos.series().render_text(),
        ocean.series().render_text()
    )
}

// --- the coupled diagnostics tour -------------------------------------

/// Everything the coupled diagnostics tour produces. Every artifact is a
/// pure function of `seed` (pinned byte-identical by
/// `tests/determinism.rs`).
pub struct DiagArtifacts {
    /// Per-timestep diagnostics tables for both isomorphs (MITgcm
    /// monitor style).
    pub text: String,
    /// Machine-readable series.
    pub json: String,
    /// Prometheus gauges for the final state of both series.
    pub prom: String,
    /// Steps monitored per isomorph.
    pub steps: u64,
    /// Sentinel trips across both isomorphs (0 for a healthy run).
    pub sentinel_trips: u64,
    /// CG iterations-per-solve quantiles over every solve of the run
    /// (both isomorphs, from the telemetry histogram).
    pub cg_iters_p50: u64,
    pub cg_iters_p99: u64,
    /// Largest advective CFL seen by either isomorph.
    pub max_cfl: f64,
}

impl TourConfig {
    /// The run-health tour (E18): a 2×2-rank coupled atmosphere–ocean
    /// run under `TimedWorld` with per-step run-health monitoring and the
    /// sentinel armed, in all three diagnostics renderings. Every
    /// diagnostic is reduced through the communicator, so all ranks hold
    /// identical series; rank 0's is *the* global series.
    pub fn run_coupled_diag(&self) -> DiagArtifacts {
        let runs = ThreadWorld::run(NRANKS, |w| {
            telemetry::enable(w.rank());
            let run = run_coupled_steps(w, self, None);
            let tel = telemetry::disable().expect("telemetry was enabled");
            (tel, run.atmos, run.ocean)
        });
        let (tel, atmos, ocean) = &runs[0];

        let json = format!(
            "{{\"diag\":[{},{}]}}",
            atmos.series().render_json(),
            ocean.series().render_json()
        );
        let prom = format!(
            "{}{}",
            atmos.series().render_prom("hyades"),
            ocean.series().render_prom("hyades")
        );
        let (cg_iters_p50, cg_iters_p99) = tel
            .registry
            .hist("gcm.cg", "iterations_per_solve")
            .map(|h| (h.p50(), h.p99()))
            .unwrap_or((0, 0));
        let max_cfl = atmos
            .series()
            .max("cfl_adv")
            .unwrap_or(f64::NAN)
            .max(ocean.series().max("cfl_adv").unwrap_or(f64::NAN));

        DiagArtifacts {
            text: diag_text(atmos, ocean),
            json,
            prom,
            steps: ocean.steps(),
            // Trip decisions come from reduced values, so every rank agrees;
            // rank 0's count is the global count.
            sentinel_trips: atmos.trips() + ocean.trips(),
            cg_iters_p50,
            cg_iters_p99,
            max_cfl,
        }
    }
}

// --- the critical-path tour -------------------------------------------

/// A deliberate per-rank compute perturbation: before each timestep's
/// communication, `rank` is charged `extra_flops` of PS compute, slowing
/// its entry into every exchange and reduction of that step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Straggler {
    pub rank: usize,
    pub extra_flops: u64,
}

/// Everything the critical-path tour produces. Every artifact is a pure
/// function of `(seed, straggler)` (pinned byte-identical by
/// `tests/determinism.rs`).
pub struct CritArtifacts {
    /// The full critical-path report (per-step table, chain, slack,
    /// attribution, wait-vs-wire).
    pub report: String,
    /// Machine-readable summary.
    pub json: String,
    /// Chrome trace with flow events linking matched sends to recvs.
    pub chrome_json: String,
    /// Model-predicted vs observed per-step critical-path residuals.
    pub slack_report: String,
    /// Largest |per-step residual| of the slack series.
    pub max_step_residual: f64,
    /// The straggler the profiler attributes the path to.
    pub blame: Option<(usize, telemetry::Phase)>,
    /// Whole-run critical-path length in microseconds.
    pub total_path_us: f64,
    /// Matched send→recv pairs in the run.
    pub messages: usize,
}

/// What the critical-path tour keeps of one rank's run (the stepped
/// models die with their thread, before the traces are rendered).
struct CritRankRun {
    telemetry: RankTelemetry,
    stamped: Vec<telemetry::commlog::Stamped>,
    ni_atmos: Vec<u64>,
    ni_ocean: Vec<u64>,
    atmos: ModelInputs,
    ocean: ModelInputs,
}

impl TourConfig {
    /// The critical-path tour (E19): the coupled diagnostics run, stamped
    /// and reconstructed into the global event DAG, with the configured
    /// straggler (if any). Returns the byte-stable report/JSON/trace plus
    /// the model-vs-path residuals.
    pub fn run_critpath(&self) -> CritArtifacts {
        let mut runs = ThreadWorld::run(NRANKS, |w| {
            telemetry::enable(w.rank());
            telemetry::commlog::install();
            let run = run_coupled_steps(w, self, self.straggler);
            CritRankRun {
                stamped: telemetry::commlog::take_stamped(),
                telemetry: telemetry::disable().expect("telemetry was enabled"),
                atmos: ModelInputs::of(&run.pair.atmos),
                ocean: ModelInputs::of(&run.pair.ocean),
                ni_atmos: run.ni_atmos,
                ni_ocean: run.ni_ocean,
            }
        });
        let logs: Vec<Vec<telemetry::commlog::Stamped>> = runs
            .iter_mut()
            .map(|r| std::mem::take(&mut r.stamped))
            .collect();

        let net = arctic_paper();
        let wire = |words: usize| net.ptp_time((words * 8) as u64).as_ps();
        let cp = telemetry::critpath::analyze(&logs, &wire)
            .unwrap_or_else(|e| panic!("critpath analysis failed: {e}"));

        // Model-predicted coupled step cost vs the observed per-step path.
        let r0 = &runs[0];
        let ma = model_for(&net, 5, r0.atmos);
        let mo = model_for(&net, 6, r0.ocean);
        let predicted: Vec<f64> = (0..self.coupled_steps)
            .map(|s| {
                crate::perf::slack::predicted_coupled_step(&ma, &mo, r0.ni_atmos[s], r0.ni_ocean[s])
            })
            .collect();
        let observed: Vec<f64> = cp
            .per_step_path_ps()
            .iter()
            .map(|&(_, ps)| ps as f64 * 1e-12)
            .collect();
        let series = crate::perf::slack::critpath_series(&predicted, &observed);

        // Chrome trace with the matched-message flow arrows.
        let mut run_tel = RunTelemetry::from_ranks(runs.drain(..).map(|r| r.telemetry).collect());
        run_tel.set_flows(cp.flows.clone());

        CritArtifacts {
            report: cp.render(),
            json: cp.render_json(),
            chrome_json: run_tel.chrome_trace_json(),
            slack_report: series.render(),
            max_step_residual: series.max_abs_residual(),
            blame: cp.blame(),
            total_path_us: cp.total_path_ps as f64 / 1e6,
            messages: cp.messages,
        }
    }
}

// --- the fault-recovery tour ------------------------------------------

/// Everything the fault-recovery tour (E21) produces. Every artifact is
/// a pure function of the [`TourConfig`] (pinned byte-identical by
/// `tests/determinism.rs`).
pub struct ResilientArtifacts {
    /// Human-readable recovery report: fault plan, rollback/replay
    /// accounting, retransmit counters, clean-vs-faulty DES timings.
    pub report: String,
    /// The machine-readable `recovery` block.
    pub json: String,
    /// Per-timestep diagnostics of the *recovered* run (byte-identical
    /// to an uninterrupted run when `recovered_identical`).
    pub diag_text: String,
    /// Flight-recorder dump of the DES recovery legs (retransmit and
    /// backoff crumbs).
    pub flight_dump: String,
    /// Coupled steps completed.
    pub steps: u64,
    pub checkpoints: u64,
    pub restarts: u64,
    pub replayed_steps: u64,
    /// Total retransmitted legs across the faulty exchange + gsum runs.
    pub retries: u64,
    /// Timeout firings (each armed a capped-exponential backoff wait).
    pub backoff_waits: u64,
    /// Final state and diagnostics series bit-identical to the
    /// uninterrupted reference on every rank.
    pub recovered_identical: bool,
    /// The first planned crash's rank, if the plan had one.
    pub crashed_rank: Option<usize>,
}

struct ResilientRankRun {
    atmos: RunMonitor,
    ocean: RunMonitor,
    stats: hyades_gcm::resilient::RecoveryStats,
    identical: bool,
}

fn run_resilient_rank<W: CommWorld>(world: &mut W, tour: &TourConfig) -> ResilientRankRun {
    let rank = world.rank();
    telemetry::enable(rank);

    // Uninterrupted reference first (same seed, no faults): the identity
    // check below is against this run. Both runs execute the same
    // collective schedule on every rank, so interleaving them through
    // one communicator is safe.
    let clean = run_coupled_steps(world, tour, None);

    // The resilient run under the replicated fault plan.
    let mut c = seeded_coupled_pair(rank, tour.seed);
    let mut atmos = RunMonitor::new("atmos");
    let mut ocean = RunMonitor::new("ocean");
    let mut runner = ResilientRunner::new(&c, tour.fault_plan.clone());
    let net = arctic_paper();
    let healthy = runner.run(
        &mut c,
        &mut TimedWorld::new(world, &net),
        &mut atmos,
        &mut ocean,
        tour.coupled_steps as u64,
    );
    assert!(healthy, "resilient tour tripped the sentinel");

    let identical = clean.pair.atmos.state.theta.raw() == c.atmos.state.theta.raw()
        && clean.pair.atmos.state.u.raw() == c.atmos.state.u.raw()
        && clean.pair.ocean.state.theta.raw() == c.ocean.state.theta.raw()
        && clean.pair.ocean.state.u.raw() == c.ocean.state.u.raw()
        && clean.pair.ocean.state.ps.raw() == c.ocean.state.ps.raw()
        && clean.atmos.series() == atmos.series()
        && clean.ocean.series() == ocean.series();
    telemetry::disable().expect("telemetry was enabled");
    ResilientRankRun {
        atmos,
        ocean,
        stats: runner.stats(),
        identical,
    }
}

impl TourConfig {
    /// The fault-recovery tour (E21): the coupled run under this
    /// config's [`FaultPlan`] — checkpoint/rollback/replay on the
    /// functional 4-rank world, plus DES exchange/gsum legs under the
    /// plan's link faults to exercise the CRC-retransmit protocol — with
    /// a built-in bit-identity check against the uninterrupted run.
    pub fn run_resilient(&self) -> ResilientArtifacts {
        let runs = ThreadWorld::run(NRANKS, |w| run_resilient_rank(w, self));
        let r0 = &runs[0];
        let stats = r0.stats;
        let recovered_identical = runs.iter().all(|r| r.identical);
        let crashed_rank = self
            .fault_plan
            .rank_crashes
            .iter()
            .min_by_key(|cr| (cr.at_step, cr.rank))
            .map(|cr| cr.rank);

        // DES recovery legs: the same microbench shapes as the profiling
        // tour, but under the plan's link faults, with the flight
        // recorder catching the retransmit crumbs.
        flight::install();
        let host = HostParams::default();
        let (leg_bytes, values) = microbench_shapes(self.seed);
        let t_exch = measure_exchange(host, 2, 2, leg_bytes);
        let (t_exch_faulty, ex) = measure_exchange_faulty(host, 2, 2, leg_bytes, &self.fault_plan);
        let g = measure_gsum(host, &values, false);
        let (g_faulty, gs) = measure_gsum_faulty(host, &values, &self.fault_plan);
        let gsum_exact = g_faulty.value == g.value;
        let mut counters = ex;
        counters.merge(&gs);
        let flight_dump = take_flight_dump();

        let report = render_recovery_report(
            self,
            &stats,
            &counters,
            recovered_identical,
            crashed_rank,
            (t_exch.as_us_f64(), t_exch_faulty.as_us_f64()),
            (g.elapsed.as_us_f64(), g_faulty.elapsed.as_us_f64()),
            gsum_exact,
        );
        let json = format!(
            "{{\"checkpoints\": {}, \"restarts\": {}, \"replayed_steps\": {}, \"retries\": {}, \"backoff_waits\": {}, \"recovered_identical\": {}, \"gsum_exact_under_faults\": {}}}",
            stats.checkpoints,
            stats.restarts,
            stats.replayed_steps,
            counters.total_retransmits(),
            counters.timeouts,
            recovered_identical,
            gsum_exact,
        );

        ResilientArtifacts {
            report,
            json,
            diag_text: diag_text(&r0.atmos, &r0.ocean),
            flight_dump,
            steps: r0.ocean.steps(),
            checkpoints: stats.checkpoints,
            restarts: stats.restarts,
            replayed_steps: stats.replayed_steps,
            retries: counters.total_retransmits(),
            backoff_waits: counters.timeouts,
            recovered_identical,
            crashed_rank,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn render_recovery_report(
    tour: &TourConfig,
    stats: &hyades_gcm::resilient::RecoveryStats,
    counters: &RecoveryCounters,
    recovered_identical: bool,
    crashed_rank: Option<usize>,
    exch_us: (f64, f64),
    gsum_us: (f64, f64),
    gsum_exact: bool,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fault-recovery tour: seed {:#x}, {} ranks, {} coupled steps, checkpoint every {}",
        tour.seed, NRANKS, tour.coupled_steps, COUPLE_EVERY
    );
    out.push_str("\n[fault plan]\n");
    out.push_str(&tour.fault_plan.render());
    out.push_str("\n[rollback / replay]\n");
    let _ = writeln!(
        out,
        "  checkpoints = {}, restarts = {}, replayed steps = {}, crashed rank = {}",
        stats.checkpoints,
        stats.restarts,
        stats.replayed_steps,
        crashed_rank.map_or("-".to_string(), |r| r.to_string()),
    );
    let _ = writeln!(
        out,
        "  recovered run bit-identical to uninterrupted run: {recovered_identical}"
    );
    out.push_str("\n[retransmit protocol under link faults]\n");
    let _ = writeln!(
        out,
        "  exchange: clean {:.3} us, faulty {:.3} us",
        exch_us.0, exch_us.1
    );
    let _ = writeln!(
        out,
        "  gsum:     clean {:.3} us, faulty {:.3} us, sum exact: {gsum_exact}",
        gsum_us.0, gsum_us.1
    );
    let _ = writeln!(
        out,
        "  timeouts(backoff waits) = {}, total retransmits = {}",
        counters.timeouts,
        counters.total_retransmits()
    );
    let _ = writeln!(
        out,
        "  req_resends = {}, probes = {}, acks_resent = {}, dones_resent = {}, data_rewinds = {}",
        counters.req_resends,
        counters.probes,
        counters.acks_resent,
        counters.dones_resent,
        counters.data_rewinds
    );
    let _ = writeln!(
        out,
        "  value_resends = {}, retries = {}, corrupt_discarded = {}, stale_ignored = {}",
        counters.value_resends,
        counters.retries,
        counters.corrupt_discarded,
        counters.stale_ignored
    );
    out
}

// --- the unified export surface ---------------------------------------

impl TourArtifacts {
    /// The tour's artifacts behind the unified
    /// [`Exporter`](hyades_telemetry::Exporter) API.
    pub fn exporter(&self) -> Prebuilt {
        Prebuilt::default()
            .with("trace", ArtifactKind::ChromeTrace, self.chrome_json.clone())
            .with("telemetry", ArtifactKind::Text, self.text_summary.clone())
            .with(
                "phase_report",
                ArtifactKind::Text,
                self.phase_report.clone(),
            )
            .with(
                "residual_series",
                ArtifactKind::Text,
                self.residual_series.clone(),
            )
    }
}

impl DiagArtifacts {
    /// `diag.{txt,json,prom}` (combined atmos+ocean documents) behind the
    /// unified exporter API.
    pub fn exporter(&self) -> Prebuilt {
        Prebuilt::default()
            .with("diag", ArtifactKind::Text, self.text.clone())
            .with("diag", ArtifactKind::Json, self.json.clone())
            .with("diag", ArtifactKind::Prom, self.prom.clone())
    }
}

impl CritArtifacts {
    /// Critical-path artifacts behind the unified exporter API. `name`
    /// distinguishes variants of the run (e.g. `"critpath"` vs
    /// `"critpath_straggler"`).
    pub fn exporter(&self, name: &str) -> Prebuilt {
        Prebuilt::new(vec![
            Artifact::new(name, ArtifactKind::Text, self.report.clone()),
            Artifact::new(name, ArtifactKind::Json, self.json.clone()),
            Artifact::new(
                &format!("{name}_trace"),
                ArtifactKind::ChromeTrace,
                self.chrome_json.clone(),
            ),
            Artifact::new(
                &format!("{name}_slack"),
                ArtifactKind::Text,
                self.slack_report.clone(),
            ),
        ])
    }
}

impl ResilientArtifacts {
    /// Recovery artifacts behind the unified exporter API.
    pub fn exporter(&self) -> Prebuilt {
        Prebuilt::default()
            .with("recovery", ArtifactKind::Text, self.report.clone())
            .with("recovery", ArtifactKind::Json, self.json.clone())
            .with("recovery_diag", ArtifactKind::Text, self.diag_text.clone())
            .with(
                "recovery_flight",
                ArtifactKind::Text,
                self.flight_dump.clone(),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tour_produces_all_artifacts() {
        let t = TourConfig::new(7).run_tour();
        assert!(t.span_count > 0);
        // Valid-looking Chrome trace with both timelines present.
        assert!(t.chrome_json.starts_with("{\"traceEvents\":["));
        assert!(t.chrome_json.contains("\"ph\":\"X\""));
        assert!(t.chrome_json.contains("gcm charged timeline"));
        assert!(t.chrome_json.contains("des event timeline"));
        // The summary covers the instrumented components.
        for needle in [
            "[phase totals",
            "comm",
            "gcm.cg",
            "arctic",
            "[flight recorder]",
        ] {
            assert!(t.text_summary.contains(needle), "missing {needle}");
        }
        // The phase report names all four terms and its residuals are
        // finite (the analytical and executable models genuinely agree to
        // within model error, not by construction).
        for needle in ["ps.compute", "ps.comm", "ds.compute", "ds.comm"] {
            assert!(t.phase_report.contains(needle), "missing {needle}");
        }
        assert!(
            t.max_abs_residual.is_finite(),
            "residuals: {}",
            t.phase_report
        );
        assert!(
            t.max_abs_residual < 2.0,
            "model and measurement diverged: {}",
            t.phase_report
        );
    }

    #[test]
    fn tour_is_deterministic_per_seed() {
        let a = TourConfig::new(3).run_tour();
        let b = TourConfig::new(3).run_tour();
        assert_eq!(a.chrome_json, b.chrome_json);
        assert_eq!(a.text_summary, b.text_summary);
        assert_eq!(a.phase_report, b.phase_report);
        assert_eq!(a.residual_series, b.residual_series);
    }

    #[test]
    fn tour_residual_series_has_one_row_per_step() {
        let t = TourConfig::new(7).run_tour();
        assert!(t.residual_series.contains(&format!(
            "per-step model-vs-measured residuals ({STEPS} steps)"
        )));
        assert!(
            t.max_step_residual.is_finite() && t.max_step_residual < 2.0,
            "per-step drift: {}",
            t.residual_series
        );
        // The step series can only refine the end-of-run average, never
        // contradict it wildly.
        assert!(t.max_step_residual >= t.max_abs_residual / 10.0 || t.max_abs_residual < 0.05);
    }

    #[test]
    fn tour_chrome_trace_carries_flow_events() {
        let t = TourConfig::new(7).run_tour();
        assert!(t.chrome_json.contains("\"ph\":\"s\""), "no flow starts");
        assert!(
            t.chrome_json.contains("\"ph\":\"f\",\"bp\":\"e\""),
            "no flow finishes"
        );
    }

    #[test]
    fn critpath_tour_without_straggler_is_balanced() {
        let c = TourConfig::new(7).run_critpath();
        assert!(c.messages > 0);
        assert!(c.total_path_us > 0.0);
        // Identical tiles: no rank should own a grossly dominant share,
        // and the model should predict the path within the residual
        // budget.
        assert!(
            c.max_step_residual.is_finite() && c.max_step_residual < 2.0,
            "path vs model diverged:\n{}",
            c.slack_report
        );
        for needle in [
            "[per-step critical path]",
            "[per-rank slack]",
            "[straggler attribution]",
            "[wait vs wire]",
        ] {
            assert!(c.report.contains(needle), "missing {needle}");
        }
        assert!(c.json.starts_with("{\"critpath\":{"));
        assert!(c.chrome_json.contains("\"ph\":\"s\""));
    }

    #[test]
    fn critpath_tour_blames_the_injected_straggler() {
        let c = TourConfig::new(7)
            .straggler(Straggler {
                rank: 2,
                extra_flops: 50_000_000,
            })
            .run_critpath();
        assert_eq!(
            c.blame,
            Some((2, telemetry::Phase::Ps)),
            "wrong blame; report:\n{}",
            c.report
        );
        // The injected second of compute (50 Mflop at 50 Mflop/s)
        // dominates the whole path.
        assert!(c.total_path_us > 4.0 * 0.9e6, "path {} us", c.total_path_us);
    }

    #[test]
    fn resilient_tour_recovers_bit_identically() {
        let cfg = TourConfig::new(7).fault_plan(TourConfig::demo_fault_plan(7));
        let r = cfg.run_resilient();
        assert_eq!(r.steps, CSTEPS as u64);
        assert_eq!(r.crashed_rank, Some(1));
        assert!(r.restarts >= 1, "planned crash never fired");
        assert!(
            r.recovered_identical,
            "recovered run diverged from the uninterrupted reference:\n{}",
            r.report
        );
        assert!(r.retries > 0, "link faults produced no retransmits");
        assert!(r.backoff_waits > 0 || r.retries > 0);
        assert!(r.report.contains("[fault plan]"), "{}", r.report);
        assert!(r.report.contains("rank-crash"), "{}", r.report);
        assert!(r.report.contains("sum exact: true"), "{}", r.report);
        assert!(r.json.contains("\"recovered_identical\": true"));
        assert!(r.diag_text.contains("# diag series: ocean"));
        // Recovery crumbs made it into the DES flight dump.
        assert!(
            r.flight_dump.contains("exchange.") || r.flight_dump.contains("gsum."),
            "{}",
            r.flight_dump
        );
    }

    #[test]
    fn resilient_tour_without_faults_is_a_plain_run() {
        let r = TourConfig::new(7).run_resilient();
        assert_eq!(r.restarts, 0);
        assert_eq!(r.retries, 0);
        assert_eq!(r.crashed_rank, None);
        assert!(r.recovered_identical);
    }

    #[test]
    fn exporters_bundle_the_tour_artifacts() {
        use hyades_telemetry::Exporter as _;
        let d = TourConfig::new(7).run_coupled_diag();
        let arts = d.exporter().artifacts();
        assert_eq!(arts.len(), 3);
        assert_eq!(arts[0].file_name(), "diag.txt");
        assert_eq!(arts[1].file_name(), "diag.json");
        assert_eq!(arts[2].file_name(), "diag.prom");
        assert_eq!(arts[1].bytes, d.json);
        let c = TourConfig::new(7).run_critpath();
        let names: Vec<String> = c
            .exporter("critpath")
            .artifacts()
            .iter()
            .map(|a| a.file_name())
            .collect();
        assert_eq!(
            names,
            [
                "critpath.txt",
                "critpath.json",
                "critpath_trace.json",
                "critpath_slack.txt"
            ]
        );
    }

    #[test]
    fn coupled_diag_tour_is_healthy_and_complete() {
        let d = TourConfig::new(7).run_coupled_diag();
        assert_eq!(d.steps, CSTEPS as u64);
        assert_eq!(d.sentinel_trips, 0);
        assert!(d.cg_iters_p50 >= 1);
        assert!(d.cg_iters_p99 >= d.cg_iters_p50);
        assert!(
            d.max_cfl > 0.0 && d.max_cfl < 1.0,
            "max_cfl = {}",
            d.max_cfl
        );
        // Both isomorphs' series in every exporter.
        assert!(d.text.contains("# diag series: atmos"));
        assert!(d.text.contains("# diag series: ocean"));
        assert!(d.json.starts_with("{\"diag\":[{\"series\":\"atmos\""));
        assert!(d.json.contains("\"series\":\"ocean\""));
        assert!(d
            .prom
            .contains("hyades_diag_steps{series=\"atmos\"} 4.000000"));
        assert!(d.prom.contains("series=\"ocean\",metric=\"cfl_adv\""));
        for key in ["vol_anom", "ke_u", "cg_iters", "theta_max", "sentinel_trip"] {
            assert!(d.json.contains(&format!("\"{key}\"")), "missing {key}");
        }
    }
}
