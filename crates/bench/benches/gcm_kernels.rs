//! Microbenchmarks of the numerical kernels: the real (wall-clock)
//! throughput of the PS tendency evaluation, the DS solver, the halo
//! exchange machinery, and the DES engine itself.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hyades_bench::setup::tile_model;
use hyades_comms::SerialWorld;
use hyades_des::{Actor, Ctx, SimDuration, SimTime, Simulator};
use hyades_gcm::halo;
use hyades_gcm::kernel::{gterms, Workspace};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("gcm_kernels");
    g.sample_size(25);

    // PS tendencies on a 32×32×5 tile (5120 cells, the paper's per-
    // endpoint atmosphere tile).
    {
        let m = tile_model();
        let mut ws = Workspace::new(&m.cfg, &m.tile);
        g.throughput(Throughput::Elements(5120));
        g.bench_function("momentum_tendencies_32x32x5", |b| {
            b.iter(|| {
                gterms::momentum_tendencies(
                    &m.cfg, &m.tile, &m.geom, &m.masks, &m.state, &mut ws, 1,
                )
            });
        });
        let theta = m.state.theta.clone();
        g.bench_function("tracer_tendency_32x32x5", |b| {
            b.iter(|| {
                gterms::tracer_tendency(
                    &m.cfg, &m.tile, &m.geom, &m.masks, &m.state, &theta, &mut ws.gt, 1e3, 1e-5, 0,
                )
            });
        });
    }

    // Full step (PS + DS with the CG solve).
    g.bench_function("full_step_32x32x5", |b| {
        let mut m = tile_model();
        let mut w = SerialWorld;
        b.iter(|| m.step(&mut w));
    });

    // Halo exchange pack/unpack through the serial world (pure memory
    // path, no threads).
    {
        let mut m = tile_model();
        let mut w = SerialWorld;
        let d = m.cfg.decomp;
        g.bench_function("halo_exchange_5fields_w3", |b| {
            b.iter(|| {
                let st = &mut m.state;
                halo::exchange3(
                    &mut w,
                    &d,
                    &m.tile,
                    &mut [&mut st.u, &mut st.v, &mut st.w, &mut st.theta, &mut st.s],
                    3,
                );
            });
        });
    }

    // Solver variants: rigid lid vs free surface vs non-hydrostatic, one
    // full step each (the per-step price of the configuration options).
    {
        use hyades_gcm::config::ModelConfig;
        use hyades_gcm::decomp::Decomp;
        use hyades_gcm::driver::Model;
        let build = |free: bool, nh: bool| {
            let d = Decomp::blocks(32, 32, 1, 1, 3);
            let mut cfg = ModelConfig::test_ocean(32, 32, 5, d);
            cfg.free_surface = free;
            cfg.nonhydrostatic = nh;
            Model::new(cfg, 0)
        };
        for (name, free, nh) in [
            ("rigid_lid", false, false),
            ("free_surface", true, false),
            ("nonhydrostatic", false, true),
        ] {
            g.bench_function(format!("step_variant_{name}"), |b| {
                let mut m = build(free, nh);
                let mut w = SerialWorld;
                b.iter(|| m.step(&mut w));
            });
        }
    }

    // The DS hot path on the coupled benchmark's ocean tile (64×32×15,
    // continents): the solver's own exchange — two 2-D fields, width 1 —
    // and a cold solve of a fixed right-hand side, rated in wet-column
    // iterations.
    {
        use hyades_gcm::config::ModelConfig;
        use hyades_gcm::decomp::Decomp;
        use hyades_gcm::driver::Model;
        use hyades_gcm::field::Field2;
        use hyades_gcm::solver::{CgSolver, EllipticCoeffs};
        let d = Decomp::blocks(64, 32, 1, 1, 3);
        let mut cfg = ModelConfig::test_ocean(64, 32, 15, d);
        cfg.continents = true;
        cfg.cg_max_iters = 1000;
        let m = Model::new(cfg, 0);
        let mut w = SerialWorld;

        let mut p = Field2::new(64, 32, 3);
        let mut r = Field2::new(64, 32, 3);
        g.throughput(Throughput::Elements(2 * 64 * 32));
        g.bench_function("halo_exchange_2fields_w1", |b| {
            b.iter(|| halo::exchange2(&mut w, &d, &m.tile, &mut [&mut p, &mut r], 1));
        });

        let coeffs = EllipticCoeffs::build(&m.cfg, &m.tile, &m.geom, &m.masks);
        let mut rhs = Field2::new(64, 32, 3);
        for (i, j) in rhs.clone().interior() {
            if m.masks.depth.at(i, j) > 0.0 {
                rhs.set(i, j, (((i * 13 + j * 7) % 19) as f64 - 9.0) * 1e4);
            }
        }
        let mut solver = CgSolver::new(&m.tile);
        let mut x = Field2::new(64, 32, 3);
        let mut solve = |x: &mut Field2| {
            x.fill(0.0);
            solver.solve(
                &mut w, &m.cfg, &d, &m.tile, &m.geom, &coeffs, &m.masks, &rhs, x,
            )
        };
        let first = solve(&mut x);
        assert!(first.converged, "bench solve did not converge: {first:?}");
        g.throughput(Throughput::Elements(
            first.iterations as u64 * m.masks.wet_columns(),
        ));
        g.bench_function("cg_solve_64x32x15", |b| b.iter(|| solve(&mut x)));
    }

    // DES engine: raw event dispatch throughput.
    {
        struct Relay {
            left: u64,
        }
        impl Actor for Relay {
            fn on_event(&mut self, _ev: Box<dyn std::any::Any>, ctx: &mut Ctx<'_>) {
                if self.left > 0 {
                    self.left -= 1;
                    ctx.wake_after(SimDuration::from_ns(1), ());
                }
            }
        }
        g.throughput(Throughput::Elements(10_000));
        g.bench_function("des_dispatch_10k_events", |b| {
            b.iter(|| {
                let mut sim = Simulator::new();
                let id = sim.add_actor(Relay { left: 10_000 });
                sim.schedule(SimTime::ZERO, id, ());
                sim.run();
                sim.events_dispatched()
            });
        });
    }

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
