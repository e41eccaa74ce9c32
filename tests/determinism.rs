//! Runtime determinism harness: the dynamic counterpart to the
//! hyades-lint static pass (tests/lint_gate.rs).
//!
//! The static rules forbid the *sources* of nondeterminism (wall-clock,
//! unseeded RNG, hash-iteration order); these tests check the *outcome*:
//! run the same simulation twice with the same seed and require
//! bit-identical traces and results — `f64::to_bits` equality, not an
//! epsilon. Any FIFO violation, rank-order reduction shuffle, or
//! iteration-order leak shows up here as a hard failure.

use hyades::arctic::network::{ArcticConfig, ArcticNetwork, SinkEndpoint};
use hyades::arctic::observatory::FlowShare;
use hyades::arctic::packet::{Packet, Priority, UpRoute, MAX_PAYLOAD_WORDS};
use hyades::arctic::workload::{run_traffic, Pattern};
use hyades::comms::exchange::measure_exchange;
use hyades::comms::gsum::measure_gsum;
use hyades::comms::{CommWorld, ThreadWorld};
use hyades::des::rng::SplitMix64;
use hyades::des::sim::Simulator;
use hyades::des::time::SimTime;
use hyades::gcm::decomp::Decomp;
use hyades::gcm::field::Field3;
use hyades::gcm::halo::exchange3;
use hyades::startx::HostParams;
use hyades::tour::TourConfig;

/// One delivery, fully materialized: (sink, time in ps, src, usr_tag,
/// payload words). Comparing vectors of these compares the whole trace.
type DeliveryTrace = Vec<(u16, u64, u16, u16, Vec<u32>)>;

/// Drive a seeded random packet storm through a 16-endpoint Arctic
/// fabric and return the complete delivery trace.
fn arctic_storm_trace(seed: u64) -> DeliveryTrace {
    const N: u16 = 16;
    const PACKETS: usize = 400;

    let mut sim = Simulator::new();
    let eps: Vec<_> = (0..N)
        .map(|_| sim.add_actor(SinkEndpoint::default()))
        .collect();
    let net = ArcticNetwork::build(&mut sim, &eps, ArcticConfig::default());

    let mut rng = SplitMix64::new(seed);
    for tag in 0..PACKETS {
        let src = rng.next_below(N as u64) as u16;
        let mut dst = rng.next_below(N as u64) as u16;
        if dst == src {
            dst = (dst + 1) % N;
        }
        let prio = if rng.next_below(4) == 0 {
            Priority::High
        } else {
            Priority::Low
        };
        let words = 2 + rng.next_below((MAX_PAYLOAD_WORDS - 2) as u64 + 1) as usize;
        let payload: Vec<u32> = (0..words).map(|_| rng.next_u64() as u32).collect();
        let at = SimTime::from_us_f64(rng.next_f64() * 50.0);
        net.inject_at(
            &mut sim,
            at,
            Packet::new(src, dst, prio, (tag % 2048) as u16, payload),
        );
    }
    sim.run();

    let mut trace = DeliveryTrace::new();
    for e in 0..N {
        let sink = sim.actor::<SinkEndpoint>(net.endpoint(e));
        assert_eq!(sink.corrupted, 0, "fault-free fabric corrupted a packet");
        for (at, pkt) in &sink.deliveries {
            trace.push((
                e,
                at.since(SimTime::ZERO).as_ps(),
                pkt.src,
                pkt.usr_tag,
                pkt.payload.clone(),
            ));
        }
    }
    trace
}

#[test]
fn arctic_fabric_trace_is_bit_identical_across_runs() {
    let a = arctic_storm_trace(0xA5C1_1C5A);
    let b = arctic_storm_trace(0xA5C1_1C5A);
    assert!(!a.is_empty(), "storm delivered nothing");
    assert_eq!(a, b, "same seed must reproduce the exact delivery trace");

    // And a different seed must not: otherwise the trace comparison
    // above is vacuous (e.g. the seed being ignored entirely).
    let c = arctic_storm_trace(0x0DD5_EED5);
    assert_ne!(a, c, "different seed produced an identical trace");
}

#[test]
fn arctic_traffic_stats_are_bit_identical_across_runs() {
    let run = || run_traffic(16, Pattern::UniformRandom, UpRoute::Random, 0.6, 200.0, 42);
    let (a, b) = (run(), run());
    assert!(a.packets_delivered > 0);
    assert_eq!(a.packets_delivered, b.packets_delivered);
    assert_eq!(
        a.delivered_mbyte_per_sec.to_bits(),
        b.delivered_mbyte_per_sec.to_bits(),
        "delivered bandwidth must be bit-identical"
    );
    assert_eq!(a.latency.mean().to_bits(), b.latency.mean().to_bits());
    assert_eq!(a.latency.max().to_bits(), b.latency.max().to_bits());
    assert_eq!(a.latency.stddev().to_bits(), b.latency.stddev().to_bits());
}

/// Values captured at the commit before the `des`/`arctic` hot path was
/// rewritten (PR 12). The tests above compare a run with itself; this one
/// compares it with that commit, so a change that perturbs event order —
/// and with it any simulated statistic — fails here, not only in `hbench`.
#[test]
fn fabric_and_comms_results_match_the_pinned_golden_values() {
    // (pattern, load) -> (delivered, events dispatched, stage crossings,
    // mean latency bits), 16 endpoints, 400 us window, seed 1999.
    let golden = [
        (
            Pattern::BitReverse,
            0.8,
            4486,
            221_917,
            80_067,
            0x4068_6f8b_f85c_b5c9_u64,
        ),
        (
            Pattern::UniformRandom,
            0.5,
            5005,
            140_978,
            53_442,
            0x3fff_6f29_125c_6297,
        ),
        (
            Pattern::NearestNeighbor,
            0.9,
            9010,
            160_158,
            49_566,
            0x3ff1_ed6c_528f_ede5,
        ),
    ];
    for (pattern, load, delivered, events, crossings, latency_bits) in golden {
        let r = run_traffic(16, pattern, UpRoute::SourceSpread, load, 400.0, 1999);
        assert_eq!(r.packets_delivered, delivered, "{pattern:?} delivered");
        assert_eq!(r.events_dispatched, events, "{pattern:?} events");
        assert_eq!(r.stage_crossings, crossings, "{pattern:?} crossings");
        let mean_bits = r.latency.mean().to_bits();
        assert_eq!(mean_bits, latency_bits, "{pattern:?} latency");
    }

    let host = HostParams::default();
    assert_eq!(measure_exchange(host, 4, 4, 4096).as_ps(), 412_480_004);
    let operands: Vec<f64> = (0..16).map(|i| (f64::from(i) - 7.5) / 16.0).collect();
    let g = measure_gsum(host, &operands, false);
    assert_eq!(g.elapsed.as_ps(), 16_626_668);
    assert_eq!(g.value.to_bits(), 0.0f64.to_bits());
}

/// FNV-1a over the bit patterns of a model's `(u, v, w, θ, s, ps)`
/// storage, halo included.
fn model_state_digest(mut hash: u64, m: &hyades::gcm::driver::Model) -> u64 {
    let st = &m.state;
    let fields = [&st.u, &st.v, &st.w, &st.theta, &st.s];
    for word in fields
        .iter()
        .flat_map(|f| f.raw())
        .chain(st.ps.raw())
        .map(|v| v.to_bits())
    {
        hash = (hash ^ word).wrapping_mul(FNV_PRIME);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// The final state and the solver's iteration count of three short runs,
/// compared with pinned values and not only with themselves: a change to
/// the DS path that promises the same bits has to reproduce them. Pinned
/// when the tile-local MIC(0) preconditioner replaced point Jacobi
/// (PR 16; until then, since PR 12, the counts were 681 / 565 / 108).
#[test]
fn gcm_results_match_the_pinned_golden_values() {
    use hyades::comms::SerialWorld;
    use hyades::gcm::config::{ModelConfig, SurfaceForcing};
    use hyades::gcm::driver::Model;

    // (a) 16x8 coupled pair (ocean with continents), 8 steps, serial.
    let mut pair = hyades::scenario::small_coupled_scenario(16, 8, 4);
    pair.atmos.cfg.cg_max_iters = 1000;
    pair.ocean.cfg.cg_max_iters = 1000;
    let (mut wa, mut wo) = (SerialWorld, SerialWorld);
    let mut iters = 0;
    for _ in 0..8 {
        let (sa, so) = pair.step(&mut wa, &mut wo);
        assert!(sa.cg_converged && so.cg_converged);
        iters += sa.cg_iterations + so.cg_iterations;
    }
    let digest = model_state_digest(model_state_digest(FNV_OFFSET, &pair.atmos), &pair.ocean);
    assert_eq!(
        (digest, iters),
        (0x1d3f_1c76_9690_4566, 317),
        "coupled 16x8"
    );

    // (b), (c) 32x16x4 forced ocean with continents on a 2x2 ThreadWorld,
    // 5 steps: rigid lid, then free surface. Per rank: (digest, iterations).
    let threaded = |free_surface: bool| {
        let d = Decomp::blocks(32, 16, 2, 2, 3);
        ThreadWorld::run(d.n_ranks(), move |w| {
            let mut cfg = ModelConfig::test_ocean(32, 16, 4, d);
            cfg.continents = true;
            cfg.forcing = SurfaceForcing::Climatology;
            cfg.free_surface = free_surface;
            let mut m = Model::new(cfg, w.rank());
            let mut iters = 0;
            for _ in 0..5 {
                let s = m.step(w);
                assert!(s.cg_converged);
                iters += s.cg_iterations;
            }
            (model_state_digest(FNV_OFFSET, &m), iters)
        })
    };
    let rigid_lid = [
        (0x4a16_9642_7640_9ea4, 218),
        (0xe3bc_8822_52cb_f460, 218),
        (0xa270_0594_0893_c8f1, 218),
        (0x599b_f28d_f8ef_6aa7, 218),
    ];
    assert_eq!(threaded(false), rigid_lid, "rigid lid 32x16x4 on 2x2");
    let free_surface = [
        (0xda31_7884_3fd0_e249, 60),
        (0x2d90_a05b_9fee_b6d6, 60),
        (0x0484_d5f5_d118_0350, 60),
        (0xc8ff_8128_84d5_2e34, 60),
    ];
    assert_eq!(threaded(true), free_surface, "free surface 32x16x4 on 2x2");
}

/// The `coupled_serial` configuration — the 64×32 coupled pair, both CG
/// caps at 1 000, 64 steps on `SerialWorld` — at the scenario's default
/// seeds (the benchmark seeds its pair differently): final state digest
/// of both models and the total CG iterations.
#[test]
#[ignore = "about a quarter second in release; scripts/check.sh runs it"]
fn coupled_64x32_matches_the_pinned_golden_values() {
    use hyades::comms::SerialWorld;

    let mut pair = hyades::scenario::small_coupled_scenario(64, 32, 4);
    pair.atmos.cfg.cg_max_iters = 1000;
    pair.ocean.cfg.cg_max_iters = 1000;
    let (mut wa, mut wo) = (SerialWorld, SerialWorld);
    let mut iters = 0;
    for _ in 0..64 {
        let (sa, so) = pair.step(&mut wa, &mut wo);
        assert!(sa.cg_converged && so.cg_converged);
        iters += sa.cg_iterations + so.cg_iterations;
    }
    let digest = model_state_digest(model_state_digest(FNV_OFFSET, &pair.atmos), &pair.ocean);
    assert_eq!(
        (digest, iters),
        (0x7df7_8922_e6d0_8a12, 6054),
        "coupled 64x32"
    );
}

/// The 1° ocean (360×160×15 with continents and shelves) on one tile,
/// two steps: the grids pinned above are small enough to run their
/// kernels whole, this tile runs each one as two row bands. Final state
/// digest and each step's CG iterations.
#[test]
#[ignore = "about half a second in release; scripts/check.sh runs it"]
fn ocean_1deg_matches_the_pinned_golden_values() {
    use hyades::comms::SerialWorld;
    use hyades::gcm::config::ModelConfig;
    use hyades::gcm::driver::Model;

    let cfg = ModelConfig::ocean_1deg(Decomp::blocks(360, 160, 1, 1, 3));
    let mut m = Model::new(cfg, 0);
    let mut world = SerialWorld;
    let iters = [(); 2].map(|_| {
        let s = m.step(&mut world);
        assert!(s.cg_converged);
        s.cg_iterations
    });
    assert_eq!(
        (model_state_digest(FNV_OFFSET, &m), iters),
        (0x4173_c816_cad8_234a, [216, 124]),
        "ocean 1 degree"
    );
}

/// Per-rank digest of a threaded halo-exchange + global-sum round:
/// (global sum bits, FNV-1a over every halo cell's bit pattern).
fn threaded_round(seed: u64) -> Vec<(u64, u64)> {
    let (nx, ny, nz, h) = (16usize, 8usize, 3usize, 2usize);
    let d = Decomp::blocks(nx, ny, 2, 2, h);
    ThreadWorld::run(d.n_ranks(), move |w| {
        let t = d.tile(w.rank());
        let mut rng = SplitMix64::new(seed ^ (w.rank() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut field = Field3::new(t.nx, t.ny, nz, h);
        for k in 0..nz {
            for j in 0..t.ny as i64 {
                for i in 0..t.nx as i64 {
                    field.set(i, j, k, rng.next_f64() - 0.5);
                }
            }
        }
        exchange3(w, &d, &t, &mut [&mut field], h);

        // Local sum over the interior, then the rank-ordered reduction.
        let mut local = 0.0f64;
        for k in 0..nz {
            for j in 0..t.ny as i64 {
                for i in 0..t.nx as i64 {
                    local += field.at(i, j, k);
                }
            }
        }
        let total = w.global_sum(local);

        // Hash the full halo ring (bit patterns, order fixed by the
        // loop): catches any exchange nondeterminism that cancels in a
        // sum.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for k in 0..nz {
            for j in -(h as i64)..(t.ny as i64 + h as i64) {
                for i in -(h as i64)..(t.nx as i64 + h as i64) {
                    hash ^= field.at(i, j, k).to_bits();
                    hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
        }
        (total.to_bits(), hash)
    })
}

#[test]
fn threaded_exchange_and_gsum_are_bit_identical_across_runs() {
    let a = threaded_round(7);
    let b = threaded_round(7);
    assert_eq!(a.len(), 4);
    assert_eq!(a, b, "threaded exchange+gsum must replay bit-identically");

    // All ranks must agree on the reduction result within one run.
    let first = a[0].0;
    assert!(
        a.iter().all(|&(g, _)| g == first),
        "ranks disagree on global sum"
    );

    let c = threaded_round(8);
    assert_ne!(a, c, "different seed produced identical results");
}

#[test]
fn telemetry_exports_are_bit_identical_across_runs() {
    // The flight-recorder golden test: a full instrumented tour (GCM
    // fan-out under TimedWorld, DES microbench, both exporters) must
    // replay byte-for-byte with the same seed. Telemetry records charged
    // SimTime, f64 stats, and histogram buckets — any wall-clock leak,
    // hash-iteration order, or rank-merge shuffle in the recorder stack
    // shows up as a diff here.
    let a = TourConfig::new(0x7E1E_7E1E).run_tour();
    let b = TourConfig::new(0x7E1E_7E1E).run_tour();
    assert!(a.span_count > 0, "tour recorded nothing");
    assert_eq!(
        a.chrome_json, b.chrome_json,
        "chrome trace must replay byte-identically"
    );
    assert_eq!(
        a.text_summary, b.text_summary,
        "text summary must replay byte-identically"
    );
    assert_eq!(a.phase_report, b.phase_report);

    // A different seed must move the artifacts, or the comparison above
    // is vacuous: the seed perturbs both the physics (solver residuals)
    // and the microbench shapes (exchange leg bytes).
    let c = TourConfig::new(0x5EED_0001).run_tour();
    assert_ne!(a.chrome_json, c.chrome_json);
    assert_ne!(a.text_summary, c.text_summary);
}

/// Record the comm log of a threaded GCM round (halo exchange + global
/// sum) and replay it through the vector-clock happens-before checker.
fn hb_replay_report(seed: u64) -> String {
    use hyades_telemetry::commlog;

    let (nx, ny, nz, h) = (16usize, 8usize, 3usize, 2usize);
    let d = Decomp::blocks(nx, ny, 2, 2, h);
    let logs = ThreadWorld::run(d.n_ranks(), move |w| {
        commlog::install();
        let t = d.tile(w.rank());
        let mut rng = SplitMix64::new(seed ^ (w.rank() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut field = Field3::new(t.nx, t.ny, nz, h);
        for k in 0..nz {
            for j in 0..t.ny as i64 {
                for i in 0..t.nx as i64 {
                    field.set(i, j, k, rng.next_f64() - 0.5);
                }
            }
        }
        exchange3(w, &d, &t, &mut [&mut field], h);
        let _ = w.global_sum(field.at(0, 0, 0));
        commlog::take()
    });
    let report = hyades_telemetry::matcher::check(&logs).expect("ordering bug in threaded round");
    report.render()
}

#[test]
fn happens_before_replay_is_ordered_and_byte_identical() {
    // Every matched send/recv pair of a real GCM communication round must
    // carry a strict happens-before edge, and the checker's report — a
    // deterministic replay of the logs — must itself be byte-identical
    // across runs.
    let a = hb_replay_report(7);
    let b = hb_replay_report(7);
    assert_eq!(a, b, "hb report must replay byte-identically");
    assert!(a.contains("0 unordered pair(s)"), "unordered pairs:\n{a}");
    assert!(!a.contains("0 messages"), "no exchange traffic was logged");
}

/// A fabric report as comparable values, each `f64` by its bits: ticks,
/// (corrupted, dropped), per link (entity, [util, occ, packets]) and per
/// hotspot (entity, [occ p99, util, stall], flows).
type ReportBits = (
    u64,
    (u64, u64),
    Vec<(String, [u64; 3])>,
    Vec<(String, [u64; 3], Vec<FlowShare>)>,
);

/// One observed congested run's report, field by field.
fn observatory_report(seed: u64) -> ReportBits {
    use hyades::arctic::observatory::ObservatoryConfig;
    use hyades::arctic::workload::run_traffic_observed;

    let (_, report) = run_traffic_observed(
        16,
        Pattern::BitReverse,
        UpRoute::SourceSpread,
        0.8,
        200.0,
        seed,
        ObservatoryConfig::new(5.0, 400.0),
    );
    assert!(
        !report.hotspots.is_empty(),
        "congested run showed no hotspot"
    );
    let links = report.links.iter().map(|l| {
        let row = [l.util_mean.to_bits(), l.occ_mean.to_bits(), l.packets];
        (l.entity.clone(), row)
    });
    let hotspots = report.hotspots.iter().map(|h| {
        let row = [h.occ_p99, h.util_mean, h.stall_us].map(f64::to_bits);
        (h.entity.clone(), row, h.flows.clone())
    });
    (
        report.ticks,
        (report.faults_corrupted, report.faults_dropped),
        links.collect(),
        hotspots.collect(),
    )
}

#[test]
fn observatory_exports_are_bit_identical_across_runs() {
    // The fabric-observatory golden test: per-link sampled utilization
    // and occupancy, stall accounting and hotspot flow attribution must
    // replay bit for bit. The sampler stores f64 series and the hotspot
    // detector sorts by p99 — any total_cmp slip or map-order leak
    // diffs here.
    let a = observatory_report(0xFAB_0B5);
    assert_eq!(a, observatory_report(0xFAB_0B5), "report must replay");

    // A different seed must move the samples, or the equality is vacuous.
    assert_ne!(a, observatory_report(0xFAB_0B6));
}

#[test]
fn coupled_diag_exports_are_bit_identical_across_runs() {
    // The run-health observatory's golden test: the per-timestep
    // diagnostics of the monitored coupled run — budgets, CFL
    // indicators, per-field extremes with blame coordinates, CG traces —
    // are built entirely from rank-ordered reductions, so all three
    // exporters must replay byte-for-byte.
    let a = TourConfig::new(0xD1A6).run_coupled_diag();
    let b = TourConfig::new(0xD1A6).run_coupled_diag();
    assert_eq!(a.text, b.text, "diag text must replay byte-identically");
    assert_eq!(a.json, b.json, "diag json must replay byte-identically");
    assert_eq!(a.prom, b.prom, "diag prom must replay byte-identically");
    assert_eq!(a.sentinel_trips, 0, "healthy run tripped the sentinel");
    assert!(a.steps > 0);

    // A different seed perturbs the ocean initial state, which must move
    // the recorded extremes — otherwise the equality above is vacuous.
    let c = TourConfig::new(0x0CEA).run_coupled_diag();
    assert_ne!(a.text, c.text);
    assert_ne!(a.json, c.json);
}

#[test]
fn threaded_blowup_sentinel_blames_the_poisoned_cell() {
    use hyades::gcm::config::ModelConfig;
    use hyades::gcm::driver::Model;
    use hyades::gcm::{BlowupKind, RunMonitor};

    // Poison one theta cell on one rank of a 2×2 decomposition; every
    // rank's sentinel must agree (the blame key is reduced) and name the
    // owning rank, level, and global cell.
    const POISONED_RANK: usize = 2;
    let d = Decomp::blocks(16, 8, 2, 2, 3);
    let reports = ThreadWorld::run(d.n_ranks(), move |w| {
        let mut m = Model::new(ModelConfig::test_ocean(16, 8, 4, d), w.rank());
        let mut mon = RunMonitor::new("ocean");
        let stats = m.step(w);
        assert!(mon.observe(w, &m, &stats), "healthy step tripped");
        let stats = m.step(w);
        if w.rank() == POISONED_RANK {
            m.state.theta.set(2, 1, 1, f64::NAN);
        }
        let healthy = mon.observe(w, &m, &stats);
        assert!(!healthy, "sentinel missed the NaN");
        let r = mon.blowup().expect("tripped sentinel left no report");
        (r.kind, r.field, r.rank, r.level, r.gi, r.gj, r.step)
    });
    let t = d.tile(POISONED_RANK);
    let expected = (
        BlowupKind::NonFinite,
        "theta",
        POISONED_RANK,
        1usize,
        t.gx(2),
        t.gy(1),
        2u64,
    );
    for (rank, r) in reports.iter().enumerate() {
        assert_eq!(*r, expected, "rank {rank} disagrees on the blame");
    }
}

#[test]
fn critpath_blames_the_injected_straggler_byte_identically() {
    use hyades::tour::Straggler;
    use hyades_telemetry::Phase;

    // The critical-path profiler's golden test: delay one rank of the
    // 4-rank coupled run by a second of PS compute per step, and the
    // reconstructed global DAG must (a) blame exactly that (rank, phase)
    // and (b) replay byte-for-byte — report, JSON, and Chrome flow trace
    // alike. The path walk breaks ties by rank and the tables sort on
    // integer picoseconds, so any map-order leak or float-format drift
    // in the analyzer diffs here.
    let straggler = Straggler {
        rank: 2,
        extra_flops: 50_000_000,
    };
    let a = TourConfig::new(0xC817).straggler(straggler).run_critpath();
    let b = TourConfig::new(0xC817).straggler(straggler).run_critpath();
    assert_eq!(
        a.report, b.report,
        "critpath report must replay byte-identically"
    );
    assert_eq!(a.json, b.json, "critpath json must replay byte-identically");
    assert_eq!(
        a.chrome_json, b.chrome_json,
        "flow trace must replay byte-identically"
    );
    assert_eq!(
        a.blame,
        Some((straggler.rank, Phase::Ps)),
        "misattributed straggler:\n{}",
        a.report
    );

    // The balanced run must also replay byte-for-byte, and must not
    // blame the straggler's rank — otherwise the attribution above is
    // vacuous (e.g. rank 2 always winning a tiebreak).
    let base_a = TourConfig::new(0xC817).run_critpath();
    let base_b = TourConfig::new(0xC817).run_critpath();
    assert_eq!(base_a.report, base_b.report);
    assert_eq!(base_a.json, base_b.json);
    assert_ne!(
        base_a.blame.map(|(r, _)| r),
        Some(straggler.rank),
        "balanced run already blames the straggler rank"
    );
}

#[test]
fn recovery_exports_are_bit_identical_across_runs() {
    // The fault-recovery tour's golden test: even a run that crashes a
    // rank, rolls back, replays, and retransmits through a lossy link
    // window must export byte-for-byte — the fault plan is seeded, the
    // backoff schedule is deterministic, and recovery is charged to
    // simulated time. The flight-recorder dump pins the retransmit crumb
    // stream.
    let run = || {
        TourConfig::new(0xFA_017)
            .fault_plan(TourConfig::demo_fault_plan(0xFA_017))
            .run_resilient()
    };
    let (a, b) = (run(), run());
    assert!(a.restarts > 0, "planned crash never fired");
    assert!(a.recovered_identical, "recovery broke bit-identity");
    assert_eq!(
        a.report, b.report,
        "recovery report must replay byte-identically"
    );
    assert_eq!(a.json, b.json, "recovery json must replay byte-identically");
    assert_eq!(
        a.diag_text, b.diag_text,
        "recovered diag must replay byte-identically"
    );
    assert_eq!(
        a.flight_dump, b.flight_dump,
        "recovery flight dump must replay byte-identically"
    );

    // A different seed moves both the physics and the fault windows, so
    // the artifacts must move too — otherwise the equality is vacuous.
    let c = TourConfig::new(0xFA_018)
        .fault_plan(TourConfig::demo_fault_plan(0xFA_018))
        .run_resilient();
    assert_ne!(a.report, c.report);
    assert_ne!(a.diag_text, c.diag_text);
}

/// FNV-1a over bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// The tour bundle against a pinned digest: FNV-1a over every artifact's
/// file name and bytes of seed 7's four tours, the bundle `examples/tour`
/// writes. The comparisons above only replay a run against itself; this
/// pins the sentinel thresholds, the recorder's rates, the flight ring,
/// the checkpoint cadence and the retransmit backoff by their output.
#[test]
fn tour_bundle_matches_the_pinned_digest() {
    use hyades::telemetry::Exporter;
    use hyades::tour::Straggler;
    let cfg = TourConfig::new(7);
    let straggler = Straggler {
        rank: 2,
        extra_flops: 50_000_000,
    };
    let bundle = cfg
        .run_tour()
        .exporter()
        .extend_from(&cfg.run_coupled_diag().exporter())
        .extend_from(&cfg.run_critpath().exporter("critpath"))
        .extend_from(
            &cfg.clone()
                .straggler(straggler)
                .run_critpath()
                .exporter("critpath_straggler"),
        )
        .extend_from(
            &cfg.clone()
                .fault_plan(TourConfig::demo_fault_plan(7))
                .run_resilient()
                .exporter(),
        );
    let artifacts = bundle.artifacts();
    assert_eq!(artifacts.len(), 19);
    let digest = artifacts.iter().fold(FNV_OFFSET, |hash, a| {
        let name = a.file_name();
        name.bytes()
            .chain(a.bytes.bytes())
            .fold(hash, |h, b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
    });
    assert_eq!(
        digest, 0xeaad_443a_8ba5_8a91,
        "tour bundle digest {digest:#018x}"
    );
}

/// The figures' point data against pinned digests: the bytes of the CSV
/// files plotted before the builders moved beside the experiments they
/// print (PR 21), so a plot made from an old file and one made from
/// `reproduce_all --out` show the same points.
#[test]
fn figure_csv_artifacts_match_the_pinned_digests() {
    let digests: Vec<(&str, u64)> = hyades::experiments::all()
        .iter()
        .filter_map(|e| e.csv.map(|csv| (e.id, fnv1a(csv().as_bytes()))))
        .collect();
    let pinned = [
        ("E1", 0x91b3_72a2_fa04_dcc0_u64),
        ("E2", 0x16de_ef62_8cdc_2d16),
        ("E3", 0xc8aa_9dba_5941_38a6),
        ("E7", 0x4624_aad1_e4c4_8b78),
        ("E12", 0x2452_4453_a1a9_5e73),
    ];
    assert_eq!(digests, pinned);
}

/// E15's report against a pinned digest: two observed 16-endpoint Arctic
/// runs (hotspots, their flows and stall totals) and the sampled Ethernet
/// hammer. Sampling ticks are DES events, so a change to what the
/// observatory samples, or to whom it sends ticks, must leave these bytes
/// alone.
#[test]
fn e15_observatory_report_matches_the_pinned_digest() {
    let report = hyades::experiments::observatory::run();
    let digest = fnv1a(report.as_bytes());
    assert_eq!(
        digest, 0xbd89_0517_d83b_f476,
        "E15 report digest {digest:#018x}:\n{report}"
    );
}

/// Every experiment but E12, whose twenty 400 us traffic runs take 16 s in
/// a debug build: its replay is `arctic_traffic_stats_are_bit_identical_
/// across_runs` and its bytes are pinned above.
#[test]
fn experiment_bundle_is_byte_identical_across_runs() {
    use hyades::telemetry::Exporter;
    let all = hyades::experiments::all();
    let ids: Vec<&str> = all.iter().map(|e| e.id).filter(|&id| id != "E12").collect();
    let a = hyades::experiments::bundle(&ids).artifacts();
    let b = hyades::experiments::bundle(&ids).artifacts();
    assert_eq!(a, b, "the experiment bundle must replay byte-identically");
    // One report an experiment and four with point data, no name twice.
    let mut names: Vec<String> = a.iter().map(|x| x.file_name()).collect();
    assert_eq!(names.len(), 18 + 4);
    names.sort();
    names.dedup();
    assert_eq!(names.len(), 18 + 4, "artifact file names must be unique");
}
