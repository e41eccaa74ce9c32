//! Fault-recovery integration harness: the checkpoint/restart contract
//! the examples demonstrate, the rank-crash rollback path end to end,
//! and the running retransmit protocols under seeded fault plans.
//!
//! The paper's §6 workflow — "a century ... within a two week period" —
//! only holds if a mid-run fault costs a checkpoint interval, not the
//! run. These tests pin the layers of that claim: bit-exact resume from
//! a checkpoint file, bit-exact recovery from a planned rank crash under
//! link faults, and a sweep of the retransmit protocols over seeded
//! fault plans, its times and counters pinned by a digest. The proof
//! that the recovery message legs cannot deadlock is
//! `comms::schedule`'s own (its `verify` tests).

use hyades::comms::exchange::{measure_exchange, measure_exchange_faulty};
use hyades::comms::gsum::{measure_gsum, measure_gsum_faulty};
use hyades::comms::{RecoveryCounters, SerialWorld};
use hyades::fault::FaultPlan;
use hyades::gcm::checkpoint::{load_file, save_file};
use hyades::gcm::config::{ModelConfig, SurfaceForcing};
use hyades::gcm::decomp::Decomp;
use hyades::gcm::driver::Model;
use hyades::startx::HostParams;
use hyades::tour::TourConfig;

fn build_model() -> Model {
    let d = Decomp::blocks(32, 16, 1, 1, 3);
    let mut cfg = ModelConfig::test_ocean(32, 16, 6, d);
    cfg.forcing = SurfaceForcing::Climatology;
    Model::new(cfg, 0)
}

#[test]
fn checkpoint_restart_resumes_bit_exactly() {
    // The examples/checkpoint_restart.rs contract, pinned as a tier-1
    // test: N straight steps vs N/2 + save_file + load_file + N/2 must
    // agree to the bit — the checkpoint carries the Adams–Bashforth
    // history, the piece naive save/restore schemes forget.
    let path = std::env::temp_dir().join(format!("hyades_ckpt_test_{}.ckpt", std::process::id()));
    let mut w = SerialWorld;

    let mut reference = build_model();
    reference.run(&mut w, 20);

    let mut first_leg = build_model();
    first_leg.run(&mut w, 10);
    save_file(&first_leg, &path).expect("write checkpoint");
    drop(first_leg);

    let mut resumed = build_model();
    load_file(&mut resumed, &path).expect("read checkpoint");
    assert_eq!(resumed.steps_taken, 10);
    resumed.run(&mut w, 10);
    std::fs::remove_file(&path).ok();

    assert_eq!(reference.steps_taken, resumed.steps_taken);
    assert_eq!(reference.state.theta.raw(), resumed.state.theta.raw());
    assert_eq!(reference.state.u.raw(), resumed.state.u.raw());
    assert_eq!(reference.state.v.raw(), resumed.state.v.raw());
    assert_eq!(reference.state.ps.raw(), resumed.state.ps.raw());
}

#[test]
fn planned_rank_crash_recovers_bit_identically_end_to_end() {
    // The whole stack at once: a seeded fault plan crashes rank 1
    // mid-run, opens a corrupt/drop window over the Arctic links, and
    // stalls an NIU. The coupled 4-rank tour must roll back to its last
    // checkpoint, replay, and finish in a state bit-identical to an
    // uninterrupted run — while the DES legs retransmit their way to an
    // exact global sum.
    let seed = 0x0C0F_FEE;
    let r = TourConfig::new(seed)
        .fault_plan(TourConfig::demo_fault_plan(seed))
        .run_resilient();
    assert_eq!(r.crashed_rank, Some(1));
    assert!(r.restarts >= 1, "planned crash never fired");
    assert!(
        r.recovered_identical,
        "recovered run diverged from the uninterrupted reference:\n{}",
        r.report
    );
    assert!(r.retries > 0, "link-fault window produced no retransmits");
    assert!(
        r.json.contains("\"recovered_identical\": true"),
        "{}",
        r.json
    );
}

/// The lossy-link plan `hbench`'s `comm_primitives` draws, for one plan
/// seed: a corrupt/drop window over the opening 60 µs plus one NIU stall.
fn sweep_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .link_window(0.0, 60.0, 0.2, 0.1)
        .niu_stall(1, 5.0, 25.0)
}

/// FNV-1a over the `(elapsed ps, every recovery counter)` of each run a
/// sweep makes, in order.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn run(&mut self, elapsed_ps: u64, r: &RecoveryCounters) {
        let words = [
            elapsed_ps,
            r.timeouts,
            r.req_resends,
            r.probes,
            r.acks_resent,
            r.dones_resent,
            r.data_rewinds,
            r.value_resends,
            r.retries,
            r.corrupt_discarded,
            r.stale_ignored,
        ];
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// One `px × py` exchange of `leg` bytes under every plan seed in
/// `seeds`: every node must finish its schedule (the measurement panics
/// otherwise), recovery may only cost simulated time, and the same seed
/// must replay to the same time and counters.
fn sweep_exchange(
    px: u16,
    py: u16,
    leg: u64,
    seeds: impl Iterator<Item = u64>,
    replays: usize,
    digest: &mut Digest,
) {
    let host = HostParams::default();
    let clean = measure_exchange(host, px, py, leg);
    for seed in seeds {
        let run = || measure_exchange_faulty(host, px, py, leg, &sweep_plan(seed));
        let (t, counters) = run();
        digest.run(t.as_ps(), &counters);
        assert!(
            t >= clean,
            "{px}x{py}/{leg} B seed {seed}: faulty {t} beat fault-free {clean}"
        );
        for _ in 0..replays {
            assert_eq!(run(), (t, counters), "{px}x{py}/{leg} B seed {seed} replay");
        }
    }
}

/// The `n`-rank butterfly under every plan seed in `seeds`: it must
/// complete with the bit-exact rank-ordered sum, no sooner than the
/// fault-free run, and replay identically.
fn sweep_gsum(n: usize, seeds: impl Iterator<Item = u64>, replays: usize, digest: &mut Digest) {
    let host = HostParams::default();
    // Sixteenths in ±128: every summation order gives the same bits.
    let values: Vec<f64> = (0..n)
        .map(|i| (i * 613 % 4096) as f64 / 16.0 - 128.0)
        .collect();
    let exact = values.iter().sum::<f64>().to_bits();
    let clean = measure_gsum(host, &values, false);
    assert_eq!(clean.value.to_bits(), exact);
    for seed in seeds {
        let run = || measure_gsum_faulty(host, &values, &sweep_plan(seed));
        let (g, counters) = run();
        digest.run(g.elapsed.as_ps(), &counters);
        assert_eq!(
            g.value.to_bits(),
            exact,
            "gsum n={n} seed {seed}: inexact sum"
        );
        assert!(g.elapsed >= clean.elapsed, "gsum n={n} seed {seed}");
        for _ in 0..replays {
            let (g2, counters2) = run();
            assert_eq!(
                (g2.value.to_bits(), g2.elapsed, counters2),
                (exact, g.elapsed, counters),
                "gsum n={n} seed {seed} replay"
            );
        }
    }
}

// Plan seeds the retransmit protocol used to die on ("Proceed in
// unexpected phase": a duplicate ACK/DONE accepted while the first was
// still being processed) among their healthy neighbours: 19, 40, 68, 85,
// 95, 146 on 4×4/256 B; 34, 39, 86, 90, 97, 100 on 4×4/4096 B; 138 on
// 2×2/4096 B. A 4×4/4096 B run costs 0.1 s in a debug build, so that
// shape takes every tenth seed plus its six; `fault_plan_seed_sweep_full`
// covers the rest.

#[test]
fn fault_plan_seed_sweep_small_legs_and_gsum() {
    let d = &mut Digest::new();
    sweep_exchange(4, 4, 256, 0..150, 1, d);
    for n in [2, 4, 8, 16] {
        sweep_gsum(n, 0..150, 1, d);
    }
}

/// The same 750 runs against values recorded once (at the commit before
/// the protocol nodes were restructured), not against themselves: any
/// change to a simulated time or a recovery counter of any of them moves
/// the digest, and has to be re-pinned on purpose.
#[test]
fn fault_sweep_matches_the_pinned_digest() {
    let mut d = Digest::new();
    sweep_exchange(4, 4, 256, 0..150, 0, &mut d);
    for n in [2, 4, 8, 16] {
        sweep_gsum(n, 0..150, 0, &mut d);
    }
    assert_eq!(d.0, 0x0792_b5e1_7333_4734, "{:#018x}", d.0);
}

#[test]
fn fault_plan_seed_sweep_large_legs() {
    let d = &mut Digest::new();
    let seeds = (0..150).step_by(10).chain([34, 39, 86, 90, 97, 100]);
    sweep_exchange(4, 4, 4096, seeds, 1, d);
    sweep_exchange(2, 2, 4096, 138..139, 1, d);
}

#[test]
#[ignore = "about a minute in release; scripts/check.sh runs it"]
fn fault_plan_seed_sweep_full() {
    let d = &mut Digest::new();
    for (px, py) in [(2, 2), (4, 4)] {
        for leg in [256, 4096, 16384] {
            sweep_exchange(px, py, leg, 0..2000, 0, d);
        }
    }
    for n in [2, 4, 8, 16] {
        sweep_gsum(n, 0..2000, 0, d);
    }
}
