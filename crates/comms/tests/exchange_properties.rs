//! Property tests of the exchange protocol simulation: it must terminate
//! (no deadlock) for every grid shape and leg size, deterministically,
//! with cost monotone in the data volume — and, with the global sum,
//! recover from randomised fault plans to the uninterrupted result.

use hyades_comms::exchange::{exchange_graph, measure_exchange, measure_exchange_faulty};
use hyades_comms::gsum::{measure_gsum, measure_gsum_faulty};
use hyades_des::fault::FaultPlan;
use hyades_startx::node::{CommGraph, Dir};
use hyades_startx::vi::{classify, EXCHANGE_LEG};
use hyades_startx::HostParams;
use proptest::prelude::*;

/// A randomised fault plan over the first `horizon` µs: 1–3 link windows
/// (placement, length, corrupt and drop rates ≤ 0.3) and 0–3 NIU stalls
/// on random endpoints.
fn plans(horizon: f64) -> impl Strategy<Value = FaultPlan> {
    let spans = || (0.0..horizon, 1.0..horizon / 5.0);
    let windows = prop::collection::vec((spans(), 0.0..0.3, 0.0..0.3), 1..=3);
    let stalls = prop::collection::vec((0u16..4, spans()), 0..=3);
    (any::<u64>(), windows, stalls).prop_map(|(seed, windows, stalls)| {
        let mut plan = FaultPlan::new(seed);
        for ((from, len), corrupt, drop) in windows {
            plan = plan.link_window(from, from + len, corrupt, drop);
        }
        for (endpoint, (from, len)) in stalls {
            plan = plan.niu_stall(endpoint, from, from + len);
        }
        plan
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn exchange_always_terminates_and_is_deterministic(
        px in prop::sample::select(vec![1u16, 2, 4]),
        py in prop::sample::select(vec![1u16, 2]),
        leg_bytes in 1u64..20_000,
    ) {
        prop_assume!((px * py).is_power_of_two() && px * py >= 2);
        let a = measure_exchange(HostParams::default(), px, py, leg_bytes);
        let b = measure_exchange(HostParams::default(), px, py, leg_bytes);
        prop_assert_eq!(a, b, "nondeterministic exchange");
        prop_assert!(a.as_us_f64() > 0.0);
        // Sanity upper bound: per leg, negotiation + stream at >10 MB/s
        // equivalent (very loose).
        let legs = exchange_graph(px, py).program[0].len() / EXCHANGE_LEG.len();
        let bound = legs as f64 * (100.0 + leg_bytes as f64 / 10.0);
        prop_assert!(a.as_us_f64() < bound, "{} vs bound {bound}", a.as_us_f64());
    }

    #[test]
    fn exchange_recovers_from_random_plans(
        // Past the 1 ms base timeout, so recovery legs meet faults too.
        plan in plans(1500.0),
        (px, py) in prop::sample::select(vec![(2u16, 2u16), (4, 2)]),
        leg_bytes in 1u64..=4096,
    ) {
        let host = HostParams::default();
        // Completes (the measurement panics on an unfinished node), ...
        let (t, counters) = measure_exchange_faulty(host, px, py, leg_bytes, &plan);
        // ... replays to the same time and counters, ...
        let replay = measure_exchange_faulty(host, px, py, leg_bytes, &plan);
        prop_assert_eq!(replay, (t, counters), "{}", plan.render());
        // ... and recovery only ever costs simulated time.
        let clean = measure_exchange(host, px, py, leg_bytes);
        prop_assert!(t >= clean, "{t} beat fault-free {clean}\n{}", plan.render());
    }

    #[test]
    fn gsum_recovers_the_exact_sum_from_random_plans(
        // A clean 16-way sum takes 17 µs.
        plan in plans(60.0),
        n in prop::sample::select(vec![2usize, 4, 8, 16]),
        sixteenths in prop::collection::vec(-2048i32..2048, 16),
    ) {
        // Sixteenths in ±128: every summation order gives the same bits.
        let values: Vec<f64> = sixteenths[..n].iter().map(|&v| f64::from(v) / 16.0).collect();
        let host = HostParams::default();
        let (g, counters) = measure_gsum_faulty(host, &values, &plan);
        prop_assert_eq!(g.value.to_bits(), values.iter().sum::<f64>().to_bits());
        let (g2, counters2) = measure_gsum_faulty(host, &values, &plan);
        prop_assert_eq!((g2.elapsed, counters2), (g.elapsed, counters), "{}", plan.render());
        prop_assert!(g.elapsed >= measure_gsum(host, &values, false).elapsed);
    }

    #[test]
    fn exchange_cost_is_monotone_in_volume(
        leg_bytes in 64u64..8_000,
        extra in 64u64..8_000,
    ) {
        let small = measure_exchange(HostParams::default(), 4, 2, leg_bytes);
        let large = measure_exchange(HostParams::default(), 4, 2, leg_bytes + extra);
        prop_assert!(large >= small, "{large} < {small}");
    }
}

/// Node `me`'s legs in `g`, in program order: (round, partner, whether
/// `me` sends the leg).
fn legs(g: &CommGraph, me: u16) -> Vec<(usize, u16, bool)> {
    let program = &g.program[usize::from(me)];
    program
        .chunks(EXCHANGE_LEG.len())
        .map(|leg| {
            let req = g.msgs[leg[0].msg];
            let (_, round) = classify(req.tag).expect("a leg opens with its REQ");
            let sends = leg[0].dir == Dir::Send;
            (round, if sends { req.dst } else { req.src }, sends)
        })
        .collect()
}

#[test]
fn schedule_is_a_perfect_matching_per_round() {
    // Every pairable grid shape up to 8 × 4: in each round every node
    // runs two legs with one partner, first one way then the other, and
    // the partner runs the same two legs with it.
    for (px, py) in [1u16, 2, 4, 8]
        .into_iter()
        .flat_map(|px| [1u16, 2, 4].map(|py| (px, py)))
    {
        let g = exchange_graph(px, py);
        let rounds = 2 * (u16::from(px > 1) + u16::from(py > 1));
        for me in 0..px * py {
            let mine = legs(&g, me);
            assert_eq!(mine.len(), 2 * usize::from(rounds), "{px}x{py} node {me}");
            for (k, pair) in mine.chunks(2).enumerate() {
                let [(r1, p1, s1), (r2, p2, s2)] = [pair[0], pair[1]];
                assert_eq!((r1, r2, p2, s2), (k, k, p1, !s1), "{px}x{py} node {me}");
                let theirs = &legs(&g, p1)[2 * k..2 * k + 2];
                assert_eq!(theirs, [(k, me, !s1), (k, me, s1)], "{px}x{py} round {k}");
            }
        }
    }
}
