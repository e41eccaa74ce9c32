//! E16 — §4: communication schedule proof and happens-before audit.
//!
//! Two complementary checks on the paper's hand-scheduled communication
//! layer. Statically, the 16-node halo exchange (§4.1) concatenated with
//! the global-sum butterfly (§4.2) is reified as a [`CommGraph`] and
//! proven deadlock-free and tag-unique by [`verify`]. Dynamically,
//! a live 16-rank [`ThreadWorld`] run of the same primitives is recorded
//! through the telemetry comm log and replayed through the vector-clock
//! happens-before checker in `telemetry::matcher`, which must find every
//! matched send/recv pair strictly ordered.
//!
//! [`CommGraph`]: hyades_comms::schedule::CommGraph
//! [`ThreadWorld`]: hyades_comms::world::ThreadWorld

use hyades_comms::schedule::{exchange_graph, gsum_graph, verify, ScheduleProof};
use hyades_comms::world::{CommWorld, ThreadWorld};
use hyades_telemetry::{commlog, matcher};

pub struct SchedCheckReport {
    pub proof: ScheduleProof,
    pub hb: matcher::HbReport,
}

/// The live run audited by the happens-before checker: a few steps of
/// ring halo exchange plus vector global sums, the GCM's inner-loop
/// communication pattern.
fn logged_run(ranks: usize, steps: usize) -> Vec<Vec<commlog::CommEvent>> {
    ThreadWorld::run(ranks, |w| {
        commlog::install();
        let (me, n) = (w.rank(), w.size());
        let left = (me + n - 1) % n;
        let right = (me + 1) % n;
        for step in 0..steps {
            let halo = vec![me as f64; 8 + step];
            let got = w.exchange(vec![(left, halo.clone()), (right, halo)]);
            assert_eq!(got.len(), 2);
            let mut sums = [me as f64, 1.0];
            w.global_sum_vec(&mut sums);
            assert_eq!(sums[1], n as f64);
        }
        w.barrier();
        commlog::take()
    })
}

pub fn measure() -> SchedCheckReport {
    // Static side: the full 16-node schedule, exchange then butterfly.
    let mut g = exchange_graph(4, 4);
    g.append(&gsum_graph(16));
    let proof = match verify(&g) {
        Ok(p) => p,
        Err(e) => panic!("static schedule verification failed: {e}"),
    };
    // Dynamic side: replay a recorded run through the vector clocks.
    let logs = logged_run(16, 3);
    let hb = match matcher::check(&logs) {
        Ok(r) => r,
        Err(e) => panic!("happens-before replay failed: {e}"),
    };
    SchedCheckReport { proof, hb }
}

pub fn run() -> String {
    let rep = measure();
    format!(
        "E16 Section 4: communication schedule proof and happens-before audit\n\n\
         static check, 4x4 exchange + global-sum butterfly schedule:\n  {}\n\
         dynamic vector-clock replay of a 16-rank ThreadWorld run:\n  {}",
        rep.proof,
        rep.hb.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_run_has_no_unordered_pairs() {
        let rep = measure();
        assert_eq!(rep.hb.ranks, 16);
        assert!(rep.hb.messages > 0, "exchange traffic must be logged");
        assert!(rep.hb.reductions > 0, "global sums must be logged");
        assert!(rep.hb.unordered.is_empty(), "{:?}", rep.hb.unordered);
    }

    #[test]
    fn report_renders() {
        let r = run();
        assert!(r.contains("deadlock-free"));
        assert!(r.contains("0 unordered pair(s)"));
    }
}
