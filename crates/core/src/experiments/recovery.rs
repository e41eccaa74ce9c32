//! E21 — §2.2/§4/§6: fault injection and recovery on the personal
//! supercomputer.
//!
//! The paper's unattended-fortnight argument (§6) assumes the machine
//! *keeps* computing: a flipped link bit or a crashed rank on day 3
//! must not cost the run. This experiment drives the full recovery
//! stack under a deterministic, seeded fault plan
//! ([`hyades_des::fault::FaultPlan`]):
//!
//! * **Link faults** (§2.2): a corrupt/drop window over the Arctic
//!   fabric exercises the CRC-triggered retransmit protocol in
//!   `exchange` and `gsum` — timeouts arm capped exponential backoff,
//!   and the REQ/RETRY legs are proven deadlock-free by the schedule
//!   checker (E16's machinery).
//! * **Rank crash** (§4/§6): a planned crash mid-run rolls the coupled
//!   GCM back to its last checkpoint and replays; the recovered run
//!   must be *bit-identical* to an uninterrupted run — final state,
//!   per-timestep diagnostics, everything.
//!
//! All recovery cost is charged to simulated time, so the report itself
//! is a deterministic artefact.

use crate::tour::TourConfig;

/// Fixed seed: the experiment is a regression artefact, not a sweep.
const SEED: u64 = 0xFA_017;

pub fn run() -> String {
    let tour = TourConfig::new(SEED).fault_plan(TourConfig::demo_fault_plan(SEED));
    let r = tour.run_resilient();
    let mut out = String::new();
    out.push_str("E21: fault injection and recovery (coupled pair, 4 ranks)\n\n");
    out.push_str(&r.report);
    out.push_str(&format!(
        "\nrecovered bit-identical to uninterrupted run: {}\n",
        r.recovered_identical
    ));
    out.push_str(&format!(
        "steps = {}, checkpoints = {}, restarts = {}, replayed = {}, retransmits = {}, backoff waits = {}\n",
        r.steps, r.checkpoints, r.restarts, r.replayed_steps, r.retries, r.backoff_waits
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_shows_a_crash_survived_and_faults_retransmitted() {
        let r = super::run();
        assert!(r.contains("[fault plan]"), "{r}");
        assert!(r.contains("rank-crash"), "{r}");
        assert!(
            r.contains("recovered bit-identical to uninterrupted run: true"),
            "{r}"
        );
        assert!(r.contains("restarts = 1"), "{r}");
        assert!(r.contains("[retransmit protocol under link faults]"), "{r}");
        assert!(r.contains("sum exact: true"), "{r}");
    }
}
