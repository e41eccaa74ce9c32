//! E19 — §5/§6: cross-rank critical path of a coupled step.
//!
//! The phase model (eqs. 4–13) predicts the aggregate step time of a
//! balanced run but cannot say *which* rank, phase, or link sets it.
//! This experiment reconstructs the global event DAG of the 4-rank
//! coupled run from stamped comm logs ([`hyades_telemetry::critpath`])
//! and reports the longest weighted path: first for the balanced run
//! (every tile identical, so no rank should dominate and the path should
//! track the model's step prediction), then with a deliberate straggler
//! — one rank charged an extra second of PS compute per step — to show
//! the attribution table pinning the blame on exactly that (rank,
//! phase). The paper's slowest-rank argument, made causal and checkable.

use crate::tour::{Straggler, TourConfig};
use hyades_telemetry::critpath::phase_label;

/// Fixed seed: the experiment is a regression artefact, not a sweep.
const SEED: u64 = 0x0C81_79A7;

/// The injected perturbation: 50 Mflop at 50 Mflop/s = one extra second
/// of PS compute per step, dwarfing the millisecond-scale step itself.
const STRAGGLER: Straggler = Straggler {
    rank: 2,
    extra_flops: 50_000_000,
};

pub fn run() -> String {
    let mut out = String::new();
    out.push_str("E19: cross-rank critical path of a coupled step (4 ranks)\n");

    let base = TourConfig::new(SEED).run_critpath();
    out.push_str("\n--- balanced run ---\n");
    out.push_str(&base.report);
    out.push('\n');
    out.push_str(&base.slack_report);
    out.push_str(&format!(
        "\nmax |path vs model residual| = {:.4} (budget 2.0)\n",
        base.max_step_residual
    ));

    let perturbed = TourConfig::new(SEED).straggler(STRAGGLER).run_critpath();
    out.push_str(&format!(
        "\n--- injected straggler: rank {} + {} Mflop PS per step ---\n",
        STRAGGLER.rank,
        STRAGGLER.extra_flops / 1_000_000
    ));
    out.push_str(&perturbed.report);
    match perturbed.blame {
        Some((rank, phase)) => out.push_str(&format!(
            "\nattributed straggler: rank {rank} {} (injected: rank {} ps) -> {}\n",
            phase_label(phase),
            STRAGGLER.rank,
            if rank == STRAGGLER.rank {
                "correct"
            } else {
                "WRONG"
            }
        )),
        None => out.push_str("\nattributed straggler: none (WRONG)\n"),
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_attributes_the_injected_straggler() {
        let r = super::run();
        assert!(r.contains("--- balanced run ---"), "{r}");
        assert!(r.contains("--- injected straggler: rank 2"), "{r}");
        assert!(r.contains("-> correct"), "{r}");
        assert!(!r.contains("WRONG"), "{r}");
        for needle in [
            "[per-step critical path]",
            "[per-rank slack]",
            "[straggler attribution]",
            "[wait vs wire]",
            "critical path vs phase model",
        ] {
            assert!(r.contains(needle), "missing {needle}:\n{r}");
        }
    }
}
