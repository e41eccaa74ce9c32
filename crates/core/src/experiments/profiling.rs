//! E14 — telemetry flight recorder: model-vs-measured phase profiling.
//!
//! Runs the instrumented telemetry tour (GCM fan-out under a `TimedWorld`
//! plus the DES microbench) and reports the per-term comparison between
//! the charged PS/DS phase seconds and the analytical model of
//! eqs. (4)–(13) — the §5.3 validation exercised per phase term instead
//! of against one wall-clock total.

use crate::tour::TourConfig;

/// Fixed seed: the experiment is a regression artefact, not a sweep.
const SEED: u64 = 0xC11_317;

pub fn run() -> String {
    let t = TourConfig::new(SEED).run_tour();
    let mut out = String::new();
    out.push_str("E14: model-vs-measured phase profiling (telemetry tour)\n\n");
    out.push_str(&t.phase_report);
    out.push_str(&format!(
        "\nmax |residual| = {:.2}% over {} spans recorded across {} timelines\n",
        t.max_abs_residual * 100.0,
        t.span_count,
        2
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_names_every_phase_term() {
        let r = super::run();
        for needle in ["ps.compute", "ps.comm", "ds.compute", "ds.comm", "total"] {
            assert!(r.contains(needle), "missing {needle}:\n{r}");
        }
        assert!(r.contains("max |residual|"));
    }
}
