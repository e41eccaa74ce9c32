//! `lint_tree`: the developer's gate — the full `hyades-lint` pass over
//! the live workspace sources; no other layer runs. The input is the tree
//! itself (the seed has nothing to generate), so `lint.lines` is reported
//! beside the timings to expose input drift between two commits.

use crate::harness::{time_calls, Digest, Outcome, Workload};
use crate::metrics::LayerMetrics;
use crate::trace::Tracer;
use hyades_lint::{collect_sources, flow, lint_workspace, uniform, workspace_root};

/// Full passes per repetition.
const PASSES: usize = 4;

/// Counts of the last pass.
#[derive(Default)]
pub struct LintTree {
    files: usize,
    functions: usize,
    violations: usize,
}

impl Workload for LintTree {
    fn rep(&mut self, tracer: &Tracer) -> Outcome {
        let mut out = Outcome::default();
        let mut d = Digest::default();
        let root = workspace_root();
        for _ in 0..PASSES {
            let report = tracer.span("lint.full", || lint_workspace(&root));
            out.check(report.is_ok());
            let Ok(report) = report else { continue };
            out.check(report.is_clean());
            out.check(report.files_scanned > 50);
            d.bytes(report.render().as_bytes());
            d.word(report.files_scanned as u64);
            self.files = report.files_scanned;
            self.functions = report.effect_fns;
            self.violations = report.violations.len();
        }
        out.digest = d.finish();
        out
    }

    fn layer_metrics(&mut self, tracer: &Tracer, _wall_s: f64, m: &mut LayerMetrics) {
        let full = tracer.per_rep("lint.full");
        let full_s = full.total_s / full.calls;
        m.set("lint.files", self.files as f64);
        m.set("lint.functions", self.functions as f64);
        m.set("lint.violations", self.violations as f64);

        // The stages of one pass, each timed alone on the same sources.
        let root = workspace_root();
        let mut sources = Vec::new();
        let collect_s = time_calls(|| {
            sources = collect_sources(&root).expect("workspace sources are readable");
        });
        let lines: usize = sources.iter().map(|(_, text)| text.lines().count()).sum();
        let (mut flow_edges, mut uniform_edges) = (0, 0);
        let flow_s = time_calls(|| {
            flow_edges = flow::analyze(&sources, flow::WORKSPACE_SINKS).call_edges;
        });
        let uniform_s = time_calls(|| uniform_edges = uniform::analyze(&sources).call_edges);
        m.set("lint.lines", lines as f64);
        m.set("lint.lines_per_s", lines as f64 / full_s);
        m.set("lint.collect_s", collect_s);
        m.set("lint.flow_s", flow_s);
        m.set("lint.uniform_s", uniform_s);
        m.set("lint.rules_s", full_s - collect_s - flow_s - uniform_s);
        m.set("lint.flow_edges", flow_edges as f64);
        m.set("lint.uniform_edges", uniform_edges as f64);
    }
}
