//! hyades-lint: a determinism & numerical-correctness static-analysis
//! pass over the Hyades workspace sources.
//!
//! The discrete-event simulation results in this repo are only
//! trustworthy if they are bit-reproducible: same seed, same trace, same
//! numbers (paper §4: validation against the measured Hyades cluster
//! depends on replayable runs). This crate enforces, mechanically, the
//! coding rules that keep it that way — see [`rules`] for the table.
//!
//! The engine is a static-analysis layer over the sources as text, and
//! depends on no other workspace crate: [`lexer`] is a hand-rolled Rust
//! lexer (string/comment/raw-string aware, spans), [`passes`] the
//! per-file token view rules are written against, and two whole-program
//! analyzers go beyond per-file rules — [`flow`] infers a determinism
//! effect (`Det`/`DetModuloSeed`/`Nondet`) for every function over the
//! workspace call graph and proves the declared sinks (reductions,
//! exporters, traces) never reach `Nondet` code, and [`uniform`] proves
//! SPMD collective uniformity: no rank-dependent branch, early exit, or
//! loop bound can make one rank skip or repeat a blocking collective the
//! others enter. [`graph`] is the one front end under both: each file
//! lexed once, one function table, one resolved call graph
//! ([`graph::Workspace`]).
//!
//! Runs two ways:
//!
//! * `cargo run -p hyades-lint` — prints `file:line: rule: message`
//!   diagnostics, exits nonzero on violations (`--json` for a
//!   machine-readable report, `--summary` for the one-line counts:
//!   files, violations, effect-table functions, collective sites);
//! * as a `#[test]` (`tests/lint_gate.rs` in the workspace root), so
//!   plain `cargo test` enforces the rules in CI.

pub mod baseline;
pub mod flow;
pub mod graph;
pub mod lexer;
pub mod passes;
pub mod rules;
pub mod uniform;

pub use rules::{analyze, analyze_file, Finding};

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The workspace root, resolved relative to this crate
/// (`crates/lint` → two levels up).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf()
}

/// Directories scanned, relative to the workspace root. `vendor/` (stub
/// crates), `target/`, and `crates/lint/tests/fixtures/` (deliberately
/// bad code for self-tests) are outside this list by construction.
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// All `.rs` files under the scan roots as (workspace-relative path with
/// `/` separators, contents), sorted by path for deterministic reports.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for sub in SCAN_ROOTS {
        let dir = root.join(sub);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut out = Vec::with_capacity(files.len());
    for path in files {
        let contents = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        out.push((rel, contents));
    }
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name == "vendor" {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Result of a full workspace lint.
pub struct LintReport {
    /// Hard failures, sorted by path/line.
    pub violations: Vec<Finding>,
    /// Informational ratchet notes (files now under baseline).
    pub notes: Vec<String>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Functions in the interprocedural effect table ([`flow`]).
    pub effect_fns: usize,
    /// Direct collective call sites proven uniform ([`uniform`]).
    pub collective_sites: usize,
}

impl LintReport {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable report body (diagnostics + notes, no summary line).
    pub fn render(&self) -> String {
        let mut s = String::new();
        for v in &self.violations {
            s.push_str(&format!("{v}\n"));
        }
        for n in &self.notes {
            s.push_str(&format!("note: {n}\n"));
        }
        s
    }

    /// Machine-readable report: one JSON object, keys and entries in a
    /// stable sorted order, so CI can diff runs textually.
    pub fn render_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!(
            "  \"collective_sites\": {},\n",
            self.collective_sites
        ));
        s.push_str(&format!("  \"effect_fns\": {},\n", self.effect_fns));
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str("  \"notes\": [");
        for (i, n) in self.notes.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&format!("    \"{}\"", json_escape(n)));
        }
        s.push_str(if self.notes.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        s.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&format!(
                "    {{\"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \"rule\": \"{}\"}}",
                json_escape(&v.rel_path),
                v.line,
                json_escape(&v.message),
                json_escape(v.rule)
            ));
        }
        s.push_str(if self.violations.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        s.push_str("}\n");
        s
    }

    /// Stable one-line machine-readable summary for shell consumers
    /// (`scripts/check.sh`), replacing ad-hoc scraping of the JSON
    /// report. Field order is part of the contract.
    pub fn render_summary(&self) -> String {
        format!(
            "hyades-lint: files={} violations={} effect-table={} collectives={} notes={}",
            self.files_scanned,
            self.violations.len(),
            self.effect_fns,
            self.collective_sites,
            self.notes.len()
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// All workspace findings: per-file rule findings, one synthetic
/// [`rules::PRAGMA_ALLOW`] finding per valid `lint:allow` pragma and
/// per attached `lint:det-trusted` / `lint:uniform-trusted` pragma (so
/// the whole suppression set rides the baseline ratchet), plus the
/// interprocedural [`flow`] and [`uniform`] findings. Pragmas either
/// whole-program analysis honored are reconciled here: a pragma that
/// suppressed a flow source or a collective-divergence finding is not
/// "unused" even when no per-file rule fired on its line. Everything
/// runs over one [`graph::Workspace`], so each file is lexed once.
fn workspace_findings(
    sources: &[(String, String)],
) -> (Vec<Finding>, flow::FlowReport, uniform::UniformReport) {
    let ws = graph::Workspace::build(sources);
    let fl = flow::analyze_ws(&ws, flow::WORKSPACE_SINKS);
    let un = uniform::analyze_ws(&ws);
    let mut findings = Vec::new();
    for ctx in &ws.files {
        let fa = rules::analyze_ctx(ctx);
        findings.extend(fa.findings.into_iter().filter(|f| {
            f.rule != rules::UNUSED_PRAGMA
                || (!fl.used_allow.contains(&(f.rel_path.clone(), f.line))
                    && !un.used_allow.contains(&(f.rel_path.clone(), f.line)))
        }));
        for p in &fa.pragmas {
            if p.valid {
                findings.push(Finding {
                    rel_path: ctx.rel_path.to_string(),
                    line: p.line,
                    rule: rules::PRAGMA_ALLOW,
                    message: format!("lint:allow({}) suppression", p.rule),
                });
            }
        }
    }
    for (rel, line) in &fl.trusted_sites {
        findings.push(Finding {
            rel_path: rel.clone(),
            line: *line,
            rule: rules::PRAGMA_ALLOW,
            message: "lint:det-trusted(..) suppression".to_string(),
        });
    }
    for (rel, line) in &un.trusted_sites {
        findings.push(Finding {
            rel_path: rel.clone(),
            line: *line,
            rule: rules::PRAGMA_ALLOW,
            message: "lint:uniform-trusted(..) suppression".to_string(),
        });
    }
    findings.extend(fl.findings.iter().cloned());
    findings.extend(un.findings.iter().cloned());
    (findings, fl, un)
}

/// Lint every scanned source against the checked-in baseline.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let sources = collect_sources(root)?;
    let files_scanned = sources.len();
    let (findings, fl, un) = workspace_findings(&sources);

    let baseline_path = root.join(baseline_file());
    let baseline = if baseline_path.is_file() {
        baseline::parse(&std::fs::read_to_string(&baseline_path)?).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: {e}", baseline_path.display()),
            )
        })?
    } else {
        baseline::Baseline::new()
    };
    let (mut violations, notes) = baseline::apply(findings, &baseline);
    violations.sort();
    violations.dedup();
    Ok(LintReport {
        violations,
        notes,
        files_scanned,
        effect_fns: fl.functions,
        collective_sites: un.collective_sites,
    })
}

/// Workspace-relative location of the baseline file.
pub fn baseline_file() -> &'static str {
    "crates/lint/baseline.txt"
}

/// Recompute the baseline from the current tree and write it out.
/// Returns the number of (file, rule) entries.
pub fn write_baseline(root: &Path) -> std::io::Result<usize> {
    let sources = collect_sources(root)?;
    let (findings, _, _) = workspace_findings(&sources);
    let b = baseline::from_findings(&findings);
    std::fs::write(root.join(baseline_file()), baseline::render(&b))?;
    Ok(b.len())
}

/// Strip every valid-but-unused `lint:allow` pragma AND every stale
/// (unattached) `lint:det-trusted` / `lint:uniform-trusted` pragma from
/// the tree, then regenerate the baseline (so the pragma budget
/// ratchets down in the same step). All three pragma families go
/// through the same reconciliation: a pragma survives only if a
/// per-file rule used it, a whole-program analysis honored it, or it is
/// attached to a function. Returns (files rewritten, baseline entries).
pub fn fix_baseline(root: &Path) -> std::io::Result<(usize, usize)> {
    let sources = collect_sources(root)?;
    // A pragma only the whole-program analyses use (e.g. suppressing a
    // flow source or a collective-divergence finding) must survive the
    // sweep.
    let ws = graph::Workspace::build(&sources);
    let fl = flow::analyze_ws(&ws, flow::WORKSPACE_SINKS);
    let un = uniform::analyze_ws(&ws);
    // Stale trust pragmas are reported as `unused-pragma` findings by
    // the two analyses' audits; their lines feed the same strip pass.
    let stale_trust: BTreeSet<(String, usize)> = fl
        .findings
        .iter()
        .chain(un.findings.iter())
        .filter(|f| f.rule == rules::UNUSED_PRAGMA)
        .map(|f| (f.rel_path.clone(), f.line))
        .collect();
    let mut files_changed = 0usize;
    for ((rel, contents), ctx) in sources.iter().zip(&ws.files) {
        let fa = rules::analyze_ctx(ctx);
        let mut stale: BTreeSet<usize> = fa
            .pragmas
            .iter()
            .filter(|p| {
                p.valid
                    && !p.used
                    && !fl.used_allow.contains(&(rel.clone(), p.line))
                    && !un.used_allow.contains(&(rel.clone(), p.line))
            })
            .map(|p| p.line)
            .collect();
        stale.extend(
            stale_trust
                .iter()
                .filter(|(path, _)| path == rel)
                .map(|(_, line)| *line),
        );
        if stale.is_empty() {
            continue;
        }
        let fixed = passes::strip_pragmas_on_lines(contents, &stale);
        std::fs::write(root.join(rel), fixed)?;
        files_changed += 1;
    }
    let entries = write_baseline(root)?;
    Ok((files_changed, entries))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_has_manifest() {
        assert!(workspace_root().join("Cargo.toml").is_file());
    }

    #[test]
    fn collect_sees_known_files_and_skips_fixtures() {
        let files = collect_sources(&workspace_root()).unwrap();
        let paths: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
        assert!(
            paths.contains(&"crates/des/src/sim.rs"),
            "missing des sources"
        );
        assert!(
            paths.contains(&"crates/lint/src/lib.rs"),
            "lint must lint itself"
        );
        assert!(
            paths
                .iter()
                .all(|p| !p.contains("fixtures") && !p.starts_with("vendor")),
            "fixtures and vendor stubs must not be scanned"
        );
    }

    /// Acceptance check: a fixture with a deliberate `thread_rng()`
    /// (and friends) must be caught when fed through the analyzer.
    #[test]
    fn fixture_with_thread_rng_is_caught() {
        let bad = include_str!("../tests/fixtures/bad_rng.rs");
        let findings = analyze("crates/des/src/bad_rng.rs", bad);
        let rules_hit: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert!(rules_hit.contains(&rules::UNSEEDED_RNG), "{findings:?}");
        assert!(
            rules_hit.contains(&rules::INSTANT_WALLCLOCK),
            "{findings:?}"
        );
        assert!(rules_hit.contains(&rules::HASH_ITERATION), "{findings:?}");
    }

    #[test]
    fn fixture_clean_passes() {
        let good = include_str!("../tests/fixtures/clean.rs");
        let findings = analyze("crates/des/src/clean.rs", good);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn json_report_is_stable_and_escaped() {
        let report = LintReport {
            violations: vec![Finding {
                rel_path: "crates/x/src/a.rs".into(),
                line: 3,
                rule: rules::UNSEEDED_RNG,
                message: "say \"no\"".into(),
            }],
            notes: vec!["a note".into()],
            files_scanned: 2,
            effect_fns: 41,
            collective_sites: 7,
        };
        let json = report.render_json();
        assert!(json.contains("\"files_scanned\": 2"));
        assert!(json.contains("\"effect_fns\": 41"));
        assert!(json.contains("\"collective_sites\": 7"));
        assert_eq!(
            report.render_summary(),
            "hyades-lint: files=2 violations=1 effect-table=41 collectives=7 notes=1"
        );
        assert!(json.contains("\\\"no\\\""));
        assert!(json.contains("\"rule\": \"unseeded-rng\""));
        // Stable: rendering twice is byte-identical.
        assert_eq!(json, report.render_json());
    }
}
