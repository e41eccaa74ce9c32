//! hyades-lint: the whole-program determinism analyses over the Hyades
//! workspace sources.
//!
//! The discrete-event simulation results in this repo are only
//! trustworthy if they are bit-reproducible: same seed, same trace, same
//! numbers (paper §4: validation against the measured Hyades cluster
//! depends on replayable runs). Clippy carries the per-file rules that
//! keep it that way (the root `clippy.toml`); this crate proves what no
//! per-file rule can — see [`rules`] for the table.
//!
//! The engine is a static-analysis layer over the sources as text, and
//! depends on no other workspace crate: [`lexer`] is a hand-rolled Rust
//! lexer (string/comment/raw-string aware, spans), [`passes`] the
//! per-file token view, and two whole-program analyzers run over it —
//! [`flow`] infers a determinism effect (`Det`/`DetModuloSeed`/`Nondet`)
//! for every function over the workspace call graph and proves the
//! declared sinks (reductions, exporters, traces) never reach `Nondet`
//! code, and [`uniform`] proves SPMD collective uniformity: no
//! rank-dependent branch, early exit, or loop bound can make one rank
//! skip or repeat a blocking collective the others enter. [`graph`] is
//! the one front end under both: each file lexed once, one function
//! table, one resolved call graph ([`graph::Workspace`]). A pass runs on
//! two threads (see [`graph`]).
//!
//! Runs two ways:
//!
//! * `cargo run -p hyades-lint` — prints `file:line: rule: message`
//!   diagnostics, exits nonzero on violations (`--json` for a
//!   machine-readable report, `--summary` for the one-line counts:
//!   files, violations, effect-table functions, collective sites);
//! * as a `#[test]` (`tests/lint_gate.rs` in the workspace root), so
//!   plain `cargo test` enforces both analyses in CI.

pub mod flow;
pub mod graph;
pub mod lexer;
pub mod passes;
pub mod rules;
pub mod uniform;

pub use rules::Finding;

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
/// divergent code for self-tests) are outside this list by construction.
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

    /// Human-readable report body (diagnostics, no summary line).
    pub fn render(&self) -> String {
        let mut s = String::new();
        for v in &self.violations {
            s.push_str(&format!("{v}\n"));
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
            "hyades-lint: files={} violations={} effect-table={} collectives={}",
            self.files_scanned,
            self.violations.len(),
            self.effect_fns,
            self.collective_sites
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

/// Lint every scanned source: the interprocedural [`flow`] and
/// [`uniform`] findings. Both run over one [`graph::Workspace`], so each
/// file is lexed once; [`uniform`] runs on a second thread beside
/// [`flow`].
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let sources = collect_sources(root)?;
    let ws = graph::Workspace::build(&sources);
    let (un, fl) = side_by_side(
        || uniform::analyze_ws(&ws),
        || flow::analyze_ws(&ws, flow::WORKSPACE_SINKS),
    );
    let mut violations = fl.findings;
    violations.extend(un.findings);
    violations.sort();
    violations.dedup();
    Ok(LintReport {
        violations,
        files_scanned: sources.len(),
        effect_fns: fl.functions,
        collective_sites: un.collective_sites,
    })
}

/// Run `helper` on a scoped thread while this thread runs `caller`, and
/// return what each computed. A panic on the helper re-raises here with
/// its own payload.
pub(crate) fn side_by_side<A: Send, B>(
    helper: impl FnOnce() -> A + Send,
    caller: impl FnOnce() -> B,
) -> (A, B) {
    std::thread::scope(|s| {
        let h = s.spawn(helper);
        let mine = caller();
        let theirs = h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
        (theirs, mine)
    })
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

    #[test]
    fn side_by_side_returns_both_sides_and_re_raises_the_helpers_panic() {
        assert_eq!(side_by_side(|| 'h', || 'c'), ('h', 'c'));
        let helper_panics = || side_by_side(|| panic!("helper fell over"), || 'c');
        let payload = std::panic::catch_unwind(helper_panics).unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper fell over"));
    }

    #[test]
    fn a_pass_over_the_live_tree_renders_the_same_bytes_twice() {
        let json = || lint_workspace(&workspace_root()).unwrap().render_json();
        assert_eq!(json(), json());
    }

    #[test]
    fn json_report_is_stable_and_escaped() {
        let report = LintReport {
            violations: vec![Finding {
                rel_path: "crates/x/src/a.rs".into(),
                line: 3,
                rule: rules::COLLECTIVE_DIVERGENCE,
                message: "say \"no\"".into(),
            }],
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
            "hyades-lint: files=2 violations=1 effect-table=41 collectives=7"
        );
        assert!(json.contains("\\\"no\\\""));
        assert!(json.contains("\"rule\": \"collective-divergence\""));
        // Stable: rendering twice is byte-identical.
        assert_eq!(json, report.render_json());
    }
}
