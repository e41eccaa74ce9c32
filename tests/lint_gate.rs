//! Tier-1 gate: the hyades-lint static-analysis pass must be clean on
//! the whole workspace. This makes plain `cargo test` enforce the
//! determinism rules — the same pass as `cargo run -p hyades-lint`.
//!
//! See crates/lint/src/rules.rs for the rule table and DESIGN.md
//! ("Determinism guarantees & lint rules") for the rationale.

#[test]
fn workspace_is_lint_clean() {
    let root = hyades_lint::workspace_root();
    let report = hyades_lint::lint_workspace(&root).expect("lint walk failed");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}); walker broken?",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "hyades-lint violations (fix, or annotate with `// lint:allow(rule, reason)`):\n{}",
        report.render()
    );
    assert!(
        report.notes.is_empty(),
        "crates/lint/baseline.txt lags the tree:\n{}",
        report.render()
    );
}
