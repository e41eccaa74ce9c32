//! Tier-1 gate: the hyades-lint static-analysis pass must be clean on
//! the whole workspace. This makes plain `cargo test` enforce the
//! determinism rules — the same pass as `cargo run -p hyades-lint`.
//!
//! See crates/lint/src/rules.rs for the rule table and DESIGN.md
//! ("Determinism guarantees & lint rules") for the rationale.

/// Every reasoned `lint:allow` in the tree, as (file, rule, count).
/// Adding or removing a suppression fails the gate until this pin is
/// edited with it, so the suppression set only changes on purpose.
const ALLOWS: &[(&str, &str, usize)] = &[
    ("crates/gcm/src/resilient.rs", "collective-divergence", 1),
    ("crates/gcm/src/resilient.rs", "unwrap-in-lib", 2),
];

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
    let allows: Vec<(&str, &str, usize)> = (report.allows.iter())
        .map(|(file, rule, n)| (file.as_str(), rule.as_str(), *n))
        .collect();
    assert_eq!(
        allows, ALLOWS,
        "the reasoned lint:allow set changed; edit ALLOWS in tests/lint_gate.rs with it"
    );
}
