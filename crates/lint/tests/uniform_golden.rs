//! Golden fixture tests for the SPMD collective-uniformity analysis:
//! every `tests/fixtures/uniform/*.rs` file runs through
//! [`hyades_lint::uniform`] and its rendered proof table + findings
//! must match the companion `.expected` snapshot byte for byte
//! (directives and re-blessing: `common/mod.rs`).

#[expect(dead_code, reason = "uniform fixtures declare no flow sinks")]
mod common;

use hyades_lint::uniform;

#[test]
fn uniform_fixtures_match_expected_reports() {
    let cases = common::fixtures("uniform");
    assert!(cases.len() >= 4, "uniform fixture set went missing");
    for case in cases {
        case.check(&uniform::analyze(&case.input()).render_golden());
    }
}

/// Acceptance check: the seeded divergent fixture produces the
/// exact witness chain — tainted source, guarded collective, arm
/// sequences — not just "a finding somewhere".
#[test]
fn guarded_fixture_witness_chain_is_exact() {
    let report = uniform::analyze(&common::fixture("uniform", "guarded.rs").input());
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "collective-divergence");
    assert_eq!(f.line, 7);
    assert!(
        f.message.contains("collective `global_sum` (line 8)"),
        "{}",
        f.message
    );
    assert!(
        f.message
            .contains("`.rank` at crates/comms/src/guarded.rs:7"),
        "{}",
        f.message
    );
    assert!(
        f.message.contains("fn `comms::guarded::report`"),
        "{}",
        f.message
    );
}

/// Every reasoned pragma covering a site is used, as in the per-file
/// rules: both of `paired`'s, `above_code`'s, and neither of the two
/// that cover no branch line.
#[test]
fn every_pragma_covering_a_site_is_used() {
    let report = uniform::analyze(&common::fixture("uniform", "pragma_pair.rs").input());
    let lines: Vec<usize> = report.used_allow.iter().map(|(_, line)| *line).collect();
    assert_eq!(lines, vec![6, 7, 13]);
}

/// The whole-workspace pass audits every pragma against the ones an
/// analysis honoured: `pragma_pair`'s two that cover no site are
/// unused, and its five reasoned pragmas are the suppression inventory.
#[test]
fn fixture_pragmas_are_audited() {
    let case = common::fixture("uniform", "pragma_pair.rs");
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("pragma_inventory");
    let file = root.join(case.rel());
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(file.parent().unwrap()).unwrap();
    std::fs::write(&file, &case.src).unwrap();
    let report = hyades_lint::lint_workspace(&root).unwrap();
    // The declared workspace sinks are absent from a one-file tree.
    let audited: Vec<(usize, &str)> = (report.violations.iter())
        .filter(|f| f.rule != "nondet-reachable")
        .map(|f| (f.line, f.rule))
        .collect();
    assert_eq!(
        audited,
        vec![
            (20, "unused-pragma"),
            (22, "collective-divergence"),
            (28, "unused-pragma"),
            (29, "collective-divergence"),
        ]
    );
    let allows: Vec<(&str, &str, usize)> = (report.allows.iter())
        .map(|(f, r, n)| (f.as_str(), r.as_str(), *n))
        .collect();
    assert_eq!(allows, vec![(case.rel(), "collective-divergence", 5)]);
    assert_eq!(
        report.render_summary().rsplit_once(' ').unwrap().1,
        "allows=5"
    );
}
