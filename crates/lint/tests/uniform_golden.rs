//! Golden fixture tests for the SPMD collective-uniformity analysis:
//! every `tests/fixtures/uniform/*.rs` file runs through
//! [`hyades_lint::uniform`] and its rendered proof table + findings
//! must match the companion `.expected` snapshot byte for byte
//! (directives and re-blessing: `common/mod.rs`).

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
