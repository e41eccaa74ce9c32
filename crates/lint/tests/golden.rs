//! Golden fixture tests: every `tests/fixtures/*.rs` file with a
//! companion `.expected` snapshot is run through the analyzer and its
//! rendered findings must match the snapshot byte for byte (directives
//! and re-blessing: `common/mod.rs`).

mod common;

#[test]
fn fixtures_match_expected_findings() {
    let cases: Vec<_> = common::fixtures("")
        .into_iter()
        .filter(|f| f.snapshot().is_file())
        .collect();
    assert!(cases.len() >= 8, "golden fixture set went missing");

    for case in cases {
        let got: String = hyades_lint::analyze(case.rel(), &case.src)
            .iter()
            .map(|f| format!("{f}\n"))
            .collect();
        case.check(&got);
    }
}

#[test]
fn fixture_pragmas_are_audited() {
    // The pragma fixture's audit trail feeds the budget ratchet: it must
    // classify each pragma (valid/used) exactly.
    let case = common::fixture("", "pragma.rs");
    let fa = hyades_lint::analyze_file(case.rel(), &case.src);
    let audit: Vec<(String, bool, bool)> = fa
        .pragmas
        .iter()
        .map(|p| (p.rule.clone(), p.valid, p.used))
        .collect();
    assert_eq!(
        audit,
        vec![
            ("unseeded-rng".to_string(), true, true),
            ("instant-wallclock".to_string(), true, true),
            ("hash-iteration".to_string(), true, false),
            ("unseeded-rng".to_string(), false, false),
            ("not-a-rule".to_string(), false, false),
        ]
    );
}
