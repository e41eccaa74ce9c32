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
    // The report's suppression inventory counts each reasoned pragma of
    // a known rule, used or not, and nothing else.
    let case = common::fixture("", "pragma.rs");
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("pragma_inventory");
    let file = root.join(case.rel());
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(file.parent().unwrap()).unwrap();
    std::fs::write(&file, &case.src).unwrap();
    let report = hyades_lint::lint_workspace(&root).unwrap();
    let allows: Vec<(&str, &str, usize)> = (report.allows.iter())
        .map(|(f, r, n)| (f.as_str(), r.as_str(), *n))
        .collect();
    assert_eq!(
        allows,
        vec![
            (case.rel(), "hash-iteration", 1),
            (case.rel(), "instant-wallclock", 1),
            (case.rel(), "unseeded-rng", 1),
        ]
    );
    assert_eq!(
        report.render_summary().rsplit_once(' ').unwrap().1,
        "allows=3"
    );
}
