//! Golden fixture tests for the SPMD collective-uniformity analysis:
//! every `tests/fixtures/uniform/*.rs` file runs through
//! [`hyades_lint::uniform`] and its rendered proof table + findings
//! must match the companion `.expected` snapshot byte for byte.
//!
//! `//@path <workspace-rel-path>` on a leading comment line sets the
//! path the file pretends to live at (crate scoping applies exactly as
//! in the workspace).
//!
//! Regenerate snapshots with `UPDATE_UNIFORM_GOLDEN=1 cargo test -p
//! hyades-lint --test uniform_golden` after an intentional change.

use hyades_lint::uniform;
use std::fs;
use std::path::Path;

#[test]
fn uniform_fixtures_match_expected_reports() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/uniform");
    let mut cases: Vec<_> = fs::read_dir(&dir)
        .expect("uniform fixtures dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    cases.sort();
    assert!(
        cases.len() >= 4,
        "uniform fixture set went missing: {cases:?}"
    );

    let bless = std::env::var_os("UPDATE_UNIFORM_GOLDEN").is_some();
    for case in cases {
        let name = case.file_name().unwrap().to_string_lossy().into_owned();
        let src = fs::read_to_string(&case).expect("fixture source");
        let rel = src
            .lines()
            .find_map(|l| l.strip_prefix("//@path "))
            .unwrap_or_else(|| panic!("{name}: missing //@path directive"))
            .trim();
        let report = uniform::analyze(&[(rel.to_string(), src.clone())]);
        let got = report.render_golden();
        let snapshot = case.with_extension("expected");
        if bless {
            fs::write(&snapshot, &got).expect("write snapshot");
            continue;
        }
        let want = fs::read_to_string(&snapshot).unwrap_or_else(|_| {
            panic!("{name}: missing snapshot; bless with UPDATE_UNIFORM_GOLDEN=1")
        });
        assert_eq!(
            got, want,
            "{name}: uniform report drifted from snapshot; \
             bless intentional changes with UPDATE_UNIFORM_GOLDEN=1"
        );
    }
}

/// Acceptance check: the seeded divergent fixture produces the
/// exact witness chain — tainted source, guarded collective, arm
/// sequences — not just "a finding somewhere".
#[test]
fn guarded_fixture_witness_chain_is_exact() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/uniform");
    let src = fs::read_to_string(dir.join("guarded.rs")).expect("guarded fixture");
    let report = uniform::analyze(&[("crates/comms/src/guarded.rs".to_string(), src)]);
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
