//! Golden fixture tests for the interprocedural flow analysis: every
//! `tests/fixtures/flow/*.rs` file is run through [`hyades_lint::flow`]
//! and its rendered effect table + sink verdicts + findings must match
//! the companion `.expected` snapshot byte for byte.
//!
//! Directives on the leading comment lines:
//!
//! * `//@path <workspace-rel-path>` — the path the file pretends to
//!   live at (crate/test scoping applies exactly as in the workspace);
//! * `//@sink <name> <what>` — a declared sink for this fixture's run.
//!
//! Regenerate snapshots with `UPDATE_FLOW_GOLDEN=1 cargo test -p
//! hyades-lint --test flow_golden` after an intentional change.

use hyades_lint::flow::{self, SinkSpec};
use std::fs;
use std::path::Path;

#[test]
fn flow_fixtures_match_expected_reports() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/flow");
    let mut cases: Vec<_> = fs::read_dir(&dir)
        .expect("flow fixtures dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    cases.sort();
    assert!(cases.len() >= 4, "flow fixture set went missing: {cases:?}");

    let bless = std::env::var_os("UPDATE_FLOW_GOLDEN").is_some();
    for case in cases {
        let name = case.file_name().unwrap().to_string_lossy().into_owned();
        let src = fs::read_to_string(&case).expect("fixture source");
        let mut rel: Option<&str> = None;
        let mut sinks: Vec<SinkSpec> = Vec::new();
        for line in src.lines() {
            if let Some(p) = line.strip_prefix("//@path ") {
                rel = Some(p.trim());
            } else if let Some(s) = line.strip_prefix("//@sink ") {
                let (sink_name, what) = s
                    .trim()
                    .split_once(' ')
                    .unwrap_or_else(|| panic!("{name}: //@sink needs `name what`"));
                // SinkSpec carries &'static str (it is a const table in
                // production); leaking the few directive strings of a
                // test run is fine.
                sinks.push(SinkSpec {
                    name: String::leak(sink_name.to_string()),
                    path_hint: String::leak(rel.expect("//@path must precede //@sink").to_string()),
                    what: String::leak(what.to_string()),
                });
            }
        }
        let rel = rel.unwrap_or_else(|| panic!("{name}: missing //@path directive"));
        let report = flow::analyze(&[(rel.to_string(), src.clone())], &sinks);
        let got = report.render_golden();
        let snapshot = case.with_extension("expected");
        if bless {
            fs::write(&snapshot, &got).expect("write snapshot");
            continue;
        }
        let expected = fs::read_to_string(&snapshot)
            .unwrap_or_else(|e| panic!("{name}: missing snapshot {}: {e}", snapshot.display()));
        assert_eq!(got, expected, "fixture {name} drifted from its snapshot");
    }
}

/// The acceptance check spelled out: seeding a synthetic
/// `SystemTime::now()` into a comms helper chain is caught, with the
/// full witness chain in the message.
#[test]
fn wallclock_seeded_comms_chain_is_caught() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/flow");
    let src = fs::read_to_string(dir.join("flow_chain.rs")).expect("chain fixture");
    let report = flow::analyze(
        &[("crates/comms/src/golden/flow_chain.rs".to_string(), src)],
        &[SinkSpec {
            name: "publish",
            path_hint: "crates/comms/src/",
            what: "comms reduction",
        }],
    );
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "nondet-reachable");
    assert!(f.message.contains("SystemTime"), "{}", f.message);
    assert!(
        f.message.contains(
            "publish -> comms::golden::flow_chain::jitter -> comms::golden::flow_chain::wall_ns"
        ),
        "witness chain missing: {}",
        f.message
    );
}
