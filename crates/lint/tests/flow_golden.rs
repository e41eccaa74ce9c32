//! Golden fixture tests for the interprocedural flow analysis: every
//! `tests/fixtures/flow/*.rs` file is run through [`hyades_lint::flow`]
//! against its own `//@sink` directives, and its rendered effect table +
//! sink verdicts + findings must match the companion `.expected`
//! snapshot byte for byte (directives and re-blessing: `common/mod.rs`).

mod common;

use hyades_lint::flow::{self, SinkSpec};

#[test]
fn flow_fixtures_match_expected_reports() {
    let cases = common::fixtures("flow");
    assert!(cases.len() >= 4, "flow fixture set went missing");
    for case in cases {
        case.check(&flow::analyze(&case.input(), &case.sinks()).render_golden());
    }
}

/// The acceptance check spelled out: seeding a synthetic
/// `SystemTime::now()` into a comms helper chain is caught, with the
/// full witness chain in the message.
#[test]
fn wallclock_seeded_comms_chain_is_caught() {
    let case = common::fixture("flow", "flow_chain.rs");
    let report = flow::analyze(
        &case.input(),
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
