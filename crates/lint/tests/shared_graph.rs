//! `flow` and `uniform` sit on one [`hyades_lint::graph::Workspace`]:
//! for every fixture and for the live tree they must report the same
//! function count and the same (de-duplicated) call-edge count, and no
//! call site of non-test code may resolve into test scope.

use hyades_lint::graph::Workspace;
use hyades_lint::{collect_sources, flow, uniform, workspace_root};
use std::fs;
use std::path::Path;

/// One single-file input per flow/uniform fixture, at its `//@path`.
fn fixture_inputs() -> Vec<Vec<(String, String)>> {
    let mut inputs = Vec::new();
    for sub in ["flow", "uniform"] {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(sub);
        let mut cases: Vec<_> = fs::read_dir(&dir)
            .expect("fixtures dir")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .collect();
        cases.sort();
        for case in cases {
            let src = fs::read_to_string(&case).expect("fixture source");
            let rel = src
                .lines()
                .find_map(|l| l.strip_prefix("//@path "))
                .unwrap_or_else(|| panic!("{}: missing //@path", case.display()))
                .trim()
                .to_string();
            inputs.push(vec![(rel, src)]);
        }
    }
    assert!(inputs.len() >= 8, "fixture sets went missing");
    inputs
}

#[test]
fn flow_and_uniform_report_the_same_graph() {
    let mut inputs = fixture_inputs();
    inputs.push(collect_sources(&workspace_root()).expect("live tree"));
    for sources in &inputs {
        let what = &sources[0].0;
        let ws = Workspace::build(sources);
        let fl = flow::analyze(sources, &[]);
        let un = uniform::analyze(sources);
        assert_eq!(fl.functions, ws.fns.len(), "{what}");
        assert_eq!(un.functions, fl.functions, "{what}");
        assert_eq!(fl.call_edges, ws.call_edges(), "{what}");
        assert_eq!(un.call_edges, fl.call_edges, "{what}");

        for site in ws.calls.iter().filter(|s| !ws.fns[s.caller].is_test) {
            for &callee in &site.cands {
                assert!(
                    !ws.fns[callee].is_test,
                    "{}: non-test `{}` resolves into test scope `{}`",
                    ws.files[site.file].rel_path, ws.fns[site.caller].qual, ws.fns[callee].qual
                );
            }
        }
        // The edge lists are the call sites, de-duplicated, both ways.
        let forward: usize = ws.callees.iter().map(Vec::len).sum();
        let reverse: usize = ws.callers.iter().map(Vec::len).sum();
        assert_eq!(forward, reverse, "{what}");
    }
    let live = inputs.last().expect("live tree pushed above");
    assert!(Workspace::build(live).call_edges() > 5_000);
}
