//! `flow` and `uniform` sit on one [`hyades_lint::graph::Workspace`]:
//! for every fixture and for the live tree they must report the same
//! function count and the same (de-duplicated) call-edge count, and no
//! call site of non-test code may resolve into test scope. On the live
//! tree both reports must also replay byte-identically and prove what
//! they claim.

use hyades_lint::flow::Effect;
use hyades_lint::graph::Workspace;
use hyades_lint::rules::COLLECTIVE_DIVERGENCE;
use hyades_lint::{collect_sources, flow, uniform, workspace_root};

mod common;

#[test]
fn flow_and_uniform_report_the_same_graph() {
    let fixtures = ["flow", "uniform"].map(common::fixtures);
    let mut inputs: Vec<_> = fixtures.iter().flatten().map(|f| f.input()).collect();
    assert!(inputs.len() >= 8, "fixture sets went missing");
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
                    ws.ctx(site.caller).rel_path,
                    ws.fns[site.caller].qual,
                    ws.fns[callee].qual
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

#[test]
fn live_tree_proofs_replay_byte_identically() {
    // Sorted sources through BTree-ordered tables, first-witness-wins
    // joins: the whole pipeline, run twice, renders the same bytes.
    let run = || {
        let sources = collect_sources(&workspace_root()).expect("live tree");
        (
            flow::analyze(&sources, flow::WORKSPACE_SINKS),
            uniform::analyze(&sources),
        )
    };
    let (fl, un) = run();
    let (fl2, un2) = run();
    assert_eq!(fl.render_golden(), fl2.render_golden());
    assert_eq!(un.render_golden(), un2.render_golden());

    for spec in flow::WORKSPACE_SINKS {
        assert!(
            fl.sinks.iter().any(|k| k.name == spec.name),
            "declared sink `{}` matches no function",
            spec.name
        );
    }
    for k in &fl.sinks {
        assert_ne!(
            k.effect,
            Effect::Nondet,
            "sink {} reaches Nondet via {:?}",
            k.qual,
            k.chain
        );
    }
    assert!(un.collective_sites > 0, "the analysis must see collectives");
    assert!(
        un.findings.iter().all(|f| f.rule != COLLECTIVE_DIVERGENCE),
        "{:?}",
        un.findings
    );
}
