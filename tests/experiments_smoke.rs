//! Smoke test: the experiment registry's reports render with their key
//! content (the cheap experiments run in full; the instrumented-GCM ones
//! are covered by their own module tests and the examples).

#[test]
fn registry_lists_all_artefacts() {
    let all = hyades::experiments::all();
    assert_eq!(all.len(), 21);
    // Every table/figure of the paper's evaluation is covered.
    let artefacts: Vec<&str> = all.iter().map(|e| e.paper_artefact).collect();
    for needle in [
        "Figure 2",
        "Figure 7",
        "Figure 10",
        "Figure 11",
        "Figure 12",
        "Figure 9",
    ] {
        assert!(
            artefacts.iter().any(|a| a.contains(needle)),
            "missing {needle}"
        );
    }
}

#[test]
fn cheap_experiments_render() {
    use hyades::experiments::*;
    type Check = (&'static str, fn() -> String, &'static str);
    let checks: Vec<Check> = vec![
        ("E1", fig2::run as fn() -> String, "RTT/2"),
        ("E3", gsum::run, "least-squares"),
        ("E4", fig10::run, "Hyades"),
        ("E7", fig12::run, "DS budget"),
        ("E8", hpvm::run, "HPVM"),
        ("E10", century::run, "two week"),
        ("E11", api_tax::run, "generality"),
        ("E13", economics::run, "price-performance"),
        ("E16", schedcheck::run, "deadlock-free"),
        ("E17", detflow::run, "nondet-reachable findings: 0"),
        ("E20", spmd::run, "collective-divergence findings: 0"),
    ];
    for (id, run, needle) in checks {
        let report = run();
        assert!(
            report.contains(needle),
            "{id} report missing '{needle}':\n{report}"
        );
        assert!(report.lines().count() >= 5, "{id} report too short");
    }
}

#[test]
fn bandwidth_figure_renders() {
    let report = hyades::experiments::fig7::run();
    assert!(report.contains("131072"));
    assert!(report.contains("% of peak"));
}

#[test]
fn e2_carries_the_section_4_1_ablations() {
    use hyades::experiments::fig7;
    let report = fig7::run();
    assert!(report.contains("staging chunk (B)"), "{report}");
    assert!(report.contains("three width-1 exchanges"), "{report}");
    // Small chunks overlap the copy with the DMA; one 64 KB chunk cannot.
    let chunks = fig7::chunk_sweep();
    let (first, last) = (chunks[0], chunks[chunks.len() - 1]);
    assert_eq!((first.0, last.0), (256, 65536));
    assert!(first.1 > last.1, "{chunks:?}");
    // The paper's choice: one wide exchange beats three narrow ones.
    let (wide, narrow) = fig7::overcomputation();
    assert!(wide < narrow, "{wide} vs {narrow}");
}

#[test]
fn e3_tree_is_slower_than_the_butterfly_at_every_n() {
    use hyades::experiments::gsum;
    assert!(gsum::run().contains("tree (us)"));
    let rep = gsum::measure();
    let tree = gsum::measure_tree();
    assert_eq!(tree.len(), rep.rows.len());
    for ((n, butterfly, _), tree) in rep.rows.iter().zip(tree) {
        assert!(tree > *butterfly, "N={n}: tree {tree} vs {butterfly}");
    }
}
