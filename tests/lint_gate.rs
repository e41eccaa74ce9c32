//! Tier-1 gate: the hyades-lint whole-program analyses must be clean on
//! the whole workspace, and clippy's one escape hatch, `#[expect]`, is
//! pinned. This makes plain `cargo test` enforce the same pass as
//! `cargo run -p hyades-lint` (whose findings nothing suppresses); the
//! per-file determinism rules are clippy settings (`clippy.toml`),
//! enforced by `scripts/check.sh`.
//!
//! See crates/lint/src/rules.rs for the rule table and DESIGN.md
//! ("Determinism guarantees & lint rules") for the rationale.

use hyades_lint::lexer::{lex, TokKind};

/// Every lint a `#[expect(..)]` names in the tree, as (file, lint,
/// count): the pin on clippy's one escape hatch (`allow_attributes` bans
/// a plain `#[allow]`). Adding or removing one fails the gate until this
/// pin is edited with it, so the set only changes on purpose.
const EXPECTS: &[(&str, &str, usize)] = &[
    ("crates/core/src/tour.rs", "clippy::too_many_arguments", 1),
    (
        "crates/gcm/src/kernel/gterms.rs",
        "clippy::too_many_arguments",
        3,
    ),
    (
        "crates/gcm/src/kernel/hydrostatic.rs",
        "clippy::too_many_arguments",
        3,
    ),
    (
        "crates/gcm/src/kernel/timestep.rs",
        "clippy::too_many_arguments",
        1,
    ),
    (
        "crates/gcm/src/physics/atmos.rs",
        "clippy::too_many_arguments",
        2,
    ),
    (
        "crates/gcm/src/physics/mod.rs",
        "clippy::too_many_arguments",
        2,
    ),
    (
        "crates/gcm/src/physics/ocean.rs",
        "clippy::too_many_arguments",
        2,
    ),
    ("crates/gcm/src/resilient.rs", "clippy::expect_used", 2),
    (
        "crates/gcm/src/solver/cg.rs",
        "clippy::too_many_arguments",
        2,
    ),
    ("crates/lint/tests/shared_graph.rs", "dead_code", 1),
    ("crates/lint/tests/uniform_golden.rs", "dead_code", 1),
    (
        "crates/telemetry/src/critpath.rs",
        "clippy::type_complexity",
        1,
    ),
    (
        "crates/telemetry/src/matcher.rs",
        "clippy::type_complexity",
        1,
    ),
];

#[test]
fn workspace_is_lint_clean() {
    let root = hyades_lint::workspace_root();
    let report = hyades_lint::lint_workspace(&root).expect("lint walk failed");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}); walker broken?",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "hyades-lint violations (fix the code, or the analysis if it is wrong):\n{}",
        report.render()
    );
}

/// The lints each `#[expect(..)]` / `#![expect(..)]` of `src` names, up
/// to its `reason`.
fn expected_lints(src: &str) -> Vec<String> {
    let code: Vec<_> = (lex(src).into_iter())
        .filter(|t| !matches!(t.kind, TokKind::Comment | TokKind::DocComment))
        .collect();
    let mut lints = Vec::new();
    for (i, t) in code.iter().enumerate() {
        let opens = |k: usize, s: &str| code.get(k).is_some_and(|t| t.text == s);
        if !(t.is_ident("expect") && opens(i + 1, "(") && i >= 1 && opens(i - 1, "[")) {
            continue;
        }
        let mut lint = String::new();
        for t in &code[i + 2..] {
            match t.text {
                "," | ")" => lints.extend((!lint.is_empty()).then(|| std::mem::take(&mut lint))),
                "reason" => break,
                s => lint.push_str(s),
            }
            if t.text == ")" {
                break;
            }
        }
    }
    lints
}

#[test]
fn the_expect_set_is_pinned() {
    let sources = hyades_lint::collect_sources(&hyades_lint::workspace_root()).expect("sources");
    let mut expects = std::collections::BTreeMap::new();
    for (file, src) in &sources {
        for lint in expected_lints(src) {
            *expects.entry((file.as_str(), lint)).or_insert(0) += 1;
        }
    }
    let expects: Vec<(&str, &str, usize)> = (expects.iter())
        .map(|((file, lint), n)| (*file, lint.as_str(), *n))
        .collect();
    assert_eq!(
        expects, EXPECTS,
        "the #[expect] set changed; edit EXPECTS in tests/lint_gate.rs with it"
    );
}

/// The `f32`-suffixed number literals of `src`, as (line, text).
fn f32_literals(src: &str) -> Vec<(u32, &str)> {
    (lex(src).into_iter())
        .filter(|t| matches!(t.kind, TokKind::Float | TokKind::Int) && t.text.ends_with("f32"))
        .map(|t| (t.line, t.text))
        .collect()
}

/// The model is 64-bit end to end. Clippy's `f32` ban sees the type
/// wherever it is written, but not a suffixed literal that becomes an
/// `f64` without it (`0.5f32` passed to `f64::from`, `2.5f32.into()`):
/// those are found here, by token.
#[test]
fn no_f32_literal_anywhere() {
    let sources = hyades_lint::collect_sources(&hyades_lint::workspace_root()).expect("sources");
    let hits: Vec<String> = (sources.iter())
        .flat_map(|(file, src)| {
            f32_literals(src)
                .into_iter()
                .map(move |(l, t)| format!("{file}:{l}: `{t}`"))
        })
        .collect();
    assert!(hits.is_empty(), "f32 literals:\n{}", hits.join("\n"));
}

#[test]
fn the_token_scans_read_attributes_and_literals_as_written() {
    let src = "#[expect(clippy::a, dead_code, reason = \"x\")]\n\
               // #[expect(not_code)]\n\
               #![expect(clippy::b)]\n\
               let s = \"#[expect(in_a_string)]\"; let x = 0.5f32; let y = 1f32;\n";
    assert_eq!(expected_lints(src), ["clippy::a", "dead_code", "clippy::b"]);
    assert_eq!(f32_literals(src), [(4, "0.5f32"), (4, "1f32")]);
}
