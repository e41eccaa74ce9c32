//! The rule names, the [`Finding`] every analysis reports, and the audit
//! of the one escape hatch.
//!
//! The per-file determinism rules are clippy settings (the root
//! `clippy.toml` and crate-level `unwrap_used` / `expect_used`; DESIGN §8
//! maps each old rule to its setting). Two rules are left here, both
//! whole-program:
//!
//! | rule                    | analysis            | forbids                                        |
//! |-------------------------|---------------------|------------------------------------------------|
//! | `nondet-reachable`      | [`crate::flow`]     | a declared sink that transitively reaches a `Nondet` function |
//! | `collective-divergence` | [`crate::uniform`]  | a collective reachable under a rank-dependent condition, or branch arms with unequal collective sequences |
//!
//! Either finding can be suppressed with an inline pragma:
//! `// lint:allow(rule-name, reason)` on the offending line, or on a
//! comment-only line directly above it. The reason is mandatory. A pragma
//! naming any other rule (a retired per-file one included) or giving no
//! reason is `bad-pragma`, and one that suppresses nothing is
//! `unused-pragma`, so the suppression set ratchets down.

use crate::passes::FileCtx;
use std::collections::BTreeSet;
use std::fmt;

pub const BAD_PRAGMA: &str = "bad-pragma";
pub const UNUSED_PRAGMA: &str = "unused-pragma";
/// Interprocedural rule ([`crate::flow`]): a declared sink (comms
/// reduction, telemetry exporter, DES trace) transitively
/// reaches a `Nondet`-classified function. Suppressible at the sink's
/// definition line.
pub const NONDET_REACHABLE: &str = "nondet-reachable";
/// Whole-program SPMD rule ([`crate::uniform`]): a collective call
/// (exchange, global reduction, barrier) is reachable under a
/// rank-dependent condition, or two paths through a function issue
/// unequal collective sequences — one rank would block in a collective
/// another rank never enters. Suppressible per site, or per function
/// with the pragma directly above the `fn`.
pub const COLLECTIVE_DIVERGENCE: &str = "collective-divergence";

/// The suppressible rules — the namespace `lint:allow` pragmas draw from.
pub const ALL_RULES: &[&str] = &[NONDET_REACHABLE, COLLECTIVE_DIVERGENCE];

/// One diagnostic. Renders as `file:line: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub rel_path: String,
    /// 1-based.
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.rel_path, self.line, self.rule, self.message
        )
    }
}

/// The pragma audit of one file. `used` holds the (file, pragma line) of
/// every pragma an analysis honoured.
pub(crate) fn audit(ctx: &FileCtx<'_>, used: &BTreeSet<(String, usize)>) -> Vec<Finding> {
    let finding = |line, rule, message| Finding {
        rel_path: ctx.rel_path.to_string(),
        line,
        rule,
        message,
    };
    (ctx.pragmas.iter())
        .filter_map(|p| {
            let rule = p.rule.as_str();
            if !ALL_RULES.contains(&rule) {
                let message = format!("pragma allows unknown rule `{rule}`");
                Some(finding(p.line, BAD_PRAGMA, message))
            } else if !p.has_reason {
                let message = format!("lint:allow({rule}) needs a reason: lint:allow({rule}, why)");
                Some(finding(p.line, BAD_PRAGMA, message))
            } else if !used.contains(&(ctx.rel_path.to_string(), p.line)) {
                let message = format!("lint:allow({rule}) suppresses nothing; remove it");
                Some(finding(p.line, UNUSED_PRAGMA, message))
            } else {
                None
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Workspace;

    /// One file through `uniform` and the audit: (line, rule) of each
    /// finding, sorted.
    fn findings(src: &str) -> Vec<(usize, &'static str)> {
        let sources = [("crates/comms/src/x.rs".to_string(), src.to_string())];
        let ws = Workspace::build(&sources);
        let un = crate::uniform::analyze_ws(&ws);
        let mut out: Vec<_> = (un.findings.iter())
            .chain(&audit(&ws.files[0], &un.used_allow))
            .map(|f| (f.line, f.rule))
            .collect();
        out.sort();
        out
    }

    const GUARDED: &str = "pub fn f(world: &mut dyn CommWorld) {\n    if world.rank() == 0 {\n        world.barrier();\n    }\n}\n";

    /// `GUARDED` with `pragma` inserted as line `at` (1-based).
    fn with_line(at: usize, pragma: &str) -> String {
        let mut lines: Vec<&str> = GUARDED.lines().collect();
        lines.insert(at - 1, pragma);
        lines.join("\n") + "\n"
    }

    #[test]
    fn pragma_suppresses_with_reason() {
        let same = GUARDED.replace(
            "== 0 {",
            "== 0 { // lint:allow(collective-divergence, demo)",
        );
        assert_eq!(findings(&same), vec![]);
        let above = with_line(2, "    // lint:allow(collective-divergence, demo)");
        assert_eq!(findings(&above), vec![]);
    }

    #[test]
    fn pragma_without_reason_rejected() {
        let src = with_line(2, "    // lint:allow(collective-divergence)");
        assert_eq!(
            findings(&src),
            vec![(2, BAD_PRAGMA), (3, COLLECTIVE_DIVERGENCE)]
        );
    }

    #[test]
    fn pragma_unknown_rule_rejected() {
        let src = "// lint:allow(no-such-rule, why)\nfn f() {}\n";
        assert_eq!(findings(src), vec![(1, BAD_PRAGMA)]);
    }

    /// Clippy carries the per-file rules, so a pragma naming one must not
    /// linger unseen.
    #[test]
    fn retired_rule_names_are_bad_pragmas() {
        let retired = "instant-wallclock unseeded-rng hash-iteration f32-in-gcm unwrap-in-lib \
                       float-reduce-unordered partial-cmp-unwrap float-sort-unstable schedule-no-tiebreak";
        for rule in retired.split_whitespace() {
            let src = format!("fn f() -> u8 {{\n    x.unwrap() // lint:allow({rule}, why)\n}}\n");
            assert_eq!(findings(&src), vec![(2, BAD_PRAGMA)], "{rule}");
        }
    }

    #[test]
    fn unused_pragma_flagged() {
        let src = "// lint:allow(collective-divergence, stale suppression)\nfn f() {}\n";
        assert_eq!(findings(src), vec![(1, UNUSED_PRAGMA)]);
    }

    #[test]
    fn used_pragma_not_flagged_unused() {
        let src = with_line(1, "// lint:allow(collective-divergence, rank 0 alone)");
        assert_eq!(findings(&src), vec![]);
    }

    #[test]
    fn doc_comments_do_not_carry_pragmas() {
        let src = with_line(
            1,
            "//! Use `lint:allow(rule, reason)` to suppress.\n/// e.g. lint:allow(collective-divergence, why)",
        );
        assert_eq!(
            findings(&src),
            vec![(4, COLLECTIVE_DIVERGENCE)],
            "doc mention must neither suppress nor be bad-pragma"
        );
    }

    #[test]
    fn display_format() {
        let f = Finding {
            rel_path: "crates/des/src/x.rs".into(),
            line: 3,
            rule: COLLECTIVE_DIVERGENCE,
            message: "m".into(),
        };
        assert_eq!(
            f.to_string(),
            "crates/des/src/x.rs:3: collective-divergence: m"
        );
    }
}
