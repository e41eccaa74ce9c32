//! Baseline tracking for the `unwrap-in-lib` burndown and the
//! `lint:allow` pragma budget.
//!
//! The seed tree predates R5, so it carries a stock of `.unwrap()` /
//! `.expect(` calls in library code. Rather than annotate them all (which
//! would bless them forever), we check in a per-file count baseline:
//!
//! * count > baseline  → violation (new panics were added);
//! * count == baseline → quiet;
//! * count < baseline  → informational ratchet note; regenerate the file
//!   with `cargo run -p hyades-lint -- --write-baseline` to lock in the
//!   improvement.
//!
//! Since PR 4 the same ratchet covers `pragma-allow`: every valid
//! `lint:allow(rule, reason)` pragma counts against a per-file budget,
//! so new suppressions fail until deliberately baselined, and stale ones
//! fail as `unused-pragma`.
//!
//! Format, one entry per line, sorted: `path rule count`.

use crate::rules::Finding;
use std::collections::BTreeMap;

/// Rules whose findings are counted against the baseline instead of
/// failing outright: the two budgets. Every other finding fails, or is
/// accepted with a `lint:allow` pragma that `pragma-allow` counts.
pub const BASELINED_RULES: &[&str] = &[crate::rules::UNWRAP_IN_LIB, crate::rules::PRAGMA_ALLOW];

/// (path, rule) → allowed count.
pub type Baseline = BTreeMap<(String, String), usize>;

pub fn parse(text: &str) -> Result<Baseline, String> {
    let mut out = Baseline::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (path, rule, count) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(p), Some(r), Some(c), None) => (p, r, c),
            _ => {
                return Err(format!(
                    "baseline line {}: expected `path rule count`",
                    idx + 1
                ))
            }
        };
        if !BASELINED_RULES.contains(&rule) {
            return Err(format!("baseline line {}: `{rule}` has no budget", idx + 1));
        }
        let count: usize = count
            .parse()
            .map_err(|_| format!("baseline line {}: bad count `{count}`", idx + 1))?;
        out.insert((path.to_string(), rule.to_string()), count);
    }
    Ok(out)
}

pub fn render(baseline: &Baseline) -> String {
    let mut s = String::from(
        "# hyades-lint baseline: unwrap-in-lib counts and the lint:allow pragma\n\
         # budget (pragma-allow) — burn-down-only ratchets.\n\
         # Regenerate with: cargo run -p hyades-lint -- --write-baseline\n",
    );
    for ((path, rule), count) in baseline {
        s.push_str(&format!("{path} {rule} {count}\n"));
    }
    s
}

/// Build a baseline from a set of findings (used by `--write-baseline`).
pub fn from_findings(findings: &[Finding]) -> Baseline {
    let mut out = Baseline::new();
    for f in findings {
        if BASELINED_RULES.contains(&f.rule) {
            *out.entry((f.rel_path.clone(), f.rule.to_string()))
                .or_insert(0) += 1;
        }
    }
    out
}

/// Split findings into hard violations and ratchet notes given a
/// baseline. Baselined findings at or under their per-file allowance are
/// swallowed; files that improved produce a note string.
pub fn apply(findings: Vec<Finding>, baseline: &Baseline) -> (Vec<Finding>, Vec<String>) {
    let actual = from_findings(&findings);
    let mut violations = Vec::new();
    let mut notes = Vec::new();

    for f in findings {
        if !BASELINED_RULES.contains(&f.rule) {
            violations.push(f);
            continue;
        }
        let key = (f.rel_path.clone(), f.rule.to_string());
        let allowed = baseline.get(&key).copied().unwrap_or(0);
        let have = actual.get(&key).copied().unwrap_or(0);
        if have > allowed {
            violations.push(Finding {
                message: format!("{} ({have} in file, baseline allows {allowed})", f.message),
                ..f
            });
        }
    }

    for ((path, rule), allowed) in baseline {
        let have = actual
            .get(&(path.clone(), rule.clone()))
            .copied()
            .unwrap_or(0);
        if have < *allowed {
            notes.push(format!(
                "{path}: {rule}: improved {allowed} -> {have}; run `cargo run -p hyades-lint -- --write-baseline` to ratchet"
            ));
        }
    }
    (violations, notes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{Finding, UNWRAP_IN_LIB};

    fn f(path: &str, line: usize) -> Finding {
        Finding {
            rel_path: path.to_string(),
            line,
            rule: UNWRAP_IN_LIB,
            message: "panic in lib".to_string(),
        }
    }

    #[test]
    fn roundtrip() {
        let mut b = Baseline::new();
        b.insert(("crates/des/src/sim.rs".into(), UNWRAP_IN_LIB.into()), 8);
        let parsed = parse(&render(&b)).unwrap();
        assert_eq!(parsed, b);
    }

    #[test]
    fn at_baseline_is_quiet() {
        let findings = vec![f("a.rs", 1), f("a.rs", 2)];
        let b = from_findings(&findings);
        let (viol, notes) = apply(findings, &b);
        assert!(viol.is_empty());
        assert!(notes.is_empty());
    }

    #[test]
    fn over_baseline_fails() {
        let findings = vec![f("a.rs", 1), f("a.rs", 2)];
        let mut b = Baseline::new();
        b.insert(("a.rs".into(), UNWRAP_IN_LIB.into()), 1);
        let (viol, _) = apply(findings, &b);
        assert_eq!(viol.len(), 2);
        assert!(viol[0].message.contains("baseline allows 1"));
    }

    #[test]
    fn under_baseline_notes_ratchet() {
        let findings = vec![f("a.rs", 1)];
        let mut b = Baseline::new();
        b.insert(("a.rs".into(), UNWRAP_IN_LIB.into()), 3);
        let (viol, notes) = apply(findings, &b);
        assert!(viol.is_empty());
        assert_eq!(notes.len(), 1);
        assert!(notes[0].contains("3 -> 1"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("a.rs unwrap-in-lib many").is_err());
        assert!(parse("just-two fields").is_err());
        let err = parse("a.rs unwrap-in-lib 1\nb.rs collective-divergence 1").unwrap_err();
        assert!(
            err.contains("line 2") && err.contains("collective-divergence"),
            "{err}"
        );
        assert!(parse("a.rs unwrap-in-lbi 1").is_err());
        assert!(parse("# comment\n\n").unwrap().is_empty());
    }
}
