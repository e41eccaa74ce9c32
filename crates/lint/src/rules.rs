//! The rule names and the [`Finding`] every analysis reports.
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
//! Neither finding can be suppressed: a false positive is fixed in the
//! analysis or in the code it reads.

use std::fmt;

/// Interprocedural rule ([`crate::flow`]): a declared sink (comms
/// reduction, telemetry exporter, DES trace) transitively
/// reaches a `Nondet`-classified function.
pub const NONDET_REACHABLE: &str = "nondet-reachable";
/// Whole-program SPMD rule ([`crate::uniform`]): a collective call
/// (exchange, global reduction, barrier) is reachable under a
/// rank-dependent condition, or two paths through a function issue
/// unequal collective sequences — one rank would block in a collective
/// another rank never enters.
pub const COLLECTIVE_DIVERGENCE: &str = "collective-divergence";

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

#[cfg(test)]
mod tests {
    use super::*;

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
