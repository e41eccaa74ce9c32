//! The rule engine: repo-specific determinism and numerical-correctness
//! invariants, run over the token stream of [`crate::lexer`] via the
//! pass API of [`crate::passes`].
//!
//! | rule                    | scope                                   | forbids                                        |
//! |-------------------------|-----------------------------------------|------------------------------------------------|
//! | `instant-wallclock`     | everywhere                              | `std::time::Instant`, `Instant::now`, `SystemTime` |
//! | `unseeded-rng`          | everywhere                              | `thread_rng`, `from_entropy`, `rand::random`   |
//! | `hash-iteration`        | `des`, `arctic`, `comms`, `cluster`, `telemetry` | iterating `HashMap`/`HashSet` (keyed lookup ok)|
//! | `f32-in-gcm`            | `crates/gcm/src`                        | the `f32` type (the model is 64-bit)           |
//! | `unwrap-in-lib`         | event-ordering crates and `gcm`, non-test lib code | `.unwrap()` / `.expect(`                  |
//! | `float-reduce-unordered`| everywhere (tests too)                  | `.sum()`/`.product()`/`.fold()` over hash or `par_` iterators |
//! | `partial-cmp-unwrap`    | lib code, non-test                      | `partial_cmp(..).unwrap()` — use `total_cmp`   |
//! | `float-sort-unstable`   | `crates/gcm/`, `crates/core/src/perf/`  | `sort_unstable_by*` with a float comparator    |
//! | `schedule-no-tiebreak`  | event-ordering crates, lib code         | `BinaryHeap::push` keys without a `seq` tie-break |
//! | `collective-divergence` | whole-program ([`crate::uniform`])      | a collective reachable under a rank-dependent condition, or branch arms with unequal collective sequences |
//!
//! Any finding can be suppressed with an inline pragma:
//! `// lint:allow(rule-name, reason)` on the offending line, or on a
//! comment-only line directly above it. The reason is mandatory, and a
//! pragma that suppresses nothing is itself flagged (`unused-pragma`) so
//! the suppression set ratchets down. The whole-program rules honour the
//! same pragma, and nothing else suppresses a finding.

use crate::lexer::TokKind;
use crate::passes::FileCtx;
use std::collections::BTreeSet;
use std::fmt;

pub const INSTANT_WALLCLOCK: &str = "instant-wallclock";
pub const UNSEEDED_RNG: &str = "unseeded-rng";
pub const HASH_ITERATION: &str = "hash-iteration";
pub const F32_IN_GCM: &str = "f32-in-gcm";
pub const UNWRAP_IN_LIB: &str = "unwrap-in-lib";
pub const FLOAT_REDUCE_UNORDERED: &str = "float-reduce-unordered";
pub const PARTIAL_CMP_UNWRAP: &str = "partial-cmp-unwrap";
pub const FLOAT_SORT_UNSTABLE: &str = "float-sort-unstable";
pub const SCHEDULE_NO_TIEBREAK: &str = "schedule-no-tiebreak";
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
pub const ALL_RULES: &[&str] = &[
    INSTANT_WALLCLOCK,
    UNSEEDED_RNG,
    HASH_ITERATION,
    F32_IN_GCM,
    UNWRAP_IN_LIB,
    FLOAT_REDUCE_UNORDERED,
    PARTIAL_CMP_UNWRAP,
    FLOAT_SORT_UNSTABLE,
    SCHEDULE_NO_TIEBREAK,
    NONDET_REACHABLE,
    COLLECTIVE_DIVERGENCE,
];

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

/// A raw (pre-pragma) diagnostic.
struct Raw {
    line: usize,
    rule: &'static str,
    message: String,
}

type Pass = fn(&FileCtx<'_>, &mut Vec<Raw>);

const PASSES: &[Pass] = &[
    pass_sources,
    pass_f32_in_gcm,
    pass_unwrap_in_lib,
    pass_float_reduce,
    pass_partial_cmp_unwrap,
    pass_float_sort_unstable,
    pass_schedule_tiebreak,
];

fn event_ordering_crate(ctx: &FileCtx<'_>) -> bool {
    matches!(
        ctx.scope.crate_name.as_deref(),
        Some("des" | "arctic" | "startx" | "comms" | "cluster" | "telemetry")
    )
}

/// A token that reads nondeterminism (or seed-scoped determinism) into
/// the function owning it. [`pass_sources`] flags the first four kinds
/// as `instant-wallclock`, `unseeded-rng` and `hash-iteration`;
/// [`crate::flow`] reads every kind as an intrinsic effect.
pub(crate) enum Source<'a> {
    /// `SystemTime`, `time::Instant` or `Instant::now`, as spelled.
    Wallclock(&'static str),
    /// `thread_rng`, `from_entropy` or `rand::random`.
    Rng(&'static str),
    /// `recv.method()`: one of [`ITERATION_METHODS`] on a hash container.
    HashMethod(&'a str, &'a str),
    /// `for … in [&[mut ]][self.]name` over a hash container, with the
    /// token index of `name`.
    HashFor(usize, &'a str),
    /// `thread::current` or `ThreadId`.
    Thread(&'static str),
    /// `env::var`, `env::args` and their kin.
    Env(&'a str),
    /// `.fetch_add(` and the other atomic read-modify-writes.
    Atomic(&'a str),
    /// `.par_iter()` and the rest of [`PAR_METHODS`].
    Par(&'a str),
    /// `SplitMix64` or `seed_from_u64`: determinism modulo the seed.
    Seeded(&'a str),
}

impl Source<'_> {
    /// The per-file rule whose `lint:allow` removes the token from
    /// `flow`'s catalogue.
    pub(crate) fn rule(&self) -> Option<&'static str> {
        match self {
            Source::Wallclock(_) => Some(INSTANT_WALLCLOCK),
            Source::Rng(_) => Some(UNSEEDED_RNG),
            Source::HashMethod(..) | Source::HashFor(..) => Some(HASH_ITERATION),
            Source::Par(_) => Some(FLOAT_REDUCE_UNORDERED),
            Source::Thread(_) | Source::Env(_) | Source::Atomic(_) | Source::Seeded(_) => None,
        }
    }
}

/// Every [`Source`] token of the file, ascending. `hash_names` are the
/// names bound to a `HashMap` / `HashSet` in the file (keyed access —
/// `get`, `insert`, `remove`, `contains_key`, indexing — is fine;
/// iteration is not).
pub(crate) fn sources<'a>(
    ctx: &FileCtx<'a>,
    hash_names: &BTreeSet<String>,
) -> Vec<(usize, Source<'a>)> {
    (0..ctx.code.len())
        .filter(|&i| ctx.code[i].kind == TokKind::Ident)
        .filter_map(|i| Some((i, source_at(ctx, i, hash_names)?)))
        .collect()
}

fn source_at<'a>(ctx: &FileCtx<'a>, i: usize, hash_names: &BTreeSet<String>) -> Option<Source<'a>> {
    let pathed = |seg: &str| i >= 2 && ctx.is(i - 1, "::") && ctx.is_ident(i - 2, seg);
    let dotted = i >= 1 && ctx.is(i - 1, ".");
    match ctx.code[i].text {
        "SystemTime" => Some(Source::Wallclock("SystemTime")),
        "Instant" if pathed("time") => Some(Source::Wallclock("time::Instant")),
        "Instant" if ctx.is(i + 1, "::") && ctx.is_ident(i + 2, "now") => {
            Some(Source::Wallclock("Instant::now"))
        }
        "thread_rng" => Some(Source::Rng("thread_rng")),
        "from_entropy" => Some(Source::Rng("from_entropy")),
        "random" if pathed("rand") => Some(Source::Rng("rand::random")),
        "for" => {
            let (idx, name) = for_in_subject(ctx, i)?;
            (hash_names.contains(name) && !ctx.is(idx + 1, "."))
                .then_some(Source::HashFor(idx, name))
        }
        m if i >= 2
            && dotted
            && ctx.is(i + 1, "(")
            && ctx.kind(i - 2) == Some(TokKind::Ident)
            && hash_names.contains(ctx.text(i - 2))
            && ITERATION_METHODS.contains(&m) =>
        {
            Some(Source::HashMethod(ctx.text(i - 2), m))
        }
        "current" if pathed("thread") => Some(Source::Thread("thread::current")),
        "ThreadId" => Some(Source::Thread("ThreadId")),
        t @ ("var" | "vars" | "var_os" | "args" | "args_os") if pathed("env") => {
            Some(Source::Env(t))
        }
        t @ ("fetch_add"
        | "fetch_sub"
        | "fetch_and"
        | "fetch_or"
        | "fetch_xor"
        | "fetch_update"
        | "fetch_min"
        | "fetch_max"
        | "compare_exchange"
        | "compare_exchange_weak")
            if dotted && ctx.is(i + 1, "(") =>
        {
            Some(Source::Atomic(t))
        }
        t @ ("SplitMix64" | "seed_from_u64") => Some(Source::Seeded(t)),
        m if PAR_METHODS.contains(&m) && dotted => Some(Source::Par(m)),
        _ => None,
    }
}

/// Methods on a hash container whose results depend on hash-iteration
/// order.
const ITERATION_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "retain",
    "into_keys",
    "into_values",
];

/// R1–R3, one finding per [`Source`] token. R1: wall-clock time breaks
/// replayability of anything it touches (the one benchmark, `hbench/`, is
/// a workspace of its own and not scanned). R2: unseeded randomness is
/// nondeterminism by construction. R3: hash-iteration order can leak
/// into event ordering, so it is flagged in the event-ordering crates.
fn pass_sources(ctx: &FileCtx<'_>, out: &mut Vec<Raw>) {
    let hash_scope = event_ordering_crate(ctx);
    let mut last_wallclock_line = 0usize;
    for (i, source) in ctx.sources() {
        let (line, rule, message) = match *source {
            Source::Wallclock(tok) => {
                let line = ctx.line(*i);
                if line == last_wallclock_line {
                    continue;
                }
                last_wallclock_line = line;
                let message = format!("wall-clock `{tok}`; simulated time only");
                (line, INSTANT_WALLCLOCK, message)
            }
            Source::Rng(tok) => (
                ctx.line(*i),
                UNSEEDED_RNG,
                format!(
                    "unseeded RNG `{tok}`; use hyades_des::rng::SplitMix64 with an explicit seed"
                ),
            ),
            Source::HashMethod(recv, method) if hash_scope => (
                ctx.line(*i),
                HASH_ITERATION,
                format!(
                    "iterating hash container `{recv}` (`.{method}()`); order is nondeterministic — use BTreeMap/BTreeSet or keyed access"
                ),
            ),
            Source::HashFor(name_idx, name) if hash_scope => (
                ctx.line(name_idx),
                HASH_ITERATION,
                format!(
                    "`for … in {name}` iterates a hash container; order is nondeterministic"
                ),
            ),
            _ => continue,
        };
        out.push(Raw {
            line,
            rule,
            message,
        });
    }
}

/// For a `for` token at `i`, the identifier heading the iterated
/// expression (after `in`, past `&`/`mut`/`self.`).
fn for_in_subject<'a>(ctx: &FileCtx<'a>, i: usize) -> Option<(usize, &'a str)> {
    let j = ctx.find_at_depth0(i + 1, ctx.code.len(), &["in", "{", ";"]);
    let mut k = j.filter(|&j| ctx.is(j, "in"))? + 1;
    if ctx.is(k, "&") {
        k += 1;
    }
    if ctx.is(k, "mut") {
        k += 1;
    }
    if ctx.is_ident(k, "self") && ctx.is(k + 1, ".") {
        k += 2;
    }
    (ctx.kind(k) == Some(TokKind::Ident)).then(|| (k, ctx.code[k].text))
}

/// R4: the GCM is a 64-bit model (paper §5); f32 anywhere in its
/// kernels/solvers silently halves the precision of a reduction.
fn pass_f32_in_gcm(ctx: &FileCtx<'_>, out: &mut Vec<Raw>) {
    if ctx.scope.crate_name.as_deref() != Some("gcm") || !ctx.scope.in_src {
        return;
    }
    for i in 0..ctx.code.len() {
        let t = &ctx.code[i];
        let hit = t.is_ident("f32")
            || (matches!(t.kind, TokKind::Float | TokKind::Int) && t.text.ends_with("f32"));
        if hit {
            out.push(Raw {
                line: ctx.line(i),
                rule: F32_IN_GCM,
                message: "`f32` in the GCM; the model is 64-bit end to end".to_string(),
            });
        }
    }
}

/// R5: panicking on Err/None in library code of the simulation crates
/// and (since the run-health observatory made its failure paths
/// load-bearing) the GCM. A panic that cannot happen carries a reasoned
/// `lint:allow`.
fn pass_unwrap_in_lib(ctx: &FileCtx<'_>, out: &mut Vec<Raw>) {
    let in_scope = event_ordering_crate(ctx) || ctx.scope.crate_name.as_deref() == Some("gcm");
    if !in_scope || !ctx.scope.in_src {
        return;
    }
    for i in 0..ctx.code.len() {
        let t = &ctx.code[i];
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && i >= 1
            && ctx.is(i - 1, ".")
            && ctx.is(i + 1, "(")
            && !ctx.in_test[i]
        {
            out.push(Raw {
                line: ctx.line(i),
                rule: UNWRAP_IN_LIB,
                message: "`.unwrap()`/`.expect(` in non-test library code; return an error or annotate with lint:allow".to_string(),
            });
        }
    }
}

/// Rayon-style parallel-iterator constructors: reduction order over
/// these is scheduling-dependent.
const PAR_METHODS: &[&str] = &["par_iter", "par_iter_mut", "into_par_iter", "par_bridge"];

const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// R6: float reductions over unordered iterators. `sum::<f64>()` over a
/// `HashMap` gives a different bit pattern per run (addition does not
/// commute with reordering); same for `par_`-style iterators where the
/// reduction tree is scheduling-dependent. Integer turbofish reductions
/// are exact and exempt. Applies to tests too — the determinism gates
/// compare test output bit-for-bit.
fn pass_float_reduce(ctx: &FileCtx<'_>, out: &mut Vec<Raw>) {
    for i in 0..ctx.code.len() {
        let t = &ctx.code[i];
        if t.kind != TokKind::Ident || !matches!(t.text, "sum" | "product" | "fold") {
            continue;
        }
        if i == 0 || !ctx.is(i - 1, ".") {
            continue;
        }
        let Some(open) = ctx.call_open(i) else {
            continue;
        };
        if open > i + 1 {
            // Turbofish present: exact (integer) accumulators commute.
            let ty: Vec<&str> = (i + 2..open - 1).map(|k| ctx.text(k)).collect();
            let integral = ty.iter().any(|s| INT_TYPES.contains(s));
            let floaty = ty.iter().any(|s| matches!(*s, "f32" | "f64"));
            if integral && !floaty {
                continue;
            }
        }
        let (base, methods) = ctx.chain_back(i - 1);
        let hash_base = base.is_some_and(|b| ctx.hash_names().contains(b));
        let par_method = methods.iter().find(|m| PAR_METHODS.contains(m));
        let culprit = if hash_base {
            base.map(|b| format!("hash container `{b}`"))
        } else {
            par_method.map(|m| format!("parallel iterator `.{m}()`"))
        };
        if let Some(what) = culprit {
            out.push(Raw {
                line: ctx.line(i),
                rule: FLOAT_REDUCE_UNORDERED,
                message: format!(
                    "float `.{}()` over {what}; reduction order is nondeterministic — iterate a BTree/sorted order",
                    t.text
                ),
            });
        }
    }
}

/// R7: `partial_cmp(..).unwrap()` in library code panics on NaN and
/// invites ad-hoc comparator rewrites; `f64::total_cmp` is total and
/// deterministic.
fn pass_partial_cmp_unwrap(ctx: &FileCtx<'_>, out: &mut Vec<Raw>) {
    if !ctx.scope.in_src {
        return;
    }
    for i in 0..ctx.code.len() {
        if !ctx.code[i].is_ident("partial_cmp") || i == 0 || !ctx.is(i - 1, ".") {
            continue;
        }
        if ctx.in_test[i] {
            continue;
        }
        let Some(close) = (ctx.is(i + 1, "("))
            .then(|| ctx.bracket_partner(i + 1))
            .flatten()
        else {
            continue;
        };
        if ctx.is(close + 1, ".") && ctx.is_ident(close + 2, "unwrap") && ctx.is(close + 3, "(") {
            out.push(Raw {
                line: ctx.line(i),
                rule: PARTIAL_CMP_UNWRAP,
                message: "`partial_cmp(..).unwrap()` in library code; use `f64::total_cmp` (total over NaN, deterministic)".to_string(),
            });
        }
    }
}

/// R8: unstable sorts keyed on floats in the numerical code — the GCM
/// and the performance model (`core::perf`): tie order is
/// implementation-defined, and a refactor away from a panic on NaN. The
/// observatory/telemetry sorters use stable sorts + `total_cmp`.
fn pass_float_sort_unstable(ctx: &FileCtx<'_>, out: &mut Vec<Raw>) {
    if !["crates/gcm/", "crates/core/src/perf/"]
        .iter()
        .any(|dir| ctx.rel_path.starts_with(dir))
    {
        return;
    }
    for i in 0..ctx.code.len() {
        let t = &ctx.code[i];
        if t.kind != TokKind::Ident
            || !matches!(t.text, "sort_unstable_by" | "sort_unstable_by_key")
            || i == 0
            || !ctx.is(i - 1, ".")
            || !ctx.is(i + 1, "(")
        {
            continue;
        }
        let Some(close) = ctx.bracket_partner(i + 1) else {
            continue;
        };
        let floaty = (i + 2..close)
            .any(|k| matches!(ctx.text(k), "partial_cmp" | "total_cmp" | "f64" | "f32"));
        if floaty {
            out.push(Raw {
                line: ctx.line(i),
                rule: FLOAT_SORT_UNSTABLE,
                message: format!(
                    "`.{}()` with a float comparator; tie order is implementation-defined — use a stable sort with `total_cmp`",
                    t.text
                ),
            });
        }
    }
}

/// R9: every DES schedule key must carry the insertion-sequence
/// tie-break — `(time, seq)` — or equal-time events pop in arbitrary
/// order (the exact bug class `EventQueue` exists to prevent).
fn pass_schedule_tiebreak(ctx: &FileCtx<'_>, out: &mut Vec<Raw>) {
    if !event_ordering_crate(ctx) || !ctx.scope.in_src {
        return;
    }
    let heaps = ctx.bound_names(&["BinaryHeap"]);
    if heaps.is_empty() {
        return;
    }
    for i in 0..ctx.code.len() {
        if !ctx.code[i].is_ident("push")
            || i < 2
            || !ctx.is(i - 1, ".")
            || ctx.kind(i - 2) != Some(TokKind::Ident)
            || !heaps.contains(ctx.text(i - 2))
            || !ctx.is(i + 1, "(")
        {
            continue;
        }
        let Some(close) = ctx.bracket_partner(i + 1) else {
            continue;
        };
        let has_tiebreak = (i + 2..close).any(|k| {
            matches!(ctx.text(k), "seq" | "tiebreak") && ctx.kind(k) == Some(TokKind::Ident)
        });
        if !has_tiebreak {
            out.push(Raw {
                line: ctx.line(i),
                rule: SCHEDULE_NO_TIEBREAK,
                message: format!(
                    "`{}.push(..)` key has no `seq`/`tiebreak` component; equal-time events would pop in nondeterministic order",
                    ctx.text(i - 2)
                ),
            });
        }
    }
}

/// Run every rule over one file and apply its pragmas. `rel_path` is
/// workspace-relative with `/` separators.
pub fn analyze(rel_path: &str, source: &str) -> Vec<Finding> {
    analyze_ctx(&FileCtx::new(rel_path, source))
}

/// [`analyze`] over an already-lexed file.
pub(crate) fn analyze_ctx(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let rel_path = ctx.rel_path;
    let mut raw: Vec<Raw> = Vec::new();
    for pass in PASSES {
        pass(ctx, &mut raw);
    }

    // Every reasoned pragma covering a finding's line is used; unknown
    // rules and missing reasons are findings, and so are pragmas that
    // suppress nothing.
    let mut used = vec![false; ctx.pragmas.len()];
    let mut out: Vec<Finding> = Vec::new();
    for r in raw {
        let mut allowed = false;
        for k in ctx.allows(r.rule, r.line) {
            used[k] = true;
            allowed = true;
        }
        if !allowed {
            out.push(Finding {
                rel_path: rel_path.to_string(),
                line: r.line,
                rule: r.rule,
                message: r.message,
            });
        }
    }

    for (pidx, p) in ctx.pragmas.iter().enumerate() {
        if !ALL_RULES.contains(&p.rule.as_str()) {
            out.push(Finding {
                rel_path: rel_path.to_string(),
                line: p.line,
                rule: BAD_PRAGMA,
                message: format!("pragma allows unknown rule `{}`", p.rule),
            });
        } else if !p.has_reason {
            out.push(Finding {
                rel_path: rel_path.to_string(),
                line: p.line,
                rule: BAD_PRAGMA,
                message: format!(
                    "lint:allow({}) needs a reason: lint:allow({}, why)",
                    p.rule, p.rule
                ),
            });
        } else if !used[pidx] {
            out.push(Finding {
                rel_path: rel_path.to_string(),
                line: p.line,
                rule: UNUSED_PRAGMA,
                message: format!("lint:allow({}) suppresses nothing; remove it", p.rule),
            });
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(rel: &str, src: &str) -> Vec<&'static str> {
        analyze(rel, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn thread_rng_is_flagged() {
        let hits = rules_hit("crates/des/src/x.rs", "let r = rand::thread_rng();\n");
        assert_eq!(hits, vec![UNSEEDED_RNG]);
    }

    #[test]
    fn rng_in_string_or_comment_is_not_flagged() {
        let src = "// never call thread_rng\nlet s = \"thread_rng\";\n";
        assert!(rules_hit("crates/des/src/x.rs", src).is_empty());
    }

    #[test]
    fn instant_flagged() {
        let src = "let t0 = std::time::Instant::now();\n";
        assert!(rules_hit("crates/des/src/x.rs", src).contains(&INSTANT_WALLCLOCK));
    }

    #[test]
    fn bare_instant_type_not_flagged() {
        // An unqualified `Instant` ident (e.g. a local type) is not the
        // std one; only `time::Instant` paths and `Instant::now` fire.
        let src = "fn f(x: Instant) {}\n";
        assert!(rules_hit("crates/des/src/x.rs", src).is_empty());
    }

    #[test]
    fn hash_lookup_ok_iteration_flagged() {
        let keyed =
            "struct S { early: HashMap<u32, f64> }\nfn f(s: &mut S) { s.early.remove(&1); }\n";
        assert!(rules_hit("crates/comms/src/x.rs", keyed).is_empty());
        let iterated = "struct S { early: HashMap<u32, f64> }\nfn f(s: &S) { for (k, v) in s.early.iter() {} }\n";
        assert_eq!(
            rules_hit("crates/comms/src/x.rs", iterated),
            vec![HASH_ITERATION]
        );
        let for_loop = "let mut m = HashMap::new();\nfor v in &m {}\n";
        assert_eq!(
            rules_hit("crates/des/src/x.rs", for_loop),
            vec![HASH_ITERATION]
        );
    }

    #[test]
    fn hash_iteration_outside_scope_crates_ignored() {
        let src = "let mut m = HashMap::new();\nfor v in m.values() {}\n";
        assert!(rules_hit("crates/gcm/src/x.rs", src).is_empty());
    }

    #[test]
    fn f32_only_in_gcm_src() {
        let src = "let x: f32 = 0.0;\n";
        assert_eq!(
            rules_hit("crates/gcm/src/kernel/k.rs", src),
            vec![F32_IN_GCM]
        );
        assert!(rules_hit("crates/core/src/perf/x.rs", src).is_empty());
        assert!(rules_hit("crates/gcm/tests/t.rs", src).is_empty());
    }

    #[test]
    fn f32_literal_suffix_flagged_in_gcm() {
        let src = "let x = 1.0f32;\n";
        assert_eq!(rules_hit("crates/gcm/src/k.rs", src), vec![F32_IN_GCM]);
    }

    #[test]
    fn unwrap_in_lib_scoped_and_test_exempt() {
        let src =
            "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n  fn g() { y.unwrap(); }\n}\n";
        let hits = analyze("crates/des/src/x.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 1);
        assert!(rules_hit("crates/des/tests/t.rs", src).is_empty());
        // The GCM is in the rule's scope too: the run-health
        // observatory makes its failure paths load-bearing.
        let gcm_hits = analyze("crates/gcm/src/x.rs", src);
        assert_eq!(gcm_hits.len(), 1, "{gcm_hits:?}");
        assert!(rules_hit("crates/gcm/tests/t.rs", src).is_empty());
        // The widened scope is rule-local: gcm stays outside the
        // event-ordering passes (hash iteration is only flagged in the
        // des/arctic/startx/comms/cluster/telemetry crates).
        let hash_src = "let mut m = HashMap::new();\nfor v in m.values() {}\n";
        assert!(!rules_hit("crates/gcm/src/x.rs", hash_src).contains(&HASH_ITERATION));
        assert!(rules_hit("crates/des/src/x.rs", hash_src).contains(&HASH_ITERATION));
    }

    #[test]
    fn cluster_crate_in_unwrap_scope() {
        // `cluster` is in the rule's scope, with the sampler-carrying
        // `ethernet_sim`; its lib code must stay clean.
        let unwrap_src = "fn f() { x.unwrap(); }\n";
        assert_eq!(
            rules_hit("crates/cluster/src/ethernet_sim.rs", unwrap_src),
            vec![UNWRAP_IN_LIB]
        );
        assert!(rules_hit("crates/cluster/tests/t.rs", unwrap_src).is_empty());
        // The VI leg that every exchange runs lives in `startx`.
        assert_eq!(
            rules_hit("crates/startx/src/vi.rs", unwrap_src),
            vec![UNWRAP_IN_LIB]
        );
    }

    #[test]
    fn telemetry_crate_in_scope() {
        let unwrap_src = "fn f() { x.unwrap(); }\n";
        assert_eq!(
            rules_hit("crates/telemetry/src/x.rs", unwrap_src),
            vec![UNWRAP_IN_LIB]
        );
        let iter_src = "let mut m = HashMap::new();\nfor v in m.values() {}\n";
        assert_eq!(
            rules_hit("crates/telemetry/src/x.rs", iter_src),
            vec![HASH_ITERATION]
        );
    }

    #[test]
    fn unwrap_or_else_not_flagged() {
        let src = "fn f() { x.unwrap_or_else(|| 3); y.expect_err(\"no\"); }\n";
        assert!(rules_hit("crates/des/src/x.rs", src).is_empty());
    }

    #[test]
    fn float_sum_over_hashmap_flagged_everywhere() {
        let src = "let mut par = HashMap::new();\nlet m: f64 = par.values().sum::<f64>() / par.len() as f64;\n";
        // Including outside the event-ordering crates, and in tests.
        assert_eq!(
            rules_hit("crates/gcm/src/solver/cg.rs", src),
            vec![FLOAT_REDUCE_UNORDERED]
        );
        assert_eq!(
            rules_hit("crates/gcm/tests/t.rs", src),
            vec![FLOAT_REDUCE_UNORDERED]
        );
    }

    #[test]
    fn integer_sum_over_hashmap_not_flagged() {
        // Integer addition commutes: counting via `sum::<usize>()` is
        // order-insensitive.
        let src = "let mut m = HashMap::new();\nlet n: usize = m.values().sum::<usize>();\n";
        assert!(rules_hit("crates/gcm/src/x.rs", src).is_empty());
    }

    #[test]
    fn sum_over_vec_not_flagged() {
        let src = "let v: Vec<f64> = vec![];\nlet s: f64 = v.iter().sum::<f64>();\n";
        assert!(rules_hit("crates/gcm/src/x.rs", src).is_empty());
    }

    #[test]
    fn fold_over_par_iter_flagged() {
        let src = "let s = xs.par_iter().fold(0.0, |a, b| a + b);\n";
        assert_eq!(
            rules_hit("crates/gcm/src/x.rs", src),
            vec![FLOAT_REDUCE_UNORDERED]
        );
    }

    #[test]
    fn partial_cmp_unwrap_in_lib_flagged() {
        let src = "fn f(a: f64, b: f64) { xs.sort_by(|x, y| x.partial_cmp(y).unwrap()); }\n";
        assert_eq!(
            rules_hit("crates/core/src/perf/x.rs", src),
            vec![PARTIAL_CMP_UNWRAP]
        );
        // Tests and non-src files are exempt (assertion helpers).
        assert!(rules_hit("crates/core/tests/t.rs", src).is_empty());
        let test_src = format!("#[cfg(test)]\nmod t {{\n{src}}}\n");
        assert!(rules_hit("crates/core/src/perf/x.rs", &test_src).is_empty());
    }

    #[test]
    fn float_sort_unstable_scoped_to_numerical_code() {
        let src = "xs.sort_unstable_by(|a, b| a.total_cmp(b));\n";
        assert_eq!(
            rules_hit("crates/gcm/src/x.rs", src),
            vec![FLOAT_SORT_UNSTABLE]
        );
        assert!(rules_hit("crates/arctic/src/x.rs", src).is_empty());
        // Non-float comparator is fine.
        let by_id = "xs.sort_unstable_by(|a, b| a.id.cmp(&b.id));\n";
        assert!(rules_hit("crates/gcm/src/x.rs", by_id).is_empty());
    }

    #[test]
    fn float_sort_unstable_covers_the_performance_model() {
        // The model is a module of `core`, so the scope is its directory,
        // not a crate name; the rest of `core` stays out.
        let src = "xs.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(Equal));\n";
        assert_eq!(
            rules_hit("crates/core/src/perf/x.rs", src),
            vec![FLOAT_SORT_UNSTABLE]
        );
        assert!(rules_hit("crates/core/src/tour.rs", src).is_empty());
    }

    #[test]
    fn heap_push_without_tiebreak_flagged() {
        let bad = "struct Q { heap: BinaryHeap<E> }\nfn f(q: &mut Q, at: u64) { q.heap.push(E { time: at }); }\n";
        assert_eq!(
            rules_hit("crates/des/src/x.rs", bad),
            vec![SCHEDULE_NO_TIEBREAK]
        );
        let good = "struct Q { heap: BinaryHeap<E> }\nfn f(q: &mut Q, at: u64, seq: u64) { q.heap.push(E { time: at, seq }); }\n";
        assert!(rules_hit("crates/des/src/x.rs", good).is_empty());
        // Out of the event-ordering crates: no opinion.
        assert!(rules_hit("crates/gcm/src/x.rs", bad).is_empty());
    }

    #[test]
    fn pragma_suppresses_with_reason() {
        let same = "let t = Instant::now(); // lint:allow(instant-wallclock, demo timer)\n";
        assert!(rules_hit("crates/des/src/x.rs", same).is_empty());
        let above = "// lint:allow(instant-wallclock, demo timer)\nlet t = Instant::now();\n";
        assert!(rules_hit("crates/des/src/x.rs", above).is_empty());
    }

    #[test]
    fn pragma_without_reason_rejected() {
        let src = "let t = Instant::now(); // lint:allow(instant-wallclock)\n";
        let hits = rules_hit("crates/des/src/x.rs", src);
        assert!(hits.contains(&INSTANT_WALLCLOCK), "finding not suppressed");
        assert!(hits.contains(&BAD_PRAGMA));
    }

    #[test]
    fn doc_comments_do_not_carry_pragmas() {
        let src = "//! Use `lint:allow(rule, reason)` to suppress.\n/// e.g. lint:allow(instant-wallclock, why)\nlet t = Instant::now();\n";
        let hits = rules_hit("crates/des/src/x.rs", src);
        assert_eq!(
            hits,
            vec![INSTANT_WALLCLOCK],
            "doc mention must neither suppress nor be bad-pragma"
        );
    }

    #[test]
    fn pragma_unknown_rule_rejected() {
        let src = "// lint:allow(no-such-rule, why)\nlet x = 1;\n";
        assert_eq!(rules_hit("crates/des/src/x.rs", src), vec![BAD_PRAGMA]);
    }

    #[test]
    fn unused_pragma_flagged() {
        let src = "// lint:allow(unseeded-rng, stale suppression)\nlet x = 1;\n";
        let findings = analyze("crates/des/src/x.rs", src);
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec![UNUSED_PRAGMA]);
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn used_pragma_not_flagged_unused() {
        let src = "let r = thread_rng(); // lint:allow(unseeded-rng, fixture)\n";
        let findings = analyze("crates/des/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn new_rules_are_suppressible() {
        let src = "let mut m = HashMap::new();\nlet s: f64 = m.values().sum::<f64>(); // lint:allow(float-reduce-unordered, demo of the hazard)\n";
        assert!(rules_hit("crates/gcm/src/x.rs", src).is_empty());
    }

    #[test]
    fn display_format() {
        let f = Finding {
            rel_path: "crates/des/src/x.rs".into(),
            line: 3,
            rule: UNSEEDED_RNG,
            message: "m".into(),
        };
        assert_eq!(f.to_string(), "crates/des/src/x.rs:3: unseeded-rng: m");
    }
}
