//! `lint::flow` — whole-program interprocedural determinism analysis.
//!
//! Clippy's type and method bans catch nondeterminism *sources* where
//! they are written; nothing there proves a source can't flow through a
//! call chain into a reduction or an exported artifact. This module
//! closes that gap with three layers on the shared front end
//! ([`crate::graph::Workspace`]):
//!
//! 1. **Function table + call graph** come from the workspace: every
//!    `fn` item (free functions, inherent/trait-impl methods, trait
//!    default bodies) is a node qualified by a module path derived from
//!    its file (`comms::world::ThreadWorld::exchange`), and every call
//!    site is already resolved (see [`crate::graph`] for the order; an
//!    unknown receiver type falls back to *every* same-named method — an
//!    over-approximation that keeps dynamic dispatch sound).
//! 2. **Effect lattice.** `Det < DetModuloSeed < Nondet` over each
//!    file's one source list (`sources`): wall-clock reads, unseeded
//!    RNG, hash-container
//!    iteration, thread identity, env/args reads, atomic
//!    read-modify-write, parallel-iterator methods; `SplitMix64` (and
//!    `seed_from_u64`) mark `DetModuloSeed`. A function's intrinsic
//!    effect comes from the entries its token spans own. A fixpoint
//!    propagates the join over the call graph: `effect(f) =
//!    max(intrinsic(f), max over callees of effect)`. Callees outside
//!    the workspace contribute `Det` — the catalog covers the
//!    nondeterministic std surface at the call site itself.
//! 3. **Sink check.** Declared sinks — comms reductions, telemetry
//!    exporters, the DES trace dump — must end
//!    `Det` or `DetModuloSeed`. A sink that transitively reaches
//!    `Nondet` code outside test scope is a `nondet-reachable` finding
//!    carrying the witness call chain. Test-scope functions (`tests/`,
//!    `#[cfg(test)]`) are never resolved as callees of non-test code.

use crate::graph::{self, Fixpoint, Workspace};
use crate::lexer::TokKind;
use crate::passes::FileCtx;
use crate::rules::{Finding, NONDET_REACHABLE};
use std::collections::BTreeSet;

/// The effect lattice, ordered: `Det < DetModuloSeed < Nondet`.
///
/// `Det` — same output every run. `DetModuloSeed` — same output for a
/// given explicit seed (the repo's contract for every simulation).
/// `Nondet` — output can differ between runs with identical inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Effect {
    Det,
    DetModuloSeed,
    Nondet,
}

impl Effect {
    pub fn name(self) -> &'static str {
        match self {
            Effect::Det => "Det",
            Effect::DetModuloSeed => "DetModuloSeed",
            Effect::Nondet => "Nondet",
        }
    }
}

/// A declared sink: a function whose output leaves the simulation
/// (reduction result, exported artifact, trace). Matched by name plus a
/// path fragment so renames don't silently drop coverage — a spec that
/// matches nothing is itself a finding.
pub struct SinkSpec {
    pub name: &'static str,
    pub path_hint: &'static str,
    pub what: &'static str,
}

/// The workspace sink list: every function whose result is published as
/// a paper artefact or feeds one (reductions, exporters, traces).
/// `lint_workspace` proves each reaches only `Det` / `DetModuloSeed` code.
pub const WORKSPACE_SINKS: &[SinkSpec] = &[
    SinkSpec {
        name: "exchange",
        path_hint: "crates/comms/src/",
        what: "comms halo exchange",
    },
    SinkSpec {
        name: "global_sum",
        path_hint: "crates/comms/src/",
        what: "comms reduction",
    },
    SinkSpec {
        name: "global_sum_vec",
        path_hint: "crates/comms/src/",
        what: "comms reduction",
    },
    SinkSpec {
        name: "global_max",
        path_hint: "crates/comms/src/",
        what: "comms reduction",
    },
    SinkSpec {
        name: "measure_gsum",
        path_hint: "crates/comms/src/gsum.rs",
        what: "comms reduction driver",
    },
    SinkSpec {
        name: "measure_gsum_tree",
        path_hint: "crates/comms/src/gsum.rs",
        what: "comms reduction driver",
    },
    SinkSpec {
        name: "measure_exchange",
        path_hint: "crates/comms/src/exchange.rs",
        what: "comms exchange driver",
    },
    SinkSpec {
        name: "exchange3",
        path_hint: "crates/gcm/src/halo.rs",
        what: "GCM halo exchange",
    },
    SinkSpec {
        name: "chrome_trace_json",
        path_hint: "crates/telemetry/src/export.rs",
        what: "telemetry Chrome trace exporter",
    },
    SinkSpec {
        name: "text_summary",
        path_hint: "crates/telemetry/src/export.rs",
        what: "telemetry text exporter",
    },
    SinkSpec {
        name: "collect",
        path_hint: "crates/arctic/src/observatory.rs",
        what: "fabric observatory report",
    },
    SinkSpec {
        name: "dump",
        path_hint: "crates/des/src/trace.rs",
        what: "DES trace output",
    },
    SinkSpec {
        name: "write_artifacts_to_dir",
        path_hint: "crates/telemetry/src/artifact.rs",
        what: "unified artifact writer",
    },
];

/// One function's inferred effect, for the rendered effect table.
#[derive(Debug, Clone)]
pub struct FnEffect {
    pub qual: String,
    pub file: String,
    pub line: usize,
    pub effect: Effect,
    pub is_test: bool,
    /// Intrinsic source that set this function's own effect, if any:
    /// (line, description).
    pub source: Option<(usize, String)>,
}

/// One matched sink and its verdict.
#[derive(Debug, Clone)]
pub struct SinkResult {
    pub name: &'static str,
    pub what: &'static str,
    pub qual: String,
    pub file: String,
    pub line: usize,
    pub effect: Effect,
    /// Witness chain from the sink towards the function whose intrinsic
    /// effect dominates (just the sink itself when intrinsically clean).
    pub chain: Vec<String>,
}

/// Everything the analysis produced, in deterministic order.
pub struct FlowReport {
    pub functions: usize,
    pub call_edges: usize,
    /// Sorted by qualified name.
    pub fns: Vec<FnEffect>,
    /// In `WORKSPACE_SINKS` order, then definition order.
    pub sinks: Vec<SinkResult>,
    /// `nondet-reachable` findings.
    pub findings: Vec<Finding>,
}

impl FlowReport {
    /// Stable text rendering for golden tests: effect table, sink
    /// verdicts, findings.
    pub fn render_golden(&self) -> String {
        let mut s = String::new();
        for f in &self.fns {
            s.push_str(&format!("fn {} {}", f.qual, f.effect.name()));
            if f.is_test {
                s.push_str(" [test]");
            }
            if f.effect != Effect::Det {
                if let Some((line, what)) = &f.source {
                    s.push_str(&format!(" <- {what} (line {line})"));
                }
            }
            s.push('\n');
        }
        for k in &self.sinks {
            s.push_str(&format!(
                "sink {} ({}) {} {}\n",
                k.name,
                k.what,
                k.qual,
                k.effect.name()
            ));
        }
        if self.findings.is_empty() {
            s.push_str("findings: none\n");
        } else {
            for f in &self.findings {
                s.push_str(&format!("{f}\n"));
            }
        }
        s
    }
}

/// What only this analysis knows about a function.
struct FnFlow {
    intrinsic: Effect,
    source: Option<(usize, String)>,
}

/// Run the analysis over `(rel_path, contents)` sources against a sink
/// list. Sources should be pre-sorted by path (as `collect_sources`
/// returns them) for deterministic output.
pub fn analyze(sources: &[(String, String)], sinks: &[SinkSpec]) -> FlowReport {
    analyze_ws(&Workspace::build(sources), sinks)
}

/// A token that reads nondeterminism (or seed-scoped determinism) into
/// the function owning it.
enum Source<'a> {
    /// `SystemTime`, `time::Instant` or `Instant::now`.
    Wallclock,
    /// `thread_rng`, `from_entropy` or `rand::random`.
    Rng(&'static str),
    /// `recv.method()`: one of [`ITERATION_METHODS`] on a hash container.
    HashMethod(&'a str, &'a str),
    /// `for … in [&[mut ]][self.]name` over a hash container.
    HashFor(&'a str),
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

/// Every [`Source`] token of the file, ascending. A hash container is a
/// name bound to a `HashMap` / `HashSet` in the file (keyed access —
/// `get`, `insert`, `remove`, `contains_key`, indexing — is fine;
/// iteration is not).
fn sources<'a>(ctx: &FileCtx<'a>) -> Vec<(usize, Source<'a>)> {
    let hash_names = ctx.bound_names(&["HashMap", "HashSet"]);
    (0..ctx.code.len())
        .filter(|&i| ctx.code[i].kind == TokKind::Ident)
        .filter_map(|i| Some((i, source_at(ctx, i, &hash_names)?)))
        .collect()
}

fn source_at<'a>(ctx: &FileCtx<'a>, i: usize, hash_names: &BTreeSet<String>) -> Option<Source<'a>> {
    let pathed = |seg: &str| i >= 2 && ctx.is(i - 1, "::") && ctx.is_ident(i - 2, seg);
    let dotted = i >= 1 && ctx.is(i - 1, ".");
    match ctx.code[i].text {
        "SystemTime" => Some(Source::Wallclock),
        "Instant" if pathed("time") => Some(Source::Wallclock),
        "Instant" if ctx.is(i + 1, "::") && ctx.is_ident(i + 2, "now") => Some(Source::Wallclock),
        "thread_rng" => Some(Source::Rng("thread_rng")),
        "from_entropy" => Some(Source::Rng("from_entropy")),
        "random" if pathed("rand") => Some(Source::Rng("rand::random")),
        "for" => {
            let (idx, name) = for_in_subject(ctx, i)?;
            (hash_names.contains(name) && !ctx.is(idx + 1, ".")).then_some(Source::HashFor(name))
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

/// Rayon-style parallel-iterator constructors: reduction order over
/// these is scheduling-dependent.
const PAR_METHODS: &[&str] = &["par_iter", "par_iter_mut", "into_par_iter", "par_bridge"];

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

/// A source's effect and its description in the effect table.
fn effect_of(source: &Source<'_>, text: &str) -> (Effect, String) {
    let nondet = |what: String| (Effect::Nondet, what);
    match *source {
        // The type's own name: `time::Instant` and `Instant::now` both
        // read `Instant`.
        Source::Wallclock => nondet(format!("wall-clock `{text}`")),
        Source::Rng(tok) => nondet(format!("unseeded RNG `{tok}`")),
        Source::HashMethod(recv, method) => {
            nondet(format!("hash-container iteration `{recv}.{method}()`"))
        }
        Source::HashFor(name) => nondet(format!("hash-container iteration `for .. in {name}`")),
        Source::Thread(tok) => nondet(format!("thread identity `{tok}`")),
        Source::Env(tok) => nondet(format!("environment read `env::{tok}`")),
        Source::Atomic(tok) => nondet(format!("atomic read-modify-write `.{tok}()`")),
        Source::Par(tok) => nondet(format!("parallel iterator `.{tok}()`")),
        Source::Seeded(tok) => (Effect::DetModuloSeed, format!("seeded RNG `{tok}`")),
    }
}

/// Function `f`'s own facts. Its intrinsic effect is the strongest
/// source among the tokens it owns (the first one seen, among equals):
/// its share of its file's source list, by span.
fn fn_facts(ws: &Workspace<'_>, f: usize, sources: &[(usize, Source<'_>)]) -> FnFlow {
    let (ctx, def) = (ws.ctx(f), &ws.fns[f]);
    // Methods of the seeded RNG are DetModuloSeed by construction even
    // when their bodies only touch state.
    let (mut intrinsic, mut source) = if def.self_ty == Some("SplitMix64") {
        let what = "method of seeded RNG `SplitMix64`".to_string();
        (Effect::DetModuloSeed, Some((def.line, what)))
    } else {
        (Effect::Det, None)
    };
    for &(s, e) in &def.spans {
        let first = sources.partition_point(|&(i, _)| i < s);
        for (i, src) in sources[first..].iter().take_while(|&&(i, _)| i < e) {
            let (eff, what) = effect_of(src, ctx.text(*i));
            if eff > intrinsic || (eff == intrinsic && source.is_none()) {
                intrinsic = eff;
                source = Some((ctx.line(*i), what));
            }
        }
    }
    FnFlow { intrinsic, source }
}

/// The effect fixpoint's state: `effect(f) = max(intrinsic, max over
/// callees)`; `via` remembers which callee last raised f, for witness
/// chains.
struct Effects<'w, 'a> {
    ws: &'w Workspace<'a>,
    facts: Vec<FnFlow>,
    effect: Vec<Effect>,
    via: Vec<Option<usize>>,
    /// A callee's effect rose since the function was last evaluated.
    dirty: Vec<bool>,
}

impl Fixpoint for Effects<'_, '_> {
    fn dirty(&mut self) -> &mut [bool] {
        &mut self.dirty
    }

    fn eval(&mut self, f: usize) {
        for &g in &self.ws.callees[f] {
            if self.effect[g] > self.effect[f] {
                self.effect[f] = self.effect[g];
                self.via[f] = Some(g);
                for &caller in &self.ws.callers[f] {
                    self.dirty[caller] = true;
                }
            }
        }
    }
}

/// Effect sources per function, the effect fixpoint over the workspace
/// call graph, and the sink check.
pub(crate) fn analyze_ws(ws: &Workspace<'_>, sinks: &[SinkSpec]) -> FlowReport {
    run(ws, sinks, graph::sweep)
}

fn run<'w, 'a>(
    ws: &'w Workspace<'a>,
    sinks: &[SinkSpec],
    fixpoint: fn(&mut Effects<'w, 'a>),
) -> FlowReport {
    let n = ws.fns.len();
    let mut findings = Vec::new();
    let per_file: Vec<_> = ws.files.iter().map(sources).collect();
    let facts: Vec<FnFlow> = (0..n)
        .map(|f| fn_facts(ws, f, &per_file[ws.fns[f].file]))
        .collect();

    let effect = facts.iter().map(|f| f.intrinsic).collect();
    let mut fx = Effects {
        ws,
        facts,
        effect,
        via: vec![None; n],
        dirty: vec![true; n],
    };
    fixpoint(&mut fx);
    let Effects {
        facts, effect, via, ..
    } = fx;

    let chain_of = |start: usize| -> Vec<usize> {
        let mut out = vec![start];
        let mut seen = BTreeSet::from([start]);
        let mut cur = start;
        while effect[cur] > facts[cur].intrinsic {
            let Some(nx) = via[cur] else { break };
            if !seen.insert(nx) {
                break;
            }
            out.push(nx);
            cur = nx;
        }
        out
    };
    let path = |f: usize| ws.ctx(f).rel_path;

    let mut sink_results: Vec<SinkResult> = Vec::new();
    for spec in sinks {
        let matches: Vec<usize> = (0..n)
            .filter(|&f| {
                ws.fns[f].name == spec.name
                    && path(f).contains(spec.path_hint)
                    && !ws.fns[f].is_test
            })
            .collect();
        if matches.is_empty() {
            findings.push(Finding {
                rel_path: spec.path_hint.trim_end_matches('/').to_string(),
                line: 0,
                rule: NONDET_REACHABLE,
                message: format!(
                    "declared sink `{}` ({}) not found; update flow::WORKSPACE_SINKS or restore the function",
                    spec.name, spec.what
                ),
            });
            continue;
        }
        for m in matches {
            let ch = chain_of(m);
            let terminal = ch.last().copied().unwrap_or(m);
            let chain_quals: Vec<String> = ch.iter().map(|&f| ws.fns[f].qual.clone()).collect();
            if effect[m] == Effect::Nondet {
                let src_txt = facts[terminal]
                    .source
                    .as_ref()
                    .map(|(l, w)| format!("{w} at {}:{l}", path(terminal)))
                    .unwrap_or_else(|| "unresolved source".to_string());
                findings.push(Finding {
                    rel_path: path(m).to_string(),
                    line: ws.fns[m].line,
                    rule: NONDET_REACHABLE,
                    message: format!(
                        "sink `{}` ({}) transitively reaches Nondet `{}` ({}); chain: {}",
                        ws.fns[m].qual,
                        spec.what,
                        ws.fns[terminal].qual,
                        src_txt,
                        chain_quals.join(" -> ")
                    ),
                });
            }
            sink_results.push(SinkResult {
                name: spec.name,
                what: spec.what,
                qual: ws.fns[m].qual.clone(),
                file: path(m).to_string(),
                line: ws.fns[m].line,
                effect: effect[m],
                chain: chain_quals,
            });
        }
    }

    let mut fns_out: Vec<FnEffect> = (0..n)
        .map(|f| FnEffect {
            qual: ws.fns[f].qual.clone(),
            file: path(f).to_string(),
            line: ws.fns[f].line,
            effect: effect[f],
            is_test: ws.fns[f].is_test,
            source: facts[f].source.clone(),
        })
        .collect();
    fns_out.sort_by(|a, z| (&a.qual, &a.file, a.line).cmp(&(&z.qual, &z.file, z.line)));
    findings.sort();
    findings.dedup();

    FlowReport {
        functions: n,
        call_edges: ws.call_edges(),
        fns: fns_out,
        sinks: sink_results,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(path: &str, src: &str, sinks: &[SinkSpec]) -> FlowReport {
        analyze(&[(path.to_string(), src.to_string())], sinks)
    }

    const SINK_PUBLISH: &[SinkSpec] = &[SinkSpec {
        name: "publish_sum",
        path_hint: "crates/comms/src/",
        what: "comms reduction",
    }];

    fn effect_of<'r>(r: &'r FlowReport, qual: &str) -> &'r FnEffect {
        r.fns.iter().find(|f| f.qual == qual).unwrap_or_else(|| {
            panic!(
                "no fn {qual} in {:?}",
                r.fns.iter().map(|f| &f.qual).collect::<Vec<_>>()
            )
        })
    }

    #[test]
    fn clean_chain_is_det() {
        let src = "fn combine(a: f64, b: f64) -> f64 { a + b }\n\
                   fn accumulate(xs: &[f64]) -> f64 { let mut acc = 0.0; for &x in xs { acc = combine(acc, x); } acc }\n\
                   pub fn publish_sum(xs: &[f64]) -> f64 { accumulate(xs) }\n";
        let r = one("crates/comms/src/flowdemo.rs", src, SINK_PUBLISH);
        assert_eq!(r.functions, 3);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.sinks.len(), 1);
        assert_eq!(r.sinks[0].effect, Effect::Det);
    }

    #[test]
    fn wallclock_chain_reaches_sink() {
        let src = "fn stamp() -> u64 { std::time::SystemTime::now().elapsed().unwrap().as_nanos() as u64 }\n\
                   fn jitter(x: f64) -> f64 { x + stamp() as f64 }\n\
                   pub fn publish_sum(xs: &[f64]) -> f64 { let mut s = 0.0; for &x in xs { s += jitter(x); } s }\n";
        let r = one("crates/comms/src/flowdemo.rs", src, SINK_PUBLISH);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        let f = &r.findings[0];
        assert_eq!(f.rule, NONDET_REACHABLE);
        assert!(f.message.contains("SystemTime"), "{}", f.message);
        assert!(
            f.message.contains("publish_sum -> "),
            "witness chain missing: {}",
            f.message
        );
        assert_eq!(r.sinks[0].effect, Effect::Nondet);
    }

    #[test]
    fn test_scope_is_not_resolved_from_lib_code() {
        let src = "fn scale(x: f64) -> f64 { 2.0 * x }\n\
                   pub fn publish_sum(xs: &[f64]) -> f64 { let mut s = 0.0; for &x in xs { s += scale(x); } s }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn scale(x: f64) -> f64 { x * rand::thread_rng() }\n\
                       #[test]\n\
                       fn t() { assert!(scale(1.0) >= 0.0); }\n\
                   }\n";
        let r = one("crates/comms/src/flowdemo.rs", src, SINK_PUBLISH);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.sinks[0].effect, Effect::Det);
        let test_scale = effect_of(&r, "comms::flowdemo::tests::scale");
        assert!(test_scale.is_test);
        assert_eq!(test_scale.effect, Effect::Nondet);
    }

    #[test]
    fn missing_sink_is_a_finding() {
        let r = one("crates/comms/src/flowdemo.rs", "fn f() {}\n", SINK_PUBLISH);
        assert_eq!(r.findings.len(), 1);
        assert!(r.findings[0].message.contains("not found"));
        assert_eq!(r.findings[0].rule, NONDET_REACHABLE);
    }

    #[test]
    fn cross_file_module_resolution() {
        let helper = "pub fn now_ms() -> u64 { std::time::SystemTime::now().elapsed().unwrap().as_millis() as u64 }\n";
        let world = "pub fn publish_sum(xs: &[f64]) -> f64 { crate::clock::now_ms() as f64 }\n";
        let r = analyze(
            &[
                ("crates/comms/src/clock.rs".to_string(), helper.to_string()),
                ("crates/comms/src/world2.rs".to_string(), world.to_string()),
            ],
            SINK_PUBLISH,
        );
        // `crate::clock::now_ms(..)` parses as `clock::now_ms` ModQual.
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert!(r.findings[0].message.contains("now_ms"));
    }

    #[test]
    fn method_resolution_prefers_inferred_receiver_type() {
        let src = "struct Fast;\n\
                   impl Fast { fn step(&self) -> u64 { 1 } }\n\
                   struct Slow;\n\
                   impl Slow { fn step(&self) -> u64 { std::time::SystemTime::now().elapsed().unwrap().as_nanos() as u64 } }\n\
                   pub fn publish_sum(xs: &[f64]) -> f64 { let f = Fast; let f: Fast = f; f.step() as f64 }\n";
        let r = one("crates/comms/src/flowdemo.rs", src, SINK_PUBLISH);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.sinks[0].effect, Effect::Det);
        assert_eq!(
            effect_of(&r, "comms::flowdemo::Slow::step").effect,
            Effect::Nondet
        );
    }

    #[test]
    fn unknown_receiver_over_approximates_to_all_methods() {
        let src = "struct Fast;\n\
                   impl Fast { fn step(&self) -> u64 { 1 } }\n\
                   struct Slow;\n\
                   impl Slow { fn step(&self) -> u64 { std::time::SystemTime::now().elapsed().unwrap().as_nanos() as u64 } }\n\
                   pub fn publish_sum(w: &W) -> f64 { w.step() as f64 }\n";
        let r = one("crates/comms/src/flowdemo.rs", src, SINK_PUBLISH);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.sinks[0].effect, Effect::Nondet);
    }

    #[test]
    fn splitmix_marks_det_modulo_seed() {
        let src = "struct SplitMix64 { s: u64 }\n\
                   impl SplitMix64 { fn new(seed: u64) -> Self { SplitMix64 { s: seed } } fn next_u64(&mut self) -> u64 { self.s } }\n\
                   pub fn publish_sum(seed: u64) -> f64 { let mut r = SplitMix64::new(seed); r.next_u64() as f64 }\n";
        let r = one("crates/comms/src/flowdemo.rs", src, SINK_PUBLISH);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.sinks[0].effect, Effect::DetModuloSeed);
    }

    #[test]
    fn trait_default_bodies_are_graph_nodes() {
        let src = "trait World {\n\
                       fn leaf(&mut self) -> f64;\n\
                       fn publish_sum(&mut self) -> f64 { self.leaf() }\n\
                   }\n\
                   struct T;\n\
                   impl World for T { fn leaf(&mut self) -> f64 { std::env::args().count() as f64 } }\n";
        let r = one("crates/comms/src/flowdemo.rs", src, SINK_PUBLISH);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert!(
            r.findings[0].message.contains("env::args"),
            "{}",
            r.findings[0].message
        );
    }

    #[test]
    fn hash_iteration_and_atomics_are_sources() {
        let src = "pub fn publish_sum() -> f64 {\n\
                       let mut m = HashMap::new();\n\
                       m.insert(1u32, 2.0f64);\n\
                       let mut s = 0.0;\n\
                       for v in m.values() { s += v; }\n\
                       s\n\
                   }\n\
                   fn bump(c: &AtomicU64) -> u64 { c.fetch_add(1, Ordering::Relaxed) }\n";
        let r = one("crates/comms/src/flowdemo.rs", src, SINK_PUBLISH);
        assert_eq!(r.sinks[0].effect, Effect::Nondet);
        assert_eq!(
            effect_of(&r, "comms::flowdemo::bump").effect,
            Effect::Nondet
        );
    }

    /// Reference fixpoint: the round-robin the sweep replaced — evaluate
    /// every function, round after round, until a whole round raises
    /// nothing.
    fn round_robin(fx: &mut Effects<'_, '_>) {
        loop {
            let mut changed = false;
            for f in 0..fx.effect.len() {
                for &g in &fx.ws.callees[f] {
                    if fx.effect[g] > fx.effect[f] {
                        fx.effect[f] = fx.effect[g];
                        fx.via[f] = Some(g);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    #[test]
    fn sweep_matches_the_round_robin() {
        let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/flow");
        let mut inputs: Vec<_> = std::fs::read_dir(&fixtures)
            .expect("flow fixtures dir")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .map(|p| {
                let src = std::fs::read_to_string(&p).expect("fixture source");
                let rel = src.lines().find_map(|l| l.strip_prefix("//@path "));
                let rel = rel.expect("//@path").trim().to_string();
                // `SinkSpec` holds `&'static str`s: leak the few a test
                // run reads.
                let sinks: Vec<SinkSpec> = src
                    .lines()
                    .filter_map(|l| l.strip_prefix("//@sink "))
                    .map(|l| {
                        let (name, what) = l.trim().split_once(' ').expect("//@sink name what");
                        SinkSpec {
                            name: String::leak(name.to_string()),
                            path_hint: String::leak(rel.clone()),
                            what: String::leak(what.to_string()),
                        }
                    })
                    .collect();
                (vec![(rel, src)], &*Vec::leak(sinks))
            })
            .collect();
        assert!(inputs.len() >= 4, "flow fixture set went missing");
        // And the one input deep and wide enough to need many sweeps.
        let live = crate::collect_sources(&crate::workspace_root()).expect("live tree");
        inputs.push((live, WORKSPACE_SINKS));
        for (sources, sinks) in &inputs {
            let ws = Workspace::build(sources);
            let swept = run(&ws, sinks, graph::sweep);
            let reference = run(&ws, sinks, round_robin);
            assert_eq!(swept.render_golden(), reference.render_golden());
            let chains = |r: &FlowReport| -> Vec<Vec<String>> {
                r.sinks.iter().map(|k| k.chain.clone()).collect()
            };
            assert_eq!(chains(&swept), chains(&reference));
        }
    }

    #[test]
    fn render_golden_is_stable() {
        let src = "fn a() {}\npub fn publish_sum() -> f64 { a(); 0.0 }\n";
        let r = one("crates/comms/src/flowdemo.rs", src, SINK_PUBLISH);
        let g1 = r.render_golden();
        let r2 = one("crates/comms/src/flowdemo.rs", src, SINK_PUBLISH);
        assert_eq!(g1, r2.render_golden());
        assert!(g1.contains("fn comms::flowdemo::a Det\n"), "{g1}");
        assert!(
            g1.contains("sink publish_sum (comms reduction) comms::flowdemo::publish_sum Det\n")
        );
        assert!(g1.ends_with("findings: none\n"));
    }
}
