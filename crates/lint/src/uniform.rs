//! `lint::uniform` — whole-program SPMD collective-uniformity analysis.
//!
//! Every collective in the repo (`exchange`, `global_sum*`, `barrier`,
//! `global_argmax/argmin`, the measurement drivers) blocks until *all*
//! ranks enter it. The program is deadlock-free and deterministic only
//! if every rank issues the same *sequence* of collectives — an
//! invariant the blowup sentinel and the happens-before checker assert
//! dynamically for one recorded run. This module proves it statically,
//! whole-program, on the shared [`crate::graph`] call-graph layer:
//!
//! 1. **Rank-dependence taint lattice** `Uniform < RankDependent`. The
//!    source catalog: `.rank` reads (method or field), data received
//!    from `exchange`/`exchange3`/`gather` (return values and `&mut`
//!    halo buffers). Taint propagates through `let` bindings,
//!    assignments, method receivers, and — via a fixpoint over the call
//!    graph — function parameters (positionally, from every call site)
//!    and return values. Collective *results* launder: `global_max(x)`
//!    returns the same value on every rank even when `x` is
//!    rank-dependent, so reductions are Uniform sources, and
//!    `global_sum_vec(&mut xs)` launders its buffer.
//! 2. **Control-flow summary.** Each function body is abstracted to a
//!    tree of collective calls, calls into collective-bearing
//!    functions, early exits, branches (with the condition's taint and
//!    witness), and loops. Each path through the tree has an abstract
//!    collective *sequence signature*.
//! 3. **Uniformity check.** A rank-dependent branch whose arms have
//!    unequal collective signatures (including the implicit empty
//!    `else`), a rank-dependent early exit with collectives still ahead
//!    on the path, or a rank-dependent loop containing a collective is
//!    a `collective-divergence` finding carrying the witness chain:
//!    tainted source → condition → guarded collective.
//!
//! Soundness caveats (documented, deliberate): closures are inlined
//! into the enclosing function (over-approximate), `?` early returns
//! are not modeled, struct fields are not tracked as taint carriers
//! (only locals and parameters), and two arms calling *different*
//! collective-bearing helpers are flagged even if the helpers happen to
//! issue equal sequences. Escape hatches, both audited and counted
//! against the pragma budget: `lint:allow(collective-divergence, why)`
//! on the branch line, or `// lint:uniform-trusted(why)` directly above
//! a `fn` to exempt the whole function.

use crate::graph::{
    self, body_open, call_open, starts_upper, Fixpoint, RawCall, Workspace, KEYWORDS,
};
use crate::lexer::TokKind;
use crate::passes::{self, FileCtx};
use crate::rules::{Finding, COLLECTIVE_DIVERGENCE};
use std::collections::{BTreeMap, BTreeSet};

/// One entry in the collective catalog.
struct Collective {
    name: &'static str,
    /// The return value is received (per-rank) data.
    ret_rd: bool,
    /// `&mut` arguments receive per-rank data (halo buffers).
    args_rd: bool,
    /// `&mut` arguments are overwritten with the reduced, rank-uniform
    /// value.
    launders_args: bool,
}

/// Every blocking collective (and reduce-bearing measurement driver) in
/// the workspace, by callable name. Matching is by name at the call
/// site, so a trait method and its impls are covered uniformly.
const CATALOG: &[Collective] = &[
    Collective {
        name: "exchange",
        ret_rd: true,
        args_rd: true,
        launders_args: false,
    },
    Collective {
        name: "exchange2",
        ret_rd: false,
        args_rd: true,
        launders_args: false,
    },
    Collective {
        name: "exchange3",
        ret_rd: false,
        args_rd: true,
        launders_args: false,
    },
    Collective {
        name: "gather",
        ret_rd: true,
        args_rd: false,
        launders_args: false,
    },
    Collective {
        name: "global_sum",
        ret_rd: false,
        args_rd: false,
        launders_args: false,
    },
    Collective {
        name: "global_sum_vec",
        ret_rd: false,
        args_rd: false,
        launders_args: true,
    },
    Collective {
        name: "global_max",
        ret_rd: false,
        args_rd: false,
        launders_args: false,
    },
    Collective {
        name: "global_min",
        ret_rd: false,
        args_rd: false,
        launders_args: false,
    },
    Collective {
        name: "global_argmax",
        ret_rd: false,
        args_rd: false,
        launders_args: false,
    },
    Collective {
        name: "global_argmin",
        ret_rd: false,
        args_rd: false,
        launders_args: false,
    },
    Collective {
        name: "barrier",
        ret_rd: false,
        args_rd: false,
        launders_args: false,
    },
    Collective {
        name: "measure_gsum",
        ret_rd: false,
        args_rd: false,
        launders_args: false,
    },
    Collective {
        name: "measure_gsum_tree",
        ret_rd: false,
        args_rd: false,
        launders_args: false,
    },
    Collective {
        name: "measure_exchange",
        ret_rd: false,
        args_rd: false,
        launders_args: false,
    },
];

fn catalog(name: &str) -> Option<&'static Collective> {
    CATALOG.iter().find(|c| c.name == name)
}

/// Taint: `None` = Uniform, `Some(witness)` = RankDependent with the
/// source description that first raised it.
type Taint = Option<String>;

fn join(a: &mut Taint, b: Taint) {
    if a.is_none() {
        *a = b;
    }
}

/// Tainted locals: name → witness.
type Env = BTreeMap<String, String>;

/// One node of a function's control-flow summary.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Node {
    /// Direct catalog call.
    Coll { name: String, line: usize },
    /// Call into a function that (transitively) issues collectives.
    CallColl { qual: String, line: usize },
    /// Early exit. `ret` distinguishes function-level exits (`return`,
    /// `let .. else` divergence) from loop-level ones
    /// (`break`/`continue`), which only skip collectives when the
    /// *innermost* enclosing loop contains one.
    Exit { line: usize, ret: bool },
    /// `if` chain / `match` / `let .. else`: condition taint plus one
    /// summary per arm. `has_else` = the arm set is exhaustive.
    Branch {
        rd: Taint,
        line: usize,
        arms: Vec<Vec<Node>>,
        has_else: bool,
    },
    /// `while` / `for` / `loop`: `rd` taints the iteration count.
    Loop {
        rd: Taint,
        line: usize,
        body: Vec<Node>,
    },
}

/// Per-function row of the proof table.
#[derive(Debug, Clone)]
pub struct FnUniform {
    pub qual: String,
    pub file: String,
    pub line: usize,
    /// Direct collective call sites in the body.
    pub sites: usize,
    /// "uniform" | "trusted" | "divergent".
    pub verdict: &'static str,
}

/// Everything the analysis produced, in deterministic order.
pub struct UniformReport {
    pub functions: usize,
    pub call_edges: usize,
    /// Direct collective call sites across non-test code.
    pub collective_sites: usize,
    /// Collective-bearing non-test functions, sorted by qualified name.
    pub fns: Vec<FnUniform>,
    /// (file, pragma line) of every valid, attached `uniform-trusted`
    /// pragma — counted against the pragma budget by `lint_workspace`.
    pub trusted_sites: Vec<(String, usize)>,
    /// (file, pragma line) of every `lint:allow` pragma this analysis
    /// honored.
    pub used_allow: BTreeSet<(String, usize)>,
    /// `collective-divergence` findings plus the trust-pragma audit.
    pub findings: Vec<Finding>,
}

impl UniformReport {
    /// Stable text rendering for golden tests: proof table per
    /// collective-bearing function, then findings.
    pub fn render_golden(&self) -> String {
        let mut s = String::new();
        for f in &self.fns {
            s.push_str(&format!("fn {} sites={} {}\n", f.qual, f.sites, f.verdict));
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

/// Fixpoint state over the workspace's function table (every `Vec` is
/// indexed by function). Every taint slot is first-writer-wins, so each
/// is written at most once and the fixpoint needs no round cap.
struct State<'w, 'a> {
    ws: &'w Workspace<'a>,
    /// Covered by a `lint:uniform-trusted` pragma.
    trusted: Vec<bool>,
    /// Line of a covering `lint:allow(collective-divergence, why)`.
    allow_fn: Vec<Option<usize>>,
    ret_rd: Vec<Taint>,
    param_rd: Vec<Vec<Taint>>,
    has_coll: Vec<bool>,
    /// An input of the function's walk — its own parameter taints, a
    /// callee's return taint or has-collective bit — changed since the
    /// walk last ran.
    dirty: Vec<bool>,
    /// The control tree of each function's latest walk.
    trees: Vec<Vec<Node>>,
    findings: Vec<Finding>,
    used_allow: BTreeSet<(String, usize)>,
    divergent: Vec<bool>,
}

impl Fixpoint for State<'_, '_> {
    fn dirty(&mut self) -> &mut [bool] {
        &mut self.dirty
    }

    fn eval(&mut self, fid: usize) {
        // Test functions are never walked.
        if !self.ws.fns[fid].is_test {
            self.walk(fid);
        }
    }
}

impl State<'_, '_> {
    /// Interpret one function body against the current state.
    fn walk(&mut self, fid: usize) {
        let ws = self.ws;
        let def = &ws.fns[fid];
        let mut env: Env = Env::new();
        for (p, t) in def.params.iter().zip(&self.param_rd[fid]) {
            if let Some(wit) = t {
                env.insert(p.to_string(), wit.clone());
            }
        }
        let mut w = Walk {
            ctx: ws.ctx(fid),
            st: self,
            fid,
        };
        let (start, end) = def.body;
        let mut ret: Taint = None;
        let (nodes, last) = w.block(start + 1, end, &mut env, &mut ret);
        join(&mut ret, last);
        if let Some(wit) = ret {
            w.st.taint_ret(fid, wit);
        }
        w.st.trees[fid] = nodes;
    }

    fn taint_param(&mut self, f: usize, slot: usize, wit: &str) {
        if let Some(t @ None) = self.param_rd[f].get_mut(slot) {
            *t = Some(wit.to_string());
            self.dirty[f] = true;
        }
    }

    fn taint_ret(&mut self, f: usize, wit: String) {
        if self.ret_rd[f].is_none() {
            self.ret_rd[f] = Some(wit);
            self.dirty_callers(f);
        }
    }

    fn set_has_coll(&mut self, f: usize) {
        if !self.has_coll[f] {
            self.has_coll[f] = true;
            self.dirty_callers(f);
        }
    }

    fn dirty_callers(&mut self, f: usize) {
        for &caller in &self.ws.callers[f] {
            self.dirty[caller] = true;
        }
    }
}

/// Run the analysis over `(rel_path, contents)` sources. Sources should
/// be pre-sorted by path (as `collect_sources` returns them) for
/// deterministic output.
pub fn analyze(sources: &[(String, String)]) -> UniformReport {
    analyze_ws(&Workspace::build(sources))
}

/// Taint fixpoint, then the uniformity check, over a built workspace.
pub(crate) fn analyze_ws(ws: &Workspace<'_>) -> UniformReport {
    run(ws, graph::sweep)
}

fn run<'w, 'a>(ws: &'w Workspace<'a>, fixpoint: fn(&mut State<'w, 'a>)) -> UniformReport {
    let n = ws.fns.len();
    let (findings, trusted_sites) =
        ws.audit_trust(&passes::UNIFORM_TRUSTED, |ctx| &ctx.uniform_trusted);
    let marks = |f: usize| {
        let (ctx, line) = (ws.ctx(f), ws.fns[f].line);
        (
            ctx.uniform_trusted.iter().any(|p| p.covers(line)),
            ctx.allow_covering(COLLECTIVE_DIVERGENCE, line),
        )
    };
    let (trusted, allow_fn) = (0..n).map(marks).unzip();
    let mut st = State {
        ws,
        trusted,
        allow_fn,
        ret_rd: vec![None; n],
        param_rd: ws.fns.iter().map(|f| vec![None; f.params.len()]).collect(),
        has_coll: vec![false; n],
        dirty: vec![true; n],
        trees: vec![Vec::new(); n],
        findings,
        used_allow: BTreeSet::new(),
        divergent: vec![false; n],
    };
    fixpoint(&mut st);
    // Each latest tree is final: with nothing dirty, a walk now would
    // read the very inputs that walk read.
    let trees = std::mem::take(&mut st.trees);
    for (fid, tree) in trees.iter().enumerate() {
        if !ws.fns[fid].is_test && !st.trusted[fid] {
            let ctx = ws.ctx(fid);
            Walk {
                ctx,
                st: &mut st,
                fid,
            }
            .check(tree, false, false, false);
        }
    }
    finish(st, &trees, trusted_sites)
}

/// One function-body walk: statement/expression scan producing the
/// control-flow summary and propagating taint.
struct Walk<'s, 'w, 'a> {
    ctx: &'w FileCtx<'a>,
    st: &'s mut State<'w, 'a>,
    fid: usize,
}

impl Walk<'_, '_, '_> {
    fn line(&self, i: usize) -> usize {
        self.ctx.line(i)
    }

    /// Find the first occurrence of `what` at group depth 0 in
    /// `[s, e)`, skipping balanced brackets.
    fn find_at_depth0(&self, s: usize, e: usize, what: &[&str]) -> Option<usize> {
        let mut i = s;
        while i < e {
            let t = self.ctx.text(i);
            if what.contains(&t) {
                return Some(i);
            }
            if matches!(t, "(" | "[" | "{") {
                i = self.ctx.bracket_partner(i).map(|p| p + 1).unwrap_or(e);
                continue;
            }
            i += 1;
        }
        None
    }

    /// Pattern binders: lowercase non-keyword idents in `[s, e)` that
    /// are not path segments (`mod::`), collected for `let` / `if let`
    /// / `for` / match-arm patterns.
    fn binders(&self, s: usize, e: usize) -> Vec<String> {
        let mut out = Vec::new();
        let mut i = s;
        while i < e {
            if self.ctx.kind(i) == Some(TokKind::Ident) {
                let t = self.ctx.text(i);
                if !KEYWORDS.contains(&t)
                    && !starts_upper(t)
                    && !self.ctx.is(i + 1, "::")
                    && !(i > s && self.ctx.is(i - 1, "::"))
                    && !self.ctx.is(i + 1, ":")
                {
                    out.push(t.to_string());
                }
            }
            i += 1;
        }
        out
    }

    fn merge_raises(env: &mut Env, arm_env: Env) {
        for (k, v) in arm_env {
            env.entry(k).or_insert(v);
        }
    }

    /// Statement sequence over `[start, end)`. Returns the summary and
    /// the taint of the trailing expression statement (the block's
    /// value).
    fn block(
        &mut self,
        start: usize,
        end: usize,
        env: &mut Env,
        ret: &mut Taint,
    ) -> (Vec<Node>, Taint) {
        let mut nodes = Vec::new();
        let mut last: Taint = None;
        let mut i = start;
        while i < end {
            if self.ctx.is(i, ";") || self.ctx.is(i, ",") {
                i += 1;
                continue;
            }
            let (next, t) = self.stmt(i, end, env, &mut nodes, ret);
            last = t;
            i = next.max(i + 1);
        }
        (nodes, last)
    }

    /// One statement starting at `i`; returns (next index, value taint).
    fn stmt(
        &mut self,
        i: usize,
        end: usize,
        env: &mut Env,
        nodes: &mut Vec<Node>,
        ret: &mut Taint,
    ) -> (usize, Taint) {
        match self.ctx.text(i) {
            // Nested fn item: a separate graph node, skip its body.
            "fn" if self.ctx.kind(i + 1) == Some(TokKind::Ident) => {
                let skip = body_open(self.ctx, i + 2)
                    .and_then(|b| self.ctx.bracket_partner(b))
                    .map(|c| c + 1)
                    .unwrap_or(i + 2);
                (skip.min(end), None)
            }
            "let" => self.stmt_let(i, end, env, nodes, ret),
            "if" | "match" | "while" | "for" | "loop" => self.construct(i, end, env, nodes, ret),
            "return" => {
                let stop = self.find_at_depth0(i + 1, end, &[";"]).unwrap_or(end);
                let t = self.expr(i + 1, stop, env, nodes, ret);
                join(ret, t);
                nodes.push(Node::Exit {
                    line: self.line(i),
                    ret: true,
                });
                (stop + 1, None)
            }
            "break" | "continue" => {
                let stop = self.find_at_depth0(i + 1, end, &[";"]).unwrap_or(end);
                self.expr(i + 1, stop, env, nodes, ret);
                nodes.push(Node::Exit {
                    line: self.line(i),
                    ret: false,
                });
                (stop + 1, None)
            }
            _ => {
                let stop = self.find_at_depth0(i, end, &[";"]).unwrap_or(end);
                // `x = e` / `x += e`: join the RHS taint into `x`.
                if self.ctx.kind(i) == Some(TokKind::Ident)
                    && matches!(self.ctx.text(i + 1), "=" | "+=" | "-=" | "*=" | "/=")
                {
                    let t = self.expr(i + 2, stop, env, nodes, ret);
                    match t {
                        Some(wit) => {
                            env.entry(self.ctx.text(i).to_string()).or_insert(wit);
                        }
                        None if self.ctx.is(i + 1, "=") => {
                            // Plain rebind to a uniform value launders.
                            env.remove(self.ctx.text(i));
                        }
                        None => {}
                    }
                    return (stop + 1, None);
                }
                let t = self.expr(i, stop, env, nodes, ret);
                (stop + 1, t)
            }
        }
    }

    /// `let [mut] pat [: ty] = expr [else { .. }];`
    fn stmt_let(
        &mut self,
        i: usize,
        end: usize,
        env: &mut Env,
        nodes: &mut Vec<Node>,
        ret: &mut Taint,
    ) -> (usize, Taint) {
        let stop = self.find_at_depth0(i + 1, end, &[";"]).unwrap_or(end);
        let Some(eq) = self.find_at_depth0(i + 1, stop, &["="]) else {
            return (stop + 1, None); // `let x;`
        };
        // Binders live before any `:` type ascription.
        let colon = self.find_at_depth0(i + 1, eq, &[":"]).unwrap_or(eq);
        let binders = self.binders(i + 1, colon.min(eq));
        // `let pat = expr else { diverge };` — but a depth-0 `else`
        // preceded by `}` belongs to an `if`/`match` *expression* on the
        // RHS (let-else needs a refutable pattern; its initializer never
        // ends in a brace). Those are handled inside `expr`.
        let else_at = self
            .find_at_depth0(eq + 1, stop, &["else"])
            .filter(|&ea| ea == eq + 1 || !self.ctx.is(ea - 1, "}"));
        let rhs_end = else_at.unwrap_or(stop);
        let t = self.expr(eq + 1, rhs_end, env, nodes, ret);
        if let Some(ea) = else_at {
            if self.ctx.is(ea + 1, "{") {
                if let Some(close) = self.ctx.bracket_partner(ea + 1) {
                    let mut arm_env = env.clone();
                    let (mut arm, _) = self.block(ea + 2, close, &mut arm_env, ret);
                    Self::merge_raises(env, arm_env);
                    arm.push(Node::Exit {
                        line: self.line(ea),
                        ret: true,
                    });
                    nodes.push(Node::Branch {
                        rd: t.clone(),
                        line: self.line(i),
                        arms: vec![arm],
                        has_else: false,
                    });
                }
            }
        }
        for b in binders {
            match &t {
                Some(wit) => {
                    env.insert(b, wit.clone());
                }
                None => {
                    env.remove(&b);
                }
            }
        }
        (stop + 1, None)
    }

    /// `if`/`match`/`while`/`for`/`loop` at `i`; also reachable from
    /// expression position (`let v = if .. {..} else {..};`).
    fn construct(
        &mut self,
        i: usize,
        end: usize,
        env: &mut Env,
        nodes: &mut Vec<Node>,
        ret: &mut Taint,
    ) -> (usize, Taint) {
        match self.ctx.text(i) {
            "if" => self.construct_if(i, end, env, nodes, ret),
            "match" => self.construct_match(i, env, nodes, ret),
            "while" => {
                let mut j = i + 1;
                let mut binders = Vec::new();
                if self.ctx.is(j, "let") {
                    if let Some(eq) = self.find_at_depth0(j + 1, end, &["="]) {
                        binders = self.binders(j + 1, eq);
                        j = eq + 1;
                    }
                }
                let Some(bopen) = body_open(self.ctx, j) else {
                    return (i + 1, None);
                };
                let Some(close) = self.ctx.bracket_partner(bopen) else {
                    return (i + 1, None);
                };
                let cond = self.expr(j, bopen, env, nodes, ret);
                let mut arm_env = env.clone();
                for b in binders {
                    if let Some(wit) = cond.clone() {
                        arm_env.insert(b, wit);
                    }
                }
                let (body, _) = self.block(bopen + 1, close, &mut arm_env, ret);
                Self::merge_raises(env, arm_env);
                nodes.push(Node::Loop {
                    rd: cond,
                    line: self.line(i),
                    body,
                });
                (close + 1, None)
            }
            "for" => {
                let Some(in_at) = self.find_at_depth0(i + 1, end, &["in"]) else {
                    return (i + 1, None);
                };
                let binders = self.binders(i + 1, in_at);
                let Some(bopen) = body_open(self.ctx, in_at + 1) else {
                    return (i + 1, None);
                };
                let Some(close) = self.ctx.bracket_partner(bopen) else {
                    return (i + 1, None);
                };
                let iter = self.expr(in_at + 1, bopen, env, nodes, ret);
                let mut arm_env = env.clone();
                for b in binders {
                    if let Some(wit) = iter.clone() {
                        arm_env.insert(b, wit);
                    }
                }
                let (body, _) = self.block(bopen + 1, close, &mut arm_env, ret);
                Self::merge_raises(env, arm_env);
                nodes.push(Node::Loop {
                    rd: iter,
                    line: self.line(i),
                    body,
                });
                (close + 1, None)
            }
            "loop" => {
                let Some(close) = self
                    .ctx
                    .is(i + 1, "{")
                    .then(|| self.ctx.bracket_partner(i + 1))
                    .flatten()
                else {
                    return (i + 1, None);
                };
                let mut arm_env = env.clone();
                let (body, _) = self.block(i + 2, close, &mut arm_env, ret);
                Self::merge_raises(env, arm_env);
                nodes.push(Node::Loop {
                    rd: None,
                    line: self.line(i),
                    body,
                });
                (close + 1, None)
            }
            _ => (i + 1, None),
        }
    }

    fn construct_if(
        &mut self,
        i: usize,
        end: usize,
        env: &mut Env,
        nodes: &mut Vec<Node>,
        ret: &mut Taint,
    ) -> (usize, Taint) {
        let mut arms: Vec<Vec<Node>> = Vec::new();
        let mut cond: Taint = None;
        let mut has_else = false;
        let mut cur = i;
        let next;
        loop {
            let mut j = cur + 1;
            let mut binders = Vec::new();
            if self.ctx.is(j, "let") {
                if let Some(eq) = self.find_at_depth0(j + 1, end, &["="]) {
                    binders = self.binders(j + 1, eq);
                    j = eq + 1;
                }
            }
            let Some(bopen) = body_open(self.ctx, j) else {
                return (cur + 1, None);
            };
            let Some(close) = self.ctx.bracket_partner(bopen) else {
                return (cur + 1, None);
            };
            let c = self.expr(j, bopen, env, nodes, ret);
            join(&mut cond, c.clone());
            let mut arm_env = env.clone();
            for b in binders {
                if let Some(wit) = c.clone() {
                    arm_env.insert(b, wit);
                }
            }
            let (arm, _) = self.block(bopen + 1, close, &mut arm_env, ret);
            Self::merge_raises(env, arm_env);
            arms.push(arm);
            let k = close + 1;
            if self.ctx.is(k, "else") {
                if self.ctx.is(k + 1, "if") {
                    cur = k + 1;
                    continue;
                }
                if self.ctx.is(k + 1, "{") {
                    if let Some(close2) = self.ctx.bracket_partner(k + 1) {
                        let mut arm_env = env.clone();
                        let (arm, _) = self.block(k + 2, close2, &mut arm_env, ret);
                        Self::merge_raises(env, arm_env);
                        arms.push(arm);
                        has_else = true;
                        next = close2 + 1;
                        break;
                    }
                }
                next = k + 1;
                break;
            }
            next = k;
            break;
        }
        nodes.push(Node::Branch {
            rd: cond.clone(),
            line: self.line(i),
            arms,
            has_else,
        });
        (next, cond)
    }

    fn construct_match(
        &mut self,
        i: usize,
        env: &mut Env,
        nodes: &mut Vec<Node>,
        ret: &mut Taint,
    ) -> (usize, Taint) {
        let Some(bopen) = body_open(self.ctx, i + 1) else {
            return (i + 1, None);
        };
        let Some(close) = self.ctx.bracket_partner(bopen) else {
            return (i + 1, None);
        };
        let mut cond = self.expr(i + 1, bopen, env, nodes, ret);
        let mut arms: Vec<Vec<Node>> = Vec::new();
        let mut p = bopen + 1;
        while p < close {
            let Some(arrow) = self.find_at_depth0(p, close, &["=>"]) else {
                break;
            };
            // `pat [if guard] => body`
            let guard_at = self.find_at_depth0(p, arrow, &["if"]);
            let pat_end = guard_at.unwrap_or(arrow);
            let binders = self.binders(p, pat_end);
            let mut arm_env = env.clone();
            if let Some(g) = guard_at {
                let gt = self.expr(g + 1, arrow, &mut arm_env, nodes, ret);
                join(&mut cond, gt);
            }
            if let Some(wit) = cond.clone() {
                for b in binders {
                    arm_env.insert(b, wit.clone());
                }
            }
            let (arm, body_end) = if self.ctx.is(arrow + 1, "{") {
                let Some(bc) = self.ctx.bracket_partner(arrow + 1) else {
                    break;
                };
                let (a, _) = self.block(arrow + 2, bc, &mut arm_env, ret);
                (a, bc + 1)
            } else {
                let stop = self
                    .find_at_depth0(arrow + 1, close, &[","])
                    .unwrap_or(close);
                let mut a = Vec::new();
                self.expr(arrow + 1, stop, &mut arm_env, &mut a, ret);
                (a, stop + 1)
            };
            Self::merge_raises(env, arm_env);
            arms.push(arm);
            p = body_end;
            if self.ctx.is(p, ",") {
                p += 1;
            }
        }
        nodes.push(Node::Branch {
            rd: cond.clone(),
            line: self.line(i),
            arms,
            has_else: true, // match is exhaustive
        });
        (close + 1, cond)
    }

    /// Expression scan over `[s, e)`: records collective nodes, call
    /// edges, taints callee parameters positionally, and returns the
    /// expression's taint.
    fn expr(
        &mut self,
        s: usize,
        e: usize,
        env: &mut Env,
        nodes: &mut Vec<Node>,
        ret: &mut Taint,
    ) -> Taint {
        let mut taint: Taint = None;
        let mut i = s;
        while i < e {
            let Some(t) = self.ctx.code.get(i) else { break };
            if t.kind != TokKind::Ident {
                i += 1;
                continue;
            }
            if matches!(t.text, "if" | "match" | "while" | "for" | "loop") {
                let (next, ct) = self.construct(i, e, env, nodes, ret);
                join(&mut taint, ct);
                i = next.max(i + 1);
                continue;
            }
            if t.text == "return" {
                let stop = self.find_at_depth0(i + 1, e, &[";"]).unwrap_or(e);
                let rt = self.expr(i + 1, stop, env, nodes, ret);
                join(ret, rt);
                nodes.push(Node::Exit {
                    line: self.line(i),
                    ret: true,
                });
                i = stop + 1;
                continue;
            }
            // `.rank` — method call or field read — is THE root source.
            if t.text == "rank" && i >= 1 && self.ctx.is(i - 1, ".") {
                join(
                    &mut taint,
                    Some(format!("`.rank` at {}:{}", self.ctx.rel_path, self.line(i))),
                );
                i = call_open(self.ctx, i)
                    .and_then(|o| self.ctx.bracket_partner(o))
                    .map(|c| c + 1)
                    .unwrap_or(i + 1);
                continue;
            }
            if KEYWORDS.contains(&t.text) {
                i += 1;
                continue;
            }
            let Some(open) = call_open(self.ctx, i) else {
                // Plain ident: tainted local?
                if let Some(wit) = env.get(t.text) {
                    join(&mut taint, Some(wit.clone()));
                }
                i += 1;
                continue;
            };
            let Some(cl) = self.ctx.bracket_partner(open) else {
                i += 1;
                continue;
            };
            let name = t.text.to_string();
            let line = self.line(i);
            let ct = self.call(i, &name, line, open, cl, env, nodes, ret);
            join(&mut taint, ct);
            i = cl + 1;
        }
        taint
    }

    /// One call site `name(args)` with args in `(open, cl)`.
    #[allow(clippy::too_many_arguments)]
    fn call(
        &mut self,
        i: usize,
        name: &str,
        line: usize,
        open: usize,
        cl: usize,
        env: &mut Env,
        nodes: &mut Vec<Node>,
        ret: &mut Taint,
    ) -> Taint {
        // Split top-level argument ranges.
        let mut arg_ranges: Vec<(usize, usize)> = Vec::new();
        {
            let mut a = open + 1;
            while a < cl {
                let stop = self.find_at_depth0(a, cl, &[","]).unwrap_or(cl);
                if stop > a {
                    arg_ranges.push((a, stop));
                }
                a = stop + 1;
            }
        }

        if let Some(cat) = catalog(name) {
            self.st.set_has_coll(self.fid);
            nodes.push(Node::Coll {
                name: name.to_string(),
                line,
            });
            // Args are consumed by the collective; scan them for nested
            // collectives/calls but drop their taint (laundering).
            for &(a, b) in &arg_ranges {
                self.expr(a, b, env, nodes, ret);
            }
            // `&mut buf` args: halo receive taints, reduction launders.
            if cat.args_rd || cat.launders_args {
                for &(a, b) in &arg_ranges {
                    let mut k = a;
                    while k + 2 < b.min(a + 8) {
                        if self.ctx.is(k, "&")
                            && self.ctx.is(k + 1, "mut")
                            && self.ctx.kind(k + 2) == Some(TokKind::Ident)
                        {
                            let var = self.ctx.text(k + 2).to_string();
                            if cat.args_rd {
                                env.insert(
                                    var,
                                    format!(
                                        "halo data from `{name}` at {}:{line}",
                                        self.ctx.rel_path
                                    ),
                                );
                            } else {
                                env.remove(&var);
                            }
                        }
                        k += 1;
                    }
                }
            }
            return cat.ret_rd.then(|| {
                format!(
                    "data received from `{name}` at {}:{line}",
                    self.ctx.rel_path
                )
            });
        }

        // Resolved once, in the workspace. A token that is no call site
        // there (the header of a nested item) has no candidates.
        let ws = self.st.ws;
        let site = ws.call_at(ws.fns[self.fid].file, i);
        let cands = site.map_or(&[][..], |s| &s.cands);
        let is_method_call = site.is_some_and(|s| matches!(s.call, RawCall::Method { .. }));

        // Receiver taint for method calls (`halo.iter()`).
        let recv_taint: Taint = if is_method_call {
            let (base, _) = self.ctx.chain_back(i - 1);
            base.and_then(|b| env.get(b).cloned())
        } else {
            None
        };

        // Argument taints (this also appends nested nodes).
        let arg_taints: Vec<Taint> = arg_ranges
            .iter()
            .map(|&(a, b)| self.expr(a, b, env, nodes, ret))
            .collect();

        if cands.is_empty() {
            // Out-of-workspace call: identity over receiver + args.
            let mut t = recv_taint;
            for a in arg_taints {
                join(&mut t, a);
            }
            return t;
        }

        let mut out: Taint = None;
        let mut coll_qual: Option<&str> = None;
        for &c in cands {
            // Positional parameter taint: leading `self` slot takes the
            // receiver taint for method-form calls.
            let has_self = ws.fns[c].params.first() == Some(&"self");
            let recv_slot = (has_self && is_method_call).then_some(&recv_taint);
            for (slot, t) in recv_slot.into_iter().chain(&arg_taints).enumerate() {
                if let Some(wit) = t {
                    self.st.taint_param(c, slot, wit);
                }
            }
            if let Some(wit) = &self.st.ret_rd[c] {
                join(&mut out, Some(wit.clone()));
            }
            if self.st.has_coll[c] && coll_qual.is_none() {
                coll_qual = Some(&ws.fns[c].qual);
            }
        }
        if let Some(qual) = coll_qual {
            self.st.set_has_coll(self.fid);
            nodes.push(Node::CallColl {
                qual: qual.to_string(),
                line,
            });
        }
        out
    }

    // ---- uniformity check over the finished control tree ----

    /// Direct collective call sites in a node list.
    fn sites(nodes: &[Node]) -> usize {
        nodes
            .iter()
            .map(|n| match n {
                Node::Coll { .. } => 1,
                Node::Branch { arms, .. } => arms.iter().map(|a| Self::sites(a)).sum(),
                Node::Loop { body, .. } => Self::sites(body),
                Node::CallColl { .. } | Node::Exit { .. } => 0,
            })
            .sum()
    }

    /// Abstract collective-sequence signature of a node list.
    fn sig(nodes: &[Node]) -> String {
        let mut parts: Vec<String> = Vec::new();
        for n in nodes {
            match n {
                Node::Coll { name, .. } => parts.push(name.clone()),
                Node::CallColl { qual, .. } => parts.push(format!("@{qual}")),
                Node::Exit { ret, .. } => parts.push(if *ret { "!" } else { "^" }.to_string()),
                Node::Branch { arms, has_else, .. } => {
                    let mut arm_sigs: Vec<String> = arms.iter().map(|a| Self::sig(a)).collect();
                    if !has_else {
                        arm_sigs.push(String::new());
                    }
                    let all_eq = arm_sigs.windows(2).all(|w| w[0] == w[1]);
                    if all_eq {
                        if let Some(s0) = arm_sigs.first() {
                            if !s0.is_empty() {
                                parts.push(s0.clone());
                            }
                        }
                    } else {
                        parts.push(format!("?({})", arm_sigs.join("|")));
                    }
                }
                Node::Loop { body, .. } => {
                    let b = Self::sig(body);
                    if !b.is_empty() {
                        parts.push(format!("*({b})"));
                    }
                }
            }
        }
        parts.join(" ")
    }

    fn has_c(nodes: &[Node]) -> bool {
        nodes.iter().any(|n| match n {
            Node::Coll { .. } | Node::CallColl { .. } => true,
            Node::Exit { .. } => false,
            Node::Branch { arms, .. } => arms.iter().any(|a| Self::has_c(a)),
            Node::Loop { body, .. } => Self::has_c(body),
        })
    }

    /// First direct collective under the node list, for the witness.
    fn first_coll(nodes: &[Node]) -> Option<(String, usize)> {
        for n in nodes {
            match n {
                Node::Coll { name, line } => return Some((name.clone(), *line)),
                Node::CallColl { qual, line } => return Some((format!("@{qual}"), *line)),
                Node::Branch { arms, .. } => {
                    if let Some(hit) = arms.iter().find_map(|a| Self::first_coll(a)) {
                        return Some(hit);
                    }
                }
                Node::Loop { body, .. } => {
                    if let Some(hit) = Self::first_coll(body) {
                        return Some(hit);
                    }
                }
                Node::Exit { .. } => {}
            }
        }
        None
    }

    fn emit(&mut self, line: usize, message: String) {
        // Per-site allow pragma on the branch/loop line, then the
        // fn-level allow recorded at extraction.
        let site_allow = self.ctx.allow_covering(COLLECTIVE_DIVERGENCE, line);
        if let Some(pline) = site_allow.or(self.st.allow_fn[self.fid]) {
            self.st
                .used_allow
                .insert((self.ctx.rel_path.to_string(), pline));
            return;
        }
        self.st.divergent[self.fid] = true;
        self.st.findings.push(Finding {
            rel_path: self.ctx.rel_path.to_string(),
            line,
            rule: COLLECTIVE_DIVERGENCE,
            message,
        });
    }

    /// Recursive uniformity check.
    ///
    /// * `any_loop_c` — some enclosing loop contains a collective, so a
    ///   rank-dependent `return` diverges (it skips that loop's
    ///   remaining iterations).
    /// * `inner_loop_c` — the *innermost* enclosing loop contains a
    ///   collective; only then do `break`/`continue` skip one.
    /// * `after_c` — collectives run after this node sequence completes
    ///   (tail of an enclosing block or the next loop iteration), so a
    ///   rank-dependent `return` diverges even with nothing left here.
    fn check(&mut self, nodes: &[Node], any_loop_c: bool, inner_loop_c: bool, after_c: bool) {
        for (idx, n) in nodes.iter().enumerate() {
            let rest_c = after_c || Self::has_c(&nodes[idx + 1..]);
            match n {
                Node::Branch {
                    rd: Some(wit),
                    line,
                    arms,
                    has_else,
                } => {
                    let mut arm_sigs: Vec<String> = arms.iter().map(|a| Self::sig(a)).collect();
                    if !has_else {
                        arm_sigs.push(String::new());
                    }
                    let distinct = !arm_sigs.windows(2).all(|w| w[0] == w[1]);
                    let any_c = arms.iter().any(|a| Self::has_c(a));
                    let ret_exit = arm_sigs.iter().any(|s| s.contains('!'));
                    let loop_exit = arm_sigs.iter().any(|s| s.contains('^'));
                    let exits_diverge =
                        (ret_exit && (rest_c || any_loop_c)) || (loop_exit && inner_loop_c);
                    if distinct && (any_c || exits_diverge) {
                        let qual = &self.st.ws.fns[self.fid].qual;
                        let what = Self::first_coll(
                            arms.iter()
                                .flatten()
                                .cloned()
                                .collect::<Vec<_>>()
                                .as_slice(),
                        )
                        .or_else(|| Self::first_coll(&nodes[idx + 1..]))
                        .map(|(n, l)| format!("collective `{n}` (line {l})"))
                        .unwrap_or_else(|| "a collective on the continuing path".to_string());
                        self.emit(
                            *line,
                            format!(
                                "fn `{qual}`: {what} is guarded by a rank-dependent condition (line {line}); \
                                 arm sequences [{}]; tainted by {wit}",
                                arm_sigs
                                    .iter()
                                    .map(|s| if s.is_empty() { "-" } else { s.as_str() })
                                    .collect::<Vec<_>>()
                                    .join(" | ")
                            ),
                        );
                    }
                    for a in arms {
                        self.check(a, any_loop_c, inner_loop_c, rest_c);
                    }
                }
                Node::Branch { arms, .. } => {
                    for a in arms {
                        self.check(a, any_loop_c, inner_loop_c, rest_c);
                    }
                }
                Node::Loop {
                    rd: Some(wit),
                    line,
                    body,
                } => {
                    if Self::has_c(body) {
                        let qual = &self.st.ws.fns[self.fid].qual;
                        let what = Self::first_coll(body)
                            .map(|(n, l)| format!("collective `{n}` (line {l})"))
                            .unwrap_or_default();
                        self.emit(
                            *line,
                            format!(
                                "fn `{qual}`: {what} inside a loop whose trip count is \
                                 rank-dependent (line {line}); tainted by {wit}"
                            ),
                        );
                    }
                    let body_c = Self::has_c(body);
                    self.check(body, any_loop_c || body_c, body_c, body_c || rest_c);
                }
                Node::Loop { body, .. } => {
                    let body_c = Self::has_c(body);
                    self.check(body, any_loop_c || body_c, body_c, body_c || rest_c);
                }
                _ => {}
            }
        }
    }
}

/// Assemble the report from the final fixpoint state and trees.
fn finish(
    st: State<'_, '_>,
    trees: &[Vec<Node>],
    mut trusted_sites: Vec<(String, usize)>,
) -> UniformReport {
    let ws = st.ws;
    let n = ws.fns.len();
    let mut fns_out: Vec<FnUniform> = Vec::new();
    let mut collective_sites = 0usize;
    for (f, tree) in trees.iter().enumerate() {
        if ws.fns[f].is_test || !st.has_coll[f] {
            continue;
        }
        let file = ws.ctx(f).rel_path;
        let verdict = if st.trusted[f] {
            "trusted"
        } else if st.divergent[f] {
            "divergent"
        } else {
            "uniform"
        };
        let sites = Walk::sites(tree);
        collective_sites += sites;
        fns_out.push(FnUniform {
            qual: ws.fns[f].qual.clone(),
            file: file.to_string(),
            line: ws.fns[f].line,
            sites,
            verdict,
        });
    }
    fns_out.sort_by(|a, z| (&a.qual, &a.file, a.line).cmp(&(&z.qual, &z.file, z.line)));

    trusted_sites.sort();
    let mut findings = st.findings;
    findings.sort();
    findings.dedup();

    UniformReport {
        functions: n,
        call_edges: ws.call_edges(),
        collective_sites,
        fns: fns_out,
        trusted_sites,
        used_allow: st.used_allow,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{BAD_PRAGMA, UNUSED_PRAGMA};

    fn run(src: &str) -> UniformReport {
        analyze(&[("crates/comms/src/t.rs".to_string(), src.to_string())])
    }

    fn divergences(r: &UniformReport) -> Vec<&Finding> {
        r.findings
            .iter()
            .filter(|f| f.rule == COLLECTIVE_DIVERGENCE)
            .collect()
    }

    #[test]
    fn rank_guarded_collective_is_flagged_with_witness() {
        let r = run(r#"
pub fn drive(world: &mut dyn CommWorld) {
    if world.rank() == 0 {
        world.global_sum(1.0);
    }
}
"#);
        let d = divergences(&r);
        assert_eq!(d.len(), 1, "{:?}", r.findings);
        assert_eq!(d[0].line, 3);
        assert!(d[0].message.contains("global_sum"), "{}", d[0].message);
        assert!(d[0].message.contains("`.rank`"), "{}", d[0].message);
    }

    #[test]
    fn equal_sequences_across_arms_are_uniform() {
        let r = run(r#"
pub fn drive(world: &mut dyn CommWorld, a: f64, b: f64) {
    let x = if world.rank() == 0 { a } else { b };
    world.global_sum(x);
}
"#);
        assert!(divergences(&r).is_empty(), "{:?}", r.findings);
        assert_eq!(r.collective_sites, 1);
    }

    #[test]
    fn return_taint_flows_through_helper() {
        let r = run(r#"
fn my_rank(world: &mut dyn CommWorld) -> usize {
    world.rank()
}
pub fn drive(world: &mut dyn CommWorld) {
    if my_rank(world) == 0 {
        return;
    }
    world.barrier();
}
"#);
        let d = divergences(&r);
        assert_eq!(d.len(), 1, "{:?}", r.findings);
        assert!(d[0].message.contains("barrier"), "{}", d[0].message);
    }

    /// Regression: the capped round-robin stopped after eleven rounds, so
    /// with callers defined before callees a chain this deep reported
    /// nothing. The witness must survive any depth — carried up as a
    /// return taint, and carried up as a has-collective bit: there the
    /// caller's first walk sees no collective under its guard, so the
    /// finding shows only if the check reads the caller's latest tree.
    #[test]
    fn return_taint_crosses_a_call_chain_of_any_depth() {
        for depth in [4, 14, 40] {
            let mut src = String::from(
                "pub fn drive(world: &mut dyn CommWorld) {\n    \
                     if world.rank() > 0 {\n        g0(world);\n    }\n}\n",
            );
            for k in 1..depth {
                src += &format!(
                    "fn g{}(world: &mut dyn CommWorld) {{\n    g{k}(world);\n}}\n",
                    k - 1
                );
            }
            src += &format!(
                "fn g{}(world: &mut dyn CommWorld) {{\n    world.barrier();\n}}\n",
                depth - 1
            );
            let r = run(&src);
            let d = divergences(&r);
            assert_eq!(d.len(), 1, "depth {depth}: {:?}", r.findings);
            assert_eq!(d[0].line, 2);
            for part in [
                "fn `comms::t::drive`: collective `@comms::t::g0` (line 3)",
                "guarded by a rank-dependent condition (line 2)",
                "tainted by `.rank` at crates/comms/src/t.rs:2",
            ] {
                assert!(
                    d[0].message.contains(part),
                    "depth {depth}: {}",
                    d[0].message
                );
            }
        }
        for depth in [4, 14, 40] {
            let mut src = String::from(
                "pub fn drive(world: &mut dyn CommWorld) {\n    \
                     if f0(world) > 0 {\n        world.barrier();\n    }\n}\n",
            );
            for k in 1..depth {
                src += &format!(
                    "fn f{}(world: &mut dyn CommWorld) -> usize {{\n    f{k}(world)\n}}\n",
                    k - 1
                );
            }
            src += &format!(
                "fn f{}(world: &mut dyn CommWorld) -> usize {{\n    world.rank()\n}}\n",
                depth - 1
            );
            let r = run(&src);
            let d = divergences(&r);
            assert_eq!(d.len(), 1, "depth {depth}: {:?}", r.findings);
            assert_eq!(d[0].line, 2);
            let source_line = 4 + 3 * depth;
            for part in [
                "fn `comms::t::drive`: collective `barrier` (line 3)".to_string(),
                "guarded by a rank-dependent condition (line 2)".to_string(),
                format!("tainted by `.rank` at crates/comms/src/t.rs:{source_line}"),
            ] {
                assert!(
                    d[0].message.contains(&part),
                    "depth {depth}: {}",
                    d[0].message
                );
            }
        }
    }

    /// Regression: a tuple-pattern parameter used to drop out of the
    /// positional list, so `r`'s taint fell off the end.
    #[test]
    fn pattern_parameter_keeps_later_arguments_aligned() {
        let r = run(r#"
fn helper(a: usize, (x, y): (f64, f64), n: usize) {
    for _ in 0..n {
        W.barrier();
    }
}
pub fn drive(world: &mut dyn CommWorld) {
    let r = world.rank();
    helper(1, (0.0, 0.0), r);
}
"#);
        let d = divergences(&r);
        assert_eq!(d.len(), 1, "{:?}", r.findings);
        assert_eq!(d[0].line, 3);
        assert!(d[0].message.contains("trip count"), "{}", d[0].message);
        assert!(d[0].message.contains("`.rank` at"), "{}", d[0].message);
    }

    /// Reference fixpoint: walk every function, round after round, until
    /// a whole round fills no slot.
    fn walk_everything_until_stable(st: &mut State<'_, '_>) {
        let filled = |st: &State<'_, '_>| {
            st.ret_rd.iter().flatten().count()
                + st.param_rd.iter().flatten().flatten().count()
                + st.has_coll.iter().filter(|&&c| c).count()
        };
        loop {
            let before = filled(st);
            for fid in (0..st.dirty.len()).filter(|&f| !st.ws.fns[f].is_test) {
                st.walk(fid);
            }
            if filled(st) == before {
                return;
            }
        }
    }

    #[test]
    fn dirty_sweep_matches_walking_everything_until_stable() {
        let fixtures =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/uniform");
        let mut inputs: Vec<Vec<(String, String)>> = std::fs::read_dir(&fixtures)
            .expect("uniform fixtures dir")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .map(|p| {
                let src = std::fs::read_to_string(&p).expect("fixture source");
                let rel = src.lines().find_map(|l| l.strip_prefix("//@path "));
                vec![(rel.expect("//@path").trim().to_string(), src.clone())]
            })
            .collect();
        assert!(inputs.len() >= 4, "uniform fixture set went missing");
        // And the one input deep and wide enough to need many sweeps.
        inputs.push(crate::collect_sources(&crate::workspace_root()).expect("live tree"));
        for sources in &inputs {
            let ws = Workspace::build(sources);
            let swept = super::run(&ws, graph::sweep);
            let reference = super::run(&ws, walk_everything_until_stable);
            assert_eq!(swept.render_golden(), reference.render_golden());
            assert_eq!(swept.used_allow, reference.used_allow);
        }
    }

    #[test]
    fn param_taint_flows_through_method_call() {
        let r = run(r#"
struct H;
impl H {
    fn guard(&self, r: usize) -> bool {
        r == 0
    }
}
pub fn drive(world: &mut dyn CommWorld, h: &H) {
    let r = world.rank();
    if h.guard(r) {
        world.global_sum(1.0);
    }
}
"#);
        let d = divergences(&r);
        assert_eq!(d.len(), 1, "{:?}", r.findings);
    }

    #[test]
    fn std_method_on_a_primitive_takes_no_workspace_taint() {
        let r = run(crate::graph::USIZE_RECEIVER_SRC);
        // `drive` calls `usize::saturating_sub`; only `rebound`, whose
        // receiver nobody can type, still meets `Elapsed`'s `.rank`.
        let d = divergences(&r);
        assert_eq!(d.len(), 1, "{:?}", r.findings);
        assert!(d[0].message.contains("`comms::t::rebound`"), "{:?}", d[0]);
    }

    #[test]
    fn reductions_launder_rank_dependence() {
        let r = run(r#"
pub fn drive(world: &mut dyn CommWorld) {
    let local = world.rank() as f64;
    let speed = world.global_max(local);
    if speed > 1.0 {
        world.global_sum(speed);
    }
    let mut pair = [local, local];
    world.global_sum_vec(&mut pair);
    if pair[0] > 0.0 {
        world.barrier();
    }
}
"#);
        assert!(divergences(&r).is_empty(), "{:?}", r.findings);
        assert_eq!(r.collective_sites, 4);
    }

    #[test]
    fn unequal_collective_sequences_are_flagged() {
        let r = run(r#"
pub fn drive(world: &mut dyn CommWorld) {
    if world.rank() == 0 {
        world.global_sum(1.0);
    } else {
        world.barrier();
    }
}
"#);
        let d = divergences(&r);
        assert_eq!(d.len(), 1, "{:?}", r.findings);
        assert!(d[0].message.contains('|'), "{}", d[0].message);
    }

    #[test]
    fn received_halo_data_taints_loop_bound() {
        let r = run(r#"
pub fn drive(world: &mut dyn CommWorld, out: Vec<(usize, Vec<f64>)>) {
    let incoming = world.exchange(out);
    for _m in incoming {
        world.barrier();
    }
}
"#);
        let d = divergences(&r);
        assert_eq!(d.len(), 1, "{:?}", r.findings);
        assert!(d[0].message.contains("trip count"), "{}", d[0].message);
        assert!(
            d[0].message.contains("data received from `exchange`"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn rank_dependent_early_return_before_collective() {
        let r = run(r#"
pub fn drive(world: &mut dyn CommWorld) {
    if world.rank() != 0 {
        return;
    }
    world.barrier();
}
"#);
        assert_eq!(divergences(&r).len(), 1, "{:?}", r.findings);
    }

    #[test]
    fn loop_exit_in_collective_free_inner_loop_is_uniform() {
        // `continue` only skips the innermost loop; no collective there.
        let r = run(r#"
pub fn drive(world: &mut dyn CommWorld, mask: Vec<f64>) {
    let r = world.rank();
    loop {
        let mut acc = 0.0;
        for m in &mask {
            if *m as usize == r {
                continue;
            }
            acc += m;
        }
        world.global_sum(acc);
        break;
    }
}
"#);
        assert!(divergences(&r).is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn if_else_initializer_is_not_let_else() {
        // Regression: the depth-0 `else` of an `if` *expression* on a
        // `let` RHS must not be parsed as let-else divergence.
        let r = run(r#"
pub fn drive(world: &mut dyn CommWorld, d: f64) {
    let r = world.rank() as f64;
    let z = if d > r { d } else { 0.0 };
    world.global_sum(z);
}
"#);
        assert!(divergences(&r).is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn allow_pragma_suppresses_and_is_used() {
        let r = run(r#"
pub fn drive(world: &mut dyn CommWorld) {
    // lint:allow(collective-divergence, manual proof: demo)
    if world.rank() == 0 {
        world.global_sum(1.0);
    }
}
"#);
        assert!(divergences(&r).is_empty(), "{:?}", r.findings);
        assert_eq!(r.used_allow.len(), 1);
        assert!(r
            .used_allow
            .contains(&("crates/comms/src/t.rs".to_string(), 3)));
    }

    #[test]
    fn trusted_pragma_skips_fn_and_is_audited() {
        let r = run(r#"
// lint:uniform-trusted(rank 0 intentionally reports alone; harness drains)
pub fn report(world: &mut dyn CommWorld) {
    if world.rank() == 0 {
        world.global_sum(1.0);
    }
}
"#);
        assert!(divergences(&r).is_empty(), "{:?}", r.findings);
        assert_eq!(r.trusted_sites.len(), 1);
        let row = r.fns.iter().find(|f| f.qual == "comms::t::report").unwrap();
        assert_eq!(row.verdict, "trusted");
    }

    #[test]
    fn bad_and_stale_trusted_pragmas_are_findings() {
        let r = run(r#"
// lint:uniform-trusted()
pub fn a(world: &mut dyn CommWorld) {
    world.barrier();
}

// lint:uniform-trusted(floating, attaches to nothing)
const X: usize = 0;
"#);
        let rules: Vec<&str> = r.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&BAD_PRAGMA), "{:?}", r.findings);
        assert!(rules.contains(&UNUSED_PRAGMA), "{:?}", r.findings);
    }

    #[test]
    fn test_functions_are_not_walked() {
        let r = run(r#"
#[cfg(test)]
mod tests {
    #[test]
    fn per_rank_probe(world: &mut dyn CommWorld) {
        if world.rank() == 0 {
            world.barrier();
        }
    }
}
"#);
        assert!(divergences(&r).is_empty(), "{:?}", r.findings);
        assert_eq!(r.collective_sites, 0);
    }

    #[test]
    fn golden_render_is_stable() {
        let src = r#"
pub fn drive(world: &mut dyn CommWorld) {
    world.barrier();
}
"#;
        let a = run(src).render_golden();
        let b = run(src).render_golden();
        assert_eq!(a, b);
        assert_eq!(a, "fn comms::t::drive sites=1 uniform\nfindings: none\n");
    }
}
