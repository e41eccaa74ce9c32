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
//! Each body is interpreted from the control tree [`crate::graph`]
//! parsed it into once ([`graph::FnRec::body`]).
//!
//! Soundness caveats (documented, deliberate): closures are inlined
//! into the enclosing function (over-approximate), `?` early returns
//! are not modeled, struct fields are not tracked as taint carriers
//! (only locals and parameters), and two arms calling *different*
//! collective-bearing helpers are flagged even if the helpers happen to
//! issue equal sequences. The one escape hatch is
//! `lint:allow(collective-divergence, why)`: on a branch or loop line
//! (or alone above it) it covers that site, directly above a `fn` every
//! site of the function.

use crate::graph::{self, Atom, Block, Call, Expr, Fixpoint, RawCall, Workspace};
use crate::passes::FileCtx;
use crate::rules::{Finding, COLLECTIVE_DIVERGENCE};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

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
/// source description that first raised it (shared, so a copy is cheap).
type Taint = Option<Rc<str>>;

fn join(a: &mut Taint, b: Taint) {
    if a.is_none() {
        *a = b;
    }
}

/// Tainted locals: name → witness.
type Env<'a> = BTreeMap<&'a str, Rc<str>>;

/// Bind each of `binders` to `taint` when it is rank-dependent.
fn bind<'a>(env: &mut Env<'a>, binders: &[&'a str], taint: &Taint) {
    if let Some(wit) = taint {
        for &b in binders {
            env.insert(b, wit.clone());
        }
    }
}

/// One node of a function's control-flow summary.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Node {
    /// Direct catalog call.
    Coll { name: &'static str, line: usize },
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
    /// "uniform" | "divergent".
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
    /// (file, pragma line) of every `lint:allow` pragma this analysis
    /// honored.
    pub used_allow: BTreeSet<(String, usize)>,
    /// `collective-divergence` findings.
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
        let mut env = Env::new();
        for (&p, t) in def.params.iter().zip(&self.param_rd[fid]) {
            if let Some(wit) = t {
                env.insert(p, wit.clone());
            }
        }
        let mut w = Walk {
            ctx: ws.ctx(fid),
            st: self,
            fid,
            ret: None,
        };
        let (nodes, last) = w.block(&def.body, &mut env);
        join(&mut w.ret, last);
        if let Some(wit) = w.ret.take() {
            w.st.taint_ret(fid, wit);
        }
        w.st.trees[fid] = nodes;
    }

    fn taint_param(&mut self, f: usize, slot: usize, wit: &Rc<str>) {
        if let Some(t @ None) = self.param_rd[f].get_mut(slot) {
            *t = Some(wit.clone());
            self.dirty[f] = true;
        }
    }

    fn taint_ret(&mut self, f: usize, wit: Rc<str>) {
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
    let mut st = State {
        ws,
        ret_rd: vec![None; n],
        param_rd: ws.fns.iter().map(|f| vec![None; f.params.len()]).collect(),
        has_coll: vec![false; n],
        dirty: vec![true; n],
        trees: vec![Vec::new(); n],
        findings: Vec::new(),
        used_allow: BTreeSet::new(),
        divergent: vec![false; n],
    };
    fixpoint(&mut st);
    // Each latest tree is final: with nothing dirty, a walk now would
    // read the very inputs that walk read.
    let trees = std::mem::take(&mut st.trees);
    for (fid, tree) in trees.iter().enumerate() {
        if !ws.fns[fid].is_test {
            let ctx = ws.ctx(fid);
            Walk {
                ctx,
                st: &mut st,
                fid,
                ret: None,
            }
            .check(tree, false, false, false);
        }
    }
    finish(st, &trees)
}

/// One interpretation of a function's body: it produces the body's
/// control-flow summary and propagates taint.
struct Walk<'s, 'w, 'a> {
    ctx: &'w FileCtx<'a>,
    st: &'s mut State<'w, 'a>,
    fid: usize,
    /// The taint of the values the function returns.
    ret: Taint,
}

impl<'a> Walk<'_, '_, 'a> {
    /// Walk one arm in a copy of `env`; a name the arm taints stays
    /// tainted after it, since the arm may have run.
    fn arm(
        &mut self,
        env: &mut Env<'a>,
        walk: impl FnOnce(&mut Self, &mut Env<'a>) -> Vec<Node>,
    ) -> Vec<Node> {
        let mut arm_env = env.clone();
        let nodes = walk(self, &mut arm_env);
        for (k, v) in arm_env {
            env.entry(k).or_insert(v);
        }
        nodes
    }

    /// [`Walk::arm`] over `block`, in which `binders` carry `taint`.
    fn block_arm(
        &mut self,
        block: &Block<'a>,
        binders: &[&'a str],
        taint: &Taint,
        env: &mut Env<'a>,
    ) -> Vec<Node> {
        self.arm(env, |w, env| {
            bind(env, binders, taint);
            w.block(block, env).0
        })
    }

    /// A statement sequence: its summary and the taint of its last
    /// statement (the block's value).
    fn block(&mut self, block: &Block<'a>, env: &mut Env<'a>) -> (Vec<Node>, Taint) {
        let mut nodes = Vec::new();
        let last = (block.iter()).fold(None, |_, stmt| self.expr(stmt, env, &mut nodes));
        (nodes, last)
    }

    /// An expression: records collective nodes, taints callee parameters
    /// positionally, and returns the expression's taint.
    fn expr(&mut self, atoms: &Expr<'a>, env: &mut Env<'a>, nodes: &mut Vec<Node>) -> Taint {
        let mut taint: Taint = None;
        for atom in atoms {
            let t = match atom {
                Atom::Name(name) => env.get(name).cloned(),
                Atom::Rank(line) => Some(format!("`.rank` at {}:{line}", self.ctx.rel_path).into()),
                Atom::Call(call) => self.call(call, env, nodes),
                Atom::Let(line, binders, init, els) => {
                    let t = self.expr(init, env, nodes);
                    if let Some((else_line, block)) = els {
                        let mut arm = self.block_arm(block, &[], &None, env);
                        arm.push(Node::Exit {
                            line: *else_line,
                            ret: true,
                        });
                        nodes.push(Node::Branch {
                            rd: t.clone(),
                            line: *line,
                            arms: vec![arm],
                            has_else: false,
                        });
                    }
                    for &b in binders {
                        match &t {
                            Some(wit) => {
                                env.insert(b, wit.clone());
                            }
                            None => {
                                env.remove(b);
                            }
                        }
                    }
                    None
                }
                // Join the RHS taint into `name`; a plain rebind to a
                // uniform value launders.
                Atom::Assign(name, plain, rhs) => {
                    match self.expr(rhs, env, nodes) {
                        Some(wit) => {
                            env.entry(name).or_insert(wit);
                        }
                        None if *plain => {
                            env.remove(name);
                        }
                        None => {}
                    }
                    None
                }
                // A `return`'s value is the function's.
                Atom::Exit(line, ret, value) => {
                    let t = self.expr(value, env, nodes);
                    if *ret {
                        join(&mut self.ret, t);
                    }
                    nodes.push(Node::Exit {
                        line: *line,
                        ret: *ret,
                    });
                    None
                }
                Atom::If(line, arms, els) => {
                    let (mut cond, mut summaries) = (None, Vec::new());
                    for arm in arms {
                        let c = self.expr(&arm.test, env, nodes);
                        join(&mut cond, c.clone());
                        summaries.push(self.block_arm(&arm.body, &arm.names, &c, env));
                    }
                    if let Some(block) = els {
                        summaries.push(self.block_arm(block, &[], &None, env));
                    }
                    nodes.push(Node::Branch {
                        rd: cond.clone(),
                        line: *line,
                        arms: summaries,
                        has_else: els.is_some(),
                    });
                    cond
                }
                Atom::Match(line, scrutinee, arms) => {
                    let mut cond = self.expr(scrutinee, env, nodes);
                    let mut summaries = Vec::new();
                    for arm in arms {
                        // The guard's taint joins the match's, and the
                        // binders carry it.
                        summaries.push(self.arm(env, |w, arm_env| {
                            let gt = w.expr(&arm.test, arm_env, nodes);
                            join(&mut cond, gt);
                            bind(arm_env, &arm.names, &cond);
                            w.block(&arm.body, arm_env).0
                        }));
                    }
                    nodes.push(Node::Branch {
                        rd: cond.clone(),
                        line: *line,
                        arms: summaries,
                        has_else: true, // match is exhaustive
                    });
                    cond
                }
                // `rd` taints the trip count.
                Atom::Loop(line, binders, head, body) => {
                    let rd = self.expr(head, env, nodes);
                    let body_nodes = self.block_arm(body, binders, &rd, env);
                    nodes.push(Node::Loop {
                        rd,
                        line: *line,
                        body: body_nodes,
                    });
                    None
                }
            };
            join(&mut taint, t);
        }
        taint
    }

    /// One call site.
    fn call(&mut self, call: &Call<'a>, env: &mut Env<'a>, nodes: &mut Vec<Node>) -> Taint {
        let (name, line) = (call.name, call.line);
        if let Some(cat) = catalog(name) {
            self.st.set_has_coll(self.fid);
            nodes.push(Node::Coll {
                name: cat.name,
                line,
            });
            // Args are consumed by the collective; scan them for nested
            // collectives/calls but drop their taint (laundering).
            for arg in &call.args {
                self.expr(arg, env, nodes);
            }
            // `&mut buf` args: halo receive taints, reduction launders.
            let path = self.ctx.rel_path;
            for &var in &call.muts {
                if cat.args_rd {
                    let wit = format!("halo data from `{name}` at {path}:{line}");
                    env.insert(var, wit.into());
                } else if cat.launders_args {
                    env.remove(var);
                }
            }
            return (cat.ret_rd)
                .then(|| format!("data received from `{name}` at {path}:{line}").into());
        }

        // Resolved once, in the workspace.
        let ws = self.st.ws;
        let site = ws.site(self.fid, call);
        let is_method_call = matches!(site.call, RawCall::Method { .. });

        // Receiver taint for method calls (`halo.iter()`).
        let recv_taint = call.base.and_then(|b| env.get(b).cloned());

        // Argument taints (this also appends nested nodes).
        let arg_taints: Vec<Taint> = (call.args.iter())
            .map(|arg| self.expr(arg, env, nodes))
            .collect();

        if site.cands.is_empty() {
            // Out-of-workspace call: identity over receiver + args.
            let mut t = recv_taint;
            for a in arg_taints {
                join(&mut t, a);
            }
            return t;
        }

        let mut out: Taint = None;
        let mut coll_qual: Option<&str> = None;
        for &c in &site.cands {
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
                Node::Coll { name, .. } => parts.push(name.to_string()),
                Node::CallColl { qual, .. } => parts.push(format!("@{qual}")),
                Node::Exit { ret, .. } => parts.push(if *ret { "!" } else { "^" }.to_string()),
                Node::Branch { arms, has_else, .. } => {
                    let arm_sigs = Self::arm_sigs(arms, *has_else);
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

    /// One signature per arm, plus the empty one of a missing `else`.
    fn arm_sigs(arms: &[Vec<Node>], has_else: bool) -> Vec<String> {
        let mut sigs: Vec<String> = arms.iter().map(|a| Self::sig(a)).collect();
        if !has_else {
            sigs.push(String::new());
        }
        sigs
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
                Node::Coll { name, line } => return Some((name.to_string(), *line)),
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
        // Per-site allow pragmas on the branch/loop line, else the ones
        // above the `fn`.
        let fn_line = self.st.ws.fns[self.fid].line;
        let used = &mut self.st.used_allow;
        if self.ctx.allow_into(COLLECTIVE_DIVERGENCE, line, used)
            || self.ctx.allow_into(COLLECTIVE_DIVERGENCE, fn_line, used)
        {
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
                    rd,
                    line,
                    arms,
                    has_else,
                } => {
                    if let Some(wit) = rd {
                        let arm_sigs = Self::arm_sigs(arms, *has_else);
                        let distinct = !arm_sigs.windows(2).all(|w| w[0] == w[1]);
                        let any_c = arms.iter().any(|a| Self::has_c(a));
                        let ret_exit = arm_sigs.iter().any(|s| s.contains('!'));
                        let loop_exit = arm_sigs.iter().any(|s| s.contains('^'));
                        let exits_diverge =
                            (ret_exit && (rest_c || any_loop_c)) || (loop_exit && inner_loop_c);
                        if distinct && (any_c || exits_diverge) {
                            let qual = &self.st.ws.fns[self.fid].qual;
                            let what = Self::first_coll(std::slice::from_ref(n))
                                .or_else(|| Self::first_coll(&nodes[idx + 1..]))
                                .map(|(n, l)| format!("collective `{n}` (line {l})"))
                                .unwrap_or_else(|| {
                                    "a collective on the continuing path".to_string()
                                });
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
                    }
                    for a in arms {
                        self.check(a, any_loop_c, inner_loop_c, rest_c);
                    }
                }
                Node::Loop { rd, line, body } => {
                    let body_c = Self::has_c(body);
                    if let Some(wit) = rd.as_ref().filter(|_| body_c) {
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
                    self.check(body, any_loop_c || body_c, body_c, body_c || rest_c);
                }
                _ => {}
            }
        }
    }
}

/// Assemble the report from the final fixpoint state and trees.
fn finish(st: State<'_, '_>, trees: &[Vec<Node>]) -> UniformReport {
    let ws = st.ws;
    let n = ws.fns.len();
    let mut fns_out: Vec<FnUniform> = Vec::new();
    let mut collective_sites = 0usize;
    for (f, tree) in trees.iter().enumerate() {
        if ws.fns[f].is_test || !st.has_coll[f] {
            continue;
        }
        let file = ws.ctx(f).rel_path;
        let verdict = if st.divergent[f] {
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

    let mut findings = st.findings;
    findings.sort();
    findings.dedup();

    UniformReport {
        functions: n,
        call_edges: ws.call_edges(),
        collective_sites,
        fns: fns_out,
        used_allow: st.used_allow,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn fn_level_allow_covers_every_site_of_its_fn() {
        let r = run(r#"
// lint:allow(collective-divergence, rank 0 intentionally reports alone; harness drains)
pub fn report(world: &mut dyn CommWorld) {
    if world.rank() == 0 {
        world.global_sum(1.0);
    }
    while world.rank() > 1 {
        world.barrier();
    }
}
"#);
        assert!(divergences(&r).is_empty(), "{:?}", r.findings);
        let pragma = ("crates/comms/src/t.rs".to_string(), 2);
        assert_eq!(r.used_allow, BTreeSet::from([pragma]));
        let row = r.fns.iter().find(|f| f.qual == "comms::t::report").unwrap();
        assert_eq!(row.verdict, "uniform");
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
