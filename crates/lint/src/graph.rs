//! `lint::graph` — the one front end under every whole-program analysis.
//!
//! [`Workspace::build`] does each expensive thing once, on two threads.
//! Each lexes its half of the sources (cut where their bytes reach half)
//! into [`FileCtx`]s and walks each file's `impl`/`trait`/`mod`/`fn`
//! scopes a single time to fill the function table ([`FnRec`]), parsing
//! each body once (`Parser`) into its control tree ([`Block`]) and its
//! call sites ([`CallSite`]). The halves are joined in file order,
//! each thread resolves half the call sites against the whole function
//! table, and the forward and reverse edges are folded in site order.
//! [`crate::rules`] runs over `ws.files`, [`crate::flow`] gives each
//! function the entries of its file's source list its spans own, and
//! [`crate::uniform`] interprets each tree, whose calls name their sites
//! ([`Workspace::site`]) — so a call site resolves to the same
//! candidates for everyone. Both whole-program analyses reach their
//! fixpoint through the one `sweep`.
//!
//! Resolution order: a bare `name(..)` narrows same-file → same-crate →
//! workspace; `Type::name(..)` / `Self::name(..)` go through a
//! `(type, name)` index; `module::name(..)` matches the qualified-name
//! tail; `recv.name(..)` uses the receiver type inferred from
//! parameters, `let` bindings seen so far in token order, and `self`,
//! falling back to *every* same-named method when the type is unknown
//! (sound for dynamic dispatch). Test scope (`tests/`, `#[cfg(test)]`)
//! is never a callee of non-test code, and a function is never its own
//! candidate. Where a call's argument list can be counted (see
//! [`CallSite::args`]), a candidate with another number of parameters
//! is dropped, so an iterator's `.collect()` no longer reaches a
//! two-parameter workspace `collect`.

use crate::lexer::TokKind;
use crate::passes::FileCtx;
use crate::side_by_side;
use std::collections::BTreeMap;

/// Words that look like `ident (` in token space but are not calls.
pub const KEYWORDS: &[&str] = &[
    "fn", "for", "if", "while", "match", "return", "in", "as", "let", "loop", "move", "mut", "ref",
    "box", "unsafe", "where", "use", "pub", "crate", "super", "self", "Self", "dyn", "static",
    "const", "break", "continue", "else", "async", "await", "type", "impl", "struct", "enum",
    "union", "trait", "mod", "extern", "true", "false",
];

pub fn starts_upper(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}

/// Integration tests and `#[cfg(test)]` bodies are test scope: they may
/// be nondeterministic setup and are never callees of lib code.
fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/")
}

/// Module path for qualification, derived from the file path:
/// `crates/comms/src/world.rs` → `comms::world`,
/// `crates/lint/src/main.rs` → `lint`,
/// `src/lib.rs` → `hyades`, `tests/determinism.rs` → `tests::determinism`.
fn module_path(rel: &str) -> String {
    let stem = rel.strip_suffix(".rs").unwrap_or(rel);
    let parts: Vec<&str> = stem.split('/').collect();
    let mut segs: Vec<&str> = Vec::new();
    match parts.as_slice() {
        ["crates", c, "src", rest @ ..] => {
            segs.push(c);
            segs.extend(rest);
        }
        ["crates", c, rest @ ..] => {
            segs.push(c);
            segs.extend(rest);
        }
        ["src", rest @ ..] => {
            segs.push("hyades");
            segs.extend(rest);
        }
        rest => segs.extend(rest),
    }
    segs.retain(|s| !matches!(*s, "lib" | "main" | "mod"));
    segs.join("::")
}

/// For an `impl` at `i`, the subject type name (`impl Foo` → `Foo`,
/// `impl Trait for Bar` → `Bar`) and the body-opening `{` index.
fn impl_subject<'a>(ctx: &FileCtx<'a>, i: usize) -> Option<(&'a str, usize)> {
    let mut j = i + 1;
    if ctx.is(j, "<") {
        j = ctx.skip_angles(j);
    }
    let mut subject: Option<&'a str> = None;
    let mut reading = true;
    while j < ctx.code.len() {
        match ctx.text(j) {
            "{" => return subject.map(|s| (s, j)),
            ";" => return None,
            "for" => {
                subject = None;
                reading = true;
                j += 1;
            }
            "where" => {
                reading = false;
                j += 1;
            }
            "<" => j = ctx.skip_angles(j),
            "(" | "[" => j = ctx.bracket_partner(j)? + 1,
            t => {
                if reading && ctx.kind(j) == Some(TokKind::Ident) && !matches!(t, "dyn" | "mut") {
                    subject = Some(t);
                }
                j += 1;
            }
        }
    }
    None
}

/// Locally inferred receiver types: variable → type name.
type Locals<'a> = BTreeMap<&'a str, &'a str>;

/// The primitive numeric types. A value of one has the methods the
/// workspace `impl`s for that very type and no other workspace method.
const PRIMITIVE_NUMERIC: [&str; 14] = [
    "usize", "u8", "u16", "u32", "u64", "u128", "isize", "i8", "i16", "i32", "i64", "i128", "f32",
    "f64",
];

/// Type name at `k` behind any `&` / `mut` / `dyn` / lifetime prefix —
/// only a leading uppercase ident or a primitive numeric type counts.
fn type_head<'a>(ctx: &FileCtx<'a>, mut k: usize) -> Option<&'a str> {
    while matches!(ctx.text(k), "&" | "mut" | "dyn") || ctx.kind(k) == Some(TokKind::Lifetime) {
        k += 1;
    }
    let t = ctx.text(k);
    (ctx.kind(k) == Some(TokKind::Ident) && (starts_upper(t) || PRIMITIVE_NUMERIC.contains(&t)))
        .then_some(t)
}

/// The parameters of the `fn` whose name is token `name_idx`, in
/// declaration order (a leading `self` included), each with the head of
/// its type for local receiver inference (`x: Type`, `x: &mut Type`;
/// path heads and generics are ignored). A pattern parameter
/// (`(x, y): (f64, f64)`, `P { a, b }: P`, `[a, b]: [u8; 2]`) holds its
/// slot under the empty name, which no token spells, for positional
/// argument-to-parameter taint mapping.
fn params<'a>(ctx: &FileCtx<'a>, name_idx: usize) -> Vec<(&'a str, Option<&'a str>)> {
    let mut out = Vec::new();
    let mut p = name_idx + 1;
    if ctx.is(p, "<") {
        p = ctx.skip_angles(p);
    }
    let Some(close) = ctx.is(p, "(").then(|| ctx.bracket_partner(p)).flatten() else {
        return out;
    };
    p += 1;
    // No name recorded yet for the parameter `p` is inside.
    let mut unnamed = true;
    while p < close {
        let t = ctx.text(p);
        match t {
            "<" => {
                p = ctx.skip_angles(p);
                continue;
            }
            "(" | "[" | "{" => {
                // `#[attr]` on a parameter is not a slice pattern.
                if unnamed && !(p >= 1 && ctx.is(p - 1, "#")) {
                    out.push(("", None));
                    unnamed = false;
                }
                p = ctx.bracket_partner(p).map_or(close, |q| q + 1);
                continue;
            }
            "," => unnamed = true,
            "&" | "mut" | "ref" => {}
            _ if unnamed && ctx.kind(p) == Some(TokKind::Ident) => {
                // `name: T` and `self` are names; anything else heads a
                // struct pattern (`P { .. }: P`).
                let typed = ctx.is(p + 1, ":");
                let named = t == "self" || (typed && !KEYWORDS.contains(&t));
                let ty = typed.then(|| type_head(ctx, p + 2)).flatten();
                out.push(if named { (t, ty) } else { ("", None) });
                unnamed = false;
            }
            _ => {}
        }
        p += 1;
    }
    out
}

/// `let [mut] x: Type = ..` / `let [mut] x = [path::]Type::ctor(..)` /
/// `let x = Type { .. }` — record `x: Type`. Any other `let` shadows
/// what was known of the names it binds.
fn record_let<'a>(ctx: &FileCtx<'a>, i: usize, end: usize, locals: &mut Locals<'a>) {
    let l = ctx.let_parts(i, end);
    let (s, e) = l.pat;
    let x = if ctx.is(s, "mut") { s + 1 } else { s };
    let ty = match (l.colon, l.eq) {
        _ if e != x + 1 => None,
        (Some(colon), _) => type_head(ctx, colon + 1),
        (None, Some(eq)) => init_type(ctx, eq + 1),
        (None, None) => None,
    };
    if let Some(ty) = ty {
        locals.insert(ctx.text(x), ty);
    } else if e == x + 1 {
        locals.remove(ctx.text(x));
    } else {
        for b in ctx.binders(s, e) {
            locals.remove(b);
        }
    }
}

/// The type an initializer from `k` on builds: `[path::]Type::ctor(..)`
/// or `Type { .. }`.
fn init_type<'a>(ctx: &FileCtx<'a>, mut k: usize) -> Option<&'a str> {
    loop {
        if ctx.kind(k) != Some(TokKind::Ident) {
            return None;
        }
        if starts_upper(ctx.text(k)) {
            let ctor_call = ctx.is(k + 1, "::")
                && ctx.kind(k + 2) == Some(TokKind::Ident)
                && ctx.is(k + 3, "(");
            let struct_lit = ctx.is(k + 1, "{");
            return (ctor_call || struct_lit).then(|| ctx.text(k));
        }
        // Walk over a lowercase `path::` prefix.
        if ctx.is(k + 1, "::") {
            k += 2;
        } else {
            return None;
        }
    }
}

/// How a call site names its callee, before resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RawCall<'a> {
    /// `name(..)` — plain path-less call.
    Free { name: &'a str },
    /// `Type::name(..)` / `Self::name(..)`.
    TypeQual { ty: &'a str, name: &'a str },
    /// `module::name(..)` (lowercase qualifier).
    ModQual { module: &'a str, name: &'a str },
    /// `recv.name(..)`; `recv` is the locally inferred receiver type.
    Method {
        name: &'a str,
        recv: Option<&'a str>,
    },
}

/// Classify a call at ident token `i` (already known to be followed by
/// `(` modulo turbofish). `self_ty` is the enclosing impl/trait subject,
/// `locals` the inferred local types.
fn classify_call<'a>(
    ctx: &FileCtx<'a>,
    i: usize,
    self_ty: Option<&'a str>,
    locals: &Locals<'a>,
) -> RawCall<'a> {
    let name = ctx.text(i);
    if i >= 1 && ctx.is(i - 1, ".") {
        let (base, chain) = ctx.chain_back(i - 1);
        // A primitive type is believed only of the variable itself
        // (`n.method()`): behind a call chain or a field path the base's
        // name says nothing about the receiver, and a primitive receiver
        // has no by-name fallback to make a wrong guess harmless.
        let direct = chain.is_empty() && !(i >= 3 && ctx.is(i - 3, "."));
        let recv = match base {
            Some("self") => self_ty,
            Some(v) => locals
                .get(v)
                .copied()
                .filter(|ty| direct || !PRIMITIVE_NUMERIC.contains(ty)),
            None => None,
        };
        RawCall::Method { name, recv }
    } else if i >= 2 && ctx.is(i - 1, "::") && ctx.kind(i - 2) == Some(TokKind::Ident) {
        match (ctx.text(i - 2), self_ty) {
            ("Self", Some(ty)) => RawCall::TypeQual { ty, name },
            ("Self", None) | ("crate" | "super" | "self", _) => RawCall::Free { name },
            (ty, _) if starts_upper(ty) => RawCall::TypeQual { ty, name },
            (module, _) => RawCall::ModQual { module, name },
        }
    } else if i >= 1 && ctx.is(i - 1, "::") {
        // `<T as Trait>::name(..)`: qualifier unknown, over-approximate.
        RawCall::Method { name, recv: None }
    } else {
        RawCall::Free { name }
    }
}

/// One function definition — the single description every analysis
/// shares. Strings borrow from the source text.
#[derive(Debug, PartialEq)]
pub struct FnRec<'a> {
    pub name: &'a str,
    /// Module path + enclosing scopes + name
    /// (`comms::world::ThreadWorld::exchange`).
    pub qual: String,
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token index of the name; the parameter list follows it.
    pub name_idx: usize,
    /// The body, parsed (empty for a test function: nothing interprets
    /// it).
    pub body: Block<'a>,
    /// Index in [`Workspace::calls`] of the body's first call site; the
    /// rest follow it in token order.
    pub first_call: usize,
    /// Enclosing `impl` / `trait` subject.
    pub self_ty: Option<&'a str>,
    /// Under `tests/` or a `#[cfg(test)]` item.
    pub is_test: bool,
    /// Positional parameter names; see `params` for patterns.
    pub params: Vec<&'a str>,
    /// Half-open token ranges this function owns: signature and body,
    /// minus nested functions and the headers of nested items.
    pub spans: Vec<(usize, usize)>,
}

/// One call site: `ident (` inside a function, classified where it
/// stands and resolved against the whole workspace.
#[derive(Debug, PartialEq)]
pub struct CallSite<'a> {
    /// Token index of the callee identifier, in the caller's file.
    pub tok: usize,
    /// The innermost enclosing function.
    pub caller: usize,
    pub call: RawCall<'a>,
    /// Arguments passed, the receiver of a `recv.name(..)` call counted
    /// as the first, so it compares with a definition's parameter count
    /// `self` included; `None` when the list cannot be counted.
    pub args: Option<usize>,
    /// Candidate callees, as indices into [`Workspace::fns`].
    pub cands: Vec<usize>,
}

/// A function body's control tree: its statements, each an expression
/// (empty for one with no value: `let x;`, a nested `fn`). A block's
/// value is its last statement's.
pub type Block<'a> = Vec<Expr<'a>>;

/// An expression, flattened to the atoms that carry control or taint, in
/// token order: everything else (operators, literals, keywords, a
/// closure's bars) is read past.
pub type Expr<'a> = Vec<Atom<'a>>;

/// An atom; the `usize` first in a construct is the line it starts on.
#[derive(Debug, PartialEq)]
pub enum Atom<'a> {
    /// A plain identifier.
    Name(&'a str),
    /// A `.rank` read, method call or field.
    Rank(usize),
    Call(Box<Call<'a>>),
    /// `let PAT [: T] = INIT [else { .. }]`: the names `PAT` binds,
    /// `INIT`, and a `let … else` block with the line of its `else`.
    Let(usize, Vec<&'a str>, Expr<'a>, Option<(usize, Block<'a>)>),
    /// `NAME = RHS` (`true`) or `NAME op= RHS`.
    Assign(&'a str, bool, Expr<'a>),
    /// `return` (`true`), `break` or `continue`, and the expression after
    /// it.
    Exit(usize, bool, Expr<'a>),
    /// `if [let] … { } [else if …]`: an arm per condition, and the `else`
    /// block.
    If(usize, Vec<Arm<'a>>, Option<Block<'a>>),
    /// `match SCRUTINEE { PAT [if GUARD] => BODY, … }`.
    Match(usize, Expr<'a>, Vec<Arm<'a>>),
    /// `while [let PAT =] HEAD`, `for PAT in HEAD`, `loop` (no head): the
    /// names `PAT` binds, `HEAD` and the body.
    Loop(usize, Vec<&'a str>, Expr<'a>, Block<'a>),
}

/// An arm of an `if` chain (`test` is its condition) or of a `match`
/// (`test` is its guard, empty without one).
#[derive(Debug, PartialEq)]
pub struct Arm<'a> {
    /// The names an `if let` or match pattern binds.
    pub names: Vec<&'a str>,
    pub test: Expr<'a>,
    pub body: Block<'a>,
}

/// A call in a body: `name(args)`, `recv.name(args)`, `path::name(args)`.
#[derive(Debug, PartialEq)]
pub struct Call<'a> {
    /// Its site, counted from the function's [`FnRec::first_call`].
    pub site: usize,
    pub name: &'a str,
    pub line: usize,
    /// Of a method call: the identifier its receiver chain hangs off.
    pub base: Option<&'a str>,
    /// The arguments, as [`FileCtx::args`] splits them.
    pub args: Vec<Expr<'a>>,
    /// The names an argument's first tokens pass as `&mut name`.
    pub muts: Vec<&'a str>,
}

/// The lexed files, the function table, and the resolved call graph.
pub struct Workspace<'a> {
    /// One per source, in input order.
    pub files: Vec<FileCtx<'a>>,
    /// In file order, then definition order.
    pub fns: Vec<FnRec<'a>>,
    /// In function order, each function's in token order.
    pub calls: Vec<CallSite<'a>>,
    /// Per function: its distinct candidate callees, ascending.
    pub callees: Vec<Vec<usize>>,
    /// Per function: its distinct callers, ascending.
    pub callers: Vec<Vec<usize>>,
}

impl<'a> Workspace<'a> {
    /// Lex, walk, and resolve `(rel_path, contents)` sources. Sources
    /// should be pre-sorted by path (as `collect_sources` returns them)
    /// for deterministic function indices.
    pub fn build(sources: &'a [(String, String)]) -> Workspace<'a> {
        let (lower, upper) = sources.split_at(byte_half(sources));
        let (top, mut ws) = side_by_side(|| front_end(upper, lower.len()), || front_end(lower, 0));
        let (offset, sites) = (ws.fns.len(), ws.calls.len());
        ws.files.extend(top.files);
        ws.fns.extend(top.fns.into_iter().map(|f| FnRec {
            first_call: f.first_call + sites,
            ..f
        }));
        for mut site in top.calls {
            site.caller += offset;
            ws.calls.push(site);
        }
        let (resolver, files, fns) = (Resolver::new(&ws.fns), &ws.files, &ws.fns);
        let resolve = |sites: &mut [CallSite<'a>]| {
            for site in sites {
                site.cands = resolver.candidates(files, fns, site);
            }
        };
        let mid = ws.calls.len() / 2;
        let (lo, hi) = ws.calls.split_at_mut(mid);
        side_by_side(|| resolve(hi), || resolve(lo));
        ws.callees = vec![Vec::new(); ws.fns.len()];
        for site in &ws.calls {
            ws.callees[site.caller].extend(&site.cands);
        }
        ws.callers = vec![Vec::new(); ws.fns.len()];
        for (f, cs) in ws.callees.iter_mut().enumerate() {
            cs.sort_unstable();
            cs.dedup();
            for &c in cs.iter() {
                ws.callers[c].push(f);
            }
        }
        ws
    }

    /// The site of call `call` in function `f`'s body.
    pub fn site(&self, f: usize, call: &Call<'a>) -> &CallSite<'a> {
        &self.calls[self.fns[f].first_call + call.site]
    }

    /// Distinct (caller, candidate callee) pairs — the one edge count
    /// both whole-program reports carry.
    pub fn call_edges(&self) -> usize {
        self.callees.iter().map(Vec::len).sum()
    }

    /// The file function `f` is defined in.
    pub fn ctx(&self, f: usize) -> &FileCtx<'a> {
        &self.files[self.fns[f].file]
    }
}

/// A monotone fact per function, driven to its fixpoint one function
/// evaluation at a time: [`crate::flow`]'s effects and
/// [`crate::uniform`]'s taints.
pub(crate) trait Fixpoint {
    /// Per function: an input of its evaluation changed since it last
    /// ran. An evaluation sets the flag of every function whose input it
    /// changes.
    fn dirty(&mut self) -> &mut [bool];
    /// Evaluate function `f` against the current state.
    fn eval(&mut self, f: usize);
}

/// The one fixpoint engine: sweep in function-index order until nothing
/// is dirty. An evaluation whose inputs have not changed could only
/// re-offer facts the state already holds — a no-op — so skipping it
/// leaves the state-changing evaluations, and hence every witness, in
/// plain round-robin order. The flag is read as the sweep reaches each
/// function: one dirtied by a lower index is evaluated in the same sweep.
pub(crate) fn sweep<F: Fixpoint>(st: &mut F) {
    while st.dirty().contains(&true) {
        for f in 0..st.dirty().len() {
            if std::mem::take(&mut st.dirty()[f]) {
                st.eval(f);
            }
        }
    }
}

/// Where [`Workspace::build`] cuts the path-sorted sources: after the
/// file at which their cumulative bytes reach half the total.
fn byte_half(sources: &[(String, String)]) -> usize {
    let total: usize = sources.iter().map(|(_, src)| src.len()).sum();
    let mut seen = 0;
    let crossing = sources.iter().position(|(_, src)| {
        seen += src.len();
        2 * seen >= total
    });
    crossing.map_or(0, |k| k + 1)
}

/// Lex and walk `sources`, the workspace's files from index `first` on,
/// into their tables, callers numbered from 0 (no call site resolved).
fn front_end<'a>(sources: &'a [(String, String)], first: usize) -> Workspace<'a> {
    let files: Vec<FileCtx<'a>> = sources
        .iter()
        .map(|(rel, src)| FileCtx::new(rel, src))
        .collect();
    let (mut fns, mut calls) = (Vec::new(), Vec::new());
    for (k, ctx) in files.iter().enumerate() {
        walk_file(ctx, first + k, &mut fns, &mut calls);
    }
    let (callees, callers) = (Vec::new(), Vec::new());
    Workspace {
        files,
        fns,
        calls,
        callees,
        callers,
    }
}

/// One open `impl` / `trait` / `mod` / `fn` during [`walk_file`].
struct Scope<'a> {
    /// Token index of the closing `}`.
    close: usize,
    /// Qualified-name segment.
    seg: &'a str,
    /// `impl` / `trait` subject, inherited by the functions inside.
    ty: Option<&'a str>,
    /// For a `fn`: its index.
    func: Option<usize>,
}

/// The `impl` / `trait` / `mod` at `i`, as the [`Scope`] its body opens
/// and the index of its `{`.
fn header<'a>(ctx: &FileCtx<'a>, i: usize) -> Option<(Scope<'a>, usize)> {
    let next_is_ident = ctx.kind(i + 1) == Some(TokKind::Ident);
    let (seg, ty, open) = match ctx.text(i) {
        "impl" => impl_subject(ctx, i).map(|(ty, open)| (ty, Some(ty), open)),
        "trait" if next_is_ident => {
            let name = ctx.text(i + 1);
            ctx.body_open(i + 2).map(|open| (name, Some(name), open))
        }
        "mod" if next_is_ident && ctx.is(i + 2, "{") => Some((ctx.text(i + 1), None, i + 2)),
        _ => None,
    }?;
    let close = ctx.bracket_partner(open)?;
    let scope = Scope {
        close,
        seg,
        ty,
        func: None,
    };
    Some((scope, open))
}

/// Where the tokens from `i` on stop belonging to no function, if token
/// `i` starts an item: past a nested `fn` (its own function), past the
/// `{` of an `impl` / `trait` / `mod` header, past the name after
/// `struct` / `enum` / `union` (a tuple struct's `Name(..)` is no call).
/// The scope walk and the body parse both skip by this rule.
fn item_skip(ctx: &FileCtx<'_>, i: usize) -> Option<usize> {
    match ctx.text(i) {
        "fn" if ctx.kind(i + 1) == Some(TokKind::Ident) => Some(item_end(ctx, i)),
        "impl" | "trait" | "mod" => Some(header(ctx, i).map_or(i + 1, |(_, open)| open + 1)),
        "struct" | "enum" | "union" => Some(i + 2),
        _ => None,
    }
}

/// The argument list `(open, close)` of the call whose callee is token
/// `i`, if `i` is one: `name(..)` or `name::<T>(..)`, never a keyword.
fn call_parens(ctx: &FileCtx<'_>, i: usize) -> Option<(usize, usize)> {
    let open = ctx
        .call_open(i)
        .filter(|_| !KEYWORDS.contains(&ctx.text(i)))?;
    Some((open, ctx.bracket_partner(open)?))
}

/// The single scope walk: every `fn` with a body becomes a [`FnRec`],
/// its body parsed there and then by [`Parser`] into its control tree
/// and [`CallSite`]s; every other identifier inside one is owned by the
/// innermost enclosing function.
fn walk_file<'a>(
    ctx: &FileCtx<'a>,
    file: usize,
    fns: &mut Vec<FnRec<'a>>,
    calls: &mut Vec<CallSite<'a>>,
) {
    let base = module_path(ctx.rel_path);
    let path_test = is_test_path(ctx.rel_path);
    let mut scopes: Vec<Scope<'a>> = Vec::new();
    // The function whose last span is still growing; an item header
    // (whose tokens nobody owns) closes it.
    let mut growing: Option<usize> = None;
    let mut i = 0usize;
    while i < ctx.code.len() {
        while scopes.last().is_some_and(|s| i > s.close) {
            scopes.pop();
        }
        let t = ctx.code[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let next_is_ident = ctx.kind(i + 1) == Some(TokKind::Ident);
        match t.text {
            "fn" if next_is_ident => {
                let name_idx = i + 1;
                let fn_tok = i;
                i = name_idx + 1;
                growing = None;
                let Some((open, close)) =
                    (ctx.body_open(i)).and_then(|open| Some((open, ctx.bracket_partner(open)?)))
                else {
                    continue; // bodyless trait method
                };
                let name = ctx.text(name_idx);
                let params = params(ctx, name_idx);
                let mut qual = base.clone();
                for seg in scopes.iter().map(|s| s.seg).chain([name]) {
                    if !qual.is_empty() {
                        qual.push_str("::");
                    }
                    qual.push_str(seg);
                }
                let self_ty = scopes.iter().rev().find_map(|s| s.ty);
                let is_test = path_test || ctx.in_test[fn_tok];
                let locals = params.iter().filter_map(|&(p, ty)| Some((p, ty?)));
                let mut p = Parser {
                    ctx,
                    fid: fns.len(),
                    self_ty,
                    close,
                    locals: locals.collect(),
                    first_call: calls.len(),
                    calls,
                    pos: name_idx + 1,
                };
                // Nothing interprets a test function: its sites suffice.
                let body = (!is_test).then(|| p.block(open + 1, close));
                p.catch_up(close);
                fns.push(FnRec {
                    name,
                    qual,
                    file,
                    line: ctx.line(fn_tok),
                    name_idx,
                    body: body.unwrap_or_default(),
                    first_call: p.first_call,
                    self_ty,
                    is_test,
                    params: params.into_iter().map(|(p, _)| p).collect(),
                    spans: Vec::new(),
                });
                // Keep scanning inside: a nested fn is its own function.
                scopes.push(Scope {
                    close,
                    seg: name,
                    ty: None,
                    func: Some(fns.len() - 1),
                });
            }
            _ => match item_skip(ctx, i) {
                Some(next) => {
                    scopes.extend(header(ctx, i).map(|(scope, _)| scope));
                    i = next;
                    growing = None;
                }
                None => {
                    if let Some(fid) = scopes.iter().rev().find_map(|s| s.func) {
                        match fns[fid].spans.last_mut() {
                            Some(span) if growing == Some(fid) => span.1 = i + 1,
                            _ => {
                                fns[fid].spans.push((i, i + 1));
                                growing = Some(fid);
                            }
                        }
                    }
                    i += 1;
                }
            },
        }
    }
}

/// The one parse of a function body, in token order. It builds the
/// body's [`Block`] the way [`crate::uniform`] interprets it, and records
/// every call site with the receiver types the parameters and the `let`s
/// read so far give: a call an atom holds is recorded as the atom is
/// made, every other token (patterns, types, a `.rank(..)`'s arguments)
/// is read for its calls and `let`s as the parse passes it
/// ([`Parser::catch_up`]).
struct Parser<'c, 'a> {
    ctx: &'c FileCtx<'a>,
    fid: usize,
    self_ty: Option<&'a str>,
    /// The body's `}`: where a `let` is read up to for its type.
    close: usize,
    /// Locally inferred receiver types.
    locals: Locals<'a>,
    calls: &'c mut Vec<CallSite<'a>>,
    first_call: usize,
    /// Every token before it has been read.
    pos: usize,
}

impl<'a> Parser<'_, 'a> {
    /// Read the tokens up to `to` for call sites and `let`s, skipping
    /// what belongs to no function ([`item_skip`]).
    fn catch_up(&mut self, to: usize) {
        let ctx = self.ctx;
        while self.pos < to {
            let i = self.pos;
            self.pos += 1;
            if ctx.kind(i) != Some(TokKind::Ident) {
                continue;
            }
            if let Some(next) = item_skip(ctx, i) {
                self.pos = next;
            } else if ctx.is(i, "let") {
                record_let(ctx, i, self.close, &mut self.locals);
            } else if let Some((open, close)) = call_parens(ctx, i) {
                let (args, sure) = ctx.args(open, close);
                self.site(i, sure.then_some(args.len()));
            }
        }
    }

    /// Record the call whose callee is token `i` and that passes `args`
    /// arguments (if they can be counted); its index among the
    /// function's sites.
    fn site(&mut self, i: usize, args: Option<usize>) -> usize {
        let ctx = self.ctx;
        let receiver = usize::from(i >= 1 && ctx.is(i - 1, "."));
        self.calls.push(CallSite {
            tok: i,
            caller: self.fid,
            call: classify_call(ctx, i, self.self_ty, &self.locals),
            args: args.map(|n| n + receiver),
            cands: Vec::new(),
        });
        self.calls.len() - 1 - self.first_call
    }

    /// The block `{ .. }` whose `{` is `open`, as (open, close).
    fn braces(&self, open: usize) -> Option<(usize, usize)> {
        let close = self
            .ctx
            .bracket_partner(open)
            .filter(|_| self.ctx.is(open, "{"));
        Some((open, close?))
    }

    /// After `if` / `while` at `i`: an `if let` / `while let` pattern's
    /// binders and where the condition starts.
    fn cond_binders(&self, i: usize, end: usize) -> (Vec<&'a str>, usize) {
        let l = self
            .ctx
            .is(i + 1, "let")
            .then(|| self.ctx.let_parts(i + 1, end));
        match l.and_then(|l| Some((l.pat, l.eq?))) {
            Some(((s, e), eq)) => (self.ctx.binders(s, e), eq + 1),
            None => (Vec::new(), i + 1),
        }
    }

    /// The statements over `[start, end)`.
    fn block(&mut self, start: usize, end: usize) -> Block<'a> {
        let mut stmts = Vec::new();
        let mut i = start;
        while i < end {
            if self.ctx.is(i, ";") || self.ctx.is(i, ",") {
                i += 1;
                continue;
            }
            let (next, stmt) = self.stmt(i, end);
            stmts.push(stmt);
            i = next.max(i + 1);
        }
        stmts
    }

    /// One statement starting at `i`, and where the next one starts.
    fn stmt(&mut self, i: usize, end: usize) -> (usize, Expr<'a>) {
        let ctx = self.ctx;
        let (next, atom) = match ctx.text(i) {
            "fn" if ctx.kind(i + 1) == Some(TokKind::Ident) => (item_end(ctx, i).min(end), None),
            "let" => self.stmt_let(i, end),
            "if" | "match" | "while" | "for" | "loop" => self.construct(i, end),
            "break" | "continue" => {
                let stop = ctx.find_at_depth0(i + 1, end, &[";"]).unwrap_or(end);
                let value = self.expr(i + 1, stop);
                (stop + 1, Some(Atom::Exit(ctx.line(i), false, value)))
            }
            _ => {
                let stop = ctx.find_at_depth0(i, end, &[";"]).unwrap_or(end);
                // `x = e` / `x += e`.
                if ctx.kind(i) != Some(TokKind::Ident)
                    || !matches!(ctx.text(i + 1), "=" | "+=" | "-=" | "*=" | "/=")
                {
                    return (stop + 1, self.expr(i, stop));
                }
                let (name, rhs) = (ctx.text(i), self.expr(i + 2, stop));
                (stop + 1, Some(Atom::Assign(name, ctx.is(i + 1, "="), rhs)))
            }
        };
        (next, atom.into_iter().collect())
    }

    /// `let [mut] pat [: ty] = expr [else { .. }];` at `i`.
    fn stmt_let(&mut self, i: usize, end: usize) -> (usize, Option<Atom<'a>>) {
        let ctx = self.ctx;
        let l = ctx.let_parts(i, end);
        let Some(eq) = l.eq else {
            return (l.stop + 1, None); // `let x;`
        };
        // `let pat = expr else { diverge };` — but a depth-0 `else`
        // preceded by `}` belongs to an `if`/`match` *expression* on the
        // RHS (let-else needs a refutable pattern; its initializer never
        // ends in a brace).
        let else_at = ctx
            .find_at_depth0(eq + 1, l.stop, &["else"])
            .filter(|&ea| ea == eq + 1 || !ctx.is(ea - 1, "}"));
        let init = self.expr(eq + 1, else_at.unwrap_or(l.stop));
        let els = else_at.and_then(|ea| {
            let (open, close) = self.braces(ea + 1)?;
            Some((ctx.line(ea), self.block(open + 1, close)))
        });
        let binders = self.ctx.binders(l.pat.0, l.pat.1);
        (l.stop + 1, Some(Atom::Let(ctx.line(i), binders, init, els)))
    }

    /// `if`/`match`/`while`/`for`/`loop` at `i`, in statement or
    /// expression position: where parsing resumes, and the atom (none
    /// without a body).
    fn construct(&mut self, i: usize, end: usize) -> (usize, Option<Atom<'a>>) {
        let ctx = self.ctx;
        // The binders, where the head the trip count reads starts, and
        // the body.
        let (binders, head) = match ctx.text(i) {
            "if" => return self.construct_if(i, end),
            "match" => return self.construct_match(i),
            "while" => {
                let (binders, j) = self.cond_binders(i, end);
                (binders, Some(j))
            }
            "for" => {
                let Some(in_at) = ctx.find_at_depth0(i + 1, end, &["in"]) else {
                    return (i + 1, None);
                };
                (self.ctx.binders(i + 1, in_at), Some(in_at + 1))
            }
            _ => (Vec::new(), None),
        };
        let open = head.map_or(Some(i + 1), |j| ctx.body_open(j));
        let Some((open, close)) = open.and_then(|o| self.braces(o)) else {
            return (i + 1, None);
        };
        let head = head.map_or_else(Vec::new, |j| self.expr(j, open));
        let body = self.block(open + 1, close);
        (
            close + 1,
            Some(Atom::Loop(ctx.line(i), binders, head, body)),
        )
    }

    fn construct_if(&mut self, i: usize, end: usize) -> (usize, Option<Atom<'a>>) {
        let ctx = self.ctx;
        let (mut arms, mut els) = (Vec::new(), None);
        let mut cur = i;
        let next = loop {
            let (names, j) = self.cond_binders(cur, end);
            let Some((open, close)) = ctx.body_open(j).and_then(|o| self.braces(o)) else {
                return (cur + 1, None);
            };
            let test = self.expr(j, open);
            let body = self.block(open + 1, close);
            arms.push(Arm { names, test, body });
            let k = close + 1;
            if !ctx.is(k, "else") {
                break k;
            }
            if ctx.is(k + 1, "if") {
                cur = k + 1;
                continue;
            }
            match self.braces(k + 1) {
                Some((open, close)) => {
                    els = Some(self.block(open + 1, close));
                    break close + 1;
                }
                None => break k + 1,
            }
        };
        (next, Some(Atom::If(ctx.line(i), arms, els)))
    }

    fn construct_match(&mut self, i: usize) -> (usize, Option<Atom<'a>>) {
        let ctx = self.ctx;
        let Some((open, close)) = ctx.body_open(i + 1).and_then(|o| self.braces(o)) else {
            return (i + 1, None);
        };
        let scrutinee = self.expr(i + 1, open);
        let mut arms = Vec::new();
        let mut p = open + 1;
        while p < close {
            let Some(arrow) = ctx.find_at_depth0(p, close, &["=>"]) else {
                break;
            };
            // `pat [if guard] => body`
            let guard_at = ctx.find_at_depth0(p, arrow, &["if"]);
            let names = self.ctx.binders(p, guard_at.unwrap_or(arrow));
            let test = guard_at.map_or_else(Vec::new, |g| self.expr(g + 1, arrow));
            // A block body, or an expression up to the arm's `,`.
            let (body, after) = match self.braces(arrow + 1) {
                Some((o, c)) => (self.block(o + 1, c), c + 1),
                None => {
                    let stop = (ctx.find_at_depth0(arrow + 1, close, &[","])).unwrap_or(close);
                    (vec![self.expr(arrow + 1, stop)], stop + 1)
                }
            };
            arms.push(Arm { names, test, body });
            p = after + usize::from(ctx.is(after, ","));
        }
        (close + 1, Some(Atom::Match(ctx.line(i), scrutinee, arms)))
    }

    /// The atoms of `[s, e)`.
    fn expr(&mut self, s: usize, e: usize) -> Expr<'a> {
        let ctx = self.ctx;
        let mut atoms = Vec::new();
        let mut i = s;
        while i < e {
            if ctx.kind(i) != Some(TokKind::Ident) {
                i += 1;
                continue;
            }
            if let Some(next) = item_skip(ctx, i) {
                i = next.min(e);
                continue;
            }
            let t = ctx.text(i);
            match t {
                "if" | "match" | "while" | "for" | "loop" => {
                    let (next, atom) = self.construct(i, e);
                    atoms.extend(atom);
                    i = next.max(i + 1);
                }
                "return" => {
                    let stop = ctx.find_at_depth0(i + 1, e, &[";"]).unwrap_or(e);
                    let value = self.expr(i + 1, stop);
                    atoms.push(Atom::Exit(ctx.line(i), true, value));
                    i = stop + 1;
                }
                // `.rank` — method call or field read — is THE root source.
                "rank" if i >= 1 && ctx.is(i - 1, ".") => {
                    atoms.push(Atom::Rank(ctx.line(i)));
                    i = (ctx.call_open(i))
                        .and_then(|o| ctx.bracket_partner(o))
                        .map_or(i + 1, |c| c + 1);
                }
                _ => match call_parens(ctx, i) {
                    Some((open, close)) => {
                        atoms.push(Atom::Call(Box::new(self.call(i, open, close))));
                        i = close + 1;
                    }
                    // A keyword is no atom, however it stands.
                    None => {
                        let name = !KEYWORDS.contains(&t) && ctx.call_open(i).is_none();
                        atoms.extend(name.then_some(Atom::Name(t)));
                        i += 1;
                    }
                },
            }
        }
        atoms.shrink_to_fit();
        atoms
    }

    /// The call whose callee is token `i`, its arguments in `(open, close)`.
    fn call(&mut self, i: usize, open: usize, close: usize) -> Call<'a> {
        debug_assert!(self.pos <= i, "the parse went back");
        self.catch_up(i);
        self.pos = i + 1;
        let ctx = self.ctx;
        let (ranges, sure) = ctx.args(open, close);
        let site = self.site(i, sure.then_some(ranges.len()));
        let method =
            matches!(self.calls.last(), Some(c) if matches!(c.call, RawCall::Method { .. }));
        let muts = (ranges.iter())
            .flat_map(|&(a, b)| a..b.min(a + 8).saturating_sub(2))
            .filter(|&k| {
                ctx.is(k, "&") && ctx.is(k + 1, "mut") && ctx.kind(k + 2) == Some(TokKind::Ident)
            })
            .map(|k| ctx.text(k + 2))
            .collect();
        Call {
            site,
            name: ctx.text(i),
            line: ctx.line(i),
            base: method.then(|| ctx.chain_back(i - 1).0).flatten(),
            args: ranges.iter().map(|&(a, b)| self.expr(a, b)).collect(),
            muts,
        }
    }
}

/// Past the nested `fn` item at `i`: its body's `}`, or its name when it
/// has no body.
fn item_end(ctx: &FileCtx<'_>, i: usize) -> usize {
    (ctx.body_open(i + 2))
        .and_then(|b| ctx.bracket_partner(b))
        .map_or(i + 2, |c| c + 1)
}

/// Name indexes over the function table, alive only while
/// [`Workspace::build`] resolves the call sites (see the module docs for
/// the resolution order).
struct Resolver<'a> {
    methods: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    methods_by_name: BTreeMap<&'a str, Vec<usize>>,
    free_by_name: BTreeMap<&'a str, Vec<usize>>,
}

/// The functions indexed under `key` (none when absent).
fn ids<'m, K: Ord>(index: &'m BTreeMap<K, Vec<usize>>, key: &K) -> &'m [usize] {
    index.get(key).map_or(&[], Vec::as_slice)
}

impl<'a> Resolver<'a> {
    fn new(fns: &[FnRec<'a>]) -> Resolver<'a> {
        let mut r = Resolver {
            methods: BTreeMap::new(),
            methods_by_name: BTreeMap::new(),
            free_by_name: BTreeMap::new(),
        };
        for (id, f) in fns.iter().enumerate() {
            match f.self_ty {
                Some(ty) => {
                    r.methods.entry((ty, f.name)).or_default().push(id);
                    r.methods_by_name.entry(f.name).or_default().push(id);
                }
                None => r.free_by_name.entry(f.name).or_default().push(id),
            }
        }
        r
    }

    /// Candidate callees for the call `site`.
    fn candidates(
        &self,
        files: &[FileCtx<'a>],
        fns: &[FnRec<'a>],
        site: &CallSite<'a>,
    ) -> Vec<usize> {
        let caller = site.caller;
        let crate_of = |f: usize| files[fns[f].file].scope.crate_name.as_deref();
        let narrowed: Vec<usize>;
        let cands: &[usize] = match site.call {
            RawCall::Free { name } => {
                let all = ids(&self.free_by_name, &name);
                let same_file = |&c: &usize| fns[c].file == fns[caller].file;
                let same_crate =
                    |&c: &usize| crate_of(c).is_some() && crate_of(c) == crate_of(caller);
                narrowed = if all.iter().any(same_file) {
                    all.iter().copied().filter(same_file).collect()
                } else {
                    all.iter().copied().filter(same_crate).collect()
                };
                if narrowed.is_empty() {
                    all
                } else {
                    &narrowed
                }
            }
            RawCall::TypeQual { ty, name } => ids(&self.methods, &(ty, name)),
            RawCall::ModQual { module, name } => {
                // `qual` is `module::name` or ends in `::module::name`.
                let in_module = |&c: &usize| {
                    fns[c]
                        .qual
                        .strip_suffix(name)
                        .and_then(|q| q.strip_suffix("::"))
                        .and_then(|q| q.strip_suffix(module))
                        .is_some_and(|q| q.is_empty() || q.ends_with("::"))
                };
                narrowed = ids(&self.free_by_name, &name)
                    .iter()
                    .copied()
                    .filter(in_module)
                    .collect();
                &narrowed
            }
            RawCall::Method { name, recv } => {
                match recv.map(|ty| (ty, ids(&self.methods, &(ty, name)))) {
                    Some((_, v)) if !v.is_empty() => v,
                    // `n.saturating_sub(1)` on a `usize` is std's, never a
                    // workspace type's method of the same name.
                    Some((ty, _)) if PRIMITIVE_NUMERIC.contains(&ty) => &[],
                    _ => ids(&self.methods_by_name, &name),
                }
            }
        };
        let caller_test = fns[caller].is_test;
        let arity = |c: usize| site.args.is_none_or(|n| fns[c].params.len() == n);
        cands
            .iter()
            .copied()
            .filter(|&c| c != caller && (caller_test || !fns[c].is_test) && arity(c))
            .collect()
    }
}

/// A `usize` calling std's `saturating_sub` beside a workspace method of
/// the same name whose return value is rank-derived (what
/// `(0..nz.saturating_sub(1))` met in `des::time::SimDuration`).
#[cfg(test)]
pub(crate) const USIZE_RECEIVER_SRC: &str = r#"
struct Elapsed { rank: usize }
impl Elapsed {
    fn saturating_sub(&self, other: usize) -> usize {
        self.rank - other
    }
}
pub fn drive(world: &mut dyn CommWorld, nz: usize) {
    if nz.saturating_sub(1) == 0 {
        return;
    }
    world.barrier();
}
pub fn rebound(world: &mut dyn CommWorld, nz: usize) {
    let nz = wrap(nz);
    if nz.saturating_sub(1) == 0 {
        return;
    }
    world.barrier();
}
"#;

/// The one-thread fold [`Workspace::build`] must equal: every file
/// lexed and walked in order, then every call site resolved in order, on
/// the calling thread.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn build(sources: &[(String, String)]) -> Workspace<'_> {
        let files: Vec<FileCtx<'_>> = sources
            .iter()
            .map(|(rel, src)| FileCtx::new(rel, src))
            .collect();
        let (mut fns, mut calls) = (Vec::new(), Vec::new());
        for (file, ctx) in files.iter().enumerate() {
            walk_file(ctx, file, &mut fns, &mut calls);
        }
        let resolver = Resolver::new(&fns);
        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        for site in &mut calls {
            site.cands = resolver.candidates(&files, &fns, site);
            callees[site.caller].extend(&site.cands);
        }
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        for (f, cs) in callees.iter_mut().enumerate() {
            cs.sort_unstable();
            cs.dedup();
            for &c in cs.iter() {
                callers[c].push(f);
            }
        }
        Workspace {
            files,
            fns,
            calls,
            callees,
            callers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sources(files: &[(&str, &str)]) -> Vec<(String, String)> {
        files
            .iter()
            .map(|(rel, src)| (rel.to_string(), src.to_string()))
            .collect()
    }

    /// The `.rs` fixtures of `tests/fixtures/<dir>` as one workspace,
    /// each at its `//@path` (else its own path), sorted by path.
    fn fixture_corpus(dir: &str) -> Vec<(String, String)> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(dir);
        let mut corpus: Vec<(String, String)> = std::fs::read_dir(&dir)
            .expect("fixture directory")
            .map(|entry| entry.expect("dir entry").path())
            .filter(|path| path.extension().is_some_and(|x| x == "rs"))
            .map(|path| {
                let src = std::fs::read_to_string(&path).expect("fixture source");
                let rel = src.lines().find_map(|l| l.strip_prefix("//@path "));
                let rel = rel.map_or_else(|| path.display().to_string(), |r| r.trim().into());
                (rel, src)
            })
            .collect();
        corpus.sort();
        corpus
    }

    /// Every table of the two-sided build equals the reference's.
    fn assert_builds_like_the_reference(sources: &[(String, String)]) {
        let (got, want) = (Workspace::build(sources), reference::build(sources));
        let (paths, want_paths) = (got.files.iter(), want.files.iter());
        assert!(paths.map(|c| c.rel_path).eq(want_paths.map(|c| c.rel_path)));
        assert_eq!(got.fns, want.fns);
        assert_eq!(got.calls, want.calls);
        assert_eq!(got.callees, want.callees);
        assert_eq!(got.callers, want.callers);
    }

    #[test]
    fn two_sided_build_equals_the_one_thread_fold() {
        let few = sources(&[
            ("crates/a/src/lib.rs", "fn go() {}\nfn caller() { go(); }\n"),
            ("crates/b/src/lib.rs", "fn go() {}\nfn stay() { go(); }\n"),
        ]);
        // No source, one (the upper half is empty), and one a side.
        for (n, cut) in [(0, 0), (1, 1), (2, 1)] {
            assert_eq!(byte_half(&few[..n]), cut);
            assert_builds_like_the_reference(&few[..n]);
        }
        for dir in ["", "flow", "uniform"] {
            let corpus = fixture_corpus(dir);
            assert!(corpus.len() >= 4, "fixture corpus `{dir}` went missing");
            assert_builds_like_the_reference(&corpus);
        }
        let live = crate::collect_sources(&crate::workspace_root()).expect("live tree");
        let cut = byte_half(&live);
        assert!(0 < cut && cut < live.len());
        assert_builds_like_the_reference(&live);
    }

    #[test]
    fn impl_subjects_skip_generics_with_a_double_close() {
        let ctx = FileCtx::new("crates/x/src/a.rs", "impl<T: Into<Vec<u8>>> X for Y {}");
        let open = ctx.code.len() - 2;
        assert_eq!(impl_subject(&ctx, 0), Some(("Y", open)));
        let ctx = FileCtx::new("crates/x/src/a.rs", "impl<T: Tr<[u8; 2]>> Z<T> {}");
        assert_eq!(impl_subject(&ctx, 0), Some(("Z", ctx.code.len() - 2)));
    }

    #[test]
    fn module_paths() {
        assert_eq!(module_path("crates/comms/src/world.rs"), "comms::world");
        assert_eq!(module_path("crates/comms/src/lib.rs"), "comms");
        assert_eq!(
            module_path("crates/des/src/experiments/mod.rs"),
            "des::experiments"
        );
        assert_eq!(module_path("crates/lint/src/main.rs"), "lint");
        assert_eq!(module_path("src/lib.rs"), "hyades");
        assert_eq!(module_path("tests/determinism.rs"), "tests::determinism");
        assert_eq!(
            module_path("examples/ocean_gyre.rs"),
            "examples::ocean_gyre"
        );
    }

    #[test]
    fn param_names_in_order() {
        let ctx = FileCtx::new(
            "crates/x/src/a.rs",
            "fn f(&mut self, rank: usize, xs: &mut [f64]) {}",
        );
        let name_idx = 1; // `fn` `f` `(` ...
        assert_eq!(
            params(&ctx, name_idx),
            vec![("self", None), ("rank", Some("usize")), ("xs", None)]
        );
    }

    /// Regression: a pattern parameter used to vanish from the list, so
    /// every later argument's taint landed one slot early.
    #[test]
    fn pattern_params_keep_their_slot() {
        let names = |src: &str| {
            let ctx = FileCtx::new("crates/x/src/a.rs", src);
            params(&ctx, 1)
                .into_iter()
                .map(|(p, _)| p.to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            names("fn helper(a: usize, (x, y): (f64, f64), n: usize) {}"),
            vec!["a", "", "n"]
        );
        assert_eq!(
            names("fn g(&self, P { a, b }: P, [lo, hi]: [u8; 2], &(i, j): &(u8, u8), ref mut z: T) {}"),
            vec!["self", "", "", "", "z"]
        );
        assert_eq!(
            names("fn h(#[cfg(unix)] fd: i32, m: BTreeMap<(u8, u8), f64>, k: u8) {}"),
            vec!["fd", "m", "k"]
        );
    }

    #[test]
    fn resolver_prefers_same_file_then_same_crate() {
        let src = sources(&[
            ("crates/a/src/lib.rs", "fn go() {}\nfn caller() { go(); }\n"),
            ("crates/a/src/other.rs", "fn far() { go(); stay(); }\n"),
            ("crates/b/src/lib.rs", "fn go() {}\nfn stay() {}\n"),
        ]);
        let ws = Workspace::build(&src);
        let quals: Vec<&str> = ws.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(
            quals,
            ["a::go", "a::caller", "a::other::far", "b::go", "b::stay"]
        );
        // Same file wins; then same crate; then the whole workspace.
        assert_eq!(ws.callees[1], vec![0]);
        assert_eq!(ws.callees[2], vec![0, 4]);
        assert_eq!(ws.callers[0], vec![1, 2]);
        assert_eq!(ws.call_edges(), 3);
    }

    #[test]
    fn one_walk_fills_the_function_and_call_site_tables() {
        let src = sources(&[(
            "crates/comms/src/w.rs",
            "struct Fast;\n\
             impl Fast {\n\
                 fn step(&self) -> u64 { 1 }\n\
                 fn both(&self) -> u64 { self.step() + Self::step(self) }\n\
             }\n\
             fn run(n: u64) -> u64 {\n\
                 fn twice(x: u64) -> u64 { x * 2 }\n\
                 let f = Fast::new();\n\
                 twice(f.step()) + helper::go::<u64>(n)\n\
             }\n\
             #[cfg(test)]\n\
             mod tests { fn twice() {} fn probe() { run(1); } }\n",
        )]);
        let ws = Workspace::build(&src);
        let quals: Vec<&str> = ws.fns.iter().map(|f| f.qual.as_str()).collect();
        let (step, both, run, twice, probe) = (0, 1, 2, 3, 5);
        assert_eq!(
            quals,
            [
                "comms::w::Fast::step",
                "comms::w::Fast::both",
                "comms::w::run",
                "comms::w::run::twice",
                "comms::w::tests::twice",
                "comms::w::tests::probe"
            ]
        );
        let f = &ws.fns[both];
        assert_eq!((f.self_ty, f.line, f.is_test), (Some("Fast"), 4, false));
        assert_eq!(f.params, vec!["self"]);
        assert!(ws.fns[probe].is_test);
        // The nested fn owns its tokens and splits `run`'s in two.
        assert_eq!(ws.fns[run].spans.len(), 2);
        assert_eq!(ws.fns[twice].spans.len(), 1);

        let ctx = &ws.files[0];
        let sites = |caller: usize| -> Vec<(&str, &RawCall<'_>, &[usize])> {
            ws.calls
                .iter()
                .filter(|c| c.caller == caller)
                .map(|c| (ctx.text(c.tok), &c.call, c.cands.as_slice()))
                .collect()
        };
        let on_fast = RawCall::Method {
            name: "step",
            recv: Some("Fast"),
        };
        let ty_qual = |name| RawCall::TypeQual { ty: "Fast", name };
        assert_eq!(
            sites(both),
            vec![
                ("step", &on_fast, &[step][..]),
                ("step", &ty_qual("step"), &[step][..])
            ]
        );
        let go = RawCall::ModQual {
            module: "helper",
            name: "go",
        };
        assert_eq!(
            sites(run),
            vec![
                ("new", &ty_qual("new"), &[][..]),
                ("twice", &RawCall::Free { name: "twice" }, &[twice][..]),
                // `let f = Fast::new()` came first, in token order.
                ("step", &on_fast, &[step][..]),
                ("go", &go, &[][..]),
            ]
        );
        assert_eq!(ws.callees[run], vec![step, twice]);
        assert_eq!(ws.callers[step], vec![both, run]);
        // Test scope calls in, never the other way round: `run`'s
        // `twice(..)` did not pick up `tests::twice`.
        assert_eq!(ws.callers[run], vec![probe]);
        // The tree's call atoms name their sites; the nested fn is an
        // empty statement of `run`'s.
        assert_eq!(ws.fns[run].body[0], Vec::new());
        let [Atom::Let(_, _, init, _)] = &ws.fns[run].body[1][..] else {
            panic!("{:?}", ws.fns[run].body)
        };
        let [Atom::Name("Fast"), Atom::Call(new)] = &init[..] else {
            panic!("{init:?}")
        };
        assert_eq!((ctx.text(ws.site(run, new).tok), new.line), ("new", 8));
    }

    #[test]
    fn arguments_are_counted_only_where_the_list_is_unambiguous() {
        let count = |src: &str| {
            let ctx = FileCtx::new("crates/a/src/lib.rs", src);
            let open = (0..ctx.code.len()).find(|&k| ctx.is(k, "(")).unwrap();
            let (args, sure) = ctx.args(open, ctx.bracket_partner(open).unwrap());
            sure.then_some(args.len())
        };
        assert_eq!(count("f()"), Some(0));
        assert_eq!(count("f(a, g(b, c), [d, e], S { x, y }, (p, q))"), Some(5));
        // A trailing comma ends the list; it does not start an argument.
        assert_eq!(count("f(a, b,)"), Some(2));
        assert_eq!(count("f(\n    a,\n    b,\n)"), Some(2));
        // A closure's parameters and a turbofish's or a qualified path's
        // types carry commas of their own.
        assert_eq!(count("f(|a, b| a + b, c)"), Some(2));
        assert_eq!(count("f(&|a, b| a, move |c, d| c, &mut |e, f| e)"), Some(3));
        assert_eq!(count("f(|| 1)"), Some(1));
        assert_eq!(count("f(g::<A, B>(x))"), Some(1));
        assert_eq!(count("f(x.collect::<Vec<(u8, u8)>>(), y)"), Some(2));
        assert_eq!(count("f(<T as Tr>::g(x), y)"), Some(2));
        assert_eq!(count("f(g(|a, b| a), h::<A, B>())"), Some(2));
        assert_eq!(count("f((|a, b| a)(1, 2), [0; 3])"), Some(2));
        // Anywhere else a `<` may be a comparison or open generics, and a
        // `<<` may open `<<T as Tr>`: the count is left unknown. A `>>`
        // closes nothing here.
        assert_eq!(count("f(a < b, c > d)"), None);
        assert_eq!(count("f(a << b, c)"), None);
        assert_eq!(count("f(a || b, c)"), None);
        assert_eq!(count("f(a >> b, c)"), Some(2));
    }

    #[test]
    fn a_candidate_with_another_parameter_count_is_dropped() {
        let src = "struct Census;\n\
             impl Census {\n\
                 fn collect(&self, scale: usize) -> usize { scale }\n\
                 fn tally(&self) -> usize { self.collect(2) }\n\
             }\n\
             fn gather(xs: &[u8], c: Census) -> usize {\n\
                 let v = xs.iter().collect::<Vec<_>>();\n\
                 let w: Vec<u8> = xs.iter().map(|x| x + 1).collect();\n\
                 let n = c.collect(|a, b| a, 1);\n\
                 let m = c.collect(x < y);\n\
                 Census::collect(&c, 3) + Census::collect(&c) + v.len()\n\
             }\n";
        let srcs = sources(&[("crates/a/src/lib.rs", src)]);
        let ws = Workspace::build(&srcs);
        let collect = ws.fns.iter().position(|f| f.name == "collect").unwrap();
        let sites: Vec<(Option<usize>, Vec<usize>)> = (ws.calls.iter())
            .filter(|c| ws.files[0].text(c.tok) == "collect")
            .map(|c| (c.args, c.cands.clone()))
            .collect();
        assert_eq!(
            sites,
            vec![
                // `self` is the receiver's slot: one argument is two.
                (Some(2), vec![collect]),
                // An iterator's `.collect()`: one slot, never `Census`'s.
                (Some(1), vec![]),
                (Some(1), vec![]),
                // A closure is one argument, however many commas it
                // holds: three slots, which `collect` does not take.
                (Some(3), vec![]),
                // Uncountable: every same-named method stays.
                (None, vec![collect]),
                (Some(2), vec![collect]),
                (Some(1), vec![]),
            ]
        );
    }

    /// A `let` pattern shadows what was known of every name it binds:
    /// `f` is no longer the `Fast` of the line before.
    #[test]
    fn a_pattern_let_shadows_its_names() {
        let src = "struct Fast;\n\
             impl Fast { fn step(&self) -> u64 { 1 } }\n\
             struct Slow;\n\
             impl Slow { fn step(&self) -> u64 { 2 } }\n\
             fn run() -> u64 {\n\
                 let f = Fast::new();\n\
                 let a = f.step();\n\
                 let (f, g) = (Slow, 1);\n\
                 a + f.step()\n\
             }\n";
        let srcs = sources(&[("crates/a/src/lib.rs", src)]);
        let ws = Workspace::build(&srcs);
        let steps: Vec<(&RawCall<'_>, usize)> = (ws.calls.iter())
            .filter(|c| ws.files[0].text(c.tok) == "step")
            .map(|c| (&c.call, c.cands.len()))
            .collect();
        let step = |recv| RawCall::Method { name: "step", recv };
        assert_eq!(steps, vec![(&step(Some("Fast")), 1), (&step(None), 2)]);
    }

    #[test]
    fn primitive_receiver_never_resolves_by_name() {
        let srcs = sources(&[("crates/comms/src/t.rs", USIZE_RECEIVER_SRC)]);
        let ws = Workspace::build(&srcs);
        let id = |name: &str| ws.fns.iter().position(|f| f.name == name).unwrap();
        let cands = |caller: &str| {
            let site = ws
                .calls
                .iter()
                .find(|c| c.caller == id(caller) && ws.files[0].text(c.tok) == "saturating_sub");
            (site.unwrap().call.clone(), site.unwrap().cands.clone())
        };
        let method = |recv| RawCall::Method {
            name: "saturating_sub",
            recv,
        };
        // `nz: usize` has std's method, not `Elapsed`'s.
        assert_eq!(cands("drive"), (method(Some("usize")), vec![]));
        // `let nz = wrap(nz)` is of a type nobody can see: by name.
        let elapsed = id("saturating_sub");
        assert_eq!(cands("rebound"), (method(None), vec![elapsed]));
    }
}
