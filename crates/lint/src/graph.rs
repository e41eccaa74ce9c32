//! `lint::graph` — the one front end under every whole-program analysis.
//!
//! [`Workspace::build`] does each expensive thing once: it lexes every
//! source into a [`FileCtx`], walks each file's `impl`/`trait`/`mod`/`fn`
//! scopes a single time to fill the function table ([`FnRec`]) and the
//! call-site table ([`CallSite`]), then resolves every call site against
//! the finished function table and records forward and reverse edges.
//! [`crate::rules`] runs over `ws.files`, [`crate::flow`] scans the
//! tokens each function owns for effect sources, and [`crate::uniform`]
//! interprets each body and looks its call sites up with
//! [`Workspace::call_at`] — so a call site resolves to the same
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
//! candidate.

use crate::lexer::TokKind;
use crate::passes::FileCtx;
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

/// Skip a balanced `<…>` starting at `open`; returns the index after the
/// matching `>` (bails at `{` / `;` / EOF).
fn skip_angles(ctx: &FileCtx<'_>, open: usize) -> usize {
    let mut depth = 0i64;
    let mut j = open;
    while j < ctx.code.len() {
        match ctx.text(j) {
            "<" => depth += 1,
            "<<" => depth += 2,
            ">" => {
                depth -= 1;
                if depth <= 0 {
                    return j + 1;
                }
            }
            ">>" => {
                depth -= 2;
                if depth <= 0 {
                    return j + 1;
                }
            }
            "(" | "[" => match ctx.bracket_partner(j) {
                Some(p) => j = p,
                None => return j,
            },
            "{" | ";" => return j,
            _ => {}
        }
        j += 1;
    }
    j
}

/// For an `impl` at `i`, the subject type name (`impl Foo` → `Foo`,
/// `impl Trait for Bar` → `Bar`) and the body-opening `{` index.
fn impl_subject<'a>(ctx: &FileCtx<'a>, i: usize) -> Option<(&'a str, usize)> {
    let mut j = i + 1;
    if ctx.is(j, "<") {
        j = skip_angles(ctx, j);
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
            "<" => j = skip_angles(ctx, j),
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

/// First `{` from `start` (skipping groups and generics), or `None` if a
/// `;` ends the item first (trait method declaration, `mod x;`).
pub fn body_open(ctx: &FileCtx<'_>, start: usize) -> Option<usize> {
    let mut j = start;
    while j < ctx.code.len() {
        match ctx.text(j) {
            "{" => return Some(j),
            ";" => return None,
            "<" => j = skip_angles(ctx, j),
            "(" | "[" => j = ctx.bracket_partner(j)? + 1,
            _ => j += 1,
        }
    }
    None
}

/// The `(` opening the argument list of a call whose callee identifier
/// is token `i` (`name(..)` or `name::<T>(..)`), if `i` is one.
pub(crate) fn call_open(ctx: &FileCtx<'_>, i: usize) -> Option<usize> {
    let open = ctx.skip_turbofish(i + 1);
    ctx.is(open, "(").then_some(open)
}

/// Locally inferred receiver types: variable → type name.
type Locals<'a> = BTreeMap<&'a str, &'a str>;

/// The `(`..`)` token indices of the parameter list of the `fn` whose
/// name is token `name_idx`.
fn param_list(ctx: &FileCtx<'_>, name_idx: usize) -> Option<(usize, usize)> {
    let mut j = name_idx + 1;
    if ctx.is(j, "<") {
        j = skip_angles(ctx, j);
    }
    let close = ctx.is(j, "(").then(|| ctx.bracket_partner(j)).flatten()?;
    Some((j, close))
}

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

/// Parameter types for local receiver inference: `x: Type`,
/// `x: &mut Type` (path heads and generics are ignored).
fn param_types<'a>(ctx: &FileCtx<'a>, name_idx: usize) -> Locals<'a> {
    let mut out = Locals::new();
    let Some((open, close)) = param_list(ctx, name_idx) else {
        return out;
    };
    for p in open + 1..close {
        if ctx.kind(p) == Some(TokKind::Ident)
            && ctx.is(p + 1, ":")
            && (p == open + 1 || matches!(ctx.text(p - 1), "," | "(" | "mut"))
        {
            if let Some(ty) = type_head(ctx, p + 2) {
                out.insert(ctx.text(p), ty);
            }
        }
    }
    out
}

/// Parameter *names* in declaration order (including a leading `self`),
/// for positional argument-to-parameter taint mapping. A pattern
/// parameter (`(x, y): (f64, f64)`, `P { a, b }: P`, `[a, b]: [u8; 2]`)
/// holds its slot under the empty name, which no token spells.
fn param_names<'a>(ctx: &FileCtx<'a>, name_idx: usize) -> Vec<&'a str> {
    let mut out = Vec::new();
    let Some((open, close)) = param_list(ctx, name_idx) else {
        return out;
    };
    let mut p = open + 1;
    // No name recorded yet for the parameter `p` is inside.
    let mut unnamed = true;
    while p < close {
        let t = ctx.text(p);
        match t {
            "<" => {
                p = skip_angles(ctx, p);
                continue;
            }
            "(" | "[" | "{" => {
                // `#[attr]` on a parameter is not a slice pattern.
                if unnamed && !(p >= 1 && ctx.is(p - 1, "#")) {
                    out.push("");
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
                let named = t == "self" || (ctx.is(p + 1, ":") && !KEYWORDS.contains(&t));
                out.push(if named { t } else { "" });
                unnamed = false;
            }
            _ => {}
        }
        p += 1;
    }
    out
}

/// `let [mut] x: Type = ..` / `let [mut] x = [path::]Type::ctor(..)` /
/// `let x = Type { .. }` — record `x: Type`. Any other `let x` shadows
/// what was known of `x`.
fn record_let<'a>(ctx: &FileCtx<'a>, i: usize, locals: &mut Locals<'a>) {
    let mut j = i + 1;
    if ctx.is(j, "mut") {
        j += 1;
    }
    if ctx.kind(j) != Some(TokKind::Ident) {
        return;
    }
    match let_type(ctx, j + 1) {
        Some(ty) => locals.insert(ctx.text(j), ty),
        None => locals.remove(ctx.text(j)),
    };
}

/// The type a `let` gives its variable, read from the token after the
/// variable's name on.
fn let_type<'a>(ctx: &FileCtx<'a>, after: usize) -> Option<&'a str> {
    if ctx.is(after, ":") {
        return type_head(ctx, after + 1);
    }
    if !ctx.is(after, "=") {
        return None;
    }
    let mut k = after + 1;
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
    /// Token indices of the body's `{` and `}`.
    pub body: (usize, usize),
    /// Enclosing `impl` / `trait` subject.
    pub self_ty: Option<&'a str>,
    /// Under `tests/` or a `#[cfg(test)]` item.
    pub is_test: bool,
    /// Positional parameter names; see `param_names` for patterns.
    pub params: Vec<&'a str>,
    /// Half-open token ranges this function owns: signature and body,
    /// minus nested functions and the headers of nested items.
    pub spans: Vec<(usize, usize)>,
}

/// One call site: `ident (` inside a function, classified where it
/// stands and resolved against the whole workspace.
pub struct CallSite<'a> {
    /// File and token index of the callee identifier.
    pub file: usize,
    pub tok: usize,
    /// The innermost enclosing function.
    pub caller: usize,
    pub call: RawCall<'a>,
    /// Candidate callees, as indices into [`Workspace::fns`].
    pub cands: Vec<usize>,
}

/// The lexed files, the function table, and the resolved call graph.
pub struct Workspace<'a> {
    /// One per source, in input order.
    pub files: Vec<FileCtx<'a>>,
    /// In file order, then definition order.
    pub fns: Vec<FnRec<'a>>,
    /// Sorted by (file, token index).
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
        let files: Vec<FileCtx<'a>> = sources
            .iter()
            .map(|(rel, src)| FileCtx::new(rel, src))
            .collect();
        let mut fns = Vec::new();
        let mut calls = Vec::new();
        for (file, ctx) in files.iter().enumerate() {
            walk_file(ctx, file, &mut fns, &mut calls);
        }
        let resolver = Resolver::new(&fns);
        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        for site in &mut calls {
            site.cands = resolver.candidates(&files, &fns, site.caller, &site.call);
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

    /// The call site whose callee identifier is token `tok` of `file`.
    pub fn call_at(&self, file: usize, tok: usize) -> Option<&CallSite<'a>> {
        self.calls
            .binary_search_by_key(&(file, tok), |c| (c.file, c.tok))
            .ok()
            .map(|k| &self.calls[k])
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

/// One open `impl` / `trait` / `mod` / `fn` during [`walk_file`].
struct Scope<'a> {
    /// Token index of the closing `}`.
    close: usize,
    /// Qualified-name segment.
    seg: &'a str,
    /// `impl` / `trait` subject, inherited by the functions inside.
    ty: Option<&'a str>,
    /// For a `fn`: its index and the receiver types inferred so far.
    func: Option<(usize, Locals<'a>)>,
}

/// The single scope walk: every `fn` with a body becomes a [`FnRec`];
/// every other identifier inside one is owned by the innermost enclosing
/// function, where a `let` updates the inferred receiver types and an
/// `ident (` becomes a [`CallSite`].
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
            "impl" | "trait" | "mod" => {
                // (segment, subject type, index of the opening `{`)
                let header = match t.text {
                    "impl" => impl_subject(ctx, i).map(|(ty, open)| (ty, Some(ty), open)),
                    "trait" if next_is_ident => {
                        let name = ctx.text(i + 1);
                        body_open(ctx, i + 2).map(|open| (name, Some(name), open))
                    }
                    "mod" if next_is_ident && ctx.is(i + 2, "{") => {
                        Some((ctx.text(i + 1), None, i + 2))
                    }
                    _ => None,
                };
                let opened = header
                    .and_then(|(seg, ty, open)| Some((seg, ty, open, ctx.bracket_partner(open)?)));
                match opened {
                    Some((seg, ty, open, close)) => {
                        scopes.push(Scope {
                            close,
                            seg,
                            ty,
                            func: None,
                        });
                        i = open + 1;
                    }
                    None => i += 1,
                }
                growing = None;
            }
            // Skip the name so tuple-struct `Name(..)` defs are not calls.
            "struct" | "enum" | "union" => {
                i += 2;
                growing = None;
            }
            "fn" if next_is_ident => {
                let name_idx = i + 1;
                let fn_tok = i;
                i = name_idx + 1;
                growing = None;
                let Some((open, close)) =
                    body_open(ctx, i).and_then(|open| Some((open, ctx.bracket_partner(open)?)))
                else {
                    continue; // bodyless trait method
                };
                let name = ctx.text(name_idx);
                let mut qual = base.clone();
                for seg in scopes.iter().map(|s| s.seg).chain([name]) {
                    if !qual.is_empty() {
                        qual.push_str("::");
                    }
                    qual.push_str(seg);
                }
                fns.push(FnRec {
                    name,
                    qual,
                    file,
                    line: ctx.line(fn_tok),
                    name_idx,
                    body: (open, close),
                    self_ty: scopes.iter().rev().find_map(|s| s.ty),
                    is_test: path_test || ctx.in_test[fn_tok],
                    params: param_names(ctx, name_idx),
                    spans: Vec::new(),
                });
                // Keep scanning inside: a nested fn is its own function.
                scopes.push(Scope {
                    close,
                    seg: name,
                    ty: None,
                    func: Some((fns.len() - 1, param_types(ctx, name_idx))),
                });
            }
            _ => {
                let owner = scopes.iter_mut().rev().find_map(|s| s.func.as_mut());
                if let Some((fid, locals)) = owner {
                    let f = &mut fns[*fid];
                    match f.spans.last_mut() {
                        Some(span) if growing == Some(*fid) => span.1 = i + 1,
                        _ => {
                            f.spans.push((i, i + 1));
                            growing = Some(*fid);
                        }
                    }
                    if t.text == "let" {
                        record_let(ctx, i, locals);
                    } else if !KEYWORDS.contains(&t.text) && call_open(ctx, i).is_some() {
                        calls.push(CallSite {
                            file,
                            tok: i,
                            caller: *fid,
                            call: classify_call(ctx, i, f.self_ty, locals),
                            cands: Vec::new(),
                        });
                    }
                }
                i += 1;
            }
        }
    }
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

    /// Candidate callees for `call` made from `caller`.
    fn candidates(
        &self,
        files: &[FileCtx<'a>],
        fns: &[FnRec<'a>],
        caller: usize,
        call: &RawCall<'a>,
    ) -> Vec<usize> {
        let crate_of = |f: usize| files[fns[f].file].scope.crate_name.as_deref();
        let narrowed: Vec<usize>;
        let cands: &[usize] = match *call {
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
        cands
            .iter()
            .copied()
            .filter(|&c| c != caller && (caller_test || !fns[c].is_test))
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sources(files: &[(&str, &str)]) -> Vec<(String, String)> {
        files
            .iter()
            .map(|(rel, src)| (rel.to_string(), src.to_string()))
            .collect()
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
        assert_eq!(param_names(&ctx, name_idx), vec!["self", "rank", "xs"]);
    }

    /// Regression: a pattern parameter used to vanish from the list, so
    /// every later argument's taint landed one slot early.
    #[test]
    fn pattern_params_keep_their_slot() {
        let names = |src: &str| {
            let ctx = FileCtx::new("crates/x/src/a.rs", src);
            param_names(&ctx, 1)
                .into_iter()
                .map(str::to_string)
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
        let site = ws.calls.iter().find(|c| c.caller == run).unwrap();
        assert_eq!(ws.call_at(0, site.tok).map(|c| c.tok), Some(site.tok));
        assert!(ws.call_at(0, ws.fns[run].name_idx).is_none());
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
