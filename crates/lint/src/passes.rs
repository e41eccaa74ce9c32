//! Everything a rule needs to see a file as a token sequence.
//!
//! [`FileCtx`] owns one lexed file plus the derived facts rules keep
//! asking for: where the file sits in the workspace ([`classify`]),
//! which tokens are inside `#[cfg(test)]` regions, which lines carry
//! code (for own-line pragma attribution), bracket matching, and parsed
//! `lint:allow` pragmas. Rules then use the small combinators here —
//! [`FileCtx::chain_back`] for method-chain receivers,
//! [`FileCtx::bound_names`] for "names bound to type T" — instead of
//! re-deriving structure from strings.

use crate::lexer::{lex, Tok, TokKind};
use std::collections::BTreeSet;

/// Where a file sits in the workspace, derived from its relative path.
pub struct FileScope {
    /// `Some("des")` for `crates/des/...`.
    pub crate_name: Option<String>,
    /// Under a `src/` directory (library code), as opposed to
    /// `tests/` or the workspace `examples/`.
    pub in_src: bool,
}

pub fn classify(rel_path: &str) -> FileScope {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let crate_name = if parts.len() >= 2 && parts[0] == "crates" {
        Some(parts[1].to_string())
    } else {
        None
    };
    let in_src = match crate_name {
        Some(_) => parts.get(2) == Some(&"src"),
        None => parts.first() == Some(&"src"),
    };
    FileScope { crate_name, in_src }
}

/// A parsed `lint:allow(rule, reason)` pragma.
#[derive(Debug, Clone)]
pub struct Pragma {
    pub rule: String,
    pub has_reason: bool,
    /// Pragma sits on a comment-only line, so it covers the next line.
    pub own_line: bool,
    /// 1-based source line the pragma text sits on.
    pub line: usize,
}

/// A parsed trust pragma: `lint:det-trusted(reason)` marks the function
/// defined on (or directly below) its line as `Det` for the
/// interprocedural flow analysis ([`crate::flow`]);
/// `lint:uniform-trusted(reason)` exempts the function from the SPMD
/// collective-uniformity check ([`crate::uniform`]), asserting every
/// rank still issues the same collective sequence. Every use is recorded
/// in the respective audit trail.
#[derive(Debug, Clone)]
pub struct TrustPragma {
    pub has_reason: bool,
    /// Pragma sits on a comment-only line, so it covers the next line.
    pub own_line: bool,
    /// 1-based source line the pragma text sits on.
    pub line: usize,
}

impl TrustPragma {
    /// Does this pragma cover a `fn` whose header sits on `line`? Same
    /// attachment rule as `lint:allow`: the pragma's own code line, or —
    /// when the pragma sits on a comment-only line — the line directly
    /// below. Reasonless pragmas cover nothing; they are audit findings.
    pub fn covers(&self, line: usize) -> bool {
        self.has_reason && (self.line == line || (self.own_line && self.line + 1 == line))
    }
}

/// One trust-pragma family in the shared registry: its name, opener
/// needle, and nothing else — parse ([`FileCtx::new`]), audit
/// ([`crate::graph::Workspace::audit_trust`]), and `--fix-baseline` stripping
/// ([`PRAGMA_NEEDLES`]) are all driven off this table, so the
/// `det-trusted` and `uniform-trusted` surfaces cannot drift apart.
#[derive(Debug, Clone, Copy)]
pub struct TrustSpec {
    /// Pragma name without the opening paren, e.g. `"lint:det-trusted"`.
    pub name: &'static str,
    /// The opener needle the parser scans for, e.g. `"lint:det-trusted("`.
    pub opener: &'static str,
}

/// `lint:det-trusted(why)` — pins a function to `Det` for the
/// interprocedural flow analysis ([`crate::flow`]).
pub const DET_TRUSTED: TrustSpec = TrustSpec {
    name: "lint:det-trusted",
    opener: "lint:det-trusted(",
};

/// `lint:uniform-trusted(why)` — exempts a function from the SPMD
/// collective-uniformity check ([`crate::uniform`]).
pub const UNIFORM_TRUSTED: TrustSpec = TrustSpec {
    name: "lint:uniform-trusted",
    opener: "lint:uniform-trusted(",
};

/// Every trust-pragma family the toolchain knows about.
pub const TRUST_SPECS: &[TrustSpec] = &[DET_TRUSTED, UNIFORM_TRUSTED];

impl TrustSpec {
    /// Audit message for a pragma with an empty reason.
    pub fn reasonless_message(&self) -> String {
        format!("{}() needs a reason: {}(why)", self.name, self.name)
    }

    /// Audit message for a pragma that covers no `fn` header.
    pub fn unattached_message(&self) -> String {
        format!(
            "{}(..) attaches to no `fn` on this or the next line",
            self.name
        )
    }
}

/// A lexed file with the derived facts rules match against.
pub struct FileCtx<'a> {
    pub rel_path: &'a str,
    pub scope: FileScope,
    /// Code tokens only (comments split out below).
    pub code: Vec<Tok<'a>>,
    /// Comment tokens (doc and plain) in source order.
    pub comments: Vec<Tok<'a>>,
    /// Per code token: inside a `#[cfg(test)]`-gated item.
    pub in_test: Vec<bool>,
    /// Parsed non-doc pragmas, in source order.
    pub pragmas: Vec<Pragma>,
    /// Parsed `lint:det-trusted(reason)` pragmas, in source order.
    pub trusted: Vec<TrustPragma>,
    /// Parsed `lint:uniform-trusted(reason)` pragmas, in source order.
    pub uniform_trusted: Vec<TrustPragma>,
    /// For each closer token index, the opener index (and vice versa);
    /// `usize::MAX` elsewhere.
    partner: Vec<usize>,
}

impl<'a> FileCtx<'a> {
    pub fn new(rel_path: &'a str, source: &'a str) -> Self {
        let all = lex(source);
        let mut code = Vec::new();
        let mut comments = Vec::new();
        // Indexed by 1-based line: does it carry at least one code token?
        let mut lines_with_code: Vec<bool> = Vec::new();
        for t in all {
            if matches!(t.kind, TokKind::Comment | TokKind::DocComment) {
                comments.push(t);
            } else {
                let (first, last) = (t.line as usize, (t.line + t.extra_lines()) as usize);
                if lines_with_code.len() <= last {
                    lines_with_code.resize(last + 1, false);
                }
                lines_with_code[first..=last].fill(true);
                code.push(t);
            }
        }
        let partner = match_brackets(&code);
        let in_test = cfg_test_flags(&code, &partner);
        let pragmas = parse_pragmas(&comments, &lines_with_code);
        let trusted = parse_trust_pragmas(DET_TRUSTED.opener, &comments, &lines_with_code);
        let uniform_trusted =
            parse_trust_pragmas(UNIFORM_TRUSTED.opener, &comments, &lines_with_code);
        FileCtx {
            rel_path,
            scope: classify(rel_path),
            code,
            comments,
            in_test,
            pragmas,
            trusted,
            uniform_trusted,
            partner,
        }
    }

    /// Token text at `i` (empty past the end).
    pub fn text(&self, i: usize) -> &'a str {
        self.code.get(i).map(|t| t.text).unwrap_or("")
    }

    /// Does token `i` exist with exactly this text?
    pub fn is(&self, i: usize, s: &str) -> bool {
        self.code.get(i).is_some_and(|t| t.text == s)
    }

    /// Is token `i` the identifier `name`?
    pub fn is_ident(&self, i: usize, name: &str) -> bool {
        self.code.get(i).is_some_and(|t| t.is_ident(name))
    }

    pub fn kind(&self, i: usize) -> Option<TokKind> {
        self.code.get(i).map(|t| t.kind)
    }

    /// 1-based line of token `i`.
    pub fn line(&self, i: usize) -> usize {
        self.code.get(i).map(|t| t.line as usize).unwrap_or(0)
    }

    /// Line of the reasoned `lint:allow(rule, why)` pragma covering
    /// `line`, if any: on the line itself, or alone on the line above.
    pub(crate) fn allow_covering(&self, rule: &str, line: usize) -> Option<usize> {
        self.pragmas
            .iter()
            .find(|p| {
                p.rule == rule
                    && p.has_reason
                    && (p.line == line || (p.own_line && p.line + 1 == line))
            })
            .map(|p| p.line)
    }

    /// Matching bracket for opener/closer token `i`, if balanced.
    pub fn bracket_partner(&self, i: usize) -> Option<usize> {
        match self.partner.get(i) {
            Some(&p) if p != usize::MAX => Some(p),
            _ => None,
        }
    }

    /// Skip a turbofish `::<…>` starting at `i`; returns the index after
    /// it (or `i` unchanged when there is none).
    pub fn skip_turbofish(&self, i: usize) -> usize {
        if !(self.is(i, "::") && self.is(i + 1, "<")) {
            return i;
        }
        let mut depth = 0i64;
        let mut j = i + 1;
        while j < self.code.len() {
            match self.text(j) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                ">>" => {
                    depth -= 2;
                    if depth <= 0 {
                        return j + 1;
                    }
                }
                ";" | "{" => return i, // malformed; bail
                _ => {}
            }
            j += 1;
        }
        i
    }

    /// Walk a method chain leftwards from the `.` at `dot`: returns the
    /// base identifier the chain hangs off (if the head is a plain
    /// ident/path) and the method names crossed on the way.
    ///
    /// `par.values().sum()` from the `.sum` dot → (`Some("par")`,
    /// `["values"]`); `(a + b).iter().sum()` → (`None`, `["iter"]`).
    pub fn chain_back(&self, dot: usize) -> (Option<&'a str>, Vec<&'a str>) {
        let mut methods = Vec::new();
        let mut i = dot; // index of a `.` token
        loop {
            if i == 0 {
                return (None, methods);
            }
            let prev = i - 1;
            match self.text(prev) {
                ")" | "]" => {
                    // Call or index: hop to the opener, expect `name(`.
                    let Some(open) = self.bracket_partner(prev) else {
                        return (None, methods);
                    };
                    if open == 0 {
                        return (None, methods);
                    }
                    let head = open - 1;
                    if self.kind(head) != Some(TokKind::Ident) {
                        return (None, methods); // `(expr).method()` etc.
                    }
                    methods.push(self.code[head].text);
                    if head == 0 {
                        return (None, methods);
                    }
                    match self.text(head - 1) {
                        "." | "::" => i = head - 1,
                        _ => return (None, methods),
                    }
                }
                _ if self.kind(prev) == Some(TokKind::Ident) => {
                    // First plain ident is the base: for `self.early.iter()`
                    // that is the field `early`, which is also the name
                    // `bound_names` records from its declaration.
                    return (Some(self.code[prev].text), methods);
                }
                _ => return (None, methods),
            }
        }
    }

    /// Names bound to any of `type_names` in this file: field
    /// declarations and typed bindings (`name: HashMap<…>`, with or
    /// without a `std::collections::` path), `let [mut] name = T::new()`
    /// initializers, and `self.name = T::new()` assignments.
    pub fn bound_names(&self, type_names: &[&str]) -> BTreeSet<String> {
        let mut names = BTreeSet::new();
        for i in 0..self.code.len() {
            let t = &self.code[i];
            if t.kind != TokKind::Ident || !type_names.contains(&t.text) {
                continue;
            }
            // Walk back over a `seg::seg::` path prefix.
            let mut j = i;
            while j >= 2 && self.is(j - 1, "::") && self.kind(j - 2) == Some(TokKind::Ident) {
                j -= 2;
            }
            if j == 0 {
                continue;
            }
            let before = j - 1;
            if self.is(before, ":") {
                // `name: [path::]HashMap<..>` — ascription or field.
                if before >= 1 && self.kind(before - 1) == Some(TokKind::Ident) {
                    names.insert(self.code[before - 1].text.to_string());
                }
            } else if self.is(before, "=") && before >= 1 {
                // `let [mut] name = [path::]HashMap::new()` or
                // `self.name = …`.
                let k = before - 1;
                if self.kind(k) != Some(TokKind::Ident) {
                    continue;
                }
                let name = self.code[k].text;
                let binder = k.checked_sub(1).map(|b| self.text(b)).unwrap_or("");
                let let_bound =
                    binder == "let" || (binder == "mut" && k >= 2 && self.is(k - 2, "let"));
                let self_field = binder == "." && k >= 2 && self.is_ident(k - 2, "self");
                if let_bound || self_field {
                    names.insert(name.to_string());
                }
            }
        }
        names
    }
}

fn has_code(lines_with_code: &[bool], l: usize) -> bool {
    lines_with_code.get(l).copied().unwrap_or(false)
}

/// Opener/closer partner indices over `()`, `[]`, `{}`.
fn match_brackets(code: &[Tok<'_>]) -> Vec<usize> {
    let mut partner = vec![usize::MAX; code.len()];
    let mut stack: Vec<(usize, &str)> = Vec::new();
    for (i, t) in code.iter().enumerate() {
        match t.text {
            "(" | "[" | "{" => stack.push((i, t.text)),
            ")" | "]" | "}" => {
                let want = match t.text {
                    ")" => "(",
                    "]" => "[",
                    _ => "{",
                };
                if let Some(&(open, otext)) = stack.last() {
                    if otext == want {
                        stack.pop();
                        partner[i] = open;
                        partner[open] = i;
                    }
                }
            }
            _ => {}
        }
    }
    partner
}

/// Per-token flag: inside a `#[cfg(test)]`-gated item. Tracks the
/// outermost gated region by brace depth; `#[cfg(test)] mod x;` (no
/// braces before the `;`) gates nothing in this file.
fn cfg_test_flags(code: &[Tok<'_>], partner: &[usize]) -> Vec<bool> {
    let mut flags = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        let gate = code[i].text == "#"
            && code.get(i + 1).is_some_and(|t| t.text == "[")
            && code.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
            && code.get(i + 3).is_some_and(|t| t.text == "(")
            && code.get(i + 4).is_some_and(|t| t.is_ident("test"))
            && code.get(i + 5).is_some_and(|t| t.text == ")")
            && code.get(i + 6).is_some_and(|t| t.text == "]");
        if !gate {
            i += 1;
            continue;
        }
        // Find the gated item's body: the first `{` before a top-level
        // `;` ends the attribute's scope.
        let mut j = i + 7;
        let mut end = None;
        while j < code.len() {
            match code[j].text {
                "{" => {
                    end = partner.get(j).copied().filter(|&p| p != usize::MAX);
                    break;
                }
                ";" => break,
                // Skip nested groups in signatures/attributes.
                "(" | "[" => match partner.get(j).copied().filter(|&p| p != usize::MAX) {
                    Some(p) => j = p,
                    None => break,
                },
                _ => {}
            }
            j += 1;
        }
        match end {
            Some(close) => {
                for f in flags.iter_mut().take(close + 1).skip(i) {
                    *f = true;
                }
                i = close + 1;
            }
            None => i = j + 1,
        }
    }
    flags
}

/// Parse `lint:allow(rule, reason)` pragmas out of the comment stream.
/// Doc comments describe the syntax without invoking it; only plain
/// comments carry live pragmas.
fn parse_pragmas(comments: &[Tok<'_>], lines_with_code: &[bool]) -> Vec<Pragma> {
    let mut out = Vec::new();
    for c in comments {
        if c.kind == TokKind::DocComment {
            continue;
        }
        let mut rest = c.text;
        let mut offset = 0usize;
        while let Some(pos) = rest.find("lint:allow(") {
            let abs = offset + pos;
            let line = c.line as usize + c.text[..abs].bytes().filter(|&b| b == b'\n').count();
            let body = &rest[pos + "lint:allow(".len()..];
            let close = body.find(')').unwrap_or(body.len());
            let inner = &body[..close];
            let (rule, reason) = match inner.split_once(',') {
                Some((r, why)) => (r.trim(), !why.trim().is_empty()),
                None => (inner.trim(), false),
            };
            out.push(Pragma {
                rule: rule.to_string(),
                has_reason: reason,
                own_line: !has_code(lines_with_code, line),
                line,
            });
            let consumed = pos + "lint:allow(".len() + close;
            offset += consumed;
            rest = &rest[consumed..];
        }
    }
    out
}

/// Parse trust pragmas (`needle` is the opener, e.g. `lint:det-trusted(`
/// or `lint:uniform-trusted(`) out of the comment stream. Same
/// attribution rules as `lint:allow`: a pragma on a code line covers
/// that line's `fn`; one on a comment-only line covers the next line.
fn parse_trust_pragmas(
    needle: &str,
    comments: &[Tok<'_>],
    lines_with_code: &[bool],
) -> Vec<TrustPragma> {
    let mut out = Vec::new();
    for c in comments {
        if c.kind == TokKind::DocComment {
            continue;
        }
        let mut rest = c.text;
        let mut offset = 0usize;
        while let Some(pos) = rest.find(needle) {
            let abs = offset + pos;
            let line = c.line as usize + c.text[..abs].bytes().filter(|&b| b == b'\n').count();
            let body = &rest[pos + needle.len()..];
            let close = body.find(')').unwrap_or(body.len());
            out.push(TrustPragma {
                has_reason: !body[..close].trim().is_empty(),
                own_line: !has_code(lines_with_code, line),
                line,
            });
            let consumed = pos + needle.len() + close;
            offset += consumed;
            rest = &rest[consumed..];
        }
    }
    out
}

/// Every pragma opener `--fix-baseline` knows how to strip. One shared
/// reconciliation path: stale `lint:allow`, `lint:det-trusted`, and
/// `lint:uniform-trusted` pragmas all leave the tree the same way.
/// The trust openers come straight from [`TRUST_SPECS`] so a family
/// added to the registry is automatically strippable.
pub const PRAGMA_NEEDLES: &[&str] = &["lint:allow(", DET_TRUSTED.opener, UNIFORM_TRUSTED.opener];

/// Remove the pragmas on the given 1-based `lines` from `source`
/// (textually), cleaning up comments left empty. Used by
/// `--fix-baseline` to drop `unused-pragma` suppressions — allow and
/// trust pragmas alike ([`PRAGMA_NEEDLES`]).
pub fn strip_pragmas_on_lines(source: &str, lines: &BTreeSet<usize>) -> String {
    let mut out = Vec::new();
    for (idx, line) in source.lines().enumerate() {
        if !lines.contains(&(idx + 1)) {
            out.push(line.to_string());
            continue;
        }
        let mut l = line.to_string();
        for needle in PRAGMA_NEEDLES {
            while let Some(pos) = l.find(needle) {
                let close = l[pos..].find(')').map(|c| pos + c + 1).unwrap_or(l.len());
                l.replace_range(pos..close, "");
            }
        }
        // `// ` with nothing left: drop the comment; drop the whole
        // line if no code remains.
        let trimmed = l.trim_end();
        if let Some(cpos) = trimmed.rfind("//") {
            if trimmed[cpos + 2..].trim().is_empty() {
                l = trimmed[..cpos].trim_end().to_string();
            }
        }
        if !l.trim().is_empty() {
            out.push(l.trim_end().to_string());
        }
    }
    let mut s = out.join("\n");
    if source.ends_with('\n') {
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        let s = classify("crates/des/src/sim.rs");
        assert_eq!(s.crate_name.as_deref(), Some("des"));
        assert!(s.in_src);
        let s = classify("crates/des/tests/t.rs");
        assert!(!s.in_src);
        let s = classify("tests/determinism.rs");
        assert!(s.crate_name.is_none());
        assert!(!s.in_src);
    }

    #[test]
    fn bracket_matching_and_groups() {
        let ctx = FileCtx::new("crates/x/src/a.rs", "f(a, g(b), [c]);");
        // `f` `(` … `)` `;`
        let open = 1;
        let close = ctx.bracket_partner(open).unwrap();
        assert_eq!(ctx.text(close), ")");
        assert_eq!(ctx.text(close + 1), ";");
    }

    #[test]
    fn cfg_test_regions() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n  fn g() { y.unwrap(); }\n}\nfn h() {}\n";
        let ctx = FileCtx::new("crates/des/src/x.rs", src);
        let unwraps: Vec<bool> = ctx
            .code
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| ctx.in_test[i])
            .collect();
        assert_eq!(unwraps, vec![false, true]);
        // Code after the gated region is not test.
        let h = ctx.code.iter().position(|t| t.is_ident("h")).unwrap();
        assert!(!ctx.in_test[h]);
    }

    #[test]
    fn cfg_test_mod_semicolon_gates_nothing_here() {
        let src = "#[cfg(test)]\nmod tests;\nfn f() { x.unwrap(); }\n";
        let ctx = FileCtx::new("crates/des/src/x.rs", src);
        let u = ctx.code.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(!ctx.in_test[u]);
    }

    #[test]
    fn chain_back_walks_method_chains() {
        let ctx = FileCtx::new("crates/x/src/a.rs", "let s = par.values().map(f).sum();");
        let dot = ctx
            .code
            .iter()
            .enumerate()
            .rfind(|(i, t)| t.text == "." && ctx.is_ident(i + 1, "sum"))
            .map(|(i, _)| i)
            .unwrap();
        let (base, methods) = ctx.chain_back(dot);
        assert_eq!(base, Some("par"));
        assert_eq!(methods, vec!["map", "values"]);
    }

    #[test]
    fn chain_back_self_field() {
        let ctx = FileCtx::new("crates/x/src/a.rs", "self.early.iter().sum();");
        let dot = ctx
            .code
            .iter()
            .enumerate()
            .rfind(|(i, t)| t.text == "." && ctx.is_ident(i + 1, "sum"))
            .map(|(i, _)| i)
            .unwrap();
        let (base, methods) = ctx.chain_back(dot);
        assert_eq!(base, Some("early"));
        assert_eq!(methods, vec!["iter"]);
    }

    #[test]
    fn chain_back_parenthesized_head_has_no_base() {
        let ctx = FileCtx::new("crates/x/src/a.rs", "(a + b).iter().sum();");
        let dot = ctx
            .code
            .iter()
            .enumerate()
            .rfind(|(i, t)| t.text == "." && ctx.is_ident(i + 1, "sum"))
            .map(|(i, _)| i)
            .unwrap();
        let (base, methods) = ctx.chain_back(dot);
        assert_eq!(base, None);
        assert_eq!(methods, vec!["iter"]);
    }

    #[test]
    fn bound_names_ascription_and_init() {
        let src = "struct S { early: HashMap<u32, f64> }\n\
                   fn f() {\n\
                     let mut m = HashMap::new();\n\
                     let t: std::collections::HashSet<u8> = Default::default();\n\
                     self.cache = HashMap::new();\n\
                   }\n";
        let ctx = FileCtx::new("crates/x/src/a.rs", src);
        let names = ctx.bound_names(&["HashMap", "HashSet"]);
        let got: Vec<&str> = names.iter().map(String::as_str).collect();
        assert_eq!(got, vec!["cache", "early", "m", "t"]);
    }

    #[test]
    fn turbofish_skipping() {
        let ctx = FileCtx::new("crates/x/src/a.rs", "x.sum::<f64>();");
        let sum = ctx.code.iter().position(|t| t.is_ident("sum")).unwrap();
        let after = ctx.skip_turbofish(sum + 1);
        assert_eq!(ctx.text(after), "(");
        // Nested: `collect::<Vec<f64>>()` — `>>` closes two.
        let ctx = FileCtx::new("crates/x/src/a.rs", "x.collect::<Vec<f64>>();");
        let c = ctx.code.iter().position(|t| t.is_ident("collect")).unwrap();
        assert_eq!(ctx.text(ctx.skip_turbofish(c + 1)), "(");
    }

    #[test]
    fn pragmas_same_line_and_own_line() {
        let src = "let t = now(); // lint:allow(instant-wallclock, demo)\n\
                   // lint:allow(unseeded-rng, fixture)\n\
                   let r = rng();\n";
        let ctx = FileCtx::new("crates/x/src/a.rs", src);
        assert_eq!(ctx.pragmas.len(), 2);
        assert_eq!(ctx.pragmas[0].rule, "instant-wallclock");
        assert!(!ctx.pragmas[0].own_line);
        assert_eq!(ctx.pragmas[0].line, 1);
        assert!(ctx.pragmas[1].own_line);
        assert_eq!(ctx.pragmas[1].line, 2);
        assert!(ctx.pragmas[1].has_reason);
    }

    #[test]
    fn trust_pragmas_parse_with_and_without_reason() {
        let src = "// lint:det-trusted(clock is mocked in this build)\n\
                   fn stamp() -> u64 { 0 }\n\
                   fn other() {} // lint:det-trusted()\n";
        let ctx = FileCtx::new("crates/x/src/a.rs", src);
        assert_eq!(ctx.trusted.len(), 2);
        assert!(ctx.trusted[0].has_reason);
        assert!(ctx.trusted[0].own_line);
        assert_eq!(ctx.trusted[0].line, 1);
        assert!(!ctx.trusted[1].has_reason);
        assert!(!ctx.trusted[1].own_line);
        assert_eq!(ctx.trusted[1].line, 3);
    }

    #[test]
    fn uniform_trust_pragmas_parse_independently() {
        let src = "// lint:uniform-trusted(rank-0-only IO, no collectives follow)\n\
                   fn report() {}\n\
                   // lint:det-trusted(mocked clock)\n\
                   fn stamp() -> u64 { 0 }\n";
        let ctx = FileCtx::new("crates/x/src/a.rs", src);
        assert_eq!(ctx.uniform_trusted.len(), 1);
        assert_eq!(ctx.uniform_trusted[0].line, 1);
        assert!(ctx.uniform_trusted[0].has_reason);
        assert!(ctx.uniform_trusted[0].own_line);
        assert_eq!(ctx.trusted.len(), 1);
        assert_eq!(ctx.trusted[0].line, 3);
    }

    #[test]
    fn strip_pragmas_covers_trust_needles() {
        let src = "// lint:uniform-trusted(stale)\n\
                   fn f() {}\n\
                   fn g() {} // lint:det-trusted(stale)\n";
        let got = strip_pragmas_on_lines(src, &BTreeSet::from([1, 3]));
        assert_eq!(got, "fn f() {}\nfn g() {}\n");
    }

    #[test]
    fn doc_comments_do_not_carry_pragmas() {
        let src = "//! Use `lint:allow(rule, reason)` to suppress.\n/// lint:allow(x, y)\n";
        let ctx = FileCtx::new("crates/x/src/a.rs", src);
        assert!(ctx.pragmas.is_empty());
    }

    #[test]
    fn trust_registry_is_consistent() {
        // Openers are always `name(`, and every family in the registry
        // is strippable by `--fix-baseline`.
        for spec in TRUST_SPECS {
            assert_eq!(spec.opener, format!("{}(", spec.name));
            assert!(
                PRAGMA_NEEDLES.contains(&spec.opener),
                "{} missing from PRAGMA_NEEDLES",
                spec.opener
            );
        }
        assert_eq!(PRAGMA_NEEDLES.len(), TRUST_SPECS.len() + 1);
    }

    #[test]
    fn strip_pragmas_drops_own_line_and_trailing() {
        let src = "fn f() {\n    // lint:allow(unwrap-in-lib, stale)\n    let x = 1; // lint:allow(f32-in-gcm, stale)\n    let y = 2; // keep me lint:allow(unseeded-rng, stale)\n}\n";
        let got = strip_pragmas_on_lines(src, &BTreeSet::from([2, 3, 4]));
        assert_eq!(
            got,
            "fn f() {\n    let x = 1;\n    let y = 2; // keep me\n}\n"
        );
    }
}
