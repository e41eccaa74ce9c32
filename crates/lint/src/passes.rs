//! Everything an analysis needs to see a file as a token sequence.
//!
//! [`FileCtx`] owns one lexed file plus the derived facts the analyses
//! keep asking for: which crate the file belongs to ([`classify`]),
//! which tokens are inside `#[cfg(test)]` regions, and bracket matching.
//! Each front-end decision is made here once — where a `<…>` ends, where
//! an item's body opens, what a range holds at bracket depth 0, what a
//! pattern binds — and every analysis calls the one answer instead of
//! re-deriving structure from strings.

use crate::graph::{starts_upper, KEYWORDS};
use crate::lexer::{lex, Tok, TokKind};
use std::collections::BTreeSet;

/// Where a file sits in the workspace, derived from its relative path.
pub struct FileScope {
    /// `Some("des")` for `crates/des/...`.
    pub crate_name: Option<String>,
}

pub fn classify(rel_path: &str) -> FileScope {
    let mut parts = rel_path.split('/');
    let crate_name = (parts.next() == Some("crates"))
        .then(|| parts.next().map(str::to_string))
        .flatten();
    FileScope { crate_name }
}

/// A `let` statement's token indices ([`FileCtx::let_parts`]).
pub struct Let {
    /// The pattern's half-open range.
    pub pat: (usize, usize),
    /// The `:` of a type ascription.
    pub colon: Option<usize>,
    /// The `=` before the initializer.
    pub eq: Option<usize>,
    /// The `;` that ends the statement (or the end of the range read).
    pub stop: usize,
}

/// A lexed file with the derived facts rules match against.
pub struct FileCtx<'a> {
    pub rel_path: &'a str,
    pub scope: FileScope,
    /// Code tokens only (comments dropped).
    pub code: Vec<Tok<'a>>,
    /// Per code token: inside a `#[cfg(test)]`-gated item.
    pub in_test: Vec<bool>,
    /// For each closer token index, the opener index (and vice versa);
    /// `u32::MAX` elsewhere.
    partner: Vec<u32>,
}

impl<'a> FileCtx<'a> {
    pub fn new(rel_path: &'a str, source: &'a str) -> Self {
        let mut code: Vec<Tok<'a>> = (lex(source).into_iter())
            .filter(|t| !matches!(t.kind, TokKind::Comment | TokKind::DocComment))
            .collect();
        code.shrink_to_fit();
        let mut ctx = FileCtx {
            rel_path,
            scope: classify(rel_path),
            partner: match_brackets(&code),
            code,
            in_test: Vec::new(),
        };
        ctx.in_test = cfg_test_flags(&ctx);
        ctx
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

    /// Matching bracket for opener/closer token `i`, if balanced.
    pub fn bracket_partner(&self, i: usize) -> Option<usize> {
        let p = *self.partner.get(i)?;
        (p != u32::MAX).then_some(p as usize)
    }

    /// Skip a balanced `<…>` starting at `open`: the index after the
    /// matching `>` (a `>>` closes two), or the index of a `{` / `;` /
    /// unbalanced group that comes first, or the end. `(…)` and `[…]`
    /// groups inside are skipped whole.
    pub fn skip_angles(&self, open: usize) -> usize {
        let mut depth = 0i64;
        let mut j = open;
        while j < self.code.len() {
            match self.text(j) {
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
                "(" | "[" => match self.bracket_partner(j) {
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

    /// The `(` opening the argument list of a call whose callee
    /// identifier is token `i` (`name(..)` or `name::<T>(..)`), if `i`
    /// is one.
    pub fn call_open(&self, i: usize) -> Option<usize> {
        let open = if self.is(i + 1, "::") && self.is(i + 2, "<") {
            self.skip_angles(i + 2)
        } else {
            i + 1
        };
        self.is(open, "(").then_some(open)
    }

    /// First `{` from `start` (skipping groups and generics), or `None`
    /// if a `;` ends the item first (trait method declaration, `mod x;`).
    pub fn body_open(&self, start: usize) -> Option<usize> {
        let mut j = start;
        while j < self.code.len() {
            match self.text(j) {
                "{" => return Some(j),
                ";" => return None,
                "<" => j = self.skip_angles(j),
                "(" | "[" => j = self.bracket_partner(j)? + 1,
                _ => j += 1,
            }
        }
        None
    }

    /// First token of `what` in `[s, e)` outside any `()` / `[]` / `{}`
    /// group opened in the range.
    pub fn find_at_depth0(&self, s: usize, e: usize, what: &[&str]) -> Option<usize> {
        let mut i = s;
        while i < e {
            let t = self.text(i);
            if what.contains(&t) {
                return Some(i);
            }
            if matches!(t, "(" | "[" | "{") {
                i = self.bracket_partner(i).map(|p| p + 1).unwrap_or(e);
                continue;
            }
            i += 1;
        }
        None
    }

    /// The arguments of the call whose parentheses are `open` and
    /// `close`: the non-empty ranges between its top-level commas, a
    /// closure's `|a, b|` and a turbofish's or a leading qualified path's
    /// `<A, B>` read whole. False beside them when another top-level `<`,
    /// `<<`, `|` or `||` leaves their number in doubt.
    pub fn args(&self, open: usize, close: usize) -> (Vec<(usize, usize)>, bool) {
        let (mut args, mut sure, mut start, mut i) = (Vec::new(), true, open + 1, open + 1);
        while i < close {
            let lead = i == start || matches!(self.text(i - 1), "&" | "mut" | "move");
            i = match self.text(i) {
                "," => {
                    args.extend((start < i).then_some((start, i)));
                    start = i + 1;
                    i + 1
                }
                "(" | "[" | "{" => self.bracket_partner(i).map_or(close, |p| p + 1),
                "|" if lead => self
                    .find_at_depth0(i + 1, close, &["|"])
                    .map_or(close, |k| k + 1),
                "<" | "<<" if lead || self.is(i - 1, "::") => self.skip_angles(i),
                "<" | "<<" | "|" | "||" => {
                    sure &= lead;
                    i + 1
                }
                _ => i + 1,
            };
        }
        args.extend((start < close).then_some((start, close)));
        (args, sure)
    }

    /// The names a pattern in `[s, e)` binds: lowercase non-keyword
    /// identifiers that are no path segment (`m::x`) and no field name
    /// (`P { field: x }`). Only a `:` inside the range names a field; the
    /// one after a `let` pattern ascribes its type.
    pub fn binders(&self, s: usize, e: usize) -> Vec<&'a str> {
        (s..e)
            .filter(|&i| {
                let t = self.text(i);
                let path_segment = self.is(i + 1, "::") || (i > s && self.is(i - 1, "::"));
                let field = i + 1 < e && self.is(i + 1, ":");
                self.kind(i) == Some(TokKind::Ident)
                    && !(KEYWORDS.contains(&t) || starts_upper(t) || path_segment || field)
            })
            .map(|i| self.code[i].text)
            .collect()
    }

    /// The parts of the `let` at `i`, read up to `end`:
    /// `let PAT [: TYPE] [= INIT [else { .. }]];`.
    pub fn let_parts(&self, i: usize, end: usize) -> Let {
        let stop = self.find_at_depth0(i + 1, end, &[";"]).unwrap_or(end);
        let eq = self.find_at_depth0(i + 1, stop, &["="]);
        let colon = self.find_at_depth0(i + 1, eq.unwrap_or(stop), &[":"]);
        Let {
            pat: (i + 1, colon.or(eq).unwrap_or(stop)),
            colon,
            eq,
            stop,
        }
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

/// Opener/closer partner indices over `()`, `[]`, `{}`.
fn match_brackets(code: &[Tok<'_>]) -> Vec<u32> {
    let mut partner = vec![u32::MAX; code.len()];
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
                        partner[i] = open as u32;
                        partner[open] = i as u32;
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
fn cfg_test_flags(ctx: &FileCtx<'_>) -> Vec<bool> {
    let mut flags = vec![false; ctx.code.len()];
    let mut i = 0;
    while i < ctx.code.len() {
        let gate = ["#", "[", "cfg", "(", "test", ")", "]"]
            .iter()
            .enumerate()
            .all(|(k, t)| ctx.is(i + k, t));
        let body = gate.then(|| ctx.body_open(i + 7)).flatten();
        match body.and_then(|open| ctx.bracket_partner(open)) {
            Some(close) => {
                flags[i..=close].fill(true);
                i = close + 1;
            }
            None => i += 1,
        }
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        let s = classify("crates/des/src/sim.rs");
        assert_eq!(s.crate_name.as_deref(), Some("des"));
        let s = classify("crates/des/tests/t.rs");
        assert_eq!(s.crate_name.as_deref(), Some("des"));
        let s = classify("tests/determinism.rs");
        assert!(s.crate_name.is_none());
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

    /// The token index of the `n`th (0-based) token spelled `text`.
    fn nth(ctx: &FileCtx<'_>, text: &str, n: usize) -> usize {
        let mut hits = (0..ctx.code.len()).filter(|&k| ctx.is(k, text));
        hits.nth(n).unwrap()
    }

    /// The angle skipper as each of its readers needs it: a turbofish
    /// (calls) and generics (item bodies, `impl`
    /// subjects, parameter lists).
    #[test]
    fn angles_close_where_each_former_caller_expects() {
        // `::<f64>` and `::<Vec<Vec<u8>>>`: a `>>` closes two.
        let ctx = FileCtx::new("crates/x/src/a.rs", "x.sum::<f64>();");
        let sum = nth(&ctx, "sum", 0);
        assert_eq!(ctx.call_open(sum), Some(nth(&ctx, "(", 0)));
        let ctx = FileCtx::new("crates/x/src/a.rs", "x.collect::<Vec<Vec<u8>>>();");
        assert_eq!(ctx.text(ctx.code.len() - 5), ">>");
        let collect = nth(&ctx, "collect", 0);
        assert_eq!(ctx.call_open(collect), Some(ctx.code.len() - 3));
        assert_eq!(ctx.call_open(nth(&ctx, "x", 0)), None);
        // A `;` or `{` before the close: no turbofish, so no call.
        let ctx = FileCtx::new("crates/x/src/a.rs", "a.f::<T; g::<U { h::<V>(1)");
        assert_eq!(ctx.call_open(nth(&ctx, "f", 0)), None);
        assert_eq!(ctx.call_open(nth(&ctx, "g", 0)), None);
        assert_eq!(ctx.call_open(nth(&ctx, "h", 0)), Some(nth(&ctx, "(", 0)));
        assert_eq!(ctx.skip_angles(nth(&ctx, "<", 0)), nth(&ctx, ";", 0));
        assert_eq!(ctx.skip_angles(nth(&ctx, "<", 1)), nth(&ctx, "{", 0));
        // Generics with a `>>`, and groups whose `;` is not the item's.
        let src = "impl<T: Into<Vec<u8>>> X for Y {}\n\
                   fn f<A: Tr<[u8; 2]>>(m: BTreeMap<(u8, u8), f64>) -> Vec<u8> { 1 << 2 }\n\
                   fn g();\n";
        let ctx = FileCtx::new("crates/x/src/a.rs", src);
        assert_eq!(ctx.skip_angles(1), nth(&ctx, "X", 0));
        assert_eq!(ctx.body_open(0), Some(nth(&ctx, "{", 0)));
        let f = nth(&ctx, "f", 0);
        assert_eq!(ctx.body_open(f), Some(nth(&ctx, "{", 1)));
        assert_eq!(ctx.body_open(nth(&ctx, "g", 0)), None);
        // A comparison's `<` bails at the body, which is still found.
        let ctx = FileCtx::new("crates/x/src/a.rs", "while i < n { i += 1; }");
        assert_eq!(ctx.skip_angles(2), 4);
        assert_eq!(ctx.body_open(1), Some(4));
        // A `<<` opens two.
        let ctx = FileCtx::new("crates/x/src/a.rs", "<<T as Tr>::A as Ts>::B;");
        assert_eq!(ctx.skip_angles(0), nth(&ctx, "B", 0) - 1);
    }

    /// The depth-0 scans: the argument splitter, and the scanner `let`
    /// parts and `for … in` subjects read.
    #[test]
    fn depth0_scans_skip_groups_and_stop_at_what_is_asked() {
        let ctx = FileCtx::new(
            "crates/x/src/a.rs",
            "f(a, g(b, c), [d; 2], S { e, f }, |x, y| x << y, p << q,)",
        );
        let close = ctx.bracket_partner(1).unwrap();
        let (args, sure) = ctx.args(1, close);
        let args: Vec<String> = (args.iter())
            .map(|&(s, e)| (s..e).map(|k| ctx.text(k)).collect())
            .collect();
        // A closure's commas do not split it; a shift leaves the count in
        // doubt.
        let want = ["a", "g(b,c)", "[d;2]", "S{e,f}", "|x,y|x<<y", "p<<q"];
        assert_eq!((args, sure), (want.map(String::from).to_vec(), false));
        assert_eq!(
            ctx.find_at_depth0(2, close, &["|", "<<"]),
            Some(nth(&ctx, "|", 0))
        );
        assert_eq!(ctx.find_at_depth0(2, close, &[";"]), None);
        let ctx = FileCtx::new(
            "crates/x/src/a.rs",
            "for (k, v) in map.iter() {} impl X for Y {}",
        );
        let for_in =
            |n| ctx.find_at_depth0(nth(&ctx, "for", n) + 1, ctx.code.len(), &["in", "{", ";"]);
        assert_eq!(for_in(0), Some(nth(&ctx, "in", 0)));
        assert_eq!(for_in(1), Some(nth(&ctx, "{", 1)));
    }

    /// A `let`'s binders, ascription `:`, `=` and end, as spelled.
    fn let_parts(src: &str) -> (Vec<&str>, Option<&str>, Option<&str>, &str) {
        let ctx = FileCtx::new("crates/x/src/a.rs", src);
        let l = ctx.let_parts(0, ctx.code.len());
        let at = |k: Option<usize>| k.map(|k| ctx.text(k));
        let binders = ctx.binders(l.pat.0, l.pat.1);
        (binders, at(l.colon), at(l.eq), ctx.text(l.stop))
    }

    #[test]
    fn let_parts_and_binders() {
        // The `:` after the pattern ascribes; it names no field.
        let r = let_parts("let r: usize = world.rank();");
        assert_eq!(r, (vec!["r"], Some(":"), Some("="), ";"));
        let p = let_parts("let P { left: l, .. }: P = p;");
        assert_eq!(p, (vec!["l"], Some(":"), Some("="), ";"));
        let t = let_parts("let (mut a, ref b, Some(c), m::N) = t else { return };");
        assert_eq!(t, (vec!["a", "b", "c"], None, Some("="), ";"));
        assert_eq!(let_parts("let x;"), (vec!["x"], None, None, ";"));
    }
}
