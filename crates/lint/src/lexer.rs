//! A hand-rolled Rust lexer: the foundation of the v2 rule engine.
//!
//! PR 1's engine scrubbed source *lines* (strings blanked, comments
//! split off) and matched substrings against the residue. That cannot
//! see expression structure: `.sum::<f64>()` over a hash iterator looks
//! exactly like one over a `Vec`. This lexer produces a real token
//! stream with line spans so rules in [`crate::passes`] can match
//! token *sequences* instead.
//!
//! Handled, faithfully enough for linting (not a full rustc lexer):
//!
//! * line comments (`//`, with `///` / `//!` marked as doc) and nested
//!   block comments (`/* /* */ */`, `/**` / `/*!` as doc) — emitted as
//!   [`TokKind::Comment`] / [`TokKind::DocComment`] tokens so the pragma
//!   parser sees them, never as code;
//! * string literals with escapes, raw strings `r"…"`/`r#"…"#` (any
//!   hash count), byte strings `b"…"`/`br#"…"#`, char literals;
//! * lifetimes vs char literals (`'a` is a [`TokKind::Lifetime`], `'a'`
//!   a [`TokKind::Char`]);
//! * numeric literals including float/range disambiguation (`1..n` is
//!   `Int ..`, `1.5e-3` and `1.` are `Float`), radix prefixes, and type
//!   suffixes (`1f64` is a `Float`);
//! * multi-char operators (`::`, `->`, `..=`, `<<=`, …) as single
//!   [`TokKind::Punct`] tokens.
//!
//! Tokens borrow from the source; `text` is the exact source slice
//! (comments include their delimiters).

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`for`, `HashMap`, `f32`, …).
    Ident,
    /// `'a` in `fn f<'a>`.
    Lifetime,
    /// Integer literal, including radix prefixes and suffixes.
    Int,
    /// Float literal (`1.5`, `1.`, `2e9`, `1f64`).
    Float,
    /// `"…"` or `b"…"` with escapes.
    Str,
    /// `r"…"`, `r#"…"#`, `br"…"`, … (no escapes).
    RawStr,
    /// `'x'`, `'\''`.
    Char,
    /// Operator/delimiter, multi-char ops as one token.
    Punct,
    /// `// …` or `/* … */` (may span lines).
    Comment,
    /// `/// …`, `//! …`, `/** … */`, `/*! … */`.
    DocComment,
}

/// One token. `line` is 1-based and refers to the first byte.
#[derive(Debug, Clone, Copy)]
pub struct Tok<'a> {
    pub kind: TokKind,
    pub text: &'a str,
    pub line: u32,
}

impl Tok<'_> {
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// Number of lines this token spans beyond its first.
    pub fn extra_lines(&self) -> u32 {
        self.text.bytes().filter(|&b| b == b'\n').count() as u32
    }
}

/// Multi-byte punctuation, longest-match-first.
const PUNCTS3: &[&str] = &["..=", "<<=", ">>=", "..."];
const PUNCTS2: &[&str] = &[
    "::", "->", "=>", "..", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "+=", "-=", "*=", "/=",
    "%=", "^=", "&=", "|=",
];

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Lexer<'a> {
    fn peek(&self, ahead: usize) -> u8 {
        *self.bytes.get(self.pos + ahead).unwrap_or(&0)
    }

    /// Advance one byte, tracking the line.
    fn bump(&mut self) {
        self.line += u32::from(self.peek(0) == b'\n');
        self.pos += 1;
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn slice(&self, start: usize) -> &'a str {
        &self.src[start..self.pos]
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lex `src` into its full token stream (code and comments interleaved
/// in source order; whitespace dropped).
pub fn lex(src: &str) -> Vec<Tok<'_>> {
    let mut lx = Lexer {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut out = Vec::new();
    while lx.pos < lx.bytes.len() {
        let b = lx.peek(0);
        if b.is_ascii_whitespace() {
            lx.bump();
            continue;
        }
        let (start, line) = (lx.pos, lx.line);
        let kind = match b {
            b'/' if lx.peek(1) == b'/' => lex_line_comment(&mut lx),
            b'/' if lx.peek(1) == b'*' => lex_block_comment(&mut lx),
            b'"' => {
                lex_quoted(&mut lx, b'"', true);
                TokKind::Str
            }
            b'r' | b'b' if raw_or_byte_string_kind(&lx).is_some() => lex_prefixed_string(&mut lx),
            b'\'' => lex_lifetime_or_char(&mut lx),
            _ if is_ident_start(b) => {
                while is_ident_cont(lx.peek(0)) {
                    lx.bump();
                }
                TokKind::Ident
            }
            _ if b.is_ascii_digit() => lex_number(&mut lx),
            _ => lex_punct(&mut lx),
        };
        out.push(Tok {
            kind,
            text: lx.slice(start),
            line,
        });
    }
    out
}

fn lex_line_comment(lx: &mut Lexer<'_>) -> TokKind {
    let start = lx.pos;
    while lx.pos < lx.bytes.len() && lx.peek(0) != b'\n' {
        lx.bump();
    }
    let text = lx.slice(start);
    let doc = (text.starts_with("///") && !text.starts_with("////")) || text.starts_with("//!");
    if doc {
        TokKind::DocComment
    } else {
        TokKind::Comment
    }
}

fn lex_block_comment(lx: &mut Lexer<'_>) -> TokKind {
    let start = lx.pos;
    lx.bump_n(2);
    let mut depth = 1usize;
    while lx.pos < lx.bytes.len() && depth > 0 {
        if lx.peek(0) == b'/' && lx.peek(1) == b'*' {
            depth += 1;
            lx.bump_n(2);
        } else if lx.peek(0) == b'*' && lx.peek(1) == b'/' {
            depth -= 1;
            lx.bump_n(2);
        } else {
            lx.bump();
        }
    }
    let text = lx.slice(start);
    let doc = (text.starts_with("/**") && !text.starts_with("/***") && text != "/**/")
        || text.starts_with("/*!");
    if doc {
        TokKind::DocComment
    } else {
        TokKind::Comment
    }
}

/// Consume a quoted literal starting at the opening delimiter.
fn lex_quoted(lx: &mut Lexer<'_>, quote: u8, escapes: bool) {
    lx.bump(); // opening quote
    while lx.pos < lx.bytes.len() {
        let b = lx.peek(0);
        if escapes && b == b'\\' {
            lx.bump_n(2);
        } else if b == quote {
            lx.bump();
            return;
        } else {
            lx.bump();
        }
    }
}

/// Does `r…`/`b…` at the cursor open a raw/byte string (vs an ident)?
fn raw_or_byte_string_kind(lx: &Lexer<'_>) -> Option<TokKind> {
    let hashes_then_quote = |from: usize| -> Option<usize> {
        let mut n = 0;
        while lx.peek(from + n) == b'#' {
            n += 1;
        }
        (lx.peek(from + n) == b'"').then_some(n)
    };
    match lx.peek(0) {
        b'r' => hashes_then_quote(1).map(|_| TokKind::RawStr),
        b'b' if lx.peek(1) == b'"' => Some(TokKind::Str),
        b'b' if lx.peek(1) == b'r' => hashes_then_quote(2).map(|_| TokKind::RawStr),
        _ => None,
    }
}

/// Consume `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`; returns the token kind.
fn lex_prefixed_string(lx: &mut Lexer<'_>) -> TokKind {
    if lx.peek(0) == b'b' && lx.peek(1) == b'"' {
        lx.bump(); // b
        lex_quoted(lx, b'"', true);
        return TokKind::Str;
    }
    // r…/br…: skip prefix letters, count hashes.
    while matches!(lx.peek(0), b'r' | b'b') {
        lx.bump();
    }
    let mut hashes = 0usize;
    while lx.peek(0) == b'#' {
        hashes += 1;
        lx.bump();
    }
    lx.bump(); // opening quote
    while lx.pos < lx.bytes.len() {
        if lx.peek(0) == b'"' && (1..=hashes).all(|k| lx.peek(k) == b'#') {
            lx.bump_n(1 + hashes);
            return TokKind::RawStr;
        }
        lx.bump();
    }
    TokKind::RawStr
}

fn lex_lifetime_or_char(lx: &mut Lexer<'_>) -> TokKind {
    // `'a` not followed by a closing quote is a lifetime ('a' is a char,
    // 'abc is a lifetime, '\'' is a char).
    let n1 = lx.peek(1);
    let lifetime = is_ident_start(n1) && lx.peek(2) != b'\'';
    if lifetime {
        lx.bump(); // '
        while is_ident_cont(lx.peek(0)) {
            lx.bump();
        }
        TokKind::Lifetime
    } else {
        lex_quoted(lx, b'\'', true);
        TokKind::Char
    }
}

fn lex_number(lx: &mut Lexer<'_>) -> TokKind {
    let mut float = false;
    if lx.peek(0) == b'0' && matches!(lx.peek(1), b'x' | b'o' | b'b') {
        lx.bump_n(2);
        // Digits and the type suffix (`0xFFu32`) in one token.
        while is_ident_cont(lx.peek(0)) {
            lx.bump();
        }
        return TokKind::Int;
    }
    while lx.peek(0).is_ascii_digit() || lx.peek(0) == b'_' {
        lx.bump();
    }
    // `.`: part of the literal only when not `..` (range) and not a
    // method call / field access (`1.max(2)` — ident follows).
    if lx.peek(0) == b'.' && lx.peek(1) != b'.' && !is_ident_start(lx.peek(1)) {
        float = true;
        lx.bump();
        while lx.peek(0).is_ascii_digit() || lx.peek(0) == b'_' {
            lx.bump();
        }
    }
    if matches!(lx.peek(0), b'e' | b'E') {
        let (s1, s2) = (lx.peek(1), lx.peek(2));
        if s1.is_ascii_digit() || (matches!(s1, b'+' | b'-') && s2.is_ascii_digit()) {
            float = true;
            lx.bump_n(2);
            while lx.peek(0).is_ascii_digit() || lx.peek(0) == b'_' {
                lx.bump();
            }
        }
    }
    // Type suffix (`u32`, `f64`, …) glued onto the literal.
    let suffix_start = lx.pos;
    while is_ident_cont(lx.peek(0)) {
        lx.bump();
    }
    let suffix = &lx.src[suffix_start..lx.pos];
    if matches!(suffix, "f32" | "f64") {
        float = true;
    }
    if float {
        TokKind::Float
    } else {
        TokKind::Int
    }
}

fn lex_punct(lx: &mut Lexer<'_>) -> TokKind {
    let rest = &lx.src[lx.pos..];
    for p in PUNCTS3 {
        if rest.starts_with(p) {
            lx.bump_n(3);
            return TokKind::Punct;
        }
    }
    for p in PUNCTS2 {
        if rest.starts_with(p) {
            lx.bump_n(2);
            return TokKind::Punct;
        }
    }
    // Single char (multi-byte UTF-8 chars consumed whole).
    let ch_len = rest.chars().next().map(char::len_utf8).unwrap_or(1);
    lx.bump_n(ch_len);
    TokKind::Punct
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, &str)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    fn code_texts(src: &str) -> Vec<&str> {
        lex(src)
            .into_iter()
            .filter(|t| !matches!(t.kind, TokKind::Comment | TokKind::DocComment))
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn line_comments_become_comment_tokens() {
        let ts = kinds("let x = 1; // thread_rng() here\nlet y = 2;");
        assert!(ts.contains(&(TokKind::Comment, "// thread_rng() here")));
        // The mention inside the comment is not an Ident token.
        assert!(!ts.contains(&(TokKind::Ident, "thread_rng")));
    }

    #[test]
    fn nested_block_comments() {
        let ts = kinds("a /* x /* y */ z */ b");
        assert_eq!(
            ts,
            vec![
                (TokKind::Ident, "a"),
                (TokKind::Comment, "/* x /* y */ z */"),
                (TokKind::Ident, "b"),
            ]
        );
    }

    #[test]
    fn doc_comments_distinguished() {
        let ts = kinds("/// outer\n//! inner\n//// not doc\n// plain\n/*! block */");
        let doc: Vec<&str> = ts
            .iter()
            .filter(|(k, _)| *k == TokKind::DocComment)
            .map(|&(_, t)| t)
            .collect();
        assert_eq!(doc, vec!["/// outer", "//! inner", "/*! block */"]);
    }

    #[test]
    fn strings_are_single_tokens() {
        let ts = kinds(r#"panic!("do not call thread_rng() \" here");"#);
        assert!(ts
            .iter()
            .any(|&(k, t)| k == TokKind::Str && t.contains("thread_rng")));
        assert!(!ts
            .iter()
            .any(|&(k, t)| k == TokKind::Ident && t == "thread_rng"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r##"let s = r#"Instant::now() "quoted""#; x"##;
        let ts = kinds(src);
        assert!(ts
            .iter()
            .any(|&(k, t)| k == TokKind::RawStr && t.contains("Instant")));
        assert_eq!(*ts.last().unwrap(), (TokKind::Ident, "x"));
    }

    #[test]
    fn byte_strings() {
        let ts = kinds(r#"let s = b"SystemTime"; y"#);
        assert!(ts.iter().any(|&(k, _)| k == TokKind::Str));
        assert!(!ts
            .iter()
            .any(|&(k, t)| k == TokKind::Ident && t == "SystemTime"));
        // `br` raw form too.
        let ts = kinds(r###"let s = br#"raw"#; z"###);
        assert!(ts.iter().any(|&(k, _)| k == TokKind::RawStr));
        assert_eq!(*ts.last().unwrap(), (TokKind::Ident, "z"));
    }

    #[test]
    fn identifiers_starting_with_r_or_b_are_not_strings() {
        let ts = kinds("let round = 1; let brine = b2;");
        assert!(ts.contains(&(TokKind::Ident, "round")));
        assert!(ts.contains(&(TokKind::Ident, "brine")));
        assert!(ts.contains(&(TokKind::Ident, "b2")));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let ts = kinds("fn f<'a>(x: &'a str) { let c = '\"'; let q = '\\''; }");
        assert!(ts.contains(&(TokKind::Lifetime, "'a")));
        assert!(ts.iter().any(|&(k, t)| k == TokKind::Char && t == "'\"'"));
        assert!(ts.iter().any(|&(k, t)| k == TokKind::Char && t == "'\\''"));
    }

    #[test]
    fn numbers_floats_and_ranges() {
        assert_eq!(
            kinds("1..n 1.5 1. 2e9 1e-3 0xFF 1_000u64 1f64 3.0f32"),
            vec![
                (TokKind::Int, "1"),
                (TokKind::Punct, ".."),
                (TokKind::Ident, "n"),
                (TokKind::Float, "1.5"),
                (TokKind::Float, "1."),
                (TokKind::Float, "2e9"),
                (TokKind::Float, "1e-3"),
                (TokKind::Int, "0xFF"),
                (TokKind::Int, "1_000u64"),
                (TokKind::Float, "1f64"),
                (TokKind::Float, "3.0f32"),
            ]
        );
    }

    #[test]
    fn method_on_int_literal_is_not_a_float() {
        assert_eq!(
            kinds("1.max(2)"),
            vec![
                (TokKind::Int, "1"),
                (TokKind::Punct, "."),
                (TokKind::Ident, "max"),
                (TokKind::Punct, "("),
                (TokKind::Int, "2"),
                (TokKind::Punct, ")"),
            ]
        );
    }

    #[test]
    fn multichar_puncts_are_single_tokens() {
        assert_eq!(
            code_texts("a::b -> c => d..=e <<= >>= == !="),
            vec!["a", "::", "b", "->", "c", "=>", "d", "..=", "e", "<<=", ">>=", "==", "!="]
        );
    }

    #[test]
    fn spans_track_lines() {
        let ts = lex("ab cd\n  ef\n\"x\ny\" gh");
        let find = |name: &str| ts.iter().find(|t| t.text == name).unwrap();
        assert_eq!((find("ab").line, find("cd").line), (1, 1));
        assert_eq!(find("ef").line, 2);
        // Token after a multi-line string lands on the string's last line.
        assert_eq!(find("gh").line, 4);
        let s = ts.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert_eq!(s.extra_lines(), 1);
    }

    #[test]
    fn multiline_string_keeps_line_numbers() {
        let ts = lex("let s = \"line one\nline two\";\nlet t = 3;");
        let t = ts.iter().find(|t| t.text == "t").unwrap();
        assert_eq!(t.line, 3);
    }
}
