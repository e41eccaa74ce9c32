//! A flattening JSON reader: one document in, dotted-path scalars out.
//!
//! `hbench` (the benchmark behind `BENCHMARK.json`) reads its own result
//! files back through [`flatten_json`] to compare two runs; nothing else
//! in the workspace parses JSON.

use std::collections::BTreeMap;

/// A flattened JSON scalar.
#[derive(Clone, Debug, PartialEq)]
pub enum Val {
    Num(f64),
    Bool(bool),
    Str(String),
    Null,
}

/// Flatten a JSON document into dotted-path scalars. Object keys join
/// with `.`; array elements land at `path.<index>` and every array also
/// records `path.len`. The parser covers the subset the bench result files
/// use (and standard escapes); it rejects trailing garbage.
pub fn flatten_json(src: &str) -> Result<BTreeMap<String, Val>, String> {
    let mut p = Parser {
        b: src.as_bytes(),
        i: 0,
    };
    let mut out = BTreeMap::new();
    p.ws();
    p.value(String::new(), &mut out)?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(out)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                c as char,
                self.i,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn value(&mut self, path: String, out: &mut BTreeMap<String, Val>) -> Result<(), String> {
        self.ws();
        match self.peek() {
            Some(b'{') => self.object(path, out),
            Some(b'[') => self.array(path, out),
            Some(b'"') => {
                let s = self.string()?;
                out.insert(path, Val::Str(s));
                Ok(())
            }
            Some(b't') => self.literal("true", path, Val::Bool(true), out),
            Some(b'f') => self.literal("false", path, Val::Bool(false), out),
            Some(b'n') => self.literal("null", path, Val::Null, out),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.i;
                while self.peek().is_some_and(|c| {
                    c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.i += 1;
                }
                let txt = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
                let n: f64 = txt
                    .parse()
                    .map_err(|_| format!("bad number {txt:?} at byte {start}"))?;
                out.insert(path, Val::Num(n));
                Ok(())
            }
            other => Err(format!("unexpected {other:?} at byte {}", self.i)),
        }
    }

    fn literal(
        &mut self,
        word: &str,
        path: String,
        v: Val,
        out: &mut BTreeMap<String, Val>,
    ) -> Result<(), String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            out.insert(path, v);
            Ok(())
        } else {
            Err(format!("expected {word} at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .ok_or("truncated \\u escape")?;
                            self.i += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Strings in the result files are ASCII, but pass UTF-8
                    // through byte-faithfully.
                    let start = self.i;
                    while self.peek().is_some_and(|c| c != b'"' && c != b'\\') {
                        self.i += 1;
                    }
                    s.push_str(
                        std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn object(&mut self, path: String, out: &mut BTreeMap<String, Val>) -> Result<(), String> {
        self.expect(b'{')?;
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            let child = if path.is_empty() {
                key
            } else {
                format!("{path}.{key}")
            };
            self.value(child, out)?;
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    fn array(&mut self, path: String, out: &mut BTreeMap<String, Val>) -> Result<(), String> {
        self.expect(b'[')?;
        self.ws();
        let mut n = 0usize;
        if self.peek() == Some(b']') {
            self.i += 1;
            out.insert(format!("{path}.len"), Val::Num(0.0));
            return Ok(());
        }
        loop {
            self.value(format!("{path}.{n}"), out)?;
            n += 1;
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    out.insert(format!("{path}.len"), Val::Num(n as f64));
                    return Ok(());
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_handles_nesting_arrays_and_escapes() {
        let m = flatten_json(r#"{"a": {"b": [1, "x\n\"y", true]}, "c": null}"#).unwrap();
        assert_eq!(m.get("a.b.0"), Some(&Val::Num(1.0)));
        assert_eq!(m.get("a.b.1"), Some(&Val::Str("x\n\"y".into())));
        assert_eq!(m.get("a.b.2"), Some(&Val::Bool(true)));
        assert_eq!(m.get("a.b.len"), Some(&Val::Num(3.0)));
        assert_eq!(m.get("c"), Some(&Val::Null));
        assert!(flatten_json("{}garbage").is_err());
        assert!(flatten_json(r#"{"a": }"#).is_err());
    }
}
