//! Minimal dependency-free JSON support.
//!
//! The workspace vendors all external crates as offline stubs, so there is
//! no serde. Writers render straight into any [`fmt::Write`]: [`Escaped`]
//! escapes whatever passes through it for a string body and [`write_num`]
//! prints a number, with [`escape`] / [`num`] as their `String`-returning
//! forms. Reading goes through one [`Scanner`], a small recursive-descent
//! reader that borrows from the document: [`parse`] builds an owned
//! [`Json`] tree on it (schema-validation tests, [`crate::chrome::validate`],
//! the benchmark's record files), and the serve protocol's decoder reads a
//! frame's members off it without building a tree at all. It accepts
//! standard JSON (objects, arrays, strings with escapes, numbers, booleans,
//! null) — enough to round-trip everything this crate emits.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps iteration deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as an object, if it is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Member `key` of an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object().and_then(|m| m.get(key))
    }
}

/// A JSON value as the [`Scanner`] reads it, borrowing from the document:
/// a string is its literal, checked but not yet decoded ([`Str`]), and an
/// object is its members in document order, duplicates included.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string literal.
    Str(Str<'a>),
    /// An array.
    Arr(Vec<Value<'a>>),
    /// An object's members, in document order.
    Obj(Vec<(Cow<'a, str>, Value<'a>)>),
}

impl Value<'_> {
    /// The owned tree: an object's later duplicate key wins, as it does
    /// when members are inserted into a map one by one.
    pub fn into_json(self) -> Json {
        match self {
            Value::Null => Json::Null,
            Value::Bool(b) => Json::Bool(b),
            Value::Num(n) => Json::Num(n),
            Value::Str(s) => Json::Str(s.text().into_owned()),
            Value::Arr(items) => Json::Arr(items.into_iter().map(Value::into_json).collect()),
            Value::Obj(members) => Json::Obj(
                members
                    .into_iter()
                    .map(|(k, v)| (k.into_owned(), v.into_json()))
                    .collect(),
            ),
        }
    }
}

/// A string literal as the [`Scanner`] found it: its body between the
/// quotes, escapes as spelled, every one of them already checked, and the
/// length of the text they decode to. Nothing is decoded until
/// [`Str::text`] is asked for, so a reader that only compares or stores
/// the literal never pays for it. Equality is equality of spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Str<'a> {
    raw: &'a str,
    /// Bytes of the decoded text. Every escape decodes to fewer bytes
    /// than it is spelled with, so this equals `raw.len()` exactly when
    /// the literal has no escape.
    len: usize,
}

impl<'a> Str<'a> {
    /// The literal's body as the document spells it, escapes included.
    pub fn raw(&self) -> &'a str {
        self.raw
    }

    /// The decoded text: borrowed when the literal has no escape, else
    /// decoded into a `String` of exactly its size.
    pub fn text(&self) -> Cow<'a, str> {
        if self.len == self.raw.len() {
            return Cow::Borrowed(self.raw);
        }
        let mut out = String::with_capacity(self.len);
        // The body was checked when it was read and has no closing quote,
        // so the walk decodes all of it and then reports the end of input.
        let _ = Scanner::new(self.raw).unescape(&mut out);
        Cow::Owned(out)
    }
}

/// A writer adapter that escapes everything written through it for the
/// inside of a JSON string, so a value can be formatted straight into a
/// document with no escaped copy in between.
pub struct Escaped<'w, W: fmt::Write + ?Sized>(pub &'w mut W);

impl<W: fmt::Write + ?Sized> fmt::Write for Escaped<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        // Runs that need no escape go through whole.
        let mut run = 0;
        for (i, c) in s.char_indices() {
            let short = match c {
                '"' => Some("\\\""),
                '\\' => Some("\\\\"),
                '\n' => Some("\\n"),
                '\r' => Some("\\r"),
                '\t' => Some("\\t"),
                c if (c as u32) < 0x20 => None,
                _ => continue,
            };
            self.0.write_str(&s[run..i])?;
            match short {
                Some(text) => self.0.write_str(text)?,
                None => write!(self.0, "\\u{:04x}", c as u32)?,
            }
            run = i + c.len_utf8();
        }
        self.0.write_str(&s[run..])
    }
}

/// Escape a string for embedding between JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let _ = Escaped(&mut out).write_str(s);
    out
}

/// Write an `f64` as a JSON number. JSON has no Infinity/NaN, so
/// non-finite values are written as `null`-safe sentinels (`0`), which
/// callers should avoid producing in the first place.
pub fn write_num<W: fmt::Write + ?Sized>(w: &mut W, v: f64) -> fmt::Result {
    if !v.is_finite() {
        return w.write_str("0");
    }
    if v == v.trunc() && v.abs() < 1e15 {
        write!(w, "{}", v as i64)
    } else {
        // Rust's Display prints the shortest decimal that round-trips the
        // f64 exactly, and never uses exponent notation — always valid
        // JSON, and compact for the common microsecond-scale values.
        write!(w, "{v}")
    }
}

/// Format an `f64` as a JSON number ([`write_num`] into a new `String`).
pub fn num(v: f64) -> String {
    let mut out = String::new();
    let _ = write_num(&mut out, v);
    out
}

/// Deepest array/object nesting the [`Scanner`] accepts. It recurses once
/// per level and its input arrives from sockets, so without a bound a
/// frame of `[[[[…` overflows the stack — an abort no `catch_unwind`
/// contains. The serve protocol nests three deep.
pub const MAX_DEPTH: usize = 128;

/// Parse a JSON document into an owned tree.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut scanner = Scanner::new(src);
    let value = scanner.value()?;
    scanner.end()?;
    Ok(value.into_json())
}

/// The JSON reader: recursive descent over one document, yielding
/// [`Value`]s that borrow from it. Every syntax, depth and escape error is
/// found here, at the byte offset it names, so every reader built on it
/// words its errors alike.
#[derive(Clone, Copy)]
pub struct Scanner<'a> {
    src: &'a str,
    pos: usize,
}

/// Where decoded string text goes: into a `String`, or only counted.
trait Unescaped {
    fn push(&mut self, s: &str);
}

impl Unescaped for String {
    fn push(&mut self, s: &str) {
        self.push_str(s);
    }
}

impl Unescaped for usize {
    fn push(&mut self, s: &str) {
        *self += s.len();
    }
}

impl<'a> Scanner<'a> {
    /// A scanner at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Scanner { src, pos: 0 }
    }

    /// Read the next value.
    pub fn value(&mut self) -> Result<Value<'a>, String> {
        self.value_at(0)
    }

    /// Read the next value; if it is an object, hand each member to
    /// `member` as it is read, in document order, instead of collecting
    /// them. Returns `None` for an object, else the value read.
    pub fn members(
        &mut self,
        mut member: impl FnMut(Cow<'a, str>, Value<'a>),
    ) -> Result<Option<Value<'a>>, String> {
        self.skip_ws();
        if self.peek() == Some(b'{') {
            self.object(1, &mut member)?;
            Ok(None)
        } else {
            self.value().map(Some)
        }
    }

    /// Check that only whitespace is left.
    pub fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.src.len() {
            return Err(format!("trailing data at byte {}", self.pos));
        }
        Ok(())
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.pos))
        }
    }

    /// `depth` counts the arrays and objects enclosing this value.
    fn value_at(&mut self, depth: usize) -> Result<Value<'a>, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'{') => {
                let mut members = Vec::new();
                self.object(depth + 1, &mut |k, v| members.push((k, v)))?;
                Ok(Value::Obj(members))
            }
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
        }
    }

    fn literal(&mut self, lit: &str, v: Value<'a>) -> Result<Value<'a>, String> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value<'a>, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        self.src[start..self.pos]
            .parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    /// A string literal, read in one pass that finds its closing quote,
    /// checks every escape in it and counts the bytes it decodes to.
    fn string(&mut self) -> Result<Str<'a>, String> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut len = 0usize;
        self.unescape(&mut len)?;
        Ok(Str {
            raw: &self.src[start..self.pos - 1],
            len,
        })
    }

    /// Decode a string's text from the current byte through its closing
    /// quote into `out`.
    fn unescape(&mut self, out: &mut impl Unescaped) -> Result<(), String> {
        let b = self.src.as_bytes();
        loop {
            match b.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match b.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let mut code = hex4(b, self.pos + 1)?;
                            self.pos += 4;
                            // Outside the BMP, JSON spells a character as a
                            // UTF-16 pair: a high surrogate, then a low one.
                            if (0xd800..0xdc00).contains(&code)
                                && b.get(self.pos + 1..self.pos + 3) == Some(b"\\u")
                            {
                                let low = hex4(b, self.pos + 3)?;
                                if (0xdc00..0xe000).contains(&low) {
                                    code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                    self.pos += 6;
                                }
                            }
                            char::from_u32(code)
                                .ok_or_else(|| format!("lone surrogate before byte {}", self.pos))?
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    };
                    out.push(c.encode_utf8(&mut [0; 4]));
                    self.pos += 1;
                }
                Some(_) => {
                    // The longest run of unescaped content, in one step.
                    let start = self.pos;
                    self.pos = run_end(b, start);
                    out.push(&self.src[start..self.pos]);
                }
            }
        }
    }

    fn object(
        &mut self,
        depth: usize,
        member: &mut dyn FnMut(Cow<'a, str>, Value<'a>),
    ) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?.text();
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value_at(depth)?;
            member(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value<'a>, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value_at(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }
}

/// Where the run of string content starting at byte `from` of `b` ends:
/// the index of the first `"` or `\` at or after it, or `b.len()`.
/// Eight bytes are looked at a time: a byte equal to the one searched for
/// is a zero byte of the word XORed with it, and `(x - 0x01…) & !x & 0x80…`
/// flags the lowest zero byte of `x` exactly (a borrow can flag bytes
/// above it, never below).
fn run_end(b: &[u8], from: usize) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let zero_byte = |x: u64| x.wrapping_sub(ONES) & !x & HIGHS;
    let mut at = from;
    for word in b[from..].chunks_exact(8) {
        let w = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
        let hits =
            zero_byte(w ^ (ONES * u64::from(b'"'))) | zero_byte(w ^ (ONES * u64::from(b'\\')));
        if hits != 0 {
            return at + (hits.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    at + b[at..]
        .iter()
        .position(|&c| c == b'"' || c == b'\\')
        .unwrap_or(b.len() - at)
}

/// The four hex digits of a `\\u` escape, starting at byte `at`.
fn hex4(b: &[u8], at: usize) -> Result<u32, String> {
    b.get(at..at + 4)
        .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
        .and_then(|h| std::str::from_utf8(h).ok())
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or_else(|| format!("bad \\u escape at byte {at}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let j = parse(r#"{"a": [1, 2.5, "x\n", true, null], "b": {"c": -3e2}}"#).unwrap();
        assert_eq!(j.get("a").unwrap().as_array().unwrap().len(), 5);
        assert_eq!(
            j.get("a").unwrap().as_array().unwrap()[2].as_str(),
            Some("x\n")
        );
        assert_eq!(j.get("b").unwrap().get("c").unwrap().as_num(), Some(-300.0));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1, ]").is_err());
        assert!(parse(r#"{"a": 1} extra"#).is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let nested =
                |levels: usize| format!("{}1{}", open.repeat(levels), close.repeat(levels));
            assert!(parse(&nested(MAX_DEPTH)).is_ok(), "{open} x {MAX_DEPTH}");
            let e = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
            assert!(e.contains("nesting deeper than 128"), "{open}: {e}");
        }
        // What used to overflow a 2 MiB thread stack: an error, with or
        // without the closing brackets.
        assert!(parse(&"[".repeat(10_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(10_000)).is_err());
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_are_rejected() {
        assert_eq!(
            parse("\"a\\ud83d\\ude00b\\u00e9\"").unwrap().as_str(),
            Some("a\u{1f600}b\u{e9}")
        );
        for lone in [
            "\"\\ud83d\"",
            "\"\\ud83dx\"",
            "\"\\ude00\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ud83d\\ud83d\"",
        ] {
            let e = parse(lone).unwrap_err();
            assert!(e.contains("lone surrogate"), "{lone}: {e}");
        }
        assert!(parse("\"\\u+123\"").is_err());
        assert!(parse("\"\\u12\"").is_err());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(doc, "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
        assert_eq!(parse(&doc).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn num_round_trips_f64() {
        for v in [0.0, 1.0, -2.5, 1e-9, 123456.789, 2.0f64.powi(60)] {
            let s = num(v);
            let back: f64 = parse(&s).unwrap().as_num().unwrap();
            assert_eq!(back, v, "{s}");
        }
        assert_eq!(num(f64::INFINITY), "0");
    }

    #[test]
    fn strings_borrow_unless_escaped_and_escaped_ones_are_sized_exactly() {
        let doc = "[\"plain\", \"tab\\there \u{e9}\\ud83d\\ude00\", \"\"]";
        let Value::Arr(items) = Scanner::new(doc).value().unwrap() else {
            panic!("an array")
        };
        let [Value::Str(plain), Value::Str(escaped), Value::Str(empty)] = &items[..] else {
            panic!("three strings: {items:?}")
        };
        assert!(matches!(plain.text(), Cow::Borrowed("plain")));
        assert!(matches!(empty.text(), Cow::Borrowed("")));
        // A literal keeps its spelling until it is decoded.
        assert_eq!(escaped.raw(), "tab\\there \u{e9}\\ud83d\\ude00");
        let Cow::Owned(escaped) = escaped.text() else {
            panic!("an escaped string is decoded")
        };
        assert_eq!(escaped, "tab\there \u{e9}\u{1f600}");
        assert_eq!(escaped.capacity(), escaped.len());
    }

    #[test]
    fn runs_end_at_the_first_quote_or_backslash_at_any_alignment() {
        for len in 0..40 {
            for at in 0..=len {
                for stop in [b'"', b'\\'] {
                    let mut b = vec![b'x'; len];
                    // Bytes one bit off either stop byte, and high bytes,
                    // must not be taken for it.
                    for (i, c) in b.iter_mut().enumerate() {
                        *c = [b'x', b'#', b'!', b']', 0xa2, 0xdc, 0][i % 7];
                    }
                    if at < len {
                        b[at] = stop;
                    }
                    for from in 0..=at {
                        assert_eq!(
                            run_end(&b, from),
                            at,
                            "len {len}, stop at {at}, from {from}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn members_stream_in_document_order_with_duplicates() {
        let mut seen = Vec::new();
        let rest = Scanner::new(r#" {"b": 1, "a": [true], "b": null} "#)
            .members(|k, v| seen.push((k.into_owned(), v)))
            .unwrap();
        assert_eq!(rest, None);
        assert_eq!(
            seen,
            [
                ("b".to_string(), Value::Num(1.0)),
                ("a".to_string(), Value::Arr(vec![Value::Bool(true)])),
                ("b".to_string(), Value::Null),
            ]
        );
        // The tree keeps the last duplicate, as insertion would.
        assert_eq!(
            parse(r#"{"b": 1, "b": 2}"#).unwrap().get("b"),
            Some(&Json::Num(2.0))
        );
        // A root that is not an object comes back whole.
        let root = Scanner::new("[1]")
            .members(|_, _| panic!("no members"))
            .unwrap();
        assert_eq!(root, Some(Value::Arr(vec![Value::Num(1.0)])));
    }
}
