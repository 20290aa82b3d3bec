//! Minimal dependency-free JSON support.
//!
//! The workspace vendors all external crates as offline stubs, so there is
//! no serde; the exporters hand-build their JSON strings with [`escape`] /
//! [`num`], and this module's [`parse`] provides a small recursive-descent
//! reader used by schema-validation tests and by
//! [`crate::chrome::validate`]. It accepts standard JSON (objects, arrays,
//! strings with escapes, numbers, booleans, null) — enough to round-trip
//! everything this crate emits.

use std::collections::BTreeMap;

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

/// Escape a string for embedding between JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format an `f64` as a JSON number. JSON has no Infinity/NaN, so
/// non-finite values are emitted as `null`-safe sentinels (`0`), which
/// callers should avoid producing in the first place.
pub fn num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        // Rust's Display prints the shortest decimal that round-trips the
        // f64 exactly, and never uses exponent notation — always valid
        // JSON, and compact for the common microsecond-scale values.
        format!("{v}")
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level and its input arrives from sockets, so without a bound a
/// frame of `[[[[…` overflows the stack — an abort no `catch_unwind`
/// contains. The serve protocol nests three deep.
pub const MAX_DEPTH: usize = 128;

/// Parse a JSON document.
pub fn parse(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

/// `depth` counts the arrays and objects enclosing this value.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = hex4(b, *pos + 1)?;
                        *pos += 4;
                        // Outside the BMP, JSON spells a character as a
                        // UTF-16 pair: a high surrogate, then a low one.
                        if (0xd800..0xdc00).contains(&code)
                            && b.get(*pos + 1..*pos + 3) == Some(b"\\u")
                        {
                            let low = hex4(b, *pos + 3)?;
                            if (0xdc00..0xe000).contains(&low) {
                                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                *pos += 6;
                            }
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("lone surrogate before byte {}", *pos))?,
                        );
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume the longest run of unescaped content in one
                // step: validating UTF-8 from `pos` to end-of-input per
                // character would make string parsing quadratic.
                let run_start = *pos;
                while *pos < b.len() && b[*pos] != b'"' && b[*pos] != b'\\' {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&b[run_start..*pos]).map_err(|_| "invalid UTF-8")?;
                out.push_str(run);
            }
        }
    }
}

/// The four hex digits of a `\\u` escape, starting at byte `at`.
fn hex4(b: &[u8], at: usize) -> Result<u32, String> {
    b.get(at..at + 4)
        .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
        .and_then(|h| std::str::from_utf8(h).ok())
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or_else(|| format!("bad \\u escape at byte {at}"))
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos, depth)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
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
            parse(r#""a\ud83d\ude00b\u00e9""#).unwrap().as_str(),
            Some("a\u{1f600}b\u{e9}")
        );
        for lone in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ude00""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\ud83d""#,
        ] {
            let e = parse(lone).unwrap_err();
            assert!(e.contains("lone surrogate"), "{lone}: {e}");
        }
        assert!(parse(r#""\u+123""#).is_err());
        assert!(parse(r#""\u12""#).is_err());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let doc = format!("\"{}\"", escape(nasty));
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
}
