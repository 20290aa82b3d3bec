//! The one reader under the repository's line-oriented text formats.
//!
//! Six formats are read line by line: `.dist` benchmark tables, fault
//! scenarios (a TOML subset), `// PEVPM` annotations, the fuzzer's program
//! text and counterexample artifact, and the regression corpus's `*.case`
//! files. This module owns what they share, so each parser only says what
//! its lines mean:
//!
//! - [`lines`] yields every line that is neither blank nor a `#` comment,
//!   trimmed and numbered from 1;
//! - the two field syntaxes: a [`Record`], `tag k=v k=v`, and a
//!   [`binding`], one `key = value` per line, where an `=` inside `==`,
//!   `!=`, `<=` or `>=` does not bind;
//! - typed field lookup ([`Record::parse`], [`Line::parse`]) whose errors
//!   name the key and the value;
//! - one error, [`LineError`], printed `line N: message`.
//!
//! Fields are `&str` slices of the source: reading copies nothing until a
//! parser builds its own values.

use std::fmt;
use std::str::FromStr;

/// A parse error with the 1-based line it blames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineError {
    /// 1-based line number in the document.
    pub line: usize,
    /// What is wrong with that line.
    pub message: String,
}

impl LineError {
    /// An error blaming line `line`.
    pub fn new(line: usize, message: impl Into<String>) -> Self {
        LineError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for LineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LineError {}

/// One line that is neither blank nor a `#` comment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line<'a> {
    /// 1-based line number in the document.
    pub no: usize,
    /// The line with surrounding whitespace trimmed.
    pub text: &'a str,
}

impl<'a> Line<'a> {
    /// An error blaming this line.
    pub fn err(&self, message: impl Into<String>) -> LineError {
        LineError::new(self.no, message)
    }

    /// The first word and the trimmed rest.
    pub fn tag(&self) -> (&'a str, &'a str) {
        match self.text.split_once(char::is_whitespace) {
            Some((tag, rest)) => (tag, rest.trim_start()),
            None => (self.text, ""),
        }
    }

    /// The line as a `tag k=v k=v` record; every word after the tag must
    /// hold an `=`.
    pub fn record(&self) -> Result<Record<'a>, LineError> {
        let (tag, rest) = self.tag();
        let fields = rest
            .split_whitespace()
            .map(|f| {
                f.split_once('=')
                    .ok_or_else(|| self.err(format!("expected key=value, got {f:?}")))
            })
            .collect::<Result<_, _>>()?;
        Ok(Record {
            line: *self,
            tag,
            fields,
        })
    }

    /// The line as one `key = value` [`binding`].
    pub fn binding(&self) -> Option<(&'a str, &'a str)> {
        binding(self.text)
    }

    /// `value`, given for `key` on this line, as a `T`.
    pub fn parse<T: FromStr>(&self, key: &str, value: &str) -> Result<T, LineError> {
        value.parse().map_err(|_| {
            let ty = std::any::type_name::<T>();
            self.err(format!("`{key}` = {value:?} is not a valid {ty}"))
        })
    }

    /// The line with a trailing `# …` comment cut off, as TOML reads it.
    pub fn before_comment(self) -> Line<'a> {
        match self.text.split_once('#') {
            Some((text, _)) => Line {
                text: text.trim_end(),
                ..self
            },
            None => self,
        }
    }
}

/// The lines of `text` that are neither blank nor `#` comments, in order.
pub fn lines(text: &str) -> Lines<'_> {
    Lines(text.lines().enumerate())
}

/// Iterator returned by [`lines`].
#[derive(Debug, Clone)]
pub struct Lines<'a>(std::iter::Enumerate<std::str::Lines<'a>>);

impl<'a> Iterator for Lines<'a> {
    type Item = Line<'a>;

    fn next(&mut self) -> Option<Line<'a>> {
        self.0.find_map(|(i, raw)| {
            let text = raw.trim();
            (!text.is_empty() && !text.starts_with('#')).then_some(Line { no: i + 1, text })
        })
    }
}

/// A `tag k=v k=v` line, read by [`Line::record`].
#[derive(Debug)]
pub struct Record<'a> {
    /// The line the record was read from.
    pub line: Line<'a>,
    /// The first word.
    pub tag: &'a str,
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> Record<'a> {
    /// The value of the first `key=…` field, if any.
    pub fn get(&self, key: &str) -> Option<&'a str> {
        self.fields
            .iter()
            .find_map(|&(k, v)| (k == key).then_some(v))
    }

    /// The value of `key`, which must be present.
    pub fn str(&self, key: &str) -> Result<&'a str, LineError> {
        self.get(key)
            .ok_or_else(|| self.line.err(format!("{} missing field {key:?}", self.tag)))
    }

    /// The value of `key`, which must be present, as a `T`.
    pub fn parse<T: FromStr>(&self, key: &str) -> Result<T, LineError> {
        self.line.parse(key, self.str(key)?)
    }
}

/// Split `key = value` at the first *binding* `=`, one that is not part of
/// `==`, `!=`, `<=` or `>=`; both halves are trimmed.
pub fn binding(s: &str) -> Option<(&str, &str)> {
    let b = s.as_bytes();
    (0..b.len()).find_map(|i| {
        let prev = if i > 0 { b[i - 1] } else { b' ' };
        let next = b.get(i + 1).copied().unwrap_or(b' ');
        let binds = b[i] == b'=' && !matches!(prev, b'=' | b'!' | b'<' | b'>') && next != b'=';
        binds.then(|| (s[..i].trim(), s[i + 1..].trim()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_skip_blanks_and_comments_and_keep_numbers() {
        let got: Vec<(usize, &str)> = lines("a\n\n  # note\n  b c  \r\n#x\nd")
            .map(|l| (l.no, l.text))
            .collect();
        assert_eq!(got, [(1, "a"), (4, "b c"), (6, "d")]);
        assert_eq!(lines("").count(), 0);
    }

    #[test]
    fn binding_skips_comparison_operators() {
        assert_eq!(
            binding("c1 = procnum%2 == 0"),
            Some(("c1", "procnum%2 == 0"))
        );
        assert_eq!(binding("iterations = 1000"), Some(("iterations", "1000")));
        assert_eq!(binding("no binding here"), None);
        assert_eq!(binding("x != 3"), None);
        assert_eq!(binding("a <= b"), None);
        assert_eq!(binding("="), Some(("", "")));
    }

    #[test]
    fn records_look_up_typed_fields_and_name_key_and_value() {
        let line = lines("\n pair src=0 bytes=8 bytes=9").next().unwrap();
        let rec = line.record().unwrap();
        assert_eq!(rec.tag, "pair");
        assert_eq!(rec.get("bytes"), Some("8"), "the first field wins");
        assert_eq!(rec.parse::<u64>("src"), Ok(0));
        let e = rec.str("mode").unwrap_err();
        assert_eq!(e.to_string(), "line 2: pair missing field \"mode\"");
        let e = line.parse::<u8>("src", "300").unwrap_err();
        assert_eq!(e.to_string(), "line 2: `src` = \"300\" is not a valid u8");
        let e = lines("counts 1 2").next().unwrap().record().unwrap_err();
        assert_eq!(e.message, "expected key=value, got \"1\"");
    }

    #[test]
    fn trailing_comments_are_cut_only_on_request() {
        let line = lines("to = 0.25   # seconds").next().unwrap();
        assert_eq!(line.binding(), Some(("to", "0.25   # seconds")));
        assert_eq!(line.before_comment().binding(), Some(("to", "0.25")));
        assert_eq!(line.before_comment().no, 1);
    }
}
