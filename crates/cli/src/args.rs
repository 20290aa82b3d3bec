//! Tiny dependency-free command-line argument parsing.
//!
//! Supports `--flag value` options (repeatable), `--flag=value`, and bare
//! positional arguments. Only what the `pevpm` binary needs.

use std::collections::HashMap;

/// Parsed arguments: options (last value wins unless read with
/// [`Args::values`]) and positionals, in order.
#[derive(Debug, Clone, Default)]
pub struct Args {
    opts: HashMap<String, Vec<String>>,
    positional: Vec<String>,
}

/// Argument-parsing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse a raw token list (without the program name). Options in
    /// `bool_flags` never consume a following token (they are recorded as
    /// `"true"`); all other `--key` options take the next token (or an
    /// inline `=value`) as their value.
    pub fn parse_with_flags<I: IntoIterator<Item = String>>(
        tokens: I,
        bool_flags: &[&str],
    ) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut iter = tokens.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(rest) = tok.strip_prefix("--") {
                if rest.is_empty() {
                    return Err(ArgError("bare '--' is not supported".into()));
                }
                let (key, inline) = match rest.split_once('=') {
                    Some((k, v)) => (k.to_string(), Some(v.to_string())),
                    None => (rest.to_string(), None),
                };
                let value = match inline {
                    Some(v) => v,
                    None if bool_flags.contains(&key.as_str()) => "true".to_string(),
                    None => match iter.next_if(|next| !next.starts_with("--")) {
                        Some(next) => next,
                        // A trailing option with no value acts as a flag.
                        None => "true".to_string(),
                    },
                };
                args.opts.entry(key).or_default().push(value);
            } else {
                args.positional.push(tok);
            }
        }
        Ok(args)
    }

    /// [`Args::parse_with_flags`] with no declared boolean flags.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Args, ArgError> {
        Self::parse_with_flags(tokens, &[])
    }

    /// The positional arguments in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Last value of an option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.opts
            .get(key)
            .and_then(|v| v.last())
            .map(|s| s.as_str())
    }

    /// All values of a repeatable option.
    pub fn values(&self, key: &str) -> &[String] {
        self.opts.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Whether a flag is present.
    pub fn has(&self, key: &str) -> bool {
        self.opts.contains_key(key)
    }

    /// Required option.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key)
            .ok_or_else(|| ArgError(format!("missing required option --{key}")))
    }

    /// The name of every option given, in no particular order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.opts.keys().map(String::as_str)
    }

    /// Typed optional option: `None` when absent.
    pub fn get_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, ArgError> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| ArgError(format!("invalid value for --{key}: {v:?}")))
            })
            .transpose()
    }

    /// Typed option with default.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        Ok(self.get_opt(key)?.unwrap_or(default))
    }

    /// Comma-separated list option, e.g. `--sizes 512,1024`.
    pub fn get_list<T: std::str::FromStr>(
        &self,
        key: &str,
        default: Vec<T>,
    ) -> Result<Vec<T>, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .map_err(|_| ArgError(format!("invalid element in --{key}: {s:?}")))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn options_and_positionals() {
        let a = parse("bench --nodes 8 --ppn 2 file.c");
        assert_eq!(a.positional(), &["bench".to_string(), "file.c".to_string()]);
        assert_eq!(a.get("nodes"), Some("8"));
        assert_eq!(a.get("ppn"), Some("2"));
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn equals_syntax_and_flags() {
        let a = Args::parse_with_flags(
            "--out=db.dist --verbose run"
                .split_whitespace()
                .map(String::from),
            &["verbose"],
        )
        .unwrap();
        assert_eq!(a.get("out"), Some("db.dist"));
        assert_eq!(a.get("verbose"), Some("true"));
        assert!(a.has("verbose"));
        assert_eq!(a.positional(), &["run".to_string()]);
        // Without the declaration, the next token is consumed as a value.
        let b = parse("--verbose run");
        assert_eq!(b.get("verbose"), Some("run"));
    }

    #[test]
    fn repeatable_options() {
        let a = parse("--param a=1 --param b=2");
        assert_eq!(a.values("param"), &["a=1".to_string(), "b=2".to_string()]);
        assert_eq!(a.get("param"), Some("b=2"), "get returns the last");
    }

    #[test]
    fn typed_and_list_access() {
        let a = parse("--reps 50 --sizes 512,1024,2048");
        assert_eq!(a.get_parsed("reps", 0usize).unwrap(), 50);
        assert_eq!(a.get_parsed("seed", 7u64).unwrap(), 7);
        assert_eq!(
            a.get_list::<u64>("sizes", vec![]).unwrap(),
            vec![512, 1024, 2048]
        );
        assert!(a.get_parsed::<usize>("sizes", 0).is_err());
        assert_eq!(a.get_opt::<usize>("reps").unwrap(), Some(50));
        assert_eq!(a.get_opt::<u64>("seed").unwrap(), None);
        let e = a.get_opt::<usize>("sizes").unwrap_err();
        assert!(e.0.contains("--sizes"), "{e}");
    }

    #[test]
    fn require_reports_missing() {
        let a = parse("bench");
        assert!(a.require("db").is_err());
        assert!(parse("--db x").require("db").is_ok());
    }
}
