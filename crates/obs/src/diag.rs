//! Verbosity-gated diagnostics.
//!
//! Experiment drivers print machine-parseable tables on **stdout**;
//! progress notes and warnings belong on **stderr**, and must be
//! suppressible (`-q`) or expandable (`--verbose`) without touching every
//! call site. This module is that single switch: library code calls
//! [`info`] / [`debug`] / [`warn`], the binary sets the process-wide
//! [`Verbosity`] once from its flags.
//!
//! Errors that abort a command are not gated — print those directly.

use std::sync::atomic::{AtomicU8, Ordering};

/// How chatty stderr diagnostics are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verbosity {
    /// `-q`: warnings only.
    Quiet = 0,
    /// Default: progress notes and warnings.
    Normal = 1,
    /// `--verbose`: everything, including per-step debug detail.
    Verbose = 2,
}

static LEVEL: AtomicU8 = AtomicU8::new(Verbosity::Normal as u8);

/// Set the process-wide verbosity (called once by the binary).
pub fn set_verbosity(v: Verbosity) {
    LEVEL.store(v as u8, Ordering::Relaxed);
}

/// The current verbosity.
pub fn verbosity() -> Verbosity {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Verbosity::Quiet,
        1 => Verbosity::Normal,
        _ => Verbosity::Verbose,
    }
}

/// A warning: always printed — warnings indicate something actionable
/// regardless of verbosity.
pub fn warn(msg: &str) {
    eprintln!("warning: {msg}");
}

/// A progress note: printed at [`Verbosity::Normal`] and above.
pub fn info(msg: &str) {
    if verbosity() >= Verbosity::Normal {
        eprintln!("{msg}");
    }
}

/// Debug detail: printed only at [`Verbosity::Verbose`].
pub fn debug(msg: &str) {
    if verbosity() >= Verbosity::Verbose {
        eprintln!("[debug] {msg}");
    }
}

/// The message of a caught panic (`catch_unwind`'s or `join`'s `Err`):
/// `panic!` carries a `&str` or a `String`; anything else came from
/// `panic_any` and has no text to show.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_message_reads_both_string_payloads() {
        let caught = |f: fn()| panic_message(&*std::panic::catch_unwind(f).unwrap_err());
        let messages = [
            caught(|| panic!("literal")),
            caught(|| panic!("formatted {}", 7)),
            caught(|| std::panic::panic_any(7u8)),
        ];
        assert_eq!(
            messages,
            ["literal", "formatted 7", "non-string panic payload"]
        );
    }

    #[test]
    fn verbosity_round_trips() {
        let prev = verbosity();
        for v in [Verbosity::Quiet, Verbosity::Verbose, Verbosity::Normal] {
            set_verbosity(v);
            assert_eq!(verbosity(), v);
        }
        set_verbosity(prev);
    }

    #[test]
    fn ordering_matches_gating_semantics() {
        assert!(Verbosity::Quiet < Verbosity::Normal);
        assert!(Verbosity::Normal < Verbosity::Verbose);
    }
}
