//! The grammar for a parsed `WISE_*` environment knob. One knob uses
//! it: `WISE_THREADS` (`wise_kernels::sched`). The other knobs are a
//! switch (`WISE_TRACE`) or paths and names taken as given
//! (`WISE_FLIGHT_DIR`, `WISE_SNAPSHOT`, `WISE_RESULTS_DIR`, …). The
//! contract:
//!
//! * unset → `Ok(None)` (the caller applies its default);
//! * the value is trimmed; empty (or whitespace-only) after the trim is
//!   an explicit error, never a silent default;
//! * word alternatives are matched case-insensitively (the knob's
//!   interpreter sees the lowercased form, the error message carries
//!   the original spelling);
//! * a malformed value falls back to the default *loudly*: one
//!   once-per-process stderr warning per knob plus a named trace
//!   counter — a typo in a benchmark script must never silently change
//!   what was measured.
//!
//! The domain module keeps its typed `parse_wise_*` entry point; only
//! the grammar and the warn-once plumbing live here.

use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock};

/// Why a knob value was rejected by [`Knob::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KnobError {
    /// Set but empty (or only whitespace).
    Empty {
        /// The environment variable's name.
        knob: &'static str,
    },
    /// Set to something the knob's interpreter does not recognize.
    Invalid {
        /// The environment variable's name.
        knob: &'static str,
        /// The rejected value (trimmed, original case).
        value: String,
        /// Human-readable description of the accepted grammar.
        expected: &'static str,
    },
}

impl std::fmt::Display for KnobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KnobError::Empty { knob } => write!(f, "{knob} is set but empty"),
            KnobError::Invalid { knob, value, expected } => {
                write!(f, "{knob}={value:?} is not {expected}")
            }
        }
    }
}

/// One environment knob: its variable name plus the grammar description
/// used in error messages. Construct as a `const` next to the domain
/// parse function.
pub struct Knob {
    pub name: &'static str,
    /// Completes the sentence `WISE_X="v" is not <expected>`.
    pub expected: &'static str,
}

impl Knob {
    pub const fn new(name: &'static str, expected: &'static str) -> Knob {
        Knob { name, expected }
    }

    /// Applies the shared grammar to a raw value: unset → `Ok(None)`,
    /// trim, empty → [`KnobError::Empty`], otherwise the lowercased
    /// form goes to `interp`, whose `None` becomes
    /// [`KnobError::Invalid`].
    pub fn parse<T>(
        &self,
        raw: Option<&str>,
        interp: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, KnobError> {
        let Some(raw) = raw else { return Ok(None) };
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            return Err(KnobError::Empty { knob: self.name });
        }
        match interp(&trimmed.to_ascii_lowercase()) {
            Some(v) => Ok(Some(v)),
            None => Err(KnobError::Invalid {
                knob: self.name,
                value: trimmed.to_string(),
                expected: self.expected,
            }),
        }
    }

    /// Reads the knob from the process environment. A malformed value
    /// returns `None` (the caller's default applies) after reporting
    /// once per process per knob: a stderr warning naming the fallback
    /// plus one bump of `invalid_counter`.
    pub fn read<T>(
        &self,
        invalid_counter: &'static str,
        fallback_note: &str,
        interp: impl FnOnce(&str) -> Option<T>,
    ) -> Option<T> {
        static WARNED: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
        let err = match self.parse(std::env::var(self.name).ok().as_deref(), interp) {
            Ok(v) => return v,
            Err(err) => err,
        };
        let warned = WARNED.get_or_init(|| Mutex::new(BTreeSet::new()));
        if warned.lock().map(|mut set| set.insert(self.name)).unwrap_or(false) {
            eprintln!("[wise] ignoring {err}; {fallback_note}");
            crate::counter(invalid_counter, 1);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORD: Knob = Knob::new("WISE_UNIT_WORD", "a unit mode (expected a or b)");
    const INT: Knob = Knob::new("WISE_UNIT_INT", "a non-negative integer");

    fn word(norm: &str) -> Option<u8> {
        match norm {
            "a" => Some(0),
            "b" => Some(1),
            _ => None,
        }
    }

    #[test]
    fn unset_is_none() {
        assert_eq!(WORD.parse(None, word), Ok(None));
    }

    #[test]
    fn empty_and_whitespace_are_explicit_errors() {
        for raw in ["", "   ", "\t"] {
            assert_eq!(
                WORD.parse(Some(raw), word),
                Err(KnobError::Empty { knob: "WISE_UNIT_WORD" }),
                "{raw:?}"
            );
        }
        assert!(WORD.parse(Some(""), word).unwrap_err().to_string().contains("empty"));
    }

    #[test]
    fn words_match_case_insensitively_after_trim() {
        for raw in ["a", "A", " a ", "\tA\n"] {
            assert_eq!(WORD.parse(Some(raw), word), Ok(Some(0)), "{raw:?}");
        }
        assert_eq!(WORD.parse(Some("B"), word), Ok(Some(1)));
    }

    #[test]
    fn invalid_keeps_original_spelling_and_names_the_grammar() {
        let err = WORD.parse(Some(" Bogus "), word).unwrap_err();
        assert_eq!(
            err,
            KnobError::Invalid {
                knob: "WISE_UNIT_WORD",
                value: "Bogus".to_string(),
                expected: "a unit mode (expected a or b)",
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("WISE_UNIT_WORD"), "{msg}");
        assert!(msg.contains("Bogus"), "{msg}");
        assert!(msg.contains("expected a or b"), "{msg}");
    }

    #[test]
    fn integer_interpreters_compose_with_the_grammar() {
        let int = |norm: &str| norm.parse::<u32>().ok();
        assert_eq!(INT.parse(Some(" 42 "), int), Ok(Some(42)));
        assert_eq!(INT.parse(Some("0"), int), Ok(Some(0)));
        let err = INT.parse(Some("-3"), int).unwrap_err();
        assert!(err.to_string().contains("non-negative integer"), "{err}");
    }
}
