//! Every `ASSERTSOLVER_*` environment knob the workspace reads, with its
//! parser, in one place.  CI fails when an `"ASSERTSOLVER_…"` literal appears
//! in any other source file: callers name these constants instead.
//!
//! Each knob is a named constant; all but [`SCALE_ENV`] (parsed by the
//! experiment harness) have an `env_*` reader here, and the readers share
//! two policies so no two knobs of one shape disagree on what a value means:
//!
//! * **directories** ([`path_knob`]) — trimmed; blank means unset;
//! * **thread counts** — zero or garbage falls back to the default with a
//!   warning, and huge values clamp to 512 instead of wedging the process in
//!   thread spawns.
//!
//! Every reader is re-exported from the crate root, so callers name
//! `svserve::env_cache_dir` rather than this module.

use std::path::PathBuf;

/// Environment variable selecting the experiment scale
/// (`assertsolver_bench::Scale`): `quick` (the default) or `full`.
pub const SCALE_ENV: &str = "ASSERTSOLVER_SCALE";

/// Environment variable naming the cache directory `assertsolver::EvalConfig`
/// persists to; when set, `evaluate_model` runs warm across process invocations.
pub const CACHE_DIR_ENV: &str = "ASSERTSOLVER_CACHE_DIR";

/// Environment variable naming the directory every `assertsolver::Evaluation`
/// writes its session journal to; unset (the default) writes none.
pub const JOURNAL_DIR_ENV: &str = "ASSERTSOLVER_JOURNAL_DIR";

/// Environment variable overriding the default number of threads that drive
/// an evaluation's cases (`assertsolver::EvalConfig::drivers`; unset, the
/// host's available parallelism); CI runs the driver-determinism suite and
/// the paper-table goldens at 1 and 4.
pub const DRIVERS_ENV: &str = "ASSERTSOLVER_DRIVERS";

/// Hard ceiling on thread counts accepted from the environment.  A typo like
/// a driver count of 40000 would otherwise spawn forty thousand OS threads
/// and wedge the process before the first task runs.
pub(crate) const MAX_ENV_THREADS: usize = 512;

/// A directory knob's value as a path: trimmed, with a blank value meaning
/// unset.  The policy every directory knob shares, whether its raw value came
/// from the environment or from a config field.
pub fn path_knob(raw: &str) -> Option<PathBuf> {
    let raw = raw.trim();
    (!raw.is_empty()).then(|| PathBuf::from(raw))
}

fn env_path(name: &str) -> Option<PathBuf> {
    path_knob(&std::env::var(name).ok()?)
}

/// Reads the cache-directory override from the environment, if set and non-empty.
pub fn env_cache_dir() -> Option<PathBuf> {
    env_path(CACHE_DIR_ENV)
}

/// Reads the journal-directory override from the environment, if set and
/// non-empty.
pub fn env_journal_dir() -> Option<PathBuf> {
    env_path(JOURNAL_DIR_ENV)
}

/// Outcome of parsing a thread-count knob from the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KnobParse {
    /// A usable positive count.
    Ok(usize),
    /// Larger than [`MAX_ENV_THREADS`]; carries the clamped value.
    Clamped(usize),
    /// Zero, negative, or not a number at all.
    Invalid,
}

/// Parses a raw thread-count knob value: `0`, garbage, or an empty string are
/// [`KnobParse::Invalid`] (fall back to the default), and anything above
/// [`MAX_ENV_THREADS`] clamps.  Pure so every knob's policy is testable
/// without touching process-global environment state.
pub(crate) fn parse_thread_knob(raw: &str) -> KnobParse {
    match raw.trim().parse::<usize>() {
        Ok(0) | Err(_) => KnobParse::Invalid,
        Ok(n) if n > MAX_ENV_THREADS => KnobParse::Clamped(MAX_ENV_THREADS),
        Ok(n) => KnobParse::Ok(n),
    }
}

/// Applies [`parse_thread_knob`] to one named knob, warning once on stderr
/// when the value is clamped or discarded.
pub(crate) fn resolve_thread_knob(name: &str, raw: &str) -> Option<usize> {
    match parse_thread_knob(raw) {
        KnobParse::Ok(n) => Some(n),
        KnobParse::Clamped(n) => {
            eprintln!("warning: {name}={raw:?} exceeds {MAX_ENV_THREADS} threads; clamped to {n}");
            Some(n)
        }
        KnobParse::Invalid => {
            eprintln!("warning: {name}={raw:?} is not a positive thread count; using the default");
            None
        }
    }
}

/// Reads the driver-count override from the environment, if set and valid.
///
/// Zero or unparsable values fall back to the default with a one-line warning
/// instead of silently vanishing, and absurdly large values clamp to the
/// 512-thread ceiling instead of wedging the process in thread spawns.
pub fn env_drivers() -> Option<usize> {
    let raw = std::env::var(DRIVERS_ENV).ok()?;
    resolve_thread_knob(DRIVERS_ENV, &raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_override_parses_only_positive_integers() {
        assert_eq!(parse_thread_knob(" 4 "), KnobParse::Ok(4));
        assert_eq!(parse_thread_knob("0"), KnobParse::Invalid);
        assert_eq!(parse_thread_knob("lots"), KnobParse::Invalid);
        assert_eq!(parse_thread_knob(""), KnobParse::Invalid);
        assert_eq!(parse_thread_knob("-3"), KnobParse::Invalid);
    }

    #[test]
    fn env_override_clamps_huge_thread_counts() {
        // Regression: a driver count of 40000 used to be taken at face
        // value and spawn forty thousand driver threads.
        assert_eq!(
            parse_thread_knob("40000"),
            KnobParse::Clamped(MAX_ENV_THREADS)
        );
        assert_eq!(
            parse_thread_knob(&usize::MAX.to_string()),
            KnobParse::Clamped(MAX_ENV_THREADS)
        );
        assert_eq!(
            parse_thread_knob(&MAX_ENV_THREADS.to_string()),
            KnobParse::Ok(MAX_ENV_THREADS)
        );
        // The resolver surfaces clamped/invalid values as warnings but still
        // returns a usable count (or the default sentinel `None`).
        assert_eq!(
            resolve_thread_knob("TEST_KNOB", "40000"),
            Some(MAX_ENV_THREADS)
        );
        assert_eq!(resolve_thread_knob("TEST_KNOB", "0"), None);
        assert_eq!(resolve_thread_knob("TEST_KNOB", "garbage"), None);
        assert_eq!(resolve_thread_knob("TEST_KNOB", "8"), Some(8));
    }
}
