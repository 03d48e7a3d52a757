//! Every `ASSERTSOLVER_*` environment knob the workspace reads, with its
//! parser, in one place.  CI fails when an `"ASSERTSOLVER_…"` literal appears
//! in any other source file: callers name these constants instead.
//!
//! Each knob is a named constant; all but [`SCALE_ENV`] (parsed by the
//! experiment harness) have an `env_*` reader here, and the readers share
//! three policies so no two knobs of one shape disagree on what a value means:
//!
//! * **directories** ([`path_knob`]) — trimmed; blank means unset;
//! * **the switch** ([`env_trace`]) — `1`/`on`/`true`/`yes` enable,
//!   `0`/`off`/`false`/`no` or unset disable, anything else disables with a
//!   one-line warning;
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

/// Environment variable naming the directory `assertsolver::evaluate_model`
/// writes session journals to; unset (the default) disables journaling.
pub const JOURNAL_DIR_ENV: &str = "ASSERTSOLVER_JOURNAL_DIR";

/// Environment variable naming the directory evaluations write their
/// collapsed-stack profiles and trace forests to; unset (the default)
/// disables both writes.
pub const PROFILE_DIR_ENV: &str = "ASSERTSOLVER_PROFILE_DIR";

/// Environment variable overriding the default number of threads that drive
/// an evaluation's cases (`assertsolver::EvalConfig::drivers`; unset, the
/// host's available parallelism); CI runs the driver-determinism suite and
/// the paper-table goldens at 1 and 4.
pub const DRIVERS_ENV: &str = "ASSERTSOLVER_DRIVERS";

/// Environment variable overriding the default verdict-cache shard count
/// (`VerifyConfig::default()`).  It sizes cache shards, not threads: every
/// verdict is judged on the thread that submits it.  CI runs the `svserve`
/// suite at 1 and 4 shards.
pub const VERIFY_WORKERS_ENV: &str = "ASSERTSOLVER_VERIFY_WORKERS";

/// Environment knob enabling tracing in `assertsolver::EvalConfig`-driven
/// runs: `1`/`on`/`true`/`yes` enable, `0`/`off`/`false`/unset disable.
pub const TRACE_ENV: &str = "ASSERTSOLVER_TRACE";

/// Environment variable listing shard socket paths (comma-separated); when
/// set, `assertsolver::evaluate_model` runs against the remote fleet instead
/// of an in-process service.
pub const SHARD_SOCKETS_ENV: &str = "ASSERTSOLVER_SHARD_SOCKETS";

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

/// Reads the profile-directory override from the environment, if set and
/// non-empty.
pub fn env_profile_dir() -> Option<PathBuf> {
    env_path(PROFILE_DIR_ENV)
}

/// Reads [`TRACE_ENV`], warning (once per call) on unrecognized values
/// instead of silently ignoring them.
pub fn env_trace() -> bool {
    let Ok(raw) = std::env::var(TRACE_ENV) else {
        return false;
    };
    let value = raw.trim();
    let is = |set: [&str; 4]| set.iter().any(|v| value.eq_ignore_ascii_case(v));
    if value.is_empty() || is(["0", "off", "false", "no"]) {
        return false;
    }
    if is(["1", "on", "true", "yes"]) {
        return true;
    }
    eprintln!("warning: {TRACE_ENV}={value:?} is not on/off; tracing stays off");
    false
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

/// Reads the verdict-cache shard-count override from the environment, if set
/// and valid.
///
/// Same policy as [`env_drivers`]: zero or garbage falls back to the default
/// with a one-line warning, and huge values clamp instead of building an
/// unbounded number of cache shards.
pub fn env_verify_workers() -> Option<usize> {
    let raw = std::env::var(VERIFY_WORKERS_ENV).ok()?;
    resolve_thread_knob(VERIFY_WORKERS_ENV, &raw)
}

/// Reads the shard socket list from the environment, if set and non-empty.
pub fn env_shard_sockets() -> Option<Vec<String>> {
    let raw = std::env::var(SHARD_SOCKETS_ENV).ok()?;
    let sockets: Vec<String> = raw
        .split(',')
        .map(str::trim)
        .filter(|socket| !socket.is_empty())
        .map(str::to_string)
        .collect();
    (!sockets.is_empty()).then_some(sockets)
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
