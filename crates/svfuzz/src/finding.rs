//! Mined findings and the self-describing corpus case format.
//!
//! Two fingerprints with different jobs:
//!
//! * the **class** fingerprint deduplicates findings *during a run*: FNV-1a/64
//!   over the oracle tag and the failure detail with digits blanked, so "span
//!   out of range: line 7 of 5" and "... line 9 of 6" collapse into one class;
//! * the **case** fingerprint identifies a *corpus artifact*: FNV-1a/64 over
//!   the oracle tag, the (shrunk) source and the expectation — it names the
//!   file on disk and pins `repro` to the exact input.

use crate::oracle::OracleKind;
use serde::{Deserialize, Serialize};
use svserve::persist::fnv64;

/// Schema tag of the corpus case format.
pub(crate) const CASE_SCHEMA: &str = "svfuzz-case-v1";

/// What `repro` must observe when re-driving a case's oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Expectation {
    /// The oracle still fails on this input (an open finding).
    Fails,
    /// The oracle passes: the underlying defect is fixed and the case guards
    /// against regression.
    Passes,
}

impl Expectation {
    /// Stable tag used in fingerprints and the CLI.
    pub fn tag(&self) -> &'static str {
        match self {
            Expectation::Fails => "fail",
            Expectation::Passes => "pass",
        }
    }

    /// Parses a tag back into the expectation.
    pub fn from_tag(tag: &str) -> Option<Expectation> {
        match tag {
            "fail" => Some(Expectation::Fails),
            "pass" => Some(Expectation::Passes),
            _ => None,
        }
    }
}

/// One self-describing corpus case, stored as pretty JSON under
/// `fuzz/corpus/<family>/<oracle>-<fingerprint>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseFile {
    /// Format tag (`CASE_SCHEMA`).
    pub schema: String,
    /// The oracle that caught (or now guards) this input.
    pub oracle: OracleKind,
    /// Tag of the design family the input derives from.
    pub family: String,
    /// What `repro` must observe.
    pub expect: Expectation,
    /// Failure-class fingerprint (deduplication key), hex.
    pub class: String,
    /// Case fingerprint (artifact identity), hex.
    pub fingerprint: String,
    /// Run seed that mined the case (0 for externally registered ones).
    pub seed: u64,
    /// Iteration within the run that produced the input.
    pub(crate) iteration: u64,
    /// Human-readable description of the original failure.
    pub detail: String,
    /// The (shrunk) input driven at the oracle.
    pub source: String,
    /// Pristine golden source the replayable journal derives from.
    pub base_source: String,
    /// Injector seed that turned `base_source` into a journalable bug entry.
    pub derive_seed: u64,
    /// Rendered session journal; `repro` re-derives it and byte-compares.
    pub journal: String,
}

/// Failure-class fingerprint: oracle tag plus the detail with digits blanked.
pub fn class_fingerprint(oracle: OracleKind, detail: &str) -> u64 {
    let mut bytes: Vec<u8> = oracle.tag().as_bytes().to_vec();
    bytes.push(0);
    bytes.extend(
        detail
            .bytes()
            .map(|b| if b.is_ascii_digit() { b'#' } else { b }),
    );
    fnv64(&bytes)
}

/// Case fingerprint: oracle tag, source bytes and expectation.
pub(crate) fn case_fingerprint(oracle: OracleKind, source: &str, expect: Expectation) -> u64 {
    let mut bytes: Vec<u8> = oracle.tag().as_bytes().to_vec();
    bytes.push(0);
    bytes.extend_from_slice(source.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(expect.tag().as_bytes());
    fnv64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_fingerprint_blanks_digits() {
        let a = class_fingerprint(OracleKind::ParserEnvelope, "span out of range: line 7 of 5");
        let b = class_fingerprint(OracleKind::ParserEnvelope, "span out of range: line 9 of 6");
        assert_eq!(a, b);
        let c = class_fingerprint(OracleKind::Roundtrip, "span out of range: line 7 of 5");
        assert_ne!(a, c, "oracle kind must separate classes");
    }

    #[test]
    fn case_fingerprint_separates_inputs_and_expectations() {
        let a = case_fingerprint(OracleKind::Roundtrip, "module m;", Expectation::Fails);
        let b = case_fingerprint(OracleKind::Roundtrip, "module n;", Expectation::Fails);
        let c = case_fingerprint(OracleKind::Roundtrip, "module m;", Expectation::Passes);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn expectation_tags_roundtrip() {
        for expect in [Expectation::Fails, Expectation::Passes] {
            assert_eq!(Expectation::from_tag(expect.tag()), Some(expect));
        }
        assert_eq!(Expectation::from_tag("maybe"), None);
    }

    #[test]
    fn case_file_serializes_roundtrip() {
        let case = CaseFile {
            schema: CASE_SCHEMA.to_string(),
            oracle: OracleKind::BmcPermutation,
            family: "counter".to_string(),
            expect: Expectation::Passes,
            class: format!("{:016x}", 7u64),
            fingerprint: format!("{:016x}", 9u64),
            seed: 1,
            iteration: 2,
            detail: "d".to_string(),
            source: "s".to_string(),
            base_source: "b".to_string(),
            derive_seed: 3,
            journal: "j".to_string(),
        };
        let text = serde_json::to_string(&case).unwrap();
        let back: CaseFile = serde_json::from_str(&text).unwrap();
        assert_eq!(case, back);
    }
}
