//! Corpus IO and the feed back into `svgen`.
//!
//! Cases live under `fuzz/corpus/<family>/<oracle>-<fingerprint>.json` as
//! pretty-printed JSON with a trailing newline (byte-stable for git diffs).
//! [`repro_case`] is the contract every checked-in case must satisfy:
//! the recorded oracle outcome reproduces and the embedded journal
//! byte-verifies. [`mined_samples`] turns cases into [`RawSample`]s so the
//! fuzzer's findings become one more corpus family for the data pipeline.

use crate::finding::{case_fingerprint, CaseFile, Expectation, CASE_SCHEMA};
use crate::journal::verify_case_journal;
use crate::oracle::{drive_oracle, OracleOutcome};
use std::fs;
use std::path::{Path, PathBuf};
use svgen::{Family, RawSample};

/// The on-disk location of a case inside a corpus root.
pub(crate) fn case_path(root: &Path, case: &CaseFile) -> PathBuf {
    root.join(&case.family)
        .join(format!("{}-{}.json", case.oracle.tag(), case.fingerprint))
}

/// Writes a case (pretty JSON, trailing newline) and returns its path.
pub fn write_case(root: &Path, case: &CaseFile) -> std::io::Result<PathBuf> {
    let path = case_path(root, case);
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut text = serde_json::to_string_pretty(case).expect("case serializes");
    text.push('\n');
    fs::write(&path, text)?;
    Ok(path)
}

/// Loads one case file.
pub fn load_case(path: &Path) -> Result<CaseFile, String> {
    let text =
        fs::read_to_string(path).map_err(|err| format!("cannot read {}: {err}", path.display()))?;
    let case: CaseFile = serde_json::from_str(&text)
        .map_err(|err| format!("{} is not a corpus case: {err}", path.display()))?;
    if case.schema != CASE_SCHEMA {
        return Err(format!(
            "{}: unsupported schema {:?} (expected {CASE_SCHEMA:?})",
            path.display(),
            case.schema
        ));
    }
    Ok(case)
}

/// Loads every case under a corpus root, sorted by path for determinism.
pub fn load_corpus(root: &Path) -> Result<Vec<(PathBuf, CaseFile)>, String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let entries =
        fs::read_dir(root).map_err(|err| format!("cannot read {}: {err}", root.display()))?;
    for family_dir in entries.flatten() {
        if !family_dir.path().is_dir() {
            continue;
        }
        let files = fs::read_dir(family_dir.path())
            .map_err(|err| format!("cannot read {}: {err}", family_dir.path().display()))?;
        for file in files.flatten() {
            if file.path().extension().is_some_and(|e| e == "json") {
                paths.push(file.path());
            }
        }
    }
    paths.sort();
    paths
        .into_iter()
        .map(|path| load_case(&path).map(|case| (path, case)))
        .collect()
}

/// Re-drives a case: the oracle outcome must match the recorded expectation
/// (same failure class for open findings), the fingerprint must match the
/// stored input, and the embedded journal must byte-verify.
pub fn repro_case(case: &CaseFile) -> Result<(), String> {
    let recomputed = format!(
        "{:016x}",
        case_fingerprint(case.oracle, &case.source, case.expect)
    );
    if recomputed != case.fingerprint {
        return Err(format!(
            "fingerprint mismatch: stored {} recomputed {recomputed}",
            case.fingerprint
        ));
    }
    let outcome = drive_oracle(case.oracle, &case.source);
    match (case.expect, &outcome) {
        (Expectation::Fails, OracleOutcome::Fail { detail }) => {
            let class = format!(
                "{:016x}",
                crate::finding::class_fingerprint(case.oracle, detail)
            );
            if class != case.class {
                return Err(format!(
                    "failure class drifted: stored {} observed {class} ({detail})",
                    case.class
                ));
            }
        }
        (Expectation::Fails, OracleOutcome::Pass) => {
            return Err(
                "expected the oracle to fail but it passes (fixed? re-register with expect=pass)"
                    .to_string(),
            );
        }
        (Expectation::Passes, OracleOutcome::Fail { detail }) => {
            return Err(format!("regression: oracle fails again: {detail}"));
        }
        (Expectation::Passes, OracleOutcome::Pass) => {}
    }
    verify_case_journal(case)
}

/// Converts cases into corpus samples for the `svgen` stream: the mined corpus
/// family the data pipeline consumes via
/// [`svgen::CorpusGenerator::generate_with_mined`].
pub fn mined_samples(cases: &[CaseFile]) -> Vec<RawSample> {
    cases
        .iter()
        .map(|case| {
            let family = Family::all()
                .iter()
                .copied()
                .find(|f| f.tag() == case.family)
                .unwrap_or(Family::Counter);
            RawSample::mined(
                case.source.clone(),
                format!("fuzz-mined {} case {}", case.oracle.tag(), case.fingerprint),
                family,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::compose_case;
    use crate::oracle::OracleKind;
    use svgen::{instantiate, FamilyParams, SampleOrigin};

    fn sample_case() -> CaseFile {
        let base = instantiate(Family::Counter, FamilyParams::default(), 0).source;
        compose_case(
            OracleKind::ParserEnvelope,
            Family::Counter.tag(),
            &base,
            &base,
            "registered regression",
            Expectation::Passes,
            0,
            0,
        )
        .expect("counter case composes")
    }

    #[test]
    fn case_roundtrips_through_disk_and_repro() {
        let case = sample_case();
        let root = std::env::temp_dir().join(format!("svfuzz-test-{}", std::process::id()));
        let path = write_case(&root, &case).expect("case writes");
        let loaded = load_case(&path).expect("case loads");
        assert_eq!(case, loaded);
        let all = load_corpus(&root).expect("corpus loads");
        assert_eq!(all.len(), 1);
        repro_case(&loaded).expect("case repros");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn mined_samples_carry_the_mined_origin() {
        let case = sample_case();
        let samples = mined_samples(std::slice::from_ref(&case));
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].origin, SampleOrigin::Mined);
        assert_eq!(samples[0].family, Family::Counter);
        assert!(samples[0].function.contains(&case.fingerprint));
    }

    #[test]
    fn repro_rejects_tampered_cases() {
        let mut case = sample_case();
        case.source.push_str("\n// tampered");
        let err = repro_case(&case).expect_err("tampered source must be rejected");
        assert!(err.contains("fingerprint mismatch"), "{err}");
    }
}
