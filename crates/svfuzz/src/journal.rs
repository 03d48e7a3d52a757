//! Replayable journals for corpus cases.
//!
//! Every corpus case carries a session journal recorded by an
//! [`assertsolver::Evaluation`] with its journal on: a bug entry is derived
//! from the case's pristine `base_source` by the data pipeline's own Stage-2
//! step ([`svdata::ValidatedGolden`]: validate the golden, inject, check,
//! simulate, classify), evaluated under the quick protocol, and the rendered
//! journal is embedded in the artifact. `repro` re-derives the entry
//! from `(base_source, derive_seed)` alone and byte-compares the journals —
//! the same record/replay contract `svobs replay` enforces for full evaluations.

use assertsolver::{EvalConfig, Evaluation, JournalManifest};
use svdata::{Stage2Outcome, SvaBugEntry, ValidatedGolden};
use svgen::render_spec;
use svmodel::{AssertSolverModel, RepairModel};
use svmutate::BugInjector;
use svparse::parse_module;
use svserve::parse_journal;
use svverify::{CheckConfig, VerifyOracle};

use crate::finding::CaseFile;

/// Fixed evaluation seed for case journals (part of the artifact contract).
const JOURNAL_EVAL_SEED: u64 = 7;

/// Function description attached to derived specs.
const MINED_FUNCTION: &str = "fuzz-mined regression case";

/// The bounded-check protocol used while deriving entries (validation and
/// failure-triggering); small enough for CI, fixed so derivation is stable.
fn derivation_check_config() -> CheckConfig {
    CheckConfig {
        depth: 10,
        random_cases: 8,
        ..CheckConfig::default()
    }
}

/// Derives a journalable bug entry from a golden source with one injector
/// seed: validate the golden's SVAs, then run Stage 2's step
/// ([`ValidatedGolden::derive`]) over the seed's injected bugs and keep the
/// first assertion-failure case.
///
/// Returns `None` when this seed yields no assertion-visible bug (the caller
/// probes successive seeds via `find_derivation`).
pub fn derive_entry(base_source: &str, derive_seed: u64) -> Option<SvaBugEntry> {
    let golden = parse_module(base_source).ok()?;
    let oracle = VerifyOracle::new(derivation_check_config());
    let spec = render_spec(&golden, MINED_FUNCTION);
    let validated = ValidatedGolden::validate(&oracle, &golden, &golden.name, &spec)?;
    let mut injector = BugInjector::new(derive_seed);
    injector
        .inject_batch(&golden, 4)
        .iter()
        .find_map(|bug| match validated.derive(bug) {
            Stage2Outcome::Case(case) => Some(case.into_entry(None, false)),
            Stage2Outcome::VerilogBug(_) | Stage2Outcome::Discard => None,
        })
}

/// Probes injector seeds `1..=16` until one yields a journalable entry.
pub(crate) fn find_derivation(base_source: &str) -> Option<(u64, SvaBugEntry)> {
    (1..=16u64).find_map(|seed| derive_entry(base_source, seed).map(|entry| (seed, entry)))
}

/// Records the case journal: one-entry quick-protocol evaluation under the
/// base model, with the corpus tag naming the case.
pub fn render_case_journal(entry: &SvaBugEntry, corpus_tag: &str) -> String {
    let model = AssertSolverModel::base(JOURNAL_EVAL_SEED);
    let config = EvalConfig::quick(JOURNAL_EVAL_SEED);
    let entries = std::slice::from_ref(entry);
    let manifest = JournalManifest::for_protocol(
        &format!("base:{JOURNAL_EVAL_SEED}"),
        corpus_tag,
        &model.identity(),
        entries,
        &config,
    );
    let run = Evaluation::new(&model, entries, &config).journal(&manifest);
    run.run().journal.expect("the journal is on")
}

/// The corpus tag a case's journal manifest carries.
pub(crate) fn case_corpus_tag(family: &str, fingerprint: &str) -> String {
    format!("svfuzz:{family}:{fingerprint}")
}

/// Validates a case's embedded journal: parse (header/footer checksums), then
/// re-derive the entry from `(base_source, derive_seed)`, re-drive the
/// evaluation, and byte-compare — any divergence is reported with the first
/// differing line.
pub(crate) fn verify_case_journal(case: &CaseFile) -> Result<(), String> {
    if case.journal.is_empty() {
        return Err("case carries no journal".to_string());
    }
    parse_journal(&case.journal).map_err(|err| format!("embedded journal is malformed: {err}"))?;
    let entry = derive_entry(&case.base_source, case.derive_seed).ok_or_else(|| {
        format!(
            "cannot re-derive the bug entry from base_source with derive_seed {}",
            case.derive_seed
        )
    })?;
    let rendered = render_case_journal(&entry, &case_corpus_tag(&case.family, &case.fingerprint));
    if rendered != case.journal {
        let diverged = rendered
            .lines()
            .zip(case.journal.lines())
            .position(|(a, b)| a != b)
            .map(|idx| idx + 1)
            .unwrap_or_else(|| rendered.lines().count().min(case.journal.lines().count()) + 1);
        return Err(format!(
            "journal replay diverged (first difference on line {diverged})"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use svgen::{instantiate, Family, FamilyParams};

    #[test]
    fn derivation_and_journal_are_deterministic() {
        let base = instantiate(Family::Counter, FamilyParams::default(), 0).source;
        let (seed, entry) = find_derivation(&base).expect("counter derives an entry");
        let again = derive_entry(&base, seed).expect("derivation repeats");
        assert_eq!(entry, again);
        let a = render_case_journal(&entry, "svfuzz:counter:test");
        let b = render_case_journal(&entry, "svfuzz:counter:test");
        assert_eq!(a, b, "journal must be byte-deterministic");
        assert!(parse_journal(&a).is_ok());
    }

    #[test]
    fn derivation_fails_cleanly_on_malformed_base() {
        assert!(derive_entry("module m(", 1).is_none());
    }
}
