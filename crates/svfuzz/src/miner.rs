//! The fuzzing loop: generate → oracle sweep → dedupe → shrink → compose.
//!
//! A run is a pure function of its [`FuzzConfig`]: the finding log, the
//! statistics and every composed corpus case are byte-identical across
//! machines, reruns and driver-thread settings. The loop itself is
//! single-threaded; the only concurrency in the system lives below
//! `evaluate_model_journaled`, whose journal bytes are already proven
//! driver-count-invariant.

use crate::finding::{case_fingerprint, class_fingerprint, CaseFile, Expectation, CASE_SCHEMA};
use crate::generate::{generate_input, iteration_rng, FuzzInput};
use crate::journal::{case_corpus_tag, find_derivation, render_case_journal};
use crate::oracle::{drive_oracle, line_edit, sim_differential, OracleKind, OracleOutcome};
use crate::shrink::ddmin_lines;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Configuration of a fuzzing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Run seed; with `iters` it fully determines the run.
    pub seed: u64,
    /// Number of inputs to generate and drive.
    pub iters: u64,
    /// Drive the mutation-closure oracle every Nth iteration (cost control).
    pub(crate) mutate_every: u64,
    /// Drive the BMC-permutation oracle every Nth iteration (cost control).
    pub(crate) bmc_every: u64,
    /// Predicate-evaluation budget per shrink.
    pub(crate) shrink_budget: usize,
}

impl FuzzConfig {
    /// The default cadence for a `(seed, iters)` pair.
    pub fn new(seed: u64, iters: u64) -> Self {
        Self {
            seed,
            iters,
            mutate_every: 4,
            bmc_every: 8,
            shrink_budget: 256,
        }
    }
}

/// Aggregate counters of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuzzStats {
    /// Inputs generated.
    pub inputs: u64,
    /// Inputs that parsed.
    pub parsed: u64,
    /// Oracle failures observed (before deduplication).
    pub findings: u64,
    /// Unique failure classes.
    pub unique: u64,
    /// Line edits the `line-edit` oracle answered as a one-item delta.
    pub(crate) line_deltas: u64,
    /// Design × stimulus pairs the `sim-diff` oracle traced through both engines.
    pub(crate) sim_pairs: u64,
}

/// Everything a run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzReport {
    /// The deterministic finding log (stdout of `svfuzz run`).
    pub log: String,
    /// Composed corpus cases, one per unique failure class that could be
    /// journaled.
    pub cases: Vec<CaseFile>,
    /// Aggregate counters.
    pub stats: FuzzStats,
}

/// Runs the fuzzing loop.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzReport {
    let mut log = String::new();
    let mut cases = Vec::new();
    let mut stats = FuzzStats::default();
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let _ = writeln!(
        log,
        "svfuzz: run seed={} iters={}",
        config.seed, config.iters
    );

    for iteration in 0..config.iters {
        let mut rng = iteration_rng(config.seed, iteration);
        let input = generate_input(&mut rng, iteration);
        stats.inputs += 1;
        let parses = svparse::parse(&input.source).is_ok();
        if parses {
            stats.parsed += 1;
        }
        for kind in oracles_for(config, iteration, parses) {
            let outcome = match kind {
                OracleKind::SimDifferential => {
                    let (outcome, pairs) = sim_differential(&input.source);
                    stats.sim_pairs += pairs;
                    outcome
                }
                OracleKind::LineEdit => {
                    let (outcome, answered) = line_edit(&input.source);
                    stats.line_deltas += answered;
                    outcome
                }
                _ => drive_oracle(kind, &input.source),
            };
            let OracleOutcome::Fail { detail } = outcome else {
                continue;
            };
            stats.findings += 1;
            let class = class_fingerprint(kind, &detail);
            if !seen.insert(class) {
                continue;
            }
            stats.unique += 1;
            let _ = writeln!(
                log,
                "finding class={class:016x} oracle={kind} family={} iter={iteration} detail={detail}",
                input.family.tag()
            );
            match mine_case(config, &input, kind, class, &detail, iteration) {
                Ok(case) => {
                    let _ = writeln!(
                        log,
                        "case oracle={kind} family={} fingerprint={} lines={}",
                        case.family,
                        case.fingerprint,
                        case.source.lines().count()
                    );
                    cases.push(case);
                }
                Err(reason) => {
                    let _ = writeln!(log, "uncased class={class:016x} reason={reason}");
                }
            }
        }
    }

    let _ = writeln!(
        log,
        "svfuzz: inputs={} parsed={} findings={} unique={} cases={} line_deltas={} sim_pairs={}",
        stats.inputs,
        stats.parsed,
        stats.findings,
        stats.unique,
        cases.len(),
        stats.line_deltas,
        stats.sim_pairs
    );
    FuzzReport { log, cases, stats }
}

/// The oracle cadence for one iteration. The envelope always runs; the
/// structural oracles only make sense on parseable inputs, and the expensive
/// ones are subsampled.
fn oracles_for(config: &FuzzConfig, iteration: u64, parses: bool) -> Vec<OracleKind> {
    // The wire oracle is content-derived, cheap (one frame codec round plus
    // bounded corruptions) and meaningful on unparseable inputs too, so it
    // runs every iteration alongside the envelope.
    let mut kinds = vec![OracleKind::ParserEnvelope, OracleKind::WireStats];
    if parses {
        kinds.push(OracleKind::Roundtrip);
        // The one semantic oracle: every parseable input, every iteration.
        kinds.push(OracleKind::SimDifferential);
        // Cheap (one front end, four one-line edits): every parseable input.
        kinds.push(OracleKind::LineEdit);
        if iteration.is_multiple_of(config.mutate_every.max(1)) {
            kinds.push(OracleKind::MutateClosure);
        }
        if iteration.is_multiple_of(config.bmc_every.max(1)) {
            kinds.push(OracleKind::BmcPermutation);
        }
    }
    kinds
}

/// Shrinks a novel finding and composes the corpus case, journal included.
fn mine_case(
    config: &FuzzConfig,
    input: &FuzzInput,
    kind: OracleKind,
    class: u64,
    detail: &str,
    iteration: u64,
) -> Result<CaseFile, String> {
    let shrunk = ddmin_lines(
        &input.source,
        |candidate| {
            drive_oracle(kind, candidate)
                .detail()
                .map(|d| class_fingerprint(kind, d) == class)
                .unwrap_or(false)
        },
        config.shrink_budget,
    );
    // Re-derive the detail on the shrunk input (line numbers may have moved).
    let detail = drive_oracle(kind, &shrunk)
        .detail()
        .map(str::to_string)
        .unwrap_or_else(|| detail.to_string());
    compose_case(
        kind,
        input.family.tag(),
        &shrunk,
        &input.base_source,
        &detail,
        Expectation::Fails,
        config.seed,
        iteration,
    )
}

/// Composes a full corpus case: fingerprints, entry derivation and the
/// replayable journal. Fails when no injector seed yields a journalable bug
/// entry from the base source.
#[allow(clippy::too_many_arguments)]
pub fn compose_case(
    oracle: OracleKind,
    family: &str,
    source: &str,
    base_source: &str,
    detail: &str,
    expect: Expectation,
    seed: u64,
    iteration: u64,
) -> Result<CaseFile, String> {
    let (derive_seed, entry) = find_derivation(base_source)
        .ok_or_else(|| "no injector seed yields a journalable entry".to_string())?;
    let fingerprint = format!("{:016x}", case_fingerprint(oracle, source, expect));
    let journal = render_case_journal(&entry, &case_corpus_tag(family, &fingerprint));
    Ok(CaseFile {
        schema: CASE_SCHEMA.to_string(),
        oracle,
        family: family.to_string(),
        expect,
        class: format!("{:016x}", class_fingerprint(oracle, detail)),
        fingerprint,
        seed,
        iteration,
        detail: detail.to_string(),
        source: source.to_string(),
        base_source: base_source.to_string(),
        derive_seed,
        journal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_are_byte_deterministic() {
        let a = run_fuzz(&FuzzConfig::new(3, 48));
        let b = run_fuzz(&FuzzConfig::new(3, 48));
        assert_eq!(a.log, b.log);
        assert_eq!(a.cases, b.cases);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_fuzz(&FuzzConfig::new(1, 32));
        let b = run_fuzz(&FuzzConfig::new(2, 32));
        assert_ne!(a.log, b.log);
    }

    #[test]
    fn stats_add_up() {
        let report = run_fuzz(&FuzzConfig::new(5, 64));
        assert_eq!(report.stats.inputs, 64);
        assert!(report.stats.parsed > 0, "some inputs must parse");
        assert!(report.stats.parsed <= report.stats.inputs);
        assert!(report.stats.unique <= report.stats.findings);
        assert!(report.cases.len() as u64 <= report.stats.unique);
        assert!(report.log.ends_with('\n'));
    }
}
