//! Model evaluation: sampling, correctness checking, pass@k and breakdowns.
//!
//! A response counts as correct when it "successfully solves the assertion failure":
//! either it reproduces the golden fix textually, or applying its proposed line edit to
//! the buggy design makes every assertion pass under the bounded checker.  This is the
//! same acceptance criterion the paper uses for its pass@k numbers.

use crate::passk::PassK;
use serde::{Deserialize, Serialize};
use std::cell::OnceCell;
use std::collections::btree_map::Entry as BTreeEntry;
use std::collections::BTreeMap;
use std::time::Instant;
use svdata::SvaBugEntry;
use svmodel::{CaseInput, RepairModel, Response};
use svparse::FrontEnd;
use svserve::env::path_knob;
use svserve::persist::{fnv64, VerdictSnapshot};
use svserve::{
    env_cache_dir, env_drivers, env_journal_dir, render_journal, serve_scoped, verdict_case_state,
    verdict_key_of_fields, write_journal, JournalHeader, JournalRecord, Memo, PersistSpec,
    RepairRequest, ScopedService, ServiceConfig, TelemetryHandle, TraceHandle, TracedCase,
    TracerHandle, VerdictCaseState, VerdictKey, VerifyConfig, VerifyMetrics,
    DEFAULT_COMPACT_AFTER_RUNS,
};
use svverify::{CheckConfig, VerifyOracle};

/// Evaluation protocol parameters (paper: n = 20, k ∈ {1, 5}, temperature 0.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalConfig {
    /// Number of samples per case (`n`).
    pub samples: usize,
    /// Sampling temperature.
    pub temperature: f64,
    /// Seed for sampling.
    pub seed: u64,
    /// Ignored: the response memo is one map.  The benchmark harness still
    /// sets it; it goes with the next change to the harness.
    pub workers: usize,
    /// Ignored: the verdict memo is one map.  The benchmark harness still
    /// sets it; it goes with the next change to the harness.
    pub verify_workers: usize,
    /// Threads that drive the cases, each case sampled and judged start to
    /// verdict on its driver (0 = auto: the `ASSERTSOLVER_DRIVERS`
    /// environment override, else the host's available parallelism, at most
    /// 8), never more than there are cases.  These are the only threads an
    /// in-process evaluation runs.  Results are identical at any driver
    /// count.
    pub drivers: usize,
    /// Directory for persistent cache snapshots (`None` = the
    /// `ASSERTSOLVER_CACHE_DIR` environment override, else no persistence).  When
    /// resolved, both the response and the verdict cache spill to disk there and
    /// preload at the next evaluation, so repeated runs skip resolved cases; a
    /// warm run's `ModelEvaluation` is byte-identical to a cold run's.
    pub cache_dir: Option<String>,
    /// Directory for session-journal artifacts (`None` = the
    /// `ASSERTSOLVER_JOURNAL_DIR` environment override, else no journal
    /// file).  When resolved, every [`Evaluation`] writes its checksummed
    /// JSONL journal there, one record per judged case; journal bytes are
    /// identical at any driver count and with warm or cold caches.
    pub journal_dir: Option<String>,
    /// Bounded-check configuration used to decide whether a repair solves the failure.
    pub check: CheckConfig,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            samples: 20,
            temperature: 0.2,
            seed: 0xE7A1,
            workers: 0,
            verify_workers: 0,
            drivers: 0,
            cache_dir: None,
            journal_dir: None,
            check: CheckConfig {
                depth: 12,
                random_cases: 16,
                ..CheckConfig::default()
            },
        }
    }
}

impl EvalConfig {
    /// A faster protocol for tests and examples (n = 8).
    pub fn quick(seed: u64) -> Self {
        Self {
            samples: 8,
            seed,
            check: CheckConfig {
                depth: 10,
                random_cases: 8,
                ..CheckConfig::default()
            },
            ..Self::default()
        }
    }

    /// The cache directory this protocol persists to, if any: the explicit
    /// [`EvalConfig::cache_dir`] field, else the `ASSERTSOLVER_CACHE_DIR`
    /// environment override (`svserve::CACHE_DIR_ENV`).
    pub(crate) fn resolved_cache_dir(&self) -> Option<std::path::PathBuf> {
        resolve_dir(&self.cache_dir, env_cache_dir)
    }

    /// The journal directory this protocol records to, if any: the explicit
    /// [`EvalConfig::journal_dir`] field, else the `ASSERTSOLVER_JOURNAL_DIR`
    /// environment override (`svserve::JOURNAL_DIR_ENV`).
    pub(crate) fn resolved_journal_dir(&self) -> Option<std::path::PathBuf> {
        resolve_dir(&self.journal_dir, env_journal_dir)
    }

    /// The repair-service configuration this protocol implies.
    pub fn service_config(&self) -> ServiceConfig {
        ServiceConfig::default().with_seed(self.seed)
    }

    /// The repair-service configuration for sampling a specific model, including
    /// response-cache persistence when a cache directory is resolved.
    ///
    /// `model_identity` should be [`RepairModel::identity`] — a string that
    /// differs whenever the model's responses could differ (for trained models it
    /// folds a content hash of the weights, so `base(3)` and `base(11)` never
    /// share a snapshot despite sharing a display name).  The snapshot file is
    /// per-identity *and* per-seed (`responses-<slug>-<hash>.json`, the hash
    /// covering identity + evaluation seed), so distinct protocols coexist in
    /// one cache directory instead of rejecting and overwriting each other's
    /// files; the service additionally folds its seed into the snapshot
    /// fingerprint (responses are a deterministic function of
    /// `(case, samples, temperature, model, seed)`), so even a hand-pointed
    /// stale snapshot is rejected at load instead of replaying wrong samples.
    pub fn service_config_for(&self, model_identity: &str) -> ServiceConfig {
        self.service_config_with(|| model_identity)
    }

    /// [`EvalConfig::service_config_for`], asking for the model identity only
    /// when a cache directory resolves and a snapshot name needs it.
    fn service_config_with<'i>(&self, model_identity: impl FnOnce() -> &'i str) -> ServiceConfig {
        let config = self.service_config();
        match self.resolved_cache_dir() {
            Some(dir) => {
                let model_identity = model_identity();
                let mut keyed = model_identity.as_bytes().to_vec();
                keyed.push(0);
                keyed.extend_from_slice(&self.seed.to_le_bytes());
                config.with_persist(
                    PersistSpec::new(
                        dir.join(format!(
                            "responses-{}-{:08x}.json",
                            file_slug(model_identity),
                            fnv64(&keyed) as u32
                        )),
                        &[],
                        model_identity,
                    )
                    .with_compaction(DEFAULT_COMPACT_AFTER_RUNS),
                )
            }
            None => config,
        }
    }

    /// The verdict-cache configuration this protocol implies, including
    /// persistence when a cache directory is resolved.
    ///
    /// The verdict snapshot (`verdicts-<hash>.json`, the hash
    /// covering [`CheckConfig::fingerprint`]) is fingerprinted by the same bytes
    /// — verdicts are pure functions of `(case, response, CheckConfig)` and
    /// independent of which model proposed the response, so one file is shared
    /// across models (header model `"-"`), while evaluations with different
    /// bounded-check parameters keep separate coexisting files instead of
    /// rejecting and overwriting each other's.
    pub fn verify_config(&self) -> VerifyConfig {
        let base = VerifyConfig::default();
        match self.resolved_cache_dir() {
            Some(dir) => {
                let fingerprint = self.check.fingerprint();
                base.with_persist(
                    PersistSpec::new(
                        dir.join(format!("verdicts-{:08x}.json", fnv64(&fingerprint) as u32)),
                        &fingerprint,
                        "-",
                    )
                    .with_compaction(DEFAULT_COMPACT_AFTER_RUNS),
                )
            }
            None => base,
        }
    }
}

/// An explicit directory field, else the environment override; both read
/// with the one directory-knob policy ([`path_knob`]: trimmed, blank = unset).
fn resolve_dir(
    field: &Option<String>,
    env: fn() -> Option<std::path::PathBuf>,
) -> Option<std::path::PathBuf> {
    field.as_deref().and_then(path_knob).or_else(env)
}

/// Reduces a model identity to a file-name-safe slug (truncated; uniqueness
/// comes from the hash suffix in the file name, not the slug).
fn file_slug(name: &str) -> String {
    let slug: String = name
        .chars()
        .take(48)
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    if slug.is_empty() {
        "model".to_string()
    } else {
        slug
    }
}

/// Per-case evaluation outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CaseResult {
    /// Module the case came from.
    pub module_name: String,
    /// Number of samples drawn (`n`).
    pub n: usize,
    /// Number of correct samples (`c`).
    pub c: usize,
    /// Table-I profile of the underlying bug.
    pub profile: svmutate::BugProfile,
    /// Lines of buggy code (for the length-bin breakdown).
    pub code_lines: usize,
    /// Whether the case is human-crafted.
    pub human_crafted: bool,
}

/// Evaluation of one model over a benchmark.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ModelEvaluation {
    /// Model display name.
    pub model: String,
    /// Per-case results.
    pub results: Vec<CaseResult>,
}

impl ModelEvaluation {
    /// Aggregate pass@1/pass@5 over all cases.
    pub fn passk(&self) -> PassK {
        PassK::from_counts(&self.counts(|_| true))
    }

    /// Aggregate pass@k restricted to machine- or human-crafted cases.
    pub fn passk_subset(&self, human: bool) -> PassK {
        PassK::from_counts(&self.counts(|r| r.human_crafted == human))
    }

    /// pass@k per Table-I bug-type label.
    pub(crate) fn by_bug_type(&self) -> BTreeMap<String, PassK> {
        let mut out = BTreeMap::new();
        for label in svmutate::TABLE1_LABELS {
            let counts = self.counts(|r| r.profile.labels().contains(&label));
            if !counts.is_empty() {
                out.insert(label.to_string(), PassK::from_counts(&counts));
            }
        }
        out
    }

    /// pass@k per Table-II code-length bin.
    pub(crate) fn by_length_bin(&self) -> Vec<(String, PassK)> {
        svgen::LENGTH_BINS
            .iter()
            .enumerate()
            .filter_map(|(idx, name)| {
                let counts = self.counts(|r| svgen::length_bin_index(r.code_lines) == idx);
                if counts.is_empty() {
                    None
                } else {
                    Some((name.to_string(), PassK::from_counts(&counts)))
                }
            })
            .collect()
    }

    /// Histogram of `c` (number of correct answers per case) — the data behind Fig. 3.
    ///
    /// Returns `samples + 1` buckets (`c = 0 ..= samples`).
    pub fn histogram(&self, samples: usize) -> Vec<usize> {
        let mut buckets = vec![0usize; samples + 1];
        for result in &self.results {
            let c = result.c.min(samples);
            buckets[c] += 1;
        }
        buckets
    }

    fn counts(&self, filter: impl Fn(&CaseResult) -> bool) -> Vec<(usize, usize)> {
        self.results
            .iter()
            .filter(|r| filter(r))
            .map(|r| (r.n, r.c))
            .collect()
    }
}

/// Checks whether one response solves one case.
///
/// The fast path compares the proposed line and fix textually against the golden
/// solution; otherwise the proposed edit is applied to the buggy source and the
/// repaired design is re-checked with the bounded verifier.
///
/// This parses the whole edited text; the evaluation's judge,
/// [`JudgedCase::verdict`], reaches the same verdict re-parsing one item.
pub fn response_is_correct(
    entry: &SvaBugEntry,
    response: &Response,
    oracle: &VerifyOracle,
) -> bool {
    textual_verdict(entry, response).unwrap_or_else(|| edited_text_solves(entry, response, oracle))
}

/// The verdict the response's text alone decides: `true` for the golden line
/// and fix, `false` for no line or an empty fix; `None` when the edit must be
/// checked.
fn textual_verdict(entry: &SvaBugEntry, response: &Response) -> Option<bool> {
    let line_matches = response.bug_line_number == entry.bug_line_number;
    if line_matches && response.fixed_line.trim() == entry.fixed_line.trim() {
        return Some(true);
    }
    if response.bug_line_number == 0 || response.fixed_line.trim().is_empty() {
        return Some(false);
    }
    None
}

/// Whether the response's line edit, applied to the buggy text and parsed
/// whole, changes the design and makes its assertions hold.
fn edited_text_solves(entry: &SvaBugEntry, response: &Response, oracle: &VerifyOracle) -> bool {
    let Some(repaired_source) = apply_line_edit(
        &entry.buggy_source,
        response.bug_line_number,
        &response.fixed_line,
    ) else {
        return false;
    };
    let Ok(repaired) = svparse::parse_module(&repaired_source) else {
        return false;
    };
    // The repair must change something and must make the assertions hold.
    if svparse::emits_as(&repaired, &entry.buggy_source) {
        return false;
    }
    oracle.repair_solves_failure_lent(repaired).0
}

/// One case as the evaluation's verifier judges it: the entry, and the
/// [`FrontEnd`] of its buggy source, built the first time a candidate misses
/// the textual fast path.
///
/// A case whose candidates are all decided by their text never parses its
/// source.  Every other candidate is a one-line edit the front end answers as
/// a one-item delta: one lexed line, one re-parsed item, a no-op test on that
/// item and the edited module lent to the check uncopied.  An edit the front
/// end declines is judged as [`response_is_correct`] judges it.
#[derive(Debug)]
pub struct JudgedCase<'e> {
    entry: &'e SvaBugEntry,
    /// `None` until a candidate needs it, and while one is judged through
    /// it; `Some(None)` when the buggy source does not parse.
    front_end: Option<Option<FrontEnd>>,
}

impl<'e> JudgedCase<'e> {
    /// The case of `entry`, its front end not yet built.
    pub fn new(entry: &'e SvaBugEntry) -> Self {
        Self {
            entry,
            front_end: None,
        }
    }

    /// The corpus entry.
    pub fn entry(&self) -> &'e SvaBugEntry {
        self.entry
    }

    /// Whether `response` solves the case: [`response_is_correct`]'s verdict,
    /// with the edited module derived as a one-item delta.
    ///
    /// The front end is taken out of the case for the judgment and put back
    /// once the check returns, so a judgment that unwinds leaves no
    /// half-swapped module behind: the next candidate builds a fresh one.
    pub fn verdict(&mut self, response: &Response, oracle: &VerifyOracle) -> bool {
        let entry = self.entry;
        if let Some(verdict) = textual_verdict(entry, response) {
            return verdict;
        }
        let built = self.front_end.take();
        let built = built.unwrap_or_else(|| FrontEnd::new(&entry.buggy_source).ok());
        let Some(mut front_end) = built else {
            self.front_end = Some(None);
            return edited_text_solves(entry, response, oracle);
        };
        let verdict = match front_end.edit_line(response.bug_line_number, &response.fixed_line) {
            None => edited_text_solves(entry, response, oracle),
            // The repair must change something and must make the assertions hold.
            Some(edit) if front_end.is_no_op(&entry.buggy_source, &edit) => false,
            Some(edit) => {
                front_end.lend(edit, |repaired| oracle.repair_solves_failure_lent(repaired))
            }
        };
        self.front_end = Some(Some(front_end));
        verdict
    }
}

/// Replaces the 1-based line `line_number` of `source` with `replacement`, preserving
/// the original indentation.
///
/// The result is `source`'s lines (as [`str::lines`] splits them, so CRLF
/// line ends become LF), each ended by `\n`; `None` when the line does not
/// exist.
pub fn apply_line_edit(source: &str, line_number: u32, replacement: &str) -> Option<String> {
    let idx = (line_number as usize).checked_sub(1)?;
    let replacement = replacement.trim();
    let mut edited = String::with_capacity(source.len() + replacement.len() + 1);
    let mut found = false;
    for (at, line) in source.lines().enumerate() {
        if at == idx {
            let body = line.trim_start();
            edited.push_str(&line[..line.len() - body.len()]);
            edited.push_str(replacement);
            found = true;
        } else {
            edited.push_str(line);
        }
        edited.push('\n');
    }
    found.then_some(edited)
}

/// A persistent verification backend for model evaluation.
///
/// A verdict cache (`svserve::Memo`) in front of [`JudgedCase::verdict`]
/// ([`response_is_correct`]'s verdict) under a [`VerifyOracle`] built from
/// the evaluation's [`CheckConfig`].  It spawns no thread: each candidate is
/// judged on the case driver that asks for it, on a cache miss.
/// Verdict-cache keys
/// are `hash(case fingerprint, response, CheckConfig fingerprint)`, so keeping one
/// verifier alive across several [`evaluate_model_with`] calls replays already-judged
/// candidates from the cache — re-evaluating a corpus the verifier has seen is pure
/// cache hits, and the verdicts (being pure functions) are identical either way.
///
/// When the evaluation resolves a cache directory ([`EvalConfig::cache_dir`] or
/// `ASSERTSOLVER_CACHE_DIR`), the verdict cache additionally persists across
/// *processes*: it preloads from its `verdicts-<hash>.json` at start and flushes back on
/// shutdown/drop (or an explicit [`EvalVerifier::flush`]).
pub struct EvalVerifier {
    memo: Memo<VerdictSnapshot>,
    oracle: VerifyOracle,
    check_fingerprint: [u8; 28],
    /// Hears the thread of every judgment, for the tests that pin it.
    #[cfg(test)]
    judged: Option<std::sync::mpsc::Sender<std::thread::ThreadId>>,
}

impl EvalVerifier {
    /// Builds the verifier for the given protocol, preloading its verdict
    /// snapshot when a cache directory resolves.
    pub fn start(config: &EvalConfig) -> Self {
        Self {
            memo: Memo::verdicts(config.verify_config()),
            oracle: VerifyOracle::new(config.check.clone()),
            check_fingerprint: config.check.fingerprint(),
            #[cfg(test)]
            judged: None,
        }
    }

    /// The verdict-cache key for judging `response` against `entry`.
    ///
    /// The case fingerprint covers exactly the entry fields the verdict depends on
    /// (buggy source, golden bug line and fix); the [`CheckConfig`] fingerprint
    /// covers every bounded-check parameter.  The response is normalized to the two
    /// fields [`response_is_correct`] reads — proposed line number and fix text —
    /// so identical fixes that differ only in echoed context or reasoning text
    /// share one cached verdict, exactly as the old serial dedup did.
    pub fn key_for(&self, entry: &SvaBugEntry, response: &Response) -> VerdictKey {
        self.key_after(Self::case_state(entry), response)
    }

    /// The case half of [`EvalVerifier::key_for`], shared by every candidate
    /// judged against `entry`.
    fn case_state(entry: &SvaBugEntry) -> VerdictCaseState {
        verdict_case_state(&[
            entry.buggy_source.as_bytes(),
            &entry.bug_line_number.to_le_bytes(),
            entry.fixed_line.as_bytes(),
        ])
    }

    /// [`EvalVerifier::key_for`] from the case half [`EvalVerifier::case_state`]
    /// folded: the key of the response normalised to its line number and fix
    /// (an empty buggy line, no reasoning), folded from the borrowed fields.
    fn key_after(&self, case: VerdictCaseState, response: &Response) -> VerdictKey {
        let (line, fix) = (response.bug_line_number, &response.fixed_line);
        verdict_key_of_fields(case, line, "", fix, None, &self.check_fingerprint)
    }

    /// Whether `response`, keyed `key`, solves `case`: the cached verdict,
    /// else the judge's, computed and tallied on this thread.  A judge that
    /// panics is served as a failed verdict and not cached.
    fn judge(&self, case: &mut JudgedCase<'_>, key: VerdictKey, response: &Response) -> bool {
        let judge = || {
            #[cfg(test)]
            if let Some(judged) = &self.judged {
                let _ = judged.send(std::thread::current().id());
            }
            let verdict = case.verdict(response, &self.oracle);
            self.memo.tally(verdict);
            verdict
        };
        // The memo closes only at shutdown, which takes the verifier.
        self.memo.serve(key, judge).is_ok_and(|served| served.value)
    }

    /// Takes a metrics snapshot of the verification stage.
    pub fn metrics(&self) -> VerifyMetrics {
        self.memo.metrics()
    }

    /// Writes the verdict cache to its configured snapshot path, returning the
    /// number of entries written (`Ok(0)` when no cache directory is resolved).
    /// Shutdown and drop flush automatically; this is for long-lived verifiers
    /// that want durability between evaluations.
    pub fn flush(&self) -> std::io::Result<usize> {
        self.memo.flush()
    }

    /// Closes the verifier, flushes the verdict snapshot and returns the final
    /// metrics.
    pub fn shutdown(self) -> VerifyMetrics {
        self.memo.close();
        self.memo.metrics()
    }
}

/// What a session journal was recorded over: enough identity to *rebuild* the
/// evaluation (`svobs replay`) and enough fingerprints to refuse a replay
/// against the wrong inputs.
///
/// Rendered (as one JSON line) into the journal header's `manifest` field.
/// `model_tag` / `corpus_tag` are rebuild recipes the recorder chooses (e.g.
/// `base:3` and `tiny:31+human`); the fingerprints are pure content hashes the
/// replayer re-derives and compares.  Temperature is carried in milli-units so
/// the manifest never serializes a float.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalManifest {
    /// Model identity string ([`RepairModel::identity`]): folds a content hash
    /// of the weights, so two same-named checkpoints never replay each other.
    pub model: String,
    /// Recorder-chosen recipe for rebuilding the model (opaque to the core).
    pub model_tag: String,
    /// Recorder-chosen recipe for rebuilding the corpus (opaque to the core).
    pub corpus_tag: String,
    /// FNV-1a/64 over every corpus entry's verdict-relevant content, in hex.
    pub(crate) corpus_fnv: String,
    /// Samples per case (`n`).
    pub samples: u64,
    /// Sampling temperature in milli-units (`0.2` → `200`).
    pub temperature_milli: u64,
    /// Evaluation seed.
    pub seed: u64,
    /// FNV-1a/64 of the bounded-check fingerprint, in hex.
    pub(crate) check_fnv: String,
}

impl JournalManifest {
    /// Builds the manifest for one `(model, corpus, protocol)` triple.  The
    /// rebuild tags are the caller's (pass empty strings for record-only
    /// journals that will never be re-driven).
    pub fn for_protocol(
        model_tag: &str,
        corpus_tag: &str,
        model_identity: &str,
        entries: &[SvaBugEntry],
        config: &EvalConfig,
    ) -> Self {
        let corpus = corpus_fingerprint(entries);
        Self::for_corpus(model_tag, corpus_tag, model_identity, corpus, config)
    }

    /// [`JournalManifest::for_protocol`] over a corpus already folded by
    /// [`corpus_fingerprint`].
    fn for_corpus(
        model_tag: &str,
        corpus_tag: &str,
        model_identity: &str,
        corpus: u64,
        config: &EvalConfig,
    ) -> Self {
        Self {
            model: model_identity.to_string(),
            model_tag: model_tag.to_string(),
            corpus_tag: corpus_tag.to_string(),
            corpus_fnv: format!("{corpus:016x}"),
            samples: config.samples as u64,
            temperature_milli: (config.temperature * 1000.0).round() as u64,
            seed: config.seed,
            check_fnv: format!("{:016x}", fnv64(&config.check.fingerprint())),
        }
    }

    /// Renders the manifest as one JSON line (the journal header's `manifest`).
    pub fn render(&self) -> String {
        serde_json::to_string(self).expect("manifest serializes")
    }

    /// Parses a rendered manifest back, for replay validation.
    pub fn parse(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|err| format!("malformed journal manifest: {err}"))
    }
}

/// FNV-1a/64 over every corpus entry's identity-relevant fields, in corpus
/// order — the fingerprint [`JournalManifest`] pins a journal to.
pub(crate) fn corpus_fingerprint(entries: &[SvaBugEntry]) -> u64 {
    let mut bytes = Vec::new();
    for entry in entries {
        bytes.extend_from_slice(entry.module_name.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(entry.buggy_source.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&entry.bug_line_number.to_le_bytes());
        bytes.extend_from_slice(entry.fixed_line.as_bytes());
        bytes.push(0);
    }
    fnv64(&bytes)
}

/// `<dir>/journal-<model slug>-<hash>.jsonl`: where a run's journal goes.
/// The hash covers model identity, protocol seed and the corpus (its
/// [`corpus_fingerprint`]), so runs that differ in any of them never share a
/// file.
fn journal_path(
    dir: &std::path::Path,
    identity: &str,
    corpus: u64,
    config: &EvalConfig,
) -> std::path::PathBuf {
    let mut keyed = identity.as_bytes().to_vec();
    keyed.push(0);
    keyed.extend_from_slice(&config.seed.to_le_bytes());
    keyed.extend_from_slice(&corpus.to_le_bytes());
    let hash = fnv64(&keyed) as u32;
    dir.join(format!("journal-{}-{hash:08x}.jsonl", file_slug(identity)))
}

/// Evaluates a model over a set of cases: the plain [`Evaluation`], judged
/// by a fresh [`EvalVerifier`].  To share a warm verdict cache across
/// several evaluations, start an [`EvalVerifier`] once and hand it to
/// [`Evaluation::verifier`].
pub fn evaluate_model<M: RepairModel + Sync + ?Sized>(
    model: &M,
    entries: &[SvaBugEntry],
    config: &EvalConfig,
) -> ModelEvaluation {
    Evaluation::new(model, entries, config).run().evaluation
}

/// [`Evaluation`] judged by a borrowed verifier: re-evaluating a corpus the
/// verifier has seen replays its verdicts, and the result is identical
/// whether that cache is cold or warm.
pub fn evaluate_model_with<M: RepairModel + Sync + ?Sized>(
    model: &M,
    entries: &[SvaBugEntry],
    config: &EvalConfig,
    verifier: &EvalVerifier,
) -> ModelEvaluation {
    let evaluation = Evaluation::new(model, entries, config).verifier(verifier);
    evaluation.run().evaluation
}

/// [`Evaluation`] with the journal on: the evaluation plus the *rendered*
/// journal, a repro artifact `svobs replay` re-drives.
pub fn evaluate_model_journaled<M: RepairModel + Sync + ?Sized>(
    model: &M,
    entries: &[SvaBugEntry],
    config: &EvalConfig,
    manifest: &JournalManifest,
) -> (ModelEvaluation, String) {
    let run = Evaluation::new(model, entries, config).journal(manifest);
    let run = run.run();
    (run.evaluation, run.journal.expect("the journal is on"))
}

/// The plain [`Evaluation`]; the [`TelemetryHandle`] is an ignored
/// placeholder the benchmark harness still passes.
pub fn evaluate_model_instrumented<M: RepairModel + Sync + ?Sized>(
    model: &M,
    entries: &[SvaBugEntry],
    config: &EvalConfig,
    _telemetry: &TelemetryHandle,
) -> ModelEvaluation {
    evaluate_model(model, entries, config)
}

/// [`Evaluation`] with a borrowed verifier and the trace plane; the
/// [`TracerHandle`] and [`TelemetryHandle`] are ignored.
pub fn evaluate_model_observed<M: RepairModel + Sync + ?Sized>(
    model: &M,
    entries: &[SvaBugEntry],
    config: &EvalConfig,
    verifier: &EvalVerifier,
    _tracer: &TracerHandle,
    _telemetry: &TelemetryHandle,
    trace: &TraceHandle,
) -> ModelEvaluation {
    let evaluation = Evaluation::new(model, entries, config).trace(trace);
    evaluation.verifier(verifier).run().evaluation
}

/// One run of the paper's protocol — `n` samples per case at the configured
/// temperature, each judged by the bounded checker — with the facilities that
/// observe or redirect it switched on one method at a time.
///
/// No facility changes the [`ModelEvaluation`]: sampler seeds derive from case
/// content and verdicts are pure functions of `(case, response, CheckConfig)`,
/// so it is identical at any driver count, with warm or cold caches.  A
/// facility that is off costs one branch per instrumented site.  Each case
/// driver returns what it observed of its cases — a journal record per case
/// and, with tracing on, that record again with the walls of the case's five
/// stages (a `session` over `submit` → `sample` → `verify` → `evaluate`
/// laps that tile it) — so the drivers share nothing but the two memos.  The
/// run sorts the records into the journal and hands the traced cases to the
/// trace handle in one call; the journal and the rendered trace are
/// byte-identical at any driver count ([`svserve::trace`]).
///
/// The journal is rendered when [`Evaluation::journal`] is on or a journal
/// directory resolves ([`EvalConfig::journal_dir`], else
/// `ASSERTSOLVER_JOURNAL_DIR`); in the latter case it is also written there
/// as `journal-<slug>-<hash>.jsonl`, best effort, with empty rebuild tags
/// unless [`Evaluation::journal`] gave a manifest (`svobs record` writes
/// replayable ones).
pub struct Evaluation<'a, M: ?Sized> {
    model: &'a M,
    entries: &'a [SvaBugEntry],
    config: &'a EvalConfig,
    verifier: Option<&'a EvalVerifier>,
    journal: Option<&'a JournalManifest>,
    trace: TraceHandle,
    /// [`RepairModel::identity`], derived on first read: only a cache
    /// snapshot name and the journal read it.
    identity: OnceCell<String>,
}

/// What [`Evaluation::run`] returns.
#[derive(Debug)]
pub struct EvaluationRun {
    /// The pass@k data.
    pub evaluation: ModelEvaluation,
    /// The rendered session journal, when [`Evaluation::journal`] was on or a
    /// journal directory resolved.
    pub journal: Option<String>,
}

impl<'a, M: RepairModel + Sync + ?Sized> Evaluation<'a, M> {
    /// The plain protocol: a fresh verifier, in-process sampling, every
    /// facility off.
    pub fn new(model: &'a M, entries: &'a [SvaBugEntry], config: &'a EvalConfig) -> Self {
        Self {
            model,
            entries,
            config,
            verifier: None,
            journal: None,
            trace: TraceHandle::off(),
            identity: OnceCell::new(),
        }
    }

    /// Judges through `verifier` (one with a warm verdict cache, say) instead
    /// of a fresh one.
    pub fn verifier(mut self, verifier: &'a EvalVerifier) -> Self {
        self.verifier = Some(verifier);
        self
    }

    /// Records a session journal whose header carries `manifest`.
    pub fn journal(mut self, manifest: &'a JournalManifest) -> Self {
        self.journal = Some(manifest);
        self
    }

    /// Hands the traced cases to `trace`; the caller drains it.
    pub fn trace(mut self, trace: &TraceHandle) -> Self {
        self.trace = trace.clone();
        self
    }

    /// Runs the evaluation.
    pub fn run(self) -> EvaluationRun {
        let owned = (self.verifier.is_none()).then(|| EvalVerifier::start(self.config));
        let verifier = self.verifier.or(owned.as_ref()).expect("a verifier");
        // Every case on the one case driver (`drive_cases`), sampled by an
        // in-process repair pool serving in place.
        let service_config = (self.config).service_config_with(|| self.identity());
        let cases = serve_scoped(self.model, service_config, |service| {
            let driver = CaseDriver {
                service,
                verifier,
                config: self.config,
                traced: self.trace.is_on(),
            };
            drive_cases(&driver, self.entries)
        });
        let (mut records, mut traced) = (Vec::with_capacity(cases.len()), Vec::new());
        let results = (cases.into_iter())
            .map(|case| {
                records.push(case.record);
                traced.extend(case.traced);
                case.result
            })
            .collect();
        self.trace.extend(traced);
        let evaluation = ModelEvaluation {
            model: self.model.name().to_string(),
            results,
        };
        if let Some(owned) = owned {
            owned.shutdown();
        }
        let journal = self.rendered_journal(&evaluation, records);
        EvaluationRun {
            evaluation,
            journal,
        }
    }

    /// The model's identity, derived once per run.
    fn identity(&self) -> &str {
        self.identity.get_or_init(|| self.model.identity())
    }

    /// The rendered journal of `records`, when [`Evaluation::journal`] gave
    /// a manifest or a journal directory resolves.  A resolved directory
    /// also gets the file, best effort: an unwritable directory must not
    /// fail the evaluation itself.  The run folds its corpus at most once,
    /// for the file's name and a record-only manifest alike.
    fn rendered_journal(
        &self,
        evaluation: &ModelEvaluation,
        mut records: Vec<JournalRecord>,
    ) -> Option<String> {
        let dir = self.config.resolved_journal_dir();
        let corpus = dir.as_ref().map(|_| corpus_fingerprint(self.entries));
        let record_only = corpus.filter(|_| self.journal.is_none()).map(|corpus| {
            JournalManifest::for_corpus("", "", self.identity(), corpus, self.config)
        });
        let manifest = self.journal.or(record_only.as_ref())?;
        records.sort_unstable();
        let header = JournalHeader::expected(&manifest.render());
        let payload = serde_json::to_string(evaluation).expect("evaluation serializes");
        let rendered = render_journal(&header, &records, &payload);
        if let (Some(dir), Some(corpus)) = (dir, corpus) {
            let path = journal_path(&dir, self.identity(), corpus, self.config);
            let _ = write_journal(&path, &rendered);
        }
        Some(rendered)
    }
}

/// The repair request the protocol submits for one case.
fn request_for(entry: &SvaBugEntry, config: &EvalConfig) -> RepairRequest {
    RepairRequest::new(
        CaseInput::from_entry(entry),
        config.samples,
        config.temperature,
    )
}

/// What every case of one run shares: the in-process repair pool that
/// samples it (solving on the calling thread), the verifier that judges it,
/// the protocol, and whether tracing is on.
struct CaseDriver<'s, M: ?Sized> {
    service: &'s ScopedService<'s, M>,
    verifier: &'s EvalVerifier,
    config: &'s EvalConfig,
    traced: bool,
}

/// What a case driver observed of one case: its result, its journal record
/// and, with tracing on, that record with its stage walls.
struct CaseRun {
    result: CaseResult,
    record: JournalRecord,
    traced: Option<TracedCase>,
}

/// The one case driver: every case of `entries` sampled and judged through
/// `driver`; returns what each case's driver observed, in corpus order.
///
/// Each of `min(drivers, cases)` scoped threads takes a strided share
/// (thread `t`: cases `t, t + threads, …`) and runs each case of it start to
/// verdict ([`run_case`]); the caller only waits.  The caches serve in place,
/// so a case's sampling and judging run on the thread that drives it: the
/// drivers are the only threads an in-process evaluation runs, and their
/// count moves only the wall clock.
///
/// A single share gets a thread of its own too.  The kernel places a new
/// thread on the idlest CPU but leaves a running one where it is, so a
/// long-lived caller driving its evaluations itself keeps every one of them
/// on one CPU for its whole life.  On a 2-vCPU VM whose CPUs each slow down
/// ~1.5× for seconds at a time, independently, that made whole runs of
/// one-case evaluations ~1.5× slower.  A driver spawned per call lands on
/// either CPU; there it cost ~0.1 ms a call on a cold one-case evaluation and
/// ~1 ms on a warm one, whose driver reads caches the caller's thread loaded.
fn drive_cases<M: RepairModel + Sync + ?Sized>(
    driver: &CaseDriver<'_, M>,
    entries: &[SvaBugEntry],
) -> Vec<CaseRun> {
    let drivers = Some(driver.config.drivers).filter(|&drivers| drivers > 0);
    let drivers = drivers
        .or_else(env_drivers)
        .unwrap_or_else(default_parallelism);
    let threads = drivers.min(entries.len()).max(1);
    let share = |first: usize| {
        let cases = entries.iter().skip(first).step_by(threads);
        let run = |entry| run_case(driver, entry);
        cases.map(run).collect::<Vec<_>>()
    };
    let mut results: Vec<Option<CaseRun>> = entries.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let share = &share;
        let spawn = |first| scope.spawn(move || share(first));
        let shares: Vec<_> = (0..threads).map(spawn).collect();
        for (first, share) in shares.into_iter().enumerate() {
            let share = share.join().expect("a case driver panicked");
            let slots = results.iter_mut().skip(first).step_by(threads);
            slots.zip(share).for_each(|(slot, case)| *slot = Some(case));
        }
    });
    results.into_iter().map(Option::unwrap).collect()
}

/// The host's available parallelism, at most 8: what `drivers = 0`
/// resolves to.
fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// One case, sampled and judged on the calling thread.  With tracing on,
/// the clock starts before the request is built and each lap reads it once
/// and closes the next stage at the time since the previous lap, so the
/// `submit`, `sample`, `verify` and `evaluate` walls tile the `session` wall
/// (`svobs trace`'s ≥ 95% bar); off, no clock is read.  `submit` builds the
/// request and its session key, `sample` solves it, `verify` dedups the
/// candidates into verdict jobs and `evaluate` judges and tallies them.
fn run_case<M: RepairModel + ?Sized>(driver: &CaseDriver<'_, M>, entry: &SvaBugEntry) -> CaseRun {
    let verifier = driver.verifier;
    let start = driver.traced.then(Instant::now);
    let (mut walls, mut last, mut stage) = ([0u64; 5], start, 0);
    let mut lap = || {
        if let Some(last) = &mut last {
            let now = Instant::now();
            stage += 1;
            walls[stage] = now.duration_since(*last).as_nanos() as u64;
            *last = now;
        }
    };
    let request = request_for(entry, driver.config);
    let (key, requested) = (request.key(), request.samples);
    lap();
    let responses = driver.service.submit(request).expect(OPEN).wait().responses;
    let n = responses.len();
    lap();
    let candidates = distinct_candidates(verifier, entry, &responses);
    let distinct = candidates.len();
    lap();
    let c = judge_candidates(verifier, &mut JudgedCase::new(entry), candidates);
    lap();
    let record = JournalRecord {
        session: key.fold64(),
        samples: n as u64,
        candidates: distinct as u64,
        correct: c as u64,
    };
    let traced = start.map(|start| {
        walls[0] = start.elapsed().as_nanos() as u64;
        let requested = requested as u64;
        TracedCase {
            record,
            requested,
            walls,
        }
    });
    CaseRun {
        result: build_case_result(entry, n, c),
        record,
        traced,
    }
}

/// The panic message for a repair service that closed mid-evaluation.
const OPEN: &str = "serving pool open during evaluation";

/// One distinct candidate of a case: its multiplicity, key and response.
type Candidate<'r> = (usize, VerdictKey, &'r Response);

/// Dedups one case's candidates, in first-seen order, with a multiplicity
/// each.
///
/// Identical responses within a case collapse to one verdict, which keeps
/// the per-case correct count `c` independent of which thread judges.
fn distinct_candidates<'r>(
    verifier: &EvalVerifier,
    entry: &SvaBugEntry,
    responses: &'r [Response],
) -> Vec<Candidate<'r>> {
    let mut multiplicity: BTreeMap<VerdictKey, usize> = BTreeMap::new();
    let mut distinct: Vec<(VerdictKey, &Response)> = Vec::new();
    let case_state = EvalVerifier::case_state(entry);
    for response in responses {
        match multiplicity.entry(verifier.key_after(case_state, response)) {
            BTreeEntry::Occupied(mut occupied) => *occupied.get_mut() += 1,
            BTreeEntry::Vacant(vacant) => {
                distinct.push((*vacant.key(), response));
                vacant.insert(1);
            }
        }
    }
    let candidate = |(key, response)| (multiplicity[&key], key, response);
    distinct.into_iter().map(candidate).collect()
}

/// Judges one case's distinct candidates on the calling thread and folds
/// them into the correct count `c` (multiplicities included).
fn judge_candidates(
    verifier: &EvalVerifier,
    case: &mut JudgedCase<'_>,
    candidates: Vec<Candidate<'_>>,
) -> usize {
    let solved = |(count, key, response): Candidate<'_>| {
        verifier.judge(case, key, response).then_some(count)
    };
    candidates.into_iter().filter_map(solved).sum()
}

/// Folds one case's sample and correct counts into a [`CaseResult`].
fn build_case_result(entry: &SvaBugEntry, n: usize, c: usize) -> CaseResult {
    CaseResult {
        module_name: entry.module_name.clone(),
        n,
        c,
        profile: entry.profile,
        code_lines: entry.code_lines,
        human_crafted: entry.human_crafted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::human_crafted_cases;
    use std::sync::{mpsc, Arc};
    use svmodel::Response;

    fn fig1_entry() -> SvaBugEntry {
        human_crafted_cases()
            .into_iter()
            .find(|c| c.module_name == "accu_human")
            .expect("fig1 case present")
    }

    #[test]
    fn golden_fix_is_accepted_textually_and_semantically() {
        let entry = fig1_entry();
        let oracle = VerifyOracle::default();
        let exact = Response {
            bug_line_number: entry.bug_line_number,
            buggy_line: entry.buggy_line.clone(),
            fixed_line: entry.fixed_line.clone(),
            cot: None,
        };
        assert!(response_is_correct(&entry, &exact, &oracle));
    }

    #[test]
    fn semantically_equivalent_fix_on_the_right_line_is_accepted() {
        let entry = fig1_entry();
        let oracle = VerifyOracle::default();
        // `else if (end_cnt && 1)` is textually different but semantically repairs it.
        let equivalent = Response {
            bug_line_number: entry.bug_line_number,
            buggy_line: entry.buggy_line.clone(),
            fixed_line: "else if (end_cnt && 1) valid_out <= 1;".to_string(),
            cot: None,
        };
        assert!(response_is_correct(&entry, &equivalent, &oracle));
    }

    #[test]
    fn wrong_fix_is_rejected() {
        let entry = fig1_entry();
        let oracle = VerifyOracle::default();
        let wrong = Response {
            bug_line_number: entry.bug_line_number,
            buggy_line: entry.buggy_line.clone(),
            fixed_line: "else if (!end_cnt) valid_out <= 0;".to_string(),
            cot: None,
        };
        assert!(!response_is_correct(&entry, &wrong, &oracle));
        let nonsense = Response {
            bug_line_number: 0,
            buggy_line: String::new(),
            fixed_line: String::new(),
            cot: None,
        };
        assert!(!response_is_correct(&entry, &nonsense, &oracle));
    }

    /// The verifier folds a response's line number and fix straight into the
    /// key: it must equal the key of the response normalised to those two
    /// fields, which names every verdict in a snapshot.
    #[test]
    fn the_direct_key_fold_equals_the_normalised_response_key() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let text = |rng: &mut StdRng| -> String {
            let len = rng.gen_range(0..12usize);
            (0..len)
                .map(|_| char::from(rng.gen_range(b' '..=b'~')))
                .collect()
        };
        let mut rng = StdRng::seed_from_u64(0x4B3F_0D1E);
        let verifier = EvalVerifier::start(&EvalConfig::quick(1));
        let mut entry = fig1_entry();
        for _ in 0..64 {
            entry.buggy_source = text(&mut rng);
            entry.bug_line_number = rng.gen_range(0..40u32);
            entry.fixed_line = text(&mut rng);
            let case = EvalVerifier::case_state(&entry);
            for _ in 0..8 {
                let response = Response {
                    bug_line_number: rng.gen_range(0..40u32),
                    buggy_line: text(&mut rng),
                    fixed_line: text(&mut rng),
                    cot: rng.gen_bool(0.5).then(|| text(&mut rng)),
                };
                let Response {
                    bug_line_number,
                    buggy_line,
                    fixed_line,
                    cot,
                } = Response {
                    bug_line_number: response.bug_line_number,
                    buggy_line: String::new(),
                    fixed_line: response.fixed_line.clone(),
                    cot: None,
                };
                let (cot, fingerprint) = (cot.as_deref(), &verifier.check_fingerprint);
                assert_eq!(
                    verifier.key_after(case, &response),
                    verdict_key_of_fields(
                        case,
                        bug_line_number,
                        &buggy_line,
                        &fixed_line,
                        cot,
                        fingerprint
                    ),
                    "{response:?}"
                );
            }
        }
    }

    #[test]
    fn a_judged_case_builds_its_front_end_once_and_keeps_it() {
        let entry = fig1_entry();
        let oracle = VerifyOracle::default();
        let mut case = JudgedCase::new(&entry);
        let golden = Response {
            bug_line_number: entry.bug_line_number,
            buggy_line: entry.buggy_line.clone(),
            fixed_line: entry.fixed_line.clone(),
            cot: None,
        };
        assert!(case.verdict(&golden, &oracle));
        assert!(case.front_end.is_none(), "the text decides: nothing parsed");
        let wrong = Response {
            fixed_line: "else if (!end_cnt) valid_out <= 0;".to_string(),
            ..golden
        };
        assert!(!case.verdict(&wrong, &oracle));
        assert!(
            matches!(case.front_end, Some(Some(_))),
            "the front end is put back for the next candidate"
        );
    }

    #[test]
    fn apply_line_edit_preserves_indentation() {
        let source = "module m();\n  assign y = a & b;\nendmodule\n";
        let edited = apply_line_edit(source, 2, "assign y = a | b;").unwrap();
        assert!(edited.contains("  assign y = a | b;"));
        assert!(apply_line_edit(source, 99, "x").is_none());
    }

    /// [`apply_line_edit`] before it built one `String`: one `String` per
    /// source line, kept verbatim as its oracle.
    fn apply_line_edit_oracle(source: &str, line_number: u32, replacement: &str) -> Option<String> {
        let mut lines: Vec<String> = source.lines().map(|l| l.to_string()).collect();
        let idx = (line_number as usize).checked_sub(1)?;
        let original = lines.get(idx)?;
        let indent: String = original.chars().take_while(|c| c.is_whitespace()).collect();
        lines[idx] = format!("{indent}{}", replacement.trim());
        Some(lines.join("\n") + "\n")
    }

    #[test]
    fn apply_line_edit_matches_its_oracle_on_every_case_and_line() {
        let pipeline = crate::TrainConfig::quick(5).pipeline;
        let machine = svdata::run_pipeline(&pipeline).datasets.sva_bug;
        let cases = crate::SvaEval::build(machine).all();
        assert!(cases.len() > human_crafted_cases().len());
        let mut sources: Vec<String> = Vec::new();
        for case in &cases {
            let source = &case.buggy_source;
            sources.push(source.clone());
            sources.push(source.replace('\n', "\r\n"));
            sources.push(source.trim_end_matches('\n').to_string());
            sources.push(source.replace("\n  ", "\n\u{3000}\t "));
        }
        sources.extend(
            [
                "",
                "\n",
                "x",
                "\r\n",
                "a\r",
                " \u{a0}b\n\n",
                "\u{2003}é\r\nq",
            ]
            .map(String::from),
        );
        for source in &sources {
            let lines = source.lines().count() as u32;
            for line_number in 0..=lines + 1 {
                for replacement in ["  assign y = a | b;  ", "", "\u{3000}x\r"] {
                    assert_eq!(
                        apply_line_edit(source, line_number, replacement),
                        apply_line_edit_oracle(source, line_number, replacement),
                        "{source:?} line {line_number} <- {replacement:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_driver_count_is_bounded_by_the_cases() {
        // Regression: a nonzero `drivers` used to pass through unclamped, so
        // this spawned 65 536 driver threads for two cases.
        let entries: Vec<SvaBugEntry> = human_crafted_cases().into_iter().take(2).collect();
        let model = svmodel::AssertSolverModel::base(3);
        let run = |drivers| {
            let config = EvalConfig {
                drivers,
                ..EvalConfig::quick(5)
            };
            evaluate_model(&model, &entries, &config)
        };
        assert_eq!(run(1 << 16), run(1));
    }

    /// The evaluation the per-case driver must reproduce, built another way:
    /// every case sampled by one batch [`svserve::RepairService::solve_all`]
    /// (persisting like [`Evaluation`]'s pool), then each case's distinct
    /// candidates judged in corpus order on one fresh [`EvalVerifier`].
    fn batch_evaluation(
        model: &Arc<svmodel::AssertSolverModel>,
        entries: &[SvaBugEntry],
        config: &EvalConfig,
    ) -> ModelEvaluation {
        let service_config = config.service_config_for(&model.identity());
        let service = svserve::RepairService::start(Arc::clone(model), service_config);
        let requests = entries.iter().map(|e| request_for(e, config)).collect();
        let outcomes = service.solve_all(requests);
        service.shutdown();
        let verifier = EvalVerifier::start(config);
        let results = (entries.iter().zip(outcomes))
            .map(|(entry, outcome)| {
                let mut case = JudgedCase::new(entry);
                let mut candidates: BTreeMap<VerdictKey, (usize, &Response)> = BTreeMap::new();
                for response in outcome.responses.iter() {
                    let key = verifier.key_for(entry, response);
                    candidates.entry(key).or_insert((0, response)).0 += 1;
                }
                let c = (candidates.into_iter())
                    .filter(|&(key, (_, response))| verifier.judge(&mut case, key, response))
                    .map(|(_, (count, _))| count)
                    .sum();
                build_case_result(entry, outcome.responses.len(), c)
            })
            .collect();
        verifier.shutdown();
        ModelEvaluation {
            model: model.name().to_string(),
            results,
        }
    }

    /// Every file of a cache directory, by name.
    fn snapshot_files(dir: &std::path::Path) -> BTreeMap<String, Vec<u8>> {
        let files = std::fs::read_dir(dir).expect("the evaluation wrote its snapshots");
        let read = |file: std::fs::DirEntry| {
            let name = file.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(file.path()).unwrap())
        };
        files.map(|file| read(file.unwrap())).collect()
    }

    #[test]
    fn the_case_driver_matches_batch_sampling_then_judging_in_corpus_order() {
        let entries = human_crafted_cases();
        let model = Arc::new(svmodel::AssertSolverModel::base(3));
        let dir = std::env::temp_dir().join(format!(
            "assertsolver-case-driver-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        for drivers in [1, 4] {
            let config = |side: &str| EvalConfig {
                drivers,
                cache_dir: Some(dir.join(format!("{side}-{drivers}")).display().to_string()),
                ..EvalConfig::quick(11)
            };
            let (driven, batch) = (config("driven"), config("batch"));
            for run in ["cold", "warm"] {
                let ours = evaluate_model(&*model, &entries, &driven);
                let theirs = batch_evaluation(&model, &entries, &batch);
                let json =
                    |evaluation: &ModelEvaluation| serde_json::to_string(evaluation).unwrap();
                assert_eq!(json(&ours), json(&theirs), "{drivers} drivers, {run}");
                let files = |config: &EvalConfig| {
                    snapshot_files(&config.resolved_cache_dir().expect("a cache dir"))
                };
                let snapshots = files(&driven);
                assert_eq!(snapshots.len(), 2, "a response and a verdict snapshot");
                assert_eq!(snapshots, files(&batch), "{drivers} drivers, {run}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A model that records the thread of every `solve`.
    struct ThreadRecorder {
        model: svmodel::AssertSolverModel,
        threads: mpsc::Sender<std::thread::ThreadId>,
    }

    impl RepairModel for ThreadRecorder {
        fn name(&self) -> &str {
            self.model.name()
        }

        fn solve(&self, case: &CaseInput, samples: usize, temp: f64, seed: u64) -> Vec<Response> {
            self.threads.send(std::thread::current().id()).unwrap();
            self.model.solve(case, samples, temp, seed)
        }
    }

    #[test]
    fn at_one_driver_the_model_and_the_judge_run_on_one_driver_thread() {
        let entries = human_crafted_cases();
        let config = EvalConfig {
            drivers: 1,
            ..EvalConfig::quick(5)
        };
        let (solves, solved) = mpsc::channel();
        let model = ThreadRecorder {
            model: svmodel::AssertSolverModel::base(3),
            threads: solves,
        };
        let (judgments, judged) = mpsc::channel();
        let verifier = EvalVerifier {
            judged: Some(judgments),
            ..EvalVerifier::start(&config)
        };
        let run = Evaluation::new(&model, &entries, &config).verifier(&verifier);
        let evaluation = run.run().evaluation;
        let metrics = verifier.shutdown();
        assert_eq!(evaluation, evaluate_model(&model.model, &entries, &config));
        let caller = std::thread::current().id();
        let solved: Vec<_> = solved.try_iter().collect();
        let judged: Vec<_> = judged.try_iter().collect();
        if svserve::env_cache_dir().is_none() {
            assert_eq!(solved.len(), entries.len(), "one solve per case");
            assert!(!judged.is_empty(), "a cold verifier judges");
        }
        // Every miss is one judgment, tallied once, true or false.
        let judgments = judged.len() as u64;
        assert_eq!(metrics.cache_misses, judgments);
        assert_eq!(metrics.verdicts_true + metrics.verdicts_false, judgments);
        let mut threads = solved.iter().chain(judged.iter());
        let driver = *threads.next().expect("the model solved");
        assert_ne!(driver, caller, "the caller only waits");
        assert!(threads.all(|&id| id == driver));
    }

    #[test]
    fn each_twin_case_is_judged_against_its_own_golden_fix() {
        // Twins share spec, buggy source and logs — so one request key and
        // one response-cache entry — but not their golden fix.  `twin` takes
        // as its golden a line edit the model samples on `case` that is wrong
        // for `case`, so the model scores higher on the twin than on the case.
        let model = svmodel::BaselineModel::new(svmodel::BaselineKind::RandomGuess);
        let config = EvalConfig {
            ..EvalConfig::quick(19)
        };
        let case = human_crafted_cases().remove(0);
        let samples = serve_scoped(&model, config.service_config(), |service| {
            service.solve_all(vec![request_for(&case, &config)])
        });
        let oracle = VerifyOracle::new(config.check.clone());
        let edit = |r: &&Response| r.bug_line_number != 0 && !r.fixed_line.trim().is_empty();
        let wrong = (samples[0].responses.iter())
            .find(|r| edit(r) && !response_is_correct(&case, r, &oracle))
            .expect("the model proposes a wrong line edit")
            .clone();
        let twin = SvaBugEntry {
            bug_line_number: wrong.bug_line_number,
            fixed_line: wrong.fixed_line,
            ..case.clone()
        };
        let evaluate = |entries: &[SvaBugEntry]| evaluate_model(&model, entries, &config).results;
        let both = evaluate(&[case.clone(), twin.clone()]);
        assert_eq!(both, [evaluate(&[case]), evaluate(&[twin])].concat());
        assert!(both[1].c > both[0].c, "the wrong fix solves the twin");
    }

    #[test]
    fn warm_verdict_cache_reuses_verdicts_without_changing_results() {
        let entries: Vec<SvaBugEntry> = human_crafted_cases().into_iter().take(4).collect();
        let model = svmodel::AssertSolverModel::base(3);
        let config = EvalConfig {
            ..EvalConfig::quick(7)
        };
        let verifier = EvalVerifier::start(&config);
        let cold = evaluate_model_with(&model, &entries, &config, &verifier);
        let cold_metrics = verifier.metrics();
        let warm = evaluate_model_with(&model, &entries, &config, &verifier);
        let warm_metrics = verifier.shutdown();
        assert_eq!(cold, warm, "a pre-warmed verdict cache changed results");
        assert!(
            warm_metrics.cache_hits > cold_metrics.cache_hits,
            "second evaluation must replay verdicts from the cache"
        );
        // The warm pass re-judges nothing: every verdict job it added was a hit.
        assert_eq!(warm_metrics.cache_misses, cold_metrics.cache_misses);
    }

    /// A model whose identity counts how often it is derived.
    struct CountingModel(std::sync::atomic::AtomicUsize);

    impl RepairModel for CountingModel {
        fn name(&self) -> &str {
            "counting"
        }

        fn identity(&self) -> String {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            "counting [1]".to_string()
        }

        fn solve(&self, _: &CaseInput, samples: usize, _: f64, _: u64) -> Vec<Response> {
            let unanswered = Response {
                bug_line_number: 0,
                buggy_line: String::new(),
                fixed_line: String::new(),
                cot: None,
            };
            vec![unanswered; samples]
        }
    }

    #[test]
    fn model_identity_is_derived_only_for_a_reader() {
        let entries: Vec<SvaBugEntry> = human_crafted_cases().into_iter().take(2).collect();
        let model = CountingModel(Default::default());
        let identities = || model.0.load(std::sync::atomic::Ordering::SeqCst);
        if svserve::env_cache_dir().is_none() && svserve::env_journal_dir().is_none() {
            let plain = EvalConfig::quick(3);
            Evaluation::new(&model, &entries, &plain).run();
            assert_eq!(identities(), 0, "nothing reads the identity of a plain run");
        }

        let dir =
            std::env::temp_dir().join(format!("assertsolver-identity-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sub = |name: &str| Some(dir.join(name).display().to_string());
        let config = EvalConfig {
            cache_dir: sub("cache"),
            journal_dir: sub("journal"),
            ..EvalConfig::quick(3)
        };
        let before = identities();
        let run = Evaluation::new(&model, &entries, &config).run();
        assert_eq!(
            identities() - before,
            1,
            "one derivation serves every reader"
        );
        for (facility, prefix) in [("cache", "responses-"), ("journal", "journal-")] {
            let names: Vec<String> = std::fs::read_dir(dir.join(facility))
                .expect("the facility wrote its directory")
                .map(|file| file.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            assert!(
                names.iter().any(|name| name.starts_with(prefix)),
                "{facility}: {names:?}"
            );
        }
        assert!(
            run.journal.is_some(),
            "a resolved journal directory renders one"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_start_from_disk_is_byte_identical_to_cold_start() {
        let dir = std::env::temp_dir().join(format!(
            "assertsolver-warm-start-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let entries: Vec<SvaBugEntry> = human_crafted_cases().into_iter().take(3).collect();
        let model = svmodel::AssertSolverModel::base(3);
        let config = EvalConfig {
            cache_dir: Some(dir.display().to_string()),
            ..EvalConfig::quick(13)
        };

        // Cold run: no snapshots exist yet; pools flush them on the way out.
        let cold = evaluate_model(&model, &entries, &config);
        let verdict_snapshot = config
            .verify_config()
            .persist
            .expect("verdict persistence configured")
            .path;
        assert!(
            verdict_snapshot.exists(),
            "verdict snapshot must be written"
        );
        let response_snapshot = config
            .service_config_for(&model.identity())
            .persist
            .expect("response persistence configured")
            .path;
        assert!(
            response_snapshot.exists(),
            "response snapshot must be written"
        );

        // Warm run with entirely fresh pools: everything preloads from disk.
        let verifier = EvalVerifier::start(&config);
        let warm = evaluate_model_with(&model, &entries, &config, &verifier);
        let metrics = verifier.metrics();
        verifier.shutdown();
        assert_eq!(cold, warm, "warm-start evaluation must be byte-identical");
        assert!(
            metrics.snapshot_loaded_entries > 0,
            "verdict snapshot must preload"
        );
        assert!(
            metrics.cache_hits > 0,
            "warm run must hit the verdict cache"
        );
        assert!(
            metrics.warm_hits > 0 && metrics.warm_hit_rate > 0.0,
            "verdict hits must be attributed to the snapshot"
        );
        assert_eq!(
            metrics.cache_misses, 0,
            "a fully warm verdict cache re-judges nothing"
        );

        // A different CheckConfig resolves its own coexisting snapshot file, so
        // it cold-starts without loading stale verdicts — and without touching
        // the original protocol's snapshot.
        let reconfigured = EvalConfig {
            check: CheckConfig {
                depth: config.check.depth + 1,
                ..config.check.clone()
            },
            ..config.clone()
        };
        assert_ne!(
            reconfigured.verify_config().persist.unwrap().path,
            verdict_snapshot,
            "a changed CheckConfig must key a different verdict file"
        );
        let stale_verifier = EvalVerifier::start(&reconfigured);
        let stale_metrics = stale_verifier.metrics();
        stale_verifier.shutdown();
        assert_eq!(stale_metrics.snapshot_loaded_entries, 0);
        assert!(
            verdict_snapshot.exists(),
            "the original protocol's snapshot must survive"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn differently_seeded_models_never_share_a_response_snapshot() {
        // base(3) and base(11) share a display name but have different noisy
        // policy weights; their identities (and so their snapshot files and
        // headers) must differ, or a warm start would replay the wrong model's
        // responses.
        let a = svmodel::AssertSolverModel::base(3);
        let b = svmodel::AssertSolverModel::base(11);
        assert_eq!(a.name(), b.name());
        assert_ne!(a.identity(), b.identity());
        assert_eq!(
            a.identity(),
            svmodel::AssertSolverModel::base(3).identity(),
            "identity must be stable for identical weights"
        );
        let config = EvalConfig {
            cache_dir: Some("/tmp/x".into()),
            ..EvalConfig::quick(1)
        };
        let spec_a = config.service_config_for(&a.identity()).persist.unwrap();
        let spec_b = config.service_config_for(&b.identity()).persist.unwrap();
        assert_ne!(spec_a.path, spec_b.path);
        assert_ne!(spec_a.model, spec_b.model);
    }

    #[test]
    fn cache_dir_resolution_prefers_the_explicit_field() {
        let explicit = EvalConfig {
            cache_dir: Some("/tmp/explicit".into()),
            ..EvalConfig::quick(1)
        };
        assert_eq!(
            explicit.resolved_cache_dir(),
            Some(std::path::PathBuf::from("/tmp/explicit"))
        );
        // Blank strings resolve like None (falling through to the environment).
        let blank = EvalConfig {
            cache_dir: Some("   ".into()),
            ..EvalConfig::quick(1)
        };
        assert_eq!(blank.resolved_cache_dir(), svserve::env_cache_dir());
        // Persist specs land in the implied pool configs.
        let spec = explicit.service_config_for("AssertSolver (base)").persist;
        let spec = spec.expect("response persistence configured");
        let path = spec.path.display().to_string();
        assert!(
            path.starts_with("/tmp/explicit/responses-assertsolver--base-"),
            "unexpected snapshot path {path}"
        );
        assert!(path.ends_with(".json"));
        assert_eq!(spec.model, "AssertSolver (base)");
        // Distinct identities never share a snapshot path, even when they slug
        // identically (the hash suffix disambiguates).
        assert_ne!(
            explicit
                .service_config_for("Base model")
                .persist
                .unwrap()
                .path,
            explicit
                .service_config_for("base_model")
                .persist
                .unwrap()
                .path,
        );
        let verdict_spec = explicit
            .verify_config()
            .persist
            .expect("verdict persistence");
        let verdict_path = verdict_spec.path.display().to_string();
        assert!(
            verdict_path.starts_with("/tmp/explicit/verdicts-") && verdict_path.ends_with(".json"),
            "unexpected verdict snapshot path {verdict_path}"
        );
        assert_eq!(
            verdict_spec.fingerprint,
            explicit.check.fingerprint().to_vec()
        );
        // Different bounded-check parameters key different, coexisting files;
        // different seeds key different response files.
        let deeper = EvalConfig {
            check: CheckConfig {
                depth: explicit.check.depth + 1,
                ..explicit.check.clone()
            },
            ..explicit.clone()
        };
        assert_ne!(
            deeper.verify_config().persist.unwrap().path,
            verdict_spec.path
        );
        let reseeded = EvalConfig {
            seed: explicit.seed + 1,
            ..explicit.clone()
        };
        assert_ne!(
            reseeded.service_config_for("m").persist.unwrap().path,
            explicit.service_config_for("m").persist.unwrap().path,
            "a changed seed must key a different response file"
        );
        // Without a field or environment, nothing persists.
        let none = EvalConfig::quick(1);
        if svserve::env_cache_dir().is_none() {
            assert_eq!(none.service_config_for("m").persist, None);
            assert_eq!(none.verify_config().persist, None);
        }
    }

    #[test]
    fn histogram_and_breakdowns_are_consistent() {
        let eval = ModelEvaluation {
            model: "test".into(),
            results: vec![
                CaseResult {
                    module_name: "a".into(),
                    n: 4,
                    c: 4,
                    profile: svmutate::BugProfile::new(
                        svmutate::BugKind::Op,
                        svmutate::Structural::Cond,
                        svmutate::Visibility::Direct,
                    ),
                    code_lines: 30,
                    human_crafted: false,
                },
                CaseResult {
                    module_name: "b".into(),
                    n: 4,
                    c: 0,
                    profile: svmutate::BugProfile::new(
                        svmutate::BugKind::Value,
                        svmutate::Structural::NonCond,
                        svmutate::Visibility::Indirect,
                    ),
                    code_lines: 120,
                    human_crafted: true,
                },
            ],
        };
        let pk = eval.passk();
        assert!((pk.pass1 - 0.5).abs() < 1e-12);
        assert_eq!(eval.histogram(4), vec![1, 0, 0, 0, 1]);
        assert_eq!(eval.passk_subset(true).problems, 1);
        assert_eq!(eval.by_bug_type()["Op"].problems, 1);
        assert_eq!(eval.by_length_bin().len(), 2);
    }
}
