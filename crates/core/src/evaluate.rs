//! Model evaluation: sampling, correctness checking, pass@k and breakdowns.
//!
//! A response counts as correct when it "successfully solves the assertion failure":
//! either it reproduces the golden fix textually, or applying its proposed line edit to
//! the buggy design makes every assertion pass under the bounded checker.  This is the
//! same acceptance criterion the paper uses for its pass@k numbers.

use crate::passk::PassK;
use serde::{Deserialize, Serialize};
use std::collections::btree_map::Entry as BTreeEntry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;
use svdata::SvaBugEntry;
use svmodel::{CaseInput, RepairModel, Response};
use svserve::env::path_knob;
use svserve::persist::{fnv64, write_atomic};
use svserve::stage as trace_stage;
use svserve::{
    env_cache_dir, env_drivers, env_journal_dir, env_profile_dir, render_journal, serve_scoped,
    verdict_key, write_journal, BackendSpec, CaseKey, CollapsedProfile, JournalHeader, JournalSink,
    JournalSpec, JudgeReport, MetricClass, ModelRouter, PersistSpec, RepairRequest, RepairTicket,
    RouteAttempt, RouteMetrics, RoutePolicy, RouteTicket, RouterConfig, ScopedService,
    ServiceConfig, SessionPhase, SessionSpan, ShardFleet, TelemetryHandle, TraceContext,
    TraceHandle, TraceSpan, TracerHandle, VerdictKey, VerifyConfig, VerifyMetrics, VerifyPool,
    VerifyRequest, VerifyTicket, DEFAULT_COMPACT_AFTER_RUNS, DEFAULT_DRIVERS, JOURNAL_DIR_ENV,
    SHARD_SOCKETS_ENV,
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
    /// Worker threads for the repair service that samples the model
    /// (0 = auto-detect from available parallelism).  Results are identical at any
    /// worker count; this only changes wall-clock time.
    pub workers: usize,
    /// Worker threads for the verification offload pool that judges candidates
    /// (0 = auto: the `ASSERTSOLVER_VERIFY_WORKERS` environment override, else the
    /// `svserve::VerifyConfig` default).  Results are identical at any worker count.
    pub verify_workers: usize,
    /// Threads that drive the cases through submit, sample, verify and
    /// evaluate (0 = auto: the `ASSERTSOLVER_DRIVERS` environment override,
    /// else `svserve::DEFAULT_DRIVERS`), never more than there are cases.
    /// Each thread keeps every case of its share in flight at once, so one
    /// is enough to keep the pools busy.  Results are identical at any
    /// driver count.
    pub drivers: usize,
    /// Directory for persistent cache snapshots (`None` = the
    /// `ASSERTSOLVER_CACHE_DIR` environment override, else no persistence).  When
    /// resolved, both the response and the verdict cache spill to disk there and
    /// preload at the next evaluation, so repeated runs skip resolved cases; a
    /// warm run's `ModelEvaluation` is byte-identical to a cold run's.
    pub cache_dir: Option<String>,
    /// Directory for session-journal artifacts (`None` = the
    /// `ASSERTSOLVER_JOURNAL_DIR` environment override, else no journaling).
    /// When resolved, [`evaluate_model`] records every session's deterministic
    /// events and writes a checksummed JSONL journal there; journal bytes are
    /// identical at any worker/driver count and with warm or cold caches.
    pub journal_dir: Option<String>,
    /// Remote shard fleet to sample against (`None` = the
    /// `ASSERTSOLVER_SHARD_SOCKETS` environment override, else in-process
    /// serving).  When resolved, [`evaluate_model`] submits every case over
    /// the wire to `shard-serve` processes instead of starting a local repair
    /// service; results are byte-identical to the in-process run as long as
    /// the shards serve the same model and seed (the `Hello` fingerprint
    /// handshake enforces the model half).  Verification always runs locally.
    pub shards: Option<ShardSpec>,
    /// Directory for collapsed-stack profile artifacts (`None` = the
    /// `ASSERTSOLVER_PROFILE_DIR` environment override, else no profile
    /// write).  When resolved, an [`Evaluation`] with telemetry on writes its
    /// flamegraph-compatible `profile-<slug>-<hash>.folded` there, and one
    /// with tracing on its `trace-<slug>-<hash>.jsonl` (best effort, like the
    /// cache flush paths).
    pub profile_dir: Option<String>,
    /// Bounded-check configuration used to decide whether a repair solves the failure.
    pub check: CheckConfig,
}

/// Where a remote shard fleet lives: one unix-socket path per shard process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// One `shard-serve` socket path per shard; requests place onto shards by
    /// content hash (`svserve::shard_for_key`), so the paths' *order* matters
    /// — every client of one fleet must list them identically.
    pub sockets: Vec<String>,
    /// Per-call read/write timeout in milliseconds; a wedged shard degrades to
    /// a counted error after this long, never a hung evaluation.
    pub timeout_ms: u64,
}

impl ShardSpec {
    /// A spec with the default 30-second call timeout.
    pub fn new(sockets: Vec<String>) -> Self {
        Self {
            sockets,
            timeout_ms: 30_000,
        }
    }
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
            shards: None,
            profile_dir: None,
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
    pub fn resolved_cache_dir(&self) -> Option<std::path::PathBuf> {
        resolve_dir(&self.cache_dir, env_cache_dir)
    }

    /// The journal directory this protocol records to, if any: the explicit
    /// [`EvalConfig::journal_dir`] field, else the `ASSERTSOLVER_JOURNAL_DIR`
    /// environment override (`svserve::JOURNAL_DIR_ENV`).
    pub fn resolved_journal_dir(&self) -> Option<std::path::PathBuf> {
        resolve_dir(&self.journal_dir, env_journal_dir)
    }

    /// The profile directory this protocol writes collapsed-stack artifacts
    /// to, if any: the explicit [`EvalConfig::profile_dir`] field, else the
    /// `ASSERTSOLVER_PROFILE_DIR` environment override
    /// (`svserve::PROFILE_DIR_ENV`).
    pub fn resolved_profile_dir(&self) -> Option<std::path::PathBuf> {
        resolve_dir(&self.profile_dir, env_profile_dir)
    }

    /// The remote shard fleet this protocol samples against, if any: the
    /// explicit [`EvalConfig::shards`] field, else the
    /// `ASSERTSOLVER_SHARD_SOCKETS` environment override
    /// (`svserve::SHARD_SOCKETS_ENV`, comma-separated socket paths).
    pub fn resolved_shards(&self) -> Option<ShardSpec> {
        self.shards
            .clone()
            .or_else(|| svserve::env_shard_sockets().map(ShardSpec::new))
    }

    /// The repair-service configuration this protocol implies.
    pub fn service_config(&self) -> ServiceConfig {
        let workers = if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8)
        } else {
            self.workers
        };
        ServiceConfig::default()
            .with_workers(workers)
            .with_seed(self.seed)
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
        let config = self.service_config();
        match self.resolved_cache_dir() {
            Some(dir) => {
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

    /// The verify-pool configuration this protocol implies, including
    /// verdict-cache persistence when a cache directory is resolved.
    ///
    /// `verify_workers == 0` defers to [`VerifyConfig::default`], which honours the
    /// `ASSERTSOLVER_VERIFY_WORKERS` environment override; an explicit setting wins
    /// over both.  The verdict snapshot (`verdicts-<hash>.json`, the hash
    /// covering [`CheckConfig::fingerprint`]) is fingerprinted by the same bytes
    /// — verdicts are pure functions of `(case, response, CheckConfig)` and
    /// independent of which model proposed the response, so one file is shared
    /// across models (header model `"-"`), while evaluations with different
    /// bounded-check parameters keep separate coexisting files instead of
    /// rejecting and overwriting each other's.
    pub fn verify_config(&self) -> VerifyConfig {
        let base = VerifyConfig::default();
        let base = if self.verify_workers == 0 {
            base
        } else {
            base.with_workers(self.verify_workers)
        };
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
    pub fn by_bug_type(&self) -> BTreeMap<String, PassK> {
        let mut out = BTreeMap::new();
        for label in [
            "Direct", "Indirect", "Var", "Value", "Op", "Cond", "Non_cond",
        ] {
            let counts = self.counts(|r| r.profile.labels().contains(&label));
            if !counts.is_empty() {
                out.insert(label.to_string(), PassK::from_counts(&counts));
            }
        }
        out
    }

    /// pass@k per Table-II code-length bin.
    pub fn by_length_bin(&self) -> Vec<(String, PassK)> {
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

    /// Number of cases with at least one correct sample (`c > 0`) — the
    /// "solved" count ladder comparisons and the escalation example report.
    pub fn solved_cases(&self) -> usize {
        self.results.iter().filter(|r| r.c > 0).count()
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
pub fn response_is_correct(
    entry: &SvaBugEntry,
    response: &Response,
    oracle: &VerifyOracle,
) -> bool {
    let line_matches = response.bug_line_number == entry.bug_line_number;
    if line_matches && response.fixed_line.trim() == entry.fixed_line.trim() {
        return true;
    }
    if response.bug_line_number == 0 || response.fixed_line.trim().is_empty() {
        return false;
    }
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
    if svparse::emit_module(&repaired) == entry.buggy_source {
        return false;
    }
    oracle.repair_solves_failure(&repaired)
}

/// Replaces the 1-based line `line_number` of `source` with `replacement`, preserving
/// the original indentation.
pub fn apply_line_edit(source: &str, line_number: u32, replacement: &str) -> Option<String> {
    let mut lines: Vec<String> = source.lines().map(|l| l.to_string()).collect();
    let idx = (line_number as usize).checked_sub(1)?;
    let original = lines.get(idx)?;
    let indent: String = original.chars().take_while(|c| c.is_whitespace()).collect();
    lines[idx] = format!("{indent}{}", replacement.trim());
    Some(lines.join("\n") + "\n")
}

/// A persistent verification backend for model evaluation.
///
/// Wraps an `svserve::VerifyPool` whose judge is [`response_is_correct`] under a
/// [`VerifyOracle`] built from the evaluation's [`CheckConfig`].  Verdict-cache keys
/// are `hash(case fingerprint, response, CheckConfig fingerprint)`, so keeping one
/// verifier alive across several [`evaluate_model_with`] calls replays already-judged
/// candidates from the cache — re-evaluating a corpus the pool has seen is pure
/// cache hits, and the verdicts (being pure functions) are identical either way.
///
/// When the evaluation resolves a cache directory ([`EvalConfig::cache_dir`] or
/// `ASSERTSOLVER_CACHE_DIR`), the verdict cache additionally persists across
/// *processes*: it preloads from its `verdicts-<hash>.json` at start and flushes back on
/// shutdown/drop (or an explicit [`EvalVerifier::flush`]).
pub struct EvalVerifier {
    pool: VerifyPool<SvaBugEntry>,
    check_fingerprint: [u8; 28],
}

impl EvalVerifier {
    /// Starts the verify workers for the given protocol.
    pub fn start(config: &EvalConfig) -> Self {
        Self::start_instrumented(config, TracerHandle::off(), &TelemetryHandle::off())
    }

    /// Starts the verify workers with both observability hooks installed: the
    /// journal tracer (admit and cache/panic diagnostics land in the session
    /// journal) and a telemetry registry (the pool records its
    /// `verify.queue_wait` / `verify.verdict.latency` histograms into it).
    /// With both hooks off this is exactly [`EvalVerifier::start`].
    pub fn start_instrumented(
        config: &EvalConfig,
        tracer: TracerHandle,
        telemetry: &TelemetryHandle,
    ) -> Self {
        let oracle = VerifyOracle::new(config.check.clone());
        let judge = move |entry: &SvaBugEntry, response: &Response| {
            response_is_correct(entry, response, &oracle)
        };
        Self {
            pool: VerifyPool::start(
                Arc::new(judge),
                config
                    .verify_config()
                    .with_tracer(tracer)
                    .with_telemetry(telemetry.clone()),
            ),
            check_fingerprint: config.check.fingerprint(),
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
        let normalized = Response {
            bug_line_number: response.bug_line_number,
            buggy_line: String::new(),
            fixed_line: response.fixed_line.clone(),
            cot: None,
        };
        verdict_key(
            &[
                entry.buggy_source.as_bytes(),
                &entry.bug_line_number.to_le_bytes(),
                entry.fixed_line.as_bytes(),
            ],
            &normalized,
            &self.check_fingerprint,
        )
    }

    /// Takes a metrics snapshot of the verification stage.
    pub fn metrics(&self) -> VerifyMetrics {
        self.pool.metrics()
    }

    /// Writes the verdict cache to its configured snapshot path, returning the
    /// number of entries written (`Ok(0)` when no cache directory is resolved).
    /// Shutdown and drop flush automatically; this is for long-lived verifiers
    /// that want durability between evaluations.
    pub fn flush(&self) -> std::io::Result<usize> {
        self.pool.flush()
    }

    /// Stops the verify workers, flushes the verdict snapshot and returns the
    /// final metrics.
    pub fn shutdown(self) -> VerifyMetrics {
        self.pool.shutdown()
    }
}

/// What a session journal was recorded over: enough identity to *rebuild* the
/// evaluation (`svreplay replay`) and enough fingerprints to refuse a replay
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
    pub corpus_fnv: String,
    /// Samples per case (`n`).
    pub samples: u64,
    /// Sampling temperature in milli-units (`0.2` → `200`).
    pub temperature_milli: u64,
    /// Evaluation seed.
    pub seed: u64,
    /// FNV-1a/64 of the bounded-check fingerprint, in hex.
    pub check_fnv: String,
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
        Self {
            model: model_identity.to_string(),
            model_tag: model_tag.to_string(),
            corpus_tag: corpus_tag.to_string(),
            corpus_fnv: format!("{:016x}", corpus_fingerprint(entries)),
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
pub fn corpus_fingerprint(entries: &[SvaBugEntry]) -> u64 {
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

/// `<dir>/<kind>-<model slug>-<hash>.<ext>`: where a run's journal, trace or
/// profile artifact goes.  The hash covers model identity, protocol seed and
/// corpus, so runs that differ in any of them never share a file.
fn artifact_path<M: RepairModel + ?Sized>(
    dir: &std::path::Path,
    kind: &str,
    ext: &str,
    model: &M,
    entries: &[SvaBugEntry],
    config: &EvalConfig,
) -> std::path::PathBuf {
    let identity = model.identity();
    let mut keyed = identity.as_bytes().to_vec();
    keyed.push(0);
    keyed.extend_from_slice(&config.seed.to_le_bytes());
    keyed.extend_from_slice(&corpus_fingerprint(entries).to_le_bytes());
    let hash = fnv64(&keyed) as u32;
    dir.join(format!("{kind}-{}-{hash:08x}.{ext}", file_slug(&identity)))
}

/// The branch decision behind [`evaluate_model`], pure so a test can pin it
/// without process env: whether to journal, and the warning to print.  A
/// resolved journal directory turns the journal on unless shards resolved
/// too — a fleet run's sessions happen on the shards and leave no local
/// journal — and then the warning names both knobs.
fn journal_decision(shards: bool, journal_dir: bool) -> (bool, Option<String>) {
    let warning = (shards && journal_dir).then(|| {
        format!(
            "warning: {SHARD_SOCKETS_ENV} and {JOURNAL_DIR_ENV} (or EvalConfig::shards and \
             EvalConfig::journal_dir) are both set; a fleet run keeps no local journal, so none \
             is written"
        )
    });
    (journal_dir && !shards, warning)
}

/// Evaluates a model over a set of cases: an [`Evaluation`] with the
/// facilities the protocol's knobs turn on, judged by a fresh
/// [`EvalVerifier`].  To share a warm verdict cache across several
/// evaluations, start an [`EvalVerifier`] once and call
/// [`evaluate_model_with`].
///
/// * [`EvalConfig::shards`] (or `ASSERTSOLVER_SHARD_SOCKETS`) samples every
///   case on that remote fleet ([`Evaluation::fleet`]).
/// * [`EvalConfig::journal_dir`] (or `ASSERTSOLVER_JOURNAL_DIR`) records a
///   session journal and writes it to `journal-<slug>-<hash>.jsonl` there as
///   a record-only artifact (empty rebuild tags; `svobs record` writes
///   replayable ones).  A fleet run keeps no local journal: with both set, a
///   warning names the two knobs.
/// * `ASSERTSOLVER_TRACE` collects the trace forest and writes it to
///   `trace-<slug>-<hash>.jsonl` in the profile directory
///   ([`EvalConfig::profile_dir`] or `ASSERTSOLVER_PROFILE_DIR`) when one
///   resolves.  Tracing composes with either of the above.
pub fn evaluate_model<M: RepairModel + Sync + ?Sized>(
    model: &M,
    entries: &[SvaBugEntry],
    config: &EvalConfig,
) -> ModelEvaluation {
    let shards = config.resolved_shards();
    let journal_dir = config.resolved_journal_dir().is_some();
    let (journal, warning) = journal_decision(shards.is_some(), journal_dir);
    if let Some(warning) = warning {
        eprintln!("{warning}");
    }
    let fleet = shards.map(|spec| {
        let timeout = std::time::Duration::from_millis(spec.timeout_ms.max(1));
        ShardFleet::connect_unix(&spec.sockets, Some(&model.identity()), timeout)
    });
    let manifest =
        journal.then(|| JournalManifest::for_protocol("", "", &model.identity(), entries, config));
    let trace = TraceHandle::from_env();
    let mut evaluation = Evaluation::new(model, entries, config).trace(&trace);
    (evaluation.fleet, evaluation.journal) = (fleet.as_ref(), manifest.as_ref());
    evaluation.run().evaluation
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

/// [`Evaluation`] with a telemetry registry threaded through every serving
/// layer.
pub fn evaluate_model_instrumented<M: RepairModel + Sync + ?Sized>(
    model: &M,
    entries: &[SvaBugEntry],
    config: &EvalConfig,
    telemetry: &TelemetryHandle,
) -> ModelEvaluation {
    let evaluation = Evaluation::new(model, entries, config).telemetry(telemetry);
    evaluation.run().evaluation
}

/// [`Evaluation`] with a borrowed verifier and the observability handles:
/// `tracer` is a journal tracer whose sink the caller drains (it sees the
/// repair service and every case's span; the verifier journals to the
/// tracer it was started with).
pub fn evaluate_model_observed<M: RepairModel + Sync + ?Sized>(
    model: &M,
    entries: &[SvaBugEntry],
    config: &EvalConfig,
    verifier: &EvalVerifier,
    tracer: &TracerHandle,
    telemetry: &TelemetryHandle,
    trace: &TraceHandle,
) -> ModelEvaluation {
    let mut evaluation = Evaluation::new(model, entries, config).telemetry(telemetry);
    (evaluation.tracer, evaluation.trace) = (tracer.clone(), trace.clone());
    evaluation.verifier(verifier).run().evaluation
}

/// One run of the paper's protocol — `n` samples per case at the configured
/// temperature, each judged by the bounded checker — with the facilities that
/// observe or redirect it switched on one method at a time.
///
/// No facility changes the [`ModelEvaluation`]: sampler seeds derive from case
/// content and verdicts are pure functions of `(case, response, CheckConfig)`,
/// so it is identical at any worker/verify-worker/driver count, with warm or
/// cold caches, in process or over a fleet.  A facility that is off costs one
/// branch per instrumented site.  With the journal on, the repair service
/// and one [`SessionSpan`] per case journal into a fresh sink; tracing grows
/// one five-span tree per case (a `session` root over `submit` → `sample` →
/// `verify` → `evaluate` laps that tile it), byte-identical in process and
/// over a fleet ([`svserve::trace`]).
///
/// Artifacts, best effort: with the journal on, `journal-<slug>-<hash>.jsonl`
/// in the journal directory; in the profile directory, `trace-….jsonl` when
/// the trace handle holds spans and `profile-….folded` with telemetry on.
/// Each directory resolves from its [`EvalConfig`] field, else the
/// environment, and is read only when a facility writing there is on.
pub struct Evaluation<'a, M: ?Sized> {
    model: &'a M,
    entries: &'a [SvaBugEntry],
    config: &'a EvalConfig,
    verifier: Option<&'a EvalVerifier>,
    journal: Option<&'a JournalManifest>,
    tracer: TracerHandle,
    trace: TraceHandle,
    telemetry: TelemetryHandle,
    fleet: Option<&'a ShardFleet>,
}

/// What [`Evaluation::run`] returns.
#[derive(Debug)]
pub struct EvaluationRun {
    /// The pass@k data.
    pub evaluation: ModelEvaluation,
    /// The rendered session journal, when [`Evaluation::journal`] was on.
    pub journal: Option<String>,
    /// The `evaluate;{setup,sessions,report}` profile of this run, when
    /// [`Evaluation::telemetry`] was on.
    pub profile: Option<CollapsedProfile>,
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
            tracer: TracerHandle::off(),
            trace: TraceHandle::off(),
            telemetry: TelemetryHandle::off(),
            fleet: None,
        }
    }

    /// Judges through `verifier` (one with a warm verdict cache, say) instead
    /// of a fresh one; it keeps the tracer and telemetry it was started with.
    pub fn verifier(mut self, verifier: &'a EvalVerifier) -> Self {
        self.verifier = Some(verifier);
        self
    }

    /// Records a session journal whose header carries `manifest`.
    pub fn journal(mut self, manifest: &'a JournalManifest) -> Self {
        self.journal = Some(manifest);
        self
    }

    /// Collects the per-case trace trees into `trace`; the caller drains it.
    pub fn trace(mut self, trace: &TraceHandle) -> Self {
        self.trace = trace.clone();
        self
    }

    /// Records into `telemetry`'s registry: the pool, runtime and span
    /// histograms, the tiled `eval.stage.*` timers and the deterministic
    /// `eval.{cases,samples,correct}` tallies.
    pub fn telemetry(mut self, telemetry: &TelemetryHandle) -> Self {
        self.telemetry = telemetry.clone();
        self
    }

    /// Samples on `fleet`, whose shards serve this model at this seed;
    /// verification stays local, and a case whose shard is down, busy or
    /// corrupt degrades to `n = 0, c = 0` (counted in the fleet metrics).
    pub fn fleet(mut self, fleet: &'a ShardFleet) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// Runs the evaluation.
    ///
    /// # Panics
    ///
    /// Panics if both [`Evaluation::fleet`] and [`Evaluation::journal`] are
    /// on: a fleet run's sessions happen on the shards and leave no local
    /// journal.
    pub fn run(self) -> EvaluationRun {
        assert!(
            self.fleet.is_none() || self.journal.is_none(),
            "a fleet evaluation keeps no local journal"
        );
        let sink = self
            .journal
            .map(|_| JournalSink::shared(JournalSpec::default()));
        let tracer = sink
            .as_ref()
            .map_or(self.tracer.clone(), JournalSink::handle);
        let owned = self.verifier.is_none().then(|| {
            EvalVerifier::start_instrumented(self.config, tracer.clone(), &self.telemetry)
        });
        let verifier = self.verifier.or(owned.as_ref()).expect("a verifier");
        let mut stages = StageClock {
            telemetry: &self.telemetry,
            clock: Instant::now(),
            laps: 0,
            profile: CollapsedProfile::new(),
        };
        let results = self.sample(verifier, &tracer, &mut stages);
        let evaluation = ModelEvaluation {
            model: self.model.name().to_string(),
            results,
        };
        // Workload tallies are pure functions of `(model, corpus, protocol)` —
        // the registry's deterministic plane, byte-stable at any driver/worker
        // count and cache temperature (unlike the volatile stage timers).
        let results = &evaluation.results;
        for (name, total) in [
            ("eval.cases", results.len()),
            ("eval.samples", results.iter().map(|r| r.n).sum()),
            ("eval.correct", results.iter().map(|r| r.c).sum()),
        ] {
            if let Some(metric) = self.telemetry.counter(name, MetricClass::Deterministic) {
                metric.add(total as u64);
            }
        }
        stages.lap();
        if let Some(owned) = owned {
            owned.shutdown();
        }
        let journal = self.journal.zip(sink).map(|(manifest, sink)| {
            let header = JournalHeader::expected(&manifest.render());
            let payload = serde_json::to_string(&evaluation).expect("evaluation serializes");
            render_journal(&header, &sink.drain_sorted(), &payload)
        });
        let profile = self.telemetry.is_on().then_some(stages.profile);
        self.write_artifacts(journal.as_deref(), profile.as_ref());
        EvaluationRun {
            evaluation,
            journal,
            profile,
        }
    }

    /// Samples and judges every case on the one case driver ([`drive_cases`])
    /// as the run's `sessions` stage: on the fleet when one is set, else on an
    /// in-process repair pool.
    fn sample(
        &self,
        verifier: &EvalVerifier,
        tracer: &TracerHandle,
        stages: &mut StageClock,
    ) -> Vec<CaseResult> {
        let mut drive = |sampler: Sampler<'_>| {
            stages.lap();
            let judged = drive_cases(sampler, verifier, self.entries, self.config, &self.trace);
            stages.lap();
            judged.into_iter().map(|(result, _)| result).collect()
        };
        if let Some(fleet) = self.fleet {
            return drive(Sampler::Fleet(fleet));
        }
        let service_config = (self.config)
            .service_config_for(&self.model.identity())
            .with_tracer(tracer.clone())
            .with_telemetry(self.telemetry.clone());
        serve_scoped(self.model, service_config, |service| {
            drive(Sampler::Local(service, tracer, &self.telemetry))
        })
    }

    /// Writes the artifacts of the facilities that are on, best effort: an
    /// unwritable directory must not fail the evaluation itself.
    fn write_artifacts(&self, journal: Option<&str>, profile: Option<&CollapsedProfile>) {
        let path = |dir: &std::path::Path, kind: &str, ext: &str| {
            artifact_path(dir, kind, ext, self.model, self.entries, self.config)
        };
        if let Some(rendered) = journal {
            if let Some(dir) = self.config.resolved_journal_dir() {
                let _ = write_journal(&path(&dir, "journal", "jsonl"), rendered);
            }
        }
        if !self.trace.is_on() && profile.is_none() {
            return;
        }
        let Some(dir) = self.config.resolved_profile_dir() else {
            return;
        };
        let forest = self.trace.forest();
        if !forest.is_empty() {
            let _ = write_atomic(&path(&dir, "trace", "jsonl"), &forest.render_jsonl());
        }
        if let Some(profile) = profile {
            let _ = write_atomic(&path(&dir, "profile", "folded"), &profile.render());
        }
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

/// The tiled `eval.stage.{setup,sessions,report}` timers: each lap closes the
/// next stage at the time since the previous lap, so the three cover the
/// run's wall-clock end to end (`svobs prof` asserts ≥ 95% attributed), and
/// with telemetry on `profile` folds them as `evaluate;<stage>` frames.
struct StageClock<'t> {
    telemetry: &'t TelemetryHandle,
    clock: Instant,
    laps: usize,
    profile: CollapsedProfile,
}

impl StageClock<'_> {
    fn lap(&mut self) {
        let now = Instant::now();
        let elapsed = now.duration_since(self.clock);
        self.clock = now;
        let (name, frame) = [
            ("eval.stage.setup", "evaluate;setup"),
            ("eval.stage.sessions", "evaluate;sessions"),
            ("eval.stage.report", "evaluate;report"),
        ][self.laps];
        self.laps += 1;
        if let Some(metric) = self.telemetry.histogram(name, MetricClass::Volatile) {
            metric.observe_duration(elapsed);
            self.profile.record(frame, elapsed.as_nanos() as u64);
        }
    }
}

/// Where a case's samples come from.
#[derive(Clone, Copy)]
enum Sampler<'s> {
    /// The in-process repair pool; each case journals through one
    /// [`SessionSpan`] on the tracer, its wall clock landing in the telemetry.
    Local(&'s ScopedService<'s>, &'s TracerHandle, &'s TelemetryHandle),
    /// A remote shard fleet, whose submit blocks for the answer.
    Fleet(&'s ShardFleet),
    /// A model router placing each request under one policy.
    Router(&'s ModelRouter, RoutePolicy),
}

/// One case's result and routed attempts.
type Judged = (CaseResult, Vec<RouteAttempt>);

/// The one case driver: every case of `entries` through `sampler`, judged on
/// `verifier`, its trace laps into `trace`; returns each case's result and
/// routed attempts in corpus order (a degraded fleet case is `n = c = 0`).
///
/// Each of `min(drivers, cases)` threads takes a strided share (thread `t`:
/// cases `t, t + threads, …`; the caller's thread when there is one) through
/// three stages: submit every repair request; in order, take each case's
/// samples and submit its distinct candidates; in order, fold its verdicts.
/// Every job is queued before the driver waits on it, so the pools' workers,
/// not the driver, bound how much runs at once, and the thread count moves
/// only the wall clock.
fn drive_cases(
    sampler: Sampler<'_>,
    verifier: &EvalVerifier,
    entries: &[SvaBugEntry],
    config: &EvalConfig,
    trace: &TraceHandle,
) -> Vec<Judged> {
    let drivers = Some(config.drivers).filter(|&drivers| drivers > 0);
    let drivers = drivers.or_else(env_drivers).unwrap_or(DEFAULT_DRIVERS);
    let threads = drivers.min(entries.len()).max(1);
    let share = |first: usize| {
        let cases = entries.iter().skip(first).step_by(threads);
        let submit = |entry| CaseRun::submit(sampler, entry, config, trace);
        let cases: Vec<_> = cases.map(submit).collect();
        let fan_out = |(case, pending): (CaseRun, _)| case.fan_out(pending, verifier);
        let cases: Vec<_> = cases.into_iter().map(fan_out).collect();
        let judge = |(case, submitted): (CaseRun, _)| case.judge(submitted, trace);
        cases.into_iter().map(judge).collect::<Vec<_>>()
    };
    if threads == 1 {
        return share(0);
    }
    let mut judged: Vec<Option<Judged>> = vec![None; entries.len()];
    std::thread::scope(|scope| {
        let share = &share;
        let spawn = |first| scope.spawn(move || share(first));
        let shares: Vec<_> = (0..threads).map(spawn).collect();
        for (first, share) in shares.into_iter().enumerate() {
            let share = share.join().expect("a case driver panicked");
            let slots = judged.iter_mut().skip(first).step_by(threads);
            slots.zip(share).for_each(|(slot, case)| *slot = Some(case));
        }
    });
    judged.into_iter().map(Option::unwrap).collect()
}

/// What a case's samples wait on: its ticket, or its fleet call, which blocks
/// and so is made when the samples are due.
enum Pending<'s> {
    Repair(RepairTicket),
    Routed(RouteTicket),
    Fleet(&'s ShardFleet, RepairRequest),
}

/// A case's sample count, routed attempts and `(multiplicity, ticket)` jobs.
type Submitted = (usize, Vec<RouteAttempt>, Vec<(usize, VerifyTicket)>);

/// One case between the driver's stages.  Its span gets the journal phases
/// and its trace the laps, each covering the time since the previous one, so
/// the four child spans tile the `session` root's wall (`svobs trace`'s
/// ≥ 95% bar); over a fleet, the shard's own `sample` span merges with the
/// driver's, keeping the larger wall.
struct CaseRun {
    case: Arc<SvaBugEntry>,
    span: Option<SessionSpan>,
    root: Option<TraceContext>,
    start: Instant,
    clock: Instant,
    laps: Vec<TraceSpan>,
}

impl CaseRun {
    /// Stage 1: opens the case's span and submits its repair request.
    fn submit<'s>(
        sampler: Sampler<'s>,
        entry: &SvaBugEntry,
        config: &EvalConfig,
        trace: &TraceHandle,
    ) -> (Self, Pending<'s>) {
        let request = request_for(entry, config);
        let (key, samples, start) = (request.key(), request.samples, Instant::now());
        let mut span = None;
        let pending = match sampler {
            Sampler::Local(service, tracer, telemetry) => {
                span = Some(SessionSpan::with_telemetry(tracer, telemetry, key.fold64()));
                Pending::Repair(service.submit(request).expect(OPEN))
            }
            Sampler::Router(router, policy) => {
                Pending::Routed(router.submit(request, policy).expect(OPEN))
            }
            Sampler::Fleet(fleet) => Pending::Fleet(fleet, request),
        };
        let (case, root) = (Arc::new(entry.clone()), trace.root(key));
        let mut run = Self {
            case,
            span,
            root,
            start,
            clock: start,
            laps: Vec::new(),
        };
        run.journal(|span| span.phase(SessionPhase::Submitted));
        run.lap("submit", trace_stage::SUBMIT, samples);
        (run, pending)
    }

    /// Stage 2: takes the case's samples and submits its distinct candidates
    /// for judgement; `None` for a degraded fleet case.
    fn fan_out(mut self, pending: Pending, verifier: &EvalVerifier) -> (Self, Option<Submitted>) {
        let (responses, attempts) = match pending {
            Pending::Repair(ticket) => (ticket.wait().responses, Vec::new()),
            Pending::Routed(ticket) => {
                let outcome = ticket.wait();
                (outcome.responses, outcome.attempts)
            }
            Pending::Fleet(fleet, request) => {
                let outcome = match &self.root {
                    Some(ctx) => fleet.submit_traced(&request, ctx).map(|(outcome, spans)| {
                        self.laps.extend(spans);
                        outcome
                    }),
                    None => fleet.submit(&request),
                };
                let Ok(outcome) = outcome else {
                    return (self, None);
                };
                (Arc::new(outcome.responses), Vec::new())
            }
        };
        let n = responses.len();
        self.journal(|span| span.phase(SessionPhase::Sampled));
        if attempts.len() > 1 {
            self.journal(|span| span.phase(SessionPhase::Escalated));
        }
        self.journal(|span| span.timing("samples", n as u64));
        self.lap("sample", trace_stage::SAMPLE, n);
        let submitted = fan_out_candidates(verifier, &self.case, &responses);
        self.journal(|span| span.phase(SessionPhase::Verifying));
        self.journal(|span| span.timing("distinct-candidates", submitted.len() as u64));
        self.lap("verify", trace_stage::VERIFY, submitted.len());
        (self, Some((n, attempts, submitted)))
    }

    /// Stage 3: folds the case's verdicts, closes its span and hands its
    /// trace laps to `trace`, the `session` root last.
    fn judge(mut self, submitted: Option<Submitted>, trace: &TraceHandle) -> Judged {
        let Some((n, attempts, submitted)) = submitted else {
            return (build_case_result(&self.case, 0, 0), Vec::new());
        };
        let c = judge_submitted(submitted);
        self.journal(|span| span.verdict(c as u64, n.saturating_sub(c) as u64));
        self.journal(|span| span.phase(SessionPhase::Done));
        self.lap("evaluate", trace_stage::EVALUATE, c);
        if let Some(root) = &self.root {
            let wall = self.start.elapsed().as_nanos() as u64;
            let session = TraceSpan::new(root, "session", trace_stage::SESSION, n as u64, wall);
            self.laps.push(session);
            trace.extend(std::mem::take(&mut self.laps));
        }
        self.span.iter().for_each(SessionSpan::finish);
        (build_case_result(&self.case, n, c), attempts)
    }

    fn journal(&self, event: impl Fn(&SessionSpan)) {
        self.span.iter().for_each(event);
    }

    fn lap(&mut self, label: &str, seq: u32, units: usize) {
        if let Some(root) = &self.root {
            let wall = self.clock.elapsed().as_nanos() as u64;
            self.clock = Instant::now();
            let lap = TraceSpan::new(&root.child(label), label, seq, units as u64, wall);
            self.laps.push(lap);
        }
    }
}

/// The panic message for a pool or router that closed mid-evaluation.
const OPEN: &str = "serving pool open during evaluation";

/// Dedups one case's candidates and submits the distinct ones for judgement,
/// blocking only while the verify shard is at capacity; the returned pairs
/// are `(multiplicity, ticket)`.
///
/// Identical responses within a case collapse to one verdict job with a
/// multiplicity, which keeps the per-case correct count `c` independent of
/// verify-pool scheduling.
fn fan_out_candidates(
    verifier: &EvalVerifier,
    case: &Arc<SvaBugEntry>,
    responses: &[Response],
) -> Vec<(usize, VerifyTicket)> {
    let mut multiplicity: BTreeMap<VerdictKey, usize> = BTreeMap::new();
    let mut distinct: Vec<(VerdictKey, Response)> = Vec::new();
    for response in responses {
        match multiplicity.entry(verifier.key_for(case, response)) {
            BTreeEntry::Occupied(mut occupied) => *occupied.get_mut() += 1,
            BTreeEntry::Vacant(vacant) => {
                distinct.push((*vacant.key(), response.clone()));
                vacant.insert(1);
            }
        }
    }
    let submit = |(key, response)| {
        let ticket = verifier
            .pool
            .submit(VerifyRequest::new(Arc::clone(case), response, key));
        (multiplicity[&key], ticket.expect(OPEN))
    };
    distinct.into_iter().map(submit).collect()
}

/// Waits for one case's verdicts and folds them into the correct count `c`
/// (multiplicities included).
fn judge_submitted(submitted: Vec<(usize, VerifyTicket)>) -> usize {
    let verdicts = submitted
        .into_iter()
        .map(|(count, ticket)| (count, ticket.wait()));
    verdicts
        .filter(|(_, outcome)| outcome.verdict)
        .map(|(count, _)| count)
        .sum()
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

/// One case's escalation record: which rungs ran, what each one's judge said.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EscalationTrail {
    /// Module the case came from.
    pub module_name: String,
    /// One judged attempt per rung tried, in ladder (cheapest-first) order.
    pub attempts: Vec<RouteAttempt>,
}

/// The pure evaluation data of one ladder run: per-model and per-policy
/// [`ModelEvaluation`]s plus the per-case escalation trails.
///
/// Everything here is a deterministic function of `(models, corpus, config)` —
/// byte-identical at any worker count and with warm or cold caches — which is
/// what the route-determinism suite asserts on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LadderEvaluation {
    /// One evaluation per model, in registration order (served via
    /// [`RoutePolicy::Pinned`]).
    pub per_model: Vec<ModelEvaluation>,
    /// The deterministic [`RoutePolicy::AbSplit`] evaluation: each case is
    /// answered by its content-hash arm.
    pub ab_split: ModelEvaluation,
    /// The [`RoutePolicy::Escalate`] evaluation: each case is answered by the
    /// first (cheapest) rung whose candidates pass verification; `c` is that
    /// terminal rung's correct count.
    pub escalate: ModelEvaluation,
    /// Per-case escalation trails, aligned with the corpus order.
    pub trails: Vec<EscalationTrail>,
}

/// Everything [`evaluate_ladder`] produces: the pure evaluation data plus the
/// router/verify metrics snapshot (per-backend throughput and cache hit rates,
/// escalation depth histogram, verdict-triggered re-submits).
pub struct LadderReport {
    /// The deterministic evaluation data.
    pub evaluation: LadderEvaluation,
    /// The observability snapshot (not part of the determinism contract).
    pub metrics: RouteMetrics,
    /// Backend indices in escalation (cheapest-first) order.
    pub ladder: Vec<usize>,
}

/// Evaluates a ladder of models over a corpus in one pass: per-model (pinned),
/// A/B-split and escalation [`ModelEvaluation`]s, plus per-case attempt trails
/// and the full per-route metrics.
///
/// All models are served concurrently by one [`ModelRouter`] — each backend
/// keeps its own sharded pool and response cache (persisted under its own model
/// identity when [`EvalConfig::cache_dir`] resolves) — and all verification
/// flows through one shared [`EvalVerifier`], so the pinned pass warms exactly
/// the caches the A/B and escalation passes replay.  The escalation policy
/// walks backends cheapest-first ([`RepairModel::cost`]) and re-submits on
/// failed verdicts; its `ModelEvaluation` therefore dominates the cheapest
/// rung's own evaluation case-for-case, which is the serving-side payoff the
/// routing layer exists for.
///
/// Determinism: [`LadderReport::evaluation`] is byte-identical at any
/// [`EvalConfig::workers`] / [`EvalConfig::verify_workers`] /
/// [`EvalConfig::drivers`] setting and with warm or cold caches (in-memory or
/// on-disk), for every policy.
///
/// # Panics
///
/// Panics if `models` is empty.
pub fn evaluate_ladder(
    models: &[Arc<dyn RepairModel + Send + Sync>],
    entries: &[SvaBugEntry],
    config: &EvalConfig,
) -> LadderReport {
    assert!(!models.is_empty(), "ladder needs at least one model");
    let verifier = Arc::new(EvalVerifier::start(config));
    let requests = entries.iter().map(|entry| request_for(entry, config));
    // The escalation judge: maps a routed request back to its corpus entry
    // and judges the candidates on the shared verifier — pure in `(request,
    // responses)` because verdicts are pure.  Corpus entries with
    // byte-identical case content share one map slot (the router sees only
    // request content), so on such twins the *routing* decision is judged
    // against one golden fix; the reported `c` stays truthful because each
    // session re-judges its terminal responses against its own entry.  A
    // request the evaluation never registered rejects every rung.
    let by_key: HashMap<CaseKey, Arc<SvaBugEntry>> = (requests.zip(entries))
        .map(|(request, entry)| (request.key(), Arc::new(entry.clone())))
        .collect();
    let judge_verifier = Arc::clone(&verifier);
    let judge = move |request: &RepairRequest, responses: &[Response]| {
        let (mut distinct, mut correct) = (0, 0);
        if let Some(case) = by_key.get(&request.key()) {
            let submitted = fan_out_candidates(&judge_verifier, case, responses);
            distinct = submitted.len();
            correct = judge_submitted(submitted);
        }
        JudgeReport { distinct, correct }
    };
    let backends: Vec<BackendSpec> = models
        .iter()
        .map(|model| {
            BackendSpec::new(
                Arc::clone(model),
                config.service_config_for(&model.identity()),
            )
        })
        .collect();
    let router = ModelRouter::start(backends, Arc::new(judge), RouterConfig::default());
    let ladder = router.ladder().to_vec();

    // Every case under one policy on the case driver; each yields its `(n, c)`
    // and routed attempt trail (length 1 for the direct policies, the full
    // ladder walk for `Escalate`).
    let no_trace = TraceHandle::off();
    let phase = |policy| {
        let sampler = Sampler::Router(&router, policy);
        drive_cases(sampler, &verifier, entries, config, &no_trace)
    };
    let evaluation = |model: String, phase: Vec<Judged>| {
        let results = phase.into_iter().map(|(result, _)| result).collect();
        ModelEvaluation { model, results }
    };

    // Phase 1 — pinned: one full evaluation per model.  This also warms every
    // backend's response cache and the shared verdict cache, so the later
    // passes replay instead of recomputing.
    let per_model: Vec<ModelEvaluation> = models
        .iter()
        .enumerate()
        .map(|(idx, model)| evaluation(model.name().to_string(), phase(RoutePolicy::Pinned(idx))))
        .collect();

    // Phase 2 — A/B split: the content hash of each case picks its arm.
    let arms = format!("A/B split ({} arms)", models.len());
    let ab_split = evaluation(arms, phase(RoutePolicy::AbSplit));

    // Phase 3 — escalation: cheapest rung first, re-submitting on failed
    // verdicts.  The terminal rung's responses are re-judged *positionally*
    // against each entry's own golden fix (pure verdict-cache hits on a
    // duplicate-free corpus, where this equals the terminal attempt's correct
    // count).  This keeps `c` truthful even when two corpus entries share
    // identical case content but different golden fixes — the router's judge,
    // which can only see request content, necessarily judges such twins
    // against one of them.
    let escalated = phase(RoutePolicy::Escalate);
    let trails = (escalated.iter())
        .map(|(result, attempts)| EscalationTrail {
            module_name: result.module_name.clone(),
            attempts: attempts.clone(),
        })
        .collect();
    let escalate = evaluation(format!("Escalate ({} rungs)", models.len()), escalated);

    let route_metrics = router.shutdown();
    // The router (and its judge) are gone, so the verifier Arc is ours again;
    // shutting it down flushes the verdict snapshot exactly once and returns
    // the final verify view, save counters included.
    let verify_metrics = match Arc::try_unwrap(verifier) {
        Ok(verifier) => verifier.shutdown(),
        Err(verifier) => {
            let _ = verifier.flush();
            verifier.metrics()
        }
    };
    let metrics = route_metrics.with_verify(verify_metrics);
    LadderReport {
        evaluation: LadderEvaluation {
            per_model,
            ab_split,
            escalate,
            trails,
        },
        metrics,
        ladder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::human_crafted_cases;
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

    #[test]
    fn apply_line_edit_preserves_indentation() {
        let source = "module m();\n  assign y = a & b;\nendmodule\n";
        let edited = apply_line_edit(source, 2, "assign y = a | b;").unwrap();
        assert!(edited.contains("  assign y = a | b;"));
        assert!(apply_line_edit(source, 99, "x").is_none());
    }

    #[test]
    fn evaluation_is_identical_at_any_worker_count() {
        let entries = human_crafted_cases();
        let model = svmodel::AssertSolverModel::base(3);
        let one = evaluate_model(
            &model,
            &entries,
            &EvalConfig {
                workers: 1,
                verify_workers: 1,
                ..EvalConfig::quick(5)
            },
        );
        let four = evaluate_model(
            &model,
            &entries,
            &EvalConfig {
                workers: 4,
                verify_workers: 4,
                ..EvalConfig::quick(5)
            },
        );
        assert_eq!(one, four, "worker count changed evaluation results");
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

    /// A model whose `solve` blocks until the test opens its gate.
    struct Gated {
        model: svmodel::AssertSolverModel,
        open: std::sync::Mutex<bool>,
        opened: std::sync::Condvar,
    }

    impl RepairModel for Gated {
        fn name(&self) -> &str {
            self.model.name()
        }

        fn solve(&self, case: &CaseInput, samples: usize, temp: f64, seed: u64) -> Vec<Response> {
            let open = self.open.lock().unwrap();
            drop(self.opened.wait_while(open, |open| !*open).unwrap());
            self.model.solve(case, samples, temp, seed)
        }
    }

    #[test]
    fn every_case_is_queued_before_the_driver_waits_on_any() {
        let entries = human_crafted_cases();
        assert!(entries.len() >= 3);
        let config = EvalConfig {
            workers: 1,
            drivers: 1,
            ..EvalConfig::quick(5)
        };
        let gated = Gated {
            model: svmodel::AssertSolverModel::base(3),
            open: std::sync::Mutex::new(false),
            opened: std::sync::Condvar::new(),
        };
        let (tracer, telemetry, trace) = (
            TracerHandle::off(),
            TelemetryHandle::off(),
            TraceHandle::off(),
        );
        let verifier = EvalVerifier::start(&config);
        let drive = |model: &(dyn RepairModel + Sync),
                     opener: &(dyn Fn(ScopedService<'_>) + Sync)| {
            serve_scoped(model, config.service_config(), |service| {
                std::thread::scope(|scope| {
                    scope.spawn(|| opener(service));
                    let sampler = Sampler::Local(service, &tracer, &telemetry);
                    drive_cases(sampler, &verifier, &entries, &config, &trace)
                })
            })
        };
        let queued = std::sync::atomic::AtomicBool::new(false);
        let gated_run = drive(&gated, &|service| {
            // With the one repair worker stuck in `solve`, every case must
            // still reach the queue.  Opened regardless, so a failure cannot
            // hang the test.
            let deadline = Instant::now() + std::time::Duration::from_secs(20);
            while service.metrics().submitted < entries.len() as u64 && Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let all = service.metrics().submitted == entries.len() as u64;
            queued.store(all, std::sync::atomic::Ordering::SeqCst);
            *gated.open.lock().unwrap() = true;
            gated.opened.notify_all();
        });
        assert!(
            queued.load(std::sync::atomic::Ordering::SeqCst),
            "the driver must submit every case before it waits on one"
        );
        let ungated = drive(&gated.model, &|_| {});
        verifier.shutdown();
        assert_eq!(gated_run, ungated);
    }

    #[test]
    fn warm_verdict_cache_reuses_verdicts_without_changing_results() {
        let entries: Vec<SvaBugEntry> = human_crafted_cases().into_iter().take(4).collect();
        let model = svmodel::AssertSolverModel::base(3);
        let config = EvalConfig {
            workers: 2,
            verify_workers: 2,
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
            workers: 2,
            verify_workers: 2,
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
    fn a_fleet_skips_the_journal_and_says_so() {
        assert_eq!(journal_decision(false, false), (false, None));
        assert_eq!(journal_decision(false, true), (true, None));
        assert_eq!(journal_decision(true, false), (false, None));
        let (journal, warning) = journal_decision(true, true);
        assert!(!journal, "a fleet run keeps no local journal");
        let warning = warning.expect("both knobs set warns");
        assert!(warning.starts_with("warning: "), "{warning}");
        assert!(
            warning.contains(SHARD_SOCKETS_ENV) && warning.contains(JOURNAL_DIR_ENV),
            "the warning names both knobs: {warning}"
        );
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
