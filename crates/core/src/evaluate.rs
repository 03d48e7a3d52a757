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
use svserve::persist::fnv64;
use svserve::stage as trace_stage;
use svserve::{
    env_cache_dir, env_journal_dir, env_profile_dir, render_journal, serve_scoped, verdict_key,
    write_journal, BackendSpec, CaseKey, CollapsedProfile, EscalationJudge, JournalHeader,
    JournalSink, JournalSpec, JudgeReport, Metric, MetricClass, MetricsRegistry, ModelRouter,
    PersistSpec, RepairRequest, RouteAttempt, RouteMetrics, RoutePolicy, RouterConfig,
    ServiceConfig, SessionConfig, SessionEngine, SessionPhase, SessionSpan, ShardFleet,
    TelemetryHandle, TraceHandle, TraceSpan, TracerHandle, VerdictKey, VerifyConfig, VerifyMetrics,
    VerifyPool, VerifyRequest, VerifyTicket, DEFAULT_COMPACT_AFTER_RUNS,
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
    /// Driver threads for the async session engine that multiplexes the
    /// per-case repair sessions (0 = auto: the `ASSERTSOLVER_DRIVERS`
    /// environment override, else `svserve::DEFAULT_DRIVERS`).  Results are
    /// identical at any driver count.
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
    /// write).  When resolved, [`evaluate_model_profiled`] writes its
    /// flamegraph-compatible `profile-<slug>-<hash>.folded` there (best
    /// effort, like the cache flush paths).
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
        self.cache_dir
            .as_deref()
            .map(|raw| raw.trim())
            .filter(|raw| !raw.is_empty())
            .map(std::path::PathBuf::from)
            .or_else(env_cache_dir)
    }

    /// The journal directory this protocol records to, if any: the explicit
    /// [`EvalConfig::journal_dir`] field, else the `ASSERTSOLVER_JOURNAL_DIR`
    /// environment override (`svserve::JOURNAL_DIR_ENV`).
    pub fn resolved_journal_dir(&self) -> Option<std::path::PathBuf> {
        self.journal_dir
            .as_deref()
            .map(|raw| raw.trim())
            .filter(|raw| !raw.is_empty())
            .map(std::path::PathBuf::from)
            .or_else(env_journal_dir)
    }

    /// The profile directory this protocol writes collapsed-stack artifacts
    /// to, if any: the explicit [`EvalConfig::profile_dir`] field, else the
    /// `ASSERTSOLVER_PROFILE_DIR` environment override
    /// (`svserve::PROFILE_DIR_ENV`).
    pub fn resolved_profile_dir(&self) -> Option<std::path::PathBuf> {
        self.profile_dir
            .as_deref()
            .map(|raw| raw.trim())
            .filter(|raw| !raw.is_empty())
            .map(std::path::PathBuf::from)
            .or_else(env_profile_dir)
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

    /// The session-engine configuration this protocol implies:
    /// [`EvalConfig::drivers`] driver threads (0 = auto via the
    /// `ASSERTSOLVER_DRIVERS` environment override), no per-session deadline —
    /// an evaluation must judge every case.
    pub fn session_config(&self) -> SessionConfig {
        SessionConfig::default().with_drivers(self.drivers)
    }
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

    /// Submits one candidate for judgement.
    pub fn submit(&self, case: Arc<SvaBugEntry>, response: Response) -> VerifyTicket {
        let key = self.key_for(&case, &response);
        self.submit_keyed(case, response, key)
    }

    /// Submits one candidate whose [`VerdictKey`] the caller already computed.
    pub fn submit_keyed(
        &self,
        case: Arc<SvaBugEntry>,
        response: Response,
        key: VerdictKey,
    ) -> VerifyTicket {
        self.pool
            .submit(VerifyRequest::new(case, response, key))
            .expect("verify pool open during evaluation")
    }

    /// Non-blocking variant of [`EvalVerifier::submit_keyed`] for async
    /// sessions: parks on a waker (never a thread) while the verify shard is at
    /// capacity.
    pub async fn submit_keyed_async(
        &self,
        case: Arc<SvaBugEntry>,
        response: Response,
        key: VerdictKey,
    ) -> VerifyTicket {
        self.pool
            .submit_async(VerifyRequest::new(case, response, key))
            .expect("verify pool open during evaluation")
            .await
            .expect("verify pool open during evaluation")
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

/// Evaluates a model over a set of cases.
///
/// Sampling runs through the `svserve` repair service and verification through a
/// fresh [`EvalVerifier`]; see [`evaluate_model_with`] for the pipeline.  To share a
/// warm verdict cache across several evaluations, start an [`EvalVerifier`] once and
/// call [`evaluate_model_with`] directly.
///
/// When [`EvalConfig::journal_dir`] (or `ASSERTSOLVER_JOURNAL_DIR`) resolves,
/// the run additionally records a session journal and writes it to
/// `journal-<slug>-<hash>.jsonl` in that directory as a record-only artifact
/// (empty rebuild tags; use `svreplay record` for replayable journals).
pub fn evaluate_model<M: RepairModel + Sync + ?Sized>(
    model: &M,
    entries: &[SvaBugEntry],
    config: &EvalConfig,
) -> ModelEvaluation {
    if let Some(spec) = config.resolved_shards() {
        return evaluate_model_sharded(model, entries, config, &spec);
    }
    let Some(dir) = config.resolved_journal_dir() else {
        let verifier = EvalVerifier::start(config);
        // `ASSERTSOLVER_TRACE` turns on span collection; the drained tree is
        // written as a `trace-*.jsonl` artifact when a profile directory
        // resolves (dropped otherwise — collection is cheap, and `svtrace`
        // renders in-memory).
        let trace = TraceHandle::from_env();
        let evaluation = evaluate_model_observed(
            model,
            entries,
            config,
            &verifier,
            &TracerHandle::off(),
            &TelemetryHandle::off(),
            &trace,
        );
        verifier.shutdown();
        write_trace_artifact(model, entries, config, &trace);
        return evaluation;
    };
    let manifest = JournalManifest::for_protocol("", "", &model.identity(), entries, config);
    let (evaluation, rendered) = evaluate_model_journaled(model, entries, config, &manifest);
    let path = artifact_path(&dir, "journal", "jsonl", model, entries, config);
    // Best-effort like the cache flush paths: an unwritable journal directory
    // must not fail the evaluation itself.
    let _ = write_journal(&path, &rendered);
    evaluation
}

/// Evaluates a model while recording a session journal, returning the
/// evaluation plus the *rendered* journal (header, sorted records, the
/// serialized [`ModelEvaluation`] as payload, checksummed footer).
///
/// The rendered bytes are a pure function of `(model, corpus, protocol)`:
/// identical at any [`EvalConfig::workers`] / [`EvalConfig::verify_workers`] /
/// [`EvalConfig::drivers`] setting and with warm or cold caches.  That makes
/// the journal a repro artifact — `svreplay` re-drives it and asserts byte
/// equality of both the journal and the embedded evaluation payload.
pub fn evaluate_model_journaled<M: RepairModel + Sync + ?Sized>(
    model: &M,
    entries: &[SvaBugEntry],
    config: &EvalConfig,
    manifest: &JournalManifest,
) -> (ModelEvaluation, String) {
    let sink = JournalSink::shared(JournalSpec::default());
    let tracer = sink.handle();
    let telemetry = TelemetryHandle::off();
    let verifier = EvalVerifier::start_instrumented(config, tracer.clone(), &telemetry);
    let evaluation = evaluate_model_observed(
        model,
        entries,
        config,
        &verifier,
        &tracer,
        &telemetry,
        &TraceHandle::off(),
    );
    verifier.shutdown();
    let records = sink.drain_sorted();
    let header = JournalHeader::expected(&manifest.render());
    let payload = serde_json::to_string(&evaluation).expect("evaluation serializes");
    let rendered = render_journal(&header, &records, &payload);
    (evaluation, rendered)
}

/// Evaluates a model against a remote shard fleet (`shard-serve` processes
/// behind unix sockets) instead of an in-process repair service.
///
/// `model` is the *local* copy of the model the shards serve: its identity is
/// the fingerprint the `Hello` handshake enforces, so a fleet serving a
/// different model (whose answers would differ) refuses the connection
/// instead of silently corrupting the evaluation.  Sampling happens on the
/// shards — requests place by content hash, so per-shard caches stay disjoint
/// — while candidate verification runs locally through a fresh
/// [`EvalVerifier`].  The result is byte-identical to the in-process
/// [`evaluate_model`] run at any shard count, warm or cold caches.
///
/// Degradation, never failure: a case whose shard is down, busy, or corrupt
/// becomes a zero-sample [`CaseResult`] (`n = 0, c = 0`) and the failure is
/// counted in the fleet metrics — a killed shard process cannot panic or hang
/// the evaluation.
fn evaluate_model_sharded<M: RepairModel + Sync + ?Sized>(
    model: &M,
    entries: &[SvaBugEntry],
    config: &EvalConfig,
    spec: &ShardSpec,
) -> ModelEvaluation {
    let fleet = ShardFleet::connect_unix(
        &spec.sockets,
        Some(&model.identity()),
        std::time::Duration::from_millis(spec.timeout_ms.max(1)),
    );
    let verifier = EvalVerifier::start(config);
    let trace = TraceHandle::from_env();
    let evaluation =
        evaluate_model_over_fleet_traced(model, entries, config, &fleet, &verifier, &trace);
    verifier.shutdown();
    write_trace_artifact(model, entries, config, &trace);
    evaluation
}

/// Writes the drained trace tree as a `trace-<slug>-<hash>.jsonl` artifact
/// into the resolved profile directory, best-effort (like the cache flush
/// and journal writes — an unwritable directory must not fail the
/// evaluation).  No-op while tracing is off or nothing was collected.
fn write_trace_artifact<M: RepairModel + Sync + ?Sized>(
    model: &M,
    entries: &[SvaBugEntry],
    config: &EvalConfig,
    trace: &TraceHandle,
) {
    if !trace.is_on() {
        return;
    }
    let forest = svserve::TraceForest::from_spans(trace.drain());
    if forest.is_empty() {
        return;
    }
    let Some(dir) = config.resolved_profile_dir() else {
        return;
    };
    let path = artifact_path(&dir, "trace", "jsonl", model, entries, config);
    let _ = svserve::persist::write_atomic(&path, &forest.render_jsonl());
}

/// Evaluation against a remote shard fleet with externally managed fleet and verifier, so
/// callers can run several evaluations over one set of connections (and read
/// the fleet's metrics afterwards).
pub fn evaluate_model_over_fleet<M: RepairModel + Sync + ?Sized>(
    model: &M,
    entries: &[SvaBugEntry],
    config: &EvalConfig,
    fleet: &ShardFleet,
    verifier: &EvalVerifier,
) -> ModelEvaluation {
    evaluate_model_over_fleet_traced(model, entries, config, fleet, verifier, &TraceHandle::off())
}

/// [`evaluate_model_over_fleet`] with a [`TraceHandle`] collecting the
/// cross-process trace tree.
///
/// The driver derives each case's root context (a pure function of request
/// content + salt), sends it over the wire inside `SubmitTraced`, and records
/// the same five-span tree the in-process run builds: `session` root with
/// `submit` / `sample` / `verify` / `evaluate` children.  The shard — which
/// adopted the remote parent — answers with its own `sample` span; because
/// its deterministic fields are derived from the identical context, it merges
/// byte-for-byte with the driver's (keeping the shard-measured wall via
/// max-merge).  The drained deterministic tree is therefore byte-identical to
/// the in-process and loopback trees for the same corpus — the acceptance bar
/// `tests/trace_determinism.rs` pins.  A degraded case (dead shard, busy,
/// wire failure) contributes no spans, exactly as it contributes no samples.
pub fn evaluate_model_over_fleet_traced<M: RepairModel + Sync + ?Sized>(
    model: &M,
    entries: &[SvaBugEntry],
    config: &EvalConfig,
    fleet: &ShardFleet,
    verifier: &EvalVerifier,
    trace: &TraceHandle,
) -> ModelEvaluation {
    let results = entries
        .iter()
        .map(|entry| {
            let request = RepairRequest::new(
                CaseInput::from_entry(entry),
                config.samples,
                config.temperature,
            );
            let tctx = if trace.is_on() {
                trace.root(request.key())
            } else {
                None
            };
            let session_start = Instant::now();
            let mut lap = session_start;
            let submit_span = tctx.as_ref().map(|ctx| {
                span_lap(
                    ctx,
                    "submit",
                    trace_stage::SUBMIT,
                    request.samples as u64,
                    &mut lap,
                )
            });
            let wire_result = match &tctx {
                Some(ctx) => fleet.submit_traced(&request, ctx).map(|(outcome, spans)| {
                    trace.extend(spans);
                    outcome
                }),
                None => fleet.submit(&request),
            };
            match wire_result {
                Ok(outcome) => {
                    if let (Some(ctx), Some(submit_span)) = (&tctx, submit_span) {
                        trace.record(submit_span);
                        // The driver's own copy of the sample span: identical
                        // deterministic fields to the shard's, wall measured
                        // driver-side (wire time included) so the tree tiles
                        // even over a transport that returned no shard spans.
                        trace.record(span_lap(
                            ctx,
                            "sample",
                            trace_stage::SAMPLE,
                            outcome.responses.len() as u64,
                            &mut lap,
                        ));
                    }
                    let case = Arc::new(entry.clone());
                    let submitted = fan_out_candidates(verifier, &case, &outcome.responses);
                    if let Some(ctx) = &tctx {
                        trace.record(span_lap(
                            ctx,
                            "verify",
                            trace_stage::VERIFY,
                            submitted.len() as u64,
                            &mut lap,
                        ));
                    }
                    let mut c = 0;
                    for (count, ticket) in submitted {
                        if ticket.wait().verdict {
                            c += count;
                        }
                    }
                    if let Some(ctx) = &tctx {
                        trace.record(span_lap(
                            ctx,
                            "evaluate",
                            trace_stage::EVALUATE,
                            c as u64,
                            &mut lap,
                        ));
                        trace.record(TraceSpan::new(
                            ctx,
                            "session",
                            trace_stage::SESSION,
                            outcome.responses.len() as u64,
                            session_start.elapsed().as_nanos() as u64,
                        ));
                    }
                    build_case_result(entry, outcome.responses.len(), c)
                }
                // Busy, closed, or a wire failure: a counted degraded case.
                Err(_) => build_case_result(entry, 0, 0),
            }
        })
        .collect();
    ModelEvaluation {
        model: model.name().to_string(),
        results,
    }
}

/// Evaluates a model with an externally managed verification backend.
///
/// Every case runs as one **async session** on the `svserve` session engine
/// (submit → sampled → verify → done): the session submits its request to the
/// sharded repair pool without blocking, awaits the waker-backed ticket, fans
/// its distinct candidates out to the verify pool, and awaits the verdicts —
/// all multiplexed over [`EvalConfig::drivers`] driver threads, so a corpus of
/// thousands holds thousands of sessions in flight on a handful of threads.
/// Because sampler seeds derive from case content and verdicts are pure
/// functions of `(case, response, CheckConfig)`, the result is identical at any
/// [`EvalConfig::workers`] / [`EvalConfig::verify_workers`] /
/// [`EvalConfig::drivers`] setting and whether the verifier's verdict cache is
/// cold or pre-warmed.
pub fn evaluate_model_with<M: RepairModel + Sync + ?Sized>(
    model: &M,
    entries: &[SvaBugEntry],
    config: &EvalConfig,
    verifier: &EvalVerifier,
) -> ModelEvaluation {
    evaluate_model_observed(
        model,
        entries,
        config,
        verifier,
        &TracerHandle::off(),
        &TelemetryHandle::off(),
        &TraceHandle::off(),
    )
}

/// Evaluates a model with a telemetry registry threaded through every serving
/// layer — the repair pool (`service.repair.*`), the session engine's runtime
/// (`rt.poll.duration`), the per-case dual-clock spans (`session.span.wall`)
/// — plus coarse pipeline stage timers: verification telemetry is installed
/// pool-side at [`EvalVerifier::start_instrumented`], since the pool outlives
/// single evaluations.  With [`TelemetryHandle::off`] this is exactly
/// [`evaluate_model_with`].  Starts (and shuts down) a fresh verifier; to
/// share a warm one, use [`evaluate_model_observed`].
pub fn evaluate_model_instrumented<M: RepairModel + Sync + ?Sized>(
    model: &M,
    entries: &[SvaBugEntry],
    config: &EvalConfig,
    telemetry: &TelemetryHandle,
) -> ModelEvaluation {
    let verifier = EvalVerifier::start_instrumented(config, TracerHandle::off(), telemetry);
    let evaluation = evaluate_model_observed(
        model,
        entries,
        config,
        &verifier,
        &TracerHandle::off(),
        telemetry,
        &TraceHandle::off(),
    );
    verifier.shutdown();
    evaluation
}

/// Evaluates a model under a fresh telemetry registry and folds the pipeline
/// stage timers into a flamegraph-compatible [`CollapsedProfile`].
///
/// The three `evaluate;*` frames tile the evaluation wall-clock end to end —
/// `setup` (request/span construction and pool spin-up), `sessions` (the
/// async session engine driving every case through sample → verify), and
/// `report` (span finish and result assembly) — so the profile attributes
/// essentially all of the run to a named stage; `svprof` asserts ≥ 95%.  When
/// [`EvalConfig::profile_dir`] (or `ASSERTSOLVER_PROFILE_DIR`) resolves, the
/// rendered profile is also written to `profile-<slug>-<hash>.folded` there,
/// best-effort.
pub fn evaluate_model_profiled<M: RepairModel + Sync + ?Sized>(
    model: &M,
    entries: &[SvaBugEntry],
    config: &EvalConfig,
) -> (ModelEvaluation, CollapsedProfile) {
    let telemetry = TelemetryHandle::new(Arc::new(MetricsRegistry::default()));
    let evaluation = evaluate_model_instrumented(model, entries, config, &telemetry);
    let snapshot = telemetry.snapshot();
    let mut profile = CollapsedProfile::new();
    for stage in ["setup", "sessions", "report"] {
        if let Some(metric) = snapshot.get(&format!("eval.stage.{stage}")) {
            profile.record(&format!("evaluate;{stage}"), metric.sum);
        }
    }
    if let Some(dir) = config.resolved_profile_dir() {
        let path = artifact_path(&dir, "profile", "folded", model, entries, config);
        // Best-effort like the journal write: an unwritable profile directory
        // must not fail the evaluation itself.
        let _ = svserve::persist::write_atomic(&path, &profile.render());
    }
    (evaluation, profile)
}

/// Observes the time since `*clock` into `metric` (when on) and restarts the
/// clock — the tiling primitive behind the `eval.stage.*` timers: consecutive
/// laps cover the wall-clock contiguously, so the stage sums account for the
/// whole evaluation.
fn stage_lap(clock: &mut Instant, metric: Option<&Metric>) {
    let now = Instant::now();
    if let Some(metric) = metric {
        metric.observe_duration(now.duration_since(*clock));
    }
    *clock = now;
}

/// Builds one child [`TraceSpan`] under `root` covering the time since
/// `*lap`, then restarts the lap — the same tiling discipline as
/// [`stage_lap`], applied per session: consecutive child spans cover the
/// session wall contiguously, which is what lets `svtrace` attribute ≥ 95%
/// of each session to named stages.
fn span_lap(
    root: &svserve::TraceContext,
    label: &str,
    seq: u32,
    units: u64,
    lap: &mut Instant,
) -> TraceSpan {
    let now = Instant::now();
    let wall = now.duration_since(*lap).as_nanos() as u64;
    *lap = now;
    TraceSpan::new(&root.child(label), label, seq, units, wall)
}

/// [`evaluate_model_with`] with the full observability triple threaded through
/// every layer; each hook, when off, costs one branch per instrumented site.
///
/// * **Journal tracer** — installed on the repair service, the session
///   engine's runtime, and a per-case [`SessionSpan`] that records phase
///   transitions, sample/candidate tallies, the verdict split and exactly one
///   terminal event.  Session ids are the request content hashes, so journal
///   identity survives any concurrency.  (The verifier's own tracer is
///   installed at [`EvalVerifier::start_instrumented`], since its pool
///   outlives single evaluations.)
/// * **Telemetry registry** — receives the pool and runtime histograms plus
///   the tiled `eval.stage.{setup,sessions,report}` stage timers
///   (`stage_lap`); per-case spans are opened in dual-clock form
///   ([`SessionSpan::with_telemetry`]), so wall time lands in
///   `session.span.wall` while the journal bytes stay deterministic.
/// * **[`TraceHandle`]** — collects causal spans ([`svserve::trace`]).
///
/// When tracing is on, every case grows a deterministic five-span tree —
/// a `session` root with `submit` → `sample` → `verify` → `evaluate`
/// children whose ids derive from the request's content hash and whose
/// lap-measured walls tile the session end to end (the ≥95% attribution
/// `svtrace` asserts).  Every deterministic span field is a pure function of
/// `(case content, salt, stage)`, so the drained tree is byte-identical at
/// any worker/driver count, warm or cold — and identical to the tree a
/// remote fleet run produces for the same corpus
/// ([`evaluate_model_over_fleet_traced`]).  With [`TraceHandle::off`] each
/// instrumented site costs one branch.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_model_observed<M: RepairModel + Sync + ?Sized>(
    model: &M,
    entries: &[SvaBugEntry],
    config: &EvalConfig,
    verifier: &EvalVerifier,
    tracer: &TracerHandle,
    telemetry: &TelemetryHandle,
    trace: &TraceHandle,
) -> ModelEvaluation {
    let stage_setup = telemetry.histogram("eval.stage.setup", MetricClass::Volatile);
    let stage_sessions = telemetry.histogram("eval.stage.sessions", MetricClass::Volatile);
    let stage_report = telemetry.histogram("eval.stage.report", MetricClass::Volatile);
    let mut clock = Instant::now();
    let engine = SessionEngine::new(
        config
            .session_config()
            .with_tracer(tracer.clone())
            .with_telemetry(telemetry.clone()),
    );
    let monitor = engine.monitor();
    let results = serve_scoped(
        model,
        config
            .service_config_for(&model.identity())
            .with_tracer(tracer.clone())
            .with_telemetry(telemetry.clone()),
        |service| {
            let requests: Vec<RepairRequest> = entries
                .iter()
                .map(|entry| {
                    RepairRequest::new(
                        CaseInput::from_entry(entry),
                        config.samples,
                        config.temperature,
                    )
                })
                .collect();
            // One owner span per case, keyed by the request's content hash;
            // the futures hold clone handles, and the owners emit the terminal
            // events from the engine outcomes after `run_all` returns.
            let spans: Vec<SessionSpan> = requests
                .iter()
                .map(|request| {
                    SessionSpan::with_telemetry(tracer, telemetry, request.key().fold64())
                })
                .collect();
            let sessions: Vec<_> = entries
                .iter()
                .zip(requests)
                .zip(&spans)
                .map(|((entry, request), span)| {
                    let monitor = monitor.clone();
                    let span = span.handle();
                    // Root trace context: a pure function of request content
                    // and the handle's salt, never of scheduling.  `None`
                    // (tracing off) keeps the future span-free for one branch.
                    let tctx = if trace.is_on() {
                        trace.root(request.key())
                    } else {
                        None
                    };
                    let samples_requested = request.samples as u64;
                    async move {
                        let session_start = Instant::now();
                        let mut lap = session_start;
                        let ticket = service
                            .submit_async(request)
                            .expect("service open during evaluation")
                            .await
                            .expect("service open during evaluation");
                        monitor.phase(SessionPhase::Submitted);
                        span.phase(SessionPhase::Submitted);
                        if let Some(ctx) = &tctx {
                            trace.record(span_lap(
                                ctx,
                                "submit",
                                trace_stage::SUBMIT,
                                samples_requested,
                                &mut lap,
                            ));
                        }
                        let outcome = ticket.await;
                        monitor.phase(SessionPhase::Sampled);
                        span.phase(SessionPhase::Sampled);
                        span.timing("samples", outcome.responses.len() as u64);
                        if let Some(ctx) = &tctx {
                            trace.record(span_lap(
                                ctx,
                                "sample",
                                trace_stage::SAMPLE,
                                outcome.responses.len() as u64,
                                &mut lap,
                            ));
                        }
                        let case = Arc::new(entry.clone());
                        let submitted =
                            fan_out_candidates_async(verifier, &case, &outcome.responses).await;
                        monitor.phase(SessionPhase::Verifying);
                        span.phase(SessionPhase::Verifying);
                        span.timing("distinct-candidates", submitted.len() as u64);
                        if let Some(ctx) = &tctx {
                            trace.record(span_lap(
                                ctx,
                                "verify",
                                trace_stage::VERIFY,
                                submitted.len() as u64,
                                &mut lap,
                            ));
                        }
                        let c = judge_submitted(submitted).await;
                        span.verdict(c as u64, outcome.responses.len().saturating_sub(c) as u64);
                        monitor.phase(SessionPhase::Done);
                        span.phase(SessionPhase::Done);
                        if let Some(ctx) = &tctx {
                            trace.record(span_lap(
                                ctx,
                                "evaluate",
                                trace_stage::EVALUATE,
                                c as u64,
                                &mut lap,
                            ));
                            // The root span last: its wall is the whole
                            // session, which the four child laps tile.
                            trace.record(TraceSpan::new(
                                ctx,
                                "session",
                                trace_stage::SESSION,
                                outcome.responses.len() as u64,
                                session_start.elapsed().as_nanos() as u64,
                            ));
                        }
                        (outcome.responses.len(), c)
                    }
                })
                .collect();
            stage_lap(&mut clock, stage_setup.as_deref());
            let outcomes = engine.run_all(sessions);
            stage_lap(&mut clock, stage_sessions.as_deref());
            for (span, outcome) in spans.iter().zip(&outcomes) {
                span.finish(outcome);
            }
            entries
                .iter()
                .zip(outcomes)
                .map(|(entry, outcome)| {
                    let (n, c) = outcome.completed().expect("evaluation session completed");
                    build_case_result(entry, n, c)
                })
                .collect::<Vec<_>>()
        },
    );
    let evaluation = ModelEvaluation {
        model: model.name().to_string(),
        results,
    };
    // Workload tallies are pure functions of `(model, corpus, protocol)` —
    // the registry's deterministic plane, byte-stable at any driver/worker
    // count and cache temperature (unlike the volatile stage timers above).
    if telemetry.is_on() {
        let det = MetricClass::Deterministic;
        if let Some(metric) = telemetry.counter("eval.cases", det) {
            metric.add(evaluation.results.len() as u64);
        }
        if let Some(metric) = telemetry.counter("eval.samples", det) {
            metric.add(evaluation.results.iter().map(|r| r.n as u64).sum());
        }
        if let Some(metric) = telemetry.counter("eval.correct", det) {
            metric.add(evaluation.results.iter().map(|r| r.c as u64).sum());
        }
    }
    stage_lap(&mut clock, stage_report.as_deref());
    evaluation
}

/// Dedups one case's candidates into `(multiplicity, key, response)` triples.
///
/// Identical responses within a case collapse to one verdict job with a
/// multiplicity, which keeps the per-case correct count `c` independent of
/// verify-pool scheduling.  Shared by the blocking and async fan-outs so the
/// two paths cannot diverge.
fn dedup_candidates(
    verifier: &EvalVerifier,
    case: &Arc<SvaBugEntry>,
    responses: &[Response],
) -> Vec<(usize, VerdictKey, Response)> {
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
    distinct
        .into_iter()
        .map(|(key, response)| (multiplicity[&key], key, response))
        .collect()
}

/// Dedups one case's candidates and submits the distinct ones for judgement
/// (blocking submit — the escalation judge runs on coordinator threads); the
/// returned pairs are `(multiplicity, ticket)`.
fn fan_out_candidates(
    verifier: &EvalVerifier,
    case: &Arc<SvaBugEntry>,
    responses: &[Response],
) -> Vec<(usize, VerifyTicket)> {
    dedup_candidates(verifier, case, responses)
        .into_iter()
        .map(|(count, key, response)| {
            (
                count,
                verifier.submit_keyed(Arc::clone(case), response, key),
            )
        })
        .collect()
}

/// Async variant of [`fan_out_candidates`] for session futures: same dedup
/// (shared via [`dedup_candidates`]), but submissions park on wakers instead
/// of threads.
async fn fan_out_candidates_async(
    verifier: &EvalVerifier,
    case: &Arc<SvaBugEntry>,
    responses: &[Response],
) -> Vec<(usize, VerifyTicket)> {
    let candidates = dedup_candidates(verifier, case, responses);
    let mut submitted = Vec::with_capacity(candidates.len());
    for (count, key, response) in candidates {
        let ticket = verifier
            .submit_keyed_async(Arc::clone(case), response, key)
            .await;
        submitted.push((count, ticket));
    }
    submitted
}

/// Awaits one case's verdicts and folds them into the correct count `c`
/// (multiplicities included).
async fn judge_submitted(submitted: Vec<(usize, VerifyTicket)>) -> usize {
    let mut correct = 0;
    for (count, ticket) in submitted {
        if ticket.await.verdict {
            correct += count;
        }
    }
    correct
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

/// The escalation judge `evaluate_ladder` plugs into the router: maps a routed
/// request back to its corpus entry, fans the distinct candidates out to the
/// shared [`EvalVerifier`] (the existing verify pool), and folds the verdicts
/// into a [`JudgeReport`].  Pure in `(request, responses)` because verdicts
/// are pure — so escalation stays deterministic at any concurrency.
///
/// Corpus entries with byte-identical case content necessarily share one map
/// slot (the router can only see request content), so on such twins the
/// *routing* decision is judged against one golden fix; the reported
/// per-case `c` stays truthful regardless, because `evaluate_ladder`
/// re-judges each terminal response set positionally against its own entry.
struct LadderJudge {
    verifier: Arc<EvalVerifier>,
    cases: HashMap<CaseKey, Arc<SvaBugEntry>>,
}

impl EscalationJudge for LadderJudge {
    fn judge(&self, request: &RepairRequest, responses: &[Response]) -> JudgeReport {
        let Some(case) = self.cases.get(&request.key()) else {
            // A request the evaluation never registered: nothing to judge
            // against, so every rung is rejected (and the ladder runs out).
            return JudgeReport {
                distinct: 0,
                correct: 0,
            };
        };
        let submitted = fan_out_candidates(&self.verifier, case, responses);
        let distinct = submitted.len();
        let correct = submitted
            .into_iter()
            .map(|(count, ticket)| if ticket.wait().verdict { count } else { 0 })
            .sum();
        JudgeReport { distinct, correct }
    }
}

/// Routes every case under one policy as an async session and judges the
/// answers into results; returns each case's result plus its routed attempt
/// trail (length 1 for the direct policies, the full ladder walk for
/// [`RoutePolicy::Escalate`]).
fn route_phase(
    engine: &SessionEngine,
    router: &ModelRouter,
    policy: RoutePolicy,
    requests: &[RepairRequest],
    cases: &[Arc<SvaBugEntry>],
    entries: &[SvaBugEntry],
    verifier: &EvalVerifier,
) -> Vec<(CaseResult, Vec<RouteAttempt>)> {
    let monitor = engine.monitor();
    let sessions: Vec<_> = requests
        .iter()
        .zip(cases)
        .map(|(request, case)| {
            let request = request.clone();
            let case = Arc::clone(case);
            let monitor = monitor.clone();
            async move {
                let ticket = router
                    .submit_async(request, policy)
                    .expect("router open during evaluation")
                    .await
                    .expect("router open during evaluation");
                monitor.phase(SessionPhase::Submitted);
                let outcome = ticket.await;
                monitor.phase(SessionPhase::Sampled);
                if outcome.escalations() > 0 {
                    monitor.phase(SessionPhase::Escalated);
                }
                let submitted = fan_out_candidates_async(verifier, &case, &outcome.responses).await;
                monitor.phase(SessionPhase::Verifying);
                let c = judge_submitted(submitted).await;
                monitor.phase(SessionPhase::Done);
                (outcome.responses.len(), c, outcome.attempts)
            }
        })
        .collect();
    let outcomes = engine.run_all(sessions);
    entries
        .iter()
        .zip(outcomes)
        .map(|(entry, outcome)| {
            let (n, c, attempts) = outcome.completed().expect("ladder session completed");
            (build_case_result(entry, n, c), attempts)
        })
        .collect()
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
    let requests: Vec<RepairRequest> = entries
        .iter()
        .map(|entry| {
            RepairRequest::new(
                CaseInput::from_entry(entry),
                config.samples,
                config.temperature,
            )
        })
        .collect();
    let cases: Vec<Arc<SvaBugEntry>> = entries
        .iter()
        .map(|entry| Arc::new(entry.clone()))
        .collect();
    let judge = Arc::new(LadderJudge {
        verifier: Arc::clone(&verifier),
        cases: requests
            .iter()
            .zip(&cases)
            .map(|(request, case)| (request.key(), Arc::clone(case)))
            .collect(),
    });
    let backends: Vec<BackendSpec> = models
        .iter()
        .map(|model| {
            BackendSpec::new(
                Arc::clone(model),
                config.service_config_for(&model.identity()),
            )
        })
        .collect();
    let router = ModelRouter::start(backends, judge, RouterConfig::default());
    let ladder = router.ladder().to_vec();
    let engine = SessionEngine::new(config.session_config());

    // Phase 1 — pinned: one full evaluation per model.  This also warms every
    // backend's response cache and the shared verdict cache, so the later
    // passes replay instead of recomputing.
    let per_model: Vec<ModelEvaluation> = models
        .iter()
        .enumerate()
        .map(|(idx, model)| ModelEvaluation {
            model: model.name().to_string(),
            results: route_phase(
                &engine,
                &router,
                RoutePolicy::Pinned(idx),
                &requests,
                &cases,
                entries,
                &verifier,
            )
            .into_iter()
            .map(|(result, _)| result)
            .collect(),
        })
        .collect();

    // Phase 2 — A/B split: the content hash of each case picks its arm.
    let ab_split = ModelEvaluation {
        model: format!("A/B split ({} arms)", models.len()),
        results: route_phase(
            &engine,
            &router,
            RoutePolicy::AbSplit,
            &requests,
            &cases,
            entries,
            &verifier,
        )
        .into_iter()
        .map(|(result, _)| result)
        .collect(),
    };

    // Phase 3 — escalation: cheapest rung first, re-submitting on failed
    // verdicts.  The terminal rung's responses are re-judged *positionally*
    // against each entry's own golden fix (pure verdict-cache hits on a
    // duplicate-free corpus, where this equals the terminal attempt's correct
    // count).  This keeps `c` truthful even when two corpus entries share
    // identical case content but different golden fixes — the router's judge,
    // which can only see request content, necessarily judges such twins
    // against one of them.
    let mut escalate_results = Vec::with_capacity(entries.len());
    let mut trails = Vec::with_capacity(entries.len());
    for (entry, (result, attempts)) in entries.iter().zip(route_phase(
        &engine,
        &router,
        RoutePolicy::Escalate,
        &requests,
        &cases,
        entries,
        &verifier,
    )) {
        escalate_results.push(result);
        trails.push(EscalationTrail {
            module_name: entry.module_name.clone(),
            attempts,
        });
    }
    let escalate = ModelEvaluation {
        model: format!("Escalate ({} rungs)", models.len()),
        results: escalate_results,
    };

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
