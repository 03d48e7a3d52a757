//! The verification offload pool: the *verdict* instantiation of the pool engine.
//!
//! `assertsolver::evaluate_model` used to run every bounded-checker verdict serially
//! on the caller thread, and ROADMAP profiling showed that loop dominating evaluation
//! wall-clock.  [`crate::pool`] owns queueing, caching, panic absorption, snapshots
//! and both frontends; this module says what is specific to verdicts
//! ([`Verify`]): requests are `(case, candidate response)` pairs carrying a
//! caller-built [`VerdictKey`], the work is one [`ResponseJudge::verdict`] call, the
//! value is a `bool`, every computed verdict is tallied true/false, and there is no
//! admission limit (the in-flight count is a gauge only).
//!
//! * [`VerifyPool`] owns its judge (`Arc<dyn ResponseJudge>`) and keeps a persistent
//!   pool until [`VerifyPool::shutdown`] or drop — reusable across evaluation runs,
//!   so the verdict cache stays warm;
//! * [`verify_scoped`] borrows the judge for the duration of a closure.
//!
//! ## Determinism
//!
//! Verdicts are pure functions of `(case, response, checker config)` — exactly the
//! content hashed into the [`VerdictKey`] — so the pool introduces no nondeterminism:
//! a job's verdict is the same whether it was computed on worker 0 or worker 7, on a
//! cold cache or a warm one.
//!
//! ## Panic absorption
//!
//! A panicking judge yields a *failed* verdict for that candidate, counted in
//! [`VerifyMetrics::verdict_panics`] and **not** cached, so a retry reaches the judge
//! again.

use crate::cache::VerdictKey;
use crate::journal::TracerHandle;
use crate::metrics::VerifyMetrics;
use crate::persist::{PersistSpec, VerdictSnapshot};
use crate::pool::{self, Owned, Pool, PoolConfig, Serve, Served, Worker};
use crate::telemetry::TelemetryHandle;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Duration;
use svmodel::Response;

/// Environment variable overriding the default verify worker count
/// (`VerifyConfig::default()`); CI runs the suite at 1 and 4 to exercise both the
/// single-threaded and the parallel verdict paths.
pub const VERIFY_WORKERS_ENV: &str = "ASSERTSOLVER_VERIFY_WORKERS";

/// Reads the verify-worker override from the environment, if set and valid.
///
/// Same policy as [`crate::rt::env_drivers`]: zero or garbage falls back to
/// the default with a one-line warning, and huge values clamp instead of
/// spawning an unbounded number of judge threads.
pub fn env_verify_workers() -> Option<usize> {
    let raw = std::env::var(VERIFY_WORKERS_ENV).ok()?;
    crate::rt::resolve_thread_knob(VERIFY_WORKERS_ENV, &raw)
}

/// Verify-pool tuning parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyConfig {
    /// Worker threads (and queue/cache shards). Clamped to at least 1.
    pub workers: usize,
    /// Bounded depth of each shard queue; submitters block past this (backpressure).
    pub shard_capacity: usize,
    /// Maximum jobs a worker drains per wake-up (micro-batching).
    pub max_batch: usize,
    /// Total verdict-cache entries across all shards.
    pub cache_capacity: usize,
    /// On-disk snapshot of the verdict cache: preloaded at start, written by
    /// [`Pool::flush`] / shutdown / the end of [`verify_scoped`].  `None`
    /// keeps the cache purely in-memory.  See [`crate::persist`] for the format
    /// and invalidation rules.
    pub persist: Option<PersistSpec>,
    /// Journal tracer admit and cache/panic diagnostics are emitted to; off by
    /// default, in which case each instrumented site costs one branch.
    pub tracer: TracerHandle,
    /// Telemetry registry the pool's latency histograms
    /// (`verify.verdict.latency` / `verify.queue_wait`) record into; off by
    /// default, in which case each instrumented site costs one branch.
    pub telemetry: TelemetryHandle,
}

impl Default for VerifyConfig {
    /// Defaults to 4 workers unless [`VERIFY_WORKERS_ENV`] overrides it.  Verdict
    /// jobs are much smaller than repair requests, so queues and caches run deeper
    /// than [`crate::ServiceConfig`]'s.
    fn default() -> Self {
        Self {
            workers: env_verify_workers().unwrap_or(4),
            shard_capacity: 128,
            max_batch: 16,
            cache_capacity: 4096,
            persist: None,
            tracer: TracerHandle::off(),
            telemetry: TelemetryHandle::off(),
        }
    }
}

impl VerifyConfig {
    /// Returns the config with the worker count replaced.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Returns the config with the total cache capacity replaced.
    pub fn with_cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.cache_capacity = cache_capacity;
        self
    }

    /// Returns the config with verdict-cache persistence enabled.
    pub fn with_persist(mut self, persist: PersistSpec) -> Self {
        self.persist = Some(persist);
        self
    }

    /// Returns the config with the journal tracer replaced.
    pub fn with_tracer(mut self, tracer: TracerHandle) -> Self {
        self.tracer = tracer;
        self
    }

    /// Returns the config with the telemetry handle replaced.
    pub fn with_telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// Anything that can judge whether a candidate response solves a case.
///
/// Implemented for free by any `Fn(&C, &Response) -> bool + Sync` closure, which is
/// how `assertsolver` plugs `response_is_correct` + `VerifyOracle` in.  Judges must
/// be pure in `(case, response)` — the pool caches and replays their verdicts.
pub trait ResponseJudge<C>: Sync {
    /// Returns `true` when the candidate solves the case.
    fn verdict(&self, case: &C, response: &Response) -> bool;
}

impl<C, F> ResponseJudge<C> for F
where
    F: Fn(&C, &Response) -> bool + Sync,
{
    fn verdict(&self, case: &C, response: &Response) -> bool {
        self(case, response)
    }
}

/// One verdict job: the case, the candidate, and the content key that routes it.
///
/// The pool is generic over the case type, so it cannot compute the key itself; the
/// caller builds it with [`crate::cache::verdict_key`] from the case fingerprint,
/// the response, and the checker-config fingerprint.  Cases are shared (`Arc`) so a
/// corpus entry judged against 20 candidates is not cloned 20 times.
#[derive(Debug, Clone)]
pub struct VerifyRequest<C> {
    /// The case being judged.
    pub case: Arc<C>,
    /// The candidate response.
    pub response: Response,
    /// Content hash of `(case, response, checker config)`.
    pub key: VerdictKey,
}

impl<C> VerifyRequest<C> {
    /// Convenience constructor.
    pub fn new(case: Arc<C>, response: Response, key: VerdictKey) -> Self {
        Self {
            case,
            response,
            key,
        }
    }
}

/// A served verdict: the judgement plus provenance and timing.
#[derive(Debug, Clone, PartialEq)]
pub struct VerdictOutcome {
    /// Whether the candidate solves the case.  `false` for candidates whose judge
    /// invocation panicked (see [`VerifyMetrics::verdict_panics`]).
    pub verdict: bool,
    /// Whether the answer came from the verdict cache.
    pub from_cache: bool,
    /// Index of the worker (= shard) that served the job.
    pub worker: usize,
    /// Time the job spent queued before a worker picked it up.
    pub queue_wait: Duration,
    /// Cache lookup plus (on a miss) judge invocation time.
    pub service_time: Duration,
}

/// Await-handle for a submitted verdict job.
pub type VerifyTicket = pool::Ticket<VerdictOutcome>;

/// Future returned by the async submit paths; see [`pool::SubmitFuture`].
pub type VerifySubmitFuture<'a, C> = pool::SubmitFuture<'a, Verify<C>>;

/// A persistent verification pool owning its judge and workers.
///
/// The judge is type-erased (`dyn ResponseJudge`) so callers can hold the pool in a
/// struct without naming closure types; the dynamic dispatch is noise next to a
/// bounded-checker verdict.  Keeping one pool across evaluation runs keeps the
/// verdict cache warm — re-evaluating a corpus the pool has already judged is pure
/// cache hits.
pub type VerifyPool<C> = Owned<Verify<C>, dyn ResponseJudge<C> + Send + Sync>;

/// Borrowed-judge pool handle available inside [`verify_scoped`].
pub type ScopedVerifier<'a, C> = &'a Pool<Verify<C>>;

/// The verdict instantiation of the pool engine, over cases of type `C`.
pub struct Verify<C>(PhantomData<fn(C)>);

impl<C: Send + Sync> Verify<C> {
    /// Builds the (not yet running) pool a config describes.
    fn pool(config: VerifyConfig) -> Pool<Self> {
        let config = PoolConfig {
            workers: config.workers,
            shard_capacity: config.shard_capacity,
            max_batch: config.max_batch,
            cache_capacity: config.cache_capacity,
            max_in_flight: 0,
            persist: config.persist,
            tracer: config.tracer,
            telemetry: config.telemetry,
        };
        Pool::new(Self(PhantomData), config)
    }
}

impl<C: Send + Sync> Worker for Verify<C> {
    type Request = VerifyRequest<C>;
    type Snapshot = VerdictSnapshot;
    type Outcome = VerdictOutcome;
    type Metrics = VerifyMetrics;

    const POOL: &'static str = "verify";
    const HISTOGRAMS: [Option<&'static str>; 3] = [
        Some("verify.queue_wait"),
        None,
        Some("verify.verdict.latency"),
    ];

    fn key(request: &VerifyRequest<C>) -> VerdictKey {
        request.key
    }

    fn failed() -> bool {
        false
    }

    fn outcome(verdict: bool, served: Served) -> VerdictOutcome {
        VerdictOutcome {
            verdict,
            from_cache: served.from_cache,
            worker: served.worker,
            queue_wait: served.queue_wait,
            service_time: served.service_time,
        }
    }

    fn metrics(pool: &Pool<Self>) -> VerifyMetrics {
        pool.recorder.snapshot_verify(
            pool.config.workers,
            pool.queue_depth(),
            pool.cache_entries(),
        )
    }

    fn computed(pool: &Pool<Self>, verdict: &bool) {
        pool.recorder.record_verdict(*verdict);
    }
}

impl<C: Send + Sync, J: ResponseJudge<C> + ?Sized> Serve<J> for Verify<C> {
    fn work(&self, judge: &J, request: &VerifyRequest<C>, _key: VerdictKey) -> bool {
        judge.verdict(&request.case, &request.response)
    }
}

impl<C: Send + Sync> Pool<Verify<C>> {
    /// Submits a whole batch and waits for every verdict, preserving input order.
    pub fn judge_all(&self, requests: Vec<VerifyRequest<C>>) -> Vec<VerdictOutcome> {
        self.submit_all(requests)
    }
}

impl<C: Send + Sync + 'static> VerifyPool<C> {
    /// Starts the verify workers.
    pub fn start(judge: Arc<dyn ResponseJudge<C> + Send + Sync>, config: VerifyConfig) -> Self {
        Owned::spawn(Verify::pool(config), judge, "svserve-verify")
    }
}

/// Runs a verify pool over a *borrowed* judge for the duration of `body`.
///
/// The pool is built on scoped threads, so `judge` only needs `Sync` — no `Arc`, no
/// `'static`.  Workers drain outstanding jobs and exit when `body` returns (or
/// panics).  When [`VerifyConfig::persist`] is set, the snapshot is preloaded
/// before the workers start and flushed after they have all joined (so the flush
/// sees every verdict the pool computed); a panicking `body` skips the flush.
pub fn verify_scoped<C, J, F, R>(judge: &J, config: VerifyConfig, body: F) -> R
where
    C: Send + Sync,
    J: ResponseJudge<C> + ?Sized,
    F: FnOnce(&ScopedVerifier<'_, C>) -> R,
{
    pool::scoped(Verify::pool(config), judge, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::verdict_key;
    use crate::pool::contract::{self, Harness, Tally};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A case whose verdict is "does the fixed line contain the case text?", plus an
    /// invocation counter so tests can prove cache hits skip the judge.  Panics on a
    /// fix that says `poison`.
    struct SubstringJudge {
        calls: AtomicUsize,
    }

    impl ResponseJudge<String> for SubstringJudge {
        fn verdict(&self, case: &String, response: &Response) -> bool {
            self.calls.fetch_add(1, Ordering::SeqCst);
            assert!(
                !response.fixed_line.contains("poison"),
                "malformed candidate"
            );
            response.fixed_line.contains(case.as_str())
        }
    }

    fn request(case: &str, fixed_line: &str) -> VerifyRequest<String> {
        let response = Response {
            bug_line_number: 1,
            buggy_line: "buggy".into(),
            fixed_line: fixed_line.into(),
            cot: None,
        };
        let key = verdict_key(&[case.as_bytes()], &response, b"test-config");
        VerifyRequest::new(Arc::new(case.to_string()), response, key)
    }

    #[test]
    fn owned_pool_judges_and_shuts_down() {
        let judge = Arc::new(SubstringJudge {
            calls: AtomicUsize::new(0),
        });
        let pool = VerifyPool::start(
            Arc::<SubstringJudge>::clone(&judge),
            VerifyConfig::default().with_workers(2),
        );
        let requests: Vec<VerifyRequest<String>> = (0..16)
            .map(|i| request("needle", &format!("fix {i} needle={}", i % 2 == 0)))
            .collect();
        let outcomes = pool.judge_all(requests);
        assert_eq!(outcomes.len(), 16);
        assert!(outcomes.iter().all(|o| o.verdict));
        let metrics = pool.shutdown();
        assert_eq!(metrics.completed, 16);
        assert_eq!(metrics.cache_misses, 16);
        assert_eq!(metrics.verdicts_true, 16);
        assert_eq!(judge.calls.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn repeated_jobs_are_served_from_the_verdict_cache() {
        let judge = Arc::new(SubstringJudge {
            calls: AtomicUsize::new(0),
        });
        let pool = VerifyPool::start(
            Arc::<SubstringJudge>::clone(&judge),
            VerifyConfig::default().with_workers(2),
        );
        let first = pool
            .submit(request("abc", "has abc inside"))
            .unwrap()
            .wait();
        let second = pool
            .submit(request("abc", "has abc inside"))
            .unwrap()
            .wait();
        assert!(first.verdict && second.verdict);
        assert!(!first.from_cache);
        assert!(second.from_cache);
        assert_eq!(
            judge.calls.load(Ordering::SeqCst),
            1,
            "cache hit must not re-invoke the judge"
        );
        let metrics = pool.metrics();
        assert_eq!(metrics.cache_hits, 1);
        assert_eq!(metrics.cache_misses, 1);
    }

    #[test]
    fn verdicts_are_identical_across_worker_counts_and_orders() {
        let workload: Vec<VerifyRequest<String>> = (0..40)
            .map(|i| request(&format!("case {}", i % 7), &format!("fix case {}", i % 5)))
            .collect();
        let mut reversed = workload.clone();
        reversed.reverse();

        let run = |requests: Vec<VerifyRequest<String>>, workers: usize| -> Vec<bool> {
            let judge = SubstringJudge {
                calls: AtomicUsize::new(0),
            };
            verify_scoped(
                &judge,
                VerifyConfig::default().with_workers(workers),
                |verifier| {
                    verifier
                        .judge_all(requests)
                        .into_iter()
                        .map(|o| o.verdict)
                        .collect()
                },
            )
        };

        let one = run(workload.clone(), 1);
        let eight = run(workload.clone(), 8);
        assert_eq!(one, eight, "worker count must not change verdicts");

        let mut reversed_verdicts = run(reversed, 4);
        reversed_verdicts.reverse();
        assert_eq!(
            one, reversed_verdicts,
            "arrival order must not change verdicts"
        );
    }

    /// The verdict instantiation, as the engine's contract tests drive it.
    struct VerifyHarness;

    impl Harness for VerifyHarness {
        type Worker = Verify<String>;
        type Backend = dyn ResponseJudge<String> + Send + Sync;

        fn pool(workers: usize, persist: Option<PersistSpec>) -> Pool<Verify<String>> {
            Verify::pool(VerifyConfig {
                persist,
                ..VerifyConfig::default().with_workers(workers)
            })
        }

        fn backend() -> Arc<Self::Backend> {
            Arc::new(SubstringJudge {
                calls: AtomicUsize::new(0),
            })
        }

        fn request(tag: usize, poisoned: bool) -> VerifyRequest<String> {
            let fix = if poisoned { "poison" } else { "fix" };
            request(&format!("case {tag}"), &format!("{fix} case {tag}"))
        }

        fn view(outcome: &VerdictOutcome) -> (bool, bool, usize) {
            (!outcome.verdict, outcome.from_cache, outcome.worker)
        }

        fn tally(metrics: &VerifyMetrics) -> Tally {
            Tally {
                in_flight: metrics.in_flight_sessions,
                completed: metrics.completed,
                panics: metrics.verdict_panics,
                snapshot_loaded_entries: metrics.snapshot_loaded_entries,
                snapshot_saves: metrics.snapshot_saves,
                snapshot_save_failures: metrics.snapshot_save_failures,
                snapshot_rejects: metrics.snapshot_rejects,
                snapshot_compacted_entries: metrics.snapshot_compacted_entries,
            }
        }
    }

    #[test]
    fn submit_after_close_is_refused() {
        contract::submit_after_close_is_refused::<VerifyHarness>();
    }

    #[test]
    fn a_dropped_submit_future_returns_its_slot() {
        contract::a_dropped_submit_future_returns_its_slot::<VerifyHarness>();
    }

    #[test]
    fn a_panicking_judge_fails_the_candidate_without_poisoning_the_pool() {
        contract::panicking_work_is_absorbed::<VerifyHarness>();
        // A panicked invocation tallies no verdict, true or false.
        let metrics = verify_scoped(
            &*VerifyHarness::backend(),
            VerifyConfig::default().with_workers(1),
            |verifier| {
                verifier.judge_all(vec![
                    VerifyHarness::request(0, false),
                    VerifyHarness::request(1, true),
                ]);
                verifier.metrics()
            },
        );
        assert_eq!(metrics.verdicts_true + metrics.verdicts_false, 1);
        assert_eq!(metrics.cache_misses - metrics.verdict_panics, 1);
    }

    #[test]
    fn an_idle_pool_never_overwrites_a_valuable_snapshot() {
        contract::an_idle_pool_never_overwrites_a_valuable_snapshot::<VerifyHarness>();
    }

    #[test]
    fn idle_entries_are_compacted_once_the_write_lands() {
        contract::idle_entries_are_compacted_once_the_write_lands::<VerifyHarness>();
    }

    #[test]
    fn shard_placement_is_content_based() {
        contract::placement_is_key_fold64_modulo_workers::<VerifyHarness>();
    }

    #[test]
    fn scoped_pool_reports_metrics() {
        let judge = SubstringJudge {
            calls: AtomicUsize::new(0),
        };
        let metrics = verify_scoped(
            &judge,
            VerifyConfig::default().with_workers(1),
            |verifier| {
                let outcomes = verifier.judge_all(
                    (0..10)
                        .map(|i| request("x", &format!("{} x={}", i, i % 2 == 0)))
                        .collect(),
                );
                assert!(outcomes.iter().all(|o| o.worker == 0));
                verifier.metrics()
            },
        );
        assert_eq!(metrics.workers, 1);
        assert_eq!(metrics.completed, 10);
        assert_eq!(metrics.verdicts_true + metrics.verdicts_false, 10);
        assert!(metrics.mean_batch_size >= 1.0);
        assert!(metrics.throughput_per_sec > 0.0);
    }

    #[test]
    fn env_override_parses_only_positive_integers() {
        // Written via a helper rather than set_var: tests run multi-threaded and
        // the parsing logic is what matters.
        let parse = |raw: &str| {
            raw.trim()
                .parse::<usize>()
                .ok()
                .filter(|&workers| workers > 0)
        };
        assert_eq!(parse(" 4 "), Some(4));
        assert_eq!(parse("1"), Some(1));
        assert_eq!(parse("0"), None);
        assert_eq!(parse("many"), None);
    }
}
