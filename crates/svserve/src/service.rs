//! The repair service: the *sampling* instantiation of the pool engine.
//!
//! [`crate::pool`] owns queueing, caching, panic absorption, snapshots and both
//! frontends; this module says what is specific to repair ([`Repair`]): requests
//! are `(case, samples, temperature)` keyed by [`case_key`], the work is one
//! [`RepairModel::solve`] call, the value is the sampled response set, and the
//! pool additionally feeds the time-windowed telemetry served over the wire.
//!
//! * [`RepairService`] owns its model (`Arc<M>`) and keeps a persistent pool until
//!   [`RepairService::shutdown`] or drop — the long-running daemon shape;
//! * [`serve_scoped`] borrows the model for the duration of a closure — the shape
//!   `assertsolver::evaluate_model` uses, since evaluation only holds `&M`.
//!
//! ## Determinism
//!
//! The response set for a request is a pure function of the request content and the
//! service seed: the sampler seed is derived from the content hash (never from
//! arrival order or worker identity), and requests route to shards by the same hash.
//! Running the same workload with 1 or 8 workers therefore yields byte-identical
//! responses — only the wall-clock changes.

use crate::cache::{case_key, CaseKey};
use crate::journal::TracerHandle;
use crate::metrics::ServiceMetrics;
use crate::persist::{PersistSpec, ResponseSnapshot};
use crate::pool::{self, Owned, Pool, PoolConfig, Serve, Served, Worker};
use crate::telemetry::{RegistrySnapshot, TelemetryHandle, TelemetryWindows, WindowSnapshot};
use std::sync::Arc;
use std::time::Duration;
use svmodel::{CaseInput, RepairModel, Response};

/// Service tuning parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Worker threads (and queue/cache shards). Clamped to at least 1.
    pub workers: usize,
    /// Bounded depth of each shard queue; submitters block past this (backpressure).
    pub shard_capacity: usize,
    /// Maximum jobs a worker drains per wake-up (micro-batching).
    pub max_batch: usize,
    /// Total response-cache entries across all shards.
    pub cache_capacity: usize,
    /// Service seed mixed into every per-case sampler seed.
    pub seed: u64,
    /// Admission control: maximum requests in flight (admitted but not yet
    /// completed) before `submit` sheds new work with [`crate::SubmitError::Busy`]
    /// instead of queueing it.  `0` = unbounded.  Shed requests are counted in
    /// [`ServiceMetrics::shed_busy`]; the rejection is deterministic — it
    /// depends only on the exact in-flight count, never on timing heuristics.
    pub max_in_flight: usize,
    /// On-disk snapshot of the response cache: preloaded at start, written by
    /// [`Pool::flush`] / shutdown / the end of [`serve_scoped`].  `None`
    /// keeps the cache purely in-memory.  See [`crate::persist`] for the format
    /// and invalidation rules.
    pub persist: Option<PersistSpec>,
    /// Journal tracer admit/shed and cache/panic diagnostics are emitted to;
    /// off by default, in which case each instrumented site costs one branch.
    pub tracer: TracerHandle,
    /// Telemetry registry the pool's latency histograms
    /// (`service.repair.queue_wait` / `.cache_lookup` / `.solve`) record into;
    /// off by default, in which case each instrumented site costs one branch.
    pub telemetry: TelemetryHandle,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            shard_capacity: 64,
            max_batch: 8,
            cache_capacity: 1024,
            seed: 0x0005_E127_AB1E,
            max_in_flight: 0,
            persist: None,
            tracer: TracerHandle::off(),
            telemetry: TelemetryHandle::off(),
        }
    }
}

impl ServiceConfig {
    /// Returns the config with the worker count replaced.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Returns the config with the service seed replaced.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the config with response-cache persistence enabled.
    pub fn with_persist(mut self, persist: PersistSpec) -> Self {
        self.persist = Some(persist);
        self
    }

    /// Returns the config with the in-flight admission limit replaced
    /// (`0` = unbounded).
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight;
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

/// One repair request: the case plus the sampling protocol.
///
/// Serializable so it can cross a process boundary verbatim ([`crate::wire`]);
/// the content-addressed key derives from the same fields on both sides.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RepairRequest {
    /// Model input (spec, buggy source, failure log).
    pub case: CaseInput,
    /// Number of samples to draw.
    pub samples: usize,
    /// Sampling temperature.
    pub temperature: f64,
}

impl RepairRequest {
    /// Convenience constructor.
    pub fn new(case: CaseInput, samples: usize, temperature: f64) -> Self {
        Self {
            case,
            samples,
            temperature,
        }
    }

    /// The request's content-addressed cache key.
    pub fn key(&self) -> CaseKey {
        case_key(&self.case, self.samples, self.temperature)
    }
}

/// A served request: the model's answers plus provenance and timing.
///
/// Responses are shared (`Arc`) with the service cache, so a cache hit costs one
/// reference bump rather than a deep clone of every sampled string.  An empty
/// response set with [`ServiceMetrics::solve_panics`] > 0 indicates the model
/// panicked on this case (the service absorbs the panic instead of stranding the
/// ticket).
#[derive(Debug, Clone, PartialEq)]
pub struct RepairOutcome {
    /// The sampled responses, in sampling order.
    pub responses: Arc<Vec<Response>>,
    /// Whether the answer came from the response cache.
    pub from_cache: bool,
    /// Index of the worker (= shard) that served the request.
    pub worker: usize,
    /// Time the job spent queued before a worker picked it up.
    pub queue_wait: Duration,
    /// Cache lookup plus (on a miss) model invocation time.
    pub service_time: Duration,
}

/// Await-handle for a submitted request.
pub type RepairTicket = pool::Ticket<RepairOutcome>;

/// A persistent repair service owning its model and worker pool.
pub type RepairService<M> = Owned<Repair, M>;

/// Borrowed-model service handle available inside [`serve_scoped`].
pub type ScopedService<'a> = &'a Pool<Repair>;

pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The repair instantiation of the pool engine.
pub struct Repair {
    /// Service seed mixed into every per-case sampler seed.
    seed: u64,
    /// Time-windowed rates/latencies (the `StatsWindow` exchange); installed
    /// with telemetry, `None` otherwise — the hot path pays one branch.
    windows: Option<TelemetryWindows>,
}

impl Repair {
    /// Builds the (not yet running) pool a config describes.
    pub(crate) fn pool(config: ServiceConfig) -> Pool<Self> {
        let worker = Self {
            seed: config.seed,
            windows: config.telemetry.is_on().then(TelemetryWindows::from_env),
        };
        let config = PoolConfig {
            workers: config.workers,
            shard_capacity: config.shard_capacity,
            max_batch: config.max_batch,
            cache_capacity: config.cache_capacity,
            max_in_flight: config.max_in_flight,
            persist: config.persist,
            tracer: config.tracer,
            telemetry: config.telemetry,
        };
        Pool::new(worker, config)
    }
}

impl Worker for Repair {
    type Request = RepairRequest;
    type Snapshot = ResponseSnapshot;
    type Outcome = RepairOutcome;
    type Metrics = ServiceMetrics;

    const POOL: &'static str = "repair";
    const HISTOGRAMS: [Option<&'static str>; 3] = [
        Some("service.repair.queue_wait"),
        Some("service.repair.cache_lookup"),
        Some("service.repair.solve"),
    ];

    fn key(request: &RepairRequest) -> CaseKey {
        request.key()
    }

    fn failed() -> Arc<Vec<Response>> {
        Arc::new(Vec::new())
    }

    fn outcome(responses: Arc<Vec<Response>>, served: Served) -> RepairOutcome {
        RepairOutcome {
            responses,
            from_cache: served.from_cache,
            worker: served.worker,
            queue_wait: served.queue_wait,
            service_time: served.service_time,
        }
    }

    fn metrics(pool: &Pool<Self>) -> ServiceMetrics {
        pool.recorder.snapshot(
            pool.config.workers,
            pool.queue_depth(),
            pool.cache_entries(),
        )
    }

    /// Folds the service seed into the fingerprint.
    ///
    /// Cached responses depend on the sampler seed (derived from the service seed
    /// plus the content hash), but [`CaseKey`] does not cover it — so the seed must
    /// be part of the snapshot identity or a warm start under a different seed
    /// would silently replay wrong responses.  Folding it here makes the invariant
    /// unbreakable instead of a caller convention.
    fn extend_fingerprint(&self, fingerprint: &mut Vec<u8>) {
        fingerprint.extend_from_slice(&self.seed.to_le_bytes());
    }

    fn windows(&self) -> Option<&TelemetryWindows> {
        self.windows.as_ref()
    }
}

impl<M: RepairModel + ?Sized> Serve<M> for Repair {
    /// Samples the model under a seed that is a pure function of service seed
    /// and content hash, never of arrival order or worker identity.
    fn work(&self, model: &M, request: &RepairRequest, key: CaseKey) -> Arc<Vec<Response>> {
        let seed = splitmix64(self.seed ^ key.fold64());
        Arc::new(model.solve(&request.case, request.samples, request.temperature, seed))
    }
}

impl Pool<Repair> {
    /// Submits a whole workload and waits for every answer, preserving input order.
    pub fn solve_all(&self, requests: Vec<RepairRequest>) -> Vec<RepairOutcome> {
        self.submit_all(requests)
    }

    /// The introspection snapshot served over the wire (`Stats` exchange):
    /// the exported [`ServiceMetrics`] under the `service.` prefix, merged
    /// over the live telemetry registry (latency histograms, wire frame
    /// sizes) when one is installed.  Works with telemetry off — the
    /// counters and gauges come from the always-on metrics recorder.
    pub fn stats_snapshot(&self) -> RegistrySnapshot {
        let mut out = self.config.telemetry.snapshot();
        self.metrics().export("service", &mut out);
        out
    }

    /// The time-windowed snapshot served over the wire (`StatsWindow`
    /// exchange).  With telemetry off the windows are not maintained and
    /// this returns an empty default — a counted degradation, never an
    /// error, so `svtop` can poll a mixed fleet.
    pub fn stats_window(&self) -> WindowSnapshot {
        match self.worker.windows() {
            Some(windows) => windows.snapshot(self.metrics().in_flight_sessions as u64),
            None => WindowSnapshot::default(),
        }
    }
}

impl<M: RepairModel + Send + Sync + 'static> RepairService<M> {
    /// Starts the worker pool.
    pub fn start(model: Arc<M>, config: ServiceConfig) -> Self {
        Owned::spawn(Repair::pool(config), model, "svserve-worker")
    }
}

/// Runs a worker pool over a *borrowed* model for the duration of `body`.
///
/// The pool is built on scoped threads, so `model` only needs `Sync` — no `Arc`, no
/// `'static`.  Workers drain outstanding jobs and exit when `body` returns (or
/// panics).  When [`ServiceConfig::persist`] is set, the snapshot is preloaded
/// before the workers start and flushed after they have all joined (so the flush
/// sees every response the pool computed); a panicking `body` skips the flush.
pub fn serve_scoped<M, F, R>(model: &M, config: ServiceConfig, body: F) -> R
where
    M: RepairModel + Sync + ?Sized,
    F: FnOnce(&ScopedService<'_>) -> R,
{
    pool::scoped(Repair::pool(config), model, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::contract::{self, Harness, Tally};
    use crate::queue::SubmitError;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Deterministic test model: echoes a line number derived from case + seed, and
    /// counts invocations so tests can prove cache hits skip the model.  Panics on
    /// a case whose spec says `poison`.
    struct CountingModel {
        calls: AtomicUsize,
    }

    impl CountingModel {
        fn new() -> Self {
            Self {
                calls: AtomicUsize::new(0),
            }
        }
    }

    impl RepairModel for CountingModel {
        fn name(&self) -> &str {
            "counting"
        }

        fn solve(
            &self,
            case: &CaseInput,
            samples: usize,
            _temperature: f64,
            seed: u64,
        ) -> Vec<Response> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            assert!(!case.spec.contains("poison"), "malformed case");
            (0..samples)
                .map(|i| Response {
                    bug_line_number: (case.spec.len() as u32) + i as u32,
                    buggy_line: case.buggy_source.clone(),
                    fixed_line: format!("seed-{seed}-sample-{i}"),
                    cot: None,
                })
                .collect()
        }
    }

    fn request(tag: usize) -> RepairRequest {
        RepairRequest::new(
            CaseInput {
                spec: format!("spec {tag}"),
                buggy_source: format!("module m{tag}(); endmodule"),
                logs: format!("assertion a{tag} failed"),
            },
            4,
            0.2,
        )
    }

    #[test]
    fn owned_service_serves_and_shuts_down() {
        let model = Arc::new(CountingModel::new());
        let service =
            RepairService::start(Arc::clone(&model), ServiceConfig::default().with_workers(2));
        let outcomes = service.solve_all((0..20).map(request).collect());
        assert_eq!(outcomes.len(), 20);
        assert!(outcomes.iter().all(|o| o.responses.len() == 4));
        let metrics = service.shutdown();
        assert_eq!(metrics.completed, 20);
        assert_eq!(metrics.cache_misses, 20);
        assert_eq!(model.calls.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn repeated_submission_is_served_from_cache() {
        let model = Arc::new(CountingModel::new());
        let service =
            RepairService::start(Arc::clone(&model), ServiceConfig::default().with_workers(2));
        let first = service.submit(request(7)).unwrap().wait();
        let second = service.submit(request(7)).unwrap().wait();
        assert!(!first.from_cache);
        assert!(second.from_cache);
        assert_eq!(first.responses, second.responses);
        assert_eq!(
            model.calls.load(Ordering::SeqCst),
            1,
            "cache hit must not re-invoke the model"
        );
        let metrics = service.metrics();
        assert_eq!(metrics.cache_hits, 1);
        assert_eq!(metrics.cache_misses, 1);
    }

    #[test]
    fn results_are_identical_across_worker_counts_and_orders() {
        let workload: Vec<RepairRequest> = (0..40).map(request).collect();
        let mut reversed = workload.clone();
        reversed.reverse();

        let run = |requests: Vec<RepairRequest>, workers: usize| -> Vec<Arc<Vec<Response>>> {
            let model = CountingModel::new();
            serve_scoped(
                &model,
                ServiceConfig::default().with_workers(workers),
                |service| {
                    service
                        .solve_all(requests)
                        .into_iter()
                        .map(|o| o.responses)
                        .collect()
                },
            )
        };

        let one = run(workload.clone(), 1);
        let four = run(workload.clone(), 4);
        assert_eq!(one, four, "worker count must not change results");

        let mut reversed_results = run(reversed, 4);
        reversed_results.reverse();
        assert_eq!(
            one, reversed_results,
            "arrival order must not change results"
        );
    }

    #[test]
    fn scoped_service_reports_queue_and_batch_metrics() {
        let model = CountingModel::new();
        let metrics = serve_scoped(
            &model,
            ServiceConfig::default().with_workers(1).with_seed(9),
            |service| {
                let outcomes = service.solve_all((0..10).map(request).collect());
                assert!(outcomes.iter().all(|o| o.worker == 0));
                service.metrics()
            },
        );
        assert_eq!(metrics.workers, 1);
        assert_eq!(metrics.completed, 10);
        assert!(metrics.mean_batch_size >= 1.0);
        assert!(metrics.throughput_per_sec > 0.0);
    }

    /// [`CountingModel`] behind a gate the test opens: while it is shut every
    /// worker blocks inside `solve`, so nothing completes and in-flight counts
    /// are exact.
    struct GatedModel {
        open: std::sync::Mutex<bool>,
        opened: std::sync::Condvar,
        inner: CountingModel,
    }

    impl RepairModel for GatedModel {
        fn name(&self) -> &str {
            "gated"
        }

        fn solve(&self, case: &CaseInput, samples: usize, temp: f64, seed: u64) -> Vec<Response> {
            let open = self.open.lock().unwrap();
            drop(self.opened.wait_while(open, |open| !*open).unwrap());
            self.inner.solve(case, samples, temp, seed)
        }
    }

    #[test]
    fn admission_sheds_exactly_the_overflow_deterministically() {
        let model = Arc::new(GatedModel {
            open: std::sync::Mutex::new(false),
            opened: std::sync::Condvar::new(),
            inner: CountingModel::new(),
        });
        let config = ServiceConfig::default().with_workers(2);
        let service = RepairService::start(Arc::clone(&model), config.with_max_in_flight(64));
        // Gate shut: nothing completes, so exactly the first 64 of 96
        // submissions are admitted and the other 32 are shed.
        let submits: Vec<_> = (0..96).map(|tag| service.submit(request(tag))).collect();
        let busy = submits[64..].iter().map(|submit| submit.as_ref().err());
        assert!(busy.into_iter().all(|err| err == Some(&SubmitError::Busy)));
        let admitted: Vec<RepairTicket> =
            submits.into_iter().take(64).map(Result::unwrap).collect();
        let metrics = service.metrics();
        assert_eq!((metrics.shed_busy, metrics.in_flight_sessions), (32, 64));

        *model.open.lock().unwrap() = true;
        model.opened.notify_all();
        for ticket in admitted {
            assert_eq!(ticket.wait().responses.len(), 4);
        }
        let metrics = service.metrics();
        assert_eq!(metrics.in_flight_sessions, 0);
        assert_eq!((metrics.submitted, metrics.completed), (64, 64));
        assert_eq!(metrics.peak_in_flight_sessions, 64);
        assert!(metrics.render().contains("shed busy"));
        // With the pool drained, admission has recovered.
        let late = service.submit(request(96)).expect("slots free again");
        assert_eq!(late.wait().responses.len(), 4);
        service.shutdown();
    }

    /// The repair instantiation, as the engine's contract tests drive it.
    struct RepairHarness;

    impl Harness for RepairHarness {
        type Worker = Repair;
        type Backend = CountingModel;

        fn pool(workers: usize, persist: Option<PersistSpec>) -> Pool<Repair> {
            Repair::pool(ServiceConfig {
                persist,
                ..ServiceConfig::default().with_workers(workers)
            })
        }

        fn backend() -> Arc<CountingModel> {
            Arc::new(CountingModel::new())
        }

        fn request(tag: usize, poisoned: bool) -> RepairRequest {
            let mut request = request(tag);
            if poisoned {
                request.case.spec.push_str(" poison");
            }
            request
        }

        fn view(outcome: &RepairOutcome) -> (bool, bool, usize) {
            (
                outcome.responses.is_empty(),
                outcome.from_cache,
                outcome.worker,
            )
        }

        fn tally(metrics: &ServiceMetrics) -> Tally {
            Tally {
                in_flight: metrics.in_flight_sessions,
                completed: metrics.completed,
                panics: metrics.solve_panics,
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
        contract::submit_after_close_is_refused::<RepairHarness>();
    }

    #[test]
    fn a_submit_refused_at_close_returns_its_slot() {
        contract::a_submit_refused_at_close_returns_its_slot::<RepairHarness>();
    }

    #[test]
    fn a_panicking_model_does_not_strand_tickets() {
        contract::panicking_work_is_absorbed::<RepairHarness>();
    }

    #[test]
    fn an_idle_pool_never_overwrites_a_valuable_snapshot() {
        contract::an_idle_pool_never_overwrites_a_valuable_snapshot::<RepairHarness>();
    }

    #[test]
    fn idle_entries_are_compacted_once_the_write_lands() {
        contract::idle_entries_are_compacted_once_the_write_lands::<RepairHarness>();
    }

    #[test]
    fn shard_routing_is_content_based() {
        contract::placement_is_key_fold64_modulo_workers::<RepairHarness>();
        // Seeds derive from content, not order: the same request samples the
        // same responses on any pool, a different request different ones.
        let sample = |tag| {
            let pool = RepairHarness::pool(1, None);
            let model = CountingModel::new();
            pool::scoped(pool, &model, |pool| pool.solve_all(vec![request(tag)]))[0]
                .responses
                .clone()
        };
        assert_eq!(sample(3), sample(3));
        assert_ne!(sample(3)[0].fixed_line, sample(4)[0].fixed_line);
    }
}
