//! The repair service: the *sampling* instantiation of the pool engine.
//!
//! [`crate::pool`] owns admission, caching, panic absorption, snapshots and the
//! frontend; this module says what is specific to repair ([`Repair`]): requests
//! are `(case, samples, temperature)` keyed by [`case_key`], the work is one
//! [`RepairModel::solve`] call, and the value is the sampled response set.
//!
//! Both frontends solve each request on the thread that submits it:
//!
//! * [`RepairService`] owns its model (`Arc<M>`) until
//!   [`RepairService::shutdown`] or drop — the long-running shape the shard
//!   server hosts, whose connection threads are the submitters;
//! * [`serve_scoped`] borrows the model for the duration of a closure — the
//!   shape `assertsolver::evaluate_model` uses, since evaluation only holds `&M`.
//!
//! ## Determinism
//!
//! The response set for a request is a pure function of the request content and the
//! service seed: the sampler seed is derived from the content hash (never from
//! arrival order or shard), and requests route to cache shards by the same hash.
//! Running the same workload with 1 or 8 shards therefore yields byte-identical
//! responses — only the wall-clock changes.

use crate::cache::{case_key, CaseKey};
use crate::metrics::ServiceMetrics;
use crate::persist::{PersistSpec, ResponseSnapshot};
use crate::pool::{self, Bound, Pool, PoolConfig, Serve, Served, Worker};
use std::ops::Deref;
use std::sync::Arc;
use std::time::Duration;
use svmodel::{CaseInput, RepairModel, Response};

/// Service tuning parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Response-cache shards, clamped to at least 1.  Requests are solved
    /// on the submitting thread, so this sizes the shards and nothing else.
    pub workers: usize,
    /// Total response-cache entries across all shards.
    pub cache_capacity: usize,
    /// Service seed mixed into every per-case sampler seed.
    pub seed: u64,
    /// Admission control: maximum requests in flight (admitted but not yet
    /// completed) before `submit` sheds new work with [`crate::SubmitError::Busy`].
    /// `0` = unbounded.  Shed requests are counted in
    /// [`ServiceMetrics::shed_busy`]; the rejection is deterministic — it
    /// depends only on the exact in-flight count, never on timing heuristics.
    pub max_in_flight: usize,
    /// On-disk snapshot of the response cache: preloaded at start, written by
    /// [`Pool::flush`] / shutdown / drop / the end of [`serve_scoped`].  `None`
    /// keeps the cache purely in-memory.  See [`crate::persist`] for the format
    /// and invalidation rules.
    pub persist: Option<PersistSpec>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            cache_capacity: 1024,
            seed: 0x0005_E127_AB1E,
            max_in_flight: 0,
            persist: None,
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
}

/// One repair request: the case plus the sampling protocol.
///
/// Serializable so it can travel in a wire frame verbatim ([`crate::wire`]);
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
/// panicked on this case (the service absorbs the panic instead of unwinding
/// through the submitter).
#[derive(Debug, Clone, PartialEq)]
pub struct RepairOutcome {
    /// The sampled responses, in sampling order.
    pub responses: Arc<Vec<Response>>,
    /// Whether the answer came from the response cache.
    pub from_cache: bool,
    /// Index of the cache shard that served the request.
    pub worker: usize,
    /// Cache lookup plus (on a miss) model invocation time.
    pub service_time: Duration,
}

/// Await-handle for a submitted request.
pub type RepairTicket = pool::Ticket<RepairOutcome>;

/// A persistent repair service owning its model; it solves each request on
/// the thread that submits it.
pub type RepairService<M> = Bound<Repair, Arc<M>>;

/// Borrowed-model service available inside [`serve_scoped`]: it solves each
/// request on the thread that submits it.
pub type ScopedService<'a, M> = Bound<Repair, &'a M>;

/// The SplitMix64 finalizer: every content-derived seed, placement and arm
/// in the serving stack mixes its key through it.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The repair instantiation of the pool engine.
pub struct Repair {
    /// Service seed mixed into every per-case sampler seed.
    seed: u64,
}

impl Repair {
    /// Builds the (not yet running) pool a config describes.
    pub(crate) fn pool(config: ServiceConfig) -> Pool<Self> {
        let worker = Self { seed: config.seed };
        let config = PoolConfig {
            workers: config.workers,
            cache_capacity: config.cache_capacity,
            max_in_flight: config.max_in_flight,
            persist: config.persist,
        };
        Pool::new(worker, config)
    }
}

impl Worker for Repair {
    type Request = RepairRequest;
    type Snapshot = ResponseSnapshot;
    type Outcome = RepairOutcome;
    type Metrics = ServiceMetrics;

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
            service_time: served.service_time,
        }
    }

    fn metrics(pool: &Pool<Self>) -> ServiceMetrics {
        pool.recorder
            .snapshot(pool.config.workers, pool.cache_entries())
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
}

impl<M: RepairModel + ?Sized> Serve<M> for Repair {
    /// Samples the model under a seed that is a pure function of service seed
    /// and content hash, never of arrival order or shard.
    fn work(&self, model: &M, request: &RepairRequest, key: CaseKey) -> Arc<Vec<Response>> {
        let seed = splitmix64(self.seed ^ key.fold64());
        Arc::new(model.solve(&request.case, request.samples, request.temperature, seed))
    }
}

impl<H: Deref> Bound<Repair, H>
where
    H::Target: RepairModel,
{
    /// Serves a whole workload, preserving input order.
    pub fn solve_all(&self, requests: Vec<RepairRequest>) -> Vec<RepairOutcome> {
        self.submit_all(requests)
    }
}

impl<M: RepairModel + ?Sized> RepairService<M> {
    /// Builds the service, preloading its snapshot when one is configured.
    pub fn start(model: Arc<M>, config: ServiceConfig) -> Self {
        Bound::in_place(Repair::pool(config), model)
    }
}

/// Serves a *borrowed* model for the duration of `body`, solving each request
/// on the thread that submits it: no thread is spawned, so `model` needs no
/// `Arc`, no `'static` and no `Sync`.  When [`ServiceConfig::persist`] is
/// set, the snapshot is preloaded before `body` runs and flushed once it has
/// returned (or unwound).
pub fn serve_scoped<M, F, R>(model: &M, config: ServiceConfig, body: F) -> R
where
    M: RepairModel + ?Sized,
    F: FnOnce(&ScopedService<'_, M>) -> R,
{
    let service = Bound::in_place(Repair::pool(config), model);
    body(&service)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::contract::{self, Harness, Tally};
    use crate::pool::SubmitError;
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

    /// [`CountingModel`] that records the thread of every `solve`.
    struct ThreadRecordingModel {
        inner: CountingModel,
        threads: std::sync::Mutex<Vec<std::thread::ThreadId>>,
    }

    impl RepairModel for ThreadRecordingModel {
        fn name(&self) -> &str {
            "thread-recording"
        }

        fn solve(&self, case: &CaseInput, samples: usize, temp: f64, seed: u64) -> Vec<Response> {
            self.threads
                .lock()
                .unwrap()
                .push(std::thread::current().id());
            self.inner.solve(case, samples, temp, seed)
        }
    }

    impl ThreadRecordingModel {
        fn new() -> Self {
            Self {
                inner: CountingModel::new(),
                threads: std::sync::Mutex::new(Vec::new()),
            }
        }
    }

    #[test]
    fn a_scoped_service_solves_on_the_submitting_thread() {
        let model = ThreadRecordingModel::new();
        let config = ServiceConfig::default().with_workers(4);
        let outcomes = serve_scoped(&model, config, |service| {
            service.solve_all((0..12).map(request).collect())
        });
        assert!(outcomes
            .iter()
            .all(|o| !o.from_cache && o.responses.len() == 4));
        let threads = model.threads.into_inner().unwrap();
        assert_eq!(threads.len(), 12);
        assert!(threads.iter().all(|&id| id == std::thread::current().id()));
    }

    #[test]
    fn an_owned_service_solves_on_the_submitting_thread() {
        let model = Arc::new(ThreadRecordingModel::new());
        let config = ServiceConfig::default().with_workers(4);
        let service = RepairService::start(Arc::clone(&model), config);
        let submitter = std::thread::scope(|scope| {
            let other = scope.spawn(|| {
                service.solve_all((0..12).map(request).collect());
                std::thread::current().id()
            });
            other.join().unwrap()
        });
        let outcomes = service.solve_all((12..24).map(request).collect());
        assert!(outcomes.iter().all(|o| o.responses.len() == 4));
        assert_eq!(service.shutdown().completed, 24);
        let threads = model.threads.lock().unwrap().clone();
        assert_eq!(threads.len(), 24);
        assert_eq!(threads[..12], [submitter; 12]);
        assert_eq!(threads[12..], [std::thread::current().id(); 12]);
    }

    /// [`CountingModel`] behind a gate the test opens: while it is shut every
    /// submitter blocks inside `solve`, so nothing completes and in-flight
    /// counts are exact.
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
        std::thread::scope(|scope| {
            // Gate shut: 64 submitters park inside `solve`, holding every
            // slot, so exactly the 32 submissions after them are shed.
            let parked: Vec<_> = (0..64)
                .map(|tag| {
                    let service = &service;
                    scope.spawn(move || service.submit(request(tag)).map(|t| t.wait()))
                })
                .collect();
            while service.metrics().in_flight_sessions < 64 {
                std::thread::yield_now();
            }
            let shed = (64..96).map(|tag| service.submit(request(tag)).err());
            assert!(shed.into_iter().all(|err| err == Some(SubmitError::Busy)));
            let metrics = service.metrics();
            assert_eq!((metrics.shed_busy, metrics.in_flight_sessions), (32, 64));

            *model.open.lock().unwrap() = true;
            model.opened.notify_all();
            for submitter in parked {
                assert_eq!(submitter.join().unwrap().unwrap().responses.len(), 4);
            }
        });
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
            let model = CountingModel::new();
            let service = Bound::in_place(RepairHarness::pool(1, None), &model);
            service.solve_all(vec![request(tag)])[0].responses.clone()
        };
        assert_eq!(sample(3), sample(3));
        assert_ne!(sample(3)[0].fixed_line, sample(4)[0].fixed_line);
    }
}
