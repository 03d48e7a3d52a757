//! The repair service: a model handle behind a response [`Memo`].
//!
//! A [`Service`] solves each request on the thread that submits it and
//! memoizes the sampled response set under the request's `case_key`.  It
//! comes in two shapes:
//!
//! * [`RepairService`] owns its model (`Arc<M>`) until
//!   [`Service::shutdown`] or drop — the long-running shape a wire shard
//!   hosts, whose connection threads are the submitters;
//! * [`serve_scoped`] borrows the model for the duration of a closure — the
//!   shape `assertsolver::evaluate_model` uses, since evaluation only holds `&M`.
//!
//! ## Determinism
//!
//! The response set for a request is a pure function of the request content and the
//! service seed: the sampler seed is derived from the content hash, never from
//! arrival order or the submitting thread.  Running the same workload in any
//! order, from any number of threads, therefore yields byte-identical
//! responses — only the wall-clock changes.

use crate::cache::{case_key, CaseKey};
use crate::metrics::ServiceMetrics;
use crate::persist::{PersistSpec, ResponseSnapshot};
use crate::pool::{Memo, SubmitError};
use std::ops::Deref;
use std::sync::Arc;
use svmodel::{CaseInput, RepairModel, Response};

/// Service parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Service seed mixed into every per-case sampler seed.
    pub seed: u64,
    /// On-disk snapshot of the response cache: preloaded at start, written by
    /// [`Service::flush`] / shutdown / drop / the end of [`serve_scoped`].  `None`
    /// keeps the cache purely in-memory.  See [`crate::persist`] for the format
    /// and invalidation rules.
    pub persist: Option<PersistSpec>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            seed: 0x0005_E127_AB1E,
            persist: None,
        }
    }
}

impl ServiceConfig {
    /// Returns the config unchanged: `workers` is ignored, since the response
    /// memo is one map.  The benchmark harness still calls it; it goes with
    /// the next change to the harness.
    pub fn with_workers(self, _workers: usize) -> Self {
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

/// A served request: the model's answers plus provenance.
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
}

/// Await-handle for a submitted request: the outcome, already served.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairTicket(RepairOutcome);

impl RepairTicket {
    /// Returns the outcome.
    pub fn wait(self) -> RepairOutcome {
        self.0
    }
}

/// A persistent repair service owning its model.
pub type RepairService<M> = Service<Arc<M>>;

/// Borrowed-model service available inside [`serve_scoped`].
pub type ScopedService<'a, M> = Service<&'a M>;

/// The SplitMix64 finalizer: every content-derived seed, placement and arm
/// in the serving stack mixes its key through it.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A model handle `H` (an `Arc` or a borrow) behind a response [`Memo`]; see
/// the [module docs](self).  It runs no thread: `submit` serves the request
/// before it returns.
pub struct Service<H> {
    memo: Memo<ResponseSnapshot>,
    model: H,
    /// Service seed mixed into every per-case sampler seed.
    seed: u64,
}

impl<H: Deref> Service<H>
where
    H::Target: RepairModel,
{
    /// The service `config` describes over `model`, its snapshot preloaded
    /// when one is configured.
    ///
    /// Cached responses depend on the sampler seed (derived from the service
    /// seed plus the content hash), but [`CaseKey`] does not cover it — so the
    /// seed is folded into the snapshot fingerprint here, or a warm start
    /// under a different seed would silently replay wrong responses.
    fn new(model: H, config: ServiceConfig) -> Self {
        let persist = config.persist.map(|mut spec| {
            spec.fingerprint
                .extend_from_slice(&config.seed.to_le_bytes());
            spec
        });
        Self {
            memo: Memo::new(persist),
            model,
            seed: config.seed,
        }
    }

    /// Submits one request and serves it on this thread, sampling the model
    /// on a miss under a seed that is a pure function of service seed and
    /// content hash, never of arrival order.  Refused with
    /// [`SubmitError::Closed`] once the service has shut down.
    pub fn submit(&self, request: RepairRequest) -> Result<RepairTicket, SubmitError> {
        let key = request.key();
        let solve = || {
            let seed = splitmix64(self.seed ^ key.fold64());
            let model = &*self.model;
            Arc::new(model.solve(&request.case, request.samples, request.temperature, seed))
        };
        let served = self.memo.serve(key, solve)?;
        Ok(RepairTicket(RepairOutcome {
            responses: served.value,
            from_cache: served.from_cache,
        }))
    }

    /// Serves a whole workload, preserving input order.
    ///
    /// # Panics
    ///
    /// Panics if the service is closed.
    pub fn solve_all(&self, requests: Vec<RepairRequest>) -> Vec<RepairOutcome> {
        let solve = |request| self.submit(request).expect("service open during solve_all");
        requests
            .into_iter()
            .map(|request| solve(request).wait())
            .collect()
    }
}

impl<H> Service<H> {
    /// Takes a metrics snapshot.
    pub fn metrics(&self) -> ServiceMetrics {
        (self.memo.recorder).snapshot(self.memo.cache_entries())
    }

    /// Writes the response cache to its snapshot; see [`Memo::flush`].
    pub fn flush(&self) -> std::io::Result<usize> {
        self.memo.flush()
    }

    /// Stops accepting work, flushes the cache snapshot and returns the
    /// final metrics.  Dropping the service flushes too.
    pub fn shutdown(self) -> ServiceMetrics {
        self.memo.close();
        self.metrics()
    }
}

impl<M: RepairModel + ?Sized> RepairService<M> {
    /// Builds the service, preloading its snapshot when one is configured.
    pub fn start(model: Arc<M>, config: ServiceConfig) -> Self {
        Service::new(model, config)
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
    body(&Service::new(model, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::contract;
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
        let service = RepairService::start(Arc::clone(&model), ServiceConfig::default());
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
        let service = RepairService::start(Arc::clone(&model), ServiceConfig::default());
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
    fn results_are_identical_across_arrival_orders() {
        let workload: Vec<RepairRequest> = (0..40).map(request).collect();
        let mut reversed = workload.clone();
        reversed.reverse();

        let run = |requests: Vec<RepairRequest>| -> Vec<Arc<Vec<Response>>> {
            let model = CountingModel::new();
            serve_scoped(&model, ServiceConfig::default(), |service| {
                service
                    .solve_all(requests)
                    .into_iter()
                    .map(|o| o.responses)
                    .collect()
            })
        };

        let forward = run(workload);
        let mut reversed_results = run(reversed);
        reversed_results.reverse();
        assert_eq!(
            forward, reversed_results,
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
        let outcomes = serve_scoped(&model, ServiceConfig::default(), |service| {
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
        let service = RepairService::start(Arc::clone(&model), ServiceConfig::default());
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

    /// A response set other than the default (empty) one.
    fn healthy() -> Arc<Vec<Response>> {
        let model = CountingModel::new();
        Arc::new(model.solve(&request(0).case, 2, 0.2, 0))
    }

    #[test]
    fn submit_after_close_is_refused() {
        contract::submit_after_close_is_refused::<ResponseSnapshot>(healthy());
    }

    #[test]
    fn a_panicking_model_does_not_strand_tickets() {
        contract::panicking_work_is_absorbed::<ResponseSnapshot>(healthy());
        // Through the service: the poisoned case is served empty and counted.
        let model = CountingModel::new();
        serve_scoped(&model, ServiceConfig::default(), |service| {
            let mut poisoned = request(1);
            poisoned.case.spec.push_str(" poison");
            let outcomes = service.solve_all(vec![request(0), poisoned]);
            assert_eq!(outcomes[0].responses.len(), 4);
            assert!(outcomes[1].responses.is_empty());
            assert_eq!(service.metrics().solve_panics, 1);
        });
    }

    #[test]
    fn an_idle_pool_never_overwrites_a_valuable_snapshot() {
        contract::an_idle_memo_never_overwrites_a_valuable_snapshot::<ResponseSnapshot>(healthy());
    }

    #[test]
    fn idle_entries_are_compacted_once_the_write_lands() {
        contract::idle_entries_are_compacted_once_the_write_lands::<ResponseSnapshot>(healthy());
    }

    #[test]
    fn every_served_request_stays_cached() {
        contract::every_served_key_stays_cached::<ResponseSnapshot>(healthy());
    }

    #[test]
    fn sampler_seeds_are_content_based() {
        // Seeds derive from content, not order: the same request samples the
        // same responses on any service, a different request different ones.
        let sample = |tag| {
            let model = CountingModel::new();
            serve_scoped(&model, ServiceConfig::default(), |service| {
                service.solve_all(vec![request(tag)])[0].responses.clone()
            })
        };
        assert_eq!(sample(3), sample(3));
        assert_ne!(sample(3)[0].fixed_line, sample(4)[0].fixed_line);
    }
}
