//! The pool engine: one sharded, cached, panic-absorbing worker pool, generic
//! over what it serves.
//!
//! The paper's protocol is one loop — sample repairs, let the bounded check judge
//! them — and both halves are served by this engine: [`crate::service`] (repair)
//! and [`crate::verify`] (verdicts) are two instantiations of it, and the router
//! ([`crate::route`]) runs one repair instantiation per backend.
//!
//! ## What an instantiation provides
//!
//! A [`Worker`]: the request, outcome and metrics types; the snapshot file type
//! (which fixes the cache key and value); the journal pool label and histogram
//! names; how a request yields its content key; the value served when the work
//! panics; and optional hooks (snapshot identity, a post-work tally, telemetry
//! windows).  The work itself is [`Serve::work`], generic over the backend (a
//! model, a judge) so that no pool type carries the backend's type.
//!
//! ## What the engine guarantees
//!
//! * **Placement** — a job runs on shard `key.fold64() % workers`, a pure
//!   function of request content, so per-shard caches are disjoint and results
//!   are independent of worker count and arrival order.
//! * **Backpressure and admission** — bounded shard queues block (or park, on
//!   the async path) submitters; `max_in_flight` sheds with
//!   [`SubmitError::Busy`]; a submission that never reaches a queue hands its
//!   in-flight slot back, whether it failed or its future was dropped.
//! * **Panic absorption** — panicking work fulfils its ticket with
//!   [`Worker::failed`], is counted, is *not* cached (a retry reaches the
//!   backend again), and leaves the worker serving its shard.
//! * **Warm start** — a configured snapshot is preloaded before the workers
//!   start and flushed after they have joined; a missing, corrupt or mismatched
//!   file is a counted cold start, an empty cache never overwrites a snapshot,
//!   and entries idle for `compact_after` runs are dropped at flush.
//! * **Lifecycle** — closing wakes every waiter; queued jobs are drained before
//!   the workers exit; submitting after close is [`SubmitError::Closed`].

use crate::cache::{ContentKey, LruCache};
use crate::journal::{JournalEvent, TracerHandle};
use crate::metrics::MetricsRecorder;
use crate::persist::{self, PersistSpec, SnapshotFile, SnapshotLoad};
use crate::queue::{ServiceClosed, Shard, SubmitError};
use crate::sync::lock_recover;
use crate::telemetry::{Metric, MetricClass, TelemetryHandle, TelemetryWindows};
use crate::ticket::TicketState;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The cache key of a [`Worker`]'s pool.
pub type Key<W> = <<W as Worker>::Snapshot as SnapshotFile>::Key;

/// The cached value of a [`Worker`]'s pool.
pub type Value<W> = <<W as Worker>::Snapshot as SnapshotFile>::Value;

/// Provenance and timing of one served job, handed to [`Worker::outcome`].
pub struct Served {
    /// Whether the value came from the cache.
    pub from_cache: bool,
    /// Index of the worker (= shard) that served the job.
    pub worker: usize,
    /// Time the job spent queued before a worker picked it up.
    pub queue_wait: Duration,
    /// Cache lookup plus (on a miss) the work itself.
    pub service_time: Duration,
}

/// What one instantiation tells the engine; see the [module docs](self).
pub trait Worker: Send + Sync + Sized {
    /// A submitted request.
    type Request: Send;
    /// The on-disk snapshot type; fixes the cache [`Key`] and [`Value`].
    type Snapshot: SnapshotFile;
    /// What a ticket resolves to.
    type Outcome: Send;
    /// The metrics snapshot type.
    type Metrics;

    /// Pool label on journal diagnostics.
    const POOL: &'static str;
    /// Names of the queue-wait, cache-lookup and work latency histograms;
    /// `None` where the pool records none.
    const HISTOGRAMS: [Option<&'static str>; 3];

    /// The request's content key: routes it, caches it, identifies it.
    fn key(request: &Self::Request) -> Key<Self>;

    /// The value served (uncached) when the work panicked.
    fn failed() -> Value<Self>;

    /// Wraps a served value with its provenance.
    fn outcome(value: Value<Self>, served: Served) -> Self::Outcome;

    /// Takes the pool's metrics snapshot.
    fn metrics(pool: &Pool<Self>) -> Self::Metrics;

    /// Appends whatever cached values depend on, beyond their key and the
    /// configured fingerprint, to the identity snapshots are saved and loaded under.
    fn extend_fingerprint(&self, _fingerprint: &mut Vec<u8>) {}

    /// Called with every freshly computed (not cached, not panicked) value.
    fn computed(_pool: &Pool<Self>, _value: &Value<Self>) {}

    /// Time-windowed telemetry fed with submits, sheds and completions.
    fn windows(&self) -> Option<&TelemetryWindows> {
        None
    }
}

/// The work of a pool, over backend `B` (a model, a judge).
pub trait Serve<B: ?Sized>: Worker {
    /// Computes the value for one cache miss.  May panic; the engine absorbs it.
    fn work(&self, backend: &B, request: &Self::Request, key: Key<Self>) -> Value<Self>;
}

/// The tuning every pool shares, normalized at [`Pool::new`].
pub(crate) struct PoolConfig {
    pub(crate) workers: usize,
    pub(crate) shard_capacity: usize,
    pub(crate) max_batch: usize,
    pub(crate) cache_capacity: usize,
    /// `0` = unbounded (the in-flight gauge still counts).
    pub(crate) max_in_flight: usize,
    pub(crate) persist: Option<PersistSpec>,
    pub(crate) tracer: TracerHandle,
    pub(crate) telemetry: TelemetryHandle,
}

/// Await-handle for a submitted job.
pub struct Ticket<O>(Arc<TicketState<O>>);

impl<O> Ticket<O> {
    /// Blocks until the job has been served.
    pub fn wait(self) -> O {
        self.0.wait()
    }

    /// Non-blocking poll; returns the outcome once served.
    pub fn try_take(&self) -> Option<O> {
        self.0.try_take()
    }
}

impl<O> Future for Ticket<O> {
    type Output = O;

    /// Awaits the outcome without holding a thread: the worker's `fulfill`
    /// wakes the registered task.
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<O> {
        self.0.poll_take(cx.waker())
    }
}

struct Job<W: Worker> {
    request: W::Request,
    key: Key<W>,
    enqueued_at: Instant,
    ticket: Arc<TicketState<W::Outcome>>,
}

/// Future returned by [`Pool::submit_async`]: resolves to the job's [`Ticket`]
/// once the target shard has accepted it, parking on a waker (never a thread)
/// while the shard is at capacity.
///
/// Dropping the future before it resolves abandons the submission and rolls
/// back the admission slot it reserved, so a cancelled session cannot leak
/// in-flight budget.
pub struct SubmitFuture<'a, W: Worker> {
    pool: &'a Pool<W>,
    job: Option<Job<W>>,
    shard: usize,
    state: Arc<TicketState<W::Outcome>>,
}

// Nothing in the future is pinned in place; the job moves into the queue.
impl<W: Worker> Unpin for SubmitFuture<'_, W> {}

impl<W: Worker> Future for SubmitFuture<'_, W> {
    type Output = Result<Ticket<W::Outcome>, ServiceClosed>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let pool = this.pool;
        pool.shards[this.shard]
            .poll_push(&mut this.job, &pool.closed, cx.waker())
            .map(|pushed| pool.settle(pushed, &this.state))
    }
}

impl<W: Worker> Drop for SubmitFuture<'_, W> {
    fn drop(&mut self) {
        // Still holding the job means it was never enqueued: release the
        // admission slot reserved at `begin_submit`.  (Once enqueued, the
        // worker releases it when the job completes.)
        if self.job.is_some() {
            self.pool.recorder.release_in_flight();
        }
    }
}

/// The engine: shard queues, shard caches, metrics and the lifecycle flag of
/// one pool.  Frontends hand it out by reference (the scoped frontends,
/// [`crate::serve_scoped`] / [`crate::verify_scoped`]) or own it next to its
/// threads ([`Owned`]).
pub struct Pool<W: Worker> {
    pub(crate) worker: W,
    /// The normalized config the pool runs under.
    pub(crate) config: PoolConfig,
    shards: Vec<Shard<Job<W>>>,
    caches: Vec<Mutex<LruCache<Key<W>, Value<W>>>>,
    pub(crate) recorder: MetricsRecorder,
    /// Latency histograms ([`Worker::HISTOGRAMS`]) resolved once at start;
    /// `None` (telemetry off) costs one branch per job at each record site.
    timers: [Option<Arc<Metric>>; 3],
    closed: AtomicBool,
    /// Generation of the snapshot this pool preloaded (0 when cold); the next
    /// flush writes generation + 1 and ages entries against it.
    snapshot_generation: AtomicU64,
}

impl<W: Worker> Pool<W> {
    pub(crate) fn new(worker: W, mut config: PoolConfig) -> Self {
        config.workers = config.workers.max(1);
        config.shard_capacity = config.shard_capacity.max(1);
        config.max_batch = config.max_batch.max(1);
        config.cache_capacity = config.cache_capacity.max(config.workers);
        let per_shard_cache = config.cache_capacity.div_ceil(config.workers);
        let histogram = |name| config.telemetry.histogram(name, MetricClass::Volatile);
        let pool = Self {
            worker,
            shards: (0..config.workers)
                .map(|_| Shard::new(config.shard_capacity))
                .collect(),
            caches: (0..config.workers)
                .map(|_| Mutex::new(LruCache::new(per_shard_cache)))
                .collect(),
            recorder: MetricsRecorder::new(),
            timers: W::HISTOGRAMS.map(|name| name.and_then(histogram)),
            closed: AtomicBool::new(false),
            snapshot_generation: AtomicU64::new(0),
            config,
        };
        pool.preload_snapshot();
        pool
    }

    fn persist_spec(&self) -> Option<PersistSpec> {
        let mut spec = self.config.persist.clone()?;
        self.worker.extend_fingerprint(&mut spec.fingerprint);
        Some(spec)
    }

    /// Warm start: preloads the persisted snapshot, if one is configured and
    /// valid.  A missing file is the normal first run; a corrupt or mismatched
    /// one is counted in the metrics and the pool starts cold — never an error.
    fn preload_snapshot(&self) {
        let Some(spec) = self.persist_spec() else {
            return;
        };
        match persist::load_snapshot::<W::Snapshot>(&spec) {
            SnapshotLoad::Loaded(loaded) => {
                let count = loaded.entries.len();
                self.snapshot_generation
                    .store(loaded.generation, Ordering::Relaxed);
                for (key, value, gen) in loaded.entries {
                    lock_recover(&self.caches[self.shard_for(key)]).preload_aged(key, value, gen);
                }
                self.recorder.record_snapshot_load(count);
            }
            SnapshotLoad::Missing => {}
            SnapshotLoad::Rejected(_) => self.recorder.record_snapshot_reject(),
        }
    }

    /// Writes the cache to the configured snapshot path (atomically), returning
    /// the number of entries written; `Ok(0)` when persistence is not
    /// configured.  Also runs when an [`Owned`] pool shuts down or drops, and at
    /// the end of a scoped run.
    ///
    /// An **empty** cache is never written: a pool that loaded nothing (e.g. a
    /// reconfigured run whose preload was rejected) and computed nothing must not
    /// replace a previously valuable snapshot with an empty file.
    pub fn flush(&self) -> std::io::Result<usize> {
        let Some(spec) = self.persist_spec() else {
            return Ok(0);
        };
        let mut entries = Vec::new();
        for cache in &self.caches {
            entries.extend(lock_recover(cache).export_aged());
        }
        if entries.is_empty() {
            return Ok(0);
        }
        // Age the entries against the preloaded generation: touched entries are
        // re-stamped current, idle ones keep their old stamp and fall off once
        // they are `compact_after` runs behind (0 = keep forever).  A snapshot
        // emptied *by compaction* is still written (the empty file records the
        // drop and advances the generation); only a cache with nothing in it —
        // e.g. an idle pool whose preload was rejected — skips the write, so
        // it cannot clobber a valuable snapshot (the early return above).
        let loaded_generation = self.snapshot_generation.load(Ordering::Relaxed);
        let next_generation = loaded_generation + 1;
        let (entries, compacted) = persist::age_entries(
            entries,
            loaded_generation,
            next_generation,
            spec.compact_after,
        );
        match persist::save_snapshot_aged::<W::Snapshot>(&spec, next_generation, entries) {
            Ok(count) => {
                self.recorder.record_snapshot_save(count);
                // Counted only once the write landed: a failed save has not
                // actually dropped anything from disk.
                if compacted > 0 {
                    self.recorder.record_snapshot_compaction(compacted);
                }
                Ok(count)
            }
            Err(err) => {
                // The automatic flush paths (shutdown/drop/scoped exit) discard
                // this error; the counter is the surviving signal.
                self.recorder.record_snapshot_save_failure();
                Err(err)
            }
        }
    }

    fn shard_for(&self, key: Key<W>) -> usize {
        (key.fold64() % self.shards.len() as u64) as usize
    }

    /// Emits one journal diagnostic; one branch while journaling is off.
    fn diagnostic(&self, key: Key<W>, event: impl FnOnce(String) -> JournalEvent) {
        if self.config.tracer.is_on() {
            self.recorder.record_journal_event();
            let event = event(W::POOL.to_string());
            self.config.tracer.diagnostic(key.fold64(), event);
        }
    }

    /// Admission + job construction, shared by the blocking and async submit
    /// paths.  On success the in-flight slot has been reserved; it is released
    /// by the worker when the job completes, or rolled back by the caller if
    /// the job never reaches a queue.  `max_in_flight = 0` admits without limit
    /// (the slot is still counted).
    fn begin_submit(
        &self,
        request: W::Request,
        max_in_flight: usize,
    ) -> Result<Job<W>, SubmitError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(SubmitError::Closed);
        }
        if !self.recorder.try_admit(max_in_flight) {
            self.recorder.record_shed();
            if let Some(windows) = self.worker.windows() {
                windows.record_shed();
            }
            // The key is only needed for the diagnostic; don't hash the
            // request content on the shed fast-path while journaling is off.
            if self.config.tracer.is_on() {
                self.diagnostic(W::key(&request), |pool| JournalEvent::Shed { pool });
            }
            return Err(SubmitError::Busy);
        }
        let key = W::key(&request);
        self.diagnostic(key, |pool| JournalEvent::Admit { pool });
        if let Some(windows) = self.worker.windows() {
            windows.record_submit();
        }
        Ok(Job {
            request,
            key,
            enqueued_at: Instant::now(),
            ticket: TicketState::new(),
        })
    }

    /// Submits one job; blocks only while the target shard is at capacity.
    /// Sheds with [`SubmitError::Busy`] at the pool's in-flight limit.
    pub fn submit(&self, request: W::Request) -> Result<Ticket<W::Outcome>, SubmitError> {
        self.submit_within(request, self.config.max_in_flight)
    }

    /// [`Pool::submit`] under an explicit in-flight limit; the router's
    /// escalation legs pass `0` (unbounded — they must not be shed halfway up a
    /// ladder — but the slot is still counted).
    pub(crate) fn submit_within(
        &self,
        request: W::Request,
        max_in_flight: usize,
    ) -> Result<Ticket<W::Outcome>, SubmitError> {
        let job = self.begin_submit(request, max_in_flight)?;
        let state = Arc::clone(&job.ticket);
        let pushed = self.shards[self.shard_for(job.key)].push_blocking(job, &self.closed);
        Ok(self.settle(pushed, &state)?)
    }

    /// Settles a push attempt, blocking or polled: an enqueued job is counted
    /// and yields its ticket; one that never reached a queue (the pool closed
    /// first) hands its admission slot back.
    fn settle(
        &self,
        pushed: Result<usize, ServiceClosed>,
        state: &Arc<TicketState<W::Outcome>>,
    ) -> Result<Ticket<W::Outcome>, ServiceClosed> {
        let depth = pushed.inspect_err(|_| self.recorder.release_in_flight())?;
        self.recorder.record_submit(depth);
        Ok(Ticket(Arc::clone(state)))
    }

    /// Non-blocking submit for async sessions: admission and shutdown are
    /// checked eagerly (so a deterministic [`SubmitError::Busy`] surfaces
    /// before any awaiting), and the returned future parks on the shard's
    /// submit waker — not an OS thread — while the queue is at capacity.
    /// Await it, then await the ticket.
    pub fn submit_async(&self, request: W::Request) -> Result<SubmitFuture<'_, W>, SubmitError> {
        let job = self.begin_submit(request, self.config.max_in_flight)?;
        Ok(SubmitFuture {
            pool: self,
            shard: self.shard_for(job.key),
            state: Arc::clone(&job.ticket),
            job: Some(job),
        })
    }

    /// Submits a whole workload and waits for every outcome, preserving input
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the pool is closed or sheds one of the requests.
    pub fn submit_all(&self, requests: Vec<W::Request>) -> Vec<W::Outcome> {
        // Submit everything first (backpressure throttles us while workers
        // drain), then await in input order.
        let tickets: Vec<_> = requests
            .into_iter()
            .map(|request| self.submit(request).expect("pool open during submit_all"))
            .collect();
        tickets.into_iter().map(Ticket::wait).collect()
    }

    /// Takes a metrics snapshot.
    pub fn metrics(&self) -> W::Metrics {
        W::metrics(self)
    }

    pub(crate) fn queue_depth(&self) -> usize {
        self.shards.iter().map(Shard::len).sum()
    }

    pub(crate) fn cache_entries(&self) -> usize {
        self.caches
            .iter()
            .map(|cache| lock_recover(cache).len())
            .sum()
    }

    /// Stops admitting work and wakes every waiter; workers drain their queues
    /// and exit.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
        for shard in &self.shards {
            shard.notify_all();
        }
    }

    /// The worker loop of shard `shard_idx`; returns once the pool is closed
    /// and the shard has drained.
    fn run<B: ?Sized>(&self, backend: &B, shard_idx: usize)
    where
        W: Serve<B>,
    {
        loop {
            let batch = self.shards[shard_idx].drain_batch(self.config.max_batch, &self.closed);
            if batch.is_empty() {
                return;
            }
            self.recorder.record_batch();
            for job in batch {
                self.serve(backend, shard_idx, job);
            }
        }
    }

    fn serve<B: ?Sized>(&self, backend: &B, shard_idx: usize, job: Job<W>)
    where
        W: Serve<B>,
    {
        let queue_wait = job.enqueued_at.elapsed();
        let service_start = Instant::now();
        let cached = lock_recover(&self.caches[shard_idx]).get_tagged(job.key);
        let cache_lookup = service_start.elapsed();
        self.diagnostic(job.key, |pool| JournalEvent::Cache {
            pool,
            hit: cached.is_some(),
            warm: matches!(cached, Some((_, true))),
        });
        let (value, work_time) = match cached {
            Some((value, warm)) => {
                if warm {
                    self.recorder.record_warm_hit();
                }
                (value, None)
            }
            None => {
                let work_start = Instant::now();
                // Panicking work must not take the worker down: an unwinding
                // worker would strand every ticket in its shard (waiters block
                // forever and scoped pools never join) and poison the pool for
                // later jobs.  Catch the panic, serve the failed value, and
                // count it in the metrics.
                let worked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.worker.work(backend, &job.request, job.key)
                }));
                let elapsed = work_start.elapsed();
                let value = match worked {
                    Ok(value) => {
                        lock_recover(&self.caches[shard_idx]).insert(job.key, value.clone());
                        W::computed(self, &value);
                        value
                    }
                    Err(_) => {
                        // Not cached: a retry should reach the backend again.
                        self.recorder.record_solve_panic();
                        self.diagnostic(job.key, |pool| JournalEvent::Panic { pool });
                        W::failed()
                    }
                };
                (value, Some(elapsed))
            }
        };
        self.recorder
            .record_job(queue_wait, cache_lookup, work_time);
        let laps = [Some(queue_wait), Some(cache_lookup), work_time];
        for (timer, lap) in self.timers.iter().zip(laps) {
            if let (Some(metric), Some(lap)) = (timer, lap) {
                metric.observe_duration(lap);
            }
        }
        let service_time = service_start.elapsed();
        if let Some(windows) = self.worker.windows() {
            windows.record_complete(service_time.as_nanos() as u64);
        }
        let served = Served {
            from_cache: work_time.is_none(),
            worker: shard_idx,
            queue_wait,
            service_time,
        };
        job.ticket.fulfill(W::outcome(value, served));
    }

    /// Spawns one named worker thread per shard over a shared backend.
    pub(crate) fn spawn_workers<B>(
        self: &Arc<Self>,
        backend: &Arc<B>,
        name: impl Fn(usize) -> String,
    ) -> Vec<JoinHandle<()>>
    where
        W: Serve<B> + 'static,
        B: ?Sized + Send + Sync + 'static,
    {
        (0..self.config.workers)
            .map(|shard_idx| {
                let pool = Arc::clone(self);
                let backend = Arc::clone(backend);
                std::thread::Builder::new()
                    .name(name(shard_idx))
                    .spawn(move || pool.run(&*backend, shard_idx))
                    .expect("spawn pool worker thread")
            })
            .collect()
    }
}

/// Closes the pool when dropped, so scoped workers exit even if the body panics.
struct CloseGuard<'a, W: Worker>(&'a Pool<W>);

impl<W: Worker> Drop for CloseGuard<'_, W> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Runs `pool`'s workers over a *borrowed* backend for the duration of `body`.
///
/// The workers are scoped threads, so `backend` only needs `Sync` — no `Arc`, no
/// `'static`.  They drain outstanding jobs and exit when `body` returns (or
/// panics).  The snapshot is flushed after they have all joined (so the flush
/// sees every value the pool computed); a panicking `body` skips the flush.
pub(crate) fn scoped<W, B, F, R>(pool: Pool<W>, backend: &B, body: F) -> R
where
    W: Serve<B>,
    B: ?Sized + Sync,
    F: FnOnce(&&Pool<W>) -> R,
{
    let result = std::thread::scope(|scope| {
        let guard = CloseGuard(&pool);
        for shard_idx in 0..pool.config.workers {
            let pool = &pool;
            scope.spawn(move || pool.run(backend, shard_idx));
        }
        let result = body(&&pool);
        drop(guard); // close + wake workers so the scope can join
        result
    });
    let _ = pool.flush();
    result
}

/// A persistent pool owning its backend and worker threads until
/// [`Owned::shutdown`] or drop.  Dereferences to its [`Pool`] for
/// submit/await, metrics and flush.
pub struct Owned<W: Worker, B: ?Sized> {
    pool: Arc<Pool<W>>,
    handles: Vec<JoinHandle<()>>,
    _backend: Arc<B>,
}

impl<W: Worker, B: ?Sized> Owned<W, B> {
    pub(crate) fn spawn(pool: Pool<W>, backend: Arc<B>, thread_prefix: &str) -> Self
    where
        W: Serve<B> + 'static,
        B: Send + Sync + 'static,
    {
        let pool = Arc::new(pool);
        let handles = pool.spawn_workers(&backend, |idx| format!("{thread_prefix}-{idx}"));
        Self {
            pool,
            handles,
            _backend: backend,
        }
    }

    /// Closes the pool and joins its workers; true if there were any left to
    /// join (false once `shutdown` has run).
    fn close_and_join(&mut self) -> bool {
        self.pool.close();
        let had_workers = !self.handles.is_empty();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        had_workers
    }

    /// Stops accepting work, drains the queues, joins the workers, flushes the
    /// cache snapshot and returns the final metrics.
    pub fn shutdown(mut self) -> W::Metrics {
        self.close_and_join();
        let _ = self.pool.flush();
        self.pool.metrics()
    }
}

impl<W: Worker, B: ?Sized> std::ops::Deref for Owned<W, B> {
    type Target = Pool<W>;

    fn deref(&self) -> &Pool<W> {
        &self.pool
    }
}

impl<W: Worker, B: ?Sized> Drop for Owned<W, B> {
    fn drop(&mut self) {
        // `shutdown` already flushed (and emptied `handles`); only flush here
        // when the pool is dropped without an explicit shutdown.
        if self.close_and_join() {
            let _ = self.pool.flush();
        }
    }
}

/// The engine's contract as generic test cases, run by each instantiation's
/// unit tests over a [`contract::Harness`] of its own.
#[cfg(test)]
pub(crate) mod contract {
    use super::*;

    /// The counters the contract reads, common to every metrics type.
    pub(crate) struct Tally {
        pub(crate) in_flight: usize,
        pub(crate) completed: u64,
        pub(crate) panics: u64,
        pub(crate) snapshot_loaded_entries: u64,
        pub(crate) snapshot_saves: u64,
        pub(crate) snapshot_save_failures: u64,
        pub(crate) snapshot_rejects: u64,
        pub(crate) snapshot_compacted_entries: u64,
    }

    /// One instantiation under test.
    pub(crate) trait Harness {
        type Worker: Serve<Self::Backend> + 'static;
        type Backend: ?Sized + Send + Sync + 'static;

        /// A pool with `workers` shards, persisting under `persist`.
        fn pool(workers: usize, persist: Option<PersistSpec>) -> Pool<Self::Worker>;
        /// A deterministic backend that panics on poisoned requests.
        fn backend() -> Arc<Self::Backend>;
        /// Request number `tag`; distinct tags have distinct keys.
        fn request(tag: usize, poisoned: bool) -> <Self::Worker as Worker>::Request;
        /// `(is the failed value, from_cache, worker)` of an outcome.
        fn view(outcome: &<Self::Worker as Worker>::Outcome) -> (bool, bool, usize);
        fn tally(metrics: &<Self::Worker as Worker>::Metrics) -> Tally;
    }

    fn tally<H: Harness>(pool: &Pool<H::Worker>) -> Tally {
        H::tally(&pool.metrics())
    }

    fn owned<H: Harness>(
        workers: usize,
        persist: Option<PersistSpec>,
    ) -> Owned<H::Worker, H::Backend> {
        Owned::spawn(H::pool(workers, persist), H::backend(), "contract")
    }

    /// A snapshot spec in a fresh directory of this process, harness and case.
    fn temp_spec<H: Harness>(case: &str, fingerprint: &[u8]) -> PersistSpec {
        let harness = std::any::type_name::<H>().replace("::", "-");
        let dir = std::env::temp_dir().join(format!(
            "svserve-contract-{}-{harness}-{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        PersistSpec::new(dir.join("snapshot.json"), fingerprint, "contract")
    }

    pub(crate) fn submit_after_close_is_refused<H: Harness>() {
        let pool = H::pool(2, None);
        pool.close();
        assert_eq!(
            pool.submit(H::request(0, false)).err(),
            Some(SubmitError::Closed)
        );
        assert_eq!(
            pool.submit_async(H::request(1, false)).err(),
            Some(SubmitError::Closed)
        );
        assert_eq!(tally::<H>(&pool).in_flight, 0, "a refusal reserves nothing");
    }

    pub(crate) fn a_dropped_submit_future_returns_its_slot<H: Harness>() {
        let pool = H::pool(1, None);
        let future = pool.submit_async(H::request(0, false)).unwrap();
        assert_eq!(tally::<H>(&pool).in_flight, 1);
        drop(future); // never polled, never enqueued
        assert_eq!(tally::<H>(&pool).in_flight, 0);
        assert_eq!(pool.queue_depth(), 0);
    }

    /// Panicking work fulfils its ticket with the failed value, is counted, is
    /// not cached, and the next job on that shard is served — owned and scoped.
    pub(crate) fn panicking_work_is_absorbed<H: Harness>() {
        let check = |pool: &Pool<H::Worker>| {
            let outcomes = pool.submit_all(vec![
                H::request(0, false),
                H::request(1, true),
                H::request(2, false),
            ]);
            let failed: Vec<bool> = outcomes.iter().map(|o| H::view(o).0).collect();
            assert_eq!(failed, [false, true, false], "one shard: all jobs served");
            // Not cached: the retry reaches the backend (and panics) again,
            // while a healthy duplicate is a cache hit.
            let retry = pool.submit(H::request(1, true)).unwrap().wait();
            assert_eq!(H::view(&retry), (true, false, 0));
            let again = pool.submit(H::request(2, false)).unwrap().wait();
            assert_eq!(H::view(&again), (false, true, 0));
            let tally = tally::<H>(pool);
            assert_eq!((tally.panics, tally.completed), (2, 5));
            assert_eq!(pool.cache_entries(), 2);
        };
        let pool = owned::<H>(1, None);
        check(&pool);
        pool.shutdown();
        scoped(H::pool(1, None), &*H::backend(), |pool| check(pool));
    }

    pub(crate) fn an_idle_pool_never_overwrites_a_valuable_snapshot<H: Harness>() {
        let spec = temp_spec::<H>("idle", b"cfg-v1");
        let pool = owned::<H>(2, Some(spec.clone()));
        pool.submit_all((0..6).map(|tag| H::request(tag, false)).collect());
        pool.shutdown();
        let valuable = std::fs::read(&spec.path).unwrap();

        // Reconfigured pool: rejected preload, zero work, flush and shutdown.
        let reconfigured = PersistSpec::new(spec.path.clone(), b"cfg-v2", "contract");
        let idle = owned::<H>(2, Some(reconfigured));
        assert_eq!(tally::<H>(&idle).snapshot_rejects, 1);
        assert_eq!(idle.flush().unwrap(), 0, "an empty cache is never written");
        assert_eq!(H::tally(&idle.shutdown()).snapshot_saves, 0);
        assert_eq!(std::fs::read(&spec.path).unwrap(), valuable);

        // And the original configuration still warm-starts from it.
        let pool = H::pool(2, Some(spec.clone()));
        assert_eq!(tally::<H>(&pool).snapshot_loaded_entries, 6);
        let _ = std::fs::remove_dir_all(spec.path.parent().unwrap());
    }

    /// Entries idle for more than `compact_after` runs are dropped at flush,
    /// and counted only once the write has landed.
    pub(crate) fn idle_entries_are_compacted_once_the_write_lands<H: Harness>() {
        let spec = temp_spec::<H>("compaction", b"cfg").with_compaction(1);
        let run = |touched: usize| {
            let pool = owned::<H>(2, Some(spec.clone()));
            pool.submit_all((0..touched).map(|tag| H::request(tag, false)).collect());
            pool
        };
        run(4).shutdown(); // generation 1: four entries
        let second = H::tally(&run(2).shutdown()); // 2 and 3 idle for one run: kept
        assert_eq!(second.snapshot_loaded_entries, 4);
        assert_eq!(second.snapshot_compacted_entries, 0);

        // Generation 3: 2 and 3 are two runs behind (> 1) and must go — but a
        // flush that cannot land (the path is now a directory) drops nothing.
        let third = run(2);
        let snapshot = std::fs::read(&spec.path).unwrap();
        std::fs::remove_file(&spec.path).unwrap();
        std::fs::create_dir_all(spec.path.join("occupied")).unwrap();
        assert!(third.flush().is_err());
        let failed = tally::<H>(&third);
        assert_eq!(failed.snapshot_save_failures, 1);
        assert_eq!(failed.snapshot_compacted_entries, 0);
        std::fs::remove_dir_all(&spec.path).unwrap();
        std::fs::write(&spec.path, snapshot).unwrap();
        assert_eq!(third.flush().unwrap(), 2);
        assert_eq!(tally::<H>(&third).snapshot_compacted_entries, 2);
        drop(third);

        let pool = H::pool(2, Some(spec.clone()));
        assert_eq!(tally::<H>(&pool).snapshot_loaded_entries, 2);
        let _ = std::fs::remove_dir_all(spec.path.parent().unwrap());
    }

    pub(crate) fn placement_is_key_fold64_modulo_workers<H: Harness>() {
        let pool = owned::<H>(4, None);
        for tag in 0..32 {
            let key = <H::Worker as Worker>::key(&H::request(tag, false));
            let outcome = pool.submit(H::request(tag, false)).unwrap().wait();
            assert_eq!(H::view(&outcome).2, (key.fold64() % 4) as usize);
        }
    }
}
