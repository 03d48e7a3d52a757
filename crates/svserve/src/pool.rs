//! The pool engine: one sharded, cached, panic-absorbing pool, generic over
//! what it serves.
//!
//! The paper's protocol is one loop — sample repairs, let the bounded check judge
//! them — and both halves are served by this engine: [`crate::service`] (repair)
//! and [`crate::verify`] (verdicts) are two instantiations of it.
//!
//! ## What an instantiation provides
//!
//! A [`Worker`]: the request, outcome and metrics types; the snapshot file type
//! (which fixes the cache key and value); how a request yields its content
//! key; the value served when the work panics; and
//! optional hooks (snapshot identity, a post-work tally).  The work itself is
//! [`Serve::work`], generic over the backend (a model, a judge) so that no
//! pool type carries the backend's type.
//!
//! ## Where a job runs
//!
//! A [`Bound`] pool serves each job on the thread that submits it: `submit`
//! admits the job, probes its cache shard, runs the work on a miss and
//! returns the served outcome.  No pool spawns a thread; concurrency comes
//! from the callers — the evaluation's case drivers.
//!
//! ## What the engine guarantees
//!
//! * **Placement** — a job is cached on shard `key.fold64() % workers`, a pure
//!   function of request content, so per-shard caches are disjoint and
//!   results are independent of shard count and arrival order.
//! * **Admission** — `max_in_flight` bounds how many submitters are inside
//!   the work at once; the overflow is shed with [`SubmitError::Busy`].
//! * **Panic absorption** — panicking work is served as [`Worker::failed`],
//!   is counted, is *not* cached (a retry reaches the backend again), and
//!   leaves the pool serving.
//! * **Warm start** — a configured snapshot is preloaded before the first job
//!   and flushed once the pool has closed; a missing, corrupt or mismatched
//!   file is a counted cold start, an empty cache never overwrites a
//!   snapshot, and entries idle for `compact_after` runs are dropped at flush.
//! * **Lifecycle** — submitting after close is [`SubmitError::Closed`].

use crate::cache::{ContentKey, LruCache};
use crate::metrics::MetricsRecorder;
use crate::persist::{self, PersistSpec, SnapshotFile, SnapshotLoad};
use crate::sync::lock_recover;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The cache key of a [`Worker`]'s pool.
pub type Key<W> = <<W as Worker>::Snapshot as SnapshotFile>::Key;

/// The cached value of a [`Worker`]'s pool.
pub type Value<W> = <<W as Worker>::Snapshot as SnapshotFile>::Value;

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The pool is shutting down and accepts no new work.
    Closed,
    /// Admission control: the pool already holds its configured maximum of
    /// in-flight jobs (`max_in_flight`); the request was shed deterministically
    /// instead of served.  See the `shed_busy` counter in the pool metrics.
    Busy,
}

/// Worded for any pool: the same error refuses repair and verify submits.
impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Closed => write!(f, "pool is closed"),
            SubmitError::Busy => write!(f, "pool is at its in-flight limit (busy)"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Provenance and timing of one served job, handed to [`Worker::outcome`].
pub struct Served {
    /// Whether the value came from the cache.
    pub from_cache: bool,
    /// Index of the cache shard that served the job.
    pub worker: usize,
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
}

/// The work of a pool, over backend `B` (a model, a judge).
pub trait Serve<B: ?Sized>: Worker {
    /// Computes the value for one cache miss.  May panic; the engine absorbs it.
    fn work(&self, backend: &B, request: &Self::Request, key: Key<Self>) -> Value<Self>;
}

/// The tuning every pool shares, normalized at [`Pool::new`].
pub(crate) struct PoolConfig {
    pub(crate) workers: usize,
    pub(crate) cache_capacity: usize,
    /// `0` = unbounded (the in-flight gauge still counts).
    pub(crate) max_in_flight: usize,
    pub(crate) persist: Option<PersistSpec>,
}

/// A submitted job's outcome, served before `submit` returned.
pub struct Ticket<O>(O);

impl<O> Ticket<O> {
    /// Returns the outcome.
    pub fn wait(self) -> O {
        self.0
    }
}

/// The engine: shard caches, metrics and the lifecycle flag of one pool,
/// owned by its frontend ([`Bound`]).
pub struct Pool<W: Worker> {
    pub(crate) worker: W,
    /// The normalized config the pool runs under.
    pub(crate) config: PoolConfig,
    caches: Vec<Mutex<LruCache<Key<W>, Value<W>>>>,
    pub(crate) recorder: MetricsRecorder,
    closed: AtomicBool,
    /// Generation of the snapshot this pool preloaded (0 when cold); the next
    /// flush writes generation + 1 and ages entries against it.
    snapshot_generation: AtomicU64,
}

impl<W: Worker> Pool<W> {
    pub(crate) fn new(worker: W, mut config: PoolConfig) -> Self {
        config.workers = config.workers.max(1);
        config.cache_capacity = config.cache_capacity.max(config.workers);
        let per_shard_cache = config.cache_capacity.div_ceil(config.workers);
        let pool = Self {
            worker,
            caches: (0..config.workers)
                .map(|_| Mutex::new(LruCache::new(per_shard_cache)))
                .collect(),
            recorder: MetricsRecorder::new(),
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
    /// configured.  Also runs once when a [`Bound`] pool shuts down or drops.
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
        (key.fold64() % self.caches.len() as u64) as usize
    }

    /// Admission: on success the in-flight slot has been reserved, and it is
    /// released when the job is served.  Returns the request's key.
    /// `max_in_flight = 0` admits without limit (the slot is still counted).
    fn admit(&self, request: &W::Request) -> Result<Key<W>, SubmitError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(SubmitError::Closed);
        }
        if !self.recorder.try_admit(self.config.max_in_flight) {
            self.recorder.record_shed();
            return Err(SubmitError::Busy);
        }
        self.recorder.record_submit();
        Ok(W::key(request))
    }

    /// Takes a metrics snapshot.
    pub fn metrics(&self) -> W::Metrics {
        W::metrics(self)
    }

    pub(crate) fn cache_entries(&self) -> usize {
        self.caches
            .iter()
            .map(|cache| lock_recover(cache).len())
            .sum()
    }

    /// Stops admitting work; true if the pool was open.
    pub(crate) fn close(&self) -> bool {
        !self.closed.swap(true, Ordering::AcqRel)
    }

    /// Serves one admitted job from its cache shard, running the work on a
    /// miss.
    fn serve<B: ?Sized>(&self, backend: &B, request: &W::Request, key: Key<W>) -> W::Outcome
    where
        W: Serve<B>,
    {
        let shard = self.shard_for(key);
        let service_start = Instant::now();
        let cached = lock_recover(&self.caches[shard]).get_tagged(key);
        let cache_lookup = service_start.elapsed();
        let (value, work_time) = match cached {
            Some((value, warm)) => {
                if warm {
                    self.recorder.record_warm_hit();
                }
                (value, None)
            }
            None => {
                let work_start = Instant::now();
                // Panicking work must not unwind through the submitter: catch
                // the panic, serve the failed value, and count it.
                let worked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.worker.work(backend, request, key)
                }));
                let elapsed = work_start.elapsed();
                let value = match worked {
                    Ok(value) => {
                        lock_recover(&self.caches[shard]).insert(key, value.clone());
                        W::computed(self, &value);
                        value
                    }
                    Err(_) => {
                        // Not cached: a retry should reach the backend again.
                        self.recorder.record_solve_panic();
                        W::failed()
                    }
                };
                (value, Some(elapsed))
            }
        };
        self.recorder.record_job(cache_lookup, work_time);
        let served = Served {
            from_cache: work_time.is_none(),
            worker: shard,
            service_time: service_start.elapsed(),
        };
        W::outcome(value, served)
    }
}

/// A pool bound to its backend handle `H` (an `Arc` or a borrow) until
/// [`Bound::shutdown`] or drop, which close it and flush its snapshot once.
/// Dereferences to its [`Pool`] for metrics and flush.  It runs no thread:
/// `submit` serves the job before it returns.
pub struct Bound<W: Worker, H> {
    pool: Pool<W>,
    backend: H,
}

impl<W: Worker, H: Deref> Bound<W, H>
where
    W: Serve<H::Target>,
{
    /// A pool that serves each job on the thread that submits it.
    pub(crate) fn in_place(pool: Pool<W>, backend: H) -> Self {
        Self { pool, backend }
    }

    /// Submits one job and serves it on this thread.  Sheds with
    /// [`SubmitError::Busy`] at the pool's in-flight limit.
    pub fn submit(&self, request: W::Request) -> Result<Ticket<W::Outcome>, SubmitError> {
        let key = self.pool.admit(&request)?;
        Ok(Ticket(self.pool.serve(&*self.backend, &request, key)))
    }

    /// Serves a whole workload, preserving input order.
    ///
    /// # Panics
    ///
    /// Panics if the pool is closed or sheds one of the requests.
    pub fn submit_all(&self, requests: Vec<W::Request>) -> Vec<W::Outcome> {
        requests
            .into_iter()
            .map(|request| {
                self.submit(request)
                    .expect("pool open during submit_all")
                    .wait()
            })
            .collect()
    }
}

impl<W: Worker, H> Bound<W, H> {
    /// Stops accepting work, flushes the cache snapshot and returns the
    /// final metrics.
    pub fn shutdown(self) -> W::Metrics {
        self.pool.close();
        let _ = self.pool.flush();
        self.pool.metrics()
    }
}

impl<W: Worker, H> Deref for Bound<W, H> {
    type Target = Pool<W>;

    fn deref(&self) -> &Pool<W> {
        &self.pool
    }
}

impl<W: Worker, H> Drop for Bound<W, H> {
    fn drop(&mut self) {
        // True only the first time, so exactly one of `shutdown` and drop
        // flushes.
        if self.pool.close() {
            let _ = self.pool.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::SubmitError;

    #[test]
    fn submit_errors_display() {
        for (error, word) in [(SubmitError::Closed, "closed"), (SubmitError::Busy, "busy")] {
            let text = error.to_string();
            assert!(text.contains(word), "{text:?}");
            // One error refuses every pool's submits, so it names none.
            for pool in ["repair", "verify", "service"] {
                assert!(!text.contains(pool), "{text:?} names a pool");
            }
        }
    }
}

/// The engine's contract as generic test cases, run by each instantiation's
/// unit tests over a [`contract::Harness`] of its own.
#[cfg(test)]
pub(crate) mod contract {
    use super::*;
    use std::sync::Arc;

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
        type Worker: Serve<Self::Backend>;
        type Backend: ?Sized;

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

    type Frontend<H> = Bound<<H as Harness>::Worker, Arc<<H as Harness>::Backend>>;

    fn bound<H: Harness>(workers: usize, persist: Option<PersistSpec>) -> Frontend<H> {
        Bound::in_place(H::pool(workers, persist), H::backend())
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
        let pool = bound::<H>(2, None);
        pool.close();
        assert_eq!(
            pool.submit(H::request(0, false)).err(),
            Some(SubmitError::Closed)
        );
        assert_eq!(tally::<H>(&pool).in_flight, 0, "a refusal reserves nothing");
    }

    /// Panicking work is served as the failed value, is counted, is not
    /// cached, and the next job on that shard is served.
    pub(crate) fn panicking_work_is_absorbed<H: Harness>() {
        let pool = bound::<H>(1, None);
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
        let tally = tally::<H>(&pool);
        assert_eq!((tally.panics, tally.completed), (2, 5));
        assert_eq!(pool.cache_entries(), 2);
    }

    pub(crate) fn an_idle_pool_never_overwrites_a_valuable_snapshot<H: Harness>() {
        let spec = temp_spec::<H>("idle", b"cfg-v1");
        let pool = bound::<H>(2, Some(spec.clone()));
        pool.submit_all((0..6).map(|tag| H::request(tag, false)).collect());
        pool.shutdown();
        let valuable = std::fs::read(&spec.path).unwrap();

        // Reconfigured pool: rejected preload, zero work, flush and shutdown.
        let reconfigured = PersistSpec::new(spec.path.clone(), b"cfg-v2", "contract");
        let idle = bound::<H>(2, Some(reconfigured));
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
            let pool = bound::<H>(2, Some(spec.clone()));
            pool.submit_all((0..touched).map(|tag| H::request(tag, false)).collect());
            pool
        };
        run(4).shutdown(); // generation 1: four entries
        let second = H::tally(&run(2).shutdown()); // 2 and 3 idle for one run: kept
        assert_eq!(second.snapshot_loaded_entries, 4);
        assert_eq!(second.snapshot_compacted_entries, 0);

        // Generation 3: 2 and 3 are two runs behind (> 1) and must go — but
        // a flush that cannot land (the path is now a directory) drops
        // nothing.
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
        let pool = bound::<H>(4, None);
        for tag in 0..32 {
            let key = <H::Worker as Worker>::key(&H::request(tag, false));
            let outcome = pool.submit(H::request(tag, false)).unwrap().wait();
            assert_eq!(H::view(&outcome).2, (key.fold64() % 4) as usize);
        }
    }
}
