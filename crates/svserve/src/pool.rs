//! The memo: one sharded, cached, panic-absorbing lookup, generic over the
//! snapshot file it persists to.
//!
//! The paper's protocol is one loop — sample repairs, let the bounded check
//! judge them — and both halves memoize through a [`Memo`]: the repair
//! service ([`crate::service`]) caches response sets under a
//! [`crate::CaseKey`], and `assertsolver::EvalVerifier` caches verdicts under
//! a [`crate::VerdictKey`].  The snapshot file type fixes the key and value;
//! the work is the closure its caller hands [`Memo::serve`], which runs it on
//! the calling thread on a miss.  No memo spawns a thread; concurrency comes
//! from the callers — the evaluation's case drivers.
//!
//! ## What the memo guarantees
//!
//! * **Placement** — a key is cached on shard `key.fold64() % shards`, a pure
//!   function of content, so per-shard caches are disjoint and results are
//!   independent of shard count and arrival order.
//! * **No eviction** — every value served stays cached until the memo
//!   drops; a full paper run holds about a thousand verdicts.
//! * **Panic absorption** — panicking work is served as the value's
//!   `Default` (an empty response set, a `false` verdict), is counted, is
//!   *not* cached (a retry reaches the work again), and leaves the memo
//!   serving.
//! * **Warm start** — a configured snapshot is preloaded at [`Memo::new`] and
//!   flushed once the memo has closed; a missing, corrupt or mismatched file
//!   is a counted cold start, an empty cache never overwrites a snapshot, and
//!   entries idle for `compact_after` runs are dropped at flush.
//! * **Lifecycle** — serving after [`Memo::close`] is [`SubmitError::Closed`];
//!   the first close (or the drop) flushes the snapshot, once.

use crate::cache::{CacheShard, ContentKey};
use crate::metrics::{bump, MetricsRecorder};
use crate::persist::{self, PersistSpec, SnapshotFile, SnapshotLoad};
use crate::sync::lock_recover;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

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

/// One served value with its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Served<V> {
    /// The cached or computed value; the value's `Default` when the work
    /// panicked.
    pub value: V,
    /// Whether the value came from the cache.
    pub from_cache: bool,
    /// Index of the cache shard that served the key.
    pub shard: usize,
}

/// Sharded maps, their snapshot and their counters; see the
/// [module docs](self).
pub struct Memo<S: SnapshotFile> {
    caches: Vec<Mutex<CacheShard<S::Key, S::Value>>>,
    /// The snapshot spec, its fingerprint complete.
    persist: Option<PersistSpec>,
    pub(crate) recorder: MetricsRecorder,
    closed: AtomicBool,
    /// Generation of the snapshot this memo preloaded (0 when cold); the next
    /// flush writes generation + 1 and ages entries against it.
    snapshot_generation: AtomicU64,
}

impl<S: SnapshotFile> Memo<S> {
    /// A memo of `shards` caches (at least 1), preloading `persist`'s
    /// snapshot when one is given.
    pub fn new(shards: usize, persist: Option<PersistSpec>) -> Self {
        let memo = Self {
            caches: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
            persist,
            recorder: MetricsRecorder::default(),
            closed: AtomicBool::new(false),
            snapshot_generation: AtomicU64::new(0),
        };
        memo.preload_snapshot();
        memo
    }

    /// Warm start: preloads the persisted snapshot, if one is configured and
    /// valid.  A missing file is the normal first run; a corrupt or mismatched
    /// one is counted in the metrics and the memo starts cold — never an error.
    fn preload_snapshot(&self) {
        let Some(spec) = &self.persist else {
            return;
        };
        match persist::load_snapshot::<S>(spec) {
            SnapshotLoad::Loaded(loaded) => {
                let count = loaded.entries.len();
                self.snapshot_generation
                    .store(loaded.generation, Ordering::Relaxed);
                for (key, value, gen) in loaded.entries {
                    lock_recover(&self.caches[self.shard_for(key)]).preload_aged(key, value, gen);
                }
                bump(&self.recorder.snapshot_loaded_entries, count as u64);
            }
            SnapshotLoad::Missing => {}
            SnapshotLoad::Rejected(_) => bump(&self.recorder.snapshot_rejects, 1),
        }
    }

    /// Writes the cache to the configured snapshot path (atomically), returning
    /// the number of entries written; `Ok(0)` when persistence is not
    /// configured.  Also runs once when the memo closes or drops.
    ///
    /// An **empty** cache is never written: a memo that loaded nothing (e.g. a
    /// reconfigured run whose preload was rejected) and computed nothing must not
    /// replace a previously valuable snapshot with an empty file.
    pub fn flush(&self) -> std::io::Result<usize> {
        let Some(spec) = &self.persist else {
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
        // e.g. an idle memo whose preload was rejected — skips the write, so
        // it cannot clobber a valuable snapshot (the early return above).
        let loaded_generation = self.snapshot_generation.load(Ordering::Relaxed);
        let next_generation = loaded_generation + 1;
        let (entries, compacted) = persist::age_entries(
            entries,
            loaded_generation,
            next_generation,
            spec.compact_after,
        );
        match persist::save_snapshot_aged::<S>(spec, next_generation, entries) {
            Ok(count) => {
                self.recorder.record_snapshot_save(count);
                // Counted only once the write landed: a failed save has not
                // actually dropped anything from disk.
                if compacted > 0 {
                    bump(&self.recorder.snapshot_compacted_entries, compacted as u64);
                }
                Ok(count)
            }
            Err(err) => {
                // The automatic flush paths (close/drop) discard this error;
                // the counter is the surviving signal.
                bump(&self.recorder.snapshot_save_failures, 1);
                Err(err)
            }
        }
    }

    fn shard_for(&self, key: S::Key) -> usize {
        (key.fold64() % self.caches.len() as u64) as usize
    }

    /// The number of cache shards.
    pub(crate) fn shards(&self) -> usize {
        self.caches.len()
    }

    pub(crate) fn cache_entries(&self) -> usize {
        self.caches
            .iter()
            .map(|cache| lock_recover(cache).len())
            .sum()
    }

    /// Stops serving and flushes the snapshot; only the first call (or the
    /// drop) does either, and returns true.
    pub fn close(&self) -> bool {
        let open = !self.closed.swap(true, Ordering::AcqRel);
        if open {
            let _ = self.flush();
        }
        open
    }

    /// Serves `key` from its cache shard, running `work` on this thread on a
    /// miss.  Refused with [`SubmitError::Closed`] once the memo has closed.
    pub fn serve(
        &self,
        key: S::Key,
        work: impl FnOnce() -> S::Value,
    ) -> Result<Served<S::Value>, SubmitError> {
        self.serve_within(0, key, work)
    }

    /// [`Memo::serve`], shedding with [`SubmitError::Busy`] while
    /// `max_in_flight` callers are already inside it (`0` = no limit; the
    /// in-flight gauge counts either way).
    pub(crate) fn serve_within(
        &self,
        max_in_flight: usize,
        key: S::Key,
        work: impl FnOnce() -> S::Value,
    ) -> Result<Served<S::Value>, SubmitError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(SubmitError::Closed);
        }
        if !self.recorder.try_admit(max_in_flight) {
            bump(&self.recorder.shed_busy, 1);
            return Err(SubmitError::Busy);
        }
        bump(&self.recorder.submitted, 1);
        let shard = self.shard_for(key);
        let cached = lock_recover(&self.caches[shard]).get_tagged(key);
        let from_cache = cached.is_some();
        let value = match cached {
            Some((value, warm)) => {
                if warm {
                    bump(&self.recorder.warm_hits, 1);
                }
                value
            }
            // Panicking work must not unwind through the caller: catch the
            // panic, serve the default value, and count it.
            None => match std::panic::catch_unwind(std::panic::AssertUnwindSafe(work)) {
                Ok(value) => {
                    lock_recover(&self.caches[shard]).insert(key, value.clone());
                    value
                }
                Err(_) => {
                    // Not cached: a retry should reach the work again.
                    bump(&self.recorder.panics, 1);
                    S::Value::default()
                }
            },
        };
        self.recorder.record_job(from_cache);
        Ok(Served {
            value,
            from_cache,
            shard,
        })
    }
}

impl<S: SnapshotFile> Drop for Memo<S> {
    fn drop(&mut self) {
        self.close();
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

/// The memo's contract as test cases generic over the snapshot kind, run by
/// the unit tests of [`crate::service`] (responses) and [`crate::verify`]
/// (verdicts).  Keys are numbered by tag; `healthy` is a value other than
/// the default, which a panicking work is served as.
#[cfg(test)]
pub(crate) mod contract {
    use super::*;
    use std::fmt::Debug;

    /// The key of tag `tag`: distinct tags, distinct keys, spread over shards.
    fn key<S: SnapshotFile>(tag: usize) -> S::Key {
        S::Key::from_raw((tag as u128 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835))
    }

    /// Serves tag `tag` with `value`, or with a panic when `value` is `None`.
    fn serve<S: SnapshotFile>(
        memo: &Memo<S>,
        tag: usize,
        value: Option<&S::Value>,
    ) -> Served<S::Value> {
        let work = || value.expect("poisoned work").clone();
        memo.serve(key::<S>(tag), work).expect("memo open")
    }

    /// The memo's counters, in the repair view: the verify view reads the
    /// same ones.
    fn tally<S: SnapshotFile>(memo: &Memo<S>) -> crate::ServiceMetrics {
        memo.recorder.snapshot(memo.shards(), memo.cache_entries())
    }

    /// A snapshot spec in a fresh directory of this process, kind and case.
    fn temp_spec<S: SnapshotFile>(case: &str, fingerprint: &[u8]) -> PersistSpec {
        let dir = std::env::temp_dir().join(format!(
            "svserve-contract-{}-{}-{case}",
            std::process::id(),
            S::KIND
        ));
        let _ = std::fs::remove_dir_all(&dir);
        PersistSpec::new(dir.join("snapshot.json"), fingerprint, "contract")
    }

    pub(crate) fn submit_after_close_is_refused<S: SnapshotFile>(healthy: S::Value) {
        let memo = Memo::<S>::new(2, None);
        assert!(memo.close(), "the first close closes");
        assert!(!memo.close(), "a second close is a no-op");
        let refused = memo.serve(key::<S>(0), || healthy);
        assert_eq!(refused.err(), Some(SubmitError::Closed));
        let tally = tally(&memo);
        assert_eq!((tally.submitted, tally.in_flight_sessions), (0, 0));
    }

    /// Panicking work is served as the default value, is counted, is not
    /// cached, and the next key on that shard is served.
    pub(crate) fn panicking_work_is_absorbed<S: SnapshotFile>(healthy: S::Value)
    where
        S::Value: PartialEq + Debug,
    {
        let memo = Memo::<S>::new(1, None);
        let failed: Vec<bool> = [Some(&healthy), None, Some(&healthy)]
            .into_iter()
            .enumerate()
            .map(|(tag, value)| serve(&memo, tag, value).value == S::Value::default())
            .collect();
        assert_eq!(failed, [false, true, false], "one shard: every key served");
        // Not cached: the retry reaches the work (and panics) again, while a
        // healthy duplicate is a cache hit.
        let retry = serve(&memo, 1, None);
        assert_eq!(
            (retry.value, retry.from_cache),
            (S::Value::default(), false)
        );
        let again = serve(&memo, 2, None);
        assert_eq!((again.value, again.from_cache), (healthy, true));
        let tally = tally(&memo);
        assert_eq!((tally.solve_panics, tally.completed), (2, 5));
        assert_eq!(memo.cache_entries(), 2);
    }

    pub(crate) fn an_idle_memo_never_overwrites_a_valuable_snapshot<S: SnapshotFile>(
        healthy: S::Value,
    ) {
        let spec = temp_spec::<S>("idle", b"cfg-v1");
        let memo = Memo::<S>::new(2, Some(spec.clone()));
        for tag in 0..6 {
            serve(&memo, tag, Some(&healthy));
        }
        drop(memo);
        let valuable = std::fs::read(&spec.path).unwrap();

        // Reconfigured memo: rejected preload, zero work, flush and close.
        let reconfigured = PersistSpec::new(spec.path.clone(), b"cfg-v2", "contract");
        let idle = Memo::<S>::new(2, Some(reconfigured));
        assert_eq!(tally(&idle).snapshot_rejects, 1);
        assert_eq!(idle.flush().unwrap(), 0, "an empty cache is never written");
        idle.close();
        assert_eq!(tally(&idle).snapshot_saves, 0);
        assert_eq!(std::fs::read(&spec.path).unwrap(), valuable);

        // And the original configuration still warm-starts from it.
        let memo = Memo::<S>::new(2, Some(spec.clone()));
        assert_eq!(tally(&memo).snapshot_loaded_entries, 6);
        let _ = std::fs::remove_dir_all(spec.path.parent().unwrap());
    }

    /// Entries idle for more than `compact_after` runs are dropped at flush,
    /// and counted only once the write has landed.
    pub(crate) fn idle_entries_are_compacted_once_the_write_lands<S: SnapshotFile>(
        healthy: S::Value,
    ) {
        let spec = temp_spec::<S>("compaction", b"cfg").with_compaction(1);
        let run = |touched: usize| {
            let memo = Memo::<S>::new(2, Some(spec.clone()));
            for tag in 0..touched {
                serve(&memo, tag, Some(&healthy));
            }
            memo
        };
        run(4).close(); // generation 1: four entries
        let second = run(2); // 2 and 3 idle for one run: kept
        second.close();
        let tally_two = tally(&second);
        assert_eq!(tally_two.snapshot_loaded_entries, 4);
        assert_eq!(tally_two.snapshot_compacted_entries, 0);
        drop(second);

        // Generation 3: 2 and 3 are two runs behind (> 1) and must go — but
        // a flush that cannot land (the path is now a directory) drops
        // nothing.
        let third = run(2);
        let snapshot = std::fs::read(&spec.path).unwrap();
        std::fs::remove_file(&spec.path).unwrap();
        std::fs::create_dir_all(spec.path.join("occupied")).unwrap();
        assert!(third.flush().is_err());
        let failed = tally(&third);
        assert_eq!(failed.snapshot_save_failures, 1);
        assert_eq!(failed.snapshot_compacted_entries, 0);
        std::fs::remove_dir_all(&spec.path).unwrap();
        std::fs::write(&spec.path, snapshot).unwrap();
        assert_eq!(third.flush().unwrap(), 2);
        assert_eq!(tally(&third).snapshot_compacted_entries, 2);
        drop(third);

        let memo = Memo::<S>::new(2, Some(spec.clone()));
        assert_eq!(tally(&memo).snapshot_loaded_entries, 2);
        let _ = std::fs::remove_dir_all(spec.path.parent().unwrap());
    }

    /// Nothing is evicted: every served key stays, and a second pass over
    /// them is all cache hits.
    pub(crate) fn every_served_key_stays_cached<S: SnapshotFile>(healthy: S::Value) {
        const KEYS: usize = 300;
        for shards in [1, 4] {
            let memo = Memo::<S>::new(shards, None);
            let first = (0..KEYS).filter(|&tag| !serve(&memo, tag, Some(&healthy)).from_cache);
            assert_eq!(
                first.count(),
                KEYS,
                "{shards} shards: the first pass misses"
            );
            assert_eq!(memo.cache_entries(), KEYS);
            // The second pass never reaches the (panicking) work.
            assert!((0..KEYS).all(|tag| serve(&memo, tag, None).from_cache));
            let tally = tally(&memo);
            assert_eq!(
                (tally.cache_hits, tally.cache_misses),
                (KEYS as u64, KEYS as u64)
            );
            assert_eq!(memo.cache_entries(), KEYS);
        }
    }

    pub(crate) fn placement_is_key_fold64_modulo_shards<S: SnapshotFile>(healthy: S::Value) {
        let memo = Memo::<S>::new(4, None);
        for tag in 0..32 {
            let served = serve(&memo, tag, Some(&healthy));
            assert_eq!(served.shard, (key::<S>(tag).fold64() % 4) as usize);
        }
    }
}
