//! Lock-free pool instrumentation and the [`ServiceMetrics`] / [`VerifyMetrics`]
//! snapshots.
//!
//! One `MetricsRecorder` instruments one worker pool.  The repair pool snapshots it
//! as [`ServiceMetrics`]; the verify pool snapshots the same counters (plus the
//! verdict tallies) as [`VerifyMetrics`], and a combined view is available through
//! [`ServiceMetrics::with_verify`].

use crate::telemetry::{MetricClass, RegistrySnapshot};
use crate::wire::FleetMetrics;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Internal atomic counters shared by the submit path and the workers.
///
/// The "solve" stage doubles as the verify pool's "verdict" stage: both are the
/// cache-miss work a worker performs between dequeue and ticket fulfilment.
pub(crate) struct MetricsRecorder {
    started_at: Instant,
    submitted: AtomicU64,
    completed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    batches: AtomicU64,
    solve_panics: AtomicU64,
    verdicts_true: AtomicU64,
    verdicts_false: AtomicU64,
    warm_hits: AtomicU64,
    snapshot_loaded_entries: AtomicU64,
    snapshot_saved_entries: AtomicU64,
    snapshot_saves: AtomicU64,
    snapshot_save_failures: AtomicU64,
    snapshot_rejects: AtomicU64,
    snapshot_compacted_entries: AtomicU64,
    peak_queue_depth: AtomicU64,
    in_flight: AtomicU64,
    peak_in_flight: AtomicU64,
    shed_busy: AtomicU64,
    journal_events: AtomicU64,
    queue_wait_ns: AtomicU64,
    cache_lookup_ns: AtomicU64,
    solve_ns: AtomicU64,
}

impl MetricsRecorder {
    pub(crate) fn new() -> Self {
        Self {
            started_at: Instant::now(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            solve_panics: AtomicU64::new(0),
            verdicts_true: AtomicU64::new(0),
            verdicts_false: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            snapshot_loaded_entries: AtomicU64::new(0),
            snapshot_saved_entries: AtomicU64::new(0),
            snapshot_saves: AtomicU64::new(0),
            snapshot_save_failures: AtomicU64::new(0),
            snapshot_rejects: AtomicU64::new(0),
            snapshot_compacted_entries: AtomicU64::new(0),
            peak_queue_depth: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            peak_in_flight: AtomicU64::new(0),
            shed_busy: AtomicU64::new(0),
            journal_events: AtomicU64::new(0),
            queue_wait_ns: AtomicU64::new(0),
            cache_lookup_ns: AtomicU64::new(0),
            solve_ns: AtomicU64::new(0),
        }
    }

    pub(crate) fn record_submit(&self, depth_after: usize) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.peak_queue_depth
            .fetch_max(depth_after as u64, Ordering::Relaxed);
    }

    /// Admission control: reserves one in-flight slot, or reports the pool
    /// busy.  `limit == 0` means unbounded (the slot is still counted, so the
    /// in-flight gauge works either way).  The reservation is released by
    /// [`MetricsRecorder::record_job`] when the job completes, or by
    /// [`MetricsRecorder::release_in_flight`] when the submission is abandoned
    /// before it ever reached a queue.
    pub(crate) fn try_admit(&self, limit: usize) -> bool {
        let admitted = if limit == 0 {
            self.in_flight.fetch_add(1, Ordering::AcqRel) + 1
        } else {
            let updated =
                self.in_flight
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |current| {
                        (current < limit as u64).then_some(current + 1)
                    });
            match updated {
                Ok(previous) => previous + 1,
                Err(_) => return false,
            }
        };
        self.peak_in_flight.fetch_max(admitted, Ordering::Relaxed);
        true
    }

    /// Counts one request shed by admission control (`SubmitError::Busy`).
    pub(crate) fn record_shed(&self) {
        self.shed_busy.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one event this pool emitted to an installed [`crate::Tracer`];
    /// stays zero while no tracer is configured (journaling off).
    pub(crate) fn record_journal_event(&self) {
        self.journal_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Releases an in-flight slot for a submission that never became a job
    /// (the pool closed while it waited for queue space).
    /// Saturating, so a stray release can never wrap the gauge.
    pub(crate) fn release_in_flight(&self) {
        let _ = self
            .in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |current| {
                Some(current.saturating_sub(1))
            });
    }

    pub(crate) fn record_batch(&self) {
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_solve_panic(&self) {
        self.solve_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a cache hit served from a snapshot-preloaded entry.
    pub(crate) fn record_warm_hit(&self) {
        self.warm_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a successful snapshot preload of `entries` cache entries.
    pub(crate) fn record_snapshot_load(&self, entries: usize) {
        self.snapshot_loaded_entries
            .fetch_add(entries as u64, Ordering::Relaxed);
    }

    /// Records a snapshot that existed but was rejected (corrupt or mismatched).
    pub(crate) fn record_snapshot_reject(&self) {
        self.snapshot_rejects.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a successful snapshot write of `entries` cache entries.
    pub(crate) fn record_snapshot_save(&self, entries: usize) {
        self.snapshot_saves.fetch_add(1, Ordering::Relaxed);
        self.snapshot_saved_entries
            .store(entries as u64, Ordering::Relaxed);
    }

    /// Records a snapshot write that failed (I/O error); the automatic flush
    /// paths swallow the error itself, so this counter is the only signal that
    /// persistence is not actually persisting.
    pub(crate) fn record_snapshot_save_failure(&self) {
        self.snapshot_save_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `entries` snapshot entries dropped by age-based compaction at
    /// flush time (entries not warm-hit for more than
    /// `PersistSpec::compact_after` runs).
    pub(crate) fn record_snapshot_compaction(&self, entries: usize) {
        self.snapshot_compacted_entries
            .fetch_add(entries as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_verdict(&self, verdict: bool) {
        if verdict {
            self.verdicts_true.fetch_add(1, Ordering::Relaxed);
        } else {
            self.verdicts_false.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_job(
        &self,
        queue_wait: Duration,
        cache_lookup: Duration,
        solve: Option<Duration>,
    ) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.release_in_flight();
        self.queue_wait_ns
            .fetch_add(queue_wait.as_nanos() as u64, Ordering::Relaxed);
        self.cache_lookup_ns
            .fetch_add(cache_lookup.as_nanos() as u64, Ordering::Relaxed);
        match solve {
            Some(duration) => {
                self.cache_misses.fetch_add(1, Ordering::Relaxed);
                self.solve_ns
                    .fetch_add(duration.as_nanos() as u64, Ordering::Relaxed);
            }
            None => {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Loads every counter the two snapshot shapes share, in one place, so the
    /// rate/mean formulas cannot drift between the repair and verify views.
    fn stage(&self) -> Stage {
        let completed = self.completed.load(Ordering::Relaxed);
        let cache_hits = self.cache_hits.load(Ordering::Relaxed);
        let cache_misses = self.cache_misses.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        let uptime = self.started_at.elapsed();
        let per_mean = |total_ns: &AtomicU64, count: u64| {
            if count == 0 {
                0.0
            } else {
                total_ns.load(Ordering::Relaxed) as f64 / count as f64 / 1_000.0
            }
        };
        Stage {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed,
            peak_queue_depth: self.peak_queue_depth.load(Ordering::Relaxed) as usize,
            in_flight_sessions: self.in_flight.load(Ordering::Relaxed) as usize,
            peak_in_flight_sessions: self.peak_in_flight.load(Ordering::Relaxed) as usize,
            shed_busy: self.shed_busy.load(Ordering::Relaxed),
            journal_events: self.journal_events.load(Ordering::Relaxed),
            cache_hits,
            cache_misses,
            cache_hit_rate: if cache_hits + cache_misses == 0 {
                0.0
            } else {
                cache_hits as f64 / (cache_hits + cache_misses) as f64
            },
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            warm_hit_rate: if cache_hits + cache_misses == 0 {
                0.0
            } else {
                self.warm_hits.load(Ordering::Relaxed) as f64 / (cache_hits + cache_misses) as f64
            },
            snapshot_loaded_entries: self.snapshot_loaded_entries.load(Ordering::Relaxed),
            snapshot_saved_entries: self.snapshot_saved_entries.load(Ordering::Relaxed),
            snapshot_saves: self.snapshot_saves.load(Ordering::Relaxed),
            snapshot_save_failures: self.snapshot_save_failures.load(Ordering::Relaxed),
            snapshot_rejects: self.snapshot_rejects.load(Ordering::Relaxed),
            snapshot_compacted_entries: self.snapshot_compacted_entries.load(Ordering::Relaxed),
            panics: self.solve_panics.load(Ordering::Relaxed),
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                completed as f64 / batches as f64
            },
            mean_queue_wait_us: per_mean(&self.queue_wait_ns, completed),
            mean_cache_lookup_us: per_mean(&self.cache_lookup_ns, completed),
            mean_work_us: per_mean(&self.solve_ns, cache_misses),
            uptime_secs: uptime.as_secs_f64(),
            throughput_per_sec: if uptime.as_secs_f64() > 0.0 {
                completed as f64 / uptime.as_secs_f64()
            } else {
                0.0
            },
        }
    }

    pub(crate) fn snapshot(
        &self,
        workers: usize,
        queue_depth: usize,
        cache_entries: usize,
    ) -> ServiceMetrics {
        let stage = self.stage();
        ServiceMetrics {
            workers,
            submitted: stage.submitted,
            completed: stage.completed,
            queue_depth,
            peak_queue_depth: stage.peak_queue_depth,
            in_flight_sessions: stage.in_flight_sessions,
            peak_in_flight_sessions: stage.peak_in_flight_sessions,
            shed_busy: stage.shed_busy,
            journal_events: stage.journal_events,
            cache_hits: stage.cache_hits,
            cache_misses: stage.cache_misses,
            cache_entries,
            cache_hit_rate: stage.cache_hit_rate,
            warm_hits: stage.warm_hits,
            warm_hit_rate: stage.warm_hit_rate,
            snapshot_loaded_entries: stage.snapshot_loaded_entries,
            snapshot_saved_entries: stage.snapshot_saved_entries,
            snapshot_saves: stage.snapshot_saves,
            snapshot_save_failures: stage.snapshot_save_failures,
            snapshot_rejects: stage.snapshot_rejects,
            snapshot_compacted_entries: stage.snapshot_compacted_entries,
            solve_panics: stage.panics,
            mean_batch_size: stage.mean_batch_size,
            mean_queue_wait_us: stage.mean_queue_wait_us,
            mean_cache_lookup_us: stage.mean_cache_lookup_us,
            mean_solve_us: stage.mean_work_us,
            uptime_secs: stage.uptime_secs,
            throughput_per_sec: stage.throughput_per_sec,
            verify: None,
            fleet: None,
        }
    }

    pub(crate) fn snapshot_verify(
        &self,
        workers: usize,
        queue_depth: usize,
        cache_entries: usize,
    ) -> VerifyMetrics {
        let stage = self.stage();
        VerifyMetrics {
            workers,
            submitted: stage.submitted,
            completed: stage.completed,
            queue_depth,
            peak_queue_depth: stage.peak_queue_depth,
            in_flight_sessions: stage.in_flight_sessions,
            peak_in_flight_sessions: stage.peak_in_flight_sessions,
            shed_busy: stage.shed_busy,
            journal_events: stage.journal_events,
            cache_hits: stage.cache_hits,
            cache_misses: stage.cache_misses,
            cache_entries,
            cache_hit_rate: stage.cache_hit_rate,
            warm_hits: stage.warm_hits,
            warm_hit_rate: stage.warm_hit_rate,
            snapshot_loaded_entries: stage.snapshot_loaded_entries,
            snapshot_saved_entries: stage.snapshot_saved_entries,
            snapshot_saves: stage.snapshot_saves,
            snapshot_save_failures: stage.snapshot_save_failures,
            snapshot_rejects: stage.snapshot_rejects,
            snapshot_compacted_entries: stage.snapshot_compacted_entries,
            verdict_panics: stage.panics,
            verdicts_true: self.verdicts_true.load(Ordering::Relaxed),
            verdicts_false: self.verdicts_false.load(Ordering::Relaxed),
            mean_batch_size: stage.mean_batch_size,
            mean_queue_wait_us: stage.mean_queue_wait_us,
            mean_cache_lookup_us: stage.mean_cache_lookup_us,
            mean_verdict_us: stage.mean_work_us,
            uptime_secs: stage.uptime_secs,
            throughput_per_sec: stage.throughput_per_sec,
        }
    }
}

/// The pool-agnostic slice of a snapshot: everything both views derive from the
/// shared counters ("work" is model solve time for repair, verdict time for verify).
struct Stage {
    submitted: u64,
    completed: u64,
    peak_queue_depth: usize,
    in_flight_sessions: usize,
    peak_in_flight_sessions: usize,
    shed_busy: u64,
    journal_events: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_hit_rate: f64,
    warm_hits: u64,
    warm_hit_rate: f64,
    snapshot_loaded_entries: u64,
    snapshot_saved_entries: u64,
    snapshot_saves: u64,
    snapshot_save_failures: u64,
    snapshot_rejects: u64,
    snapshot_compacted_entries: u64,
    panics: u64,
    mean_batch_size: f64,
    mean_queue_wait_us: f64,
    mean_cache_lookup_us: f64,
    mean_work_us: f64,
    uptime_secs: f64,
    throughput_per_sec: f64,
}

/// A point-in-time view of service health and performance.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServiceMetrics {
    /// Number of worker threads.
    pub workers: usize,
    /// Requests accepted by `submit`.
    pub submitted: u64,
    /// Requests fully served (cache hits included).
    pub completed: u64,
    /// Jobs currently waiting across all shards.
    pub queue_depth: usize,
    /// Highest single-shard depth observed at submit time.
    pub peak_queue_depth: usize,
    /// Requests admitted but not yet completed — the in-flight session gauge.
    /// Admission happens before enqueueing, so this also counts submitters
    /// blocked awaiting queue space (it can exceed `submitted - completed`
    /// while they wait, and drops back when they enqueue, complete, or are
    /// refused at close).
    pub in_flight_sessions: usize,
    /// Highest concurrent in-flight count observed over the pool's lifetime.
    pub peak_in_flight_sessions: usize,
    /// Requests shed by admission control (`max_in_flight` reached); each one
    /// was rejected with `SubmitError::Busy` instead of queued.
    pub shed_busy: u64,
    /// Events this pool emitted to an installed [`crate::Tracer`] (admits,
    /// sheds, cache provenance, panics); zero while journaling is off.
    pub journal_events: u64,
    /// Requests answered from the response cache.
    pub cache_hits: u64,
    /// Requests that required a model invocation.
    pub cache_misses: u64,
    /// Entries currently resident across all shard caches.
    pub cache_entries: usize,
    /// `cache_hits / (cache_hits + cache_misses)`, 0 when nothing completed.
    pub cache_hit_rate: f64,
    /// Cache hits served from entries preloaded out of a persisted snapshot
    /// (the warm-start subset of `cache_hits`; see [`crate::persist`]).
    pub warm_hits: u64,
    /// `warm_hits / (cache_hits + cache_misses)`, 0 when nothing completed —
    /// the fraction of traffic a disk snapshot absorbed.
    pub warm_hit_rate: f64,
    /// Entries preloaded from a snapshot at pool start (0 when none configured
    /// or the snapshot was missing/rejected).
    pub snapshot_loaded_entries: u64,
    /// Entries written by the most recent snapshot flush.
    pub snapshot_saved_entries: u64,
    /// Successful snapshot flushes over the pool's lifetime.
    pub snapshot_saves: u64,
    /// Snapshot flushes that failed with an I/O error.  The automatic flush
    /// paths (shutdown, drop, scoped exit) swallow the error itself, so a
    /// nonzero value here is the signal that persistence is not persisting.
    pub snapshot_save_failures: u64,
    /// Snapshots that existed on disk but were rejected as corrupt or mismatched
    /// (version, kind, fingerprint or model); each one degraded to a cold start.
    pub snapshot_rejects: u64,
    /// Snapshot entries dropped by age-based compaction at flush time (entries
    /// not warm-hit for more than `PersistSpec::compact_after` runs); cumulative
    /// over the pool's lifetime.
    pub snapshot_compacted_entries: u64,
    /// Model invocations that panicked; the service absorbed the panic and served
    /// an empty response set instead of stranding the ticket.
    pub solve_panics: u64,
    /// Mean jobs drained per worker wake-up (micro-batching effectiveness).
    pub mean_batch_size: f64,
    /// Mean time a job spent queued, in microseconds.
    pub mean_queue_wait_us: f64,
    /// Mean cache probe time, in microseconds.
    pub mean_cache_lookup_us: f64,
    /// Mean model invocation time (misses only), in microseconds.
    pub mean_solve_us: f64,
    /// Service lifetime at snapshot, in seconds.
    pub uptime_secs: f64,
    /// Completed requests per second of uptime.
    pub throughput_per_sec: f64,
    /// Verification-stage metrics, when the service runs in tandem with a verify
    /// pool (see [`ServiceMetrics::with_verify`]); `None` for a sampling-only pool.
    pub verify: Option<VerifyMetrics>,
    /// Shard-fleet wire metrics, when sampling ran over a distributed fleet
    /// (see [`ServiceMetrics::with_fleet`]); `None` for in-process serving.
    pub fleet: Option<FleetMetrics>,
}

/// A point-in-time view of the verification offload pool.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct VerifyMetrics {
    /// Number of verify worker threads.
    pub workers: usize,
    /// Verdict jobs accepted by `submit`.
    pub submitted: u64,
    /// Verdict jobs fully served (cache hits included).
    pub completed: u64,
    /// Jobs currently waiting across all verify shards.
    pub queue_depth: usize,
    /// Highest single-shard depth observed at submit time.
    pub peak_queue_depth: usize,
    /// Verdict jobs admitted but not yet completed — the in-flight gauge.
    pub in_flight_sessions: usize,
    /// Highest concurrent in-flight count observed over the pool's lifetime.
    pub peak_in_flight_sessions: usize,
    /// Verdict jobs shed by admission control (0 unless a limit is configured).
    pub shed_busy: u64,
    /// Events this pool emitted to an installed [`crate::Tracer`] (admits,
    /// cache provenance, judge panics); zero while journaling is off.
    pub journal_events: u64,
    /// Verdicts answered from the verdict cache.
    pub cache_hits: u64,
    /// Verdicts that required running the judge.
    pub cache_misses: u64,
    /// Verdicts currently resident across all shard caches.
    pub cache_entries: usize,
    /// `cache_hits / (cache_hits + cache_misses)`, 0 when nothing completed.
    pub cache_hit_rate: f64,
    /// Cache hits served from verdicts preloaded out of a persisted snapshot
    /// (the warm-start subset of `cache_hits`; see [`crate::persist`]).
    pub warm_hits: u64,
    /// `warm_hits / (cache_hits + cache_misses)`, 0 when nothing completed —
    /// the fraction of traffic a disk snapshot absorbed.
    pub warm_hit_rate: f64,
    /// Verdicts preloaded from a snapshot at pool start (0 when none configured
    /// or the snapshot was missing/rejected).
    pub snapshot_loaded_entries: u64,
    /// Verdicts written by the most recent snapshot flush.
    pub snapshot_saved_entries: u64,
    /// Successful snapshot flushes over the pool's lifetime.
    pub snapshot_saves: u64,
    /// Snapshot flushes that failed with an I/O error.  The automatic flush
    /// paths (shutdown, drop, scoped exit) swallow the error itself, so a
    /// nonzero value here is the signal that persistence is not persisting.
    pub snapshot_save_failures: u64,
    /// Snapshots that existed on disk but were rejected as corrupt or mismatched
    /// (version, kind, fingerprint or model); each one degraded to a cold start.
    pub snapshot_rejects: u64,
    /// Snapshot entries dropped by age-based compaction at flush time (entries
    /// not warm-hit for more than `PersistSpec::compact_after` runs); cumulative
    /// over the pool's lifetime.
    pub snapshot_compacted_entries: u64,
    /// Judge invocations that panicked; the pool absorbed the panic and served a
    /// failed verdict instead of stranding the ticket (never cached).
    pub verdict_panics: u64,
    /// Computed verdicts that accepted the candidate.
    pub verdicts_true: u64,
    /// Computed verdicts that rejected the candidate.
    pub verdicts_false: u64,
    /// Mean jobs drained per worker wake-up (micro-batching effectiveness).
    pub mean_batch_size: f64,
    /// Mean time a job spent queued, in microseconds.
    pub mean_queue_wait_us: f64,
    /// Mean cache probe time, in microseconds.
    pub mean_cache_lookup_us: f64,
    /// Mean judge invocation time (misses only), in microseconds.
    pub mean_verdict_us: f64,
    /// Pool lifetime at snapshot, in seconds.
    pub uptime_secs: f64,
    /// Completed verdicts per second of uptime.
    pub throughput_per_sec: f64,
}

/// Formats one labelled, aligned metrics block: a title line followed by
/// `  name  value` rows with the names left-padded to a shared column.
///
/// Every `render()` in this crate — `ServiceMetrics`, `VerifyMetrics`, and the
/// per-route views in [`crate::route`] — is built from this helper, so nested
/// views compose out of the same formatting instead of each duplicating it.
pub fn render_block(title: &str, rows: &[(&str, String)]) -> String {
    let mut out = String::from(title);
    for (name, value) in rows {
        out.push('\n');
        out.push_str(&format!("\x20 {name:<17} {value}"));
    }
    out
}

/// Indents every line of an already rendered block by `spaces`, so a child
/// block (e.g. one backend of a router) nests visually under its parent.
pub fn indent_block(block: &str, spaces: usize) -> String {
    let pad = " ".repeat(spaces);
    block
        .lines()
        .map(|line| format!("{pad}{line}"))
        .collect::<Vec<_>>()
        .join("\n")
}

impl VerifyMetrics {
    /// Exports the snapshot's fields as registry series under `prefix` (see
    /// [`ServiceMetrics::export`]).  Verdict tallies are deterministic — a
    /// verdict is a pure function of `(case, response, checker config)`.
    pub fn export(&self, prefix: &str, out: &mut RegistrySnapshot) {
        let det = MetricClass::Deterministic;
        let vol = MetricClass::Volatile;
        out.upsert_counter(&format!("{prefix}.submitted"), det, self.submitted);
        out.upsert_counter(&format!("{prefix}.completed"), det, self.completed);
        out.upsert_counter(
            &format!("{prefix}.verdicts.accepted"),
            det,
            self.verdicts_true,
        );
        out.upsert_counter(
            &format!("{prefix}.verdicts.rejected"),
            det,
            self.verdicts_false,
        );
        out.upsert_counter(&format!("{prefix}.cache.hits"), vol, self.cache_hits);
        out.upsert_counter(&format!("{prefix}.cache.misses"), vol, self.cache_misses);
        out.upsert_counter(&format!("{prefix}.cache.warm_hits"), vol, self.warm_hits);
        out.upsert_gauge(
            &format!("{prefix}.cache.entries"),
            vol,
            self.cache_entries as u64,
        );
        out.upsert_gauge(
            &format!("{prefix}.queue.depth"),
            vol,
            self.queue_depth as u64,
        );
        out.upsert_gauge(
            &format!("{prefix}.queue.peak_depth"),
            vol,
            self.peak_queue_depth as u64,
        );
        out.upsert_counter(&format!("{prefix}.shed_busy"), vol, self.shed_busy);
        out.upsert_counter(&format!("{prefix}.panics"), vol, self.verdict_panics);
        out.upsert_counter(
            &format!("{prefix}.journal.events"),
            vol,
            self.journal_events,
        );
    }

    /// The aligned rows behind [`VerifyMetrics::render`], exposed so composite
    /// views (e.g. a router's per-backend listing) can re-title or nest them.
    pub fn rows(&self) -> Vec<(&'static str, String)> {
        vec![
            ("workers", format!("{:>10}", self.workers)),
            ("submitted", format!("{:>10}", self.submitted)),
            ("completed", format!("{:>10}", self.completed)),
            (
                "throughput",
                format!("{:>10.1} verdicts/s", self.throughput_per_sec),
            ),
            (
                "queue depth",
                format!("{:>10} (peak {})", self.queue_depth, self.peak_queue_depth),
            ),
            (
                "in flight",
                format!(
                    "{:>10} now (peak {}), {} shed busy",
                    self.in_flight_sessions, self.peak_in_flight_sessions, self.shed_busy
                ),
            ),
            (
                "cache",
                format!(
                    "{:>10} entries, {} hits / {} misses ({:.1}% hit rate)",
                    self.cache_entries,
                    self.cache_hits,
                    self.cache_misses,
                    self.cache_hit_rate * 100.0
                ),
            ),
            (
                "warm start",
                format!(
                    "{:>10} snapshot hits ({:.1}% of traffic), {} preloaded, {} saved, {} rejects, {} save failures, {} compacted",
                    self.warm_hits,
                    self.warm_hit_rate * 100.0,
                    self.snapshot_loaded_entries,
                    self.snapshot_saved_entries,
                    self.snapshot_rejects,
                    self.snapshot_save_failures,
                    self.snapshot_compacted_entries
                ),
            ),
            (
                "verdicts",
                format!(
                    "{:>10} accepted, {} rejected, {} panics",
                    self.verdicts_true, self.verdicts_false, self.verdict_panics
                ),
            ),
            (
                "journal",
                format!("{:>10} events emitted", self.journal_events),
            ),
            (
                "mean batch size",
                format!("{:>10.2}", self.mean_batch_size),
            ),
            (
                "queue wait",
                format!("{:>10.1} \u{b5}s mean", self.mean_queue_wait_us),
            ),
            (
                "cache lookup",
                format!("{:>10.1} \u{b5}s mean", self.mean_cache_lookup_us),
            ),
            (
                "verdict",
                format!("{:>10.1} \u{b5}s mean", self.mean_verdict_us),
            ),
            ("uptime", format!("{:>10.3} s", self.uptime_secs)),
        ]
    }

    /// Renders the snapshot as an aligned text block for logs and examples.
    pub fn render(&self) -> String {
        render_block("verify metrics", &self.rows())
    }
}

impl ServiceMetrics {
    /// Attaches a verify-pool snapshot, producing the combined two-pool view.
    pub fn with_verify(mut self, verify: VerifyMetrics) -> Self {
        self.verify = Some(verify);
        self
    }

    /// Attaches a shard-fleet snapshot, producing the combined sharded view.
    ///
    /// Before this existed, a sharded evaluation's top-level summary silently
    /// omitted wire errors and per-shard sheds — the fleet counters were
    /// snapshotted and dropped on the floor.
    pub fn with_fleet(mut self, fleet: FleetMetrics) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// Exports the snapshot's fields as registry series under `prefix`
    /// (`<prefix>.submitted`, `<prefix>.cache.hits`, …), so the bespoke view
    /// and the unified telemetry plane expose one set of numbers.  Request and
    /// verdict totals are deterministic (pure functions of the workload);
    /// queue/cache/scheduling counters are volatile.
    pub fn export(&self, prefix: &str, out: &mut RegistrySnapshot) {
        let det = MetricClass::Deterministic;
        let vol = MetricClass::Volatile;
        out.upsert_counter(&format!("{prefix}.submitted"), det, self.submitted);
        out.upsert_counter(&format!("{prefix}.completed"), det, self.completed);
        out.upsert_counter(&format!("{prefix}.cache.hits"), vol, self.cache_hits);
        out.upsert_counter(&format!("{prefix}.cache.misses"), vol, self.cache_misses);
        out.upsert_counter(&format!("{prefix}.cache.warm_hits"), vol, self.warm_hits);
        out.upsert_gauge(
            &format!("{prefix}.cache.entries"),
            vol,
            self.cache_entries as u64,
        );
        out.upsert_gauge(
            &format!("{prefix}.queue.depth"),
            vol,
            self.queue_depth as u64,
        );
        out.upsert_gauge(
            &format!("{prefix}.queue.peak_depth"),
            vol,
            self.peak_queue_depth as u64,
        );
        out.upsert_gauge(
            &format!("{prefix}.in_flight"),
            vol,
            self.in_flight_sessions as u64,
        );
        out.upsert_counter(&format!("{prefix}.shed_busy"), vol, self.shed_busy);
        out.upsert_counter(&format!("{prefix}.panics"), vol, self.solve_panics);
        out.upsert_counter(
            &format!("{prefix}.journal.events"),
            vol,
            self.journal_events,
        );
        if let Some(verify) = &self.verify {
            verify.export(&format!("{prefix}.verify"), out);
        }
        if let Some(fleet) = &self.fleet {
            fleet.export(&format!("{prefix}.fleet"), out);
        }
    }

    /// The aligned rows behind [`ServiceMetrics::render`], exposed so composite
    /// views (e.g. a router's per-backend listing) can re-title or nest them.
    /// The attached verify stage, if any, is not part of the rows; `render`
    /// appends it as its own block.
    pub fn rows(&self) -> Vec<(&'static str, String)> {
        vec![
            ("workers", format!("{:>10}", self.workers)),
            ("submitted", format!("{:>10}", self.submitted)),
            ("completed", format!("{:>10}", self.completed)),
            (
                "throughput",
                format!("{:>10.1} cases/s", self.throughput_per_sec),
            ),
            (
                "queue depth",
                format!("{:>10} (peak {})", self.queue_depth, self.peak_queue_depth),
            ),
            (
                "in flight",
                format!(
                    "{:>10} now (peak {}), {} shed busy",
                    self.in_flight_sessions, self.peak_in_flight_sessions, self.shed_busy
                ),
            ),
            (
                "cache",
                format!(
                    "{:>10} entries, {} hits / {} misses ({:.1}% hit rate)",
                    self.cache_entries,
                    self.cache_hits,
                    self.cache_misses,
                    self.cache_hit_rate * 100.0
                ),
            ),
            (
                "warm start",
                format!(
                    "{:>10} snapshot hits ({:.1}% of traffic), {} preloaded, {} saved, {} rejects, {} save failures, {} compacted",
                    self.warm_hits,
                    self.warm_hit_rate * 100.0,
                    self.snapshot_loaded_entries,
                    self.snapshot_saved_entries,
                    self.snapshot_rejects,
                    self.snapshot_save_failures,
                    self.snapshot_compacted_entries
                ),
            ),
            ("solve panics", format!("{:>10}", self.solve_panics)),
            (
                "journal",
                format!("{:>10} events emitted", self.journal_events),
            ),
            (
                "mean batch size",
                format!("{:>10.2}", self.mean_batch_size),
            ),
            (
                "queue wait",
                format!("{:>10.1} \u{b5}s mean", self.mean_queue_wait_us),
            ),
            (
                "cache lookup",
                format!("{:>10.1} \u{b5}s mean", self.mean_cache_lookup_us),
            ),
            (
                "model solve",
                format!("{:>10.1} \u{b5}s mean", self.mean_solve_us),
            ),
            ("uptime", format!("{:>10.3} s", self.uptime_secs)),
        ]
    }

    /// Renders the snapshot as an aligned text block for logs and examples; a
    /// combined snapshot appends the verification stage — and, for sharded
    /// runs, the fleet stage — as their own blocks.
    pub fn render(&self) -> String {
        let mut out = render_block("service metrics", &self.rows());
        if let Some(verify) = &self.verify {
            out.push('\n');
            out.push_str(&verify.render());
        }
        if let Some(fleet) = &self.fleet {
            out.push('\n');
            out.push_str(&fleet.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_aggregates_counters() {
        let recorder = MetricsRecorder::new();
        recorder.record_submit(3);
        recorder.record_submit(1);
        recorder.record_batch();
        recorder.record_job(
            Duration::from_micros(10),
            Duration::from_micros(1),
            Some(Duration::from_micros(100)),
        );
        recorder.record_job(Duration::from_micros(30), Duration::from_micros(1), None);
        let snap = recorder.snapshot(4, 1, 7);
        assert_eq!(snap.submitted, 2);
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.peak_queue_depth, 3);
        assert_eq!(snap.cache_entries, 7);
        assert!((snap.cache_hit_rate - 0.5).abs() < 1e-12);
        assert!((snap.mean_batch_size - 2.0).abs() < 1e-12);
        assert!((snap.mean_queue_wait_us - 20.0).abs() < 1e-9);
        assert!((snap.mean_solve_us - 100.0).abs() < 1e-9);
        assert!(snap.render().contains("cases/s"));
    }

    #[test]
    fn verify_snapshot_tallies_verdicts() {
        let recorder = MetricsRecorder::new();
        recorder.record_submit(2);
        recorder.record_batch();
        recorder.record_verdict(true);
        recorder.record_job(
            Duration::from_micros(5),
            Duration::from_micros(1),
            Some(Duration::from_micros(40)),
        );
        recorder.record_verdict(false);
        recorder.record_job(
            Duration::from_micros(5),
            Duration::from_micros(1),
            Some(Duration::from_micros(60)),
        );
        recorder.record_job(Duration::from_micros(5), Duration::from_micros(1), None);
        let snap = recorder.snapshot_verify(2, 0, 2);
        assert_eq!(snap.completed, 3);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 2);
        assert_eq!(snap.verdicts_true, 1);
        assert_eq!(snap.verdicts_false, 1);
        assert_eq!(snap.verdict_panics, 0);
        assert!((snap.mean_verdict_us - 50.0).abs() < 1e-9);
        assert!(snap.render().contains("verdicts/s"));
    }

    #[test]
    fn snapshot_counters_feed_the_warm_start_view() {
        let recorder = MetricsRecorder::new();
        recorder.record_snapshot_load(12);
        recorder.record_snapshot_reject();
        // Three completed jobs: two hits (one warm), one miss.
        recorder.record_job(Duration::from_micros(1), Duration::from_micros(1), None);
        recorder.record_warm_hit();
        recorder.record_job(Duration::from_micros(1), Duration::from_micros(1), None);
        recorder.record_job(
            Duration::from_micros(1),
            Duration::from_micros(1),
            Some(Duration::from_micros(5)),
        );
        recorder.record_snapshot_save(9);
        recorder.record_snapshot_compaction(3);
        let snap = recorder.snapshot(1, 0, 9);
        assert_eq!(snap.snapshot_loaded_entries, 12);
        assert_eq!(snap.snapshot_saved_entries, 9);
        assert_eq!(snap.snapshot_saves, 1);
        assert_eq!(snap.snapshot_rejects, 1);
        assert_eq!(snap.snapshot_compacted_entries, 3);
        assert_eq!(snap.warm_hits, 1);
        assert!((snap.warm_hit_rate - 1.0 / 3.0).abs() < 1e-12);
        assert!(snap.render().contains("warm start"));
        // The verify view derives from the same counters.
        let verify = recorder.snapshot_verify(1, 0, 9);
        assert_eq!(verify.warm_hits, 1);
        assert_eq!(verify.snapshot_loaded_entries, 12);
        assert!(verify.render().contains("warm start"));
    }

    #[test]
    fn render_blocks_compose_and_nest() {
        let rows = vec![("alpha", "1".to_string()), ("beta", "2".to_string())];
        let block = render_block("title", &rows);
        assert!(block.starts_with("title\n"));
        assert!(block.contains("alpha"));
        // Each row lands on its own line, names padded to a shared column.
        assert_eq!(block.lines().count(), 3);
        let nested = indent_block(&block, 4);
        assert!(nested.lines().all(|line| line.starts_with("    ")));
        assert_eq!(nested.lines().count(), 3);
        // The real snapshots render through the same helper.
        let recorder = MetricsRecorder::new();
        let snap = recorder.snapshot(1, 0, 0);
        assert_eq!(snap.render(), render_block("service metrics", &snap.rows()));
    }

    #[test]
    fn zero_request_rates_are_zero_not_nan() {
        // An idle pool must report 0 rates, not NaN (0/0) — a `NaN%` hit rate
        // in a summary poisons downstream comparisons and JSON consumers.
        let recorder = MetricsRecorder::new();
        let snap = recorder.snapshot(1, 0, 0);
        assert_eq!(snap.cache_hit_rate, 0.0);
        assert_eq!(snap.warm_hit_rate, 0.0);
        assert_eq!(snap.mean_batch_size, 0.0);
        assert_eq!(snap.mean_queue_wait_us, 0.0);
        assert!(!snap.throughput_per_sec.is_nan());
        assert!(snap.render().contains("(0.0% hit rate)"));
        let verify = recorder.snapshot_verify(1, 0, 0);
        assert_eq!(verify.cache_hit_rate, 0.0);
        assert!(!verify.mean_verdict_us.is_nan());
        assert!(verify.render().contains("(0.0% hit rate)"));
    }

    #[test]
    fn sharded_summary_includes_fleet_wire_errors_and_sheds() {
        // Regression: before `with_fleet`, a sharded evaluation's top-level
        // summary dropped the fleet counters entirely — wire errors and
        // per-shard sheds were invisible in the rendered report.
        let fleet = FleetMetrics {
            shards: 2,
            dead_shards: 1,
            submitted: 10,
            completed: 7,
            remote_cache_hits: 3,
            shed_busy: 1,
            wire_errors: 2,
            journal_events: 0,
        };
        let recorder = MetricsRecorder::new();
        let plain = recorder.snapshot(2, 0, 0);
        assert!(
            !plain.render().contains("fleet metrics"),
            "in-process runs must not grow a fleet block"
        );
        let combined = recorder.snapshot(2, 0, 0).with_fleet(fleet.clone());
        let text = combined.render();
        assert!(text.contains("fleet metrics"));
        assert!(text.contains("wire errors"));
        assert!(text.contains("shed busy"));
        assert_eq!(combined.fleet.as_ref().unwrap(), &fleet);
    }

    #[test]
    fn export_mirrors_the_bespoke_snapshot() {
        let recorder = MetricsRecorder::new();
        recorder.record_submit(1);
        recorder.record_job(
            Duration::from_micros(10),
            Duration::from_micros(1),
            Some(Duration::from_micros(100)),
        );
        let verify = MetricsRecorder::new();
        let fleet = FleetMetrics {
            shards: 2,
            dead_shards: 0,
            submitted: 1,
            completed: 1,
            remote_cache_hits: 0,
            shed_busy: 0,
            wire_errors: 0,
            journal_events: 0,
        };
        let snap = recorder
            .snapshot(1, 0, 1)
            .with_verify(verify.snapshot_verify(1, 0, 0))
            .with_fleet(fleet);
        let mut out = RegistrySnapshot::new();
        snap.export("service", &mut out);
        // One namespace for all three stages, stable names.
        let submitted = out.get("service.submitted").expect("service.submitted");
        assert_eq!(submitted.class, MetricClass::Deterministic);
        assert_eq!(submitted.value, 1);
        assert!(out.get("service.verify.submitted").is_some());
        assert!(out.get("service.fleet.wire_errors").is_some());
        assert_eq!(
            out.get("service.cache.misses").map(|m| m.value),
            Some(1),
            "cache counters export verbatim"
        );
        // Deterministic-only filtering keeps workload counters, drops timing.
        let det = out.deterministic_only();
        assert!(det.get("service.submitted").is_some());
        assert!(det.get("service.cache.misses").is_none());
    }

    #[test]
    fn combined_render_includes_both_stages() {
        let repair = MetricsRecorder::new();
        let verify = MetricsRecorder::new();
        let combined = repair
            .snapshot(2, 0, 0)
            .with_verify(verify.snapshot_verify(4, 0, 0));
        let text = combined.render();
        assert!(text.contains("service metrics"));
        assert!(text.contains("verify metrics"));
        assert_eq!(combined.verify.as_ref().unwrap().workers, 4);
    }
}
