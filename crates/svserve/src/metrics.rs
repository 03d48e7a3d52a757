//! Lock-free pool instrumentation and the [`ServiceMetrics`] / [`VerifyMetrics`]
//! snapshots.
//!
//! One `MetricsRecorder` instruments one pool.  The repair pool snapshots it
//! as [`ServiceMetrics`]; the verify pool snapshots the same counters (plus the
//! verdict tallies) as [`VerifyMetrics`].

use crate::telemetry::{MetricClass, RegistrySnapshot};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Internal atomic counters shared by every thread that submits to one pool.
///
/// The "solve" stage doubles as the verify pool's "verdict" stage: both are the
/// cache-miss work a submission runs after its cache lookup.
pub(crate) struct MetricsRecorder {
    started_at: Instant,
    submitted: AtomicU64,
    completed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
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
    in_flight: AtomicU64,
    peak_in_flight: AtomicU64,
    shed_busy: AtomicU64,
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
            in_flight: AtomicU64::new(0),
            peak_in_flight: AtomicU64::new(0),
            shed_busy: AtomicU64::new(0),
            cache_lookup_ns: AtomicU64::new(0),
            solve_ns: AtomicU64::new(0),
        }
    }

    pub(crate) fn record_submit(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Admission control: reserves one in-flight slot, or reports the pool
    /// busy.  `limit == 0` means unbounded (the slot is still counted, so the
    /// in-flight gauge works either way).  The reservation is released by
    /// [`MetricsRecorder::record_job`] when the job completes.
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

    /// Counts one served job and releases its in-flight slot (saturating, so
    /// a stray release can never wrap the gauge).
    pub(crate) fn record_job(&self, cache_lookup: Duration, solve: Option<Duration>) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |current| {
                Some(current.saturating_sub(1))
            });
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
            in_flight_sessions: self.in_flight.load(Ordering::Relaxed) as usize,
            peak_in_flight_sessions: self.peak_in_flight.load(Ordering::Relaxed) as usize,
            shed_busy: self.shed_busy.load(Ordering::Relaxed),
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

    pub(crate) fn snapshot(&self, workers: usize, cache_entries: usize) -> ServiceMetrics {
        let stage = self.stage();
        ServiceMetrics {
            workers,
            submitted: stage.submitted,
            completed: stage.completed,
            in_flight_sessions: stage.in_flight_sessions,
            peak_in_flight_sessions: stage.peak_in_flight_sessions,
            shed_busy: stage.shed_busy,
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
            mean_cache_lookup_us: stage.mean_cache_lookup_us,
            mean_solve_us: stage.mean_work_us,
            uptime_secs: stage.uptime_secs,
            throughput_per_sec: stage.throughput_per_sec,
        }
    }

    pub(crate) fn snapshot_verify(&self, workers: usize, cache_entries: usize) -> VerifyMetrics {
        let stage = self.stage();
        VerifyMetrics {
            workers,
            submitted: stage.submitted,
            completed: stage.completed,
            in_flight_sessions: stage.in_flight_sessions,
            peak_in_flight_sessions: stage.peak_in_flight_sessions,
            shed_busy: stage.shed_busy,
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
    in_flight_sessions: usize,
    peak_in_flight_sessions: usize,
    shed_busy: u64,
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
    mean_cache_lookup_us: f64,
    mean_work_us: f64,
    uptime_secs: f64,
    throughput_per_sec: f64,
}

/// A point-in-time view of service health and performance.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServiceMetrics {
    /// Number of response-cache shards.
    pub workers: usize,
    /// Requests accepted by `submit`.
    pub submitted: u64,
    /// Requests fully served (cache hits included).
    pub completed: u64,
    /// Requests admitted but not yet completed — the in-flight session gauge:
    /// how many submitters are inside the model right now.
    pub in_flight_sessions: usize,
    /// Highest concurrent in-flight count observed over the pool's lifetime.
    pub peak_in_flight_sessions: usize,
    /// Requests shed by admission control (`max_in_flight` reached); each one
    /// was rejected with `SubmitError::Busy` instead of served.
    pub shed_busy: u64,
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
    /// an empty response set instead of unwinding through the submitter.
    pub solve_panics: u64,
    /// Mean cache probe time, in microseconds.
    pub mean_cache_lookup_us: f64,
    /// Mean model invocation time (misses only), in microseconds.
    pub mean_solve_us: f64,
    /// Service lifetime at snapshot, in seconds.
    pub uptime_secs: f64,
    /// Completed requests per second of uptime.
    pub throughput_per_sec: f64,
}

/// A point-in-time view of the verification offload pool.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct VerifyMetrics {
    /// Number of verdict-cache shards.
    pub workers: usize,
    /// Verdict jobs accepted by `submit`.
    pub submitted: u64,
    /// Verdict jobs fully served (cache hits included).
    pub completed: u64,
    /// Verdict jobs admitted but not yet completed — the in-flight gauge.
    pub in_flight_sessions: usize,
    /// Highest concurrent in-flight count observed over the pool's lifetime.
    pub peak_in_flight_sessions: usize,
    /// Verdict jobs shed by admission control (0 unless a limit is configured).
    pub shed_busy: u64,
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
    /// failed verdict instead of unwinding through the submitter (never cached).
    pub verdict_panics: u64,
    /// Computed verdicts that accepted the candidate.
    pub verdicts_true: u64,
    /// Computed verdicts that rejected the candidate.
    pub verdicts_false: u64,
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
/// Every `render()` in this crate — `ServiceMetrics`, `VerifyMetrics` and
/// `FleetMetrics` — is built from this helper instead of each duplicating it.
pub fn render_block(title: &str, rows: &[(&str, String)]) -> String {
    let mut out = String::from(title);
    for (name, value) in rows {
        out.push('\n');
        out.push_str(&format!("\x20 {name:<17} {value}"));
    }
    out
}

impl VerifyMetrics {
    /// The aligned rows behind [`VerifyMetrics::render`].
    fn rows(&self) -> Vec<(&'static str, String)> {
        vec![
            ("workers", format!("{:>10}", self.workers)),
            ("submitted", format!("{:>10}", self.submitted)),
            ("completed", format!("{:>10}", self.completed)),
            (
                "throughput",
                format!("{:>10.1} verdicts/s", self.throughput_per_sec),
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
    /// Exports the snapshot's fields as registry series under `prefix`
    /// (`<prefix>.submitted`, `<prefix>.cache.hits`, …), so the bespoke view
    /// and the unified telemetry plane expose one set of numbers.  Request and
    /// verdict totals are deterministic (pure functions of the workload);
    /// cache and scheduling counters are volatile.
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
            &format!("{prefix}.in_flight"),
            vol,
            self.in_flight_sessions as u64,
        );
        out.upsert_counter(&format!("{prefix}.shed_busy"), vol, self.shed_busy);
        out.upsert_counter(&format!("{prefix}.panics"), vol, self.solve_panics);
    }

    /// The aligned rows behind [`ServiceMetrics::render`].
    fn rows(&self) -> Vec<(&'static str, String)> {
        vec![
            ("workers", format!("{:>10}", self.workers)),
            ("submitted", format!("{:>10}", self.submitted)),
            ("completed", format!("{:>10}", self.completed)),
            (
                "throughput",
                format!("{:>10.1} cases/s", self.throughput_per_sec),
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

    /// Renders the snapshot as an aligned text block for logs and examples.
    pub fn render(&self) -> String {
        render_block("service metrics", &self.rows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_aggregates_counters() {
        let recorder = MetricsRecorder::new();
        recorder.record_submit();
        recorder.record_submit();
        recorder.record_job(Duration::from_micros(1), Some(Duration::from_micros(100)));
        recorder.record_job(Duration::from_micros(1), None);
        let snap = recorder.snapshot(4, 7);
        assert_eq!(snap.submitted, 2);
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.cache_entries, 7);
        assert!((snap.cache_hit_rate - 0.5).abs() < 1e-12);
        assert!((snap.mean_cache_lookup_us - 1.0).abs() < 1e-9);
        assert!((snap.mean_solve_us - 100.0).abs() < 1e-9);
        assert!(snap.render().contains("cases/s"));
    }

    #[test]
    fn verify_snapshot_tallies_verdicts() {
        let recorder = MetricsRecorder::new();
        recorder.record_submit();
        recorder.record_verdict(true);
        recorder.record_job(Duration::from_micros(1), Some(Duration::from_micros(40)));
        recorder.record_verdict(false);
        recorder.record_job(Duration::from_micros(1), Some(Duration::from_micros(60)));
        recorder.record_job(Duration::from_micros(1), None);
        let snap = recorder.snapshot_verify(2, 2);
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
        recorder.record_job(Duration::from_micros(1), None);
        recorder.record_warm_hit();
        recorder.record_job(Duration::from_micros(1), None);
        recorder.record_job(Duration::from_micros(1), Some(Duration::from_micros(5)));
        recorder.record_snapshot_save(9);
        recorder.record_snapshot_compaction(3);
        let snap = recorder.snapshot(1, 9);
        assert_eq!(snap.snapshot_loaded_entries, 12);
        assert_eq!(snap.snapshot_saved_entries, 9);
        assert_eq!(snap.snapshot_saves, 1);
        assert_eq!(snap.snapshot_rejects, 1);
        assert_eq!(snap.snapshot_compacted_entries, 3);
        assert_eq!(snap.warm_hits, 1);
        assert!((snap.warm_hit_rate - 1.0 / 3.0).abs() < 1e-12);
        assert!(snap.render().contains("warm start"));
        // The verify view derives from the same counters.
        let verify = recorder.snapshot_verify(1, 9);
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
        // The real snapshots render through the same helper.
        let recorder = MetricsRecorder::new();
        let snap = recorder.snapshot(1, 0);
        assert_eq!(snap.render(), render_block("service metrics", &snap.rows()));
    }

    #[test]
    fn zero_request_rates_are_zero_not_nan() {
        // An idle pool must report 0 rates, not NaN (0/0) — a `NaN%` hit rate
        // in a summary poisons downstream comparisons and JSON consumers.
        let recorder = MetricsRecorder::new();
        let snap = recorder.snapshot(1, 0);
        assert_eq!(snap.cache_hit_rate, 0.0);
        assert_eq!(snap.warm_hit_rate, 0.0);
        assert_eq!(snap.mean_cache_lookup_us, 0.0);
        assert!(!snap.throughput_per_sec.is_nan());
        assert!(snap.render().contains("(0.0% hit rate)"));
        let verify = recorder.snapshot_verify(1, 0);
        assert_eq!(verify.cache_hit_rate, 0.0);
        assert!(!verify.mean_verdict_us.is_nan());
        assert!(verify.render().contains("(0.0% hit rate)"));
    }

    #[test]
    fn export_mirrors_the_bespoke_snapshot() {
        let recorder = MetricsRecorder::new();
        recorder.record_submit();
        recorder.record_job(Duration::from_micros(1), Some(Duration::from_micros(100)));
        let snap = recorder.snapshot(1, 1);
        let mut out = RegistrySnapshot::new();
        snap.export("service", &mut out);
        // One namespace, stable names.
        let submitted = out.get("service.submitted").expect("service.submitted");
        assert_eq!(submitted.class, MetricClass::Deterministic);
        assert_eq!(submitted.value, 1);
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
}
