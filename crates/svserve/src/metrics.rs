//! Lock-free memo counters and the [`ServiceMetrics`] / [`VerifyMetrics`]
//! snapshots.
//!
//! One `MetricsRecorder` counts for one [`crate::Memo`]: the repair service
//! reads it as [`ServiceMetrics`], a verdict cache as [`VerifyMetrics`] (the
//! same counters plus the verdict tallies).

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};

/// The atomic counters shared by every thread that calls one memo.
///
/// "Panics" are the memo's panicking work: a model solve on the repair side,
/// a judgment on the verdict side.
#[derive(Default)]
pub(crate) struct MetricsRecorder {
    pub(crate) completed: AtomicU64,
    pub(crate) cache_hits: AtomicU64,
    pub(crate) cache_misses: AtomicU64,
    pub(crate) panics: AtomicU64,
    pub(crate) verdicts_true: AtomicU64,
    pub(crate) verdicts_false: AtomicU64,
    pub(crate) warm_hits: AtomicU64,
    pub(crate) snapshot_loaded_entries: AtomicU64,
    pub(crate) snapshot_saved_entries: AtomicU64,
    pub(crate) snapshot_saves: AtomicU64,
    pub(crate) snapshot_save_failures: AtomicU64,
    pub(crate) snapshot_rejects: AtomicU64,
    pub(crate) snapshot_compacted_entries: AtomicU64,
}

/// Adds `by` to one of a recorder's counters.
pub(crate) fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

fn load(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// `part / whole`, 0 when `whole` is: an idle memo reports 0, not NaN.
fn rate(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

impl MetricsRecorder {
    /// Records a successful snapshot write of `entries` cache entries.
    pub(crate) fn record_snapshot_save(&self, entries: usize) {
        bump(&self.snapshot_saves, 1);
        (self.snapshot_saved_entries).store(entries as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_verdict(&self, verdict: bool) {
        let [rejected, accepted] = [&self.verdicts_false, &self.verdicts_true];
        bump(if verdict { accepted } else { rejected }, 1);
    }

    /// Counts one served job, a cache hit or a miss.
    pub(crate) fn record_job(&self, hit: bool) {
        let [misses, hits] = [&self.cache_misses, &self.cache_hits];
        bump(&self.completed, 1);
        bump(if hit { hits } else { misses }, 1);
    }

    pub(crate) fn snapshot(&self, cache_entries: usize) -> ServiceMetrics {
        let (hits, misses) = (load(&self.cache_hits), load(&self.cache_misses));
        ServiceMetrics {
            completed: load(&self.completed),
            cache_hits: hits,
            cache_misses: misses,
            cache_entries,
            cache_hit_rate: rate(hits, hits + misses),
            warm_hits: load(&self.warm_hits),
            warm_hit_rate: rate(load(&self.warm_hits), hits + misses),
            snapshot_loaded_entries: load(&self.snapshot_loaded_entries),
            snapshot_saved_entries: load(&self.snapshot_saved_entries),
            snapshot_saves: load(&self.snapshot_saves),
            snapshot_save_failures: load(&self.snapshot_save_failures),
            snapshot_rejects: load(&self.snapshot_rejects),
            snapshot_compacted_entries: load(&self.snapshot_compacted_entries),
            solve_panics: load(&self.panics),
        }
    }

    pub(crate) fn snapshot_verify(&self, cache_entries: usize) -> VerifyMetrics {
        let (hits, misses) = (load(&self.cache_hits), load(&self.cache_misses));
        VerifyMetrics {
            completed: load(&self.completed),
            shed_busy: 0,
            cache_hits: hits,
            cache_misses: misses,
            cache_entries,
            cache_hit_rate: rate(hits, hits + misses),
            warm_hits: load(&self.warm_hits),
            warm_hit_rate: rate(load(&self.warm_hits), hits + misses),
            snapshot_loaded_entries: load(&self.snapshot_loaded_entries),
            snapshot_saved_entries: load(&self.snapshot_saved_entries),
            snapshot_saves: load(&self.snapshot_saves),
            snapshot_save_failures: load(&self.snapshot_save_failures),
            snapshot_rejects: load(&self.snapshot_rejects),
            snapshot_compacted_entries: load(&self.snapshot_compacted_entries),
            verdict_panics: load(&self.panics),
            verdicts_true: load(&self.verdicts_true),
            verdicts_false: load(&self.verdicts_false),
        }
    }
}

/// A point-in-time view of the repair service's response memo.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServiceMetrics {
    /// Requests served (cache hits included).
    pub completed: u64,
    /// Requests answered from the response cache.
    pub cache_hits: u64,
    /// Requests that required a model invocation.
    pub cache_misses: u64,
    /// Entries currently cached.
    pub cache_entries: usize,
    /// `cache_hits / (cache_hits + cache_misses)`, 0 when nothing completed.
    pub cache_hit_rate: f64,
    /// Cache hits served from entries preloaded out of a [`crate::persist`]
    /// snapshot.
    pub warm_hits: u64,
    /// `warm_hits / (cache_hits + cache_misses)`, 0 when nothing completed.
    pub warm_hit_rate: f64,
    /// Entries preloaded from a snapshot at start.
    pub snapshot_loaded_entries: u64,
    /// Entries written by the most recent snapshot flush.
    pub snapshot_saved_entries: u64,
    /// Successful snapshot flushes.
    pub snapshot_saves: u64,
    /// Snapshot flushes that failed with an I/O error: the automatic flush
    /// paths swallow the error, so this is the signal that persistence failed.
    pub(crate) snapshot_save_failures: u64,
    /// Snapshots rejected as corrupt or mismatched, each a cold start.
    pub snapshot_rejects: u64,
    /// Snapshot entries dropped by age-based compaction at flush time.
    pub snapshot_compacted_entries: u64,
    /// Model invocations that panicked, each served as an empty response set.
    pub solve_panics: u64,
}

/// A point-in-time view of a verdict memo: [`ServiceMetrics`]' counters,
/// read for verdicts, plus the verdict tallies.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct VerifyMetrics {
    /// Verdict jobs served (cache hits included).
    pub completed: u64,
    /// Always 0: a memo sheds nothing.  The benchmark harness still adds it
    /// to its refusal count; it goes with the next change to the harness.
    pub shed_busy: u64,
    /// Verdicts answered from the verdict cache.
    pub cache_hits: u64,
    /// Verdicts that required running the judge.
    pub cache_misses: u64,
    /// Verdicts currently cached.
    pub cache_entries: usize,
    /// `cache_hits / (cache_hits + cache_misses)`, 0 when nothing completed.
    pub cache_hit_rate: f64,
    /// Cache hits served from verdicts preloaded out of a persisted snapshot.
    pub warm_hits: u64,
    /// `warm_hits / (cache_hits + cache_misses)`, 0 when nothing completed.
    pub warm_hit_rate: f64,
    /// Verdicts preloaded from a snapshot at start.
    pub snapshot_loaded_entries: u64,
    /// Verdicts written by the most recent snapshot flush.
    pub snapshot_saved_entries: u64,
    /// Successful snapshot flushes.
    pub snapshot_saves: u64,
    /// Snapshot flushes that failed with an I/O error.
    pub(crate) snapshot_save_failures: u64,
    /// Snapshots rejected as corrupt or mismatched, each a cold start.
    pub snapshot_rejects: u64,
    /// Snapshot entries dropped by age-based compaction at flush time.
    pub snapshot_compacted_entries: u64,
    /// Judge invocations that panicked; each was served as a failed verdict
    /// instead of unwinding through the caller, and not cached.
    pub verdict_panics: u64,
    /// Computed verdicts that accepted the candidate.
    pub verdicts_true: u64,
    /// Computed verdicts that rejected the candidate.
    pub verdicts_false: u64,
}

/// Formats one labelled, aligned metrics block: a title line followed by
/// `  name  value` rows with the names left-padded to a shared column.
fn render_block(title: &str, rows: &[(&str, String)]) -> String {
    let mut out = String::from(title);
    for (name, value) in rows {
        out.push_str(&format!("\n\x20 {name:<17} {value}"));
    }
    out
}

/// The rows both snapshot kinds render, read from the fields they share by
/// name, then the `$extra` row.
macro_rules! memo_rows {
    ($m:expr, $extra:expr) => {
        [
            ("completed", format!("{:>10}", $m.completed)),
            (
                "cache",
                format!(
                    "{:>10} entries, {} hits / {} misses ({:.1}% hit rate)",
                    $m.cache_entries,
                    $m.cache_hits,
                    $m.cache_misses,
                    $m.cache_hit_rate * 100.0
                ),
            ),
            (
                "warm start",
                format!(
                    "{:>10} snapshot hits ({:.1}% of traffic), {} preloaded, {} saved, {} rejects, {} save failures, {} compacted",
                    $m.warm_hits,
                    $m.warm_hit_rate * 100.0,
                    $m.snapshot_loaded_entries,
                    $m.snapshot_saved_entries,
                    $m.snapshot_rejects,
                    $m.snapshot_save_failures,
                    $m.snapshot_compacted_entries
                ),
            ),
            $extra,
        ]
    };
}

impl ServiceMetrics {
    /// Renders the snapshot as an aligned text block for logs and examples.
    pub fn render(&self) -> String {
        let panics = ("solve panics", format!("{:>10}", self.solve_panics));
        render_block("service metrics", &memo_rows!(self, panics))
    }
}

impl VerifyMetrics {
    /// Renders the snapshot as an aligned text block for logs and examples.
    pub fn render(&self) -> String {
        let (yes, no, panics) = (self.verdicts_true, self.verdicts_false, self.verdict_panics);
        let verdicts = format!("{yes:>10} accepted, {no} rejected, {panics} panics");
        render_block("verify metrics", &memo_rows!(self, ("verdicts", verdicts)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_aggregates_counters() {
        let recorder = MetricsRecorder::default();
        recorder.record_job(false);
        recorder.record_job(true);
        let snap = recorder.snapshot(7);
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.cache_entries, 7);
        assert!((snap.cache_hit_rate - 0.5).abs() < 1e-12);
        assert!(snap.render().contains("1 hits / 1 misses"));
    }

    #[test]
    fn verify_snapshot_tallies_verdicts() {
        let recorder = MetricsRecorder::default();
        recorder.record_verdict(true);
        recorder.record_job(false);
        recorder.record_verdict(false);
        recorder.record_job(false);
        recorder.record_job(true);
        let snap = recorder.snapshot_verify(2);
        assert_eq!(snap.completed, 3);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 2);
        assert_eq!(snap.verdicts_true, 1);
        assert_eq!(snap.verdicts_false, 1);
        assert_eq!(snap.verdict_panics, 0);
        assert!(snap.render().contains("1 accepted, 1 rejected"));
    }

    #[test]
    fn snapshot_counters_feed_the_warm_start_view() {
        let recorder = MetricsRecorder::default();
        bump(&recorder.snapshot_loaded_entries, 12);
        bump(&recorder.snapshot_rejects, 1);
        // Three completed jobs: two hits (one warm), one miss.
        recorder.record_job(true);
        bump(&recorder.warm_hits, 1);
        recorder.record_job(true);
        recorder.record_job(false);
        recorder.record_snapshot_save(9);
        bump(&recorder.snapshot_compacted_entries, 3);
        let snap = recorder.snapshot(9);
        assert_eq!(snap.snapshot_loaded_entries, 12);
        assert_eq!(snap.snapshot_saved_entries, 9);
        assert_eq!(snap.snapshot_saves, 1);
        assert_eq!(snap.snapshot_rejects, 1);
        assert_eq!(snap.snapshot_compacted_entries, 3);
        assert_eq!(snap.warm_hits, 1);
        assert!((snap.warm_hit_rate - 1.0 / 3.0).abs() < 1e-12);
        assert!(snap.render().contains("warm start"));
        // The verify view derives from the same counters.
        let verify = recorder.snapshot_verify(9);
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
        // Both snapshots of one recorder render the same shared rows, then
        // one row of their own.
        let recorder = MetricsRecorder::default();
        let service = recorder.snapshot(0).render();
        let verify = recorder.snapshot_verify(0).render();
        assert!(service.starts_with("service metrics\n") && verify.starts_with("verify metrics\n"));
        let shared = |text: &str| text.lines().skip(1).take(3).collect::<Vec<_>>().join("\n");
        assert_eq!(shared(&service), shared(&verify));
        assert_eq!((service.lines().count(), verify.lines().count()), (5, 5));
        assert_ne!(service.lines().last(), verify.lines().last());
    }

    #[test]
    fn zero_request_rates_are_zero_not_nan() {
        // An idle pool must report 0 rates, not NaN (0/0) — a `NaN%` hit rate
        // in a summary poisons downstream comparisons and JSON consumers.
        let recorder = MetricsRecorder::default();
        let snap = recorder.snapshot(0);
        assert_eq!(snap.cache_hit_rate, 0.0);
        assert_eq!(snap.warm_hit_rate, 0.0);
        assert!(snap.render().contains("(0.0% hit rate)"));
        let verify = recorder.snapshot_verify(0);
        assert_eq!(verify.cache_hit_rate, 0.0);
        assert_eq!(verify.warm_hit_rate, 0.0);
        assert!(verify.render().contains("(0.0% hit rate)"));
    }
}
