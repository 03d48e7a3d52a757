//! Determinism of the unified telemetry plane: the **deterministic-class**
//! subset of a registry snapshot renders to byte-identical text at any
//! driver count, any worker count, and warm or cold caches — while the
//! volatile subset (latency histograms, cache temperature, poll timings) is
//! free to differ and is provably present.
//!
//! The split mirrors the journal's event classes: metrics fed by request
//! *content* (submitted/completed counters, verdict tallies, rung costs)
//! are `MetricClass::Deterministic`; metrics fed by *scheduling* (wall
//! clocks, queue depths, cache hits) are `MetricClass::Volatile` and never
//! enter the compared bytes.

use assertsolver::{evaluate_model_instrumented, EvalConfig};
use std::sync::Arc;
use svdata::SvaBugEntry;
use svmodel::AssertSolverModel;
use svserve::{MetricsRegistry, RegistrySnapshot, TelemetryHandle};

fn corpus(limit: usize) -> Vec<SvaBugEntry> {
    let pipeline = svdata::run_pipeline(&svdata::PipelineConfig::tiny(31));
    let mut entries = pipeline.datasets.sva_bug;
    entries.extend(assertsolver::human_crafted_cases());
    entries.truncate(limit);
    assert!(!entries.is_empty());
    entries
}

fn config(drivers: usize, workers: usize) -> EvalConfig {
    EvalConfig {
        workers,
        verify_workers: workers,
        drivers,
        ..EvalConfig::quick(37)
    }
}

/// Runs the instrumented evaluation and returns the full registry snapshot
/// (deterministic + volatile series).
fn instrumented_snapshot(config: &EvalConfig, entries: &[SvaBugEntry]) -> RegistrySnapshot {
    let model = AssertSolverModel::base(9);
    let telemetry = TelemetryHandle::new(Arc::new(MetricsRegistry::default()));
    let _ = evaluate_model_instrumented(&model, entries, config, &telemetry);
    telemetry.snapshot()
}

#[test]
fn deterministic_snapshot_bytes_are_identical_at_1_2_4_8_drivers() {
    let entries = corpus(5);
    let baseline = instrumented_snapshot(&config(1, 2), &entries);
    let baseline_det = baseline.deterministic_only().render_text();
    assert!(
        !baseline_det.is_empty(),
        "the deterministic subset is non-empty"
    );
    // The volatile plane is live (stage timers observed wall-clock) but
    // excluded from the compared bytes.
    let sessions = baseline.get("eval.stage.sessions").expect("stage timer");
    assert!(sessions.count > 0 && sessions.sum > 0);
    assert!(
        baseline
            .deterministic_only()
            .get("eval.stage.sessions")
            .is_none(),
        "wall-clock stages are volatile"
    );

    for drivers in [2usize, 4, 8] {
        let run = instrumented_snapshot(&config(drivers, 2), &entries);
        assert_eq!(
            baseline_det,
            run.deterministic_only().render_text(),
            "driver count {drivers} changed the deterministic telemetry bytes"
        );
        assert_eq!(
            baseline.deterministic_only().render_json(),
            run.deterministic_only().render_json(),
            "driver count {drivers} changed the JSON exposition"
        );
    }
}

#[test]
fn deterministic_snapshot_bytes_are_identical_at_any_worker_count() {
    let entries = corpus(5);
    let baseline = instrumented_snapshot(&config(2, 1), &entries).deterministic_only();
    for workers in [2usize, 4, 8] {
        let run = instrumented_snapshot(&config(2, workers), &entries).deterministic_only();
        assert_eq!(
            baseline.render_text(),
            run.render_text(),
            "worker count {workers} changed the deterministic telemetry bytes"
        );
    }
}

#[test]
fn warm_and_cold_caches_expose_identical_deterministic_bytes() {
    let dir = std::env::temp_dir().join(format!(
        "svserve-telemetry-determinism-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let entries = corpus(4);
    let with_dir = |drivers: usize| EvalConfig {
        cache_dir: Some(dir.display().to_string()),
        ..config(drivers, 2)
    };

    // Cold run populates the response + verdict snapshots; warm runs replay
    // from disk.  Cache temperature shows up only in volatile series.
    let cold = instrumented_snapshot(&with_dir(1), &entries);
    let warm = instrumented_snapshot(&with_dir(4), &entries);
    assert_eq!(
        cold.deterministic_only().render_text(),
        warm.deterministic_only().render_text(),
        "cache temperature leaked into the deterministic telemetry bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
