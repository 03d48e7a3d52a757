//! Trace-tree byte-determinism: the deterministic projection of a trace
//! forest ([`TraceForest::render_deterministic`]) is a pure function of
//! (corpus, salt) — identical at any driver-thread count.
//!
//! Wall clocks are the *only* volatile span field, and they are excluded
//! from the projection, so these suites compare bytes, not structures — the
//! same bar the journal and deterministic-metrics planes hold.

use assertsolver::{evaluate_model_observed, EvalConfig, EvalVerifier};
use svdata::SvaBugEntry;
use svmodel::AssertSolverModel;
use svserve::{TelemetryHandle, TraceForest, TraceHandle, TracerHandle};

fn corpus() -> Vec<SvaBugEntry> {
    assertsolver::human_crafted_cases()
        .into_iter()
        .take(4)
        .collect()
}

/// One in-process evaluation with tracing on; returns the deterministic
/// projection of the collected forest.
fn traced_run(config: &EvalConfig) -> String {
    let model = AssertSolverModel::base(config.seed);
    let trace = TraceHandle::new(0);
    let verifier = EvalVerifier::start(config);
    evaluate_model_observed(
        &model,
        &corpus(),
        config,
        &verifier,
        &TracerHandle::off(),
        &TelemetryHandle::off(),
        &trace,
    );
    verifier.shutdown();
    TraceForest::from_spans(trace.drain()).render_deterministic()
}

#[test]
fn trace_tree_is_byte_identical_at_any_driver_count() {
    let reference = traced_run(&EvalConfig {
        drivers: 1,
        ..EvalConfig::quick(7)
    });
    assert!(!reference.is_empty(), "tracing collected spans");
    for drivers in [2, 4, 8] {
        let tree = traced_run(&EvalConfig {
            drivers,
            ..EvalConfig::quick(7)
        });
        assert_eq!(
            tree, reference,
            "trace tree at {drivers} drivers must match the single-driver bytes"
        );
    }
}
