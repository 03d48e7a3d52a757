//! An observability facility never changes the evaluation: with the session
//! journal, the telemetry registry or the trace plane on — one at a time and
//! all together — [`evaluate_model_observed`] returns the `ModelEvaluation`
//! the unobserved run returns, and each facility that is on has recorded
//! something: journal records, stage and solve timings, one five-span tree
//! per case.  (What the facilities cost is measured by `svbench`:
//! `svserve.{journal,trace,telemetry}.eval_s` in `BENCHMARK.json`.)

use assertsolver::{evaluate_model, evaluate_model_observed, EvalConfig, EvalVerifier};
use std::sync::Arc;
use svdata::SvaBugEntry;
use svmodel::AssertSolverModel;
use svserve::{
    JournalSink, JournalSpec, MetricsRegistry, TelemetryHandle, TraceForest, TraceHandle,
    TracerHandle,
};

/// The mixed corpus the determinism suites sweep: machine-generated pipeline
/// cases, then the human-crafted set.
fn corpus() -> Vec<SvaBugEntry> {
    let pipeline = svdata::run_pipeline(&svdata::PipelineConfig::tiny(31));
    let mut entries = pipeline.datasets.sva_bug;
    entries.extend(assertsolver::human_crafted_cases());
    entries.truncate(8);
    entries
}

#[test]
fn journal_telemetry_and_trace_leave_the_evaluation_unchanged() {
    let entries = corpus();
    let model = AssertSolverModel::base(9);
    let config = EvalConfig {
        workers: 2,
        verify_workers: 2,
        ..EvalConfig::quick(37)
    };
    let baseline = evaluate_model(&model, &entries, &config);

    // (journal, telemetry, trace)
    for facilities in [
        (true, false, false),
        (false, true, false),
        (false, false, true),
        (true, true, true),
    ] {
        let (journal_on, telemetry_on, trace_on) = facilities;
        let sink = JournalSink::shared(JournalSpec::default());
        let tracer = if journal_on {
            sink.handle()
        } else {
            TracerHandle::off()
        };
        let telemetry = if telemetry_on {
            TelemetryHandle::new(Arc::new(MetricsRegistry::default()))
        } else {
            TelemetryHandle::off()
        };
        let trace = if trace_on {
            TraceHandle::new(0)
        } else {
            TraceHandle::off()
        };

        let verifier = EvalVerifier::start_instrumented(&config, tracer.clone(), &telemetry);
        let observed = evaluate_model_observed(
            &model, &entries, &config, &verifier, &tracer, &telemetry, &trace,
        );
        verifier.shutdown();
        assert_eq!(
            baseline, observed,
            "(journal, telemetry, trace) = {facilities:?} changed the evaluation"
        );

        let records = sink.drain_sorted();
        assert_eq!(
            !records.is_empty(),
            journal_on,
            "journal records exactly when the tracer is on ({facilities:?})"
        );
        let snapshot = telemetry.snapshot();
        let count = |name: &str| snapshot.get(name).map_or(0, |metric| metric.count);
        assert_eq!(
            count("eval.stage.sessions") >= 1 && count("service.repair.solve") > 0,
            telemetry_on,
            "stage and solve timings exactly when the registry is on ({facilities:?})"
        );
        let forest = TraceForest::from_spans(trace.drain());
        let traced = if trace_on { entries.len() } else { 0 };
        assert_eq!(
            (forest.sessions().len(), forest.len()),
            (traced, 5 * traced),
            "one session root with submit/sample/verify/evaluate per case ({facilities:?})"
        );
        if trace_on {
            let stacks: Vec<String> = forest
                .collapsed()
                .frames()
                .map(|(stack, _)| stack.to_string())
                .collect();
            assert_eq!(
                stacks,
                [
                    "session",
                    "session;evaluate",
                    "session;sample",
                    "session;submit",
                    "session;verify"
                ]
            );
        }
    }
}
