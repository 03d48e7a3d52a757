//! End-to-end determinism of the two-pool evaluation: `evaluate_model` must produce
//! a byte-identical `ModelEvaluation` — per-case verdicts, pass@k, histograms — at
//! any verify worker count, and whether the verdict cache is cold or pre-warmed.

use assertsolver::{evaluate_model, evaluate_model_with, EvalConfig, EvalVerifier};
use svdata::SvaBugEntry;
use svmodel::AssertSolverModel;

fn corpus() -> Vec<SvaBugEntry> {
    // A small mixed corpus: machine-generated pipeline cases plus human-crafted
    // ones, truncated to keep the four-way evaluation sweep fast.
    let pipeline = svdata::run_pipeline(&svdata::PipelineConfig::tiny(23));
    let mut entries = pipeline.datasets.sva_bug;
    entries.extend(assertsolver::human_crafted_cases());
    entries.truncate(6);
    assert!(!entries.is_empty());
    entries
}

fn config(verify_workers: usize) -> EvalConfig {
    EvalConfig {
        workers: 2,
        verify_workers,
        ..EvalConfig::quick(11)
    }
}

#[test]
fn evaluation_is_byte_identical_at_1_2_4_8_verify_workers() {
    let entries = corpus();
    let model = AssertSolverModel::base(7);
    let baseline = evaluate_model(&model, &entries, &config(1));
    let baseline_json = serde_json::to_string(&baseline).expect("evaluation serialises");
    // The full evaluation must match byte for byte: per-case verdict counts,
    // aggregate pass@k, and the Fig.-3 histogram.
    for verify_workers in [2usize, 4, 8] {
        let run = evaluate_model(&model, &entries, &config(verify_workers));
        assert_eq!(
            baseline, run,
            "verify worker count {verify_workers} changed the evaluation"
        );
        assert_eq!(
            baseline_json,
            serde_json::to_string(&run).expect("evaluation serialises"),
            "verify worker count {verify_workers} changed the serialized evaluation"
        );
        assert_eq!(baseline.passk(), run.passk());
        assert_eq!(baseline.histogram(8), run.histogram(8));
    }
}

#[test]
fn evaluation_is_byte_identical_with_prewarmed_verdict_cache() {
    let entries = corpus();
    let model = AssertSolverModel::base(7);
    let config = config(4);

    // Cold: a fresh verifier per run (this is what `evaluate_model` does).
    let cold = evaluate_model(&model, &entries, &config);

    // Warm: one verifier reused, so the second run replays cached verdicts.
    let verifier = EvalVerifier::start(&config);
    let first = evaluate_model_with(&model, &entries, &config, &verifier);
    let first_metrics = verifier.metrics();
    let second = evaluate_model_with(&model, &entries, &config, &verifier);
    let final_metrics = verifier.shutdown();

    assert_eq!(
        cold, first,
        "persistent verifier changed cold-cache results"
    );
    assert_eq!(first, second, "pre-warmed verdict cache changed results");
    assert_eq!(
        serde_json::to_string(&cold).expect("serialises"),
        serde_json::to_string(&second).expect("serialises"),
    );
    assert_eq!(
        final_metrics.cache_misses, first_metrics.cache_misses,
        "the warm pass must not recompute any verdict"
    );
    assert!(
        final_metrics.cache_hits > first_metrics.cache_hits,
        "the warm pass must be served from the verdict cache"
    );
}
