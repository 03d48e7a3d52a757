//! End-to-end determinism of the evaluation: `evaluate_model` must produce a
//! byte-identical `ModelEvaluation` — per-case verdicts, pass@k, histograms —
//! whether the verdict cache is cold or pre-warmed.

use assertsolver::{evaluate_model, evaluate_model_with, EvalConfig, EvalVerifier};
use svdata::SvaBugEntry;
use svmodel::AssertSolverModel;

fn corpus() -> Vec<SvaBugEntry> {
    // A small mixed corpus: machine-generated pipeline cases plus human-crafted
    // ones, truncated to keep the three evaluations fast.
    let pipeline = svdata::run_pipeline(&svdata::PipelineConfig::tiny(23));
    let mut entries = pipeline.datasets.sva_bug;
    entries.extend(assertsolver::human_crafted_cases());
    entries.truncate(6);
    assert!(!entries.is_empty());
    entries
}

#[test]
fn evaluation_is_byte_identical_with_prewarmed_verdict_cache() {
    let entries = corpus();
    let model = AssertSolverModel::base(7);
    let config = EvalConfig::quick(11);

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
