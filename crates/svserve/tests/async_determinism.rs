//! End-to-end determinism of the case driver: `evaluate_model` and
//! `evaluate_ladder` drive every case through submit → sample → verify →
//! evaluate on `EvalConfig::drivers` threads, and the results must be
//! byte-identical at any driver count (1/2/4/8), with warm or cold caches
//! (in-memory and on-disk).
//!
//! The driver count only changes *which thread* drives a case and when;
//! everything a case produces is a pure function of request content
//! (content-derived sampler seeds, content-hash shard placement, pure
//! verdicts).  These tests pin that contract.

use assertsolver::{evaluate_ladder, evaluate_model, EvalConfig, LadderEvaluation};
use std::sync::Arc;
use svdata::SvaBugEntry;
use svmodel::{AssertSolverModel, BaselineKind, BaselineModel, RepairModel};

fn corpus(limit: usize) -> Vec<SvaBugEntry> {
    // A small mixed corpus: machine-generated pipeline cases plus human-crafted
    // ones, truncated to keep the driver-count sweep fast.
    let pipeline = svdata::run_pipeline(&svdata::PipelineConfig::tiny(31));
    let mut entries = pipeline.datasets.sva_bug;
    entries.extend(assertsolver::human_crafted_cases());
    entries.truncate(limit);
    assert!(!entries.is_empty());
    entries
}

fn config(drivers: usize) -> EvalConfig {
    EvalConfig {
        workers: 2,
        verify_workers: 2,
        drivers,
        ..EvalConfig::quick(37)
    }
}

#[test]
fn evaluation_is_byte_identical_at_1_2_4_8_drivers() {
    let entries = corpus(6);
    let model = AssertSolverModel::base(9);
    let baseline = evaluate_model(&model, &entries, &config(1));
    let baseline_json = serde_json::to_string(&baseline).expect("evaluation serialises");
    // drivers = 0 resolves through the ASSERTSOLVER_DRIVERS environment
    // override (CI's async matrix runs this suite at 1 and 4), so each matrix
    // leg exercises a different auto-resolved driver count here.
    let auto = evaluate_model(&model, &entries, &config(0));
    assert_eq!(
        baseline, auto,
        "auto driver resolution changed the evaluation"
    );
    for drivers in [2usize, 4, 8] {
        let run = evaluate_model(&model, &entries, &config(drivers));
        assert_eq!(
            baseline, run,
            "driver count {drivers} changed the evaluation"
        );
        assert_eq!(
            baseline_json,
            serde_json::to_string(&run).expect("evaluation serialises"),
            "driver count {drivers} changed the serialized evaluation"
        );
        assert_eq!(baseline.passk(), run.passk());
        assert_eq!(baseline.histogram(8), run.histogram(8));
    }
}

fn ladder_models() -> Vec<Arc<dyn RepairModel + Send + Sync>> {
    [
        BaselineKind::RandomGuess,
        BaselineKind::KeywordMatch,
        BaselineKind::IterativeReasoner,
    ]
    .into_iter()
    .map(|kind| Arc::new(BaselineModel::new(kind)) as Arc<dyn RepairModel + Send + Sync>)
    .collect()
}

fn ladder_eval(config: &EvalConfig, entries: &[SvaBugEntry]) -> LadderEvaluation {
    evaluate_ladder(&ladder_models(), entries, config).evaluation
}

#[test]
fn ladder_evaluation_is_byte_identical_across_driver_counts() {
    let entries = corpus(4);
    let baseline = ladder_eval(&config(1), &entries);
    let baseline_json = serde_json::to_string(&baseline).expect("ladder serialises");
    for drivers in [4usize, 8] {
        let run = ladder_eval(&config(drivers), &entries);
        assert_eq!(
            baseline_json,
            serde_json::to_string(&run).expect("ladder serialises"),
            "driver count {drivers} changed the ladder evaluation"
        );
    }
}

#[test]
fn warm_disk_caches_replay_identically_at_any_driver_count() {
    let dir = std::env::temp_dir().join(format!(
        "assertsolver-async-determinism-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let entries = corpus(4);
    let model = AssertSolverModel::base(9);
    let with_dir = |drivers: usize| EvalConfig {
        cache_dir: Some(dir.display().to_string()),
        ..config(drivers)
    };

    // Cold run at 1 driver populates the response + verdict snapshots.
    let cold = evaluate_model(&model, &entries, &with_dir(1));
    // Warm runs at other driver counts preload from disk: byte-identical.
    for drivers in [2usize, 8] {
        let warm = evaluate_model(&model, &entries, &with_dir(drivers));
        assert_eq!(
            cold, warm,
            "warm start at {drivers} drivers changed the evaluation"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
