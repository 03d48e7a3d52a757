//! # assertsolver — reproduction of the AssertSolver system (DAC 2025)
//!
//! This crate ties the workspace together into the paper's end-to-end flow:
//!
//! 1. [`train()`](fn@train) runs the data-augmentation pipeline (`svdata`), the PT → SFT → DPO
//!    training recipe (`svmodel`) and builds the SVA-Eval benchmark
//!    ([`benchmark::SvaEval`], machine + human cases);
//! 2. [`evaluate_model`] samples any [`svmodel::RepairModel`] *n* times per case,
//!    decides correctness with the bounded checker (`svverify`) and aggregates
//!    pass@1/pass@5 ([`PassK`]) plus the per-bug-type, per-length-bin and histogram
//!    breakdowns behind Tables III/IV and Figures 3–5;
//! 3. [`report`] renders those results in the paper's table formats.
//!
//! Every evaluation runs one body, [`Evaluation`]: `Evaluation::new(model,
//! entries, config)` is the plain protocol, and `.verifier(..)`,
//! `.journal(..)` and `.trace(..)` each switch on one facility;
//! [`Evaluation::run`] returns the [`ModelEvaluation`] plus, when it is on,
//! the rendered journal, and hands each traced case to the trace handle; a
//! run also writes its journal wherever
//! `EvalConfig::journal_dir` or `ASSERTSOLVER_JOURNAL_DIR` resolves.
//! [`evaluate_model`] is the plain builder; [`evaluate_model_with`],
//! [`evaluate_model_journaled`], [`evaluate_model_instrumented`] and
//! [`evaluate_model_observed`] are thin shims over it.
//!
//! ## Quick example
//!
//! ```no_run
//! use assertsolver::{evaluate_model, train, EvalConfig, TrainConfig};
//!
//! let artifacts = train(&TrainConfig::quick(1));
//! let eval = evaluate_model(
//!     &artifacts.assert_solver,
//!     &artifacts.sva_eval.all(),
//!     &EvalConfig::quick(1),
//! );
//! println!("pass@1 = {:.2}%", eval.passk().pass1_percent());
//! ```

pub mod benchmark;
pub mod evaluate;
pub mod passk;
pub mod report;
pub mod train;

pub use benchmark::{human_crafted_cases, SvaEval};
pub use evaluate::{
    apply_line_edit, evaluate_model, evaluate_model_instrumented, evaluate_model_journaled,
    evaluate_model_observed, evaluate_model_with, response_is_correct, CaseResult, EvalConfig,
    EvalVerifier, Evaluation, EvaluationRun, JournalManifest, JudgedCase, ModelEvaluation,
};
pub use passk::{pass_at_k, PassK};
pub use report::{
    render_breakdown, render_distribution, render_histogram, render_passk_table, render_split_table,
};
pub use train::{train, TrainConfig, TrainedArtifacts};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::SvaEval>();
        assert_send_sync::<super::ModelEvaluation>();
        assert_send_sync::<super::TrainedArtifacts>();
        assert_send_sync::<super::PassK>();
    }
}
