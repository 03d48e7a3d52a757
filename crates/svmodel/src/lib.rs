//! # svmodel — the AssertSolver surrogate model, its training stages and baselines
//!
//! The paper fine-tunes Deepseek-Coder-6.7b with PT → SFT → DPO on eight A800 GPUs.
//! This crate reproduces the *training dynamics* of that recipe at laptop scale with a
//! trainable statistical policy: a Verilog bigram language model (continual
//! pretraining), a linear softmax line-localisation policy and fix-ranking policy
//! (supervised fine-tuning by SGD), and pairwise preference updates on error responses
//! to challenging cases (DPO).  Inference takes the same three inputs as the paper's
//! model — Spec, buggy SystemVerilog and logs — and returns the buggy line, a fix and
//! a chain of thought, sampled `n` times at a configurable temperature for pass@k
//! evaluation.  Rule-based baseline engines stand in for the commercial LLMs the paper
//! compares against.
//!
//! ## What a `solve` does
//!
//! Every [`RepairModel::solve`] here builds one crate-private sampling plan for the
//! case: the buggy source is parsed once, the line candidates and their feature
//! matrix are built once (one search of the assertions' fan-in cone), and a
//! line's fix candidates (one LM surprisal each) are built on the first draw of
//! that line and reused by every later draw of it.  The policies' softmax is
//! computed once per `solve` for the lines and once per drawn line for its fixes,
//! a (line, fix) pair's response is rendered once and cloned for its repeats,
//! and a trained `NgramLm` answers every lookup from a frozen id-keyed index.
//! The RNG is consumed in the same order as rebuilding all of that per sample,
//! so the responses are byte-identical to the per-sample path, which the
//! crate's tests keep as an oracle.  SFT prepares each example's feature
//! matrices once, before the epoch loop, and DPO harvesting reads its pairs
//! from the plan it sampled through.
//!
//! ## Quick example
//!
//! ```
//! use svmodel::{AssertSolverModel, CaseInput, RepairModel};
//! use svdata::{run_pipeline, PipelineConfig};
//!
//! let data = run_pipeline(&PipelineConfig::tiny(1));
//! let entry = &data.datasets.sva_bug[0];
//! let model = AssertSolverModel::base(0);
//! let responses = model.solve(&CaseInput::from_entry(entry), 3, 0.2, 7);
//! assert_eq!(responses.len(), 3);
//! ```

pub mod baselines;
pub(crate) mod features;
pub(crate) mod fixgen;
pub(crate) mod lm;
mod plan;
pub mod policy;
pub mod solver;

pub use baselines::{all_baselines, BaselineKind, BaselineModel};
pub use features::CaseInput;
pub use lm::tokenize;
pub use policy::Policy;
pub use solver::{AssertSolverModel, PreferencePair, RepairModel, Response, TrainingStage};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::AssertSolverModel>();
        assert_send_sync::<super::BaselineModel>();
        assert_send_sync::<super::Response>();
        assert_send_sync::<super::lm::NgramLm>();
    }
}
