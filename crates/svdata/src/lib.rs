//! # svdata — the AssertSolver datasets and three-stage augmentation pipeline
//!
//! Reproduces Section II of the paper: starting from a (synthetic) Verilog corpus the
//! pipeline filters and syntax-checks the samples (Stage 1), injects and validates
//! bugs and SVAs with the simulator and bounded checker (Stage 2, one step per bug:
//! [`ValidatedGolden::derive`], which the human-crafted SVA-Eval cases and the fuzz
//! corpus derive through as well), and generates and
//! validates chains of thought (Stage 3), producing the *Verilog-PT*, *Verilog-Bug*
//! and *SVA-Bug* datasets plus the 90/10 module-level train/evaluation split that
//! becomes SVA-Eval-Machine.
//!
//! ## Quick example
//!
//! ```
//! use svdata::{run_pipeline, PipelineConfig};
//!
//! let output = run_pipeline(&PipelineConfig::tiny(1));
//! assert!(!output.datasets.sva_bug.is_empty());
//! assert!(output.datasets.sva_bug.iter().all(|e| e.logs.contains("failed assertion")));
//! ```

pub mod entries;
pub mod pipeline;

pub use entries::{Datasets, SvaBugEntry, VerilogBugEntry, VerilogPtEntry};
pub use pipeline::{
    distribution, run_pipeline, split_by_module, stage1_filter, stage2_generate, stage3_cot,
    AcceptedDesign, Distribution, PipelineConfig, PipelineOutput, Stage1Output, Stage2Outcome,
    Stage2Output, SvaCase, TrainTestSplit, ValidatedGolden,
};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::Datasets>();
        assert_send_sync::<super::SvaBugEntry>();
        assert_send_sync::<super::PipelineOutput>();
    }
}
