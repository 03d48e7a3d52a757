//! # svfuzz — deterministic differential fuzzing for the AssertSolver toolchain
//!
//! A dependency-free fuzzing harness whose every run is a **pure function of
//! `(seed, iteration budget)`**: the same seed produces byte-identical finding
//! logs and corpus artifacts on every machine, at any driver-thread setting.
//! Three layers:
//!
//! * **Generators** ([`generate`]) — a grammar-aware synthesizer built on the
//!   `svgen` design families (valid modules across widths, depths and variants)
//!   plus a byte/token-level mangler that degrades them into near-miss and
//!   invalid inputs for parser hardening.
//! * **Oracles** ([`oracle`]) — differential properties every input is driven
//!   through: the parser envelope (no panic, error spans within the source),
//!   the `parse ↔ emit_file` structural roundtrip, `svmutate` operator closure
//!   (every injected bug reparses, classifies under the Table-I taxonomy and is
//!   re-locatable by `sites`), `svverify` BMC consistency (permuting a
//!   module's concurrent items must not change the verdict), and the
//!   simulator differential (the compiled `svsim` engine and the state-searching
//!   bounded checker against `svsim::reference` and the plain check loop, cycle
//!   for cycle and verdict for verdict), and the line-edit differential (the
//!   judge's one-item delta, `svparse::FrontEnd`, against the whole-text parse
//!   of the edited source).
//! * **Miner** ([`run_fuzz`]) — findings are deduplicated by failure class,
//!   shrunk with a built-in delta-debugging minimizer ([`shrink`]), and written
//!   to `fuzz/corpus/<family>/` as self-describing JSON cases ([`finding`],
//!   [`corpus`]). Each case is re-driven through
//!   [`assertsolver::evaluate_model_journaled`] so the artifact carries a
//!   replayable session journal ([`journal`]) that byte-verifies on `repro`.
//!
//! The `svfuzz` binary exposes `run --seed N --iters M`, `repro <case>`,
//! `min <case>` and `add` (register an externally-found regression).
//!
//! ## Quick example
//!
//! ```
//! use svfuzz::{run_fuzz, FuzzConfig};
//!
//! let a = run_fuzz(&FuzzConfig::new(1, 40));
//! let b = run_fuzz(&FuzzConfig::new(1, 40));
//! assert_eq!(a.log, b.log); // byte-deterministic
//! ```

pub mod corpus;
pub mod finding;
pub mod generate;
pub mod journal;
pub(crate) mod miner;
pub mod oracle;
pub mod shrink;

pub use corpus::{load_case, load_corpus, mined_samples, repro_case, write_case};
pub use finding::{class_fingerprint, CaseFile, Expectation};
pub use journal::{derive_entry, render_case_journal};
pub use miner::{compose_case, run_fuzz, FuzzConfig, FuzzReport, FuzzStats};
pub use oracle::{drive_oracle, OracleKind, OracleOutcome};
pub use shrink::ddmin_lines;

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::CaseFile>();
        assert_send_sync::<super::FuzzConfig>();
        assert_send_sync::<super::FuzzReport>();
    }
}
