//! # svverify — bounded formal checking of concurrent assertions
//!
//! The AssertSolver paper validates every generated SVA and every injected bug with
//! the SymbiYosys formal verifier.  This crate is the reproduction's stand-in: a
//! bounded checker that exhaustively enumerates input sequences for small designs and
//! falls back to seeded randomised sweeps for larger ones, plus the three yes/no
//! oracles the data pipeline needs (SVA validity, bug-triggers-failure, and
//! repair-solves-failure).
//!
//! ## Quick example
//!
//! ```
//! let module = svparse::parse_module(r#"
//! module latch(input clk, input rst_n, input d, output reg q);
//!   always @(posedge clk or negedge rst_n) begin
//!     if (!rst_n) q <= 0;
//!     else q <= d;
//!   end
//!   property follows;
//!     @(posedge clk) disable iff (!rst_n) d |=> q;
//!   endproperty
//!   assert property (follows);
//! endmodule
//! "#).map_err(|e| e.to_string())?;
//! let verdict = svverify::BoundedChecker::default().check_module(&module);
//! assert!(verdict.passed());
//! # Ok::<(), String>(())
//! ```

pub mod bmc;
pub mod oracle;
pub mod stimulus;

pub use bmc::{BoundedChecker, CheckConfig, CheckMethod, SweepWork, Verdict};
pub use oracle::{SvaValidity, VerifyOracle};
pub use stimulus::{
    driven_inputs, exhaustive_is_tractable, exhaustive_stimuli, input_bits, random_stimuli,
    reset_then_constant, DrivenInput, Stimuli, MAX_EXHAUSTIVE_BITS,
};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::BoundedChecker>();
        assert_send_sync::<super::Verdict>();
        assert_send_sync::<super::VerifyOracle>();
    }
}
