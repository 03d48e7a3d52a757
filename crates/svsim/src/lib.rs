//! # svsim — cycle-accurate RTL simulation with concurrent-assertion checking
//!
//! This crate is the reproduction's stand-in for the event-driven simulator the
//! AssertSolver paper uses to obtain assertion-failure logs.  It elaborates a
//! [`svparse::Module`] into a [`Design`], simulates it cycle-by-cycle against a
//! testbench stimulus, evaluates every concurrent assertion over the recorded trace
//! and renders tool-style logs.
//!
//! ## How it runs
//!
//! Elaboration ends by *lowering* the design (`lower.rs`): every signal becomes a slot
//! of a `Vec<Value>`, every expression a postfix program over slots, every procedural
//! body a flat list of steps, every assertion a small tree with programs at its
//! leaves.  [`Engine`] runs those programs — reset state, one clock cycle, one pass of
//! the assertion checker — against states and rows the caller owns; [`Simulator`] is an
//! engine with one state and one [`Trace`], and a trace is one flat vector of rows
//! that [`check_assertions`] reads by slot through [`Rows`].  A simulator looks a
//! signal up by name only where a testbench value enters, and a caller that resolves
//! its inputs once ([`Design::input_slot`]) and drives the engine itself never does.
//!
//! [`mod@reference`] holds the interpreter this replaced — state in a
//! `BTreeMap<String, Value>`, the syntax tree walked directly.  It defines what the
//! compiled engine must compute, quirks included, and is called only by the
//! differential tests and the `svfuzz` `sim-diff` oracle; no production path may use
//! it.  `docs/ARCHITECTURE.md` ("The checking core") has the slot layout, the cycle,
//! and the list of behaviours pinned by that oracle.
//!
//! ## Quick example
//!
//! ```
//! use std::collections::BTreeMap;
//!
//! let module = svparse::parse_module(r#"
//! module counter(input clk, input rst_n, output reg [3:0] count);
//!   always @(posedge clk or negedge rst_n) begin
//!     if (!rst_n) count <= 4'd0;
//!     else count <= count + 4'd1;
//!   end
//!   property no_overflow;
//!     @(posedge clk) disable iff (!rst_n) count <= 4'd15;
//!   endproperty
//!   assert property (no_overflow);
//! endmodule
//! "#).map_err(|e| svsim::SimError::Elaboration(e.to_string()))?;
//!
//! let stimulus: Vec<svsim::InputVector> = (0..8)
//!     .map(|i| BTreeMap::from([("rst_n".to_string(), u64::from(i >= 1))]))
//!     .collect();
//! let outcome = svsim::simulate(&module, &stimulus)?;
//! assert!(outcome.passed());
//! # Ok::<(), svsim::SimError>(())
//! ```

pub mod elaborate;
mod eval;
pub mod log;
mod lower;
pub mod reference;
pub mod simulator;
pub mod sva;
pub mod value;

pub use elaborate::{Design, ElabError, ResolvedAssertion, SignalClass};
pub use log::failing_assertions_in_log;
pub use simulator::{
    simulate, Engine, InputSlot, InputVector, SimError, SimOutcome, Simulator, Trace,
};
pub use sva::{check_assertions, AssertionFailure, Rows};
pub use value::Value;

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::Design>();
        assert_send_sync::<super::Trace>();
        assert_send_sync::<super::AssertionFailure>();
        assert_send_sync::<super::Value>();
        assert_send_sync::<super::SimError>();
    }
}
