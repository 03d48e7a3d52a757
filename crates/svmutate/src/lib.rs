//! # svmutate — bug injection across the AssertSolver Table-I taxonomy
//!
//! The paper uses Claude-3.5 to generate "random bugs" which are then validated with
//! EDA tools.  This crate is the rule-based stand-in: it enumerates mutation sites in
//! a golden module, applies Var/Value/Op edits (including the classic negated-
//! condition bug), labels every mutant along the three Table-I axes, and provides the
//! golden-solution diff used to build dataset entries.
//!
//! ## Quick example
//!
//! ```
//! use svmutate::{BugInjector, BugKind};
//!
//! let golden = svparse::parse_module(r#"
//! module m(input clk, input en, input [3:0] d, output reg [3:0] q);
//!   always @(posedge clk) begin
//!     if (en) q <= d;
//!   end
//! endmodule
//! "#).map_err(|e| e.to_string())?;
//! let bug = BugInjector::new(1).inject_with_kind(&golden, BugKind::Op).ok_or("no site")?;
//! assert_ne!(svparse::emit_module(&bug.buggy), svparse::emit_module(&golden));
//! # Ok::<(), String>(())
//! ```

pub mod classify;
pub mod inject;
pub mod operators;
pub mod sites;
pub mod taxonomy;

pub use classify::{
    classify_visibility, diff_lines, signals_of_assertion, single_line_diff, LineDiff,
};
pub use inject::{BugInjector, InjectedBug};
pub use sites::{collect_sites, replace_site, Site, SiteContext};
pub use taxonomy::{
    table1_rows, BugKind, BugProfile, Structural, TaxonomyRow, Visibility, TABLE1_LABELS,
};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::BugInjector>();
        assert_send_sync::<super::InjectedBug>();
        assert_send_sync::<super::BugProfile>();
        assert_send_sync::<super::LineDiff>();
    }
}
