//! High-level yes/no oracles used by the data-augmentation pipeline.
//!
//! Stage 2 of the paper uses its EDA tools to answer three questions:
//!
//! 1. is a generated SVA *valid* on the golden design (it never fires)?
//! 2. does an injected bug *trigger* an assertion failure?
//! 3. does a candidate fix actually *solve* the failure?
//!
//! This module packages the [`crate::bmc::BoundedChecker`] into those three oracles.
//! Stage 2 asks questions 1 and 2 in one place, `svdata::ValidatedGolden`.

use crate::bmc::{BoundedChecker, CheckConfig, Verdict};
use serde::{Deserialize, Serialize};
use svparse::Module;
use svsim::Design;

/// Outcome of validating a golden design against its assertions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SvaValidity {
    /// The assertions hold within the bound (and at least one antecedent triggered).
    Valid,
    /// The assertions fail on the golden design — the SVA itself is wrong.
    InvalidOnGolden,
    /// The design could not be checked.
    Unverifiable(String),
}

/// The oracle façade.
#[derive(Debug, Clone, Default)]
pub struct VerifyOracle {
    checker: BoundedChecker,
}

impl VerifyOracle {
    /// Creates an oracle with the given bounded-check configuration.
    pub fn new(config: CheckConfig) -> Self {
        Self {
            checker: BoundedChecker::new(config),
        }
    }

    /// Access to the underlying bounded checker.
    pub fn checker(&self) -> &BoundedChecker {
        &self.checker
    }

    /// Question 1: are the design's assertions valid on the (golden) module?
    pub fn sva_valid_on_golden(&self, golden: &Module) -> SvaValidity {
        match self.checker.check_module(golden) {
            Verdict::Pass { .. } => SvaValidity::Valid,
            Verdict::Fail { .. } => SvaValidity::InvalidOnGolden,
            Verdict::Unverifiable { reason } => SvaValidity::Unverifiable(reason),
        }
    }

    /// Question 2: does the buggy module trigger at least one assertion failure?
    ///
    /// Returns the failing verdict (with witness) on success, `None` when the bug does
    /// not cause any failure within the bound, and an error string when the buggy
    /// module cannot be simulated at all (e.g. the mutation introduced a combinational
    /// loop).
    pub fn bug_triggers_failure(&self, buggy: &Module) -> Result<Option<Verdict>, String> {
        match self.checker.check_module(buggy) {
            Verdict::Unverifiable { reason } => Err(reason),
            verdict @ Verdict::Fail { .. } => Ok(Some(verdict)),
            Verdict::Pass { .. } => Ok(None),
        }
    }

    /// Question 3: does a candidate repair solve the assertion failure?
    ///
    /// A repair is accepted when the repaired module's assertions pass within the
    /// bound.  This is the acceptance criterion the pass@k evaluation uses ("deeming
    /// `c` of them effective if they successfully solve the assertion failure").
    ///
    /// The answer is [`BoundedChecker::passes`]: a yes/no check that stops at the
    /// first failing sequence and builds no witness.  Questions 1 and 2 and
    /// [`BoundedChecker::check_design`] still build theirs.
    pub fn repair_solves_failure(&self, repaired: &Module) -> bool {
        self.repair_solves_failure_lent(repaired.clone()).0
    }

    /// [`VerifyOracle::repair_solves_failure`] on a module the caller lends:
    /// it becomes the design's own ([`Design::from_module`]), uncopied, and is
    /// handed back after the check, `None` only when it does not elaborate
    /// (elaboration takes it).
    pub fn repair_solves_failure_lent(&self, repaired: Module) -> (bool, Option<Module>) {
        match Design::from_module(repaired) {
            Ok(design) => (self.checker.passes(&design), Some(design.module)),
            Err(_) => (false, None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svparse::parse_module;

    const GOLDEN: &str = r#"
module gray(input clk, input rst_n, input en, output reg [2:0] code);
  reg [2:0] bin;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) bin <= 3'd0;
    else if (en) bin <= bin + 3'd1;
  end
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) code <= 3'd0;
    else code <= (bin >> 1) ^ bin;
  end
  property code_follows_bin;
    @(posedge clk) disable iff (!rst_n) 1 |=> code == (($past(bin) >> 1) ^ $past(bin));
  endproperty
  assert property (code_follows_bin);
endmodule
"#;

    #[test]
    fn golden_sva_is_valid() {
        let golden = parse_module(GOLDEN).unwrap();
        let oracle = VerifyOracle::default();
        assert_eq!(oracle.sva_valid_on_golden(&golden), SvaValidity::Valid);
    }

    #[test]
    fn injected_bug_triggers_failure_and_fix_solves_it() {
        let golden = parse_module(GOLDEN).unwrap();
        let buggy_src = GOLDEN.replace("code <= (bin >> 1) ^ bin;", "code <= (bin >> 1) & bin;");
        let buggy = parse_module(&buggy_src).unwrap();
        let oracle = VerifyOracle::default();

        let verdict = oracle.bug_triggers_failure(&buggy).unwrap();
        assert!(verdict.is_some(), "operator bug must trigger the assertion");

        // Repairing back to the golden text solves the failure.
        assert!(oracle.repair_solves_failure(&golden));
        // Leaving the bug in does not.
        assert!(!oracle.repair_solves_failure(&buggy));
    }

    #[test]
    fn wrong_sva_is_invalid_on_golden() {
        let wrong = GOLDEN.replace(
            "1 |=> code == (($past(bin) >> 1) ^ $past(bin));",
            "1 |=> code == ($past(bin) + 3'd1);",
        );
        let module = parse_module(&wrong).unwrap();
        let oracle = VerifyOracle::default();
        assert_eq!(
            oracle.sva_valid_on_golden(&module),
            SvaValidity::InvalidOnGolden
        );
    }

    #[test]
    fn unsimulatable_bug_reports_error() {
        let looped = r#"
module loopy(input clk, input a, output y);
  assign y = !y;
  property p;
    @(posedge clk) a |-> y;
  endproperty
  assert property (p);
endmodule
"#;
        let module = parse_module(looped).unwrap();
        let oracle = VerifyOracle::default();
        assert!(oracle.bug_triggers_failure(&module).is_err());
    }
}
