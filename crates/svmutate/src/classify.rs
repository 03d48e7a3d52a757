//! Direct / Indirect classification and bug-line diffing.
//!
//! The Table-I `Direct`/`Indirect` distinction "depends on whether the assertion
//! failure is caused by the directly protected signal": a bug is *Direct* when a
//! signal written by the buggy statement appears in the failing assertion's property,
//! and *Indirect* when it only reaches the assertion through the fan-in cone.

use crate::taxonomy::Visibility;
use serde::{Deserialize, Serialize};
use svparse::Module;

/// Classifies a bug's visibility with respect to a set of failing assertions.
///
/// `affected_signals` are the signals influenced by the mutated statement (recorded by
/// the injector); `failing_assertions` are the assertion display names extracted from
/// the simulation log.
pub fn classify_visibility(
    module: &Module,
    affected_signals: &[String],
    failing_assertions: &[String],
) -> Visibility {
    let mut assertion_signals = Vec::new();
    for name in failing_assertions {
        assertion_signals.extend(signals_of_assertion(module, name));
    }
    if assertion_signals.is_empty() {
        // No failing assertion information: fall back to "any assertion".
        for assertion in module.assertions() {
            assertion_signals.extend(signals_of_assertion(module, &assertion.display_name()));
        }
    }
    let direct = affected_signals
        .iter()
        .any(|sig| assertion_signals.iter().any(|a| a == sig));
    if direct {
        Visibility::Direct
    } else {
        Visibility::Indirect
    }
}

/// The signals referenced by the named assertion's property (including its
/// `disable iff` guard and clock are excluded — only the body matters for
/// classification).
pub fn signals_of_assertion(module: &Module, assertion_name: &str) -> Vec<String> {
    for assertion in module.assertions() {
        if assertion.display_name() == assertion_name {
            return match &assertion.target {
                svparse::AssertTarget::Named(prop_name) => module
                    .property(prop_name)
                    .map(|p| p.body.idents())
                    .unwrap_or_default(),
                svparse::AssertTarget::Inline(p) => p.body.idents(),
            };
        }
    }
    // Allow callers to pass the property name directly.
    module
        .property(assertion_name)
        .map(|p| p.body.idents())
        .unwrap_or_default()
}

/// One differing line between the golden and buggy canonical texts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LineDiff {
    /// 1-based line number in the canonical rendering.
    pub line: u32,
    /// The golden (correct) line, trimmed.
    pub golden_line: String,
    /// The buggy line, trimmed.
    pub buggy_line: String,
}

/// Computes the per-line differences between two canonical renderings.
///
/// Canonical texts of a module and its single-site mutant always have the same number
/// of lines, so a positional comparison is exact.
pub fn diff_lines(golden_text: &str, buggy_text: &str) -> Vec<LineDiff> {
    golden_text
        .lines()
        .zip(buggy_text.lines())
        .enumerate()
        .filter(|(_, (g, b))| g != b)
        .map(|(i, (g, b))| LineDiff {
            line: (i + 1) as u32,
            golden_line: g.trim().to_string(),
            buggy_line: b.trim().to_string(),
        })
        .collect()
}

/// Returns the single differing line when exactly one line differs.
pub fn single_line_diff(golden_text: &str, buggy_text: &str) -> Option<LineDiff> {
    let diffs = diff_lines(golden_text, buggy_text);
    if diffs.len() == 1 {
        diffs.into_iter().next()
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::BugInjector;
    use crate::taxonomy::Visibility;
    use svparse::{emit_module, parse_module};

    const SRC: &str = r#"
module accu(
  input clk,
  input rst_n,
  input valid_in,
  output reg valid_out
);
  wire end_cnt;
  reg [1:0] cnt;
  assign end_cnt = (cnt == 2'd3) && valid_in;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) cnt <= 2'd0;
    else if (valid_in) cnt <= cnt + 2'd1;
  end
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) valid_out <= 0;
    else if (end_cnt) valid_out <= 1;
    else valid_out <= 0;
  end
  property valid_out_check;
    @(posedge clk) disable iff (!rst_n) end_cnt |-> ##1 valid_out == 1;
  endproperty
  valid_out_check_assertion: assert property (valid_out_check) else $error("valid_out should be high");
endmodule
"#;

    #[test]
    fn assertion_signals_resolved_by_label_and_property_name() {
        let module = parse_module(SRC).unwrap();
        let by_label = signals_of_assertion(&module, "valid_out_check_assertion");
        let by_prop = signals_of_assertion(&module, "valid_out_check");
        assert_eq!(
            by_label,
            vec!["end_cnt".to_string(), "valid_out".to_string()]
        );
        assert_eq!(by_label, by_prop);
        assert!(signals_of_assertion(&module, "nonexistent").is_empty());
    }

    #[test]
    fn direct_vs_indirect_classification() {
        let module = parse_module(SRC).unwrap();
        let failing = vec!["valid_out_check_assertion".to_string()];
        // A bug writing valid_out is Direct.
        assert_eq!(
            classify_visibility(&module, &["valid_out".to_string()], &failing),
            Visibility::Direct
        );
        // A bug writing cnt only reaches the assertion through end_cnt: Indirect.
        assert_eq!(
            classify_visibility(&module, &["cnt".to_string()], &failing),
            Visibility::Indirect
        );
    }

    #[test]
    fn diff_of_injected_bug_is_single_line() {
        let golden = parse_module(SRC).unwrap();
        let golden_text = emit_module(&golden);
        let mut injector = BugInjector::new(5);
        for _ in 0..10 {
            let bug = injector.inject(&golden).unwrap();
            let buggy_text = emit_module(&bug.buggy);
            let diff = single_line_diff(&golden_text, &buggy_text)
                .expect("single-site mutation must differ in exactly one line");
            assert_ne!(diff.golden_line, diff.buggy_line);
            assert!(diff.line >= 1);
        }
    }

    #[test]
    fn diff_lines_empty_for_identical_texts() {
        let module = parse_module(SRC).unwrap();
        let text = emit_module(&module);
        assert!(diff_lines(&text, &text).is_empty());
        assert!(single_line_diff(&text, &text).is_none());
    }
}
