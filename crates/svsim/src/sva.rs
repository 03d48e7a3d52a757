//! Concurrent SystemVerilog-assertion evaluation over recorded traces.
//!
//! The checker implements the temporal fragment used throughout the workspace:
//! boolean expressions, `|->` / `|=>` implications, `##N` delays, `not`, a
//! `disable iff` guard and the sampled-value functions `$past`, `$rose`, `$fell`
//! and `$stable`.
//!
//! It reads sampled values by slot through [`Rows`], so the same code checks a
//! [`Trace`] and the row store of a bounded sweep that shares stimulus prefixes.

use crate::elaborate::Design;
use crate::eval::{Code, Prog, Read};
use crate::lower::{Property, Seq};
use crate::simulator::Trace;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One assertion failure detected on a trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AssertionFailure {
    /// Name of the failing assertion (label or property name).
    pub assertion: String,
    /// Cycle (0-based) at which the failing attempt started.
    pub start_cycle: usize,
    /// Cycle at which the violation was observed.
    pub fail_cycle: usize,
    /// Optional `$error` message attached to the assertion.
    pub message: Option<String>,
}

impl fmt::Display for AssertionFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "failed assertion {} (attempt started at cycle {}, violated at cycle {})",
            self.assertion, self.start_cycle, self.fail_cycle
        )
    }
}

/// Sampled values by cycle and slot: what the assertion checker reads.
///
/// A row is the pre-edge slot state of one cycle, as [`crate::Engine::cycle`] wrote
/// it.  [`Trace`] stores its rows itself; a sweep that shares prefixes between
/// sequences serves the rows of a sequence from wherever it keeps them.
pub trait Rows {
    /// Number of sampled cycles.
    fn cycles(&self) -> usize;

    /// The row of a cycle below [`Rows::cycles`].
    fn row(&self, cycle: usize) -> &[Value];
}

/// Checks every assertion of the design against the trace, one attempt per assertion
/// and start cycle.
///
/// Pending attempts at the end of the trace are not reported as failures, matching
/// simulator behaviour where in-flight assertion attempts are discarded at end of
/// simulation.
///
/// # Panics
///
/// Panics if the trace was recorded from a design with a different signal layout.
pub fn check_assertions(design: &Design, trace: &Trace) -> Vec<AssertionFailure> {
    assert!(
        trace.layout() == &design.compiled.layout,
        "the trace was recorded from a different design than `{}`",
        design.module.name
    );
    check(design, trace, 0, &mut Vec::new())
}

/// [`check_assertions`] over any rows; attempts that read no row from `decided` on
/// are skipped (see [`crate::Engine::check`]).
pub(crate) fn check<R: Rows + ?Sized>(
    design: &Design,
    rows: &R,
    decided: usize,
    stack: &mut Vec<Value>,
) -> Vec<AssertionFailure> {
    let mut failures = Vec::new();
    for (property, assertion) in design.compiled.properties.iter().zip(&design.assertions) {
        let mut checker = Checker {
            code: &design.compiled.code,
            rows,
            guard: property.guard,
            stack,
        };
        // An attempt reads no row past `start + horizon`, so one that starts earlier
        // than this was decided by rows the caller has already seen pass.
        for start in decided.saturating_sub(property.horizon)..rows.cycles() {
            if let Some(fail_cycle) = checker.attempt(property, start) {
                failures.push(AssertionFailure {
                    assertion: assertion.name.clone(),
                    start_cycle: start,
                    fail_cycle,
                    message: assertion.message.clone(),
                });
            }
        }
    }
    failures
}

/// The sampled values as seen from one cycle: `past` reaches back, clamping at cycle 0.
struct Sampled<'r, R: ?Sized> {
    rows: &'r R,
    cycle: usize,
}

impl<R: Rows + ?Sized> Read for Sampled<'_, R> {
    #[inline]
    fn read(&self, slot: u32, past: u32) -> Value {
        self.rows.row(self.cycle.saturating_sub(past as usize))[slot as usize]
    }
}

/// Result of evaluating a sequence/property element starting at a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeqResult {
    /// The element holds and its evaluation finished at `end_cycle`.
    Match { end_cycle: usize },
    /// The element definitively does not hold; `at` is the observation cycle.
    NoMatch { at: usize },
    /// The trace ended before the element could be decided.
    Pending,
    /// A `disable iff` guard fired during evaluation; the attempt is discarded.
    Disabled,
}

struct Checker<'c, R: ?Sized> {
    code: &'c Code,
    rows: &'c R,
    guard: Option<Prog>,
    stack: &'c mut Vec<Value>,
}

impl<R: Rows + ?Sized> Checker<'_, R> {
    fn is_true(&mut self, prog: Prog, cycle: usize) -> bool {
        let sampled = Sampled {
            rows: self.rows,
            cycle,
        };
        self.code.eval(prog, &sampled, self.stack).is_true()
    }

    /// The cycle at which the attempt starting at `start` fails, if it does; attempts
    /// that hold, are disabled, or are still pending at the end of the rows do not.
    fn attempt(&mut self, property: &Property, start: usize) -> Option<usize> {
        match self.sequence(&property.body, start) {
            SeqResult::NoMatch { at } => Some(at),
            SeqResult::Match { .. } | SeqResult::Pending | SeqResult::Disabled => None,
        }
    }

    /// Evaluates one element; the guard is re-checked at every step (pinned).
    fn sequence(&mut self, seq: &Seq, cycle: usize) -> SeqResult {
        if cycle >= self.rows.cycles() {
            return SeqResult::Pending;
        }
        if let Some(guard) = self.guard {
            if self.is_true(guard, cycle) {
                return SeqResult::Disabled;
            }
        }
        match seq {
            Seq::Expr(expr) => {
                if self.is_true(*expr, cycle) {
                    SeqResult::Match { end_cycle: cycle }
                } else {
                    SeqResult::NoMatch { at: cycle }
                }
            }
            Seq::Not(inner) => match self.sequence(inner, cycle) {
                SeqResult::Match { end_cycle } => SeqResult::NoMatch { at: end_cycle },
                SeqResult::NoMatch { at } => SeqResult::Match { end_cycle: at },
                other => other,
            },
            Seq::Delay { lhs, cycles, rhs } => {
                let start_of_rhs = match lhs {
                    Some(lhs) => match self.sequence(lhs, cycle) {
                        SeqResult::Match { end_cycle } => end_cycle + cycles,
                        other => return other,
                    },
                    None => cycle + cycles,
                };
                self.sequence(rhs, start_of_rhs)
            }
            Seq::Implication {
                antecedent,
                consequent,
                overlapping,
            } => match self.sequence(antecedent, cycle) {
                SeqResult::NoMatch { .. } => SeqResult::Match { end_cycle: cycle },
                SeqResult::Pending => SeqResult::Pending,
                SeqResult::Disabled => SeqResult::Disabled,
                SeqResult::Match { end_cycle } => {
                    let start = end_cycle + usize::from(!*overlapping);
                    self.sequence(consequent, start)
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::Design;
    use crate::simulator::{InputVector, Simulator};
    use std::collections::BTreeMap;
    use svparse::parse_module;

    const GOLDEN: &str = r#"
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
  valid_out_check_assertion: assert property (valid_out_check) else $error("valid_out should be high when end_cnt high");
endmodule
"#;

    /// The paper's Fig. 1 bug: `else if (!end_cnt) valid_out <= 1;` instead of
    /// `else if (end_cnt)`.
    const BUGGY: &str = r#"
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
    else if (!end_cnt) valid_out <= 1;
    else valid_out <= 0;
  end
  property valid_out_check;
    @(posedge clk) disable iff (!rst_n) end_cnt |-> ##1 valid_out == 1;
  endproperty
  valid_out_check_assertion: assert property (valid_out_check) else $error("valid_out should be high when end_cnt high");
endmodule
"#;

    fn stimulus(cycles: usize) -> Vec<InputVector> {
        (0..cycles)
            .map(|i| {
                BTreeMap::from([
                    ("rst_n".to_string(), u64::from(i >= 1)),
                    ("valid_in".to_string(), 1u64),
                ])
            })
            .collect()
    }

    #[test]
    fn golden_design_passes_assertion() {
        let module = parse_module(GOLDEN).unwrap();
        let design = Design::elaborate(&module).unwrap();
        let trace = Simulator::run(&design, &stimulus(16)).unwrap();
        let failures = check_assertions(&design, &trace);
        assert!(failures.is_empty(), "unexpected failures: {failures:?}");
        // The antecedent must actually trigger, otherwise the pass is vacuous.
        let triggered = (0..trace.len()).any(|t| trace.value("end_cnt", t).unwrap().is_true());
        assert!(triggered, "stimulus never exercised the antecedent");
    }

    #[test]
    fn paper_fig1_bug_fails_assertion() {
        let module = parse_module(BUGGY).unwrap();
        let design = Design::elaborate(&module).unwrap();
        let trace = Simulator::run(&design, &stimulus(16)).unwrap();
        let failures = check_assertions(&design, &trace);
        assert!(!failures.is_empty());
        assert_eq!(failures[0].assertion, "valid_out_check_assertion");
        assert_eq!(
            failures[0].message.as_deref(),
            Some("valid_out should be high when end_cnt high")
        );
        assert!(failures[0].fail_cycle > failures[0].start_cycle);
    }

    #[test]
    fn disable_iff_masks_reset_cycles() {
        let module = parse_module(BUGGY).unwrap();
        let design = Design::elaborate(&module).unwrap();
        // Keep reset asserted the whole time: the buggy design can never fail because
        // every attempt is disabled.
        let stim: Vec<InputVector> = (0..8)
            .map(|_| BTreeMap::from([("rst_n".to_string(), 0u64), ("valid_in".to_string(), 1u64)]))
            .collect();
        let trace = Simulator::run(&design, &stim).unwrap();
        assert!(check_assertions(&design, &trace).is_empty());
    }

    #[test]
    fn pending_attempt_at_end_of_trace_is_not_a_failure() {
        let module = parse_module(GOLDEN).unwrap();
        let design = Design::elaborate(&module).unwrap();
        // Stop the trace right when the antecedent fires so the ##1 consequent is
        // still pending.
        let mut stim = stimulus(16);
        let trace_full = Simulator::run(&design, &stim).unwrap();
        let first_trigger = (0..trace_full.len())
            .find(|t| trace_full.value("end_cnt", *t).unwrap().is_true())
            .expect("antecedent must trigger");
        stim.truncate(first_trigger + 1);
        let trace = Simulator::run(&design, &stim).unwrap();
        assert!(check_assertions(&design, &trace).is_empty());
    }

    #[test]
    fn nonoverlapping_implication_and_past() {
        let src = r#"
module pipe(input clk, input rst_n, input req, output reg ack, output reg [3:0] held);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) ack <= 0;
    else ack <= req;
  end
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) held <= 4'd0;
    else held <= held + {3'd0, req};
  end
  property req_ack;
    @(posedge clk) disable iff (!rst_n) req |=> ack;
  endproperty
  property ack_past;
    @(posedge clk) disable iff (!rst_n) ack |-> $past(req);
  endproperty
  assert property (req_ack);
  assert property (ack_past);
endmodule
"#;
        let module = parse_module(src).unwrap();
        let design = Design::elaborate(&module).unwrap();
        let stim: Vec<InputVector> = (0..12)
            .map(|i| {
                BTreeMap::from([
                    ("rst_n".to_string(), u64::from(i >= 1)),
                    ("req".to_string(), u64::from(i % 3 == 0)),
                ])
            })
            .collect();
        let trace = Simulator::run(&design, &stim).unwrap();
        let failures = check_assertions(&design, &trace);
        assert!(failures.is_empty(), "unexpected failures: {failures:?}");
    }

    #[test]
    fn rose_and_stable_properties() {
        let src = r#"
module edgecheck(input clk, input rst_n, input d, output reg q);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) q <= 0;
    else q <= d;
  end
  property rose_q;
    @(posedge clk) disable iff (!rst_n) $rose(d) |=> q;
  endproperty
  assert property (rose_q);
endmodule
"#;
        let module = parse_module(src).unwrap();
        let design = Design::elaborate(&module).unwrap();
        let stim: Vec<InputVector> = (0..10)
            .map(|i| {
                BTreeMap::from([
                    ("rst_n".to_string(), u64::from(i >= 1)),
                    ("d".to_string(), u64::from(i % 2 == 1)),
                ])
            })
            .collect();
        let trace = Simulator::run(&design, &stim).unwrap();
        assert!(check_assertions(&design, &trace).is_empty());
    }

    #[test]
    fn failing_immediate_boolean_property() {
        let src = r#"
module always_true(input clk, input a, output reg q);
  always @(posedge clk) q <= a;
  property never_high;
    @(posedge clk) q == 0;
  endproperty
  assert property (never_high);
endmodule
"#;
        let module = parse_module(src).unwrap();
        let design = Design::elaborate(&module).unwrap();
        let stim: Vec<InputVector> = (0..6)
            .map(|_| BTreeMap::from([("a".to_string(), 1u64)]))
            .collect();
        let trace = Simulator::run(&design, &stim).unwrap();
        let failures = check_assertions(&design, &trace);
        assert!(!failures.is_empty());
    }

    #[test]
    fn failure_display_contains_cycles() {
        let f = AssertionFailure {
            assertion: "p".into(),
            start_cycle: 3,
            fail_cycle: 4,
            message: None,
        };
        let text = f.to_string();
        assert!(text.contains("cycle 3"));
        assert!(text.contains("cycle 4"));
    }
}
