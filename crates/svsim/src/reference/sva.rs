//! Concurrent SystemVerilog-assertion evaluation over recorded traces.
//!
//! The checker implements the temporal fragment used throughout the workspace:
//! boolean expressions, `|->` / `|=>` implications, `##N` delays, `not`, a
//! `disable iff` guard and the sampled-value functions `$past`, `$rose`, `$fell`
//! and `$stable`.

use super::eval::eval_expr;
use super::simulator::Trace;
use crate::elaborate::{Design, ResolvedAssertion};
use crate::sva::AssertionFailure;
use crate::value::Value;
use svparse::{Expr, PropExpr};

/// The outcome of evaluating one property attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Attempt {
    /// The attempt definitively holds (including vacuous passes).
    Holds,
    /// The attempt definitively fails at the given cycle.
    Fails(usize),
    /// The trace ended before the attempt could be decided.
    Pending,
}

/// Checks every assertion of the design against the trace.
///
/// Pending attempts at the end of the trace are not reported as failures, matching
/// simulator behaviour where in-flight assertion attempts are discarded at end of
/// simulation.
pub fn check_assertions(design: &Design, trace: &Trace) -> Vec<AssertionFailure> {
    let mut failures = Vec::new();
    for assertion in &design.assertions {
        failures.extend(check_assertion(assertion, trace));
    }
    failures
}

/// Checks a single assertion against the trace, one attempt per start cycle.
pub fn check_assertion(assertion: &ResolvedAssertion, trace: &Trace) -> Vec<AssertionFailure> {
    let mut failures = Vec::new();
    for start in 0..trace.len() {
        if let Some(guard) = &assertion.property.disable_iff {
            if eval_at(guard, trace, start).is_true() {
                continue;
            }
        }
        match eval_prop(
            &assertion.property.body,
            trace,
            start,
            &assertion.property.disable_iff,
        ) {
            Attempt::Fails(cycle) => failures.push(AssertionFailure {
                assertion: assertion.name.clone(),
                start_cycle: start,
                fail_cycle: cycle,
                message: assertion.message.clone(),
            }),
            Attempt::Holds | Attempt::Pending => {}
        }
    }
    failures
}

/// Evaluates a boolean expression at a trace cycle, supporting `$past`-style reads.
pub fn eval_at(expr: &Expr, trace: &Trace, cycle: usize) -> Value {
    eval_expr(expr, &|name, past| trace.value_past(name, cycle, past))
}

fn eval_prop(prop: &PropExpr, trace: &Trace, cycle: usize, guard: &Option<Expr>) -> Attempt {
    match eval_sequence(prop, trace, cycle, guard) {
        SeqResult::Pending => Attempt::Pending,
        SeqResult::Disabled => Attempt::Holds,
        SeqResult::Match { .. } => Attempt::Holds,
        SeqResult::NoMatch { at } => Attempt::Fails(at),
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

fn eval_sequence(prop: &PropExpr, trace: &Trace, cycle: usize, guard: &Option<Expr>) -> SeqResult {
    if cycle >= trace.len() {
        return SeqResult::Pending;
    }
    if let Some(g) = guard {
        if eval_at(g, trace, cycle).is_true() {
            return SeqResult::Disabled;
        }
    }
    match prop {
        PropExpr::Expr(e) => {
            if eval_at(e, trace, cycle).is_true() {
                SeqResult::Match { end_cycle: cycle }
            } else {
                SeqResult::NoMatch { at: cycle }
            }
        }
        PropExpr::Not(inner) => match eval_sequence(inner, trace, cycle, guard) {
            SeqResult::Match { end_cycle } => SeqResult::NoMatch { at: end_cycle },
            SeqResult::NoMatch { at } => SeqResult::Match { end_cycle: at },
            other => other,
        },
        PropExpr::Delay { lhs, cycles, rhs } => {
            let (start_of_rhs, lhs_end) = match lhs {
                Some(l) => match eval_sequence(l, trace, cycle, guard) {
                    SeqResult::Match { end_cycle } => (end_cycle + *cycles as usize, end_cycle),
                    other => return other,
                },
                None => (cycle + *cycles as usize, cycle),
            };
            let _ = lhs_end;
            eval_sequence(rhs, trace, start_of_rhs, guard)
        }
        PropExpr::Implication {
            antecedent,
            consequent,
            overlapping,
        } => match eval_sequence(antecedent, trace, cycle, guard) {
            SeqResult::NoMatch { .. } => SeqResult::Match { end_cycle: cycle },
            SeqResult::Pending => SeqResult::Pending,
            SeqResult::Disabled => SeqResult::Disabled,
            SeqResult::Match { end_cycle } => {
                let start = if *overlapping {
                    end_cycle
                } else {
                    end_cycle + 1
                };
                eval_sequence(consequent, trace, start, guard)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::super::simulator::Simulator;
    use super::*;
    use crate::elaborate::Design;
    use crate::simulator::InputVector;
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
}
