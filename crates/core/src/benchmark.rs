//! SVA-Eval benchmark construction.
//!
//! SVA-Eval has two parts in the paper: 877 machine-generated cases (the held-out 10 %
//! of the augmentation pipeline) and 38 human-crafted cases derived from the RTLLM
//! dataset.  Here the machine part comes from [`svdata::split_by_module`]'s evaluation
//! side, and the human part is a set of hand-written golden/buggy design pairs in the
//! same spirit (realistic small IP blocks with realistic bug stories).  Each human case
//! is validated by the pipeline's own Stage-2 step ([`svdata::ValidatedGolden`]): its
//! golden SVAs must hold, its hand-written bug must fail them, and the witness is
//! simulated so every case carries genuine failure logs.

use serde::{Deserialize, Serialize};
use svdata::{Stage2Outcome, SvaBugEntry, ValidatedGolden};
use svmutate::{BugKind, InjectedBug, Structural};
use svparse::parse_module;
use svverify::{CheckConfig, VerifyOracle};

/// The full SVA-Eval benchmark.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SvaEval {
    /// Machine-generated cases (held-out pipeline output).
    pub machine: Vec<SvaBugEntry>,
    /// Human-crafted cases.
    pub human: Vec<SvaBugEntry>,
}

impl SvaEval {
    /// Builds the benchmark from held-out machine cases plus the built-in human set.
    pub fn build(machine: Vec<SvaBugEntry>) -> Self {
        Self {
            machine,
            human: human_crafted_cases(),
        }
    }

    /// All cases, machine first then human.
    pub fn all(&self) -> Vec<SvaBugEntry> {
        let mut out = self.machine.clone();
        out.extend(self.human.clone());
        out
    }

    /// Total number of cases.
    pub fn len(&self) -> usize {
        self.machine.len() + self.human.len()
    }

    /// Returns `true` when the benchmark has no cases.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One hand-written benchmark story: golden design, buggy design, spec and labels.
struct HumanCase {
    spec_function: &'static str,
    golden: &'static str,
    buggy: &'static str,
    kind: BugKind,
    structural: Structural,
    affected: &'static str,
}

/// Builds the human-crafted portion of SVA-Eval.
///
/// Every case is validated on construction: the golden design must pass its assertions
/// and the buggy design must fail them under the bounded checker; cases that do not
/// validate are dropped (the returned set is therefore always sound).
pub fn human_crafted_cases() -> Vec<SvaBugEntry> {
    let oracle = VerifyOracle::new(CheckConfig {
        depth: 12,
        random_cases: 24,
        ..CheckConfig::default()
    });
    human_case_definitions()
        .into_iter()
        .filter_map(|case| build_human_entry(&oracle, &case))
        .collect()
}

fn build_human_entry(oracle: &VerifyOracle, case: &HumanCase) -> Option<SvaBugEntry> {
    let golden = parse_module(case.golden).ok()?;
    let bug = InjectedBug {
        buggy: parse_module(case.buggy).ok()?,
        kind: case.kind,
        structural: case.structural,
        affected_signals: vec![case.affected.to_string()],
        description: String::new(),
    };
    let spec = svgen::render_spec(&golden, case.spec_function);
    match ValidatedGolden::validate(oracle, &golden, &golden.name, &spec)?.derive(&bug) {
        Stage2Outcome::Case(case) => Some(case.into_entry(None, true)),
        Stage2Outcome::VerilogBug(_) | Stage2Outcome::Discard => None,
    }
}

fn human_case_definitions() -> Vec<HumanCase> {
    vec![
        // 1. The paper's Fig. 1 accumulator with the inverted valid_out condition.
        HumanCase {
            spec_function: "An accumulator that asserts valid_out for one cycle after every fourth valid input beat",
            golden: r#"
module accu_human(input clk, input rst_n, input valid_in, output reg valid_out);
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
"#,
            buggy: r#"
module accu_human(input clk, input rst_n, input valid_in, output reg valid_out);
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
"#,
            kind: BugKind::Op,
            structural: Structural::Cond,
            affected: "valid_out",
        },
        // 2. Handshake register with the wrong data source (Var bug).
        HumanCase {
            spec_function: "A ready/valid capture register that stores data_in when the handshake fires",
            golden: r#"
module capture_human(input clk, input rst_n, input valid, input ready, input [7:0] data_in, output reg [7:0] data_q, output fire);
  assign fire = valid && ready;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) data_q <= 8'd0;
    else if (fire) data_q <= data_in;
  end
  property captured;
    @(posedge clk) disable iff (!rst_n) fire |=> data_q == $past(data_in);
  endproperty
  captured_check: assert property (captured) else $error("data_q must capture data_in on a fire");
endmodule
"#,
            buggy: r#"
module capture_human(input clk, input rst_n, input valid, input ready, input [7:0] data_in, output reg [7:0] data_q, output fire);
  assign fire = valid && ready;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) data_q <= 8'd0;
    else if (fire) data_q <= data_q;
  end
  property captured;
    @(posedge clk) disable iff (!rst_n) fire |=> data_q == $past(data_in);
  endproperty
  captured_check: assert property (captured) else $error("data_q must capture data_in on a fire");
endmodule
"#,
            kind: BugKind::Var,
            structural: Structural::NonCond,
            affected: "data_q",
        },
        // 3. Counter with a wrong terminal value (Value bug, indirect).
        HumanCase {
            spec_function: "A modulo-10 decade counter that wraps to zero after counting nine",
            golden: r#"
module decade_human(input clk, input rst_n, input en, output reg [3:0] count, output wrap);
  assign wrap = count == 4'd9;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) count <= 4'd0;
    else if (en) begin
      if (wrap) count <= 4'd0;
      else count <= count + 4'd1;
    end
  end
  property never_exceeds_nine;
    @(posedge clk) disable iff (!rst_n) count <= 4'd9;
  endproperty
  never_exceeds_nine_check: assert property (never_exceeds_nine) else $error("a decade counter must stay below ten");
endmodule
"#,
            buggy: r#"
module decade_human(input clk, input rst_n, input en, output reg [3:0] count, output wrap);
  assign wrap = count == 4'd12;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) count <= 4'd0;
    else if (en) begin
      if (wrap) count <= 4'd0;
      else count <= count + 4'd1;
    end
  end
  property never_exceeds_nine;
    @(posedge clk) disable iff (!rst_n) count <= 4'd9;
  endproperty
  never_exceeds_nine_check: assert property (never_exceeds_nine) else $error("a decade counter must stay below ten");
endmodule
"#,
            kind: BugKind::Value,
            structural: Structural::NonCond,
            affected: "wrap",
        },
        // 4. Priority arbiter granting the wrong requester (Op bug on a mask).
        HumanCase {
            spec_function: "A two-requester fixed-priority arbiter where requester zero always wins",
            golden: r#"
module arb_human(input clk, input [1:0] req, output [1:0] grant);
  assign grant[0] = req[0];
  assign grant[1] = req[1] && !req[0];
  property exclusive;
    @(posedge clk) !(grant[0] && grant[1]);
  endproperty
  exclusive_check: assert property (exclusive) else $error("grants must be one-hot");
endmodule
"#,
            buggy: r#"
module arb_human(input clk, input [1:0] req, output [1:0] grant);
  assign grant[0] = req[0];
  assign grant[1] = req[1] && req[0];
  property exclusive;
    @(posedge clk) !(grant[0] && grant[1]);
  endproperty
  exclusive_check: assert property (exclusive) else $error("grants must be one-hot");
endmodule
"#,
            kind: BugKind::Op,
            structural: Structural::NonCond,
            affected: "grant",
        },
        // 5. Saturating counter whose guard tests the wrong signal (Var bug in a condition).
        HumanCase {
            spec_function: "A saturating credit counter that must stop incrementing once it reaches its limit",
            golden: r#"
module credit_human(input clk, input rst_n, input inc, output reg [2:0] credits, output maxed);
  assign maxed = credits == 3'd6;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) credits <= 3'd0;
    else if (inc && !maxed) credits <= credits + 3'd1;
  end
  property bounded;
    @(posedge clk) disable iff (!rst_n) credits <= 3'd6;
  endproperty
  bounded_check: assert property (bounded) else $error("credits must saturate at six");
endmodule
"#,
            buggy: r#"
module credit_human(input clk, input rst_n, input inc, output reg [2:0] credits, output maxed);
  assign maxed = credits == 3'd6;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) credits <= 3'd0;
    else if (inc && !rst_n) credits <= credits + 3'd1;
  end
  property bounded;
    @(posedge clk) disable iff (!rst_n) credits <= 3'd6;
  endproperty
  bounded_check: assert property (bounded) else $error("credits must saturate at six");
endmodule
"#,
            kind: BugKind::Var,
            structural: Structural::Cond,
            affected: "credits",
        },
        // 6. Parity checker with the wrong reduction operator (Op bug, direct).
        HumanCase {
            spec_function: "An even-parity flag generator over an eight-bit data word",
            golden: r#"
module parity_human(input clk, input [7:0] data, output parity_ok);
  wire parity_bit;
  assign parity_bit = ^data;
  assign parity_ok = parity_bit == 1'b0;
  property matches_reduction;
    @(posedge clk) parity_ok == ((^data) == 1'b0);
  endproperty
  matches_reduction_check: assert property (matches_reduction) else $error("parity_ok must reflect the XOR reduction");
endmodule
"#,
            buggy: r#"
module parity_human(input clk, input [7:0] data, output parity_ok);
  wire parity_bit;
  assign parity_bit = &data;
  assign parity_ok = parity_bit == 1'b0;
  property matches_reduction;
    @(posedge clk) parity_ok == ((^data) == 1'b0);
  endproperty
  matches_reduction_check: assert property (matches_reduction) else $error("parity_ok must reflect the XOR reduction");
endmodule
"#,
            kind: BugKind::Op,
            structural: Structural::NonCond,
            affected: "parity_bit",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use svmutate::Visibility;

    /// The buggy line must differ and the bug must be labelled `Cond` only when
    /// the edit is inside a condition.
    fn human_case_is_consistent(entry: &SvaBugEntry) -> bool {
        entry.buggy_line != entry.fixed_line
            && entry.human_crafted
            && !entry.failing_assertions.is_empty()
            && (entry.profile.structural != Structural::Cond
                || entry.buggy_line.contains("if (")
                || entry.buggy_line.contains("case ("))
            && (entry.profile.visibility == Visibility::Direct
                || entry.profile.visibility == Visibility::Indirect)
    }

    #[test]
    fn human_cases_validate_end_to_end() {
        let cases = human_crafted_cases();
        assert!(
            cases.len() >= 5,
            "expected at least five validated human cases, got {}",
            cases.len()
        );
        for case in &cases {
            assert!(
                human_case_is_consistent(case),
                "inconsistent case: {case:?}"
            );
            assert!(case.logs.contains("failed assertion"));
            assert!(case.bug_line_number >= 1);
        }
    }

    #[test]
    fn human_cases_cover_multiple_bug_kinds() {
        let cases = human_crafted_cases();
        let kinds: std::collections::BTreeSet<String> =
            cases.iter().map(|c| c.profile.kind.to_string()).collect();
        assert!(kinds.len() >= 2, "kinds covered: {kinds:?}");
    }

    #[test]
    fn benchmark_concatenates_machine_and_human() {
        let eval = SvaEval::build(Vec::new());
        assert_eq!(eval.machine.len(), 0);
        assert!(!eval.is_empty());
        assert_eq!(eval.len(), eval.human.len());
        assert_eq!(eval.all().len(), eval.len());
    }

    #[test]
    fn fig1_case_is_present_and_indirectly_visible() {
        let cases = human_crafted_cases();
        let fig1 = cases
            .iter()
            .find(|c| c.module_name == "accu_human")
            .expect("Fig. 1 case must validate");
        assert!(fig1.buggy_line.contains("!end_cnt"));
        assert!(fig1.fixed_line.contains("end_cnt"));
        assert_eq!(fig1.profile.kind, BugKind::Op);
    }
}
