//! Tier-1 differential suite: the compiled engine against `svsim::reference`.
//!
//! Every `svgen` family at several parameter points, and eight `svmutate` mutants of
//! each, are run through both engines over random and exhaustive stimuli;
//! [`svsim::reference::first_divergence`] compares every value of every cycle, the
//! `SimError`, the assertion failures and the rendered log.  A second list of
//! hand-written modules holds the quirks the compiled engine must reproduce rather
//! than fix (`docs/ARCHITECTURE.md`, "pinned by the oracle").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use svgen::{instantiate, Family, FamilyParams};
use svmutate::BugInjector;
use svparse::{emit_module, parse_module, Module};
use svsim::reference::first_divergence;
use svsim::value::mask;
use svsim::{Design, InputVector, SimError, Simulator};

/// The names a testbench drives: the design's inputs, plus `extra`.
fn driven(design: &Design, extra: &[&str]) -> Vec<(String, u32)> {
    design
        .inputs
        .iter()
        .map(|name| (name.clone(), design.width(name)))
        .chain(extra.iter().map(|name| (name.to_string(), 3)))
        .collect()
}

/// `count` random sequences: reset low on cycle 0, released afterwards, pulsed again
/// mid-run in every third sequence; values deliberately exceed the declared widths.
fn random_stimuli(
    design: &Design,
    extra: &[&str],
    depth: usize,
    count: usize,
    seed: u64,
) -> Vec<Vec<InputVector>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let names = driven(design, extra);
    (0..count)
        .map(|case| {
            (0..depth)
                .map(|cycle| {
                    names
                        .iter()
                        .map(|(name, _)| {
                            let value = if Some(name) == design.reset_n.as_ref() {
                                u64::from(cycle > 0 && !(case % 3 == 2 && cycle == depth / 2))
                            } else {
                                rng.gen::<u64>()
                            };
                            (name.clone(), value)
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Every sequence of `depth` cycles over the non-reset inputs, when that is at most
/// 2^7 of them.
fn exhaustive_stimuli(design: &Design, depth: usize) -> Vec<Vec<InputVector>> {
    let names = driven(design, &[]);
    let free: Vec<&(String, u32)> = names
        .iter()
        .filter(|(name, _)| Some(name) != design.reset_n.as_ref())
        .collect();
    let bits: u32 = free.iter().map(|(_, width)| width).sum::<u32>() * depth as u32;
    if bits > 7 {
        return Vec::new();
    }
    (0..1u64 << bits)
        .map(|encoding| {
            let mut cursor = 0;
            (0..depth)
                .map(|cycle| {
                    let mut vector = InputVector::new();
                    if let Some(reset) = &design.reset_n {
                        vector.insert(reset.clone(), u64::from(cycle > 0));
                    }
                    for (name, width) in &free {
                        vector.insert(name.clone(), (encoding >> cursor) & mask(*width));
                        cursor += width;
                    }
                    vector
                })
                .collect()
        })
        .collect()
}

/// Runs both engines over the stimuli; returns how the simulations ended.
fn agree(label: &str, module: &Module, extra: &[&str], seed: u64) -> Option<Outcome> {
    let Ok(design) = Design::elaborate(module) else {
        return None;
    };
    let mut outcome = Outcome::default();
    let stimuli = random_stimuli(&design, extra, 10, 6, seed)
        .into_iter()
        .chain(exhaustive_stimuli(&design, 3));
    for stimulus in stimuli {
        if let Some(difference) = first_divergence(&design, &stimulus) {
            panic!(
                "{label}: {difference}\nstimulus: {stimulus:?}\n{}",
                emit_module(module)
            );
        }
        match Simulator::run(&design, &stimulus) {
            Ok(trace) => {
                outcome.cycles += trace.len();
                outcome.failing +=
                    usize::from(!svsim::check_assertions(&design, &trace).is_empty());
            }
            Err(SimError::CombinationalLoop { .. }) => outcome.loops += 1,
            Err(other) => panic!("{label}: unexpected {other}"),
        }
    }
    Some(outcome)
}

#[derive(Debug, Default)]
struct Outcome {
    cycles: usize,
    failing: usize,
    loops: usize,
}

#[test]
fn every_family_variant_and_eight_mutants_of_each_agree() {
    let points = [(4, 4), (1, 2), (8, 3)];
    let (mut designs, mut unelaborable, mut total) = (0usize, 0usize, Outcome::default());
    for (index, family) in Family::all().iter().enumerate() {
        for variant in 0..2 {
            for (width, depth) in points {
                let params = FamilyParams {
                    width,
                    depth,
                    variant,
                };
                let instance = instantiate(*family, params, index);
                let golden = parse_module(&instance.source).expect("family sources parse");
                let seed = (index as u64) << 8 | u64::from(variant) << 4 | u64::from(width);
                let mutants = eight_mutants(&golden, seed);
                // The parity tree is too small to have eight distinct mutants.
                assert!(
                    mutants.len() == 8 || *family == Family::Parity,
                    "{}: {} mutants",
                    instance.module_name,
                    mutants.len()
                );
                let modules = std::iter::once(golden.clone())
                    .chain(mutants)
                    // Two more that svmutate would not write: a combinational loop
                    // through the first continuous assignment or, failing that, an
                    // undeclared name — an elaboration error.
                    .chain(self_loop(&golden))
                    .chain(std::iter::once(undeclared_read(&golden)));
                for (n, module) in modules.enumerate() {
                    let label = format!("{} #{n}", instance.module_name);
                    match agree(&label, &module, &[], seed ^ n as u64) {
                        Some(outcome) => {
                            designs += 1;
                            total.cycles += outcome.cycles;
                            total.failing += outcome.failing;
                            total.loops += outcome.loops;
                        }
                        None => unelaborable += 1,
                    }
                }
            }
        }
    }
    // The sweep must have seen all four kinds of ending, not only clean passes.
    assert!(designs >= 16 * 6 * 9, "only {designs} designs simulated");
    assert!(total.cycles > 50_000, "{total:?}");
    assert!(total.failing > 500, "{total:?}");
    assert!(
        total.loops > 0,
        "no combinational loop among the mutants: {total:?}"
    );
    assert!(unelaborable >= 16 * 6, "{unelaborable} elaboration errors");
}

/// Eight mutants with distinct text; small modules need several injector seeds.
fn eight_mutants(golden: &Module, seed: u64) -> Vec<Module> {
    let mut texts = vec![emit_module(golden)];
    let mut mutants = Vec::new();
    for round in 0..8 {
        if mutants.len() == 8 {
            break;
        }
        for bug in BugInjector::new(seed ^ round << 32).inject_batch(golden, 8) {
            let text = emit_module(&bug.buggy);
            if mutants.len() < 8 && !texts.contains(&text) {
                texts.push(text);
                mutants.push(bug.buggy);
            }
        }
    }
    mutants
}

/// The module with its first `assign y = rhs;` rewritten to `assign y = !y;`.
fn self_loop(module: &Module) -> Option<Module> {
    let mut looped = module.clone();
    let assign = looped.items.iter_mut().find_map(|item| match item {
        svparse::Item::Assign(assign) => Some(assign),
        _ => None,
    })?;
    let name = assign.lhs.base_names().into_iter().next()?;
    assign.lhs = svparse::LValue::Ident(name.clone());
    assign.rhs = svparse::Expr::ident(name).not();
    Some(looped)
}

/// The module with an extra continuous assignment reading a name nobody declared.
fn undeclared_read(module: &Module) -> Module {
    let text = emit_module(module).replace(
        "endmodule",
        "  wire never_driven_w;\n  assign never_driven_w = never_declared_anywhere;\nendmodule",
    );
    parse_module(&text).expect("the edit keeps the module parseable")
}

/// Modules that exercise what the compiled engine reproduces rather than fixes.
const QUIRKS: &[(&str, &str)] = &[
    (
        "blocking writes of a clocked block go to a discarded shadow",
        r#"
module m(input clk, input rst_n, input [3:0] a, output reg [3:0] q, output reg [3:0] t);
  always @(posedge clk) begin
    t = a + 4'd1;
    q <= t;
  end
  always @(posedge clk) t <= t + 4'd2;
  property p; @(posedge clk) disable iff (!rst_n) 1 |=> q == $past(a) + 4'd1; endproperty
  assert property (p);
endmodule
"#,
    ),
    (
        "non-blocking writes in a combinational block, and item-order settling",
        r#"
module m(input clk, input [3:0] a, input [3:0] b, output reg [3:0] y, output [3:0] z);
  assign z = y ^ b;
  always @(*) y <= a & b;
  always @(*) begin
    if (a[0]) y = y | 4'd8;
  end
endmodule
"#,
    ),
    (
        "a parameter read as a signal is a one-bit zero; written, it springs into being",
        r#"
module m(input clk, input rst_n, input [3:0] a, output [3:0] y, output reg [3:0] q);
  parameter W = 3;
  parameter P = 1;
  assign y = a + W;
  assign P[5:2] = a;
  always @(posedge clk) q <= P + W;
  always @(posedge clk) W <= a;
  property p; @(posedge clk) disable iff (!rst_n) q == $past(P) + $past(W); endproperty
  assert property (p);
endmodule
"#,
    ),
    (
        "a combinational non-blocking write to an undeclared name is not resized",
        r#"
module m(input clk, input [3:0] a, output [3:0] y);
  parameter P = 1;
  always @(*) P <= a + 4'd3;
  assign y = P;
endmodule
"#,
    ),
    (
        "names only an initial block and a guard know",
        r#"
module m(input clk, input rst_n, input a, output reg [3:0] q);
  initial begin
    ghost = 4'd9;
    q = 4'd5;
    if (phantom) q = 4'd1;
  end
  always @(posedge clk) q <= q + {3'd0, a};
  property p; @(posedge clk) disable iff (ghost[0] && !rst_n) q != 4'd7; endproperty
  assert property (p);
endmodule
"#,
    ),
    (
        "bit and part select writes resolve against the current value",
        r#"
module m(input clk, input rst_n, input [1:0] idx, input d, output reg [3:0] q, output reg [7:0] r);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) q <= 4'd0;
    else begin
      q[idx] <= d;
      q[3:2] <= 2'b11;
    end
  end
  always @(posedge clk) begin
    r[7:4] <= r[3:0] + 4'd1;
    r[idx] <= !d;
    r[9] <= d;
  end
endmodule
"#,
    ),
    (
        "concatenated targets take bits by full signal width, last write wins",
        r#"
module m(input clk, input [3:0] a, input [3:0] b, output reg c, output reg [3:0] s, output reg [3:0] q);
  always @(*) {c, s} = a + b;
  always @(posedge clk) {q[0], q[1]} <= {a[0], b[0]};
endmodule
"#,
    ),
    (
        "case arms, several labels, no default, labels that are signals",
        r#"
module m(input clk, input [1:0] sel, input [1:0] k, input [3:0] a, output reg [3:0] y, output reg [3:0] q);
  always @(*) begin
    y = 4'd0;
    case (sel)
      2'd0, 2'd3: y = a;
      k: y = ~a;
    endcase
  end
  always @(posedge clk) begin
    case (sel)
      2'd1: begin
        case (k)
          2'd2: q <= a;
          default: q <= q + 4'd1;
        endcase
      end
      default: q <= 4'd0;
    endcase
  end
endmodule
"#,
    ),
    (
        "sampled-value functions clamp at cycle 0; temporal operators nest",
        r#"
module m(input clk, input rst_n, input a, input b, output reg [2:0] n);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) n <= 3'd0;
    else n <= n + {2'd0, a};
  end
  property p0; @(posedge clk) $past(n, 3) <= n; endproperty
  property p1; @(posedge clk) disable iff (!rst_n) $rose(a) |-> ##1 n != $past(n) ##2 $stable(b) || !$stable(b); endproperty
  property p2; @(posedge clk) disable iff (!rst_n) not (a ##1 b |=> $fell(a)); endproperty
  property p3; @(posedge clk) ##2 n < 3'd6; endproperty
  property p4; @(posedge clk) disable iff (b) a |=> not (n == 3'd3); endproperty
  a0: assert property (p0);
  a1: assert property (p1) else $error("p1");
  a2: assert property (p2);
  a3: assert property (p3);
  a4: assert property (p4);
  assert property (@(posedge clk) a |-> ##3 n > 3'd0);
endmodule
"#,
    ),
    (
        "sampled-value functions in design code read the present",
        r#"
module m(input clk, input a, output y, output z, output reg q);
  assign y = $past(a) ^ $rose(a);
  assign z = $stable(a) & !$fell(a);
  always @(posedge clk) q <= $past(a, 2);
endmodule
"#,
    ),
    (
        "sixty-four bit arithmetic, shifts, reductions, repeats and wide concatenations",
        r#"
module m(input clk, input [63:0] a, input [63:0] b, input [5:0] s, output [63:0] y, output [63:0] z, output p, output reg [63:0] q, output reg [31:0] lo, output reg [31:0] hi);
  assign y = (a * b) + (a << s) - (b >> s);
  assign z = {a[31:0], b[31:0], a[7:0]} ^ {4{b[15:0]}} ^ {70{a[0]}};
  assign p = (^a) | (&b) | (a / b > b % a) | (a[s] && -b < ~a);
  always @(posedge clk) q <= s[0] ? (s[1] ? a : b) : (s[2] ? ~a : -b);
  always @(posedge clk) {hi, lo} <= a + 64'd1;
endmodule
"#,
    ),
];

#[test]
fn pinned_quirks_agree() {
    for (n, (what, source)) in QUIRKS.iter().enumerate() {
        let module = parse_module(source).unwrap_or_else(|err| panic!("{what}: {err}"));
        // Also drive a register, a name the design uses without declaring, and one
        // it never mentions.
        let extra = ["q", "P", "ghost", "nobody_mentions_this"];
        let outcome = agree(what, &module, &extra, n as u64)
            .unwrap_or_else(|| panic!("{what}: does not elaborate"));
        assert!(outcome.cycles > 0, "{what}: {outcome:?}");
        agree(what, &module, &[], n as u64 + 100);
    }
}

/// Settling is capped at 64 sweeps in item order, so a chain written against the
/// order is a "loop" once it is longer than that.
#[test]
fn settling_gives_up_after_sixty_four_sweeps() {
    let chain = |links: usize| {
        let mut source = String::from("module m(input a, output y);\n");
        for link in 0..links {
            source.push_str(&format!("  wire w{link};\n"));
        }
        source.push_str("  assign y = w0;\n");
        for link in 0..links - 1 {
            source.push_str(&format!("  assign w{link} = w{};\n", link + 1));
        }
        source.push_str(&format!("  assign w{} = a;\nendmodule\n", links - 1));
        parse_module(&source).unwrap()
    };
    let settles = agree("chain of 60", &chain(60), &[], 1).unwrap();
    assert_eq!(settles.loops, 0);
    assert!(settles.cycles > 0);
    // Only a stimulus that never raises `a` leaves nothing to propagate.
    let gives_up = agree("chain of 70", &chain(70), &[], 1).unwrap();
    assert!(gives_up.loops >= 12, "{gives_up:?}");
    assert!(gives_up.cycles < settles.cycles);
}
