//! Tier-1 pin of the one assumption the bounded checker's prefix resume rests on: an
//! attempt that starts at cycle `start` reads no row after `start + horizon`, where
//! `horizon` is its property's [`svparse::PropExpr::horizon`].
//!
//! `svverify::bmc` skips every attempt that cannot read past a stimulus prefix an
//! earlier, passing sequence shared.  Here each attempt is run through
//! [`Engine::check`] over rows that agree with a real trace up to `start + horizon`
//! and hold arbitrary values after it; its failures must be the ones the trace gives.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use svgen::{instantiate, Family, FamilyParams};
use svmutate::BugInjector;
use svparse::{parse_module, Module};
use svsim::{
    check_assertions, AssertionFailure, Design, Engine, InputVector, Rows, SimError, Simulator,
    Trace, Value,
};

/// A trace whose rows after `kept` hold random values of the same widths.
struct Rewritten {
    slots: usize,
    values: Vec<Value>,
}

impl Rewritten {
    fn new(trace: &Trace, kept: usize, rng: &mut StdRng) -> Self {
        let slots = trace.row(0).len();
        let values = (0..trace.cycles())
            .flat_map(|cycle| trace.row(cycle).iter().map(move |value| (cycle, *value)))
            .map(|(cycle, value)| {
                if cycle <= kept {
                    value
                } else {
                    Value::new(rng.gen(), value.width().max(1))
                }
            })
            .collect();
        Self { slots, values }
    }
}

impl Rows for Rewritten {
    fn cycles(&self) -> usize {
        self.values.len() / self.slots
    }

    fn row(&self, cycle: usize) -> &[Value] {
        &self.values[cycle * self.slots..][..self.slots]
    }
}

/// Random values on every input, the reset low on cycle 0 and pulsed mid-run in
/// every third sequence.
fn stimulus(design: &Design, depth: usize, case: usize, rng: &mut StdRng) -> Vec<InputVector> {
    (0..depth)
        .map(|cycle| {
            design
                .inputs
                .iter()
                .map(|name| {
                    let value = if Some(name) == design.reset_n.as_ref() {
                        u64::from(cycle > 0 && !(case % 3 == 2 && cycle == depth / 2))
                    } else {
                        rng.gen()
                    };
                    (name.clone(), value)
                })
                .collect()
        })
        .collect()
}

#[derive(Debug, Default)]
struct Tally {
    attempts: usize,
    failures_kept: usize,
    rewrites_that_bit: usize,
}

/// Rewrites past every attempt's horizon over a few traces of the module.
fn pin(label: &str, module: &Module, seed: u64, tally: &mut Tally) {
    let Ok(design) = Design::elaborate(module) else {
        return;
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut engine = Engine::new(&design);
    let depth = design.max_property_horizon() as usize + 8;
    for case in 0..4 {
        let trace = match Simulator::run(&design, &stimulus(&design, depth, case, &mut rng)) {
            Ok(trace) => trace,
            Err(SimError::CombinationalLoop { .. }) => return,
            Err(other) => panic!("{label}: {other}"),
        };
        let all = engine.check(&trace, 0);
        assert_eq!(all, check_assertions(&design, &trace), "{label}");
        for assertion in &design.assertions {
            // Assertions may share a name; the widest look-ahead among them bounds all.
            let horizon = design
                .assertions
                .iter()
                .filter(|other| other.name == assertion.name)
                .map(|other| other.property.body.horizon() as usize)
                .max()
                .unwrap_or(0);
            for start in 0..trace.len() {
                let of_attempt = |failures: &[AssertionFailure]| -> Vec<AssertionFailure> {
                    failures
                        .iter()
                        .filter(|f| f.assertion == assertion.name && f.start_cycle == start)
                        .cloned()
                        .collect()
                };
                let rows = Rewritten::new(&trace, start + horizon, &mut rng);
                let rewritten = engine.check(&rows, 0);
                assert_eq!(
                    of_attempt(&rewritten),
                    of_attempt(&all),
                    "{label}: `{}` started at {start} read past {start} + {horizon}",
                    assertion.name
                );
                tally.attempts += 1;
                tally.failures_kept += of_attempt(&all).len();
                tally.rewrites_that_bit += usize::from(rewritten != all);
            }
        }
    }
}

/// `|->`, `|=>`, chained and leading delays, nested implication, `not`, the
/// sampled-value functions and `disable iff`, each written so that it fails often.
const HANDWRITTEN: &str = r#"
module temporal(input clk, input rst_n, input a, input b, input c, input [1:0] x, output reg [2:0] n);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) n <= 3'd0;
    else n <= n + {2'd0, a};
  end
  property overlapping; @(posedge clk) a |-> b; endproperty
  property next_cycle; @(posedge clk) a |=> b || c; endproperty
  property chained; @(posedge clk) a ##2 b ##1 c; endproperty
  property delayed_consequent; @(posedge clk) a && b |-> ##2 c ##1 !a; endproperty
  property leading_delay; @(posedge clk) ##3 n != 3'd2; endproperty
  property nested; @(posedge clk) a |-> b |=> ##1 c; endproperty
  property negated; @(posedge clk) not (a ##1 b); endproperty
  property negated_consequent; @(posedge clk) c |=> not (b ##2 a); endproperty
  property past; @(posedge clk) $past(x, 2) <= x; endproperty
  property rose_fell; @(posedge clk) $rose(a) |=> $fell(b); endproperty
  property stable; @(posedge clk) $stable(x) |-> ##1 $past(a, 3) == a; endproperty
  property guarded; @(posedge clk) disable iff (!rst_n) b |-> ##1 n < 3'd3; endproperty
  property guarded_by_input; @(posedge clk) disable iff (c) a |=> ##2 x != 2'd1; endproperty
  assert property (overlapping);
  assert property (next_cycle);
  assert property (chained);
  assert property (delayed_consequent);
  assert property (leading_delay);
  assert property (nested);
  assert property (negated);
  assert property (negated_consequent);
  assert property (past);
  assert property (rose_fell);
  assert property (stable);
  assert property (guarded);
  assert property (guarded_by_input);
  assert property (@(posedge clk) a |-> ##3 n > 3'd0);
endmodule
"#;

#[test]
fn no_attempt_reads_a_row_past_its_start_plus_horizon() {
    let mut families = Tally::default();
    for (index, family) in Family::all().iter().enumerate() {
        for variant in 0..2 {
            let params = FamilyParams {
                width: 4,
                depth: 4,
                variant,
            };
            let instance = instantiate(*family, params, index);
            let golden = parse_module(&instance.source).expect("family sources parse");
            let seed = (index as u64) << 8 | u64::from(variant) << 4;
            let mutants = BugInjector::new(seed).inject_batch(&golden, 8);
            let modules = std::iter::once(golden).chain(mutants.into_iter().map(|b| b.buggy));
            for (n, module) in modules.enumerate() {
                let label = format!("{} #{n}", instance.module_name);
                pin(&label, &module, seed ^ n as u64, &mut families);
            }
        }
    }
    // Failures were kept through the rewrite, and the rewrite changed what attempts
    // that do read past the cut-off saw.
    assert!(families.attempts > 10_000, "{families:?}");
    assert!(families.failures_kept > 500, "{families:?}");
    assert!(families.rewrites_that_bit > 5_000, "{families:?}");

    let mut handwritten = Tally::default();
    let module = parse_module(HANDWRITTEN).unwrap();
    for seed in 0..8 {
        pin("handwritten", &module, seed, &mut handwritten);
    }
    assert!(handwritten.failures_kept > 500, "{handwritten:?}");
    assert!(handwritten.rewrites_that_bit > 2_000, "{handwritten:?}");
}
