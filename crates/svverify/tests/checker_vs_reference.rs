//! Tier-1 differential suite: [`BoundedChecker`] against the same loop over the map
//! interpreter.
//!
//! The reference checker below is `BoundedChecker::check_design` as it was before
//! designs were compiled — build the stimulus set, simulate every sequence from reset
//! on `svsim::reference`, check every attempt, stop at the first failing sequence —
//! and the production checker, which runs on the compiled engine, must return the
//! same [`Verdict`] field for field: method, witness, failure list, `sequences`.

use svgen::{instantiate, Family, FamilyParams};
use svmutate::BugInjector;
use svparse::{emit_module, parse_module, Module};
use svsim::{Design, SimError};
use svverify::{
    exhaustive_is_tractable, exhaustive_stimuli, random_stimuli, BoundedChecker, CheckConfig,
    CheckMethod, Verdict,
};

/// `BoundedChecker::check_design` as it was before designs were compiled.
fn reference_check(design: &Design, config: &CheckConfig) -> Verdict {
    if !design.has_assertions() {
        return Verdict::Pass {
            method: CheckMethod::Exhaustive,
            sequences: 0,
        };
    }
    let depth = config.depth.max(design.max_property_horizon() as usize + 4);
    let (method, stimuli) = if exhaustive_is_tractable(design, depth, config.max_exhaustive_bits) {
        (CheckMethod::Exhaustive, exhaustive_stimuli(design, depth))
    } else {
        (
            CheckMethod::Randomised,
            random_stimuli(design, depth, config.random_cases, config.seed),
        )
    };
    let mut simulated = 0;
    for stim in &stimuli {
        match svsim::reference::Simulator::run(design, stim) {
            Ok(trace) => {
                simulated += 1;
                let failures = svsim::reference::check_assertions(design, &trace);
                if !failures.is_empty() {
                    return Verdict::Fail {
                        method,
                        witness: stim.clone(),
                        failures,
                    };
                }
            }
            Err(SimError::CombinationalLoop { module }) => {
                return Verdict::Unverifiable {
                    reason: format!("combinational loop in module `{module}`"),
                }
            }
            Err(other) => {
                return Verdict::Unverifiable {
                    reason: other.to_string(),
                }
            }
        }
    }
    Verdict::Pass {
        method,
        sequences: simulated,
    }
}

/// Checks a module both ways and returns the verdict they agree on.
fn agree(label: &str, module: &Module, config: &CheckConfig) -> Verdict {
    let checker = BoundedChecker::new(config.clone());
    let Ok(design) = Design::elaborate(module) else {
        let verdict = checker.check_module(module);
        assert!(matches!(verdict, Verdict::Unverifiable { .. }), "{label}");
        return verdict;
    };
    let verdict = checker.check_design(&design);
    let expected = reference_check(&design, config);
    assert_eq!(
        verdict,
        expected,
        "{label}: the checker (left) and the reference loop (right) disagree under {config:?}\n{}",
        emit_module(module)
    );
    assert_eq!(verdict, checker.check_module(module), "{label}");
    verdict
}

/// Small enough for the reference loop in a debug build: at most 2^8 sequences of 4
/// cycles when exhaustive, 6 of 8 cycles otherwise.
fn small_exhaustive() -> CheckConfig {
    CheckConfig {
        depth: 4,
        max_exhaustive_bits: 8,
        random_cases: 6,
        seed: 0xD1FF,
    }
}

fn always_random() -> CheckConfig {
    CheckConfig {
        depth: 8,
        max_exhaustive_bits: 0,
        random_cases: 6,
        seed: 0xD1FF,
    }
}

#[test]
fn every_family_variant_and_eight_mutants_of_each_get_the_reference_verdict() {
    let (mut pass, mut fail, mut unverifiable) = (0, 0, 0);
    let (mut exhaustive, mut randomised) = (0, 0);
    for (index, family) in Family::all().iter().enumerate() {
        for variant in 0..2 {
            // One narrow point, where sweeps are exhaustive, and the default one.
            for (width, depth) in [(1, 2), (4, 4)] {
                let params = FamilyParams {
                    width,
                    depth,
                    variant,
                };
                let instance = instantiate(*family, params, index);
                let golden = parse_module(&instance.source).expect("family sources parse");
                let seed = (index as u64) << 8 | u64::from(variant) << 4 | u64::from(width);
                let mutants = BugInjector::new(seed).inject_batch(&golden, 8);
                let modules = std::iter::once(golden.clone())
                    .chain(mutants.into_iter().map(|bug| bug.buggy))
                    .chain(looped_and_undeclared(&golden));
                for (n, module) in modules.enumerate() {
                    let label = format!("{} #{n}", instance.module_name);
                    for config in [small_exhaustive(), always_random()] {
                        match agree(&label, &module, &config) {
                            Verdict::Pass { method, .. } => {
                                pass += 1;
                                match method {
                                    CheckMethod::Exhaustive => exhaustive += 1,
                                    CheckMethod::Randomised => randomised += 1,
                                }
                            }
                            Verdict::Fail { .. } => fail += 1,
                            Verdict::Unverifiable { .. } => unverifiable += 1,
                        }
                    }
                }
            }
        }
    }
    // Every kind of verdict and both methods were compared.
    assert!(
        pass > 100 && fail > 300 && unverifiable > 100,
        "{pass} {fail} {unverifiable}"
    );
    assert!(
        exhaustive > 20 && randomised > 50,
        "{exhaustive} {randomised}"
    );
}

/// Two edits `svmutate` would not make: a combinational loop through the first
/// continuous assignment (when there is one) and a read of an undeclared name.
fn looped_and_undeclared(golden: &Module) -> Vec<Module> {
    let mut out = Vec::new();
    let mut looped = golden.clone();
    let assign = looped.items.iter_mut().find_map(|item| match item {
        svparse::Item::Assign(assign) => Some(assign),
        _ => None,
    });
    if let Some(assign) = assign {
        if let Some(name) = assign.lhs.base_names().into_iter().next() {
            assign.lhs = svparse::LValue::Ident(name.clone());
            assign.rhs = svparse::Expr::ident(name).not();
            out.push(looped);
        }
    }
    let text = emit_module(golden).replace(
        "endmodule",
        "  wire never_driven_w;\n  assign never_driven_w = never_declared_anywhere;\nendmodule",
    );
    out.push(parse_module(&text).expect("the edit keeps the module parseable"));
    out
}

/// One free input bit: depth 12 is a 4096-sequence exhaustive sweep.
const LATCH: &str = r#"
module latch(input clk, input rst_n, input d, output reg q, output reg [3:0] ones);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) q <= 0;
    else q <= d;
  end
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) ones <= 4'd0;
    else if (d) ones <= ones + 4'd1;
  end
  property follows;
    @(posedge clk) disable iff (!rst_n) d |=> q;
  endproperty
  property counted;
    @(posedge clk) disable iff (!rst_n) ones <= LIMIT;
  endproperty
  assert property (follows);
  assert property (counted);
endmodule
"#;

fn latch(limit: &str) -> Module {
    parse_module(&LATCH.replace("LIMIT", limit)).unwrap()
}

fn depth_twelve() -> CheckConfig {
    CheckConfig {
        depth: 12,
        max_exhaustive_bits: 14,
        random_cases: 16,
        seed: 3,
    }
}

/// A full sweep passes, having visited every sequence.
#[test]
fn a_full_one_bit_depth_twelve_sweep_visits_4096_sequences() {
    assert_eq!(
        agree("latch", &latch("4'd15"), &depth_twelve()),
        Verdict::Pass {
            method: CheckMethod::Exhaustive,
            sequences: 4096
        }
    );
}

/// Many sequences violate `ones <= 4`; the witness is the first in canonical order,
/// and its failure list is that of its whole trace.
#[test]
fn of_several_failing_sequences_the_first_in_canonical_order_is_the_witness() {
    let verdict = agree("latch ≤ 4", &latch("4'd4"), &depth_twelve());
    let Verdict::Fail {
        witness, failures, ..
    } = verdict
    else {
        panic!("expected a failure, got {verdict:?}");
    };
    // Five ones in cycles 1..=5, then zeros: sequence 0b111110 = 62, the 63rd visited.
    let ones: Vec<u64> = witness.iter().map(|vector| vector["d"]).collect();
    assert_eq!(ones, [0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0]);
    // `ones` stays at 5 once reached: every attempt from cycle 6 on fails.
    assert_eq!(failures.len(), 6);
    assert!(failures.iter().all(|f| f.assertion == "counted"));
    assert_eq!(failures[0].start_cycle, 6);
}

/// Only sequences with ten ones after reset violate `ones <= 9`: the first of them is
/// visited late, after more than a thousand passing sequences.
#[test]
fn a_failure_only_late_sequences_reach_is_still_found() {
    let verdict = agree("latch ≤ 9", &latch("4'd9"), &depth_twelve());
    let Verdict::Fail { witness, .. } = verdict else {
        panic!("expected a failure, got {verdict:?}");
    };
    let ones: u64 = witness.iter().map(|vector| vector["d"]).sum();
    assert_eq!(ones, 10);
    // The sequence's number: cycle `c` of the one free input is bit `c`.
    let encoding: u64 = (0..12).map(|cycle| witness[cycle]["d"] << cycle).sum();
    assert!(encoding > 1000, "sequence {encoding}");
}

/// A configuration may ask for more exhaustive bits than can be enumerated; the
/// checker must fall back to a random sweep instead of panicking in the enumeration.
#[test]
fn an_oversized_exhaustive_budget_falls_back_to_random() {
    let module = parse_module(
        r#"
module two_bits(input clk, input rst_n, input a, input b, output reg q);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) q <= 0;
    else q <= a ^ b;
  end
  property p; @(posedge clk) disable iff (!rst_n) 1 |=> q == ($past(a) ^ $past(b)); endproperty
  assert property (p);
endmodule
"#,
    )
    .unwrap();
    for max_exhaustive_bits in [32, 64, u32::MAX] {
        let config = CheckConfig {
            depth: 16,
            max_exhaustive_bits,
            random_cases: 5,
            seed: 1,
        };
        let design = Design::elaborate(&module).unwrap();
        assert!(!exhaustive_is_tractable(&design, 16, max_exhaustive_bits));
        assert_eq!(
            BoundedChecker::new(config).check_design(&design),
            Verdict::Pass {
                method: CheckMethod::Randomised,
                sequences: 5
            }
        );
    }
    // Twelve cycles of two bits are exactly the 24 that can be enumerated.
    let design = Design::elaborate(&module).unwrap();
    assert!(exhaustive_is_tractable(&design, 12, 64));
    assert!(!exhaustive_is_tractable(&design, 13, 64));
}
