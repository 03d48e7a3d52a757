//! Tier-1 differential suite: [`BoundedChecker`] against the plain loop it replaced.
//!
//! The reference checker below is that loop, word for word — build the whole stimulus
//! set, simulate every sequence from reset on `svsim::reference`, check every attempt,
//! stop at the first failing sequence — and the production checker (lazy stimuli,
//! compiled engine driven by slot, exhaustive checks searched by state) must return
//! the same [`Verdict`] field for field: method, witness, failure list, `sequences`.
//!
//! The reference loop builds its sets with the two eager builders `svverify::stimulus`
//! had before [`Stimuli`], kept here verbatim, so it shares no code with the decoder
//! under test; a test of its own holds `Stimuli` equal to them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use svgen::{instantiate, Family, FamilyParams};
use svmutate::BugInjector;
use svparse::{emit_module, parse_module, Module};
use svsim::{Design, Engine, InputVector, SimError, Value};
use svverify::{
    driven_inputs, exhaustive_is_tractable, BoundedChecker, CheckConfig, CheckMethod, DrivenInput,
    Stimuli, SweepWork, Verdict, MAX_EXHAUSTIVE_BITS,
};

/// `svverify::exhaustive_stimuli` as it was when it built the set itself.
fn exhaustive_stimuli(design: &Design, depth: usize) -> Vec<Vec<InputVector>> {
    let inputs = driven_inputs(design);
    let reset = design.reset_n.clone();
    let free: Vec<&DrivenInput> = inputs
        .iter()
        .filter(|i| Some(&i.name) != reset.as_ref())
        .collect();
    let bits_per_cycle: u32 = free.iter().map(|i| i.width).sum();
    let total_bits = bits_per_cycle as u64 * depth as u64;
    assert!(
        total_bits <= u64::from(MAX_EXHAUSTIVE_BITS),
        "exhaustive enumeration over {total_bits} bits is intractable"
    );
    let count = 1u64 << total_bits;
    let mut sequences = Vec::with_capacity(count as usize);
    for encoding in 0..count {
        let mut sequence = Vec::with_capacity(depth);
        let mut cursor = 0u32;
        for cycle in 0..depth {
            let mut vector = InputVector::new();
            if let Some(rst) = &reset {
                vector.insert(rst.clone(), u64::from(cycle > 0));
            }
            for input in &free {
                let field = (encoding >> cursor) & mask_bits(input.width);
                vector.insert(input.name.clone(), field);
                cursor += input.width;
            }
            sequence.push(vector);
        }
        sequences.push(sequence);
    }
    sequences
}

fn mask_bits(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// `svverify::random_stimuli` as it was when it built the set itself.
fn random_stimuli(design: &Design, depth: usize, count: usize, seed: u64) -> Vec<Vec<InputVector>> {
    let inputs = driven_inputs(design);
    let reset = design.reset_n.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sequences = Vec::with_capacity(count);
    for case in 0..count {
        let mut sequence = Vec::with_capacity(depth);
        let pulse_reset_mid = case % 8 == 7 && depth > 4;
        for cycle in 0..depth {
            let mut vector = InputVector::new();
            if let Some(rst) = &reset {
                let mid_pulse = pulse_reset_mid && cycle == depth / 2;
                vector.insert(rst.clone(), u64::from(cycle > 0 && !mid_pulse));
            }
            for input in inputs.iter().filter(|i| Some(&i.name) != reset.as_ref()) {
                let value = if case == 0 {
                    // Directed pattern: walk ones / saturate small signals.
                    match input.width {
                        1 => u64::from(cycle % 2 == 1 || cycle % 3 == 1),
                        w => ((cycle as u64) + 1).wrapping_mul(3) & mask_bits(w),
                    }
                } else {
                    rng.gen::<u64>() & mask_bits(input.width)
                };
                vector.insert(input.name.clone(), value);
            }
            sequence.push(vector);
        }
        sequences.push(sequence);
    }
    sequences
}

/// `BoundedChecker::check_design` as it was before designs were compiled and stimuli
/// decoded on demand.
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

/// Decision bits per cycle of an enumeration: every driven input but the reset.
fn free_bits(design: &Design) -> u32 {
    driven_inputs(design)
        .iter()
        .filter(|input| Some(&input.name) != design.reset_n.as_ref())
        .map(|input| input.width)
        .sum()
}

/// Checks a module both ways; returns the verdict they agree on and the work the
/// check did.  A random sweep steps every sequence up to the witness from power-up
/// (and the one it could not simulate, up to the cycle that failed) and keeps no key; a passing search steps every input of cycle 0 from power-up and
/// every input of the next cycle from each key it kept.
fn agree(label: &str, module: &Module, config: &CheckConfig) -> (Verdict, SweepWork) {
    let checker = BoundedChecker::new(config.clone());
    let Ok(design) = Design::elaborate(module) else {
        let verdict = checker.check_module(module);
        assert!(matches!(verdict, Verdict::Unverifiable { .. }), "{label}");
        return (verdict, SweepWork::default());
    };
    let (verdict, work) = checker.check_design_counted(&design);
    let depth = config.depth.max(design.max_property_horizon() as usize + 4);
    if !exhaustive_is_tractable(&design, depth, config.max_exhaustive_bits) {
        // A sequence that cannot be simulated ends the sweep part way through.
        let plain = (work.sequences * depth) as u64;
        let partial = match verdict {
            Verdict::Unverifiable { .. } => depth as u64,
            _ => 0,
        };
        let stepped = (plain..=plain + partial).contains(&work.cycles);
        assert!(stepped && work.keys == 0, "{label}: {work:?}");
    } else if verdict.passed() {
        let edges = (1u64 << free_bits(&design)) * (1 + work.keys as u64);
        assert_eq!(work.cycles, edges, "{label}: {work:?}");
    }
    if let Verdict::Pass { sequences, .. } = verdict {
        assert_eq!(work.sequences, sequences, "{label}");
    }
    let expected = reference_check(&design, config);
    assert_eq!(
        verdict,
        expected,
        "{label}: the checker (left) and the reference loop (right) disagree under {config:?}\n{}",
        emit_module(module)
    );
    assert_eq!(verdict, checker.check_module(module), "{label}");
    (verdict, work)
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

/// The golden of every family × variant × parameter point — one narrow point, where
/// sweeps are exhaustive, and the default one — with a seed that names the point.
fn family_goldens() -> Vec<(u64, Module)> {
    let mut goldens = Vec::new();
    for (index, family) in Family::all().iter().enumerate() {
        for variant in 0..2 {
            for (width, depth) in [(1, 2), (4, 4)] {
                let params = FamilyParams {
                    width,
                    depth,
                    variant,
                };
                let source = instantiate(*family, params, index).source;
                let seed = (index as u64) << 8 | u64::from(variant) << 4 | u64::from(width);
                goldens.push((seed, parse_module(&source).expect("family sources parse")));
            }
        }
    }
    goldens
}

/// [`Stimuli`] decodes, sequence for sequence, what the eager builders built.
#[test]
fn lazy_stimuli_equal_the_eager_builders() {
    let handwritten = [
        // No reset: no directed column, and no mid-run pulse to leave out.
        "module free(input clk, input a, input [1:0] b, output reg y);\n  always @(posedge clk) y <= a ^ b[0];\nendmodule",
        // A 64-bit input: the one width whose mask cannot be computed by shifting.
        "module wide(input clk, input rst_n, input [63:0] w, input e, output reg y);\n  always @(posedge clk or negedge rst_n) begin\n    if (!rst_n) y <= 0;\n    else y <= e & w[63];\n  end\nendmodule",
    ];
    let goldens = family_goldens().into_iter().map(|(_, golden)| golden);
    let designs: Vec<Design> = goldens
        .chain(handwritten.map(|source| parse_module(source).unwrap()))
        .map(|module| Design::elaborate(&module).expect("goldens elaborate"))
        .collect();
    assert_eq!(designs.len(), 16 * 2 * 2 + 2);
    let (free, wide) = (&designs[64], &designs[65]);
    assert!(free.reset_n.is_none() && wide.reset_n.is_some());

    let mut enumerated = 0;
    for design in &designs {
        let name = &design.module.name;
        // 16 sequences: the directed sequence 0 and two with `case % 8 == 7`; the
        // reset is pulsed mid-run at depth 8 and, by the `depth > 4` rule, not at 4.
        for depth in [4, 8] {
            let eager = random_stimuli(design, depth, 16, 0xD1FF);
            let lazy: Vec<_> = Stimuli::random(design, depth, 16, 0xD1FF).collect();
            assert_eq!(lazy, eager, "{name}: random, depth {depth}");
            assert_eq!(svverify::random_stimuli(design, depth, 16, 0xD1FF), eager);
            if let Some(reset) = &design.reset_n {
                for case in [7, 15] {
                    assert_eq!(eager[case][depth / 2][reset], u64::from(depth <= 4));
                }
            }
        }
        // As deep as 10 decision bits allow, up to 4 cycles.
        let bits: u32 = driven_inputs(design)
            .iter()
            .filter(|input| Some(&input.name) != design.reset_n.as_ref())
            .map(|input| input.width)
            .sum();
        let depth = (10 / bits.max(1)).min(4) as usize;
        if depth > 0 {
            let eager = exhaustive_stimuli(design, depth);
            let lazy: Vec<_> = Stimuli::exhaustive(design, depth).collect();
            assert_eq!(lazy, eager, "{name}: exhaustive, depth {depth}");
            assert_eq!(svverify::exhaustive_stimuli(design, depth), eager);
            enumerated += 1;
        }
    }
    assert!(enumerated > 32, "only {enumerated} designs were enumerated");
    // The 64-bit column keeps its high bits.
    let high = random_stimuli(wide, 8, 16, 0xD1FF)
        .iter()
        .flatten()
        .any(|vector| vector["w"] > u64::from(u32::MAX));
    assert!(high);
}

#[test]
fn every_family_variant_and_eight_mutants_of_each_get_the_reference_verdict() {
    let (mut pass, mut fail, mut unverifiable) = (0, 0, 0);
    let (mut exhaustive, mut randomised, mut merged) = (0, 0, 0);
    for (seed, golden) in family_goldens() {
        let mutants = BugInjector::new(seed).inject_batch(&golden, 8);
        let modules = std::iter::once(golden.clone())
            .chain(mutants.into_iter().map(|bug| bug.buggy))
            .chain(looped_and_undeclared(&golden));
        for (n, module) in modules.enumerate() {
            let label = format!("{} #{n}", golden.name);
            for config in [small_exhaustive(), always_random()] {
                let (verdict, work) = agree(&label, &module, &config);
                match verdict {
                    Verdict::Pass { method, sequences } => {
                        pass += 1;
                        match method {
                            CheckMethod::Exhaustive => exhaustive += 1,
                            CheckMethod::Randomised => randomised += 1,
                        }
                        let replayed = (sequences * config.depth.max(4)) as u64;
                        merged += usize::from(work.cycles < replayed);
                    }
                    Verdict::Fail { .. } => fail += 1,
                    Verdict::Unverifiable { .. } => unverifiable += 1,
                }
            }
        }
    }
    // Every kind of verdict, both methods, and searches that merged keys were compared.
    assert!(
        pass > 100 && fail > 300 && unverifiable > 100,
        "{pass} {fail} {unverifiable}"
    );
    assert!(
        exhaustive > 20 && randomised > 50,
        "{exhaustive} {randomised}"
    );
    assert!(
        merged > 20,
        "only {merged} searches stepped fewer cycles than a sweep"
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

/// A full search passes, accounting for every sequence.  The count pin: the latch's
/// window is one row (`d |=> q` looks one cycle ahead, nothing looks back), so a key
/// of layer `c ≥ 2` is the last two inputs and the count of ones so far: 2 + 2 +
/// Σ 4(c − 1) = 184 keys over layers 0..=10, where a sweep visits 4 096 sequences.
/// The search steps both inputs from power-up and from each key: 2 · 185 = 370
/// cycles, against 49 152 for the plain loop.  Losing deduplication fails here, not
/// in a benchmark.
#[test]
fn a_full_one_bit_depth_twelve_sweep_visits_4096_sequences() {
    let (verdict, work) = agree("latch", &latch("4'd15"), &depth_twelve());
    assert_eq!(
        verdict,
        Verdict::Pass {
            method: CheckMethod::Exhaustive,
            sequences: 4096
        }
    );
    assert_eq!(
        work,
        SweepWork {
            sequences: 4096,
            cycles: 370,
            keys: 184
        }
    );
    assert_eq!(
        distinct_keys(&Design::elaborate(&latch("4'd15")).unwrap(), 12),
        184
    );
}

/// Many sequences violate `ones <= 4`; the witness is the first in canonical order,
/// and its failure list is that of its whole trace, shared rows included.
#[test]
fn of_several_failing_sequences_the_first_in_canonical_order_is_the_witness() {
    let (verdict, work) = agree("latch ≤ 4", &latch("4'd4"), &depth_twelve());
    let Verdict::Fail {
        witness, failures, ..
    } = verdict
    else {
        panic!("expected a failure, got {verdict:?}");
    };
    // Five ones in cycles 1..=5, then zeros: sequence 0b111110 = 62, the 63rd visited.
    let ones: Vec<u64> = witness.iter().map(|vector| vector["d"]).collect();
    assert_eq!(ones, [0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0]);
    // The witness accounts for 63 sequences; the search stepped 103 cycles up to it
    // and the replay 12 more.
    assert_eq!(
        work,
        SweepWork {
            sequences: 63,
            cycles: 115,
            keys: 73
        }
    );
    // `ones` stays at 5 once reached: every attempt from cycle 6 on fails.
    assert_eq!(failures.len(), 6);
    assert!(failures.iter().all(|f| f.assertion == "counted"));
    assert_eq!(failures[0].start_cycle, 6);
}

/// Only sequences with ten ones after reset violate `ones <= 9`: the first of them is
/// numbered late, after more than a thousand passing sequences, and the search finds
/// it without stepping them.
#[test]
fn a_failure_only_late_sequences_reach_is_still_found() {
    let (verdict, work) = agree("latch ≤ 9", &latch("4'd9"), &depth_twelve());
    let Verdict::Fail { witness, .. } = verdict else {
        panic!("expected a failure, got {verdict:?}");
    };
    let ones: u64 = witness.iter().map(|vector| vector["d"]).sum();
    assert_eq!(ones, 10);
    // The sequence's number: cycle `c` of the one free input is bit `c`.
    let encoding: u64 = (0..12).map(|cycle| witness[cycle]["d"] << cycle).sum();
    assert!(encoding > 1000, "sequence {encoding}");
    assert_eq!(work.sequences as u64, encoding + 1);
    assert!(work.cycles < work.sequences as u64 / 4, "{work:?}");
}

/// A sweep of no sequences never powers the design up, so it never reports the
/// combinational loop the first sequence would have found.
#[test]
fn a_sweep_of_no_sequences_passes_even_a_combinational_loop() {
    let looped = parse_module(
        "module loopy(input clk, input a, output y);\n  assign y = !y;\n  property p; @(posedge clk) a |-> y; endproperty\n  assert property (p);\nendmodule",
    )
    .unwrap();
    let none = CheckConfig {
        depth: 8,
        max_exhaustive_bits: 0,
        random_cases: 0,
        seed: 1,
    };
    assert_eq!(
        agree("loopy", &looped, &none).0,
        Verdict::Pass {
            method: CheckMethod::Randomised,
            sequences: 0
        }
    );
    let one = CheckConfig {
        random_cases: 1,
        ..none
    };
    assert!(matches!(
        agree("loopy", &looped, &one).0,
        Verdict::Unverifiable { .. }
    ));
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

/// Distinct (layer, state, window) keys of layers `0..depth − 1` over every sequence of
/// the enumeration, found by stepping each sequence from power-up with the public
/// engine: what `SweepWork::keys` counts for a passing search.
fn distinct_keys(design: &Design, depth: usize) -> usize {
    let window = (design.max_property_horizon() + design.max_property_lookback()) as usize;
    let window = window.min(depth);
    let slots = design.slot_count();
    let mut stimuli = Stimuli::exhaustive(design, depth);
    let inputs: Vec<_> = stimuli
        .columns()
        .iter()
        .map(|column| design.input_slot(column.name))
        .collect();
    let mut engine = Engine::new(design);
    let power_up = engine.power_up().expect("the design settles");
    let mut keys: HashSet<(usize, Vec<Value>)> = HashSet::new();
    let mut values = Vec::new();
    while stimuli.next_into(&mut values) {
        let mut state = power_up.clone();
        let mut rows = vec![Value::bit(false); depth * slots];
        for cycle in 0..depth - 1 {
            let row = &values[cycle * inputs.len()..][..inputs.len()];
            for (input, value) in inputs.iter().zip(row) {
                if let Some(input) = input {
                    input.drive(&mut state, *value);
                }
            }
            engine
                .cycle(&mut state, &mut rows[cycle * slots..][..slots])
                .expect("a passing design steps");
            let first = (cycle + 1).saturating_sub(window);
            let mut key = rows[first * slots..(cycle + 1) * slots].to_vec();
            key.extend_from_slice(&state);
            keys.insert((cycle, key));
        }
    }
    keys.len()
}

/// The search against the reference loop where windows merge: the pipeline's depth 12
/// over one free bit, 4 096 sequences, for every golden that is exhaustive there and
/// eight mutants of each — and, for every pass, its key count against brute force.
/// The reference interpreter steps up to 49 152 cycles a check, so this runs in
/// release builds only.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn at_depth_twelve_the_search_gets_the_reference_verdict_and_counts_its_keys() {
    let config = depth_twelve();
    let (mut goldens, mut passes, mut fails) = (0, 0, 0);
    for (seed, golden) in family_goldens() {
        let design = Design::elaborate(&golden).expect("goldens elaborate");
        let depth = config.depth.max(design.max_property_horizon() as usize + 4);
        if !exhaustive_is_tractable(&design, depth, config.max_exhaustive_bits) {
            continue;
        }
        goldens += 1;
        let mutants = BugInjector::new(seed).inject_batch(&golden, 8);
        let modules = std::iter::once(golden.clone()).chain(mutants.into_iter().map(|b| b.buggy));
        for (n, module) in modules.enumerate() {
            let label = format!("{} #{n} at depth {depth}", golden.name);
            let (verdict, work) = agree(&label, &module, &config);
            match verdict {
                Verdict::Pass {
                    method: CheckMethod::Exhaustive,
                    ..
                } => {
                    passes += 1;
                    let design = Design::elaborate(&module).unwrap();
                    assert_eq!(work.keys, distinct_keys(&design, depth), "{label}");
                }
                Verdict::Fail { .. } => fails += 1,
                _ => {}
            }
        }
    }
    assert!(
        goldens >= 20,
        "only {goldens} goldens are exhaustive at depth 12"
    );
    assert!(passes > 100 && fails > 50, "{passes} passes, {fails} fails");
}

/// The repaired designs the judge checks at quick scale: every distinct candidate
/// the three checkpoints sample for SVA-Eval (the `experiments` seed and protocol)
/// that misses the textual fast path, applies, parses, changes the buggy module and
/// elaborates — what `response_is_correct` hands the bounded check.
fn judged_candidates() -> (Vec<Design>, CheckConfig) {
    use assertsolver::{apply_line_edit, train, EvalConfig, TrainConfig};
    use svmodel::CaseInput;
    use svserve::{serve_scoped, RepairRequest};

    let artifacts = train(&TrainConfig::quick(2025));
    let config = EvalConfig::quick(2025 ^ 0xE7);
    let cases = artifacts.sva_eval.all();
    let mut designs = Vec::new();
    for model in [&artifacts.base, &artifacts.sft, &artifacts.assert_solver] {
        let requests = cases
            .iter()
            .map(|entry| {
                let case = CaseInput::from_entry(entry);
                RepairRequest::new(case, config.samples, config.temperature)
            })
            .collect();
        let outcomes = serve_scoped(model, config.service_config(), |service| {
            service.solve_all(requests)
        });
        for (entry, outcome) in cases.iter().zip(outcomes) {
            let mut seen = HashSet::new();
            for response in outcome.responses.iter() {
                let (line, fix) = (response.bug_line_number, response.fixed_line.trim());
                let golden = line == entry.bug_line_number && fix == entry.fixed_line.trim();
                if golden || line == 0 || fix.is_empty() || !seen.insert((line, fix)) {
                    continue;
                }
                let Some(source) = apply_line_edit(&entry.buggy_source, line, fix) else {
                    continue;
                };
                let Ok(module) = parse_module(&source) else {
                    continue;
                };
                if svparse::emits_as(&module, &entry.buggy_source) {
                    continue;
                }
                designs.extend(Design::from_module(module));
            }
        }
    }
    (designs, config.check)
}

/// [`BoundedChecker::passes`] is `check_design(..).passed()` without the verdict:
/// over every design this file builds, under every configuration it uses, and
/// over every candidate the judge checks at quick scale.
#[test]
fn the_yes_no_check_agrees_with_the_verdict() {
    let mut modules = Vec::new();
    for (seed, golden) in family_goldens() {
        let mutants = BugInjector::new(seed).inject_batch(&golden, 8);
        modules.extend(looped_and_undeclared(&golden));
        modules.extend(mutants.into_iter().map(|bug| bug.buggy));
        modules.push(golden);
    }
    modules.extend(["4'd15", "4'd9", "4'd4"].map(latch));
    modules.extend(
        [
            "module loopy(input clk, input a, output y);\n  assign y = !y;\n  property p; @(posedge clk) a |-> y; endproperty\n  assert property (p);\nendmodule",
            "module two_bits(input clk, input rst_n, input a, input b, output reg q);\n  always @(posedge clk or negedge rst_n) begin\n    if (!rst_n) q <= 0;\n    else q <= a ^ b;\n  end\n  property p; @(posedge clk) disable iff (!rst_n) 1 |=> q == ($past(a) ^ $past(b)); endproperty\n  assert property (p);\nendmodule",
            "module free(input clk, input a, input [1:0] b, output reg y);\n  always @(posedge clk) y <= a ^ b[0];\nendmodule",
        ]
        .map(|source| parse_module(source).unwrap()),
    );
    let configs = [
        small_exhaustive(),
        always_random(),
        depth_twelve(),
        CheckConfig {
            random_cases: 0,
            ..always_random()
        },
        CheckConfig {
            random_cases: 1,
            ..always_random()
        },
        CheckConfig {
            max_exhaustive_bits: u32::MAX,
            ..depth_twelve()
        },
    ];
    let (mut passed, mut failed) = (0, 0);
    let mut agree = |design: &Design, config: &CheckConfig| {
        let checker = BoundedChecker::new(config.clone());
        let verdict = checker.check_design(design);
        assert_eq!(
            checker.passes(design),
            verdict.passed(),
            "{} under {config:?}: {verdict:?}",
            design.module.name
        );
        if verdict.passed() {
            passed += 1;
        } else {
            failed += 1;
        }
    };
    let designs: Vec<Design> = modules
        .iter()
        .filter_map(|module| Design::elaborate(module).ok())
        .collect();
    for design in &designs {
        configs.iter().for_each(|config| agree(design, config));
    }
    let (candidates, check) = judged_candidates();
    assert!(candidates.len() > 100, "{} candidates", candidates.len());
    for design in &candidates {
        agree(design, &check);
    }
    assert!(
        passed > 500 && failed > 500,
        "{passed} passed, {failed} failed"
    );
}
