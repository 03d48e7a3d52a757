//! Bounded checking of concurrent assertions.
//!
//! [`BoundedChecker`] plays the role SymbiYosys plays in the paper's pipeline: it
//! answers, for a bounded depth, whether a design's assertions can be violated.  Small
//! designs are checked exhaustively over every input sequence; larger ones fall back
//! to a seeded randomised sweep (documented as a substitution in DESIGN.md).
//!
//! Either way the verdict is that of the first sequence in canonical order — `e = 0,
//! 1, 2, …` for an enumeration, draw order for a random set — on which an assertion
//! fails or the design cannot be simulated.  A random sweep finds it by the plain
//! loop: decode a sequence ([`Stimuli`]), step it from the power-up state into one
//! flat row buffer, check every attempt, stop at the first failure.
//!
//! ## How an exhaustive check runs
//!
//! An enumeration is a breadth-first search over *keys*, not a sweep over sequences.
//! Cycle `c` of sequence `e` is the bit field `e >> (c·bits)` (`bits` decision bits a
//! cycle, cycle 0 lowest), so the numbers below `2^((c+1)·bits)` are exactly the
//! prefixes of `c + 1` cycles, and prefix `r` followed by input `i` in cycle `c` is
//! prefix `r + (i << (c·bits))`.
//!
//! **The key.**  The key of a prefix of `c + 1` cycles is its layer `c`, the state
//! after cycle `c`, and its last `W` sampled rows, `c + 1 − W ..= c`.  `W` is the
//! design's [`Design::max_property_horizon`] plus its
//! [`Design::max_property_lookback`], clamped to the depth.  The rows a check of a
//! later cycle `c' > c` reads are those of attempts that start at `c' − horizon` or
//! later, which read back no further than `c' − W`: the window, or rows after it.  So
//! two prefixes with equal keys have equal futures — every continuation steps the
//! same states, samples the same rows and fails the same attempts — and each key is
//! stepped once per layer, whatever number of prefixes reach it.
//!
//! **One step.**  Each key of layer `c − 1` tries every input of cycle `c`: the
//! cycle's values come from [`Stimuli`]'s decoder, the engine steps the key's state,
//! and [`Engine::check`] evaluates the attempts that can read the new row, over the
//! key's window plus that row (the `Window` view).  A passing edge becomes a key of
//! layer `c`.  The last layer's keys have no successor and are not kept.
//!
//! **The witness.**  Each key remembers the smallest number `r` of the prefixes that
//! reach it: the first to arrive, because edges run in increasing order (inputs
//! outer, keys in increasing `r` inner).  An edge that fails an assertion or returns a
//! [`SimError`] makes every sequence through it bad; the smallest of those is the
//! *candidate* `r + (i << (c·bits))`, zeros after cycle `c`.  The canonical witness
//! `e*` — the smallest bad sequence — is the smallest candidate: its first bad edge
//! leaves a key whose representative `r ≤` its own prefix, and the representative's
//! candidate is bad (equal keys, equal futures) and no larger than `e*`.  So an edge
//! whose sequence number is at least the best candidate so far is never stepped, and
//! neither is a key whose `r` is.
//!
//! **The verdict.**  No candidate: `Pass {Exhaustive, sequences: 2^(bits·depth)}`.  A
//! candidate: `e*` is decoded and replayed once from power-up, all `depth` cycles
//! then every attempt — exactly what the plain loop does with each sequence — which
//! gives `Fail` with `e*`'s witness and whole failure list, or the `SimError` the
//! plain loop would stop at.  A sequence that both fails an assertion and errors is
//! therefore `Unverifiable`, as it always was: a `SimError` edge is a candidate like
//! a failing one, so the search keeps the order of the plain loop, which stops at the
//! first sequence with either and lets the error win within it.  A design that does
//! not settle at power-up is `Unverifiable` before anything is searched.
//!
//! A search whose frontier outgrows `FRONTIER_BYTES` (64 MiB) gives up and runs the
//! plain loop over the enumeration instead: the same verdict, more cycles.
//! [`SweepWork`] counts what ran.  The plain "build the whole set, then for each
//! stimulus: run, check" loop lives on as the reference checker of
//! `tests/checker_vs_reference.rs`, which compares verdicts field for field, counts
//! keys by brute force and holds [`Stimuli`] equal to the eager builders it keeps.

use crate::stimulus::{self, Stimuli};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use svparse::Module;
use svsim::{AssertionFailure, Design, Engine, InputSlot, InputVector, Rows, SimError, Value};

/// Configuration of a bounded check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckConfig {
    /// Number of clock cycles to unroll.
    pub depth: usize,
    /// Maximum total decision bits for which exhaustive enumeration is attempted.
    pub max_exhaustive_bits: u32,
    /// Number of random sequences used when exhaustive enumeration is intractable.
    pub random_cases: usize,
    /// Seed for the randomised sweep.
    pub seed: u64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        Self {
            depth: 16,
            max_exhaustive_bits: 14,
            random_cases: 48,
            seed: 0xA55E_7501,
        }
    }
}

impl CheckConfig {
    /// Stable little-endian byte encoding of every field.
    ///
    /// Used as the configuration component of content-addressed verdict-cache keys
    /// (`svserve::verdict_key`): two checks share a cached verdict only when every
    /// parameter that could change the verdict is identical.
    pub fn fingerprint(&self) -> [u8; 28] {
        let mut bytes = [0u8; 28];
        bytes[..8].copy_from_slice(&(self.depth as u64).to_le_bytes());
        bytes[8..12].copy_from_slice(&self.max_exhaustive_bits.to_le_bytes());
        bytes[12..20].copy_from_slice(&(self.random_cases as u64).to_le_bytes());
        bytes[20..28].copy_from_slice(&self.seed.to_le_bytes());
        bytes
    }
}

/// How the verdict of a bounded check was reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckMethod {
    /// Every input sequence up to the depth was simulated.
    Exhaustive,
    /// A randomised subset of sequences was simulated.
    Randomised,
}

/// Verdict of a bounded assertion check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Verdict {
    /// No assertion failure was found within the bound.
    Pass {
        /// Whether the search was exhaustive or randomised.
        method: CheckMethod,
        /// Number of sequences simulated.
        sequences: usize,
    },
    /// At least one assertion failed; the witness stimulus and failures are returned.
    Fail {
        /// Whether the search was exhaustive or randomised.
        method: CheckMethod,
        /// The first counterexample stimulus found.
        witness: Vec<InputVector>,
        /// The assertion failures observed on the witness.
        failures: Vec<AssertionFailure>,
    },
    /// The design could not be simulated (elaboration error or combinational loop).
    Unverifiable {
        /// Description of the problem.
        reason: String,
    },
}

impl Verdict {
    /// Returns `true` for [`Verdict::Pass`].
    pub fn passed(&self) -> bool {
        matches!(self, Verdict::Pass { .. })
    }

    /// Returns `true` for [`Verdict::Fail`].
    pub fn failed(&self) -> bool {
        matches!(self, Verdict::Fail { .. })
    }

    /// The failures of a failing verdict (empty otherwise).
    pub fn failures(&self) -> &[AssertionFailure] {
        match self {
            Verdict::Fail { failures, .. } => failures,
            _ => &[],
        }
    }
}

/// Bounded assertion checker.
#[derive(Debug, Clone, Default)]
pub struct BoundedChecker {
    config: CheckConfig,
}

impl BoundedChecker {
    /// Creates a checker with the given configuration.
    pub fn new(config: CheckConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &CheckConfig {
        &self.config
    }

    /// Checks every assertion of a module within the bound.
    ///
    /// Designs without assertions trivially pass (zero sequences are simulated).
    pub fn check_module(&self, module: &Module) -> Verdict {
        let design = match Design::elaborate(module) {
            Ok(d) => d,
            Err(e) => {
                return Verdict::Unverifiable {
                    reason: e.to_string(),
                }
            }
        };
        self.check_design(&design)
    }

    /// Checks every assertion of an elaborated design within the bound.
    ///
    /// A failing verdict carries its witness: the first failing sequence in
    /// canonical order, replayed once to record its inputs and failures.
    pub fn check_design(&self, design: &Design) -> Verdict {
        self.check_design_counted(design).0
    }

    /// [`BoundedChecker::check_design`], also reporting the work the sweep did.
    pub fn check_design_counted(&self, design: &Design) -> (Verdict, SweepWork) {
        let mut work = SweepWork::default();
        let verdict = match self.sweep(design, true, &mut work) {
            Ok(verdict) => verdict,
            Err(SimError::CombinationalLoop { module }) => Verdict::Unverifiable {
                reason: format!("combinational loop in module `{module}`"),
            },
            Err(other) => Verdict::Unverifiable {
                reason: other.to_string(),
            },
        };
        (verdict, work)
    }

    /// Whether every assertion of the design holds within the bound: exactly
    /// `check_design(design).passed()`, without the verdict.
    ///
    /// The same search or plain loop runs, and stops at the first edge or
    /// sequence on which an assertion fails or the design cannot be simulated.
    /// No witness is replayed, no input vector built and no failure recorded:
    /// this is the question a repair's judge asks
    /// ([`crate::VerifyOracle::repair_solves_failure`]).
    pub fn passes(&self, design: &Design) -> bool {
        let verdict = self.sweep(design, false, &mut SweepWork::default());
        matches!(verdict, Ok(Verdict::Pass { .. }))
    }

    /// Chooses the stimuli and runs them; with `witness` off, a bad sequence
    /// ends the run as a `Fail` with no witness and no failures (see [`run`]).
    fn sweep(
        &self,
        design: &Design,
        witness: bool,
        work: &mut SweepWork,
    ) -> Result<Verdict, SimError> {
        if !design.has_assertions() {
            return Ok(Verdict::Pass {
                method: CheckMethod::Exhaustive,
                sequences: 0,
            });
        }
        // Make sure the unrolling is deep enough for the longest look-ahead.
        let depth = self
            .config
            .depth
            .max(design.max_property_horizon() as usize + 4);

        let (method, stimuli) =
            if stimulus::exhaustive_is_tractable(design, depth, self.config.max_exhaustive_bits) {
                (CheckMethod::Exhaustive, Stimuli::exhaustive(design, depth))
            } else {
                (
                    CheckMethod::Randomised,
                    Stimuli::random(design, depth, self.config.random_cases, self.config.seed),
                )
            };
        run(design, method, stimuli, FRONTIER_BYTES, witness, work)
    }
}

/// What a check simulated: the count pin of the search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepWork {
    /// Sequences the verdict accounts for: every one for a pass, those up to and
    /// including the witness for a fail, those before the one that could not be
    /// simulated for an unverifiable design.
    pub sequences: usize,
    /// Clock cycles stepped, by the search, the replay of its witness and the plain
    /// loop alike.
    pub cycles: u64,
    /// Keys the search of an exhaustive check kept: distinct (layer, state, window)
    /// triples of every layer but the last.
    pub keys: usize,
}

/// Memory the frontier of a search may take before the check falls back to the plain
/// loop; the only budget outside this module's tests.
const FRONTIER_BYTES: usize = 64 << 20;

/// Checks the stimuli: an enumeration by the search, falling back to the plain loop
/// if its frontier outgrows `budget` bytes; a random set by the plain loop.
///
/// With `witness` off, the first sequence (or edge of the search) on which an
/// assertion fails ends the run with a `Fail` that records nothing: no witness,
/// no failures, and no smallest candidate sought.
fn run(
    design: &Design,
    method: CheckMethod,
    mut stimuli: Stimuli,
    budget: usize,
    witness: bool,
    work: &mut SweepWork,
) -> Result<Verdict, SimError> {
    let mut bench = Bench {
        engine: Engine::new(design),
        inputs: stimuli
            .columns()
            .iter()
            .map(|column| design.input_slot(column.name))
            .collect(),
        slots: design.slot_count(),
        depth: stimuli.depth(),
        rows: Vec::new(),
        state: Vec::new(),
    };
    if method == CheckMethod::Exhaustive {
        let power_up = bench.engine.power_up()?;
        let searched = search(
            design, &mut bench, &stimuli, &power_up, budget, witness, work,
        )?;
        if let Some(verdict) = searched {
            return Ok(verdict);
        }
    }
    let mut power_up: Option<Vec<Value>> = None;
    let mut values = Vec::new();
    while stimuli.next_into(&mut values) {
        // A design whose reset state does not settle fails its first sequence, and a
        // sweep of no sequences never finds out: the order the plain loop had.
        let power_up = match &power_up {
            Some(state) => state,
            None => power_up.insert(bench.engine.power_up()?),
        };
        bench.simulate(power_up, &values, work)?;
        work.sequences += 1;
        if !witness {
            if !bench.holds() {
                return Ok(unrecorded_fail(method));
            }
            continue;
        }
        let failures = bench.failures();
        if !failures.is_empty() {
            return Ok(Verdict::Fail {
                method,
                witness: stimuli.vectors(&values),
                failures,
            });
        }
    }
    Ok(Verdict::Pass {
        method,
        sequences: work.sequences,
    })
}

/// A bad sequence found with `witness` off (see [`run`]).
fn unrecorded_fail(method: CheckMethod) -> Verdict {
    Verdict::Fail {
        method,
        witness: Vec::new(),
        failures: Vec::new(),
    }
}

/// The search of an exhaustive check (see the module docs); `None` if its frontier
/// outgrew `budget` bytes.  With `witness` off it stops at the first bad edge.
fn search(
    design: &Design,
    bench: &mut Bench,
    stimuli: &Stimuli,
    power_up: &[Value],
    budget: usize,
    witness: bool,
    work: &mut SweepWork,
) -> Result<Option<Verdict>, SimError> {
    let (depth, bits, slots) = (stimuli.depth(), stimuli.bits(), bench.slots);
    let window = (design.max_property_horizon() as usize)
        .saturating_add(design.max_property_lookback() as usize)
        .min(depth);
    let key_bytes = (window + 1) * slots * std::mem::size_of::<Value>();
    if key_bytes > budget {
        return Ok(None);
    }
    // Layer −1: power-up, no rows, reached by the empty prefix 0.  A key is its rows
    // then its state; frontiers are sorted by their smallest prefix.
    let mut frontier = vec![(0u64, power_up.to_vec())];
    let mut best = u64::MAX;
    let (mut row, mut scratch) = (Vec::new(), Vec::new());
    for cycle in 0..depth {
        let (held, kept) = (cycle.min(window), (cycle + 1).min(window));
        let last = cycle + 1 == depth;
        let shift = cycle as u32 * bits;
        let mut layer: HashMap<Vec<Value>, u64, BuildHasherDefault<KeyHasher>> = HashMap::default();
        'inputs: for input in 0..1u64 << bits {
            row.clear();
            stimuli.exhaustive_row(cycle, input, &mut row);
            for (first, key) in &frontier {
                let sequence = first + (input << shift);
                if sequence >= best {
                    // Every later edge of this layer has a larger number still.
                    break 'inputs;
                }
                // [rows cycle − held ..= cycle − 1 | row cycle | state]: the old state
                // is copied twice, once where the new row goes and once to step.
                scratch.clear();
                scratch.extend_from_slice(key);
                scratch.extend_from_slice(&key[held * slots..]);
                let (rows, state) = scratch.split_at_mut((held + 1) * slots);
                drive(&bench.inputs, state, &row);
                work.cycles += 1;
                let stepped = bench.engine.cycle(state, &mut rows[held * slots..]);
                let window = Window {
                    first: cycle - held,
                    cycles: cycle + 1,
                    slots,
                    values: rows,
                };
                if stepped.is_err() || !bench.engine.holds(&window, cycle) {
                    if !witness {
                        return Ok(Some(unrecorded_fail(CheckMethod::Exhaustive)));
                    }
                    best = sequence;
                    break 'inputs;
                }
                let child = &scratch[(held + 1 - kept) * slots..];
                if !last && !layer.contains_key(child) {
                    if (frontier.len() + layer.len() + 1) * key_bytes > budget {
                        return Ok(None);
                    }
                    layer.insert(child.to_vec(), sequence);
                    work.keys += 1;
                }
            }
        }
        let mut next: Vec<(u64, Vec<Value>)> =
            layer.into_iter().map(|(key, first)| (first, key)).collect();
        next.sort_unstable_by_key(|(first, _)| *first);
        frontier = next;
    }
    if best == u64::MAX {
        work.sequences = 1 << (bits as usize * depth);
        return Ok(Some(Verdict::Pass {
            method: CheckMethod::Exhaustive,
            sequences: work.sequences,
        }));
    }
    let mut values = Vec::new();
    stimuli.decode_into(best, &mut values);
    work.sequences = best as usize;
    bench.simulate(power_up, &values, work)?;
    let failures = bench.failures();
    work.sequences += 1;
    debug_assert!(!failures.is_empty(), "sequence {best} passed its replay");
    Ok(Some(Verdict::Fail {
        method: CheckMethod::Exhaustive,
        witness: stimuli.vectors(&values),
        failures,
    }))
}

/// The engine of a check, where each stimulus column is driven, and the plain
/// loop's buffers: the `depth` rows of the last sequence it stepped and its state.
struct Bench<'d> {
    engine: Engine<'d>,
    inputs: Vec<Option<InputSlot>>,
    slots: usize,
    depth: usize,
    rows: Vec<Value>,
    state: Vec<Value>,
}

/// Drives one cycle's decoded values, one per stimulus column.
fn drive(inputs: &[Option<InputSlot>], state: &mut [Value], values: &[u64]) {
    for (input, value) in inputs.iter().zip(values) {
        if let Some(input) = input {
            input.drive(state, *value);
        }
    }
}

impl Bench<'_> {
    /// Steps one decoded sequence from `power_up` into the row buffer.
    fn simulate(
        &mut self,
        power_up: &[Value],
        values: &[u64],
        work: &mut SweepWork,
    ) -> Result<(), SimError> {
        let (slots, columns) = (self.slots, self.inputs.len());
        self.rows.resize(self.depth * slots, Value::bit(false));
        self.state.clear();
        self.state.extend_from_slice(power_up);
        for cycle in 0..self.depth {
            drive(
                &self.inputs,
                &mut self.state,
                &values[cycle * columns..][..columns],
            );
            work.cycles += 1;
            self.engine
                .cycle(&mut self.state, &mut self.rows[cycle * slots..][..slots])?;
        }
        Ok(())
    }

    /// Every attempt's failure over the sequence stepped last.
    fn failures(&mut self) -> Vec<AssertionFailure> {
        let rows = Window {
            first: 0,
            cycles: self.depth,
            slots: self.slots,
            values: &self.rows,
        };
        self.engine.check(&rows, 0)
    }

    /// Whether no attempt fails over the sequence stepped last.
    fn holds(&mut self) -> bool {
        let rows = Window {
            first: 0,
            cycles: self.depth,
            slots: self.slots,
            values: &self.rows,
        };
        self.engine.holds(&rows, 0)
    }
}

/// Rows `first..cycles` of one sequence, one flat buffer of `slots`-wide rows; the
/// checker never asks for an earlier one (see the module docs).
struct Window<'v> {
    first: usize,
    cycles: usize,
    slots: usize,
    values: &'v [Value],
}

impl Rows for Window<'_> {
    fn cycles(&self) -> usize {
        self.cycles
    }

    fn row(&self, cycle: usize) -> &[Value] {
        &self.values[(cycle - self.first) * self.slots..][..self.slots]
    }
}

/// A multiply-rotate hash for keys.  Every word of a key is a [`Value`]'s bits or
/// width, which no adversary chooses, so SipHash's cost buys nothing here.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes
            .iter()
            .for_each(|byte| self.write_u64(u64::from(*byte)));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
  assert property (valid_out_check);
endmodule
"#;

    fn buggy() -> String {
        GOLDEN.replace(
            "else if (end_cnt) valid_out <= 1;",
            "else if (!end_cnt) valid_out <= 1;",
        )
    }

    #[test]
    fn golden_design_passes_bounded_check() {
        let module = parse_module(GOLDEN).unwrap();
        let verdict = BoundedChecker::default().check_module(&module);
        assert!(verdict.passed(), "unexpected verdict: {verdict:?}");
    }

    #[test]
    fn buggy_design_fails_with_witness() {
        let module = parse_module(&buggy()).unwrap();
        let verdict = BoundedChecker::default().check_module(&module);
        match verdict {
            Verdict::Fail {
                witness, failures, ..
            } => {
                assert!(!witness.is_empty());
                assert!(!failures.is_empty());
                assert_eq!(failures[0].assertion, "valid_out_check");
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn design_without_assertions_trivially_passes() {
        let module = parse_module(
            "module m(input clk, input a, output reg q);\n  always @(posedge clk) q <= a;\nendmodule",
        )
        .unwrap();
        let verdict = BoundedChecker::default().check_module(&module);
        assert_eq!(
            verdict,
            Verdict::Pass {
                method: CheckMethod::Exhaustive,
                sequences: 0
            }
        );
    }

    #[test]
    fn combinational_loop_is_unverifiable() {
        let module = parse_module(
            r#"
module loopy(input clk, input a, output y);
  assign y = !y;
  property p;
    @(posedge clk) a |-> y;
  endproperty
  assert property (p);
endmodule
"#,
        )
        .unwrap();
        let verdict = BoundedChecker::default().check_module(&module);
        assert!(matches!(verdict, Verdict::Unverifiable { .. }));
    }

    #[test]
    fn wide_design_uses_randomised_method() {
        let module = parse_module(
            r#"
module wide(input clk, input rst_n, input [31:0] a, input [31:0] b, output reg [31:0] sum);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) sum <= 32'd0;
    else sum <= a + b;
  end
  property sum_matches;
    @(posedge clk) disable iff (!rst_n) 1 |=> sum == $past(a) + $past(b);
  endproperty
  assert property (sum_matches);
endmodule
"#,
        )
        .unwrap();
        let verdict = BoundedChecker::default().check_module(&module);
        match verdict {
            Verdict::Pass { method, sequences } => {
                assert_eq!(method, CheckMethod::Randomised);
                assert!(sequences > 0);
            }
            other => panic!("expected randomised pass, got {other:?}"),
        }
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

    /// A depth-12 exhaustive check whose search may keep `bytes` of frontier.
    fn checked(design: &Design, bytes: usize) -> (Verdict, SweepWork) {
        let stimuli = Stimuli::exhaustive(design, 12);
        let mut work = SweepWork::default();
        let verdict = run(
            design,
            CheckMethod::Exhaustive,
            stimuli,
            bytes,
            true,
            &mut work,
        );
        (verdict.expect("the latch settles"), work)
    }

    /// A budget too small for the frontier falls back to the plain loop: the same
    /// verdicts and sequences, the cycles of both.
    #[test]
    fn a_search_over_budget_falls_back_to_the_plain_loop() {
        for limit in ["4'd15", "4'd9", "4'd4"] {
            let module = parse_module(&LATCH.replace("LIMIT", limit)).unwrap();
            let design = Design::elaborate(&module).unwrap();
            // One free bit, a window of one row: a key is two slot rows.
            let key_bytes = 2 * design.slot_count() * std::mem::size_of::<Value>();
            let (verdict, searched) = checked(&design, FRONTIER_BYTES);
            let (plain_verdict, plain) = checked(&design, 0);
            let (capped_verdict, capped) = checked(&design, 6 * key_bytes);
            assert_eq!(plain_verdict, verdict, "{limit}");
            assert_eq!(capped_verdict, verdict, "{limit}");
            assert_eq!(plain.sequences, searched.sequences, "{limit}");
            assert_eq!(capped.sequences, searched.sequences, "{limit}");
            // No room for even power-up is the plain loop alone; room for a few keys
            // is part of a search, then the plain loop.
            assert_eq!(plain.keys, 0, "{limit}");
            assert_eq!(plain.cycles, plain.sequences as u64 * 12, "{limit}");
            assert!(
                capped.keys > 0 && capped.keys < searched.keys,
                "{limit}: {capped:?}"
            );
            assert!(capped.cycles > plain.cycles, "{limit}: {capped:?}");
            assert!(searched.cycles * 4 < plain.cycles, "{limit}: {searched:?}");
        }
    }

    #[test]
    fn verdict_helpers() {
        let pass = Verdict::Pass {
            method: CheckMethod::Exhaustive,
            sequences: 3,
        };
        assert!(pass.passed());
        assert!(!pass.failed());
        assert!(pass.failures().is_empty());
    }

    #[test]
    fn fingerprint_covers_every_field() {
        let base = CheckConfig::default();
        assert_eq!(base.fingerprint(), CheckConfig::default().fingerprint());
        let variants = [
            CheckConfig {
                depth: base.depth + 1,
                ..base.clone()
            },
            CheckConfig {
                max_exhaustive_bits: base.max_exhaustive_bits + 1,
                ..base.clone()
            },
            CheckConfig {
                random_cases: base.random_cases + 1,
                ..base.clone()
            },
            CheckConfig {
                seed: base.seed + 1,
                ..base.clone()
            },
        ];
        for variant in variants {
            assert_ne!(
                base.fingerprint(),
                variant.fingerprint(),
                "every CheckConfig field must change the fingerprint"
            );
        }
    }
}
