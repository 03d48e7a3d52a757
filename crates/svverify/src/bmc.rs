//! Bounded checking of concurrent assertions.
//!
//! [`BoundedChecker`] plays the role SymbiYosys plays in the paper's pipeline: it
//! answers, for a bounded depth, whether a design's assertions can be violated.  Small
//! designs are checked exhaustively over every input sequence; larger ones fall back
//! to a seeded randomised sweep (documented as a substitution in DESIGN.md).
//!
//! ## How a sweep runs
//!
//! Sequences are visited in canonical order — `e = 0, 1, 2, …` for an exhaustive
//! sweep, draw order for a random one — and the first one on which an assertion fails
//! is the verdict's witness.  Nothing is built ahead of the sequence being simulated:
//! [`Stimuli`] decodes sequence `e` from its number when it is reached, and only the
//! witness is ever turned into [`InputVector`]s.
//!
//! An exhaustive sweep is *prefix-resumed*.  Cycle `c` of sequence `e` is a bit field
//! of `e` with cycle 0 in the lowest bits, so the first `k` cycles of `e` are the
//! first `k` cycles of `e mod 2^(k·bits)` — a smaller number, hence a sequence already
//! visited — for the largest `k` with `e ≥ 2^(k·bits)`.  The sweep keeps, for every
//! prefix it has simulated, the sampled row of the prefix's last cycle and the state
//! after it (at most `2·2^(depth·bits)` entries of two slot rows each), restores the
//! state of the longest prefix of `e` and simulates only the cycles after it: a full
//! depth-12 sweep over one free bit steps 8 190 cycles, not 49 152.  Rows of the
//! shared cycles are read where the earlier sequence left them.
//!
//! Resuming cannot change a verdict.  The order of visits is untouched, the rows of a
//! sequence are the rows the plain loop would have recorded (same engine, same
//! inputs, same state), and the only evaluations skipped are assertion attempts that
//! cannot read past the shared prefix: an attempt reads no row later than its start
//! plus the property's look-ahead, so it saw exactly the same rows in the earlier
//! sequence, which was checked in full and did not fail — or the sweep would have
//! stopped there.  The plain "build the whole set, then for each stimulus: run, check"
//! loop this replaced lives on as the reference checker of
//! `tests/checker_vs_reference.rs`, which compares verdicts field for field and holds
//! [`Stimuli`] equal to the eager builders it keeps.

use crate::stimulus::{self, Stimuli};
use serde::{Deserialize, Serialize};
use svparse::Module;
use svsim::{AssertionFailure, Design, Engine, InputVector, Rows, SimError, Value};

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
    /// A configuration with a specific unrolling depth and otherwise default limits.
    pub fn with_depth(depth: usize) -> Self {
        Self {
            depth,
            ..Self::default()
        }
    }

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
    pub fn check_design(&self, design: &Design) -> Verdict {
        self.check_design_counted(design).0
    }

    /// [`BoundedChecker::check_design`], also reporting the work the sweep did.
    pub fn check_design_counted(&self, design: &Design) -> (Verdict, SweepWork) {
        let mut work = SweepWork::default();
        if !design.has_assertions() {
            let verdict = Verdict::Pass {
                method: CheckMethod::Exhaustive,
                sequences: 0,
            };
            return (verdict, work);
        }
        // Make sure the unrolling is deep enough for the longest look-ahead.
        let depth = self
            .config
            .depth
            .max(design.max_property_horizon() as usize + 4);

        let (method, mut stimuli) =
            if stimulus::exhaustive_is_tractable(design, depth, self.config.max_exhaustive_bits) {
                (CheckMethod::Exhaustive, Stimuli::exhaustive(design, depth))
            } else {
                (
                    CheckMethod::Randomised,
                    Stimuli::random(design, depth, self.config.random_cases, self.config.seed),
                )
            };
        let verdict = match sweep(design, method, &mut stimuli, PREFIX_STORE_BYTES, &mut work) {
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
}

/// What a sweep simulated: the count pin of prefix sharing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepWork {
    /// Sequences visited, the failing one included.
    pub sequences: usize,
    /// Clock cycles stepped; a sequence resumed from a shared prefix steps only the
    /// cycles after it.
    pub cycles: u64,
}

/// Visits the sequences in order until one fails an assertion or cannot be simulated;
/// the prefix store may take `store_bytes`.
fn sweep(
    design: &Design,
    method: CheckMethod,
    stimuli: &mut Stimuli,
    store_bytes: usize,
    work: &mut SweepWork,
) -> Result<Verdict, SimError> {
    let depth = stimuli.depth();
    let inputs: Vec<_> = stimuli
        .columns()
        .iter()
        .map(|column| design.input_slot(&column.name))
        .collect();
    // Only an enumeration has prefixes in common; a random sweep shares nothing.
    let shared_bits = match method {
        CheckMethod::Exhaustive => stimuli.bits(),
        CheckMethod::Randomised => 0,
    };
    let mut engine = Engine::new(design);
    let mut prefixes = PrefixStore::new(design.slot_count(), depth, shared_bits, store_bytes);
    let mut power_up: Option<Vec<Value>> = None;
    let mut state = Vec::new();
    let mut values = Vec::new();
    while stimuli.next_into(&mut values) {
        let sequence = work.sequences as u64;
        // A design whose reset state does not settle fails its first sequence, and a
        // sweep of no sequences never finds out: the order the plain loop had.
        let power_up = match &power_up {
            Some(state) => &state[..],
            None => &power_up.insert(engine.power_up()?)[..],
        };
        let resumed = prefixes.longest_prefix(sequence);
        state.clear();
        state.extend_from_slice(prefixes.state_after(sequence, resumed).unwrap_or(power_up));
        for cycle in resumed..depth {
            let row = &values[cycle * inputs.len()..][..inputs.len()];
            for (input, value) in inputs.iter().zip(row) {
                if let Some(input) = input {
                    input.drive(&mut state, *value);
                }
            }
            engine.cycle(&mut state, prefixes.row_mut(cycle))?;
            prefixes.keep_state(cycle, &state);
        }
        work.sequences += 1;
        work.cycles += (depth - resumed) as u64;
        let failures = engine.check(&prefixes.rows_of(sequence), resumed);
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

/// Memory the prefix store of a check may take before it stops keeping longer
/// prefixes; the only budget outside this module's tests.
const PREFIX_STORE_BYTES: usize = 64 << 20;

/// The sampled rows and post-cycle states of every stimulus prefix simulated so far.
///
/// Level `j` holds one entry per prefix of `j` cycles — the row sampled in cycle
/// `j - 1` and the state after it — at the index of the prefix's number, which is
/// the order the sweep produces them in.  Levels are kept for `j = 1..=kept`; rows of
/// later cycles belong to the sequence being simulated alone and live in `tail`.
struct PrefixStore {
    slots: usize,
    depth: usize,
    bits: u32,
    kept: usize,
    levels: Vec<Vec<Value>>,
    tail: Vec<Value>,
}

impl PrefixStore {
    fn new(slots: usize, depth: usize, bits: u32, bytes: usize) -> Self {
        // Level `j` has 2^(j·bits) entries and levels double, so the longest kept one
        // is half the store; prefixes of the full depth are never resumed from.
        let entry_bytes = 2 * slots.max(1) * std::mem::size_of::<Value>();
        let longest = (bytes / 2 / entry_bytes).checked_ilog2().unwrap_or(0);
        let kept = match bits {
            0 => 0,
            bits => ((longest / bits) as usize).min(depth.saturating_sub(1)),
        };
        Self {
            slots,
            depth,
            bits,
            kept,
            levels: vec![Vec::new(); kept],
            tail: vec![Value::bit(false); (depth - kept) * slots],
        }
    }

    /// The number of the `level`-cycle prefix of a sequence.
    fn prefix(&self, sequence: u64, level: usize) -> usize {
        (sequence & ((1u64 << (level as u32 * self.bits)) - 1)) as usize
    }

    /// How many leading cycles of the sequence an earlier sequence already simulated:
    /// the largest kept `k` with `sequence ≥ 2^(k·bits)`.
    fn longest_prefix(&self, sequence: u64) -> usize {
        match sequence.checked_ilog2() {
            Some(top_bit) if self.bits > 0 => ((top_bit / self.bits) as usize).min(self.kept),
            _ => 0,
        }
    }

    fn entry(&self, sequence: u64, level: usize) -> &[Value] {
        &self.levels[level - 1][self.prefix(sequence, level) * 2 * self.slots..][..2 * self.slots]
    }

    /// The state after the first `level` cycles of the sequence; `None` for level 0.
    fn state_after(&self, sequence: u64, level: usize) -> Option<&[Value]> {
        (level > 0).then(|| &self.entry(sequence, level)[self.slots..])
    }

    /// Where the row sampled in `cycle` of the sequence being simulated goes.
    fn row_mut(&mut self, cycle: usize) -> &mut [Value] {
        if cycle < self.kept {
            let level = &mut self.levels[cycle];
            let start = level.len();
            level.resize(start + 2 * self.slots, Value::bit(false));
            &mut level[start..start + self.slots]
        } else {
            &mut self.tail[(cycle - self.kept) * self.slots..][..self.slots]
        }
    }

    /// Completes the entry [`PrefixStore::row_mut`] opened for `cycle`, if it is kept.
    fn keep_state(&mut self, cycle: usize, state: &[Value]) {
        if cycle < self.kept {
            let level = &mut self.levels[cycle];
            let start = level.len() - self.slots;
            level[start..].copy_from_slice(state);
        }
    }

    fn rows_of(&self, sequence: u64) -> SequenceRows<'_> {
        SequenceRows {
            store: self,
            sequence,
        }
    }
}

/// The rows of one sequence: shared cycles from the store, the rest from its tail.
struct SequenceRows<'s> {
    store: &'s PrefixStore,
    sequence: u64,
}

impl Rows for SequenceRows<'_> {
    fn cycles(&self) -> usize {
        self.store.depth
    }

    fn row(&self, cycle: usize) -> &[Value] {
        let store = self.store;
        if cycle < store.kept {
            &store.entry(self.sequence, cycle + 1)[..store.slots]
        } else {
            &store.tail[(cycle - store.kept) * store.slots..][..store.slots]
        }
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

    /// A depth-12 exhaustive sweep under a prefix store of `bytes`.
    fn swept(design: &Design, bytes: usize) -> (Verdict, SweepWork) {
        let mut stimuli = Stimuli::exhaustive(design, 12);
        let mut work = SweepWork::default();
        let verdict = sweep(
            design,
            CheckMethod::Exhaustive,
            &mut stimuli,
            bytes,
            &mut work,
        );
        (verdict.expect("the latch settles"), work)
    }

    /// A store too small for every level resumes from the deepest one it kept: the
    /// same verdicts, fewer cycles saved.
    #[test]
    fn a_capped_prefix_store_resumes_from_shallower_prefixes() {
        for limit in ["4'd15", "4'd9"] {
            let module = parse_module(&LATCH.replace("LIMIT", limit)).unwrap();
            let design = Design::elaborate(&module).unwrap();
            let slots = design.slot_count();
            let entry_bytes = 2 * slots * std::mem::size_of::<Value>();
            let runs: Vec<(Verdict, SweepWork)> = [0, 1, 6, 11]
                .into_iter()
                .map(|levels| {
                    let bytes = (2 * entry_bytes) << levels;
                    assert_eq!(PrefixStore::new(slots, 12, 1, bytes).kept, levels);
                    swept(&design, bytes)
                })
                .collect();
            let (verdict, work) = &runs[0];
            for (other_verdict, other_work) in &runs {
                assert_eq!(other_verdict, verdict, "{limit}");
                assert_eq!(other_work.sequences, work.sequences, "{limit}");
            }
            assert!(
                runs.windows(2)
                    .all(|pair| pair[1].1.cycles <= pair[0].1.cycles),
                "{limit}: {runs:?}"
            );
            // No level kept is the plain loop; the production budget keeps them all.
            assert_eq!(work.cycles, work.sequences as u64 * 12, "{limit}");
            assert_eq!(swept(&design, PREFIX_STORE_BYTES), runs[3], "{limit}");
            if verdict.passed() {
                assert_eq!(
                    runs[0].1,
                    SweepWork {
                        sequences: 4096,
                        cycles: 49_152
                    }
                );
                assert_eq!(
                    runs[3].1,
                    SweepWork {
                        sequences: 4096,
                        cycles: 8_190
                    }
                );
            } else {
                // `ones <= 9` fails only late, after more than a thousand sequences.
                assert!(verdict.failed() && work.sequences > 1000, "{runs:?}");
            }
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
