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
//! A sweep powers the design up once.  Every sequence then starts from a copy of that
//! state, is driven cycle by cycle through slots resolved before the first sequence
//! ([`Design::input_slot`]) — no name is looked up and no map is built while it runs —
//! and records its rows into one [`Trace`] that is cleared, not dropped, between
//! sequences.  Every assertion attempt of every sequence is evaluated.
//!
//! The plain "build the whole set, then for each stimulus: run, check" loop this
//! replaced lives on as the reference checker of `tests/checker_vs_reference.rs`,
//! which compares verdicts field for field and holds [`Stimuli`] equal to the eager
//! builders it keeps.  One step is still held back in `docs/pr16-held-back.patch`
//! (ROADMAP item 2 (iii)): resuming an exhaustive sweep from the saved state of the
//! longest stimulus prefix an earlier sequence already simulated.

use crate::stimulus::{self, Stimuli};
use serde::{Deserialize, Serialize};
use svparse::Module;
use svsim::{check_assertions, AssertionFailure, Design, Engine, InputVector, SimError, Trace};

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
        let verdict = match sweep(design, method, &mut stimuli, &mut work) {
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

/// What a sweep simulated: exact counts, for tests to pin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepWork {
    /// Sequences visited, the failing one included.
    pub sequences: usize,
    /// Clock cycles stepped.
    pub cycles: u64,
}

/// Visits the sequences in order until one fails an assertion or cannot be simulated.
fn sweep(
    design: &Design,
    method: CheckMethod,
    stimuli: &mut Stimuli,
    work: &mut SweepWork,
) -> Result<Verdict, SimError> {
    let depth = stimuli.depth();
    let inputs: Vec<_> = stimuli
        .columns()
        .iter()
        .map(|column| design.input_slot(&column.name))
        .collect();
    let mut engine = Engine::new(design);
    let mut trace = Trace::new(design);
    let mut power_up = None;
    let mut state = Vec::new();
    let mut values = Vec::new();
    while stimuli.next_into(&mut values) {
        // A design whose reset state does not settle fails its first sequence, and a
        // sweep of no sequences never finds out: the order the plain loop had.
        let power_up = match &power_up {
            Some(state) => state,
            None => power_up.insert(engine.power_up()?),
        };
        state.clone_from(power_up);
        trace.clear();
        for cycle in 0..depth {
            let row = &values[cycle * inputs.len()..][..inputs.len()];
            for (input, value) in inputs.iter().zip(row) {
                if let Some(input) = input {
                    input.drive(&mut state, *value);
                }
            }
            engine.cycle(&mut state, &mut trace)?;
        }
        work.sequences += 1;
        work.cycles += depth as u64;
        let failures = check_assertions(design, &trace);
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
