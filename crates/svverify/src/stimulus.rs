//! Stimulus generation for bounded checking.
//!
//! Two strategies are provided:
//!
//! * **exhaustive** — enumerate every input sequence up to a depth, used when the
//!   total number of driven input bits is small enough;
//! * **randomised** — seeded random sequences with a directed reset prefix, used for
//!   wider designs.
//!
//! Every sequence starts with the asynchronous reset (if any) asserted for one cycle
//! and released afterwards, which is how the paper's SymbiYosys flow constrains its
//! checks (reset assumptions).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use svsim::value::mask;
use svsim::{Design, InputVector};

/// The most decision bits an exhaustive enumeration may span, whatever the
/// configuration asks for: sequences are numbered in a `u64` and 2^24 of them is
/// already hours of simulation.
pub const MAX_EXHAUSTIVE_BITS: u32 = 24;

/// Description of one primary input to drive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrivenInput {
    /// Signal name.
    pub name: String,
    /// Bit width.
    pub width: u32,
}

/// Collects the inputs of a design that the stimulus generator must drive, excluding
/// the clock (implicit) but including the reset.
pub fn driven_inputs(design: &Design) -> Vec<DrivenInput> {
    design
        .inputs
        .iter()
        .map(|name| DrivenInput {
            name: name.clone(),
            width: design.width(name),
        })
        .collect()
}

/// Total number of input bits driven per cycle.
pub fn input_bits(design: &Design) -> u32 {
    design.inputs.iter().map(|name| design.width(name)).sum()
}

/// The inputs other than the reset, in port order.
fn free_inputs(design: &Design) -> impl Iterator<Item = &String> {
    design
        .inputs
        .iter()
        .filter(|name| Some(*name) != design.reset_n.as_ref())
}

/// Decision bits per cycle of an exhaustive enumeration: every input but the reset.
fn free_bits(design: &Design) -> u64 {
    free_inputs(design)
        .map(|name| u64::from(design.width(name)))
        .sum()
}

/// Returns `true` if exhaustive enumeration up to `depth` cycles is tractable.
///
/// The limit is expressed in total decision bits (`input bits × depth`, with the reset
/// held by the directed prefix and therefore excluded from the budget), and is never
/// more than [`MAX_EXHAUSTIVE_BITS`] however large `max_bits` is.
pub fn exhaustive_is_tractable(design: &Design, depth: usize, max_bits: u32) -> bool {
    // The budget assumes the reset is a one-bit port; the enumeration spans the
    // inputs that are not the reset, which is more when it is not.  Both must fit.
    let reset_bits = u32::from(design.reset_n.is_some());
    let budgeted = u64::from(input_bits(design).saturating_sub(reset_bits)) * depth as u64;
    let enumerated = free_bits(design) * depth as u64;
    budgeted <= u64::from(max_bits.min(MAX_EXHAUSTIVE_BITS))
        && enumerated <= u64::from(MAX_EXHAUSTIVE_BITS)
}

/// A stimulus set that is never built: sequences are decoded one at a time, as plain
/// integers, and only become [`InputVector`]s when asked to.
///
/// A sequence is `depth` rows of one value per driven column — the reset first, when
/// the design has one, then the other inputs in port order.  An exhaustive set
/// numbers its sequences `e = 0, 1, 2, …`: the value of a column at a cycle is a bit
/// field of `e`, cycle 0 in the lowest bits.  A random set draws its values from a
/// seeded generator in sequence order.
#[derive(Debug, Clone)]
pub struct Stimuli {
    columns: Vec<DrivenInput>,
    has_reset: bool,
    depth: usize,
    next: u64,
    count: u64,
    /// `None` enumerates; `Some` draws.
    rng: Option<StdRng>,
}

impl Stimuli {
    fn new(design: &Design, depth: usize, count: u64, rng: Option<StdRng>) -> Self {
        let columns = design.reset_n.iter().chain(free_inputs(design));
        Self {
            columns: columns
                .map(|name| DrivenInput {
                    name: name.clone(),
                    width: design.width(name),
                })
                .collect(),
            has_reset: design.reset_n.is_some(),
            depth,
            next: 0,
            count,
            rng,
        }
    }

    /// Every input sequence of length `depth` over the non-reset inputs, with the
    /// reset held low on cycle 0 and high afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the enumeration spans more than [`MAX_EXHAUSTIVE_BITS`] bits; callers
    /// are expected to check [`exhaustive_is_tractable`] first.
    pub fn exhaustive(design: &Design, depth: usize) -> Self {
        let total_bits = free_bits(design) * depth as u64;
        assert!(
            total_bits <= u64::from(MAX_EXHAUSTIVE_BITS),
            "exhaustive enumeration over {total_bits} bits is intractable"
        );
        Self::new(design, depth, 1u64 << total_bits, None)
    }

    /// `count` seeded random sequences of length `depth`.
    ///
    /// Sequence 0 is fully directed: reset on cycle 0, all other inputs exercised with
    /// a walking pattern, which catches the common "never triggered the antecedent"
    /// issue cheaply.  The remaining sequences are uniformly random with the reset
    /// released after cycle 0 (one in eight sequences also pulses reset mid-run to
    /// exercise the `disable iff` paths).
    pub fn random(design: &Design, depth: usize, count: usize, seed: u64) -> Self {
        let rng = StdRng::seed_from_u64(seed);
        Self::new(design, depth, count as u64, Some(rng))
    }

    /// The driven columns: the reset, if any, then the other inputs in port order.
    pub fn columns(&self) -> &[DrivenInput] {
        &self.columns
    }

    /// Cycles per sequence.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Decision bits per cycle (the widths of the non-reset columns): the first `k`
    /// cycles of sequence `e` of an exhaustive set are the first `k` cycles of
    /// sequence `e mod 2^(k·bits)`.
    pub(crate) fn bits(&self) -> u32 {
        self.columns[usize::from(self.has_reset)..]
            .iter()
            .map(|column| column.width)
            .sum()
    }

    /// Decodes the next sequence into `values`, row-major (`depth` × [`Stimuli::columns`]),
    /// or returns `false` when the set is exhausted.
    pub fn next_into(&mut self, values: &mut Vec<u64>) -> bool {
        if self.next == self.count {
            return false;
        }
        let case = self.next;
        self.next += 1;
        values.clear();
        let pulse_reset_mid = self.rng.is_some() && case % 8 == 7 && self.depth > 4;
        let mut cursor = 0u32;
        for cycle in 0..self.depth {
            if self.has_reset {
                let mid_pulse = pulse_reset_mid && cycle == self.depth / 2;
                values.push(u64::from(cycle > 0 && !mid_pulse));
            }
            for column in &self.columns[usize::from(self.has_reset)..] {
                let value = match &mut self.rng {
                    None => {
                        cursor += column.width;
                        case >> (cursor - column.width)
                    }
                    // Directed pattern: walk ones / saturate small signals.
                    Some(_) if case == 0 => match column.width {
                        1 => u64::from(cycle % 2 == 1 || cycle % 3 == 1),
                        _ => ((cycle as u64) + 1).wrapping_mul(3),
                    },
                    Some(rng) => rng.gen::<u64>(),
                };
                values.push(value & mask(column.width));
            }
        }
        true
    }

    /// A decoded sequence as the name-keyed vectors the public simulator takes.
    pub fn vectors(&self, values: &[u64]) -> Vec<InputVector> {
        let mut values = values.iter();
        (0..self.depth)
            .map(|_| {
                let mut vector = InputVector::new();
                for (column, value) in self.columns.iter().zip(&mut values) {
                    vector.insert(column.name.clone(), *value);
                }
                vector
            })
            .collect()
    }
}

impl Iterator for Stimuli {
    type Item = Vec<InputVector>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut values = Vec::new();
        self.next_into(&mut values).then(|| self.vectors(&values))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.count - self.next) as usize;
        (left, Some(left))
    }
}

/// Generates every input sequence of length `depth` over the non-reset inputs, with
/// the reset held low on cycle 0 and high afterwards.
///
/// # Panics
///
/// Panics if the enumeration would exceed 2^24 sequences; callers are expected to
/// check [`exhaustive_is_tractable`] first.
pub fn exhaustive_stimuli(design: &Design, depth: usize) -> Vec<Vec<InputVector>> {
    Stimuli::exhaustive(design, depth).collect()
}

/// Generates `count` seeded random sequences of length `depth`; see
/// [`Stimuli::random`] for their shape.
pub fn random_stimuli(
    design: &Design,
    depth: usize,
    count: usize,
    seed: u64,
) -> Vec<Vec<InputVector>> {
    Stimuli::random(design, depth, count, seed).collect()
}

/// A reset-then-constant stimulus useful for smoke tests and examples.
pub fn reset_then_constant(
    design: &Design,
    depth: usize,
    constants: &BTreeMap<String, u64>,
) -> Vec<InputVector> {
    let inputs = driven_inputs(design);
    let reset = design.reset_n.clone();
    (0..depth)
        .map(|cycle| {
            let mut vector = InputVector::new();
            if let Some(rst) = &reset {
                vector.insert(rst.clone(), u64::from(cycle > 0));
            }
            for input in inputs.iter().filter(|i| Some(&i.name) != reset.as_ref()) {
                let value = constants.get(&input.name).copied().unwrap_or(1);
                vector.insert(input.name.clone(), value & mask(input.width));
            }
            vector
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use svparse::parse_module;
    use svsim::Design;

    const SRC: &str = r#"
module dut(input clk, input rst_n, input en, input [1:0] mode, output reg [3:0] q);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) q <= 4'd0;
    else if (en) q <= q + {2'd0, mode};
  end
endmodule
"#;

    fn design() -> Design {
        Design::elaborate(&parse_module(SRC).unwrap()).unwrap()
    }

    #[test]
    fn driven_inputs_exclude_clock() {
        let d = design();
        let names: Vec<String> = driven_inputs(&d).into_iter().map(|i| i.name).collect();
        assert_eq!(names, vec!["rst_n", "en", "mode"]);
        assert_eq!(input_bits(&d), 4);
    }

    #[test]
    fn tractability_check() {
        let d = design();
        assert!(exhaustive_is_tractable(&d, 4, 16));
        assert!(!exhaustive_is_tractable(&d, 10, 16));
    }

    #[test]
    fn tractability_is_capped_whatever_the_configuration_asks() {
        // 3 free bits × 10 cycles = 30 bits: inside a budget of 32 or 64, beyond what
        // `exhaustive_stimuli` enumerates.
        let d = design();
        for max_bits in [32, 64, u32::MAX] {
            assert!(!exhaustive_is_tractable(&d, 10, max_bits));
            assert!(exhaustive_is_tractable(&d, 8, max_bits));
        }
    }

    #[test]
    fn exhaustive_covers_all_sequences() {
        let d = design();
        let seqs = exhaustive_stimuli(&d, 2);
        // 3 free bits per cycle × 2 cycles = 64 sequences.
        assert_eq!(seqs.len(), 64);
        for seq in &seqs {
            assert_eq!(seq.len(), 2);
            assert_eq!(seq[0].get("rst_n"), Some(&0));
            assert_eq!(seq[1].get("rst_n"), Some(&1));
        }
        // All distinct.
        let mut rendered: Vec<String> = seqs.iter().map(|s| format!("{s:?}")).collect();
        rendered.sort();
        rendered.dedup();
        assert_eq!(rendered.len(), 64);
    }

    #[test]
    fn random_stimuli_are_deterministic_per_seed() {
        let d = design();
        let a = random_stimuli(&d, 8, 16, 42);
        let b = random_stimuli(&d, 8, 16, 42);
        let c = random_stimuli(&d, 8, 16, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 16);
        assert!(a.iter().all(|s| s.len() == 8));
    }

    #[test]
    fn random_stimuli_respect_widths() {
        let d = design();
        for seq in random_stimuli(&d, 8, 8, 1) {
            for vector in seq {
                assert!(vector.get("mode").copied().unwrap_or(0) <= 3);
                assert!(vector.get("en").copied().unwrap_or(0) <= 1);
            }
        }
    }

    #[test]
    fn reset_then_constant_shapes() {
        let d = design();
        let stim = reset_then_constant(&d, 5, &BTreeMap::from([("mode".to_string(), 2u64)]));
        assert_eq!(stim.len(), 5);
        assert_eq!(stim[0].get("rst_n"), Some(&0));
        assert_eq!(stim[4].get("rst_n"), Some(&1));
        assert_eq!(stim[3].get("mode"), Some(&2));
    }
}
