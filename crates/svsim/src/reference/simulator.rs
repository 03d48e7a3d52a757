//! The map-based cycle engine: state is a `BTreeMap<String, Value>`, cloned into the
//! trace every cycle.  Kept verbatim as the oracle of [`crate::Simulator`]; see the
//! [module docs](super) for who may call it.

use super::eval::{eval_in_state, exec_stmt, read_state, State};
use crate::elaborate::Design;
use crate::simulator::{InputVector, SimError};
use crate::value::Value;
use std::collections::BTreeMap;
use svparse::Item;

/// Maximum number of sweeps allowed for combinational settling before a loop is
/// reported.
const MAX_SETTLE_ITERATIONS: usize = 64;

/// A recorded simulation trace: one sampled [`State`] per clock cycle.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    samples: Vec<State>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded cycles.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` when no cycles have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The sampled state at the given cycle.
    pub fn sample(&self, cycle: usize) -> Option<&State> {
        self.samples.get(cycle)
    }

    /// The value of a signal at a cycle (zero for unknown signals, `None` past the end).
    pub fn value(&self, name: &str, cycle: usize) -> Option<Value> {
        self.samples.get(cycle).map(|s| read_state(s, name))
    }

    /// The value of a signal `past` cycles before `cycle`, clamping at cycle 0.
    pub(crate) fn value_past(&self, name: &str, cycle: usize, past: u32) -> Value {
        let idx = cycle.saturating_sub(past as usize);
        self.samples
            .get(idx)
            .map(|s| read_state(s, name))
            .unwrap_or_else(|| Value::bit(false))
    }

    /// Appends a sample.
    pub fn push(&mut self, sample: State) {
        self.samples.push(sample);
    }

    /// Iterates over the samples in cycle order.
    pub fn iter(&self) -> impl Iterator<Item = &State> {
        self.samples.iter()
    }
}

/// The interactive simulation engine.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    design: &'a Design,
    /// Every declared signal's width, from the design's symbol table.
    widths: BTreeMap<String, u32>,
    state: State,
    trace: Trace,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with every signal initialised to zero, `initial` blocks
    /// executed, and combinational logic settled.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CombinationalLoop`] if the design's combinational logic has
    /// no fixpoint.
    pub fn new(design: &'a Design) -> Result<Self, SimError> {
        let widths: BTreeMap<String, u32> = (design.symbols.signals())
            .map(|info| (info.name.clone(), info.width))
            .collect();
        let mut state: State = widths
            .iter()
            .map(|(name, width)| (name.clone(), Value::zero(*width)))
            .collect();

        // Execute initial blocks once (blocking semantics).
        let mut deferred = Vec::new();
        for item in &design.module.items {
            if let Item::Initial(block) = item {
                exec_stmt(&block.body, &mut state, &mut deferred, &widths);
            }
        }
        for (name, value) in deferred.drain(..) {
            state.insert(name, value);
        }

        let mut sim = Self {
            design,
            widths,
            state,
            trace: Trace::new(),
        };
        sim.settle()?;
        Ok(sim)
    }

    /// The current (post-step) state.
    pub fn state(&self) -> &State {
        &self.state
    }

    /// The trace of pre-edge samples recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the simulator and returns the recorded trace.
    pub(crate) fn into_trace(self) -> Trace {
        self.trace
    }

    /// Advances the simulation by one clock cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CombinationalLoop`] if combinational logic fails to settle.
    pub fn step(&mut self, inputs: &InputVector) -> Result<(), SimError> {
        // 1. Apply testbench inputs.
        for (name, value) in inputs {
            let width = self.design.width(name);
            self.state.insert(name.clone(), Value::new(*value, width));
        }

        // 2. Settle combinational logic → pre-edge state.
        self.settle()?;

        // 3. Record the SVA sample for this cycle.
        self.trace.push(self.state.clone());

        // 4. Clock edge: run clocked blocks against the pre-edge state, commit
        //    non-blocking updates, settle again.
        let widths = self.widths.clone();
        let mut deferred: Vec<(String, Value)> = Vec::new();
        for block in self.design.module.always_blocks() {
            if block.sensitivity.is_combinational() {
                continue;
            }
            let mut shadow = self.state.clone();
            exec_stmt(&block.body, &mut shadow, &mut deferred, &widths);
        }
        for (name, value) in deferred {
            let width = self.design.width(&name);
            self.state.insert(name, value.resize(width));
        }
        self.settle()?;
        Ok(())
    }

    /// Runs the simulator over a full stimulus, returning the recorded trace.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CombinationalLoop`] if combinational logic fails to settle
    /// at any cycle.
    pub fn run(design: &'a Design, stimulus: &[InputVector]) -> Result<Trace, SimError> {
        let mut sim = Simulator::new(design)?;
        for inputs in stimulus {
            sim.step(inputs)?;
        }
        Ok(sim.into_trace())
    }

    fn settle(&mut self) -> Result<(), SimError> {
        let widths = self.widths.clone();
        for _ in 0..MAX_SETTLE_ITERATIONS {
            let before = self.state.clone();
            for item in &self.design.module.items {
                match item {
                    Item::Assign(assign) => {
                        let value = eval_in_state(&assign.rhs, &self.state);
                        let mut deferred = Vec::new();
                        super::eval::apply_assignment(
                            &assign.lhs,
                            value,
                            &mut self.state,
                            super::eval::AssignMode::Immediate,
                            &mut deferred,
                            &widths,
                        );
                    }
                    Item::Always(block) if block.sensitivity.is_combinational() => {
                        let mut deferred = Vec::new();
                        exec_stmt(&block.body, &mut self.state, &mut deferred, &widths);
                        for (name, value) in deferred {
                            self.state.insert(name, value);
                        }
                    }
                    _ => {}
                }
            }
            if self.state == before {
                return Ok(());
            }
        }
        Err(SimError::CombinationalLoop {
            module: self.design.module.name.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svparse::parse_module;

    fn vecs(pairs: &[&[(&str, u64)]]) -> Vec<InputVector> {
        pairs
            .iter()
            .map(|cycle| {
                cycle
                    .iter()
                    .map(|(n, v)| (n.to_string(), *v))
                    .collect::<InputVector>()
            })
            .collect()
    }

    #[test]
    fn counter_counts() {
        let module = parse_module(
            r#"
module counter(input clk, input rst_n, input en, output reg [3:0] count);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) count <= 4'd0;
    else if (en) count <= count + 4'd1;
  end
endmodule
"#,
        )
        .unwrap();
        let design = Design::elaborate(&module).unwrap();
        let stimulus = vecs(&[
            &[("rst_n", 0), ("en", 0)],
            &[("rst_n", 1), ("en", 1)],
            &[("rst_n", 1), ("en", 1)],
            &[("rst_n", 1), ("en", 0)],
            &[("rst_n", 1), ("en", 1)],
        ]);
        let trace = Simulator::run(&design, &stimulus).unwrap();
        // Pre-edge samples: count lags the enable by one cycle.
        let counts: Vec<u64> = (0..5)
            .map(|t| trace.value("count", t).unwrap().bits())
            .collect();
        assert_eq!(counts, vec![0, 0, 1, 2, 2]);
    }

    #[test]
    fn combinational_logic_settles_through_chain() {
        let module = parse_module(
            r#"
module chain(input a, output y);
  wire m1;
  wire m2;
  assign m1 = !a;
  assign m2 = !m1;
  assign y = !m2;
endmodule
"#,
        )
        .unwrap();
        let design = Design::elaborate(&module).unwrap();
        let stimulus = vecs(&[&[("a", 1)], &[("a", 0)]]);
        let trace = Simulator::run(&design, &stimulus).unwrap();
        assert_eq!(trace.value("y", 0).unwrap().bits(), 0);
        assert_eq!(trace.value("y", 1).unwrap().bits(), 1);
    }

    #[test]
    fn combinational_loop_is_detected() {
        let module = parse_module(
            r#"
module settles(input a, output y);
  wire p;
  assign p = !a;
  assign y = p & a;
endmodule
"#,
        )
        .unwrap();
        let looped = parse_module(
            r#"
module loopy(input a, output y);
  assign y = !y;
endmodule
"#,
        )
        .unwrap();
        let design = Design::elaborate(&module).unwrap();
        assert!(Simulator::run(&design, &vecs(&[&[("a", 1)]])).is_ok());
        let design = Design::elaborate(&looped).unwrap();
        let err = Simulator::run(&design, &vecs(&[&[("a", 1)]])).unwrap_err();
        assert!(matches!(err, SimError::CombinationalLoop { .. }));
    }

    #[test]
    fn initial_block_presets_register() {
        let module = parse_module(
            r#"
module preset(input clk, output reg [3:0] q);
  initial begin
    q = 4'd9;
  end
  always @(posedge clk) q <= q;
endmodule
"#,
        )
        .unwrap();
        let design = Design::elaborate(&module).unwrap();
        let trace = Simulator::run(&design, &vecs(&[&[], &[]])).unwrap();
        assert_eq!(trace.value("q", 0).unwrap().bits(), 9);
        assert_eq!(trace.value("q", 1).unwrap().bits(), 9);
    }

    #[test]
    fn blocking_assignments_in_comb_block() {
        let module = parse_module(
            r#"
module comb(input [3:0] a, input [3:0] b, output reg [3:0] big);
  always @(*) begin
    if (a > b) big = a;
    else big = b;
  end
endmodule
"#,
        )
        .unwrap();
        let design = Design::elaborate(&module).unwrap();
        let stimulus = vecs(&[&[("a", 3), ("b", 9)], &[("a", 12), ("b", 5)]]);
        let trace = Simulator::run(&design, &stimulus).unwrap();
        assert_eq!(trace.value("big", 0).unwrap().bits(), 9);
        assert_eq!(trace.value("big", 1).unwrap().bits(), 12);
    }

    #[test]
    fn trace_value_past_clamps_at_zero() {
        let mut trace = Trace::new();
        let mut s0 = State::new();
        s0.insert("x".into(), Value::new(1, 4));
        let mut s1 = State::new();
        s1.insert("x".into(), Value::new(2, 4));
        trace.push(s0);
        trace.push(s1);
        assert_eq!(trace.value_past("x", 1, 0).bits(), 2);
        assert_eq!(trace.value_past("x", 1, 1).bits(), 1);
        assert_eq!(trace.value_past("x", 1, 5).bits(), 1);
        assert_eq!(trace.len(), 2);
    }
}
