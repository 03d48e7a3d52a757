//! Cycle-accurate simulation engine.
//!
//! The simulator advances one clock cycle per [`Simulator::step`] call:
//!
//! 1. testbench inputs for the new cycle are applied;
//! 2. combinational logic (continuous assigns and `always @(*)`) settles to a fixpoint;
//! 3. the resulting *pre-edge* state is recorded as the SVA sample for this cycle;
//! 4. clocked `always` blocks execute against the pre-edge state, their non-blocking
//!    updates are committed, and combinational logic settles again.
//!
//! This "preponed sampling" matches how concurrent assertions observe signals in event
//! driven simulators, so golden designs written in the paper's style pass their own
//! assertions and injected bugs fail them.
//!
//! All of it runs on the design's compiled form (`lower.rs`): the state is a
//! `Vec<Value>` indexed by slot, a cycle executes flat programs against it, and the
//! trace is one flat vector of rows.  [`Engine`] is that machinery with no state of
//! its own, which is what lets the bounded checker resume a sweep from a saved state;
//! [`Simulator`] is an engine plus one state and one trace.

use crate::elaborate::Design;
use crate::eval::Scratch;
use crate::lower::{Comb, Layout};
use crate::sva::{AssertionFailure, Rows};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use svparse::Module;

/// One cycle's worth of primary-input values (signal name → integer value).
pub type InputVector = BTreeMap<String, u64>;

/// Maximum number of sweeps allowed for combinational settling before a loop is
/// reported.
const MAX_SETTLE_ITERATIONS: usize = 64;

/// Error produced while simulating.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimError {
    /// Combinational logic failed to reach a fixpoint (a combinational loop).
    CombinationalLoop {
        /// Module being simulated.
        module: String,
    },
    /// The design could not be elaborated.
    Elaboration(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::CombinationalLoop { module } => {
                write!(f, "combinational loop detected in module `{module}`")
            }
            SimError::Elaboration(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<crate::elaborate::ElabError> for SimError {
    fn from(err: crate::elaborate::ElabError) -> Self {
        SimError::Elaboration(err.to_string())
    }
}

/// A recorded simulation trace: one row of sampled slot values per clock cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    layout: Arc<Layout>,
    cycles: usize,
    /// Cycle-major: the row of cycle `t` is `values[t * slots..][..slots]`.
    values: Vec<Value>,
}

impl Trace {
    fn new(layout: Arc<Layout>) -> Self {
        Self {
            layout,
            cycles: 0,
            values: Vec::new(),
        }
    }

    /// Appends a row for the engine to sample into.
    fn push_row(&mut self) -> &mut [Value] {
        let start = self.values.len();
        self.values.resize(start + self.layout.len(), Value::ABSENT);
        self.cycles += 1;
        &mut self.values[start..]
    }

    pub(crate) fn layout(&self) -> &Arc<Layout> {
        &self.layout
    }

    /// Number of recorded cycles.
    pub fn len(&self) -> usize {
        self.cycles
    }

    /// Returns `true` when no cycles have been recorded.
    pub fn is_empty(&self) -> bool {
        self.cycles == 0
    }

    /// The value of a signal at a cycle (zero for unknown signals, `None` past the end).
    pub fn value(&self, name: &str, cycle: usize) -> Option<Value> {
        (cycle < self.cycles).then(|| {
            self.layout
                .slot(name)
                .and_then(|slot| self.row(cycle)[slot as usize].present())
                .unwrap_or(Value::bit(false))
        })
    }

    /// The value of a signal `past` cycles before `cycle`, clamping at cycle 0.
    pub fn value_past(&self, name: &str, cycle: usize, past: u32) -> Value {
        self.value(name, cycle.saturating_sub(past as usize))
            .unwrap_or(Value::bit(false))
    }
}

impl Rows for Trace {
    fn cycles(&self) -> usize {
        self.cycles
    }

    fn row(&self, cycle: usize) -> &[Value] {
        let slots = self.layout.len();
        &self.values[cycle * slots..][..slots]
    }
}

/// Where the testbench drives one named input: its slot and the width values are
/// sized to.  Obtained from [`Design::input_slot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputSlot {
    slot: u32,
    width: u32,
}

impl InputSlot {
    pub(crate) fn new(slot: u32, width: u32) -> Self {
        Self { slot, width }
    }

    /// Sets the input in a slot state, masking `value` to the input's width.
    pub fn drive(&self, state: &mut [Value], value: u64) {
        state[self.slot as usize] = Value::new(value, self.width);
    }
}

/// The cycle machinery of one design, over slot states the caller owns.
///
/// A *slot state* is a `[Value]` of [`Design::slot_count`] entries.  The engine keeps
/// only scratch buffers between calls, so one engine can advance any number of states
/// of its design — which is how the bounded checker resumes a sweep from the saved
/// state of a shared stimulus prefix instead of replaying it.
#[derive(Debug, Clone)]
pub struct Engine<'a> {
    design: &'a Design,
    before: Vec<Value>,
    shadow: Vec<Value>,
    deferred: Vec<(u32, Value)>,
    scratch: Scratch,
}

impl<'a> Engine<'a> {
    /// An engine for a design.
    pub fn new(design: &'a Design) -> Self {
        Self {
            design,
            before: Vec::new(),
            shadow: Vec::new(),
            deferred: Vec::new(),
            scratch: Scratch::default(),
        }
    }

    /// The state every simulation starts from: all signals zero, `initial` blocks
    /// executed, combinational logic settled.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CombinationalLoop`] if the design's combinational logic has
    /// no fixpoint.
    pub fn power_up(&mut self) -> Result<Vec<Value>, SimError> {
        let compiled = &self.design.compiled;
        let mut state: Vec<Value> = compiled.layout.zeros().collect();
        for body in &compiled.initial {
            compiled
                .code
                .exec(*body, &mut state, &mut self.deferred, &mut self.scratch);
        }
        for (slot, value) in self.deferred.drain(..) {
            state[slot as usize] = value;
        }
        self.settle(&mut state)?;
        Ok(state)
    }

    /// Advances `state` by one clock cycle, the inputs of the cycle already driven
    /// into it, and copies the pre-edge sample into `row`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CombinationalLoop`] if combinational logic fails to settle.
    pub fn cycle(&mut self, state: &mut [Value], row: &mut [Value]) -> Result<(), SimError> {
        let compiled = &self.design.compiled;
        self.settle(state)?;
        row.copy_from_slice(state);

        // Every clocked block runs against the pre-edge state: one with blocking
        // assignments writes them into a shadow copy that is then discarded.
        for block in &compiled.clocked {
            let pre_edge = if block.blocking {
                self.shadow.clear();
                self.shadow.extend_from_slice(state);
                &mut self.shadow[..]
            } else {
                &mut *state
            };
            compiled
                .code
                .exec(block.body, pre_edge, &mut self.deferred, &mut self.scratch);
        }
        for (slot, value) in self.deferred.drain(..) {
            state[slot as usize] = value.resize(compiled.layout.width(slot));
        }
        self.settle(state)
    }

    /// Checks every assertion of the design over sampled rows; see
    /// [`crate::sva::check_assertions`] for the semantics.
    ///
    /// Attempts that cannot look past row `decided - 1` are skipped: the caller vouches
    /// that rows `0..decided` were checked before, as the prefix of a sequence on
    /// which no assertion failed.  Pass 0 to evaluate every attempt.
    pub fn check<R: Rows + ?Sized>(&mut self, rows: &R, decided: usize) -> Vec<AssertionFailure> {
        crate::sva::check(self.design, rows, decided, &mut self.scratch.stack)
    }

    /// Sweeps the combinational items, in module order, until a sweep changes nothing.
    fn settle(&mut self, state: &mut [Value]) -> Result<(), SimError> {
        let compiled = &self.design.compiled;
        for _ in 0..MAX_SETTLE_ITERATIONS {
            self.before.clear();
            self.before.extend_from_slice(state);
            for item in &compiled.comb {
                match item {
                    Comb::Assign { target, rhs } => {
                        let value = compiled.code.eval(*rhs, &*state, &mut self.scratch.stack);
                        compiled
                            .code
                            .assign(target, value, state, &mut self.scratch);
                    }
                    Comb::Always(body) => {
                        compiled
                            .code
                            .exec(*body, state, &mut self.deferred, &mut self.scratch);
                        // Non-blocking writes of a combinational block land as they
                        // are; only the clock edge resizes (pinned).
                        for (slot, value) in self.deferred.drain(..) {
                            state[slot as usize] = value;
                        }
                    }
                }
            }
            if *state == self.before[..] {
                return Ok(());
            }
        }
        Err(SimError::CombinationalLoop {
            module: self.design.module.name.clone(),
        })
    }
}

/// The interactive simulation engine.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    design: &'a Design,
    engine: Engine<'a>,
    state: Vec<Value>,
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
        let mut engine = Engine::new(design);
        let state = engine.power_up()?;
        Ok(Self {
            design,
            engine,
            state,
            trace: Trace::new(design.compiled.layout.clone()),
        })
    }

    /// The trace of pre-edge samples recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the simulator and returns the recorded trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// Advances the simulation by one clock cycle.
    ///
    /// Names the design never mentions are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CombinationalLoop`] if combinational logic fails to settle.
    pub fn step(&mut self, inputs: &InputVector) -> Result<(), SimError> {
        for (name, value) in inputs {
            if let Some(input) = self.design.input_slot(name) {
                input.drive(&mut self.state, *value);
            }
        }
        let stepped = self.engine.cycle(&mut self.state, self.trace.push_row());
        if stepped.is_err() {
            // A cycle that fails leaves no row behind.
            self.trace.cycles -= 1;
            self.trace
                .values
                .truncate(self.trace.cycles * self.design.slot_count());
        }
        stepped
    }

    /// Runs the simulator over a full stimulus, returning the recorded trace.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CombinationalLoop`] if combinational logic fails to settle
    /// at any cycle.
    pub fn run(design: &'a Design, stimulus: &[InputVector]) -> Result<Trace, SimError> {
        let mut sim = Simulator::new(design)?;
        sim.trace
            .values
            .reserve(stimulus.len() * design.slot_count());
        for inputs in stimulus {
            sim.step(inputs)?;
        }
        Ok(sim.into_trace())
    }
}

/// A self-contained simulation outcome: the trace, assertion failures and a textual
/// log in the format the repair model consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// The recorded trace of pre-edge samples.
    pub trace: Trace,
    /// All assertion failures detected over the trace.
    pub failures: Vec<crate::sva::AssertionFailure>,
    /// Tool-style textual log (see [`crate::log`]).
    pub log: String,
}

impl SimOutcome {
    /// Returns `true` if no assertion failed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Elaborates, simulates and checks a module in one call.
///
/// # Errors
///
/// Returns a [`SimError`] if the module cannot be elaborated or simulated.
///
/// # Examples
///
/// ```
/// use std::collections::BTreeMap;
/// let module = svparse::parse_module(
///     "module m(input clk, input a, output reg q);\n  always @(posedge clk) q <= a;\nendmodule",
/// ).map_err(|e| svsim::SimError::Elaboration(e.to_string()))?;
/// let stimulus: Vec<svsim::InputVector> = (0..4)
///     .map(|i| BTreeMap::from([("a".to_string(), u64::from(i % 2 == 0))]))
///     .collect();
/// let outcome = svsim::simulate(&module, &stimulus)?;
/// assert_eq!(outcome.trace.len(), 4);
/// # Ok::<(), svsim::SimError>(())
/// ```
pub fn simulate(module: &Module, stimulus: &[InputVector]) -> Result<SimOutcome, SimError> {
    let design = Design::elaborate(module)?;
    let trace = Simulator::run(&design, stimulus)?;
    let failures = crate::sva::check_assertions(&design, &trace);
    let log = crate::log::render_log(&design, &trace, &failures);
    Ok(SimOutcome {
        trace,
        failures,
        log,
    })
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
        let module = parse_module(
            "module m(input clk, input [3:0] x, output reg [3:0] q);\n  always @(posedge clk) q <= x;\nendmodule",
        )
        .unwrap();
        let design = Design::elaborate(&module).unwrap();
        let trace = Simulator::run(&design, &vecs(&[&[("x", 1)], &[("x", 2)]])).unwrap();
        assert_eq!(trace.value_past("x", 1, 0).bits(), 2);
        assert_eq!(trace.value_past("x", 1, 1).bits(), 1);
        assert_eq!(trace.value_past("x", 1, 5).bits(), 1);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.value("x", 2), None);
        assert_eq!(trace.value("ghost", 1), Some(Value::bit(false)));
    }

    #[test]
    fn simulate_helper_produces_log() {
        let module = parse_module(
            "module m(input clk, input a, output reg q);\n  always @(posedge clk) q <= a;\nendmodule",
        )
        .unwrap();
        let stimulus = vecs(&[&[("a", 1)], &[("a", 0)]]);
        let outcome = simulate(&module, &stimulus).unwrap();
        assert!(outcome.passed());
        assert!(outcome.log.contains("module m"));
    }
}
