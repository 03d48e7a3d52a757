//! Elaboration: turning a parsed [`Module`] into an executable [`Design`].
//!
//! Elaboration resolves signal widths, classifies processes into combinational and
//! clocked groups, identifies the clock and asynchronous reset, and collects the
//! properties/assertions that the SVA checker will evaluate.

use crate::lower::Compiled;
use crate::simulator::InputSlot;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use svparse::{
    AssertTarget, AssertionItem, Item, Module, PortDir, PropertyDecl, Stmt, SymbolTable,
};

/// Error produced when a module cannot be elaborated into a simulatable design.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ElabError {
    message: String,
}

impl ElabError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for ElabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "elaboration error: {}", self.message)
    }
}

impl std::error::Error for ElabError {}

/// One resolved assertion: a property plus the name under which failures are reported.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedAssertion {
    /// Name used in failure logs (`label` if present, otherwise the property name).
    pub name: String,
    /// The property to check.
    pub property: PropertyDecl,
    /// Optional `$error` message attached to the assertion.
    pub message: Option<String>,
}

/// An elaborated, simulatable design.
#[derive(Debug, Clone)]
pub struct Design {
    /// The underlying module (canonical AST).
    pub module: Module,
    /// Symbol table with widths and kinds.
    pub symbols: SymbolTable,
    /// Names of the primary inputs, excluding the clock.
    pub inputs: Vec<String>,
    /// Names of the primary outputs.
    pub outputs: Vec<String>,
    /// The clock signal driving the clocked processes (and sampled by the SVAs).
    pub clock: Option<String>,
    /// The active-low asynchronous reset, when one is used.
    pub reset_n: Option<String>,
    /// Resolved assertions, in declaration order.
    pub assertions: Vec<ResolvedAssertion>,
    /// Widths of every signal the simulator needs to track.
    pub widths: BTreeMap<String, u32>,
    /// The slot-indexed programs the simulator and the assertion checker run; lowered
    /// from the fields above when the design is elaborated, and not kept in step with
    /// later edits to them.
    pub(crate) compiled: Compiled,
}

impl Design {
    /// Elaborates a module.
    ///
    /// # Errors
    ///
    /// Returns an [`ElabError`] when the module references undeclared signals, uses
    /// more than one clock, or exceeds the 64-bit signal width supported by the
    /// simulator.
    pub fn elaborate(module: &Module) -> Result<Design, ElabError> {
        let report = svparse::sema::check_module(module);
        if let Some(err) = report.errors.first() {
            return Err(ElabError::new(format!("semantic error: {err}")));
        }
        let symbols = SymbolTable::build(module);

        let mut widths = BTreeMap::new();
        for info in symbols.signals() {
            if info.width > 64 {
                return Err(ElabError::new(format!(
                    "signal `{}` is {} bits wide; the simulator supports at most 64",
                    info.name, info.width
                )));
            }
            widths.insert(info.name.clone(), info.width);
        }

        // Identify the clock: the posedge signal of clocked always blocks, falling
        // back to the clock used by properties.
        let mut clock: Option<String> = None;
        let mut reset_n: Option<String> = None;
        for block in module.always_blocks() {
            if let Some(clk) = block.sensitivity.clock() {
                match &clock {
                    None => clock = Some(clk.signal.clone()),
                    Some(existing) if existing != &clk.signal => {
                        return Err(ElabError::new(format!(
                            "multiple clocks are not supported (`{existing}` and `{}`)",
                            clk.signal
                        )))
                    }
                    Some(_) => {}
                }
            }
            if let Some(rst) = block.sensitivity.async_reset() {
                reset_n.get_or_insert(rst.signal.clone());
            }
        }
        if clock.is_none() {
            if let Some(prop) = module.properties().next() {
                clock = Some(prop.clock.signal.clone());
            }
        }

        let inputs = module
            .ports
            .iter()
            .filter(|p| p.dir == PortDir::Input)
            .filter(|p| Some(&p.name) != clock.as_ref())
            .map(|p| p.name.clone())
            .collect();
        let outputs = module
            .ports
            .iter()
            .filter(|p| p.dir == PortDir::Output)
            .map(|p| p.name.clone())
            .collect();

        let assertions = resolve_assertions(module)?;
        let compiled = Compiled::lower(module, &widths, &assertions);

        Ok(Design {
            module: module.clone(),
            symbols,
            inputs,
            outputs,
            clock,
            reset_n,
            assertions,
            widths,
            compiled,
        })
    }

    /// Width of a signal (defaults to 1 for unknown names, which only happens for
    /// signals synthesised internally by the simulator).
    pub fn width(&self, name: &str) -> u32 {
        self.widths.get(name).copied().unwrap_or(1)
    }

    /// Number of slots in a state of this design (see [`crate::Engine`]).
    pub fn slot_count(&self) -> usize {
        self.compiled.layout.len()
    }

    /// Where a testbench value for `name` goes, or `None` for a name the design never
    /// mentions.  Any signal can be driven, not only the ports; a name the design uses
    /// without declaring is driven one bit wide.
    pub fn input_slot(&self, name: &str) -> Option<InputSlot> {
        let layout = &self.compiled.layout;
        layout
            .slot(name)
            .map(|slot| InputSlot::new(slot, layout.width(slot)))
    }

    /// Returns `true` if the design has at least one concurrent assertion.
    pub fn has_assertions(&self) -> bool {
        !self.assertions.is_empty()
    }

    /// Names of registers driven by clocked always blocks.
    pub fn clocked_registers(&self) -> Vec<String> {
        let mut regs = Vec::new();
        for block in self.module.always_blocks() {
            if !block.sensitivity.is_combinational() {
                regs.extend(block.body.assigned_signals());
            }
        }
        regs.sort();
        regs.dedup();
        regs
    }

    /// Names of signals driven combinationally (continuous assigns and `always @(*)`).
    pub fn combinational_signals(&self) -> Vec<String> {
        let mut signals = Vec::new();
        for item in &self.module.items {
            match item {
                Item::Assign(a) => signals.extend(a.lhs.base_names()),
                Item::Always(b) if b.sensitivity.is_combinational() => {
                    signals.extend(b.body.assigned_signals())
                }
                _ => {}
            }
        }
        signals.sort();
        signals.dedup();
        signals
    }

    /// A conservative upper bound on how many cycles the deepest assertion looks ahead.
    pub fn max_property_horizon(&self) -> u32 {
        self.assertions
            .iter()
            .map(|a| a.property.body.horizon())
            .max()
            .unwrap_or(0)
    }
}

fn resolve_assertions(module: &Module) -> Result<Vec<ResolvedAssertion>, ElabError> {
    let mut out = Vec::new();
    for assertion in module.assertions() {
        let property = match &assertion.target {
            AssertTarget::Named(name) => module
                .property(name)
                .cloned()
                .ok_or_else(|| ElabError::new(format!("unknown property `{name}`")))?,
            AssertTarget::Inline(p) => (**p).clone(),
        };
        out.push(ResolvedAssertion {
            name: assertion_name(assertion),
            property,
            message: assertion.message.clone(),
        });
    }
    Ok(out)
}

fn assertion_name(assertion: &AssertionItem) -> String {
    assertion.display_name()
}

/// Returns `true` when the statement writes any signal through a blocking assignment —
/// used to sanity-check clocked blocks in tests.
pub fn uses_blocking_assignment(stmt: &Stmt) -> bool {
    let mut found = false;
    stmt.walk(&mut |s| {
        if matches!(s, Stmt::Blocking { .. }) {
            found = true;
        }
    });
    found
}

/// Classification of a signal from the simulator's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SignalClass {
    /// Primary input driven by the testbench.
    Input,
    /// Register updated on the clock edge.
    ClockedReg,
    /// Combinationally driven signal.
    Combinational,
    /// Declared but never driven (held at zero).
    Undriven,
}

impl Design {
    /// Classifies a signal.
    pub fn classify(&self, name: &str) -> SignalClass {
        if self.inputs.iter().any(|i| i == name) {
            return SignalClass::Input;
        }
        if self.clocked_registers().iter().any(|r| r == name) {
            return SignalClass::ClockedReg;
        }
        if self.combinational_signals().iter().any(|c| c == name) {
            return SignalClass::Combinational;
        }
        SignalClass::Undriven
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svparse::parse_module;

    const SRC: &str = r#"
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
  valid_out_check_assertion: assert property (valid_out_check) else $error("valid_out should be high");
endmodule
"#;

    #[test]
    fn elaborates_clock_reset_and_io() {
        let design = Design::elaborate(&parse_module(SRC).unwrap()).unwrap();
        assert_eq!(design.clock.as_deref(), Some("clk"));
        assert_eq!(design.reset_n.as_deref(), Some("rst_n"));
        assert_eq!(
            design.inputs,
            vec!["rst_n".to_string(), "valid_in".to_string()]
        );
        assert_eq!(design.outputs, vec!["valid_out".to_string()]);
        assert_eq!(design.width("cnt"), 2);
        assert!(design.has_assertions());
        assert_eq!(design.assertions[0].name, "valid_out_check_assertion");
        assert_eq!(design.max_property_horizon(), 1);
    }

    #[test]
    fn classifies_signals() {
        let design = Design::elaborate(&parse_module(SRC).unwrap()).unwrap();
        assert_eq!(design.classify("valid_in"), SignalClass::Input);
        assert_eq!(design.classify("cnt"), SignalClass::ClockedReg);
        assert_eq!(design.classify("end_cnt"), SignalClass::Combinational);
    }

    #[test]
    fn rejects_undeclared_signals() {
        let src = "module m(input a, output b); assign b = ghost; endmodule";
        assert!(Design::elaborate(&parse_module(src).unwrap()).is_err());
    }

    #[test]
    fn rejects_multiple_clocks() {
        let src = r#"
module m(input clk1, input clk2, input a, output reg q1, output reg q2);
  always @(posedge clk1) q1 <= a;
  always @(posedge clk2) q2 <= a;
endmodule
"#;
        let err = Design::elaborate(&parse_module(src).unwrap()).unwrap_err();
        assert!(err.to_string().contains("multiple clocks"));
    }

    #[test]
    fn rejects_wide_signals() {
        let src = "module m(input [127:0] a, output [127:0] y); assign y = a; endmodule";
        assert!(Design::elaborate(&parse_module(src).unwrap()).is_err());
    }

    #[test]
    fn pure_combinational_design_has_no_clock() {
        let src = "module m(input a, input b, output y); assign y = a ^ b; endmodule";
        let design = Design::elaborate(&parse_module(src).unwrap()).unwrap();
        assert!(design.clock.is_none());
        assert!(!design.has_assertions());
        assert_eq!(design.clocked_registers().len(), 0);
    }
}
