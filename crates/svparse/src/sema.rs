//! Lightweight semantic analysis.
//!
//! The checks mirror what the paper uses the Icarus Verilog compiler for: catching
//! undeclared identifiers, multiply-driven registers and malformed assertions before a
//! design is allowed to proceed to simulation/verification.  The module also builds
//! the signal dependency graph used for cone-of-influence reasoning by the mutation
//! classifier and the repair model's feature extractor.

use crate::ast::*;
use crate::span::Span;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Information about one declared signal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignalInfo {
    /// Signal name.
    pub name: String,
    /// Bit width.
    pub width: u32,
    /// Net kind (`wire`, `reg`, `integer`).
    pub kind: NetKind,
    /// Port direction if the signal is a port.
    pub dir: Option<PortDir>,
    /// `true` if the signal is driven by an edge-triggered always block.
    pub is_clocked: bool,
}

/// Symbol table for one module.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SymbolTable {
    signals: BTreeMap<String, SignalInfo>,
    parameters: BTreeMap<String, u64>,
}

impl SymbolTable {
    /// Builds the symbol table for a module.
    pub fn build(module: &Module) -> Self {
        let mut signals = BTreeMap::new();
        let mut parameters = BTreeMap::new();
        for port in &module.ports {
            signals.insert(
                port.name.clone(),
                SignalInfo {
                    name: port.name.clone(),
                    width: port.bit_width(),
                    kind: port.net,
                    dir: Some(port.dir),
                    is_clocked: false,
                },
            );
        }
        for item in &module.items {
            match item {
                Item::Net(decl) => {
                    for name in &decl.names {
                        let width = match decl.kind {
                            NetKind::Integer => 32,
                            _ => decl.width.map_or(1, |r| r.width()),
                        };
                        signals.entry(name.clone()).or_insert(SignalInfo {
                            name: name.clone(),
                            width,
                            kind: decl.kind,
                            dir: None,
                            is_clocked: false,
                        });
                    }
                }
                Item::Param(p) => {
                    let value = const_eval(&p.value).unwrap_or(0);
                    parameters.insert(p.name.clone(), value);
                }
                _ => {}
            }
        }
        // Mark clocked signals.
        for block in module.always_blocks() {
            if block.sensitivity.is_combinational() {
                continue;
            }
            block.body.for_each_assigned(&mut |name| {
                if let Some(info) = signals.get_mut(name) {
                    info.is_clocked = true;
                }
            });
        }
        Self {
            signals,
            parameters,
        }
    }

    /// Looks up a signal by name.
    pub fn signal(&self, name: &str) -> Option<&SignalInfo> {
        self.signals.get(name)
    }

    /// Looks up a parameter constant by name.
    pub fn parameter(&self, name: &str) -> Option<u64> {
        self.parameters.get(name).copied()
    }

    /// Returns `true` if the name is a declared signal or parameter.
    pub fn is_declared(&self, name: &str) -> bool {
        self.signals.contains_key(name) || self.parameters.contains_key(name)
    }

    /// Iterates over all declared signals.
    pub fn signals(&self) -> impl Iterator<Item = &SignalInfo> {
        self.signals.values()
    }

    /// Number of declared signals.
    pub fn len(&self) -> usize {
        self.signals.len()
    }

    /// Returns `true` when no signals are declared.
    pub fn is_empty(&self) -> bool {
        self.signals.is_empty()
    }
}

/// A single semantic diagnostic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SemaError {
    /// Human-readable description.
    pub message: String,
    /// 1-based source line the problem refers to.
    pub line: u32,
}

impl fmt::Display for SemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (line {})", self.message, self.line)
    }
}

impl std::error::Error for SemaError {}

/// The result of checking one module.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SemaReport {
    /// Hard errors: the module would not compile.
    pub errors: Vec<SemaError>,
    /// Soft warnings: suspicious but accepted constructs.
    pub warnings: Vec<SemaError>,
}

impl SemaReport {
    /// Returns `true` when there are no hard errors.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Dependency graph over module signals: edges point from a signal to the signals
/// appearing in expressions that drive it.  Names borrow from the module.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DependencyGraph<'m> {
    edges: Edges<'m>,
}

/// Each driven signal's drivers, both in name order.
type Edges<'m> = BTreeMap<&'m str, BTreeSet<&'m str>>;

impl<'m> DependencyGraph<'m> {
    /// Builds the driver-dependency graph for a module.
    pub fn build(module: &'m Module) -> Self {
        let mut edges = Edges::new();
        for assign in module.assigns() {
            add_drivers(&mut edges, &assign.lhs, &assign.rhs, &[]);
        }
        for block in module.always_blocks() {
            collect_stmt_deps(&block.body, &mut Vec::new(), &mut edges);
        }
        Self { edges }
    }

    /// The direct drivers (fan-in) of a signal, borrowed.
    fn fan_in(&self, signal: &str) -> impl Iterator<Item = &'m str> + '_ {
        self.edges.get(signal).into_iter().flatten().copied()
    }

    /// The direct drivers (fan-in) of a signal.
    pub fn drivers(&self, signal: &str) -> Vec<String> {
        self.fan_in(signal).map(str::to_string).collect()
    }

    /// The transitive fan-in cone of a signal, excluding the signal itself unless it
    /// participates in a feedback loop.
    pub fn cone_of_influence(&self, signal: &str) -> BTreeSet<&'m str> {
        let mut seen = BTreeSet::new();
        let mut queue: VecDeque<&str> = self.fan_in(signal).collect();
        while let Some(current) = queue.pop_front() {
            if seen.insert(current) {
                queue.extend(self.fan_in(current).filter(|next| !seen.contains(next)));
            }
        }
        seen
    }

    /// Distance (in driver hops) from `from` to `to`, or `None` if `to` is not in the
    /// fan-in cone of `from`.
    pub fn distance(&self, from: &str, to: &str) -> Option<u32> {
        if from == to {
            return Some(0);
        }
        let mut seen = BTreeSet::new();
        let mut queue: VecDeque<(&str, u32)> = self.fan_in(from).map(|d| (d, 1)).collect();
        while let Some((current, depth)) = queue.pop_front() {
            if current == to {
                return Some(depth);
            }
            if seen.insert(current) {
                queue.extend(self.fan_in(current).map(|next| (next, depth + 1)));
            }
        }
        None
    }

    /// Every driver edge as `(signal, driver)`: signals in name order, each
    /// signal's drivers in name order.
    pub fn edges(&self) -> impl Iterator<Item = (&'m str, &'m str)> + '_ {
        self.edges
            .iter()
            .flat_map(|(&signal, drivers)| drivers.iter().map(move |&driver| (signal, driver)))
    }

    /// All signals that have at least one driver edge.
    pub fn driven_signals(&self) -> Vec<String> {
        self.edges.keys().map(|signal| signal.to_string()).collect()
    }
}

/// Adds the identifiers of `rhs` and the signals of the enclosing `control`
/// conditions as drivers of every base name `lhs` assigns.
fn add_drivers<'m>(edges: &mut Edges<'m>, lhs: &'m LValue, rhs: &'m Expr, control: &[&'m str]) {
    lhs.for_each_base_name(&mut |target| {
        let drivers = edges.entry(target).or_default();
        rhs.for_each_ident(&mut |name| {
            drivers.insert(name);
        });
        drivers.extend(control.iter().copied());
    });
}

fn collect_stmt_deps<'m>(stmt: &'m Stmt, control: &mut Vec<&'m str>, edges: &mut Edges<'m>) {
    match stmt {
        Stmt::Block { stmts, .. } => {
            for s in stmts {
                collect_stmt_deps(s, control, edges);
            }
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            let depth = control.len();
            cond.for_each_ident(&mut |name| control.push(name));
            collect_stmt_deps(then_branch, control, edges);
            if let Some(e) = else_branch {
                collect_stmt_deps(e, control, edges);
            }
            control.truncate(depth);
        }
        Stmt::Case {
            subject,
            arms,
            default,
            ..
        } => {
            let depth = control.len();
            subject.for_each_ident(&mut |name| control.push(name));
            for arm in arms {
                collect_stmt_deps(&arm.body, control, edges);
            }
            if let Some(d) = default {
                collect_stmt_deps(d, control, edges);
            }
            control.truncate(depth);
        }
        Stmt::Blocking { lhs, rhs, .. } | Stmt::NonBlocking { lhs, rhs, .. } => {
            add_drivers(edges, lhs, rhs, control);
        }
        Stmt::Null => {}
    }
}

/// Evaluates a constant expression, returning `None` if it references signals.
pub fn const_eval(expr: &Expr) -> Option<u64> {
    match expr {
        Expr::Number(lit) => Some(lit.value),
        Expr::Unary(UnaryOp::Neg, inner) => const_eval(inner).map(|v| v.wrapping_neg()),
        Expr::Unary(UnaryOp::BitNot, inner) => const_eval(inner).map(|v| !v),
        Expr::Unary(UnaryOp::LogicalNot, inner) => const_eval(inner).map(|v| u64::from(v == 0)),
        Expr::Binary(op, a, b) => {
            let a = const_eval(a)?;
            let b = const_eval(b)?;
            Some(match op {
                BinaryOp::Add => a.wrapping_add(b),
                BinaryOp::Sub => a.wrapping_sub(b),
                BinaryOp::Mul => a.wrapping_mul(b),
                BinaryOp::Div => a.checked_div(b).unwrap_or(0),
                BinaryOp::Mod => a.checked_rem(b).unwrap_or(0),
                BinaryOp::Shl => a.wrapping_shl(b as u32),
                BinaryOp::Shr => a.wrapping_shr(b as u32),
                BinaryOp::Lt => u64::from(a < b),
                BinaryOp::Le => u64::from(a <= b),
                BinaryOp::Gt => u64::from(a > b),
                BinaryOp::Ge => u64::from(a >= b),
                BinaryOp::Eq => u64::from(a == b),
                BinaryOp::Ne => u64::from(a != b),
                BinaryOp::BitAnd => a & b,
                BinaryOp::BitOr => a | b,
                BinaryOp::BitXor => a ^ b,
                BinaryOp::LogicalAnd => u64::from(a != 0 && b != 0),
                BinaryOp::LogicalOr => u64::from(a != 0 || b != 0),
            })
        }
        _ => None,
    }
}

/// Whether every name `names` hands its visitor is declared.  A clean expression
/// costs this one walk; only one with an undeclared name pays for the sorted,
/// deduplicated list of names its errors are reported in.
fn all_declared(table: &SymbolTable, names: impl FnOnce(&mut dyn FnMut(&str))) -> bool {
    let mut declared = true;
    names(&mut |name| declared &= table.is_declared(name));
    declared
}

/// Runs all semantic checks on a module.
///
/// # Examples
///
/// ```
/// let module = svparse::parse_module(
///     "module m(input a, output b); assign b = a; endmodule",
/// )?;
/// let report = svparse::sema::check_module(&module);
/// assert!(report.is_clean());
/// # Ok::<(), svparse::ParseError>(())
/// ```
pub fn check_module(module: &Module) -> SemaReport {
    check_module_with(module, &SymbolTable::build(module))
}

/// [`check_module`] against the module's symbol table, built by the caller
/// ([`SymbolTable::build`]) so that it can keep it.
pub fn check_module_with(module: &Module, table: &SymbolTable) -> SemaReport {
    let mut report = SemaReport::default();

    let check_expr = |expr: &Expr, span: Span, report: &mut SemaReport| {
        if all_declared(table, |visit| expr.for_each_ident(visit)) {
            return;
        }
        for name in expr.idents() {
            if !table.is_declared(&name) {
                report.errors.push(SemaError {
                    message: format!("use of undeclared identifier `{name}`"),
                    line: span.start_line,
                });
            }
        }
    };

    let mut driven_by_always: BTreeMap<&str, u32> = BTreeMap::new();
    let mut assigned = Vec::new();

    for item in &module.items {
        match item {
            Item::Assign(assign) => {
                check_expr(&assign.rhs, assign.span, &mut report);
                assign.lhs.for_each_base_name(&mut |name| {
                    if !table.is_declared(name) {
                        report.errors.push(SemaError {
                            message: format!("assignment to undeclared signal `{name}`"),
                            line: assign.span.start_line,
                        });
                    } else if let Some(info) = table.signal(name) {
                        if info.kind == NetKind::Reg && info.dir != Some(PortDir::Input) {
                            report.warnings.push(SemaError {
                                message: format!("continuous assignment drives reg `{name}`"),
                                line: assign.span.start_line,
                            });
                        }
                    }
                });
            }
            Item::Always(block) => {
                if let Sensitivity::Edges(events) = &block.sensitivity {
                    for event in events {
                        if !table.is_declared(&event.signal) {
                            report.errors.push(SemaError {
                                message: format!(
                                    "sensitivity list references undeclared signal `{}`",
                                    event.signal
                                ),
                                line: block.span.start_line,
                            });
                        }
                    }
                }
                block.body.walk(&mut |stmt| match stmt {
                    Stmt::Blocking { lhs, rhs, span } | Stmt::NonBlocking { lhs, rhs, span } => {
                        check_expr(rhs, *span, &mut report);
                        lhs.for_each_base_name(&mut |name| {
                            if !table.is_declared(name) {
                                report.errors.push(SemaError {
                                    message: format!("assignment to undeclared signal `{name}`"),
                                    line: span.start_line,
                                });
                            }
                        });
                    }
                    Stmt::If { cond, span, .. } => check_expr(cond, *span, &mut report),
                    Stmt::Case { subject, span, .. } => check_expr(subject, *span, &mut report),
                    _ => {}
                });
                if !block.sensitivity.is_combinational() {
                    assigned.clear();
                    block
                        .body
                        .for_each_assigned(&mut |name| assigned.push(name));
                    assigned.sort_unstable();
                    assigned.dedup();
                    for name in &assigned {
                        *driven_by_always.entry(name).or_insert(0) += 1;
                    }
                }
            }
            Item::Initial(block) => {
                block.body.walk(&mut |stmt| {
                    if let Stmt::Blocking { rhs, span, .. } | Stmt::NonBlocking { rhs, span, .. } =
                        stmt
                    {
                        check_expr(rhs, *span, &mut report);
                    }
                });
            }
            Item::Property(prop) => {
                let names = |visit: &mut dyn FnMut(&str)| prop.body.for_each_ident(visit);
                if !all_declared(table, names) {
                    for name in prop.body.idents() {
                        if !table.is_declared(&name) {
                            report.errors.push(SemaError {
                                message: format!(
                                    "property `{}` references undeclared signal `{name}`",
                                    prop.name
                                ),
                                line: prop.span.start_line,
                            });
                        }
                    }
                }
                if !table.is_declared(&prop.clock.signal) {
                    report.errors.push(SemaError {
                        message: format!(
                            "property `{}` clocked by undeclared signal `{}`",
                            prop.name, prop.clock.signal
                        ),
                        line: prop.span.start_line,
                    });
                }
            }
            Item::Assertion(assertion) => {
                if let AssertTarget::Named(name) = &assertion.target {
                    if module.property(name).is_none() {
                        report.errors.push(SemaError {
                            message: format!("assertion references unknown property `{name}`"),
                            line: assertion.span.start_line,
                        });
                    }
                }
            }
            Item::Net(_) | Item::Param(_) => {}
        }
    }

    for (name, count) in driven_by_always {
        if count > 1 {
            report.warnings.push(SemaError {
                message: format!("signal `{name}` is driven by {count} clocked always blocks"),
                line: module.span.start_line,
            });
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_module;

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
  assert property (valid_out_check);
endmodule
"#;

    #[test]
    fn symbol_table_widths_and_kinds() {
        let m = parse_module(SRC).unwrap();
        let table = SymbolTable::build(&m);
        assert_eq!(table.signal("cnt").unwrap().width, 2);
        assert_eq!(table.signal("cnt").unwrap().kind, NetKind::Reg);
        assert_eq!(table.signal("end_cnt").unwrap().kind, NetKind::Wire);
        assert!(table.signal("valid_out").unwrap().is_clocked);
        assert!(!table.signal("end_cnt").unwrap().is_clocked);
        assert_eq!(table.signal("clk").unwrap().dir, Some(PortDir::Input));
        assert!(table.len() >= 6);
    }

    #[test]
    fn clean_module_passes() {
        let m = parse_module(SRC).unwrap();
        assert!(check_module(&m).is_clean());
    }

    #[test]
    fn undeclared_identifier_is_error() {
        let m =
            parse_module("module m(input a, output b); assign b = a & missing; endmodule").unwrap();
        let report = check_module(&m);
        assert!(!report.is_clean());
        assert!(report.errors[0].message.contains("missing"));
    }

    #[test]
    fn undeclared_property_signal_is_error() {
        let src = r#"
module m(input clk, input a, output reg b);
  always @(posedge clk) b <= a;
  property p;
    @(posedge clk) ghost |-> b;
  endproperty
  assert property (p);
endmodule
"#;
        let m = parse_module(src).unwrap();
        assert!(!check_module(&m).is_clean());
    }

    #[test]
    fn unknown_property_reference_is_error() {
        let src = r#"
module m(input clk, input a, output reg b);
  always @(posedge clk) b <= a;
  assert property (does_not_exist);
endmodule
"#;
        let m = parse_module(src).unwrap();
        assert!(!check_module(&m).is_clean());
    }

    #[test]
    fn dependency_graph_cone() {
        let m = parse_module(SRC).unwrap();
        let graph = DependencyGraph::build(&m);
        let cone = graph.cone_of_influence("valid_out");
        assert!(cone.contains("end_cnt"));
        assert!(cone.contains("cnt"));
        assert!(cone.contains("valid_in"));
        assert!(cone.contains("rst_n"));
        // Direct driver distance.
        assert_eq!(graph.distance("valid_out", "end_cnt"), Some(1));
        assert_eq!(graph.distance("valid_out", "cnt"), Some(2));
        assert_eq!(graph.distance("valid_out", "valid_out"), Some(0));
        assert_eq!(graph.distance("end_cnt", "valid_out"), None);
    }

    #[test]
    fn dependency_graph_edges_are_the_drivers_of_each_signal() {
        let m = parse_module(SRC).unwrap();
        let graph = DependencyGraph::build(&m);
        let mut expected = Vec::new();
        for signal in graph.driven_signals() {
            for driver in graph.drivers(&signal) {
                expected.push((signal.clone(), driver));
            }
        }
        let edges: Vec<(String, String)> = graph
            .edges()
            .map(|(signal, driver)| (signal.to_string(), driver.to_string()))
            .collect();
        assert!(edges.contains(&("valid_out".to_string(), "end_cnt".to_string())));
        assert_eq!(edges, expected);
    }

    #[test]
    fn const_eval_basics() {
        use crate::ast::Expr;
        let e = Expr::binary(BinaryOp::Add, Expr::num(3), Expr::num(4));
        assert_eq!(const_eval(&e), Some(7));
        let c = Expr::binary(BinaryOp::LogicalAnd, Expr::num(1), Expr::num(0));
        assert_eq!(const_eval(&c), Some(0));
        assert_eq!(const_eval(&Expr::ident("x")), None);
        let div0 = Expr::binary(BinaryOp::Div, Expr::num(3), Expr::num(0));
        assert_eq!(const_eval(&div0), Some(0));
    }

    #[test]
    fn multiply_driven_reg_is_warning() {
        let src = r#"
module m(input clk, input a, output reg q);
  always @(posedge clk) q <= a;
  always @(posedge clk) q <= !a;
endmodule
"#;
        let m = parse_module(src).unwrap();
        let report = check_module(&m);
        assert!(report.is_clean());
        assert!(!report.warnings.is_empty());
    }
}
