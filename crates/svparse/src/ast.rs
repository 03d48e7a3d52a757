//! Abstract syntax tree for the Verilog/SVA subset.
//!
//! The tree is deliberately close to concrete syntax: the pretty-printer in
//! [`crate::pretty`] can re-emit it in a canonical one-statement-per-line form, which
//! is the textual substrate used by the mutation engine and the repair model.

use crate::span::Span;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A parsed source file: a sequence of modules.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceFile {
    /// The modules in declaration order.
    pub modules: Vec<Module>,
}

impl SourceFile {
    /// Creates a file from a list of modules.
    pub fn new(modules: Vec<Module>) -> Self {
        Self { modules }
    }
}

/// Direction of a module port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PortDir {
    /// `input`
    Input,
    /// `output`
    Output,
    /// `inout`
    Inout,
}

impl fmt::Display for PortDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PortDir::Input => "input",
            PortDir::Output => "output",
            PortDir::Inout => "inout",
        })
    }
}

/// Net kind of a declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetKind {
    /// `wire` — driven by continuous assignments or combinational always blocks.
    Wire,
    /// `reg` — driven by procedural blocks.
    Reg,
    /// `integer` — treated as a 32-bit reg.
    Integer,
}

impl fmt::Display for NetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NetKind::Wire => "wire",
            NetKind::Reg => "reg",
            NetKind::Integer => "integer",
        })
    }
}

/// A constant `[msb:lsb]` range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitRange {
    /// Most significant bit index.
    pub msb: u32,
    /// Least significant bit index.
    pub lsb: u32,
}

impl BitRange {
    /// Creates a new `[msb:lsb]` range.
    pub fn new(msb: u32, lsb: u32) -> Self {
        Self { msb, lsb }
    }

    /// Bit width described by the range (`msb - lsb + 1` for the usual descending form).
    pub fn width(&self) -> u32 {
        self.msb.abs_diff(self.lsb) + 1
    }
}

impl fmt::Display for BitRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}:{}]", self.msb, self.lsb)
    }
}

/// A module port declaration in ANSI style (`input wire [3:0] a`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Port {
    /// Port direction.
    pub dir: PortDir,
    /// Underlying net kind (`wire` for inputs, often `reg` for clocked outputs).
    pub net: NetKind,
    /// Optional bit range; `None` means a single-bit signal.
    pub width: Option<BitRange>,
    /// Port name.
    pub name: String,
}

impl Port {
    /// Convenience constructor for a single-bit input.
    pub fn input(name: impl Into<String>) -> Self {
        Self {
            dir: PortDir::Input,
            net: NetKind::Wire,
            width: None,
            name: name.into(),
        }
    }

    /// Convenience constructor for a vector input.
    pub fn input_vec(name: impl Into<String>, msb: u32) -> Self {
        Self {
            dir: PortDir::Input,
            net: NetKind::Wire,
            width: Some(BitRange::new(msb, 0)),
            name: name.into(),
        }
    }

    /// Convenience constructor for a single-bit registered output.
    pub fn output_reg(name: impl Into<String>) -> Self {
        Self {
            dir: PortDir::Output,
            net: NetKind::Reg,
            width: None,
            name: name.into(),
        }
    }

    /// Convenience constructor for a single-bit wire output.
    pub fn output_wire(name: impl Into<String>) -> Self {
        Self {
            dir: PortDir::Output,
            net: NetKind::Wire,
            width: None,
            name: name.into(),
        }
    }

    /// Convenience constructor for a vector wire output.
    pub fn output_wire_vec(name: impl Into<String>, msb: u32) -> Self {
        Self {
            dir: PortDir::Output,
            net: NetKind::Wire,
            width: Some(BitRange::new(msb, 0)),
            name: name.into(),
        }
    }

    /// Bit width of the port (1 when no range is given).
    pub(crate) fn bit_width(&self) -> u32 {
        self.width.map_or(1, |r| r.width())
    }
}

/// A hardware module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// ANSI-style port list.
    pub ports: Vec<Port>,
    /// Body items in declaration order.
    pub items: Vec<Item>,
    /// Source span of the whole module.
    pub span: Span,
}

impl Module {
    /// Creates a module with a synthetic span.
    pub fn new(name: impl Into<String>, ports: Vec<Port>, items: Vec<Item>) -> Self {
        Self {
            name: name.into(),
            ports,
            items,
            span: Span::synthetic(),
        }
    }

    /// Iterates over all concurrent assertion items in the module.
    pub fn assertions(&self) -> impl Iterator<Item = &AssertionItem> {
        self.items.iter().filter_map(|item| match item {
            Item::Assertion(a) => Some(a),
            _ => None,
        })
    }

    /// Iterates over all named property declarations in the module.
    pub fn properties(&self) -> impl Iterator<Item = &PropertyDecl> {
        self.items.iter().filter_map(|item| match item {
            Item::Property(p) => Some(p),
            _ => None,
        })
    }

    /// Looks up a property declaration by name.
    pub fn property(&self, name: &str) -> Option<&PropertyDecl> {
        self.properties().find(|p| p.name == name)
    }

    /// Iterates over all always blocks.
    pub fn always_blocks(&self) -> impl Iterator<Item = &AlwaysBlock> {
        self.items.iter().filter_map(|item| match item {
            Item::Always(a) => Some(a),
            _ => None,
        })
    }

    /// Iterates over all continuous assignments.
    pub fn assigns(&self) -> impl Iterator<Item = &ContinuousAssign> {
        self.items.iter().filter_map(|item| match item {
            Item::Assign(a) => Some(a),
            _ => None,
        })
    }

    /// Names of every declared signal (ports, nets and parameters).
    pub fn declared_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.ports.iter().map(|p| p.name.clone()).collect();
        for item in &self.items {
            match item {
                Item::Net(decl) => names.extend(decl.names.iter().cloned()),
                Item::Param(p) => names.push(p.name.clone()),
                _ => {}
            }
        }
        names
    }

    /// Returns `true` if the module contains functional logic (assignments or
    /// procedural blocks), as opposed to pure declarations.  Stage 1 of the data
    /// pipeline filters out modules without functional logic.
    pub fn has_functional_logic(&self) -> bool {
        self.items
            .iter()
            .any(|item| matches!(item, Item::Assign(_) | Item::Always(_) | Item::Initial(_)))
    }
}

/// A module body item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Item {
    /// A `wire`/`reg`/`integer` declaration.
    Net(NetDecl),
    /// A `parameter`/`localparam` declaration.
    Param(ParamDecl),
    /// A continuous `assign`.
    Assign(ContinuousAssign),
    /// An `always` block.
    Always(AlwaysBlock),
    /// An `initial` block.
    Initial(InitialBlock),
    /// A named `property ... endproperty` declaration.
    Property(PropertyDecl),
    /// A concurrent `assert property` item.
    Assertion(AssertionItem),
}

impl Item {
    /// The span of the item.
    pub fn span(&self) -> Span {
        match self {
            Item::Net(x) => x.span,
            Item::Param(x) => x.span,
            Item::Assign(x) => x.span,
            Item::Always(x) => x.span,
            Item::Initial(x) => x.span,
            Item::Property(x) => x.span,
            Item::Assertion(x) => x.span,
        }
    }
}

/// A net (wire/reg/integer) declaration, possibly declaring several names.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetDecl {
    /// Net kind.
    pub kind: NetKind,
    /// Optional bit range (applies to every declared name).
    pub width: Option<BitRange>,
    /// Declared names.
    pub names: Vec<String>,
    /// Source span.
    pub span: Span,
}

/// A parameter declaration with a constant value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamDecl {
    /// `true` for `localparam`, `false` for `parameter`.
    pub local: bool,
    /// Parameter name.
    pub name: String,
    /// Constant value expression.
    pub value: Expr,
    /// Source span.
    pub span: Span,
}

/// A continuous assignment `assign lhs = rhs;`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContinuousAssign {
    /// Target of the assignment.
    pub lhs: LValue,
    /// Driving expression.
    pub rhs: Expr,
    /// Source span.
    pub span: Span,
}

/// Clock/reset edge polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeKind {
    /// `posedge`
    Pos,
    /// `negedge`
    Neg,
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EdgeKind::Pos => "posedge",
            EdgeKind::Neg => "negedge",
        })
    }
}

/// An edge event such as `posedge clk`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EdgeEvent {
    /// Edge polarity.
    pub edge: EdgeKind,
    /// Signal name.
    pub signal: String,
}

impl EdgeEvent {
    /// Creates a `posedge` event on the named signal.
    pub fn posedge(signal: impl Into<String>) -> Self {
        Self {
            edge: EdgeKind::Pos,
            signal: signal.into(),
        }
    }

    /// Creates a `negedge` event on the named signal.
    pub fn negedge(signal: impl Into<String>) -> Self {
        Self {
            edge: EdgeKind::Neg,
            signal: signal.into(),
        }
    }
}

impl fmt::Display for EdgeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.edge, self.signal)
    }
}

/// Sensitivity list of an always block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Sensitivity {
    /// `always @(*)` or `always_comb` — combinational.
    Star,
    /// `always @(posedge clk or negedge rst_n)` — edge-triggered.
    Edges(Vec<EdgeEvent>),
}

impl Sensitivity {
    /// Returns `true` for combinational (`@*`) sensitivity.
    pub fn is_combinational(&self) -> bool {
        matches!(self, Sensitivity::Star)
    }

    /// Returns the clock event (the first `posedge`) for an edge-triggered block.
    pub fn clock(&self) -> Option<&EdgeEvent> {
        match self {
            Sensitivity::Edges(events) => events.iter().find(|e| e.edge == EdgeKind::Pos),
            Sensitivity::Star => None,
        }
    }

    /// Returns the asynchronous reset event (any `negedge`), if present.
    pub fn async_reset(&self) -> Option<&EdgeEvent> {
        match self {
            Sensitivity::Edges(events) => events.iter().find(|e| e.edge == EdgeKind::Neg),
            Sensitivity::Star => None,
        }
    }
}

/// An `always` block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlwaysBlock {
    /// Sensitivity list.
    pub sensitivity: Sensitivity,
    /// Body statement (usually a `begin ... end` block).
    pub body: Stmt,
    /// Source span.
    pub span: Span,
}

/// An `initial` block (used only to preset registers in test fixtures).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InitialBlock {
    /// Body statement.
    pub body: Stmt,
    /// Source span.
    pub span: Span,
}

/// A procedural statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stmt {
    /// `begin ... end`
    Block {
        /// Statements in order.
        stmts: Vec<Stmt>,
        /// Source span.
        span: Span,
    },
    /// `if (cond) ... [else ...]`
    If {
        /// Condition expression.
        cond: Expr,
        /// Then branch.
        then_branch: Box<Stmt>,
        /// Optional else branch.
        else_branch: Option<Box<Stmt>>,
        /// Source span of the `if (cond)` header.
        span: Span,
    },
    /// `case (subject) ... endcase`
    Case {
        /// Scrutinee.
        subject: Expr,
        /// Labelled arms.
        arms: Vec<CaseArm>,
        /// Optional `default:` arm.
        default: Option<Box<Stmt>>,
        /// Source span of the `case (...)` header.
        span: Span,
    },
    /// Blocking assignment `lhs = rhs;`
    Blocking {
        /// Target.
        lhs: LValue,
        /// Value.
        rhs: Expr,
        /// Source span.
        span: Span,
    },
    /// Non-blocking assignment `lhs <= rhs;`
    NonBlocking {
        /// Target.
        lhs: LValue,
        /// Value.
        rhs: Expr,
        /// Source span.
        span: Span,
    },
    /// Empty statement `;`
    Null,
}

impl Stmt {
    /// The span of the statement header.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Block { span, .. }
            | Stmt::If { span, .. }
            | Stmt::Case { span, .. }
            | Stmt::Blocking { span, .. }
            | Stmt::NonBlocking { span, .. } => *span,
            Stmt::Null => Span::synthetic(),
        }
    }

    /// Depth-first traversal of this statement and all nested statements.
    pub fn walk<'a>(&'a self, visit: &mut dyn FnMut(&'a Stmt)) {
        visit(self);
        match self {
            Stmt::Block { stmts, .. } => {
                for s in stmts {
                    s.walk(visit);
                }
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                then_branch.walk(visit);
                if let Some(e) = else_branch {
                    e.walk(visit);
                }
            }
            Stmt::Case { arms, default, .. } => {
                for arm in arms {
                    arm.body.walk(visit);
                }
                if let Some(d) = default {
                    d.walk(visit);
                }
            }
            Stmt::Blocking { .. } | Stmt::NonBlocking { .. } | Stmt::Null => {}
        }
    }

    /// Collects the names of all signals assigned anywhere in this statement.
    pub fn assigned_signals(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_assigned(&mut |name| out.push(name.to_string()));
        out.sort();
        out.dedup();
        out
    }

    /// Every base signal an assignment writes, in traversal order, with repeats:
    /// [`Stmt::assigned_signals`] without the sort, the dedup or the copies.
    pub(crate) fn for_each_assigned<'a>(&'a self, visit: &mut dyn FnMut(&'a str)) {
        self.walk(&mut |s| match s {
            Stmt::Blocking { lhs, .. } | Stmt::NonBlocking { lhs, .. } => {
                lhs.for_each_base_name(visit);
            }
            _ => {}
        });
    }
}

/// One labelled arm of a `case` statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseArm {
    /// Labels that select this arm.
    pub labels: Vec<Expr>,
    /// Arm body.
    pub body: Stmt,
    /// Source span of the label line.
    pub span: Span,
}

/// The target of an assignment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LValue {
    /// A whole signal, e.g. `count`.
    Ident(String),
    /// A single bit, e.g. `flags[2]`.
    Bit(String, Box<Expr>),
    /// A constant part-select, e.g. `data[7:4]`.
    Part(String, BitRange),
    /// A concatenation of lvalues, e.g. `{carry, sum}`.
    Concat(Vec<LValue>),
}

impl LValue {
    /// Base signal names written by this lvalue.
    pub fn base_names(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_base_name(&mut |name| out.push(name.to_string()));
        out
    }

    /// [`LValue::base_names`], in the same order, without the copies.
    pub(crate) fn for_each_base_name<'a>(&'a self, visit: &mut dyn FnMut(&'a str)) {
        match self {
            LValue::Ident(n) | LValue::Bit(n, _) | LValue::Part(n, _) => visit(n),
            LValue::Concat(parts) => parts.iter().for_each(|p| p.for_each_base_name(visit)),
        }
    }
}

/// A numeric literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Literal {
    /// Explicit width (bits) when the literal was sized.
    pub width: Option<u32>,
    /// Value truncated to 64 bits.
    pub value: u64,
    /// Base used in the source (`'b'`, `'d'`, `'h'`, `'o'`).
    pub base: char,
}

impl Literal {
    /// An unsized decimal literal.
    pub(crate) fn dec(value: u64) -> Self {
        Self {
            width: None,
            value,
            base: 'd',
        }
    }

    /// A sized decimal literal such as `4'd3`.
    pub fn sized(width: u32, value: u64) -> Self {
        Self {
            width: Some(width),
            value,
            base: 'd',
        }
    }

    /// A sized binary literal such as `4'b1010`.
    pub fn bin(width: u32, value: u64) -> Self {
        Self {
            width: Some(width),
            value,
            base: 'b',
        }
    }

    /// A sized hexadecimal literal such as `8'hFF`.
    pub fn hex(width: u32, value: u64) -> Self {
        Self {
            width: Some(width),
            value,
            base: 'h',
        }
    }
}

/// Unary operators; each one's spelling is in [`UnaryOp::symbol`]'s table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnaryOp {
    /// Logical negation
    LogicalNot,
    /// Bitwise complement
    BitNot,
    /// Arithmetic negation
    Neg,
    /// Reduction AND
    RedAnd,
    /// Reduction OR
    RedOr,
    /// Reduction XOR
    RedXor,
}

/// Every unary operator's spelling, in declaration order.
const UNARY_OPS: [(UnaryOp, &str); 6] = [
    (UnaryOp::LogicalNot, "!"),
    (UnaryOp::BitNot, "~"),
    (UnaryOp::Neg, "-"),
    (UnaryOp::RedAnd, "&"),
    (UnaryOp::RedOr, "|"),
    (UnaryOp::RedXor, "^"),
];

impl UnaryOp {
    /// The source spelling of the operator.
    pub fn symbol(&self) -> &'static str {
        UNARY_OPS[*self as usize].1
    }

    /// The operator spelled `symbol`, if one is.
    pub(crate) fn from_symbol(symbol: &str) -> Option<UnaryOp> {
        UNARY_OPS
            .iter()
            .find(|&&(_, spelling)| spelling == symbol)
            .map(|&(op, _)| op)
    }
}

/// Binary operators; each one's spelling and precedence are in
/// [`BinaryOp::symbol`]'s table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Shl,
    Shr,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    BitAnd,
    BitOr,
    BitXor,
    LogicalAnd,
    LogicalOr,
}

/// Every binary operator once, in declaration order: its spelling, another
/// spelling the parser reads as it (the two-state simulator has no `===`),
/// and its precedence class, from 1 (`||`, loosest) to 10 (`*`, tightest).
/// Every class is left-associative.
const BINARY_OPS: [(BinaryOp, &str, Option<&str>, u8); 18] = [
    (BinaryOp::Add, "+", None, 9),
    (BinaryOp::Sub, "-", None, 9),
    (BinaryOp::Mul, "*", None, 10),
    (BinaryOp::Div, "/", None, 10),
    (BinaryOp::Mod, "%", None, 10),
    (BinaryOp::Shl, "<<", Some("<<<"), 8),
    (BinaryOp::Shr, ">>", Some(">>>"), 8),
    (BinaryOp::Lt, "<", None, 7),
    (BinaryOp::Le, "<=", None, 7),
    (BinaryOp::Gt, ">", None, 7),
    (BinaryOp::Ge, ">=", None, 7),
    (BinaryOp::Eq, "==", Some("==="), 6),
    (BinaryOp::Ne, "!=", Some("!=="), 6),
    (BinaryOp::BitAnd, "&", None, 5),
    (BinaryOp::BitOr, "|", None, 3),
    (BinaryOp::BitXor, "^", None, 4),
    (BinaryOp::LogicalAnd, "&&", None, 2),
    (BinaryOp::LogicalOr, "||", None, 1),
];

impl BinaryOp {
    /// The source spelling of the operator.
    pub fn symbol(&self) -> &'static str {
        BINARY_OPS[*self as usize].1
    }

    /// All binary operators, useful for mutation enumeration.
    pub fn all() -> &'static [BinaryOp] {
        const ALL: [BinaryOp; 18] = {
            let (mut all, mut i) = ([BinaryOp::Add; 18], 0);
            while i < all.len() {
                all[i] = BINARY_OPS[i].0;
                i += 1;
            }
            all
        };
        &ALL
    }

    /// The operator's precedence class: a higher class binds tighter.
    pub(crate) fn precedence(self) -> u8 {
        BINARY_OPS[self as usize].3
    }

    /// The operator spelled `symbol`, by its spelling or its alias, if one is.
    pub(crate) fn from_symbol(symbol: &str) -> Option<BinaryOp> {
        BINARY_OPS
            .iter()
            .find(|&&(_, spelling, alias, _)| spelling == symbol || alias == Some(symbol))
            .map(|&(op, ..)| op)
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// A numeric literal.
    Number(Literal),
    /// A signal or parameter reference.
    Ident(String),
    /// A unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// A binary operation.
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// The ternary conditional `cond ? a : b`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Bit select `sig[idx]`.
    Bit(String, Box<Expr>),
    /// Constant part select `sig[msb:lsb]`.
    Part(String, BitRange),
    /// Concatenation `{a, b, c}`.
    Concat(Vec<Expr>),
    /// Replication `{n{expr}}`.
    Repeat(u32, Box<Expr>),
    /// `$past(expr)` or `$past(expr, n)` — value of `expr` `n` cycles ago (SVA only).
    Past(Box<Expr>, u32),
    /// `$rose(expr)` — expression rose this cycle (SVA only).
    Rose(Box<Expr>),
    /// `$fell(expr)` — expression fell this cycle (SVA only).
    Fell(Box<Expr>),
    /// `$stable(expr)` — expression unchanged since last cycle (SVA only).
    Stable(Box<Expr>),
}

impl Expr {
    /// Convenience constructor for an identifier expression.
    pub fn ident(name: impl Into<String>) -> Self {
        Expr::Ident(name.into())
    }

    /// Convenience constructor for an unsized decimal literal.
    pub fn num(value: u64) -> Self {
        Expr::Number(Literal::dec(value))
    }

    /// Convenience constructor for a sized decimal literal.
    pub fn sized(width: u32, value: u64) -> Self {
        Expr::Number(Literal::sized(width, value))
    }

    /// Convenience constructor for a binary operation.
    pub fn binary(op: BinaryOp, lhs: Expr, rhs: Expr) -> Self {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// Convenience constructor for a unary operation.
    pub fn unary(op: UnaryOp, operand: Expr) -> Self {
        Expr::Unary(op, Box::new(operand))
    }

    /// Logical negation helper.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Expr::unary(UnaryOp::LogicalNot, self)
    }

    /// Equality comparison helper.
    pub fn eq(self, rhs: Expr) -> Self {
        Expr::binary(BinaryOp::Eq, self, rhs)
    }

    /// Collects all identifier names referenced in the expression (including inside
    /// `$past`/`$rose`/... and index expressions).
    pub fn idents(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_ident(&mut |name| out.push(name.to_string()));
        out.sort();
        out.dedup();
        out
    }

    /// Every identifier the expression references, in order of appearance, with
    /// repeats: [`Expr::idents`] without the sort, the dedup or the copies.
    pub(crate) fn for_each_ident<'a>(&'a self, visit: &mut dyn FnMut(&'a str)) {
        match self {
            Expr::Number(_) => {}
            Expr::Ident(n) | Expr::Part(n, _) => visit(n),
            Expr::Unary(_, e)
            | Expr::Past(e, _)
            | Expr::Rose(e)
            | Expr::Fell(e)
            | Expr::Stable(e)
            | Expr::Repeat(_, e) => e.for_each_ident(visit),
            Expr::Binary(_, a, b) => {
                a.for_each_ident(visit);
                b.for_each_ident(visit);
            }
            Expr::Ternary(c, a, b) => {
                c.for_each_ident(visit);
                a.for_each_ident(visit);
                b.for_each_ident(visit);
            }
            Expr::Bit(n, idx) => {
                visit(n);
                idx.for_each_ident(visit);
            }
            Expr::Concat(parts) => parts.iter().for_each(|p| p.for_each_ident(visit)),
        }
    }

    /// Depth-first traversal over every sub-expression, including `self`.
    pub fn walk<'a>(&'a self, visit: &mut dyn FnMut(&'a Expr)) {
        visit(self);
        match self {
            Expr::Number(_) | Expr::Ident(_) | Expr::Part(_, _) => {}
            Expr::Unary(_, e)
            | Expr::Past(e, _)
            | Expr::Rose(e)
            | Expr::Fell(e)
            | Expr::Stable(e)
            | Expr::Repeat(_, e) => e.walk(visit),
            Expr::Binary(_, a, b) => {
                a.walk(visit);
                b.walk(visit);
            }
            Expr::Ternary(c, a, b) => {
                c.walk(visit);
                a.walk(visit);
                b.walk(visit);
            }
            Expr::Bit(_, idx) => idx.walk(visit),
            Expr::Concat(parts) => {
                for p in parts {
                    p.walk(visit);
                }
            }
        }
    }
}

/// A named concurrent property declaration.
///
/// The supported shape mirrors the paper's running example:
///
/// ```text
/// property valid_out_check;
///   @(posedge clk) disable iff (!rst_n)
///   end_cnt |-> ##1 valid_out == 1;
/// endproperty
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PropertyDecl {
    /// Property name.
    pub name: String,
    /// Sampling clock.
    pub clock: EdgeEvent,
    /// Optional `disable iff (...)` guard.
    pub disable_iff: Option<Expr>,
    /// Property body.
    pub body: PropExpr,
    /// Source span.
    pub span: Span,
}

/// A property expression (a small temporal-logic fragment).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PropExpr {
    /// A boolean expression sampled at the property clock.
    Expr(Expr),
    /// Overlapping (`|->`) or non-overlapping (`|=>`) implication.
    Implication {
        /// Antecedent (trigger) expression.
        antecedent: Box<PropExpr>,
        /// Consequent that must hold when the antecedent matches.
        consequent: Box<PropExpr>,
        /// `true` for `|->`, `false` for `|=>`.
        overlapping: bool,
    },
    /// A delayed sequence element `##N expr`, optionally chained after another element.
    Delay {
        /// The element preceding the delay, if any (`a ##1 b` vs a leading `##1 b`).
        lhs: Option<Box<PropExpr>>,
        /// Number of clock cycles to wait.
        cycles: u32,
        /// The element that must hold after the delay.
        rhs: Box<PropExpr>,
    },
    /// Property negation `not (...)`.
    Not(Box<PropExpr>),
}

impl PropExpr {
    /// All signal identifiers referenced anywhere in the property expression.
    pub fn idents(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_ident(&mut |name| out.push(name.to_string()));
        out.sort();
        out.dedup();
        out
    }

    /// Every identifier the property references, in order of appearance, with
    /// repeats: [`PropExpr::idents`] without the sort, the dedup or the copies.
    pub(crate) fn for_each_ident<'a>(&'a self, visit: &mut dyn FnMut(&'a str)) {
        match self {
            PropExpr::Expr(e) => e.for_each_ident(visit),
            PropExpr::Implication {
                antecedent,
                consequent,
                ..
            } => {
                antecedent.for_each_ident(visit);
                consequent.for_each_ident(visit);
            }
            PropExpr::Delay { lhs, rhs, .. } => {
                if let Some(l) = lhs {
                    l.for_each_ident(visit);
                }
                rhs.for_each_ident(visit);
            }
            PropExpr::Not(inner) => inner.for_each_ident(visit),
        }
    }

    /// The maximum number of future cycles the property looks ahead (its "depth").
    pub fn horizon(&self) -> u32 {
        match self {
            PropExpr::Expr(_) => 0,
            PropExpr::Implication {
                antecedent,
                consequent,
                overlapping,
            } => {
                let extra = u32::from(!*overlapping);
                antecedent.horizon() + consequent.horizon() + extra
            }
            PropExpr::Delay { lhs, cycles, rhs } => {
                lhs.as_ref().map_or(0, |l| l.horizon()) + cycles + rhs.horizon()
            }
            PropExpr::Not(inner) => inner.horizon(),
        }
    }
}

/// What a concurrent assertion checks: either a named property or an inline one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AssertTarget {
    /// `assert property (prop_name)`
    Named(String),
    /// `assert property (@(posedge clk) expr |-> expr)` written inline.
    Inline(Box<PropertyDecl>),
}

/// A concurrent assertion item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssertionItem {
    /// Optional label (`label: assert property (...)`).
    pub label: Option<String>,
    /// The property being asserted.
    pub target: AssertTarget,
    /// Optional `$error("...")` message from the else branch.
    pub message: Option<String>,
    /// Source span.
    pub span: Span,
}

impl AssertionItem {
    /// The display name of the assertion: its label, or the property name.
    pub fn display_name(&self) -> String {
        if let Some(label) = &self.label {
            return label.clone();
        }
        match &self.target {
            AssertTarget::Named(name) => name.clone(),
            AssertTarget::Inline(p) => p.name.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_tables_are_in_declaration_order() {
        for (at, &(op, ..)) in BINARY_OPS.iter().enumerate() {
            assert_eq!(op as usize, at, "{op:?}");
        }
        for (at, &(op, _)) in UNARY_OPS.iter().enumerate() {
            assert_eq!(op as usize, at, "{op:?}");
        }
    }

    #[test]
    fn bit_range_width() {
        assert_eq!(BitRange::new(7, 0).width(), 8);
        assert_eq!(BitRange::new(0, 0).width(), 1);
        assert_eq!(BitRange::new(3, 1).width(), 3);
    }

    #[test]
    fn expr_idents_dedup_and_sort() {
        let e = Expr::binary(
            BinaryOp::Add,
            Expr::ident("b"),
            Expr::binary(BinaryOp::BitAnd, Expr::ident("a"), Expr::ident("b")),
        );
        let ids = e.idents();
        assert_eq!(ids, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn lvalue_base_names() {
        let lv = LValue::Concat(vec![
            LValue::Ident("carry".into()),
            LValue::Part("sum".into(), BitRange::new(3, 0)),
        ]);
        assert_eq!(
            lv.base_names(),
            vec!["carry".to_string(), "sum".to_string()]
        );
    }

    #[test]
    fn stmt_assigned_signals() {
        let stmt = Stmt::Block {
            stmts: vec![
                Stmt::NonBlocking {
                    lhs: LValue::Ident("q".into()),
                    rhs: Expr::ident("d"),
                    span: Span::line(2),
                },
                Stmt::If {
                    cond: Expr::ident("en"),
                    then_branch: Box::new(Stmt::NonBlocking {
                        lhs: LValue::Ident("count".into()),
                        rhs: Expr::num(0),
                        span: Span::line(4),
                    }),
                    else_branch: None,
                    span: Span::line(3),
                },
            ],
            span: Span::new(1, 5),
        };
        assert_eq!(
            stmt.assigned_signals(),
            vec!["count".to_string(), "q".to_string()]
        );
    }

    #[test]
    fn prop_horizon() {
        // end_cnt |-> ##1 valid_out == 1   → horizon 1
        let prop = PropExpr::Implication {
            antecedent: Box::new(PropExpr::Expr(Expr::ident("end_cnt"))),
            consequent: Box::new(PropExpr::Delay {
                lhs: None,
                cycles: 1,
                rhs: Box::new(PropExpr::Expr(Expr::ident("valid_out").eq(Expr::num(1)))),
            }),
            overlapping: true,
        };
        assert_eq!(prop.horizon(), 1);
        let nonoverlap = PropExpr::Implication {
            antecedent: Box::new(PropExpr::Expr(Expr::ident("a"))),
            consequent: Box::new(PropExpr::Expr(Expr::ident("b"))),
            overlapping: false,
        };
        assert_eq!(nonoverlap.horizon(), 1);
    }

    #[test]
    fn sensitivity_clock_and_reset() {
        let s = Sensitivity::Edges(vec![EdgeEvent::posedge("clk"), EdgeEvent::negedge("rst_n")]);
        assert_eq!(s.clock().unwrap().signal, "clk");
        assert_eq!(s.async_reset().unwrap().signal, "rst_n");
        assert!(!s.is_combinational());
        assert!(Sensitivity::Star.is_combinational());
    }

    #[test]
    fn module_helpers() {
        let m = Module::new(
            "m",
            vec![Port::input("a"), Port::output_reg("q")],
            vec![Item::Net(NetDecl {
                kind: NetKind::Wire,
                width: Some(BitRange::new(7, 0)),
                names: vec!["tmp".into()],
                span: Span::line(2),
            })],
        );
        assert!(!m.has_functional_logic());
        assert_eq!(m.declared_names().len(), 3);
    }

    #[test]
    fn assertion_display_name() {
        let a = AssertionItem {
            label: Some("check_q".into()),
            target: AssertTarget::Named("p_q".into()),
            message: None,
            span: Span::line(9),
        };
        assert_eq!(a.display_name(), "check_q");
        let b = AssertionItem {
            label: None,
            target: AssertTarget::Named("p_q".into()),
            message: None,
            span: Span::line(9),
        };
        assert_eq!(b.display_name(), "p_q");
    }
}
