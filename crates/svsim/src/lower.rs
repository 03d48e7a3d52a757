//! Lowering: from an elaborated module to the slot-indexed programs of [`crate::eval`].
//!
//! Done once per design, inside [`crate::Design::elaborate`].  Every declared signal
//! gets a slot, in name order; every *other* name the source mentions (a parameter
//! used as a signal, a name only an `initial` block or a `disable iff` guard knows —
//! semantic analysis lets a few through) gets a *late* slot after them, which holds
//! [`Value::ABSENT`] until something writes it.  After this point nothing in the
//! simulator looks a name up while it runs.

use crate::elaborate::ResolvedAssertion;
use crate::eval::{CaseLabel, Code, ConcatPart, Op, Prog, Step, Target};
use crate::value::Value;
use std::collections::BTreeMap;
use std::sync::Arc;
use svparse::sema::SymbolTable;
use svparse::{Expr, Item, LValue, Module, PropExpr, Stmt};

/// Which slot each name lives in, shared by a design and the traces recorded from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Layout {
    slots: BTreeMap<String, u32>,
    /// Declared width per slot; `None` for late slots.
    widths: Vec<Option<u32>>,
}

impl Layout {
    pub fn slot(&self, name: &str) -> Option<u32> {
        self.slots.get(name).copied()
    }

    pub fn len(&self) -> usize {
        self.widths.len()
    }

    /// Every name with a slot, declared or not.
    pub fn names(&self) -> impl Iterator<Item = &str> + Clone {
        self.slots.keys().map(String::as_str)
    }

    /// The width a write from outside a body is sized to: the declared one, or 1.
    pub fn width(&self, slot: u32) -> u32 {
        self.widths[slot as usize].unwrap_or(1)
    }

    /// The power-up state: declared signals at zero, late slots absent.
    pub fn zeros(&self) -> impl Iterator<Item = Value> + '_ {
        self.widths
            .iter()
            .map(|width| width.map_or(Value::ABSENT, Value::zero))
    }
}

/// One item of the combinational network, in module order.
#[derive(Debug, Clone)]
pub(crate) enum Comb {
    Assign { target: Target, rhs: Prog },
    Always(Prog),
}

/// An edge-triggered `always` body.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Clocked {
    pub body: Prog,
    /// Whether the body has a blocking assignment, i.e. needs a shadow state of its
    /// own to write into.
    pub blocking: bool,
}

/// A lowered property body; mirrors [`PropExpr`] with programs for expressions.
#[derive(Debug, Clone)]
pub(crate) enum Seq {
    Expr(Prog),
    Not(Box<Seq>),
    Delay {
        lhs: Option<Box<Seq>>,
        cycles: usize,
        rhs: Box<Seq>,
    },
    Implication {
        antecedent: Box<Seq>,
        consequent: Box<Seq>,
        overlapping: bool,
    },
}

/// A lowered assertion, index-aligned with [`crate::Design::assertions`].
#[derive(Debug, Clone)]
pub(crate) struct Property {
    pub guard: Option<Prog>,
    pub body: Seq,
    /// No attempt looks further ahead of its start cycle than this.
    pub horizon: usize,
    /// No attempt reads a row further back from its start cycle than this: the
    /// largest `past` of any load in the guard or the body.
    pub lookback: usize,
}

/// The compiled form of a design.
#[derive(Debug, Clone)]
pub(crate) struct Compiled {
    pub layout: Arc<Layout>,
    pub code: Code,
    pub initial: Vec<Prog>,
    pub comb: Vec<Comb>,
    pub clocked: Vec<Clocked>,
    pub properties: Vec<Property>,
}

impl Compiled {
    pub fn lower(module: &Module, symbols: &SymbolTable, assertions: &[ResolvedAssertion]) -> Self {
        let mut lowering = Lowering::new(symbols);
        let (mut initial, mut comb, mut clocked) = (Vec::new(), Vec::new(), Vec::new());
        for item in &module.items {
            match item {
                Item::Initial(block) => initial.push(lowering.body(&block.body)),
                Item::Assign(assign) => comb.push(Comb::Assign {
                    rhs: lowering.expr(&assign.rhs),
                    target: lowering.target(&assign.lhs),
                }),
                Item::Always(block) if block.sensitivity.is_combinational() => {
                    comb.push(Comb::Always(lowering.body(&block.body)))
                }
                Item::Always(block) => clocked.push(Clocked {
                    body: lowering.body(&block.body),
                    blocking: crate::elaborate::uses_blocking_assignment(&block.body),
                }),
                _ => {}
            }
        }
        let properties = assertions
            .iter()
            .map(|assertion| {
                let property = assertion.property(module);
                lowering.deepest_past = 0;
                let guard = property
                    .disable_iff
                    .as_ref()
                    .map(|guard| lowering.expr(guard));
                let body = lowering.seq(&property.body);
                Property {
                    guard,
                    body,
                    horizon: property.body.horizon() as usize,
                    lookback: lowering.deepest_past as usize,
                }
            })
            .collect();
        Compiled {
            layout: Arc::new(Layout {
                slots: lowering.slots,
                widths: lowering.widths,
            }),
            code: lowering.code,
            initial,
            comb,
            clocked,
            properties,
        }
    }
}

/// The state of one lowering: the slots handed out so far and the code emitted.
#[derive(Debug)]
pub(crate) struct Lowering {
    slots: BTreeMap<String, u32>,
    widths: Vec<Option<u32>>,
    code: Code,
    /// The largest `past` of any load emitted since it was last reset.
    deepest_past: u32,
}

impl Lowering {
    /// A lowering whose declared signals take the first slots, in name order.
    pub fn new(symbols: &SymbolTable) -> Self {
        Self {
            slots: symbols
                .signals()
                .map(|info| info.name.clone())
                .zip(0..)
                .collect(),
            widths: symbols.signals().map(|info| Some(info.width)).collect(),
            code: Code::default(),
            deepest_past: 0,
        }
    }

    #[cfg(test)]
    pub fn slot(&self, name: &str) -> Option<u32> {
        self.slots.get(name).copied()
    }

    #[cfg(test)]
    pub fn slots(&self) -> usize {
        self.widths.len()
    }

    #[cfg(test)]
    pub fn code(&self) -> &Code {
        &self.code
    }

    /// The slot of a name, handing out a late one on first sight of an undeclared name.
    fn resolve(&mut self, name: &str) -> u32 {
        if let Some(slot) = self.slots.get(name) {
            return *slot;
        }
        let slot = self.widths.len() as u32;
        self.slots.insert(name.to_string(), slot);
        self.widths.push(None);
        slot
    }

    fn declared_width(&self, name: &str) -> Option<u32> {
        self.slots
            .get(name)
            .and_then(|slot| self.widths[*slot as usize])
    }

    /// Lowers an expression to a program of its own.
    pub fn expr(&mut self, expr: &Expr) -> Prog {
        let start = self.code.ops.len() as u32;
        self.emit(expr, 0);
        Prog {
            start,
            end: self.code.ops.len() as u32,
        }
    }

    fn load(&mut self, name: &str, past: u32) {
        self.deepest_past = self.deepest_past.max(past);
        let slot = self.resolve(name);
        self.code.ops.push(match self.widths[slot as usize] {
            Some(_) => Op::Load { slot, past },
            None => Op::LoadLate { slot, past },
        });
    }

    fn emit(&mut self, expr: &Expr, past: u32) {
        match expr {
            Expr::Number(lit) => {
                let width = lit.width.unwrap_or(32).clamp(1, Value::MAX_WIDTH);
                self.code.ops.push(Op::Const(Value::new(lit.value, width)));
            }
            Expr::Ident(name) => self.load(name, past),
            Expr::Unary(op, inner) => {
                self.emit(inner, past);
                self.code.ops.push(Op::Unary(*op));
            }
            Expr::Binary(op, lhs, rhs) => {
                self.emit(lhs, past);
                self.emit(rhs, past);
                self.code.ops.push(Op::Binary(*op));
            }
            Expr::Ternary(cond, then, otherwise) => {
                self.emit(cond, past);
                let unless = self.code.ops.len();
                self.code.ops.push(Op::SkipUnless(0));
                self.emit(then, past);
                let skip = self.code.ops.len();
                self.code.ops.push(Op::Skip(0));
                self.code.ops[unless] = Op::SkipUnless(self.code.ops.len() as u32);
                self.emit(otherwise, past);
                self.code.ops[skip] = Op::Skip(self.code.ops.len() as u32);
            }
            Expr::Bit(name, index) => {
                self.load(name, past);
                self.emit(index, past);
                self.code.ops.push(Op::Bit);
            }
            Expr::Part(name, range) => {
                self.load(name, past);
                self.code.ops.push(Op::Part {
                    msb: range.msb,
                    lsb: range.lsb,
                });
            }
            Expr::Concat(parts) => match parts.split_first() {
                None => self.code.ops.push(Op::Const(Value::bit(false))),
                Some((first, rest)) => {
                    self.emit(first, past);
                    for part in rest {
                        self.emit(part, past);
                        self.code.ops.push(Op::Concat);
                    }
                }
            },
            Expr::Repeat(count, inner) => {
                self.emit(inner, past);
                self.code.ops.push(Op::Repeat(*count));
            }
            // Nested `$past` depths add up; only the release build's wrapping
            // overflow is reachable from source text, and it is what is pinned.
            Expr::Past(inner, cycles) => self.emit(inner, past.wrapping_add(*cycles)),
            Expr::Rose(inner) | Expr::Fell(inner) | Expr::Stable(inner) => {
                self.emit(inner, past);
                self.emit(inner, past.wrapping_add(1));
                self.code.ops.push(match expr {
                    Expr::Rose(_) => Op::Rose,
                    Expr::Fell(_) => Op::Fell,
                    _ => Op::Stable,
                });
            }
        }
    }

    /// Lowers a procedural statement to a body of its own.
    pub fn body(&mut self, stmt: &Stmt) -> Prog {
        let start = self.code.steps.len() as u32;
        self.stmt(stmt);
        Prog {
            start,
            end: self.code.steps.len() as u32,
        }
    }

    fn here(&self) -> u32 {
        self.code.steps.len() as u32
    }

    /// Emits a jump whose destination is filled in by [`Lowering::land`].
    fn jump(&mut self) -> usize {
        self.code.steps.push(Step::Jump(0));
        self.code.steps.len() - 1
    }

    /// Points the branch at `at` to the next step to be emitted.
    fn land(&mut self, at: usize) {
        let here = self.here();
        match &mut self.code.steps[at] {
            Step::Jump(to) | Step::Unless { to, .. } | Step::Case { default: to, .. } => *to = here,
            Step::Assign { .. } => unreachable!("only branches are patched"),
        }
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Block { stmts, .. } => stmts.iter().for_each(|s| self.stmt(s)),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                let cond = self.expr(cond);
                let unless = self.code.steps.len();
                self.code.steps.push(Step::Unless { cond, to: 0 });
                self.stmt(then_branch);
                match else_branch {
                    Some(otherwise) => {
                        let done = self.jump();
                        self.land(unless);
                        self.stmt(otherwise);
                        self.land(done);
                    }
                    None => self.land(unless),
                }
            }
            Stmt::Case {
                subject,
                arms,
                default,
                ..
            } => {
                let subject = self.expr(subject);
                let case = self.code.steps.len();
                self.code.steps.push(Step::Case {
                    subject,
                    labels: Prog { start: 0, end: 0 },
                    default: 0,
                });
                // Arms may hold cases of their own, so this one's labels are collected
                // here and appended to the pool in one run once the arms are lowered.
                let (mut labels, mut exits) = (Vec::new(), Vec::new());
                for arm in arms {
                    let to = self.here();
                    for label in &arm.labels {
                        let label = self.expr(label);
                        labels.push(CaseLabel { label, to });
                    }
                    self.stmt(&arm.body);
                    exits.push(self.jump());
                }
                self.land(case);
                if let Some(default) = default {
                    self.stmt(default);
                }
                exits.into_iter().for_each(|exit| self.land(exit));
                let start = self.code.labels.len() as u32;
                self.code.labels.extend(labels);
                let end = self.code.labels.len() as u32;
                if let Step::Case { labels, .. } = &mut self.code.steps[case] {
                    *labels = Prog { start, end };
                }
            }
            Stmt::Blocking { lhs, rhs, .. } | Stmt::NonBlocking { lhs, rhs, .. } => {
                let rhs = self.expr(rhs);
                let target = self.target(lhs);
                self.code.targets.push(target);
                self.code.steps.push(Step::Assign {
                    target: self.code.targets.len() as u32 - 1,
                    rhs,
                    nonblocking: matches!(stmt, Stmt::NonBlocking { .. }),
                });
            }
            Stmt::Null => {}
        }
    }

    /// Lowers an assignment target.
    pub fn target(&mut self, lhs: &LValue) -> Target {
        match lhs {
            LValue::Ident(name) => Target::Whole {
                slot: self.resolve(name),
                width: self.declared_width(name),
            },
            LValue::Bit(name, index) => Target::Bit {
                slot: self.resolve(name),
                index: self.expr(index),
            },
            LValue::Part(name, range) => Target::Part {
                slot: self.resolve(name),
                msb: range.msb,
                lsb: range.lsb,
            },
            LValue::Concat(parts) => {
                // Bits are handed out from the MSB side by the *full* width of each
                // part's base signals, selects included — the reference's rule.
                let width_of = |lowering: &Self, part: &LValue| -> u32 {
                    part.base_names()
                        .iter()
                        .map(|name| lowering.declared_width(name).unwrap_or(1))
                        .sum()
                };
                let total: u32 = parts.iter().map(|part| width_of(self, part)).sum();
                let mut consumed = 0u32;
                let parts = parts
                    .iter()
                    .map(|part| {
                        let width = width_of(self, part);
                        let shift = total.saturating_sub(consumed + width);
                        consumed += width;
                        ConcatPart {
                            target: self.target(part),
                            width: width.max(1),
                            shift,
                        }
                    })
                    .collect();
                Target::Concat(parts)
            }
        }
    }

    /// Lowers a property body.
    pub fn seq(&mut self, prop: &PropExpr) -> Seq {
        match prop {
            PropExpr::Expr(expr) => Seq::Expr(self.expr(expr)),
            PropExpr::Not(inner) => Seq::Not(Box::new(self.seq(inner))),
            PropExpr::Delay { lhs, cycles, rhs } => Seq::Delay {
                lhs: lhs.as_ref().map(|lhs| Box::new(self.seq(lhs))),
                cycles: *cycles as usize,
                rhs: Box::new(self.seq(rhs)),
            },
            PropExpr::Implication {
                antecedent,
                consequent,
                overlapping,
            } => Seq::Implication {
                antecedent: Box::new(self.seq(antecedent)),
                consequent: Box::new(self.seq(consequent)),
                overlapping: *overlapping,
            },
        }
    }
}
