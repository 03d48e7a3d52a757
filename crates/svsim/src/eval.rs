//! Slot-indexed programs and the loops that run them.
//!
//! [`crate::lower`] turns every expression of a design into a postfix [`Op`] program
//! and every procedural body into a flat list of [`Step`]s; both live in one [`Code`]
//! pool per design and are addressed by [`Prog`] ranges.  Signals are slots of a
//! `[Value]`, so running a program touches no names and allocates nothing.
//!
//! The arithmetic is [`crate::value::ops`] — the same functions the reference
//! interpreter calls — so only the plumbing differs between the two engines.

use crate::value::{ops, Value};
use svparse::{BinaryOp, UnaryOp};

/// A half-open range of [`Op`]s (an expression) or [`Step`]s (a body) in a [`Code`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Prog {
    pub start: u32,
    pub end: u32,
}

/// One postfix instruction; operands are popped from, and the result pushed onto, the
/// value stack.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    Const(Value),
    /// Reads a declared signal, `past` cycles back where the reader keeps a history.
    Load {
        slot: u32,
        past: u32,
    },
    /// Reads a name the design never declared: a 1-bit zero until something writes it.
    LoadLate {
        slot: u32,
        past: u32,
    },
    Unary(UnaryOp),
    Binary(BinaryOp),
    /// `[base, index]` → `base[index]`.
    Bit,
    /// `[base]` → `base[msb:lsb]`.
    Part {
        msb: u32,
        lsb: u32,
    },
    /// `[high, low]` → `{high, low}`.
    Concat,
    /// `[unit]` → `{count{unit}}`.
    Repeat(u32),
    /// `[now, before]` → `$rose`, `$fell`, `$stable`.
    Rose,
    Fell,
    Stable,
    /// Pops the condition of `c ? a : b` and continues at the op index when it is false.
    SkipUnless(u32),
    /// Continues at the op index.
    Skip(u32),
}

/// Where a program's loads come from: the live state (which has no history, so
/// `$past(x)` in design code reads the present — pinned) or a sampled trace.
pub(crate) trait Read {
    fn read(&self, slot: u32, past: u32) -> Value;
}

impl Read for [Value] {
    #[inline]
    fn read(&self, slot: u32, _past: u32) -> Value {
        self[slot as usize]
    }
}

/// One step of a procedural body.
#[derive(Debug, Clone)]
pub(crate) enum Step {
    /// `target = rhs` or `target <= rhs`.
    Assign {
        target: u32,
        rhs: Prog,
        nonblocking: bool,
    },
    /// Continues at the step index when `cond` is false.
    Unless { cond: Prog, to: u32 },
    /// Continues at the step index.
    Jump(u32),
    /// Continues at the first label whose bits equal the subject's, else at `default`.
    Case {
        subject: Prog,
        labels: Prog,
        default: u32,
    },
}

/// One `case` label: the expression and the step its arm starts at.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CaseLabel {
    pub label: Prog,
    pub to: u32,
}

/// A lowered assignment target.
#[derive(Debug, Clone)]
pub(crate) enum Target {
    /// A whole signal, resized to its declared width (left as is for undeclared names).
    Whole { slot: u32, width: Option<u32> },
    /// One bit of the signal's current value.
    Bit { slot: u32, index: Prog },
    /// A constant part-select of the signal's current value.
    Part { slot: u32, msb: u32, lsb: u32 },
    /// `{a, b, ...}`: each part takes `width` bits of the value, `shift` bits up.
    Concat(Vec<ConcatPart>),
}

#[derive(Debug, Clone)]
pub(crate) struct ConcatPart {
    pub target: Target,
    pub width: u32,
    pub shift: u32,
}

/// Every program of one design.
#[derive(Debug, Clone, Default)]
pub(crate) struct Code {
    pub ops: Vec<Op>,
    pub steps: Vec<Step>,
    pub labels: Vec<CaseLabel>,
    pub targets: Vec<Target>,
}

/// Buffers the loops reuse between calls.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    pub stack: Vec<Value>,
    updates: Vec<(u32, Value)>,
}

impl Code {
    /// Evaluates an expression program.
    pub fn eval<R: Read + ?Sized>(&self, prog: Prog, read: &R, stack: &mut Vec<Value>) -> Value {
        let (mut pc, end) = (prog.start as usize, prog.end as usize);
        while pc < end {
            let op = self.ops[pc];
            pc += 1;
            match op {
                Op::Const(value) => stack.push(value),
                Op::Load { slot, past } => stack.push(read.read(slot, past)),
                Op::LoadLate { slot, past } => {
                    stack.push(read.read(slot, past).present().unwrap_or(Value::bit(false)))
                }
                Op::Unary(op) => {
                    let v = pop(stack);
                    stack.push(match op {
                        UnaryOp::LogicalNot => Value::bit(!v.is_true()),
                        UnaryOp::BitNot => v.not(),
                        UnaryOp::Neg => v.neg(),
                        UnaryOp::RedAnd => v.reduce_and(),
                        UnaryOp::RedOr => v.reduce_or(),
                        UnaryOp::RedXor => v.reduce_xor(),
                    });
                }
                Op::Binary(op) => {
                    let b = pop(stack);
                    let a = pop(stack);
                    stack.push(match op {
                        BinaryOp::Add => ops::add(a, b),
                        BinaryOp::Sub => ops::sub(a, b),
                        BinaryOp::Mul => ops::mul(a, b),
                        BinaryOp::Div => ops::div(a, b),
                        BinaryOp::Mod => ops::rem(a, b),
                        BinaryOp::Shl => ops::shl(a, b),
                        BinaryOp::Shr => ops::shr(a, b),
                        BinaryOp::Lt => ops::lt(a, b),
                        BinaryOp::Le => ops::le(a, b),
                        BinaryOp::Gt => ops::gt(a, b),
                        BinaryOp::Ge => ops::ge(a, b),
                        BinaryOp::Eq => ops::eq(a, b),
                        BinaryOp::Ne => ops::ne(a, b),
                        BinaryOp::BitAnd => ops::bit_and(a, b),
                        BinaryOp::BitOr => ops::bit_or(a, b),
                        BinaryOp::BitXor => ops::bit_xor(a, b),
                        BinaryOp::LogicalAnd => ops::logical_and(a, b),
                        BinaryOp::LogicalOr => ops::logical_or(a, b),
                    });
                }
                Op::Bit => {
                    let index = pop(stack).bits() as u32;
                    let base = pop(stack);
                    stack.push(base.extract_bit(index));
                }
                Op::Part { msb, lsb } => {
                    let base = pop(stack);
                    stack.push(base.extract_range(msb, lsb));
                }
                Op::Concat => {
                    let low = pop(stack);
                    let high = pop(stack);
                    stack.push(ops::concat(high, low));
                }
                Op::Repeat(count) => {
                    let unit = pop(stack);
                    let mut acc = unit;
                    for _ in 1..count.max(1) {
                        acc = ops::concat(acc, unit);
                    }
                    stack.push(acc);
                }
                Op::Rose | Op::Fell | Op::Stable => {
                    let before = pop(stack);
                    let now = pop(stack);
                    stack.push(Value::bit(match op {
                        Op::Rose => now.is_true() && !before.is_true(),
                        Op::Fell => !now.is_true() && before.is_true(),
                        _ => now.bits() == before.bits(),
                    }));
                }
                Op::SkipUnless(to) => {
                    if !pop(stack).is_true() {
                        pc = to as usize;
                    }
                }
                Op::Skip(to) => pc = to as usize,
            }
        }
        pop(stack)
    }

    /// Runs a procedural body against `state`: blocking writes land in it at once,
    /// non-blocking ones are appended to `deferred` for the caller to commit.
    pub fn exec(
        &self,
        body: Prog,
        state: &mut [Value],
        deferred: &mut Vec<(u32, Value)>,
        scratch: &mut Scratch,
    ) {
        let (mut pc, end) = (body.start as usize, body.end as usize);
        while pc < end {
            let step = &self.steps[pc];
            pc += 1;
            match step {
                Step::Assign {
                    target,
                    rhs,
                    nonblocking,
                } => {
                    let value = self.eval(*rhs, &*state, &mut scratch.stack);
                    let target = &self.targets[*target as usize];
                    if *nonblocking {
                        self.resolve(target, value, state, deferred, &mut scratch.stack);
                    } else {
                        self.assign(target, value, state, scratch);
                    }
                }
                Step::Unless { cond, to } => {
                    if !self.eval(*cond, &*state, &mut scratch.stack).is_true() {
                        pc = *to as usize;
                    }
                }
                Step::Jump(to) => pc = *to as usize,
                Step::Case {
                    subject,
                    labels,
                    default,
                } => {
                    let subject = self.eval(*subject, &*state, &mut scratch.stack).bits();
                    pc = self.labels[labels.start as usize..labels.end as usize]
                        .iter()
                        .find(|arm| {
                            self.eval(arm.label, &*state, &mut scratch.stack).bits() == subject
                        })
                        .map_or(*default, |arm| arm.to) as usize;
                }
            }
        }
    }

    /// A blocking or continuous assignment: the write is visible at once.
    pub fn assign(
        &self,
        target: &Target,
        value: Value,
        state: &mut [Value],
        scratch: &mut Scratch,
    ) {
        self.resolve(
            target,
            value,
            state,
            &mut scratch.updates,
            &mut scratch.stack,
        );
        for (slot, value) in scratch.updates.drain(..) {
            state[slot as usize] = value;
        }
    }

    /// Turns a write into whole-signal updates.  Bit and part selects are resolved
    /// against the *current* value of the signal, and every part of a concatenation
    /// against the same pre-write state, so a signal named twice keeps only its last
    /// update — all of which the reference interpreter does, and tests pin.
    fn resolve(
        &self,
        target: &Target,
        value: Value,
        state: &[Value],
        out: &mut Vec<(u32, Value)>,
        stack: &mut Vec<Value>,
    ) {
        match target {
            Target::Whole { slot, width } => {
                out.push((*slot, width.map_or(value, |w| value.resize(w))));
            }
            Target::Bit { slot, index } => {
                let current = state[*slot as usize].present().unwrap_or(Value::bit(false));
                let index = self.eval(*index, state, stack).bits() as u32;
                out.push((*slot, current.with_bit(index, value.is_true())));
            }
            Target::Part { slot, msb, lsb } => {
                let current = state[*slot as usize]
                    .present()
                    .unwrap_or_else(|| Value::zero(msb.abs_diff(*lsb) + 1));
                out.push((*slot, current.with_range(*msb, *lsb, value.bits())));
            }
            Target::Concat(parts) => {
                for part in parts {
                    // A concatenation wider than 64 bits shifts by 64 or more; the
                    // release build has always wrapped the amount, and that is pinned.
                    let slice = Value::new(value.bits().wrapping_shr(part.shift), part.width);
                    self.resolve(&part.target, slice, state, out, stack);
                }
            }
        }
    }
}

#[inline]
fn pop(stack: &mut Vec<Value>) -> Value {
    stack
        .pop()
        .expect("lowering leaves every operator its operands")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::Lowering;
    use std::collections::BTreeMap;
    use svparse::{Expr, LValue, Parser};

    fn expr(src: &str) -> Expr {
        Parser::new(src).unwrap().parse_expr().unwrap()
    }

    /// A lowering over the declared signals `(name, value, width)`, and their state.
    fn machine(pairs: &[(&str, u64, u32)]) -> (Lowering, Vec<Value>) {
        let widths: BTreeMap<String, u32> =
            pairs.iter().map(|(n, _, w)| (n.to_string(), *w)).collect();
        let lowering = Lowering::new(&widths);
        let mut state = vec![Value::ABSENT; widths.len()];
        for (name, value, width) in pairs {
            state[lowering.slot(name).unwrap() as usize] = Value::new(*value, *width);
        }
        (lowering, state)
    }

    fn eval_in(pairs: &[(&str, u64, u32)], src: &str) -> Value {
        let (mut lowering, mut state) = machine(pairs);
        let prog = lowering.expr(&expr(src));
        state.resize(lowering.slots(), Value::ABSENT);
        lowering.code().eval(prog, &state[..], &mut Vec::new())
    }

    fn value_of(lowering: &Lowering, state: &[Value], name: &str) -> Value {
        state[lowering.slot(name).unwrap() as usize]
    }

    #[test]
    fn arithmetic_and_comparison() {
        let state = [("a", 5, 4), ("b", 3, 4)];
        assert_eq!(eval_in(&state, "a + b").bits(), 8);
        assert_eq!(eval_in(&state, "a - b").bits(), 2);
        assert_eq!(eval_in(&state, "a * b").bits(), 15);
        assert!(eval_in(&state, "a > b").is_true());
        assert!(eval_in(&state, "a != b").is_true());
        assert!(!eval_in(&state, "a == b").is_true());
    }

    #[test]
    fn wrapping_at_declared_width() {
        assert_eq!(eval_in(&[("a", 15, 4), ("b", 1, 4)], "a + b").bits(), 0);
    }

    #[test]
    fn logical_and_ternary() {
        let state = [("en", 1, 1), ("x", 9, 4), ("y", 4, 4)];
        assert_eq!(eval_in(&state, "en ? x : y").bits(), 9);
        assert_eq!(eval_in(&state, "!en ? x : y").bits(), 4);
        assert!(eval_in(&state, "en && x > y").is_true());
        // Nested selects take exactly one branch each.
        assert_eq!(eval_in(&state, "!en ? x : en ? y + 4'd1 : x").bits(), 5);
    }

    #[test]
    fn bit_part_concat() {
        let state = [("d", 0b1100_1010, 8), ("i", 3, 3)];
        assert!(eval_in(&state, "d[i]").is_true());
        assert_eq!(eval_in(&state, "d[7:4]").bits(), 0b1100);
        assert_eq!(eval_in(&state, "{d[3:0], d[7:4]}").bits(), 0b1010_1100);
        assert_eq!(eval_in(&state, "{2{d[3:0]}}").bits(), 0b1010_1010);
    }

    #[test]
    fn reductions_and_complement() {
        let state = [("d", 0b1111, 4)];
        assert!(eval_in(&state, "&d").is_true());
        assert!(eval_in(&state, "~d == 4'b0000").is_true());
    }

    #[test]
    fn past_rose_fell_stable_via_reader() {
        // A reader with history: `a` is 1 now and was 0 one cycle ago.
        struct History;
        impl Read for History {
            fn read(&self, slot: u32, past: u32) -> Value {
                assert_eq!(slot, 0);
                Value::bit(past == 0)
            }
        }
        let (mut lowering, _) = machine(&[("a", 0, 1)]);
        let mut eval = |src: &str| {
            let prog = lowering.expr(&expr(src));
            lowering.code().eval(prog, &History, &mut Vec::new())
        };
        assert!(eval("$rose(a)").is_true());
        assert!(!eval("$fell(a)").is_true());
        assert!(!eval("$stable(a)").is_true());
        assert!(!eval("$past(a)").is_true());
        assert!(eval("$past(a, 0)").is_true());
        // The live state has no history: design code reads the present.
        assert!(eval_in(&[("a", 1, 1)], "$past(a)").is_true());
        assert!(!eval_in(&[("a", 1, 1)], "$rose(a)").is_true());
        assert!(eval_in(&[("a", 1, 1)], "$stable(a)").is_true());
    }

    #[test]
    fn exec_if_else_and_nonblocking() {
        let module = svparse::parse_module(
            r#"
module m(input clk, input rst_n, input en, output reg [3:0] q);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) q <= 4'd0;
    else if (en) q <= q + 4'd1;
  end
endmodule
"#,
        )
        .unwrap();
        let (mut lowering, mut state) = machine(&[("rst_n", 1, 1), ("en", 1, 1), ("q", 7, 4)]);
        let block = module.always_blocks().next().unwrap();
        let body = lowering.body(&block.body);
        let mut deferred = Vec::new();
        lowering
            .code()
            .exec(body, &mut state, &mut deferred, &mut Scratch::default());
        assert_eq!(
            deferred,
            vec![(lowering.slot("q").unwrap(), Value::new(8, 4))]
        );
        // Deferred writes must not be visible yet.
        assert_eq!(value_of(&lowering, &state, "q").bits(), 7);
    }

    #[test]
    fn exec_case_selects_matching_arm() {
        let module = svparse::parse_module(
            r#"
module m(input [1:0] sel, input a, input b, input c, output reg y);
  always @(*) begin
    case (sel)
      2'd0: y = a;
      2'd1: y = b;
      default: y = c;
    endcase
  end
endmodule
"#,
        )
        .unwrap();
        let block = module.always_blocks().next().unwrap();
        for (sel, a, b, c) in [(1, 0, 1, 0), (3, 0, 0, 1), (0, 1, 0, 0)] {
            let (mut lowering, mut state) = machine(&[
                ("sel", sel, 2),
                ("a", a, 1),
                ("b", b, 1),
                ("c", c, 1),
                ("y", 0, 1),
            ]);
            let body = lowering.body(&block.body);
            lowering
                .code()
                .exec(body, &mut state, &mut Vec::new(), &mut Scratch::default());
            assert!(value_of(&lowering, &state, "y").is_true(), "sel = {sel}");
        }
    }

    #[test]
    fn bit_select_assignment_read_modify_write() {
        let (mut lowering, mut state) = machine(&[("flags", 0b0101, 4)]);
        let target = lowering.target(&LValue::Bit("flags".into(), Box::new(Expr::num(1))));
        lowering.code().assign(
            &target,
            Value::bit(true),
            &mut state,
            &mut Scratch::default(),
        );
        assert_eq!(value_of(&lowering, &state, "flags").bits(), 0b0111);
    }

    #[test]
    fn concat_assignment_splits_bits() {
        let (mut lowering, mut state) = machine(&[("carry", 0, 1), ("sum", 0, 4)]);
        let target = lowering.target(&LValue::Concat(vec![
            LValue::Ident("carry".into()),
            LValue::Ident("sum".into()),
        ]));
        lowering.code().assign(
            &target,
            Value::new(0b1_1010, 5),
            &mut state,
            &mut Scratch::default(),
        );
        assert_eq!(value_of(&lowering, &state, "carry").bits(), 1);
        assert_eq!(value_of(&lowering, &state, "sum").bits(), 0b1010);
    }

    #[test]
    fn unknown_signal_reads_as_zero() {
        assert_eq!(eval_in(&[], "ghost + 1").bits(), 1);
    }
}
