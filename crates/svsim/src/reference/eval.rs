//! Expression evaluation and procedural statement execution over name-keyed state —
//! the tree-walking half of the [reference interpreter](super).

use crate::value::{ops, Value};
use std::collections::BTreeMap;
use svparse::{BinaryOp, Expr, LValue, Stmt, UnaryOp};

/// The simulator's view of all signal values at one instant.
pub type State = BTreeMap<String, Value>;

/// A reader callback: `(signal name, cycles in the past)` → value.
///
/// Plain design evaluation always asks for `past = 0`; the SVA checker supplies a
/// reader that indexes into the recorded trace so `$past`, `$rose`, `$fell` and
/// `$stable` work.
pub type Reader<'a> = dyn Fn(&str, u32) -> Value + 'a;

/// Evaluates an expression using the supplied reader.
///
/// Unknown constructs never panic: reads of undeclared signals are the reader's
/// responsibility (the simulator returns zero of width 1), and width rules follow the
/// usual Verilog conventions (arithmetic at the wider operand width, comparisons and
/// reductions produce single bits).
pub fn eval_expr(expr: &Expr, read: &Reader<'_>) -> Value {
    eval_shifted(expr, read, 0)
}

fn eval_shifted(expr: &Expr, read: &Reader<'_>, shift: u32) -> Value {
    match expr {
        Expr::Number(lit) => {
            let width = lit.width.unwrap_or(32).clamp(1, Value::MAX_WIDTH);
            Value::new(lit.value, width)
        }
        Expr::Ident(name) => read(name, shift),
        Expr::Unary(op, inner) => {
            let v = eval_shifted(inner, read, shift);
            match op {
                UnaryOp::LogicalNot => Value::bit(!v.is_true()),
                UnaryOp::BitNot => v.not(),
                UnaryOp::Neg => v.neg(),
                UnaryOp::RedAnd => v.reduce_and(),
                UnaryOp::RedOr => v.reduce_or(),
                UnaryOp::RedXor => v.reduce_xor(),
            }
        }
        Expr::Binary(op, lhs, rhs) => {
            let a = eval_shifted(lhs, read, shift);
            let b = eval_shifted(rhs, read, shift);
            match op {
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
            }
        }
        Expr::Ternary(cond, a, b) => {
            if eval_shifted(cond, read, shift).is_true() {
                eval_shifted(a, read, shift)
            } else {
                eval_shifted(b, read, shift)
            }
        }
        Expr::Bit(name, index) => {
            let base = read(name, shift);
            let idx = eval_shifted(index, read, shift).bits() as u32;
            base.extract_bit(idx)
        }
        Expr::Part(name, range) => {
            let base = read(name, shift);
            base.extract_range(range.msb, range.lsb)
        }
        Expr::Concat(parts) => {
            let mut iter = parts.iter();
            let first = iter
                .next()
                .map(|p| eval_shifted(p, read, shift))
                .unwrap_or_else(|| Value::bit(false));
            iter.fold(first, |acc, part| {
                ops::concat(acc, eval_shifted(part, read, shift))
            })
        }
        Expr::Repeat(count, inner) => {
            let unit = eval_shifted(inner, read, shift);
            let mut acc = unit;
            for _ in 1..(*count).max(1) {
                acc = ops::concat(acc, unit);
            }
            acc
        }
        Expr::Past(inner, cycles) => eval_shifted(inner, read, shift + cycles),
        Expr::Rose(inner) => {
            let now = eval_shifted(inner, read, shift);
            let before = eval_shifted(inner, read, shift + 1);
            Value::bit(now.is_true() && !before.is_true())
        }
        Expr::Fell(inner) => {
            let now = eval_shifted(inner, read, shift);
            let before = eval_shifted(inner, read, shift + 1);
            Value::bit(!now.is_true() && before.is_true())
        }
        Expr::Stable(inner) => {
            let now = eval_shifted(inner, read, shift);
            let before = eval_shifted(inner, read, shift + 1);
            Value::bit(now.bits() == before.bits())
        }
    }
}

/// Evaluates an expression against a plain [`State`] (no `$past` support needed).
pub fn eval_in_state(expr: &Expr, state: &State) -> Value {
    eval_expr(expr, &|name, _| read_state(state, name))
}

/// Reads a signal from a state, defaulting to a 1-bit zero for unknown names.
pub fn read_state(state: &State, name: &str) -> Value {
    state
        .get(name)
        .copied()
        .unwrap_or_else(|| Value::bit(false))
}

/// How procedural assignments are applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignMode {
    /// Blocking semantics: writes become visible to later statements immediately.
    Immediate,
    /// Non-blocking semantics: writes are deferred until the end of the time step.
    Deferred,
}

/// Executes a procedural statement.
///
/// Blocking assignments write into `state` immediately.  Non-blocking assignments are
/// appended to `deferred` (resolving bit/part selects against the *current* value, per
/// Verilog semantics) and must be applied by the caller after all clocked blocks ran.
pub fn exec_stmt(
    stmt: &Stmt,
    state: &mut State,
    deferred: &mut Vec<(String, Value)>,
    widths: &BTreeMap<String, u32>,
) {
    match stmt {
        Stmt::Block { stmts, .. } => {
            for s in stmts {
                exec_stmt(s, state, deferred, widths);
            }
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            if eval_in_state(cond, state).is_true() {
                exec_stmt(then_branch, state, deferred, widths);
            } else if let Some(e) = else_branch {
                exec_stmt(e, state, deferred, widths);
            }
        }
        Stmt::Case {
            subject,
            arms,
            default,
            ..
        } => {
            let subject_value = eval_in_state(subject, state);
            for arm in arms {
                let matched = arm
                    .labels
                    .iter()
                    .any(|label| eval_in_state(label, state).bits() == subject_value.bits());
                if matched {
                    exec_stmt(&arm.body, state, deferred, widths);
                    return;
                }
            }
            if let Some(d) = default {
                exec_stmt(d, state, deferred, widths);
            }
        }
        Stmt::Blocking { lhs, rhs, .. } => {
            let value = eval_in_state(rhs, state);
            apply_assignment(lhs, value, state, AssignMode::Immediate, deferred, widths);
        }
        Stmt::NonBlocking { lhs, rhs, .. } => {
            let value = eval_in_state(rhs, state);
            apply_assignment(lhs, value, state, AssignMode::Deferred, deferred, widths);
        }
        Stmt::Null => {}
    }
}

/// Resolves an lvalue write into one or more whole-signal updates.
pub fn apply_assignment(
    lhs: &LValue,
    value: Value,
    state: &mut State,
    mode: AssignMode,
    deferred: &mut Vec<(String, Value)>,
    widths: &BTreeMap<String, u32>,
) {
    let updates = resolve_lvalue(lhs, value, state, widths);
    for (name, new_value) in updates {
        match mode {
            AssignMode::Immediate => {
                state.insert(name, new_value);
            }
            AssignMode::Deferred => deferred.push((name, new_value)),
        }
    }
}

fn resolve_lvalue(
    lhs: &LValue,
    value: Value,
    state: &State,
    widths: &BTreeMap<String, u32>,
) -> Vec<(String, Value)> {
    match lhs {
        LValue::Ident(name) => {
            let width = widths.get(name).copied().unwrap_or(value.width());
            vec![(name.clone(), value.resize(width))]
        }
        LValue::Bit(name, index) => {
            let width = widths.get(name).copied().unwrap_or(1);
            let current = state
                .get(name)
                .copied()
                .unwrap_or_else(|| Value::zero(width));
            let idx = eval_in_state(index, &state.clone()).bits() as u32;
            vec![(name.clone(), current.with_bit(idx, value.is_true()))]
        }
        LValue::Part(name, range) => {
            let width = widths.get(name).copied().unwrap_or(range.width());
            let current = state
                .get(name)
                .copied()
                .unwrap_or_else(|| Value::zero(width));
            vec![(
                name.clone(),
                current.with_range(range.msb, range.lsb, value.bits()),
            )]
        }
        LValue::Concat(parts) => {
            // Distribute bits from the MSB side, mirroring Verilog concat assignment.
            let total: u32 = parts
                .iter()
                .flat_map(|p| p.base_names())
                .map(|n| widths.get(&n).copied().unwrap_or(1))
                .sum();
            let mut out = Vec::new();
            let mut consumed = 0u32;
            for part in parts {
                let part_width: u32 = part
                    .base_names()
                    .iter()
                    .map(|n| widths.get(n).copied().unwrap_or(1))
                    .sum();
                let shift = total.saturating_sub(consumed + part_width);
                // Concatenations wider than 64 bits shift by 64 or more; the release
                // build has always wrapped the amount, and both engines pin that.
                let slice = Value::new(value.bits().wrapping_shr(shift), part_width.max(1));
                out.extend(resolve_lvalue(part, slice, state, widths));
                consumed += part_width;
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svparse::Parser;

    fn expr(src: &str) -> Expr {
        Parser::new(src).unwrap().parse_expr().unwrap()
    }

    fn state_of(pairs: &[(&str, u64, u32)]) -> State {
        pairs
            .iter()
            .map(|(n, v, w)| (n.to_string(), Value::new(*v, *w)))
            .collect()
    }

    #[test]
    fn arithmetic_and_comparison() {
        let state = state_of(&[("a", 5, 4), ("b", 3, 4)]);
        assert_eq!(eval_in_state(&expr("a + b"), &state).bits(), 8);
        assert_eq!(eval_in_state(&expr("a - b"), &state).bits(), 2);
        assert_eq!(eval_in_state(&expr("a * b"), &state).bits(), 15);
        assert!(eval_in_state(&expr("a > b"), &state).is_true());
        assert!(eval_in_state(&expr("a != b"), &state).is_true());
        assert!(!eval_in_state(&expr("a == b"), &state).is_true());
    }

    #[test]
    fn wrapping_at_declared_width() {
        let state = state_of(&[("a", 15, 4), ("b", 1, 4)]);
        assert_eq!(eval_in_state(&expr("a + b"), &state).bits(), 0);
    }

    #[test]
    fn logical_and_ternary() {
        let state = state_of(&[("en", 1, 1), ("x", 9, 4), ("y", 4, 4)]);
        assert_eq!(eval_in_state(&expr("en ? x : y"), &state).bits(), 9);
        assert_eq!(eval_in_state(&expr("!en ? x : y"), &state).bits(), 4);
        assert!(eval_in_state(&expr("en && x > y"), &state).is_true());
    }

    #[test]
    fn bit_part_concat() {
        let state = state_of(&[("d", 0b1100_1010, 8), ("i", 3, 3)]);
        assert!(eval_in_state(&expr("d[i]"), &state).is_true());
        assert_eq!(eval_in_state(&expr("d[7:4]"), &state).bits(), 0b1100);
        assert_eq!(
            eval_in_state(&expr("{d[3:0], d[7:4]}"), &state).bits(),
            0b1010_1100
        );
        assert_eq!(
            eval_in_state(&expr("{2{d[3:0]}}"), &state).bits(),
            0b1010_1010
        );
    }

    #[test]
    fn reductions_and_complement() {
        let state = state_of(&[("d", 0b1111, 4)]);
        assert!(eval_in_state(&expr("&d"), &state).is_true());
        assert!(eval_in_state(&expr("~d == 4'b0000"), &state).is_true());
    }

    #[test]
    fn past_rose_fell_stable_via_reader() {
        // Trace: cycle 0 → a=0, cycle 1 → a=1 (we query at "now"=cycle 1).
        let read = |name: &str, past: u32| -> Value {
            assert_eq!(name, "a");
            if past == 0 {
                Value::bit(true)
            } else {
                Value::bit(false)
            }
        };
        assert!(eval_expr(&expr("$rose(a)"), &read).is_true());
        assert!(!eval_expr(&expr("$fell(a)"), &read).is_true());
        assert!(!eval_expr(&expr("$stable(a)"), &read).is_true());
        assert!(!eval_expr(&expr("$past(a)"), &read).is_true());
        assert!(eval_expr(&expr("$past(a, 0)"), &read).is_true());
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
        let widths: BTreeMap<String, u32> = [
            ("q".to_string(), 4u32),
            ("en".to_string(), 1),
            ("rst_n".to_string(), 1),
        ]
        .into_iter()
        .collect();
        let block = module.always_blocks().next().unwrap();
        let mut state = state_of(&[("rst_n", 1, 1), ("en", 1, 1), ("q", 7, 4)]);
        let mut deferred = Vec::new();
        exec_stmt(&block.body, &mut state, &mut deferred, &widths);
        assert_eq!(deferred, vec![("q".to_string(), Value::new(8, 4))]);
        // Deferred writes must not be visible yet.
        assert_eq!(state.get("q").unwrap().bits(), 7);
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
        let widths: BTreeMap<String, u32> = [("y".to_string(), 1u32)].into_iter().collect();
        let block = module.always_blocks().next().unwrap();
        let mut deferred = Vec::new();

        let mut state = state_of(&[("sel", 1, 2), ("a", 0, 1), ("b", 1, 1), ("c", 0, 1)]);
        exec_stmt(&block.body, &mut state, &mut deferred, &widths);
        assert!(state.get("y").unwrap().is_true());

        let mut state = state_of(&[("sel", 3, 2), ("a", 0, 1), ("b", 0, 1), ("c", 1, 1)]);
        exec_stmt(&block.body, &mut state, &mut deferred, &widths);
        assert!(state.get("y").unwrap().is_true());
    }

    #[test]
    fn bit_select_assignment_read_modify_write() {
        let widths: BTreeMap<String, u32> = [("flags".to_string(), 4u32)].into_iter().collect();
        let mut state = state_of(&[("flags", 0b0101, 4)]);
        let mut deferred = Vec::new();
        let lhs = LValue::Bit("flags".into(), Box::new(Expr::num(1)));
        apply_assignment(
            &lhs,
            Value::bit(true),
            &mut state,
            AssignMode::Immediate,
            &mut deferred,
            &widths,
        );
        assert_eq!(state.get("flags").unwrap().bits(), 0b0111);
    }

    #[test]
    fn concat_assignment_splits_bits() {
        let widths: BTreeMap<String, u32> = [("carry".to_string(), 1u32), ("sum".to_string(), 4)]
            .into_iter()
            .collect();
        let mut state = state_of(&[("carry", 0, 1), ("sum", 0, 4)]);
        let mut deferred = Vec::new();
        let lhs = LValue::Concat(vec![
            LValue::Ident("carry".into()),
            LValue::Ident("sum".into()),
        ]);
        apply_assignment(
            &lhs,
            Value::new(0b1_1010, 5),
            &mut state,
            AssignMode::Immediate,
            &mut deferred,
            &widths,
        );
        assert_eq!(state.get("carry").unwrap().bits(), 1);
        assert_eq!(state.get("sum").unwrap().bits(), 0b1010);
    }

    #[test]
    fn unknown_signal_reads_as_zero() {
        let state = State::new();
        assert_eq!(eval_in_state(&expr("ghost + 1"), &state).bits(), 1);
    }
}
