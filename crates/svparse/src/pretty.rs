//! Canonical pretty-printer.
//!
//! The emitter produces a deterministic, one-statement-per-line rendering of a module.
//! All of the dataset machinery relies on this canonical form: bug injection re-emits
//! the mutated AST and the "buggy line" of a training/evaluation sample is defined as
//! the line of the canonical text that differs from the golden rendering.
//!
//! The canonical form is designed to be re-parsable: `parse(emit(ast))` succeeds and
//! emitting again yields the identical string (idempotence), which is checked by a
//! property test in the crate.

use crate::ast::*;
use std::fmt::{self, Display, Formatter, Write};

/// Emits a whole source file in canonical form.
///
/// # Examples
///
/// ```
/// let file = svparse::parse("module m(input a, output b); assign b = a; endmodule")?;
/// let text = svparse::emit_file(&file);
/// assert!(text.contains("assign b = a;"));
/// # Ok::<(), svparse::ParseError>(())
/// ```
pub fn emit_file(file: &SourceFile) -> String {
    let mut out = String::new();
    for (i, module) in file.modules.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        write_module(&mut out, module).expect("a String takes every write");
    }
    out
}

/// Emits a single module in canonical form (one statement per line, two-space indent).
pub fn emit_module(module: &Module) -> String {
    let mut out = String::new();
    write_module(&mut out, module).expect("a String takes every write");
    out
}

/// Whether `text` is exactly `module`'s canonical form, i.e.
/// `emit_module(module) == text`, without building the rendering: the text is
/// compared as the emitter writes, and the walk stops at the first byte that
/// differs.
pub fn emits_as(module: &Module, text: &str) -> bool {
    let mut rest = Unwritten(text);
    write_module(&mut rest, module).is_ok() && rest.0.is_empty()
}

/// Whether `text` is exactly `item`'s canonical form as a module item (its
/// indent and line ends included), compared as [`emits_as`] compares.
pub(crate) fn item_emits_as(item: &Item, text: &str) -> bool {
    let mut rest = Unwritten(text);
    write_item(&mut rest, item).is_ok() && rest.0.is_empty()
}

/// Emits an expression in canonical form (minimal parentheses).
pub fn emit_expr(expr: &Expr) -> String {
    Ex(expr, 0).to_string()
}

/// Emits an lvalue in canonical form.
pub fn emit_lvalue(lvalue: &LValue) -> String {
    Lv(lvalue).to_string()
}

/// The text [`emits_as`] has yet to see written; a write that does not match
/// its start fails, which ends the walk.
struct Unwritten<'t>(&'t str);

impl Write for Unwritten<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = self.0.strip_prefix(s).ok_or(fmt::Error)?;
        Ok(())
    }
}

/// The one sink every emitter writes through: a `String`, an [`Unwritten`]
/// text or a [`Formatter`].
type Sink<'w> = &'w mut dyn Write;

/// `level` steps of two-space indentation.
struct Indent(usize);

impl Display for Indent {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        (0..self.0).try_for_each(|_| f.write_str("  "))
    }
}

/// An expression as the operand of an operator binding at the given
/// precedence.
struct Ex<'a>(&'a Expr, u8);

impl Display for Ex<'_> {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        write_expr(f, self.0, self.1)
    }
}

struct Lv<'a>(&'a LValue);

impl Display for Lv<'_> {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        match self.0 {
            LValue::Ident(n) => f.write_str(n),
            LValue::Bit(n, idx) => write!(f, "{n}[{}]", Ex(idx, 0)),
            LValue::Part(n, range) => write!(f, "{n}{range}"),
            LValue::Concat(parts) => write!(f, "{{{}}}", Joined(parts, ", ", Lv)),
        }
    }
}

/// The items of a slice, each displayed through a wrapper, with a separator
/// between them.
struct Joined<'a, T, D: Display>(&'a [T], &'a str, fn(&'a T) -> D);

impl<'a, T, D: Display> Display for Joined<'a, T, D> {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        for (i, item) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(self.1)?;
            }
            write!(f, "{}", (self.2)(item))?;
        }
        Ok(())
    }
}

/// A simple statement (assignment or null), on one line without its indent.
struct Simple<'a>(&'a Stmt);

impl Display for Simple<'_> {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        match self.0 {
            Stmt::Blocking { lhs, rhs, .. } => write!(f, "{} = {};", Lv(lhs), Ex(rhs, 0)),
            Stmt::NonBlocking { lhs, rhs, .. } => write!(f, "{} <= {};", Lv(lhs), Ex(rhs, 0)),
            Stmt::Null => f.write_str(";"),
            _ => unreachable!("Simple displays a compound statement"),
        }
    }
}

/// A property specification: clock, optional `disable iff`, body and `;`.
struct Spec<'a>(&'a PropertyDecl);

impl Display for Spec<'_> {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        let p = self.0;
        write!(f, "@({}) ", p.clock)?;
        if let Some(guard) = &p.disable_iff {
            write!(f, "disable iff ({}) ", Ex(guard, 0))?;
        }
        write!(f, "{};", Prop(&p.body))
    }
}

struct Prop<'a>(&'a PropExpr);

impl Display for Prop<'_> {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        match self.0 {
            PropExpr::Expr(e) => write!(f, "{}", Ex(e, 0)),
            PropExpr::Implication {
                antecedent,
                consequent,
                overlapping,
            } => {
                let arrow = if *overlapping { "|->" } else { "|=>" };
                write!(f, "{} {arrow} {}", Prop(antecedent), Prop(consequent))
            }
            PropExpr::Delay { lhs, cycles, rhs } => {
                if let Some(lhs) = lhs {
                    write!(f, "{} ", Prop(lhs))?;
                }
                write!(f, "##{cycles} {}", Prop(rhs))
            }
            PropExpr::Not(inner) => write!(f, "not ({})", Prop(inner)),
        }
    }
}

fn write_module(w: Sink, module: &Module) -> fmt::Result {
    if module.ports.is_empty() {
        writeln!(w, "module {}();", module.name)?;
    } else {
        writeln!(w, "module {}(", module.name)?;
        for (i, port) in module.ports.iter().enumerate() {
            let comma = if i + 1 == module.ports.len() { "" } else { "," };
            write_port(w, port)?;
            writeln!(w, "{comma}")?;
        }
        w.write_str(");\n")?;
    }
    for item in &module.items {
        write_item(w, item)?;
    }
    w.write_str("endmodule\n")
}

fn write_port(w: Sink, port: &Port) -> fmt::Result {
    write!(w, "  {}", port.dir)?;
    if port.net == NetKind::Reg && port.dir == PortDir::Output {
        w.write_str(" reg")?;
    }
    if let Some(range) = port.width {
        write!(w, " {range}")?;
    }
    write!(w, " {}", port.name)
}

fn write_item(w: Sink, item: &Item) -> fmt::Result {
    match item {
        Item::Net(decl) => {
            write!(w, "  {}", decl.kind)?;
            if let Some(range) = decl.width {
                write!(w, " {range}")?;
            }
            writeln!(w, " {};", Joined(&decl.names, ", ", |n| n))
        }
        Item::Param(p) => {
            let kw = if p.local { "localparam" } else { "parameter" };
            writeln!(w, "  {kw} {} = {};", p.name, Ex(&p.value, 0))
        }
        Item::Assign(a) => writeln!(w, "  assign {} = {};", Lv(&a.lhs), Ex(&a.rhs, 0)),
        Item::Always(block) => {
            match &block.sensitivity {
                Sensitivity::Star => w.write_str("  always @(*)")?,
                Sensitivity::Edges(events) => {
                    write!(w, "  always @({})", Joined(events, " or ", |e| e))?
                }
            }
            w.write_str(" begin\n")?;
            write_body_lines(w, 2, &block.body)?;
            w.write_str("  end\n")
        }
        Item::Initial(block) => {
            w.write_str("  initial begin\n")?;
            write_body_lines(w, 2, &block.body)?;
            w.write_str("  end\n")
        }
        Item::Property(p) => {
            writeln!(w, "  property {};", p.name)?;
            writeln!(w, "    {}", Spec(p))?;
            w.write_str("  endproperty\n")
        }
        Item::Assertion(a) => {
            w.write_str("  ")?;
            if let Some(label) = &a.label {
                write!(w, "{label}: ")?;
            }
            match &a.target {
                AssertTarget::Named(name) => write!(w, "assert property ({name})")?,
                AssertTarget::Inline(p) => write!(w, "assert property ({})", Spec(p))?,
            }
            if let Some(message) = &a.message {
                write!(w, " else $error(\"{message}\")")?;
            }
            w.write_str(";\n")
        }
    }
}

/// Writes the statements inside a `begin ... end` body without the wrapper.
fn write_body_lines(w: Sink, level: usize, body: &Stmt) -> fmt::Result {
    match body {
        Stmt::Block { stmts, .. } => stmts.iter().try_for_each(|s| write_stmt(w, level, s)),
        other => write_stmt(w, level, other),
    }
}

fn write_stmt(w: Sink, level: usize, stmt: &Stmt) -> fmt::Result {
    let indent = Indent(level);
    match stmt {
        Stmt::Block { stmts, .. } => {
            writeln!(w, "{indent}begin")?;
            for s in stmts {
                write_stmt(w, level + 1, s)?;
            }
            writeln!(w, "{indent}end")
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => write_if(w, level, cond, then_branch, else_branch.as_deref(), "if"),
        Stmt::Case {
            subject,
            arms,
            default,
            ..
        } => {
            writeln!(w, "{indent}case ({})", Ex(subject, 0))?;
            for arm in arms {
                let labels = Joined(&arm.labels, ", ", |e| Ex(e, 0));
                write!(w, "{}{labels}", Indent(level + 1))?;
                write_arm_body(w, level + 1, &arm.body)?;
            }
            if let Some(d) = default {
                write!(w, "{}default", Indent(level + 1))?;
                write_arm_body(w, level + 1, d)?;
            }
            writeln!(w, "{indent}endcase")
        }
        Stmt::Blocking { .. } | Stmt::NonBlocking { .. } | Stmt::Null => {
            writeln!(w, "{indent}{}", Simple(stmt))
        }
    }
}

/// Writes a case arm's body after its labels, the arm being at `level`.
fn write_arm_body(w: Sink, level: usize, body: &Stmt) -> fmt::Result {
    if is_simple(body) {
        writeln!(w, ": {}", Simple(body))
    } else {
        w.write_str(": begin\n")?;
        write_body_lines(w, level + 1, body)?;
        writeln!(w, "{}end", Indent(level))
    }
}

fn write_if(
    w: Sink,
    level: usize,
    cond: &Expr,
    then_branch: &Stmt,
    else_branch: Option<&Stmt>,
    keyword: &str,
) -> fmt::Result {
    let indent = Indent(level);
    write!(w, "{indent}{keyword} ({})", Ex(cond, 0))?;
    if is_simple(then_branch) {
        writeln!(w, " {}", Simple(then_branch))?;
    } else {
        w.write_str(" begin\n")?;
        write_body_lines(w, level + 1, then_branch)?;
        writeln!(w, "{indent}end")?;
    }
    match else_branch {
        None => Ok(()),
        Some(Stmt::If {
            cond: else_cond,
            then_branch: else_then,
            else_branch: else_else,
            ..
        }) => write_if(
            w,
            level,
            else_cond,
            else_then,
            else_else.as_deref(),
            "else if",
        ),
        Some(other) if is_simple(other) => writeln!(w, "{indent}else {}", Simple(other)),
        Some(other) => {
            writeln!(w, "{indent}else begin")?;
            write_body_lines(w, level + 1, other)?;
            writeln!(w, "{indent}end")
        }
    }
}

fn is_simple(stmt: &Stmt) -> bool {
    matches!(
        stmt,
        Stmt::Blocking { .. } | Stmt::NonBlocking { .. } | Stmt::Null
    )
}

/// `("(", ")")` when `wrap`, else two empty strings.
fn parens(wrap: bool) -> (&'static str, &'static str) {
    if wrap {
        ("(", ")")
    } else {
        ("", "")
    }
}

fn write_expr(f: &mut Formatter<'_>, expr: &Expr, parent_prec: u8) -> fmt::Result {
    match expr {
        Expr::Number(lit) => write_literal(f, lit),
        Expr::Ident(n) => f.write_str(n),
        Expr::Unary(op, inner) => {
            // Parenthesise non-primary operands both for readability and to avoid
            // token gluing (`& &x` vs `&&x`) when unary operators are nested.
            if matches!(
                inner.as_ref(),
                Expr::Ident(_) | Expr::Number(_) | Expr::Bit(_, _) | Expr::Part(_, _)
            ) {
                write!(f, "{}{}", op.symbol(), Ex(inner, 11))
            } else {
                write!(f, "{}({})", op.symbol(), Ex(inner, 0))
            }
        }
        Expr::Binary(op, lhs, rhs) => {
            let prec = op.precedence();
            let (open, close) = parens(prec < parent_prec);
            let (lhs, rhs) = (Ex(lhs, prec), Ex(rhs, prec + 1));
            write!(f, "{open}{lhs} {} {rhs}{close}", op.symbol())
        }
        Expr::Ternary(cond, a, b) => {
            let (open, close) = parens(parent_prec > 0);
            let (cond, a, b) = (Ex(cond, 1), Ex(a, 0), Ex(b, 0));
            write!(f, "{open}{cond} ? {a} : {b}{close}")
        }
        Expr::Bit(name, idx) => write!(f, "{name}[{}]", Ex(idx, 0)),
        Expr::Part(name, range) => write!(f, "{name}{range}"),
        Expr::Concat(parts) => write!(f, "{{{}}}", Joined(parts, ", ", |p| Ex(p, 0))),
        Expr::Repeat(count, inner) => write!(f, "{{{count}{{{}}}}}", Ex(inner, 0)),
        Expr::Past(inner, 1) => write!(f, "$past({})", Ex(inner, 0)),
        Expr::Past(inner, cycles) => write!(f, "$past({}, {cycles})", Ex(inner, 0)),
        Expr::Rose(inner) => write!(f, "$rose({})", Ex(inner, 0)),
        Expr::Fell(inner) => write!(f, "$fell({})", Ex(inner, 0)),
        Expr::Stable(inner) => write!(f, "$stable({})", Ex(inner, 0)),
    }
}

fn write_literal(f: &mut Formatter<'_>, lit: &Literal) -> fmt::Result {
    match (lit.width, lit.base) {
        (None, _) => write!(f, "{}", lit.value),
        (Some(w), 'b') => write!(f, "{w}'b{:b}", lit.value),
        (Some(w), 'h') => write!(f, "{w}'h{:x}", lit.value),
        (Some(w), 'o') => write!(f, "{w}'o{:o}", lit.value),
        (Some(w), _) => write!(f, "{w}'d{}", lit.value),
    }
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
    else cnt <= cnt;
  end
  property valid_out_check;
    @(posedge clk) disable iff (!rst_n) end_cnt |-> ##1 valid_out == 1;
  endproperty
  valid_out_check_assertion: assert property (valid_out_check) else $error("valid_out should be high");
endmodule
"#;

    #[test]
    fn roundtrip_is_idempotent() {
        let module = parse_module(SRC).unwrap();
        let once = emit_module(&module);
        let reparsed = parse_module(&once).unwrap();
        let twice = emit_module(&reparsed);
        assert_eq!(once, twice);
    }

    #[test]
    fn one_statement_per_line() {
        let module = parse_module(SRC).unwrap();
        let text = emit_module(&module);
        for line in text.lines() {
            // No line contains two statement terminators outside of strings.
            let without_strings: String = line.split('"').step_by(2).collect();
            assert!(
                without_strings.matches(';').count() <= 1,
                "line has multiple statements: {line}"
            );
        }
    }

    #[test]
    fn emits_else_if_chain() {
        let module = parse_module(SRC).unwrap();
        let text = emit_module(&module);
        assert!(text.contains("else if (valid_in) cnt <= cnt + 2'd1;"));
        assert!(text.contains("if (!rst_n) cnt <= 2'd0;"));
    }

    #[test]
    fn emits_property_and_assertion() {
        let module = parse_module(SRC).unwrap();
        let text = emit_module(&module);
        assert!(text.contains("property valid_out_check;"));
        assert!(text.contains("end_cnt |-> ##1 valid_out == 1;"));
        assert!(text.contains("assert property (valid_out_check) else $error("));
    }

    #[test]
    fn minimal_parentheses_preserve_meaning() {
        let module = parse_module(
            "module m(input a, input b, input c, output x, output y); assign x = a & (b | c); assign y = (a & b) | c; endmodule",
        )
        .unwrap();
        let text = emit_module(&module);
        assert!(text.contains("assign x = a & (b | c);"));
        assert!(text.contains("assign y = a & b | c;"));
        // Re-parse and make sure the structure is preserved.
        let reparsed = parse_module(&text).unwrap();
        assert_eq!(emit_module(&reparsed), text);
    }

    #[test]
    fn literal_forms() {
        let text = |lit| emit_expr(&Expr::Number(lit));
        assert_eq!(text(Literal::bin(4, 0b1010)), "4'b1010");
        assert_eq!(text(Literal::hex(8, 0xff)), "8'hff");
        assert_eq!(text(Literal::sized(2, 3)), "2'd3");
        assert_eq!(text(Literal::dec(7)), "7");
    }

    #[test]
    fn case_emission_roundtrips() {
        let src = r#"
module m(input [1:0] sel, input a, input b, output reg y);
  always @(*) begin
    case (sel)
      2'd0: y = a;
      2'd1: y = b;
      default: y = 0;
    endcase
  end
endmodule
"#;
        let module = parse_module(src).unwrap();
        let once = emit_module(&module);
        let again = emit_module(&parse_module(&once).unwrap());
        assert_eq!(once, again);
        assert!(once.contains("case (sel)"));
        assert!(once.contains("default: y = 0;"));
    }
}
