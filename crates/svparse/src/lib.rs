//! # svparse — Verilog / SystemVerilog-assertion frontend
//!
//! This crate is the reproduction's stand-in for the Icarus Verilog compiler used by
//! the AssertSolver paper (Zhou et al., DAC 2025) as a syntax oracle.  It provides a
//! lexer, a parser (recursive descent, with precedence climbing for expressions),
//! abstract syntax tree, canonical pretty-printer and a lightweight semantic checker
//! for the Verilog-2001 subset (plus concurrent SystemVerilog assertions) exercised
//! by the rest of the workspace.  The parser and the printer read each binary
//! operator's precedence from one table.
//!
//! The crate is deliberately self-contained: it performs no I/O and has no
//! dependencies beyond `serde` for dataset serialisation.
//!
//! ## Quick example
//!
//! ```
//! # fn main() -> Result<(), svparse::ParseError> {
//! let src = r#"
//! module counter(input clk, input rst_n, output reg [3:0] count);
//!   always @(posedge clk or negedge rst_n) begin
//!     if (!rst_n) count <= 4'd0;
//!     else count <= count + 4'd1;
//!   end
//! endmodule
//! "#;
//! let file = svparse::parse(src)?;
//! assert_eq!(file.modules[0].name, "counter");
//! # Ok(())
//! # }
//! ```
//!
//! The canonical form produced by [`pretty::emit_module`] is the textual substrate on
//! which the bug-injection and repair-model crates operate: one statement per line, so
//! that "buggy line" answers are well defined.
//!
//! A judge that weighs many one-line edits of one source builds a [`FrontEnd`] from
//! it once: [`FrontEnd::edit_line`] lexes only the new line and re-parses only the
//! item that holds it, [`FrontEnd::is_no_op`] compares that one item's rendering, and
//! [`FrontEnd::lend`] hands the edited module out without copying it.  An edit it
//! cannot answer exactly as [`parse_module`] of the edited text would, it declines.

pub mod ast;
pub mod error;
pub mod front_end;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod sema;
pub mod span;
pub mod token;

pub use ast::{
    AlwaysBlock, AssertTarget, AssertionItem, BinaryOp, BitRange, CaseArm, ContinuousAssign,
    EdgeEvent, EdgeKind, Expr, InitialBlock, Item, LValue, Literal, Module, NetDecl, NetKind,
    ParamDecl, Port, PortDir, PropExpr, PropertyDecl, Sensitivity, SourceFile, Stmt, UnaryOp,
};
pub use error::ParseError;
pub use front_end::{FrontEnd, ItemEdit};
pub use lexer::Lexer;
pub use parser::Parser;
pub use pretty::{emit_file, emit_module, emits_as};
pub use sema::{DependencyGraph, SemaError, SemaReport, SignalInfo, SymbolTable};
pub use span::Span;
pub use token::{Token, TokenKind};

/// Parses a complete source file containing zero or more modules.
///
/// This is the main entry point most callers need; it runs a [`Parser`] over the
/// whole source.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first lexical or syntactic problem
/// encountered, including the line on which it occurred.
///
/// # Examples
///
/// ```
/// let file = svparse::parse("module m(input a, output b); assign b = a; endmodule")?;
/// assert_eq!(file.modules.len(), 1);
/// # Ok::<(), svparse::ParseError>(())
/// ```
pub fn parse(source: &str) -> Result<SourceFile, ParseError> {
    Parser::new(source)?.parse_file()
}

/// Parses a source file expected to contain exactly one module and returns it.
///
/// # Errors
///
/// Returns a [`ParseError`] if the source does not parse or does not contain exactly
/// one module.
pub fn parse_module(source: &str) -> Result<Module, ParseError> {
    let file = parse(source)?;
    match file.modules.len() {
        1 => Ok(file.modules.into_iter().next().expect("length checked")),
        n => Err(ParseError::new(
            format!("expected exactly one module, found {n}"),
            0,
        )),
    }
}

/// Performs a full "compile check": parse plus semantic analysis.
///
/// This mirrors how Stage 1 of the paper's augmentation pipeline uses Icarus Verilog:
/// a module either compiles (syntax and basic semantics are sound) or it is rejected
/// with a diagnostic that later becomes part of the *Verilog-PT* dataset.
///
/// # Errors
///
/// Returns the parse error or the first semantic error, rendered as a [`ParseError`].
pub fn compile_check(source: &str) -> Result<SemaReport, ParseError> {
    let file = parse(source)?;
    let mut last_report = SemaReport::default();
    for module in &file.modules {
        let report = sema::check_module(module);
        if let Some(err) = report.errors.first() {
            return Err(ParseError::new(err.to_string(), err.line));
        }
        last_report = report;
    }
    Ok(last_report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_smoke() {
        let file = parse("module m(input a, output b); assign b = a; endmodule").unwrap();
        assert_eq!(file.modules.len(), 1);
        assert_eq!(file.modules[0].ports.len(), 2);
    }

    #[test]
    fn parse_module_rejects_multiple() {
        let src = "module a(); endmodule\nmodule b(); endmodule";
        assert!(parse_module(src).is_err());
    }

    #[test]
    fn compile_check_rejects_undeclared() {
        let src = "module m(input a, output b); assign b = missing_wire; endmodule";
        assert!(compile_check(src).is_err());
    }
}
