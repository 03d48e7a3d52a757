//! Parser producing the [`crate::ast`] types.
//!
//! Items, statements and properties are parsed by recursive descent, one
//! function per construct.  Binary expressions are parsed by precedence
//! climbing over [`BinaryOp`]'s one table of spellings and precedence
//! classes, the table the printer reads to place parentheses; unary
//! operators and keywords are each looked up in one table too.

use crate::ast::*;
use crate::error::ParseError;
use crate::lexer::Lexer;
use crate::span::Span;
use crate::token::{Keyword, Token, TokenKind};
use std::ops::Range;

/// Parser over a pre-lexed token stream (see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use svparse::Parser;
/// let expr = Parser::new("a & !b")?.parse_expr()?;
/// assert_eq!(expr.idents(), ["a", "b"]);
/// # Ok::<(), svparse::ParseError>(())
/// ```
#[derive(Debug)]
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    depth: u32,
}

/// Maximum syntactic nesting depth (parenthesised expressions, unary chains,
/// nested statements, concatenations) before the parser reports an error instead
/// of exhausting the call stack. An expression level costs a handful of stack
/// frames (`parse_expr`, `parse_ternary`, one `parse_binary` per precedence
/// class its operators climb, `parse_unary`, `parse_primary`), so the bound must
/// stay small enough for debug builds on default 2 MiB test threads. Deeply
/// nested input is adversarial, not real hardware; hand-written and generated
/// designs stay far below this bound.
const MAX_NESTING_DEPTH: u32 = 64;

impl Parser {
    /// Lexes the source and prepares a parser.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] if the source cannot be tokenized.
    pub fn new(source: &str) -> Result<Self, ParseError> {
        Ok(Self::over(Lexer::tokenize(source)?))
    }

    /// A parser over tokens already lexed; the last must be [`TokenKind::Eof`].
    pub(crate) fn over(tokens: Vec<Token>) -> Self {
        Self {
            tokens,
            pos: 0,
            depth: 0,
        }
    }

    /// Whether every token before the final `Eof` has been consumed.
    pub(crate) fn at_eof(&self) -> bool {
        self.pos + 1 == self.tokens.len()
    }

    fn enter_nested(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            return Err(ParseError::new(
                format!("nesting deeper than {MAX_NESTING_DEPTH} levels"),
                self.line(),
            ));
        }
        Ok(())
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_at(&self, offset: usize) -> &Token {
        &self.tokens[(self.pos + offset).min(self.tokens.len() - 1)]
    }

    fn line(&self) -> u32 {
        self.peek().line
    }

    fn prev_line(&self) -> u32 {
        if self.pos == 0 {
            1
        } else {
            self.tokens[self.pos - 1].line
        }
    }

    /// Moves the current token out and advances.  The parser never looks back at
    /// a token's kind, only at its line, so the slot keeps its line and an `Eof`.
    /// The final `Eof` is never passed.
    fn bump(&mut self) -> Token {
        let last = self.tokens.len() - 1;
        let slot = &mut self.tokens[self.pos.min(last)];
        let tok = Token::new(std::mem::replace(&mut slot.kind, TokenKind::Eof), slot.line);
        if self.pos < last {
            self.pos += 1;
        }
        tok
    }

    /// The current token's spelling, if it is a symbol.
    fn peek_symbol(&self) -> Option<&'static str> {
        match self.peek().kind {
            TokenKind::Symbol(sym) => Some(sym),
            _ => None,
        }
    }

    fn eat_symbol(&mut self, sym: &str) -> bool {
        if self.peek().is_symbol(sym) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        if self.peek().is_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, sym: &str) -> Result<(), ParseError> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("`{sym}`")))
        }
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("`{}`", kw.as_str())))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        if !matches!(self.peek().kind, TokenKind::Ident(_)) {
            return Err(self.unexpected("identifier"));
        }
        match self.bump().kind {
            TokenKind::Ident(name) => Ok(name),
            _ => unreachable!("peeked an identifier"),
        }
    }

    fn expect_number(&mut self) -> Result<u64, ParseError> {
        match &self.peek().kind {
            TokenKind::Number { value, .. } => {
                let v = *value;
                self.bump();
                Ok(v)
            }
            _ => Err(self.unexpected("number")),
        }
    }

    /// A cycle count (`##N`, `$past(x, N)`): a number that fits in 32 bits.
    fn expect_cycles(&mut self, what: &str) -> Result<u32, ParseError> {
        let count = self.expect_number()?;
        self.narrow(count, what, "count")
    }

    /// `value` as 32 bits, or an error naming it as `what` and `noun` (a range or
    /// part-select bound, a replication or cycle count) rather than a truncation.
    fn narrow(&self, value: u64, what: &str, noun: &str) -> Result<u32, ParseError> {
        u32::try_from(value).map_err(|_| {
            ParseError::new(
                format!(
                    "{what} {noun} {value} exceeds the largest supported, {}",
                    u32::MAX
                ),
                self.line(),
            )
        })
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        ParseError::new(
            format!("expected {expected}, found {}", self.peek().kind),
            self.line(),
        )
    }

    /// Parses a complete source file (zero or more modules).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on the first syntax problem.
    pub(crate) fn parse_file(&mut self) -> Result<SourceFile, ParseError> {
        let mut modules = Vec::new();
        while !self.peek().is_eof() {
            modules.push(self.parse_module()?);
        }
        Ok(SourceFile::new(modules))
    }

    fn parse_module(&mut self) -> Result<Module, ParseError> {
        self.parse_module_with(|_| ())
    }

    /// Parses one module, telling `item_tokens` the token range of each item.
    pub(crate) fn parse_module_with(
        &mut self,
        mut item_tokens: impl FnMut(Range<usize>),
    ) -> Result<Module, ParseError> {
        let start = self.line();
        self.expect_keyword(Keyword::Module)?;
        let name = self.expect_ident()?;
        let mut ports = Vec::new();
        if self.eat_symbol("(") {
            if !self.peek().is_symbol(")") {
                loop {
                    ports.push(self.parse_port()?);
                    if !self.eat_symbol(",") {
                        break;
                    }
                }
            }
            self.expect_symbol(")")?;
        }
        self.expect_symbol(";")?;

        let mut items = Vec::new();
        while !self.peek().is_keyword(Keyword::Endmodule) {
            if self.peek().is_eof() {
                return Err(ParseError::new("missing `endmodule`", self.line()));
            }
            let first = self.pos;
            items.push(self.parse_item()?);
            item_tokens(first..self.pos);
        }
        self.expect_keyword(Keyword::Endmodule)?;
        Ok(Module {
            name,
            ports,
            items,
            span: Span::new(start, self.prev_line()),
        })
    }

    fn parse_port(&mut self) -> Result<Port, ParseError> {
        let dir = if self.eat_keyword(Keyword::Input) {
            PortDir::Input
        } else if self.eat_keyword(Keyword::Output) {
            PortDir::Output
        } else if self.eat_keyword(Keyword::Inout) {
            PortDir::Inout
        } else {
            return Err(self.unexpected("`input`, `output` or `inout`"));
        };
        let net = if self.eat_keyword(Keyword::Reg) {
            NetKind::Reg
        } else {
            // `wire`/`logic` are optional on ports; consume the keyword when present.
            let _ = self.eat_keyword(Keyword::Wire) || self.eat_keyword(Keyword::Logic);
            NetKind::Wire
        };
        self.eat_keyword(Keyword::Signed);
        let width = self.parse_opt_range()?;
        let name = self.expect_ident()?;
        Ok(Port {
            dir,
            net,
            width,
            name,
        })
    }

    fn parse_opt_range(&mut self) -> Result<Option<BitRange>, ParseError> {
        if self.peek().is_symbol("[") {
            self.bump();
            let msb = self.expect_number()?;
            self.expect_symbol(":")?;
            let lsb = self.expect_number()?;
            self.expect_symbol("]")?;
            let msb = self.narrow(msb, "range", "bound")?;
            let lsb = self.narrow(lsb, "range", "bound")?;
            Ok(Some(BitRange::new(msb, lsb)))
        } else {
            Ok(None)
        }
    }

    pub(crate) fn parse_item(&mut self) -> Result<Item, ParseError> {
        let start = self.line();
        match &self.peek().kind {
            TokenKind::Keyword(Keyword::Wire) => self.parse_net_decl(NetKind::Wire, start),
            TokenKind::Keyword(Keyword::Reg) | TokenKind::Keyword(Keyword::Logic) => {
                self.parse_net_decl(NetKind::Reg, start)
            }
            TokenKind::Keyword(Keyword::Integer) => self.parse_net_decl(NetKind::Integer, start),
            TokenKind::Keyword(Keyword::Parameter) => self.parse_param(false, start),
            TokenKind::Keyword(Keyword::Localparam) => self.parse_param(true, start),
            TokenKind::Keyword(Keyword::Assign) => self.parse_assign(start),
            TokenKind::Keyword(Keyword::Always)
            | TokenKind::Keyword(Keyword::AlwaysFf)
            | TokenKind::Keyword(Keyword::AlwaysComb) => self.parse_always(start),
            TokenKind::Keyword(Keyword::Initial) => self.parse_initial(start),
            TokenKind::Keyword(Keyword::Property) => self.parse_property(start).map(Item::Property),
            TokenKind::Keyword(Keyword::Assert) => self.parse_assert(None, start),
            TokenKind::Ident(_) if self.peek_at(1).is_symbol(":") => {
                let label = self.expect_ident()?;
                self.bump(); // :
                if self.peek().is_keyword(Keyword::Assert) {
                    self.parse_assert(Some(label), start)
                } else {
                    Err(self.unexpected("`assert` after label"))
                }
            }
            _ => Err(self.unexpected("module item")),
        }
    }

    fn parse_net_decl(&mut self, kind: NetKind, start: u32) -> Result<Item, ParseError> {
        self.bump(); // wire/reg/logic/integer
        self.eat_keyword(Keyword::Signed);
        let width = self.parse_opt_range()?;
        let mut names = vec![self.expect_ident()?];
        while self.eat_symbol(",") {
            names.push(self.expect_ident()?);
        }
        // Optional initialiser on reg declarations is accepted and discarded.
        if self.eat_symbol("=") {
            let _ = self.parse_expr()?;
        }
        self.expect_symbol(";")?;
        Ok(Item::Net(NetDecl {
            kind,
            width,
            names,
            span: Span::new(start, self.prev_line()),
        }))
    }

    fn parse_param(&mut self, local: bool, start: u32) -> Result<Item, ParseError> {
        self.bump(); // parameter/localparam
        let _ = self.parse_opt_range()?;
        let name = self.expect_ident()?;
        self.expect_symbol("=")?;
        let value = self.parse_expr()?;
        self.expect_symbol(";")?;
        Ok(Item::Param(ParamDecl {
            local,
            name,
            value,
            span: Span::new(start, self.prev_line()),
        }))
    }

    fn parse_assign(&mut self, start: u32) -> Result<Item, ParseError> {
        self.expect_keyword(Keyword::Assign)?;
        let lhs = self.parse_lvalue()?;
        self.expect_symbol("=")?;
        let rhs = self.parse_expr()?;
        self.expect_symbol(";")?;
        Ok(Item::Assign(ContinuousAssign {
            lhs,
            rhs,
            span: Span::new(start, self.prev_line()),
        }))
    }

    fn parse_always(&mut self, start: u32) -> Result<Item, ParseError> {
        let tok = self.bump();
        let sensitivity = if tok.is_keyword(Keyword::AlwaysComb) {
            Sensitivity::Star
        } else {
            self.expect_symbol("@")?;
            self.parse_sensitivity()?
        };
        let body = self.parse_stmt()?;
        Ok(Item::Always(AlwaysBlock {
            sensitivity,
            body,
            span: Span::new(start, self.prev_line()),
        }))
    }

    fn parse_sensitivity(&mut self) -> Result<Sensitivity, ParseError> {
        if self.eat_symbol("*") {
            return Ok(Sensitivity::Star);
        }
        self.expect_symbol("(")?;
        if self.eat_symbol("*") {
            self.expect_symbol(")")?;
            return Ok(Sensitivity::Star);
        }
        let mut events = Vec::new();
        let mut any_edge = false;
        loop {
            if self.eat_keyword(Keyword::Posedge) {
                any_edge = true;
                events.push(EdgeEvent::posedge(self.expect_ident()?));
            } else if self.eat_keyword(Keyword::Negedge) {
                any_edge = true;
                events.push(EdgeEvent::negedge(self.expect_ident()?));
            } else {
                // Plain signal sensitivity (e.g. `always @(a or b)`) is treated as
                // combinational, matching common synthesisable usage.
                let _ = self.expect_ident()?;
            }
            if self.eat_keyword(Keyword::Or) || self.eat_symbol(",") {
                continue;
            }
            break;
        }
        self.expect_symbol(")")?;
        if any_edge {
            Ok(Sensitivity::Edges(events))
        } else {
            Ok(Sensitivity::Star)
        }
    }

    fn parse_initial(&mut self, start: u32) -> Result<Item, ParseError> {
        self.expect_keyword(Keyword::Initial)?;
        let body = self.parse_stmt()?;
        Ok(Item::Initial(InitialBlock {
            body,
            span: Span::new(start, self.prev_line()),
        }))
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.enter_nested()?;
        let result = self.parse_stmt_inner();
        self.depth -= 1;
        result
    }

    fn parse_stmt_inner(&mut self) -> Result<Stmt, ParseError> {
        let start = self.line();
        if self.eat_keyword(Keyword::Begin) {
            let mut stmts = Vec::new();
            while !self.peek().is_keyword(Keyword::End) {
                if self.peek().is_eof() {
                    return Err(ParseError::new("missing `end`", self.line()));
                }
                stmts.push(self.parse_stmt()?);
            }
            self.expect_keyword(Keyword::End)?;
            return Ok(Stmt::Block {
                stmts,
                span: Span::new(start, self.prev_line()),
            });
        }
        if self.eat_keyword(Keyword::If) {
            self.expect_symbol("(")?;
            let cond = self.parse_expr()?;
            self.expect_symbol(")")?;
            let header_end = self.prev_line();
            let then_branch = Box::new(self.parse_stmt()?);
            let else_branch = if self.eat_keyword(Keyword::Else) {
                Some(Box::new(self.parse_stmt()?))
            } else {
                None
            };
            return Ok(Stmt::If {
                cond,
                then_branch,
                else_branch,
                span: Span::new(start, header_end),
            });
        }
        if self.peek().is_keyword(Keyword::Case) || self.peek().is_keyword(Keyword::Casez) {
            self.bump();
            self.expect_symbol("(")?;
            let subject = self.parse_expr()?;
            self.expect_symbol(")")?;
            let header_end = self.prev_line();
            let mut arms = Vec::new();
            let mut default = None;
            while !self.peek().is_keyword(Keyword::Endcase) {
                if self.peek().is_eof() {
                    return Err(ParseError::new("missing `endcase`", self.line()));
                }
                if self.eat_keyword(Keyword::Default) {
                    self.eat_symbol(":");
                    default = Some(Box::new(self.parse_stmt()?));
                    continue;
                }
                let arm_start = self.line();
                let mut labels = vec![self.parse_expr()?];
                while self.eat_symbol(",") {
                    labels.push(self.parse_expr()?);
                }
                self.expect_symbol(":")?;
                let body = self.parse_stmt()?;
                arms.push(CaseArm {
                    labels,
                    body,
                    span: Span::new(arm_start, self.prev_line()),
                });
            }
            self.expect_keyword(Keyword::Endcase)?;
            return Ok(Stmt::Case {
                subject,
                arms,
                default,
                span: Span::new(start, header_end),
            });
        }
        if self.eat_symbol(";") {
            return Ok(Stmt::Null);
        }

        // Assignment statement.
        let lhs = self.parse_lvalue()?;
        if self.eat_symbol("<=") {
            let rhs = self.parse_expr()?;
            self.expect_symbol(";")?;
            return Ok(Stmt::NonBlocking {
                lhs,
                rhs,
                span: Span::new(start, self.prev_line()),
            });
        }
        if self.eat_symbol("=") {
            let rhs = self.parse_expr()?;
            self.expect_symbol(";")?;
            return Ok(Stmt::Blocking {
                lhs,
                rhs,
                span: Span::new(start, self.prev_line()),
            });
        }
        Err(self.unexpected("`=` or `<=`"))
    }

    fn parse_lvalue(&mut self) -> Result<LValue, ParseError> {
        self.enter_nested()?;
        let result = self.parse_lvalue_inner();
        self.depth -= 1;
        result
    }

    fn parse_lvalue_inner(&mut self) -> Result<LValue, ParseError> {
        if self.eat_symbol("{") {
            let mut parts = vec![self.parse_lvalue()?];
            while self.eat_symbol(",") {
                parts.push(self.parse_lvalue()?);
            }
            self.expect_symbol("}")?;
            return Ok(LValue::Concat(parts));
        }
        let name = self.expect_ident()?;
        if self.eat_symbol("[") {
            let first = self.parse_expr()?;
            if self.eat_symbol(":") {
                let msb = expr_const(&first).ok_or_else(|| {
                    ParseError::new("part-select bounds must be constant", self.line())
                })?;
                let lsb = self.expect_number()?;
                self.expect_symbol("]")?;
                let range = self.part_select(msb, lsb)?;
                return Ok(LValue::Part(name, range));
            }
            self.expect_symbol("]")?;
            return Ok(LValue::Bit(name, Box::new(first)));
        }
        Ok(LValue::Ident(name))
    }

    /// Parses an expression (public so that dataset tooling can parse fix snippets).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on malformed expressions.
    pub fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.enter_nested()?;
        let result = self.parse_ternary();
        self.depth -= 1;
        result
    }

    fn parse_ternary(&mut self) -> Result<Expr, ParseError> {
        let cond = self.parse_binary(1)?;
        if self.eat_symbol("?") {
            let then_val = self.parse_expr()?;
            self.expect_symbol(":")?;
            let else_val = self.parse_expr()?;
            return Ok(Expr::Ternary(
                Box::new(cond),
                Box::new(then_val),
                Box::new(else_val),
            ));
        }
        Ok(cond)
    }

    /// Parses unary operands joined by binary operators of precedence class
    /// `class` or tighter.  Each right operand is parsed one class tighter
    /// than its operator, so every operator is left-associative.
    fn parse_binary(&mut self, class: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_unary()?;
        while let Some(op) = self.peek_symbol().and_then(BinaryOp::from_symbol) {
            if op.precedence() < class {
                break;
            }
            self.bump();
            let rhs = self.parse_binary(op.precedence() + 1)?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        let Some(op) = self.peek_symbol().and_then(UnaryOp::from_symbol) else {
            return self.parse_primary();
        };
        self.bump();
        self.enter_nested()?;
        let inner = self.parse_unary();
        self.depth -= 1;
        Ok(Expr::unary(op, inner?))
    }

    /// The bounds of a part-select, both read after its closing `]`.
    fn part_select(&self, msb: u64, lsb: u64) -> Result<BitRange, ParseError> {
        let msb = self.narrow(msb, "part-select", "bound")?;
        let lsb = self.narrow(lsb, "part-select", "bound")?;
        Ok(BitRange::new(msb, lsb))
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        let token = match self.peek().kind {
            TokenKind::Number { .. }
            | TokenKind::Ident(_)
            | TokenKind::SysIdent(_)
            | TokenKind::Symbol("(" | "{") => self.bump(),
            _ => return Err(self.unexpected("expression")),
        };
        match token.kind {
            TokenKind::Number { width, value, base } => {
                Ok(Expr::Number(Literal { width, value, base }))
            }
            TokenKind::Ident(name) => {
                if self.eat_symbol("[") {
                    let first = self.parse_expr()?;
                    if self.eat_symbol(":") {
                        let msb = expr_const(&first).ok_or_else(|| {
                            ParseError::new("part-select bounds must be constant", self.line())
                        })?;
                        let lsb = self.expect_number()?;
                        self.expect_symbol("]")?;
                        let range = self.part_select(msb, lsb)?;
                        return Ok(Expr::Part(name, range));
                    }
                    self.expect_symbol("]")?;
                    return Ok(Expr::Bit(name, Box::new(first)));
                }
                Ok(Expr::Ident(name))
            }
            TokenKind::SysIdent(sys) => {
                self.expect_symbol("(")?;
                let inner = self.parse_expr()?;
                let result = match sys.as_str() {
                    "past" => {
                        let cycles = if self.eat_symbol(",") {
                            self.expect_cycles("`$past`")?
                        } else {
                            1
                        };
                        Expr::Past(Box::new(inner), cycles)
                    }
                    "rose" => Expr::Rose(Box::new(inner)),
                    "fell" => Expr::Fell(Box::new(inner)),
                    "stable" => Expr::Stable(Box::new(inner)),
                    other => {
                        return Err(ParseError::new(
                            format!("unsupported system function `${other}` in expression"),
                            self.line(),
                        ))
                    }
                };
                self.expect_symbol(")")?;
                Ok(result)
            }
            TokenKind::Symbol("(") => {
                let inner = self.parse_expr()?;
                self.expect_symbol(")")?;
                Ok(inner)
            }
            TokenKind::Symbol("{") => {
                let first = self.parse_expr()?;
                // Replication: {N{expr}}
                if self.peek().is_symbol("{") {
                    let count = expr_const(&first).ok_or_else(|| {
                        ParseError::new("replication count must be constant", self.line())
                    })?;
                    self.bump();
                    let inner = self.parse_expr()?;
                    self.expect_symbol("}")?;
                    self.expect_symbol("}")?;
                    let count = self.narrow(count, "replication", "count")?;
                    return Ok(Expr::Repeat(count, Box::new(inner)));
                }
                let mut parts = vec![first];
                while self.eat_symbol(",") {
                    parts.push(self.parse_expr()?);
                }
                self.expect_symbol("}")?;
                Ok(Expr::Concat(parts))
            }
            _ => unreachable!("the primary's first token was matched above"),
        }
    }

    fn parse_property(&mut self, start: u32) -> Result<PropertyDecl, ParseError> {
        self.expect_keyword(Keyword::Property)?;
        let name = self.expect_ident()?;
        self.expect_symbol(";")?;
        let (clock, disable_iff, body) = self.parse_property_spec()?;
        self.expect_symbol(";")?;
        self.expect_keyword(Keyword::Endproperty)?;
        Ok(PropertyDecl {
            name,
            clock,
            disable_iff,
            body,
            span: Span::new(start, self.prev_line()),
        })
    }

    fn parse_property_spec(&mut self) -> Result<(EdgeEvent, Option<Expr>, PropExpr), ParseError> {
        self.expect_symbol("@")?;
        self.expect_symbol("(")?;
        let edge = if self.eat_keyword(Keyword::Posedge) {
            EdgeKind::Pos
        } else if self.eat_keyword(Keyword::Negedge) {
            EdgeKind::Neg
        } else {
            return Err(self.unexpected("`posedge` or `negedge`"));
        };
        let clk = self.expect_ident()?;
        self.expect_symbol(")")?;
        let clock = EdgeEvent { edge, signal: clk };
        let disable_iff = if self.eat_keyword(Keyword::Disable) {
            self.expect_keyword(Keyword::Iff)?;
            self.expect_symbol("(")?;
            let guard = self.parse_expr()?;
            self.expect_symbol(")")?;
            Some(guard)
        } else {
            None
        };
        let body = self.parse_prop_expr()?;
        Ok((clock, disable_iff, body))
    }

    fn parse_prop_expr(&mut self) -> Result<PropExpr, ParseError> {
        self.enter_nested()?;
        let result = self.parse_prop_expr_inner();
        self.depth -= 1;
        result
    }

    fn parse_prop_expr_inner(&mut self) -> Result<PropExpr, ParseError> {
        if self.eat_keyword(Keyword::Not) {
            self.expect_symbol("(")?;
            let inner = self.parse_prop_expr()?;
            self.expect_symbol(")")?;
            return Ok(PropExpr::Not(Box::new(inner)));
        }
        let antecedent = self.parse_prop_sequence()?;
        if self.eat_symbol("|->") {
            let consequent = self.parse_prop_expr()?;
            return Ok(PropExpr::Implication {
                antecedent: Box::new(antecedent),
                consequent: Box::new(consequent),
                overlapping: true,
            });
        }
        if self.eat_symbol("|=>") {
            let consequent = self.parse_prop_expr()?;
            return Ok(PropExpr::Implication {
                antecedent: Box::new(antecedent),
                consequent: Box::new(consequent),
                overlapping: false,
            });
        }
        Ok(antecedent)
    }

    fn parse_prop_sequence(&mut self) -> Result<PropExpr, ParseError> {
        let mut lhs = if self.peek().is_symbol("##") {
            None
        } else {
            Some(PropExpr::Expr(self.parse_expr()?))
        };
        while self.eat_symbol("##") {
            let cycles = self.expect_cycles("`##` delay")?;
            let rhs = PropExpr::Expr(self.parse_expr()?);
            lhs = Some(PropExpr::Delay {
                lhs: lhs.map(Box::new),
                cycles,
                rhs: Box::new(rhs),
            });
        }
        lhs.ok_or_else(|| self.unexpected("property expression"))
    }

    fn parse_assert(&mut self, label: Option<String>, start: u32) -> Result<Item, ParseError> {
        self.expect_keyword(Keyword::Assert)?;
        self.expect_keyword(Keyword::Property)?;
        self.expect_symbol("(")?;
        let target = if self.peek().is_symbol("@") {
            let (clock, disable_iff, body) = self.parse_property_spec()?;
            let inline_name = label
                .clone()
                .unwrap_or_else(|| "inline_property".to_string());
            AssertTarget::Inline(Box::new(PropertyDecl {
                name: inline_name,
                clock,
                disable_iff,
                body,
                span: Span::new(start, self.prev_line()),
            }))
        } else {
            AssertTarget::Named(self.expect_ident()?)
        };
        self.expect_symbol(")")?;
        let mut message = None;
        if self.eat_keyword(Keyword::Else) {
            // else $error("...") or $display("...")
            match self.bump().kind {
                TokenKind::SysIdent(_) => {}
                _ => return Err(self.unexpected("system task after `else`")),
            }
            self.expect_symbol("(")?;
            if matches!(self.peek().kind, TokenKind::StringLit(_)) {
                if let TokenKind::StringLit(text) = self.bump().kind {
                    message = Some(text);
                }
            }
            // Skip any extra arguments.
            while !self.peek().is_symbol(")") {
                if self.peek().is_eof() {
                    return Err(self.unexpected("`)`"));
                }
                self.bump();
            }
            self.expect_symbol(")")?;
        }
        self.expect_symbol(";")?;
        Ok(Item::Assertion(AssertionItem {
            label,
            target,
            message,
            span: Span::new(start, self.prev_line()),
        }))
    }
}

fn expr_const(expr: &Expr) -> Option<u64> {
    match expr {
        Expr::Number(lit) => Some(lit.value),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    const ACCU: &str = r#"
module accu(
  input clk,
  input rst_n,
  input [7:0] data_in,
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
    @(posedge clk) disable iff (!rst_n)
    end_cnt |-> ##1 valid_out == 1;
  endproperty
  valid_out_check_assertion:
  assert property (valid_out_check)
  else $error("valid_out should be high when end_cnt high");
endmodule
"#;

    #[test]
    fn parses_paper_style_module() {
        let m = crate::parse_module(ACCU).unwrap();
        assert_eq!(m.name, "accu");
        assert_eq!(m.ports.len(), 5);
        assert_eq!(m.always_blocks().count(), 2);
        assert_eq!(m.properties().count(), 1);
        assert_eq!(m.assertions().count(), 1);
        let assertion = m.assertions().next().unwrap();
        assert_eq!(
            assertion.display_name(),
            "valid_out_check_assertion".to_string()
        );
        assert_eq!(
            assertion.message.as_deref(),
            Some("valid_out should be high when end_cnt high")
        );
        let prop = m.property("valid_out_check").unwrap();
        assert_eq!(prop.clock.signal, "clk");
        assert!(prop.disable_iff.is_some());
        assert_eq!(prop.body.horizon(), 1);
    }

    #[test]
    fn operator_precedence() {
        let m = crate::parse_module(
            "module m(input a, input b, input c, output x); assign x = a & b | c; endmodule",
        )
        .unwrap();
        let assign = m.assigns().next().unwrap();
        // Expect (a & b) | c
        match &assign.rhs {
            Expr::Binary(BinaryOp::BitOr, lhs, _) => match lhs.as_ref() {
                Expr::Binary(BinaryOp::BitAnd, _, _) => {}
                other => panic!("unexpected lhs {other:?}"),
            },
            other => panic!("unexpected rhs {other:?}"),
        }
    }

    #[test]
    fn ternary_and_comparison() {
        let m = crate::parse_module(
            "module m(input [3:0] a, output [3:0] y); assign y = (a >= 4'd8) ? a - 4'd8 : a + 4'd1; endmodule",
        )
        .unwrap();
        let assign = m.assigns().next().unwrap();
        assert!(matches!(assign.rhs, Expr::Ternary(_, _, _)));
    }

    #[test]
    fn case_statement() {
        let src = r#"
module m(input [1:0] sel, input a, input b, input c, output reg y);
  always @(*) begin
    case (sel)
      2'd0: y = a;
      2'd1: y = b;
      2'd2, 2'd3: y = c;
      default: y = 0;
    endcase
  end
endmodule
"#;
        let m = crate::parse_module(src).unwrap();
        let always = m.always_blocks().next().unwrap();
        let mut found_case = false;
        always.body.walk(&mut |s| {
            if let Stmt::Case { arms, default, .. } = s {
                found_case = true;
                assert_eq!(arms.len(), 3);
                assert!(default.is_some());
            }
        });
        assert!(found_case);
    }

    #[test]
    fn concat_and_replication() {
        let m = crate::parse_module(
            "module m(input [3:0] a, output [7:0] y, output [7:0] z); assign y = {a, 4'b0000}; assign z = {2{a}}; endmodule",
        )
        .unwrap();
        let assigns: Vec<_> = m.assigns().collect();
        assert!(matches!(assigns[0].rhs, Expr::Concat(_)));
        assert!(matches!(assigns[1].rhs, Expr::Repeat(2, _)));
    }

    #[test]
    fn bit_and_part_select() {
        let m = crate::parse_module(
            "module m(input [7:0] d, input [2:0] i, output y, output [3:0] hi); assign y = d[i]; assign hi = d[7:4]; endmodule",
        )
        .unwrap();
        let assigns: Vec<_> = m.assigns().collect();
        assert!(matches!(assigns[0].rhs, Expr::Bit(_, _)));
        assert!(matches!(assigns[1].rhs, Expr::Part(_, _)));
    }

    #[test]
    fn inline_assert_property() {
        let src = r#"
module m(input clk, input rst_n, input a, output reg b);
  always @(posedge clk) b <= a;
  a_implies_b: assert property (@(posedge clk) disable iff (!rst_n) a |=> b);
endmodule
"#;
        let m = crate::parse_module(src).unwrap();
        let assertion = m.assertions().next().unwrap();
        match &assertion.target {
            AssertTarget::Inline(p) => {
                assert_eq!(p.clock.signal, "clk");
                assert_eq!(p.body.horizon(), 1);
            }
            other => panic!("expected inline property, got {other:?}"),
        }
    }

    #[test]
    fn sva_system_functions() {
        let src = r#"
module m(input clk, input req, input ack);
  property p;
    @(posedge clk) $rose(req) |-> ##2 ack == $past(req, 2);
  endproperty
  assert property (p);
endmodule
"#;
        let m = crate::parse_module(src).unwrap();
        let p = m.property("p").unwrap();
        let ids = p.body.idents();
        assert!(ids.contains(&"req".to_string()));
        assert!(ids.contains(&"ack".to_string()));
    }

    #[test]
    fn cycle_counts_beyond_u32_are_errors_not_truncated() {
        let with = |property: &str| {
            crate::parse_module(&format!(
                "module m(input clk, input a, input b);\n  assert property (@(posedge clk) {property});\nendmodule"
            ))
        };
        // The largest count still parses, as itself.
        let delay = with("a ##4294967295 b").unwrap();
        match &delay.assertions().next().unwrap().target {
            AssertTarget::Inline(p) => assert_eq!(p.body.horizon(), u32::MAX),
            other => panic!("expected inline property, got {other:?}"),
        }
        assert!(with("$past(a, 4294967295) |-> b").is_ok());
        // One more no longer wraps to `##0` / `$past(x, 1)`.
        let err = with("a ##4294967296 b").unwrap_err();
        assert!(
            err.to_string().contains("`##` delay count 4294967296"),
            "{err}"
        );
        let err = with("$past(a, 4294967297) |-> b").unwrap_err();
        assert!(
            err.to_string().contains("`$past` count 4294967297"),
            "{err}"
        );
    }

    #[test]
    fn range_bounds_beyond_u32_are_errors_not_truncated() {
        let port =
            |range: &str| crate::parse_module(&format!("module m(input {range} a); endmodule"));
        let widest = port("[4294967295:0]").unwrap();
        assert_eq!(widest.ports[0].width, Some(BitRange::new(u32::MAX, 0)));
        // `[4294967303:0]` used to read as `[7:0]`.
        let err = port("[4294967303:0]").unwrap_err();
        assert!(err.message().contains("range bound 4294967303"), "{err}");
        let err = port("[3:4294967296]").unwrap_err();
        assert!(err.message().contains("range bound 4294967296"), "{err}");
    }

    #[test]
    fn part_select_bounds_beyond_u32_are_errors_not_truncated() {
        let with = |stmt: &str| {
            crate::parse_module(&format!(
                "module m(input [7:0] a, output [7:0] y);\n  {stmt}\nendmodule"
            ))
        };
        let widest = with("assign y = a[4294967295:4294967294];").unwrap();
        match &widest.assigns().next().unwrap().rhs {
            Expr::Part(name, range) => {
                assert_eq!(
                    (name.as_str(), *range),
                    ("a", BitRange::new(u32::MAX, u32::MAX - 1))
                )
            }
            other => panic!("expected a part-select, got {other:?}"),
        }
        // `a[4294967297:4294967296]` used to read as `a[1:0]`, on either side.
        for stmt in [
            "assign y = a[4294967297:4294967296];",
            "assign y[4294967297:4294967296] = a;",
        ] {
            let err = with(stmt).unwrap_err();
            assert!(
                err.message().contains("part-select bound 4294967297"),
                "{stmt}: {err}"
            );
        }
        let err = with("assign y[1:4294967296] = a;").unwrap_err();
        assert!(
            err.message().contains("part-select bound 4294967296"),
            "{err}"
        );
    }

    #[test]
    fn replication_counts_beyond_u32_are_errors_not_truncated() {
        let with = |rhs: &str| {
            crate::parse_module(&format!(
                "module m(input a, output [3:0] y);\n  assign y = {rhs};\nendmodule"
            ))
        };
        let widest = with("{4294967295{a}}").unwrap();
        assert!(matches!(
            widest.assigns().next().unwrap().rhs,
            Expr::Repeat(u32::MAX, _)
        ));
        // `{4294967300{a}}` used to read as `{4{a}}`.
        let err = with("{4294967300{a}}").unwrap_err();
        assert!(
            err.message().contains("replication count 4294967300"),
            "{err}"
        );
    }

    #[test]
    fn missing_endmodule_is_error() {
        assert!(parse("module m(input a);").is_err());
    }

    #[test]
    fn missing_semicolon_is_error() {
        assert!(parse("module m(input a, output b); assign b = a endmodule").is_err());
    }

    #[test]
    fn garbage_is_error() {
        assert!(parse("modul m(); endmodule").is_err());
    }

    #[test]
    fn multiple_modules() {
        let f = parse("module a(); endmodule module b(); endmodule").unwrap();
        assert_eq!(f.modules.len(), 2);
    }

    #[test]
    fn parameters_and_localparams() {
        let m = crate::parse_module(
            "module m(input a, output y); parameter WIDTH = 8; localparam DEPTH = 4; assign y = a; endmodule",
        )
        .unwrap();
        let params: Vec<_> = m
            .items
            .iter()
            .filter(|i| matches!(i, Item::Param(_)))
            .collect();
        assert_eq!(params.len(), 2);
    }

    #[test]
    fn spans_are_tracked() {
        let m = crate::parse_module(ACCU).unwrap();
        let assign = m.assigns().next().unwrap();
        assert!(assign.span.start_line >= 10 && assign.span.start_line <= 12);
        for item in &m.items {
            assert!(!item.span().is_synthetic());
        }
    }

    #[test]
    fn initial_block() {
        let m = crate::parse_module("module m(output reg q); initial begin q = 0; end endmodule")
            .unwrap();
        assert!(m.items.iter().any(|i| matches!(i, Item::Initial(_))));
    }

    #[test]
    fn reduction_operators() {
        let m = crate::parse_module(
            "module m(input [3:0] a, output y, output z); assign y = &a; assign z = ^a; endmodule",
        )
        .unwrap();
        let assigns: Vec<_> = m.assigns().collect();
        assert!(matches!(assigns[0].rhs, Expr::Unary(UnaryOp::RedAnd, _)));
        assert!(matches!(assigns[1].rhs, Expr::Unary(UnaryOp::RedXor, _)));
    }
}
