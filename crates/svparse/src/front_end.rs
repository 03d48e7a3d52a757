//! A parsed source that re-parses one-line edits item by item.
//!
//! A repair proposes one line of a module it has already seen.  Lexing and
//! parsing the edited text again re-derives every item but one, so a
//! [`FrontEnd`] keeps what the whole source gave — its tokens indexed by line,
//! its [`Module`] with each item's token range, and whether the source is
//! canonical — and [`FrontEnd::edit_line`] lexes only the new line and
//! re-parses only the item that holds it.
//!
//! An edit is answered only where that provably equals the whole-text parse;
//! everywhere else it *declines* (`None`) and the caller parses the edited text
//! itself.  It declines when:
//!
//! - the text, trimmed, holds a line break (`\n` or `\r`);
//! - the line is in no item: between items, or in the header, the ports or
//!   `endmodule`, or shared by two of them;
//! - the old line or the new text touches a lexeme that can span lines: it is
//!   inside a block comment or a string, or holds `/*`, `*/` or `"`;
//! - the text does not lex;
//! - the item's tokens with the line's replaced do not parse as one item that
//!   ends exactly at its last token (an edit that opens or closes a block).
//!
//! # Examples
//!
//! ```
//! use svparse::FrontEnd;
//! let source = "module m(input a, input b, output y);\n  assign y = a & b;\nendmodule\n";
//! let front_end = FrontEnd::new(source)?;
//! let edit = front_end.edit_line(2, "assign y = a | b;").expect("one item changes");
//! assert_eq!(edit.index(), 0);
//! assert!(!front_end.is_no_op(source, &edit));
//! assert!(front_end.edit_line(1, "module n;").is_none(), "the header declines");
//! # Ok::<(), svparse::ParseError>(())
//! ```

use crate::ast::{Item, Module};
use crate::error::ParseError;
use crate::lexer::Lexer;
use crate::parser::Parser;
use crate::pretty::{emits_as, item_emits_as};
use crate::span::Span;
use crate::token::{Token, TokenKind};
use std::ops::Range;

/// One source, lexed and parsed once, that answers line edits as one-item
/// deltas (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct FrontEnd {
    /// The source's tokens, the final `Eof` included.
    tokens: Vec<Token>,
    /// Per line, 1-based line `n` at index `n - 1`, plus one entry past the
    /// last line.
    lines: Vec<Line>,
    /// The token range of each item of `module`, in item order.
    items: Vec<Range<usize>>,
    module: Module,
    canonical: bool,
}

/// Where a line starts, in the tokens and in the text.
#[derive(Debug, Clone, Copy)]
struct Line {
    /// The index of its first token (or of the next line's, when it has none).
    token: usize,
    /// The byte offset of its first byte.
    byte: usize,
    /// Whether the line starts outside a block comment or string and holds
    /// none of `/*`, `*/` and `"`: lexing it alone gives its tokens.
    clean: bool,
}

/// A line edit answered as a one-item delta: the item it replaces, by index,
/// and the item re-parsed from the edited tokens.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemEdit {
    index: usize,
    item: Item,
}

impl ItemEdit {
    /// The index in [`Module::items`] of the item the edit replaces.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The edited item.
    pub fn item(&self) -> &Item {
        &self.item
    }
}

impl FrontEnd {
    /// Lexes and parses `source`, which must hold exactly one module.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] when the source does not lex or does not
    /// parse as exactly one module (where [`crate::parse_module`] fails).
    pub fn new(source: &str) -> Result<Self, ParseError> {
        let tokens = Lexer::tokenize(source)?;
        let mut items = Vec::new();
        let mut parser = Parser::over(tokens.clone());
        let module = parser.parse_module_with(|range| items.push(range))?;
        if !parser.at_eof() {
            return Err(ParseError::new("expected exactly one module", 0));
        }
        let lines = index_lines(source, &tokens);
        let canonical = emits_as(&module, source);
        Ok(Self {
            tokens,
            lines,
            items,
            module,
            canonical,
        })
    }

    /// The parsed module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The 1-based line `line` replaced by `text`, as the one item it changes,
    /// or `None` when the edit declines (see the [module docs](self)).
    ///
    /// Leading and trailing whitespace of `text` is not significant.  When an
    /// edit is answered, the module with [`ItemEdit::item`] in place of item
    /// [`ItemEdit::index`] equals, spans included, what [`crate::parse_module`]
    /// makes of the source with that line's text replaced.
    pub fn edit_line(&self, line: u32, text: &str) -> Option<ItemEdit> {
        let text = text.trim();
        if text.contains(['\n', '\r']) || touches_spanning_lexeme(text) {
            return None;
        }
        let at = (line as usize).checked_sub(1)?;
        let (here, next) = (self.lines.get(at)?, self.lines.get(at + 1)?);
        if !here.clean {
            return None;
        }
        let (index, range) = self.item_holding(here.token..next.token)?;
        let mut fresh = Lexer::tokenize(text).ok()?;
        fresh.pop();
        fresh.iter_mut().for_each(|token| token.line = line);
        let kept = range.len() - (next.token - here.token);
        let mut tokens = Vec::with_capacity(kept + fresh.len() + 1);
        tokens.extend_from_slice(&self.tokens[range.start..here.token]);
        tokens.extend(fresh);
        tokens.extend_from_slice(&self.tokens[next.token..range.end]);
        tokens.push(Token::new(TokenKind::Eof, self.tokens[range.end].line));
        let mut parser = Parser::over(tokens);
        let item = parser.parse_item().ok()?;
        parser.at_eof().then_some(ItemEdit { index, item })
    }

    /// Whether `edit` leaves the source's text as it was:
    /// [`emits_as`]`(edited module, source)`, from the one item.
    ///
    /// `source` must be the text this front end was built from.  The edit is a
    /// no-op exactly when the source is canonical and the edited item's
    /// canonical form is the old item's lines.
    pub fn is_no_op(&self, source: &str, edit: &ItemEdit) -> bool {
        if !self.canonical {
            return false;
        }
        let range = &self.items[edit.index];
        let first = self.tokens[range.start].line as usize;
        let last = self.tokens[range.end - 1].line as usize;
        let bytes = self.lines[first - 1].byte..self.lines[last].byte.min(source.len());
        source
            .get(bytes)
            .is_some_and(|old| item_emits_as(&edit.item, old))
    }

    /// Lends the module with `edit`'s item (from this front end's
    /// [`FrontEnd::edit_line`]) in place to `consume`, which answers and hands
    /// the module back unchanged, or `None` when it used it up; then puts the
    /// old item back.  A module used up is parsed again
    /// from the kept tokens.
    ///
    /// No item is copied: the edited item moves in and the old one waits in
    /// `edit` meanwhile.
    pub fn lend<R>(
        &mut self,
        mut edit: ItemEdit,
        consume: impl FnOnce(Module) -> (R, Option<Module>),
    ) -> R {
        std::mem::swap(&mut self.module.items[edit.index], &mut edit.item);
        let lent = std::mem::replace(&mut self.module, empty_module());
        let (answer, back) = consume(lent);
        self.module = match back {
            Some(mut module) => {
                std::mem::swap(&mut module.items[edit.index], &mut edit.item);
                module
            }
            None => Parser::over(self.tokens.clone())
                .parse_module_with(|_| ())
                .expect("the kept tokens parsed before"),
        };
        answer
    }

    /// The item whose token range holds `tokens` (a line's), with that range.
    /// A line without tokens must lie strictly inside the item.
    fn item_holding(&self, tokens: Range<usize>) -> Option<(usize, Range<usize>)> {
        let index = self.items.partition_point(|r| r.start <= tokens.start);
        let index = index.checked_sub(1)?;
        let range = self.items[index].clone();
        let inside = if tokens.is_empty() {
            range.start < tokens.start && tokens.start < range.end
        } else {
            tokens.end <= range.end
        };
        inside.then_some((index, range))
    }
}

/// A module with no name, ports or items, which allocates nothing: what a
/// front end holds while its module is lent.
fn empty_module() -> Module {
    Module {
        name: String::new(),
        ports: Vec::new(),
        items: Vec::new(),
        span: Span::synthetic(),
    }
}

/// Whether `text` holds a delimiter of a lexeme that can span lines: `/*`,
/// `*/` or `"`.
fn touches_spanning_lexeme(text: &str) -> bool {
    text.contains('"') || text.contains("/*") || text.contains("*/")
}

/// The lexer's state at a line break.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lexeme {
    /// Between tokens.
    Between,
    /// Inside a block comment.
    Comment,
    /// Inside a string literal.
    Str,
}

/// Each line of `source` as the lexer splits it (at `\n`), with its first
/// token, its first byte and whether it is clean, plus one entry past the end.
fn index_lines(source: &str, tokens: &[Token]) -> Vec<Line> {
    let last = tokens.len() - 1; // the final `Eof` sits on the last content line
    let mut lines = Vec::with_capacity(source.len() / 24 + 2);
    let (mut token, mut byte, mut state) = (0, 0, Lexeme::Between);
    for (at, text) in source.split('\n').enumerate() {
        while token < last && (tokens[token].line as usize) <= at {
            token += 1;
        }
        let clean = state == Lexeme::Between && !touches_spanning_lexeme(text);
        lines.push(Line { token, byte, clean });
        state = lex_across(state, text.as_bytes());
        byte += text.len() + 1;
    }
    lines.push(Line {
        token: last,
        byte,
        clean: false,
    });
    lines
}

/// The lexer's state after `line`, from `state` at its start: the trivia and
/// string rules of [`Lexer`], which alone let a lexeme cross a line break.
fn lex_across(mut state: Lexeme, line: &[u8]) -> Lexeme {
    let mut at = 0;
    while at < line.len() {
        let pair = (line[at], line.get(at + 1).copied());
        at += match (state, pair) {
            (Lexeme::Between, (b'/', Some(b'/')) | (b'`', _)) => return state,
            (Lexeme::Between, (b'/', Some(b'*'))) => {
                state = Lexeme::Comment;
                2
            }
            (Lexeme::Between, (b'"', _)) => {
                state = Lexeme::Str;
                1
            }
            (Lexeme::Comment, (b'*', Some(b'/'))) => {
                state = Lexeme::Between;
                2
            }
            (Lexeme::Str, (b'\\', _)) => 2,
            (Lexeme::Str, (b'"', _)) => {
                state = Lexeme::Between;
                1
            }
            _ => 1,
        };
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_module;

    const SOURCE: &str = "module m(input clk, input a, output reg q, output y);
  assign y = a;
  always @(posedge clk) begin

    q <= a;
  end
  property p;
    @(posedge clk) a |-> ##1 q;
  endproperty
  assert property (p) else $error(\"q /* lags */\");
endmodule
";

    /// `source` with line `line` replaced by `text`, parsed whole.
    fn whole(source: &str, line: u32, text: &str) -> Option<Module> {
        let edited: Vec<&str> = (source.lines().enumerate())
            .map(|(at, old)| if at + 1 == line as usize { text } else { old })
            .collect();
        parse_module(&edited.join("\n")).ok()
    }

    fn delta(front_end: &FrontEnd, line: u32, text: &str) -> Option<Module> {
        let edit = front_end.edit_line(line, text)?;
        let mut module = front_end.module().clone();
        module.items[edit.index] = edit.item;
        Some(module)
    }

    #[test]
    fn an_answered_edit_equals_the_whole_parse() {
        let front_end = FrontEnd::new(SOURCE).unwrap();
        for (line, text) in [
            (2, "assign y = !a;"),
            (4, "q <= 1'b0;"),
            (5, "q <= !a;"),
            (5, "  "),
            (8, "@(posedge clk) a |=> q;"),
            (7, "property p2;"),
        ] {
            let answered = delta(&front_end, line, text).expect("the edit is answered");
            assert_eq!(Some(answered), whole(SOURCE, line, text), "{line}: {text}");
        }
    }

    #[test]
    fn edits_that_cross_an_item_or_a_lexeme_decline() {
        let front_end = FrontEnd::new(SOURCE).unwrap();
        for (line, text) in [
            (1, "module m(input clk);"),
            (11, "endmodule"),
            (12, "assign y = a;"),
            (3, "assign y = a;"),
            (6, "end end"),
            (5, "q <= a; end"),
            (5, "begin"),
            (10, "assert property (p);"),
            (5, "q <= a; /* x */"),
            (5, "q <= \"x\";"),
            (5, "q <= a;\nq <= a;"),
            (5, "q <=\ra;"),
            (5, "q <= 'x;"),
        ] {
            assert!(front_end.edit_line(line, text).is_none(), "{line}: {text}");
        }
    }

    #[test]
    fn a_line_inside_a_block_comment_is_never_clean() {
        let source = "module m(input a, output y);\n  /* a\n  */\n  assign y = a;\nendmodule\n";
        let clean: Vec<bool> = index_lines(source, &Lexer::tokenize(source).unwrap())
            .iter()
            .map(|line| line.clean)
            .collect();
        assert_eq!(clean, [true, false, false, true, true, true, false]);
        let string = "module m(input a);\n  x \"a\\\n b\" y\n z\nendmodule\n";
        let clean: Vec<bool> = index_lines(string, &Lexer::tokenize(string).unwrap())
            .iter()
            .map(|line| line.clean)
            .collect();
        assert_eq!(clean, [true, false, false, true, true, true, false]);
    }

    #[test]
    fn the_no_op_answer_is_emits_as() {
        let source = crate::emit_module(&parse_module(SOURCE).unwrap());
        let front_end = FrontEnd::new(&source).unwrap();
        assert!(front_end.canonical);
        let assign = source.lines().position(|l| l == "  assign y = a;").unwrap() as u32 + 1;
        let same = front_end.edit_line(assign, "assign y = (a);").unwrap();
        assert!(front_end.is_no_op(&source, &same));
        let changed = front_end.edit_line(assign, "assign y = ~a;").unwrap();
        assert!(!front_end.is_no_op(&source, &changed));
        let loose = FrontEnd::new(SOURCE).unwrap();
        assert!(!loose.canonical);
        assert!(!loose.is_no_op(SOURCE, &loose.edit_line(2, "assign y = a;").unwrap()));
    }

    #[test]
    fn a_lent_module_comes_back_with_the_old_item() {
        let mut front_end = FrontEnd::new(SOURCE).unwrap();
        let before = front_end.module().clone();
        let edit = front_end.edit_line(2, "assign y = !a;").unwrap();
        let expected = whole(SOURCE, 2, "assign y = !a;").unwrap();
        let seen = front_end.lend(edit.clone(), |module| {
            let seen = module == expected;
            (seen, Some(module))
        });
        assert!(seen, "the lent module carries the edit");
        assert_eq!(front_end.module(), &before);
        let used_up = front_end.lend(edit, |module| (module.items.len(), None));
        assert_eq!(used_up, before.items.len());
        assert_eq!(
            front_end.module(),
            &before,
            "a used-up module is parsed again"
        );
    }
}
