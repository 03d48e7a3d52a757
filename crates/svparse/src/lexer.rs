//! Hand-written lexer for the Verilog/SVA subset.

use crate::error::ParseError;
use crate::token::{Keyword, Token, TokenKind};

/// Converts source text into a vector of [`Token`]s.
///
/// Comments (`//` and `/* */`) and whitespace are skipped; line numbers are tracked so
/// every token knows the 1-based line it starts on.
///
/// # Examples
///
/// ```
/// use svparse::Lexer;
/// let tokens = Lexer::tokenize("assign y = a & b;")?;
/// assert!(tokens.iter().any(|t| t.kind == svparse::TokenKind::Symbol("&")));
/// # Ok::<(), svparse::ParseError>(())
/// ```
#[derive(Debug)]
pub struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

/// Multi-character symbols, longest first so that maximal munch works.
const MULTI_SYMBOLS: &[&str] = &[
    "|=>", "|->", "<<<", ">>>", "===", "!==", "##", "&&", "||", "==", "!=", "<=", ">=", "<<", ">>",
    "+:", "-:",
];

/// Single-character symbols, indexed by their byte.
const SINGLE_SYMBOLS: [Option<&str>; 128] = {
    let symbols = [
        "(", ")", "[", "]", "{", "}", ";", ",", ":", "?", "@", "#", "=", "+", "-", "*", "/", "%",
        "&", "|", "^", "~", "!", "<", ">", ".",
    ];
    let (mut table, mut at) = ([None; 128], 0);
    while at < symbols.len() {
        table[symbols[at].as_bytes()[0] as usize] = Some(symbols[at]);
        at += 1;
    }
    table
};

impl<'a> Lexer<'a> {
    /// Creates a lexer over the given source text.
    pub fn new(source: &'a str) -> Self {
        Self {
            src: source.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    /// Tokenizes the whole input, appending a final [`TokenKind::Eof`] token.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on unterminated strings/comments, malformed numeric
    /// literals or characters outside the supported alphabet.
    pub fn tokenize(source: &'a str) -> Result<Vec<Token>, ParseError> {
        let mut lexer = Lexer::new(source);
        // Canonical sources average 4.8 bytes a token (3.95 at least over the
        // default corpus), so this rarely has to grow.
        let mut tokens = Vec::with_capacity(source.len() / 4 + 1);
        loop {
            let token = lexer.next_token()?;
            let eof = token.is_eof();
            tokens.push(token);
            if eof {
                break;
            }
        }
        // The EOF token reports the last content line: trailing newlines would
        // otherwise push it past the end of the source, so "found end of input"
        // diagnostics would point at a line that does not exist.
        if tokens.len() >= 2 {
            let last_content_line = tokens[tokens.len() - 2].line;
            tokens.last_mut().expect("eof token").line = last_content_line;
        }
        Ok(tokens)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, offset: usize) -> Option<u8> {
        self.src.get(self.pos + offset).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn skip_trivia(&mut self) -> Result<(), ParseError> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek_at(1) == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek_at(1) == Some(b'*') => {
                    let start_line = self.line;
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            Some(b'*') if self.peek_at(1) == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            Some(_) => {
                                self.bump();
                            }
                            None => {
                                return Err(ParseError::new(
                                    "unterminated block comment",
                                    start_line,
                                ))
                            }
                        }
                    }
                }
                Some(b'`') => {
                    // Compiler directives (`timescale, `define ...) are skipped to end of line.
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<Token, ParseError> {
        self.skip_trivia()?;
        let line = self.line;
        let Some(c) = self.peek() else {
            return Ok(Token::new(TokenKind::Eof, line));
        };

        if c.is_ascii_alphabetic() || c == b'_' {
            return Ok(Token::new(self.lex_word(), line));
        }
        if c == b'$' {
            self.bump();
            let word = self.take_ident_chars();
            return Ok(Token::new(TokenKind::SysIdent(word.to_string()), line));
        }
        if c.is_ascii_digit() || (c == b'\'' && self.is_base_char(self.peek_at(1))) {
            return self.lex_number(line);
        }
        if c == b'"' {
            return self.lex_string(line);
        }

        // Multi-character symbols first (maximal munch).
        for sym in MULTI_SYMBOLS {
            if self.src[self.pos..].starts_with(sym.as_bytes()) {
                for _ in 0..sym.len() {
                    self.bump();
                }
                return Ok(Token::new(TokenKind::Symbol(sym), line));
            }
        }
        if let Some(&Some(sym)) = SINGLE_SYMBOLS.get(usize::from(c)) {
            self.bump();
            return Ok(Token::new(TokenKind::Symbol(sym), line));
        }

        Err(ParseError::new(
            format!("unexpected character `{}`", c as char),
            line,
        ))
    }

    fn is_base_char(&self, c: Option<u8>) -> bool {
        matches!(
            c,
            Some(b'b' | b'B' | b'h' | b'H' | b'd' | b'D' | b'o' | b'O')
        )
    }

    /// The identifier characters from the current position on, consumed.
    fn take_ident_chars(&mut self) -> &'a str {
        let src = self.src;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&src[start..self.pos]).expect("identifier characters are ASCII")
    }

    fn lex_word(&mut self) -> TokenKind {
        let word = self.take_ident_chars();
        match Keyword::from_str(word) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident(word.to_string()),
        }
    }

    fn lex_string(&mut self, line: u32) -> Result<Token, ParseError> {
        // A body of plain ASCII up to the closing quote is copied in one piece;
        // anything else is decoded byte by byte (each byte one `char`).
        self.bump(); // opening quote
        let rest = &self.src[self.pos..];
        if let Some(len) = rest
            .iter()
            .position(|c| matches!(c, b'"' | b'\\' | b'\n') || !c.is_ascii())
        {
            if rest[len] == b'"' {
                let text = std::str::from_utf8(&rest[..len]).expect("checked ASCII");
                self.pos += len + 1;
                return Ok(Token::new(TokenKind::StringLit(text.to_string()), line));
            }
        }
        let mut text = String::new();
        loop {
            match self.bump() {
                Some(b'"') => break,
                Some(b'\\') => {
                    let escaped = self
                        .bump()
                        .ok_or_else(|| ParseError::new("unterminated string literal", line))?;
                    match escaped {
                        b'n' => text.push('\n'),
                        b't' => text.push('\t'),
                        other => text.push(other as char),
                    }
                }
                Some(c) => text.push(c as char),
                None => return Err(ParseError::new("unterminated string literal", line)),
            }
        }
        Ok(Token::new(TokenKind::StringLit(text), line))
    }

    /// Consumes digits of `radix` and `_` separators, folding the digits into a
    /// number: `None` when it does not fit in 64 bits, and the count of digits read.
    /// In binary, `x` and `z` digits read as 0: the simulator is two-state.
    fn take_digits(&mut self, radix: u32) -> (Option<u64>, usize) {
        let (mut value, mut digits) = (Some(0u64), 0);
        while let Some(c) = self.peek() {
            let ch = (c as char).to_ascii_lowercase();
            let digit = match ch {
                '_' => None,
                'x' | 'z' if radix == 2 => Some(0),
                _ => match ch.to_digit(radix) {
                    Some(digit) => Some(digit),
                    None => break,
                },
            };
            self.pos += 1;
            if let Some(digit) = digit {
                digits += 1;
                value = value
                    .and_then(|v| v.checked_mul(u64::from(radix)))
                    .and_then(|v| v.checked_add(u64::from(digit)));
            }
        }
        (value, digits)
    }

    fn lex_number(&mut self, line: u32) -> Result<Token, ParseError> {
        // Optional leading decimal size, e.g. `4` in 4'b1010.
        let (size, size_digits) = self.take_digits(10);

        if self.peek() == Some(b'\'') && self.is_base_char(self.peek_at(1)) {
            self.bump(); // '
            let base_char = (self.bump().expect("base char checked") as char).to_ascii_lowercase();
            let radix = match base_char {
                'b' => 2,
                'o' => 8,
                'd' => 10,
                'h' => 16,
                _ => unreachable!("base char validated"),
            };
            let (value, digits) = self.take_digits(radix);
            if digits == 0 {
                return Err(ParseError::new("missing digits in sized literal", line));
            }
            let value = value
                .ok_or_else(|| ParseError::new("numeric literal does not fit in 64 bits", line))?;
            let width = if size_digits == 0 {
                None
            } else {
                Some(
                    size.and_then(|size| u32::try_from(size).ok())
                        .ok_or_else(|| ParseError::new("invalid literal width", line))?,
                )
            };
            return Ok(Token::new(
                TokenKind::Number {
                    width,
                    value,
                    base: base_char,
                },
                line,
            ));
        }

        if size_digits == 0 {
            return Err(ParseError::new("malformed numeric literal", line));
        }
        let value =
            size.ok_or_else(|| ParseError::new("numeric literal does not fit in 64 bits", line))?;
        Ok(Token::new(
            TokenKind::Number {
                width: None,
                value,
                base: 'd',
            },
            line,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::tokenize(src)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lex_keywords_and_idents() {
        let ks = kinds("module foo endmodule");
        assert_eq!(ks[0], TokenKind::Keyword(Keyword::Module));
        assert_eq!(ks[1], TokenKind::Ident("foo".into()));
        assert_eq!(ks[2], TokenKind::Keyword(Keyword::Endmodule));
        assert_eq!(ks[3], TokenKind::Eof);
    }

    #[test]
    fn lex_sized_literals() {
        let ks = kinds("4'b1010 8'hFF 'd42 16'd123");
        assert_eq!(
            ks[0],
            TokenKind::Number {
                width: Some(4),
                value: 0b1010,
                base: 'b'
            }
        );
        assert_eq!(
            ks[1],
            TokenKind::Number {
                width: Some(8),
                value: 0xFF,
                base: 'h'
            }
        );
        assert_eq!(
            ks[2],
            TokenKind::Number {
                width: None,
                value: 42,
                base: 'd'
            }
        );
        assert_eq!(
            ks[3],
            TokenKind::Number {
                width: Some(16),
                value: 123,
                base: 'd'
            }
        );
    }

    #[test]
    fn lex_plain_decimal() {
        let ks = kinds("42");
        assert_eq!(
            ks[0],
            TokenKind::Number {
                width: None,
                value: 42,
                base: 'd'
            }
        );
    }

    #[test]
    fn lex_multi_symbols() {
        let ks = kinds("a |-> b |=> c ## d <= e == f");
        let syms: Vec<_> = ks
            .iter()
            .filter_map(|k| match k {
                TokenKind::Symbol(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(syms, vec!["|->", "|=>", "##", "<=", "=="]);
    }

    #[test]
    fn comments_and_directives_are_skipped() {
        let ks = kinds("// line comment\n`timescale 1ns/1ps\n/* block\ncomment */ module");
        assert_eq!(ks[0], TokenKind::Keyword(Keyword::Module));
    }

    #[test]
    fn line_numbers_tracked() {
        let toks = Lexer::tokenize("a\nb\n\nc").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4);
    }

    #[test]
    fn string_literals_with_escapes() {
        let ks = kinds(r#""valid_out should be high\n""#);
        assert_eq!(
            ks[0],
            TokenKind::StringLit("valid_out should be high\n".into())
        );
    }

    #[test]
    fn system_identifiers() {
        let ks = kinds("$error $past $display");
        assert_eq!(ks[0], TokenKind::SysIdent("error".into()));
        assert_eq!(ks[1], TokenKind::SysIdent("past".into()));
    }

    #[test]
    fn unterminated_comment_is_error() {
        assert!(Lexer::tokenize("/* nope").is_err());
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(Lexer::tokenize("\"nope").is_err());
    }

    #[test]
    fn unexpected_character_is_error() {
        let err = Lexer::tokenize("\\escaped").unwrap_err();
        assert!(err.to_string().contains("unexpected character"));
    }

    #[test]
    fn underscores_in_numbers() {
        let ks = kinds("16'b1010_1010");
        assert_eq!(
            ks[0],
            TokenKind::Number {
                width: Some(16),
                value: 0b1010_1010,
                base: 'b'
            }
        );
    }

    #[test]
    fn x_and_z_digits_read_as_zero() {
        let ks = kinds("4'bxx10");
        assert_eq!(
            ks[0],
            TokenKind::Number {
                width: Some(4),
                value: 0b0010,
                base: 'b'
            }
        );
    }
}
