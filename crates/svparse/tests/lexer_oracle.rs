//! The lexer against the one it replaced.
//!
//! `svparse::Lexer` reads words as byte slices, folds numeric literals as it
//! scans them and copies a plain string literal in one piece, so a token
//! allocates only for the name or text it carries.  The lexer it replaced,
//! which grew one `String` per word, digit run and string literal, is kept
//! verbatim below (but for its `use` lines and its type's docs) as its oracle.  Over the
//! `svgen` corpus and every family instance of a wide parameter sweep, their
//! corrupted variants, the human cases, the fuzz corpus, every prefix of a
//! sample of those sources and a hand-written set of lexical edge cases, the
//! two must return equal token streams, or errors with the same message and
//! line.

use std::path::Path;
use svgen::{corrupt_random, instantiate, CorpusConfig, CorpusGenerator, Family, FamilyParams};
use svparse::{Lexer, ParseError, Token};

/// The `String`-growing lexer, verbatim but for its `use` lines and its type's docs.
#[cfg(test)]
mod oracle {
    use svparse::token::{Keyword, Token, TokenKind};
    use svparse::ParseError;

    #[derive(Debug)]
    pub struct Lexer<'a> {
        src: &'a [u8],
        pos: usize,
        line: u32,
    }

    /// Multi-character symbols, longest first so that maximal munch works.
    const MULTI_SYMBOLS: &[&str] = &[
        "|=>", "|->", "<<<", ">>>", "===", "!==", "##", "&&", "||", "==", "!=", "<=", ">=", "<<",
        ">>", "+:", "-:",
    ];

    const SINGLE_SYMBOLS: &[char] = &[
        '(', ')', '[', ']', '{', '}', ';', ',', ':', '?', '@', '#', '=', '+', '-', '*', '/', '%',
        '&', '|', '^', '~', '!', '<', '>', '.',
    ];

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
            let mut tokens = Vec::new();
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
                return Ok(Token::new(TokenKind::SysIdent(word), line));
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
            if SINGLE_SYMBOLS.contains(&(c as char)) {
                self.bump();
                let sym = single_symbol_str(c as char);
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

        fn take_ident_chars(&mut self) -> String {
            let mut word = String::new();
            while let Some(c) = self.peek() {
                if c.is_ascii_alphanumeric() || c == b'_' {
                    word.push(c as char);
                    self.bump();
                } else {
                    break;
                }
            }
            word
        }

        fn lex_word(&mut self) -> TokenKind {
            let word = self.take_ident_chars();
            match Keyword::from_str(&word) {
                Some(kw) => TokenKind::Keyword(kw),
                None => TokenKind::Ident(word),
            }
        }

        fn lex_string(&mut self, line: u32) -> Result<Token, ParseError> {
            self.bump(); // opening quote
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

        fn lex_number(&mut self, line: u32) -> Result<Token, ParseError> {
            // Optional leading decimal size, e.g. `4` in 4'b1010.
            let mut width_digits = String::new();
            while let Some(c) = self.peek() {
                if c.is_ascii_digit() || c == b'_' {
                    if c != b'_' {
                        width_digits.push(c as char);
                    }
                    self.bump();
                } else {
                    break;
                }
            }

            if self.peek() == Some(b'\'') && self.is_base_char(self.peek_at(1)) {
                self.bump(); // '
                let base_char =
                    (self.bump().expect("base char checked") as char).to_ascii_lowercase();
                let radix = match base_char {
                    'b' => 2,
                    'o' => 8,
                    'd' => 10,
                    'h' => 16,
                    _ => unreachable!("base char validated"),
                };
                let mut digits = String::new();
                while let Some(c) = self.peek() {
                    let ch = (c as char).to_ascii_lowercase();
                    if ch == '_' {
                        self.bump();
                        continue;
                    }
                    if ch.is_digit(radix) || (radix == 2 && (ch == 'x' || ch == 'z')) {
                        // x/z digits are mapped to 0: the simulator is two-state.
                        digits.push(if ch == 'x' || ch == 'z' { '0' } else { ch });
                        self.bump();
                    } else {
                        break;
                    }
                }
                if digits.is_empty() {
                    return Err(ParseError::new("missing digits in sized literal", line));
                }
                let value = u64::from_str_radix(&digits, radix).map_err(|_| {
                    ParseError::new("numeric literal does not fit in 64 bits", line)
                })?;
                let width = if width_digits.is_empty() {
                    None
                } else {
                    Some(
                        width_digits
                            .parse::<u32>()
                            .map_err(|_| ParseError::new("invalid literal width", line))?,
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

            if width_digits.is_empty() {
                return Err(ParseError::new("malformed numeric literal", line));
            }
            let value = width_digits
                .parse::<u64>()
                .map_err(|_| ParseError::new("numeric literal does not fit in 64 bits", line))?;
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

    fn single_symbol_str(c: char) -> &'static str {
        match c {
            '(' => "(",
            ')' => ")",
            '[' => "[",
            ']' => "]",
            '{' => "{",
            '}' => "}",
            ';' => ";",
            ',' => ",",
            ':' => ":",
            '?' => "?",
            '@' => "@",
            '#' => "#",
            '=' => "=",
            '+' => "+",
            '-' => "-",
            '*' => "*",
            '/' => "/",
            '%' => "%",
            '&' => "&",
            '|' => "|",
            '^' => "^",
            '~' => "~",
            '!' => "!",
            '<' => "<",
            '>' => ">",
            '.' => ".",
            _ => unreachable!("symbol table covers all single symbols"),
        }
    }
}

fn same(label: &str, source: &str) -> bool {
    let expected: Result<Vec<Token>, ParseError> = oracle::Lexer::tokenize(source);
    let lexed = Lexer::tokenize(source);
    assert_eq!(lexed, expected, "{label}: {source:?}");
    expected.is_ok()
}

/// Every default-corpus golden, 512 family instances across widths, depths
/// and variants, and a corrupted variant of each.
fn generated_sources() -> Vec<String> {
    let mut sources: Vec<String> = CorpusGenerator::new(CorpusConfig::default())
        .golden_designs()
        .into_iter()
        .map(|design| design.source)
        .collect();
    let families = Family::all();
    for case in 0..512u32 {
        let params = FamilyParams {
            width: 1 + case % 16,
            depth: 1 + case % 14,
            variant: case % 4,
        };
        let family = families[case as usize % families.len()];
        sources.push(instantiate(family, params, case as usize).source);
    }
    let corrupted: Vec<String> = sources
        .iter()
        .enumerate()
        .map(|(seed, source)| corrupt_random(source, seed as u64).source)
        .collect();
    sources.extend(corrupted);
    sources
}

fn human_sources() -> Vec<String> {
    assertsolver::human_crafted_cases()
        .into_iter()
        .flat_map(|case| [case.buggy_source, case.golden_source])
        .collect()
}

fn fuzz_sources() -> Vec<String> {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../fuzz/corpus"));
    let cases = svfuzz::load_corpus(root).expect("the fuzz corpus loads");
    cases
        .into_iter()
        .flat_map(|(_, case)| [case.source, case.base_source])
        .collect()
}

/// Literals, strings, comments and characters at every edge the two lexers
/// decide differently inside: digit runs that overflow 32 or 64 bits, `x`/`z`
/// and `_` digits, bases in either case, escapes, non-ASCII bytes and newlines
/// in strings, and input that ends inside a literal, string or comment.
const EDGES: &[&str] = &[
    "4'b1010 8'hFF 'd42 16'd123 12'o777 4'B1x0z 8'HfF 3'D7 'O17 'bxz_01",
    "1_000 16'b1010_1010 000000000000000000000000000042 8'h__ff__",
    "18446744073709551615 18446744073709551616 64'hffff_ffff_ffff_ffff 64'h1_0000_0000_0000_0000",
    "4294967295'd1 4294967296'd1 99999999999999999999'b1 0000000000004'b1",
    "64'b00000000000000000000000000000000000000000000000000000000000000000000000001",
    "4'b 4'h 8'd_ 4'bz 'h 5'",
    "4'b102 8'hfg 3'o78 4'd1a 7'",
    "8'hxz 8'h1x 4'dx 4'd1z 3'ox 12x 3z 4'b_x_ 'hZ",
    "12ab 3'b1'b0 $ $past( $1 a$b _x x_ __ a1b2",
    r#""plain text" "esc \n \t \" \\ \q" "" "tab	in" "line\nbreak""#,
    "\"multi\nline\nstring\" after",
    "\"caf\u{e9} na\u{ef}ve\" \u{e9}",
    "\"unterminated",
    "\"ends in escape\\",
    "/* block\ncomment */ a /* unterminated\n",
    "// only a comment",
    "`define X 1\n`timescale 1ns/1ps\nmodule",
    "a |-> b |=> c ## d <= e == f === g !== h <<< i >>> j +: k -: l",
    "\n\n\n",
    "",
    "a\r\nb\r\n",
    "#1 @ ? . ~ ^ % \\escaped",
];

fn edge_sources() -> Vec<String> {
    EDGES.iter().map(|edge| edge.to_string()).collect()
}

#[test]
fn the_lexer_matches_the_oracle_over_generated_sources_and_corruptions() {
    let sources = generated_sources();
    let lexed = sources.iter().filter(|s| same("generated", s)).count();
    assert!(lexed > 512, "{lexed} of {} lexed", sources.len());
}

#[test]
fn the_lexer_matches_the_oracle_over_the_human_cases_and_the_fuzz_corpus() {
    let human = human_sources();
    assert!(human.len() >= 10, "{} human sources", human.len());
    human.iter().for_each(|source| {
        same("human", source);
    });
    let fuzz = fuzz_sources();
    assert!(!fuzz.is_empty());
    fuzz.iter().for_each(|source| {
        same("fuzz", source);
    });
}

#[test]
fn the_lexer_matches_the_oracle_on_every_prefix_and_every_edge() {
    let mut samples = human_sources();
    samples.extend(fuzz_sources());
    samples.extend(generated_sources().into_iter().step_by(37));
    samples.extend(edge_sources());
    let mut errors = 0;
    for source in &samples {
        for cut in (0..=source.len()).filter(|at| source.is_char_boundary(*at)) {
            errors += usize::from(!same("prefix", &source[..cut]));
        }
    }
    // Prefixes that end inside a string, a comment or a sized literal are
    // errors, so both lexers' error paths are compared too.
    assert!(errors > 100, "only {errors} prefixes failed to lex");
}
