//! Token definitions produced by the [`crate::lexer`].

use std::fmt;

/// The lexical category of a [`Token`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier such as `count` or an escaped identifier.
    Ident(String),
    /// A system identifier such as `$error` or `$past` (leading `$` stripped).
    SysIdent(String),
    /// A reserved keyword such as `module` or `assign`.
    Keyword(Keyword),
    /// A numeric literal; see [`crate::ast::Literal`] for the parsed form.
    Number {
        /// Explicit bit width if the literal was sized (e.g. `4` in `4'b1010`).
        width: Option<u32>,
        /// The value, truncated to 64 bits.
        value: u64,
        /// The base character used (`'b'`, `'h'`, `'d'`, `'o'`), or `'d'` for plain decimals.
        base: char,
    },
    /// A double-quoted string literal (quotes stripped, escapes resolved).
    StringLit(String),
    /// An operator or punctuation symbol, e.g. `"+"`, `"<="`, `"|->"`.
    Symbol(&'static str),
    /// End of input.
    Eof,
}

/// Reserved words recognised by the lexer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Keyword {
    Module,
    Endmodule,
    Input,
    Output,
    Inout,
    Wire,
    Reg,
    Integer,
    Logic,
    Parameter,
    Localparam,
    Assign,
    Always,
    AlwaysFf,
    AlwaysComb,
    Initial,
    Begin,
    End,
    If,
    Else,
    Case,
    Casez,
    Endcase,
    Default,
    Posedge,
    Negedge,
    Or,
    Property,
    Endproperty,
    Assert,
    Disable,
    Iff,
    Not,
    Signed,
}

/// Every keyword's spelling, in declaration order.
const KEYWORDS: [(Keyword, &str); 34] = [
    (Keyword::Module, "module"),
    (Keyword::Endmodule, "endmodule"),
    (Keyword::Input, "input"),
    (Keyword::Output, "output"),
    (Keyword::Inout, "inout"),
    (Keyword::Wire, "wire"),
    (Keyword::Reg, "reg"),
    (Keyword::Integer, "integer"),
    (Keyword::Logic, "logic"),
    (Keyword::Parameter, "parameter"),
    (Keyword::Localparam, "localparam"),
    (Keyword::Assign, "assign"),
    (Keyword::Always, "always"),
    (Keyword::AlwaysFf, "always_ff"),
    (Keyword::AlwaysComb, "always_comb"),
    (Keyword::Initial, "initial"),
    (Keyword::Begin, "begin"),
    (Keyword::End, "end"),
    (Keyword::If, "if"),
    (Keyword::Else, "else"),
    (Keyword::Case, "case"),
    (Keyword::Casez, "casez"),
    (Keyword::Endcase, "endcase"),
    (Keyword::Default, "default"),
    (Keyword::Posedge, "posedge"),
    (Keyword::Negedge, "negedge"),
    (Keyword::Or, "or"),
    (Keyword::Property, "property"),
    (Keyword::Endproperty, "endproperty"),
    (Keyword::Assert, "assert"),
    (Keyword::Disable, "disable"),
    (Keyword::Iff, "iff"),
    (Keyword::Not, "not"),
    (Keyword::Signed, "signed"),
];

impl Keyword {
    /// Maps an identifier to a keyword, if it is one.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(word: &str) -> Option<Keyword> {
        let key = key(word.as_bytes());
        match SLOTS[slot(key)] {
            Some((held, keyword)) if held == key => Some(keyword),
            _ => None,
        }
    }

    /// The canonical source spelling of the keyword.
    pub fn as_str(&self) -> &'static str {
        KEYWORDS[*self as usize].1
    }
}

/// Each keyword with its [`key`], at the key's [`slot`]: the lexer finds a
/// word's keyword by one hash and one comparison.
const SLOTS: [Option<(u128, Keyword)>; 128] = {
    let (mut slots, mut at) = ([None; 128], 0);
    while at < KEYWORDS.len() {
        let (keyword, spelling) = KEYWORDS[at];
        let key = key(spelling.as_bytes());
        assert!(slots[slot(key)].is_none(), "two keywords share a slot");
        slots[slot(key)] = Some((key, keyword));
        at += 1;
    }
    slots
};

/// `word`'s last 16 bytes as the digits of a base-256 number.  A keyword is
/// at most 11 bytes, so a word without a NUL byte, as every lexed word is,
/// has a keyword's key only if it is that keyword.
const fn key(word: &[u8]) -> u128 {
    let (mut key, mut at) = (0u128, 0);
    while at < word.len() {
        key = key << 8 | word[at] as u128;
        at += 1;
    }
    key
}

/// A key's slot in [`SLOTS`]: the key folded to 64 bits and hashed to 7 by
/// a multiplier that gives each keyword a slot of its own (`SLOTS` does not
/// compile otherwise).
const fn slot(key: u128) -> usize {
    let folded = (key >> 64) as u64 ^ key as u64;
    (folded.wrapping_mul(0xf341_e07a_83f7_3f17) >> 57) as usize
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A token together with the 1-based line on which it starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The lexical category and payload.
    pub kind: TokenKind,
    /// The 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// Creates a token at the given line.
    pub fn new(kind: TokenKind, line: u32) -> Self {
        Self { kind, line }
    }

    /// Returns `true` if the token is the given symbol.
    pub(crate) fn is_symbol(&self, sym: &str) -> bool {
        matches!(&self.kind, TokenKind::Symbol(s) if *s == sym)
    }

    /// Returns `true` if the token is the given keyword.
    pub(crate) fn is_keyword(&self, kw: Keyword) -> bool {
        matches!(&self.kind, TokenKind::Keyword(k) if *k == kw)
    }

    /// Returns `true` if the token marks the end of input.
    pub fn is_eof(&self) -> bool {
        matches!(self.kind, TokenKind::Eof)
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::SysIdent(s) => write!(f, "system identifier `${s}`"),
            TokenKind::Keyword(k) => write!(f, "keyword `{k}`"),
            TokenKind::Number { value, .. } => write!(f, "number `{value}`"),
            TokenKind::StringLit(s) => write!(f, "string \"{s}\""),
            TokenKind::Symbol(s) => write!(f, "`{s}`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_keyword_table_is_in_declaration_order() {
        for (at, &(keyword, spelling)) in KEYWORDS.iter().enumerate() {
            assert_eq!(keyword as usize, at, "{keyword:?}");
            assert_eq!(Keyword::from_str(spelling), Some(keyword));
        }
    }

    #[test]
    fn keyword_round_trip() {
        for word in [
            "module",
            "endmodule",
            "always",
            "property",
            "posedge",
            "assign",
            "iff",
        ] {
            let kw = Keyword::from_str(word).unwrap();
            assert_eq!(kw.as_str(), word);
        }
    }

    #[test]
    fn non_keyword_is_none() {
        assert!(Keyword::from_str("count").is_none());
        assert!(Keyword::from_str("").is_none());
    }

    #[test]
    fn token_predicates() {
        let t = Token::new(TokenKind::Symbol("<="), 4);
        assert!(t.is_symbol("<="));
        assert!(!t.is_symbol("="));
        assert!(!t.is_eof());
        let k = Token::new(TokenKind::Keyword(Keyword::Module), 1);
        assert!(k.is_keyword(Keyword::Module));
    }

    #[test]
    fn display_forms() {
        assert_eq!(TokenKind::Symbol("|->").to_string(), "`|->`");
        assert_eq!(TokenKind::Ident("x".into()).to_string(), "identifier `x`");
    }
}
