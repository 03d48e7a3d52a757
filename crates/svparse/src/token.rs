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

impl Keyword {
    /// Maps an identifier to a keyword, if it is one.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(word: &str) -> Option<Keyword> {
        Some(match word {
            "module" => Keyword::Module,
            "endmodule" => Keyword::Endmodule,
            "input" => Keyword::Input,
            "output" => Keyword::Output,
            "inout" => Keyword::Inout,
            "wire" => Keyword::Wire,
            "reg" => Keyword::Reg,
            "integer" => Keyword::Integer,
            "logic" => Keyword::Logic,
            "parameter" => Keyword::Parameter,
            "localparam" => Keyword::Localparam,
            "assign" => Keyword::Assign,
            "always" => Keyword::Always,
            "always_ff" => Keyword::AlwaysFf,
            "always_comb" => Keyword::AlwaysComb,
            "initial" => Keyword::Initial,
            "begin" => Keyword::Begin,
            "end" => Keyword::End,
            "if" => Keyword::If,
            "else" => Keyword::Else,
            "case" => Keyword::Case,
            "casez" => Keyword::Casez,
            "endcase" => Keyword::Endcase,
            "default" => Keyword::Default,
            "posedge" => Keyword::Posedge,
            "negedge" => Keyword::Negedge,
            "or" => Keyword::Or,
            "property" => Keyword::Property,
            "endproperty" => Keyword::Endproperty,
            "assert" => Keyword::Assert,
            "disable" => Keyword::Disable,
            "iff" => Keyword::Iff,
            "not" => Keyword::Not,
            "signed" => Keyword::Signed,
            _ => return None,
        })
    }

    /// The canonical source spelling of the keyword.
    pub fn as_str(&self) -> &'static str {
        match self {
            Keyword::Module => "module",
            Keyword::Endmodule => "endmodule",
            Keyword::Input => "input",
            Keyword::Output => "output",
            Keyword::Inout => "inout",
            Keyword::Wire => "wire",
            Keyword::Reg => "reg",
            Keyword::Integer => "integer",
            Keyword::Logic => "logic",
            Keyword::Parameter => "parameter",
            Keyword::Localparam => "localparam",
            Keyword::Assign => "assign",
            Keyword::Always => "always",
            Keyword::AlwaysFf => "always_ff",
            Keyword::AlwaysComb => "always_comb",
            Keyword::Initial => "initial",
            Keyword::Begin => "begin",
            Keyword::End => "end",
            Keyword::If => "if",
            Keyword::Else => "else",
            Keyword::Case => "case",
            Keyword::Casez => "casez",
            Keyword::Endcase => "endcase",
            Keyword::Default => "default",
            Keyword::Posedge => "posedge",
            Keyword::Negedge => "negedge",
            Keyword::Or => "or",
            Keyword::Property => "property",
            Keyword::Endproperty => "endproperty",
            Keyword::Assert => "assert",
            Keyword::Disable => "disable",
            Keyword::Iff => "iff",
            Keyword::Not => "not",
            Keyword::Signed => "signed",
        }
    }
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
