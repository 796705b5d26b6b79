//! Tokenizer for the embedded-SQL subset.

use std::fmt;

/// Token kinds of the SQL subset. Identifiers and host-variable names
/// borrow their text from the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind<'a> {
    /// `SELECT` (case-insensitive keyword).
    Select,
    /// `FROM`.
    From,
    /// `WHERE`.
    Where,
    /// `AND`.
    And,
    /// `ORDER` (only meaningful followed by `BY`).
    Order,
    /// `BY`.
    By,
    /// An identifier (relation or attribute name).
    Ident(&'a str),
    /// An integer literal.
    Int(i64),
    /// A named host variable, `:name` (the name without the colon).
    HostVar(&'a str),
    /// `*`
    Star,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `=`
    Eq,
    /// `>=`
    Ge,
    /// `>`
    Gt,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Select => f.write_str("SELECT"),
            TokenKind::From => f.write_str("FROM"),
            TokenKind::Where => f.write_str("WHERE"),
            TokenKind::And => f.write_str("AND"),
            TokenKind::Order => f.write_str("ORDER"),
            TokenKind::By => f.write_str("BY"),
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Int(v) => write!(f, "integer {v}"),
            TokenKind::HostVar(s) => write!(f, "host variable :{s}"),
            TokenKind::Star => f.write_str("*"),
            TokenKind::Comma => f.write_str(","),
            TokenKind::Dot => f.write_str("."),
            TokenKind::Lt => f.write_str("<"),
            TokenKind::Le => f.write_str("<="),
            TokenKind::Eq => f.write_str("="),
            TokenKind::Ge => f.write_str(">="),
            TokenKind::Gt => f.write_str(">"),
        }
    }
}

/// A token with its source offset (for error messages).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// The token kind and payload.
    pub kind: TokenKind<'a>,
    /// Byte offset in the input.
    pub offset: usize,
}

/// Lexer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LexError {
    /// An unrecognized character.
    UnexpectedChar {
        /// The character.
        ch: char,
        /// Byte offset.
        offset: usize,
    },
    /// A `:` with no identifier after it.
    EmptyHostVar {
        /// Byte offset.
        offset: usize,
    },
    /// Integer literal out of `i64` range.
    IntOutOfRange {
        /// Byte offset.
        offset: usize,
    },
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LexError::UnexpectedChar { ch, offset } => {
                write!(f, "unexpected character {ch:?} at byte {offset}")
            }
            LexError::EmptyHostVar { offset } => {
                write!(f, "':' must be followed by a variable name (byte {offset})")
            }
            LexError::IntOutOfRange { offset } => {
                write!(f, "integer literal out of range at byte {offset}")
            }
        }
    }
}

impl std::error::Error for LexError {}

/// The tokens of an input, one at a time: a token borrows its text from
/// the input, so lexing allocates nothing. After an error the lexer is
/// exhausted.
#[derive(Debug, Clone)]
pub struct Lexer<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `input`.
    #[must_use]
    pub fn new(input: &'a str) -> Lexer<'a> {
        Lexer { input, pos: 0 }
    }

    /// The next token, `None` at the end of the input.
    pub fn next_token(&mut self) -> Result<Option<Token<'a>>, LexError> {
        let token = self.scan();
        if token.is_err() {
            self.pos = self.input.len();
        }
        token
    }

    /// The first error in the rest of the input, if any; consumes it.
    pub fn first_error(&mut self) -> Option<LexError> {
        loop {
            match self.next_token() {
                Ok(Some(_)) => {}
                Ok(None) => return None,
                Err(e) => return Some(e),
            }
        }
    }

    fn scan(&mut self) -> Result<Option<Token<'a>>, LexError> {
        let bytes = self.input.as_bytes();
        while bytes.get(self.pos).copied().is_some_and(is_blank) {
            self.pos += 1;
        }
        let start = self.pos;
        let Some(&c) = bytes.get(start) else {
            return Ok(None);
        };
        let (kind, end) = match c {
            b'*' => (TokenKind::Star, start + 1),
            b',' => (TokenKind::Comma, start + 1),
            b'.' => (TokenKind::Dot, start + 1),
            b'=' => (TokenKind::Eq, start + 1),
            b'<' if bytes.get(start + 1) == Some(&b'=') => (TokenKind::Le, start + 2),
            b'<' => (TokenKind::Lt, start + 1),
            b'>' if bytes.get(start + 1) == Some(&b'=') => (TokenKind::Ge, start + 2),
            b'>' => (TokenKind::Gt, start + 1),
            b':' => {
                let end = ident_end(bytes, start + 1);
                if end == start + 1 {
                    return Err(LexError::EmptyHostVar { offset: start });
                }
                (TokenKind::HostVar(&self.input[start + 1..end]), end)
            }
            b'0'..=b'9' | b'-' => {
                let digits = bytes[start + 1..].iter().take_while(|b| b.is_ascii_digit()).count();
                if c == b'-' && digits == 0 {
                    return Err(LexError::UnexpectedChar { ch: '-', offset: start });
                }
                let end = start + 1 + digits;
                let value = self.input[start..end]
                    .parse()
                    .map_err(|_| LexError::IntOutOfRange { offset: start })?;
                (TokenKind::Int(value), end)
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let end = ident_end(bytes, start);
                (keyword_or_ident(&self.input[start..end]), end)
            }
            _ => {
                let ch = self.input[start..].chars().next().expect("a char starts here");
                return Err(LexError::UnexpectedChar { ch, offset: start });
            }
        };
        self.pos = end;
        Ok(Some(Token { kind, offset: start }))
    }
}

/// A keyword (any letter case) or an identifier as written.
fn keyword_or_ident(word: &str) -> TokenKind<'_> {
    const KEYWORDS: [(&str, TokenKind<'static>); 6] = [
        ("SELECT", TokenKind::Select),
        ("FROM", TokenKind::From),
        ("WHERE", TokenKind::Where),
        ("AND", TokenKind::And),
        ("ORDER", TokenKind::Order),
        ("BY", TokenKind::By),
    ];
    KEYWORDS
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(word))
        .map_or(TokenKind::Ident(word), |&(_, kind)| kind)
}

/// Whether `b` is white space: the ASCII characters `char::is_whitespace`
/// accepts (vertical tab included, unlike `u8::is_ascii_whitespace`).
fn is_blank(b: u8) -> bool {
    matches!(b, b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r' | b' ')
}

fn ident_end(bytes: &[u8], start: usize) -> usize {
    start + bytes[start..].iter().take_while(|b| b.is_ascii_alphanumeric() || **b == b'_').count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(input: &str) -> Result<Vec<Token<'_>>, LexError> {
        let mut lexer = Lexer::new(input);
        std::iter::from_fn(|| lexer.next_token().transpose()).collect()
    }

    fn kinds(input: &str) -> Vec<TokenKind<'_>> {
        lex(input).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_a_full_query() {
        let ks = kinds("SELECT * FROM r, s WHERE r.j = s.j AND r.a < :x");
        assert_eq!(
            ks,
            vec![
                TokenKind::Select,
                TokenKind::Star,
                TokenKind::From,
                TokenKind::Ident("r"),
                TokenKind::Comma,
                TokenKind::Ident("s"),
                TokenKind::Where,
                TokenKind::Ident("r"),
                TokenKind::Dot,
                TokenKind::Ident("j"),
                TokenKind::Eq,
                TokenKind::Ident("s"),
                TokenKind::Dot,
                TokenKind::Ident("j"),
                TokenKind::And,
                TokenKind::Ident("r"),
                TokenKind::Dot,
                TokenKind::Ident("a"),
                TokenKind::Lt,
                TokenKind::HostVar("x"),
            ]
        );
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(kinds("select FROM Where aNd")[..], [
            TokenKind::Select,
            TokenKind::From,
            TokenKind::Where,
            TokenKind::And
        ]);
        // But identifiers keep their case.
        assert_eq!(kinds("Orders"), vec![TokenKind::Ident("Orders")]);
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(kinds("< <= = >= >"), vec![
            TokenKind::Lt,
            TokenKind::Le,
            TokenKind::Eq,
            TokenKind::Ge,
            TokenKind::Gt
        ]);
    }

    #[test]
    fn integers_and_negatives() {
        assert_eq!(kinds("42 -17 0"), vec![
            TokenKind::Int(42),
            TokenKind::Int(-17),
            TokenKind::Int(0)
        ]);
    }

    #[test]
    fn errors() {
        assert!(matches!(lex("r.a < :"), Err(LexError::EmptyHostVar { .. })));
        assert!(matches!(lex("r ? s"), Err(LexError::UnexpectedChar { ch: '?', .. })));
        assert!(matches!(
            lex("99999999999999999999"),
            Err(LexError::IntOutOfRange { .. })
        ));
        assert!(matches!(lex("a - b"), Err(LexError::UnexpectedChar { ch: '-', .. })));
        // A character outside ASCII is reported whole, at its first byte.
        assert_eq!(
            lex("r \u{e9}").unwrap_err(),
            LexError::UnexpectedChar { ch: '\u{e9}', offset: 2 }
        );
    }

    #[test]
    fn an_error_ends_the_tokens() {
        let mut lexer = Lexer::new("r ? s ?");
        assert_eq!(lexer.next_token().unwrap().unwrap().kind, TokenKind::Ident("r"));
        assert_eq!(lexer.first_error(), Some(LexError::UnexpectedChar { ch: '?', offset: 2 }));
        assert_eq!(lexer.next_token(), Ok(None));
        assert_eq!(Lexer::new("r s").first_error(), None);
    }

    #[test]
    fn tokens_borrow_the_input() {
        let input = String::from("Orders :limit");
        let toks = lex(&input).unwrap();
        let TokenKind::Ident(name) = toks[0].kind else { panic!("{toks:?}") };
        assert!(std::ptr::eq(name.as_ptr(), input.as_ptr()));
        assert_eq!(toks[1].kind, TokenKind::HostVar("limit"));
        assert_eq!(toks[1].offset, 7);
    }

    #[test]
    fn offsets_point_into_input() {
        let toks = lex("SELECT *").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 7);
    }
}
