//! The Phage-C lexer.

use crate::span::Span;
use crate::token::{Token, TokenKind};
use crate::{LangError, Result};

/// Converts source text into a token stream ending with [`TokenKind::Eof`].
///
/// # Errors
///
/// Returns a [`LangError`] on unrecognised characters or malformed integer
/// literals.
pub fn lex(source: &str) -> Result<Vec<Token>> {
    Lexer::new(source).run()
}

struct Lexer<'a> {
    source: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    column: u32,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        Lexer {
            source,
            bytes: source.as_bytes(),
            pos: 0,
            line: 1,
            column: 1,
        }
    }

    fn run(mut self) -> Result<Vec<Token>> {
        let mut tokens = Vec::new();
        loop {
            self.skip_trivia();
            let start = self.pos;
            let (line, column) = (self.line, self.column);
            if self.pos >= self.bytes.len() {
                tokens.push(Token {
                    kind: TokenKind::Eof,
                    span: Span::new(start, start, line, column),
                });
                return Ok(tokens);
            }
            let kind = self.next_kind()?;
            tokens.push(Token {
                kind,
                span: Span::new(start, self.pos, line, column),
            });
        }
    }

    fn skip_trivia(&mut self) {
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
                    self.bump();
                    self.bump();
                    while self.pos < self.bytes.len() {
                        if self.peek() == Some(b'*') && self.peek_at(1) == Some(b'/') {
                            self.bump();
                            self.bump();
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    fn next_kind(&mut self) -> Result<TokenKind> {
        let c = self.peek().expect("caller checked non-empty");
        if c.is_ascii_alphabetic() || c == b'_' {
            return Ok(self.lex_ident());
        }
        if c.is_ascii_digit() {
            return self.lex_number();
        }
        let span = Span::new(self.pos, self.pos + 1, self.line, self.column);
        self.bump();
        let kind = match c {
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b'[' => TokenKind::LBracket,
            b']' => TokenKind::RBracket,
            b',' => TokenKind::Comma,
            b';' => TokenKind::Semicolon,
            b':' => TokenKind::Colon,
            b'.' => TokenKind::Dot,
            b'+' => TokenKind::Plus,
            b'-' => {
                if self.eat(b'>') {
                    TokenKind::Arrow
                } else {
                    TokenKind::Minus
                }
            }
            b'*' => TokenKind::Star,
            b'/' => TokenKind::Slash,
            b'%' => TokenKind::Percent,
            b'^' => TokenKind::Caret,
            b'~' => TokenKind::Tilde,
            b'&' => {
                if self.eat(b'&') {
                    TokenKind::AndAnd
                } else {
                    TokenKind::Amp
                }
            }
            b'|' => {
                if self.eat(b'|') {
                    TokenKind::OrOr
                } else {
                    TokenKind::Pipe
                }
            }
            b'!' => {
                if self.eat(b'=') {
                    TokenKind::NotEq
                } else {
                    TokenKind::Bang
                }
            }
            b'=' => {
                if self.eat(b'=') {
                    TokenKind::EqEq
                } else {
                    TokenKind::Assign
                }
            }
            b'<' => {
                if self.eat(b'=') {
                    TokenKind::Le
                } else if self.eat(b'<') {
                    TokenKind::Shl
                } else {
                    TokenKind::Lt
                }
            }
            b'>' => {
                if self.eat(b'=') {
                    TokenKind::Ge
                } else if self.eat(b'>') {
                    TokenKind::Shr
                } else {
                    TokenKind::Gt
                }
            }
            other => {
                return Err(LangError::new(
                    format!("unexpected character `{}`", other as char),
                    span,
                ))
            }
        };
        Ok(kind)
    }

    fn lex_ident(&mut self) -> TokenKind {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        let text = &self.source[start..self.pos];
        match text {
            "struct" => TokenKind::Struct,
            "fn" => TokenKind::Fn,
            "var" => TokenKind::Var,
            "global" => TokenKind::Global,
            "if" => TokenKind::If,
            "else" => TokenKind::Else,
            "while" => TokenKind::While,
            "return" => TokenKind::Return,
            "exit" => TokenKind::Exit,
            "as" => TokenKind::As,
            "sizeof" => TokenKind::Sizeof,
            "ptr" => TokenKind::Ptr,
            _ => TokenKind::Ident(text.to_string()),
        }
    }

    fn lex_number(&mut self) -> Result<TokenKind> {
        let start = self.pos;
        let (line, column) = (self.line, self.column);
        let mut radix = 10;
        if self.peek() == Some(b'0') && matches!(self.peek_at(1), Some(b'x') | Some(b'X')) {
            self.bump();
            self.bump();
            radix = 16;
        }
        let digits_start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_hexdigit() || c == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        // Accumulate in place, skipping `_` separators.  A literal with no
        // digits, a digit outside the radix, or a value past `u64::MAX` is
        // invalid.
        let mut value = None;
        for &c in &self.bytes[digits_start..self.pos] {
            if c == b'_' {
                continue;
            }
            value = (c as char).to_digit(radix).and_then(|digit| {
                value
                    .unwrap_or(0u64)
                    .checked_mul(u64::from(radix))?
                    .checked_add(u64::from(digit))
            });
            if value.is_none() {
                break;
            }
        }
        value.map(TokenKind::Int).ok_or_else(|| {
            let text: String = self.source[start..self.pos]
                .chars()
                .filter(|c| *c != '_')
                .collect();
            LangError::new(
                format!("invalid integer literal `{text}`"),
                Span::new(start, self.pos, line, column),
            )
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, offset: usize) -> Option<u8> {
        self.bytes.get(self.pos + offset).copied()
    }

    fn bump(&mut self) {
        if let Some(c) = self.peek() {
            self.pos += 1;
            if c == b'\n' {
                self.line += 1;
                self.column = 1;
            } else {
                self.column += 1;
            }
        }
    }

    fn eat(&mut self, expected: u8) -> bool {
        if self.peek() == Some(expected) {
            self.bump();
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(source: &str) -> Vec<TokenKind> {
        lex(source).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_keywords_and_identifiers() {
        let k = kinds("fn main var x struct S");
        assert_eq!(
            k,
            vec![
                TokenKind::Fn,
                TokenKind::Ident("main".into()),
                TokenKind::Var,
                TokenKind::Ident("x".into()),
                TokenKind::Struct,
                TokenKind::Ident("S".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_numbers_decimal_and_hex() {
        let k = kinds("42 0xFF00 1_000");
        assert_eq!(
            k,
            vec![
                TokenKind::Int(42),
                TokenKind::Int(0xFF00),
                TokenKind::Int(1000),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lexes_multi_character_operators() {
        let k = kinds("<< >> <= >= == != && || ->");
        assert_eq!(
            k,
            vec![
                TokenKind::Shl,
                TokenKind::Shr,
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::EqEq,
                TokenKind::NotEq,
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::Arrow,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn skips_line_and_block_comments() {
        let k = kinds("1 // comment\n 2 /* block \n comment */ 3");
        assert_eq!(
            k,
            vec![
                TokenKind::Int(1),
                TokenKind::Int(2),
                TokenKind::Int(3),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn rejects_unknown_characters() {
        let err = lex("fn @").unwrap_err();
        assert!(err.message.contains("unexpected character"));
    }

    #[test]
    fn tracks_line_numbers() {
        let tokens = lex("fn\nmain").unwrap();
        assert_eq!(tokens[0].span.line, 1);
        assert_eq!(tokens[1].span.line, 2);
    }
}
