//! Hand-written lexer for the LPS surface syntax.
//!
//! `%` starts a line comment. Whitespace separates tokens. Identifiers
//! are `[A-Za-z_][A-Za-z0-9_]*`; the `$` character is reserved for
//! compiler-generated auxiliary predicate names (Theorem 6) and is
//! rejected here so generated names can never collide with user names.

use crate::error::{Span, SyntaxError};
use crate::token::{Token, TokenKind};

/// Tokenize `src` completely, ending with an [`TokenKind::Eof`] token.
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, SyntaxError> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut pos = 0usize;

    while pos < bytes.len() {
        let b = bytes[pos];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => pos += 1,
            b'%' => {
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
            }
            b'(' => tokens.push(single(TokenKind::LParen, &mut pos)),
            b')' => tokens.push(single(TokenKind::RParen, &mut pos)),
            b'{' => tokens.push(single(TokenKind::LBrace, &mut pos)),
            b'}' => tokens.push(single(TokenKind::RBrace, &mut pos)),
            b',' => tokens.push(single(TokenKind::Comma, &mut pos)),
            b';' => tokens.push(single(TokenKind::Semi, &mut pos)),
            b'.' => tokens.push(single(TokenKind::Dot, &mut pos)),
            b'+' => tokens.push(single(TokenKind::Plus, &mut pos)),
            b'-' => tokens.push(single(TokenKind::Minus, &mut pos)),
            b'*' => tokens.push(single(TokenKind::Star, &mut pos)),
            b'=' => tokens.push(single(TokenKind::Eq, &mut pos)),
            b'<' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    tokens.push(double(TokenKind::Le, &mut pos));
                } else {
                    tokens.push(single(TokenKind::Lt, &mut pos));
                }
            }
            b'>' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    tokens.push(double(TokenKind::Ge, &mut pos));
                } else {
                    tokens.push(single(TokenKind::Gt, &mut pos));
                }
            }
            b'!' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    tokens.push(double(TokenKind::Ne, &mut pos));
                } else {
                    return Err(SyntaxError::new(
                        Span::new(pos, pos + 1),
                        "unexpected `!` (did you mean `!=` or `not`?)",
                    ));
                }
            }
            b':' => {
                if bytes.get(pos + 1) == Some(&b'-') {
                    tokens.push(double(TokenKind::Turnstile, &mut pos));
                } else {
                    tokens.push(single(TokenKind::Colon, &mut pos));
                }
            }
            b'0'..=b'9' => {
                let start = pos;
                while pos < bytes.len() && bytes[pos].is_ascii_digit() {
                    pos += 1;
                }
                let text = &src[start..pos];
                let value: u64 = text.parse().map_err(|_| {
                    SyntaxError::new(
                        Span::new(start, pos),
                        format!("integer literal `{text}` out of range"),
                    )
                })?;
                tokens.push(Token {
                    kind: TokenKind::Int(value),
                    span: Span::new(start, pos),
                });
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let start = pos;
                while pos < bytes.len()
                    && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_')
                {
                    pos += 1;
                }
                let text = &src[start..pos];
                tokens.push(Token {
                    kind: TokenKind::classify_ident(text),
                    span: Span::new(start, pos),
                });
            }
            b'$' => {
                return Err(SyntaxError::new(
                    Span::new(pos, pos + 1),
                    "`$` is reserved for compiler-generated names",
                ));
            }
            _ => {
                // Report the whole UTF-8 character, not just a byte.
                let ch = src[pos..].chars().next().expect("in-bounds char");
                return Err(SyntaxError::new(
                    Span::new(pos, pos + ch.len_utf8()),
                    format!("unexpected character `{ch}`"),
                ));
            }
        }
    }

    tokens.push(Token {
        kind: TokenKind::Eof,
        span: Span::point(src.len()),
    });
    Ok(tokens)
}

fn single<'a>(kind: TokenKind<'a>, pos: &mut usize) -> Token<'a> {
    let span = Span::new(*pos, *pos + 1);
    *pos += 1;
    Token { kind, span }
}

fn double<'a>(kind: TokenKind<'a>, pos: &mut usize) -> Token<'a> {
    let span = Span::new(*pos, *pos + 2);
    *pos += 2;
    Token { kind, span }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_clause_skeleton() {
        use TokenKind::*;
        assert_eq!(
            kinds("p(X) :- q(X)."),
            vec![
                Name("p"),
                LParen,
                Var("X"),
                RParen,
                Turnstile,
                Name("q"),
                LParen,
                Var("X"),
                RParen,
                Dot,
                Eof
            ]
        );
    }

    #[test]
    fn lexes_quantifier_and_set_literal() {
        use TokenKind::*;
        assert_eq!(
            kinds("forall U in X: U != y, {a, 1}"),
            vec![
                Forall,
                Var("U"),
                In,
                Var("X"),
                Colon,
                Var("U"),
                Ne,
                Name("y"),
                Comma,
                LBrace,
                Name("a"),
                Comma,
                Int(1),
                RBrace,
                Eof
            ]
        );
    }

    #[test]
    fn lexes_comparison_operators() {
        use TokenKind::*;
        assert_eq!(
            kinds("< <= > >= = != + - *"),
            vec![Lt, Le, Gt, Ge, Eq, Ne, Plus, Minus, Star, Eof]
        );
    }

    #[test]
    fn comments_are_skipped() {
        use TokenKind::*;
        assert_eq!(
            kinds("p. % trailing comment\n% full line\nq."),
            vec![Name("p"), Dot, Name("q"), Dot, Eof]
        );
    }

    #[test]
    fn spans_are_accurate() {
        let toks = lex("ab cd").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(3, 5));
        assert_eq!(toks[2].span, Span::point(5));
    }

    #[test]
    fn rejects_reserved_dollar() {
        let err = lex("$aux").unwrap_err();
        assert!(err.message.contains("reserved"));
    }

    #[test]
    fn rejects_stray_bang() {
        let err = lex("p ! q").unwrap_err();
        assert!(err.message.contains("!="));
    }

    #[test]
    fn rejects_unknown_character_with_full_char_span() {
        let err = lex("p § q").unwrap_err();
        assert_eq!(err.span.end - err.span.start, '§'.len_utf8());
    }

    #[test]
    fn rejects_overflowing_integer() {
        let err = lex("99999999999999999999").unwrap_err();
        assert!(err.message.contains("out of range"));
    }

    #[test]
    fn empty_input_is_just_eof() {
        assert_eq!(kinds(""), vec![TokenKind::Eof]);
        assert_eq!(kinds("   % only comment"), vec![TokenKind::Eof]);
    }
}
