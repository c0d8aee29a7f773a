//! Token definitions for the LPS surface syntax.

use std::fmt;

use crate::error::Span;

/// Kinds of tokens produced by the lexer. Identifiers borrow their
/// text from the source, so lexing allocates nothing per token.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokenKind<'a> {
    /// Lowercase-initial identifier: constant, function, or predicate
    /// name.
    Name(&'a str),
    /// Uppercase- or `_`-initial identifier: a variable.
    Var(&'a str),
    /// The magnitude of an integer literal. The parser applies a unary
    /// minus and checks the range, so `-9223372036854775808` can be
    /// written although its magnitude exceeds `i64::MAX`.
    Int(u64),

    // Keywords.
    /// `forall` — restricted universal quantifier (Definition 4).
    Forall,
    /// `exists` — restricted existential quantifier (Definition 12).
    Exists,
    /// `in` — membership, as quantifier binder or comparison.
    In,
    /// `notin` — negated membership comparison.
    NotIn,
    /// `not` — negation-as-failure (stratified; §4.2).
    Not,
    /// `pred` — predicate sort declaration.
    Pred,

    // Punctuation and operators.
    /// `:-`
    Turnstile,
    /// `.`
    Dot,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,

    /// End of input.
    Eof,
}

impl<'a> TokenKind<'a> {
    /// Classify an identifier: keyword, variable, or name.
    pub fn classify_ident(text: &'a str) -> TokenKind<'a> {
        match text {
            "forall" => TokenKind::Forall,
            "exists" => TokenKind::Exists,
            "in" => TokenKind::In,
            "notin" => TokenKind::NotIn,
            "not" => TokenKind::Not,
            "pred" => TokenKind::Pred,
            _ => {
                let first = text.chars().next().expect("non-empty ident");
                if first.is_uppercase() || first == '_' {
                    TokenKind::Var(text)
                } else {
                    TokenKind::Name(text)
                }
            }
        }
    }

    /// Short human-readable description for diagnostics.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Name(n) => format!("name `{n}`"),
            TokenKind::Var(v) => format!("variable `{v}`"),
            TokenKind::Int(i) => format!("integer `{i}`"),
            TokenKind::Forall => "`forall`".into(),
            TokenKind::Exists => "`exists`".into(),
            TokenKind::In => "`in`".into(),
            TokenKind::NotIn => "`notin`".into(),
            TokenKind::Not => "`not`".into(),
            TokenKind::Pred => "`pred`".into(),
            TokenKind::Turnstile => "`:-`".into(),
            TokenKind::Dot => "`.`".into(),
            TokenKind::Comma => "`,`".into(),
            TokenKind::Semi => "`;`".into(),
            TokenKind::Colon => "`:`".into(),
            TokenKind::LParen => "`(`".into(),
            TokenKind::RParen => "`)`".into(),
            TokenKind::LBrace => "`{`".into(),
            TokenKind::RBrace => "`}`".into(),
            TokenKind::Lt => "`<`".into(),
            TokenKind::Gt => "`>`".into(),
            TokenKind::Le => "`<=`".into(),
            TokenKind::Ge => "`>=`".into(),
            TokenKind::Eq => "`=`".into(),
            TokenKind::Ne => "`!=`".into(),
            TokenKind::Plus => "`+`".into(),
            TokenKind::Minus => "`-`".into(),
            TokenKind::Star => "`*`".into(),
            TokenKind::Eof => "end of input".into(),
        }
    }
}

/// A token with its source span.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Token<'a> {
    /// What kind of token.
    pub kind: TokenKind<'a>,
    /// Where it came from.
    pub span: Span,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.kind.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_keywords() {
        assert_eq!(TokenKind::classify_ident("forall"), TokenKind::Forall);
        assert_eq!(TokenKind::classify_ident("in"), TokenKind::In);
        assert_eq!(TokenKind::classify_ident("pred"), TokenKind::Pred);
    }

    #[test]
    fn classify_variables_and_names() {
        assert_eq!(TokenKind::classify_ident("X"), TokenKind::Var("X"));
        assert_eq!(TokenKind::classify_ident("_tmp"), TokenKind::Var("_tmp"));
        assert_eq!(
            TokenKind::classify_ident("widget"),
            TokenKind::Name("widget")
        );
        // Keyword-prefixed names are still names.
        assert_eq!(TokenKind::classify_ident("input"), TokenKind::Name("input"));
    }
}
