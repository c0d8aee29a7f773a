//! Unified error type for the core language layer.

use std::fmt;

use lps_engine::EngineError;
use lps_syntax::{Span, SyntaxError};

/// Errors from parsing, validation, sort checking, transformation, or
/// evaluation.
#[derive(Clone, Debug, PartialEq)]
pub enum CoreError {
    /// Lexing/parsing failure.
    Syntax(SyntaxError),
    /// Sort error in LPS mode (the two-sorted logic of §2.1).
    Sort {
        /// What went wrong.
        message: String,
        /// Where.
        span: Span,
    },
    /// A clause violates the dialect's well-formedness rules
    /// (Definition 5 and the dialect restrictions).
    InvalidClause {
        /// What went wrong.
        message: String,
        /// Where.
        span: Span,
    },
    /// Error surfaced from the evaluation engine.
    Engine(EngineError),
}

impl CoreError {
    /// Convenience constructor.
    pub fn invalid(span: Span, message: impl Into<String>) -> Self {
        CoreError::InvalidClause {
            message: message.into(),
            span,
        }
    }

    /// Render for a user who typed `src`: syntax errors get a source
    /// excerpt and caret line, everything else its message.
    pub fn render(&self, src: &str) -> String {
        match self {
            CoreError::Syntax(e) => e.render(src),
            other => other.to_string(),
        }
    }

    /// Convenience constructor for sort errors.
    pub fn sort(span: Span, message: impl Into<String>) -> Self {
        CoreError::Sort {
            message: message.into(),
            span,
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Syntax(e) => write!(f, "{e}"),
            CoreError::Sort { message, .. } => write!(f, "sort error: {message}"),
            CoreError::InvalidClause { message, .. } => write!(f, "invalid clause: {message}"),
            CoreError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<SyntaxError> for CoreError {
    fn from(e: SyntaxError) -> Self {
        CoreError::Syntax(e)
    }
}

impl From<EngineError> for CoreError {
    fn from(e: EngineError) -> Self {
        CoreError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_each_variant() {
        let s: CoreError = SyntaxError::new(Span::point(0), "boom").into();
        assert!(s.to_string().contains("boom"));
        let e: CoreError = EngineError::IterationLimit { limit: 3 }.into();
        assert!(e.to_string().contains("3"));
        assert!(CoreError::sort(Span::point(0), "mixed sorts")
            .to_string()
            .contains("mixed sorts"));
        assert!(CoreError::invalid(Span::point(0), "bad head")
            .to_string()
            .contains("bad head"));
    }
}
