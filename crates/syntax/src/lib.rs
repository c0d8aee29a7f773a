//! # `lps-syntax` — surface language for LPS/ELPS
//!
//! A Prolog-flavoured concrete syntax for the language of Kuper's
//! *Logic Programming with Sets*. Identifiers starting with an
//! uppercase letter or `_` are variables; the paper's lexical sort
//! convention (lowercase `x` for atoms, uppercase `X` for sets) is
//! replaced by sort inference in `lps-core`.
//!
//! ```text
//! % Example 1/2 of the paper:
//! disj(X, Y)   :- forall U in X: forall V in Y: U != V.
//! subset(X, Y) :- forall U in X: U in Y.
//!
//! % Example 3 (a Theorem-6 body: disjunction under a quantifier):
//! union(X, Y, Z) :- subset(X, Z), subset(Y, Z),
//!                   forall W in Z: (W in X ; W in Y).
//!
//! % Example 4 (unnest), and an LDL grouping head (Definition 14):
//! s(X, Y)     :- r(X, Ys), Y in Ys.
//! owns(P, <C>) :- car(P, C).
//!
//! % Facts, set literals, integers, arithmetic, negation:
//! parts(bike, {wheel, frame}).
//! cost(wheel, 30).
//! expensive(P) :- cost(P, N), N > 100.
//! lonely(X) :- item(X), not connected(X).
//! ```
//!
//! Grammar (see [`parser`] for the full rules):
//!
//! ```text
//! program  := item* ;
//! item     := "pred" NAME "(" sort ("," sort)* ")" "."   % optional decls
//!           | clause ;
//! clause   := head (":-" formula)? "." ;
//! head     := NAME ("(" headarg ("," headarg)* ")")? ;
//! headarg  := term | "<" VAR ">" ;                        % grouping
//! formula  := conj (";" conj)* ;                          % disjunction
//! conj     := prim ("," prim)* ;
//! prim     := "(" formula ")" | quant | "not" prim | literal ;
//! quant    := ("forall"|"exists") VAR "in" term
//!                 ("," quant | ":" prim) ;
//! literal  := NAME ("(" term ("," term)* ")")?
//!           | expr relop expr ;
//! relop    := "=" | "!=" | "in" | "notin"
//!           | "<" | "<=" | ">" | ">=" ;
//! expr     := mul (("+"|"-") mul)* ;
//! mul      := term ("*" term)* ;
//! term     := VAR | NAME | INT | "-" INT
//!           | NAME "(" term ("," term)* ")"
//!           | "{" (term ("," term)*)? "}" ;
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod token;

pub use ast::{
    ArithOp, Clause, CmpOp, FactNode, Formula, GroundFact, HeadArg, HeadAtom, Item, Literal,
    PredDecl, Program, SortAnn, Term,
};
pub use error::{Span, SyntaxError};
pub use lps_term::TermNode;
pub use parser::{parse_program, parse_program_with};
pub use pretty::pretty_program;

/// Parse a single clause (convenience for tests and examples).
pub fn parse_clause(src: &str) -> Result<Clause, SyntaxError> {
    let program = parse_program(src)?;
    let mut clauses: Vec<Clause> = program
        .items
        .into_iter()
        .filter_map(|i| match i {
            Item::Clause(c) => Some(c),
            Item::Decl(_) => None,
        })
        .collect();
    match clauses.len() {
        1 => Ok(clauses.pop().expect("len checked")),
        n => Err(SyntaxError::new(
            Span::point(0),
            format!("expected exactly one clause, found {n}"),
        )),
    }
}
