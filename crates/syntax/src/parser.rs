//! Recursive-descent parser for the LPS surface syntax.
//!
//! See the grammar in the crate docs. The parser is deterministic with
//! one token of lookahead everywhere except head arguments, where `<`
//! introduces a grouping slot `<X>` (two tokens of lookahead
//! distinguish it from a comparison, which cannot start a head
//! argument anyway).
//!
//! [`parse_program_with`] adds a fast path for ground facts: an item
//! that is a name applied to ground terms, with no variables, grouping
//! or arithmetic, goes to a fact sink as a flat [`FactNode`] stream
//! instead of becoming a [`Clause`]. Anything else rewinds and parses
//! as a clause, so every error is the clause parser's.

use lps_term::TermNode;

use crate::ast::{
    ArithOp, Clause, CmpOp, FactNode, Formula, GroundFact, HeadArg, HeadAtom, Item, Literal,
    PredDecl, Program, SortAnn, Term,
};
use crate::error::{Span, SyntaxError};
use crate::lexer::lex;
use crate::token::{Token, TokenKind};

/// Parse a full program.
pub fn parse_program(src: &str) -> Result<Program, SyntaxError> {
    parse_items(src, None)
}

/// Parse a full program, handing each ground fact to `sink` — in
/// source order, borrowed from one reused buffer — instead of building
/// a clause for it. The returned program holds the declarations and
/// every other clause. On a syntax error the sink may already have
/// seen the facts before it.
pub fn parse_program_with<'s>(
    src: &'s str,
    sink: &mut dyn FnMut(GroundFact<'_, 's>),
) -> Result<Program, SyntaxError> {
    parse_items(src, Some(sink))
}

fn parse_items<'s>(
    src: &'s str,
    mut sink: Option<&mut dyn FnMut(GroundFact<'_, 's>)>,
) -> Result<Program, SyntaxError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut items = Vec::new();
    let mut nodes = Vec::new();
    while !p.at(&TokenKind::Eof) {
        if let Some(sink) = sink.as_mut() {
            if let Some((pred, arity, span)) = p.ground_fact(&mut nodes) {
                sink(GroundFact {
                    pred,
                    arity,
                    span,
                    args: &nodes,
                });
                continue;
            }
        }
        items.push(p.item()?);
    }
    Ok(Program { items })
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Token<'a> {
        &self.tokens[self.pos]
    }

    fn peek2(&self) -> &Token<'a> {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)]
    }

    fn at(&self, kind: &TokenKind<'_>) -> bool {
        &self.peek().kind == kind
    }

    /// Consume the current token. Tokens borrow their text from the
    /// source, so this is a copy that allocates nothing.
    fn bump(&mut self) -> Token<'a> {
        let t = self.tokens[self.pos];
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    /// Consume the current token if it is `kind`, returning its span.
    fn eat(&mut self, kind: &TokenKind<'_>) -> Option<Span> {
        self.at(kind).then(|| self.bump().span)
    }

    fn expect(&mut self, kind: &TokenKind<'_>) -> Result<Token<'a>, SyntaxError> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            let found = self.peek();
            Err(SyntaxError::new(
                found.span,
                format!("expected {}, found {}", kind.describe(), found),
            ))
        }
    }

    fn name(&mut self) -> Result<(&'a str, Span), SyntaxError> {
        match self.peek().kind {
            TokenKind::Name(n) => Ok((n, self.bump().span)),
            _ => {
                let found = self.peek();
                Err(SyntaxError::new(
                    found.span,
                    format!("expected a name, found {found}"),
                ))
            }
        }
    }

    fn var(&mut self) -> Result<(&'a str, Span), SyntaxError> {
        match self.peek().kind {
            TokenKind::Var(v) => Ok((v, self.bump().span)),
            _ => {
                let found = self.peek();
                Err(SyntaxError::new(
                    found.span,
                    format!("expected a variable, found {found}"),
                ))
            }
        }
    }

    /// The ground-fact fast path at an item start:
    /// `NAME ("(" ground ("," ground)* ")")? "."`. On a match `out`
    /// holds the arguments in prefix order and the result is the
    /// predicate, its arity and the head span (the clause parser's
    /// spans, term for term). Anything else rewinds and yields `None`.
    fn ground_fact(&mut self, out: &mut Vec<FactNode<'a>>) -> Option<(&'a str, usize, Span)> {
        let start = self.pos;
        out.clear();
        let fact = self.ground_fact_at(out);
        if fact.is_none() {
            self.pos = start;
        }
        fact
    }

    fn ground_fact_at(&mut self, out: &mut Vec<FactNode<'a>>) -> Option<(&'a str, usize, Span)> {
        let TokenKind::Name(pred) = self.peek().kind else {
            return None;
        };
        let mut span = self.bump().span;
        let mut arity = 0;
        if self.eat(&TokenKind::LParen).is_some() {
            arity = self.ground_list(out, &TokenKind::RParen)?;
            span = span.merge(self.eat(&TokenKind::RParen)?);
        }
        self.eat(&TokenKind::Dot)?;
        Some((pred, arity, span))
    }

    /// `ground ("," ground)*`, or nothing before `}`; returns the count.
    fn ground_list(&mut self, out: &mut Vec<FactNode<'a>>, close: &TokenKind<'_>) -> Option<usize> {
        if close == &TokenKind::RBrace && self.at(close) {
            return Some(0);
        }
        let mut n = 1;
        self.ground_term(out)?;
        while self.eat(&TokenKind::Comma).is_some() {
            self.ground_term(out)?;
            n += 1;
        }
        Some(n)
    }

    /// One ground term: a name, an integer (optionally negated), an
    /// application or a set literal, not followed by an arithmetic
    /// operator.
    fn ground_term(&mut self, out: &mut Vec<FactNode<'a>>) -> Option<()> {
        let tok = self.bump();
        let node = |term, span| FactNode { term, span };
        match tok.kind {
            TokenKind::Int(i) => out.push(node(TermNode::Int(int_value(i, false)?), tok.span)),
            TokenKind::Minus => {
                let TokenKind::Int(i) = self.peek().kind else {
                    return None;
                };
                let value = int_value(i, true)?;
                out.push(node(TermNode::Int(value), tok.span.merge(self.bump().span)));
            }
            TokenKind::Name(n) if !self.at(&TokenKind::LParen) => {
                out.push(node(TermNode::Atom(n), tok.span));
            }
            TokenKind::Name(_) | TokenKind::LBrace => {
                // `f(…)` (the `(` is next) or `{…}`: the node heads its
                // arguments' nodes, so it is filled in once they are
                // counted.
                let close = if tok.kind == TokenKind::LBrace {
                    TokenKind::RBrace
                } else {
                    self.bump();
                    TokenKind::RParen
                };
                let slot = out.len();
                out.push(node(TermNode::Set(0), tok.span));
                let n = self.ground_list(out, &close)?;
                let span = tok.span.merge(self.eat(&close)?);
                out[slot] = match tok.kind {
                    TokenKind::Name(f) => node(TermNode::App(f, n), span),
                    _ => node(TermNode::Set(n), span),
                };
            }
            _ => return None,
        }
        match self.peek().kind {
            TokenKind::Plus | TokenKind::Minus | TokenKind::Star => None,
            _ => Some(()),
        }
    }

    // item := "pred" decl | clause
    fn item(&mut self) -> Result<Item, SyntaxError> {
        if self.at(&TokenKind::Pred) {
            Ok(Item::Decl(self.decl()?))
        } else {
            Ok(Item::Clause(self.clause()?))
        }
    }

    // decl := "pred" NAME "(" sort ("," sort)* ")" "."
    fn decl(&mut self) -> Result<PredDecl, SyntaxError> {
        let start = self.expect(&TokenKind::Pred)?.span;
        let name = self.name()?.0.to_owned();
        let mut sorts = Vec::new();
        if self.at(&TokenKind::LParen) {
            self.bump();
            loop {
                let (sort_name, sort_span) = self.name()?;
                sorts.push(match sort_name {
                    "atom" => SortAnn::Atom,
                    "set" => SortAnn::Set,
                    "any" => SortAnn::Any,
                    other => {
                        return Err(SyntaxError::new(
                            sort_span,
                            format!("unknown sort `{other}` (expected atom, set, or any)"),
                        ))
                    }
                });
                if self.at(&TokenKind::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        let end = self.expect(&TokenKind::Dot)?.span;
        Ok(PredDecl {
            name,
            sorts,
            span: start.merge(end),
        })
    }

    // clause := head (":-" formula)? "."
    fn clause(&mut self) -> Result<Clause, SyntaxError> {
        let head = self.head()?;
        let body = if self.at(&TokenKind::Turnstile) {
            self.bump();
            Some(self.formula()?)
        } else {
            None
        };
        let end = self.expect(&TokenKind::Dot)?.span;
        let span = head.span.merge(end);
        Ok(Clause { head, body, span })
    }

    // head := NAME ("(" headarg ("," headarg)* ")")?
    fn head(&mut self) -> Result<HeadAtom, SyntaxError> {
        let (pred, name_span) = self.name()?;
        let pred = pred.to_owned();
        let mut args = Vec::new();
        let mut span = name_span;
        if self.at(&TokenKind::LParen) {
            self.bump();
            loop {
                args.push(self.head_arg()?);
                if self.at(&TokenKind::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
            span = span.merge(self.expect(&TokenKind::RParen)?.span);
        }
        Ok(HeadAtom { pred, args, span })
    }

    // headarg := "<" VAR ">" | term
    fn head_arg(&mut self) -> Result<HeadArg, SyntaxError> {
        if self.at(&TokenKind::Lt) {
            let start = self.bump().span;
            let v = self.var()?.0.to_owned();
            let end = self.expect(&TokenKind::Gt)?.span;
            Ok(HeadArg::Group(v, start.merge(end)))
        } else {
            Ok(HeadArg::Term(self.expr()?))
        }
    }

    // formula := conj (";" conj)*
    fn formula(&mut self) -> Result<Formula, SyntaxError> {
        let mut disjuncts = vec![self.conj()?];
        while self.at(&TokenKind::Semi) {
            self.bump();
            disjuncts.push(self.conj()?);
        }
        Ok(Formula::or(disjuncts))
    }

    // conj := prim ("," prim)*
    fn conj(&mut self) -> Result<Formula, SyntaxError> {
        let mut conjuncts = vec![self.prim()?];
        while self.at(&TokenKind::Comma) {
            self.bump();
            conjuncts.push(self.prim()?);
        }
        Ok(Formula::and(conjuncts))
    }

    // prim := "(" formula ")" | quant | "not" prim | literal
    fn prim(&mut self) -> Result<Formula, SyntaxError> {
        match &self.peek().kind {
            TokenKind::LParen => {
                self.bump();
                let f = self.formula()?;
                self.expect(&TokenKind::RParen)?;
                Ok(f)
            }
            TokenKind::Forall | TokenKind::Exists => self.quant(),
            TokenKind::Not => {
                let start = self.bump().span;
                let inner = self.prim()?;
                Ok(Formula::Not(Box::new(inner), start))
            }
            _ => self.literal(),
        }
    }

    // quant := ("forall"|"exists") VAR "in" term ("," quant | ":" prim)
    //
    // The comma continuation requires the next token to be another
    // quantifier keyword, which keeps it unambiguous with conjunction:
    //   forall U in X, forall V in Y: p(U, V)
    // parses as nested quantifiers whose shared scope is p(U, V) —
    // exactly the paper's prefix form (∀u∈X)(∀v∈Y) p(u, v).
    fn quant(&mut self) -> Result<Formula, SyntaxError> {
        let is_forall = self.at(&TokenKind::Forall);
        let start = self.bump().span;
        let var = self.var()?.0.to_owned();
        self.expect(&TokenKind::In)?;
        let set = self.term()?;
        let body = if self.at(&TokenKind::Comma)
            && matches!(self.peek2().kind, TokenKind::Forall | TokenKind::Exists)
        {
            self.bump(); // the comma
            self.quant()?
        } else {
            self.expect(&TokenKind::Colon)?;
            self.prim()?
        };
        let span = start.merge(body_span(&body).unwrap_or(start));
        Ok(if is_forall {
            Formula::Forall {
                var,
                set,
                body: Box::new(body),
                span,
            }
        } else {
            Formula::Exists {
                var,
                set,
                body: Box::new(body),
                span,
            }
        })
    }

    // literal := NAME ("(" term ("," term)* ")")? [relop expr]
    //          | expr relop expr
    fn literal(&mut self) -> Result<Formula, SyntaxError> {
        let lhs = self.expr()?;
        if let Some(op) = self.try_relop() {
            let rhs = self.expr()?;
            let span = lhs.span().merge(rhs.span());
            return Ok(Formula::Lit(Literal::Cmp(op, lhs, rhs, span)));
        }
        // No relational operator: the expression itself must be a
        // predicate atom (a name, possibly applied).
        match lhs {
            Term::Const(name, span) => Ok(Formula::Lit(Literal::Pred(name, vec![], span))),
            Term::App(name, args, span) => Ok(Formula::Lit(Literal::Pred(name, args, span))),
            other => Err(SyntaxError::new(
                other.span(),
                "expected a predicate atom or a comparison",
            )),
        }
    }

    fn try_relop(&mut self) -> Option<CmpOp> {
        let op = match self.peek().kind {
            TokenKind::Eq => CmpOp::Eq,
            TokenKind::Ne => CmpOp::Ne,
            TokenKind::In => CmpOp::In,
            TokenKind::NotIn => CmpOp::NotIn,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Le => CmpOp::Le,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Ge => CmpOp::Ge,
            _ => return None,
        };
        self.bump();
        Some(op)
    }

    // expr := mul (("+"|"-") mul)*
    fn expr(&mut self) -> Result<Term, SyntaxError> {
        let mut lhs = self.mul()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Plus => ArithOp::Add,
                TokenKind::Minus => ArithOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul()?;
            let span = lhs.span().merge(rhs.span());
            lhs = Term::BinOp(op, Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    // mul := term ("*" term)*
    fn mul(&mut self) -> Result<Term, SyntaxError> {
        let mut lhs = self.term()?;
        while self.at(&TokenKind::Star) {
            self.bump();
            let rhs = self.term()?;
            let span = lhs.span().merge(rhs.span());
            lhs = Term::BinOp(ArithOp::Mul, Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    // term := VAR | INT | "-" INT | NAME ("(" term ("," term)* ")")?
    //       | "{" (term ("," term)*)? "}"
    fn term(&mut self) -> Result<Term, SyntaxError> {
        match self.peek().kind {
            TokenKind::Var(v) => {
                let t = self.bump();
                Ok(Term::Var(v.to_owned(), t.span))
            }
            TokenKind::Int(i) => {
                let t = self.bump();
                Ok(Term::Int(int_in_range(i, false, t.span)?, t.span))
            }
            TokenKind::Minus => {
                let start = self.bump().span;
                match self.peek().kind {
                    TokenKind::Int(i) => {
                        let span = start.merge(self.bump().span);
                        Ok(Term::Int(int_in_range(i, true, span)?, span))
                    }
                    _ => {
                        let found = self.peek();
                        Err(SyntaxError::new(
                            found.span,
                            format!("expected an integer after unary `-`, found {found}"),
                        ))
                    }
                }
            }
            TokenKind::Name(n) => {
                let t = self.bump();
                let mut span = t.span;
                if self.at(&TokenKind::LParen) {
                    self.bump();
                    let mut args = Vec::new();
                    loop {
                        args.push(self.expr()?);
                        if self.at(&TokenKind::Comma) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    span = span.merge(self.expect(&TokenKind::RParen)?.span);
                    Ok(Term::App(n.to_owned(), args, span))
                } else {
                    Ok(Term::Const(n.to_owned(), span))
                }
            }
            TokenKind::LBrace => {
                let start = self.bump().span;
                let mut elems = Vec::new();
                if !self.at(&TokenKind::RBrace) {
                    loop {
                        elems.push(self.expr()?);
                        if self.at(&TokenKind::Comma) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                let end = self.expect(&TokenKind::RBrace)?.span;
                Ok(Term::SetLit(elems, start.merge(end)))
            }
            _ => {
                let found = self.peek();
                Err(SyntaxError::new(
                    found.span,
                    format!("expected a term, found {found}"),
                ))
            }
        }
    }
}

fn body_span(f: &Formula) -> Option<Span> {
    match f {
        Formula::Lit(lit) => Some(lit.span()),
        Formula::Not(_, span) => Some(*span),
        Formula::And(fs) | Formula::Or(fs) => fs.iter().rev().find_map(body_span),
        Formula::Forall { span, .. } | Formula::Exists { span, .. } => Some(*span),
    }
}

/// The integer a literal of magnitude `magnitude` denotes, negated if
/// `negative`; `None` if `i64` cannot hold it.
fn int_value(magnitude: u64, negative: bool) -> Option<i64> {
    if negative {
        0i64.checked_sub_unsigned(magnitude)
    } else {
        i64::try_from(magnitude).ok()
    }
}

/// [`int_value`], or the out-of-range error at `span`.
fn int_in_range(magnitude: u64, negative: bool, span: Span) -> Result<i64, SyntaxError> {
    int_value(magnitude, negative).ok_or_else(|| {
        let sign = if negative { "-" } else { "" };
        SyntaxError::new(
            span,
            format!("integer literal `{sign}{magnitude}` out of range"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(src: &str) -> Clause {
        crate::parse_clause(src).unwrap_or_else(|e| panic!("{}", e.render(src)))
    }

    #[test]
    fn parses_fact_with_set_literal() {
        let c = parse_one("parts(widget, {bolt, nut, gear}).");
        assert_eq!(c.head.pred, "parts");
        assert_eq!(c.head.args.len(), 2);
        assert!(c.body.is_none());
        match &c.head.args[1] {
            HeadArg::Term(Term::SetLit(elems, _)) => assert_eq!(elems.len(), 3),
            other => panic!("expected set literal, got {other:?}"),
        }
    }

    #[test]
    fn parses_zero_arity_fact() {
        let c = parse_one("halt.");
        assert_eq!(c.head.pred, "halt");
        assert!(c.head.args.is_empty());
    }

    #[test]
    fn parses_paper_example_1_disj() {
        let c = parse_one("disj(X, Y) :- forall U in X: forall V in Y: U != V.");
        let body = c.body.unwrap();
        match body {
            Formula::Forall { var, body, .. } => {
                assert_eq!(var, "U");
                match *body {
                    Formula::Forall { var, body, .. } => {
                        assert_eq!(var, "V");
                        assert!(matches!(
                            *body,
                            Formula::Lit(Literal::Cmp(CmpOp::Ne, _, _, _))
                        ));
                    }
                    other => panic!("expected inner forall, got {other:?}"),
                }
            }
            other => panic!("expected forall, got {other:?}"),
        }
    }

    #[test]
    fn comma_chained_quantifier_prefix() {
        // forall U in X, forall V in Y: p(U, V) — the paper's
        // (∀u∈X)(∀v∈Y) prefix form.
        let c = parse_one("d(X, Y) :- forall U in X, forall V in Y: p(U, V).");
        match c.body.unwrap() {
            Formula::Forall { body, .. } => {
                assert!(matches!(*body, Formula::Forall { .. }));
            }
            other => panic!("expected forall, got {other:?}"),
        }
    }

    #[test]
    fn quantifier_scope_is_one_prim_unless_parenthesized() {
        // `forall U in X: p(U), q(X)` — q(X) is OUTSIDE the quantifier.
        let c = parse_one("h(X) :- forall U in X: p(U), q(X).");
        match c.body.unwrap() {
            Formula::And(fs) => {
                assert_eq!(fs.len(), 2);
                assert!(matches!(fs[0], Formula::Forall { .. }));
            }
            other => panic!("expected And, got {other:?}"),
        }
        // With parens the whole conjunction is in scope.
        let c = parse_one("h(X) :- forall U in X: (p(U), q(X)).");
        match c.body.unwrap() {
            Formula::Forall { body, .. } => {
                assert!(matches!(*body, Formula::And(_)));
            }
            other => panic!("expected Forall, got {other:?}"),
        }
    }

    #[test]
    fn parses_paper_example_3_union_with_disjunction() {
        let c = parse_one(
            "union(X, Y, Z) :- subs(X, Z), subs(Y, Z), forall W in Z: (W in X ; W in Y).",
        );
        match c.body.unwrap() {
            Formula::And(fs) => {
                assert_eq!(fs.len(), 3);
                match &fs[2] {
                    Formula::Forall { body, .. } => {
                        assert!(matches!(**body, Formula::Or(_)));
                    }
                    other => panic!("expected forall, got {other:?}"),
                }
            }
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn parses_exists() {
        let c = parse_one("nonempty(X) :- exists U in X: U = U.");
        assert!(matches!(c.body.unwrap(), Formula::Exists { .. }));
    }

    #[test]
    fn parses_grouping_head() {
        let c = parse_one("owns(P, <C>) :- car(P, C).");
        assert!(c.head.has_grouping());
        match &c.head.args[1] {
            HeadArg::Group(v, _) => assert_eq!(v, "C"),
            other => panic!("expected group, got {other:?}"),
        }
    }

    #[test]
    fn parses_negation() {
        let c = parse_one("lonely(X) :- item(X), not connected(X).");
        match c.body.unwrap() {
            Formula::And(fs) => assert!(matches!(fs[1], Formula::Not(..))),
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn parses_arithmetic_comparison() {
        let c = parse_one("sum(Z, K) :- du(X, Y, Z), sum(X, M), sum(Y, N), M + N = K.");
        match c.body.unwrap() {
            Formula::And(fs) => match &fs[3] {
                Formula::Lit(Literal::Cmp(CmpOp::Eq, lhs, _, _)) => {
                    assert!(matches!(lhs, Term::BinOp(ArithOp::Add, _, _, _)));
                }
                other => panic!("expected comparison, got {other:?}"),
            },
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn arith_precedence_mul_binds_tighter() {
        let c = parse_one("p(K) :- K = 1 + 2 * 3.");
        match c.body.unwrap() {
            Formula::Lit(Literal::Cmp(CmpOp::Eq, _, rhs, _)) => match rhs {
                Term::BinOp(ArithOp::Add, _, r, _) => {
                    assert!(matches!(*r, Term::BinOp(ArithOp::Mul, _, _, _)));
                }
                other => panic!("expected Add at top, got {other:?}"),
            },
            other => panic!("expected Cmp, got {other:?}"),
        }
    }

    #[test]
    fn parses_negative_integers() {
        let c = parse_one("p(-5).");
        match &c.head.args[0] {
            HeadArg::Term(Term::Int(-5, _)) => {}
            other => panic!("expected -5, got {other:?}"),
        }
    }

    #[test]
    fn parses_declarations() {
        let p = parse_program("pred parts(atom, set).\npred flag.\n").unwrap();
        let decls: Vec<_> = p.decls().collect();
        assert_eq!(decls.len(), 2);
        assert_eq!(decls[0].name, "parts");
        assert_eq!(decls[0].sorts, vec![SortAnn::Atom, SortAnn::Set]);
        assert!(decls[1].sorts.is_empty());
    }

    #[test]
    fn rejects_unknown_sort() {
        let err = parse_program("pred p(sets).").unwrap_err();
        assert!(err.message.contains("unknown sort"));
    }

    #[test]
    fn parses_empty_set_and_nested_sets() {
        let c = parse_one("p({}, {{a}, {}}).");
        match &c.head.args[0] {
            HeadArg::Term(Term::SetLit(elems, _)) => assert!(elems.is_empty()),
            other => panic!("expected empty set, got {other:?}"),
        }
        match &c.head.args[1] {
            HeadArg::Term(Term::SetLit(elems, _)) => assert_eq!(elems.len(), 2),
            other => panic!("expected nested set, got {other:?}"),
        }
    }

    #[test]
    fn error_on_missing_dot() {
        let err = parse_program("p(X) :- q(X)").unwrap_err();
        assert!(err.message.contains("`.`"), "{}", err.message);
    }

    #[test]
    fn error_on_bare_term_body() {
        let err = parse_program("p(X) :- X.").unwrap_err();
        assert!(err.message.contains("predicate atom"));
    }

    #[test]
    fn error_on_dangling_comparison() {
        assert!(parse_program("p :- 1 <.").is_err());
    }

    /// Rebuild the clause the fast path skipped from its node stream.
    fn clause_of(fact: &GroundFact<'_, '_>) -> Clause {
        fn term(nodes: &mut std::slice::Iter<'_, FactNode<'_>>) -> Term {
            let n = nodes.next().expect("stream is complete");
            match n.term {
                TermNode::Atom(a) => Term::Const(a.into(), n.span),
                TermNode::Int(i) => Term::Int(i, n.span),
                TermNode::App(f, k) => {
                    Term::App(f.into(), (0..k).map(|_| term(nodes)).collect(), n.span)
                }
                TermNode::Set(k) => Term::SetLit((0..k).map(|_| term(nodes)).collect(), n.span),
            }
        }
        let mut nodes = fact.args.iter();
        let args = (0..fact.arity)
            .map(|_| HeadArg::Term(term(&mut nodes)))
            .collect();
        assert!(nodes.next().is_none(), "no trailing nodes");
        Clause {
            head: HeadAtom {
                pred: fact.pred.into(),
                args,
                span: fact.span,
            },
            body: None,
            span: fact.span,
        }
    }

    #[test]
    fn fact_sink_sees_exactly_the_ground_facts() {
        let src = "pred p(atom, set).\n\
                   p(a, {b, -3, f(c, {})}). halt. q(X). r(1 + 2). s(<X>) :- t(X).\n\
                   u({{a}, {}}, g(h(-7)), {a, a}). v(- 4) :- w. p(a, {}).";
        let all = parse_program(src).unwrap();
        let mut facts = Vec::new();
        let rest = parse_program_with(src, &mut |f| facts.push(clause_of(&f))).unwrap();
        let (ground, other): (Vec<&Item>, Vec<&Item>) = all.items.iter().partition(|i| {
            matches!(i, Item::Clause(c) if c.body.is_none()
                && c.head.args.iter().all(|a| matches!(a, HeadArg::Term(t) if t.is_ground() && !t.has_arith())))
        });
        assert_eq!(rest.items.iter().collect::<Vec<_>>(), other);
        assert_eq!(facts.len(), 4);
        for (fact, item) in facts.iter().zip(ground) {
            let Item::Clause(c) = item else {
                unreachable!()
            };
            assert_eq!(fact.head, c.head, "same names, terms and spans");
        }
    }

    #[test]
    fn fact_sink_defers_every_error_to_the_clause_parser() {
        for src in [
            "p(a", "p(a b).", "p().", "p(-x).", "p({a,}).", "p(f()).", "p(a) q.",
        ] {
            let mut facts = 0;
            let err = parse_program_with(src, &mut |_| facts += 1).unwrap_err();
            assert_eq!(err, parse_program(src).unwrap_err(), "{src}");
            assert_eq!(facts, 0, "{src}");
        }
    }

    #[test]
    fn i64_min_literal_loads_as_a_fact_and_in_a_rule() {
        let src = "p(-9223372036854775808).";
        let c = parse_one(src);
        let min = HeadArg::Term(Term::Int(i64::MIN, Span::new(2, 22)));
        assert_eq!(c.head.args, vec![min.clone()]);
        let mut facts = Vec::new();
        parse_program_with(src, &mut |f| facts.push(clause_of(&f))).unwrap();
        assert_eq!(facts.len(), 1);
        assert_eq!(facts[0].head, c.head, "the fact sink reads it too");
        let c = parse_one("q(X) :- X = -9223372036854775808.");
        assert_eq!(c.head.args.len(), 1);
        assert_eq!(parse_one("p(- 9223372036854775807).").head.args[0], {
            HeadArg::Term(Term::Int(-i64::MAX, Span::new(2, 23)))
        });
    }

    #[test]
    fn integer_beyond_i64_is_out_of_range_with_or_without_sign() {
        for (src, text) in [
            ("p(9223372036854775808).", "`9223372036854775808`"),
            ("p(-9223372036854775809).", "`-9223372036854775809`"),
            ("q(X) :- X = 9223372036854775808.", "`9223372036854775808`"),
        ] {
            let err = parse_program(src).unwrap_err();
            assert!(
                err.message.contains("out of range") && err.message.contains(text),
                "{src}: {}",
                err.message
            );
            let sink = parse_program_with(src, &mut |_| panic!("not a fact: {src}"));
            assert_eq!(sink.unwrap_err(), err, "{src}");
        }
    }

    #[test]
    fn multi_clause_program_keeps_order() {
        let p = parse_program("a. b :- a. c :- b.").unwrap();
        let heads: Vec<&str> = p.clauses().map(|c| c.head.pred.as_str()).collect();
        assert_eq!(heads, vec!["a", "b", "c"]);
    }
}
