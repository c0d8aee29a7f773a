//! Clause validation per Definition 5 and the dialect restrictions.
//!
//! * Heads must be **non-special** atomic formulas: not `=`, `∈`, nor
//!   any builtin relation name (`union`, `scons`, …). The paper
//!   requires this "since otherwise we could write a clause that
//!   redefines equality or membership".
//! * `PureLps` bodies must be a restricted-universal prefix over a
//!   conjunction of atomic formulas (Definition 5 exactly).
//! * Negation and grouping require the `StratifiedElps` dialect.
//! * Non-nesting dialects reject nested set literals (the sort checker
//!   handles the variable-driven cases).
//! * Arithmetic expressions may appear only inside comparisons.

use lps_engine::Builtin;
use lps_syntax::{Clause, Formula, HeadArg, Literal, Program, Span, Term};

use crate::dialect::Dialect;
use crate::error::CoreError;
use crate::lower::check_arity;
use crate::sorts::check_flat_sets;

/// Names that may not appear as clause heads.
pub fn is_special_pred(name: &str, arity: usize) -> bool {
    Builtin::from_pred_name(name, arity).is_some()
}

/// Definition 5 for a head `name/arity`: at most `MAX_ARITY` arguments
/// (the widest relation the engine indexes), and not a builtin.
pub(crate) fn check_head(name: &str, arity: usize, span: Span) -> Result<(), CoreError> {
    check_arity(name, arity, span)?;
    if is_special_pred(name, arity) {
        return Err(CoreError::invalid(
            span,
            format!(
                "`{name}` is a special (builtin) predicate and cannot be redefined (Definition 5)"
            ),
        ));
    }
    Ok(())
}

/// Validate a whole program under `dialect`.
pub fn validate_program(program: &Program, dialect: Dialect) -> Result<(), CoreError> {
    for clause in program.clauses() {
        validate_clause(clause, dialect)?;
    }
    if !dialect.allows_nesting() {
        check_flat_sets(program)?;
    }
    Ok(())
}

/// Validate one clause under `dialect`.
pub fn validate_clause(clause: &Clause, dialect: Dialect) -> Result<(), CoreError> {
    // Head checks.
    check_head(&clause.head.pred, clause.head.args.len(), clause.head.span)?;
    let group_slots = clause
        .head
        .args
        .iter()
        .filter(|a| matches!(a, HeadArg::Group(..)))
        .count();
    if group_slots > 0 && !dialect.allows_negation() {
        return Err(CoreError::invalid(
            clause.head.span,
            "grouping heads require the StratifiedElps dialect (Definition 14 / §6)",
        ));
    }
    if group_slots > 1 {
        return Err(CoreError::invalid(
            clause.head.span,
            "at most one grouping slot per head",
        ));
    }
    for arg in &clause.head.args {
        if let HeadArg::Term(t) = arg {
            no_arith(t)?;
        }
    }
    if group_slots == 1 && clause.body.is_none() {
        return Err(CoreError::invalid(
            clause.head.span,
            "a grouping head requires a body to group over",
        ));
    }

    // Body checks.
    if let Some(body) = &clause.body {
        check_formula(body, dialect)?;
        if !dialect.allows_positive_bodies() && !is_pure_lps_body(body) {
            return Err(CoreError::invalid(
                clause.span,
                "PureLps bodies must be a universal-quantifier prefix over a conjunction \
                 of atomic formulas (Definition 5); use the Lps dialect for positive bodies",
            ));
        }
    }
    Ok(())
}

fn check_formula(f: &Formula, dialect: Dialect) -> Result<(), CoreError> {
    match f {
        Formula::Lit(lit) => check_literal(lit),
        Formula::Not(inner, span) => {
            if !dialect.allows_negation() {
                return Err(CoreError::invalid(
                    *span,
                    "negation requires the StratifiedElps dialect (§4.2)",
                ));
            }
            check_formula(inner, dialect)
        }
        Formula::And(fs) | Formula::Or(fs) => fs.iter().try_for_each(|f| check_formula(f, dialect)),
        Formula::Forall { set, body, .. } | Formula::Exists { set, body, .. } => {
            no_arith(set)?;
            check_formula(body, dialect)
        }
    }
}

/// Arithmetic may appear only inside comparisons.
fn no_arith(t: &Term) -> Result<(), CoreError> {
    if t.has_arith() {
        let msg = "arithmetic expressions are only allowed inside comparisons";
        return Err(CoreError::invalid(t.span(), msg));
    }
    Ok(())
}

fn check_literal(lit: &Literal) -> Result<(), CoreError> {
    match lit {
        Literal::Pred(name, args, span) => {
            check_arity(name, args.len(), *span)?;
            args.iter().try_for_each(no_arith)
        }
        Literal::Cmp(..) => Ok(()),
    }
}

/// Is the body already in Definition-5 form: `(∀x₁∈X₁)…(∀xₙ∈Xₙ)(B₁ ∧ …
/// ∧ Bₖ)` with the `Bᵢ` atomic?
pub fn is_pure_lps_body(body: &Formula) -> bool {
    fn conj_of_atoms(f: &Formula) -> bool {
        match f {
            Formula::Lit(_) => true,
            Formula::And(fs) => fs.iter().all(|f| matches!(f, Formula::Lit(_))),
            _ => false,
        }
    }
    // Strip the quantifier prefix. Quantifier domains must be variables
    // (Definition 5: "each Xᵢ is a variable of sort s").
    let mut cur = body;
    while let Formula::Forall { set, body, .. } = cur {
        if !matches!(set, Term::Var(..)) {
            return false;
        }
        cur = body;
    }
    conj_of_atoms(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lps_syntax::{parse_clause, parse_program};

    fn check(src: &str, dialect: Dialect) -> Result<(), CoreError> {
        validate_program(&parse_program(src).unwrap(), dialect)
    }

    #[test]
    fn special_heads_are_rejected() {
        for src in [
            "union(X, Y, Z) :- p(X, Y, Z).",
            "scons(X, Y, Z) :- p(X, Y, Z).",
            "card(X, N) :- p(X, N).",
        ] {
            let err = check(src, Dialect::Elps).unwrap_err();
            assert!(matches!(err, CoreError::InvalidClause { .. }), "{src}");
        }
        // `union/2` is not special — arity matters.
        assert!(check("union(X, Y) :- p(X, Y).", Dialect::Elps).is_ok());
    }

    #[test]
    fn pure_lps_accepts_definition_5_shape() {
        assert!(check(
            "disj(X, Y) :- forall U in X, forall V in Y: U != V.",
            Dialect::PureLps
        )
        .is_ok());
        assert!(check("p(X) :- q(X), r(X).", Dialect::PureLps).is_ok());
        assert!(check("p(a).", Dialect::PureLps).is_ok());
    }

    #[test]
    fn pure_lps_rejects_disjunction_and_existentials() {
        let err = check("p(X) :- q(X) ; r(X).", Dialect::PureLps).unwrap_err();
        assert!(matches!(err, CoreError::InvalidClause { .. }));
        let err = check("p(X) :- exists U in X: q(U).", Dialect::PureLps).unwrap_err();
        assert!(matches!(err, CoreError::InvalidClause { .. }));
        // Quantifier not in prefix position.
        let err = check("p(X) :- q(X), forall U in X: r(U).", Dialect::PureLps).unwrap_err();
        assert!(matches!(err, CoreError::InvalidClause { .. }));
        // All are fine in Lps.
        assert!(check("p(X) :- q(X) ; r(X).", Dialect::Lps).is_ok());
        assert!(check("p(X) :- q(X), forall U in X: r(U).", Dialect::Lps).is_ok());
    }

    #[test]
    fn negation_needs_stratified_dialect() {
        let err = check("p(X) :- q(X), not r(X).", Dialect::Elps).unwrap_err();
        assert!(matches!(err, CoreError::InvalidClause { .. }));
        assert!(check("p(X) :- q(X), not r(X).", Dialect::StratifiedElps).is_ok());
    }

    #[test]
    fn grouping_needs_stratified_dialect() {
        let err = check("owns(P, <C>) :- car(P, C).", Dialect::Elps).unwrap_err();
        assert!(matches!(err, CoreError::InvalidClause { .. }));
        assert!(check("owns(P, <C>) :- car(P, C).", Dialect::StratifiedElps).is_ok());
    }

    #[test]
    fn at_most_one_grouping_slot() {
        let err = check("p(<X>, <Y>) :- q(X, Y).", Dialect::StratifiedElps).unwrap_err();
        assert!(matches!(err, CoreError::InvalidClause { .. }));
    }

    #[test]
    fn grouping_fact_is_rejected() {
        let err = check("p(<X>).", Dialect::StratifiedElps).unwrap_err();
        assert!(matches!(err, CoreError::InvalidClause { .. }));
    }

    #[test]
    fn arithmetic_restricted_to_comparisons() {
        let err = check("p(X + 1) :- q(X).", Dialect::Elps).unwrap_err();
        assert!(matches!(err, CoreError::InvalidClause { .. }));
        let err = check("p(Y) :- q(X + 1, Y).", Dialect::Elps).unwrap_err();
        assert!(matches!(err, CoreError::InvalidClause { .. }));
        assert!(check("p(Y) :- q(X), Y = X + 1.", Dialect::Elps).is_ok());
    }

    #[test]
    fn nested_sets_rejected_without_elps() {
        let err = check("p({{a}}).", Dialect::Lps).unwrap_err();
        assert!(matches!(err, CoreError::Sort { .. }));
        assert!(check("p({{a}}).", Dialect::Elps).is_ok());
    }

    #[test]
    fn pure_body_recognizer() {
        let c = parse_clause("p(X) :- forall U in X: q(U).").unwrap();
        assert!(is_pure_lps_body(c.body.as_ref().unwrap()));
        let c = parse_clause("p(X) :- forall U in X: (q(U), r(U)).").unwrap();
        assert!(is_pure_lps_body(c.body.as_ref().unwrap()));
        let c = parse_clause("p(X) :- forall U in X: (q(U) ; r(U)).").unwrap();
        assert!(!is_pure_lps_body(c.body.as_ref().unwrap()));
        // Domain must be a variable in Definition 5.
        let c = parse_clause("p(X) :- forall U in {a, b}: q(U).").unwrap();
        assert!(!is_pure_lps_body(c.body.as_ref().unwrap()));
    }
}
