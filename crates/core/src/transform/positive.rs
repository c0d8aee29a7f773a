//! The Theorem-6 compiler: positive-formula bodies → pure LPS.
//!
//! Two implementations are provided:
//!
//! * [`compile_positive_paper`] — the *literal* inductive construction
//!   from the proof of Theorem 6 (binary conjunction/disjunction
//!   splits, an auxiliary predicate per connective). On the paper's
//!   `union` example this yields exactly the 11-clause program of
//!   Example 9.
//! * [`normalize_program`] — an optimized compiler producing far fewer
//!   auxiliary predicates: conjunctions of atoms stay inline,
//!   disjunction/complex-negation/quantified-subformula cases get
//!   auxiliaries, and top-level existentials inline as membership
//!   literals. Its output is what the engine evaluates.
//!
//! Both preserve the paper's semantics; experiment E4 measures the
//! difference in auxiliary-predicate count and evaluation cost.
//!
//! **Scope subtlety** (§4.1 of the paper): `(∀x∈X)(A ∧ B)` is *not*
//! `A ∧ (∀x∈X)B` when `X` may be empty, so neither compiler ever
//! hoists a conjunct out of a quantifier. Likewise `∃` *inside* a `∀`
//! is chosen per element, so it is compiled through an auxiliary
//! predicate rather than inlined (inlining is only valid at the top
//! level of a clause body, where the clause closure makes it an
//! outer existential).

use lps_syntax::{Clause, CmpOp, Formula, HeadArg, HeadAtom, Item, Literal, Program, Span, Term};

use crate::error::CoreError;
use crate::fresh::FreshNames;

/// Result of compiling one clause: the replacement clauses, in order
/// (auxiliary definitions first).
pub type Compiled = Vec<Clause>;

fn var(name: &str) -> Term {
    Term::Var(name.to_owned(), Span::default())
}

fn head_of(pred: &str, vars: &[String]) -> HeadAtom {
    HeadAtom {
        pred: pred.to_owned(),
        args: vars.iter().map(|v| HeadArg::Term(var(v))).collect(),
        span: Span::default(),
    }
}

fn pred_lit(pred: &str, vars: &[String]) -> Formula {
    Formula::Lit(Literal::Pred(
        pred.to_owned(),
        vars.iter().map(|v| var(v)).collect(),
        Span::default(),
    ))
}

fn clause(head: HeadAtom, body: Option<Formula>) -> Clause {
    Clause {
        head,
        body,
        span: Span::default(),
    }
}

/// Compile a whole program with the paper's construction. Clauses
/// whose bodies are already in Definition-5 form pass through; others
/// are replaced by `f(A :- B)`.
pub fn compile_positive_paper(program: &Program) -> Result<Program, CoreError> {
    let mut fresh = FreshNames::for_program(program);
    let mut items = Vec::new();
    for item in &program.items {
        match item {
            Item::Decl(d) => items.push(Item::Decl(d.clone())),
            Item::Clause(c) => {
                for out in compile_clause_paper(c, &mut fresh)? {
                    items.push(Item::Clause(out));
                }
            }
        }
    }
    Ok(Program { items })
}

/// The paper's `f(A :- B)` on a single clause.
pub fn compile_clause_paper(c: &Clause, fresh: &mut FreshNames) -> Result<Compiled, CoreError> {
    let Some(body) = &c.body else {
        return Ok(vec![c.clone()]);
    };
    if !body.is_positive() {
        return Err(CoreError::invalid(
            c.span,
            "Theorem 6 applies to positive formulas only (Definition 12)",
        ));
    }
    let mut out = Vec::new();
    f_construct(c.head.clone(), body.clone(), fresh, &mut out);
    Ok(out)
}

/// Cases 1–5 of the proof of Theorem 6.
fn f_construct(head: HeadAtom, body: Formula, fresh: &mut FreshNames, out: &mut Vec<Clause>) {
    match body {
        // Case 1: atomic.
        Formula::Lit(_) => out.push(clause(head, Some(body))),
        // Case 2: C₁ ∧ C₂ (n-ary folded as binary, like the proof).
        Formula::And(mut fs) => {
            if fs.len() == 1 {
                let only = fs.pop().expect("len checked");
                f_construct(head, only, fresh, out);
                return;
            }
            let c1 = fs.remove(0);
            let c2 = Formula::and(fs);
            let n1 = fresh.pred("aux");
            let n2 = fresh.pred("aux");
            let v1 = c1.free_vars();
            let v2 = c2.free_vars();
            f_construct(head_of(&n1, &v1), c1, fresh, out);
            f_construct(head_of(&n2, &v2), c2, fresh, out);
            out.push(clause(
                head,
                Some(Formula::and(vec![pred_lit(&n1, &v1), pred_lit(&n2, &v2)])),
            ));
        }
        // Case 3: C₁ ∨ C₂.
        Formula::Or(mut fs) => {
            if fs.len() == 1 {
                let only = fs.pop().expect("len checked");
                f_construct(head, only, fresh, out);
                return;
            }
            let c1 = fs.remove(0);
            let c2 = Formula::or(fs);
            let n1 = fresh.pred("aux");
            let n2 = fresh.pred("aux");
            let v1 = c1.free_vars();
            let v2 = c2.free_vars();
            f_construct(head_of(&n1, &v1), c1, fresh, out);
            f_construct(head_of(&n2, &v2), c2, fresh, out);
            out.push(clause(head.clone(), Some(pred_lit(&n1, &v1))));
            out.push(clause(head, Some(pred_lit(&n2, &v2))));
        }
        // Case 4: (∃x∈X)C — A :- N(x̄, x) ∧ x ∈ X.
        Formula::Exists {
            var: x,
            set,
            body: c,
            ..
        } => {
            let n = fresh.pred("aux");
            // Free variables of C, with x included (the proof's
            // (n+1)-ary predicate); keep x last for readability.
            let mut vars = c.free_vars();
            vars.retain(|v| v != &x);
            vars.push(x.clone());
            f_construct(head_of(&n, &vars), *c, fresh, out);
            out.push(clause(
                head,
                Some(Formula::and(vec![
                    pred_lit(&n, &vars),
                    Formula::Lit(Literal::Cmp(CmpOp::In, var(&x), set, Span::default())),
                ])),
            ));
        }
        // Case 5: (∀x∈X)C — A :- (∀x∈X) N(x̄, x).
        Formula::Forall {
            var: x,
            set,
            body: c,
            ..
        } => {
            let n = fresh.pred("aux");
            let mut vars = c.free_vars();
            vars.retain(|v| v != &x);
            vars.push(x.clone());
            f_construct(head_of(&n, &vars), *c, fresh, out);
            out.push(clause(
                head,
                Some(Formula::Forall {
                    var: x.clone(),
                    set,
                    body: Box::new(pred_lit(&n, &vars)),
                    span: Span::default(),
                }),
            ));
        }
        Formula::Not(..) => unreachable!("checked positive"),
    }
}

// ---------------------------------------------------------------------
// Optimized normalizer.
// ---------------------------------------------------------------------

/// A flattened body item produced by the normalizer.
enum Flat {
    /// A plain literal.
    Lit(Literal),
    /// A negated literal (StratifiedElps only).
    Neg(Literal),
    /// A quantifier group: binder prefix over literal items.
    Group {
        binders: Vec<(String, Term)>,
        inner: Vec<Flat>,
    },
}

/// Normalize every clause of a program into evaluable shape: bodies
/// become conjunctions of (possibly negated) literals plus at most one
/// `(∀…)` group whose inner part is again literals. Top-level
/// disjunctions split the clause; disjunctions/existentials/complex
/// negations *under* a quantifier are compiled into auxiliary
/// predicates **guarded by the clause's positive context literals**,
/// which keeps the auxiliaries range-restricted (a deviation from the
/// paper's unguarded construction, recorded in DESIGN.md §4; the
/// unguarded construction is available as [`compile_positive_paper`]).
pub fn normalize_program(program: &Program) -> Result<Program, CoreError> {
    normalize_with(program, FreshNames::for_program(program))
}

/// [`normalize_program`] drawing auxiliary names from `fresh`.
pub fn normalize_with(program: &Program, mut fresh: FreshNames) -> Result<Program, CoreError> {
    let mut items = Vec::new();
    for item in &program.items {
        match item {
            Item::Decl(d) => items.push(Item::Decl(d.clone())),
            Item::Clause(c) => {
                for out in normalize_clause(c, &mut fresh)? {
                    items.push(Item::Clause(out));
                }
            }
        }
    }
    Ok(Program { items })
}

/// Normalize one clause (auxiliary clauses emitted first).
pub fn normalize_clause(c: &Clause, fresh: &mut FreshNames) -> Result<Compiled, CoreError> {
    let Some(body) = &c.body else {
        return Ok(vec![c.clone()]);
    };
    // Distribute top-level disjunctions: A :- P ∧ (C₁ ∨ C₂) splits into
    // A :- P ∧ C₁ and A :- P ∧ C₂ (least-model preserving).
    let bodies = distribute_or(body);
    let mut out = Vec::new();
    for b in bodies {
        normalize_one(c, &b, fresh, &mut out)?;
    }
    Ok(out)
}

/// Expand top-level (conjunctive-position) disjunctions into a list of
/// disjunction-free-at-top-level bodies.
fn distribute_or(body: &Formula) -> Vec<Formula> {
    let conjuncts: Vec<&Formula> = match body {
        Formula::And(fs) => fs.iter().collect(),
        other => vec![other],
    };
    let mut alternatives: Vec<Vec<Formula>> = vec![Vec::new()];
    for c in conjuncts {
        match c {
            Formula::Or(ds) => {
                let mut next = Vec::with_capacity(alternatives.len() * ds.len());
                for alt in &alternatives {
                    for d in ds {
                        // Each disjunct may itself be a conjunction
                        // with further Ors: recurse.
                        for sub in distribute_or(d) {
                            let mut a = alt.clone();
                            a.push(sub);
                            next.push(a);
                        }
                    }
                }
                alternatives = next;
            }
            other => {
                for alt in &mut alternatives {
                    alt.push(other.clone());
                }
            }
        }
    }
    alternatives.into_iter().map(Formula::and).collect()
}

fn normalize_one(
    c: &Clause,
    body: &Formula,
    fresh: &mut FreshNames,
    out: &mut Vec<Clause>,
) -> Result<(), CoreError> {
    // Context literals: positive, non-builtin predicate atoms at the
    // top level. These guard auxiliary-clause bodies so aux heads stay
    // range-restricted.
    let conjuncts: Vec<&Formula> = match body {
        Formula::And(fs) => fs.iter().collect(),
        other => vec![other],
    };
    let ctx: Vec<Formula> = conjuncts
        .iter()
        .filter(|f| {
            matches!(f, Formula::Lit(Literal::Pred(name, args, _))
                if lps_engine::Builtin::from_pred_name(name, args.len()).is_none())
        })
        .map(|f| (*f).clone())
        .collect();

    let mut aux = Vec::new();
    let items = flatten(body.clone(), false, &ctx, fresh, &mut aux)?;
    // Keep at most one group inline; wrap the rest in auxiliaries.
    let mut lits: Vec<Formula> = Vec::new();
    let mut group_seen = false;
    for item in items {
        match item {
            Flat::Lit(l) => lits.push(Formula::Lit(l)),
            Flat::Neg(l) => lits.push(Formula::Not(Box::new(Formula::Lit(l)), Span::default())),
            Flat::Group { binders, inner } => {
                let formula = rebuild_group(&binders, inner);
                if group_seen {
                    emit_aux_with_ctx(&formula, &ctx, fresh, &mut aux, &mut lits)?;
                } else {
                    group_seen = true;
                    lits.push(formula);
                }
            }
        }
    }
    let new_body = Formula::and(lits);
    out.append(&mut aux);
    out.push(Clause {
        head: c.head.clone(),
        body: Some(new_body),
        span: c.span,
    });
    Ok(())
}

/// Create an auxiliary predicate for `formula`, guarded by `ctx`, and
/// push the call literal onto `lits`.
fn emit_aux_with_ctx(
    formula: &Formula,
    ctx: &[Formula],
    fresh: &mut FreshNames,
    aux: &mut Vec<Clause>,
    lits: &mut Vec<Formula>,
) -> Result<(), CoreError> {
    let n = fresh.pred("aux");
    let vars = formula.free_vars();
    let mut guarded = ctx.to_vec();
    guarded.push(formula.clone());
    let aux_clause = clause(head_of(&n, &vars), Some(Formula::and(guarded)));
    aux.extend(normalize_clause(&aux_clause, fresh)?);
    lits.push(pred_lit(&n, &vars));
    Ok(())
}

fn rebuild_group(binders: &[(String, Term)], inner: Vec<Flat>) -> Formula {
    let inner_fs: Vec<Formula> = inner
        .into_iter()
        .map(|i| match i {
            Flat::Lit(l) => Formula::Lit(l),
            Flat::Neg(l) => Formula::Not(Box::new(Formula::Lit(l)), Span::default()),
            Flat::Group { .. } => unreachable!("nested groups are aux-wrapped"),
        })
        .collect();
    let mut f = Formula::and(inner_fs);
    for (v, set) in binders.iter().rev() {
        f = Formula::Forall {
            var: v.clone(),
            set: set.clone(),
            body: Box::new(f),
            span: Span::default(),
        };
    }
    f
}

/// Flatten a formula into items. `inside_forall` controls the
/// existential-inlining rule (see module docs).
fn flatten(
    f: Formula,
    inside_forall: bool,
    ctx: &[Formula],
    fresh: &mut FreshNames,
    aux: &mut Vec<Clause>,
) -> Result<Vec<Flat>, CoreError> {
    match f {
        Formula::Lit(l) => Ok(vec![Flat::Lit(l)]),
        Formula::And(fs) => {
            let mut out = Vec::new();
            for f in fs {
                out.extend(flatten(f, inside_forall, ctx, fresh, aux)?);
            }
            Ok(out)
        }
        Formula::Not(inner, span) => {
            match *inner {
                Formula::Lit(l) => Ok(vec![Flat::Neg(l)]),
                complex => {
                    // Complex negation: auxiliary predicate, negated.
                    if !complex.is_positive() {
                        return Err(CoreError::invalid(
                            span,
                            "nested negation is not supported; stratify explicitly",
                        ));
                    }
                    let mut lits = Vec::new();
                    emit_aux_with_ctx(&complex, ctx, fresh, aux, &mut lits)?;
                    let Formula::Lit(call) = lits.pop().expect("one call emitted") else {
                        unreachable!("emit_aux_with_ctx pushes a literal");
                    };
                    Ok(vec![Flat::Neg(call)])
                }
            }
        }
        Formula::Or(fs) => {
            // Under a quantifier (or left over after distribution):
            // auxiliary predicate with one guarded clause per disjunct.
            let whole = Formula::Or(fs);
            let n = fresh.pred("aux");
            let vars = whole.free_vars();
            let Formula::Or(fs) = whole else {
                unreachable!()
            };
            for disjunct in fs {
                let mut guarded = ctx.to_vec();
                guarded.push(disjunct);
                let aux_clause = clause(head_of(&n, &vars), Some(Formula::and(guarded)));
                aux.extend(normalize_clause(&aux_clause, fresh)?);
            }
            Ok(vec![Flat::Lit(Literal::Pred(
                n,
                vars.iter().map(|v| var(v)).collect(),
                Span::default(),
            ))])
        }
        Formula::Exists {
            var: x,
            set,
            body,
            span,
        } => {
            if inside_forall {
                // Per-element choice: compile through an auxiliary.
                let whole = Formula::Exists {
                    var: x,
                    set,
                    body,
                    span,
                };
                let mut lits = Vec::new();
                emit_aux_with_ctx(&whole, ctx, fresh, aux, &mut lits)?;
                let Formula::Lit(call) = lits.pop().expect("one call emitted") else {
                    unreachable!();
                };
                Ok(vec![Flat::Lit(call)])
            } else {
                // Top level: the clause closure makes this an outer
                // existential — inline a membership literal. Rename the
                // binder to avoid clashes.
                let x2 = fresh.var("Ex");
                let renamed = rename_var(*body, &x, &x2);
                let mut out = vec![Flat::Lit(Literal::Cmp(CmpOp::In, var(&x2), set, span))];
                out.extend(flatten(renamed, false, ctx, fresh, aux)?);
                Ok(out)
            }
        }
        Formula::Forall {
            var: x,
            set,
            body,
            span,
        } => {
            if inside_forall {
                // A ∀ nested below another ∀ but not in chain position
                // is aux-wrapped.
                let whole = Formula::Forall {
                    var: x,
                    set,
                    body,
                    span,
                };
                let mut lits = Vec::new();
                emit_aux_with_ctx(&whole, ctx, fresh, aux, &mut lits)?;
                let Formula::Lit(call) = lits.pop().expect("one call emitted") else {
                    unreachable!();
                };
                return Ok(vec![Flat::Lit(call)]);
            }
            // Collect the ∀-chain: ∀x₁∈X₁ … ∀xₙ∈Xₙ body (renaming
            // binders to fresh names to eliminate shadowing).
            let mut binders = Vec::new();
            let mut cur_var = x;
            let mut cur_set = set;
            let mut cur_body = body;
            loop {
                let x2 = fresh.var("Q");
                let renamed = rename_var(*cur_body, &cur_var, &x2);
                binders.push((x2, cur_set));
                match renamed {
                    Formula::Forall {
                        var: v2,
                        set: s2,
                        body: b2,
                        ..
                    } => {
                        cur_var = v2;
                        cur_set = s2;
                        cur_body = b2;
                    }
                    other => {
                        *cur_body = other;
                        break;
                    }
                }
            }
            let inner_items = flatten(*cur_body, true, ctx, fresh, aux)?;
            // Inner groups were aux-wrapped by the recursion, so all
            // items are literals.
            Ok(vec![Flat::Group {
                binders,
                inner: inner_items,
            }])
        }
    }
}

/// Rename free occurrences of `from` to `to` in a formula.
fn rename_var(mut f: Formula, from: &str, to: &str) -> Formula {
    fn formula(f: &mut Formula, from: &str, to: &str) {
        match f {
            Formula::Lit(Literal::Pred(_, args, _)) => {
                args.iter_mut().for_each(|t| term(t, from, to))
            }
            Formula::Lit(Literal::Cmp(_, l, r, _)) => {
                term(l, from, to);
                term(r, from, to);
            }
            Formula::Not(inner, _) => formula(inner, from, to),
            Formula::And(fs) | Formula::Or(fs) => fs.iter_mut().for_each(|f| formula(f, from, to)),
            Formula::Forall { var, set, body, .. } | Formula::Exists { var, set, body, .. } => {
                term(set, from, to);
                // A binder of the same name shadows `from` in its body.
                if var != from {
                    formula(body, from, to);
                }
            }
        }
    }
    fn term(t: &mut Term, from: &str, to: &str) {
        match t {
            Term::Var(v, _) if v == from => *v = to.to_owned(),
            Term::App(_, args, _) | Term::SetLit(args, _) => {
                args.iter_mut().for_each(|t| term(t, from, to));
            }
            Term::BinOp(_, l, r, _) => {
                term(l, from, to);
                term(r, from, to);
            }
            Term::Var(..) | Term::Const(..) | Term::Int(..) => {}
        }
    }
    formula(&mut f, from, to);
    f
}

/// Count clauses and distinct auxiliary predicates introduced relative
/// to `original` — the quantities Example 9 reports (11 clauses for
/// `union`). Used by experiment E4.
pub fn compilation_size(original: &Program, compiled: &Program) -> (usize, usize) {
    use std::collections::HashSet;
    let orig_preds: HashSet<&str> = original.clauses().map(|c| c.head.pred.as_str()).collect();
    let clauses = compiled.clauses().count();
    let aux_preds: HashSet<&str> = compiled
        .clauses()
        .map(|c| c.head.pred.as_str())
        .filter(|p| !orig_preds.contains(p))
        .collect();
    (clauses, aux_preds.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::is_pure_lps_body;
    use lps_syntax::parse_program;

    const UNION_SRC: &str = "union(X, Y, Z) :- \
        (forall U in X: U in Z), \
        (forall V in Y: V in Z), \
        (forall W in Z: (W in X ; W in Y)).";

    #[test]
    fn paper_construction_on_union_yields_eleven_clauses() {
        // Example 9: "The proof gives us the program [of 11 clauses]".
        let p = parse_program(UNION_SRC).unwrap();
        let compiled = compile_positive_paper(&p).unwrap();
        let (clauses, aux) = compilation_size(&p, &compiled);
        assert_eq!(clauses, 11, "Example 9's clause count");
        assert!(aux >= 8, "Example 9 introduces N1..N9-style auxiliaries");
        // Every output clause is pure LPS.
        for c in compiled.clauses() {
            if let Some(b) = &c.body {
                assert!(
                    is_pure_lps_body(b),
                    "not pure: {}",
                    lps_syntax::pretty::pretty_clause(c)
                );
            }
        }
    }

    #[test]
    fn paper_construction_passes_through_definition_5_bodies() {
        let p = parse_program("subset(X, Y) :- forall U in X: U in Y.").unwrap();
        let compiled = compile_positive_paper(&p).unwrap();
        // The ∀ case still introduces one auxiliary (the proof is
        // uniform), so expect exactly 2 clauses.
        assert_eq!(compiled.clauses().count(), 2);
    }

    #[test]
    fn paper_construction_rejects_negation() {
        let p = parse_program("p(X) :- not q(X).").unwrap();
        assert!(compile_positive_paper(&p).is_err());
    }

    #[test]
    fn normalizer_keeps_pure_clauses_small() {
        let p = parse_program("subset(X, Y) :- forall U in X: U in Y.").unwrap();
        let n = normalize_program(&p).unwrap();
        assert_eq!(n.clauses().count(), 1, "no auxiliaries needed");
    }

    #[test]
    fn normalizer_on_union_is_smaller_than_paper() {
        let p = parse_program(UNION_SRC).unwrap();
        let paper = compile_positive_paper(&p).unwrap();
        let opt = normalize_program(&p).unwrap();
        let (paper_clauses, _) = compilation_size(&p, &paper);
        let (opt_clauses, opt_aux) = compilation_size(&p, &opt);
        assert!(
            opt_clauses < paper_clauses,
            "{opt_clauses} < {paper_clauses}"
        );
        // Only the disjunction under the third quantifier and the
        // extra groups need auxiliaries.
        assert!(opt_aux <= 3, "got {opt_aux} auxiliaries");
    }

    #[test]
    fn normalizer_inlines_top_level_exists() {
        let p = parse_program("nonempty(X) :- exists U in X: U = U.").unwrap();
        let n = normalize_program(&p).unwrap();
        assert_eq!(n.clauses().count(), 1);
        let c = n.clauses().next().unwrap();
        let printed = lps_syntax::pretty::pretty_clause(c);
        assert!(printed.contains("in X"), "inlined membership: {printed}");
    }

    #[test]
    fn normalizer_auxiliarizes_exists_under_forall() {
        // ∀U∈X ∃V∈Y q(U,V): the ∃ must be per-U.
        let p = parse_program("p(X, Y) :- forall U in X: exists V in Y: q(U, V).").unwrap();
        let n = normalize_program(&p).unwrap();
        assert!(
            n.clauses().count() >= 2,
            "an auxiliary must carry the inner existential"
        );
        // The main clause keeps a ∀ whose body is the auxiliary.
        let main = n.clauses().last().unwrap();
        match main.body.as_ref().unwrap() {
            Formula::Forall { body, .. } => {
                assert!(matches!(**body, Formula::Lit(Literal::Pred(..))));
            }
            other => panic!("expected forall, got {other:?}"),
        }
    }

    #[test]
    fn normalizer_handles_negated_literals() {
        let mut fresh = FreshNames::default();
        let p = parse_program("p(X) :- q(X), not r(X).").unwrap();
        let c = p.clauses().next().unwrap();
        let out = normalize_clause(c, &mut fresh).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn normalizer_distributes_top_level_disjunction() {
        let p = parse_program("p(X) :- q(X) ; r(X).").unwrap();
        let n = normalize_program(&p).unwrap();
        // p :- q. p :- r. — clause split, no auxiliaries.
        assert_eq!(n.clauses().count(), 2);
        for c in n.clauses() {
            assert_eq!(c.head.pred, "p");
        }
        // Conjoined context distributes into both copies.
        let p = parse_program("p(X) :- s(X), (q(X) ; r(X)).").unwrap();
        let n = normalize_program(&p).unwrap();
        assert_eq!(n.clauses().count(), 2);
        for c in n.clauses() {
            let printed = lps_syntax::pretty::pretty_clause(c);
            assert!(printed.contains("s(X)"), "{printed}");
        }
    }

    #[test]
    fn aux_clauses_are_context_guarded() {
        // Disjunction under a quantifier: the aux clauses must carry
        // the outer positive literal so they stay range-restricted.
        let p = parse_program("u(X, Y, Z) :- cand(X, Y, Z), forall W in Z: (W in X ; W in Y).")
            .unwrap();
        let n = normalize_program(&p).unwrap();
        let aux_clauses: Vec<String> = n
            .clauses()
            .filter(|c| c.head.pred.starts_with("aux"))
            .map(lps_syntax::pretty::pretty_clause)
            .collect();
        assert_eq!(aux_clauses.len(), 2, "{aux_clauses:?}");
        for c in &aux_clauses {
            assert!(c.contains("cand(X, Y, Z)"), "guarded: {c}");
        }
    }

    #[test]
    fn binder_shadowing_is_resolved_by_renaming() {
        // The outer U (from q) and the quantified U are different.
        let p = parse_program("p(U, X) :- q(U), forall U in X: r(U).").unwrap();
        let n = normalize_program(&p).unwrap();
        let main = n.clauses().last().unwrap();
        let printed = lps_syntax::pretty::pretty_clause(main);
        // The binder must have been renamed away from U.
        assert!(printed.contains("forall Q"), "renamed binder: {printed}");
        assert!(
            printed.contains("q(U)"),
            "outer occurrence intact: {printed}"
        );
    }

    #[test]
    fn forall_chain_merges_into_one_group() {
        let p = parse_program("disj(X, Y) :- forall U in X: forall V in Y: U != V.").unwrap();
        let n = normalize_program(&p).unwrap();
        assert_eq!(n.clauses().count(), 1, "chains need no auxiliaries");
    }

    #[test]
    fn two_sibling_groups_wrap_the_second() {
        let p = parse_program("p(X, Y) :- (forall U in X: q(U)), (forall V in Y: r(V)).").unwrap();
        let n = normalize_program(&p).unwrap();
        assert_eq!(n.clauses().count(), 2, "second group becomes an auxiliary");
    }

    #[test]
    fn compiled_output_reparses() {
        let p = parse_program(UNION_SRC).unwrap();
        for program in [
            compile_positive_paper(&p).unwrap(),
            normalize_program(&p).unwrap(),
        ] {
            let printed = lps_syntax::pretty_program(&program);
            let reparsed = parse_program(&printed)
                .unwrap_or_else(|e| panic!("{}\n{printed}", e.render(&printed)));
            assert_eq!(
                lps_syntax::pretty_program(&reparsed),
                printed,
                "round-trip stable"
            );
        }
    }
}
