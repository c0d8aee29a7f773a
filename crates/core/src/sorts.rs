//! Sort inference and checking for the two-sorted logic of §2.1.
//!
//! The paper distinguishes sort *a* (individuals) from sort *s* (sets)
//! lexically (`x` vs `X`). Our surface syntax uses capitalization for
//! *variables* instead, so sorts are recovered by unification-based
//! inference:
//!
//! * set literals and quantifier domains force sort *s*;
//! * constants, integers, and function applications force sort *a*;
//! * membership `x in S` forces `S : s` (and, in LPS mode, `x : a`);
//! * `pred p(atom, set)` declarations pin predicate signatures.
//!
//! In **LPS mode** conflicts are errors, as are nested sets and
//! set-sorted function arguments (Definition 1 allows functions only
//! on sort *a*; Example 8 shows why). In **ELPS mode** (§5, untyped)
//! inference still runs — the results feed documentation and the
//! builtin type checks — but a position used at both sorts simply
//! stays `any`.

use std::collections::HashMap;

use lps_syntax::{CmpOp, Formula, HeadArg, Literal, Program, SortAnn, Span, Term};
use lps_term::TermStore;

use crate::dialect::Dialect;
use crate::error::CoreError;
use crate::facts::Facts;

/// Inferred signatures: predicate name → per-argument sort.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SortTable {
    sigs: HashMap<String, Vec<SortAnn>>,
}

impl SortTable {
    /// Signature of a predicate, if seen.
    pub fn signature(&self, pred: &str) -> Option<&[SortAnn]> {
        self.sigs.get(pred).map(Vec::as_slice)
    }

    /// Iterate over all signatures.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[SortAnn])> {
        self.sigs.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }
}

/// Internal sort terms for unification.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum S {
    Atom,
    Set,
    Var(usize),
}

#[derive(Default)]
struct Unifier {
    /// Union-find parent / resolved sort per inference variable.
    vars: Vec<Option<SConst>>,
    links: Vec<Option<usize>>,
    /// Set in ELPS mode: conflicts resolve to `any` instead of erroring.
    lenient: bool,
    conflict: Option<(Span, String)>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SConst {
    Atom,
    Set,
    Any, // lenient conflict
}

impl Unifier {
    fn fresh(&mut self) -> usize {
        self.vars.push(None);
        self.links.push(None);
        self.vars.len() - 1
    }

    fn find(&self, mut v: usize) -> usize {
        while let Some(p) = self.links[v] {
            v = p;
        }
        v
    }

    fn assign(&mut self, v: usize, c: SConst, span: Span, what: &str) {
        let r = self.find(v);
        match self.vars[r] {
            None => self.vars[r] = Some(c),
            Some(existing) if existing == c || existing == SConst::Any => {}
            Some(existing) => {
                if self.lenient {
                    self.vars[r] = Some(SConst::Any);
                } else if self.conflict.is_none() {
                    self.conflict = Some((
                        span,
                        format!(
                            "{what} is used at sort `{}` but was inferred as `{}`",
                            sort_name(c),
                            sort_name(existing)
                        ),
                    ));
                }
            }
        }
    }

    fn unify(&mut self, a: S, b: S, span: Span, what: &str) {
        match (a, b) {
            (S::Var(x), S::Var(y)) => {
                let (rx, ry) = (self.find(x), self.find(y));
                if rx == ry {
                    return;
                }
                match (self.vars[rx], self.vars[ry]) {
                    (Some(_), None) => self.links[ry] = Some(rx),
                    (None, _) => self.links[rx] = Some(ry),
                    (Some(cx), Some(cy)) => {
                        self.links[rx] = Some(ry);
                        if cx != cy {
                            if self.lenient {
                                self.vars[ry] = Some(SConst::Any);
                            } else if self.conflict.is_none() {
                                self.conflict = Some((
                                    span,
                                    format!(
                                        "{what}: sort `{}` conflicts with `{}`",
                                        sort_name(cx),
                                        sort_name(cy)
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
            (S::Var(x), S::Atom) | (S::Atom, S::Var(x)) => self.assign(x, SConst::Atom, span, what),
            (S::Var(x), S::Set) | (S::Set, S::Var(x)) => self.assign(x, SConst::Set, span, what),
            (S::Atom, S::Atom) | (S::Set, S::Set) => {}
            (S::Atom, S::Set) | (S::Set, S::Atom) => {
                if !self.lenient && self.conflict.is_none() {
                    self.conflict =
                        Some((span, format!("{what}: sort `a` conflicts with sort `s`")));
                }
            }
        }
    }

    fn resolve(&self, v: usize) -> SortAnn {
        match self.vars[self.find(v)] {
            Some(SConst::Atom) => SortAnn::Atom,
            Some(SConst::Set) => SortAnn::Set,
            Some(SConst::Any) | None => SortAnn::Any,
        }
    }
}

fn sort_name(c: SConst) -> &'static str {
    match c {
        SConst::Atom => "a",
        SConst::Set => "s",
        SConst::Any => "any",
    }
}

/// Per-clause variable sort environment.
type VarEnv = HashMap<String, usize>;

struct Inference {
    u: Unifier,
    /// predicate name → inference vars per position.
    preds: HashMap<String, Vec<usize>>,
    dialect: Dialect,
}

/// Infer (and in LPS mode, check) sorts for a program.
pub fn infer_sorts(program: &Program, dialect: Dialect) -> Result<SortTable, CoreError> {
    infer_with_facts(program, dialect, &Facts::default(), &TermStore::new())
}

/// [`infer_sorts`] over a program's rules plus ground facts interned
/// in `store`, which take part as a per-column summary: a column's
/// first sort and span, and whether another sort occurs in it. Facts
/// count as preceding the rules.
pub(crate) fn infer_with_facts(
    program: &Program,
    dialect: Dialect,
    facts: &Facts,
    store: &TermStore,
) -> Result<SortTable, CoreError> {
    let mut inf = Inference {
        u: Unifier {
            lenient: dialect.allows_nesting(),
            ..Unifier::default()
        },
        preds: HashMap::new(),
        dialect,
    };

    // Declarations pin signatures.
    for decl in program.decls() {
        let vars = inf.pred_vars(&decl.name, decl.sorts.len());
        for (i, s) in decl.sorts.iter().enumerate() {
            let v = vars[i];
            match s {
                SortAnn::Atom => inf.u.assign(v, SConst::Atom, decl.span, &decl.name),
                SortAnn::Set => inf.u.assign(v, SConst::Set, decl.span, &decl.name),
                SortAnn::Any => {}
            }
        }
    }

    for (pred, (span, cols)) in facts.batch.preds().iter().zip(&facts.sorts) {
        let name = store.symbols().name(pred.name);
        let vars = inf.arity_checked(name, pred.arity, *span)?;
        for (c, (&v, &(set, span))) in vars.iter().zip(cols).enumerate() {
            let sort = |set| if set { SConst::Set } else { SConst::Atom };
            inf.u.assign(v, sort(set), span, name);
            // Only a lenient column can mix sorts: the loader rejects it.
            if pred.rows().any(|row| store.is_set(row[c]) != set) {
                inf.u.assign(v, sort(!set), span, name);
            }
        }
    }
    if let Some(err) = inf.u.conflict.take() {
        return Err(CoreError::sort(err.0, err.1));
    }

    for clause in program.clauses() {
        let mut env: VarEnv = HashMap::new();
        // Head.
        let head = &clause.head;
        let head_vars = inf.arity_checked(&head.pred, head.args.len(), head.span)?;
        for (i, arg) in clause.head.args.iter().enumerate() {
            let slot = head_vars[i];
            match arg {
                HeadArg::Term(t) => {
                    let s = inf.term_sort(t, &mut env)?;
                    inf.u.unify(S::Var(slot), s, t.span(), &clause.head.pred);
                }
                HeadArg::Group(_, span) => {
                    // A grouping slot produces a set.
                    inf.u.assign(slot, SConst::Set, *span, &clause.head.pred);
                }
            }
        }
        if let Some(body) = &clause.body {
            inf.formula(body, &mut env)?;
        }
        // Grouping variable is collected from body bindings; its own
        // sort is whatever the body gives it (checked above via env).
        if let Some(err) = inf.u.conflict.take() {
            return Err(CoreError::sort(err.0, err.1));
        }
    }

    if let Some(err) = inf.u.conflict.take() {
        return Err(CoreError::sort(err.0, err.1));
    }

    let mut table = SortTable::default();
    for (name, vars) in &inf.preds {
        table.sigs.insert(
            name.clone(),
            vars.iter().map(|&v| inf.u.resolve(v)).collect(),
        );
    }
    Ok(table)
}

impl Inference {
    fn pred_vars(&mut self, name: &str, arity: usize) -> Vec<usize> {
        if !self.preds.contains_key(name) {
            let vars: Vec<usize> = (0..arity).map(|_| self.u.fresh()).collect();
            self.preds.insert(name.to_owned(), vars);
        }
        self.preds[name].clone()
    }

    /// [`Inference::pred_vars`], rejecting a use of `name` at another
    /// arity than its first.
    fn arity_checked(&mut self, name: &str, n: usize, span: Span) -> Result<Vec<usize>, CoreError> {
        let vars = self.pred_vars(name, n);
        if vars.len() != n {
            return Err(CoreError::invalid(
                span,
                format!(
                    "`{name}` used with {n} arguments but declared/used elsewhere with {}",
                    vars.len()
                ),
            ));
        }
        Ok(vars)
    }

    fn var_slot(&mut self, env: &mut VarEnv, name: &str) -> usize {
        if let Some(&v) = env.get(name) {
            return v;
        }
        let v = self.u.fresh();
        env.insert(name.to_owned(), v);
        v
    }

    fn term_sort(&mut self, t: &Term, env: &mut VarEnv) -> Result<S, CoreError> {
        match t {
            Term::Var(v, _) => Ok(S::Var(self.var_slot(env, v))),
            Term::Const(..) | Term::Int(..) => Ok(S::Atom),
            Term::App(f, args, _) => {
                for a in args {
                    let s = self.term_sort(a, env)?;
                    if !self.dialect.allows_nesting() {
                        // Definition 1: function symbols take sort a.
                        self.u
                            .unify(s, S::Atom, a.span(), &format!("argument of `{f}`"));
                    }
                }
                Ok(S::Atom)
            }
            Term::SetLit(elems, _) => {
                for e in elems {
                    let s = self.term_sort(e, env)?;
                    if !self.dialect.allows_nesting() {
                        // One level of nesting only (§2.1).
                        self.u
                            .unify(s, S::Atom, e.span(), "set element in LPS mode");
                    }
                }
                Ok(S::Set)
            }
            Term::BinOp(_, l, r, _) => {
                let ls = self.term_sort(l, env)?;
                let rs = self.term_sort(r, env)?;
                self.u.unify(ls, S::Atom, l.span(), "arithmetic operand");
                self.u.unify(rs, S::Atom, r.span(), "arithmetic operand");
                Ok(S::Atom)
            }
        }
    }

    fn formula(&mut self, f: &Formula, env: &mut VarEnv) -> Result<(), CoreError> {
        match f {
            Formula::Lit(lit) => self.literal(lit, env),
            Formula::Not(inner, _) => self.formula(inner, env),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    self.formula(f, env)?;
                }
                Ok(())
            }
            Formula::Forall {
                var,
                set,
                body,
                span,
            }
            | Formula::Exists {
                var,
                set,
                body,
                span,
            } => {
                let ds = self.term_sort(set, env)?;
                self.u.unify(ds, S::Set, set.span(), "quantifier domain");
                // The bound variable shadows; give it a fresh slot.
                let saved = env.remove(var);
                let slot = self.var_slot(env, var);
                if !self.dialect.allows_nesting() {
                    // LPS: elements of sets are individuals.
                    self.u.assign(slot, SConst::Atom, *span, var);
                }
                self.formula(body, env)?;
                env.remove(var);
                if let Some(old) = saved {
                    env.insert(var.clone(), old);
                }
                Ok(())
            }
        }
    }

    fn literal(&mut self, lit: &Literal, env: &mut VarEnv) -> Result<(), CoreError> {
        match lit {
            Literal::Pred(name, args, span) => {
                let vars = self.arity_checked(name, args.len(), *span)?;
                for (i, a) in args.iter().enumerate() {
                    let s = self.term_sort(a, env)?;
                    self.u.unify(S::Var(vars[i]), s, a.span(), name);
                }
                Ok(())
            }
            Literal::Cmp(op, lhs, rhs, span) => {
                let ls = self.term_sort(lhs, env)?;
                let rs = self.term_sort(rhs, env)?;
                match op {
                    CmpOp::Eq | CmpOp::Ne => {
                        self.u.unify(ls, rs, *span, "equality operands");
                    }
                    CmpOp::In | CmpOp::NotIn => {
                        self.u
                            .unify(rs, S::Set, rhs.span(), "membership right-hand side");
                        if !self.dialect.allows_nesting() {
                            self.u
                                .unify(ls, S::Atom, lhs.span(), "membership left-hand side");
                        }
                    }
                    CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                        self.u.unify(ls, S::Atom, lhs.span(), "comparison operand");
                        self.u.unify(rs, S::Atom, rhs.span(), "comparison operand");
                    }
                }
                Ok(())
            }
        }
    }
}

/// The error for a set literal nested in another in a non-nesting
/// dialect.
pub(crate) fn nested_set_error(span: Span) -> CoreError {
    CoreError::sort(
        span,
        "nested set literal: LPS allows one level of nesting (use the ELPS dialect)",
    )
}

/// Ensure the program is within LPS's one-level set discipline (used
/// by validation when the dialect forbids nesting): no nested set
/// literals anywhere.
pub fn check_flat_sets(program: &Program) -> Result<(), CoreError> {
    fn check_term(t: &Term, inside_set: bool) -> Result<(), CoreError> {
        match t {
            Term::SetLit(_, span) if inside_set => Err(nested_set_error(*span)),
            Term::SetLit(elems, _) => elems.iter().try_for_each(|e| check_term(e, true)),
            Term::App(_, args, _) => args.iter().try_for_each(|a| check_term(a, inside_set)),
            Term::BinOp(_, l, r, _) => [l, r]
                .into_iter()
                .try_for_each(|t| check_term(t, inside_set)),
            Term::Var(..) | Term::Const(..) | Term::Int(..) => Ok(()),
        }
    }
    fn check_formula(f: &Formula) -> Result<(), CoreError> {
        match f {
            Formula::Lit(Literal::Pred(_, args, _)) => {
                args.iter().try_for_each(|t| check_term(t, false))
            }
            Formula::Lit(Literal::Cmp(_, l, r, _)) => {
                [l, r].into_iter().try_for_each(|t| check_term(t, false))
            }
            Formula::Not(inner, _) => check_formula(inner),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().try_for_each(check_formula),
            Formula::Forall { set, body, .. } | Formula::Exists { set, body, .. } => {
                check_term(set, false)?;
                check_formula(body)
            }
        }
    }
    for clause in program.clauses() {
        for arg in &clause.head.args {
            if let HeadArg::Term(t) = arg {
                check_term(t, false)?;
            }
        }
        clause.body.iter().try_for_each(check_formula)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lps_syntax::parse_program;

    fn infer(src: &str, dialect: Dialect) -> Result<SortTable, CoreError> {
        infer_sorts(&parse_program(src).unwrap(), dialect)
    }

    #[test]
    fn infers_example_2_subset() {
        let t = infer("subset(X, Y) :- forall U in X: U in Y.", Dialect::Lps).unwrap();
        assert_eq!(
            t.signature("subset"),
            Some(&[SortAnn::Set, SortAnn::Set][..])
        );
    }

    #[test]
    fn infers_mixed_signature_from_unnest() {
        // s(X, Y) :- r(X, Ys), Y in Ys.  — r : (any, set), s : (any, any)
        let t = infer("s(X, Y) :- r(X, Ys), Y in Ys.", Dialect::Lps).unwrap();
        let r = t.signature("r").unwrap();
        assert_eq!(r[1], SortAnn::Set);
        // In LPS mode membership LHS is an atom.
        let s = t.signature("s").unwrap();
        assert_eq!(s[1], SortAnn::Atom);
    }

    #[test]
    fn declaration_pins_signature() {
        let t = infer("pred cost(atom, atom).\ncost(bolt, 2).", Dialect::Lps).unwrap();
        assert_eq!(
            t.signature("cost"),
            Some(&[SortAnn::Atom, SortAnn::Atom][..])
        );
    }

    #[test]
    fn conflict_is_error_in_lps_mode() {
        // p used at sort s (quantifier domain) and sort a (arith).
        let err = infer(
            "q(X) :- p(X), forall U in X: U = U.\nr(X) :- p(X), X < 3.",
            Dialect::Lps,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Sort { .. }), "{err}");
    }

    #[test]
    fn conflict_is_any_in_elps_mode() {
        let t = infer(
            "q(X) :- p(X), forall U in X: U = U.\nr(X) :- p(X), X < 3.",
            Dialect::Elps,
        )
        .unwrap();
        assert_eq!(t.signature("p"), Some(&[SortAnn::Any][..]));
    }

    #[test]
    fn set_literal_elements_must_be_atoms_in_lps() {
        let err = infer("p({{a}}).", Dialect::Lps).unwrap_err();
        assert!(matches!(err, CoreError::Sort { .. }));
        // Fine in ELPS.
        assert!(infer("p({{a}}).", Dialect::Elps).is_ok());
    }

    #[test]
    fn function_args_must_be_atoms_in_lps() {
        // f(X) with X a set (from the quantifier domain) — Example 8.
        let err = infer("p(Y) :- q(X), Y = f(X), forall U in X: r(U).", Dialect::Lps).unwrap_err();
        assert!(matches!(err, CoreError::Sort { .. }));
    }

    #[test]
    fn quantifier_binder_shadows_outer_variable() {
        // Outer U is an atom via cost; inner U ranges over X's elements.
        let t = infer("p(U, X) :- cost(U), forall U in X: q(U).", Dialect::Lps).unwrap();
        assert_eq!(t.signature("p").unwrap()[1], SortAnn::Set);
    }

    #[test]
    fn grouping_slot_is_a_set() {
        let t = infer("owns(P, <C>) :- car(P, C).", Dialect::StratifiedElps).unwrap();
        assert_eq!(t.signature("owns").unwrap()[1], SortAnn::Set);
    }

    #[test]
    fn arity_mismatch_reported() {
        let err = infer("p(a). q(X) :- p(X, X).", Dialect::Elps).unwrap_err();
        assert!(matches!(err, CoreError::InvalidClause { .. }));
    }

    #[test]
    fn flat_set_check() {
        let ok = parse_program("p({a, b}).").unwrap();
        assert!(check_flat_sets(&ok).is_ok());
        let nested = parse_program("p({{a}}).").unwrap();
        assert!(check_flat_sets(&nested).is_err());
    }
}
