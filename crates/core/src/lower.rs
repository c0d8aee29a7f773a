//! Lowering: normalized surface clauses → engine rule IR.
//!
//! Expects clauses in the shape produced by
//! [`crate::transform::positive::normalize_program`]: bodies are
//! conjunctions of (possibly negated) literals plus at most one
//! restricted-universal group whose inner part is again literals.
//! Arithmetic expressions are flattened here into `add`/`sub`/`mul`
//! builtin literals with temporary variables.

use std::collections::HashMap;

use lps_engine::pattern::{Pattern, VarId};
use lps_engine::{BodyLit, Builtin, Engine, GroupSpec, PredId, QuantGroup, Rule, MAX_ARITY};
use lps_syntax::{ArithOp, Clause, CmpOp, Formula, HeadArg, Literal, Program, Span, Term};

use crate::error::CoreError;
use crate::sorts::SortTable;
use crate::validate::is_special_pred;

/// Reject predicates wider than [`MAX_ARITY`] — the widest relation a
/// column mask can index — with an error at `span` instead of a panic
/// deep in the engine.
pub(crate) fn check_arity(name: &str, arity: usize, span: Span) -> Result<(), CoreError> {
    if arity > MAX_ARITY {
        return Err(CoreError::invalid(
            span,
            format!("`{name}` has {arity} arguments; at most {MAX_ARITY} are supported"),
        ));
    }
    Ok(())
}

/// Register `name/arity` with `engine` after [`check_arity`].
pub(crate) fn register_pred(
    engine: &mut Engine,
    name: &str,
    arity: usize,
    span: Span,
) -> Result<PredId, CoreError> {
    check_arity(name, arity, span)?;
    Ok(engine.pred(name, arity))
}

/// Lower a normalized program's declarations and rules into `engine`,
/// with sort annotations from the two-sorted inference (§2.1):
/// engine-level universe enumeration then respects variable sorts.
/// Ground facts do not come this way: they load as interned rows
/// ([`Engine::load_batch`]), the engine's EDB layer.
pub fn load_program_sorted(
    engine: &mut Engine,
    program: &Program,
    sorts: Option<&SortTable>,
) -> Result<(), CoreError> {
    for decl in program.decls() {
        register_pred(engine, &decl.name, decl.sorts.len(), decl.span)?;
    }
    for clause in program.clauses() {
        let rule = lower_clause_sorted(engine, clause, sorts)?;
        engine.rule(rule)?;
    }
    Ok(())
}

struct Lowering<'e> {
    engine: &'e mut Engine,
    vars: HashMap<String, VarId>,
    var_names: Vec<String>,
    temp_counter: usize,
}

impl Lowering<'_> {
    fn var(&mut self, name: &str) -> VarId {
        if let Some(&v) = self.vars.get(name) {
            return v;
        }
        let v = VarId(u32::try_from(self.var_names.len()).expect("too many variables"));
        self.vars.insert(name.to_owned(), v);
        self.var_names.push(name.to_owned());
        v
    }

    fn temp(&mut self) -> VarId {
        let name = format!("$t{}", self.temp_counter);
        self.temp_counter += 1;
        self.var(&name)
    }

    /// Lower a term to a pattern. Ground subterms intern eagerly.
    fn term(&mut self, t: &Term) -> Result<Pattern, CoreError> {
        match t {
            Term::Var(v, _) => Ok(Pattern::Var(self.var(v))),
            Term::Const(c, _) => Ok(Pattern::Ground(self.engine.store_mut().atom(c))),
            Term::Int(i, _) => Ok(Pattern::Ground(self.engine.store_mut().int(*i))),
            Term::App(_, args, _) | Term::SetLit(args, _) => {
                let ps: Vec<Pattern> = args
                    .iter()
                    .map(|a| self.term(a))
                    .collect::<Result<_, _>>()?;
                let ground: Option<Vec<_>> = ps
                    .iter()
                    .map(|p| match p {
                        Pattern::Ground(id) => Some(*id),
                        _ => None,
                    })
                    .collect();
                let store = self.engine.store_mut();
                Ok(match (t, ground) {
                    (Term::App(f, ..), Some(ids)) => Pattern::Ground(store.app(f, ids)),
                    (Term::App(f, ..), None) => {
                        Pattern::App(store.symbols_mut().intern(f), ps.into_boxed_slice())
                    }
                    (_, Some(ids)) => Pattern::Ground(store.set(ids)),
                    (_, None) => Pattern::Set(ps.into_boxed_slice()),
                })
            }
            Term::BinOp(_, _, _, span) => Err(CoreError::invalid(
                *span,
                "arithmetic expression outside a comparison (internal: should have been \
                 rejected by validation)",
            )),
        }
    }

    /// Flatten an arithmetic expression into builtin literals plus a
    /// result pattern.
    fn arith(&mut self, t: &Term, lits: &mut Vec<BodyLit>) -> Result<Pattern, CoreError> {
        match t {
            Term::BinOp(op, l, r, _) => {
                let pl = self.arith(l, lits)?;
                let pr = self.arith(r, lits)?;
                let out = Pattern::Var(self.temp());
                lits.push(BodyLit::Builtin(
                    arith_builtin(*op),
                    vec![pl, pr, out.clone()],
                ));
                Ok(out)
            }
            other => self.term(other),
        }
    }

    /// Lower a comparison literal (possibly containing arithmetic).
    fn cmp(
        &mut self,
        op: CmpOp,
        lhs: &Term,
        rhs: &Term,
        negated: bool,
        lits: &mut Vec<BodyLit>,
    ) -> Result<(), CoreError> {
        // Negation folds into the operator.
        let op = if negated {
            match op {
                CmpOp::Eq => CmpOp::Ne,
                CmpOp::Ne => CmpOp::Eq,
                CmpOp::In => CmpOp::NotIn,
                CmpOp::NotIn => CmpOp::In,
                CmpOp::Lt => CmpOp::Ge,
                CmpOp::Le => CmpOp::Gt,
                CmpOp::Gt => CmpOp::Le,
                CmpOp::Ge => CmpOp::Lt,
            }
        } else {
            op
        };

        // Direct three-address form for `a ⊕ b = c` / `c = a ⊕ b`
        // where the other operands are arithmetic-free.
        if op == CmpOp::Eq {
            if let Term::BinOp(aop, a, b, _) = lhs {
                if !a.has_arith() && !b.has_arith() && !rhs.has_arith() {
                    let (pa, pb, pc) = (self.term(a)?, self.term(b)?, self.term(rhs)?);
                    lits.push(BodyLit::Builtin(arith_builtin(*aop), vec![pa, pb, pc]));
                    return Ok(());
                }
            }
            if let Term::BinOp(aop, a, b, _) = rhs {
                if !a.has_arith() && !b.has_arith() && !lhs.has_arith() {
                    let (pa, pb, pc) = (self.term(a)?, self.term(b)?, self.term(lhs)?);
                    lits.push(BodyLit::Builtin(arith_builtin(*aop), vec![pa, pb, pc]));
                    return Ok(());
                }
            }
        }

        let pl = self.arith(lhs, lits)?;
        let pr = self.arith(rhs, lits)?;
        let lit = match op {
            CmpOp::Eq => BodyLit::Builtin(Builtin::Eq, vec![pl, pr]),
            CmpOp::Ne => BodyLit::Builtin(Builtin::Ne, vec![pl, pr]),
            CmpOp::In => BodyLit::Builtin(Builtin::In, vec![pl, pr]),
            CmpOp::NotIn => BodyLit::Builtin(Builtin::NotIn, vec![pl, pr]),
            CmpOp::Lt => BodyLit::Builtin(Builtin::Lt, vec![pl, pr]),
            CmpOp::Le => BodyLit::Builtin(Builtin::Le, vec![pl, pr]),
            CmpOp::Gt => BodyLit::Builtin(Builtin::Lt, vec![pr, pl]),
            CmpOp::Ge => BodyLit::Builtin(Builtin::Le, vec![pr, pl]),
        };
        lits.push(lit);
        Ok(())
    }

    /// Lower one literal-shaped formula into body literals.
    fn literal(
        &mut self,
        f: &Formula,
        negated: bool,
        lits: &mut Vec<BodyLit>,
    ) -> Result<(), CoreError> {
        match f {
            Formula::Lit(Literal::Pred(name, args, span)) => {
                let ps: Vec<Pattern> = args
                    .iter()
                    .map(|a| self.term(a))
                    .collect::<Result<_, _>>()?;
                if let Some(b) = Builtin::from_pred_name(name, args.len()) {
                    if negated {
                        return Err(CoreError::invalid(
                            *span,
                            format!(
                                "negating builtin `{name}` is not supported; \
                                 express the complement directly"
                            ),
                        ));
                    }
                    lits.push(BodyLit::Builtin(b, ps));
                } else {
                    let pred = register_pred(self.engine, name, args.len(), *span)?;
                    lits.push(if negated {
                        BodyLit::Neg(pred, ps)
                    } else {
                        BodyLit::Pos(pred, ps)
                    });
                }
                Ok(())
            }
            Formula::Lit(Literal::Cmp(op, l, r, _)) => self.cmp(*op, l, r, negated, lits),
            Formula::Not(inner, span) => {
                if negated {
                    return Err(CoreError::invalid(*span, "double negation (internal)"));
                }
                self.literal(inner, true, lits)
            }
            other => Err(CoreError::invalid(
                span_of(other),
                "body not in normalized form (internal: run normalize_program first)",
            )),
        }
    }
}

fn arith_builtin(op: ArithOp) -> Builtin {
    match op {
        ArithOp::Add => Builtin::Add,
        ArithOp::Sub => Builtin::Sub,
        ArithOp::Mul => Builtin::Mul,
    }
}

fn span_of(f: &Formula) -> lps_syntax::Span {
    match f {
        Formula::Lit(l) => l.span(),
        Formula::Not(_, s) => *s,
        Formula::Forall { span, .. } | Formula::Exists { span, .. } => *span,
        Formula::And(fs) | Formula::Or(fs) => fs.first().map(span_of).unwrap_or_default(),
    }
}

/// Lower one normalized clause, annotating variable sorts from the
/// predicate signature table when available (untyped without one).
pub fn lower_clause_sorted(
    engine: &mut Engine,
    clause: &Clause,
    sorts: Option<&SortTable>,
) -> Result<Rule, CoreError> {
    let mut lw = Lowering {
        engine,
        vars: HashMap::new(),
        var_names: Vec::new(),
        temp_counter: 0,
    };

    if is_special_pred(&clause.head.pred, clause.head.args.len()) {
        return Err(CoreError::invalid(
            clause.head.span,
            format!("cannot define special predicate `{}`", clause.head.pred),
        ));
    }

    // Head.
    let mut head_args = Vec::with_capacity(clause.head.args.len());
    let mut group = None;
    for (pos, arg) in clause.head.args.iter().enumerate() {
        match arg {
            HeadArg::Term(t) => head_args.push(lw.term(t)?),
            HeadArg::Group(v, span) => {
                if group.is_some() {
                    return Err(CoreError::invalid(*span, "multiple grouping slots"));
                }
                let var = lw.var(v);
                head_args.push(Pattern::Var(var));
                group = Some(GroupSpec { arg_pos: pos, var });
            }
        }
    }
    let head = register_pred(
        lw.engine,
        &clause.head.pred,
        clause.head.args.len(),
        clause.head.span,
    )?;

    // Body.
    let mut outer: Vec<BodyLit> = Vec::new();
    let mut quant: Option<QuantGroup> = None;
    if let Some(body) = &clause.body {
        let conjuncts: Vec<&Formula> = match body {
            Formula::And(fs) => fs.iter().collect(),
            other => vec![other],
        };
        for f in conjuncts {
            match f {
                Formula::Forall { .. } => {
                    if quant.is_some() {
                        return Err(CoreError::invalid(
                            span_of(f),
                            "multiple quantifier groups (internal: normalize first)",
                        ));
                    }
                    // Collect the chain.
                    let mut binders = Vec::new();
                    let mut cur = f;
                    while let Formula::Forall { var, set, body, .. } = cur {
                        let slot = lw.var(var);
                        let dom = lw.term(set)?;
                        binders.push((slot, dom));
                        cur = body;
                    }
                    let inner_fs: Vec<&Formula> = match cur {
                        Formula::And(fs) => fs.iter().collect(),
                        other => vec![other],
                    };
                    let mut inner = Vec::new();
                    for g in inner_fs {
                        lw.literal(g, false, &mut inner)?;
                    }
                    quant = Some(QuantGroup { binders, inner });
                }
                other => lw.literal(other, false, &mut outer)?,
            }
        }
    }

    let num_vars = lw.var_names.len();
    let var_names = lw.var_names;
    let vars_map = lw.vars;
    let mut rule = Rule {
        head,
        head_args,
        group,
        outer,
        quant,
        num_vars,
        var_names,
        var_sorts: vec![None; num_vars],
    };
    annotate_var_sorts(&mut rule, clause, &vars_map, sorts);
    Ok(rule)
}

/// Fill `rule.var_sorts` from the clause's variable occurrences: a
/// variable used at a predicate position whose inferred signature is
/// `atom`/`set`, as a quantifier domain or membership right-hand side
/// (sort *s*), or as an integer-comparison operand (sort *a*) gets its
/// sort recorded. Conflicts (possible under lenient ELPS inference)
/// resolve to untyped.
fn annotate_var_sorts(
    rule: &mut Rule,
    clause: &Clause,
    vars_map: &HashMap<String, VarId>,
    sorts: Option<&SortTable>,
) {
    use lps_syntax::SortAnn;
    use lps_term::Sort;
    let Some(table) = sorts else { return };

    let mut pairs: Vec<(String, SortAnn)> = Vec::new();
    if let Some(sig) = table.signature(&clause.head.pred) {
        for (arg, s) in clause.head.args.iter().zip(sig) {
            if let HeadArg::Term(Term::Var(v, _)) = arg {
                pairs.push((v.clone(), *s));
            }
        }
    }
    if let Some(body) = &clause.body {
        collect_sort_pairs(body, table, &mut pairs);
    }

    for (name, ann) in pairs {
        let sort = match ann {
            SortAnn::Atom => Sort::Atom,
            SortAnn::Set => Sort::Set,
            SortAnn::Any => continue,
        };
        if let Some(&v) = vars_map.get(&name) {
            match &mut rule.var_sorts[v.index()] {
                slot @ None => *slot = Some(sort),
                Some(existing) if *existing == sort => {}
                slot => *slot = None, // conflict: untyped
            }
        }
    }
}

fn collect_sort_pairs(
    f: &Formula,
    table: &SortTable,
    out: &mut Vec<(String, lps_syntax::SortAnn)>,
) {
    use lps_syntax::SortAnn;
    match f {
        Formula::Lit(Literal::Pred(name, args, _)) => {
            if let Some(sig) = table.signature(name) {
                for (arg, s) in args.iter().zip(sig) {
                    if let Term::Var(v, _) = arg {
                        out.push((v.clone(), *s));
                    }
                }
            }
        }
        Formula::Lit(Literal::Cmp(op, l, r, _)) => {
            if matches!(op, CmpOp::In | CmpOp::NotIn) {
                if let Term::Var(v, _) = r {
                    out.push((v.clone(), SortAnn::Set));
                }
            }
            if matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge) {
                for t in [l, r] {
                    if let Term::Var(v, _) = t {
                        out.push((v.clone(), SortAnn::Atom));
                    }
                }
            }
        }
        Formula::Not(inner, _) => collect_sort_pairs(inner, table, out),
        Formula::And(fs) | Formula::Or(fs) => {
            for f in fs {
                collect_sort_pairs(f, table, out);
            }
        }
        Formula::Forall { set, body, .. } | Formula::Exists { set, body, .. } => {
            if let Term::Var(v, _) = set {
                out.push((v.clone(), SortAnn::Set));
            }
            collect_sort_pairs(body, table, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lps_engine::EvalConfig;
    use lps_syntax::parse_program;

    fn lower_src(src: &str) -> (Engine, Vec<Rule>) {
        let program = parse_program(src).unwrap();
        let mut engine = Engine::new(EvalConfig::default());
        let rules: Vec<Rule> = program
            .clauses()
            .map(|c| lower_clause_sorted(&mut engine, c, None).unwrap())
            .collect();
        (engine, rules)
    }

    #[test]
    fn lowers_fact_with_ground_set() {
        let (engine, rules) = lower_src("parts(widget, {bolt, nut}).");
        assert_eq!(rules.len(), 1);
        assert!(rules[0].is_fact());
        let _ = engine;
    }

    #[test]
    fn lowers_builtin_call_position() {
        let (_, rules) = lower_src("p(Z) :- q(X, Y), union(X, Y, Z).");
        match &rules[0].outer[1] {
            BodyLit::Builtin(Builtin::Union, args) => assert_eq!(args.len(), 3),
            other => panic!("expected union builtin, got {other:?}"),
        }
    }

    #[test]
    fn lowers_quantifier_chain_into_one_group() {
        let (_, rules) =
            lower_src("disj(X, Y) :- pair(X, Y), forall U in X: forall V in Y: U != V.");
        let q = rules[0].quant.as_ref().expect("quant group");
        assert_eq!(q.binders.len(), 2);
        assert_eq!(q.inner.len(), 1);
        assert_eq!(rules[0].outer.len(), 1);
    }

    #[test]
    fn lowers_arithmetic_three_address_form() {
        let (_, rules) = lower_src("s(K) :- a(M), b(N), M + N = K.");
        // The comparison lowers to a single add builtin, no temps.
        let adds: Vec<_> = rules[0]
            .outer
            .iter()
            .filter(|l| matches!(l, BodyLit::Builtin(Builtin::Add, _)))
            .collect();
        assert_eq!(adds.len(), 1);
        assert_eq!(rules[0].num_vars, 3);
    }

    #[test]
    fn lowers_nested_arithmetic_with_temps() {
        let (_, rules) = lower_src("s(K) :- a(M), K = M + 2 * M - 1.");
        let builtins = rules[0]
            .outer
            .iter()
            .filter(|l| matches!(l, BodyLit::Builtin(..)))
            .count();
        // mul, add, sub (the last fused with = K) — at least 3 builtins.
        assert!(builtins >= 3, "got {builtins}");
    }

    #[test]
    fn negated_comparison_flips_operator() {
        let (_, rules) = lower_src("p(X) :- q(X, Y), not X = Y.");
        assert!(rules[0]
            .outer
            .iter()
            .any(|l| matches!(l, BodyLit::Builtin(Builtin::Ne, _))));
        let (_, rules) = lower_src("p(X) :- q(X, Y), not X < Y.");
        // ¬(X < Y) ⇒ Y ≤ X.
        assert!(rules[0]
            .outer
            .iter()
            .any(|l| matches!(l, BodyLit::Builtin(Builtin::Le, _))));
    }

    #[test]
    fn grouping_head_produces_spec() {
        let (_, rules) = lower_src("owns(P, <C>) :- car(P, C).");
        let g = rules[0].group.as_ref().expect("group spec");
        assert_eq!(g.arg_pos, 1);
    }

    #[test]
    fn special_head_rejected() {
        let program = parse_program("union(X, Y, Z) :- p(X, Y, Z).").unwrap();
        let mut engine = Engine::new(EvalConfig::default());
        let err =
            lower_clause_sorted(&mut engine, program.clauses().next().unwrap(), None).unwrap_err();
        assert!(matches!(err, CoreError::InvalidClause { .. }));
    }

    #[test]
    fn negating_builtin_pred_name_is_rejected() {
        let program = parse_program("p(X) :- q(X, Y, Z), not union(X, Y, Z).").unwrap();
        let mut engine = Engine::new(EvalConfig::default());
        let err =
            lower_clause_sorted(&mut engine, program.clauses().next().unwrap(), None).unwrap_err();
        assert!(matches!(err, CoreError::InvalidClause { .. }));
    }

    #[test]
    fn end_to_end_via_engine() {
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- edge(X, Y), path(Y, Z).",
        )
        .unwrap();
        let mut engine = Engine::new(EvalConfig::default());
        load_program_sorted(&mut engine, &program, None).unwrap();
        let edge = engine.lookup_pred("edge", 2).unwrap();
        let st = engine.store_mut();
        let (a, b, c) = (st.atom("a"), st.atom("b"), st.atom("c"));
        engine.fact(edge, vec![a, b]).unwrap();
        engine.fact(edge, vec![b, c]).unwrap();
        engine.run().unwrap();
        let path = engine.lookup_pred("path", 2).unwrap();
        assert_eq!(engine.rows(path).count(), 3);
    }
}
