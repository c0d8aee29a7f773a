//! The Theorem-10/11 translations between ELPS, Horn + `union`,
//! Horn + `scons`, and LDL grouping.
//!
//! The paper's equivalences are model-theoretic; to make the
//! translated programs *executable* bottom-up we add **active-domain
//! guards**: a fresh unary predicate (written `adom_k` below) holding
//! every ground term appearing in the program's facts (with set
//! elements included recursively, plus `∅`). Clause bases whose
//! variables the paper leaves open range over this guard. This is the
//! standard finite restriction of the paper's infinitary Herbrand
//! semantics (DESIGN.md §3); the equivalence harness in
//! [`crate::equiv`] compares models *relative to the common
//! predicates* exactly as §6 prescribes.
//!
//! Directions implemented:
//!
//! * [`elps_to_horn_union`] / [`elps_to_horn_scons`] — Theorem 10
//!   steps 3/4: each restricted universal quantifier is *peeled* into
//!   an accumulator predicate that grows a subset element by element
//!   (`S' = {x} ∪ S`), with base case `∅`.
//! * [`horn_union_to_elps`] / [`horn_scons_to_elps`] — Theorem 10
//!   steps 1/2: the builtin is replaced by a defined predicate whose
//!   single clause uses quantifiers and disjunction (then compiled by
//!   Theorem 6 downstream).
//! * [`union_via_grouping`] — Theorem 11: `union` as an LDL grouping
//!   program.
//! * [`grouping_to_elps`] — Theorem 11 (final step): LDL grouping
//!   clauses become ELPS clauses with stratified negation, via the
//!   proper-subset construction of §4.2.

use lps_syntax::{parse_program, pretty, Clause, Formula, HeadArg, Item, Literal, Program, Term};

use crate::error::CoreError;
use crate::fresh::FreshNames;
use crate::transform::positive::normalize_program;

/// Collect the active-domain fact block: one `adom(t).` per ground
/// term in the program's facts (set elements included, recursively),
/// plus the empty set.
fn adom_block(program: &Program, adom: &str, sets_only: bool) -> String {
    use std::collections::BTreeSet;
    let mut terms: BTreeSet<String> = BTreeSet::new();
    terms.insert("{}".to_owned());
    fn add_term(t: &Term, sets_only: bool, out: &mut BTreeSet<String>) {
        if !t.is_ground() {
            return;
        }
        if !sets_only || matches!(t, Term::SetLit(..)) {
            out.insert(pretty::pretty_term(t));
        }
        if let Term::SetLit(elems, _) = t {
            for e in elems {
                add_term(e, sets_only, out);
            }
        }
    }
    for clause in program.clauses() {
        if clause.body.is_none() {
            for arg in &clause.head.args {
                if let HeadArg::Term(t) = arg {
                    add_term(t, sets_only, &mut terms);
                }
            }
        }
    }
    let mut out = String::new();
    for t in terms {
        out.push_str(&format!("{adom}({t}).\n"));
    }
    out
}

/// Which set constructor the peeling translation uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Peel {
    /// `union({x}, S, S')` — Theorem 10 step 3.
    Union,
    /// `scons(x, S, S')` — Theorem 10 step 4.
    Scons,
}

/// Translate an ELPS program (positive bodies) into Horn clauses over
/// L + `union` (or + `scons`): no restricted universal quantifiers
/// remain.
pub fn elps_to_horn(program: &Program, peel: Peel) -> Result<Program, CoreError> {
    // Normalize first so every clause is outer-literals + at most one
    // ∀-chain over literals.
    let normalized = normalize_program(program)?;
    let mut fresh = FreshNames::for_program(&normalized);
    let adom = fresh.pred("adom");

    let mut out = String::new();
    out.push_str(&adom_block(&normalized, &adom, false));

    for item in &normalized.items {
        match item {
            Item::Decl(d) => out.push_str(&format!("{}\n", pretty::pretty_decl(d))),
            Item::Clause(c) => out.push_str(&peel_clause(c, peel, &adom, &mut fresh)?),
        }
    }

    parse_program(&out).map_err(|e| {
        CoreError::invalid(
            e.span,
            format!("internal: generated translation failed to parse: {e}\n{out}"),
        )
    })
}

/// Theorem 10 step 3: peel with `union`.
pub fn elps_to_horn_union(program: &Program) -> Result<Program, CoreError> {
    elps_to_horn(program, Peel::Union)
}

/// Theorem 10 step 4: peel with `scons`.
pub fn elps_to_horn_scons(program: &Program) -> Result<Program, CoreError> {
    elps_to_horn(program, Peel::Scons)
}

/// Split a normalized body into (outer conjuncts, ∀-chain).
fn split_body(body: &Formula) -> (Vec<&Formula>, Option<&Formula>) {
    let conjuncts: Vec<&Formula> = match body {
        Formula::And(fs) => fs.iter().collect(),
        other => vec![other],
    };
    let mut outer = Vec::new();
    let mut group = None;
    for c in conjuncts {
        if matches!(c, Formula::Forall { .. }) && group.is_none() {
            group = Some(c);
        } else {
            outer.push(c);
        }
    }
    (outer, group)
}

fn conj_to_src(fs: &[&Formula]) -> String {
    fs.iter()
        .map(|f| pretty::pretty_formula(f))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Peel one normalized clause.
fn peel_clause(
    c: &Clause,
    peel: Peel,
    adom: &str,
    fresh: &mut FreshNames,
) -> Result<String, CoreError> {
    let Some(body) = &c.body else {
        return Ok(format!("{}\n", pretty::pretty_clause(c)));
    };
    let (outer, group) = split_body(body);
    let Some(group) = group else {
        return Ok(format!("{}\n", pretty::pretty_clause(c)));
    };

    // Decompose the ∀-chain: binders + inner conjunction.
    let mut binders: Vec<(String, Term)> = Vec::new();
    let mut cur = group;
    while let Formula::Forall { var, set, body, .. } = cur {
        binders.push((var.clone(), set.clone()));
        cur = body;
    }
    let inner: Vec<&Formula> = match cur {
        Formula::And(fs) => fs.iter().collect(),
        other => vec![other],
    };

    let mut out = String::new();

    // Innermost predicate: q_{n+1}(w̄) :- guards, inner.
    // Guard every variable not bound by a positive (non-builtin)
    // literal of the inner conjunction — the paper leaves these open;
    // the active domain closes them.
    let inner_free: Vec<String> =
        Formula::and(inner.iter().map(|f| (*f).clone()).collect::<Vec<_>>()).free_vars();
    let mut bound_by_pos: Vec<String> = Vec::new();
    for f in &inner {
        if let Formula::Lit(Literal::Pred(name, args, _)) = f {
            if lps_engine::Builtin::from_pred_name(name, args.len()).is_none() {
                for a in args {
                    bound_by_pos.extend(a.vars());
                }
            }
        }
    }
    let mut q_pred = fresh.pred("qinner");
    let q_args = inner_free.clone();
    {
        let guards: Vec<String> = q_args
            .iter()
            .filter(|v| !bound_by_pos.contains(v))
            .map(|v| format!("{adom}({v})"))
            .collect();
        let mut body_parts = guards;
        body_parts.push(conj_to_src(&inner));
        out.push_str(&format!(
            "{}({}) :- {}.\n",
            q_pred,
            q_args.join(", "),
            body_parts.join(", ")
        ));
    }

    // Peel quantifiers inside-out. After processing binder i, `q_pred`
    // denotes φ_i = (∀x_i ∈ Y_i) … (inner), with args = free(φ_i).
    let mut q_free: Vec<String> = q_args;
    for (x, domain) in binders.iter().rev() {
        let acc = fresh.pred("acc");
        // ū = free(φ_{i+1}) ∖ {x}.
        let u: Vec<String> = q_free.iter().filter(|v| *v != x).cloned().collect();
        let acc_set = fresh.var("S");
        let acc_set2 = fresh.var("S");
        // Base: acc(ū, ∅) with adom guards on ū.
        let mut base_parts: Vec<String> = u.iter().map(|v| format!("{adom}({v})")).collect();
        base_parts.push(format!("{acc_set} = {{}}"));
        out.push_str(&format!(
            "{}({}) :- {}.\n",
            acc,
            args_with(&u, &acc_set),
            base_parts.join(", ")
        ));
        // Step: acc(ū, S') :- acc(ū, S), q(free φ_{i+1}), S' = {x} ∪ S.
        let constructor = match peel {
            Peel::Union => format!("union({{{x}}}, {acc_set}, {acc_set2})"),
            Peel::Scons => format!("scons({x}, {acc_set}, {acc_set2})"),
        };
        out.push_str(&format!(
            "{}({}) :- {}({}), {}({}), {}.\n",
            acc,
            args_with(&u, &acc_set2),
            acc,
            args_with(&u, &acc_set),
            q_pred,
            q_free.join(", "),
            constructor
        ));
        // New q: q'(free φ_i) :- acc(ū, Y_i).
        let domain_src = pretty::pretty_term(domain);
        let mut new_free: Vec<String> = u.clone();
        for v in domain.vars() {
            if !new_free.contains(&v) {
                new_free.push(v);
            }
        }
        let q_new = fresh.pred("qall");
        out.push_str(&format!(
            "{}({}) :- {}({}).\n",
            q_new,
            new_free.join(", "),
            acc,
            args_with(&u, &domain_src)
        ));
        q_pred = q_new;
        q_free = new_free;
    }

    // Final clause: A :- outer, q(free φ_1).
    let head_src = pretty::pretty_head(&c.head);
    let mut parts: Vec<String> = outer.iter().map(|f| pretty::pretty_formula(f)).collect();
    parts.push(format!("{}({})", q_pred, q_free.join(", ")));
    out.push_str(&format!("{head_src} :- {}.\n", parts.join(", ")));
    Ok(out)
}

fn args_with(vars: &[String], last: &str) -> String {
    if vars.is_empty() {
        last.to_owned()
    } else {
        format!("{}, {}", vars.join(", "), last)
    }
}

/// Theorem 10 step 1: replace `union/3` calls with a defined ELPS
/// predicate (quantifiers + disjunction; Theorem 6 compiles it later).
pub fn horn_union_to_elps(program: &Program) -> Result<Program, CoreError> {
    replace_builtin_calls(program, "union", 3, |p| {
        format!(
            "{p}(Ux, Uy, Uz) :- (forall Uw in Ux: Uw in Uz), \
                 (forall Uw2 in Uy: Uw2 in Uz), \
                 (forall Uw3 in Uz: (Uw3 in Ux ; Uw3 in Uy)).\n"
        )
    })
}

/// Theorem 10 step 2: replace `scons/3` calls with a defined ELPS
/// predicate.
pub fn horn_scons_to_elps(program: &Program) -> Result<Program, CoreError> {
    replace_builtin_calls(program, "scons", 3, |p| {
        format!(
            "{p}(Sx, Sy, Sz) :- Sx in Sz, (forall Sw in Sy: Sw in Sz), \
                 (forall Sw2 in Sz: (Sw2 in Sy ; Sw2 = Sx)).\n"
        )
    })
}

fn replace_builtin_calls(
    program: &Program,
    name: &str,
    arity: usize,
    def: impl Fn(&str) -> String,
) -> Result<Program, CoreError> {
    let mut fresh = FreshNames::for_program(program);
    let new_pred = fresh.pred(&format!("def_{name}"));
    let mut used = false;

    fn rewrite(f: &mut Formula, name: &str, arity: usize, new_pred: &str, used: &mut bool) {
        match f {
            Formula::Lit(Literal::Pred(p, args, _)) if p == name && args.len() == arity => {
                *used = true;
                *p = new_pred.to_owned();
            }
            Formula::Lit(_) => {}
            Formula::Not(inner, _) => rewrite(inner, name, arity, new_pred, used),
            Formula::And(fs) | Formula::Or(fs) => {
                fs.iter_mut()
                    .for_each(|f| rewrite(f, name, arity, new_pred, used));
            }
            Formula::Forall { body, .. } | Formula::Exists { body, .. } => {
                rewrite(body, name, arity, new_pred, used);
            }
        }
    }

    let mut out = program.clone();
    for item in &mut out.items {
        if let Item::Clause(Clause { body: Some(b), .. }) = item {
            rewrite(b, name, arity, &new_pred, &mut used);
        }
    }
    if used {
        let def_src = def(&new_pred);
        let def_prog = parse_program(&def_src).map_err(|e| {
            CoreError::invalid(e.span, format!("internal: generated definition: {e}"))
        })?;
        out.items.extend(def_prog.items);
    }
    Ok(out)
}

/// Theorem 11: define `union` through LDL grouping (the `q(x, y, ⟨z⟩)`
/// program of the proof), guarded by the active domain. Returns the
/// program text defining `target(X, Y, Z)` ⇔ `Z = X ∪ Y` for active
/// sets `X`, `Y` with `X ∪ Y ≠ ∅` (LDL grouping produces no empty
/// groups — see EXPERIMENTS.md E5 for the comparison protocol).
pub fn union_via_grouping(program: &Program, target: &str) -> Result<Program, CoreError> {
    let mut fresh = FreshNames::for_program(program);
    let adom = fresh.pred("adom");
    let p = fresh.pred("member_of_either");
    let mut out = String::new();
    // The paper defines union over sets; restrict the guard to the
    // set-valued part of the active domain.
    out.push_str(&adom_block(program, &adom, true));
    // `Gw in Gx` over the set-valued active domain.
    out.push_str(&format!(
        "{p}(Gx, Gy, Gw) :- {adom}(Gx), {adom}(Gy), Gw in Gx.\n"
    ));
    out.push_str(&format!(
        "{p}(Gx, Gy, Gw) :- {adom}(Gx), {adom}(Gy), Gw in Gy.\n"
    ));
    out.push_str(&format!("{target}(Gx, Gy, <Gw>) :- {p}(Gx, Gy, Gw).\n"));
    let mut parsed = parse_program(&out)
        .map_err(|e| CoreError::invalid(e.span, format!("internal: grouping def: {e}")))?;
    let mut items = program.items.clone();
    items.append(&mut parsed.items);
    Ok(Program { items })
}

/// Theorem 11 (final step): rewrite every LDL grouping clause
/// `A(x̄, ⟨x⟩) :- B` into ELPS clauses with stratified negation via
/// the proper-subset construction (§4.2 / proof of Theorem 11).
pub fn grouping_to_elps(program: &Program) -> Result<Program, CoreError> {
    let mut fresh = FreshNames::for_program(program);
    let mut out_items: Vec<Item> = Vec::new();
    let mut generated = String::new();

    for item in &program.items {
        let Item::Clause(c) = item else {
            out_items.push(item.clone());
            continue;
        };
        if !c.head.has_grouping() {
            out_items.push(item.clone());
            continue;
        }
        let body = c
            .body
            .as_ref()
            .ok_or_else(|| CoreError::invalid(c.head.span, "grouping clause without body"))?;

        // Split head args: x̄ (plain) and the grouping variable.
        let mut plain_vars: Vec<String> = Vec::new();
        let mut group_var = None;
        for arg in &c.head.args {
            match arg {
                HeadArg::Term(Term::Var(v, _)) => plain_vars.push(v.clone()),
                HeadArg::Term(t) => {
                    return Err(CoreError::invalid(
                        t.span(),
                        "grouping_to_elps requires variable head arguments",
                    ))
                }
                HeadArg::Group(v, _) => group_var = Some(v.clone()),
            }
        }
        let group_var = group_var.expect("has_grouping checked");

        // bodypred(x̄, x) :- B.
        let bodypred = fresh.pred("groupbody");
        let mut bp_args = plain_vars.clone();
        bp_args.push(group_var.clone());
        generated.push_str(&format!(
            "{bodypred}({}) :- {}.\n",
            bp_args.join(", "),
            pretty::pretty_formula(body)
        ));

        // Proper subset: psub(X, Y) ⇔ X ⊂ Y.
        let psub = fresh.pred("psub");
        let has_more = fresh.pred("strictly_bigger");
        generated.push_str(&format!(
            "{has_more}(Px, Py) :- subseteq(Px, Py), Pw in Py, Pw notin Px.\n\
             {psub}(Px, Py) :- {has_more}(Px, Py).\n"
        ));

        // p(x̄, Y): some proper superset of Y is fully covered.
        let covered_sup = fresh.pred("covered_superset");
        let setvar = fresh.var("Gy");
        let supvar = fresh.var("Gz");
        let elemvar = fresh.var("Gx");
        let xs = plain_vars.join(", ");
        let xs_comma = if xs.is_empty() {
            String::new()
        } else {
            format!("{xs}, ")
        };
        generated.push_str(&format!(
            "{covered_sup}({xs_comma}{setvar}) :- {psub}({setvar}, {supvar}), \
             forall {elemvar} in {supvar}: {bodypred}({xs_comma}{elemvar}).\n"
        ));

        // A(x̄, Y) :- (∀x∈Y) bodypred(x̄, x), not p(x̄, Y).
        let head_name = &c.head.pred;
        generated.push_str(&format!(
            "{head_name}({xs_comma}{setvar}) :- \
             (forall {elemvar} in {setvar}: {bodypred}({xs_comma}{elemvar})), \
             not {covered_sup}({xs_comma}{setvar}).\n"
        ));
    }

    let mut parsed = parse_program(&generated).map_err(|e| {
        CoreError::invalid(
            e.span,
            format!("internal: grouping_to_elps generated: {e}\n{generated}"),
        )
    })?;
    out_items.append(&mut parsed.items);
    Ok(Program { items: out_items })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lps_syntax::parse_program;

    fn has_forall(p: &Program) -> bool {
        fn f_has(f: &Formula) -> bool {
            match f {
                Formula::Forall { .. } => true,
                Formula::Exists { body, .. } => f_has(body),
                Formula::Not(inner, _) => f_has(inner),
                Formula::And(fs) | Formula::Or(fs) => fs.iter().any(f_has),
                Formula::Lit(_) => false,
            }
        }
        p.clauses().any(|c| c.body.as_ref().is_some_and(f_has))
    }

    const DISJ: &str = "pair({a, b}, {c}). pair({a}, {a, b}).\n\
         disj(X, Y) :- pair(X, Y), forall U in X: forall V in Y: U != V.";

    #[test]
    fn peeling_removes_all_quantifiers() {
        let p = parse_program(DISJ).unwrap();
        for peel in [Peel::Union, Peel::Scons] {
            let horn = elps_to_horn(&p, peel).unwrap();
            assert!(!has_forall(&horn), "no quantifiers remain");
            // adom facts were generated (a, b, c, the sets, ∅).
            let printed = lps_syntax::pretty_program(&horn);
            assert!(printed.contains("adom_0({})"), "{printed}");
            assert!(printed.contains("adom_0(a)"), "{printed}");
            assert!(printed.contains("adom_0({a, b})"), "{printed}");
        }
    }

    #[test]
    fn peeling_keeps_quantifier_free_clauses_intact() {
        let p = parse_program("e(a, b). t(X, Y) :- e(X, Y).").unwrap();
        let horn = elps_to_horn_union(&p).unwrap();
        let printed = lps_syntax::pretty_program(&horn);
        assert!(printed.contains("t(X, Y) :- e(X, Y)."));
    }

    #[test]
    fn union_call_replacement_adds_definition() {
        let p = parse_program("r({a}, {b}). big(Z) :- r(X, Y), union(X, Y, Z).").unwrap();
        let elps = horn_union_to_elps(&p).unwrap();
        let printed = lps_syntax::pretty_program(&elps);
        assert!(
            !printed.contains("union("),
            "builtin call replaced: {printed}"
        );
        assert!(printed.contains("def_union"), "{printed}");
        assert!(has_forall(&elps), "definition uses quantifiers");
    }

    #[test]
    fn scons_call_replacement_adds_definition() {
        let p = parse_program("r({a}). s(Z) :- r(Y), scons(b, Y, Z).").unwrap();
        let elps = horn_scons_to_elps(&p).unwrap();
        let printed = lps_syntax::pretty_program(&elps);
        assert!(!printed.contains("scons("), "{printed}");
        assert!(printed.contains("def_scons"), "{printed}");
    }

    #[test]
    fn no_calls_no_definition() {
        let p = parse_program("p(a).").unwrap();
        let elps = horn_union_to_elps(&p).unwrap();
        assert_eq!(elps.items.len(), 1);
    }

    #[test]
    fn grouping_translation_produces_negation() {
        let p = parse_program("car(alice, c1). owns(P, <C>) :- car(P, C).").unwrap();
        let elps = grouping_to_elps(&p).unwrap();
        let printed = lps_syntax::pretty_program(&elps);
        assert!(
            !printed.contains('<'),
            "no grouping heads remain: {printed}"
        );
        assert!(
            printed.contains("not "),
            "uses stratified negation: {printed}"
        );
        assert!(printed.contains("groupbody"), "{printed}");
    }

    #[test]
    fn union_via_grouping_generates_program() {
        let p = parse_program("r({a}, {b}).").unwrap();
        let g = union_via_grouping(&p, "u").unwrap();
        let printed = lps_syntax::pretty_program(&g);
        assert!(printed.contains("u(Gx, Gy, <Gw>)"), "{printed}");
        assert!(printed.contains("adom_0({a})"), "{printed}");
    }

    #[test]
    fn generated_programs_reparse() {
        let p = parse_program(DISJ).unwrap();
        let horn = elps_to_horn_union(&p).unwrap();
        let printed = lps_syntax::pretty_program(&horn);
        let again = parse_program(&printed).unwrap();
        assert_eq!(lps_syntax::pretty_program(&again), printed);
    }
}
