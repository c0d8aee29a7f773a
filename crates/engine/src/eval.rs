//! The rule executor: joins, builtin solving, and restricted-universal
//! quantifier evaluation.
//!
//! [`eval_rule_variant`] runs one planned [`Variant`] of a rule against
//! the current relation state and invokes a sink per satisfying
//! variable assignment. The drivers (`naive`, `seminaive`) build head
//! tuples or grouping pairs from the sink callbacks.
//!
//! ## Quantifier-group evaluation
//!
//! `(∀q₁∈D₁)…(∀qₙ∈Dₙ)(inner)` is evaluated per the case analysis in
//! DESIGN.md:
//!
//! 1. **Unbound domains** are enumerated over the active set universe
//!    (policy-gated) and bound one at a time.
//! 2. With all domains bound, an **empty product** (some `Dᵢ = ∅`)
//!    satisfies the group vacuously — Definition 4's "(∀x∈X)φ is true
//!    whenever X is the empty set". Free variables that remain unbound
//!    in that case range over the active universe.
//! 3. With a nonempty product and all free variables bound, each tuple
//!    of the product is **checked** directly against the relations.
//! 4. With unbound free variables, the inner conjunction is evaluated
//!    as a join and grouped into a **coverage map**; a free-variable
//!    binding qualifies iff the whole product is covered.

use std::cell::{Cell, RefCell};

use lps_term::{FxHashMap, FxHashSet, Sort, TermId, TermStore};

use crate::builtin;
use crate::config::SetUniverse;
use crate::error::EngineError;
use crate::pattern::{match_tuple, Env, Pattern, VarId};
use crate::plan::{QuantPlan, Step, Variant};
use crate::relation::Relation;
use crate::rule::{BodyLit, QuantGroup, Rule};

/// Interior-mutable counters for the indexed-join probe path, threaded
/// through [`RelViews`] so the recursive executor can count without
/// extra parameters. The fixpoint drivers fold them into
/// [`crate::config::EvalStats`] after each stratum.
#[derive(Debug, Default)]
pub struct ProbeCounters {
    /// Indexed lookups performed ([`Relation::lookup`] calls).
    pub probes: Cell<u64>,
    /// Row ids yielded by those lookups.
    pub rows: Cell<u64>,
    /// Heap allocations on the probe path. Only compound key patterns
    /// (set/function literals that must intern a term per probe)
    /// allocate; flat `Var`/`Ground` keys are built into a stack
    /// buffer, so this stays 0 on ordinary joins.
    pub allocs: Cell<u64>,
}

impl ProbeCounters {
    #[inline]
    fn bump(cell: &Cell<u64>, by: u64) {
        cell.set(cell.get() + by);
    }
}

/// Per-literal probe attribution for `:profile`, keyed by
/// `(CompiledRule::id, outer-literal index)`. Interior-mutable for the
/// same reason as [`ProbeCounters`]: the recursive executor holds the
/// views immutably. Aggregation happens across every variant and round
/// of a run, so the totals are what the whole fixpoint actually spent
/// per body literal.
#[derive(Debug, Default)]
pub struct StepProfiler {
    tab: RefCell<FxHashMap<(u32, u32), (u64, u64)>>,
}

impl StepProfiler {
    /// Add `probes` lookups yielding `rows` rows to literal `lit` of
    /// rule `rule`.
    pub fn record(&self, rule: u32, lit: u32, probes: u64, rows: u64) {
        let mut tab = self.tab.borrow_mut();
        let e = tab.entry((rule, lit)).or_insert((0, 0));
        e.0 += probes;
        e.1 += rows;
    }

    /// `(probes, rows)` recorded for literal `lit` of rule `rule`.
    pub fn get(&self, rule: u32, lit: u32) -> (u64, u64) {
        self.tab
            .borrow()
            .get(&(rule, lit))
            .copied()
            .unwrap_or((0, 0))
    }
}

/// Read-only view of the relation state during one rule evaluation.
pub struct RelViews<'a> {
    /// Full relations, indexed by `PredId::index()`.
    pub full: &'a [Relation],
    /// Delta relations (last iteration's new tuples), same indexing.
    /// Empty relations when running naive.
    pub delta: &'a [Relation],
    /// Probe counters for this evaluation pass.
    pub counters: &'a ProbeCounters,
    /// Per-literal attribution, tagged with the id of the rule being
    /// evaluated. `None` outside `:profile` runs — the hot path pays
    /// one branch.
    pub profile: Option<(&'a StepProfiler, u32)>,
}

/// Optional restriction used by the semi-naive ∀-trigger (experiment
/// E9): when re-evaluating a quantified rule because inner predicates
/// grew, only domain values intersecting the newly derived elements
/// can yield new heads.
pub struct QuantTrigger<'a> {
    /// Set ids that contain at least one newly derived element.
    pub candidate_sets: &'a FxHashSet<TermId>,
}

/// Evaluate one variant of `rule`, calling `sink` once per satisfying
/// assignment (with all head/grouping variables bound).
#[allow(clippy::too_many_arguments)]
pub fn eval_rule_variant(
    rule: &Rule,
    variant: &Variant,
    quant_plan: Option<&QuantPlan>,
    store: &mut TermStore,
    views: &RelViews<'_>,
    policy: SetUniverse,
    trigger: Option<&QuantTrigger<'_>>,
    sink: &mut dyn FnMut(&mut TermStore, &Env) -> Result<(), EngineError>,
) -> Result<(), EngineError> {
    let mut env = Env::new(rule.num_vars);
    run_steps(
        &rule.outer,
        &variant.steps,
        0,
        store,
        views,
        policy,
        &mut env,
        &mut |store, env| match (&rule.quant, quant_plan) {
            (Some(group), Some(plan)) => eval_quant(
                group,
                plan,
                store,
                views,
                policy,
                trigger,
                env,
                &mut |store, env| {
                    // Post-group checks: literals whose variables the
                    // group just bound (e.g. the ¬C(X) of §4.2).
                    let mut env2 = env.clone();
                    run_steps(
                        &rule.outer,
                        &variant.post_steps,
                        0,
                        store,
                        views,
                        policy,
                        &mut env2,
                        &mut |store, env2| sink(store, env2),
                    )
                },
            ),
            _ => {
                let mut env2 = env.clone();
                run_steps(
                    &rule.outer,
                    &variant.post_steps,
                    0,
                    store,
                    views,
                    policy,
                    &mut env2,
                    &mut |store, env2| sink(store, env2),
                )
            }
        },
    )
}

/// Recursively execute join steps.
#[allow(clippy::too_many_arguments)]
fn run_steps(
    lits: &[BodyLit],
    steps: &[Step],
    k: usize,
    store: &mut TermStore,
    views: &RelViews<'_>,
    policy: SetUniverse,
    env: &mut Env,
    sink: &mut dyn FnMut(&mut TermStore, &mut Env) -> Result<(), EngineError>,
) -> Result<(), EngineError> {
    if k == steps.len() {
        return sink(store, env);
    }
    match &steps[k] {
        Step::Pos {
            lit,
            mask,
            delta,
            flat,
        } => {
            let (pred, args) = match &lits[*lit] {
                BodyLit::Pos(p, a) => (*p, a),
                other => unreachable!("Pos step on {other:?}"),
            };
            let rel = if *delta {
                &views.delta[pred.index()]
            } else {
                &views.full[pred.index()]
            };
            if *mask == 0 {
                if let Some((prof, rid)) = views.profile {
                    prof.record(rid, *lit as u32, 1, rel.len() as u64);
                }
                for row in 0..rel.len() as u32 {
                    match_row_then_continue(
                        lits,
                        steps,
                        k,
                        store,
                        views,
                        policy,
                        env,
                        sink,
                        args,
                        rel.row(row),
                        *flat,
                    )?;
                }
            } else {
                // Build the probe key into a stack buffer, in ascending
                // column order (arity ≤ 32) — the indexed-join path
                // performs no heap allocation.
                let mut m = *mask;
                let first_col = m.trailing_zeros() as usize;
                m &= m - 1;
                let mut key = [build_key_col(&args[first_col], store, env, views.counters); 32];
                let mut klen = 1;
                while m != 0 {
                    let col = m.trailing_zeros() as usize;
                    key[klen] = build_key_col(&args[col], store, env, views.counters);
                    klen += 1;
                    m &= m - 1;
                }
                ProbeCounters::bump(&views.counters.probes, 1);
                let rows = rel.lookup(*mask, &key[..klen]);
                ProbeCounters::bump(&views.counters.rows, rows.len() as u64);
                if let Some((prof, rid)) = views.profile {
                    prof.record(rid, *lit as u32, 1, rows.len() as u64);
                }
                for &row in rows {
                    match_row_then_continue(
                        lits,
                        steps,
                        k,
                        store,
                        views,
                        policy,
                        env,
                        sink,
                        args,
                        rel.row(row),
                        *flat,
                    )?;
                }
            }
            Ok(())
        }
        Step::BuiltinStep { lit, flat } => {
            let (b, args) = match &lits[*lit] {
                BodyLit::Builtin(b, a) => (*b, a),
                other => unreachable!("Builtin step on {other:?}"),
            };
            let known: Vec<Option<TermId>> = args
                .iter()
                .map(|p| {
                    if p.is_bound(env) {
                        p.build(store, env)
                    } else {
                        None
                    }
                })
                .collect();
            let candidates = builtin::enumerate(b, &known, store, policy)?;
            for cand in candidates {
                match_row_then_continue(
                    lits, steps, k, store, views, policy, env, sink, args, &cand, *flat,
                )?;
            }
            Ok(())
        }
        Step::NegStep { lit } => {
            let (pred, args) = match &lits[*lit] {
                BodyLit::Neg(p, a) => (*p, a),
                other => unreachable!("Neg step on {other:?}"),
            };
            let mut tuple = Vec::with_capacity(args.len());
            for arg in args {
                tuple.push(
                    arg.build(store, env)
                        .expect("planner guarantees negation is ground"),
                );
            }
            if !views.full[pred.index()].contains(&tuple) {
                run_steps(lits, steps, k + 1, store, views, policy, env, sink)?;
            }
            Ok(())
        }
        Step::EnumUniverse { var, sort } => {
            let universe = universe_of_sort(store, *sort);
            for t in universe {
                let mark = env.mark();
                env.bind(*var, t);
                run_steps(lits, steps, k + 1, store, views, policy, env, sink)?;
                env.undo_to(mark);
            }
            Ok(())
        }
    }
}

/// Build one probe-key column. Flat `Var`/`Ground` patterns read a
/// binding or copy an id; compound patterns must intern a term, which
/// allocates — counted so `EvalStats` can prove the ordinary join path
/// is allocation-free.
#[inline]
fn build_key_col(
    arg: &Pattern,
    store: &mut TermStore,
    env: &Env,
    counters: &ProbeCounters,
) -> TermId {
    if !matches!(arg, Pattern::Var(_) | Pattern::Ground(_)) {
        ProbeCounters::bump(&counters.allocs, 1);
    }
    arg.build(store, env)
        .expect("planner guarantees bound columns")
}

/// Match one relation row (or builtin candidate tuple) against `args`
/// and recurse into the remaining steps for each solution. Flat tuples
/// (all `Var`/`Ground` args, precomputed by the planner) have at most
/// one solution and bind in place with no allocation; general patterns
/// fall back to solution capture.
#[allow(clippy::too_many_arguments)]
fn match_row_then_continue(
    lits: &[BodyLit],
    steps: &[Step],
    k: usize,
    store: &mut TermStore,
    views: &RelViews<'_>,
    policy: SetUniverse,
    env: &mut Env,
    sink: &mut dyn FnMut(&mut TermStore, &mut Env) -> Result<(), EngineError>,
    args: &[Pattern],
    tuple: &[TermId],
    flat: bool,
) -> Result<(), EngineError> {
    if flat {
        let mark = env.mark();
        if match_flat(args, tuple, env) {
            run_steps(lits, steps, k + 1, store, views, policy, env, sink)?;
        }
        env.undo_to(mark);
        return Ok(());
    }
    let sols = match_solutions(store, args, tuple, env);
    for bindings in sols {
        let mark = env.mark();
        env.apply(&bindings);
        run_steps(lits, steps, k + 1, store, views, policy, env, sink)?;
        env.undo_to(mark);
    }
    Ok(())
}

/// Match a flat (all `Var`/`Ground`) argument tuple against a ground
/// tuple, binding unbound variables in place. Returns whether the whole
/// tuple matched; the caller undoes any partial bindings via its mark.
#[inline]
fn match_flat(args: &[Pattern], tuple: &[TermId], env: &mut Env) -> bool {
    for (p, &t) in args.iter().zip(tuple) {
        match p {
            Pattern::Ground(id) => {
                if *id != t {
                    return false;
                }
            }
            Pattern::Var(v) => match env.get(*v) {
                Some(bound) => {
                    if bound != t {
                        return false;
                    }
                }
                None => env.bind(*v, t),
            },
            _ => unreachable!("flat tuple has Var/Ground args only"),
        }
    }
    true
}

/// All match solutions of `patterns` against `tuple` under `env`,
/// captured as re-appliable binding lists (the matcher backtracks its
/// own bindings, so we record them).
fn match_solutions(
    store: &TermStore,
    patterns: &[Pattern],
    tuple: &[TermId],
    env: &mut Env,
) -> Vec<Vec<(VarId, TermId)>> {
    let base = env.mark();
    let mut out = Vec::new();
    match_tuple(store, patterns, tuple, env, &mut |env| {
        out.push(env.bindings_since(base));
        false
    });
    out
}

/// Evaluate the quantifier group (see module docs for the case
/// analysis).
///
/// Binders may be **dependent**: a later domain can mention earlier
/// binder variables, as in `(∀S∈F)(∀x∈S)` over nested ELPS sets. The
/// product is therefore walked level by level, rebuilding each domain
/// under the bindings of the outer levels. An empty (or atomic, §5)
/// domain satisfies its subtree vacuously.
#[allow(clippy::too_many_arguments)]
fn eval_quant(
    group: &QuantGroup,
    plan: &QuantPlan,
    store: &mut TermStore,
    views: &RelViews<'_>,
    policy: SetUniverse,
    trigger: Option<&QuantTrigger<'_>>,
    env: &mut Env,
    sink: &mut dyn FnMut(&mut TermStore, &Env) -> Result<(), EngineError>,
) -> Result<(), EngineError> {
    // Case 1: bind the first genuinely unbound domain from the active
    // universe. A domain whose variables are earlier binder variables
    // is *dependent*, not unbound — the walk below binds it.
    let mut earlier_binders: Vec<VarId> = Vec::new();
    for (qv, dom) in &group.binders {
        let mut dvars = Vec::new();
        dom.collect_vars(&mut dvars);
        let unbound = dvars
            .iter()
            .any(|v| env.get(*v).is_none() && !earlier_binders.contains(v));
        if unbound {
            let snapshot: Vec<TermId> = store.set_ids().to_vec();
            for set_id in snapshot {
                let sols = match_solutions(store, std::slice::from_ref(dom), &[set_id], env);
                for bindings in sols {
                    let mark = env.mark();
                    env.apply(&bindings);
                    eval_quant(group, plan, store, views, policy, trigger, env, sink)?;
                    env.undo_to(mark);
                }
            }
            return Ok(());
        }
        earlier_binders.push(*qv);
    }

    // Trigger pruning (sound only when every domain is independent of
    // the binder variables, so all domain values are known up front):
    // a re-derivation driven by new inner facts needs some domain to
    // contain a newly derived element.
    if let Some(t) = trigger {
        let mut ids = Vec::with_capacity(group.binders.len());
        let mut all_independent = true;
        for (_, dom) in &group.binders {
            if dom.is_bound(env) {
                ids.push(dom.build(store, env).expect("bound domain"));
            } else {
                all_independent = false;
                break;
            }
        }
        if all_independent && !ids.iter().any(|id| t.candidate_sets.contains(id)) {
            return Ok(());
        }
    }

    // Which free variables are still unbound right now?
    let unbound_free: Vec<VarId> = plan
        .unbound_free
        .iter()
        .copied()
        .filter(|v| env.get(*v).is_none())
        .collect();

    if unbound_free.is_empty() {
        // Case 2/3: dependent walk with a direct check at each leaf.
        // Vacuous levels (empty/atomic domains) succeed trivially.
        if walk_check(group, 0, store, views, policy, env)? {
            return sink(store, env);
        }
        return Ok(());
    }

    // Case 4: coverage analysis. Join the inner conjunction over
    // (quantified vars ∪ unbound free vars), group covered q-tuples by
    // free-var binding, and accept bindings whose dependent product is
    // fully covered.
    let steps = plan
        .inner_steps
        .as_ref()
        .expect("planner provides inner steps when free vars may be unbound");
    let qvars: Vec<VarId> = group.binders.iter().map(|(q, _)| *q).collect();
    let mut cover: FxHashMap<Vec<TermId>, FxHashSet<Vec<TermId>>> = FxHashMap::default();
    run_steps(
        &group.inner,
        steps,
        0,
        store,
        views,
        policy,
        env,
        &mut |_store, env| {
            let free_vals: Vec<TermId> = unbound_free
                .iter()
                .map(|v| env.get(*v).expect("inner join binds free vars"))
                .collect();
            let q_vals: Vec<TermId> = qvars
                .iter()
                .map(|q| env.get(*q).expect("inner join binds quantified vars"))
                .collect();
            cover.entry(free_vals).or_default().insert(q_vals);
            Ok(())
        },
    )?;

    // Does the walk reach any leaf at all? If not, the condition is
    // vacuous: every binding of the live unbound variables qualifies.
    if !walk_has_leaf(group, 0, store, env)? {
        if trigger.is_some() {
            // Vacuous satisfaction doesn't depend on inner facts; it
            // was derived by earlier (non-trigger) passes.
            return Ok(());
        }
        let live: Vec<(VarId, Option<Sort>)> = plan
            .live_unbound
            .iter()
            .zip(&plan.live_sorts)
            .filter(|(v, _)| env.get(**v).is_none())
            .map(|(v, s)| (*v, *s))
            .collect();
        if live.is_empty() {
            return sink(store, env);
        }
        if matches!(policy, SetUniverse::Reject) {
            return Err(EngineError::UnsupportedMode {
                builtin: "forall-in",
                mode: "vacuously-true group with unbound head variables \
                       (set enumeration disabled)"
                    .to_owned(),
            });
        }
        return enum_free(&live, 0, store, env, sink);
    }

    let betas: Vec<Vec<TermId>> = cover.keys().cloned().collect();
    for free_vals in betas {
        let covered = &cover[&free_vals];
        let mut qstack: Vec<TermId> = Vec::with_capacity(group.binders.len());
        if walk_covered(group, 0, store, env, covered, &mut qstack)? {
            let mark = env.mark();
            for (v, val) in unbound_free.iter().zip(&free_vals) {
                env.bind(*v, *val);
            }
            sink(store, env)?;
            env.undo_to(mark);
        }
    }
    Ok(())
}

/// Elements of the `level`-th domain under the current bindings. An
/// atomic value has no elements (ELPS §5) — vacuous subtree.
fn domain_elems(group: &QuantGroup, level: usize, store: &mut TermStore, env: &Env) -> Vec<TermId> {
    let id = group.binders[level]
        .1
        .build(store, env)
        .expect("walk binds earlier levels first");
    store.set_elems(id).map(<[_]>::to_vec).unwrap_or_default()
}

/// Dependent product walk, checking the inner literals at each leaf.
fn walk_check(
    group: &QuantGroup,
    level: usize,
    store: &mut TermStore,
    views: &RelViews<'_>,
    policy: SetUniverse,
    env: &mut Env,
) -> Result<bool, EngineError> {
    if level == group.binders.len() {
        return check_lits(&group.inner, store, views, policy, env);
    }
    let elems = domain_elems(group, level, store, env);
    for e in elems {
        let mark = env.mark();
        env.bind(group.binders[level].0, e);
        let ok = walk_check(group, level + 1, store, views, policy, env)?;
        env.undo_to(mark);
        if !ok {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Does the dependent product have at least one complete assignment?
fn walk_has_leaf(
    group: &QuantGroup,
    level: usize,
    store: &mut TermStore,
    env: &mut Env,
) -> Result<bool, EngineError> {
    if level == group.binders.len() {
        return Ok(true);
    }
    let elems = domain_elems(group, level, store, env);
    for e in elems {
        let mark = env.mark();
        env.bind(group.binders[level].0, e);
        let found = walk_has_leaf(group, level + 1, store, env)?;
        env.undo_to(mark);
        if found {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Dependent product walk against a coverage set: true iff every leaf
/// q-tuple is covered.
fn walk_covered(
    group: &QuantGroup,
    level: usize,
    store: &mut TermStore,
    env: &mut Env,
    covered: &FxHashSet<Vec<TermId>>,
    qstack: &mut Vec<TermId>,
) -> Result<bool, EngineError> {
    if level == group.binders.len() {
        return Ok(covered.contains(qstack));
    }
    let elems = domain_elems(group, level, store, env);
    for e in elems {
        let mark = env.mark();
        env.bind(group.binders[level].0, e);
        qstack.push(e);
        let ok = walk_covered(group, level + 1, store, env, covered, qstack)?;
        qstack.pop();
        env.undo_to(mark);
        if !ok {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The active terms of a given sort (`None` = every term).
fn universe_of_sort(store: &TermStore, sort: Option<Sort>) -> Vec<TermId> {
    match sort {
        Some(Sort::Set) => store.set_ids().to_vec(),
        Some(Sort::Atom) => store.ids().filter(|&id| store.is_atomic(id)).collect(),
        None => store.ids().collect(),
    }
}

/// Enumerate assignments of `vars` over the sort-filtered universe
/// (vacuous-truth case).
fn enum_free(
    vars: &[(VarId, Option<Sort>)],
    k: usize,
    store: &mut TermStore,
    env: &mut Env,
    sink: &mut dyn FnMut(&mut TermStore, &Env) -> Result<(), EngineError>,
) -> Result<(), EngineError> {
    if k == vars.len() {
        return sink(store, env);
    }
    let (var, sort) = vars[k];
    let universe = universe_of_sort(store, sort);
    for t in universe {
        let mark = env.mark();
        env.bind(var, t);
        enum_free(vars, k + 1, store, env, sink)?;
        env.undo_to(mark);
    }
    Ok(())
}

/// Check a fully-bound conjunction of literals.
fn check_lits(
    lits: &[BodyLit],
    store: &mut TermStore,
    views: &RelViews<'_>,
    policy: SetUniverse,
    env: &Env,
) -> Result<bool, EngineError> {
    for lit in lits {
        let ok = match lit {
            BodyLit::Pos(pred, args) => {
                let mut tuple = Vec::with_capacity(args.len());
                for a in args {
                    tuple.push(a.build(store, env).expect("check requires bound literals"));
                }
                views.full[pred.index()].contains(&tuple)
            }
            BodyLit::Neg(pred, args) => {
                let mut tuple = Vec::with_capacity(args.len());
                for a in args {
                    tuple.push(a.build(store, env).expect("check requires bound literals"));
                }
                !views.full[pred.index()].contains(&tuple)
            }
            BodyLit::Builtin(b, args) => {
                let known: Vec<Option<TermId>> = args.iter().map(|p| p.build(store, env)).collect();
                if known.iter().any(Option::is_none) {
                    return Err(EngineError::UnsupportedMode {
                        builtin: b.name(),
                        mode: "unbound argument in quantified check".to_owned(),
                    });
                }
                !builtin::enumerate(*b, &known, store, policy)?.is_empty()
            }
        };
        if !ok {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use crate::config::EvalConfig;
    use crate::engine::Engine;
    use crate::pattern::{Pattern, VarId};
    use crate::rule::{BodyLit, Builtin, Rule};

    use crate::pattern::Pattern as P;

    fn v(i: u32) -> Pattern {
        P::Var(VarId(i))
    }

    /// Dependent binders: (∀S∈F)(∀x∈S) over nested sets, driven through
    /// the public engine so planning and evaluation both run.
    #[test]
    fn dependent_binder_walk() {
        let mut e = Engine::new(EvalConfig::default());
        let fam = e.pred("fam", 1);
        let good = e.pred("good", 1);
        let all = e.pred("all", 1);
        let st = e.store_mut();
        let a = st.atom("a");
        let b = st.atom("b");
        let c = st.atom("c");
        let s_ab = st.set(vec![a, b]);
        let s_c = st.set(vec![c]);
        let f1 = st.set(vec![s_ab, s_c]);
        let s_b = st.set(vec![b]);
        let f2 = st.set(vec![s_b]);
        let empty = st.empty_set();
        let f3 = st.set(vec![empty]);
        e.fact(fam, vec![f1]).unwrap();
        e.fact(fam, vec![f2]).unwrap();
        e.fact(fam, vec![f3]).unwrap();
        e.fact(good, vec![a]).unwrap();
        e.fact(good, vec![c]).unwrap();
        // all(F) :- fam(F), (∀S∈F)(∀x∈S) good(x).
        e.rule(Rule {
            head: all,
            head_args: vec![v(0)],
            group: None,
            outer: vec![BodyLit::Pos(fam, vec![v(0)])],
            quant: Some(crate::rule::QuantGroup {
                binders: vec![(VarId(1), v(0)), (VarId(2), v(1))],
                inner: vec![BodyLit::Pos(good, vec![v(2)])],
            }),
            num_vars: 3,
            var_names: vec!["F".into(), "S".into(), "X".into()],
            var_sorts: vec![],
        })
        .unwrap();
        e.run().unwrap();
        assert!(!e.holds(all, &[f1]), "b is not good");
        assert!(!e.holds(all, &[f2]), "b is not good");
        assert!(e.holds(all, &[f3]), "the empty member set is vacuous");
    }

    /// Post-group deferred negation: ¬C(X) where X is bound only by the
    /// quantifier group (the §4.2 shape), with the domain enumerated
    /// from the active universe.
    #[test]
    fn deferred_negation_after_group() {
        let mut e = Engine::new(EvalConfig {
            set_universe: crate::config::SetUniverse::ActiveSets,
            ..EvalConfig::default()
        });
        let a_pred = e.pred("a", 1);
        let blocked = e.pred("blocked", 1);
        let res = e.pred("res", 1);
        let st = e.store_mut();
        let c1 = st.atom("c1");
        let c2 = st.atom("c2");
        let s1 = st.set(vec![c1]);
        let s12 = st.set(vec![c1, c2]);
        let _ = st.empty_set();
        e.fact(a_pred, vec![c1]).unwrap();
        e.fact(a_pred, vec![c2]).unwrap();
        e.fact(blocked, vec![s12]).unwrap();
        // res(X) :- (∀u∈X) a(u), ¬blocked(X).
        e.rule(Rule {
            head: res,
            head_args: vec![v(0)],
            group: None,
            outer: vec![BodyLit::Neg(blocked, vec![v(0)])],
            quant: Some(crate::rule::QuantGroup {
                binders: vec![(VarId(1), v(0))],
                inner: vec![BodyLit::Pos(a_pred, vec![v(1)])],
            }),
            num_vars: 2,
            var_names: vec!["X".into(), "U".into()],
            var_sorts: vec![],
        })
        .unwrap();
        e.run().unwrap();
        assert!(e.holds(res, &[s1]));
        assert!(!e.holds(res, &[s12]), "blocked sets are excluded");
    }

    /// EnumUniverse with a Set sort restriction never binds atoms.
    #[test]
    fn enum_universe_respects_sorts() {
        let mut e = Engine::new(EvalConfig {
            set_universe: crate::config::SetUniverse::ActiveSets,
            ..EvalConfig::default()
        });
        let seed = e.pred("seed", 1);
        let pairs = e.pred("pairs", 2);
        let st = e.store_mut();
        let a = st.atom("a");
        let s1 = st.set(vec![a]);
        e.fact(seed, vec![a]).unwrap();
        e.fact(seed, vec![s1]).unwrap();
        // pairs(X, Y) :- seed(X).  — Y bound by nothing; sorted Set.
        e.rule(Rule {
            head: pairs,
            head_args: vec![v(0), v(1)],
            group: None,
            outer: vec![BodyLit::Pos(seed, vec![v(0)])],
            quant: None,
            num_vars: 2,
            var_names: vec!["X".into(), "Y".into()],
            var_sorts: vec![None, Some(lps_term::Sort::Set)],
        })
        .unwrap();
        e.run().unwrap();
        // Y ranges over sets only: one set in the store → 2 seeds × 1.
        assert_eq!(e.tuples(pairs).count(), 2);
        for t in e.tuples(pairs) {
            assert!(e.store().is_set(t[1]), "Y must be a set");
        }
    }

    /// Builtin check inside a quantifier group (Path A) handles
    /// negated literals and builtins.
    #[test]
    fn quantified_check_with_builtin_and_negation() {
        let mut e = Engine::new(EvalConfig::default());
        let g = e.pred("g", 1);
        let bad = e.pred("bad", 1);
        let ok = e.pred("ok", 1);
        let st = e.store_mut();
        let i1 = st.int(1);
        let i2 = st.int(2);
        let i9 = st.int(9);
        let s12 = st.set(vec![i1, i2]);
        let s19 = st.set(vec![i1, i9]);
        e.fact(g, vec![s12]).unwrap();
        e.fact(g, vec![s19]).unwrap();
        e.fact(bad, vec![i9]).unwrap();
        let five = e.store_mut().int(5);
        // ok(S) :- g(S), (∀x∈S)(x < 5 ∧ ¬bad(x)).
        e.rule(Rule {
            head: ok,
            head_args: vec![v(0)],
            group: None,
            outer: vec![BodyLit::Pos(g, vec![v(0)])],
            quant: Some(crate::rule::QuantGroup {
                binders: vec![(VarId(1), v(0))],
                inner: vec![
                    BodyLit::Builtin(Builtin::Lt, vec![v(1), Pattern::Ground(five)]),
                    BodyLit::Neg(bad, vec![v(1)]),
                ],
            }),
            num_vars: 2,
            var_names: vec!["S".into(), "X".into()],
            var_sorts: vec![],
        })
        .unwrap();
        e.run().unwrap();
        assert!(e.holds(ok, &[s12]));
        assert!(!e.holds(ok, &[s19]), "9 fails both conditions");
    }
}
