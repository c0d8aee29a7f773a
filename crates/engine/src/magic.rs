//! Magic-set rewrite: demand-driven (goal-directed) evaluation of a
//! query over the lowered rule set.
//!
//! A bottom-up engine answers `?- tc(a, X)` by materializing *all* of
//! `tc` and filtering — wasted work proportional to the whole model.
//! The classic fix (Bancilhon–Maier–Sagiv–Ullman) specializes the
//! program to the query's *adornment* (which arguments are bound):
//! every IDB predicate `p` reached from the query gets an adorned copy
//! `p#α`, guarded by a *magic* predicate `m#p#α` holding the bound
//! argument tuples for which `p`'s extension is actually demanded.
//! Rules propagate demand sideways: in `t(X, Z) :- e(X, Y), t(Y, Z)`
//! with `X` bound, the recursive call is only demanded at the `Y`s the
//! `e`-join produces, giving
//!
//! ```text
//! m#t#bf(Y)    :- m#t#bf(X), e(X, Y).
//! t#bf(X, Z)   :- m#t#bf(X), e(X, Y), t#bf(Y, Z).
//! t#bf(X, Z)   :- m#t#bf(X), t(X, Z).          % EDB bridge
//! ```
//!
//! seeded by the single magic fact `m#t#bf(a)` — the fixpoint then
//! touches only the part of `tc` reachable from `a`.
//!
//! Scope and soundness:
//!
//! * The rewrite applies only when the subprogram reachable from the
//!   query is **monotone** ([`crate::strata::demand_obstruction`]):
//!   negation or LDL grouping reachable from a magic predicate would
//!   make the rewritten program unstratifiable in general, so the
//!   engine falls back to full materialization (the same discipline
//!   the incremental update path uses for non-monotone strata).
//! * Sideways information passing: a body argument counts as bound if
//!   all its variables occur in a bound head position or an earlier
//!   *visited* body literal. Which literal is visited next is chosen
//!   by the cost model when statistics are supplied ([`SipsCost`]):
//!   the greedy order prefers the literal with the smallest estimated
//!   result given the bindings so far, so a recursive subgoal sharing
//!   the query's bound column is visited *before* an unbound scan and
//!   keeps its demand restricted — the right-linear closure queried
//!   `fb` gets the same selective rewrite the left-linear one gets
//!   `bf`. Without statistics the visit order is textual, the
//!   classical SIPS. Any SIPS yields a sound and complete rewrite; if
//!   the chosen one leaves a magic rule unplannable (a builtin mode
//!   becomes unsatisfiable without the later literals), the engine
//!   likewise falls back rather than weakening the plan.
//! * Predicates referenced inside a `(∀x∈X)` group are demanded with
//!   the all-free adornment — fully evaluated — since their demand
//!   would depend on the quantified elements, not on rule-head
//!   bindings. The quantifier itself is monotone and stays in place.
//! * Every adorned predicate gets an *EDB bridge* rule reading the
//!   original predicate, so extensional facts loaded for an IDB
//!   predicate flow into its adorned copy.
//!
//! Adorned and magic predicates are registered in the engine's
//! ordinary [`PredRegistry`] under `#`-separated names (`t#bf`,
//! `m#t#bf`) that the surface lexer cannot produce, so they can never
//! collide with user predicates. [`crate::Engine::query`]
//! drives this rewrite, caches the compiled plan per `(pred,
//! adornment)`, and seeds the magic fact per call.

use lps_term::{FxHashMap, TermId, TermStore};

use crate::builtin::mode_ok;
use crate::config::SetUniverse;
use crate::pattern::{Pattern, VarId};
use crate::pred::{PredId, PredRegistry};
use crate::relation::{ColMask, MAX_ARITY};
use crate::rule::{BodyLit, Rule};
use crate::stats::Stats;
use crate::strata::{demand_obstruction, DemandObstruction};

/// Binding pattern of a query or subgoal: bit *i* set ⇔ argument *i*
/// bound. Reuses the engine-wide column-mask convention.
pub type Adornment = ColMask;

/// The adornment of a query argument list: bound where a ground term
/// was supplied.
pub fn adornment_of(args: &[Option<TermId>]) -> Adornment {
    let mut mask = 0;
    for (i, a) in args.iter().enumerate() {
        if a.is_some() {
            mask |= 1 << i;
        }
    }
    mask
}

/// Render an adornment in the classical `b`/`f` notation, e.g. `bf`
/// for "first bound, second free".
pub fn adornment_string(mask: Adornment, arity: usize) -> String {
    (0..arity)
        .map(|i| if mask & (1 << i) != 0 { 'b' } else { 'f' })
        .collect()
}

/// The magic-rewritten program for one query pattern.
#[derive(Debug)]
pub struct MagicProgram {
    /// The rewritten rules: adorned copies of every reachable IDB
    /// rule, their magic (demand-propagation) rules, and the EDB
    /// bridges. References original predicates only as base relations.
    pub rules: Vec<Rule>,
    /// The adorned copy of the query predicate — where the answers
    /// accumulate.
    pub answer: PredId,
    /// The magic predicate of the query itself: seed it with the bound
    /// argument tuple before evaluating. `None` when the query has no
    /// bound arguments (pure demand-restricted materialization of the
    /// reachable subprogram).
    pub magic_seed: Option<PredId>,
    /// Every adorned and magic predicate of this rewrite — the
    /// relation *space* the evaluator clears before each derivation.
    pub space: Vec<PredId>,
    /// The subset of `space` holding demand tuples (for the
    /// `magic_facts_seeded` statistic when seeds arrive as ground
    /// fact rules rather than through [`MagicProgram::magic_seed`]).
    pub magic_preds: Vec<PredId>,
    /// Number of `(predicate, adornment)` pairs compiled.
    pub adornments: usize,
    /// Number of rule bodies whose cost-chosen sideways-passing order
    /// diverged from textual order (feeds
    /// [`crate::config::EvalStats::reorders_applied`]).
    pub reorders: usize,
}

/// Cost input for SIPS selection: the engine's statistics snapshot
/// plus the set-universe policy (deciding builtin evaluability while
/// scoring candidate orders uses the same mode table the planner
/// uses). `None` in [`magic_rewrite`] means classical textual SIPS.
#[derive(Clone, Copy, Debug)]
pub struct SipsCost<'a> {
    /// Per-predicate cardinalities backing the estimates.
    pub stats: &'a Stats,
    /// Builtin enumeration policy, as in [`crate::EvalConfig`].
    pub policy: SetUniverse,
}

/// Result of attempting the rewrite.
#[derive(Debug)]
pub enum MagicOutcome {
    /// The demand-specialized program.
    Rewritten(MagicProgram),
    /// A non-monotone construct is reachable from the query: evaluate
    /// by full materialization instead.
    Obstructed(DemandObstruction),
}

/// Rewrite `rules` for a query over `query` with the given bound
/// positions. Registers adorned and magic predicates in `preds`
/// (interning their names in `store`); the caller must extend its
/// relation vectors afterwards.
pub fn magic_rewrite(
    rules: &[Rule],
    query: PredId,
    bound: Adornment,
    store: &mut TermStore,
    preds: &mut PredRegistry,
    cost: Option<SipsCost<'_>>,
) -> MagicOutcome {
    if let Some(obs) = demand_obstruction(rules, [query]) {
        return MagicOutcome::Obstructed(obs);
    }
    let mut rw = Rewriter {
        rules,
        store,
        preds,
        cost,
        reorders: 0,
        adorned: FxHashMap::default(),
        magic: FxHashMap::default(),
        worklist: Vec::new(),
        out: Vec::new(),
        space: Vec::new(),
        magic_preds: Vec::new(),
    };
    let answer = rw.demand(query, bound);
    while let Some((pred, mask)) = rw.worklist.pop() {
        rw.rewrite_pred(pred, mask);
    }
    let magic_seed = rw.magic.get(&(query, bound)).copied();
    MagicOutcome::Rewritten(MagicProgram {
        adornments: rw.adorned.len(),
        rules: rw.out,
        answer,
        magic_seed,
        space: rw.space,
        magic_preds: rw.magic_preds,
        reorders: rw.reorders,
    })
}

struct Rewriter<'a> {
    rules: &'a [Rule],
    store: &'a mut TermStore,
    preds: &'a mut PredRegistry,
    /// Statistics for cost-scored SIPS; `None` = textual order.
    cost: Option<SipsCost<'a>>,
    /// Rule bodies whose chosen order diverged from textual.
    reorders: usize,
    /// `(pred, adornment)` → adorned predicate.
    adorned: FxHashMap<(PredId, Adornment), PredId>,
    /// `(pred, adornment)` → magic predicate (non-trivial adornments).
    magic: FxHashMap<(PredId, Adornment), PredId>,
    worklist: Vec<(PredId, Adornment)>,
    out: Vec<Rule>,
    space: Vec<PredId>,
    magic_preds: Vec<PredId>,
}

impl Rewriter<'_> {
    fn name(&self, p: PredId) -> String {
        self.store
            .symbols()
            .name(self.preds.info(p).name)
            .to_owned()
    }

    fn register(&mut self, name: &str, arity: usize) -> PredId {
        let sym = self.store.symbols_mut().intern(name);
        self.preds.register(sym, arity)
    }

    /// Whether `p` has defining rules (is intensional for the rewrite).
    fn is_idb(&self, p: PredId) -> bool {
        self.rules.iter().any(|r| r.head == p)
    }

    /// Demand `(pred, mask)`: get or create its adorned predicate,
    /// enqueueing the rewrite of its rules on first sight.
    fn demand(&mut self, pred: PredId, mask: Adornment) -> PredId {
        if let Some(&id) = self.adorned.get(&(pred, mask)) {
            return id;
        }
        let arity = self.preds.info(pred).arity;
        let base = self.name(pred);
        let adorn = adornment_string(mask, arity);
        let id = self.register(&format!("{base}#{adorn}"), arity);
        self.adorned.insert((pred, mask), id);
        self.space.push(id);
        if mask != 0 {
            let m = self.register(&format!("m#{base}#{adorn}"), mask.count_ones() as usize);
            self.magic.insert((pred, mask), m);
            self.space.push(m);
            self.magic_preds.push(m);
        }
        self.worklist.push((pred, mask));
        id
    }

    /// Choose the sideways-information-passing visit order for one
    /// rule body. Textual (identity) without cost input. With
    /// statistics: greedy over `(tier, -estimate)` — repeatedly pick
    /// the best evaluable literal given the variables bound so far.
    /// The tiers encode the structural rules that matter for demand
    /// propagation regardless of cardinalities:
    ///
    /// 1. ground builtins (free filter), then ground negations, then
    ///    fully-bound atoms (existence checks);
    /// 2. **connected** atoms — sharing at least one bound variable —
    ///    ranked by estimated matches per probe (`rows /
    ///    distinct(bound cols)`; a bound subgoal without statistics is
    ///    presumed demand-sized);
    /// 3. evaluable generative builtins (deterministic binders);
    /// 4. **disconnected** atoms, smallest extension first — a scan
    ///    that shares no binding multiplies the demand frontier by its
    ///    whole extension and turns downstream subgoal demand into a
    ///    cross product, so it is deferred no matter how small (this,
    ///    not the estimates, is what keeps the right-linear closure's
    ///    `fb` demand selective);
    /// 5. builtins needing active-universe enumeration.
    ///
    /// Ties resolve to the lowest textual index, so the choice is
    /// deterministic and degenerates to the classical textual SIPS
    /// when the model does not discriminate. Stuck negations/builtins
    /// (modes unsatisfiable under any remaining prefix) are appended
    /// textually; the plan compiler decides their fate, same as in
    /// the textual rewrite.
    fn sips_order(&self, outer: &[BodyLit], bound_vars: &[VarId]) -> Vec<usize> {
        let Some(SipsCost { stats, policy }) = self.cost else {
            return (0..outer.len()).collect();
        };
        let mut bound: Vec<VarId> = bound_vars.to_vec();
        let mut remaining: Vec<usize> = (0..outer.len()).collect();
        let mut order = Vec::with_capacity(outer.len());
        while !remaining.is_empty() {
            let mut best: Option<((i64, i64), usize)> = None;
            for &i in &remaining {
                let score: (i64, i64) = match &outer[i] {
                    BodyLit::Builtin(b, args) => {
                        let flags: Vec<bool> = args
                            .iter()
                            .map(|p| !p.any_var(&|v| !bound.contains(&v)))
                            .collect();
                        if !mode_ok(*b, &flags, policy) {
                            continue; // not evaluable yet
                        }
                        if flags.iter().all(|&f| f) {
                            (1000, 0) // ground check: free filter
                        } else if mode_ok(*b, &flags, SetUniverse::Reject) {
                            (500, 0) // deterministic binder
                        } else {
                            (30, 0) // set-universe enumeration: last
                        }
                    }
                    BodyLit::Neg(_, args) => {
                        if args.iter().any(|p| p.any_var(&|v| !bound.contains(&v))) {
                            continue; // unsafe until its vars are bound
                        }
                        (900, 0)
                    }
                    BodyLit::Pos(q, args) => {
                        let beta = bound_positions(args, &bound);
                        if !args.is_empty() && beta.count_ones() as usize == args.len() {
                            (800, 0) // existence check
                        } else {
                            let connected = outer[i].vars().into_iter().any(|v| bound.contains(&v));
                            let est = match stats.estimate(*q, beta) {
                                Some(est) => est.min(1 << 40) as i64,
                                // No data: empty now, or registered
                                // after the snapshot. A *connected*
                                // subgoal stays demand-sized; a
                                // disconnected IDB call would force
                                // full materialization of its
                                // subtree — the very last resort.
                                None if connected => 8,
                                None if self.is_idb(*q) => 1 << 40,
                                None => 50,
                            };
                            (if connected { 600 } else { 400 }, -est)
                        }
                    }
                };
                if best.is_none_or(|(s, _)| score > s) {
                    best = Some((score, i));
                }
            }
            let Some((_, pick)) = best else {
                // Only stuck negations/builtins remain.
                order.extend(remaining.iter().copied());
                break;
            };
            remaining.retain(|&i| i != pick);
            order.push(pick);
            for v in outer[pick].vars() {
                if !bound.contains(&v) {
                    bound.push(v);
                }
            }
        }
        order
    }

    /// Emit the adorned rules, magic rules, and EDB bridge for one
    /// demanded `(pred, adornment)` pair.
    fn rewrite_pred(&mut self, pred: PredId, mask: Adornment) {
        let adorned_head = self.adorned[&(pred, mask)];
        let magic_head = self.magic.get(&(pred, mask)).copied();
        self.out.push(bridge_rule(
            pred,
            adorned_head,
            magic_head,
            mask,
            self.preds.info(pred).arity,
        ));
        for ri in 0..self.rules.len() {
            if self.rules[ri].head != pred {
                continue;
            }
            let rule = &self.rules[ri];
            let (head_args, num_vars, var_names, var_sorts) = (
                rule.head_args.clone(),
                rule.num_vars,
                rule.var_names.clone(),
                rule.var_sorts.clone(),
            );

            // Bound variables so far: those of the bound head
            // positions (the magic literal, when present, grounds
            // them at evaluation time).
            let mut bound_vars: Vec<VarId> = Vec::new();
            let mut new_outer: Vec<BodyLit> = Vec::new();
            if let Some(m) = magic_head {
                let margs: Vec<Pattern> = masked_args(&head_args, mask);
                for a in &margs {
                    a.collect_vars(&mut bound_vars);
                }
                new_outer.push(BodyLit::Pos(m, margs));
            }

            // Sideways pass over the outer literals: cost-chosen
            // visit order when statistics are available, textual
            // otherwise (and exactly textual on ties).
            let order = self.sips_order(&self.rules[ri].outer, &bound_vars);
            if order.iter().copied().ne(0..self.rules[ri].outer.len()) {
                self.reorders += 1;
            }
            for li in order {
                let lit = self.rules[ri].outer[li].clone();
                match &lit {
                    BodyLit::Pos(q, args) if self.is_idb(*q) => {
                        let beta = bound_positions(args, &bound_vars);
                        let adorned_q = self.demand(*q, beta);
                        if beta != 0 {
                            // Demand propagation: the subgoal's bound
                            // arguments, derivable from the demand on
                            // this rule's head plus the preceding
                            // (already adorned) literals.
                            let magic_q = self.magic[&(*q, beta)];
                            self.out.push(Rule {
                                head: magic_q,
                                head_args: masked_args(args, beta),
                                group: None,
                                outer: new_outer.clone(),
                                quant: None,
                                num_vars,
                                var_names: var_names.clone(),
                                var_sorts: var_sorts.clone(),
                            });
                        }
                        new_outer.push(BodyLit::Pos(adorned_q, args.clone()));
                    }
                    _ => new_outer.push(lit.clone()),
                }
                for v in lit.vars() {
                    if !bound_vars.contains(&v) {
                        bound_vars.push(v);
                    }
                }
            }

            // Quantifier-inner IDB predicates: demanded all-free (their
            // demand depends on quantified elements, not head
            // bindings), so the subtree below them fully materializes.
            let quant = self.rules[ri].quant.clone().map(|mut q| {
                for lit in &mut q.inner {
                    if let BodyLit::Pos(p, _) = lit {
                        if self.is_idb(*p) {
                            *p = self.demand(*p, 0);
                        }
                    }
                }
                q
            });

            self.out.push(Rule {
                head: adorned_head,
                head_args,
                group: None, // obstruction check excluded grouping
                outer: new_outer,
                quant,
                num_vars,
                var_names,
                var_sorts,
            });
        }
    }
}

/// `p#α(X₁…Xₙ) :- m#p#α(bound Xᵢ), p(X₁…Xₙ)` — extensional facts
/// loaded for an IDB predicate flow into its adorned copy. Without a
/// magic guard (all-free) the bridge is a plain copy rule.
fn bridge_rule(
    pred: PredId,
    adorned: PredId,
    magic: Option<PredId>,
    mask: Adornment,
    arity: usize,
) -> Rule {
    let vars: Vec<Pattern> = (0..arity).map(|i| Pattern::Var(VarId(i as u32))).collect();
    let mut outer = Vec::with_capacity(2);
    if let Some(m) = magic {
        outer.push(BodyLit::Pos(m, masked_args(&vars, mask)));
    }
    outer.push(BodyLit::Pos(pred, vars.clone()));
    Rule {
        head: adorned,
        head_args: vars,
        group: None,
        outer,
        quant: None,
        num_vars: arity,
        var_names: (0..arity).map(|i| format!("B{i}")).collect(),
        var_sorts: vec![],
    }
}

/// The argument patterns at the bound positions of `mask`, in
/// ascending position order (the magic predicate's column layout).
fn masked_args(args: &[Pattern], mask: Adornment) -> Vec<Pattern> {
    args.iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, p)| p.clone())
        .collect()
}

/// A conjunctive goal lifted to its *shape*: every top-level ground
/// argument of a positive outer literal is replaced by a fresh
/// variable, and those variables are prepended to the head as bound
/// answer columns — so two goals that differ only in such constants
/// share one canonical rule, one magic-set rewrite, and one compiled
/// plan. The lifted constants become the magic seed tuple of the
/// shared plan: `?- t(a, X), e(X, Y)` and `?- t(b, X), e(X, Y)` both
/// canonicalize to `shape(C, X, Y) :- t(C, X), e(X, Y)` queried with
/// the first column bound, seeded by `(a)` resp. `(b)`.
///
/// Only top-level `Ground` arguments of positive outer literals are
/// lifted: constants nested inside set/function patterns, inside
/// builtins or negation, or under the quantifier group stay in place
/// and remain part of the shape key (lifting them would not improve
/// demand propagation — the textual SIPS counts a nested ground
/// pattern as bound either way only at the top level).
///
/// The shape predicate must stay within [`MAX_ARITY`] columns, so at
/// most `MAX_ARITY - head arity` constants lift, in lift order; any
/// further constants stay ground in the body (and in the shape key).
#[derive(Debug)]
pub struct LiftedGoal {
    /// The canonical rule. Its `head` is still the original goal-head
    /// predicate — the caller grafts the dedicated shape predicate
    /// (whose arity is `consts.len() + original head arity`) before
    /// compiling.
    pub rule: Rule,
    /// The lifted constants in lift order: the bound values of the
    /// prepended head columns, i.e. the magic seed tuple.
    pub consts: Vec<TermId>,
    /// Structural shape key: two goals get equal keys iff their
    /// canonical rules are identical (same predicates, same literal
    /// sequence, same variable topology, same *non-lifted* ground
    /// terms) — the cache key of the conjunctive plan cache.
    pub key: String,
}

/// Canonicalize a conjunctive goal rule for the shape-keyed plan
/// cache. See [`LiftedGoal`].
pub fn lift_goal(rule: &Rule) -> LiftedGoal {
    let mut canonical = rule.clone();
    let mut consts: Vec<TermId> = Vec::new();
    let base = rule.num_vars as u32;
    let max_lifted = MAX_ARITY.saturating_sub(rule.head_args.len());
    for lit in &mut canonical.outer {
        if let BodyLit::Pos(_, args) = lit {
            for a in args.iter_mut() {
                match a {
                    Pattern::Ground(id) if consts.len() < max_lifted => {
                        consts.push(*id);
                        *a = Pattern::Var(VarId(base + consts.len() as u32 - 1));
                    }
                    _ => {}
                }
            }
        }
    }
    let mut head_args: Vec<Pattern> = (0..consts.len())
        .map(|i| Pattern::Var(VarId(base + i as u32)))
        .collect();
    head_args.extend(canonical.head_args.iter().cloned());
    canonical.head_args = head_args;
    canonical.num_vars = rule.num_vars + consts.len();
    canonical
        .var_names
        .extend((0..consts.len()).map(|i| format!("$c{i}")));
    if !canonical.var_sorts.is_empty() {
        canonical.var_sorts.extend((0..consts.len()).map(|_| None));
    }
    let key = goal_shape_key(&canonical);
    LiftedGoal {
        rule: canonical,
        consts,
        key,
    }
}

/// Serialize the structure of a canonical goal rule into a stable
/// cache key. Variables appear by slot index, predicates and symbols
/// by registry index, residual ground terms by interned id — all
/// stable for the lifetime of one engine session, which is exactly the
/// lifetime of the cache.
pub fn goal_shape_key(rule: &Rule) -> String {
    use std::fmt::Write as _;
    let mut key = String::new();
    push_patterns(&mut key, &rule.head_args);
    for lit in &rule.outer {
        match lit {
            BodyLit::Pos(p, args) => {
                let _ = write!(key, "+{}", p.index());
                push_patterns(&mut key, args);
            }
            BodyLit::Neg(p, args) => {
                let _ = write!(key, "-{}", p.index());
                push_patterns(&mut key, args);
            }
            BodyLit::Builtin(b, args) => {
                let _ = write!(key, "%{}", b.name());
                push_patterns(&mut key, args);
            }
        }
    }
    if let Some(g) = &rule.group {
        let _ = write!(key, "<{}:{}>", g.arg_pos, g.var.0);
    }
    if let Some(q) = &rule.quant {
        key.push('A');
        for (v, dom) in &q.binders {
            let _ = write!(key, "{}@", v.0);
            push_pattern(&mut key, dom);
        }
        key.push(':');
        for lit in &q.inner {
            match lit {
                BodyLit::Pos(p, args) => {
                    let _ = write!(key, "+{}", p.index());
                    push_patterns(&mut key, args);
                }
                BodyLit::Neg(p, args) => {
                    let _ = write!(key, "-{}", p.index());
                    push_patterns(&mut key, args);
                }
                BodyLit::Builtin(b, args) => {
                    let _ = write!(key, "%{}", b.name());
                    push_patterns(&mut key, args);
                }
            }
        }
    }
    key
}

fn push_patterns(key: &mut String, args: &[Pattern]) {
    key.push('(');
    for a in args {
        push_pattern(key, a);
        key.push(',');
    }
    key.push(')');
}

fn push_pattern(key: &mut String, p: &Pattern) {
    use std::fmt::Write as _;
    match p {
        Pattern::Var(v) => {
            let _ = write!(key, "v{}", v.0);
        }
        Pattern::Ground(id) => {
            let _ = write!(key, "g{}", id.index());
        }
        Pattern::App(f, ps) => {
            let _ = write!(key, "f{}", f.index());
            push_patterns(key, ps);
        }
        Pattern::Set(ps) => {
            key.push('s');
            push_patterns(key, ps);
        }
    }
}

/// Positions whose pattern is fully bound given `bound_vars`.
fn bound_positions(args: &[Pattern], bound_vars: &[VarId]) -> Adornment {
    let mut mask = 0;
    for (i, p) in args.iter().enumerate() {
        if !p.any_var(&|v| !bound_vars.contains(&v)) {
            mask |= 1 << i;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use lps_term::TermStore;

    fn v(i: u32) -> Pattern {
        Pattern::Var(VarId(i))
    }

    struct Fixture {
        store: TermStore,
        preds: PredRegistry,
        e: PredId,
        t: PredId,
    }

    /// edge/path transitive closure over a fresh registry.
    fn tc_fixture() -> (Fixture, Vec<Rule>) {
        let mut store = TermStore::new();
        let mut preds = PredRegistry::new();
        let e = preds.register(store.symbols_mut().intern("e"), 2);
        let t = preds.register(store.symbols_mut().intern("t"), 2);
        let mk = |head, head_args, outer, nv: usize| Rule {
            head,
            head_args,
            group: None,
            outer,
            quant: None,
            num_vars: nv,
            var_names: (0..nv).map(|i| format!("V{i}")).collect(),
            var_sorts: vec![],
        };
        let rules = vec![
            mk(
                t,
                vec![v(0), v(1)],
                vec![BodyLit::Pos(e, vec![v(0), v(1)])],
                2,
            ),
            mk(
                t,
                vec![v(0), v(2)],
                vec![
                    BodyLit::Pos(e, vec![v(0), v(1)]),
                    BodyLit::Pos(t, vec![v(1), v(2)]),
                ],
                3,
            ),
        ];
        (Fixture { store, preds, e, t }, rules)
    }

    #[test]
    fn adornment_notation_roundtrips() {
        let a = TermStore::new().atom("a");
        assert_eq!(adornment_of(&[Some(a), None]), 0b01);
        assert_eq!(adornment_string(0b01, 2), "bf");
        assert_eq!(adornment_string(0b10, 2), "fb");
        assert_eq!(adornment_string(0, 3), "fff");
        assert_eq!(adornment_of(&[None, None]), 0);
    }

    #[test]
    fn tc_bf_rewrite_has_magic_recursion() {
        let (mut fx, rules) = tc_fixture();
        let MagicOutcome::Rewritten(mp) =
            magic_rewrite(&rules, fx.t, 0b01, &mut fx.store, &mut fx.preds, None)
        else {
            panic!("monotone program must rewrite");
        };
        // One adornment (t, bf): magic seed + answer pred exist.
        assert_eq!(mp.adornments, 1);
        let seed = mp.magic_seed.expect("bf query has a magic seed");
        assert_eq!(fx.preds.info(seed).arity, 1);
        assert_eq!(fx.preds.info(mp.answer).arity, 2);
        // Bridge + 2 adorned rules + 1 magic-propagation rule.
        assert_eq!(mp.rules.len(), 4);
        let magic_rules: Vec<&Rule> = mp.rules.iter().filter(|r| r.head == seed).collect();
        assert_eq!(magic_rules.len(), 1, "m#t#bf(Y) :- m#t#bf(X), e(X, Y)");
        assert!(magic_rules[0]
            .outer
            .iter()
            .any(|l| matches!(l, BodyLit::Pos(p, _) if *p == fx.e)));
        // Every adorned rule is guarded by the magic literal first.
        for r in mp.rules.iter().filter(|r| r.head == mp.answer) {
            assert!(
                matches!(r.outer.first(), Some(BodyLit::Pos(p, _)) if *p == seed),
                "adorned rule must open with its magic guard: {r:?}"
            );
        }
        // The rewrite space covers exactly the new predicates.
        assert_eq!(mp.space.len(), 2);
        assert_eq!(mp.magic_preds, vec![seed]);
    }

    #[test]
    fn all_free_rewrite_seeds_nothing_but_still_restricts_subgoals() {
        let (mut fx, rules) = tc_fixture();
        let MagicOutcome::Rewritten(mp) =
            magic_rewrite(&rules, fx.t, 0, &mut fx.store, &mut fx.preds, None)
        else {
            panic!("monotone program must rewrite");
        };
        // No bound argument ⇒ nothing to seed at the root…
        assert!(mp.magic_seed.is_none());
        // …but sideways information passing still adorns the recursive
        // subgoal `t(Y, Z)` as bound-free (Y is bound by the e-join),
        // so two adornments are compiled, with one magic predicate.
        assert_eq!(mp.adornments, 2);
        assert_eq!(mp.magic_preds.len(), 1);
        // Per adornment: bridge + 2 rule copies; plus 2 magic rules
        // (demand from the ff rule body and from the bf recursion).
        assert_eq!(mp.rules.len(), 8);
    }

    #[test]
    fn lift_goal_shares_shape_across_constants() {
        let (mut fx, _rules) = tc_fixture();
        let a = fx.store.atom("a");
        let b = fx.store.atom("b");
        let mk_goal = |c: TermId| Rule {
            head: fx.t, // placeholder head; the engine grafts the shape pred
            head_args: vec![v(0), v(1)],
            group: None,
            outer: vec![
                BodyLit::Pos(fx.t, vec![Pattern::Ground(c), v(0)]),
                BodyLit::Pos(fx.e, vec![v(0), v(1)]),
            ],
            quant: None,
            num_vars: 2,
            var_names: vec!["X".into(), "Y".into()],
            var_sorts: vec![],
        };
        let la = lift_goal(&mk_goal(a));
        let lb = lift_goal(&mk_goal(b));
        // Same shape, different seeds.
        assert_eq!(la.key, lb.key);
        assert_eq!(la.consts, vec![a]);
        assert_eq!(lb.consts, vec![b]);
        // The constant became a fresh variable prepended to the head.
        assert_eq!(la.rule.num_vars, 3);
        assert_eq!(la.rule.head_args.len(), 3);
        assert_eq!(la.rule.head_args[0], v(2));
        assert!(matches!(&la.rule.outer[0],
            BodyLit::Pos(p, args) if *p == fx.t && args[0] == v(2)));
        // A structurally different goal gets a different key.
        let mut swapped = mk_goal(a);
        swapped.outer.swap(0, 1);
        assert_ne!(lift_goal(&swapped).key, la.key);
        // A constant in a *set pattern* is part of the shape, not a seed.
        let mut nested = mk_goal(a);
        nested.outer.push(BodyLit::Builtin(
            crate::rule::Builtin::In,
            vec![v(1), Pattern::Set(Box::new([Pattern::Ground(b)]))],
        ));
        let ln = lift_goal(&nested);
        assert_eq!(ln.consts, vec![a], "nested ground stays in place");
        assert_ne!(ln.key, la.key);
    }

    #[test]
    fn cost_sips_keeps_right_linear_fb_demand_selective() {
        let (mut fx, rules) = tc_fixture();
        // A 20-edge chain: scanning e (20 rows) is costlier than
        // probing the recursive subgoal on its bound column.
        let mut e_rel = crate::relation::Relation::new(2);
        let ids: Vec<TermId> = (0..21).map(|i| fx.store.atom(&format!("n{i}"))).collect();
        for w in ids.windows(2) {
            e_rel.insert(&[w[0], w[1]]);
        }
        let stats = Stats::snapshot(&[e_rel, crate::relation::Relation::new(2)], &[]);

        // Textual SIPS visits e(X, Y) first, so the recursive call
        // sees both arguments bound: a second (bb) adornment whose
        // magic rule crosses every edge with every demand tuple.
        let MagicOutcome::Rewritten(textual) =
            magic_rewrite(&rules, fx.t, 0b10, &mut fx.store, &mut fx.preds, None)
        else {
            panic!("monotone program must rewrite");
        };
        assert_eq!(textual.adornments, 2, "textual fb demand degrades to bb");
        assert_eq!(textual.reorders, 0);

        // Cost-scored SIPS visits t(Y, Z) first (Z bound: demand
        // stays demand-sized) and probes e(X, Y) on its now-bound
        // column second — the fb rewrite mirrors the bf one.
        let cost = SipsCost {
            stats: &stats,
            policy: SetUniverse::Reject,
        };
        let MagicOutcome::Rewritten(scored) =
            magic_rewrite(&rules, fx.t, 0b10, &mut fx.store, &mut fx.preds, Some(cost))
        else {
            panic!("monotone program must rewrite");
        };
        assert_eq!(scored.adornments, 1, "demand stays at the bound column");
        assert_eq!(scored.reorders, 1, "one body reordered (the recursion)");
        let seed = scored.magic_seed.expect("fb query has a magic seed");
        assert_eq!(fx.preds.info(seed).arity, 1);
    }

    #[test]
    fn negation_obstructs() {
        let (mut fx, mut rules) = tc_fixture();
        let iso = fx.preds.register(fx.store.symbols_mut().intern("iso"), 1);
        rules.push(Rule {
            head: iso,
            head_args: vec![v(0)],
            group: None,
            outer: vec![
                BodyLit::Pos(fx.e, vec![v(0), v(1)]),
                BodyLit::Neg(fx.t, vec![v(0), v(0)]),
            ],
            quant: None,
            num_vars: 2,
            var_names: vec!["X".into(), "Y".into()],
            var_sorts: vec![],
        });
        assert!(matches!(
            magic_rewrite(&rules, iso, 0b1, &mut fx.store, &mut fx.preds, None),
            MagicOutcome::Obstructed(DemandObstruction::Negation(p)) if p == fx.t
        ));
        // The closure itself is still rewritable — the negation is not
        // reachable from t.
        assert!(matches!(
            magic_rewrite(&rules, fx.t, 0b01, &mut fx.store, &mut fx.preds, None),
            MagicOutcome::Rewritten(_)
        ));
    }
}
