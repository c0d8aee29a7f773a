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
//!
//! ## Per-tuple work allocates nothing
//!
//! A delta literal walks a [`RowWindow`] of the full relation (or
//! probes the full relation's index narrowed to it), so delta tuples
//! are never copied. Builtins append their candidate tuples to one
//! candidate stack that each stratum run lends through
//! [`RelViews::cands`]: each builtin step remembers the stack's length,
//! walks its own candidates by index — copying each to a stack array
//! before recursing, because deeper steps push onto the same stack —
//! and truncates back before returning. An indexed probe looks its
//! compound key terms up read-only on top of the same stack, so a probe
//! never interns. Negation and quantified checks build their tuples in
//! stack buffers, and the `∀` walk reads set elements in place. What
//! still allocates is interning a new term (a computed union, a new
//! integer) and the non-flat pattern matcher.
//!
//! ## Existential tails and membership intersections
//!
//! A [`Step::Members`] intersects the bound sets of `X in S₁, …, X in
//! Sₖ` on the candidate stack (smallest payload first, merged against
//! the others) and binds `X` to each common element. Steps from a
//! variant's [`Variant::tail`] on bind only variables nothing after
//! them reads, so the executor stops them at their first solution. The
//! steps before the tail run with the tail as their sink; the tail's
//! own sink calls the real one once and returns
//! [`ControlFlow::Break`], which every tail step passes up after
//! restoring its bindings and candidates, until the prefix's sink
//! turns it back into `Continue`.

use std::cell::{Cell, RefCell};
use std::ops::ControlFlow;

use lps_term::{FxHashMap, FxHashSet, Sort, TermId, TermStore};

use crate::builtin::{self, MAX_BUILTIN_ARITY};
use crate::config::SetUniverse;
use crate::error::EngineError;
use crate::pattern::{match_tuple, Env, Pattern, VarId};
use crate::plan::{QuantPlan, Step, Variant};
use crate::relation::{ColMask, Relation, RowWindow, MAX_ARITY};
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
    /// Heap allocations on the probe path. Keys are built into a stack
    /// buffer and compound key terms (set/function literals) are looked
    /// up read-only on the candidate stack, so only that stack's growth
    /// counts here, and the figure stays 0 once it has its capacity.
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
    /// Delta windows (last round's new tuples, as rows of `full`), same
    /// indexing. Empty when running naive.
    pub delta: &'a [RowWindow],
    /// Probe counters for this evaluation pass.
    pub counters: &'a ProbeCounters,
    /// The candidate stack builtin steps append to and truncate back,
    /// and probes look compound keys up on (see the module docs).
    /// Interior-mutable for the same reason as [`ProbeCounters`]; empty
    /// between evaluations.
    pub cands: &'a RefCell<Vec<TermId>>,
    /// Per-literal attribution, tagged with the id of the rule being
    /// evaluated. `None` outside `:profile` runs — the hot path pays
    /// one branch.
    pub profile: Option<(&'a StepProfiler, u32)>,
}

/// Optional restriction used by the semi-naive ∀-trigger (experiment
/// E9): when a quantified rule is re-evaluated because inner predicates
/// grew, only a domain that holds a term of the round's delta rows, or
/// is one, can yield a new head. The terms are marked one bit per
/// [`TermId`] for one round, and a reset clears only the words that
/// were marked, so a round pays for its own delta.
#[derive(Debug, Default)]
pub struct QuantTrigger {
    words: Vec<u64>,
    /// Indexes of the nonzero words.
    marked: Vec<u32>,
}

impl QuantTrigger {
    /// Clear every mark and cover the ids of a store of `len` terms.
    pub(crate) fn reset(&mut self, len: usize) {
        for &w in &self.marked {
            self.words[w as usize] = 0;
        }
        self.marked.clear();
        self.words.resize(len.div_ceil(64), 0);
    }

    /// Mark `id`, which must be below the `len` of the last reset.
    #[inline]
    pub(crate) fn mark(&mut self, id: TermId) {
        let w = id.index() / 64;
        if self.words[w] == 0 {
            self.marked.push(w as u32);
        }
        self.words[w] |= 1 << (id.index() % 64);
    }

    /// Whether `id` is marked; a term interned since the reset is not.
    #[inline]
    fn is_marked(&self, id: TermId) -> bool {
        self.words
            .get(id.index() / 64)
            .is_some_and(|w| w & (1 << (id.index() % 64)) != 0)
    }

    /// Whether the domain `dom` can yield a new head: it is a set that
    /// is marked or holds a marked element.
    fn admits(&self, store: &TermStore, dom: TermId) -> bool {
        store
            .set_elems(dom)
            .is_some_and(|elems| self.is_marked(dom) || elems.iter().any(|&e| self.is_marked(e)))
    }
}

/// What a step reports to the one above it: go on enumerating, or stop,
/// because the existential tail it belongs to has found its witness.
type Flow = Result<ControlFlow<()>, EngineError>;

/// A continuation of the join: called per solution of the steps run.
type Sink<'s> = dyn FnMut(&mut TermStore, &mut Env) -> Flow + 's;

/// The flow of a step or sink that has not been cut.
const GO_ON: Flow = Ok(ControlFlow::Continue(()));

/// Evaluate one variant of `rule`, calling `sink` once per satisfying
/// assignment of the variables before its existential tail (with all
/// head/grouping variables bound). `env` is reset to the rule's
/// variables first, so one [`Env`] serves every evaluation of a run.
#[allow(clippy::too_many_arguments)]
pub fn eval_rule_variant(
    rule: &Rule,
    variant: &Variant,
    quant_plan: Option<&QuantPlan>,
    store: &mut TermStore,
    views: &RelViews<'_>,
    policy: SetUniverse,
    trigger: Option<&QuantTrigger>,
    env: &mut Env,
    sink: &mut dyn FnMut(&mut TermStore, &Env) -> Result<(), EngineError>,
) -> Result<(), EngineError> {
    env.reset(rule.num_vars);
    // Post-group checks (literals whose variables the group binds, e.g.
    // the ¬C(X) of §4.2) bind on the caller's env and are undone before
    // the join resumes: no clone per solution.
    let mut post = |store: &mut TermStore, env: &mut Env| {
        let mark = env.mark();
        let res = run_steps(
            &rule.outer,
            &variant.post_steps,
            0,
            store,
            views,
            policy,
            env,
            &mut |store, env| {
                sink(store, env)?;
                GO_ON
            },
        );
        env.undo_to(mark);
        res.map(drop)
    };
    let mut finish = |store: &mut TermStore, env: &mut Env| match (&rule.quant, quant_plan) {
        (Some(group), Some(plan)) => {
            eval_quant(group, plan, store, views, policy, trigger, env, &mut post)
        }
        _ => post(store, env),
    };
    let (prefix, tail) = variant
        .steps
        .split_at(variant.tail.unwrap_or(variant.steps.len()));
    let flow = if tail.is_empty() {
        run_steps(
            &rule.outer,
            prefix,
            0,
            store,
            views,
            policy,
            env,
            &mut |store, env| {
                finish(store, env)?;
                GO_ON
            },
        )
    } else {
        run_steps(
            &rule.outer,
            prefix,
            0,
            store,
            views,
            policy,
            env,
            &mut |store, env| {
                // The tail runs to its first solution, and its cut ends
                // here: the prefix goes on either way.
                let _cut = run_steps(
                    &rule.outer,
                    tail,
                    0,
                    store,
                    views,
                    policy,
                    env,
                    &mut |store, env| {
                        finish(store, env)?;
                        Ok(ControlFlow::Break(()))
                    },
                )?;
                GO_ON
            },
        )
    };
    flow.map(drop)
}

/// Recursively execute join steps from `k`, calling `sink` per
/// solution. A `Break` from the sink stops every enumeration on the way
/// back up, each restoring its bindings and candidates first.
#[allow(clippy::too_many_arguments)]
fn run_steps(
    lits: &[BodyLit],
    steps: &[Step],
    k: usize,
    store: &mut TermStore,
    views: &RelViews<'_>,
    policy: SetUniverse,
    env: &mut Env,
    sink: &mut Sink<'_>,
) -> Flow {
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
            let rel = &views.full[pred.index()];
            // A delta literal reads last round's window of the full
            // relation.
            let window = delta.then(|| views.delta[pred.index()]);
            if *mask == 0 {
                let rows = window.unwrap_or(RowWindow {
                    lo: 0,
                    hi: rel.len() as u32,
                });
                if let Some((prof, rid)) = views.profile {
                    prof.record(rid, *lit as u32, 1, rows.len() as u64);
                }
                for row in rows.lo..rows.hi {
                    let flow = match_row_then_continue(
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
                    if flow.is_break() {
                        return Ok(flow);
                    }
                }
            } else {
                // Look the probe key up into a stack buffer, in
                // ascending column order (arity ≤ 32): the indexed-join
                // path interns nothing and allocates nothing. A key term
                // the store lacks matches no row.
                ProbeCounters::bump(&views.counters.probes, 1);
                let rows = match (probe_key(*mask, args, store, env, views), window) {
                    (None, _) => &[][..],
                    (Some((key, n)), Some(w)) => rel.lookup_window(*mask, &key[..n], w.lo, w.hi),
                    (Some((key, n)), None) => rel.lookup(*mask, &key[..n]),
                };
                ProbeCounters::bump(&views.counters.rows, rows.len() as u64);
                if let Some((prof, rid)) = views.profile {
                    prof.record(rid, *lit as u32, 1, rows.len() as u64);
                }
                for &row in rows {
                    let flow = match_row_then_continue(
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
                    if flow.is_break() {
                        return Ok(flow);
                    }
                }
            }
            GO_ON
        }
        Step::BuiltinStep { lit, flat } => {
            let (b, args) = match &lits[*lit] {
                BodyLit::Builtin(b, a) => (*b, a),
                other => unreachable!("Builtin step on {other:?}"),
            };
            let n = args.len();
            debug_assert!(n <= MAX_BUILTIN_ARITY);
            let mut known = [None; MAX_BUILTIN_ARITY];
            for (slot, p) in known.iter_mut().zip(args) {
                if p.is_bound(env) {
                    *slot = p.build(store, env);
                }
            }
            // This level's candidates are the stack's `start..end`;
            // deeper levels push above `end` and truncate back to it.
            let start = views.cands.borrow().len();
            builtin::enumerate(b, &known[..n], store, policy, &mut views.cands.borrow_mut())?;
            let end = views.cands.borrow().len();
            let mut res = GO_ON;
            for at in (start..end).step_by(n) {
                let cand = {
                    let stack = views.cands.borrow();
                    let mut cand = [stack[at]; MAX_BUILTIN_ARITY];
                    cand[..n].copy_from_slice(&stack[at..at + n]);
                    cand
                };
                res = match_row_then_continue(
                    lits,
                    steps,
                    k,
                    store,
                    views,
                    policy,
                    env,
                    sink,
                    args,
                    &cand[..n],
                    *flat,
                );
                if !matches!(res, Ok(ControlFlow::Continue(()))) {
                    break;
                }
            }
            views.cands.borrow_mut().truncate(start);
            res
        }
        Step::Members { var, lits: ins } => {
            // This level's witnesses are the stack's `start..end`, as a
            // builtin step's candidates are.
            let start = views.cands.borrow().len();
            intersect_members(lits, ins, store, env, &mut views.cands.borrow_mut());
            let end = views.cands.borrow().len();
            let mut res = GO_ON;
            for at in start..end {
                let witness = views.cands.borrow()[at];
                let mark = env.mark();
                env.bind(*var, witness);
                res = run_steps(lits, steps, k + 1, store, views, policy, env, sink);
                env.undo_to(mark);
                if !matches!(res, Ok(ControlFlow::Continue(()))) {
                    break;
                }
            }
            views.cands.borrow_mut().truncate(start);
            res
        }
        Step::NegStep { lit } => {
            let (pred, args) = match &lits[*lit] {
                BodyLit::Neg(p, a) => (*p, a),
                other => unreachable!("Neg step on {other:?}"),
            };
            if with_ground_tuple(args, store, env, |t| views.full[pred.index()].contains(t)) {
                return GO_ON;
            }
            run_steps(lits, steps, k + 1, store, views, policy, env, sink)
        }
        Step::EnumUniverse { var, sort } => {
            let universe = universe_of_sort(store, *sort);
            for t in universe {
                let mark = env.mark();
                env.bind(*var, t);
                let flow = run_steps(lits, steps, k + 1, store, views, policy, env, sink)?;
                env.undo_to(mark);
                if flow.is_break() {
                    return Ok(flow);
                }
            }
            GO_ON
        }
    }
}

/// Push the elements common to the sets of the flat literals `X in S`
/// listed in `ins` (every `S` bound) onto `out`, in ascending `TermId`
/// order: the smallest payload is copied, then filtered in place by a
/// merge against each other payload. An atom has no elements (ELPS
/// §5), so it empties the intersection.
#[inline(never)]
fn intersect_members(
    lits: &[BodyLit],
    ins: &[usize],
    store: &TermStore,
    env: &Env,
    out: &mut Vec<TermId>,
) {
    let payload = |i: usize| -> &[TermId] {
        let set = match &lits[i] {
            BodyLit::Builtin(_, args) => match &args[1] {
                Pattern::Var(v) => env.get(*v).expect("planner binds the set first"),
                Pattern::Ground(id) => *id,
                other => unreachable!("membership folded on a compound set {other:?}"),
            },
            other => unreachable!("Members step on {other:?}"),
        };
        store.set_elems(set).unwrap_or_default()
    };
    let smallest = ins
        .iter()
        .copied()
        .min_by_key(|&i| payload(i).len())
        .expect("a Members step folds at least one literal");
    let start = out.len();
    out.extend_from_slice(payload(smallest));
    for &i in ins {
        if i == smallest || out.len() == start {
            continue;
        }
        let other = payload(i);
        let (mut kept, mut j) = (start, 0);
        for at in start..out.len() {
            let e = out[at];
            while j < other.len() && other[j] < e {
                j += 1;
            }
            if j < other.len() && other[j] == e {
                out[kept] = e;
                kept += 1;
            }
        }
        out.truncate(kept);
    }
}

/// The probe key of a `mask` lookup: the bound columns' ids, in
/// ascending column order, and their count; `None` if the store lacks
/// one of them. Flat `Var`/`Ground` columns read a binding or copy an
/// id; compound columns are looked up read-only, their subterms
/// gathered on top of the candidate stack. Growing that stack is the
/// one heap allocation a probe can make, counted so `EvalStats` can
/// prove the join path allocation-free.
#[inline]
fn probe_key(
    mask: ColMask,
    args: &[Pattern],
    store: &TermStore,
    env: &Env,
    views: &RelViews<'_>,
) -> Option<([TermId; MAX_ARITY], usize)> {
    let col = |c: u32| match &args[c as usize] {
        Pattern::Var(v) => env.get(*v),
        Pattern::Ground(id) => Some(*id),
        compound => {
            let mut scratch = views.cands.borrow_mut();
            let cap = scratch.capacity();
            let id = compound.find(store, env, &mut scratch);
            if scratch.capacity() != cap {
                ProbeCounters::bump(&views.counters.allocs, 1);
            }
            id
        }
    };
    let mut key = [col(mask.trailing_zeros())?; MAX_ARITY];
    let mut n = 1;
    let mut m = mask & (mask - 1);
    while m != 0 {
        key[n] = col(m.trailing_zeros())?;
        n += 1;
        m &= m - 1;
    }
    Some((key, n))
}

/// Match one relation row (or builtin candidate tuple) against `args`
/// and recurse into the remaining steps for each solution. Flat tuples
/// (all `Var`/`Ground` args, precomputed by the planner) have at most
/// one solution and bind in place with no allocation; general patterns
/// fall back to solution capture. A `Break` from below is returned
/// after the bindings are undone.
#[allow(clippy::too_many_arguments)]
fn match_row_then_continue(
    lits: &[BodyLit],
    steps: &[Step],
    k: usize,
    store: &mut TermStore,
    views: &RelViews<'_>,
    policy: SetUniverse,
    env: &mut Env,
    sink: &mut Sink<'_>,
    args: &[Pattern],
    tuple: &[TermId],
    flat: bool,
) -> Flow {
    if flat {
        let mark = env.mark();
        let mut flow = ControlFlow::Continue(());
        if match_flat(args, tuple, env) {
            flow = run_steps(lits, steps, k + 1, store, views, policy, env, sink)?;
        }
        env.undo_to(mark);
        return Ok(flow);
    }
    let sols = match_solutions(store, args, tuple, env);
    for bindings in sols {
        let mark = env.mark();
        env.apply(&bindings);
        let flow = run_steps(lits, steps, k + 1, store, views, policy, env, sink)?;
        env.undo_to(mark);
        if flow.is_break() {
            return Ok(flow);
        }
    }
    GO_ON
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
    trigger: Option<&QuantTrigger>,
    env: &mut Env,
    sink: &mut dyn FnMut(&mut TermStore, &mut Env) -> Result<(), EngineError>,
) -> Result<(), EngineError> {
    // Case 1: bind the first genuinely unbound domain from the active
    // universe. A domain whose variables are earlier binder variables
    // is *dependent*, not unbound — the walk below binds it.
    for (i, (_, dom)) in group.binders.iter().enumerate() {
        let earlier = &group.binders[..i];
        let unbound =
            dom.any_var(&|v| env.get(v).is_none() && earlier.iter().all(|(q, _)| *q != v));
        if unbound {
            // Only the sets active on entry are candidates (matching
            // may intern more).
            for at in 0..store.set_ids().len() {
                let set_id = store.set_ids()[at];
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
    }

    // Trigger pruning (sound only when every domain is independent of
    // the binder variables, so all domain values are known up front):
    // a re-derivation driven by new inner facts needs some domain to
    // hold, or be, a newly derived term.
    if let Some(t) = trigger {
        let all_independent = group.binders.iter().all(|(_, dom)| dom.is_bound(env));
        if all_independent
            && !group.binders.iter().any(|(_, dom)| {
                let id = dom.build(store, env).expect("bound domain");
                t.admits(store, id)
            })
        {
            return Ok(());
        }
    }

    if plan.unbound_free.iter().all(|v| env.get(*v).is_some()) {
        // Case 2/3: dependent walk with a direct check at each leaf.
        // Vacuous levels (empty/atomic domains) succeed trivially.
        let mut check = |store: &mut TermStore, env: &mut Env| {
            check_lits(&group.inner, store, views, policy, env)
        };
        if walk(group, 0, store, env, &mut check)? {
            return sink(store, env);
        }
        return Ok(());
    }
    // The free variables still unbound right now.
    let unbound_free: Vec<VarId> = plan
        .unbound_free
        .iter()
        .copied()
        .filter(|v| env.get(*v).is_none())
        .collect();

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
            GO_ON
        },
    )
    .map(drop)?;

    // Does the walk reach any leaf at all? A walk that rejects every
    // leaf holds only if it reaches none; then the condition is
    // vacuous: every binding of the live unbound variables qualifies.
    if walk(group, 0, store, env, &mut |_, _| Ok(false))? {
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
    let mut q_vals: Vec<TermId> = Vec::with_capacity(qvars.len());
    for free_vals in betas {
        let covered = &cover[&free_vals];
        let mut is_covered = |_: &mut TermStore, env: &mut Env| {
            q_vals.clear();
            q_vals.extend(
                qvars
                    .iter()
                    .map(|q| env.get(*q).expect("the walk binds every binder")),
            );
            Ok(covered.contains(&q_vals))
        };
        if walk(group, 0, store, env, &mut is_covered)? {
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

/// Walk the dependent product of the binders from `level` on, binding
/// each binder to each element of its domain, rebuilt under the outer
/// levels' bindings, and calling `leaf` on every complete assignment.
/// True iff `leaf` accepts them all; the walk stops at the first it
/// rejects. An atomic domain has no elements (ELPS §5), so its subtree
/// holds vacuously. Elements are read in place: an interned payload
/// never changes, so `leaf` may intern freely.
fn walk<F>(
    group: &QuantGroup,
    level: usize,
    store: &mut TermStore,
    env: &mut Env,
    leaf: &mut F,
) -> Result<bool, EngineError>
where
    F: FnMut(&mut TermStore, &mut Env) -> Result<bool, EngineError>,
{
    let Some((var, dom)) = group.binders.get(level) else {
        return leaf(store, env);
    };
    let dom = dom
        .build(store, env)
        .expect("walk binds earlier levels first");
    for i in 0..store.card(dom).unwrap_or(0) {
        let e = store
            .set_elems(dom)
            .expect("a domain with elements is a set")[i];
        let mark = env.mark();
        env.bind(*var, e);
        let ok = walk(group, level + 1, store, env, leaf)?;
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
    sink: &mut dyn FnMut(&mut TermStore, &mut Env) -> Result<(), EngineError>,
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
                with_ground_tuple(args, store, env, |t| views.full[pred.index()].contains(t))
            }
            BodyLit::Neg(pred, args) => {
                !with_ground_tuple(args, store, env, |t| views.full[pred.index()].contains(t))
            }
            BodyLit::Builtin(b, args) => {
                let n = args.len();
                let mut known = [None; MAX_BUILTIN_ARITY];
                for (slot, p) in known.iter_mut().zip(args) {
                    *slot = p.build(store, env);
                }
                if known[..n].iter().any(Option::is_none) {
                    return Err(EngineError::UnsupportedMode {
                        builtin: b.name(),
                        mode: "unbound argument in quantified check".to_owned(),
                    });
                }
                // The check holds iff the builtin appends a candidate;
                // give the stack back either way.
                let start = views.cands.borrow().len();
                builtin::enumerate(
                    *b,
                    &known[..n],
                    store,
                    policy,
                    &mut views.cands.borrow_mut(),
                )?;
                let mut stack = views.cands.borrow_mut();
                let holds = stack.len() > start;
                stack.truncate(start);
                holds
            }
        };
        if !ok {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Run `f` on the ground tuple of a fully bound literal, built in a
/// stack buffer (arity ≤ [`MAX_ARITY`]): negation and quantified
/// checks allocate nothing.
fn with_ground_tuple<R>(
    args: &[Pattern],
    store: &mut TermStore,
    env: &Env,
    f: impl FnOnce(&[TermId]) -> R,
) -> R {
    let Some((first, rest)) = args.split_first() else {
        return f(&[]);
    };
    let mut build = |p: &Pattern| {
        p.build(store, env)
            .expect("planner guarantees checked literals are ground")
    };
    let mut buf = [build(first); MAX_ARITY];
    for (slot, p) in buf[1..].iter_mut().zip(rest) {
        *slot = build(p);
    }
    f(&buf[..args.len()])
}

#[cfg(test)]
mod tests {
    use crate::config::EvalConfig;
    use crate::pattern::{Pattern, VarId};
    use crate::rule::{BodyLit, Builtin, Rule};
    use crate::session::Engine;

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
        assert_eq!(e.rows(pairs).count(), 2);
        for t in e.rows(pairs) {
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
