//! The rule executor: joins, builtin solving, and restricted-universal
//! quantifier evaluation.
//!
//! [`eval_rule_variant`] runs one planned [`Variant`] of a rule against
//! the current relation state and invokes a sink per satisfying
//! variable assignment. The drivers (`naive`, `seminaive`) build head
//! tuples or grouping pairs from the sink callbacks.
//!
//! ## The cursor executor
//!
//! The planner compiles every step list into a [`Prog`] of levels
//! ([`crate::plan`]). The executor walks them with an explicit stack of
//! frames, one per level: a frame is a cursor over a borrowed
//! row-id slice or window of a relation, or over a range of the
//! candidate stack (a builtin's candidates, a membership intersection,
//! an enumerated universe), plus the general matcher's solutions of the
//! current row. Advancing a level moves its cursor to the next row or
//! candidate that its column actions accept and its guards pass; the
//! run goes one level down after each solution, back up when a level
//! is exhausted, and calls the sink once per solution at the bottom.
//! Flat columns bind by writing straight into the binding slots, with
//! no trail and no test for boundness: which variables are bound where
//! was settled when the plan was compiled. Only a compound or set
//! pattern takes the general matcher, which binds and unbinds on its
//! own; the frame keeps its solutions' values on a solution stack.
//!
//! ## Quantifier-group evaluation
//!
//! `(∀q₁∈D₁)…(∀qₙ∈Dₙ)(inner)` is evaluated per the case analysis in
//! DESIGN.md, on the parts the planner compiled into a [`QuantPlan`]:
//!
//! 1. **Unbound domains** are matched against each set of the active
//!    universe (policy-gated) and bound one solution at a time; the
//!    solutions wait on the solution stack, as a general match's do.
//! 2. With all domains bound, an **empty product** (some `Dᵢ = ∅`)
//!    satisfies the group vacuously — Definition 4's "(∀x∈X)φ is true
//!    whenever X is the empty set". Free variables that remain unbound
//!    in that case range over the active universe: the plan's
//!    `vacuous` program enumerates them.
//! 3. With a nonempty product and all free variables bound, each tuple
//!    of the product is **checked**: the inner literals run as the
//!    plan's guards, the same guards a join checks its solutions with.
//! 4. With unbound free variables, the inner conjunction is evaluated
//!    as a join (on the executor) and grouped into a **coverage map**
//!    keyed on the binders it mentions; a free-variable binding
//!    qualifies iff the whole product is covered.
//!
//! The product walk and case 1 bind straight into the binding slots
//! and clear them when they move on, as the executor's levels do.
//!
//! ## Per-tuple work allocates nothing
//!
//! A delta literal walks a [`RowWindow`] of the full relation (or
//! probes the full relation's index narrowed to it), so delta tuples
//! are never copied. Builtins append their candidate tuples to one
//! candidate stack that each stratum run lends through
//! [`RelViews::cands`]: each level remembers the stack's length, walks
//! its own candidates by index, and truncates back when it closes. An
//! indexed probe looks its compound key terms up read-only on top of
//! the same stack, so a probe never interns. Guards, the quantified
//! check among them, build their tuples in stack buffers; the `∀` walk
//! reads set elements in place, and an enumerated domain's match
//! solutions go on the solution stack. What still allocates is
//! interning a new term (a computed union, a new integer), a body of
//! more than `INLINE_FRAMES` levels, and the quantifier group's
//! coverage map.
//!
//! ## Existential tails and membership intersections
//!
//! A [`Step::Members`](crate::plan::Step::Members) intersects the bound
//! sets of `X in S₁, …, X in Sₖ` on the candidate stack and binds `X`
//! to each common element. Levels from the [`Prog::tail`] on bind only
//! variables nothing after them reads, so the first solution that
//! reaches the sink closes them all and the level before the tail moves
//! on; an intersection that ends a tail is a guard that stops at the
//! least common element.

use std::cell::{Cell, RefCell};

use lps_term::{FxHashMap, FxHashSet, Sort, TermId, TermStore};

use crate::builtin::{self, MAX_BUILTIN_ARITY};
use crate::config::SetUniverse;
use crate::error::EngineError;
use crate::pattern::{match_pattern, match_tuple, Env, Pattern, VarId};
use crate::plan::{Arg, ColAct, Guard, Level, Op, Prog, QuantPlan, RowMatch, Variant};
use crate::relation::{Relation, RowWindow, MAX_ARITY};
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

/// Attribution for `:profile`: per body literal, keyed by
/// `(CompiledRule::id, outer-literal index)`, the probes and rows; and
/// per rule, keyed by `CompiledRule::id`, its evaluations, head tuples
/// and wall time. Interior-mutable for the same reason as
/// [`ProbeCounters`]: the executor holds the views immutably.
/// Aggregation happens across every variant and round of a run, so the
/// totals are what the whole fixpoint actually spent per body literal
/// and per rule.
#[derive(Debug, Default)]
pub struct StepProfiler {
    tab: RefCell<FxHashMap<(u32, u32), (u64, u64)>>,
    rules: RefCell<Vec<RuleCost>>,
}

/// What the evaluations of one rule cost over a profiled run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuleCost {
    /// Evaluations of the rule (one per variant run).
    pub evals: u64,
    /// Head tuples they produced, duplicates included.
    pub heads: u64,
    /// Wall time they took, in nanoseconds.
    pub nanos: u64,
}

impl StepProfiler {
    /// Add one evaluation of rule `rule` that produced `heads` head
    /// tuples in `nanos` nanoseconds.
    pub fn record_rule(&self, rule: u32, heads: u64, nanos: u64) {
        let mut rules = self.rules.borrow_mut();
        let i = rule as usize;
        if rules.len() <= i {
            rules.resize(i + 1, RuleCost::default());
        }
        let cost = &mut rules[i];
        cost.evals += 1;
        cost.heads += heads;
        cost.nanos += nanos;
    }

    /// What rule `rule`'s evaluations cost so far.
    pub fn rule(&self, rule: u32) -> RuleCost {
        self.rules
            .borrow()
            .get(rule as usize)
            .copied()
            .unwrap_or_default()
    }

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
    /// The values general-match solutions bind, pushed per row or
    /// candidate and truncated back like the candidate stack; empty
    /// between evaluations.
    pub sols: &'a RefCell<Vec<TermId>>,
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

/// Evaluate one variant of `rule`, calling `sink` once per satisfying
/// assignment of the variables before its existential tail (with all
/// head/grouping variables bound). `env` is reset to the rule's
/// variables first, so one [`Env`] serves every evaluation of a run.
#[allow(clippy::too_many_arguments)]
pub fn eval_rule_variant<F>(
    rule: &Rule,
    variant: &Variant,
    quant_plan: Option<&QuantPlan>,
    store: &mut TermStore,
    views: &RelViews<'_>,
    policy: SetUniverse,
    trigger: Option<&QuantTrigger>,
    env: &mut Env,
    sink: &mut F,
) -> Result<(), EngineError>
where
    F: FnMut(&mut TermStore, &Env) -> Result<(), EngineError>,
{
    env.reset(rule.num_vars);
    // Post-group checks (literals whose variables the group binds, e.g.
    // the ¬C(X) of §4.2) run on the caller's bindings.
    let mut post = |store: &mut TermStore, env: &mut Env| {
        let sink = &mut |store: &mut TermStore, env: &mut Env| sink(store, env);
        exec(&variant.post, &rule.outer, store, views, policy, env, sink)
    };
    let mut finish = |store: &mut TermStore, env: &mut Env| match (&rule.quant, quant_plan) {
        (Some(group), Some(plan)) => eval_quant(
            group,
            plan,
            &plan.domains,
            store,
            views,
            policy,
            trigger,
            env,
            &mut post,
        ),
        _ => post(store, env),
    };
    exec(
        &variant.prog,
        &rule.outer,
        store,
        views,
        policy,
        env,
        &mut finish,
    )
}

/// A body of up to this many levels keeps its frames on the call
/// stack; a longer one allocates them for the run.
const INLINE_FRAMES: usize = 16;

/// The cursor of one open level: where its op is in the rows,
/// candidates or solutions it enumerates, and where its entries on the
/// candidate and solution stacks start.
#[derive(Clone, Copy, Default)]
struct Frame<'v> {
    /// The row ids an index probe returned (a scan walks `at..end` as
    /// row ids itself).
    rows: &'v [u32],
    /// The next position — a row id, an index into `rows`, or a
    /// candidate stack index — and the end.
    at: u32,
    end: u32,
    /// The candidate stack's length when the op opened.
    cands: u32,
    /// The solution stack's length when the op opened, the next
    /// solution's position on it, and how many solutions are left.
    sols: u32,
    sol_at: u32,
    sols_left: u32,
}

/// Run `prog` over `lits` depth-first, calling `sink` once per
/// solution. From level `prog.tail` on the levels form an existential
/// tail: its first solution closes them all, and the level before the
/// tail moves on.
///
/// Each level opens a [`Frame`] for its op and yields one solution per
/// advance that its guards pass; the run goes down a level after a
/// solution and back up when a level is exhausted. A flat op writes
/// its bindings straight into `env` and a general match writes its
/// solution's values there, so when a level opens, every variable an
/// earlier level binds holds that level's current value. On return
/// every variable the levels bind is cleared again, and on an error the
/// candidate and solution stacks are given back.
#[allow(clippy::too_many_arguments)]
fn exec<F>(
    prog: &Prog,
    lits: &[BodyLit],
    store: &mut TermStore,
    views: &RelViews<'_>,
    policy: SetUniverse,
    env: &mut Env,
    sink: &mut F,
) -> Result<(), EngineError>
where
    F: FnMut(&mut TermStore, &mut Env) -> Result<(), EngineError>,
{
    let run = Run {
        lits,
        views,
        policy,
        err: Cell::new(None),
    };
    let levels = &prog.levels;
    let stacks = (views.cands.borrow().len(), views.sols.borrow().len());
    let res = match run.guards(&prog.pre, store, env) {
        Err(Failed) => Err(run.err.take().expect("a failure stashes its error")),
        Ok(false) => Ok(()),
        Ok(true) if levels.is_empty() => sink(store, env),
        Ok(true) => {
            let mut inline = [Frame::default(); INLINE_FRAMES];
            let mut spilled = Vec::new();
            let frames = if levels.len() <= INLINE_FRAMES {
                &mut inline[..levels.len()]
            } else {
                spilled.resize(levels.len(), Frame::default());
                &mut spilled[..]
            };
            match run.run(levels, prog.tail, frames, store, env, sink) {
                Err(Failed) => Err(run.err.take().expect("a failure stashes its error")),
                Ok(()) => Ok(()),
            }
        }
    };
    for guard in prog.pre.iter() {
        if let Guard::Exists { var, .. } = guard {
            env.unset(*var);
        }
    }
    for level in levels.iter() {
        for &v in level.binds.iter() {
            env.unset(v);
        }
    }
    if res.is_err() {
        views.cands.borrow_mut().truncate(stacks.0);
        views.sols.borrow_mut().truncate(stacks.1);
    }
    res
}

/// What every level of one [`exec`] reads, and where a failing one
/// leaves its error.
struct Run<'r, 'v> {
    lits: &'r [BodyLit],
    views: &'r RelViews<'v>,
    policy: SetUniverse,
    err: Cell<Option<EngineError>>,
}

/// A level failed, and left its error in [`Run::err`]: the join's hot
/// path passes a byte up, not an error.
struct Failed;

impl<'v> Run<'_, 'v> {
    /// Stash `e` for [`exec`] to return.
    #[cold]
    fn fail(&self, e: EngineError) -> Failed {
        self.err.set(Some(e));
        Failed
    }

    #[allow(clippy::too_many_arguments)]
    fn run<F>(
        &self,
        levels: &[Level],
        tail: Option<usize>,
        frames: &mut [Frame<'v>],
        store: &mut TermStore,
        env: &mut Env,
        sink: &mut F,
    ) -> Result<(), Failed>
    where
        F: FnMut(&mut TermStore, &mut Env) -> Result<(), EngineError>,
    {
        let last = levels.len() - 1;
        let mut k = 0;
        self.open(&levels[0].op, &mut frames[0], store, env)?;
        loop {
            if self.advance(&levels[k], &mut frames[k], store, env)? {
                if k < last {
                    k += 1;
                    self.open(&levels[k].op, &mut frames[k], store, env)?;
                    continue;
                }
                sink(store, env).map_err(|e| self.fail(e))?;
                let Some(t) = tail else {
                    continue;
                };
                // The tail has its witness: close it and go on with
                // the level before it.
                for j in (t..=k).rev() {
                    self.close(&levels[j].op, &frames[j]);
                }
                if t == 0 {
                    return Ok(());
                }
                k = t - 1;
            } else {
                self.close(&levels[k].op, &frames[k]);
                if k == 0 {
                    return Ok(());
                }
                k -= 1;
            }
        }
    }

    /// The argument patterns of literal `lit`.
    fn args(&self, lit: usize) -> &[Pattern] {
        let (BodyLit::Pos(_, args) | BodyLit::Neg(_, args) | BodyLit::Builtin(_, args)) =
            &self.lits[lit];
        args
    }

    /// The value of a bound argument of literal `lit`; a compound one is
    /// built, and interned.
    fn value(&self, arg: Arg, lit: usize, store: &mut TermStore, env: &Env) -> TermId {
        match arg {
            Arg::Ground(id) => id,
            Arg::Slot(v) => env.get(v).expect("compiled as bound"),
            Arg::Term(i) => self.args(lit)[i]
                .build(store, env)
                .expect("compiled as bound"),
        }
    }

    /// Whether every guard holds, in order; an [`Guard::Exists`] binds
    /// its witness.
    fn guards(
        &self,
        guards: &[Guard],
        store: &mut TermStore,
        env: &mut Env,
    ) -> Result<bool, Failed> {
        for guard in guards {
            let holds = match guard {
                Guard::Filter { b, args, lit } => {
                    let mut vals = [self.value(args[0], *lit, store, env); MAX_BUILTIN_ARITY];
                    for (slot, &arg) in vals[1..].iter_mut().zip(&args[1..]) {
                        *slot = self.value(arg, *lit, store, env);
                    }
                    let mut cands = self.views.cands.borrow_mut();
                    builtin::holds(*b, &vals[..args.len()], store, self.policy, &mut cands)
                        .map_err(|e| self.fail(e))?
                }
                Guard::Contains {
                    pred,
                    args,
                    lit,
                    negated,
                } => {
                    // The tuple is built in a stack buffer (arity ≤ 32).
                    let rel = &self.views.full[pred.index()];
                    let found = match args.split_first() {
                        None => rel.contains(&[]),
                        Some((&first, rest)) => {
                            let mut tuple = [self.value(first, *lit, store, env); MAX_ARITY];
                            for (slot, &arg) in tuple[1..].iter_mut().zip(rest) {
                                *slot = self.value(arg, *lit, store, env);
                            }
                            rel.contains(&tuple[..args.len()])
                        }
                    };
                    found != *negated
                }
                Guard::Exists { var, sets } => {
                    let mut cands = self.views.cands.borrow_mut();
                    let start = cands.len();
                    intersect_members(sets, true, store, env, &mut cands);
                    let witness = cands.get(start).copied();
                    cands.truncate(start);
                    witness.inspect(|&w| env.set(*var, w)).is_some()
                }
            };
            if !holds {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Start `op` under the current bindings: probe or window its rows,
    /// or push its candidates.
    fn open(
        &self,
        op: &Op,
        f: &mut Frame<'v>,
        store: &mut TermStore,
        env: &Env,
    ) -> Result<(), Failed> {
        let views = self.views;
        match op {
            Op::Pos {
                lit,
                pred,
                mask,
                delta,
                key,
                row,
            } => {
                let full: &'v [Relation] = views.full;
                let rel = &full[pred.index()];
                // A delta literal reads last round's window of the full
                // relation.
                let window = delta.then(|| views.delta[pred.index()]);
                let found = if *mask == 0 {
                    let rows = window.unwrap_or(RowWindow {
                        lo: 0,
                        hi: rel.len() as u32,
                    });
                    (f.at, f.end) = (rows.lo, rows.hi);
                    rows.len()
                } else {
                    // The key goes into a stack buffer, in ascending
                    // column order (arity ≤ 32): the indexed-join path
                    // interns nothing and allocates nothing. A key term
                    // the store lacks matches no row.
                    ProbeCounters::bump(&views.counters.probes, 1);
                    let lookup = |key: &[TermId]| match window {
                        Some(w) => rel.lookup_window(*mask, key, w.lo, w.hi),
                        None => rel.lookup(*mask, key),
                    };
                    f.rows = match **key {
                        [arg] => self
                            .key_col(arg, *lit, store, env)
                            .map_or(&[][..], |k| lookup(&[k])),
                        _ => self
                            .probe_key(key, *lit, store, env)
                            .map_or(&[][..], |(k, n)| lookup(&k[..n])),
                    };
                    ProbeCounters::bump(&views.counters.rows, f.rows.len() as u64);
                    (f.at, f.end) = (0, f.rows.len() as u32);
                    f.rows.len()
                };
                if let Some((prof, rid)) = views.profile {
                    prof.record(rid, *lit as u32, 1, found as u64);
                }
                if let RowMatch::General(_) = row {
                    f.sols = views.sols.borrow().len() as u32;
                    f.sols_left = 0;
                }
            }
            Op::Builtin {
                lit,
                b,
                inputs,
                row,
            } => {
                let mut known = [None; MAX_BUILTIN_ARITY];
                for &(i, arg) in inputs.iter() {
                    known[i] = Some(self.value(arg, *lit, store, env));
                }
                // This op's candidates are the stack's `cands..end`;
                // later levels push above `end` and truncate back to it.
                let mut cands = views.cands.borrow_mut();
                f.cands = cands.len() as u32;
                builtin::enumerate(*b, &known[..b.arity()], store, self.policy, &mut cands)
                    .map_err(|e| self.fail(e))?;
                (f.at, f.end) = (f.cands, cands.len() as u32);
                if let RowMatch::General(_) = row {
                    f.sols = views.sols.borrow().len() as u32;
                    f.sols_left = 0;
                }
            }
            Op::Members { sets, .. } => {
                let mut cands = views.cands.borrow_mut();
                f.cands = cands.len() as u32;
                intersect_members(sets, false, store, env, &mut cands);
                (f.at, f.end) = (f.cands, cands.len() as u32);
            }
            Op::EnumUniverse { sort, .. } => {
                let mut cands = views.cands.borrow_mut();
                f.cands = cands.len() as u32;
                push_universe(store, *sort, &mut cands);
                (f.at, f.end) = (f.cands, cands.len() as u32);
            }
        }
        Ok(())
    }

    /// Move `level` to its op's next solution that its guards pass;
    /// `false` once there is none.
    #[inline]
    fn advance(
        &self,
        level: &Level,
        f: &mut Frame<'v>,
        store: &mut TermStore,
        env: &mut Env,
    ) -> Result<bool, Failed> {
        while self.next(&level.op, f, store, env) {
            if level.guards.is_empty() || self.guards(&level.guards, store, env)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Move `op` to its next solution and bind it; `false` once it has
    /// none left.
    #[inline(always)]
    fn next(&self, op: &Op, f: &mut Frame<'v>, store: &TermStore, env: &mut Env) -> bool {
        match op {
            Op::Pos {
                lit,
                pred,
                mask,
                row,
                ..
            } => {
                let rel = &self.views.full[pred.index()];
                let next = |f: &mut Frame<'v>| {
                    let id = if *mask == 0 {
                        f.at
                    } else {
                        f.rows[f.at as usize]
                    };
                    f.at += 1;
                    rel.row(id)
                };
                match row {
                    RowMatch::Flat(acts) => {
                        while f.at < f.end {
                            if apply(acts, next(f), env) {
                                return true;
                            }
                        }
                        false
                    }
                    RowMatch::General(vars) => loop {
                        if self.next_solution(f, vars, env) {
                            return true;
                        }
                        if f.at == f.end {
                            return false;
                        }
                        let tuple = next(f);
                        self.solve(f, self.args(*lit), tuple, vars, store, env);
                    },
                }
            }
            Op::Builtin { lit, b, row, .. } => {
                let n = b.arity();
                match row {
                    RowMatch::Flat(acts) => {
                        let cands = self.views.cands.borrow();
                        while f.at < f.end {
                            let at = f.at as usize;
                            f.at += n as u32;
                            if apply(acts, &cands[at..at + n], env) {
                                return true;
                            }
                        }
                        false
                    }
                    RowMatch::General(vars) => loop {
                        if self.next_solution(f, vars, env) {
                            return true;
                        }
                        if f.at == f.end {
                            return false;
                        }
                        let at = f.at as usize;
                        f.at += n as u32;
                        let cands = self.views.cands.borrow();
                        self.solve(f, self.args(*lit), &cands[at..at + n], vars, store, env);
                    },
                }
            }
            Op::Members { var, .. } | Op::EnumUniverse { var, .. } => {
                if f.at == f.end {
                    return false;
                }
                env.set(*var, self.views.cands.borrow()[f.at as usize]);
                f.at += 1;
                true
            }
        }
    }

    /// Bind the next general-match solution of the current row, if any.
    fn next_solution(&self, f: &mut Frame<'v>, vars: &[VarId], env: &mut Env) -> bool {
        if f.sols_left == 0 {
            return false;
        }
        let sols = self.views.sols.borrow();
        let at = f.sol_at as usize;
        for (&v, &t) in vars.iter().zip(&sols[at..at + vars.len()]) {
            env.set(v, t);
        }
        f.sol_at += vars.len() as u32;
        f.sols_left -= 1;
        true
    }

    /// Replace the frame's solutions with those of `args` against
    /// `tuple`: the general matcher binds and unbinds on its own, and
    /// each solution's values of `vars` go on the solution stack.
    #[allow(clippy::too_many_arguments)]
    fn solve(
        &self,
        f: &mut Frame<'v>,
        args: &[Pattern],
        tuple: &[TermId],
        vars: &[VarId],
        store: &TermStore,
        env: &mut Env,
    ) {
        for &v in vars {
            env.unset(v);
        }
        let mut sols = self.views.sols.borrow_mut();
        sols.truncate(f.sols as usize);
        let mut found = 0;
        match_tuple(store, args, tuple, env, &mut |env| {
            sols.extend(
                vars.iter()
                    .map(|&v| env.get(v).expect("a match binds its variables")),
            );
            found += 1;
            false
        });
        (f.sol_at, f.sols_left) = (f.sols, found);
    }

    /// Give back `op`'s stack entries. Its variables keep their last
    /// values: nothing reads them before the op opens again and binds
    /// them anew, and [`exec`] clears them all when it returns.
    #[inline(always)]
    fn close(&self, op: &Op, f: &Frame<'v>) {
        match op {
            Op::Pos {
                row: RowMatch::General(_),
                ..
            } => self.views.sols.borrow_mut().truncate(f.sols as usize),
            Op::Builtin { row, .. } => {
                self.views.cands.borrow_mut().truncate(f.cands as usize);
                if let RowMatch::General(_) = row {
                    self.views.sols.borrow_mut().truncate(f.sols as usize);
                }
            }
            Op::Members { .. } | Op::EnumUniverse { .. } => {
                self.views.cands.borrow_mut().truncate(f.cands as usize);
            }
            Op::Pos { .. } => {}
        }
    }

    /// The probe key of `key`: the bound columns' ids, in ascending
    /// column order, and their count; `None` if the store lacks one of
    /// them. A compound column is looked up read-only, its subterms
    /// gathered on top of the candidate stack. Growing that stack is
    /// the one heap allocation a probe can make, counted so `EvalStats`
    /// can prove the join path allocation-free.
    fn probe_key(
        &self,
        key: &[Arg],
        lit: usize,
        store: &TermStore,
        env: &Env,
    ) -> Option<([TermId; MAX_ARITY], usize)> {
        let mut buf = [self.key_col(key[0], lit, store, env)?; MAX_ARITY];
        for (slot, &arg) in buf[1..].iter_mut().zip(&key[1..]) {
            *slot = self.key_col(arg, lit, store, env)?;
        }
        Some((buf, key.len()))
    }

    /// One column of a probe key (see [`Run::probe_key`]).
    #[inline]
    fn key_col(&self, arg: Arg, lit: usize, store: &TermStore, env: &Env) -> Option<TermId> {
        match arg {
            Arg::Ground(id) => Some(id),
            Arg::Slot(v) => env.get(v),
            Arg::Term(i) => {
                let mut scratch = self.views.cands.borrow_mut();
                let cap = scratch.capacity();
                let id = self.args(lit)[i].find(store, env, &mut scratch);
                if scratch.capacity() != cap {
                    ProbeCounters::bump(&self.views.counters.allocs, 1);
                }
                id
            }
        }
    }
}

/// Apply a flat literal's column actions to `tuple`: whether it
/// matches. A partial match leaves bindings that the next row
/// overwrites; nothing reads them before.
#[inline]
fn apply(acts: &[(usize, ColAct)], tuple: &[TermId], env: &mut Env) -> bool {
    for &(col, act) in acts {
        let t = tuple[col];
        match act {
            ColAct::Bind(v) => env.set(v, t),
            ColAct::Check(v) => {
                if env.get(v) != Some(t) {
                    return false;
                }
            }
            ColAct::Ground(id) => {
                if id != t {
                    return false;
                }
            }
        }
    }
    true
}

/// Push the elements common to `sets` (every one bound) onto `out`, in
/// ascending `TermId` order — with `first`, only the least of them.
/// Two sets are merged in place; more are intersected by copying the
/// smallest payload and filtering it by a merge against each other
/// payload. An atom has no elements (ELPS §5), so it empties the
/// intersection.
fn intersect_members(
    sets: &[Arg],
    first: bool,
    store: &TermStore,
    env: &Env,
    out: &mut Vec<TermId>,
) {
    let payload = |arg: Arg| -> &[TermId] {
        let set = match arg {
            Arg::Slot(v) => env.get(v).expect("planner binds the set first"),
            Arg::Ground(id) => id,
            Arg::Term(_) => unreachable!("membership folded on a compound set"),
        };
        store.set_elems(set).unwrap_or_default()
    };
    if let [a, b] = *sets {
        // A merge whose steps are arithmetic, not branches: which side
        // moves on is data, and mispredicting it would cost more than
        // the compare.
        let (a, b) = (payload(a), payload(b));
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (x, y) = (a[i], b[j]);
            if x == y {
                out.push(x);
                if first {
                    return;
                }
            }
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
        return;
    }
    let smallest = sets
        .iter()
        .copied()
        .enumerate()
        .min_by_key(|&(_, s)| payload(s).len())
        .map(|(i, _)| i)
        .expect("a Members step folds at least one literal");
    let start = out.len();
    out.extend_from_slice(payload(sets[smallest]));
    for (i, &set) in sets.iter().enumerate() {
        if i == smallest || out.len() == start {
            continue;
        }
        let other = payload(set);
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
    if first {
        out.truncate(start + 1);
    }
}

/// Evaluate the quantifier group (see module docs for the case
/// analysis), with the domains from `domains` on still to be bound by
/// case 1.
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
    domains: &[(usize, Box<[VarId]>)],
    store: &mut TermStore,
    views: &RelViews<'_>,
    policy: SetUniverse,
    trigger: Option<&QuantTrigger>,
    env: &mut Env,
    sink: &mut dyn FnMut(&mut TermStore, &mut Env) -> Result<(), EngineError>,
) -> Result<(), EngineError> {
    // Case 1: match the next unbound domain against each active set,
    // and bind each solution's variables in turn. Only the sets active
    // on entry are candidates (matching may intern more); the solutions
    // wait on the solution stack while later cases run.
    if let Some(((binder, vars), rest)) = domains.split_first() {
        let dom = &group.binders[*binder].1;
        let base = views.sols.borrow().len();
        for at in 0..store.set_ids().len() {
            let set = store.set_ids()[at];
            let mut sols = views.sols.borrow_mut();
            match_pattern(store, dom, set, env, &mut |env| {
                sols.extend(
                    vars.iter()
                        .map(|&v| env.get(v).expect("a match binds its variables")),
                );
                false
            });
            let end = sols.len();
            drop(sols);
            let mut res = Ok(());
            for sol in (base..end).step_by(vars.len()) {
                for (i, &v) in vars.iter().enumerate() {
                    env.set(v, views.sols.borrow()[sol + i]);
                }
                res = eval_quant(group, plan, rest, store, views, policy, trigger, env, sink);
                if res.is_err() {
                    break;
                }
            }
            for &v in vars.iter() {
                env.unset(v);
            }
            views.sols.borrow_mut().truncate(base);
            res?;
        }
        return Ok(());
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
        let run = Run {
            lits: &group.inner,
            views,
            policy,
            err: Cell::new(None),
        };
        let mut check = |store: &mut TermStore, env: &mut Env| {
            run.guards(&plan.check, store, env)
                .map_err(|Failed| run.err.take().expect("a failure stashes its error"))
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

    // Case 4: coverage analysis. Join the inner conjunction over the
    // binders it mentions and the unbound free vars, group covered
    // binder tuples by free-var binding, and accept bindings whose
    // dependent product is fully covered. The inner conjunction cannot
    // depend on a binder it does not mention, so a leaf of the product
    // is covered when its projection onto the joined binders is.
    let inner = plan
        .inner
        .as_ref()
        .expect("planner provides inner steps when free vars may be unbound");
    let qvars: Vec<VarId> = group
        .binders
        .iter()
        .map(|(q, _)| *q)
        .filter(|q| inner.levels.iter().any(|l| l.binds.contains(q)))
        .collect();
    let mut cover: FxHashMap<Vec<TermId>, FxHashSet<Vec<TermId>>> = FxHashMap::default();
    exec(
        inner,
        &group.inner,
        store,
        views,
        policy,
        env,
        &mut |_store, env| {
            let value = |v: &VarId| env.get(*v).expect("the inner join binds it");
            let free_vals: Vec<TermId> = unbound_free.iter().map(value).collect();
            let q_vals: Vec<TermId> = qvars.iter().map(value).collect();
            cover.entry(free_vals).or_default().insert(q_vals);
            Ok(())
        },
    )?;

    // Does the walk reach any leaf at all? A walk that rejects every
    // leaf holds only if it reaches none; then the condition is
    // vacuous: every binding of the live unbound variables qualifies.
    if walk(group, 0, store, env, &mut |_, _| Ok(false))? {
        if trigger.is_some() {
            // Vacuous satisfaction doesn't depend on inner facts; it
            // was derived by earlier (non-trigger) passes.
            return Ok(());
        }
        if !plan.vacuous.levels.is_empty() && matches!(policy, SetUniverse::Reject) {
            return Err(EngineError::UnsupportedMode {
                builtin: "forall-in",
                mode: "vacuously-true group with unbound head variables \
                       (set enumeration disabled)"
                    .to_owned(),
            });
        }
        let sink = &mut |store: &mut TermStore, env: &mut Env| sink(store, env);
        return exec(&plan.vacuous, &[], store, views, policy, env, sink);
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
            for (v, val) in unbound_free.iter().zip(&free_vals) {
                env.set(*v, *val);
            }
            let res = sink(store, env);
            for &v in &unbound_free {
                env.unset(v);
            }
            res?;
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
    let mut res = Ok(true);
    for i in 0..store.card(dom).unwrap_or(0) {
        let e = store
            .set_elems(dom)
            .expect("a domain with elements is a set")[i];
        env.set(*var, e);
        res = walk(group, level + 1, store, env, leaf);
        if !matches!(res, Ok(true)) {
            break;
        }
    }
    env.unset(*var);
    res
}

/// Push the active terms of a given sort (`None` = every term) onto
/// `out`.
fn push_universe(store: &TermStore, sort: Option<Sort>, out: &mut Vec<TermId>) {
    match sort {
        Some(Sort::Set) => out.extend_from_slice(store.set_ids()),
        Some(Sort::Atom) => out.extend(store.ids().filter(|&id| store.is_atomic(id))),
        None => out.extend(store.ids()),
    }
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
