//! Rule planning: safety analysis, join ordering, index selection.
//!
//! A [`Rule`] is compiled into a [`CompiledRule`]: one or more
//! [`Variant`]s (the full variant plus one delta variant per positive
//! outer literal, for semi-naive evaluation), each an ordered list of
//! [`Step`]s, plus a [`QuantPlan`] describing how the restricted
//! universal quantifier group is evaluated.
//!
//! Once the join order is fixed, every step list — a variant's outer
//! steps and post steps, and the quantifier group's inner plan — is
//! compiled into [`Op`]s for the executor ([`crate::eval`]). Which
//! variables are bound before each step is known here, so a flat
//! literal's columns get static actions ([`ColAct`]): a bound column
//! joins the probe key or is checked, an unbound one is bound. A builtin
//! reads its bound arguments and writes back only the free ones, and a
//! builtin with every argument bound is a filter.
//!
//! Safety here is the operational counterpart of the paper's
//! infinitary Herbrand semantics: a rule is *safe* when every variable
//! is grounded by some literal ordering (range restriction). Variables
//! that range over the sort-s universe without any binding literal are
//! admitted only under a non-default [`SetUniverse`] policy, which
//! bounds them to the active universe (DESIGN.md §3).

use lps_term::{FxHashSet, Sort, TermId};

use crate::builtin::{functional, mode_ok, set_positions};
use crate::config::SetUniverse;
use crate::error::EngineError;
use crate::pattern::{Pattern, VarId};
use crate::pred::PredId;
use crate::relation::ColMask;
use crate::rule::{BodyLit, Builtin, Rule};
use crate::stats::Stats;

/// One evaluation action within a variant.
#[derive(Clone, Debug, PartialEq)]
pub enum Step {
    /// Evaluate a positive atom: index lookup on `mask` columns (or a
    /// scan when `mask == 0`), then pattern-match the rest. `delta`
    /// restricts the step to the relation's delta window.
    Pos {
        /// Index into `rule.outer`.
        lit: usize,
        /// Columns fully bound before this step.
        mask: ColMask,
        /// Read only last round's new rows (semi-naive variants).
        delta: bool,
        /// All argument patterns are plain `Var`/`Ground` (precomputed
        /// here so the executor can take its allocation-free
        /// bind-in-place path without re-inspecting patterns per row).
        flat: bool,
    },
    /// Evaluate a builtin via `builtin::enumerate`.
    BuiltinStep {
        /// Index into `rule.outer`.
        lit: usize,
        /// All argument patterns are plain `Var`/`Ground` (see
        /// [`Step::Pos::flat`]).
        flat: bool,
    },
    /// Check a negated atom (all variables bound).
    NegStep {
        /// Index into `rule.outer`.
        lit: usize,
    },
    /// Bind a variable that appears in no body literal by enumerating
    /// the active universe (policy-gated). The paper's Theorem-6
    /// construction produces such clauses (Example 9's
    /// `N₇(X, Y, z) :- N₈(z, X)` holds for every `Y`); the bounded
    /// universe makes them executable (DESIGN.md §3).
    EnumUniverse {
        /// The variable to enumerate.
        var: VarId,
        /// Restrict the universe to this sort (from `lps-core`'s
        /// two-sorted inference); `None` = all terms.
        sort: Option<lps_term::Sort>,
    },
    /// Bind a free variable to each element common to the bound sets
    /// of the flat literals `var in S₁, …, var in Sₖ`: one sorted-set
    /// intersection (walk the smallest payload, merge it against the
    /// others) in place of an element enumeration followed by `k − 1`
    /// membership checks. A lone `X in S` is the `k = 1` case, so
    /// enumerating a bound set's elements has this one path.
    Members {
        /// The variable the witnesses bind.
        var: VarId,
        /// Indices of the folded `in` literals, in plan order.
        lits: Vec<usize>,
    },
}

impl Step {
    /// The literal index this step evaluates (`None` for universe
    /// enumeration; the first folded literal for [`Step::Members`]).
    pub fn lit(&self) -> Option<usize> {
        match self {
            Step::Pos { lit, .. } | Step::BuiltinStep { lit, .. } | Step::NegStep { lit } => {
                Some(*lit)
            }
            Step::Members { lits, .. } => lits.first().copied(),
            Step::EnumUniverse { .. } => None,
        }
    }
}

/// An ordered evaluation strategy for the outer literals.
#[derive(Clone, Debug, PartialEq)]
pub struct Variant {
    /// Which outer literal reads only the delta window (`None` for the
    /// full variant).
    pub delta_lit: Option<usize>,
    /// Steps in execution order.
    pub steps: Vec<Step>,
    /// Check steps deferred until after the quantifier group: negated
    /// or builtin literals whose variables are bound only by the
    /// group's coverage analysis (e.g. `¬C(X)` in the §4.2 set
    /// construction, where `X` is the quantifier domain).
    pub post_steps: Vec<Step>,
    /// Where the *existential tail* starts: `steps[tail..]` bind only
    /// variables that neither the head, the grouping slot, the post
    /// steps nor the quantifier group read, so the executor runs them
    /// to their first solution and calls the sink once. Every tail step
    /// is flat and can neither intern a term nor fail. `None` when no
    /// suffix qualifies, or when the qualifying suffix binds nothing
    /// (pure checks already yield at most one solution).
    pub tail: Option<usize>,
    /// `steps` compiled for the executor.
    pub prog: Prog,
    /// `post_steps` compiled, with the quantifier group's free
    /// variables bound.
    pub post: Prog,
}

/// Where a bound argument's value comes from when the executor reads
/// it: a probe key column, a builtin input, a negated literal's column,
/// or a set a [`Op::Members`] intersects.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arg {
    /// A constant.
    Ground(TermId),
    /// A variable bound by an earlier step.
    Slot(VarId),
    /// A compound pattern at this argument position of the literal:
    /// looked up read-only for a probe key, built (and interned) for a
    /// builtin input or a negated literal.
    Term(usize),
}

/// What a flat literal does with one column of a row or builtin
/// candidate that no index or builtin input fixed already.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ColAct {
    /// The column must hold this constant.
    Ground(TermId),
    /// The column must equal the variable's value (a variable repeated
    /// within the literal).
    Check(VarId),
    /// The column's value binds the variable.
    Bind(VarId),
}

/// How a row or builtin candidate binds the literal's free variables.
#[derive(Clone, Debug, PartialEq)]
pub enum RowMatch {
    /// Flat arguments: `(column, action)` for every column not already
    /// fixed, in column order.
    Flat(Box<[(usize, ColAct)]>),
    /// Compound or set patterns: the general matcher, whose solutions
    /// bind these variables (those free before the step, in order).
    General(Box<[VarId]>),
}

impl RowMatch {
    /// The variables a matched row binds.
    fn binds(&self) -> impl Iterator<Item = VarId> + '_ {
        let (flat, general) = match self {
            RowMatch::Flat(acts) => (&acts[..], &[][..]),
            RowMatch::General(vars) => (&[][..], &vars[..]),
        };
        let flat = flat.iter().filter_map(|&(_, act)| match act {
            ColAct::Bind(v) => Some(v),
            _ => None,
        });
        flat.chain(general.iter().copied())
    }
}

/// A step compiled for the executor that can yield many solutions.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Walk a relation's rows — a scan when `mask == 0`, else the rows
    /// an index probe on `key` returns — and match each against `row`.
    Pos {
        /// Index into the literal list.
        lit: usize,
        /// The relation read.
        pred: PredId,
        /// Columns fully bound before this step.
        mask: ColMask,
        /// Read only last round's new rows (semi-naive variants).
        delta: bool,
        /// The values of the `mask` columns, in ascending column order.
        key: Box<[Arg]>,
        /// What each row binds.
        row: RowMatch,
    },
    /// Enumerate a builtin's candidates for its bound `inputs` and
    /// match each against `row`.
    Builtin {
        /// Index into the literal list.
        lit: usize,
        /// The builtin.
        b: Builtin,
        /// `(position, value)` of every bound argument.
        inputs: Box<[(usize, Arg)]>,
        /// What each candidate binds.
        row: RowMatch,
    },
    /// Bind `var` to each element common to the `sets`
    /// ([`Step::Members`]).
    Members {
        /// The variable the witnesses bind.
        var: VarId,
        /// The intersected sets.
        sets: Box<[Arg]>,
    },
    /// Bind `var` to each term of the active universe of `sort`
    /// ([`Step::EnumUniverse`]).
    EnumUniverse {
        /// The variable bound.
        var: VarId,
        /// Its sort restriction.
        sort: Option<Sort>,
    },
}

impl Op {
    /// The variables this op binds.
    fn binds(&self) -> Vec<VarId> {
        match self {
            Op::Pos { row, .. } | Op::Builtin { row, .. } => row.binds().collect(),
            Op::Members { var, .. } | Op::EnumUniverse { var, .. } => vec![*var],
        }
    }
}

/// A step compiled for the executor that yields at most one solution:
/// it runs as a check on each solution of the op before it.
#[derive(Clone, Debug, PartialEq)]
pub enum Guard {
    /// A builtin with every argument bound.
    Filter {
        /// The builtin.
        b: Builtin,
        /// Every argument's value.
        args: Box<[Arg]>,
        /// Index into the literal list.
        lit: usize,
    },
    /// A negated literal, every argument bound: holds when the tuple is
    /// absent.
    Neg {
        /// The relation checked.
        pred: PredId,
        /// Every argument's value.
        args: Box<[Arg]>,
        /// Index into the literal list.
        lit: usize,
    },
    /// A [`Step::Members`] that ends an existential tail: only its
    /// first witness can matter, since the tail's first solution closes
    /// it, so it binds `var` to the least common element, if any.
    Exists {
        /// The variable the witness binds.
        var: VarId,
        /// The intersected sets.
        sets: Box<[Arg]>,
    },
}

/// An op and the guards that check each of its solutions.
#[derive(Clone, Debug, PartialEq)]
pub struct Level {
    /// The op.
    pub op: Op,
    /// The guards, in step order.
    pub guards: Box<[Guard]>,
    /// Every variable the op and its guards bind.
    pub binds: Box<[VarId]>,
}

/// A step list compiled for the executor.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Prog {
    /// Guards that run before the first op: the steps before it that
    /// yield at most one solution.
    pub pre: Box<[Guard]>,
    /// The ops, each with the guards that follow it.
    pub levels: Box<[Level]>,
    /// The first level of the existential tail ([`Variant::tail`]).
    /// Tail steps compiled into guards of an earlier level drop out of
    /// it: they yield at most one solution, so cutting them is moot.
    pub tail: Option<usize>,
}

/// Static plan for the quantifier group.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantPlan {
    /// Free variables of the group not bound by the outer steps —
    /// bound at runtime by coverage analysis / active-universe
    /// enumeration.
    pub unbound_free: Vec<VarId>,
    /// The subset of `unbound_free` that the head (or grouping slot)
    /// needs. Dead unbound variables are clause-level existentials and
    /// never require universe enumeration; live ones range over the
    /// active universe in the vacuously-true case.
    pub live_unbound: Vec<VarId>,
    /// Sort restriction per `live_unbound` entry.
    pub live_sorts: Vec<Option<lps_term::Sort>>,
    /// Join plan for the inner conjunction over (quantified vars ∪
    /// unbound free vars), with domains and outer vars assumed bound.
    /// `None` when `unbound_free` is empty and the fast per-element
    /// check suffices.
    pub inner_steps: Option<Vec<Step>>,
    /// `inner_steps` compiled for the executor.
    pub inner: Option<Prog>,
    /// Whether any quantifier domain is statically unbound (requires
    /// active-set enumeration).
    pub unbound_domain: bool,
}

/// A fully planned rule.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledRule {
    /// Position of this rule within its [`CompiledProgram`](crate::strata::CompiledProgram) (0 for
    /// rules compiled standalone). Profiling keys per-literal probe
    /// attribution on `(id, lit)`.
    pub id: u32,
    /// The rule being planned (owned copy).
    pub rule: Rule,
    /// `variants[0]` is always the full variant.
    pub variants: Vec<Variant>,
    /// Plan for the quantifier group, if the rule has one.
    pub quant_plan: Option<QuantPlan>,
    /// IDB predicates appearing inside the quantifier group (trigger
    /// set for semi-naive re-evaluation).
    pub inner_preds: Vec<PredId>,
    /// `(pred, mask)` index requests to satisfy before running. Delta
    /// steps probe the same index, narrowed to their window.
    pub index_requests: Vec<(PredId, ColMask)>,
    /// Whether evaluation enumerates the active set universe (unbound
    /// quantifier domains/free vars, or builtin modes with free
    /// set-sorted arguments). Such rules must be re-run when new sets
    /// are interned, even if no new facts arrived.
    pub uses_active_universe: bool,
    /// Variants whose cost-based join order differs from the textual
    /// order — 0 when compiled without statistics, and 0 when the
    /// statistics agreed with the written order (E16 accounting,
    /// surfaced as [`EvalStats::reorders_applied`]).
    ///
    /// [`EvalStats::reorders_applied`]: crate::config::EvalStats::reorders_applied
    pub reorders: usize,
    /// Summed row estimates of the positive steps the planner chose —
    /// 0 when compiled without statistics (surfaced as
    /// [`EvalStats::estimated_rows`]).
    ///
    /// [`EvalStats::estimated_rows`]: crate::config::EvalStats::estimated_rows
    pub estimated_rows: usize,
    /// `(lit, estimated rows)` per positive step of the full variant,
    /// in chosen join order — the planner's per-literal predictions
    /// that `:profile` lines up against observed probe counts, and the
    /// join order `:explain` prints. Estimates are 0 when compiled
    /// without statistics.
    pub step_estimates: Vec<(usize, usize)>,
}

/// Compile `rule` under the given policy. `idb` says which predicates
/// can acquire new tuples during (or between) fixpoints — only those
/// get delta variants and count as quantifier-trigger predicates. The
/// engine session passes every registered predicate, since EDB facts
/// can arrive incrementally after a materialization; the unused
/// variants cost one empty-delta check per round.
///
/// `cost` enables statistics-driven join ordering: with a [`Stats`]
/// snapshot, positive literals are greedily placed
/// smallest-estimated-intermediate-result first instead of in textual
/// order (safety tiers — bound builtins, bound negation, existence
/// checks — are unchanged, so ordering never affects answers). `None`
/// is the exact textual planner.
pub fn compile_rule(
    rule: &Rule,
    names: &dyn Fn(PredId) -> String,
    idb: &FxHashSet<PredId>,
    policy: SetUniverse,
    cost: Option<&Stats>,
) -> Result<CompiledRule, EngineError> {
    let head_name = names(rule.head);
    let mut uses_active_universe = false;
    let mut estimated_rows = 0usize;

    // Full variant.
    let full = order_steps(
        rule,
        None,
        policy,
        &head_name,
        &mut uses_active_universe,
        cost,
        &mut estimated_rows,
    )?;

    let mut variants = vec![full];
    for (i, lit) in rule.outer.iter().enumerate() {
        if let BodyLit::Pos(p, _) = lit {
            if idb.contains(p) {
                variants.push(order_steps(
                    rule,
                    Some(i),
                    policy,
                    &head_name,
                    &mut uses_active_universe,
                    cost,
                    &mut estimated_rows,
                )?);
            }
        }
    }

    // Reorder accounting: how many variants the statistics actually
    // moved away from the textual order. Re-running the (cheap) textual
    // ordering is simpler and more honest than trying to predict
    // divergence from the scores.
    let mut reorders = 0usize;
    if cost.is_some() {
        let mut scratch_active = false;
        let mut scratch_rows = 0usize;
        for variant in &variants {
            let differs = match order_steps(
                rule,
                variant.delta_lit,
                policy,
                &head_name,
                &mut scratch_active,
                None,
                &mut scratch_rows,
            ) {
                Ok(textual) => {
                    let lits = |v: &Variant| -> Vec<Option<usize>> {
                        v.steps.iter().map(Step::lit).collect()
                    };
                    lits(&textual) != lits(variant)
                }
                Err(_) => true,
            };
            if differs {
                reorders += 1;
            }
        }
    }

    // Quantifier-group planning.
    let bound_after_outer = vars_bound_after(&variants[0].steps, rule);
    let (quant_plan, inner_preds) = match &rule.quant {
        None => (None, Vec::new()),
        Some(group) => {
            let mut inner_preds: Vec<PredId> = group
                .inner
                .iter()
                .filter_map(BodyLit::pos_pred)
                .filter(|p| idb.contains(p))
                .collect();
            inner_preds.dedup();

            let free = group.free_vars();
            let unbound_free: Vec<VarId> = free
                .iter()
                .copied()
                .filter(|v| !bound_after_outer.contains(v))
                .collect();
            // Which unbound free vars does the head actually consume?
            let mut head_needs: FxHashSet<VarId> = FxHashSet::default();
            for arg in &rule.head_args {
                let mut vs = Vec::new();
                arg.collect_vars(&mut vs);
                head_needs.extend(vs);
            }
            if let Some(g) = &rule.group {
                head_needs.insert(g.var);
            }
            let live_unbound: Vec<VarId> = unbound_free
                .iter()
                .copied()
                .filter(|v| head_needs.contains(v))
                .collect();

            // Domain boundness: a domain is unbound if it has a
            // variable neither bound by the outer steps nor introduced
            // by an *earlier* binder (dependent domains like
            // `(∀S∈F)(∀x∈S)` are bound by the walk, not enumeration).
            let mut unbound_domain = false;
            let mut earlier: Vec<VarId> = Vec::new();
            for (qv, dom) in &group.binders {
                let mut vs = Vec::new();
                dom.collect_vars(&mut vs);
                if vs
                    .iter()
                    .any(|v| !bound_after_outer.contains(v) && !earlier.contains(v))
                {
                    unbound_domain = true;
                }
                earlier.push(*qv);
            }
            if unbound_domain || !live_unbound.is_empty() {
                uses_active_universe = true;
            }
            if unbound_domain && matches!(policy, SetUniverse::Reject) {
                let offender = group
                    .binders
                    .iter()
                    .flat_map(|(_, d)| {
                        let mut vs = Vec::new();
                        d.collect_vars(&mut vs);
                        vs
                    })
                    .find(|v| !bound_after_outer.contains(v))
                    .expect("unbound_domain implies an unbound domain var");
                return Err(EngineError::Unsafe {
                    rule_head: head_name,
                    var: rule.var_name(offender).to_owned(),
                    detail: "quantifier domain is not bound by the body; \
                             enable SetUniverse::ActiveSets to enumerate the active universe"
                        .to_owned(),
                });
            }

            // Inner-join plan when coverage analysis is needed: the
            // quantified vars and unbound free vars must be grounded by
            // the inner literals alone (with outer vars and domains
            // assumed bound).
            // The inner join runs with the outer variables and every
            // domain's variables bound.
            let mut initially_bound: FxHashSet<VarId> = bound_after_outer.clone();
            for (_, dom) in &group.binders {
                let mut vs = Vec::new();
                dom.collect_vars(&mut vs);
                initially_bound.extend(vs);
            }
            let inner_steps = if unbound_free.is_empty() {
                None
            } else {
                if !live_unbound.is_empty() && matches!(policy, SetUniverse::Reject) {
                    return Err(EngineError::Unsafe {
                        rule_head: head_name,
                        var: rule.var_name(live_unbound[0]).to_owned(),
                        detail: "reaches the head but occurs only under a restricted \
                                 universal quantifier; enable SetUniverse::ActiveSets to \
                                 enumerate the active universe in the vacuous case"
                            .to_owned(),
                    });
                }
                let (steps, deferred) = order_lits(
                    &group.inner,
                    &initially_bound,
                    policy,
                    &head_name,
                    rule,
                    None,
                    false,
                    &mut uses_active_universe,
                    cost,
                    &mut estimated_rows,
                )?;
                debug_assert!(deferred.is_empty(), "no deferral inside groups");
                Some(fold_members(steps, &group.inner, &initially_bound))
            };
            let inner = inner_steps.as_ref().map(|steps| {
                let mut bound = vec![false; rule.num_vars];
                for v in &initially_bound {
                    bound[v.index()] = true;
                }
                compile_prog(steps, &group.inner, &mut bound, None)
            });

            (
                Some(QuantPlan {
                    live_sorts: live_unbound.iter().map(|&v| rule.var_sort(v)).collect(),
                    unbound_free,
                    live_unbound,
                    inner_steps,
                    inner,
                    unbound_domain,
                }),
                inner_preds,
            )
        }
    };

    // Head safety: every head variable must be bound after outer steps
    // or by the quantifier group (its free vars all end up bound) or be
    // the grouping variable.
    let mut head_bindable = bound_after_outer.clone();
    if let Some(group) = &rule.quant {
        head_bindable.extend(group.free_vars());
    }
    if let Some(g) = &rule.group {
        head_bindable.insert(g.var);
    }
    let mut enum_vars: Vec<VarId> = Vec::new();
    for (pos, arg) in rule.head_args.iter().enumerate() {
        if rule.group.as_ref().is_some_and(|g| g.arg_pos == pos) {
            continue;
        }
        let mut vs = Vec::new();
        arg.collect_vars(&mut vs);
        for v in vs {
            if !head_bindable.contains(&v) && !enum_vars.contains(&v) {
                if matches!(policy, SetUniverse::Reject) {
                    return Err(EngineError::Unsafe {
                        rule_head: head_name,
                        var: rule.var_name(v).to_owned(),
                        detail: "appears in the head but in no body literal \
                                 (enable SetUniverse::ActiveSets to range it over the \
                                 active universe)"
                            .to_owned(),
                    });
                }
                enum_vars.push(v);
            }
        }
    }
    if !enum_vars.is_empty() {
        uses_active_universe = true;
        for variant in &mut variants {
            for &v in &enum_vars {
                variant.steps.push(Step::EnumUniverse {
                    var: v,
                    sort: rule.var_sort(v),
                });
            }
        }
    }

    // Grouping var must be bound by the body.
    if let Some(g) = &rule.group {
        if !bound_after_outer.contains(&g.var)
            && !rule
                .quant
                .as_ref()
                .is_some_and(|q| q.free_vars().contains(&g.var))
        {
            return Err(EngineError::Unsafe {
                rule_head: head_name,
                var: rule.var_name(g.var).to_owned(),
                detail: "grouping variable is not bound by the body".to_owned(),
            });
        }
    }

    // Collect index requests from every variant and the inner plan.
    let mut index_requests = Vec::new();
    let mut push_requests = |steps: &[Step], lits: &[BodyLit]| {
        for step in steps {
            if let Step::Pos { lit, mask, .. } = step {
                if *mask != 0 {
                    if let BodyLit::Pos(p, _) = &lits[*lit] {
                        index_requests.push((*p, *mask));
                    }
                }
            }
        }
    };
    for v in &variants {
        push_requests(&v.steps, &rule.outer);
    }
    if let Some(QuantPlan {
        inner_steps: Some(steps),
        ..
    }) = &quant_plan
    {
        if let Some(group) = &rule.quant {
            push_requests(steps, &group.inner);
        }
    }
    index_requests.sort_unstable();
    index_requests.dedup();

    // Per-literal estimates of the full variant, in chosen join order
    // (the masks stored in the steps are exactly the probe masks the
    // planner scored, so re-asking the snapshot reproduces its
    // predictions).
    let step_estimates: Vec<(usize, usize)> = variants[0]
        .steps
        .iter()
        .filter_map(|s| match s {
            Step::Pos { lit, mask, .. } => match &rule.outer[*lit] {
                BodyLit::Pos(p, _) => Some((
                    *lit,
                    cost.and_then(|st| st.estimate(*p, *mask)).unwrap_or(0),
                )),
                _ => None,
            },
            _ => None,
        })
        .collect();

    // Fold membership conjunctions and mark existential tails on the
    // final join order, universe enumeration included. `reorders` and
    // the estimates above read the order before folding.
    // ... and compile the final order for the executor. Post steps run
    // after the quantifier group has bound its free variables.
    let group_free = rule
        .quant
        .as_ref()
        .map(|q| q.free_vars())
        .unwrap_or_default();
    for variant in &mut variants {
        let steps = std::mem::take(&mut variant.steps);
        variant.steps = fold_members(steps, &rule.outer, &FxHashSet::default());
        variant.tail = existential_tail(rule, &variant.steps, &variant.post_steps);
        let mut bound = vec![false; rule.num_vars];
        variant.prog = compile_prog(&variant.steps, &rule.outer, &mut bound, variant.tail);
        for v in &group_free {
            bound[v.index()] = true;
        }
        variant.post = compile_prog(&variant.post_steps, &rule.outer, &mut bound, None);
    }

    Ok(CompiledRule {
        id: 0,
        rule: rule.clone(),
        variants,
        quant_plan,
        inner_preds,
        index_requests,
        uses_active_universe,
        reorders,
        estimated_rows,
        step_estimates,
    })
}

/// Variables statically bound after running `steps`.
fn vars_bound_after(steps: &[Step], rule: &Rule) -> FxHashSet<VarId> {
    let mut bound = FxHashSet::default();
    for step in steps {
        match step {
            Step::Pos { lit, .. } | Step::BuiltinStep { lit, .. } => {
                bound.extend(rule.outer[*lit].vars());
            }
            Step::NegStep { .. } => {}
            Step::EnumUniverse { var, .. } | Step::Members { var, .. } => {
                bound.insert(*var);
            }
        }
    }
    bound
}

/// Append the variables a step may bind to `out`: every variable of its
/// literal(s), or the enumerated one. A negation binds nothing.
fn step_binds(step: &Step, lits: &[BodyLit], out: &mut Vec<VarId>) {
    match step {
        Step::Pos { lit, .. } | Step::BuiltinStep { lit, .. } => lit_vars(&lits[*lit], out),
        Step::NegStep { .. } => {}
        Step::EnumUniverse { var, .. } | Step::Members { var, .. } => out.push(*var),
    }
}

/// Append every variable of `lit` to `out`.
fn lit_vars(lit: &BodyLit, out: &mut Vec<VarId>) {
    let (BodyLit::Pos(_, args) | BodyLit::Neg(_, args) | BodyLit::Builtin(_, args)) = lit;
    for a in args {
        a.collect_vars(out);
    }
}

/// `(X, S)` when `step` evaluates a flat `X in S` whose element is a
/// variable.
fn member_of<'a>(step: &Step, lits: &'a [BodyLit]) -> Option<(VarId, &'a Pattern)> {
    let Step::BuiltinStep { lit, flat: true } = step else {
        return None;
    };
    match &lits[*lit] {
        BodyLit::Builtin(Builtin::In, args) => match &args[0] {
            Pattern::Var(x) => Some((*x, &args[1])),
            _ => None,
        },
        _ => None,
    }
}

/// Fold each flat `X in S` that enumerates a free `X` over a bound `S`,
/// together with every later flat `X in T` whose `T` is bound at that
/// point, into one [`Step::Members`]. The folded checks only filter
/// `X`, so moving them into the intersection keeps every answer, and
/// its order: witnesses come out in `TermId` order, as the elements of
/// one set do.
fn fold_members(
    steps: Vec<Step>,
    lits: &[BodyLit],
    initially_bound: &FxHashSet<VarId>,
) -> Vec<Step> {
    if !steps.iter().any(|s| member_of(s, lits).is_some()) {
        return steps;
    }
    let mut bound = initially_bound.clone();
    let mut folded = vec![false; steps.len()];
    let mut out = Vec::with_capacity(steps.len());
    let mut vars = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        if folded[i] {
            continue;
        }
        let step = match member_of(step, lits) {
            Some((x, set)) if !bound.contains(&x) && !set.any_var(&|v| !bound.contains(&v)) => {
                let mut ins = vec![step.lit().expect("a builtin step has a literal")];
                for (j, later) in steps.iter().enumerate().skip(i + 1) {
                    if let Some((y, t)) = member_of(later, lits) {
                        if y == x && !t.any_var(&|v| !bound.contains(&v)) {
                            folded[j] = true;
                            ins.push(later.lit().expect("a builtin step has a literal"));
                        }
                    }
                }
                Step::Members { var: x, lits: ins }
            }
            _ => step.clone(),
        };
        vars.clear();
        step_binds(&step, lits, &mut vars);
        bound.extend(vars.iter().copied());
        out.push(step);
    }
    out
}

/// Whether a step may sit in an existential tail: it is flat, and it
/// can neither intern a term nor fail, so cutting it short hides no
/// error and never changes the interned universe.
fn cuttable(step: &Step, lits: &[BodyLit]) -> bool {
    match step {
        Step::Pos { flat, .. } => *flat,
        Step::NegStep { lit } => lit_flat(&lits[*lit]),
        Step::BuiltinStep { lit, flat } => {
            *flat
                && matches!(
                    lits[*lit],
                    BodyLit::Builtin(Builtin::Eq | Builtin::Ne | Builtin::In | Builtin::NotIn, _)
                )
        }
        Step::Members { .. } => true,
        Step::EnumUniverse { .. } => false,
    }
}

/// The first index of a variant's existential tail (see
/// [`Variant::tail`]): the longest suffix of cuttable steps that binds
/// no variable the head, the grouping slot, the post steps or the
/// quantifier group reads, provided it binds some variable at all.
fn existential_tail(rule: &Rule, steps: &[Step], post_steps: &[Step]) -> Option<usize> {
    if !steps.last().is_some_and(|s| cuttable(s, &rule.outer)) {
        return None;
    }
    const READ: u8 = 1;
    const BOUND: u8 = 2;
    let mut flags = vec![0u8; rule.num_vars];
    let mut vars = Vec::new();
    for arg in &rule.head_args {
        arg.collect_vars(&mut vars);
    }
    vars.extend(rule.group.as_ref().map(|g| g.var));
    for lit in post_steps.iter().filter_map(Step::lit) {
        lit_vars(&rule.outer[lit], &mut vars);
    }
    if let Some(group) = &rule.quant {
        for (_, dom) in &group.binders {
            dom.collect_vars(&mut vars);
        }
        for lit in &group.inner {
            lit_vars(lit, &mut vars);
        }
    }
    for v in &vars {
        flags[v.index()] = READ;
    }

    let (mut start, mut binds) = (None, false);
    for (i, step) in steps.iter().enumerate() {
        vars.clear();
        step_binds(step, &rule.outer, &mut vars);
        vars.retain(|v| flags[v.index()] & BOUND == 0);
        if cuttable(step, &rule.outer) && vars.iter().all(|v| flags[v.index()] & READ == 0) {
            if start.is_none() {
                start = Some(i);
                binds = false;
            }
            binds |= !vars.is_empty();
        } else {
            start = None;
        }
        for v in &vars {
            flags[v.index()] |= BOUND;
        }
    }
    start.filter(|_| binds)
}

fn order_steps(
    rule: &Rule,
    delta_lit: Option<usize>,
    policy: SetUniverse,
    head_name: &str,
    uses_active: &mut bool,
    cost: Option<&Stats>,
    est_rows: &mut usize,
) -> Result<Variant, EngineError> {
    let (steps, deferred) = order_lits(
        &rule.outer,
        &FxHashSet::default(),
        policy,
        head_name,
        rule,
        delta_lit,
        rule.quant.is_some(),
        uses_active,
        cost,
        est_rows,
    )?;
    // Deferred literals run after the quantifier group, by which time
    // the group's free variables are bound. Validate that claim.
    if !deferred.is_empty() {
        let mut bindable = vars_bound_after(&steps, rule);
        if let Some(group) = &rule.quant {
            bindable.extend(group.free_vars());
        }
        for &d in &deferred {
            if let Some(v) = rule.outer[d].vars().iter().find(|v| !bindable.contains(v)) {
                return Err(EngineError::Unsafe {
                    rule_head: head_name.to_owned(),
                    var: rule.var_name(*v).to_owned(),
                    detail: "no literal ordering can ground it (builtin modes unsatisfied)"
                        .to_owned(),
                });
            }
        }
    }
    let post_steps: Vec<Step> = deferred
        .into_iter()
        .map(|d| match &rule.outer[d] {
            BodyLit::Neg(..) => Step::NegStep { lit: d },
            BodyLit::Builtin(..) => Step::BuiltinStep {
                lit: d,
                flat: lit_flat(&rule.outer[d]),
            },
            BodyLit::Pos(..) => unreachable!("positive literals are never deferred"),
        })
        .collect();
    Ok(Variant {
        delta_lit,
        steps,
        post_steps,
        tail: None,
        prog: Prog::default(),
        post: Prog::default(),
    })
}

/// Compile `steps` over `lits`, whose existential tail starts at step
/// `tail`, into a [`Prog`]. `bound` flags the variables bound before
/// the first step and, on return, after the last.
fn compile_prog(steps: &[Step], lits: &[BodyLit], bound: &mut [bool], tail: Option<usize>) -> Prog {
    let mut pre = Vec::new();
    let mut levels: Vec<(Op, Vec<Guard>, Vec<VarId>)> = Vec::new();
    let mut tail_level = None;
    for (i, step) in steps.iter().enumerate() {
        let in_tail = tail.is_some_and(|t| i >= t);
        let (newly, compiled) = match step {
            // Only the last step of a tail, which its first solution
            // closes, can stop at its first witness.
            Step::Members { var, lits: ins } if in_tail && i + 1 == steps.len() => (
                vec![*var],
                Err(Guard::Exists {
                    var: *var,
                    sets: member_sets(ins, lits),
                }),
            ),
            _ => {
                let c = compile_step(step, lits, bound);
                let newly = match &c {
                    Ok(op) => op.binds(),
                    Err(_) => Vec::new(),
                };
                (newly, c)
            }
        };
        for v in &newly {
            bound[v.index()] = true;
        }
        match compiled {
            Ok(op) => {
                if in_tail && tail_level.is_none() {
                    tail_level = Some(levels.len());
                }
                levels.push((op, Vec::new(), newly));
            }
            Err(guard) => match levels.last_mut() {
                Some((_, guards, binds)) => {
                    guards.push(guard);
                    binds.extend(newly);
                }
                None => pre.push(guard),
            },
        }
    }
    Prog {
        pre: pre.into(),
        levels: levels
            .into_iter()
            .map(|(op, guards, binds)| Level {
                op,
                guards: guards.into(),
                binds: binds.into(),
            })
            .collect(),
        tail: tail_level,
    }
}

/// The sets a [`Step::Members`] intersects: the second argument of each
/// folded `X in S`.
fn member_sets(ins: &[usize], lits: &[BodyLit]) -> Box<[Arg]> {
    ins.iter()
        .map(|&i| match &lits[i] {
            BodyLit::Builtin(Builtin::In, args) => match arg_value(args, 1) {
                Arg::Term(_) => unreachable!("membership folded on a compound set"),
                set => set,
            },
            other => unreachable!("Members step on {other:?}"),
        })
        .collect()
}

/// Compile one step, given the variables bound before it: an op, or a
/// guard if it yields at most one solution.
fn compile_step(step: &Step, lits: &[BodyLit], bound: &[bool]) -> Result<Op, Guard> {
    let is_bound = |p: &Pattern| !p.any_var(&|v| !bound[v.index()]);
    Ok(match step {
        Step::Pos {
            lit, mask, delta, ..
        } => {
            let BodyLit::Pos(pred, args) = &lits[*lit] else {
                unreachable!("Pos step on {:?}", lits[*lit])
            };
            let keyed = |col: usize| mask & 1 << col != 0;
            debug_assert!((0..args.len()).all(|col| keyed(col) == is_bound(&args[col])));
            Op::Pos {
                lit: *lit,
                pred: *pred,
                mask: *mask,
                delta: *delta,
                key: (0..args.len())
                    .filter(|&col| keyed(col))
                    .map(|col| arg_value(args, col))
                    .collect(),
                row: row_match(args, bound, keyed),
            }
        }
        Step::BuiltinStep { lit, .. } => {
            let BodyLit::Builtin(b, args) = &lits[*lit] else {
                unreachable!("Builtin step on {:?}", lits[*lit])
            };
            if args.iter().all(is_bound) {
                return Err(Guard::Filter {
                    b: *b,
                    args: (0..args.len()).map(|i| arg_value(args, i)).collect(),
                    lit: *lit,
                });
            }
            Op::Builtin {
                lit: *lit,
                b: *b,
                inputs: (0..args.len())
                    .filter(|&i| is_bound(&args[i]))
                    .map(|i| (i, arg_value(args, i)))
                    .collect(),
                row: row_match(args, bound, |col| is_bound(&args[col])),
            }
        }
        Step::NegStep { lit } => {
            let BodyLit::Neg(pred, args) = &lits[*lit] else {
                unreachable!("Neg step on {:?}", lits[*lit])
            };
            return Err(Guard::Neg {
                pred: *pred,
                args: (0..args.len()).map(|i| arg_value(args, i)).collect(),
                lit: *lit,
            });
        }
        Step::Members { var, lits: ins } => Op::Members {
            var: *var,
            sets: member_sets(ins, lits),
        },
        Step::EnumUniverse { var, sort } => Op::EnumUniverse {
            var: *var,
            sort: *sort,
        },
    })
}

/// Where the executor reads argument `i` of a literal from.
fn arg_value(args: &[Pattern], i: usize) -> Arg {
    match &args[i] {
        Pattern::Ground(id) => Arg::Ground(*id),
        Pattern::Var(v) => Arg::Slot(*v),
        _ => Arg::Term(i),
    }
}

/// How a row or candidate for `args` binds the variables not in
/// `bound`: flat arguments get an action per column that `fixed` (an
/// index key or a builtin input) leaves open; any compound or set
/// pattern takes the general matcher.
fn row_match(args: &[Pattern], bound: &[bool], fixed: impl Fn(usize) -> bool) -> RowMatch {
    if !args
        .iter()
        .all(|p| matches!(p, Pattern::Var(_) | Pattern::Ground(_)))
    {
        let mut vars = Vec::new();
        for p in args {
            p.collect_vars(&mut vars);
        }
        vars.retain(|v| !bound[v.index()]);
        return RowMatch::General(vars.into());
    }
    let mut newly = bound.to_vec();
    let mut acts = Vec::new();
    for (col, p) in args.iter().enumerate().filter(|&(col, _)| !fixed(col)) {
        let act = match p {
            Pattern::Ground(id) => ColAct::Ground(*id),
            Pattern::Var(v) if newly[v.index()] => ColAct::Check(*v),
            Pattern::Var(v) => {
                newly[v.index()] = true;
                ColAct::Bind(*v)
            }
            _ => unreachable!("flat arguments are variables or constants"),
        };
        acts.push((col, act));
    }
    RowMatch::Flat(acts.into())
}

/// Greedy literal ordering. Scores (descending):
/// fully-bound builtin check > bound negation > positive atom with the
/// most bound columns > generative builtin > unbound positive scan.
///
/// With `cost` statistics, the static positive-atom tier is replaced by
/// `700 − estimated rows` — greedy smallest-estimated-intermediate-
/// result first. The check tiers (bound builtin/negation/existence)
/// stay above every cost score, so safety-relevant placement is
/// unchanged; a huge scan *can* sink below the generative-builtin tier
/// (40), deliberately: binding variables cheaply first shrinks it to an
/// indexed probe. A [`functional`] builtin (at most one row for its
/// bound arguments) scores as a 1-row probe (`700 − 1`), so it binds
/// its output before any scan that could use it. Each chosen positive
/// step's estimate accumulates into `est_rows`.
#[allow(clippy::too_many_arguments)]
fn order_lits(
    lits: &[BodyLit],
    initially_bound: &FxHashSet<VarId>,
    policy: SetUniverse,
    head_name: &str,
    rule: &Rule,
    delta_lit: Option<usize>,
    defer_ok: bool,
    uses_active: &mut bool,
    cost: Option<&Stats>,
    est_rows: &mut usize,
) -> Result<(Vec<Step>, Vec<usize>), EngineError> {
    let mut bound = initially_bound.clone();
    let mut remaining: Vec<usize> = (0..lits.len()).collect();
    let mut steps = Vec::with_capacity(lits.len());

    // The delta literal is forced first: semi-naive variants seed the
    // join from newly derived tuples.
    if let Some(d) = delta_lit {
        let mask = bound_mask(&lits[d], &bound);
        steps.push(Step::Pos {
            lit: d,
            mask,
            delta: true,
            flat: lit_flat(&lits[d]),
        });
        bound.extend(lits[d].vars());
        remaining.retain(|&i| i != d);
    }

    while !remaining.is_empty() {
        let mut best: Option<(i64, usize)> = None;
        for &i in &remaining {
            let score = match &lits[i] {
                BodyLit::Builtin(b, args) => {
                    let flags: Vec<bool> = args
                        .iter()
                        .map(|p| !p.any_var(&|v| !bound.contains(&v)))
                        .collect();
                    if !mode_ok(*b, &flags, policy) {
                        continue;
                    }
                    if flags.iter().all(|&f| f) {
                        1000
                    } else if cost.is_some() && functional(*b, &flags) {
                        700 - 1
                    } else {
                        40
                    }
                }
                BodyLit::Neg(_, args) => {
                    let all_bound = args.iter().all(|p| !p.any_var(&|v| !bound.contains(&v)));
                    if !all_bound {
                        continue;
                    }
                    900
                }
                BodyLit::Pos(p, args) => {
                    let bound_cols = args
                        .iter()
                        .filter(|p| !p.any_var(&|v| !bound.contains(&v)))
                        .count();
                    if bound_cols == args.len() && !args.is_empty() {
                        800 // existence check
                    } else if let Some(stats) = cost {
                        let mask = bound_mask(&lits[i], &bound);
                        match stats.estimate(*p, mask) {
                            Some(est) => 700i64.saturating_sub(est.min(1 << 40) as i64),
                            // No data: the predicate was registered
                            // after the snapshot — an adorned/magic
                            // relation mid-rewrite. Bound probes on
                            // those are demand-sized (small); unbound
                            // scans fall back to the static tier.
                            None if mask != 0 => 700 - 8,
                            None => 50 + bound_cols as i64 * 10,
                        }
                    } else {
                        50 + bound_cols as i64 * 10
                    }
                }
            };
            if best.is_none_or(|(s, _)| score > s) {
                best = Some((score, i));
            }
        }
        let Some((_, pick)) = best else {
            // Nothing is evaluable. Positive atoms are always
            // scannable, so the stuck remainder is negations/builtins.
            if defer_ok
                && remaining
                    .iter()
                    .all(|&i| !matches!(lits[i], BodyLit::Pos(..)))
            {
                // Defer them past the quantifier group.
                let deferred = remaining.clone();
                return Ok((steps, deferred));
            }
            // Active-universe fallback: bind one stuck variable by
            // enumeration and keep ordering (the paper's constructions
            // legitimately produce e.g. `aux(Q, S) :- Q = S` with both
            // open — semantics restricted to the active universe,
            // DESIGN.md §3).
            if !matches!(policy, SetUniverse::Reject) {
                let witness = remaining
                    .iter()
                    .flat_map(|&i| lits[i].vars())
                    .find(|v| !bound.contains(v))
                    .expect("stuck implies an unbound variable");
                *uses_active = true;
                // An unsorted variable that some builtin needs as a set
                // ranges over sets only: an atom there could only fail
                // (`card`, `union`, …) or match nothing (`in`).
                let sort = rule.var_sort(witness).or_else(|| {
                    lits.iter()
                        .any(|l| at_set_position(witness, l))
                        .then_some(lps_term::Sort::Set)
                });
                steps.push(Step::EnumUniverse { var: witness, sort });
                bound.insert(witness);
                continue;
            }
            let witness = remaining
                .iter()
                .flat_map(|&i| lits[i].vars())
                .find(|v| !bound.contains(v));
            let var = witness
                .map(|v| rule.var_name(v).to_owned())
                .unwrap_or_else(|| "?".to_owned());
            return Err(EngineError::Unsafe {
                rule_head: head_name.to_owned(),
                var,
                detail: "no literal ordering can ground it (builtin modes unsatisfied)".to_owned(),
            });
        };
        let step = match &lits[pick] {
            BodyLit::Pos(p, _) => {
                let mask = bound_mask(&lits[pick], &bound);
                if let Some(est) = cost.and_then(|s| s.estimate(*p, mask)) {
                    *est_rows = est_rows.saturating_add(est);
                }
                Step::Pos {
                    lit: pick,
                    mask,
                    delta: false,
                    flat: lit_flat(&lits[pick]),
                }
            }
            BodyLit::Neg(_, _) => Step::NegStep { lit: pick },
            BodyLit::Builtin(b, args) => {
                // Record active-universe dependence: a mode admitted
                // only because the policy enumerates sets reads the set
                // universe, which grows during evaluation.
                let flags: Vec<bool> = args
                    .iter()
                    .map(|p| !p.any_var(&|v| !bound.contains(&v)))
                    .collect();
                if !mode_ok(*b, &flags, SetUniverse::Reject) {
                    *uses_active = true;
                }
                Step::BuiltinStep {
                    lit: pick,
                    flat: lit_flat(&lits[pick]),
                }
            }
        };
        if !matches!(step, Step::NegStep { .. }) {
            bound.extend(lits[pick].vars());
        }
        steps.push(step);
        remaining.retain(|&i| i != pick);
    }
    Ok((steps, Vec::new()))
}

/// Whether every argument of a literal is a plain `Var`/`Ground`
/// pattern. Flat tuples have at most one match solution per row, which
/// the executor exploits to bind in place without capturing solutions.
fn lit_flat(lit: &BodyLit) -> bool {
    let args = match lit {
        BodyLit::Pos(_, args) | BodyLit::Neg(_, args) => args,
        BodyLit::Builtin(_, args) => args,
    };
    args.iter()
        .all(|p| matches!(p, Pattern::Var(_) | Pattern::Ground(_)))
}

/// Whether `v` is an argument of `lit` at a position where its builtin
/// requires a set ([`set_positions`]).
fn at_set_position(v: VarId, lit: &BodyLit) -> bool {
    let BodyLit::Builtin(b, args) = lit else {
        return false;
    };
    set_positions(*b)
        .iter()
        .any(|&i| matches!(args[i], Pattern::Var(w) if w == v))
}

/// Column mask of the fully-bound argument positions of a positive (or
/// negative) atom.
fn bound_mask(lit: &BodyLit, bound: &FxHashSet<VarId>) -> ColMask {
    let args = match lit {
        BodyLit::Pos(_, args) | BodyLit::Neg(_, args) => args,
        BodyLit::Builtin(..) => return 0,
    };
    let mut mask = 0;
    for (i, p) in args.iter().enumerate() {
        if !p.any_var(&|v| !bound.contains(&v)) {
            mask |= 1 << i;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::PredRegistry;
    use crate::rule::{Builtin, QuantGroup};
    use lps_term::SymbolTable;

    fn setup() -> (PredId, PredId, PredId) {
        let mut syms = SymbolTable::new();
        let (e, p, q) = (syms.intern("e"), syms.intern("p"), syms.intern("q"));
        let mut reg = PredRegistry::new();
        let pe = reg.register(e, 2);
        let pp = reg.register(p, 2);
        let pq = reg.register(q, 1);
        (pe, pp, pq)
    }

    fn v(i: u32) -> Pattern {
        Pattern::Var(VarId(i))
    }

    fn names(_: PredId) -> String {
        "head".to_owned()
    }

    #[test]
    fn transitive_closure_rule_plans_with_join_index() {
        // p(X, Z) :- e(X, Y), p(Y, Z).
        let (pe, pp, _) = setup();
        let rule = Rule {
            head: pp,
            head_args: vec![v(0), v(2)],
            group: None,
            outer: vec![
                BodyLit::Pos(pe, vec![v(0), v(1)]),
                BodyLit::Pos(pp, vec![v(1), v(2)]),
            ],
            quant: None,
            num_vars: 3,
            var_names: vec!["X".into(), "Y".into(), "Z".into()],
            var_sorts: vec![],
        };
        let mut idb = FxHashSet::default();
        idb.insert(pp);
        let compiled = compile_rule(&rule, &names, &idb, SetUniverse::Reject, None).expect("plans");
        // Full variant + delta variant for the one IDB literal.
        assert_eq!(compiled.variants.len(), 2);
        // Full variant: scan first literal, indexed lookup on second.
        let full = &compiled.variants[0];
        assert_eq!(full.steps.len(), 2);
        match &full.steps[1] {
            Step::Pos { mask, .. } => assert_ne!(*mask, 0, "second literal must use an index"),
            other => panic!("expected Pos, got {other:?}"),
        }
        // Index requests include the join column.
        assert!(!compiled.index_requests.is_empty());
        assert_eq!(compiled.variants[1].delta_lit, Some(1));
    }

    #[test]
    fn builtin_check_is_scheduled_after_binding() {
        // head(X, Y) :- e(X, Y), X != Y.   (Ne needs both bound)
        let (pe, pp, _) = setup();
        let rule = Rule {
            head: pp,
            head_args: vec![v(0), v(1)],
            group: None,
            outer: vec![
                BodyLit::Builtin(Builtin::Ne, vec![v(0), v(1)]),
                BodyLit::Pos(pe, vec![v(0), v(1)]),
            ],
            quant: None,
            num_vars: 2,
            var_names: vec!["X".into(), "Y".into()],
            var_sorts: vec![],
        };
        let compiled = compile_rule(
            &rule,
            &names,
            &FxHashSet::default(),
            SetUniverse::Reject,
            None,
        )
        .expect("plans");
        let steps = &compiled.variants[0].steps;
        assert!(matches!(steps[0], Step::Pos { .. }));
        assert!(matches!(steps[1], Step::BuiltinStep { lit: 0, .. }));
    }

    #[test]
    fn functional_builtin_ranks_above_scans_only_with_statistics() {
        // head(X, Y) :- q(X), e(Y, W), X = Y.
        // With `X` bound, `X = Y` yields one row. Under statistics it
        // runs before the 40-row `e` scan, which becomes a keyed probe;
        // the textual planner keeps the generative-builtin tier.
        let (pe, pp, pq) = setup();
        let mut st = lps_term::TermStore::new();
        let ids: Vec<_> = (0..40).map(|i| st.atom(&format!("n{i}"))).collect();
        let mut e = crate::relation::Relation::new(2);
        for i in 0..40 {
            e.insert(&[ids[i], ids[(i + 1) % 40]]);
        }
        let mut q = crate::relation::Relation::new(1);
        q.insert(&[ids[0]]);
        q.insert(&[ids[1]]);
        let stats = Stats::snapshot(&[e, crate::relation::Relation::new(2), q], &[]);
        let rule = Rule {
            head: pp,
            head_args: vec![v(0), v(1)],
            group: None,
            outer: vec![
                BodyLit::Pos(pq, vec![v(0)]),
                BodyLit::Pos(pe, vec![v(1), v(2)]),
                BodyLit::Builtin(Builtin::Eq, vec![v(0), v(1)]),
            ],
            quant: None,
            num_vars: 3,
            var_names: vec!["X".into(), "Y".into(), "W".into()],
            var_sorts: vec![],
        };
        let plan = |cost| {
            compile_rule(
                &rule,
                &names,
                &FxHashSet::default(),
                SetUniverse::Reject,
                cost,
            )
            .expect("plans")
            .variants[0]
                .steps
                .clone()
        };
        let costed = plan(Some(&stats));
        assert!(matches!(costed[1], Step::BuiltinStep { lit: 2, .. }));
        assert!(matches!(
            costed[2],
            Step::Pos {
                lit: 1,
                mask: 0b01,
                ..
            }
        ));
        let textual = plan(None);
        assert!(matches!(
            textual[1],
            Step::Pos {
                lit: 1,
                mask: 0,
                ..
            }
        ));
        assert!(matches!(textual[2], Step::BuiltinStep { lit: 2, .. }));
    }

    #[test]
    fn union_with_one_input_needs_set_enumeration() {
        // head(X, Y) :- e(X, Z), union(X, Y, Z).   (Y ranges over sets)
        let (pe, pp, _) = setup();
        let rule = Rule {
            head: pp,
            head_args: vec![v(0), v(1)],
            group: None,
            outer: vec![
                BodyLit::Pos(pe, vec![v(0), v(2)]),
                BodyLit::Builtin(Builtin::Union, vec![v(0), v(1), v(2)]),
            ],
            quant: None,
            num_vars: 3,
            var_names: vec!["X".into(), "Y".into(), "Z".into()],
            var_sorts: vec![],
        };
        let compile = |policy| compile_rule(&rule, &names, &FxHashSet::default(), policy, None);
        match compile(SetUniverse::Reject).unwrap_err() {
            EngineError::Unsafe { var, .. } => assert_eq!(var, "Y"),
            other => panic!("expected Unsafe, got {other:?}"),
        }
        let compiled = compile(SetUniverse::ActiveSets).expect("plans");
        assert!(compiled.uses_active_universe);
    }

    #[test]
    fn unbound_head_var_is_unsafe() {
        // head(X, Y) :- q(X).   (Y never bound)
        let (_, pp, pq) = setup();
        let rule = Rule {
            head: pp,
            head_args: vec![v(0), v(1)],
            group: None,
            outer: vec![BodyLit::Pos(pq, vec![v(0)])],
            quant: None,
            num_vars: 2,
            var_names: vec!["X".into(), "Y".into()],
            var_sorts: vec![],
        };
        let err = compile_rule(
            &rule,
            &names,
            &FxHashSet::default(),
            SetUniverse::Reject,
            None,
        )
        .unwrap_err();
        match err {
            EngineError::Unsafe { var, .. } => assert_eq!(var, "Y"),
            other => panic!("expected Unsafe, got {other:?}"),
        }
    }

    #[test]
    fn unbound_ne_is_unsafe() {
        // head(X) :- q(X), X != Y.   (Y never bound, Ne has no free mode)
        let (_, pp, pq) = setup();
        let rule = Rule {
            head: pp,
            head_args: vec![v(0), v(0)],
            group: None,
            outer: vec![
                BodyLit::Pos(pq, vec![v(0)]),
                BodyLit::Builtin(Builtin::Ne, vec![v(0), v(1)]),
            ],
            quant: None,
            num_vars: 2,
            var_names: vec!["X".into(), "Y".into()],
            var_sorts: vec![],
        };
        let err = compile_rule(
            &rule,
            &names,
            &FxHashSet::default(),
            SetUniverse::Reject,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Unsafe { .. }));
    }

    #[test]
    fn quantified_rule_with_bound_domain_plans_without_inner_join() {
        // head(X, Y) :- e(X, Y), (∀u ∈ X) u in Y.
        let (pe, pp, _) = setup();
        let rule = Rule {
            head: pp,
            head_args: vec![v(0), v(1)],
            group: None,
            outer: vec![BodyLit::Pos(pe, vec![v(0), v(1)])],
            quant: Some(QuantGroup {
                binders: vec![(VarId(2), v(0))],
                inner: vec![BodyLit::Builtin(Builtin::In, vec![v(2), v(1)])],
            }),
            num_vars: 3,
            var_names: vec!["X".into(), "Y".into(), "U".into()],
            var_sorts: vec![],
        };
        let compiled = compile_rule(
            &rule,
            &names,
            &FxHashSet::default(),
            SetUniverse::Reject,
            None,
        )
        .expect("plans");
        let qp = compiled.quant_plan.expect("has quant plan");
        assert!(qp.unbound_free.is_empty());
        assert!(qp.inner_steps.is_none());
        assert!(!qp.unbound_domain);
    }

    #[test]
    fn unbound_quantifier_domain_requires_policy() {
        // head(X) :- (∀u ∈ X) q(u).   — Theorem 8's shape.
        let (_, pp, pq) = setup();
        let rule = Rule {
            head: pp,
            head_args: vec![v(0), v(0)],
            group: None,
            outer: vec![],
            quant: Some(QuantGroup {
                binders: vec![(VarId(1), v(0))],
                inner: vec![BodyLit::Pos(pq, vec![v(1)])],
            }),
            num_vars: 2,
            var_names: vec!["X".into(), "U".into()],
            var_sorts: vec![],
        };
        // Rejected under the default policy…
        let err = compile_rule(
            &rule,
            &names,
            &FxHashSet::default(),
            SetUniverse::Reject,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Unsafe { .. }));
        // …planned under ActiveSets.
        let compiled = compile_rule(
            &rule,
            &names,
            &FxHashSet::default(),
            SetUniverse::ActiveSets,
            None,
        )
        .expect("plans under ActiveSets");
        let qp = compiled.quant_plan.expect("has quant plan");
        assert!(qp.unbound_domain);
    }

    fn plan_rule(head_args: Vec<Pattern>, outer: Vec<BodyLit>, var_names: &[&str]) -> CompiledRule {
        let (_, pp, _) = setup();
        let rule = Rule {
            head: pp,
            head_args,
            group: None,
            outer,
            quant: None,
            num_vars: var_names.len(),
            var_names: var_names.iter().map(|n| (*n).to_owned()).collect(),
            var_sorts: vec![],
        };
        compile_rule(
            &rule,
            &names,
            &FxHashSet::default(),
            SetUniverse::ActiveSets,
            None,
        )
        .expect("plans")
    }

    #[test]
    fn existential_tail_starts_at_the_first_dead_binding() {
        // head(X, X) :- q(X), e(X, Y).   (Y is read by nothing)
        let (pe, _, pq) = setup();
        let cr = plan_rule(
            vec![v(0), v(0)],
            vec![
                BodyLit::Pos(pq, vec![v(0)]),
                BodyLit::Pos(pe, vec![v(0), v(1)]),
            ],
            &["X", "Y"],
        );
        assert_eq!(cr.variants[0].tail, Some(1));
    }

    #[test]
    fn a_variable_the_quantifier_group_reads_is_not_dead() {
        // head(X, X) :- q(X), e(X, Y), (∀u ∈ Y) q(u).   (the group reads Y)
        let (pe, pp, pq) = setup();
        let rule = Rule {
            head: pp,
            head_args: vec![v(0), v(0)],
            group: None,
            outer: vec![
                BodyLit::Pos(pq, vec![v(0)]),
                BodyLit::Pos(pe, vec![v(0), v(1)]),
            ],
            quant: Some(QuantGroup {
                binders: vec![(VarId(2), v(1))],
                inner: vec![BodyLit::Pos(pq, vec![v(2)])],
            }),
            num_vars: 3,
            var_names: vec!["X".into(), "Y".into(), "U".into()],
            var_sorts: vec![],
        };
        let cr = compile_rule(
            &rule,
            &names,
            &FxHashSet::default(),
            SetUniverse::Reject,
            None,
        )
        .expect("plans");
        assert_eq!(cr.variants[0].tail, None);
    }

    #[test]
    fn check_only_and_interning_suffixes_are_not_tails() {
        let (pe, _, pq) = setup();
        // head(X, Y) :- e(X, Y), X != Y.   (the suffix binds nothing)
        let checks = plan_rule(
            vec![v(0), v(1)],
            vec![
                BodyLit::Pos(pe, vec![v(0), v(1)]),
                BodyLit::Builtin(Builtin::Ne, vec![v(0), v(1)]),
            ],
            &["X", "Y"],
        );
        assert_eq!(checks.variants[0].tail, None);
        // head(X, X) :- q(X), union(X, X, Z).   (`union` interns)
        let interning = plan_rule(
            vec![v(0), v(0)],
            vec![
                BodyLit::Pos(pq, vec![v(0)]),
                BodyLit::Builtin(Builtin::Union, vec![v(0), v(0), v(1)]),
            ],
            &["X", "Z"],
        );
        assert_eq!(interning.variants[0].tail, None);
    }

    #[test]
    fn membership_conjunction_folds_into_one_intersection() {
        // head(S, T) :- e(S, T), X in S, X in T.
        let (pe, _, _) = setup();
        let cr = plan_rule(
            vec![v(0), v(1)],
            vec![
                BodyLit::Pos(pe, vec![v(0), v(1)]),
                BodyLit::Builtin(Builtin::In, vec![v(2), v(0)]),
                BodyLit::Builtin(Builtin::In, vec![v(2), v(1)]),
            ],
            &["S", "T", "X"],
        );
        let full = &cr.variants[0];
        assert_eq!(full.steps.len(), 2);
        assert_eq!(
            full.steps[1],
            Step::Members {
                var: VarId(2),
                lits: vec![1, 2],
            }
        );
        assert_eq!(full.tail, Some(1), "`X` is read by nothing");
    }

    #[test]
    fn compiled_levels_carry_static_actions_and_guards() {
        // head(X, X) :- e(X, X), q(X), X != X.
        let (pe, _, pq) = setup();
        let cr = plan_rule(
            vec![v(0), v(0)],
            vec![
                BodyLit::Pos(pe, vec![v(0), v(0)]),
                BodyLit::Pos(pq, vec![v(0)]),
                BodyLit::Builtin(Builtin::Ne, vec![v(0), v(0)]),
            ],
            &["X"],
        );
        let prog = &cr.variants[0].prog;
        assert!(prog.pre.is_empty());
        let [scan, check] = &prog.levels[..] else {
            panic!("two levels: {:?}", prog.levels)
        };
        // The scan binds `X` from the first column and checks the
        // second against it; the `!=` guards its rows.
        let Op::Pos { mask: 0, row, .. } = &scan.op else {
            panic!("a scan: {:?}", scan.op)
        };
        let x = VarId(0);
        assert_eq!(
            row,
            &RowMatch::Flat([(0, ColAct::Bind(x)), (1, ColAct::Check(x))].into())
        );
        assert!(matches!(
            &scan.guards[..],
            [Guard::Filter { b: Builtin::Ne, .. }]
        ));
        assert_eq!(&scan.binds[..], &[x]);
        // `q(X)` is an existence check: a keyed probe that binds nothing.
        let Op::Pos { mask, key, row, .. } = &check.op else {
            panic!("a probe: {:?}", check.op)
        };
        assert_eq!((*mask, &key[..]), (0b1, &[Arg::Slot(x)][..]));
        assert_eq!(row, &RowMatch::Flat(Box::default()));
        assert_eq!(prog.tail, None);
    }

    #[test]
    fn a_tail_ending_in_an_intersection_becomes_a_guard() {
        // head(S, T) :- e(S, T), X in S, X in T.   (`X` is dead)
        let (pe, _, _) = setup();
        let cr = plan_rule(
            vec![v(0), v(1)],
            vec![
                BodyLit::Pos(pe, vec![v(0), v(1)]),
                BodyLit::Builtin(Builtin::In, vec![v(2), v(0)]),
                BodyLit::Builtin(Builtin::In, vec![v(2), v(1)]),
            ],
            &["S", "T", "X"],
        );
        let variant = &cr.variants[0];
        assert_eq!(variant.tail, Some(1));
        let [level] = &variant.prog.levels[..] else {
            panic!("one level: {:?}", variant.prog.levels)
        };
        assert_eq!(
            &level.guards[..],
            &[Guard::Exists {
                var: VarId(2),
                sets: [Arg::Slot(VarId(0)), Arg::Slot(VarId(1))].into(),
            }]
        );
        // The tail's one step is a guard of an earlier level: no level
        // is left to cut.
        assert_eq!(variant.prog.tail, None);
    }

    #[test]
    fn unsorted_variable_at_a_set_position_enumerates_sets() {
        // head(S, S) :- card(S, N), 2 <= N.   (under ActiveSets)
        let mut st = lps_term::TermStore::new();
        let two = st.int(2);
        let cr = plan_rule(
            vec![v(0), v(0)],
            vec![
                BodyLit::Builtin(Builtin::Card, vec![v(0), v(1)]),
                BodyLit::Builtin(Builtin::Le, vec![Pattern::Ground(two), v(1)]),
            ],
            &["S", "N"],
        );
        assert_eq!(
            cr.variants[0].steps[0],
            Step::EnumUniverse {
                var: VarId(0),
                sort: Some(lps_term::Sort::Set),
            }
        );
    }

    #[test]
    fn grouping_var_must_be_bound() {
        let (_, pp, pq) = setup();
        let rule = Rule {
            head: pp,
            head_args: vec![v(0), v(1)],
            group: Some(crate::rule::GroupSpec {
                arg_pos: 1,
                var: VarId(1),
            }),
            outer: vec![BodyLit::Pos(pq, vec![v(0)])],
            quant: None,
            num_vars: 2,
            var_names: vec!["X".into(), "G".into()],
            var_sorts: vec![],
        };
        let err = compile_rule(
            &rule,
            &names,
            &FxHashSet::default(),
            SetUniverse::Reject,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Unsafe { .. }));
    }
}
