//! The stratum driver: `run_strata` runs a compiled program stratum
//! by stratum — in batch from the bottom, or seeded from a restart
//! stratum — for every evaluation pass the engine makes, and each
//! stratum to fixpoint by naive or semi-naive evaluation.
//!
//! The naive driver is the literal `T_P ↑ ω` of Theorem 5: every rule
//! is applied to the full relations each round until nothing new is
//! derived. The semi-naive driver runs delta variants (each rule
//! re-joined from last round's new tuples) plus a *quantifier trigger*
//! pass: a rule whose `(∀x∈X)` group reads recursive predicates is
//! re-evaluated when those predicates grow, restricted — when the
//! element→set inverted index applies — to domain sets containing a
//! newly derived element (experiment E9).
//!
//! Within a stratum run the full relations only grow, and derived
//! tuples are inserted only between rounds, so a round's delta is the
//! [`RowWindow`] between a relation's lengths before and after the
//! previous round's inserts. No tuple is copied into a separate delta
//! relation, and a delta probe narrows the full relation's index to the
//! window.

use std::cell::RefCell;

use lps_term::{FxHashSet, TermId, TermStore};

use crate::config::{EvalConfig, EvalStats, FixpointStrategy};
use crate::error::EngineError;
use crate::eval::{eval_rule_variant, ProbeCounters, QuantTrigger, RelViews, StepProfiler};
use crate::pattern::Pattern;
use crate::plan::CompiledRule;
use crate::pred::PredId;
use crate::relation::{Relation, RowWindow, MAX_ARITY};
use crate::rule::BodyLit;
use crate::strata::CompiledProgram;

/// Reusable buffer of derived head tuples: one flat `TermId` pool plus
/// per-tuple `(pred, start, len)` records. The drivers clear it between
/// fixpoint rounds (capacities retained), so a round allocates nothing
/// once the buffer has reached its working size — no per-tuple boxes,
/// no per-round vectors.
#[derive(Debug, Default)]
struct DerivedBuf {
    heads: Vec<(PredId, u32, u32)>,
    pool: Vec<TermId>,
}

impl DerivedBuf {
    /// Forget all tuples, keeping capacity.
    fn clear(&mut self) {
        self.heads.clear();
        self.pool.clear();
    }

    /// Number of buffered tuples.
    fn len(&self) -> usize {
        self.heads.len()
    }

    /// Start a tuple: returns the pool offset to record.
    fn begin(&self) -> u32 {
        u32::try_from(self.pool.len()).expect("derived pool overflow")
    }

    /// Finish the tuple started at `start` for `pred`.
    fn commit(&mut self, pred: PredId, start: u32) {
        let len = self.pool.len() as u32 - start;
        self.heads.push((pred, start, len));
    }

    /// Buffered `(pred, tuple)` pairs in derivation order.
    fn iter(&self) -> impl Iterator<Item = (PredId, &[TermId])> {
        self.heads
            .iter()
            .map(move |&(p, start, len)| (p, &self.pool[start as usize..(start + len) as usize]))
    }
}

/// What every rule evaluation of one stratum run borrows through its
/// [`RelViews`]: the probe counters, the builtin candidate stack
/// (capacity kept across rounds, like [`DerivedBuf`], and reserved up
/// front for a probe key's subterms), and the `:profile` attribution.
struct Scratch<'p> {
    counters: ProbeCounters,
    cands: RefCell<Vec<TermId>>,
    profiler: Option<&'p StepProfiler>,
}

impl Scratch<'_> {
    /// The views of one evaluation of rule `cr`.
    fn views<'a>(
        &'a self,
        full: &'a [Relation],
        delta: &'a [RowWindow],
        cr: &CompiledRule,
    ) -> RelViews<'a> {
        RelViews {
            full,
            delta,
            counters: &self.counters,
            cands: &self.cands,
            profile: self.profiler.map(|p| (p, cr.id)),
        }
    }
}

/// Move every delta window past the rows inserted since it was set:
/// with `w.hi` at each relation's length before this round's inserts,
/// the new window is exactly the rows this round added.
fn advance_windows(delta: &mut [RowWindow], full: &[Relation]) {
    for (w, rel) in delta.iter_mut().zip(full) {
        *w = RowWindow {
            lo: w.hi,
            hi: rel.len() as u32,
        };
    }
}

/// Where [`run_strata`] starts.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Start<'a> {
    /// Batch evaluation of every stratum over the relations as they
    /// stand: the program's ground fact rules load first (each real
    /// insertion into one of `magic_preds` counts as a demand seed),
    /// then each stratum runs its grouping rules and opens with a full
    /// round over the complete relations.
    Batch {
        /// The demand seed predicates of a magic rewrite (empty for
        /// any other program).
        magic_preds: &'a [PredId],
    },
    /// Seeded semi-naive restart from `stratum` on: the relations hold
    /// a completed fixpoint plus new rows, and every row of `p` past
    /// `base_lens[p.index()]` is new. The grouping pass and the full
    /// round 0 are skipped; each stratum's delta windows open on every
    /// row past the base of the predicates it reads (everything the
    /// restart has added so far, lower-stratum derivations included)
    /// and are empty for all others, and the semi-naive loop drains
    /// them to the new fixpoint. Sound only for monotone rules: the
    /// engine falls back to a batch run when negation or grouping sits
    /// at or above the restart stratum. Driven both by `Engine::update`
    /// (E12) and by the retained demand spaces, whose magic-rewritten
    /// programs are monotone by construction (E14).
    Seeded {
        /// The lowest stratum to re-run.
        stratum: usize,
        /// Interned-set count at the last completed materialization,
        /// so universe-enumerating rules re-fire when the update
        /// interned new sets.
        sets_baseline: usize,
        /// Per-predicate relation length at the last completed
        /// fixpoint (0 past the end).
        base_lens: &'a [u32],
    },
}

/// Run `program` over `full` from `from` to its least fixpoint: the one
/// stratum driver behind batch runs, incremental updates, demand plans
/// (cold and warm) and conjunctive goals over a model. Satisfies the
/// program's index requests first. `profiler` (when `config.profile`
/// runs a query) receives per-literal probe attribution. No row is
/// copied: a round's delta is a [`RowWindow`] of the full relation.
pub(crate) fn run_strata(
    store: &mut TermStore,
    full: &mut [Relation],
    config: &EvalConfig,
    program: &CompiledProgram,
    from: Start<'_>,
    profiler: Option<&StepProfiler>,
) -> Result<EvalStats, EngineError> {
    let mut stats = EvalStats::default();
    for &(p, m) in &program.index_requests {
        full[p.index()].ensure_index(m);
    }
    let first = match from {
        Start::Batch { magic_preds } => {
            for &i in &program.fact_rules {
                let rule = &program.compiled[i].rule;
                let tuple: Vec<TermId> = rule
                    .head_args
                    .iter()
                    .map(|p| match p {
                        Pattern::Ground(id) => *id,
                        _ => unreachable!("is_fact guarantees a ground head"),
                    })
                    .collect();
                if full[rule.head.index()].insert(&tuple) {
                    stats.facts_derived += 1;
                    if magic_preds.contains(&rule.head) {
                        stats.magic_facts_seeded += 1;
                    }
                }
            }
            0
        }
        Start::Seeded { stratum, .. } => stratum,
    };
    let mut delta = vec![RowWindow::default(); full.len()];
    for s in first..program.strat.num_strata {
        if let Start::Seeded { base_lens, .. } = from {
            for (w, rel) in delta.iter_mut().zip(full.iter()) {
                *w = RowWindow::empty_at(rel.len());
            }
            for &p in program.strat.reads(s) {
                let w = &mut delta[p.index()];
                w.lo = base_lens.get(p.index()).map_or(0, |&b| b.min(w.hi));
            }
        }
        stats.absorb(run_stratum(
            store,
            full,
            &mut delta,
            &program.regular(s),
            &program.grouping(s),
            config,
            from,
            profiler,
        )?);
    }
    Ok(stats)
}

/// Run one stratum to fixpoint. `regular` are ordinary rules whose
/// heads live in this stratum; `grouping` are LDL grouping rules
/// (evaluated once, first — their bodies are complete lower strata;
/// must be empty for a [`Start::Seeded`] run). `delta` holds one
/// window per relation: a batch run resets it, a seeded run reads the
/// windows [`run_strata`] opened.
#[allow(clippy::too_many_arguments)]
fn run_stratum(
    store: &mut TermStore,
    full: &mut [Relation],
    delta: &mut [RowWindow],
    regular: &[&CompiledRule],
    grouping: &[&CompiledRule],
    config: &EvalConfig,
    start: Start<'_>,
    profiler: Option<&StepProfiler>,
) -> Result<EvalStats, EngineError> {
    let batch = matches!(start, Start::Batch { .. });
    let _stratum_span = config.trace.then(|| {
        lps_trace::span("stratum")
            .arg("rules", regular.len())
            .arg("grouping", grouping.len())
            .arg("start", if batch { "batch" } else { "seeded" })
    });
    let mut stats = EvalStats {
        strata: 1,
        ..EvalStats::default()
    };
    let scratch = Scratch {
        counters: ProbeCounters::default(),
        cands: RefCell::new(Vec::with_capacity(MAX_ARITY)),
        profiler,
    };

    // Grouping rules first (Definition 14): body strata are final.
    debug_assert!(
        grouping.is_empty() || batch,
        "seeded continuations never re-run grouping rules"
    );
    debug_assert_eq!(delta.len(), full.len(), "one delta window per relation");
    let mut derived = DerivedBuf::default();
    for cr in grouping {
        derived.clear();
        eval_grouping(cr, store, full, delta, config, &scratch, &mut derived)?;
        stats.rule_evaluations += 1;
        stats.tuples_considered += derived.len();
        for (pred, tuple) in derived.iter() {
            if full[pred.index()].insert(tuple) {
                stats.facts_derived += 1;
            }
        }
    }
    if batch {
        // Nothing is new yet: every window is empty, at the end.
        for (w, rel) in delta.iter_mut().zip(full.iter()) {
            *w = RowWindow::empty_at(rel.len());
        }
    }

    match config.strategy {
        FixpointStrategy::Naive => {
            // The naive driver re-applies every rule to the full
            // relations until quiescent, so a seeded continuation needs
            // no delta plumbing: resuming from the retained model is
            // already its semantics (`T_P` is monotone on this path).
            naive(store, full, delta, regular, config, &scratch, &mut stats)?
        }
        FixpointStrategy::SemiNaive => seminaive(
            store, full, delta, regular, config, start, &scratch, &mut stats,
        )?,
    }
    debug_assert!(
        scratch.cands.borrow().is_empty(),
        "builtin steps truncate back"
    );
    stats.index_probes = scratch.counters.probes.get() as usize;
    stats.probe_rows = scratch.counters.rows.get() as usize;
    stats.probe_allocs = scratch.counters.allocs.get() as usize;
    Ok(stats)
}

#[allow(clippy::too_many_arguments)]
fn collect_variant(
    cr: &CompiledRule,
    variant_idx: usize,
    store: &mut TermStore,
    full: &[Relation],
    delta: &[RowWindow],
    config: &EvalConfig,
    trigger: Option<&QuantTrigger<'_>>,
    scratch: &Scratch<'_>,
    out: &mut DerivedBuf,
) -> Result<(), EngineError> {
    let views = scratch.views(full, delta, cr);
    let rule = &cr.rule;
    eval_rule_variant(
        rule,
        &cr.variants[variant_idx],
        cr.quant_plan.as_ref(),
        store,
        &views,
        config.set_universe,
        trigger,
        &mut |store, env| {
            let start = out.begin();
            for arg in &rule.head_args {
                let id = arg
                    .build(store, env)
                    .expect("planner guarantees head vars are bound");
                out.pool.push(id);
            }
            out.commit(rule.head, start);
            Ok(())
        },
    )
}

/// Evaluate one grouping rule: join the body, then collect the set of
/// grouping-variable values per binding of the remaining head
/// arguments (Definition 14).
#[allow(clippy::too_many_arguments)]
fn eval_grouping(
    cr: &CompiledRule,
    store: &mut TermStore,
    full: &[Relation],
    delta: &[RowWindow],
    config: &EvalConfig,
    scratch: &Scratch<'_>,
    out: &mut DerivedBuf,
) -> Result<(), EngineError> {
    let rule = &cr.rule;
    let group = rule.group.as_ref().expect("grouping rule");
    let views = scratch.views(full, delta, cr);
    // key (non-group head args) → collected group values.
    let mut groups: lps_term::FxHashMap<Vec<TermId>, Vec<TermId>> = lps_term::FxHashMap::default();
    eval_rule_variant(
        rule,
        &cr.variants[0],
        cr.quant_plan.as_ref(),
        store,
        &views,
        config.set_universe,
        None,
        &mut |store, env| {
            let mut key = Vec::with_capacity(rule.head_args.len() - 1);
            for (pos, arg) in rule.head_args.iter().enumerate() {
                if pos == group.arg_pos {
                    continue;
                }
                key.push(
                    arg.build(store, env)
                        .expect("planner guarantees head vars are bound"),
                );
            }
            let val = env.get(group.var).expect("grouping var bound");
            groups.entry(key).or_default().push(val);
            Ok(())
        },
    )?;

    for (key, vals) in groups {
        let set = store.set(vals);
        let start = out.begin();
        let mut key_iter = key.into_iter();
        for pos in 0..rule.head_args.len() {
            if pos == group.arg_pos {
                out.pool.push(set);
            } else {
                out.pool.push(key_iter.next().expect("key arity"));
            }
        }
        out.commit(rule.head, start);
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn naive(
    store: &mut TermStore,
    full: &mut [Relation],
    delta: &[RowWindow],
    regular: &[&CompiledRule],
    config: &EvalConfig,
    scratch: &Scratch<'_>,
    stats: &mut EvalStats,
) -> Result<(), EngineError> {
    // One derivation buffer for the whole fixpoint, cleared per round.
    let mut derived = DerivedBuf::default();
    loop {
        if stats.iterations >= config.max_iterations {
            return Err(EngineError::IterationLimit {
                limit: config.max_iterations,
            });
        }
        let _round_span = config
            .trace
            .then(|| lps_trace::span("round").arg("round", stats.iterations));
        let sets_at_round_start = store.set_ids().len();
        derived.clear();
        for cr in regular {
            collect_variant(
                cr,
                0,
                store,
                full,
                delta,
                config,
                None,
                scratch,
                &mut derived,
            )?;
            stats.rule_evaluations += 1;
        }
        stats.iterations += 1;
        stats.tuples_considered += derived.len();
        let mut changed = false;
        for (pred, tuple) in derived.iter() {
            if full[pred.index()].insert(tuple) {
                stats.facts_derived += 1;
                changed = true;
            }
        }
        // Rules that enumerate the active set universe may fire on sets
        // interned during this round even when no fact was new yet.
        let universe_grew = store.set_ids().len() > sets_at_round_start;
        if !changed && !universe_grew {
            return Ok(());
        }
    }
}

/// A binder variable is *trigger-safe* when it appears as a top-level
/// argument of some positive inner literal: new inner tuples then carry
/// the element values directly, so the inverted index gives a sound
/// candidate-set restriction.
fn quant_trigger_safe(cr: &CompiledRule) -> bool {
    let Some(group) = &cr.rule.quant else {
        return false;
    };
    group.binders.iter().all(|(qvar, _)| {
        group.inner.iter().any(|lit| match lit {
            BodyLit::Pos(_, args) => args
                .iter()
                .any(|a| matches!(a, Pattern::Var(v) if v == qvar)),
            _ => false,
        })
    })
}

#[allow(clippy::too_many_arguments)]
fn seminaive(
    store: &mut TermStore,
    full: &mut [Relation],
    delta: &mut [RowWindow],
    regular: &[&CompiledRule],
    config: &EvalConfig,
    start: Start<'_>,
    scratch: &Scratch<'_>,
    stats: &mut EvalStats,
) -> Result<(), EngineError> {
    // Round-persistent buffers: the derivation buffer and the
    // ∀-trigger candidate set are cleared per round, not reallocated.
    let mut derived = DerivedBuf::default();
    let mut candidate_sets: FxHashSet<TermId> = FxHashSet::default();
    // Only a quantified rule reads the candidate sets; a stratum with
    // none (every transitive-closure stratum) skips the per-round scan.
    let collect_candidates =
        config.forall_trigger_index && regular.iter().any(|cr| !cr.inner_preds.is_empty());

    let mut sets_seen = match start {
        Start::Batch { .. } => {
            // Round 0: all rules, full relations.
            let _round_span = config
                .trace
                .then(|| lps_trace::span("round").arg("round", 0));
            let sets_seen = store.set_ids().len();
            for cr in regular {
                collect_variant(
                    cr,
                    0,
                    store,
                    full,
                    delta,
                    config,
                    None,
                    scratch,
                    &mut derived,
                )?;
                stats.rule_evaluations += 1;
            }
            stats.iterations += 1;
            stats.tuples_considered += derived.len();
            for (pred, tuple) in derived.iter() {
                if full[pred.index()].insert(tuple) {
                    stats.facts_derived += 1;
                }
            }
            advance_windows(delta, full);
            sets_seen
        }
        // Seeded continuation: the caller's windows cover the newly
        // inserted facts; go straight to the delta rounds. The
        // universe baseline is the set count at the last completed
        // materialization, so growth since then re-triggers
        // universe-enumerating rules.
        Start::Seeded { sets_baseline, .. } => sets_baseline,
    };

    loop {
        let universe_grew = store.set_ids().len() > sets_seen;
        sets_seen = store.set_ids().len();
        if delta.iter().all(|w| w.is_empty()) && !universe_grew {
            return Ok(());
        }
        if stats.iterations >= config.max_iterations {
            return Err(EngineError::IterationLimit {
                limit: config.max_iterations,
            });
        }
        let _round_span = config
            .trace
            .then(|| lps_trace::span("round").arg("round", stats.iterations));

        // Candidate sets for the ∀-trigger: sets containing any newly
        // derived component.
        candidate_sets.clear();
        if collect_candidates {
            for (w, rel) in delta.iter().zip(full.iter()) {
                for row in w.lo..w.hi {
                    for &component in rel.row(row) {
                        candidate_sets.extend(store.sets_containing(component));
                        // A newly derived set value can also *be* a
                        // domain (e.g. the domain variable is an
                        // argument of the inner literal).
                        if store.is_set(component) {
                            candidate_sets.insert(component);
                        }
                    }
                }
            }
        }

        derived.clear();
        round_passes(
            regular,
            universe_grew,
            store,
            full,
            delta,
            config,
            &candidate_sets,
            scratch,
            &mut derived,
            stats,
        )?;
        stats.iterations += 1;
        stats.tuples_considered += derived.len();
        let mut changed = false;
        for (pred, tuple) in derived.iter() {
            if full[pred.index()].insert(tuple) {
                stats.facts_derived += 1;
                changed = true;
            }
        }
        advance_windows(delta, full);
        // No new facts: done — unless this round interned new sets, in
        // which case the top-of-loop universe trigger must get a look
        // (the naive driver already rechecks growth before exiting).
        if !changed && store.set_ids().len() <= sets_seen {
            return Ok(());
        }
    }
}

/// One round's rule passes: the universe-growth pass, the delta
/// variants and the quantifier-trigger pass.
#[allow(clippy::too_many_arguments)]
fn round_passes(
    regular: &[&CompiledRule],
    universe_grew: bool,
    store: &mut TermStore,
    full: &[Relation],
    delta: &[RowWindow],
    config: &EvalConfig,
    candidate_sets: &FxHashSet<TermId>,
    scratch: &Scratch<'_>,
    derived: &mut DerivedBuf,
    stats: &mut EvalStats,
) -> Result<(), EngineError> {
    for cr in regular {
        // Universe-growth trigger: rules that enumerate the active
        // set universe must re-run against the enlarged universe.
        if universe_grew && cr.uses_active_universe {
            collect_variant(cr, 0, store, full, delta, config, None, scratch, derived)?;
            stats.rule_evaluations += 1;
        }
        // Delta variants: re-join from each recursive literal.
        for (vi, variant) in cr.variants.iter().enumerate().skip(1) {
            let dlit = variant.delta_lit.expect("non-full variants have a delta");
            let BodyLit::Pos(p, _) = &cr.rule.outer[dlit] else {
                unreachable!("delta literal is positive");
            };
            if delta[p.index()].is_empty() {
                continue;
            }
            collect_variant(cr, vi, store, full, delta, config, None, scratch, derived)?;
            stats.rule_evaluations += 1;
        }
        // Quantifier trigger: inner predicates grew.
        if !cr.inner_preds.is_empty() && cr.inner_preds.iter().any(|p| !delta[p.index()].is_empty())
        {
            let trig = QuantTrigger { candidate_sets };
            let trigger = if config.forall_trigger_index && quant_trigger_safe(cr) {
                Some(&trig)
            } else {
                None
            };
            collect_variant(cr, 0, store, full, delta, config, trigger, scratch, derived)?;
            stats.rule_evaluations += 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use lps_term::TermId;

    use crate::config::{EvalConfig, FixpointStrategy};
    use crate::pattern::{Pattern, VarId};
    use crate::rule::{BodyLit, Builtin, GroupSpec, QuantGroup, Rule};
    use crate::session::tests::{plain_rule, v};
    use crate::session::Engine;

    #[test]
    fn naive_and_seminaive_agree() {
        let build = |strategy| {
            let mut e = Engine::new(EvalConfig {
                strategy,
                ..EvalConfig::default()
            });
            let edge = e.pred("edge", 2);
            let path = e.pred("path", 2);
            let ids: Vec<TermId> = (0..6)
                .map(|i| e.store_mut().atom(&format!("n{i}")))
                .collect();
            for i in 0..5 {
                e.fact(edge, vec![ids[i], ids[i + 1]]).unwrap();
            }
            e.fact(edge, vec![ids[5], ids[0]]).unwrap(); // cycle
            e.rule(plain_rule(
                path,
                vec![v(0), v(1)],
                vec![BodyLit::Pos(edge, vec![v(0), v(1)])],
                2,
            ))
            .unwrap();
            e.rule(plain_rule(
                path,
                vec![v(0), v(2)],
                vec![
                    BodyLit::Pos(edge, vec![v(0), v(1)]),
                    BodyLit::Pos(path, vec![v(1), v(2)]),
                ],
                3,
            ))
            .unwrap();
            e.run().unwrap();
            e.extension(path)
        };
        let naive = build(FixpointStrategy::Naive);
        let semi = build(FixpointStrategy::SemiNaive);
        assert_eq!(naive, semi);
        assert_eq!(naive.len(), 36, "complete digraph on the 6-cycle");
    }

    /// A delta literal with a ground column probes the full relation's
    /// index narrowed to last round's window: each round must see only
    /// the one row the previous round added.
    #[test]
    fn windowed_delta_probe_sees_only_last_round() {
        let build = |strategy| {
            let mut e = Engine::new(EvalConfig {
                strategy,
                ..EvalConfig::default()
            });
            let edge = e.pred("edge", 2);
            let reach = e.pred("reach", 2);
            let ids: Vec<TermId> = (0..6)
                .map(|i| e.store_mut().atom(&format!("n{i}")))
                .collect();
            for i in 0..5 {
                e.fact(edge, vec![ids[i], ids[i + 1]]).unwrap();
            }
            let src = Pattern::Ground(ids[0]);
            // reach(n0, Y) :- edge(n0, Y).
            e.rule(plain_rule(
                reach,
                vec![src.clone(), v(0)],
                vec![BodyLit::Pos(edge, vec![src.clone(), v(0)])],
                1,
            ))
            .unwrap();
            // reach(n0, Z) :- reach(n0, Y), edge(Y, Z).
            e.rule(plain_rule(
                reach,
                vec![src.clone(), v(1)],
                vec![
                    BodyLit::Pos(reach, vec![src, v(0)]),
                    BodyLit::Pos(edge, vec![v(0), v(1)]),
                ],
                2,
            ))
            .unwrap();
            let stats = e.run().unwrap();
            (e.extension(reach), stats.tuples_considered)
        };
        let (naive, _) = build(FixpointStrategy::Naive);
        let (semi, considered) = build(FixpointStrategy::SemiNaive);
        assert_eq!(naive, semi);
        assert_eq!(semi.len(), 5);
        assert_eq!(considered, 5, "one candidate per new fact, none re-derived");
    }

    #[test]
    fn example_1_disj_via_quantifiers() {
        // disj(X, Y) :- pair(X, Y), (∀u∈X)(∀w∈Y) u != w.
        let mut e = Engine::new(EvalConfig::default());
        let pair = e.pred("pair", 2);
        let disj = e.pred("disj", 2);
        let st = e.store_mut();
        let a = st.atom("a");
        let b = st.atom("b");
        let c = st.atom("c");
        let s_ab = st.set(vec![a, b]);
        let s_c = st.set(vec![c]);
        let s_bc = st.set(vec![b, c]);
        let s_empty = st.empty_set();
        e.fact(pair, vec![s_ab, s_c]).unwrap();
        e.fact(pair, vec![s_ab, s_bc]).unwrap();
        e.fact(pair, vec![s_empty, s_bc]).unwrap();
        e.rule(Rule {
            head: disj,
            head_args: vec![v(0), v(1)],
            group: None,
            outer: vec![BodyLit::Pos(pair, vec![v(0), v(1)])],
            quant: Some(QuantGroup {
                binders: vec![(VarId(2), v(0)), (VarId(3), v(1))],
                inner: vec![BodyLit::Builtin(Builtin::Ne, vec![v(2), v(3)])],
            }),
            num_vars: 4,
            var_names: vec!["X".into(), "Y".into(), "U".into(), "W".into()],
            var_sorts: vec![],
        })
        .unwrap();
        e.run().unwrap();
        assert!(e.holds(disj, &[s_ab, s_c]));
        assert!(!e.holds(disj, &[s_ab, s_bc]), "{{a,b}} ∩ {{b,c}} ≠ ∅");
        assert!(e.holds(disj, &[s_empty, s_bc]), "∅ is disjoint from all");
    }

    #[test]
    fn example_4_unnest() {
        // s(X, Y) :- r(X, Ys), Y in Ys.
        let mut e = Engine::new(EvalConfig::default());
        let r = e.pred("r", 2);
        let s = e.pred("s", 2);
        let st = e.store_mut();
        let x1 = st.atom("x1");
        let p = st.atom("p");
        let q = st.atom("q");
        let set_pq = st.set(vec![p, q]);
        e.fact(r, vec![x1, set_pq]).unwrap();
        e.rule(Rule {
            head: s,
            head_args: vec![v(0), v(2)],
            group: None,
            outer: vec![
                BodyLit::Pos(r, vec![v(0), v(1)]),
                BodyLit::Builtin(Builtin::In, vec![v(2), v(1)]),
            ],
            quant: None,
            num_vars: 3,
            var_names: vec!["X".into(), "Ys".into(), "Y".into()],
            var_sorts: vec![],
        })
        .unwrap();
        e.run().unwrap();
        assert!(e.holds(s, &[x1, p]));
        assert!(e.holds(s, &[x1, q]));
        assert_eq!(e.rows(s).count(), 2);
    }

    #[test]
    fn stratified_negation() {
        // unreachable(X) :- node(X), not reach(X).
        let mut e = Engine::new(EvalConfig::default());
        let node = e.pred("node", 1);
        let edge = e.pred("edge", 2);
        let reach = e.pred("reach", 1);
        let unreach = e.pred("unreachable", 1);
        let ids: Vec<TermId> = (0..4)
            .map(|i| e.store_mut().atom(&format!("n{i}")))
            .collect();
        for &n in &ids {
            e.fact(node, vec![n]).unwrap();
        }
        e.fact(edge, vec![ids[0], ids[1]]).unwrap();
        e.fact(reach, vec![ids[0]]).unwrap();
        e.rule(plain_rule(
            reach,
            vec![v(1)],
            vec![
                BodyLit::Pos(reach, vec![v(0)]),
                BodyLit::Pos(edge, vec![v(0), v(1)]),
            ],
            2,
        ))
        .unwrap();
        e.rule(plain_rule(
            unreach,
            vec![v(0)],
            vec![
                BodyLit::Pos(node, vec![v(0)]),
                BodyLit::Neg(reach, vec![v(0)]),
            ],
            1,
        ))
        .unwrap();
        e.run().unwrap();
        assert!(!e.holds(unreach, &[ids[0]]));
        assert!(!e.holds(unreach, &[ids[1]]));
        assert!(e.holds(unreach, &[ids[2]]));
        assert!(e.holds(unreach, &[ids[3]]));
    }

    #[test]
    fn ldl_grouping_head() {
        // owns(P, <C>) :- car(P, C).
        let mut e = Engine::new(EvalConfig::default());
        let car = e.pred("car", 2);
        let owns = e.pred("owns", 2);
        let st = e.store_mut();
        let alice = st.atom("alice");
        let bob = st.atom("bob");
        let c1 = st.atom("c1");
        let c2 = st.atom("c2");
        let c3 = st.atom("c3");
        e.fact(car, vec![alice, c1]).unwrap();
        e.fact(car, vec![alice, c2]).unwrap();
        e.fact(car, vec![bob, c3]).unwrap();
        e.rule(Rule {
            head: owns,
            head_args: vec![v(0), v(1)],
            group: Some(GroupSpec {
                arg_pos: 1,
                var: VarId(1),
            }),
            outer: vec![BodyLit::Pos(car, vec![v(0), v(1)])],
            quant: None,
            num_vars: 2,
            var_names: vec!["P".into(), "C".into()],
            var_sorts: vec![],
        })
        .unwrap();
        e.run().unwrap();
        let set_alice = e.store_mut().set(vec![c1, c2]);
        let set_bob = e.store_mut().set(vec![c3]);
        assert!(e.holds(owns, &[alice, set_alice]));
        assert!(e.holds(owns, &[bob, set_bob]));
        assert_eq!(e.rows(owns).count(), 2);
    }

    #[test]
    fn example_5_sum_via_disjoint_union() {
        // sum({}, 0).
        // sum(X, N) :- num_set(X), X = {N}.
        // sum(Z, K) :- num_set(Z), disj_union(X, Y, Z), X != {},
        //              Y != {}, sum(X, M), sum(Y, N), add(M, N, K).
        // (num_set bounds the recursion to subsets that occur; here we
        //  drive it with every subset decomposition instead, exactly as
        //  the paper's recursion does, seeded by sum({n}, n).)
        let mut e = Engine::new(EvalConfig::default());
        let num_set = e.pred("num_set", 1);
        let sum = e.pred("sum", 2);
        let st = e.store_mut();
        let nums: Vec<TermId> = [3i64, 5, 9].iter().map(|&n| st.int(n)).collect();
        let zero = st.int(0);
        let whole = st.set(nums.clone());
        let empty = st.empty_set();
        e.fact(num_set, vec![whole]).unwrap();
        // Close num_set under disjoint decomposition so the recursion
        // has its subsets available.
        e.rule(Rule {
            head: num_set,
            head_args: vec![v(1)],
            group: None,
            outer: vec![
                BodyLit::Pos(num_set, vec![v(0)]),
                BodyLit::Builtin(Builtin::DisjUnion, vec![v(1), v(2), v(0)]),
            ],
            quant: None,
            num_vars: 3,
            var_names: vec!["Z".into(), "X".into(), "Y".into()],
            var_sorts: vec![],
        })
        .unwrap();
        // sum({}, 0).
        e.rule(Rule {
            head: sum,
            head_args: vec![Pattern::Ground(empty), Pattern::Ground(zero)],
            group: None,
            outer: vec![],
            quant: None,
            num_vars: 0,
            var_names: vec![],
            var_sorts: vec![],
        })
        .unwrap();
        // sum(X, N) :- num_set(X), X = {N}.
        e.rule(Rule {
            head: sum,
            head_args: vec![v(0), v(1)],
            group: None,
            outer: vec![
                BodyLit::Pos(num_set, vec![v(0)]),
                BodyLit::Builtin(Builtin::Eq, vec![v(0), Pattern::Set(Box::new([v(1)]))]),
            ],
            quant: None,
            num_vars: 2,
            var_names: vec!["X".into(), "N".into()],
            var_sorts: vec![],
        })
        .unwrap();
        // The recursive clause.
        e.rule(Rule {
            head: sum,
            head_args: vec![v(0), v(6)],
            group: None,
            outer: vec![
                BodyLit::Pos(num_set, vec![v(0)]),
                BodyLit::Builtin(Builtin::DisjUnion, vec![v(1), v(2), v(0)]),
                BodyLit::Pos(sum, vec![v(1), v(4)]),
                BodyLit::Pos(sum, vec![v(2), v(5)]),
                BodyLit::Builtin(Builtin::Add, vec![v(4), v(5), v(6)]),
            ],
            quant: None,
            num_vars: 7,
            var_names: (0..7).map(|i| format!("V{i}")).collect(),
            var_sorts: vec![],
        })
        .unwrap();
        e.run().unwrap();
        let seventeen = e.store_mut().int(17);
        assert!(e.holds(sum, &[whole, seventeen]));
        // Sums are functional: one value per set.
        let whole_sums: Vec<_> = e
            .rows(sum)
            .filter(|t| t[0] == whole)
            .map(|t| t[1])
            .collect();
        assert_eq!(whole_sums, vec![seventeen]);
    }
}
