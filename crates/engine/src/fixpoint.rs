//! Fixpoint drivers: naive and semi-naive evaluation of one stratum.
//!
//! The naive driver is the literal `T_P ↑ ω` of Theorem 5: every rule
//! is applied to the full relations each round until nothing new is
//! derived. The semi-naive driver runs delta variants (each rule
//! re-joined from last round's new tuples) plus a *quantifier trigger*
//! pass: a rule whose `(∀x∈X)` group reads recursive predicates is
//! re-evaluated when those predicates grow, restricted — when the
//! element→set inverted index applies — to domain sets containing a
//! newly derived element (experiment E9).

use lps_term::{FxHashSet, TermId, TermStore};

use crate::config::{EvalConfig, EvalStats, FixpointStrategy};
use crate::error::EngineError;
use crate::eval::{eval_rule_variant, ProbeCounters, QuantTrigger, RelViews, StepProfiler};
use crate::pattern::Pattern;
use crate::plan::CompiledRule;
use crate::pred::PredId;
use crate::relation::Relation;
use crate::rule::BodyLit;

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

/// How a stratum run starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StratumStart {
    /// Batch evaluation: grouping rules run first, then the fixpoint
    /// opens with a full round over the complete relations.
    Batch,
    /// Incremental continuation: the full relations already hold a
    /// completed fixpoint plus newly inserted facts, and the delta
    /// relations are pre-seeded with exactly those new tuples. The
    /// grouping pass and the full round 0 are skipped; the semi-naive
    /// driver drains the seeded deltas to the new fixpoint. Sound only
    /// for monotone rules — the engine falls back to a batch run when
    /// negation or grouping sits at or above the restart stratum.
    /// Driven both by `Engine::update` (E12) and by the retained
    /// demand spaces, whose magic-rewritten programs are monotone by
    /// construction (E14).
    Seeded {
        /// Interned-set count at the last completed materialization,
        /// so universe-enumerating rules re-fire when the update
        /// interned new sets.
        sets_baseline: usize,
    },
}

/// Run one stratum to fixpoint. `regular` are ordinary rules whose
/// heads live in this stratum; `grouping` are LDL grouping rules
/// (evaluated once, first — their bodies are complete lower strata;
/// must be empty for a [`StratumStart::Seeded`] run). `profiler`
/// (when `config.profile` runs a query) receives per-literal probe
/// attribution.
#[allow(clippy::too_many_arguments)]
pub fn run_stratum(
    store: &mut TermStore,
    full: &mut [Relation],
    delta: &mut [Relation],
    regular: &[&CompiledRule],
    grouping: &[&CompiledRule],
    config: &EvalConfig,
    start: StratumStart,
    profiler: Option<&StepProfiler>,
) -> Result<EvalStats, EngineError> {
    let _stratum_span = config.trace.then(|| {
        lps_trace::span("stratum")
            .arg("rules", regular.len())
            .arg("grouping", grouping.len())
            .arg(
                "start",
                match start {
                    StratumStart::Batch => "batch",
                    StratumStart::Seeded { .. } => "seeded",
                },
            )
    });
    let mut stats = EvalStats {
        strata: 1,
        ..EvalStats::default()
    };
    let counters = ProbeCounters::default();

    // Grouping rules first (Definition 14): body strata are final.
    debug_assert!(
        grouping.is_empty() || start == StratumStart::Batch,
        "seeded continuations never re-run grouping rules"
    );
    let mut derived = DerivedBuf::default();
    for cr in grouping {
        derived.clear();
        eval_grouping(
            cr,
            store,
            full,
            delta,
            config,
            &counters,
            profiler,
            &mut derived,
        )?;
        stats.rule_evaluations += 1;
        stats.tuples_considered += derived.len();
        for (pred, tuple) in derived.iter() {
            if full[pred.index()].insert(tuple) {
                stats.facts_derived += 1;
            }
        }
    }

    match config.strategy {
        FixpointStrategy::Naive => {
            // The naive driver re-applies every rule to the full
            // relations until quiescent, so a seeded continuation needs
            // no delta plumbing: resuming from the retained model is
            // already its semantics (`T_P` is monotone on this path).
            naive(
                store, full, delta, regular, config, &counters, profiler, &mut stats,
            )?
        }
        FixpointStrategy::SemiNaive => seminaive(
            store, full, delta, regular, config, start, &counters, profiler, &mut stats,
        )?,
    }
    stats.index_probes = counters.probes.get() as usize;
    stats.probe_rows = counters.rows.get() as usize;
    stats.probe_allocs = counters.allocs.get() as usize;
    Ok(stats)
}

#[allow(clippy::too_many_arguments)]
fn collect_variant(
    cr: &CompiledRule,
    variant_idx: usize,
    store: &mut TermStore,
    full: &[Relation],
    delta: &[Relation],
    config: &EvalConfig,
    trigger: Option<&QuantTrigger<'_>>,
    counters: &ProbeCounters,
    profiler: Option<&StepProfiler>,
    out: &mut DerivedBuf,
) -> Result<(), EngineError> {
    let views = RelViews {
        full,
        delta,
        counters,
        profile: profiler.map(|p| (p, cr.id)),
    };
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
    delta: &[Relation],
    config: &EvalConfig,
    counters: &ProbeCounters,
    profiler: Option<&StepProfiler>,
    out: &mut DerivedBuf,
) -> Result<(), EngineError> {
    let rule = &cr.rule;
    let group = rule.group.as_ref().expect("grouping rule");
    let views = RelViews {
        full,
        delta,
        counters,
        profile: profiler.map(|p| (p, cr.id)),
    };
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
    delta: &mut [Relation],
    regular: &[&CompiledRule],
    config: &EvalConfig,
    counters: &ProbeCounters,
    profiler: Option<&StepProfiler>,
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
                counters,
                profiler,
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
    delta: &mut [Relation],
    regular: &[&CompiledRule],
    config: &EvalConfig,
    start: StratumStart,
    counters: &ProbeCounters,
    profiler: Option<&StepProfiler>,
    stats: &mut EvalStats,
) -> Result<(), EngineError> {
    // Round-persistent buffers: the derivation buffer and the
    // ∀-trigger candidate set are cleared per round, not reallocated.
    let mut derived = DerivedBuf::default();
    let mut candidate_sets: FxHashSet<TermId> = FxHashSet::default();

    let mut sets_seen = match start {
        StratumStart::Batch => {
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
                    counters,
                    profiler,
                    &mut derived,
                )?;
                stats.rule_evaluations += 1;
            }
            stats.iterations += 1;
            stats.tuples_considered += derived.len();
            for d in delta.iter_mut() {
                d.clear();
            }
            for (pred, tuple) in derived.iter() {
                if full[pred.index()].insert(tuple) {
                    stats.facts_derived += 1;
                    delta[pred.index()].insert(tuple);
                }
            }
            sets_seen
        }
        // Seeded continuation: the caller pre-filled the deltas with the
        // newly inserted facts; go straight to the delta rounds. The
        // universe baseline is the set count at the last completed
        // materialization, so growth since then re-triggers
        // universe-enumerating rules.
        StratumStart::Seeded { sets_baseline } => sets_baseline,
    };

    loop {
        let universe_grew = store.set_ids().len() > sets_seen;
        sets_seen = store.set_ids().len();
        if delta.iter().all(Relation::is_empty) && !universe_grew {
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
        if config.forall_trigger_index {
            for d in delta.iter() {
                for tuple in d.iter() {
                    for &component in tuple {
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
            counters,
            profiler,
            &mut derived,
            stats,
        )?;
        stats.iterations += 1;
        stats.tuples_considered += derived.len();
        for d in delta.iter_mut() {
            d.clear();
        }
        let mut changed = false;
        for (pred, tuple) in derived.iter() {
            if full[pred.index()].insert(tuple) {
                stats.facts_derived += 1;
                delta[pred.index()].insert(tuple);
                changed = true;
            }
        }
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
    delta: &[Relation],
    config: &EvalConfig,
    candidate_sets: &FxHashSet<TermId>,
    counters: &ProbeCounters,
    profiler: Option<&StepProfiler>,
    derived: &mut DerivedBuf,
    stats: &mut EvalStats,
) -> Result<(), EngineError> {
    for cr in regular {
        // Universe-growth trigger: rules that enumerate the active
        // set universe must re-run against the enlarged universe.
        if universe_grew && cr.uses_active_universe {
            collect_variant(
                cr, 0, store, full, delta, config, None, counters, profiler, derived,
            )?;
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
            collect_variant(
                cr, vi, store, full, delta, config, None, counters, profiler, derived,
            )?;
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
            collect_variant(
                cr, 0, store, full, delta, config, trigger, counters, profiler, derived,
            )?;
            stats.rule_evaluations += 1;
        }
    }
    Ok(())
}
