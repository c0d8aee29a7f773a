//! The demand lifecycle of an [`Engine`] session: compile, drive,
//! continue and evict the magic-set plans behind its queries.
//!
//! A session's model stays maintainable; demand-driven queries get the
//! same treatment. Point queries
//! ([`Engine::query`]) and conjunctive goals ([`Engine::query_rule`])
//! are two front doors to one demand core: a cached magic-set plan per
//! `(predicate, adornment)` — conjunctive goals keyed by their shape
//! ([`crate::magic::lift_goal`]), constants arriving as magic seeds.
//! Each plan keeps its adorned/magic relations *retained* across
//! queries (until [`Engine::clear_demand_spaces`] drops them), so a
//! repeated query is a pure read, a new constant seeds one magic fact
//! and continues semi-naive from the retained fixpoint, and newly
//! arrived EDB facts drive the same continuation — repeated queries
//! cost O(new demand), not O(reach). The plan cache itself is LRU-
//! bounded ([`demand_plan_cache`](crate::EvalConfig::demand_plan_cache));
//! evicting a plan reclaims its relation slots.

use lps_term::TermId;

use crate::config::EvalStats;
use crate::error::EngineError;
use crate::eval::StepProfiler;
use crate::fixpoint::{run_strata, Start};
use crate::magic::{self, MagicOutcome};
use crate::pred::PredId;
use crate::relation::{ColMask, Relation};
use crate::rule::Rule;
use crate::session::{Engine, EngineState};
use crate::strata::{compile_goal, CompiledProgram};

/// Key of the demand plan cache: the queried predicate (or the
/// dedicated shape predicate of a conjunctive goal) and the bound-
/// position mask.
pub(crate) type PlanKey = (PredId, ColMask);

/// A compiled demand plan: the specialized program for one
/// `(predicate, adornment)` query pattern, together with the state of
/// its *retained* demand space (the adorned/magic relations kept alive
/// across queries).
#[derive(Debug)]
pub(crate) struct QueryPlan {
    pub(crate) program: CompiledProgram,
    /// The magic predicate seeded with the query's bound arguments
    /// (`None` for the all-free adornment).
    magic_seed: Option<PredId>,
    /// The adorned query predicate holding the answers.
    pub(crate) answer: PredId,
    /// Adorned + magic predicates — the relation space a cold run
    /// clears before deriving (and a warm continuation retains).
    space: Vec<PredId>,
    /// The magic subset of `space` (demand-seed statistics).
    magic_preds: Vec<PredId>,
    /// `(pred, adornment)` pairs the rewrite compiled.
    pub(crate) adornments: usize,
    /// Every predicate whose `full` relation the retained fixpoint
    /// depends on: the rewrite's own space plus every original
    /// predicate its rules read (EDB bridges, base literals).
    tracked: Vec<PredId>,
    /// Whether `space` currently holds a completed fixpoint for the
    /// seeds accumulated in the magic relations. Goes false whenever
    /// anything outside a plan-driven run touches those relations — a
    /// batch rebuild, another plan's cold run or eviction clearing a
    /// shared sub-space, a facts reset.
    live: bool,
    /// Per-predicate `full`-relation length at the last completed
    /// fixpoint: rows past it are the next continuation's seed set.
    base_lens: Vec<u32>,
    /// Interned-set count at the last completed fixpoint (baseline for
    /// universe-growth triggers, mirroring the incremental update
    /// path).
    sets_base: usize,
}

impl QueryPlan {
    /// The stratum a warm continuation would restart from: the lowest
    /// one that a tracked relation grown past its baseline (or growth
    /// of the set universe) affects. `None` means the retained
    /// fixpoint is current — a query of a live plan is then a pure
    /// read of the answer relation.
    fn restart_from(&self, full: &[Relation], sets: usize) -> Option<usize> {
        let changed = self
            .tracked
            .iter()
            .copied()
            .filter(|&p| full[p.index()].len() as u32 > self.base_lens[p.index()]);
        self.program.restart_stratum(changed, sets > self.sets_base)
    }
}

/// How a query was answered. See [`Engine::query`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryPath {
    /// Demand-driven evaluation: the magic-set-rewritten program
    /// derived only tuples the query's bindings can reach.
    Demand,
    /// Answered from the maintained materialized model (reconciled
    /// incrementally first if new facts had arrived).
    Materialized,
    /// The demand rewrite was inapplicable: the engine materialized
    /// the session's model and read it, as [`QueryPath::Materialized`]
    /// does. Later queries take that path.
    Fallback,
}

/// Answers of an [`Engine::query`] or [`Engine::query_rule`] call.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// The matching tuples, as one flat owned row set.
    pub rows: RowSet,
    /// Which pipeline produced them.
    pub path: QueryPath,
    /// Work this call performed (zeroed by pure model reads).
    pub stats: EvalStats,
}

/// Owned answer rows of one query, stored flat (arity-strided): one
/// allocation for the whole answer set instead of one `Vec` per row,
/// so reading a thousand-row answer out of a retained demand space
/// costs a memcpy, not a thousand mallocs — the query-path counterpart
/// of the arena-backed [`Relation`] storage.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RowSet {
    arity: usize,
    count: usize,
    flat: Vec<TermId>,
}

impl RowSet {
    /// Empty row set for rows of `arity` columns.
    pub fn new(arity: usize) -> Self {
        RowSet {
            arity,
            count: 0,
            flat: Vec::new(),
        }
    }

    /// Append one row (length must equal the arity; zero-arity rows —
    /// the "yes" answers of ground goals — are counted without
    /// storage).
    pub fn push(&mut self, row: &[TermId]) {
        debug_assert_eq!(row.len(), self.arity);
        self.flat.extend_from_slice(row);
        self.count += 1;
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Columns per row.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Row at `i`.
    pub fn row(&self, i: usize) -> &[TermId] {
        debug_assert!(i < self.count);
        &self.flat[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterate over the rows.
    pub fn iter(&self) -> RowSetIter<'_> {
        RowSetIter { set: self, next: 0 }
    }

    /// The rows as owned per-row vectors (convenient for sorting and
    /// comparing in tests; the flat form is the cheap one).
    pub fn to_vecs(&self) -> Vec<Vec<TermId>> {
        self.iter().map(<[_]>::to_vec).collect()
    }

    /// [`RowSet::to_vecs`], sorted.
    pub fn sorted(&self) -> Vec<Vec<TermId>> {
        let mut rows = self.to_vecs();
        rows.sort();
        rows
    }
}

impl std::ops::Index<usize> for RowSet {
    type Output = [TermId];

    fn index(&self, i: usize) -> &[TermId] {
        self.row(i)
    }
}

impl PartialEq<Vec<Vec<TermId>>> for RowSet {
    fn eq(&self, other: &Vec<Vec<TermId>>) -> bool {
        self.count == other.len() && self.iter().zip(other).all(|(a, b)| a == b.as_slice())
    }
}

impl<'a> IntoIterator for &'a RowSet {
    type Item = &'a [TermId];
    type IntoIter = RowSetIter<'a>;

    fn into_iter(self) -> RowSetIter<'a> {
        self.iter()
    }
}

/// Borrowing row iterator of a [`RowSet`].
#[derive(Clone, Debug)]
pub struct RowSetIter<'a> {
    set: &'a RowSet,
    next: usize,
}

impl<'a> Iterator for RowSetIter<'a> {
    type Item = &'a [TermId];

    fn next(&mut self) -> Option<&'a [TermId]> {
        if self.next < self.set.count {
            let row = self.set.row(self.next);
            self.next += 1;
            Some(row)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.set.count - self.next;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for RowSetIter<'_> {}

impl Engine {
    /// Evict every cached demand plan, reclaiming the memory of their
    /// adorned/magic relations and recycling their registry slots
    /// (recompiling a shape later re-registers it, typically into the
    /// freed slots). Returns the number of plans dropped. Called by
    /// [`Engine::reset_facts`] and on rule changes, and available to
    /// hosts that want to bound a long-lived session explicitly.
    pub fn clear_query_plans(&mut self) -> usize {
        let keys: Vec<PlanKey> = self.query_lru.drain(..).collect();
        let n = keys.len();
        for key in keys {
            self.evict_plan(key);
        }
        debug_assert!(self.query_plans.is_empty(), "every plan is LRU-listed");
        self.query_plans.clear();
        n
    }

    /// Cold mode: clear every cached plan's demand space and mark the
    /// plan not live, keeping the compiled programs cached. The next
    /// query on each plan re-derives its answers from its seed alone —
    /// the per-query cold run that E14 measures retention against
    /// (`:demand cold` in `lpsi` calls this before each query).
    pub fn clear_demand_spaces(&mut self) {
        for plan in self.query_plans.values_mut() {
            for &p in &plan.space {
                self.full[p.index()].clear();
            }
            plan.live = false;
        }
    }

    /// Answer `pred(args…)` — `Some` is a bound (ground) argument,
    /// `None` a free one — without materializing the full model when
    /// possible.
    ///
    /// On a session with no materialized model, the engine compiles a
    /// *demand plan* for the query's adornment (its bound/free
    /// pattern): the magic-set rewrite of the reachable rules
    /// ([`crate::magic`]), stratified and planned through the ordinary
    /// pipeline and cached per `(pred, adornment)` — so repeated point
    /// queries with different constants reuse the plan and pay only
    /// for seeding one magic fact and deriving the tuples their
    /// binding can reach. The plan's demand space is *retained*
    /// between queries: a repeat is a zero-work read, and a new seed or
    /// new EDB facts continue the semi-naive fixpoint from the retained
    /// relations ([`EvalStats::demand_continuations`]) instead of
    /// re-deriving. The cache is LRU-bounded by
    /// [`demand_plan_cache`](crate::EvalConfig::demand_plan_cache).
    /// When the rewrite is inapplicable (negation or grouping reachable
    /// from the query, or an unplannable rewrite) the engine
    /// materializes the session's
    /// model and filters it, counting [`EvalStats::demand_fallbacks`]
    /// and reporting [`QueryPath::Fallback`]; the session is then
    /// [`EngineState::Materialized`], as after [`Engine::run`].
    ///
    /// On a session that already holds a materialized model, the query
    /// answers from it directly (reconciling unabsorbed facts through
    /// the incremental update path first) — demand evaluation only pays
    /// off *before* the model exists.
    ///
    /// ```
    /// use lps_engine::{Engine, EvalConfig};
    /// use lps_engine::QueryPath;
    /// use lps_engine::pattern::{Pattern, VarId};
    /// use lps_engine::rule::{BodyLit, Rule};
    ///
    /// let mut engine = Engine::new(EvalConfig::default());
    /// let edge = engine.pred("edge", 2);
    /// let path = engine.pred("path", 2);
    /// let (a, b, c) = {
    ///     let st = engine.store_mut();
    ///     (st.atom("a"), st.atom("b"), st.atom("c"))
    /// };
    /// engine.fact(edge, vec![a, b]).unwrap();
    /// engine.fact(edge, vec![b, c]).unwrap();
    /// let v = |i| Pattern::Var(VarId(i));
    /// engine.rule(Rule {
    ///     head: path,
    ///     head_args: vec![v(0), v(1)],
    ///     group: None,
    ///     outer: vec![BodyLit::Pos(edge, vec![v(0), v(1)])],
    ///     quant: None,
    ///     num_vars: 2,
    ///     var_names: vec!["X".into(), "Y".into()],
    ///     var_sorts: vec![],
    /// }).unwrap();
    /// // Goal-directed: `?- path(b, Y)` never materializes the model.
    /// let res = engine.query(path, &[Some(b), None]).unwrap();
    /// assert_eq!(res.path, QueryPath::Demand);
    /// assert_eq!(res.rows, vec![vec![b, c]]);
    /// assert_eq!(res.stats.magic_facts_seeded, 1);
    /// // Same adornment, new constant: the demand plan is cached.
    /// let res = engine.query(path, &[Some(a), None]).unwrap();
    /// assert_eq!(res.stats.adornments_compiled, 0);
    /// assert_eq!(res.rows, vec![vec![a, b]]);
    /// ```
    pub fn query(
        &mut self,
        pred: PredId,
        args: &[Option<TermId>],
    ) -> Result<QueryResult, EngineError> {
        if let Some(stats) = self.begin_query(pred, args.len())? {
            return Ok(QueryResult {
                rows: filter_rows(&mut self.full[pred.index()], args),
                path: QueryPath::Materialized,
                stats,
            });
        }
        let seed: Vec<TermId> = args.iter().flatten().copied().collect();
        let key = (pred, magic::adornment_of(args));
        if let Some(res) = self.query_demand(key, None, &seed, 0)? {
            return Ok(res);
        }
        // `begin_query` materialized the universe for this pass.
        let run = self.run_batch()?;
        let rows = filter_rows(&mut self.full[pred.index()], args);
        let work = EvalStats {
            demand_fallbacks: 1,
            ..EvalStats::default()
        };
        Ok(self.finish_query(run, work, rows, QueryPath::Fallback))
    }

    /// Evaluate an ad-hoc query *rule* — the compiled form of a
    /// conjunctive query like `?- p(X), q(X, {a}).`: the head collects
    /// the answer variables, the body is the goal conjunction. The
    /// head predicate must be dedicated to queries (not defined or
    /// loaded by the program).
    ///
    /// Demand evaluation canonicalizes the goal to its *shape* — the
    /// rule modulo top-level ground arguments of positive literals,
    /// which lift into bound head columns ([`magic::lift_goal`]) — and
    /// runs it through the same demand core as [`Engine::query`], the
    /// plan cached per shape: `?- path(a, X)` and `?- path(b, X)`
    /// written as conjunctive goals share one compiled plan and one
    /// retained demand space, differing only in the magic seed tuple.
    /// Ground arguments thus still root the derivation: `?- path(a,
    /// X), color(X, blue)` derives only from `a` onward. The LRU bound
    /// and the non-monotone fallback discipline of [`Engine::query`]
    /// apply unchanged; on a materialized session the goal evaluates
    /// over the maintained model.
    pub fn query_rule(&mut self, rule: Rule) -> Result<QueryResult, EngineError> {
        if let Some(run) = self.begin_query(rule.head, rule.head_args.len())? {
            return self.goal_from_model(run, &rule, QueryPath::Materialized);
        }
        let lifted = magic::lift_goal(&rule);
        let k = lifted.consts.len();
        let shape = match self.conj_shapes.get(&lifted.key) {
            Some(&p) => p,
            None => {
                // The lowest name no cached shape of this arity holds
                // (evicted shapes release theirs), so names stay bounded
                // by the cache and never alias a live shape's head.
                let arity = k + rule.head_args.len();
                let name = (0..)
                    .map(|n| format!("query#shape#{n}"))
                    .find(|name| self.lookup_pred(name, arity).is_none())
                    .expect("some shape name is free");
                let p = self.pred(&name, arity);
                self.conj_shapes.insert(lifted.key, p);
                p
            }
        };
        let mut canonical = lifted.rule;
        canonical.head = shape;
        // The lifted constants occupy the first `k` head columns.
        let mask = ColMask::MAX
            .checked_shr(ColMask::BITS - k as u32)
            .unwrap_or(0);
        // The retained answer relation accumulates every seed's
        // answers; this call's rows are those whose seed columns match
        // its constants, seed columns stripped.
        if let Some(res) = self.query_demand((shape, mask), Some(canonical), &lifted.consts, k)? {
            return Ok(res);
        }
        let run = self.run_batch()?;
        self.goal_from_model(run, &rule, QueryPath::Fallback)
    }

    /// Answer a conjunctive goal over the session's model, which `run`
    /// (its stats, already recorded) just made current: evaluate the
    /// goal rule once and read its head relation. On the
    /// [`QueryPath::Fallback`] path the call counts one demand
    /// fallback.
    fn goal_from_model(
        &mut self,
        run: EvalStats,
        rule: &Rule,
        path: QueryPath,
    ) -> Result<QueryResult, EngineError> {
        let mut work = self.eval_goal(rule)?;
        work.demand_fallbacks = usize::from(path == QueryPath::Fallback);
        let rows = lookup_rows(&mut self.full[rule.head.index()], 0, &[], 0);
        Ok(self.finish_query(run, work, rows, path))
    }

    /// Shared entry of both query front doors: check the goal's arity
    /// against `pred`'s, and on a session that holds a model reconcile
    /// it (`run` absorbs new facts, incrementally when it can, and
    /// is a no-op on a clean fixpoint), returning that pass's stats —
    /// the caller then answers from the model. `None` means the demand
    /// core answers.
    fn begin_query(
        &mut self,
        pred: PredId,
        n_args: usize,
    ) -> Result<Option<EvalStats>, EngineError> {
        // A stale profile must not outlive the query it described.
        self.last_profile = None;
        let arity = self.preds.info(pred).arity;
        if n_args != arity {
            return Err(EngineError::ArityMismatch {
                pred: self.pred_name(pred),
                expected: arity,
                got: n_args,
            });
        }
        if matches!(self.state, EngineState::Materialized | EngineState::Dirty) {
            return self.run().map(Some);
        }
        self.materialize_universe()?;
        Ok(None)
    }

    /// The demand core behind [`Engine::query`] and
    /// [`Engine::query_rule`]: compile-or-touch the plan under `key`
    /// (`goal` is the extra rule a conjunctive shape adds to the
    /// program), run it seeded with `seed`, and read the answers whose
    /// bound columns match the seed, the first `skip` columns dropped.
    /// `None` means the rewrite is obstructed and the caller answers
    /// from the materialized model.
    fn query_demand(
        &mut self,
        key: PlanKey,
        goal: Option<Rule>,
        seed: &[TermId],
        skip: usize,
    ) -> Result<Option<QueryResult>, EngineError> {
        let Some((fresh, evicted)) = self.cached_plan(key, goal) else {
            return Ok(None);
        };
        self.sync_edb_to_full();
        let profiler = self.config.profile.then(StepProfiler::default);
        let mut stats = self.drive_plan(key, seed, profiler.as_ref())?;
        if let Some(prof) = &profiler {
            self.last_profile = Some(self.build_profile(key, prof));
        }
        let plan = &self.query_plans[&key];
        stats.plans_evicted = evicted;
        if fresh {
            stats.adornments_compiled = plan.adornments;
        }
        let rows = lookup_rows(&mut self.full[plan.answer.index()], key.1, seed, skip);
        let res = self.finish_query(EvalStats::default(), stats, rows, QueryPath::Demand);
        Ok(Some(res))
    }

    /// Compile-or-touch: make the plan under `key` the most recently
    /// used cache entry, compiling it first if absent. Returns whether
    /// it was compiled and how many plans the insertion evicted, or
    /// `None` when the rewrite is obstructed (nothing is cached).
    pub(crate) fn cached_plan(
        &mut self,
        key: PlanKey,
        goal: Option<Rule>,
    ) -> Option<(bool, usize)> {
        if self.query_plans.contains_key(&key) {
            self.touch_query_plan(key);
            return Some((false, 0));
        }
        let plan = self.compile_plan(key, goal)?;
        Some((true, self.insert_query_plan(key, plan)))
    }

    /// The epilogue of the demand, fallback and materialized-goal
    /// exits (a materialized point query does no work of its own and
    /// returns the reconciling pass's stats as recorded): fold the
    /// pending planner counters into this query's `work`, seal it,
    /// and record it — `accounted` is work an earlier pass already
    /// recorded (the model reconciliation before a materialized goal),
    /// which the returned and last-pass stats include but the
    /// cumulative stats must not count twice.
    fn finish_query(
        &mut self,
        accounted: EvalStats,
        mut work: EvalStats,
        rows: RowSet,
        path: QueryPath,
    ) -> QueryResult {
        work.absorb(self.take_planner_counters());
        work.seal_misestimate();
        self.cumulative_stats.absorb(work);
        let mut stats = accounted;
        stats.absorb(work);
        stats.seal_misestimate();
        self.last_stats = stats;
        QueryResult { rows, path, stats }
    }

    /// Compile the demand plan under `key`: the magic rewrite rooted at
    /// `key.0` with the `key.1` columns bound, over the program plus —
    /// for a conjunctive shape — the canonical `goal` rule. Registers
    /// the adorned/magic predicates and sizes their relations. An
    /// obstruction or planning failure yields `None` instead of an
    /// error (the batch run the caller falls back to surfaces real
    /// program errors) and releases what the attempt registered: the
    /// shape predicate of a conjunctive goal, and the rewrite's
    /// predicates no cached plan shares.
    fn compile_plan(&mut self, (pred, mask): PlanKey, goal: Option<Rule>) -> Option<QueryPlan> {
        let _compile_span = self.config.trace.then(|| {
            lps_trace::span("demand_compile")
                .arg("pred", self.pred_name(pred))
                .arg("mask", mask)
        });
        let cost_on = self.refresh_planner_stats();
        let policy = self.config.set_universe;
        let with_goal;
        let rules = match goal {
            Some(goal) => {
                with_goal = [self.rules.as_slice(), &[goal]].concat();
                &with_goal
            }
            None => &self.rules,
        };
        let mp = match magic::magic_rewrite(
            rules,
            pred,
            mask,
            &mut self.store,
            &mut self.preds,
            cost_on.then(|| magic::SipsCost {
                stats: self.stats_cache.current(),
                policy,
            }),
        ) {
            MagicOutcome::Obstructed(_) => {
                self.release_plan_preds(&[], pred);
                return None;
            }
            MagicOutcome::Rewritten(mp) => mp,
        };
        self.planner_pending.reorders_applied += mp.reorders;
        // Size the relation vectors for the predicates the rewrite
        // registered.
        self.sync_relation_slots();
        match self.compile(|e, cost| e.compile_rules(&mp.rules, cost)) {
            Ok(program) => Some(make_plan(program, mp)),
            Err(_) => {
                self.release_plan_preds(&mp.space, pred);
                None
            }
        }
    }

    /// Reach the fixpoint of the cached plan under `key` for the
    /// current seeds and EDB, planting `seed` first. Two regimes:
    ///
    /// * **warm** (space live): a seeded semi-naive continuation over
    ///   the retained relations from the lowest stratum that a tracked
    ///   relation grown past its baseline (the newly planted magic seed,
    ///   newly synced EDB facts) affects — O(new demand). The rewrite is
    ///   monotone by construction (the obstruction check excluded
    ///   negation and grouping), so the continuation is always sound;
    /// * **rebase** (space not live — fresh compile, or invalidated by
    ///   a batch rebuild, by eviction of a shared sub-space, or by
    ///   [`Engine::clear_demand_spaces`]): batch evaluation over the
    ///   space *without* clearing it. Demand-space contents are always
    ///   sound (they were derived by the monotone rewrite from seeds
    ///   and an append-only EDB, or reset to empty), so re-running to
    ///   fixpoint from them is exact — and not clearing means sibling
    ///   plans sharing a sub-adornment stay live instead of
    ///   ping-ponging each other cold.
    ///
    /// On success the plan records the new baseline (relation lengths
    /// and set count) and is live.
    fn drive_plan(
        &mut self,
        key: PlanKey,
        seed: &[TermId],
        profiler: Option<&StepProfiler>,
    ) -> Result<EvalStats, EngineError> {
        let plan = self
            .query_plans
            .get_mut(&key)
            .expect("drive_plan is called on a cached plan");
        let mut stats = EvalStats::default();
        if let Some(magic) = plan.magic_seed {
            // Count only real insertions: a duplicate seed (a repeated
            // query, or the same constant arriving through a fact rule)
            // adds no demand.
            if self.full[magic.index()].insert(seed) {
                stats.facts_derived += 1;
                stats.magic_facts_seeded += 1;
            }
        }
        let warm = plan.live;
        plan.live = false;
        let _continue_span = (warm && self.config.trace).then(|| {
            lps_trace::span("demand_continue")
                .arg("tracked", plan.tracked.len())
                .arg("strata", plan.program.strat.num_strata)
        });
        let from = if warm {
            debug_assert!(
                plan.program.max_nonmono_stratum.is_none(),
                "demand rewrites are monotone"
            );
            stats.demand_continuations = 1;
            let sets = self.store.set_ids().len();
            plan.restart_from(&self.full, sets)
                .map(|stratum| Start::Seeded {
                    stratum,
                    sets_baseline: plan.sets_base,
                    base_lens: &plan.base_lens,
                })
        } else {
            Some(Start::Batch {
                magic_preds: &plan.magic_preds,
            })
        };
        if let Some(from) = from {
            stats.absorb(run_strata(
                &mut self.store,
                &mut self.full,
                &self.config,
                &plan.program,
                from,
                profiler,
            )?);
        }
        plan.live = true;
        plan.base_lens.clear();
        plan.base_lens
            .extend(self.full.iter().map(|r| r.len() as u32));
        plan.sets_base = self.store.set_ids().len();
        // Demand derivations changed the relations the next compile's
        // statistics would read.
        self.stats_cache.invalidate();
        Ok(stats)
    }

    /// Build the bound-column indexes a published snapshot's hit path
    /// probes — one per live demand plan's answer relation — while the
    /// writer still holds `&mut self`. Published relation clones are
    /// frozen, so any index missing here degrades the reader to a
    /// (sound) linear scan until the next publish after a change.
    pub fn prepare_publish(&mut self) {
        let answers: Vec<(PredId, ColMask)> = self
            .query_plans
            .iter()
            .filter(|(_, p)| p.live)
            .map(|(&(_, mask), p)| (p.answer, mask))
            .collect();
        for (answer, mask) in answers {
            if mask != 0 {
                self.full[answer.index()].ensure_index(mask);
            }
        }
    }

    /// Snapshot-publisher internals: the servable demand plans as
    /// `((pred, mask), answer, magic_seed)` triples — live plans whose
    /// retained fixpoint is current, so that a query would read the
    /// answer relation without running a continuation. A live plan
    /// whose tracked relations grew since its last run (another plan's
    /// query synced new EDB rows or derived into a shared relation) is
    /// left out until its own next query brings it level.
    pub(crate) fn live_plan_triples(&self) -> Vec<((PredId, ColMask), PredId, Option<PredId>)> {
        let sets = self.store.set_ids().len();
        self.query_plans
            .iter()
            .filter(|(_, p)| p.live && p.restart_from(&self.full, sets).is_none())
            .map(|(&key, p)| (key, p.answer, p.magic_seed))
            .collect()
    }

    /// Whether every loaded fact has been folded into the model and
    /// the demand spaces: no EDB row is past its cursor. Retained plan
    /// answers are only publishable when this holds.
    pub(crate) fn demand_space_clean(&self) -> bool {
        self.edb
            .iter()
            .zip(&self.edb_synced)
            .all(|(e, &s)| e.len() <= s as usize)
    }

    /// Mark the plan cache entry most recently used.
    fn touch_query_plan(&mut self, key: PlanKey) {
        if let Some(pos) = self.query_lru.iter().position(|&k| k == key) {
            let k = self.query_lru.remove(pos);
            self.query_lru.push(k);
        }
    }

    /// Insert a freshly compiled entry and evict least-recently-used
    /// plans beyond
    /// [`demand_plan_cache`](crate::EvalConfig::demand_plan_cache)
    /// (clamped to ≥ 1). Returns the number of plans evicted.
    fn insert_query_plan(&mut self, key: PlanKey, plan: QueryPlan) -> usize {
        self.query_plans.insert(key, plan);
        self.query_lru.push(key);
        let bound = self.config.demand_plan_cache.max(1);
        let mut evicted = 0;
        while self.query_lru.len() > bound {
            let victim = self.query_lru.remove(0);
            self.evict_plan(victim);
            evicted += 1;
        }
        evicted
    }

    /// Drop one cached plan, reclaiming the memory of its
    /// adorned/magic relations. Any other retained fixpoint reading
    /// one of the reclaimed relations (plans can share demanded
    /// sub-adornments) goes cold and re-derives on its next use.
    fn evict_plan(&mut self, key: PlanKey) {
        let _evict_span = self.config.trace.then(|| {
            lps_trace::span("demand_evict")
                .arg("pred", self.pred_name(key.0))
                .arg("mask", key.1)
        });
        let Some(plan) = self.query_plans.remove(&key) else {
            return;
        };
        if let Some(pos) = self.query_lru.iter().position(|&k| k == key) {
            self.query_lru.remove(pos);
        }
        for &p in &plan.space {
            let arity = self.preds.info(p).arity;
            self.full[p.index()] = Relation::new(arity);
        }
        self.invalidate_overlapping(&plan.space);
        self.release_plan_preds(&plan.space, key.0);
    }

    /// Recycle the registry slots an evicted plan no longer needs: its
    /// demand-space predicates, plus — when `key_pred` is a dedicated
    /// conjunctive shape head — the shape predicate itself (its
    /// [`Engine::conj_shapes`] naming entry is dropped along with it).
    /// A slot is released only when no surviving cached plan references
    /// it (plans can share demanded sub-adornments), so recycling never
    /// pulls a relation out from under a retained fixpoint.
    fn release_plan_preds(&mut self, space: &[PredId], key_pred: PredId) {
        let mut candidates: Vec<PredId> = space.to_vec();
        let shape_name = self
            .conj_shapes
            .iter()
            .find(|(_, &p)| p == key_pred)
            .map(|(name, _)| name.clone());
        if let Some(name) = shape_name {
            self.conj_shapes.remove(&name);
            candidates.push(key_pred);
        }
        for p in candidates {
            let referenced = self
                .query_plans
                .values()
                .any(|pl| pl.space.contains(&p) || pl.tracked.contains(&p));
            if !referenced {
                // Leave the slot's relations empty so a re-register at
                // a different arity can swap them cleanly
                // ([`Engine::sync_relation_slots`]).
                let i = p.index();
                if i < self.full.len() {
                    let arity = self.preds.info(p).arity;
                    self.edb[i] = Relation::new(arity);
                    self.full[i] = Relation::new(arity);
                    self.edb_synced[i] = 0;
                }
                self.preds.release(p);
            }
        }
    }

    /// Put every retained fixpoint that reads one of `cleared`'s
    /// relations back to cold: its next query re-derives from scratch.
    fn invalidate_overlapping(&mut self, cleared: &[PredId]) {
        for plan in self.query_plans.values_mut() {
            if plan.live && plan.tracked.iter().any(|p| cleared.contains(p)) {
                plan.live = false;
            }
        }
    }

    /// Evaluate a conjunctive goal against the materialized model, into
    /// the goal's (cleared) head relation: a one-rule program
    /// ([`compile_goal`]) run by the batch driver.
    fn eval_goal(&mut self, rule: &Rule) -> Result<EvalStats, EngineError> {
        let program = self.compile(|e, cost| {
            compile_goal(rule, &|p| e.pred_name(p), e.config.set_universe, cost)
        })?;
        let head = &mut self.full[rule.head.index()];
        let arity = rule.head_args.len();
        if head.arity() != arity {
            *head = Relation::new(arity);
        } else {
            head.clear();
        }
        let from = Start::Batch { magic_preds: &[] };
        let stats = run_strata(
            &mut self.store,
            &mut self.full,
            &self.config,
            &program,
            from,
            None,
        )?;
        self.stats_cache.invalidate();
        Ok(stats)
    }
}

/// The rows of `rel` matching the bound positions, as one flat
/// [`RowSet`] — via an on-demand index over the bound columns, so
/// retrieval out of a large (retained) relation is O(matching rows),
/// not O(relation). `mask`/`key` are the bound positions and values in
/// ascending column order; the first `skip` columns of each row are
/// dropped (the lifted seed columns of conjunctive answers).
fn lookup_rows(rel: &mut Relation, mask: ColMask, key: &[TermId], skip: usize) -> RowSet {
    let mut out = RowSet::new(rel.arity() - skip);
    if mask == 0 {
        for row in rel.iter() {
            out.push(&row[skip..]);
        }
        return out;
    }
    rel.ensure_index(mask);
    for &r in rel.lookup(mask, key) {
        out.push(&rel.row(r)[skip..]);
    }
    out
}

/// [`lookup_rows`] keyed by an `Option`-per-position argument vector.
fn filter_rows(rel: &mut Relation, args: &[Option<TermId>]) -> RowSet {
    let key: Vec<TermId> = args.iter().flatten().copied().collect();
    lookup_rows(rel, magic::adornment_of(args), &key, 0)
}

/// Assemble a [`QueryPlan`] from a compiled rewrite: derives the
/// tracked predicate set (the rewrite's space plus every original
/// predicate its strata read) that the retained-space baselines are
/// recorded over. The plan starts cold (`live == false`).
fn make_plan(program: CompiledProgram, mp: magic::MagicProgram) -> QueryPlan {
    let mut tracked: Vec<PredId> = mp.space.clone();
    for s in 0..program.strat.num_strata {
        for &p in program.strat.reads(s) {
            if !tracked.contains(&p) {
                tracked.push(p);
            }
        }
    }
    QueryPlan {
        program,
        magic_seed: mp.magic_seed,
        answer: mp.answer,
        space: mp.space,
        magic_preds: mp.magic_preds,
        adornments: mp.adornments,
        tracked,
        live: false,
        base_lens: Vec::new(),
        sets_base: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EvalConfig;
    use crate::pattern::Pattern;
    use crate::rule::BodyLit;
    use crate::session::tests::{plain_rule, tc_engine, v};

    #[test]
    fn demand_query_answers_without_materializing() {
        let (mut e, _, path, ids) = tc_engine();
        let res = e.query(path, &[Some(ids[2]), None]).unwrap();
        assert_eq!(res.path, QueryPath::Demand);
        assert_ne!(e.state(), EngineState::Materialized);
        let rows = res.rows.sorted();
        assert_eq!(rows, vec![vec![ids[2], ids[3]], vec![ids[2], ids[4]]]);
        // The session never materialized the model: the path relation
        // holds only demand-space tuples, and `full` for `path` is
        // untouched.
        assert_eq!(e.rows(path).len(), 0);
        assert_eq!(res.stats.magic_facts_seeded, 1);
        assert!(res.stats.adornments_compiled >= 1);
        assert_eq!(res.stats.demand_fallbacks, 0);
    }

    #[test]
    fn demand_plan_is_cached_per_adornment() {
        let (mut e, _, path, ids) = tc_engine();
        let first = e.query(path, &[Some(ids[0]), None]).unwrap();
        assert!(first.stats.adornments_compiled >= 1);
        assert_eq!(first.rows.len(), 4);
        // Same adornment, different constant: plan reused.
        let second = e.query(path, &[Some(ids[3]), None]).unwrap();
        assert_eq!(second.stats.adornments_compiled, 0);
        assert_eq!(second.rows, vec![vec![ids[3], ids[4]]]);
        // A different adornment compiles its own plan.
        let third = e.query(path, &[None, Some(ids[4])]).unwrap();
        assert!(third.stats.adornments_compiled >= 1);
        assert_eq!(third.rows.len(), 4);
        // Adding a rule invalidates every demand plan.
        let edge = e.lookup_pred("edge", 2).unwrap();
        e.rule(plain_rule(
            path,
            vec![v(0), v(1)],
            vec![BodyLit::Pos(edge, vec![v(1), v(0)])],
            2,
        ))
        .unwrap();
        let fourth = e.query(path, &[Some(ids[3]), None]).unwrap();
        assert!(fourth.stats.adornments_compiled >= 1, "plans recompiled");
        // Forward (n3,n4), reverse (n3,n2), and (n3,n3) via the cycle
        // edge(n3,n4) ∘ path(n4,n3).
        assert_eq!(fourth.rows.len(), 3);
    }

    #[test]
    fn demand_query_agrees_with_materialized_answers() {
        for args_mask in 0..4u32 {
            let (mut demand, _, dpath, dids) = tc_engine();
            let (mut batch, _, bpath, bids) = tc_engine();
            batch.run().unwrap();
            let args: Vec<Option<TermId>> = (0..2)
                .map(|i| (args_mask & (1 << i) != 0).then(|| dids[1 + i]))
                .collect();
            let bargs: Vec<Option<TermId>> = (0..2)
                .map(|i| (args_mask & (1 << i) != 0).then(|| bids[1 + i]))
                .collect();
            let got = demand.query(dpath, &args).unwrap();
            let want = batch.query(bpath, &bargs).unwrap();
            assert_eq!(got.path, QueryPath::Demand);
            assert_eq!(want.path, QueryPath::Materialized);
            assert_eq!(got.rows.sorted(), want.rows.sorted(), "mask {args_mask:#b}");
        }
    }

    #[test]
    fn query_on_materialized_session_reads_the_model() {
        let (mut e, edge, path, ids) = tc_engine();
        e.run().unwrap();
        let res = e.query(path, &[Some(ids[0]), None]).unwrap();
        assert_eq!(res.path, QueryPath::Materialized);
        assert_eq!(res.rows.len(), 4);
        assert_eq!(res.stats, EvalStats::default(), "pure model read");
        // Pending facts are reconciled (incrementally) before answering.
        e.fact(edge, vec![ids[4], ids[0]]).unwrap();
        let res = e.query(path, &[Some(ids[4]), None]).unwrap();
        assert_eq!(res.path, QueryPath::Materialized);
        assert_eq!(res.stats.incremental_runs, 1);
        assert_eq!(res.rows.len(), 5, "closure of the cycle from n4");
    }

    #[test]
    fn query_with_negation_falls_back_soundly() {
        let mut e = Engine::new(EvalConfig::default());
        let node = e.pred("node", 1);
        let edge = e.pred("edge", 2);
        let reach = e.pred("reach", 1);
        let unreach = e.pred("unreachable", 1);
        let ids: Vec<TermId> = (0..3)
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
        let res = e.query(unreach, &[Some(ids[2])]).unwrap();
        assert_eq!(res.path, QueryPath::Fallback);
        assert_eq!(res.stats.demand_fallbacks, 1);
        assert!(res.stats.facts_derived > 0, "the model was materialized");
        assert_eq!(res.rows, vec![vec![ids[2]]]);
        // The fallback materialized the session's one model…
        assert_eq!(e.state(), EngineState::Materialized);
        // …so the monotone part now reads it too.
        let res = e.query(reach, &[Some(ids[1])]).unwrap();
        assert_eq!(res.path, QueryPath::Materialized);
        assert_eq!(res.rows, vec![vec![ids[1]]]);
        // A repeat non-monotone query is a pure model read.
        let res = e.query(unreach, &[Some(ids[2])]).unwrap();
        assert_eq!(res.path, QueryPath::Materialized);
        assert_eq!(res.stats, EvalStats::default(), "no re-materialization");
        assert_eq!(res.rows, vec![vec![ids[2]]]);
    }

    #[test]
    fn edb_only_query_needs_no_rewrite_rules_beyond_the_bridge() {
        let mut e = Engine::new(EvalConfig::default());
        let edge = e.pred("edge", 2);
        let (a, b, c) = {
            let st = e.store_mut();
            (st.atom("a"), st.atom("b"), st.atom("c"))
        };
        e.fact(edge, vec![a, b]).unwrap();
        e.fact(edge, vec![a, c]).unwrap();
        let res = e.query(edge, &[Some(a), None]).unwrap();
        assert_eq!(res.path, QueryPath::Demand);
        assert_eq!(res.rows.len(), 2);
        let res = e.query(edge, &[Some(b), None]).unwrap();
        assert!(res.rows.is_empty());
    }

    #[test]
    fn query_rule_compiles_conjunctive_goals() {
        let (mut e, edge, path, ids) = tc_engine();
        // ?- path(n0, Y), edge(Y, Z).  →  q(Y, Z) :- path(n0, Y), edge(Y, Z).
        let q = e.pred("query#goal", 2);
        let goal = plain_rule(
            q,
            vec![v(0), v(1)],
            vec![
                BodyLit::Pos(path, vec![Pattern::Ground(ids[0]), v(0)]),
                BodyLit::Pos(edge, vec![v(0), v(1)]),
            ],
            2,
        );
        let res = e.query_rule(goal.clone()).unwrap();
        assert_eq!(res.path, QueryPath::Demand);
        assert!(res.stats.magic_facts_seeded >= 1, "ground arg seeds demand");
        let rows = res.rows.sorted();
        assert_eq!(
            rows,
            vec![
                vec![ids[1], ids[2]],
                vec![ids[2], ids[3]],
                vec![ids[3], ids[4]],
            ]
        );
        // Same goal against the materialized model agrees.
        e.run().unwrap();
        let again = e.query_rule(goal).unwrap();
        assert_eq!(again.path, QueryPath::Materialized);
        assert_eq!(again.rows.sorted(), rows);
    }

    #[test]
    fn query_rule_does_not_double_count_cumulative_stats() {
        let (mut e, edge, path, ids) = tc_engine();
        e.run().unwrap();
        let base = e.cumulative_stats();
        // Dirty session: query_rule first reconciles incrementally
        // (self-accounting), then evaluates the goal. The cumulative
        // counters must grow by exactly this call's combined work.
        e.fact(edge, vec![ids[4], ids[0]]).unwrap();
        let q = e.pred("query#goal", 1);
        let goal = plain_rule(
            q,
            vec![v(1)],
            vec![BodyLit::Pos(path, vec![Pattern::Ground(ids[0]), v(1)])],
            2,
        );
        let res = e.query_rule(goal).unwrap();
        assert_eq!(res.path, QueryPath::Materialized);
        assert_eq!(res.rows.len(), 5, "the cycle closes every pair");
        assert_eq!(
            e.cumulative_stats().facts_derived,
            base.facts_derived + res.stats.facts_derived
        );
        assert_eq!(
            e.cumulative_stats().iterations,
            base.iterations + res.stats.iterations
        );
    }

    #[test]
    fn query_after_reset_facts_evicts_plans_and_stays_correct() {
        // `reset_facts` routes demand plans through the eviction path:
        // their retained fixpoints are meaningless without the facts,
        // and reclaiming the relation slots is what keeps a long
        // reset-query-reset session from leaking demand-space memory.
        let (mut e, edge, path, ids) = tc_engine();
        let res = e.query(path, &[Some(ids[0]), None]).unwrap();
        assert_eq!(res.rows.len(), 4);
        e.reset_facts();
        let res = e.query(path, &[Some(ids[0]), None]).unwrap();
        assert!(
            res.stats.adornments_compiled >= 1,
            "reset evicted the plan; the next query recompiles"
        );
        assert!(res.rows.is_empty(), "no facts, no answers");
        e.fact(edge, vec![ids[0], ids[3]]).unwrap();
        let res = e.query(path, &[Some(ids[0]), None]).unwrap();
        assert_eq!(res.rows, vec![vec![ids[0], ids[3]]]);
        assert_eq!(res.stats.adornments_compiled, 0, "plan cached again");
    }

    #[test]
    fn retained_demand_space_makes_repeat_queries_free() {
        let (mut e, _, path, ids) = tc_engine();
        let first = e.query(path, &[Some(ids[0]), None]).unwrap();
        assert_eq!(first.rows.len(), 4);
        assert_eq!(first.stats.demand_continuations, 0, "first run is cold");
        // Identical query: the retained space already holds the
        // fixpoint — no seed inserted, no stratum re-run, no facts.
        let again = e.query(path, &[Some(ids[0]), None]).unwrap();
        assert_eq!(again.rows, first.rows);
        assert_eq!(again.stats.demand_continuations, 1);
        assert_eq!(again.stats.magic_facts_seeded, 0, "duplicate seed");
        assert_eq!(again.stats.facts_derived, 0);
        assert_eq!(again.stats.iterations, 0, "no stratum re-ran");
        // tc_engine's closure is right-linear, so the first query's
        // demand cascaded to every suffix node: a later constant in
        // the cascade is *already* demanded and answered — its seed is
        // a duplicate (not counted — the E13/E14 invariant) and the
        // whole query is a no-op read over the retained space.
        let third = e.query(path, &[Some(ids[2]), None]).unwrap();
        assert_eq!(third.stats.demand_continuations, 1);
        assert_eq!(third.stats.magic_facts_seeded, 0, "already demanded");
        assert_eq!(third.stats.facts_derived, 0);
        assert_eq!(third.stats.adornments_compiled, 0, "plan reused");
        let rows = third.rows.sorted();
        assert_eq!(rows, vec![vec![ids[2], ids[3]], vec![ids[2], ids[4]]]);
        // Earlier answers are still served, filtered per seed.
        let back = e.query(path, &[Some(ids[0]), None]).unwrap();
        assert_eq!(back.rows.len(), 4);
        assert_eq!(back.stats.facts_derived, 0);
    }

    /// Left-linear closure engine: `t(X, Z) :- t(X, Y), e(Y, Z)` keeps
    /// demand at the seed, so distinct constants have disjoint demand
    /// cones — the orientation where retained spaces show their
    /// incremental behavior (each new seed derives only its own cone).
    fn left_linear_engine() -> (Engine, PredId, PredId, Vec<TermId>) {
        let mut e = Engine::new(EvalConfig::default());
        let edge = e.pred("edge", 2);
        let t = e.pred("t", 2);
        let ids: Vec<TermId> = (0..6)
            .map(|i| e.store_mut().atom(&format!("n{i}")))
            .collect();
        for w in ids.windows(2) {
            e.fact(edge, vec![w[0], w[1]]).unwrap();
        }
        e.rule(plain_rule(
            t,
            vec![v(0), v(1)],
            vec![BodyLit::Pos(edge, vec![v(0), v(1)])],
            2,
        ))
        .unwrap();
        e.rule(plain_rule(
            t,
            vec![v(0), v(2)],
            vec![
                BodyLit::Pos(t, vec![v(0), v(1)]),
                BodyLit::Pos(edge, vec![v(1), v(2)]),
            ],
            3,
        ))
        .unwrap();
        (e, edge, t, ids)
    }

    #[test]
    fn new_seed_continues_over_the_retained_space() {
        let (mut e, edge, t, ids) = left_linear_engine();
        let first = e.query(t, &[Some(ids[3]), None]).unwrap();
        assert_eq!(first.rows.len(), 2, "n3 reaches n4, n5");
        // A new constant: one fresh seed, a seeded continuation
        // deriving only the new cone.
        let second = e.query(t, &[Some(ids[1]), None]).unwrap();
        assert_eq!(second.stats.demand_continuations, 1);
        assert_eq!(second.stats.magic_facts_seeded, 1);
        assert_eq!(second.stats.adornments_compiled, 0);
        assert_eq!(second.rows.len(), 4, "n1 reaches n2..n5");
        // The n3 cone survived the continuation: repeating the first
        // query is still a zero-work read.
        let repeat = e.query(t, &[Some(ids[3]), None]).unwrap();
        assert_eq!(repeat.stats.facts_derived, 0);
        assert_eq!(repeat.rows, first.rows);
        // A single-fact EDB update flows through as a continuation:
        // both retained cones extend, nothing is re-derived cold.
        let x = e.store_mut().atom("x");
        e.fact(edge, vec![ids[5], x]).unwrap();
        let updated = e.query(t, &[Some(ids[3]), None]).unwrap();
        assert_eq!(updated.stats.demand_continuations, 1);
        assert_eq!(updated.rows.len(), 3, "n3 now also reaches x");
        assert!(
            updated.stats.facts_derived <= 4,
            "only the extension rows derive, not the cones \
             (got {})",
            updated.stats.facts_derived
        );
        // …and the other cone saw the same extension.
        let other = e.query(t, &[Some(ids[1]), None]).unwrap();
        assert_eq!(other.rows.len(), 5, "n1 reaches n2..n5 and x");
        assert_eq!(other.stats.facts_derived, 0, "already propagated");
    }

    /// [`left_linear_engine`] plus `node` facts for every constant and
    /// the obstructed rule `unreachable(X) :- node(X), ¬t(X, X)`.
    fn left_linear_with_negation() -> (Engine, PredId, PredId, PredId, Vec<TermId>) {
        let (mut e, edge, t, ids) = left_linear_engine();
        let node = e.pred("node", 1);
        let unreach = e.pred("unreachable", 1);
        for &n in &ids {
            e.fact(node, vec![n]).unwrap();
        }
        e.rule(plain_rule(
            unreach,
            vec![v(0)],
            vec![
                BodyLit::Pos(node, vec![v(0)]),
                BodyLit::Neg(t, vec![v(0), v(0)]),
            ],
            1,
        ))
        .unwrap();
        (e, edge, t, unreach, ids)
    }

    #[test]
    fn fallback_materializes_the_session_for_later_queries() {
        let (mut e, edge, t, unreach, ids) = left_linear_with_negation();
        let live = |e: &Engine| e.preds().len() - e.preds().free_slots();
        let live_before = live(&e);
        // Warm a monotone demand plan…
        let first = e.query(t, &[Some(ids[1]), None]).unwrap();
        assert!(live(&e) > live_before, "the plan registered its rewrite");
        assert_eq!(first.path, QueryPath::Demand);
        assert_eq!(first.rows.len(), 4, "n1 reaches n2..n5");
        // …then a non-monotone point query materializes the model.
        let nm = e.query(unreach, &[Some(ids[2])]).unwrap();
        assert_eq!(nm.path, QueryPath::Fallback);
        assert_eq!(nm.stats.demand_fallbacks, 1);
        assert_eq!(nm.rows, vec![vec![ids[2]]]);
        assert_eq!(e.state(), EngineState::Materialized);
        assert_eq!(e.cumulative_stats().demand_fallbacks, 1);
        // The batch run evicted the plan it made dead, and released
        // its rewrite's registry slots.
        assert!(e.query_plans.is_empty());
        assert!(e.query_lru.is_empty());
        assert_eq!(live(&e), live_before);
        // The warm sibling now reads the same rows off the model.
        let repeat = e.query(t, &[Some(ids[1]), None]).unwrap();
        assert_eq!(repeat.path, QueryPath::Materialized);
        assert_eq!(repeat.rows.sorted(), first.rows.sorted());
        // A later fact is absorbed by `update`, and the session's
        // model equals a freshly batch-run engine's.
        let x = e.store_mut().atom("x");
        e.fact(edge, vec![ids[5], x]).unwrap();
        assert_eq!(e.state(), EngineState::Dirty);
        e.update().unwrap();
        assert_eq!(e.state(), EngineState::Materialized);
        let (mut batch, bedge, bt, bunreach, bids) = left_linear_with_negation();
        let bx = batch.store_mut().atom("x");
        batch.fact(bedge, vec![bids[5], bx]).unwrap();
        batch.run().unwrap();
        for (p, bp) in [(t, bt), (unreach, bunreach)] {
            assert_eq!(e.extension(p), batch.extension(bp));
        }
        let extended = e.query(t, &[Some(ids[1]), None]).unwrap();
        assert_eq!(extended.path, QueryPath::Materialized);
        assert_eq!(extended.rows.len(), 5, "n1 now also reaches x");
        let nm2 = e.query(unreach, &[Some(ids[2])]).unwrap();
        assert_eq!(nm2.path, QueryPath::Materialized);
        assert_eq!(nm2.rows, vec![vec![ids[2]]]);
    }

    #[test]
    fn obstructed_conjunctive_goal_releases_its_shape() {
        // A goal that reaches negation compiles no plan, so its
        // `query#shape#…` head and naming entry must not outlive the
        // attempt. A different shape every cycle would otherwise take
        // a fresh registry slot each time.
        let (mut e, edge, _, unreach, ids) = left_linear_with_negation();
        let node = e.lookup_pred("node", 1).unwrap();
        let q = e.pred("query#goal", 1);
        let mut sizes = Vec::new();
        for cycle in 0..3 {
            e.reset_facts();
            for w in ids.windows(2) {
                e.fact(edge, vec![w[0], w[1]]).unwrap();
            }
            for &n in &ids {
                e.fact(node, vec![n]).unwrap();
            }
            // ?- unreachable(X), node(X), …, node(X), edge(n0, n1).
            let mut body = vec![BodyLit::Pos(unreach, vec![v(0)])];
            body.extend((0..cycle).map(|_| BodyLit::Pos(node, vec![v(0)])));
            body.push(BodyLit::Pos(
                edge,
                vec![Pattern::Ground(ids[0]), Pattern::Ground(ids[1])],
            ));
            let res = e.query_rule(plain_rule(q, vec![v(0)], body, 1)).unwrap();
            assert_eq!(res.path, QueryPath::Fallback, "cycle {cycle}");
            assert_eq!(res.stats.demand_fallbacks, 1);
            assert_eq!(res.rows.len(), ids.len(), "no node reaches itself");
            assert!(e.conj_shapes.is_empty(), "cycle {cycle}");
            assert!(e.query_plans.is_empty(), "cycle {cycle}");
            sizes.push(e.preds().len());
        }
        assert!(
            sizes.iter().all(|&n| n == sizes[0]),
            "registry stays flat: {sizes:?}"
        );
    }

    #[test]
    fn retained_demand_space_absorbs_new_edb_facts() {
        let (mut e, edge, path, ids) = tc_engine();
        let first = e.query(path, &[Some(ids[3]), None]).unwrap();
        assert_eq!(first.rows, vec![vec![ids[3], ids[4]]]);
        // A new edge arriving between queries flows through the
        // seeded continuation, not a cold re-derivation.
        let x = e.store_mut().atom("x");
        e.fact(edge, vec![ids[4], x]).unwrap();
        let again = e.query(path, &[Some(ids[3]), None]).unwrap();
        assert_eq!(again.stats.demand_continuations, 1);
        assert_eq!(again.stats.adornments_compiled, 0);
        let rows = again.rows.sorted();
        assert_eq!(rows, vec![vec![ids[3], ids[4]], vec![ids[3], x]]);
        // And the model agrees with a from-scratch engine on the same
        // enlarged EDB.
        let (mut fresh, fedge, fpath, fids) = tc_engine();
        let fx = fresh.store_mut().atom("x");
        fresh.fact(fedge, vec![fids[4], fx]).unwrap();
        let want = fresh
            .query(fpath, &[Some(fids[3]), None])
            .unwrap()
            .rows
            .sorted();
        assert_eq!(rows, want);
    }
}
