//! The public evaluation session: register predicates, load facts and
//! rules, run to fixpoint, query results — and keep the result
//! *maintainable*: facts added after a completed fixpoint wait in the
//! EDB past the session's per-predicate cursor, and [`Engine::update`]
//! seeds the stratum driver with them, re-running only from the lowest
//! affected stratum onward over the retained relations instead of
//! recomputing the model from scratch. Queries live in
//! [`crate::demand`], plan descriptions in [`crate::explain`].

use lps_term::{setops, FxHashMap, FxHashSet, Symbol, TermId, TermStore, Value};

use crate::batch::FactBatch;
use crate::config::{EvalConfig, EvalStats, SetUniverse};
use crate::demand::{PlanKey, QueryPlan};
use crate::error::EngineError;
use crate::explain::QueryProfile;
use crate::fixpoint::{run_strata, Start};
use crate::pred::{PredId, PredRegistry};
use crate::relation::Relation;
use crate::rule::Rule;
use crate::stats::{Stats, StatsCache};
use crate::strata::{compile_program, CompiledProgram};

/// Lifecycle of an [`Engine`] session.
///
/// ```text
/// Unmaterialized ──run──▶ Materialized ──fact──▶ Dirty
///       ▲                    │     ▲               │
///       │                    │     └─ update ──────┤
///       └─ rule, reset_facts ┴─────────────────────┘
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineState {
    /// No model is materialized: a fresh session, or one whose rules
    /// or facts changed wholesale ([`Engine::rule`],
    /// [`Engine::reset_facts`]). Queries take the demand path; the
    /// next run compiles the rules unless a compile is cached, and
    /// materializes the model from the EDB.
    Unmaterialized,
    /// A least model is materialized and current.
    Materialized,
    /// A model is materialized, but EDB rows past the session's cursor
    /// hold facts it has not absorbed; [`Engine::update`] reconciles
    /// incrementally.
    Dirty,
}

/// An evaluation session over a program's rules and facts.
///
/// ```
/// use lps_engine::{Engine, EvalConfig};
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
/// // path(X, Y) :- edge(X, Y).
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
/// // path(X, Z) :- edge(X, Y), path(Y, Z).
/// engine.rule(Rule {
///     head: path,
///     head_args: vec![v(0), v(2)],
///     group: None,
///     outer: vec![
///         BodyLit::Pos(edge, vec![v(0), v(1)]),
///         BodyLit::Pos(path, vec![v(1), v(2)]),
///     ],
///     quant: None,
///     num_vars: 3,
///     var_names: vec!["X".into(), "Y".into(), "Z".into()],
///     var_sorts: vec![],
/// }).unwrap();
/// engine.run().unwrap();
/// assert!(engine.holds(path, &[a, c]));
/// assert_eq!(engine.rows(path).count(), 3);
/// // The session stays maintainable: a fact added after the fixpoint
/// // waits in the EDB past the session's cursor, and `update`
/// // re-reaches the least model incrementally instead of recomputing
/// // it.
/// let d = engine.store_mut().atom("d");
/// engine.fact(edge, vec![c, d]).unwrap();
/// let stats = engine.update().unwrap();
/// assert_eq!(stats.incremental_runs, 1);
/// assert!(engine.holds(path, &[a, d]));
/// assert_eq!(engine.rows(path).len(), 6);
/// ```
#[derive(Debug)]
pub struct Engine {
    pub(crate) store: TermStore,
    pub(crate) preds: PredRegistry,
    /// Extensional facts loaded via [`Engine::fact`] — the session's
    /// EDB, kept apart from derived tuples so batch runs can rebuild
    /// the model from scratch.
    pub(crate) edb: Vec<Relation>,
    /// The materialized model: EDB plus derived tuples.
    pub(crate) full: Vec<Relation>,
    /// The EDB cursor, one per predicate: `full[i]` holds `edb[i]`'s
    /// rows before `edb_synced[i]`, and every row past it is a fact the
    /// model (or, in a demand session, the demand spaces) has not
    /// absorbed yet. A batch run moves every cursor to the end of its
    /// EDB; [`Engine::update`] and the demand pipeline's
    /// [`Engine::sync_edb_to_full`] advance them as they splice rows
    /// in; resetting the facts resets them to 0.
    pub(crate) edb_synced: Vec<u32>,
    pub(crate) rules: Vec<Rule>,
    /// Fixed for the engine's lifetime: every cached compile, demand
    /// plan and model was built under it.
    pub(crate) config: EvalConfig,
    pub(crate) state: EngineState,
    /// The rule set, stratified and compiled — everything derived from
    /// the rules alone. Reused across batch runs and incremental
    /// updates; dropped only when a rule is added.
    prepared: Option<CompiledProgram>,
    /// Per-adornment demand plans: the magic-rewritten, compiled
    /// program for each `(pred, bound-mask)` query pattern seen
    /// (conjunctive goals enter under their dedicated shape
    /// predicate). Bounded by [`EvalConfig::demand_plan_cache`];
    /// invalidated with `prepared` on rule changes.
    pub(crate) query_plans: FxHashMap<PlanKey, QueryPlan>,
    /// LRU order over `query_plans` keys, least-recently-used first.
    pub(crate) query_lru: Vec<PlanKey>,
    /// Conjunctive goal shapes ([`crate::magic::goal_shape_key`]) → the
    /// dedicated `query#shape#…` head predicate registered for the
    /// shape. An entry lives exactly as long as the shape's cached
    /// plan: evicting the plan drops the entry and releases the shape
    /// predicate's registry slot ([`PredRegistry::release`]) for reuse,
    /// so neither this map nor the registry grows with the number of
    /// distinct shapes ever queried — only with the live plan cache.
    pub(crate) conj_shapes: FxHashMap<String, PredId>,
    /// Lazily refreshed per-predicate cardinality snapshot feeding the
    /// cost-based planner (E16): invalidated (cheaply) whenever facts
    /// move, re-read from the relations at the next compile that needs
    /// it.
    pub(crate) stats_cache: StatsCache,
    /// Planner counters (reorders, estimated rows, stats refreshes)
    /// accumulated by compiles since the last pass epilogue; flushed
    /// into that pass's [`EvalStats`].
    pub(crate) planner_pending: EvalStats,
    /// Interned-set count at the last completed materialization (the
    /// baseline for universe-growth triggers in incremental updates).
    sets_at_materialize: usize,
    pub(crate) last_stats: EvalStats,
    pub(crate) cumulative_stats: EvalStats,
    /// Per-literal profile of the last query run with
    /// [`EvalConfig::profile`] on; `None` when the last query was not
    /// profiled or read the model, which runs no demand plan to
    /// attribute.
    pub(crate) last_profile: Option<QueryProfile>,
    /// Atom-domain scans by [`Engine::materialize_universe`].
    #[cfg(test)]
    universe_scans: usize,
}

/// Hard cap on the atom-domain size for the `ActiveSubsets` powerset
/// materialization (2^20 sets is already a million).
const MAX_POWERSET_ATOMS: usize = 20;

impl Engine {
    /// New session with the given configuration.
    pub fn new(config: EvalConfig) -> Self {
        Self::with_store(config, TermStore::new())
    }

    /// New session over `store` — a fact base's interned terms, whose
    /// rows [`Engine::load_batch`] then loads.
    pub fn with_store(config: EvalConfig, store: TermStore) -> Self {
        Engine {
            store,
            preds: PredRegistry::new(),
            edb: Vec::new(),
            full: Vec::new(),
            edb_synced: Vec::new(),
            rules: Vec::new(),
            config,
            state: EngineState::Unmaterialized,
            prepared: None,
            query_plans: FxHashMap::default(),
            query_lru: Vec::new(),
            conj_shapes: FxHashMap::default(),
            stats_cache: StatsCache::default(),
            planner_pending: EvalStats::default(),
            sets_at_materialize: 0,
            last_stats: EvalStats::default(),
            cumulative_stats: EvalStats::default(),
            last_profile: None,
            #[cfg(test)]
            universe_scans: 0,
        }
    }

    /// Where the session is in its lifecycle.
    pub fn state(&self) -> EngineState {
        self.state
    }

    /// The term store (for interning constants and reading results).
    pub fn store(&self) -> &TermStore {
        &self.store
    }

    /// Mutable access to the term store.
    pub fn store_mut(&mut self) -> &mut TermStore {
        &mut self.store
    }

    /// The evaluation configuration, fixed when the engine was built
    /// ([`Engine::new`]).
    pub fn config(&self) -> &EvalConfig {
        &self.config
    }

    /// Always 1: evaluation runs one sequential semi-naive driver. Kept
    /// only because the standalone benchmark (`perfbench/`) still
    /// reports it as its constant `parallel.threads` metric.
    pub fn threads(&self) -> usize {
        1
    }

    /// Refresh the planner-statistics snapshot if the cost planner is
    /// on and facts moved since the last refresh. Returns whether the
    /// snapshot may be used (`false` = planner off, textual ordering).
    /// Actual refresh passes are counted into the next pass's
    /// [`EvalStats::stats_refreshes`].
    pub(crate) fn refresh_planner_stats(&mut self) -> bool {
        if !self.config.cost_planner {
            return false;
        }
        self.planner_stats();
        true
    }

    /// A fresh planner-statistics snapshot over the session's current
    /// relations, refreshing the lazy cache if facts moved since the
    /// last refresh. Available regardless of
    /// [`EvalConfig::cost_planner`], so the estimates can be inspected
    /// (`:planner stats` in `lpsi`) even with planning off.
    pub fn planner_stats(&mut self) -> &Stats {
        let (stats, refreshed) = self.stats_cache.refreshed(&self.edb, &self.full);
        if refreshed {
            self.planner_pending.stats_refreshes += 1;
        }
        stats
    }

    /// Drain the planner counters accumulated by compiles since the
    /// last pass epilogue, to be absorbed into that pass's stats.
    pub(crate) fn take_planner_counters(&mut self) -> EvalStats {
        std::mem::take(&mut self.planner_pending)
    }

    /// Statistics from the most recent evaluation pass (batch run or
    /// incremental update) that performed work.
    pub fn stats(&self) -> EvalStats {
        self.last_stats
    }

    /// Statistics accumulated over the whole session: the initial
    /// materialization plus every incremental update since.
    pub fn cumulative_stats(&self) -> EvalStats {
        self.cumulative_stats
    }

    /// Zero both the last-pass and the session-cumulative statistics
    /// (`:stats reset` in `lpsi`). The max-merged cumulative
    /// `misestimate_ratio` restarts from zero instead of pinning its
    /// all-time high forever.
    pub fn reset_stats(&mut self) {
        self.last_stats = EvalStats::default();
        self.cumulative_stats = EvalStats::default();
    }

    /// Register (or look up) a predicate by name and arity.
    pub fn pred(&mut self, name: &str, arity: usize) -> PredId {
        let sym = self.store.symbols_mut().intern(name);
        self.pred_sym(sym, arity)
    }

    /// [`Engine::pred`] for a name already interned in this engine's
    /// store.
    fn pred_sym(&mut self, sym: Symbol, arity: usize) -> PredId {
        let id = self.preds.register(sym, arity);
        while self.full.len() <= id.index() {
            self.edb.push(Relation::new(0));
            self.full.push(Relation::new(0));
            self.edb_synced.push(0);
        }
        // (Re)size the relation if this is the first registration.
        if self.full[id.index()].arity() != arity && self.full[id.index()].is_empty() {
            self.edb[id.index()] = Relation::new(arity);
            self.full[id.index()] = Relation::new(arity);
        }
        id
    }

    /// Predicate metadata.
    pub fn pred_name(&self, id: PredId) -> String {
        self.store
            .symbols()
            .name(self.preds.info(id).name)
            .to_owned()
    }

    /// Look up a registered predicate.
    pub fn lookup_pred(&self, name: &str, arity: usize) -> Option<PredId> {
        let sym = self.store.symbols().get(name)?;
        self.preds.get(sym, arity)
    }

    /// The predicate registry.
    pub fn preds(&self) -> &PredRegistry {
        &self.preds
    }

    /// Load a ground fact. It joins the EDB past the predicate's
    /// cursor: the next batch evaluation, demand query or
    /// [`Engine::update`] absorbs it. After a completed fixpoint a
    /// fact the model does not already hold marks the session
    /// [`EngineState::Dirty`].
    pub fn fact(&mut self, pred: PredId, tuple: Vec<TermId>) -> Result<(), EngineError> {
        self.facts(pred, [tuple.as_slice()])
    }

    /// [`Engine::fact`] for rows already interned in this engine's
    /// store, without a `Vec` per row.
    fn facts<'r>(
        &mut self,
        pred: PredId,
        rows: impl IntoIterator<Item = &'r [TermId]>,
    ) -> Result<(), EngineError> {
        let arity = self.preds.info(pred).arity;
        self.stats_cache.invalidate();
        for row in rows {
            if row.len() != arity {
                return Err(EngineError::ArityMismatch {
                    pred: self.pred_name(pred),
                    expected: arity,
                    got: row.len(),
                });
            }
            self.edb[pred.index()].insert(row);
            if self.state == EngineState::Materialized && !self.full[pred.index()].contains(row) {
                self.state = EngineState::Dirty;
            }
        }
        Ok(())
    }

    /// Load every row of `batch`, interned in this engine's store,
    /// registering its predicates: the bulk entry that seeds a session
    /// from a fact base.
    pub fn load_batch(&mut self, batch: &FactBatch) -> Result<(), EngineError> {
        for p in batch.preds() {
            let id = self.pred_sym(p.name, p.arity);
            self.facts(id, p.rows())?;
        }
        Ok(())
    }

    /// Add a rule. Arity consistency is checked against the registry.
    pub fn rule(&mut self, rule: Rule) -> Result<(), EngineError> {
        let arity = self.preds.info(rule.head).arity;
        if rule.head_args.len() != arity {
            return Err(EngineError::ArityMismatch {
                pred: self.pred_name(rule.head),
                expected: arity,
                got: rule.head_args.len(),
            });
        }
        for lit in rule.all_body_lits() {
            let (pred, n) = match lit {
                crate::rule::BodyLit::Pos(p, args) | crate::rule::BodyLit::Neg(p, args) => {
                    (*p, args.len())
                }
                crate::rule::BodyLit::Builtin(b, args) => {
                    if args.len() != b.arity() {
                        return Err(EngineError::ArityMismatch {
                            pred: b.name().to_owned(),
                            expected: b.arity(),
                            got: args.len(),
                        });
                    }
                    continue;
                }
            };
            let expected = self.preds.info(pred).arity;
            if n != expected {
                return Err(EngineError::ArityMismatch {
                    pred: self.pred_name(pred),
                    expected,
                    got: n,
                });
            }
        }
        self.rules.push(rule);
        // The rule set changed: cached plans (batch and per-adornment
        // demand plans alike) and any materialized model are stale.
        // The next run restratifies, recompiles, and rebuilds the
        // model from the EDB; the next query re-derives its rewrite.
        self.prepared = None;
        self.clear_query_plans();
        self.state = EngineState::Unmaterialized;
        Ok(())
    }

    /// Reach the least model.
    ///
    /// * [`EngineState::Unmaterialized`]: batch evaluation — stratify
    ///   and compile if not cached, rebuild the model from the EDB, run
    ///   every stratum to fixpoint.
    /// * [`EngineState::Dirty`]: delegates to [`Engine::update`] — the
    ///   facts past the EDB cursor are reconciled incrementally.
    /// * [`EngineState::Materialized`]: a cheap no-op — the fixpoint is
    ///   already reached; returns zeroed stats and leaves the model
    ///   (and [`Engine::stats`]) untouched.
    pub fn run(&mut self) -> Result<EvalStats, EngineError> {
        if self.state == EngineState::Materialized {
            return Ok(EvalStats::default());
        }
        self.materialize_universe()?;
        match self.state {
            EngineState::Dirty => self.update_incremental(),
            _ => self.run_batch(),
        }
    }

    /// Reconcile facts added since the last completed fixpoint.
    ///
    /// Seeds the semi-naive drivers with the EDB rows past the cursor
    /// and re-runs only from the lowest affected stratum onward,
    /// over the retained full relations. Falls back to a batch
    /// recompute (from the EDB) when a non-monotone rule — negation or
    /// grouping — sits at or above the restart stratum, since a
    /// monotone continuation cannot retract tuples. With no model
    /// materialized yet this is a batch run; with no fact new to the
    /// model it is a no-op returning zeroed stats. Equivalent to
    /// [`Engine::run`] — both entry points resolve the session state
    /// the same way.
    pub fn update(&mut self) -> Result<EvalStats, EngineError> {
        self.run()
    }

    /// Drop all facts — the EDB and the materialized model — while
    /// keeping the rules and their compiled *batch* plans. The session
    /// returns to [`EngineState::Unmaterialized`], and the next run
    /// skips restratification and recompilation.
    ///
    /// Demand plans are routed through the eviction path
    /// ([`Engine::clear_query_plans`]): their retained fixpoints are
    /// invalid without the facts, and dropping them reclaims the
    /// adorned/magic relation slots — a long session alternating
    /// `reset` and queries must not accumulate demand-space memory.
    pub fn reset_facts(&mut self) {
        self.clear_query_plans();
        self.stats_cache.invalidate();
        for i in 0..self.preds.len() {
            self.edb[i].clear();
            self.full[i].clear();
            self.edb_synced[i] = 0;
        }
        self.state = EngineState::Unmaterialized;
    }

    /// The compile prelude of every program the session runs — the
    /// batch program, a demand rewrite, a conjunctive goal: refresh the
    /// planner statistics when the cost planner is on, compile with
    /// them (`None` = textual order), and fold the program's planner
    /// accounting into the pending counters.
    pub(crate) fn compile(
        &mut self,
        compile: impl FnOnce(&Self, Option<&Stats>) -> Result<CompiledProgram, EngineError>,
    ) -> Result<CompiledProgram, EngineError> {
        let cost_on = self.refresh_planner_stats();
        let program = compile(self, cost_on.then(|| self.stats_cache.current()))?;
        let pending = &mut self.planner_pending;
        pending.reorders_applied += program.reorders_applied;
        pending.estimated_rows = pending
            .estimated_rows
            .saturating_add(program.estimated_rows);
        Ok(program)
    }

    /// Stratify and compile `rules` — the batch program or a magic
    /// rewrite. Every registered predicate can gain facts later in the
    /// session, so every positive literal gets a delta variant and
    /// every quantifier-inner predicate is a re-evaluation trigger (in
    /// batch runs the extra variants skip on empty deltas).
    pub(crate) fn compile_rules(
        &self,
        rules: &[Rule],
        cost: Option<&Stats>,
    ) -> Result<CompiledProgram, EngineError> {
        let growable: FxHashSet<PredId> = self.preds.ids().collect();
        compile_program(
            rules,
            self.preds.len(),
            &|p| self.pred_name(p),
            &growable,
            self.config.set_universe,
            cost,
        )
    }

    /// Splice the EDB rows past the cursor into the shared `full`
    /// relations without running the program, advance the cursor,
    /// and return how many rows were new to `full` (a fact the model
    /// already held, say a derived tuple loaded again as a fact, is
    /// not). The demand pipeline reads base predicates (and the EDB
    /// bridges of adorned predicates) from `full`; in a session with
    /// no materialized model `full` holds nothing else for original
    /// predicates, so this is exactly the EDB image. EDB relations are
    /// append-only (until [`Engine::reset_facts`] drops them and
    /// resets the cursors), so repeat syncs — one per demand query or
    /// update — cost O(new facts), not O(EDB).
    pub(crate) fn sync_edb_to_full(&mut self) -> usize {
        let mut new = 0;
        for i in 0..self.preds.len() {
            let end = self.edb[i].len() as u32;
            for r in self.edb_synced[i]..end {
                if self.full[i].insert(self.edb[i].row(r)) {
                    new += 1;
                }
            }
            self.edb_synced[i] = end;
        }
        new
    }

    /// Size the per-predicate relation vectors up to the registry —
    /// needed after the magic rewrite registers adorned predicates
    /// directly in the registry.
    pub(crate) fn sync_relation_slots(&mut self) {
        // Recycled registry slots (plan eviction) may have been
        // re-registered at a different arity; refresh their relations.
        // Eviction already emptied them, so nothing can be lost — the
        // `is_empty` guard is belt and braces.
        for i in 0..self.full.len() {
            let arity = self.preds.info(PredId::from_index(i)).arity;
            if self.full[i].arity() != arity && self.full[i].is_empty() {
                self.edb[i] = Relation::new(arity);
                self.full[i] = Relation::new(arity);
                self.edb_synced[i] = 0;
            }
        }
        for i in self.full.len()..self.preds.len() {
            let arity = self.preds.info(PredId::from_index(i)).arity;
            self.edb.push(Relation::new(arity));
            self.full.push(Relation::new(arity));
            self.edb_synced.push(0);
        }
    }

    /// Materialize the bounded powerset universe if configured. Run
    /// once before every evaluation pass (by [`Engine::run`], or by
    /// [`Engine::begin_query`] for a demand pass and the batch run an
    /// obstructed query falls back to): idempotent, and monotone in the
    /// atom domain, so incremental updates that intern new atoms extend
    /// the universe in place.
    pub(crate) fn materialize_universe(&mut self) -> Result<(), EngineError> {
        if let SetUniverse::ActiveSubsets { max_card } = self.config.set_universe {
            #[cfg(test)]
            {
                self.universe_scans += 1;
            }
            let atoms: Vec<TermId> = self
                .store
                .ids()
                .filter(|&id| self.store.is_atomic(id))
                .collect();
            if atoms.len() > MAX_POWERSET_ATOMS {
                return Err(EngineError::UniverseTooLarge {
                    atoms: atoms.len(),
                    max: MAX_POWERSET_ATOMS,
                });
            }
            setops::subsets_up_to(&mut self.store, &atoms, max_card);
        }
        Ok(())
    }

    /// Stratify and compile the rule set, caching the result. A no-op
    /// when a compile is cached.
    fn prepare(&mut self) -> Result<(), EngineError> {
        if self.prepared.is_none() {
            self.prepared = Some(self.compile(|e, cost| e.compile_rules(&e.rules, cost))?);
        }
        Ok(())
    }

    /// Batch evaluation: rebuild the model from the EDB and run every
    /// stratum to fixpoint with the cached plans. The caller has
    /// materialized the universe for this pass.
    pub(crate) fn run_batch(&mut self) -> Result<EvalStats, EngineError> {
        self.prepare()?;
        // A materialized session answers every query from its model
        // until a fact reset or a rule change, and both evict the
        // demand plans anyway: evict them now, reclaiming their
        // relations and registry slots.
        self.clear_query_plans();
        // The rebuild absorbs every EDB row.
        for (cursor, rel) in self.edb_synced.iter_mut().zip(&self.edb) {
            *cursor = rel.len() as u32;
        }
        // Reset the model to the extensional facts, which count as
        // derived (they are part of `T_P ↑ ω`'s base), and run the
        // prepared program over them.
        self.full.clone_from(&self.edb);
        let mut stats = EvalStats {
            facts_derived: self.edb.iter().map(Relation::len).sum(),
            ..EvalStats::default()
        };
        let program = self.prepared.as_ref().expect("prepare() just ran");
        stats.absorb(run_strata(
            &mut self.store,
            &mut self.full,
            &self.config,
            program,
            Start::Batch { magic_preds: &[] },
            None,
        )?);
        self.finish(stats)
    }

    /// Incremental update: splice the EDB rows past the cursor into the
    /// model, then continue the semi-naive fixpoint from the lowest
    /// affected stratum with the delta windows opened on exactly the
    /// rows new to the model. The caller has materialized the
    /// universe for this pass.
    fn update_incremental(&mut self) -> Result<EvalStats, EngineError> {
        // Splice, remembering each relation's previous length: rows
        // past the snapshot are this update's seed set, and the
        // predicates they belong to decide the restart.
        let snapshot: Vec<u32> = self.full.iter().map(|r| r.len() as u32).collect();
        let seeded = self.sync_edb_to_full();
        let changed = (0..self.preds.len())
            .map(PredId::from_index)
            .filter(|p| self.full[p.index()].len() as u32 > snapshot[p.index()]);
        let universe_grew = self.store.set_ids().len() > self.sets_at_materialize;
        let program = self
            .prepared
            .as_ref()
            .expect("a materialized session is prepared");
        // New interned sets can re-fire universe-enumerating rules even
        // below the lowest fact-affected stratum; `restart_stratum`
        // folds that in.
        let start = program.restart_stratum(changed, universe_grew);
        if start.is_some_and(|s0| program.max_nonmono_stratum.is_some_and(|m| m >= s0)) {
            // Negation or grouping at/above the restart stratum: a
            // monotone continuation cannot retract, so recompute from
            // the EDB.
            return self.run_batch();
        }

        let mut stats = EvalStats {
            delta_seed_facts: seeded,
            facts_derived: seeded,
            ..EvalStats::default()
        };
        if let Some(stratum) = start {
            let from = Start::Seeded {
                stratum,
                sets_baseline: self.sets_at_materialize,
                base_lens: &snapshot,
            };
            stats.absorb(run_strata(
                &mut self.store,
                &mut self.full,
                &self.config,
                program,
                from,
                None,
            )?);
        }

        stats.incremental_runs = 1;
        self.finish(stats)
    }

    /// Common epilogue of every evaluation pass.
    fn finish(&mut self, mut stats: EvalStats) -> Result<EvalStats, EngineError> {
        stats.absorb(self.take_planner_counters());
        self.stats_cache.invalidate();
        self.state = EngineState::Materialized;
        self.sets_at_materialize = self.store.set_ids().len();
        stats.seal_misestimate();
        self.last_stats = stats;
        self.cumulative_stats.absorb(stats);
        Ok(stats)
    }

    /// The full relation of a predicate (after [`Engine::run`]).
    pub fn relation(&self, pred: PredId) -> &Relation {
        &self.full[pred.index()]
    }

    /// Whether a ground tuple holds.
    pub fn holds(&self, pred: PredId, tuple: &[TermId]) -> bool {
        self.full[pred.index()].contains(tuple)
    }

    /// Borrowing, exact-size iterator over a predicate's tuples
    /// ([`Relation::iter`]) — the cheap counterpart of
    /// [`Engine::extension`] for callers that only need to walk or
    /// count.
    pub fn rows(&self, pred: PredId) -> impl ExactSizeIterator<Item = &[TermId]> {
        self.full[pred.index()].iter()
    }

    /// Extract a predicate's extension as owned [`Value`] rows, sorted
    /// — a stable form for tests and for the Theorem-10/11 equivalence
    /// harness. Prefer [`Engine::rows`] when borrowing suffices.
    pub fn extension(&self, pred: PredId) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = self
            .rows(pred)
            .map(|t| {
                t.iter()
                    .map(|&id| Value::from_store(&self.store, id))
                    .collect()
            })
            .collect();
        rows.sort();
        rows
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::demand::QueryPath;
    use crate::pattern::{Pattern, VarId};
    use crate::rule::BodyLit;

    pub(crate) fn v(i: u32) -> Pattern {
        Pattern::Var(VarId(i))
    }

    pub(crate) fn plain_rule(
        head: PredId,
        head_args: Vec<Pattern>,
        outer: Vec<BodyLit>,
        nv: usize,
    ) -> Rule {
        Rule {
            head,
            head_args,
            group: None,
            outer,
            quant: None,
            num_vars: nv,
            var_names: (0..nv).map(|i| format!("V{i}")).collect(),
            var_sorts: vec![],
        }
    }

    #[test]
    fn transitive_closure() {
        let mut e = Engine::new(EvalConfig::default());
        let edge = e.pred("edge", 2);
        let path = e.pred("path", 2);
        let ids: Vec<TermId> = (0..5)
            .map(|i| e.store_mut().atom(&format!("n{i}")))
            .collect();
        for w in ids.windows(2) {
            e.fact(edge, vec![w[0], w[1]]).unwrap();
        }
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
        let stats = e.run().unwrap();
        // 4+3+2+1 = 10 paths.
        assert_eq!(e.rows(path).count(), 10);
        assert!(e.holds(path, &[ids[0], ids[4]]));
        assert!(!e.holds(path, &[ids[4], ids[0]]));
        assert!(stats.iterations >= 3, "chain of length 4 needs rounds");
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let mut e = Engine::new(EvalConfig::default());
        let p = e.pred("p", 2);
        let a = e.store_mut().atom("a");
        let err = e.fact(p, vec![a]).unwrap_err();
        assert!(matches!(err, EngineError::ArityMismatch { .. }));
    }

    pub(crate) fn tc_engine() -> (Engine, PredId, PredId, Vec<TermId>) {
        tc_engine_with(EvalConfig::default())
    }

    /// The `edge`/`path` chain over `n0 → … → n4`, under `config`.
    pub(crate) fn tc_engine_with(config: EvalConfig) -> (Engine, PredId, PredId, Vec<TermId>) {
        let mut e = Engine::new(config);
        let edge = e.pred("edge", 2);
        let path = e.pred("path", 2);
        let ids: Vec<TermId> = (0..5)
            .map(|i| e.store_mut().atom(&format!("n{i}")))
            .collect();
        for w in ids.windows(2) {
            e.fact(edge, vec![w[0], w[1]]).unwrap();
        }
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
        (e, edge, path, ids)
    }

    #[test]
    fn second_run_is_a_cheap_noop() {
        // Regression: `run()` used to recompute (and with stale state,
        // corrupt) the model when called twice. Now an unchanged,
        // materialized session reports zero work and an identical
        // model.
        let (mut e, _, path, _) = tc_engine();
        e.run().unwrap();
        assert_eq!(e.state(), EngineState::Materialized);
        let before = e.extension(path);
        let cumulative = e.cumulative_stats();
        let stats = e.run().unwrap();
        assert_eq!(stats, EvalStats::default(), "no work on a reached fixpoint");
        assert_eq!(e.extension(path), before);
        assert_eq!(
            e.cumulative_stats(),
            cumulative,
            "the no-op run must not even touch the counters"
        );
    }

    #[test]
    fn incremental_update_continues_from_the_retained_model() {
        let (mut e, edge, path, ids) = tc_engine();
        e.run().unwrap();
        // New edge n4 → n0 closes the ring: every ordered pair becomes
        // a path.
        e.fact(edge, vec![ids[4], ids[0]]).unwrap();
        assert_eq!(e.state(), EngineState::Dirty);
        let stats = e.update().unwrap();
        assert_eq!(stats.incremental_runs, 1);
        assert_eq!(stats.delta_seed_facts, 1);
        assert_eq!(e.rows(path).len(), 25, "closure of the 5-cycle");
        // Only the new tuples were derived: 1 seeded edge + 15 paths.
        assert_eq!(stats.facts_derived, 16);
        // And the model equals a from-scratch evaluation.
        let (mut fresh, fedge, fpath, fids) = tc_engine();
        fresh.fact(fedge, vec![fids[4], fids[0]]).unwrap();
        fresh.run().unwrap();
        assert_eq!(e.extension(path), fresh.extension(fpath));
        let inc: Vec<Vec<TermId>> = e.rows(path).map(<[_]>::to_vec).collect();
        let mut inc = inc;
        inc.sort();
        let mut batch: Vec<Vec<TermId>> = fresh.rows(fpath).map(<[_]>::to_vec).collect();
        batch.sort();
        assert_eq!(inc, batch, "bit-identical interned tuples");
    }

    #[test]
    fn duplicate_fact_after_run_stays_clean() {
        let (mut e, edge, _, ids) = tc_engine();
        e.run().unwrap();
        // Re-adding a known fact queues nothing.
        e.fact(edge, vec![ids[0], ids[1]]).unwrap();
        assert_eq!(e.state(), EngineState::Materialized);
        assert_eq!(e.update().unwrap(), EvalStats::default());
    }

    /// Check the EDB cursor invariant — `full[i]` holds `edb[i]`'s rows
    /// before the cursor — and report whether any EDB row is past it.
    fn rows_past_cursor(e: &Engine) -> bool {
        let mut past = false;
        for (i, rel) in e.edb.iter().enumerate() {
            let cursor = e.edb_synced[i];
            for r in 0..cursor {
                assert!(e.full[i].contains(rel.row(r)), "absorbed row missing");
            }
            past |= rel.len() > cursor as usize;
        }
        past
    }

    #[test]
    fn edb_cursor_tracks_unabsorbed_facts_through_the_lifecycle() {
        const CHAIN: [(usize, usize); 4] = [(0, 1), (1, 2), (2, 3), (3, 4)];
        let (mut e, edge, path, ids) = tc_engine();
        // `path` rows matching `args` in a fresh batch engine whose
        // facts are exactly `edges` and `paths`.
        let batch =
            |edges: &[(usize, usize)], paths: &[(usize, usize)], args: [Option<usize>; 2]| {
                let (mut b, bedge, bpath, bids) = tc_engine();
                b.reset_facts();
                for &(x, y) in edges {
                    b.fact(bedge, vec![bids[x], bids[y]]).unwrap();
                }
                for &(x, y) in paths {
                    b.fact(bpath, vec![bids[x], bids[y]]).unwrap();
                }
                b.run().unwrap();
                b.query(bpath, &args.map(|a| a.map(|i| bids[i])))
                    .unwrap()
                    .rows
                    .sorted()
            };
        let live = |e: &mut Engine, args: [Option<usize>; 2]| {
            e.query(path, &args.map(|a| a.map(|i| ids[i]))).unwrap()
        };
        let clean = |e: &Engine| {
            let clean = e.demand_space_clean();
            assert_eq!(clean, !rows_past_cursor(e));
            clean
        };
        let all = [None, None];
        let mut edges = CHAIN.to_vec();

        // 1. Demand session: a fact between two queries waits past the
        //    cursor until the next query syncs it.
        let res = live(&mut e, [Some(2), None]);
        assert_eq!(res.rows.sorted(), batch(&edges, &[], [Some(2), None]));
        assert!(clean(&e));
        e.fact(edge, vec![ids[4], ids[2]]).unwrap();
        edges.push((4, 2));
        assert!(!clean(&e));
        let res = live(&mut e, [Some(2), None]);
        assert_eq!(res.path, QueryPath::Demand);
        assert_eq!(res.rows.sorted(), batch(&edges, &[], [Some(2), None]));
        assert!(clean(&e));

        // 2. A batch run absorbs every EDB row, synced or not.
        e.fact(edge, vec![ids[0], ids[3]]).unwrap();
        edges.push((0, 3));
        assert!(!clean(&e));
        e.run().unwrap();
        assert_eq!(e.state(), EngineState::Materialized);
        assert!(clean(&e));
        assert_eq!(live(&mut e, all).rows.sorted(), batch(&edges, &[], all));

        // 3. A fact the model already holds (a derived path) joins the
        //    EDB past the cursor, but the session stays materialized
        //    and an update has nothing to do.
        e.fact(path, vec![ids[0], ids[2]]).unwrap();
        assert_eq!(e.state(), EngineState::Materialized);
        assert!(!clean(&e));
        assert_eq!(e.update().unwrap(), EvalStats::default());
        let paths = [(0, 2)];
        assert_eq!(live(&mut e, all).rows.sorted(), batch(&edges, &paths, all));

        // 4. A new fact dirties the session; the update seeds exactly
        //    that fact and moves every cursor to the end of its EDB.
        e.fact(edge, vec![ids[2], ids[0]]).unwrap();
        edges.push((2, 0));
        assert_eq!(e.state(), EngineState::Dirty);
        assert!(!clean(&e));
        let stats = e.update().unwrap();
        assert_eq!(stats.incremental_runs, 1);
        assert_eq!(stats.delta_seed_facts, 1);
        assert!(clean(&e));
        assert_eq!(live(&mut e, all).rows.sorted(), batch(&edges, &paths, all));

        // 5. Resetting the facts resets the cursors; the next query
        //    demand-evaluates the facts loaded since.
        e.reset_facts();
        assert!(clean(&e));
        e.fact(edge, vec![ids[1], ids[2]]).unwrap();
        assert!(!clean(&e));
        let res = live(&mut e, [Some(1), None]);
        assert_eq!(res.path, QueryPath::Demand);
        assert_eq!(res.rows.sorted(), batch(&[(1, 2)], &[], [Some(1), None]));
        assert!(clean(&e));
    }

    #[test]
    fn update_with_negation_falls_back_to_a_sound_recompute() {
        // unreachable(X) :- node(X), not reach(X): a monotone
        // continuation cannot retract `unreachable(n2)` when a new edge
        // makes n2 reachable — the old engine silently kept it. The
        // session detects the non-monotone stratum and recomputes.
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
        e.run().unwrap();
        assert!(e.holds(unreach, &[ids[2]]));
        e.fact(edge, vec![ids[1], ids[2]]).unwrap();
        let stats = e.run().unwrap();
        assert_eq!(stats.incremental_runs, 0, "negation forces the fallback");
        assert!(e.holds(reach, &[ids[2]]));
        assert!(!e.holds(unreach, &[ids[2]]), "stale tuple retracted");
    }

    #[test]
    fn update_not_reading_changed_pred_is_trivial() {
        let (mut e, _, path, _) = tc_engine();
        e.run().unwrap();
        let before = e.rows(path).len();
        // `isolated` feeds no rule: the model is already the least
        // model of the enlarged database.
        let iso = e.pred("isolated", 1);
        let x = e.store_mut().atom("x");
        e.fact(iso, vec![x]).unwrap();
        let stats = e.update().unwrap();
        assert_eq!(stats.incremental_runs, 1);
        assert_eq!(stats.iterations, 0, "no stratum re-ran");
        assert!(e.holds(iso, &[x]));
        assert_eq!(e.rows(path).len(), before);
    }

    #[test]
    fn reset_facts_keeps_rules_and_compiled_plans() {
        let (mut e, edge, path, _) = tc_engine();
        e.run().unwrap();
        e.reset_facts();
        assert_eq!(e.state(), EngineState::Unmaterialized);
        assert_eq!(e.rows(path).len(), 0);
        // Fresh facts evaluate under the cached plans.
        let (a, b) = {
            let st = e.store_mut();
            (st.atom("a"), st.atom("b"))
        };
        e.fact(edge, vec![a, b]).unwrap();
        e.run().unwrap();
        assert!(e.holds(path, &[a, b]));
        assert_eq!(e.rows(path).len(), 1);
    }

    #[test]
    fn rows_is_exact_size_and_matches_tuples() {
        let (mut e, _, path, _) = tc_engine();
        e.run().unwrap();
        let mut rows = e.rows(path);
        assert_eq!(rows.len(), 10);
        rows.next();
        assert_eq!(rows.len(), 9, "len counts the rows left");
        assert_eq!(rows.count(), 9);
    }

    #[test]
    fn grouping_update_falls_back_and_regroups() {
        // owns(P, <C>) :- car(P, C): grouping is non-monotone — adding
        // a car must *replace* alice's set, which only the fallback
        // recompute can do.
        let mut e = Engine::new(EvalConfig::default());
        let car = e.pred("car", 2);
        let owns = e.pred("owns", 2);
        let (alice, c1, c2) = {
            let st = e.store_mut();
            (st.atom("alice"), st.atom("c1"), st.atom("c2"))
        };
        e.fact(car, vec![alice, c1]).unwrap();
        e.rule(Rule {
            head: owns,
            head_args: vec![v(0), v(1)],
            group: Some(crate::rule::GroupSpec {
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
        e.fact(car, vec![alice, c2]).unwrap();
        let stats = e.update().unwrap();
        assert_eq!(stats.incremental_runs, 0, "grouping forces the fallback");
        let both = e.store_mut().set(vec![c1, c2]);
        let only_c1 = e.store_mut().set(vec![c1]);
        assert!(e.holds(owns, &[alice, both]));
        assert!(!e.holds(owns, &[alice, only_c1]), "old group retracted");
    }

    #[test]
    fn reset_stats_zeroes_last_and_cumulative() {
        let (mut e, _, _, _) = tc_engine();
        e.run().unwrap();
        assert_ne!(e.stats(), EvalStats::default());
        assert_ne!(e.cumulative_stats(), EvalStats::default());
        e.reset_stats();
        assert_eq!(e.stats(), EvalStats::default());
        assert_eq!(e.cumulative_stats(), EvalStats::default());
    }

    #[test]
    fn powerset_universe_materializes_on_run() {
        let mut e = Engine::new(EvalConfig {
            set_universe: SetUniverse::ActiveSubsets { max_card: 2 },
            ..EvalConfig::default()
        });
        let item = e.pred("item", 1);
        let a = e.store_mut().atom("a");
        let b = e.store_mut().atom("b");
        e.fact(item, vec![a]).unwrap();
        e.fact(item, vec![b]).unwrap();
        e.run().unwrap();
        // ∅, {a}, {b}, {a,b} all interned.
        assert_eq!(e.store().set_ids().len(), 4);
    }

    #[test]
    fn each_evaluation_pass_scans_the_atom_domain_once() {
        let mut e = Engine::new(EvalConfig {
            set_universe: SetUniverse::ActiveSubsets { max_card: 2 },
            ..EvalConfig::default()
        });
        let item = e.pred("item", 1);
        let tagged = e.pred("tagged", 1);
        let odd = e.pred("odd", 1);
        let a = e.store_mut().atom("a");
        e.fact(item, vec![a]).unwrap();
        e.rule(plain_rule(
            odd,
            vec![v(0)],
            vec![
                BodyLit::Pos(item, vec![v(0)]),
                BodyLit::Neg(tagged, vec![v(0)]),
            ],
            1,
        ))
        .unwrap();
        // An obstructed query on an unmaterialized session: the demand
        // attempt and the batch run it falls back to are one pass.
        let res = e.query(odd, &[None]).unwrap();
        assert_eq!(res.path, QueryPath::Fallback);
        assert_eq!(e.universe_scans, 1);
        // An update whose restart reaches the negation falls back to a
        // batch run: still one pass.
        e.fact(tagged, vec![a]).unwrap();
        e.update().unwrap();
        assert_eq!(e.universe_scans, 2);
        assert!(e.rows(odd).next().is_none());
    }
}
