//! The public evaluation session: register predicates, load facts and
//! rules, run to fixpoint, query results — and keep the result
//! *maintainable*: facts added after a completed fixpoint accumulate
//! as pending deltas, and [`Engine::update`] seeds the semi-naive
//! drivers with them, re-running only from the lowest affected stratum
//! onward over the retained relations instead of recomputing the model
//! from scratch.
//!
//! Demand-driven queries get the same treatment. Point queries
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
//! bounded ([`EvalConfig::demand_plan_cache`]); evicting a plan
//! reclaims its relation slots.

use lps_term::{setops, FxHashMap, FxHashSet, TermId, TermStore, Value};

use crate::config::{EvalConfig, EvalStats, SetUniverse};
use crate::error::EngineError;
use crate::eval::StepProfiler;
use crate::fixpoint::{run_stratum, StratumStart};
use crate::magic::{self, MagicOutcome};
use crate::plan::{compile_program, compile_rule, CompiledProgram, Step};
use crate::pred::{PredId, PredRegistry};
use crate::relation::{ColMask, Relation};
use crate::rule::{BodyLit, Rule};
use crate::stats::{Stats, StatsCache};

/// Lifecycle of an [`Engine`] session.
///
/// ```text
/// Unprepared ──prepare──▶ Prepared ──run──▶ Materialized ──fact──▶ Dirty
///      ▲                      ▲                  │  ▲                │
///      └───────── rule ───────┴── reset_facts ───┘  └──── update ────┘
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineState {
    /// Rules changed since the last prepare: the next run restratifies
    /// and recompiles.
    Unprepared,
    /// Stratification, compiled rules, and index requests are cached;
    /// no model is materialized yet (fresh prepare, or after
    /// [`Engine::reset_facts`]).
    Prepared,
    /// A least model is materialized and current.
    Materialized,
    /// A model is materialized, but facts added since then wait in the
    /// pending deltas; [`Engine::update`] reconciles incrementally.
    Dirty,
}

/// Cached prepare-phase artifacts: everything derived from the rule
/// set alone. Reused across batch runs and incremental updates;
/// invalidated only when a rule is added (or the universe policy
/// changes, which affects compilation).
#[derive(Debug)]
struct Prepared {
    /// The loaded rule set, stratified and compiled.
    program: CompiledProgram,
    /// The universe policy the rules were compiled under.
    policy: SetUniverse,
    /// Whether the rules were compiled with cost-based join ordering
    /// ([`EvalConfig::cost_planner`]); a flip recompiles.
    cost_planner: bool,
}

/// Key of the demand plan cache: the queried predicate (or the
/// dedicated shape predicate of a conjunctive goal) and the bound-
/// position mask.
type PlanKey = (PredId, ColMask);

/// One entry of the per-adornment demand plan cache.
#[derive(Debug)]
enum QueryEntry {
    /// The magic-rewritten, compiled program for this query pattern.
    Demand(Box<QueryPlan>),
    /// The rewrite is inapplicable (non-monotone construct reachable
    /// from the query) or unplannable: queries with this pattern
    /// evaluate by full materialization.
    Fallback,
}

/// A compiled demand plan: the specialized program for one
/// `(predicate, adornment)` query pattern, together with the state of
/// its *retained* demand space (the adorned/magic relations kept alive
/// across queries).
#[derive(Debug)]
struct QueryPlan {
    program: CompiledProgram,
    /// The magic predicate seeded with the query's bound arguments
    /// (`None` for the all-free adornment).
    magic_seed: Option<PredId>,
    /// The adorned query predicate holding the answers.
    answer: PredId,
    /// Adorned + magic predicates — the relation space a cold run
    /// clears before deriving (and a warm continuation retains).
    space: Vec<PredId>,
    /// The magic subset of `space` (demand-seed statistics).
    magic_preds: Vec<PredId>,
    /// `(pred, adornment)` pairs the rewrite compiled.
    adornments: usize,
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
    /// Per-[`QueryPlan::tracked`] `full`-relation length at the last
    /// completed fixpoint: rows past the snapshot are the next
    /// continuation's seed set.
    base_lens: Vec<u32>,
    /// Interned-set count at the last completed fixpoint (baseline for
    /// universe-growth triggers, mirroring the incremental update
    /// path).
    sets_base: usize,
}

impl QueryPlan {
    /// The retained-fixpoint baseline length for `p` (0 for untracked
    /// predicates — only reachable when a plan was never live).
    fn base_len(&self, p: PredId) -> u32 {
        self.tracked
            .iter()
            .position(|&q| q == p)
            .map_or(0, |i| self.base_lens[i])
    }

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
            .filter(|&p| full[p.index()].len() as u32 > self.base_len(p));
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
    /// incrementally first if facts were pending).
    Materialized,
    /// The demand rewrite was inapplicable; the engine fell back to a
    /// sound full materialization and filtered.
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
/// assert_eq!(engine.tuples(path).count(), 3);
/// // The session stays maintainable: a fact added after the fixpoint
/// // queues as a pending delta, and `update` re-reaches the least
/// // model incrementally instead of recomputing it.
/// let d = engine.store_mut().atom("d");
/// engine.fact(edge, vec![c, d]).unwrap();
/// let stats = engine.update().unwrap();
/// assert_eq!(stats.incremental_runs, 1);
/// assert!(engine.holds(path, &[a, d]));
/// assert_eq!(engine.rows(path).len(), 6);
/// ```
#[derive(Debug)]
pub struct Engine {
    store: TermStore,
    preds: PredRegistry,
    /// Extensional facts loaded via [`Engine::fact`] — the session's
    /// EDB, kept apart from derived tuples so batch runs (and the
    /// non-monotone fallback) can rebuild the model from scratch.
    edb: Vec<Relation>,
    /// The materialized model: EDB plus derived tuples.
    full: Vec<Relation>,
    /// Semi-naive working deltas.
    delta: Vec<Relation>,
    /// Facts added after a completed fixpoint, awaiting
    /// [`Engine::update`].
    pending: Vec<Relation>,
    /// Per-predicate count of EDB rows already mirrored into `full` by
    /// the demand pipeline's [`Engine::sync_edb_to_full`]; reset with
    /// the facts.
    edb_synced: Vec<u32>,
    rules: Vec<Rule>,
    config: EvalConfig,
    state: EngineState,
    prepared: Option<Prepared>,
    /// Per-adornment demand plans: the magic-rewritten, compiled
    /// program for each `(pred, bound-mask)` query pattern seen
    /// (conjunctive goals enter under their dedicated shape
    /// predicate). Bounded by [`EvalConfig::demand_plan_cache`];
    /// invalidated with `prepared` on rule changes, and on universe
    /// policy changes.
    query_plans: FxHashMap<PlanKey, QueryEntry>,
    /// LRU order over `query_plans` keys, least-recently-used first.
    query_lru: Vec<PlanKey>,
    /// Conjunctive goal shapes ([`magic::goal_shape_key`]) → the
    /// dedicated `query#shape#…` head predicate registered for the
    /// shape. An entry lives exactly as long as the shape's cached
    /// plan: evicting the plan drops the entry and releases the shape
    /// predicate's registry slot ([`PredRegistry::release`]) for reuse,
    /// so neither this map nor the registry grows with the number of
    /// distinct shapes ever queried — only with the live plan cache.
    conj_shapes: FxHashMap<String, PredId>,
    /// The universe policy the cached query plans were compiled under.
    query_policy: SetUniverse,
    /// The [`EvalConfig::cost_planner`] flag the cached query plans
    /// were compiled under; a flip drops and recompiles them (their
    /// join orders and SIPS choices are planner-dependent).
    query_planner: bool,
    /// Lazily refreshed per-predicate cardinality snapshot feeding the
    /// cost-based planner (E16): invalidated (cheaply) whenever facts
    /// move, re-read from the relations at the next compile that needs
    /// it.
    stats_cache: StatsCache,
    /// Planner counters (reorders, estimated rows, stats refreshes)
    /// accumulated by compiles since the last pass epilogue; flushed
    /// into that pass's [`EvalStats`].
    planner_pending: EvalStats,
    /// Shadow model for non-monotone (fallback) queries: a full
    /// materialization kept *beside* the live relations, so answering
    /// a query whose rewrite is obstructed does not rebuild `full`,
    /// does not flip the session to `Materialized`, and — the point —
    /// does not put sibling plans' retained demand spaces back to
    /// cold. Rebuilt lazily; [`Engine::fallback_config`] tracks
    /// staleness.
    fallback_full: Vec<Relation>,
    /// Semi-naive working deltas of the shadow model.
    fallback_delta: Vec<Relation>,
    /// The configuration the shadow model was materialized under;
    /// `None` = stale (facts or rules changed since, or never built).
    fallback_config: Option<EvalConfig>,
    /// Interned-set count at the last completed materialization (the
    /// baseline for universe-growth triggers in incremental updates).
    sets_at_materialize: usize,
    /// The configuration the model was materialized under: a
    /// [`Engine::config_mut`] change after that voids the
    /// `Materialized`/`Dirty` short-circuits and forces a rebuild.
    config_at_materialize: EvalConfig,
    last_stats: EvalStats,
    cumulative_stats: EvalStats,
    /// Per-literal profile of the last query run with
    /// [`EvalConfig::profile`] on; `None` when the last query was not
    /// profiled (or fell back to the shadow model, which runs no
    /// demand plan to attribute).
    last_profile: Option<QueryProfile>,
}

/// Estimated-vs-actual accounting for one positive body literal of a
/// profiled query's demand plan, in the planner's chosen join order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiteralProfile {
    /// Predicate the literal probes (adorned/magic relations keep
    /// their rewrite names, so the demand structure stays visible).
    pub pred: String,
    /// The planner's row estimate for this probe (0 when compiled
    /// without statistics).
    pub estimated_rows: u64,
    /// Index probes (or scans) actually performed across every round
    /// of the run.
    pub probes: u64,
    /// Rows those probes actually yielded.
    pub actual_rows: u64,
}

/// Per-rule slice of a [`QueryProfile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleProfile {
    /// Head predicate of the (rewritten) rule.
    pub head: String,
    /// Positive literals in chosen join order.
    pub literals: Vec<LiteralProfile>,
}

/// What [`EvalConfig::profile`] buys: the chosen demand plan's
/// estimated rows per body literal next to what evaluation actually
/// probed — the planner's predictions held up against ground truth
/// (`:profile` in `lpsi`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryProfile {
    /// One entry per rewritten rule that has positive body literals.
    pub rules: Vec<RuleProfile>,
}

/// Hard cap on the atom-domain size for the `ActiveSubsets` powerset
/// materialization (2^20 sets is already a million).
const MAX_POWERSET_ATOMS: usize = 20;

impl Engine {
    /// New session with the given configuration.
    pub fn new(config: EvalConfig) -> Self {
        Engine {
            store: TermStore::new(),
            preds: PredRegistry::new(),
            edb: Vec::new(),
            full: Vec::new(),
            delta: Vec::new(),
            pending: Vec::new(),
            edb_synced: Vec::new(),
            rules: Vec::new(),
            config,
            state: EngineState::Unprepared,
            prepared: None,
            query_plans: FxHashMap::default(),
            query_lru: Vec::new(),
            conj_shapes: FxHashMap::default(),
            query_policy: config.set_universe,
            query_planner: config.cost_planner,
            stats_cache: StatsCache::default(),
            planner_pending: EvalStats::default(),
            fallback_full: Vec::new(),
            fallback_delta: Vec::new(),
            fallback_config: None,
            sets_at_materialize: 0,
            config_at_materialize: config,
            last_stats: EvalStats::default(),
            cumulative_stats: EvalStats::default(),
            last_profile: None,
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

    /// The evaluation configuration.
    pub fn config(&self) -> &EvalConfig {
        &self.config
    }

    /// Mutable access to the configuration (before calling
    /// [`Engine::run`]).
    pub fn config_mut(&mut self) -> &mut EvalConfig {
        &mut self.config
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
    fn refresh_planner_stats(&mut self) -> bool {
        if !self.config.cost_planner {
            return false;
        }
        let (_, refreshed) = self.stats_cache.refreshed(&self.edb, &self.full);
        if refreshed {
            self.planner_pending.stats_refreshes += 1;
        }
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
    fn take_planner_counters(&mut self) -> EvalStats {
        std::mem::take(&mut self.planner_pending)
    }

    /// Fold a compiled program's planner accounting into the pending
    /// counters.
    fn account_compile(&mut self, reorders: usize, estimated_rows: usize) {
        self.planner_pending.reorders_applied += reorders;
        self.planner_pending.estimated_rows = self
            .planner_pending
            .estimated_rows
            .saturating_add(estimated_rows);
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

    /// The per-literal profile of the most recent query run with
    /// [`EvalConfig::profile`] on; `None` if the last query was not
    /// profiled or took the fallback path (no demand plan to
    /// attribute).
    pub fn last_profile(&self) -> Option<&QueryProfile> {
        self.last_profile.as_ref()
    }

    /// Register (or look up) a predicate by name and arity.
    pub fn pred(&mut self, name: &str, arity: usize) -> PredId {
        let sym = self.store.symbols_mut().intern(name);
        let id = self.preds.register(sym, arity);
        while self.full.len() <= id.index() {
            self.edb.push(Relation::new(0));
            self.full.push(Relation::new(0));
            self.delta.push(Relation::new(0));
            self.pending.push(Relation::new(0));
            self.edb_synced.push(0);
        }
        // (Re)size the relation if this is the first registration.
        if self.full[id.index()].arity() != arity && self.full[id.index()].is_empty() {
            self.edb[id.index()] = Relation::new(arity);
            self.full[id.index()] = Relation::new(arity);
            self.delta[id.index()] = Relation::new(arity);
            self.pending[id.index()] = Relation::new(arity);
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

    /// Load a ground fact. Before the first run it joins the EDB to be
    /// picked up by the next batch evaluation; after a completed
    /// fixpoint it queues as a pending delta and marks the session
    /// [`EngineState::Dirty`], to be reconciled by [`Engine::update`].
    pub fn fact(&mut self, pred: PredId, tuple: Vec<TermId>) -> Result<(), EngineError> {
        let arity = self.preds.info(pred).arity;
        if tuple.len() != arity {
            return Err(EngineError::ArityMismatch {
                pred: self.pred_name(pred),
                expected: arity,
                got: tuple.len(),
            });
        }
        self.edb[pred.index()].insert(&tuple);
        self.stats_cache.invalidate();
        self.fallback_config = None;
        if matches!(self.state, EngineState::Materialized | EngineState::Dirty)
            && !self.full[pred.index()].contains(&tuple)
        {
            self.pending[pred.index()].insert(&tuple);
            self.state = EngineState::Dirty;
        }
        Ok(())
    }

    /// Convenience: load a fact with owned [`Value`] arguments.
    pub fn fact_values(&mut self, pred: PredId, values: &[Value]) -> Result<(), EngineError> {
        let tuple: Vec<TermId> = values.iter().map(|v| v.intern(&mut self.store)).collect();
        self.fact(pred, tuple)
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
        self.fallback_config = None;
        self.state = EngineState::Unprepared;
        Ok(())
    }

    /// Reach the least model.
    ///
    /// * [`EngineState::Unprepared`] / [`EngineState::Prepared`]: batch
    ///   evaluation — stratify and compile if not cached, rebuild the
    ///   model from the EDB, run every stratum to fixpoint.
    /// * [`EngineState::Dirty`]: delegates to [`Engine::update`] — the
    ///   pending facts are reconciled incrementally.
    /// * [`EngineState::Materialized`]: a cheap no-op — the fixpoint is
    ///   already reached; returns zeroed stats and leaves the model
    ///   (and [`Engine::stats`]) untouched.
    ///
    /// A configuration changed via [`Engine::config_mut`] after a
    /// materialization voids the short-circuits: the model is rebuilt
    /// under the new settings.
    pub fn run(&mut self) -> Result<EvalStats, EngineError> {
        if matches!(self.state, EngineState::Materialized | EngineState::Dirty)
            && self.config != self.config_at_materialize
        {
            // The materialized model was computed under a different
            // configuration; `prepare` re-checks the universe policy.
            return self.run_batch();
        }
        match self.state {
            EngineState::Materialized => Ok(EvalStats::default()),
            EngineState::Dirty => self.update_incremental(),
            EngineState::Unprepared | EngineState::Prepared => self.run_batch(),
        }
    }

    /// Reconcile facts added since the last completed fixpoint.
    ///
    /// Seeds the semi-naive drivers with the per-predicate pending
    /// deltas and re-runs only from the lowest affected stratum onward,
    /// over the retained full relations. Falls back to a batch
    /// recompute (from the EDB) when a non-monotone rule — negation or
    /// grouping — sits at or above the restart stratum, since a
    /// monotone continuation cannot retract tuples. With no model
    /// materialized yet this is a batch run; with nothing pending it is
    /// a no-op returning zeroed stats. Equivalent to [`Engine::run`] —
    /// both entry points resolve the session state the same way.
    pub fn update(&mut self) -> Result<EvalStats, EngineError> {
        self.run()
    }

    /// Drop all facts — EDB, pending deltas, and the materialized
    /// model — while keeping the rules and their compiled *batch*
    /// plans. The session returns to [`EngineState::Prepared`] (or
    /// [`EngineState::Unprepared`] if it was never prepared), so the
    /// next run skips restratification and recompilation.
    ///
    /// Demand plans are routed through the eviction path
    /// ([`Engine::clear_query_plans`]): their retained fixpoints are
    /// invalid without the facts, and dropping them reclaims the
    /// adorned/magic relation slots — a long session alternating
    /// `reset` and queries must not accumulate demand-space memory.
    pub fn reset_facts(&mut self) {
        self.clear_query_plans();
        self.stats_cache.invalidate();
        self.fallback_full.clear();
        self.fallback_delta.clear();
        self.fallback_config = None;
        for i in 0..self.preds.len() {
            self.edb[i].clear();
            self.full[i].clear();
            self.delta[i].clear();
            self.pending[i].clear();
            self.edb_synced[i] = 0;
        }
        self.state = if self.prepared.is_some() {
            EngineState::Prepared
        } else {
            EngineState::Unprepared
        };
    }

    /// Evict every cached demand plan, reclaiming the memory of their
    /// adorned/magic relations and recycling their registry slots
    /// (recompiling a shape later re-registers it, typically into the
    /// freed slots). Returns the number of plans dropped. Called by
    /// [`Engine::reset_facts`], on rule and universe-policy changes,
    /// and available to hosts that want to bound a long-lived session
    /// explicitly.
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
        for entry in self.query_plans.values_mut() {
            if let QueryEntry::Demand(plan) = entry {
                for &p in &plan.space {
                    self.full[p.index()].clear();
                    self.delta[p.index()].clear();
                }
                plan.live = false;
            }
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
    /// [`EvalConfig::demand_plan_cache`]. When the rewrite is
    /// inapplicable (negation or grouping reachable from the query, or
    /// an unplannable rewrite) the engine soundly falls back to full
    /// materialization and filters, counting
    /// [`EvalStats::demand_fallbacks`].
    ///
    /// On a session that already holds a materialized model, the query
    /// answers from it directly (reconciling pending facts through the
    /// incremental update path first) — demand evaluation only pays
    /// off *before* the model exists.
    ///
    /// ```
    /// use lps_engine::{Engine, EvalConfig};
    /// use lps_engine::engine::QueryPath;
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
        let evicted = self.refresh_query_cache_policy();
        let seed: Vec<TermId> = args.iter().flatten().copied().collect();
        let key = (pred, magic::adornment_of(args));
        self.query_demand(key, None, &seed, 0, evicted, |e| {
            let rows = filter_rows(&mut e.fallback_full[pred.index()], args);
            Ok((EvalStats::default(), rows))
        })
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
            // `run` accounted for its own work (no-op, incremental, or
            // rebuild); only the goal evaluation is new here.
            let extra = self.eval_single_rule(&rule, false)?;
            let rows = lookup_rows(&mut self.full[rule.head.index()], 0, &[], 0);
            return Ok(self.finish_query(run, extra, rows, QueryPath::Materialized));
        }
        let evicted = self.refresh_query_cache_policy();
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
        self.query_demand(
            (shape, mask),
            Some(canonical),
            &lifted.consts,
            k,
            evicted,
            |e| {
                // Non-monotone goal: evaluate the original rule over the
                // shadow model — sibling demand plans stay warm.
                let extra = e.eval_single_rule(&rule, true)?;
                let rows = lookup_rows(&mut e.fallback_full[rule.head.index()], 0, &[], 0);
                Ok((extra, rows))
            },
        )
    }

    /// Shared entry of both query front doors: check the goal's arity
    /// against `pred`'s, and on a session that holds a model reconcile
    /// it (`run` resolves pending facts, incrementally when it can, and
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
    /// When the plan is a fallback entry, `shadow` answers over the
    /// freshly ensured shadow model instead, returning its own work
    /// and rows. `evicted` carries the plan evictions the caller's
    /// cache maintenance already performed, so they stay visible in
    /// the pass counters.
    fn query_demand(
        &mut self,
        key: PlanKey,
        goal: Option<Rule>,
        seed: &[TermId],
        skip: usize,
        evicted: usize,
        shadow: impl FnOnce(&mut Self) -> Result<(EvalStats, RowSet), EngineError>,
    ) -> Result<QueryResult, EngineError> {
        let (fresh, inserted_evictions) = self.cached_plan(key, goal);
        let evicted = evicted + inserted_evictions;
        if matches!(self.query_plans[&key], QueryEntry::Fallback) {
            let mut stats = self.ensure_shadow()?;
            let (extra, rows) = shadow(self)?;
            stats.absorb(extra);
            stats.demand_fallbacks = 1;
            stats.plans_evicted += evicted;
            return Ok(self.finish_query(EvalStats::default(), stats, rows, QueryPath::Fallback));
        }
        self.sync_edb_to_full();
        let profiler = self.config.profile.then(StepProfiler::default);
        let (mut stats, answer, adornments) = self.run_plan(key, seed, profiler.as_ref())?;
        if let Some(prof) = &profiler {
            self.last_profile = Some(self.build_profile(key, prof));
        }
        stats.plans_evicted = evicted;
        if fresh {
            stats.adornments_compiled = adornments;
        }
        let rows = lookup_rows(&mut self.full[answer.index()], key.1, seed, skip);
        Ok(self.finish_query(EvalStats::default(), stats, rows, QueryPath::Demand))
    }

    /// Compile-or-touch: make the plan under `key` the most recently
    /// used cache entry, compiling it first if absent. Returns whether
    /// it was compiled and how many plans the insertion evicted.
    fn cached_plan(&mut self, key: PlanKey, goal: Option<Rule>) -> (bool, usize) {
        if self.query_plans.contains_key(&key) {
            self.touch_query_plan(key);
            return (false, 0);
        }
        let entry = self.compile_plan(key, goal);
        (true, self.insert_query_plan(key, entry))
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

    /// Bring the shadow fallback model up to date, returning the
    /// statistics of the materialization pass (zeroed when the shadow
    /// was already fresh). Registry growth since the last build (new
    /// predicates, adorned relations of later rewrites) cannot change
    /// the model — fact and rule changes invalidate it — so stale-free
    /// growth just sizes the vectors.
    fn ensure_shadow(&mut self) -> Result<EvalStats, EngineError> {
        if self.fallback_config != Some(self.config) {
            self.materialize_universe()?;
            self.prepare()?;
            let program = &self.prepared.as_ref().expect("prepare() just ran").program;
            let stats = materialize(
                &mut self.store,
                &self.edb,
                &mut self.fallback_full,
                &mut self.fallback_delta,
                program,
                &self.config,
            )?;
            self.fallback_config = Some(self.config);
            return Ok(stats);
        }
        for i in 0..self.preds.len() {
            let arity = self.preds.info(PredId::from_index(i)).arity;
            if i >= self.fallback_full.len() {
                self.fallback_full.push(Relation::new(arity));
                self.fallback_delta.push(Relation::new(arity));
            } else if self.fallback_full[i].arity() != arity {
                // A recycled registry slot re-registered at another
                // arity; it was emptied on release, nothing is lost.
                self.fallback_full[i] = Relation::new(arity);
                self.fallback_delta[i] = Relation::new(arity);
            }
        }
        Ok(EvalStats::default())
    }

    /// Compile the demand plan under `key`: the magic rewrite rooted at
    /// `key.0` with the `key.1` columns bound, over the program plus —
    /// for a conjunctive shape — the canonical `goal` rule. Registers
    /// the adorned/magic predicates and sizes their relations; any
    /// obstruction or planning failure yields the fallback entry
    /// instead of an error (the batch pipeline will surface real
    /// program errors).
    fn compile_plan(&mut self, (pred, mask): PlanKey, goal: Option<Rule>) -> QueryEntry {
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
            MagicOutcome::Obstructed(_) => return QueryEntry::Fallback,
            MagicOutcome::Rewritten(mp) => mp,
        };
        self.planner_pending.reorders_applied += mp.reorders;
        match self.compile_rewritten(&mp.rules) {
            Ok(program) => QueryEntry::Demand(Box::new(make_plan(program, mp))),
            Err(_) => QueryEntry::Fallback,
        }
    }

    /// Run the cached demand plan under `key` — cold or as a seeded
    /// continuation over its retained space — and return the pass
    /// statistics plus the plan's answer predicate and adornment
    /// count. The plan is taken out of the cache for the duration so
    /// the engine's relation vectors stay freely borrowable.
    fn run_plan(
        &mut self,
        key: PlanKey,
        seed: &[TermId],
        profiler: Option<&StepProfiler>,
    ) -> Result<(EvalStats, PredId, usize), EngineError> {
        let Some(QueryEntry::Demand(mut plan)) = self.query_plans.remove(&key) else {
            unreachable!("run_plan is called on a cached demand entry");
        };
        let result = self.drive_plan(&mut plan, seed, profiler);
        let answer = plan.answer;
        let adornments = plan.adornments;
        self.query_plans.insert(key, QueryEntry::Demand(plan));
        result.map(|stats| (stats, answer, adornments))
    }

    /// Assemble a [`QueryProfile`] from the attribution a profiled
    /// `run_plan` pass collected, after the plan was reinserted under
    /// `key`: per rewritten rule, the planner's per-literal estimates
    /// next to the probes/rows actually observed.
    fn build_profile(&self, key: PlanKey, prof: &StepProfiler) -> QueryProfile {
        let mut rules = Vec::new();
        if let Some(QueryEntry::Demand(plan)) = self.query_plans.get(&key) {
            for cr in &plan.program.compiled {
                if cr.step_estimates.is_empty() {
                    continue;
                }
                let literals = cr
                    .step_estimates
                    .iter()
                    .map(|&(lit, est)| {
                        let pred = match &cr.rule.outer[lit] {
                            BodyLit::Pos(p, _) => *p,
                            other => {
                                unreachable!(
                                    "step_estimates points at positive literals: {other:?}"
                                )
                            }
                        };
                        let (probes, rows) = prof.get(cr.id, lit as u32);
                        LiteralProfile {
                            pred: self.pred_name(pred),
                            estimated_rows: est as u64,
                            probes,
                            actual_rows: rows,
                        }
                    })
                    .collect();
                rules.push(RuleProfile {
                    head: self.pred_name(cr.rule.head),
                    literals,
                });
            }
        }
        QueryProfile { rules }
    }

    /// Describe the demand plan a point query `pred(args)` would run,
    /// without running it: the goal adornment, the SIPS regime the
    /// planner used, and — when the magic rewrite succeeds — every
    /// rewritten rule's chosen join order with the planner's
    /// per-literal row estimates (`~N`). Compiles and caches the plan
    /// if this adornment has never been queried, so a following
    /// [`Engine::query`] call reuses it.
    pub fn explain(
        &mut self,
        pred: PredId,
        args: &[Option<TermId>],
    ) -> Result<String, EngineError> {
        let arity = self.preds.info(pred).arity;
        if args.len() != arity {
            return Err(EngineError::ArityMismatch {
                pred: self.pred_name(pred),
                expected: arity,
                got: args.len(),
            });
        }
        self.materialize_universe()?;
        let mask = magic::adornment_of(args);
        self.refresh_query_cache_policy();
        let key = (pred, mask);
        self.cached_plan(key, None);
        let mut out = String::new();
        out.push_str(&format!(
            "goal: {}/{}  adornment: {}\n",
            self.pred_name(pred),
            arity,
            magic::adornment_string(mask, arity)
        ));
        out.push_str(&format!(
            "sips: {}\n",
            if self.config.cost_planner {
                "cost-based (per-predicate statistics)"
            } else {
                "textual (left-to-right)"
            }
        ));
        match &self.query_plans[&key] {
            QueryEntry::Fallback => {
                out.push_str(
                    "plan: fallback — rewrite obstructed; \
                     the query materializes the shadow model\n",
                );
            }
            QueryEntry::Demand(plan) => {
                out.push_str(&format!(
                    "plan: demand — {} adornments, answer relation {}\n",
                    plan.adornments,
                    self.pred_name(plan.answer)
                ));
                for cr in &plan.program.compiled {
                    if cr.rule.is_fact() {
                        continue;
                    }
                    out.push_str(&format!("  {} :-", self.pred_name(cr.rule.head)));
                    let full = &cr.variants[0];
                    for step in full.steps.iter().chain(&full.post_steps) {
                        let desc = match step {
                            Step::Pos { lit, .. } => {
                                let BodyLit::Pos(p, _) = &cr.rule.outer[*lit] else {
                                    unreachable!("Pos step on a positive literal")
                                };
                                let est = cr
                                    .step_estimates
                                    .iter()
                                    .find(|(l, _)| l == lit)
                                    .map_or(0, |&(_, e)| e);
                                format!(" {}~{}", self.pred_name(*p), est)
                            }
                            Step::NegStep { lit } => {
                                let BodyLit::Neg(p, _) = &cr.rule.outer[*lit] else {
                                    unreachable!("Neg step on a negated literal")
                                };
                                format!(" !{}", self.pred_name(*p))
                            }
                            Step::BuiltinStep { lit, .. } => {
                                let BodyLit::Builtin(b, _) = &cr.rule.outer[*lit] else {
                                    unreachable!("Builtin step on a builtin literal")
                                };
                                format!(" <{}>", b.name())
                            }
                            Step::EnumUniverse { .. } => " <enum-universe>".to_owned(),
                        };
                        out.push_str(&desc);
                    }
                    out.push('\n');
                }
            }
        }
        Ok(out)
    }

    /// Reach the plan's fixpoint for the current seeds and EDB. Two
    /// regimes:
    ///
    /// * **warm** (space live): seeded semi-naive continuation over
    ///   the retained relations, driven by exactly the new tuples —
    ///   O(new demand);
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
        plan: &mut QueryPlan,
        seed: &[TermId],
        profiler: Option<&StepProfiler>,
    ) -> Result<EvalStats, EngineError> {
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
        stats.absorb(if warm {
            self.continue_plan(plan, profiler)?
        } else {
            run_program(
                &mut self.store,
                &mut self.full,
                &mut self.delta,
                &self.config,
                &plan.program,
                &plan.magic_preds,
                profiler,
            )?
        });
        plan.live = true;
        plan.base_lens = plan
            .tracked
            .iter()
            .map(|p| self.full[p.index()].len() as u32)
            .collect();
        plan.sets_base = self.store.set_ids().len();
        // Demand derivations changed the relations the next compile's
        // statistics would read.
        self.stats_cache.invalidate();
        Ok(stats)
    }

    /// Seeded semi-naive continuation over a retained demand space:
    /// find every tracked relation that grew past the plan's baseline —
    /// the newly planted magic seed plus newly synced EDB facts — and
    /// restart from the lowest affected
    /// stratum ([`run_seeded`], as [`Engine::update_incremental`]
    /// does). The rewritten program is monotone by construction (the
    /// obstruction check excluded negation and grouping), so the
    /// continuation is always sound.
    fn continue_plan(
        &mut self,
        plan: &QueryPlan,
        profiler: Option<&StepProfiler>,
    ) -> Result<EvalStats, EngineError> {
        let _continue_span = self.config.trace.then(|| {
            lps_trace::span("demand_continue")
                .arg("tracked", plan.tracked.len())
                .arg("strata", plan.program.strat.num_strata)
        });
        let mut stats = EvalStats {
            demand_continuations: 1,
            ..EvalStats::default()
        };
        for &(p, m, is_delta) in &plan.program.index_requests {
            self.full[p.index()].ensure_index(m);
            if is_delta {
                self.delta[p.index()].ensure_index(m);
            }
        }
        debug_assert!(
            plan.program.max_nonmono_stratum.is_none(),
            "demand rewrites are monotone"
        );
        if let Some(s0) = plan.restart_from(&self.full, self.store.set_ids().len()) {
            stats.absorb(run_seeded(
                &mut self.store,
                &mut self.full,
                &mut self.delta,
                &self.config,
                &plan.program,
                s0,
                plan.sets_base,
                |p| plan.base_len(p),
                profiler,
            )?);
        }
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
            .filter_map(|(&(_, mask), e)| match e {
                QueryEntry::Demand(p) if p.live => Some((p.answer, mask)),
                _ => None,
            })
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
            .filter_map(|(&key, e)| match e {
                QueryEntry::Demand(p) if p.live && p.restart_from(&self.full, sets).is_none() => {
                    Some((key, p.answer, p.magic_seed))
                }
                _ => None,
            })
            .collect()
    }

    /// Snapshot-publisher internals: the positional `full` relations.
    pub(crate) fn full_relations(&self) -> &[Relation] {
        &self.full
    }

    /// Whether every loaded fact has been folded into the model and
    /// the demand spaces: nothing pending for [`Engine::update`], no
    /// EDB rows awaiting the demand pipeline's sync. Retained plan
    /// answers are only publishable when this holds.
    pub(crate) fn demand_space_clean(&self) -> bool {
        self.pending.iter().all(Relation::is_empty)
            && self
                .edb
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
    /// plans beyond [`EvalConfig::demand_plan_cache`] (clamped to ≥ 1).
    /// Returns the number of plans evicted.
    fn insert_query_plan(&mut self, key: PlanKey, entry: QueryEntry) -> usize {
        self.query_plans.insert(key, entry);
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
        let Some(entry) = self.query_plans.remove(&key) else {
            return;
        };
        if let Some(pos) = self.query_lru.iter().position(|&k| k == key) {
            self.query_lru.remove(pos);
        }
        if let QueryEntry::Demand(plan) = entry {
            for &p in &plan.space {
                let arity = self.preds.info(p).arity;
                self.full[p.index()] = Relation::new(arity);
                self.delta[p.index()] = Relation::new(arity);
            }
            self.invalidate_overlapping(&plan.space);
            self.release_plan_preds(&plan.space, key.0);
        } else {
            self.release_plan_preds(&[], key.0);
        }
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
            let referenced = self.query_plans.values().any(|e| match e {
                QueryEntry::Demand(pl) => pl.space.contains(&p) || pl.tracked.contains(&p),
                QueryEntry::Fallback => false,
            });
            if !referenced {
                // Leave the slot's relations empty so a re-register at
                // a different arity can swap them cleanly
                // ([`Engine::sync_relation_slots`]).
                let i = p.index();
                if i < self.full.len() {
                    let arity = self.preds.info(p).arity;
                    self.edb[i] = Relation::new(arity);
                    self.full[i] = Relation::new(arity);
                    self.delta[i] = Relation::new(arity);
                    self.pending[i] = Relation::new(arity);
                    self.edb_synced[i] = 0;
                }
                self.preds.release(p);
            }
        }
    }

    /// Put every retained fixpoint that reads one of `cleared`'s
    /// relations back to cold: its next query re-derives from scratch.
    fn invalidate_overlapping(&mut self, cleared: &[PredId]) {
        for entry in self.query_plans.values_mut() {
            if let QueryEntry::Demand(plan) = entry {
                if plan.live && plan.tracked.iter().any(|p| cleared.contains(p)) {
                    plan.live = false;
                }
            }
        }
    }

    /// Put every retained demand fixpoint back to cold (a batch run
    /// rebuilt the relation vectors out from under them).
    fn invalidate_retained_spaces(&mut self) {
        for entry in self.query_plans.values_mut() {
            if let QueryEntry::Demand(plan) = entry {
                plan.live = false;
            }
        }
    }

    /// Stratify and compile a magic-rewritten rule set, sizing the
    /// relation vectors for the predicates the rewrite registered.
    fn compile_rewritten(&mut self, rules: &[Rule]) -> Result<CompiledProgram, EngineError> {
        self.sync_relation_slots();
        let cost_on = self.refresh_planner_stats();
        let names = {
            let store = &self.store;
            let preds = &self.preds;
            move |p: PredId| store.symbols().name(preds.info(p).name).to_owned()
        };
        let growable: FxHashSet<PredId> = self.preds.ids().collect();
        let program = compile_program(
            rules,
            self.preds.len(),
            &names,
            &growable,
            self.config.set_universe,
            cost_on.then(|| self.stats_cache.current()),
        )?;
        self.account_compile(program.reorders_applied, program.estimated_rows);
        Ok(program)
    }

    /// Evaluate one ad-hoc rule — a conjunctive goal — against either
    /// the live model (`shadow = false`, used by [`Engine::query_rule`]
    /// once a model exists) or the shadow fallback model (`shadow =
    /// true`, for non-monotone goals answered without disturbing the
    /// live relations).
    fn eval_single_rule(&mut self, rule: &Rule, shadow: bool) -> Result<EvalStats, EngineError> {
        let cost_on = self.refresh_planner_stats();
        let names = {
            let store = &self.store;
            let preds = &self.preds;
            move |p: PredId| store.symbols().name(preds.info(p).name).to_owned()
        };
        // Body relations are fixed during this evaluation: no delta
        // variants, no quantifier triggers.
        let cr = compile_rule(
            rule,
            &names,
            &FxHashSet::default(),
            self.config.set_universe,
            cost_on.then(|| self.stats_cache.current()),
        )?;
        self.account_compile(cr.reorders, cr.estimated_rows);
        let (full, delta) = if shadow {
            (&mut self.fallback_full, &mut self.fallback_delta)
        } else {
            (&mut self.full, &mut self.delta)
        };
        let h = rule.head.index();
        let arity = rule.head_args.len();
        if full[h].arity() != arity {
            full[h] = Relation::new(arity);
            delta[h] = Relation::new(arity);
        } else {
            full[h].clear();
            delta[h].clear();
        }
        for &(p, m, is_delta) in &cr.index_requests {
            full[p.index()].ensure_index(m);
            if is_delta {
                delta[p.index()].ensure_index(m);
            }
        }
        let stats = run_stratum(
            &mut self.store,
            full,
            delta,
            &[&cr],
            &[],
            &self.config,
            StratumStart::Batch,
            None,
        )?;
        if !shadow {
            self.stats_cache.invalidate();
        }
        Ok(stats)
    }

    /// Drop the per-adornment plan cache when the universe policy it
    /// was compiled under changed, and enforce a shrunken cache bound.
    /// Returns the number of bound-shrink evictions (policy-change
    /// clears recompile everything and are not eviction-counted).
    fn refresh_query_cache_policy(&mut self) -> usize {
        if self.query_policy != self.config.set_universe
            || self.query_planner != self.config.cost_planner
        {
            self.clear_query_plans();
            self.query_policy = self.config.set_universe;
            self.query_planner = self.config.cost_planner;
        }
        let bound = self.config.demand_plan_cache.max(1);
        let mut evicted = 0;
        while self.query_lru.len() > bound {
            let victim = self.query_lru.remove(0);
            self.evict_plan(victim);
            evicted += 1;
        }
        evicted
    }

    /// Bring extensional facts into the shared `full` relations
    /// without running the program — the demand pipeline reads base
    /// predicates (and the EDB bridges of adorned predicates) from
    /// `full`. In a session with no materialized model, `full` holds
    /// nothing else for original predicates, so this is exactly the
    /// EDB image; a later batch run rebuilds `full` from the EDB
    /// regardless. EDB relations are append-only (until
    /// [`Engine::reset_facts`] drops them and resets the cursors), so
    /// a per-predicate synced-row cursor makes repeat syncs — one per
    /// demand query — O(new facts), not O(EDB).
    fn sync_edb_to_full(&mut self) {
        for i in 0..self.preds.len() {
            let len = self.edb[i].len();
            for r in self.edb_synced[i] as usize..len {
                let tuple = self.edb[i].row(r as u32);
                self.full[i].insert(tuple);
            }
            self.edb_synced[i] = len as u32;
        }
    }

    /// Size the per-predicate relation vectors up to the registry —
    /// needed after the magic rewrite registers adorned predicates
    /// directly in the registry.
    fn sync_relation_slots(&mut self) {
        // Recycled registry slots (plan eviction) may have been
        // re-registered at a different arity; refresh their relations.
        // Eviction already emptied them, so nothing can be lost — the
        // `is_empty` guard is belt and braces.
        for i in 0..self.full.len() {
            let arity = self.preds.info(PredId::from_index(i)).arity;
            if self.full[i].arity() != arity && self.full[i].is_empty() {
                self.edb[i] = Relation::new(arity);
                self.full[i] = Relation::new(arity);
                self.delta[i] = Relation::new(arity);
                self.pending[i] = Relation::new(arity);
                self.edb_synced[i] = 0;
            }
        }
        for i in self.full.len()..self.preds.len() {
            let arity = self.preds.info(PredId::from_index(i)).arity;
            self.edb.push(Relation::new(arity));
            self.full.push(Relation::new(arity));
            self.delta.push(Relation::new(arity));
            self.pending.push(Relation::new(arity));
            self.edb_synced.push(0);
        }
    }

    /// Materialize the bounded powerset universe if configured. Run
    /// before every evaluation pass: idempotent, and monotone in the
    /// atom domain, so incremental updates that intern new atoms extend
    /// the universe in place.
    fn materialize_universe(&mut self) -> Result<(), EngineError> {
        if let SetUniverse::ActiveSubsets { max_card } = self.config.set_universe {
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
    /// when a cache built under the current universe policy exists.
    fn prepare(&mut self) -> Result<(), EngineError> {
        if self.prepared.as_ref().is_some_and(|p| {
            p.policy == self.config.set_universe && p.cost_planner == self.config.cost_planner
        }) {
            return Ok(());
        }
        let cost_on = self.refresh_planner_stats();
        // Every registered predicate can gain facts later in the
        // session, so every positive literal gets a delta variant and
        // every quantifier-inner predicate is a re-evaluation trigger
        // (in batch runs the extra variants skip on empty deltas).
        let growable: FxHashSet<PredId> = self.preds.ids().collect();
        let names = {
            let store = &self.store;
            let preds = &self.preds;
            move |p: PredId| store.symbols().name(preds.info(p).name).to_owned()
        };
        let program = compile_program(
            &self.rules,
            self.preds.len(),
            &names,
            &growable,
            self.config.set_universe,
            cost_on.then(|| self.stats_cache.current()),
        )?;
        self.account_compile(program.reorders_applied, program.estimated_rows);

        self.prepared = Some(Prepared {
            program,
            policy: self.config.set_universe,
            cost_planner: self.config.cost_planner,
        });
        if self.state == EngineState::Unprepared {
            self.state = EngineState::Prepared;
        }
        Ok(())
    }

    /// Batch evaluation: rebuild the model from the EDB and run every
    /// stratum to fixpoint with the cached plans.
    fn run_batch(&mut self) -> Result<EvalStats, EngineError> {
        self.materialize_universe()?;
        self.prepare()?;
        // The rebuild below resets every relation — including retained
        // demand spaces, whose plans must go cold.
        self.invalidate_retained_spaces();
        for p in &mut self.pending {
            p.clear();
        }
        let program = &self.prepared.as_ref().expect("prepare() just ran").program;
        let stats = materialize(
            &mut self.store,
            &self.edb,
            &mut self.full,
            &mut self.delta,
            program,
            &self.config,
        )?;
        self.finish(stats)
    }

    /// Incremental update: splice the pending facts into the model,
    /// then continue the semi-naive fixpoint from the lowest affected
    /// stratum with the deltas seeded from exactly those new tuples.
    fn update_incremental(&mut self) -> Result<EvalStats, EngineError> {
        self.materialize_universe()?;
        let npreds = self.preds.len();
        let changed: Vec<PredId> = (0..npreds)
            .map(PredId::from_index)
            .filter(|p| !self.pending[p.index()].is_empty())
            .collect();
        let universe_grew = self.store.set_ids().len() > self.sets_at_materialize;

        let (start, fallback) = {
            let program = &self
                .prepared
                .as_ref()
                .expect("a materialized session is prepared")
                .program;
            // New interned sets can re-fire universe-enumerating rules
            // even below the lowest fact-affected stratum;
            // `restart_stratum` folds that in.
            let start = program.restart_stratum(changed.iter().copied(), universe_grew);
            let fallback =
                start.is_some_and(|s0| program.max_nonmono_stratum.is_some_and(|m| m >= s0));
            (start, fallback)
        };
        if fallback {
            // Negation or grouping at/above the restart stratum: a
            // monotone continuation cannot retract, so recompute from
            // the EDB (which already includes the pending facts).
            return self.run_batch();
        }

        let mut stats = EvalStats::default();
        // Splice pending facts into the model, remembering each
        // relation's previous length: rows past the snapshot are this
        // update's seed set.
        let snapshot: Vec<u32> = (0..npreds).map(|i| self.full[i].len() as u32).collect();
        for &p in &changed {
            let i = p.index();
            for r in 0..self.pending[i].len() as u32 {
                let tuple = self.pending[i].row(r);
                if self.full[i].insert(tuple) {
                    stats.delta_seed_facts += 1;
                    stats.facts_derived += 1;
                }
            }
            self.pending[i].clear();
        }

        if let Some(s0) = start {
            let program = &self.prepared.as_ref().expect("checked above").program;
            stats.absorb(run_seeded(
                &mut self.store,
                &mut self.full,
                &mut self.delta,
                &self.config,
                program,
                s0,
                self.sets_at_materialize,
                |p| snapshot[p.index()],
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
        self.config_at_materialize = self.config;
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

    /// Iterate over the tuples of a predicate.
    pub fn tuples(&self, pred: PredId) -> impl Iterator<Item = &[TermId]> {
        self.rows(pred)
    }

    /// Borrowing, exact-size iterator over a predicate's tuples: rows
    /// are read straight out of the relation arena, nothing is
    /// allocated, and `len()` is O(1) — the cheap counterpart of
    /// [`Engine::extension`] for callers that only need to walk or
    /// count.
    pub fn rows(&self, pred: PredId) -> Rows<'_> {
        Rows {
            rel: &self.full[pred.index()],
            next: 0,
        }
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

/// Batch-evaluate a compiled program over (`full`, `delta`) as they
/// stand: satisfy its index requests, load its ground fact rules
/// (counting the real insertions into `magic_preds` as demand seeds),
/// and run every stratum to fixpoint. Shared by model rebuilds
/// ([`materialize`]) and demand plans outside a warm continuation,
/// which *rebase* over whatever sound rows their space already holds.
/// A free function over the engine's disjoint fields so callers can
/// keep a borrow on the program itself.
#[allow(clippy::too_many_arguments)]
fn run_program(
    store: &mut TermStore,
    full: &mut [Relation],
    delta: &mut [Relation],
    config: &EvalConfig,
    program: &CompiledProgram,
    magic_preds: &[PredId],
    profiler: Option<&StepProfiler>,
) -> Result<EvalStats, EngineError> {
    let mut stats = EvalStats::default();
    for &(p, m, is_delta) in &program.index_requests {
        full[p.index()].ensure_index(m);
        if is_delta {
            delta[p.index()].ensure_index(m);
        }
    }
    for &i in &program.fact_rules {
        let cr = &program.compiled[i];
        let tuple: Vec<TermId> = ground_head_tuple(&cr.rule);
        if full[cr.rule.head.index()].insert(&tuple) {
            stats.facts_derived += 1;
            if magic_preds.contains(&cr.rule.head) {
                stats.magic_facts_seeded += 1;
            }
        }
    }
    for s in 0..program.strat.num_strata {
        stats.absorb(run_stratum(
            store,
            full,
            delta,
            &program.regular(s),
            &program.grouping(s),
            config,
            StratumStart::Batch,
            profiler,
        )?);
    }
    Ok(stats)
}

/// Rebuild a model in (`full`, `delta`) from the EDB: reset `full` to
/// the extensional facts (which count as derived — they are part of
/// `T_P ↑ ω`'s base) and run the prepared `program` over them. Serves
/// both the live model and the shadow fallback model.
fn materialize(
    store: &mut TermStore,
    edb: &[Relation],
    full: &mut Vec<Relation>,
    delta: &mut Vec<Relation>,
    program: &CompiledProgram,
    config: &EvalConfig,
) -> Result<EvalStats, EngineError> {
    let mut stats = EvalStats::default();
    full.clear();
    delta.clear();
    for rel in edb {
        stats.facts_derived += rel.len();
        full.push(rel.clone());
        delta.push(Relation::new(rel.arity()));
    }
    stats.absorb(run_program(store, full, delta, config, program, &[], None)?);
    Ok(stats)
}

/// Seeded semi-naive restart from stratum `s0` on, shared by
/// incremental updates and demand continuations: each stratum's deltas
/// are re-seeded with every row past `base(p)` of the predicates it
/// reads — everything the restart has added so far, lower-stratum
/// derivations included; the delta variants and quantifier triggers
/// consult no others. The deltas are left empty.
#[allow(clippy::too_many_arguments)]
fn run_seeded(
    store: &mut TermStore,
    full: &mut [Relation],
    delta: &mut [Relation],
    config: &EvalConfig,
    program: &CompiledProgram,
    s0: usize,
    sets_baseline: usize,
    base: impl Fn(PredId) -> u32,
    profiler: Option<&StepProfiler>,
) -> Result<EvalStats, EngineError> {
    let mut stats = EvalStats::default();
    for s in s0..program.strat.num_strata {
        for d in delta.iter_mut() {
            d.clear();
        }
        for &p in program.strat.reads(s) {
            let i = p.index();
            for r in base(p)..full[i].len() as u32 {
                delta[i].insert(full[i].row(r));
            }
        }
        stats.absorb(run_stratum(
            store,
            full,
            delta,
            &program.regular(s),
            &[],
            config,
            StratumStart::Seeded { sets_baseline },
            profiler,
        )?);
    }
    for d in delta.iter_mut() {
        d.clear();
    }
    Ok(stats)
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

/// The ground tuple of a fact rule's head (`is_fact` guarantees it).
fn ground_head_tuple(rule: &Rule) -> Vec<TermId> {
    rule.head_args
        .iter()
        .map(|p| match p {
            crate::pattern::Pattern::Ground(id) => *id,
            _ => unreachable!("is_fact guarantees ground head"),
        })
        .collect()
}

/// Borrowing tuple iterator returned by [`Engine::rows`].
#[derive(Clone, Debug)]
pub struct Rows<'a> {
    rel: &'a Relation,
    next: u32,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [TermId];

    fn next(&mut self) -> Option<&'a [TermId]> {
        if (self.next as usize) < self.rel.len() {
            let row = self.rel.row(self.next);
            self.next += 1;
            Some(row)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.rel.len() - self.next as usize;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Rows<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{Pattern, VarId};
    use crate::rule::{BodyLit, Builtin, GroupSpec, QuantGroup};

    fn v(i: u32) -> Pattern {
        Pattern::Var(VarId(i))
    }

    fn plain_rule(head: PredId, head_args: Vec<Pattern>, outer: Vec<BodyLit>, nv: usize) -> Rule {
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
        assert_eq!(e.tuples(path).count(), 10);
        assert!(e.holds(path, &[ids[0], ids[4]]));
        assert!(!e.holds(path, &[ids[4], ids[0]]));
        assert!(stats.iterations >= 3, "chain of length 4 needs rounds");
    }

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
        let naive = build(crate::config::FixpointStrategy::Naive);
        let semi = build(crate::config::FixpointStrategy::SemiNaive);
        assert_eq!(naive, semi);
        assert_eq!(naive.len(), 36, "complete digraph on the 6-cycle");
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
        assert_eq!(e.tuples(s).count(), 2);
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
        assert_eq!(e.tuples(owns).count(), 2);
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
            .tuples(sum)
            .filter(|t| t[0] == whole)
            .map(|t| t[1])
            .collect();
        assert_eq!(whole_sums, vec![seventeen]);
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let mut e = Engine::new(EvalConfig::default());
        let p = e.pred("p", 2);
        let a = e.store_mut().atom("a");
        let err = e.fact(p, vec![a]).unwrap_err();
        assert!(matches!(err, EngineError::ArityMismatch { .. }));
    }

    fn tc_engine() -> (Engine, PredId, PredId, Vec<TermId>) {
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
        assert_eq!(e.state(), crate::engine::EngineState::Materialized);
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
        assert_eq!(e.state(), crate::engine::EngineState::Dirty);
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
    fn config_change_after_run_voids_the_noop_shortcircuit() {
        let (mut e, _, path, _) = tc_engine();
        e.run().unwrap();
        e.config_mut().strategy = crate::config::FixpointStrategy::Naive;
        let stats = e.run().unwrap();
        assert!(
            stats.iterations > 0,
            "a changed config must rebuild, not return the stale model"
        );
        assert_eq!(e.rows(path).len(), 10);
        // Unchanged config short-circuits again.
        assert_eq!(e.run().unwrap(), EvalStats::default());
    }

    #[test]
    fn duplicate_fact_after_run_stays_clean() {
        let (mut e, edge, _, ids) = tc_engine();
        e.run().unwrap();
        // Re-adding a known fact queues nothing.
        e.fact(edge, vec![ids[0], ids[1]]).unwrap();
        assert_eq!(e.state(), crate::engine::EngineState::Materialized);
        assert_eq!(e.update().unwrap(), EvalStats::default());
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
        assert_eq!(e.state(), crate::engine::EngineState::Prepared);
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
        let rows = e.rows(path);
        assert_eq!(rows.len(), 10);
        let collected: Vec<&[TermId]> = rows.collect();
        let via_tuples: Vec<&[TermId]> = e.tuples(path).collect();
        assert_eq!(collected, via_tuples);
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
        assert_eq!(res.rows, vec![vec![ids[2]]]);
        // The fallback materializes a *shadow* model: the session
        // itself stays in the demand regime.
        assert_eq!(
            e.state(),
            EngineState::Prepared,
            "shadow fallback leaves the session un-materialized"
        );
        // …so the monotone part still demand-evaluates.
        let res = e.query(reach, &[Some(ids[1])]).unwrap();
        assert_eq!(res.path, QueryPath::Demand);
        assert_eq!(res.rows, vec![vec![ids[1]]]);
        // A repeat non-monotone query reads the fresh shadow: no
        // re-materialization.
        let res = e.query(unreach, &[Some(ids[2])]).unwrap();
        assert_eq!(res.path, QueryPath::Fallback);
        assert_eq!(res.stats.facts_derived, 0, "shadow model is reused");
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

    #[test]
    fn shadow_fallback_keeps_sibling_demand_spaces_live() {
        let (mut e, edge, t, ids) = left_linear_engine();
        let node = e.pred("node", 1);
        let unreach = e.pred("unreachable", 1);
        for &n in &ids {
            e.fact(node, vec![n]).unwrap();
        }
        // unreachable(X) :- node(X), ¬t(X, X) — obstructed rewrite.
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
        // Warm a monotone demand plan…
        let first = e.query(t, &[Some(ids[1]), None]).unwrap();
        assert_eq!(first.path, QueryPath::Demand);
        assert_eq!(first.rows.len(), 4, "n1 reaches n2..n5");
        // …interleave a non-monotone query…
        let nm = e.query(unreach, &[Some(ids[2])]).unwrap();
        assert_eq!(nm.path, QueryPath::Fallback);
        assert_eq!(nm.rows, vec![vec![ids[2]]]);
        // …and the sibling plan stayed live: a repeat of the monotone
        // query is still a zero-work read of its retained space.
        let repeat = e.query(t, &[Some(ids[1]), None]).unwrap();
        assert_eq!(repeat.path, QueryPath::Demand);
        assert_eq!(
            repeat.stats.facts_derived, 0,
            "retained demand space survived the fallback query"
        );
        assert_eq!(repeat.rows, first.rows);
        // An EDB extension reaches the retained space as a seeded
        // continuation — the fallback interleave did not force a cold
        // rebuild — and marks the shadow model stale.
        let x = e.store_mut().atom("x");
        e.fact(edge, vec![ids[5], x]).unwrap();
        let extended = e.query(t, &[Some(ids[1]), None]).unwrap();
        assert_eq!(extended.stats.demand_continuations, 1);
        assert_eq!(extended.rows.len(), 5, "n1 now also reaches x");
        let nm2 = e.query(unreach, &[Some(ids[2])]).unwrap();
        assert_eq!(nm2.path, QueryPath::Fallback);
        assert!(nm2.stats.facts_derived > 0, "stale shadow rebuilt");
        assert_eq!(nm2.rows, vec![vec![ids[2]]]);
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

    #[test]
    fn retention_off_restores_per_query_cold_runs() {
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
        let first = e.query(path, &[Some(ids[0]), None]).unwrap();
        e.clear_demand_spaces();
        let again = e.query(path, &[Some(ids[0]), None]).unwrap();
        assert_eq!(again.rows, first.rows);
        assert_eq!(again.stats.adornments_compiled, 0, "the plan stays cached");
        assert_eq!(again.stats.demand_continuations, 0, "cold each time");
        assert!(again.stats.facts_derived > 0, "re-derived from scratch");
        assert_eq!(again.stats.magic_facts_seeded, 1, "space was cleared");
    }

    #[test]
    fn plan_cache_evicts_lru_and_rederives_correctly() {
        let cfg = EvalConfig {
            demand_plan_cache: 1,
            ..EvalConfig::default()
        };
        let mut e = Engine::new(cfg);
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
        let bf = e.query(path, &[Some(ids[0]), None]).unwrap();
        assert_eq!(bf.rows.len(), 4);
        assert_eq!(bf.stats.plans_evicted, 0, "cache holds one plan");
        // The fb adornment evicts the bf plan (bound 1)…
        let fb = e.query(path, &[None, Some(ids[4])]).unwrap();
        assert_eq!(fb.rows.len(), 4);
        assert_eq!(fb.stats.plans_evicted, 1);
        assert!(fb.stats.adornments_compiled >= 1);
        // …and re-querying bf recompiles and re-derives — never serves
        // rows out of a reclaimed space.
        let bf2 = e.query(path, &[Some(ids[1]), None]).unwrap();
        assert_eq!(bf2.stats.plans_evicted, 1);
        assert!(bf2.stats.adornments_compiled >= 1, "recompiled after evict");
        let rows = bf2.rows.sorted();
        assert_eq!(
            rows,
            vec![
                vec![ids[1], ids[2]],
                vec![ids[1], ids[3]],
                vec![ids[1], ids[4]],
            ]
        );
    }

    #[test]
    fn evicted_plans_recycle_registry_slots() {
        // With a one-slot plan cache, alternating adornments evict each
        // other forever — but the registry (and the positional relation
        // vectors sized from it) must stay bounded: each eviction
        // releases the dead plan's demand-space slots and recompilation
        // reuses them.
        let cfg = EvalConfig {
            demand_plan_cache: 1,
            ..EvalConfig::default()
        };
        let mut e = Engine::new(cfg);
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
        // Prime both adornments once so every demand predicate either
        // has a slot or a matching free slot to claim.
        let bf = e.query(path, &[Some(ids[0]), None]).unwrap();
        assert_eq!(bf.rows.len(), 4);
        let fb = e.query(path, &[None, Some(ids[4])]).unwrap();
        assert_eq!(fb.rows.len(), 4);
        let bound = e.preds().len();
        for round in 0..6 {
            let bf = e.query(path, &[Some(ids[0]), None]).unwrap();
            assert_eq!(bf.rows.len(), 4, "round {round}");
            let fb = e.query(path, &[None, Some(ids[4])]).unwrap();
            assert_eq!(fb.rows.len(), 4, "round {round}");
            assert_eq!(
                e.preds().len(),
                bound,
                "registry stays bounded under eviction churn (round {round})"
            );
        }
        assert!(
            e.preds().free_slots() > 0,
            "evicted slots are on the free list"
        );
    }

    #[test]
    fn conj_shape_eviction_releases_the_shape_slot() {
        // Distinct conjunctive goal shapes each register a dedicated
        // `query#shape#…` head; evicting a shape's plan must release
        // that slot too, so a stream of one-off shapes cannot grow the
        // registry without bound.
        let (mut e, edge, path, ids) = tc_engine();
        e.config_mut().demand_plan_cache = 1;
        let mut sizes = Vec::new();
        for round in 0..4 {
            // A fresh shape every round: the join chain gets one literal
            // longer, so the goal-shape key differs.
            let mut body = vec![BodyLit::Pos(path, vec![Pattern::Ground(ids[0]), v(0)])];
            for k in 0..round {
                body.push(BodyLit::Pos(edge, vec![v(k), v(k + 1)]));
            }
            let goal = plain_rule(
                e.pred("query#goal", 2),
                vec![v(0), v(round)],
                body,
                round as usize + 1,
            );
            let res = e.query_rule(goal).unwrap();
            assert!(!res.rows.is_empty(), "round {round}");
            sizes.push(e.preds().len());
        }
        // The first round pays for the shape machinery; later rounds
        // recycle the evicted shape's slots instead of growing.
        assert_eq!(
            sizes[2], sizes[3],
            "registry growth stops once eviction recycles shape slots: {sizes:?}"
        );
    }

    #[test]
    fn a_new_shape_never_takes_a_cached_shapes_name() {
        // After an eviction drops one shape, a new shape of the same
        // arity must not be named like a shape that is still cached:
        // the shared head predicate would run the other shape's plan.
        let (mut e, edge, path, ids) = tc_engine();
        e.config_mut().demand_plan_cache = 2;
        let q = e.pred("query#goal", 1);
        let goal = |lit| plain_rule(q, vec![v(0)], vec![lit], 1);
        e.query_rule(goal(BodyLit::Pos(
            path,
            vec![Pattern::Ground(ids[0]), v(0)],
        )))
        .unwrap();
        let edge_goal = goal(BodyLit::Pos(edge, vec![Pattern::Ground(ids[1]), v(0)]));
        e.query_rule(edge_goal.clone()).unwrap();
        // A point query evicts the first shape's plan.
        e.query(path, &[Some(ids[0]), None]).unwrap();
        let into_n2 = goal(BodyLit::Pos(path, vec![v(0), Pattern::Ground(ids[2])]));
        let res = e.query_rule(into_n2).unwrap();
        assert_eq!(res.rows.sorted(), vec![vec![ids[0]], vec![ids[1]]]);
        let res = e.query_rule(edge_goal).unwrap();
        assert_eq!(res.rows.sorted(), vec![vec![ids[2]]]);
    }

    #[test]
    fn overlapping_plan_spaces_stay_consistent() {
        // Querying `s` demands `(path, bf)` too, so the two plans
        // share the `path#bf` / `m#path#bf` relations. A fresh plan
        // *rebases* over the shared rows instead of clearing them, so
        // the sibling stays live — and answers stay exact throughout.
        let (mut e, edge, path, ids) = tc_engine();
        let s = e.pred("s", 2);
        e.rule(plain_rule(
            s,
            vec![v(0), v(2)],
            vec![
                BodyLit::Pos(path, vec![v(0), v(1)]),
                BodyLit::Pos(edge, vec![v(1), v(2)]),
            ],
            3,
        ))
        .unwrap();
        let p1 = e.query(path, &[Some(ids[0]), None]).unwrap();
        assert_eq!(p1.rows.len(), 4);
        // Compiling the s-plan rebases over the shared sub-space.
        let s1 = e.query(s, &[Some(ids[0]), None]).unwrap();
        assert_eq!(s1.rows.len(), 3, "n0 → {{n1..n3}} → successor");
        // The path plan stayed live: a zero-work repeat, exact rows.
        let p2 = e.query(path, &[Some(ids[0]), None]).unwrap();
        assert_eq!(p2.stats.demand_continuations, 1, "sibling stayed live");
        assert_eq!(p2.stats.facts_derived, 0);
        let got = p2.rows.sorted();
        let want = p1.rows.sorted();
        assert_eq!(got, want);
        // And so did the s plan.
        let s2 = e.query(s, &[Some(ids[0]), None]).unwrap();
        assert_eq!(s2.rows.len(), 3);
        assert_eq!(s2.stats.facts_derived, 0);
        // Evicting one (cache shrunk to a single slot) reclaims its
        // relations and puts the survivor back to cold — which must
        // re-derive, never serve rows out of a reclaimed space.
        e.config_mut().demand_plan_cache = 1;
        let s3 = e.query(s, &[Some(ids[1]), None]).unwrap();
        assert_eq!(s3.rows.len(), 2, "n1 → {{n2, n3}} → successor");
        let p3 = e.query(path, &[Some(ids[0]), None]).unwrap();
        assert!(p3.stats.plans_evicted >= 1, "bound 1 evicts the s plan");
        let got = p3.rows.sorted();
        assert_eq!(got, want, "exact rows after eviction churn");
    }

    #[test]
    fn conjunctive_plans_are_cached_by_goal_shape() {
        let (mut e, edge, path, ids) = tc_engine();
        let q = e.pred("query#goal", 2);
        let goal = |c: TermId| {
            plain_rule(
                q,
                vec![v(0), v(1)],
                vec![
                    BodyLit::Pos(path, vec![Pattern::Ground(c), v(0)]),
                    BodyLit::Pos(edge, vec![v(0), v(1)]),
                ],
                2,
            )
        };
        let first = e.query_rule(goal(ids[0])).unwrap();
        assert_eq!(first.path, QueryPath::Demand);
        assert!(first.stats.adornments_compiled >= 1);
        assert_eq!(first.stats.magic_facts_seeded, 1, "the lifted constant");
        assert_eq!(first.rows.len(), 3);
        // Same shape, new constant: the plan and its whole demand space
        // are reused; only the new seed derives.
        let second = e.query_rule(goal(ids[2])).unwrap();
        assert_eq!(second.stats.adornments_compiled, 0, "shape-cache hit");
        assert_eq!(second.stats.demand_continuations, 1);
        assert_eq!(second.stats.magic_facts_seeded, 1);
        assert_eq!(second.rows, vec![vec![ids[3], ids[4]]]);
        // Repeating the first goal is a no-op read.
        let again = e.query_rule(goal(ids[0])).unwrap();
        assert_eq!(again.stats.facts_derived, 0);
        let rows = again.rows.sorted();
        let want = first.rows.sorted();
        assert_eq!(rows, want);
        // A structurally different goal compiles its own plan.
        let q1 = e.pred("query#goal1", 1);
        let other = plain_rule(
            q1,
            vec![v(0)],
            vec![BodyLit::Pos(path, vec![Pattern::Ground(ids[0]), v(0)])],
            1,
        );
        let res = e.query_rule(other).unwrap();
        assert!(res.stats.adornments_compiled >= 1, "new shape compiles");
        assert_eq!(res.rows.len(), 4);
    }

    #[test]
    fn wide_conjunctive_goals_stay_on_the_cached_demand_path() {
        // `?- q(X), p(1, 2, …, 31, last).` over a 32-ary EDB `p`: 32
        // constants plus one answer column overflow a column mask, so
        // 31 constants lift and `last` stays ground in the body.
        let session = |last: i64| {
            let mut e = Engine::new(EvalConfig::default());
            let p = e.pred("p", 32);
            let r = e.pred("r", 1);
            let q = e.pred("q", 1);
            let ints: Vec<TermId> = (1..=32).map(|i| e.store_mut().int(i)).collect();
            e.fact(p, ints.clone()).unwrap();
            for i in 0..3 {
                let a = e.store_mut().int(100 + i);
                e.fact(r, vec![a]).unwrap();
            }
            e.rule(plain_rule(
                q,
                vec![v(0)],
                vec![BodyLit::Pos(r, vec![v(0)])],
                1,
            ))
            .unwrap();
            let mut consts: Vec<Pattern> = ints[..31].iter().map(|&c| Pattern::Ground(c)).collect();
            consts.push(Pattern::Ground(e.store_mut().int(last)));
            let head = e.pred("query#goal", 1);
            let goal = plain_rule(
                head,
                vec![v(0)],
                vec![BodyLit::Pos(q, vec![v(0)]), BodyLit::Pos(p, consts)],
                1,
            );
            (e, goal)
        };
        for (last, answers) in [(32, 3), (99, 0)] {
            let (mut e, goal) = session(last);
            let first = e.query_rule(goal.clone()).unwrap();
            assert_eq!(first.path, QueryPath::Demand);
            assert!(first.stats.adornments_compiled >= 1);
            let again = e.query_rule(goal).unwrap();
            assert_eq!(again.path, QueryPath::Demand);
            assert_eq!(again.stats.adornments_compiled, 0, "cached plan reused");
            let (mut m, goal) = session(last);
            m.run().unwrap();
            let model = m.query_rule(goal).unwrap();
            assert_eq!(model.path, QueryPath::Materialized);
            assert_eq!(model.rows.len(), answers);
            assert_eq!(first.rows.sorted(), model.rows.sorted());
            assert_eq!(again.rows.sorted(), model.rows.sorted());
        }
    }

    #[test]
    fn query_rule_paths_interleave_cleanly_on_one_head() {
        // Regression (demand ↔ materialized interleaving on one goal
        // head): both paths must clear the head's relations
        // symmetrically, so switching pipelines can never surface
        // stale rows from the other path's previous answer.
        let (mut e, _, path, ids) = tc_engine();
        let q = e.pred("query#goal", 1);
        let goal = |c: TermId| {
            plain_rule(
                q,
                vec![v(1)],
                vec![BodyLit::Pos(path, vec![Pattern::Ground(c), v(1)])],
                2,
            )
        };
        // Demand path first: answers from n0.
        let demand = e.query_rule(goal(ids[0])).unwrap();
        assert_eq!(demand.path, QueryPath::Demand);
        assert_eq!(demand.rows.len(), 4);
        // Materialize, then run the *same head* with a different
        // constant through the materialized path: only n2's rows.
        e.run().unwrap();
        let mat = e.query_rule(goal(ids[2])).unwrap();
        assert_eq!(mat.path, QueryPath::Materialized);
        let rows = mat.rows.sorted();
        assert_eq!(rows, vec![vec![ids[3]], vec![ids[4]]], "no stale n0 rows");
        // Back again with the first constant — full and delta of the
        // head were both cleared, so the join restarts clean.
        let mat2 = e.query_rule(goal(ids[0])).unwrap();
        let rows = mat2.rows.sorted();
        assert_eq!(
            rows,
            vec![vec![ids[1]], vec![ids[2]], vec![ids[3]], vec![ids[4]]]
        );
        // And after dropping the facts, the demand path on the same
        // head sees none of the materialized-path leftovers.
        e.reset_facts();
        let empty = e.query_rule(goal(ids[0])).unwrap();
        assert_eq!(empty.path, QueryPath::Demand);
        assert!(empty.rows.is_empty(), "no facts, no stale answers");
    }

    #[test]
    fn profiled_query_reports_estimated_vs_actual_per_literal() {
        let (mut e, _, path, ids) = tc_engine();
        e.config_mut().profile = true;
        e.config_mut().cost_planner = true;
        let res = e.query(path, &[Some(ids[0]), None]).unwrap();
        assert_eq!(res.path, QueryPath::Demand);
        assert_eq!(res.rows.len(), 4);
        let profile = e.last_profile().expect("profiled demand query").clone();
        assert!(!profile.rules.is_empty(), "rewrite has rules with bodies");
        let total_rows: u64 = profile
            .rules
            .iter()
            .flat_map(|r| &r.literals)
            .map(|l| l.actual_rows)
            .sum();
        assert!(total_rows > 0, "the join touched rows");
        // Attribution covers all counted probe work: stats count only
        // indexed probes, the profile additionally counts scans.
        let total_probes: u64 = profile
            .rules
            .iter()
            .flat_map(|r| &r.literals)
            .map(|l| l.probes)
            .sum();
        assert!(total_probes as usize >= res.stats.index_probes);
        // An unprofiled query clears the stale profile.
        e.config_mut().profile = false;
        e.query(path, &[Some(ids[1]), None]).unwrap();
        assert!(e.last_profile().is_none());
    }

    #[test]
    fn profiled_query_matches_unprofiled_answers() {
        let (mut e, _, path, ids) = tc_engine();
        let plain = e.query(path, &[Some(ids[0]), None]).unwrap();
        let (mut p, _, ppath, pids) = tc_engine();
        p.config_mut().profile = true;
        let profiled = p.query(ppath, &[Some(pids[0]), None]).unwrap();
        assert_eq!(plain.rows.sorted(), profiled.rows.sorted());
    }

    #[test]
    fn explain_prints_adornment_and_join_order_without_running() {
        let (mut e, _, path, ids) = tc_engine();
        let text = e.explain(path, &[Some(ids[0]), None]).unwrap();
        assert!(text.contains("adornment: bf"), "got:\n{text}");
        assert!(text.contains("plan: demand"), "got:\n{text}");
        assert!(text.contains(":-"), "join order lines present:\n{text}");
        // Explaining compiled and cached the plan; the query reuses it.
        let res = e.query(path, &[Some(ids[0]), None]).unwrap();
        assert_eq!(res.stats.adornments_compiled, 0, "plan was pre-compiled");
        assert_eq!(res.rows.len(), 4);
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
}
