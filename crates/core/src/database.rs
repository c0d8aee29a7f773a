//! High-level API: parse → validate → sort-check → compile (Theorem 6)
//! → lower → evaluate → query. Ground facts skip every stage after
//! parsing: they load as interned rows (the `facts` module).

use lps_engine::{Engine, EvalConfig, EvalStats, PredId};
use lps_syntax::{GroundFact, Item, Program, Span};
use lps_term::{TermId, TermStore};

use crate::dialect::Dialect;
use crate::error::CoreError;
use crate::facts::{check_fact, intern_args, value_fact, Facts, FactsMark};
use crate::fresh::FreshNames;
use crate::lower::{load_program_sorted, register_pred};
use crate::sorts::{infer_with_facts, SortTable};
use crate::transform::magic::{QueryAnswers, QueryAnswersRef};
use crate::transform::positive::normalize_with;
use crate::validate::validate_program;

pub use lps_term::Value;

/// A logic-programming-with-sets database: rules plus a base of ground
/// facts, evaluated on demand.
///
/// ```
/// use lps_core::{Database, Dialect, Value};
///
/// let mut db = Database::new(Dialect::Lps);
/// db.load_str(
///     "parts(widget, {bolt, nut, gear}).
///      has_part(X, P) :- parts(X, Ps), P in Ps.",
/// ).unwrap();
/// let model = db.evaluate().unwrap();
/// let rows = model.extension("has_part");
/// assert_eq!(rows.len(), 3);
/// assert!(rows.contains(&vec![Value::atom("widget"), Value::atom("bolt")]));
/// ```
#[derive(Debug, Clone)]
pub struct Database {
    dialect: Dialect,
    config: EvalConfig,
    /// Declarations and rules.
    rules: Program,
    /// The ground facts' terms, which a session's engine starts from.
    store: TermStore,
    facts: Facts,
    /// The first fact [`Database::load_program`] or
    /// [`Database::add_fact`] rejected; [`Database::check`] reports it.
    rejected: Option<CoreError>,
}

/// A point a [`Database`] can be rolled back to
/// ([`Database::rollback`]).
#[derive(Clone, Debug)]
pub struct DatabaseMark {
    facts: FactsMark,
    rules: usize,
    rejected: bool,
}

impl Database {
    /// Empty database in the given dialect with default evaluation
    /// settings.
    pub fn new(dialect: Dialect) -> Self {
        Self::with_config(dialect, EvalConfig::default())
    }

    /// Empty database with explicit evaluation settings.
    pub fn with_config(dialect: Dialect, config: EvalConfig) -> Self {
        Database {
            dialect,
            config,
            rules: Program { items: Vec::new() },
            store: TermStore::new(),
            facts: Facts::default(),
            rejected: None,
        }
    }

    /// The dialect this database enforces.
    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    /// Parse and append program text (declarations, facts, rules).
    /// Ground facts are checked against Definition 5 and load straight
    /// into the fact base; on any error nothing of `src` is kept.
    pub fn load_str(&mut self, src: &str) -> Result<&mut Self, CoreError> {
        let rules = self
            .facts
            .parse(src, self.dialect, &mut self.store, false)?;
        self.rules.items.extend(rules.items);
        Ok(self)
    }

    /// Append an already-parsed program: its ground facts go to the
    /// fact base, everything else joins the rules.
    pub fn load_program(&mut self, program: Program) -> &mut Self {
        let mut nodes = Vec::new();
        for item in &program.items {
            let fact = match item {
                Item::Clause(c) if c.body.is_none() => c.head.ground_fact(&mut nodes),
                _ => None,
            };
            match fact {
                Some(fact) => self.load_fact(fact),
                None => self.rules.items.push(item.clone()),
            }
        }
        self
    }

    /// Append one ground fact built from owned values.
    pub fn add_fact(&mut self, pred: &str, args: &[Value]) -> &mut Self {
        self.load_fact(value_fact(pred, args, &mut Vec::new()));
        self
    }

    fn load_fact(&mut self, fact: GroundFact<'_, '_>) {
        if let Err(e) = self.facts.load(&mut self.store, self.dialect, fact) {
            self.rejected.get_or_insert(e);
        }
    }

    /// The current extent of the database, to [`Database::rollback`]
    /// to.
    pub fn mark(&self) -> DatabaseMark {
        DatabaseMark {
            facts: self.facts.mark(&self.store),
            rules: self.rules.items.len(),
            rejected: self.rejected.is_some(),
        }
    }

    /// Forget every rule, fact and term loaded since `mark` — the undo
    /// of an addition that [`Database::check`] rejected.
    pub fn rollback(&mut self, mark: DatabaseMark) {
        self.facts.rollback(&mut self.store, &mark.facts);
        self.rules.items.truncate(mark.rules);
        if !mark.rejected {
            self.rejected = None;
        }
    }

    /// The declarations and rules; ground facts are not clauses.
    pub fn program(&self) -> &Program {
        &self.rules
    }

    /// Validate and sort-check without evaluating. The facts take part
    /// as their per-column sort summary.
    pub fn check(&self) -> Result<SortTable, CoreError> {
        self.rejected.clone().map_or(Ok(()), Err)?;
        validate_program(&self.rules, self.dialect)?;
        infer_with_facts(&self.rules, self.dialect, &self.facts, &self.store)
    }

    /// The Theorem-6-normalized declarations and rules that will
    /// actually be lowered.
    pub fn normalized(&self) -> Result<Program, CoreError> {
        self.check()?;
        normalize_with(&self.rules, self.fresh_names())
    }

    /// Fresh names clear of every rule's and every fact's names.
    pub(crate) fn fresh_names(&self) -> FreshNames {
        let mut fresh = FreshNames::for_program(&self.rules);
        for p in self.facts.batch.preds() {
            fresh.reserve_pred(self.store.symbols().name(p.name));
        }
        fresh
    }

    /// Validate, compile, evaluate to the least model. The returned
    /// [`Model`] owns a live engine session: facts can be appended with
    /// [`Model::add_fact`] and reconciled incrementally with
    /// [`Model::update`] instead of re-evaluating from scratch.
    pub fn evaluate(&self) -> Result<Model, CoreError> {
        let mut model = self.session()?;
        model.engine.run()?;
        Ok(model)
    }

    /// Validate, compile, and load the program *without* materializing
    /// the least model. The returned session answers point and
    /// conjunctive queries demand-driven ([`Model::query`],
    /// [`Model::query_str`]): the engine magic-rewrites the reachable
    /// rules for the query's binding pattern and derives only what the
    /// bindings can reach, caching the specialized plan per adornment
    /// (conjunctive goals per shape). Demand spaces are *retained*
    /// between queries: a repeated query is a pure read, and a new
    /// constant — or facts added via [`Model::add_fact`] in between —
    /// continues the fixpoint incrementally from the retained
    /// relations, so a long query stream costs O(new demand) per
    /// query, not O(reach). Anything that needs the full model
    /// ([`Model::extension`], [`Model::update`], a non-monotone
    /// query) materializes it on first use, after which queries read
    /// the maintained model.
    pub fn session(&self) -> Result<Model, CoreError> {
        let normalized = self.normalized()?;
        // Re-infer sorts over the *normalized* rules so auxiliary
        // predicates introduced by the Theorem-6 compiler carry sort
        // information too; universe enumeration in the engine respects
        // it (lenient inference: never fails here).
        let lenient = Dialect::StratifiedElps;
        let sorts = infer_with_facts(&normalized, lenient, &self.facts, &self.store).ok();
        // The engine starts from the fact base's terms and rows.
        let mut engine = Engine::with_store(self.config, self.store.clone());
        engine.load_batch(&self.facts.batch)?;
        load_program_sorted(&mut engine, &normalized, sorts.as_ref())?;
        Ok(Model {
            engine,
            dialect: self.dialect,
        })
    }
}

/// The least (stratified-perfect) model of a database: queryable, and
/// *maintainable* — it owns the engine session, so facts added after
/// evaluation are folded in by [`Model::update`] via the engine's
/// incremental path rather than a from-scratch recompute.
#[derive(Debug)]
pub struct Model {
    pub(crate) engine: Engine,
    dialect: Dialect,
}

impl Model {
    /// Evaluation statistics accumulated over the session (`T_P`
    /// rounds, facts derived, incremental runs, …): the initial
    /// evaluation plus every [`Model::update`] since.
    pub fn stats(&self) -> EvalStats {
        self.engine.cumulative_stats()
    }

    /// Statistics of the most recent evaluation or update pass alone.
    pub fn last_stats(&self) -> EvalStats {
        self.engine.stats()
    }

    /// Direct access to the underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable access (interning query terms).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Queue one ground fact into the live session, checked against
    /// Definition 5 under the database's dialect. The model stays on
    /// its previous fixpoint until [`Model::update`] reconciles; use
    /// [`Model::needs_update`] to check. Unknown predicates register on
    /// the fly.
    pub fn add_fact(&mut self, pred: &str, args: &[Value]) -> Result<(), CoreError> {
        let (mut nodes, mut row) = (Vec::new(), Vec::new());
        let fact = value_fact(pred, args, &mut nodes);
        check_fact(&fact, self.dialect)?;
        intern_args(self.engine.store_mut(), &fact, &mut row);
        let id = self.engine.pred(pred, args.len());
        Ok(self.engine.fact(id, row)?)
    }

    /// Queue the ground facts of `src` (surface syntax) into the live
    /// session, each checked against Definition 5. All or nothing: a
    /// syntax error, a rejected fact or a rule anywhere in `src` leaves
    /// the session and its store as they were.
    pub fn load_facts(&mut self, src: &str) -> Result<(), CoreError> {
        let mut facts = Facts::default();
        facts.parse(src, self.dialect, self.engine.store_mut(), true)?;
        Ok(self.engine.load_batch(&facts.batch)?)
    }

    /// Re-reach the least model after queued fact additions: seeds the
    /// engine's semi-naive deltas and re-runs from the lowest affected
    /// stratum, reusing the retained relations (`stats().
    /// incremental_runs` counts the passes that avoided a recompute).
    /// A no-op on a clean model.
    pub fn update(&mut self) -> Result<EvalStats, CoreError> {
        Ok(self.engine.update()?)
    }

    /// Whether queries would see a stale fixpoint until
    /// [`Model::update`] (or a reset dropped the materialization).
    pub fn needs_update(&self) -> bool {
        self.engine.state() != lps_engine::EngineState::Materialized
    }

    /// Drop all facts while keeping the rules and their compiled
    /// *batch* plans — the session returns to the prepared state, so
    /// facts added afterwards evaluate without restratifying or
    /// recompiling. Cached demand plans are evicted (their retained
    /// spaces are meaningless without the facts) and their relation
    /// slots reclaimed, so sessions that alternate resets and queries
    /// do not accumulate demand-space memory.
    pub fn reset_facts(&mut self) {
        self.engine.reset_facts();
    }

    /// Demand-driven point query: answer `pred(args…)` with `Some` as
    /// bound and `None` as free positions, *without* materializing the
    /// full model when the session has none (see
    /// [`Database::session`]). Unknown predicates register on the fly
    /// and answer with no rows. On a materialized session this reads
    /// the maintained model (reconciling new facts first).
    ///
    /// ```
    /// use lps_core::{Database, Dialect, Value};
    /// use lps_engine::QueryPath;
    ///
    /// let mut db = Database::new(Dialect::Elps);
    /// db.load_str(
    ///     "e(a, b). e(b, c).
    ///      t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).",
    /// ).unwrap();
    /// let mut session = db.session().unwrap();
    /// let ans = session
    ///     .query("t", &[Some(Value::atom("b")), None])
    ///     .unwrap();
    /// assert_eq!(ans.path, QueryPath::Demand);
    /// assert_eq!(ans.rows, vec![vec![Value::atom("b"), Value::atom("c")]]);
    /// ```
    pub fn query(&mut self, pred: &str, args: &[Option<Value>]) -> Result<QueryAnswers, CoreError> {
        Ok(self.query_view(pred, args)?.to_owned())
    }

    /// [`Model::query`] returning the borrowed, interned-row
    /// [`QueryAnswersRef`] view: rows stay as engine term ids next to
    /// the session's store, so callers that only count rows, test
    /// membership, or render selectively skip the per-atom `Value`
    /// (and `String`) construction of the owned form. The owned API is
    /// a [`QueryAnswersRef::to_owned`] wrapper over this one.
    pub fn query_view(
        &mut self,
        pred: &str,
        args: &[Option<Value>],
    ) -> Result<QueryAnswersRef<'_>, CoreError> {
        let (id, interned) = self.point_goal(pred, args)?;
        let res = self.engine.query(id, &interned)?;
        Ok(QueryAnswersRef::from_result(
            self.engine.store(),
            Vec::new(),
            res,
        ))
    }

    /// Explain how the point query `pred(args…)` would be answered —
    /// chosen adornment, SIPS policy, and per-rule join order — without
    /// running it. The compiled plan is cached, so a subsequent
    /// [`Model::query`] with the same shape reuses it (`:explain` in
    /// `lpsi`).
    pub fn explain(&mut self, pred: &str, args: &[Option<Value>]) -> Result<String, CoreError> {
        let (id, interned) = self.point_goal(pred, args)?;
        Ok(self.engine.explain(id, &interned)?)
    }

    /// Register `pred` and intern the bound arguments of a point goal.
    fn point_goal(
        &mut self,
        pred: &str,
        args: &[Option<Value>],
    ) -> Result<(PredId, Vec<Option<TermId>>), CoreError> {
        let id = register_pred(&mut self.engine, pred, args.len(), Span::default())?;
        let store = self.engine.store_mut();
        Ok((
            id,
            args.iter()
                .map(|a| a.as_ref().map(|v| v.intern(store)))
                .collect(),
        ))
    }

    /// Demand-driven conjunctive query from surface syntax: the goal
    /// text (ending with `.`) is compiled into a temporary query rule
    /// ([`crate::transform::magic::compile_query`]) and evaluated
    /// through the engine's magic-set pipeline. The answer columns are
    /// the goal's free variables in first-appearance order; a fully
    /// ground goal answers with one empty row ("yes") or none ("no").
    pub fn query_str(&mut self, body: &str) -> Result<QueryAnswers, CoreError> {
        Ok(self.query_str_view(body)?.to_owned())
    }

    /// [`Model::query_str`] returning the borrowed, interned-row
    /// [`QueryAnswersRef`] view (see [`Model::query_view`]).
    pub fn query_str_view(&mut self, body: &str) -> Result<QueryAnswersRef<'_>, CoreError> {
        let goal = crate::transform::magic::compile_query(&mut self.engine, body)?;
        let res = self.engine.query_rule(goal.rule)?;
        Ok(QueryAnswersRef::from_result(
            self.engine.store(),
            goal.columns,
            res,
        ))
    }

    /// Does `pred(args…)` hold in the least model? Interns nothing: an
    /// argument the store has never seen cannot occur in the model.
    pub fn holds(&self, pred: &str, args: &[Value]) -> bool {
        let Some(id) = self.engine.lookup_pred(pred, args.len()) else {
            return false;
        };
        let tuple: Option<Vec<_>> = args.iter().map(|v| v.find(self.engine.store())).collect();
        tuple.is_some_and(|t| self.engine.holds(id, &t))
    }

    /// The full extension of a predicate, as sorted owned rows. The
    /// arity is resolved by name; if several arities exist, use
    /// [`Model::extension_n`].
    pub fn extension(&self, pred: &str) -> Vec<Vec<Value>> {
        for arity in 0..=32 {
            if let Some(id) = self.engine.lookup_pred(pred, arity) {
                return self.engine.extension(id);
            }
        }
        Vec::new()
    }

    /// The extension of `pred/arity`.
    pub fn extension_n(&self, pred: &str, arity: usize) -> Vec<Vec<Value>> {
        self.engine
            .lookup_pred(pred, arity)
            .map(|id| self.engine.extension(id))
            .unwrap_or_default()
    }

    /// Number of facts for a predicate (O(1) via the borrowing row
    /// iterator).
    pub fn count(&self, pred: &str, arity: usize) -> usize {
        self.engine
            .lookup_pred(pred, arity)
            .map(|id| self.engine.rows(id).len())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lps_engine::SetUniverse;

    #[test]
    fn example_1_and_2_disj_subset() {
        let mut db = Database::new(Dialect::Lps);
        db.load_str(
            "pair({a, b}, {c}).
             pair({a, b}, {b, c}).
             pair({}, {a}).
             disj(X, Y) :- pair(X, Y), forall U in X, forall V in Y: U != V.
             sub(X, Y) :- pair(X, Y), forall U in X: U in Y.",
        )
        .unwrap();
        let m = db.evaluate().unwrap();
        let ab = Value::set([Value::atom("a"), Value::atom("b")]);
        let c = Value::set([Value::atom("c")]);
        let bc = Value::set([Value::atom("b"), Value::atom("c")]);
        let empty = Value::empty_set();
        let a = Value::set([Value::atom("a")]);
        assert!(m.holds("disj", &[ab.clone(), c.clone()]));
        assert!(!m.holds("disj", &[ab.clone(), bc.clone()]));
        assert!(m.holds("disj", &[empty.clone(), a.clone()]));
        assert!(m.holds("sub", &[empty, a]));
        assert!(!m.holds("sub", &[ab, c]));
    }

    #[test]
    fn example_3_union_with_disjunction_body() {
        // The Theorem-6 path: disjunction under a quantifier, checked
        // against candidate triples provided by a driver relation.
        let mut db = Database::new(Dialect::Lps);
        db.load_str(
            "cand({a}, {b}, {a, b}).
             cand({a}, {b}, {a, b, c}).
             cand({a}, {}, {a}).
             u(X, Y, Z) :- cand(X, Y, Z),
                 (forall U in X: U in Z),
                 (forall V in Y: V in Z),
                 (forall W in Z: (W in X ; W in Y)).",
        )
        .unwrap();
        let m = db.evaluate().unwrap();
        let a = Value::set([Value::atom("a")]);
        let b = Value::set([Value::atom("b")]);
        let ab = Value::set([Value::atom("a"), Value::atom("b")]);
        let abc = Value::set([Value::atom("a"), Value::atom("b"), Value::atom("c")]);
        let empty = Value::empty_set();
        assert!(m.holds("u", &[a.clone(), b.clone(), ab]));
        assert!(!m.holds("u", &[a.clone(), b, abc]));
        assert!(m.holds("u", &[a.clone(), empty, a]));
    }

    #[test]
    fn theorem_8_shape_requires_policy() {
        // b(X) :- forall U in X: a(U). — X only under the quantifier.
        let mut db = Database::new(Dialect::Lps);
        db.load_str("a(c1). b(X) :- forall U in X: a(U).").unwrap();
        assert!(db.evaluate().is_err(), "rejected under default policy");

        let mut db = Database::with_config(
            Dialect::Lps,
            EvalConfig {
                set_universe: SetUniverse::ActiveSubsets { max_card: 2 },
                ..EvalConfig::default()
            },
        );
        db.load_str("a(c1). a(c2). item(c3). b(X) :- forall U in X: a(U).")
            .unwrap();
        let m = db.evaluate().unwrap();
        // b holds for every subset of {x : a(x)} — Theorem 8's point:
        // the defining clause admits all subsets, not just the full set.
        let c1 = Value::atom("c1");
        let c2 = Value::atom("c2");
        assert!(m.holds("b", &[Value::empty_set()]));
        assert!(m.holds("b", &[Value::set([c1.clone()])]));
        assert!(m.holds("b", &[Value::set([c2.clone()])]));
        assert!(m.holds("b", &[Value::set([c1.clone(), c2.clone()])]));
        assert!(!m.holds("b", &[Value::set([Value::atom("c3")])]));
        assert!(!m.holds("b", &[Value::set([c1, Value::atom("c3")])]));
    }

    #[test]
    fn holds_on_a_fresh_constant_leaves_the_store_unchanged() {
        let mut db = Database::new(Dialect::Elps);
        db.load_str("e(a, {b}). t(X, S) :- e(X, S).").unwrap();
        let m = db.evaluate().unwrap();
        let b = Value::set([Value::atom("b")]);
        assert!(m.holds("t", &[Value::atom("a"), b.clone()]));
        let before = m.engine().store().len();
        assert!(!m.holds("t", &[Value::atom("never_seen"), b]));
        assert!(!m.holds("t", &[Value::atom("a"), Value::set([Value::int(7)])]));
        assert!(!m.holds(
            "t",
            &[Value::atom("a"), Value::app("f", [Value::atom("a")])]
        ));
        assert_eq!(m.engine().store().len(), before, "holds interns nothing");
    }

    #[test]
    fn add_fact_api() {
        let mut db = Database::new(Dialect::Elps);
        db.add_fact(
            "owns",
            &[
                Value::atom("alice"),
                Value::set([Value::atom("car"), Value::int(3)]),
            ],
        );
        db.load_str("rich(P) :- owns(P, S), card(S, N), N >= 2.")
            .unwrap();
        let m = db.evaluate().unwrap();
        assert!(m.holds("rich", &[Value::atom("alice")]));
    }

    #[test]
    fn stats_are_exposed() {
        let mut db = Database::new(Dialect::Elps);
        db.load_str("e(a, b). e(b, c). t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).")
            .unwrap();
        let m = db.evaluate().unwrap();
        assert!(m.stats().facts_derived >= 5);
        assert!(m.stats().iterations >= 2);
        assert_eq!(m.count("t", 2), 3);
    }

    #[test]
    fn query_view_matches_owned_answers() {
        let mut db = Database::new(Dialect::Elps);
        db.load_str("e(a, b). e(b, c). t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).")
            .unwrap();
        let mut session = db.session().unwrap();
        let owned = session.query("t", &[Some(Value::atom("a")), None]).unwrap();
        let view = session
            .query_view("t", &[Some(Value::atom("a")), None])
            .unwrap();
        assert_eq!(view.len(), 2);
        assert_eq!(view.to_owned().rows, owned.rows);
        // Rows stay interned: lifting one on demand round-trips.
        let lifted: Vec<Vec<Value>> = view.iter().map(|r| view.value_row(r)).collect();
        assert!(lifted.contains(&vec![Value::atom("a"), Value::atom("c")]));

        let owned = session.query_str("t(a, X), e(X, Y).").unwrap();
        let view = session.query_str_view("t(a, X), e(X, Y).").unwrap();
        assert_eq!(view.columns, vec!["X", "Y"]);
        assert_eq!(view.to_owned().rows, owned.rows);
    }

    #[test]
    fn model_add_fact_then_update_is_incremental() {
        let mut db = Database::new(Dialect::Elps);
        db.load_str("e(a, b). t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).")
            .unwrap();
        let mut m = db.evaluate().unwrap();
        assert_eq!(m.count("t", 2), 1);
        m.add_fact("e", &[Value::atom("b"), Value::atom("c")])
            .unwrap();
        assert!(m.needs_update());
        let stats = m.update().unwrap();
        assert!(!m.needs_update());
        assert_eq!(stats.incremental_runs, 1);
        assert_eq!(stats.delta_seed_facts, 1);
        assert_eq!(m.count("t", 2), 3);
        // …and agrees with a from-scratch evaluation of the grown DB.
        let mut grown = db.clone();
        grown.add_fact("e", &[Value::atom("b"), Value::atom("c")]);
        let batch = grown.evaluate().unwrap();
        assert_eq!(m.extension_n("t", 2), batch.extension_n("t", 2));
        // Cumulative vs per-pass stats differ once updates happened.
        assert!(m.stats().iterations > m.last_stats().iterations);
    }

    #[test]
    fn model_reset_facts_keeps_rules_live() {
        let mut db = Database::new(Dialect::Elps);
        db.load_str("e(a, b). t(X, Y) :- e(X, Y).").unwrap();
        let mut m = db.evaluate().unwrap();
        assert_eq!(m.count("t", 2), 1);
        m.reset_facts();
        assert!(m.needs_update());
        m.update().unwrap();
        assert_eq!(m.count("t", 2), 0);
        m.add_fact("e", &[Value::atom("x"), Value::atom("y")])
            .unwrap();
        m.update().unwrap();
        assert!(m.holds("t", &[Value::atom("x"), Value::atom("y")]));
        assert_eq!(m.count("t", 2), 1);
    }

    #[test]
    fn session_answers_point_queries_demand_driven() {
        use lps_engine::QueryPath;
        let mut db = Database::new(Dialect::Elps);
        db.load_str(
            "e(a, b). e(b, c). e(c, d).
             t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).",
        )
        .unwrap();
        let mut s = db.session().unwrap();
        let ans = s.query("t", &[Some(Value::atom("b")), None]).unwrap();
        assert_eq!(ans.path, QueryPath::Demand);
        assert_eq!(ans.rows.len(), 2, "b reaches c and d");
        assert_eq!(ans.stats.magic_facts_seeded, 1);
        // The cached plan serves the next constant without recompiling.
        let ans = s.query("t", &[Some(Value::atom("a")), None]).unwrap();
        assert_eq!(ans.stats.adornments_compiled, 0);
        assert_eq!(ans.rows.len(), 3);
        // Unknown predicates answer empty instead of erroring.
        let ans = s.query("nosuch", &[None]).unwrap();
        assert!(ans.rows.is_empty());
        // Forcing the extension materializes; queries then read the
        // model.
        s.update().unwrap();
        let ans = s.query("t", &[Some(Value::atom("c")), None]).unwrap();
        assert_eq!(ans.path, QueryPath::Materialized);
        assert_eq!(ans.rows, vec![vec![Value::atom("c"), Value::atom("d")]]);
    }

    #[test]
    fn session_answers_conjunctive_queries() {
        use lps_engine::QueryPath;
        let mut db = Database::new(Dialect::Elps);
        db.load_str(
            "r(x1, {p, q}). r(x2, {q}).
             s(X, Y) :- r(X, Ys), Y in Ys.",
        )
        .unwrap();
        let mut m = db.session().unwrap();
        let ans = m.query_str("s(X, q), r(X, Ys).").unwrap();
        assert_eq!(ans.path, QueryPath::Demand);
        assert_eq!(ans.columns, vec!["X", "Ys"]);
        assert_eq!(ans.rows.len(), 2);
        // Ground goal: one empty row means yes, none means no.
        let yes = m.query_str("s(x1, p).").unwrap();
        assert_eq!(yes.rows, vec![Vec::<Value>::new()]);
        let no = m.query_str("s(x2, p).").unwrap();
        assert!(no.rows.is_empty());
    }

    #[test]
    fn session_query_falls_back_on_negation() {
        use lps_engine::QueryPath;
        let mut db = Database::new(Dialect::StratifiedElps);
        db.load_str(
            "node(a). node(b). e(a, b).
             reach(a). reach(Y) :- reach(X), e(X, Y).
             un(X) :- node(X), not reach(X).",
        )
        .unwrap();
        let mut s = db.session().unwrap();
        let ans = s.query("un", &[None]).unwrap();
        assert_eq!(ans.path, QueryPath::Fallback);
        assert_eq!(ans.stats.demand_fallbacks, 1);
        assert!(ans.rows.is_empty(), "all nodes reachable");
        // Demand answers and model answers agree on the monotone part.
        let ans = s.query("reach", &[Some(Value::atom("b"))]).unwrap();
        assert_eq!(ans.rows, vec![vec![Value::atom("b")]]);
    }

    #[test]
    fn auxiliary_predicates_never_take_a_fact_predicates_name() {
        // The normalizer's first auxiliary would be `aux_0/1`; a fact
        // predicate of that name must not leak into the quantifier.
        let mut db = Database::new(Dialect::Lps);
        db.load_str(
            "aux_0(c). s({a, c}). s({a, b}).
             q(S) :- s(S), forall X in S: (X = a ; X = b).",
        )
        .unwrap();
        let normalized = db.normalized().unwrap();
        assert!(normalized.clauses().all(|c| c.head.pred != "aux_0"));
        let ab = Value::set([Value::atom("a"), Value::atom("b")]);
        assert_eq!(db.evaluate().unwrap().extension("q"), vec![vec![ab]]);
    }

    #[test]
    fn rejected_facts_from_infallible_loads_surface_from_check() {
        let mut db = Database::new(Dialect::Lps);
        db.add_fact("p", &[Value::set([Value::empty_set()])]);
        let err = db.check().unwrap_err();
        assert!(err.to_string().contains("nested set"), "{err}");
        let mut db = Database::new(Dialect::Elps);
        let program = lps_syntax::parse_program("q(a). card({a}, 1). r(X) :- q(X).").unwrap();
        db.load_program(program);
        assert_eq!(db.program().items.len(), 1, "only the rule is a clause");
        let err = db.evaluate().unwrap_err();
        assert!(err.to_string().contains("Definition 5"), "{err}");
    }

    #[test]
    fn a_predicate_used_at_two_arities_is_an_error_not_a_panic() {
        for src in ["p(a). p(a, b).", "p(a). p(X, Y) :- p(X), p(Y)."] {
            let mut db = Database::new(Dialect::Elps);
            db.load_str(src).unwrap();
            let err = db.check().unwrap_err();
            assert!(err.to_string().contains("arguments"), "{src}: {err}");
        }
    }

    #[test]
    fn dialect_violations_surface_from_evaluate() {
        let mut db = Database::new(Dialect::Elps);
        db.load_str("p(X) :- q(X), not r(X).").unwrap();
        assert!(matches!(
            db.evaluate().unwrap_err(),
            CoreError::InvalidClause { .. }
        ));
    }
}
