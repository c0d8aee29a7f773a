//! Demand-driven query answering — the surface half of the magic-set
//! subsystem.
//!
//! The engine half ([`lps_engine::magic`]) rewrites the *lowered* rule
//! set for a query's bound/free pattern and caches the specialized
//! plan per adornment behind [`Engine::query`]. This module supplies
//! the surface-language entry points on top of it:
//!
//! * [`compile_query`] lowers a *conjunctive* goal written in the
//!   surface syntax — `p(X), q(X, {a}).` — into a temporary query
//!   rule `query#goal(vars…) :- p(X), q(X, {a})` whose head collects
//!   the goal's free variables in first-appearance order. Ground
//!   terms inside the goal become magic seeds, so
//!   `tc(a, X), color(X, blue).` derives only from `a` onward. The
//!   head predicate lives in the engine's `#`-namespace, which the
//!   lexer cannot produce, so it never collides with program
//!   predicates. Downstream, the engine canonicalizes the rule to its
//!   *shape* (`lps_engine::magic::lift_goal`: the rule modulo
//!   top-level constants, constants lifted into the magic seed tuple)
//!   and caches the compiled magic-set plan per shape — so a stream
//!   of [`crate::Model::query_str`] calls that differ only in
//!   constants compiles one plan, and under demand retention shares
//!   one retained demand space, giving conjunctive goals the same
//!   amortization point queries have.
//! * [`QueryAnswersRef`] is the borrowed, *interned-row* result view:
//!   answer rows stay as engine `TermId`s next to the store that owns
//!   them, so counting, membership tests, and benchmark loops pay no
//!   per-atom `String` allocation.
//! * [`QueryAnswers`] is the owned, [`Value`]-level result form used
//!   by [`crate::Model::query`] and [`crate::Model::query_str`] (and
//!   by `lpsi`) — a [`QueryAnswersRef::to_owned`] wrapper.
//!
//! Goals may use everything a normalized rule body may: positive and
//! negated literals, comparisons, arithmetic, and a restricted
//! universal quantifier group. Non-monotone goals (negation, or any
//! predicate reaching negation/grouping) are answered soundly through
//! the engine's full-materialization fallback — see
//! `DESIGN.md` §3 for the fallback discipline.

use lps_engine::pattern::{Pattern, VarId};
use lps_engine::{Engine, EvalStats, QueryPath, QueryResult, RowSet, Rule};
use lps_syntax::{parse_program, Clause, Formula, Item, Literal, Span, Term};
use lps_term::{TermId, TermStore, Value};

use crate::error::CoreError;
use crate::lower::{lower_clause_sorted, register_pred};

/// A compiled conjunctive goal: the temporary rule to hand to
/// [`Engine::query_rule`], plus the answer column names.
#[derive(Debug)]
pub struct QueryGoal {
    /// `query#goal(vars…) :- goal-conjunction`.
    pub rule: Rule,
    /// The goal's free variable names, in head-argument order. Empty
    /// for a fully ground goal (whose single empty answer row means
    /// "yes").
    pub columns: Vec<String>,
}

/// Owned answers of a demand query, lifted to [`Value`]s and sorted.
#[derive(Debug, Clone)]
pub struct QueryAnswers {
    /// Column names for conjunctive goals (empty for single-predicate
    /// queries, whose rows follow the predicate's argument order).
    pub columns: Vec<String>,
    /// The matching rows, sorted.
    pub rows: Vec<Vec<Value>>,
    /// Which engine pipeline answered (demand, model, or fallback).
    pub path: QueryPath,
    /// Work the query performed.
    pub stats: EvalStats,
}

impl QueryAnswers {
    /// Lift an engine-level result into owned values.
    pub fn from_result(engine: &Engine, columns: Vec<String>, res: QueryResult) -> Self {
        QueryAnswersRef::from_result(engine.store(), columns, res).to_owned()
    }
}

/// Borrowed, interned-row view of a query's answers: the rows stay in
/// the engine's flat [`RowSet`] (one allocation per answer set, rows
/// are `TermId` slices), paired with the [`TermStore`] that interns
/// them. The hot path — row counts, existence checks, streaming rows
/// through a benchmark — never builds a [`Value`] (and so never
/// allocates a `String` per atom); [`QueryAnswersRef::value_row`]
/// lifts single rows and [`QueryAnswersRef::to_owned`] the whole set
/// on demand.
#[derive(Debug)]
pub struct QueryAnswersRef<'a> {
    store: &'a TermStore,
    /// Column names for conjunctive goals (empty for single-predicate
    /// queries, whose rows follow the predicate's argument order).
    pub columns: Vec<String>,
    /// The matching rows, interned, in derivation order (unsorted —
    /// [`QueryAnswersRef::to_owned`] sorts them into `Value` order).
    pub rows: RowSet,
    /// Which engine pipeline answered (demand, model, or fallback).
    pub path: QueryPath,
    /// Work the query performed.
    pub stats: EvalStats,
}

impl<'a> QueryAnswersRef<'a> {
    /// Wrap an engine-level result without marshalling any row.
    pub fn from_result(store: &'a TermStore, columns: Vec<String>, res: QueryResult) -> Self {
        QueryAnswersRef {
            store,
            columns,
            rows: res.rows,
            path: res.path,
            stats: res.stats,
        }
    }

    /// Number of answer rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the query had no answers ("no" for ground goals).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterate over the interned rows.
    pub fn iter(&self) -> impl Iterator<Item = &[TermId]> {
        self.rows.iter()
    }

    /// The store the rows are interned in (for custom rendering).
    pub fn store(&self) -> &'a TermStore {
        self.store
    }

    /// Lift one interned row to owned [`Value`]s.
    pub fn value_row(&self, row: &[TermId]) -> Vec<Value> {
        row.iter()
            .map(|&id| Value::from_store(self.store, id))
            .collect()
    }

    /// Lift every row to the owned [`Value`]-level form, in `Value`
    /// order ([`TermStore::sorted_value_rows`]).
    pub fn to_owned(&self) -> QueryAnswers {
        QueryAnswers {
            columns: self.columns.clone(),
            rows: self.store.sorted_value_rows(self.rows.iter()),
            path: self.path,
            stats: self.stats,
        }
    }
}

/// Compile a conjunctive goal written in the surface syntax (ending
/// with `.`) into a [`QueryGoal`]. The goal is lowered exactly like a
/// rule body — predicates register on the fly, arithmetic flattens to
/// builtin literals — and the answer head collects its free variables
/// (compiler temporaries and quantifier-bound variables are
/// existential and do not appear).
pub fn compile_query(engine: &mut Engine, body: &str) -> Result<QueryGoal, CoreError> {
    let clause = parse_goal(body)?;
    let mut rule = lower_clause_sorted(engine, &clause, None)?;

    // Answer columns: free variables of the goal — outer-literal
    // variables plus the quantifier group's free variables — in first
    // appearance order, minus `$`-prefixed compiler temporaries.
    let mut head_vars: Vec<VarId> = Vec::new();
    for lit in &rule.outer {
        for v in lit.vars() {
            if !head_vars.contains(&v) {
                head_vars.push(v);
            }
        }
    }
    if let Some(q) = &rule.quant {
        for v in q.free_vars() {
            if !head_vars.contains(&v) {
                head_vars.push(v);
            }
        }
    }
    head_vars.retain(|v| !rule.var_names[v.index()].starts_with('$'));
    let columns: Vec<String> = head_vars
        .iter()
        .map(|v| rule.var_names[v.index()].clone())
        .collect();

    // Graft the real head: a dedicated predicate in the engine's
    // unparseable `#`-namespace (the parsed `query_goal` head atom was
    // only a vehicle for lowering the body).
    rule.head = register_pred(engine, "query#goal", head_vars.len(), clause.span)?;
    rule.head_args = head_vars.into_iter().map(Pattern::Var).collect();
    Ok(QueryGoal { rule, columns })
}

/// What a goal wraps into so it parses as the body of one clause.
const GOAL_PREFIX: &str = "query_goal :- ";

/// Parse `goal` (ending with `.`) as the body of a single clause.
/// Syntax-error spans are relative to `goal` itself, so
/// [`CoreError::render`] against the goal text points at the fault.
fn parse_goal(goal: &str) -> Result<Clause, CoreError> {
    let parsed = parse_program(&format!("{GOAL_PREFIX}{goal}")).map_err(|mut e| {
        let shift = |at: usize| at.saturating_sub(GOAL_PREFIX.len());
        e.span = Span::new(shift(e.span.start), shift(e.span.end));
        e
    })?;
    let mut clauses = parsed.items.into_iter().filter_map(|item| match item {
        Item::Clause(c) => Some(c),
        Item::Decl(_) => None,
    });
    let clause = clauses
        .next()
        .ok_or_else(|| CoreError::invalid(Span::default(), "empty query"))?;
    if clauses.next().is_some() {
        return Err(CoreError::invalid(
            Span::default(),
            "a query is a single goal conjunction, e.g. `?- p(X), q(X, {a}).`",
        ));
    }
    if clause.body.is_none() {
        return Err(CoreError::invalid(clause.span, "empty query body"));
    }
    Ok(clause)
}

/// How a query goal is answered — the one classifier behind `lpsi`
/// and the wire server.
#[derive(Debug, Clone, PartialEq)]
pub enum Goal {
    /// A single positive literal whose arguments are distinct
    /// variables or ground terms: a point query for
    /// [`crate::Model::query`], answered with full tuples in the
    /// predicate's argument order.
    Point {
        /// The predicate name.
        pred: String,
        /// Ground arguments as values, `None` at variable positions.
        args: Vec<Option<Value>>,
    },
    /// Anything else — a conjunction, negation, a repeated variable,
    /// arithmetic, a set pattern with variables: compiled as a
    /// temporary query rule by [`crate::Model::query_str`], answered
    /// with bindings of the goal's free variables.
    Conjunctive,
}

/// Parse `goal` (ending with `.`) and classify it as a point or a
/// conjunctive goal. A repeated variable makes a goal conjunctive even
/// when `_`-named: the lowering maps every occurrence of one name to
/// the same variable, so repeats co-refer and need a real join.
pub fn classify_goal(goal: &str) -> Result<Goal, CoreError> {
    let clause = parse_goal(goal)?;
    let Some(Formula::Lit(Literal::Pred(pred, args, _))) = &clause.body else {
        return Ok(Goal::Conjunctive);
    };
    let mut seen: Vec<&str> = Vec::new();
    let mut values = Vec::with_capacity(args.len());
    for arg in args {
        match arg {
            Term::Var(v, _) if !seen.contains(&v.as_str()) => {
                seen.push(v);
                values.push(None);
            }
            other => match other.to_value() {
                Some(v) => values.push(Some(v)),
                None => return Ok(Goal::Conjunctive),
            },
        }
    }
    Ok(Goal::Point {
        pred: pred.clone(),
        args: values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_with(src: &str) -> Engine {
        let mut db = crate::Database::new(crate::Dialect::Elps);
        db.load_str(src).unwrap();
        db.session().unwrap().engine
    }

    #[test]
    fn compile_query_collects_free_vars_in_order() {
        let mut e = engine_with("e(a, b). e(b, c). t(X, Y) :- e(X, Y).");
        let goal = compile_query(&mut e, "t(X, Y), e(Y, Z).").unwrap();
        assert_eq!(goal.columns, vec!["X", "Y", "Z"]);
        assert_eq!(goal.rule.head_args.len(), 3);
    }

    #[test]
    fn ground_goal_has_no_columns() {
        let mut e = engine_with("e(a, b).");
        let goal = compile_query(&mut e, "e(a, b).").unwrap();
        assert!(goal.columns.is_empty());
        assert_eq!(goal.rule.head_args.len(), 0);
    }

    #[test]
    fn quantifier_binders_are_not_answer_columns() {
        let mut e = engine_with("pair({a}, {a, b}).");
        let goal = compile_query(&mut e, "pair(X, Y), forall U in X: U in Y.").unwrap();
        assert_eq!(goal.columns, vec!["X", "Y"]);
    }

    #[test]
    fn arithmetic_temporaries_are_existential() {
        let mut e = engine_with("n(3). n(5).");
        let goal = compile_query(&mut e, "n(M), n(N), K = M + N - 1.").unwrap();
        assert_eq!(goal.columns, vec!["M", "N", "K"]);
    }

    #[test]
    fn end_to_end_demand_answers() {
        let mut e = engine_with(
            "e(a, b). e(b, c). e(c, d).
             t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).",
        );
        let goal = compile_query(&mut e, "t(a, X), e(X, Y).").unwrap();
        let res = e.query_rule(goal.rule).unwrap();
        assert_eq!(res.path, QueryPath::Demand);
        // X ∈ {b, c} with a successor: (b,c), (c,d).
        assert_eq!(res.rows.len(), 2);
    }

    #[test]
    fn repeated_goals_share_one_conjunctive_plan() {
        let mut e = engine_with(
            "e(a, b). e(b, c). e(c, d).
             t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).",
        );
        let first = compile_query(&mut e, "t(a, X), e(X, Y).").unwrap();
        let res = e.query_rule(first.rule).unwrap();
        assert!(res.stats.adornments_compiled >= 1, "first goal compiles");
        assert_eq!(res.rows.len(), 2);
        // Same goal shape, different constant: the engine's
        // shape-keyed cache serves it without recompiling, continuing
        // over the retained demand space.
        let second = compile_query(&mut e, "t(b, X), e(X, Y).").unwrap();
        let res = e.query_rule(second.rule).unwrap();
        assert_eq!(res.stats.adornments_compiled, 0, "shape-cache hit");
        assert_eq!(res.stats.demand_continuations, 1);
        assert_eq!(res.rows.len(), 1, "b → c → d");
        // Repeating the first goal is a zero-work read.
        let again = compile_query(&mut e, "t(a, X), e(X, Y).").unwrap();
        let res = e.query_rule(again.rule).unwrap();
        assert_eq!(res.stats.facts_derived, 0);
        assert_eq!(res.rows.len(), 2);
    }

    #[test]
    fn multiple_clauses_are_rejected() {
        let mut e = engine_with("e(a, b).");
        assert!(compile_query(&mut e, "e(X, Y). e(Y, X).").is_err());
    }
}
