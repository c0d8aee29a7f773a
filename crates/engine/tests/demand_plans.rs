//! The demand plan cache seen through the public API: LRU eviction and
//! re-derivation, registry-slot and shape-name recycling, plans that
//! share sub-adornments, conjunctive goals cached by shape, and the
//! cold mode that clears the retained spaces before each query.

use lps_engine::pattern::{Pattern, VarId};
use lps_engine::{BodyLit, Engine, EvalConfig, PredId, QueryPath, Rule};
use lps_term::TermId;

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

fn tc_engine() -> (Engine, PredId, PredId, Vec<TermId>) {
    tc_engine_with(EvalConfig::default())
}

/// The `edge`/`path` chain over `n0 → … → n4`, under `config`.
fn tc_engine_with(config: EvalConfig) -> (Engine, PredId, PredId, Vec<TermId>) {
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
    let (mut e, edge, path, ids) = tc_engine_with(EvalConfig {
        demand_plan_cache: 1,
        ..EvalConfig::default()
    });
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
    let (mut e, edge, path, ids) = tc_engine_with(EvalConfig {
        demand_plan_cache: 2,
        ..EvalConfig::default()
    });
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
    let (mut e, edge, path, ids) = tc_engine_with(EvalConfig {
        demand_plan_cache: 2,
        ..EvalConfig::default()
    });
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
    // A third plan evicts the least recently used one (path):
    // that reclaims the relations the s plan shares and puts it
    // back to cold — it must re-derive, never serve rows out of a
    // reclaimed space.
    let third = e.query(edge, &[Some(ids[0]), None]).unwrap();
    assert_eq!(third.stats.plans_evicted, 1, "bound 2 evicts the path plan");
    let s3 = e.query(s, &[Some(ids[1]), None]).unwrap();
    assert_eq!(s3.stats.demand_continuations, 0, "the s plan went cold");
    assert_eq!(s3.rows.len(), 2, "n1 → {{n2, n3}} → successor");
    let p3 = e.query(path, &[Some(ids[0]), None]).unwrap();
    assert_eq!(
        p3.stats.plans_evicted, 1,
        "recompiling path evicts the edge plan"
    );
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
    // Back again with the first constant — the head relation was
    // cleared, so the join restarts clean.
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
