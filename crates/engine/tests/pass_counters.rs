//! The exact work of every evaluation pass kind, pinned: each
//! `EvalStats` field of one session that walks a chain transitive
//! closure through a batch run, an incremental update, a cold demand
//! query, a warm continuation, an obstructed query that materializes
//! the model, a conjunctive goal over that model and an update that
//! falls back because of a negation stratum. A change to how any pass
//! opens its strata, seeds its windows or counts its rounds shows up
//! here as a changed counter, even when the answers stay right.
//!
//! The configuration is explicit (cost planner on, tracing off), so the
//! `LPS_PLANNER` and `LPS_TRACE` environment defaults leave the pinned
//! values unchanged.

use lps_engine::pattern::{Pattern, VarId};
use lps_engine::{
    BodyLit, Engine, EvalConfig, EvalStats, FixpointStrategy, PredId, QueryPath, Rule, SetUniverse,
};
use lps_term::TermId;

fn v(i: u32) -> Pattern {
    Pattern::Var(VarId(i))
}

fn rule(head: PredId, head_args: Vec<Pattern>, outer: Vec<BodyLit>, nv: usize) -> Rule {
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

fn config() -> EvalConfig {
    EvalConfig {
        strategy: FixpointStrategy::SemiNaive,
        set_universe: SetUniverse::Reject,
        max_iterations: 100_000,
        forall_trigger_index: true,
        demand_plan_cache: 64,
        cost_planner: true,
        trace: false,
        profile: false,
    }
}

/// Every pass of the session, in order, with the stats it returned.
fn passes() -> Vec<(&'static str, EvalStats)> {
    let mut e = Engine::new(config());
    let edge = e.pred("e", 2);
    let node = e.pred("node", 1);
    let t = e.pred("t", 2);
    let unreached = e.pred("unreached", 1);
    let goal = e.pred("query#goal", 1);
    let n: Vec<TermId> = (0..10)
        .map(|i| e.store_mut().atom(&format!("n{i}")))
        .collect();
    // A chain n0 → … → n7; n8 and n9 are isolated nodes.
    for w in n[..8].windows(2) {
        e.fact(edge, vec![w[0], w[1]]).unwrap();
    }
    for &x in &n {
        e.fact(node, vec![x]).unwrap();
    }
    // t(X, Y) :- e(X, Y).   t(X, Z) :- t(X, Y), e(Y, Z).
    e.rule(rule(
        t,
        vec![v(0), v(1)],
        vec![BodyLit::Pos(edge, vec![v(0), v(1)])],
        2,
    ))
    .unwrap();
    e.rule(rule(
        t,
        vec![v(0), v(2)],
        vec![
            BodyLit::Pos(t, vec![v(0), v(1)]),
            BodyLit::Pos(edge, vec![v(1), v(2)]),
        ],
        3,
    ))
    .unwrap();

    let mut out = Vec::new();
    out.push(("batch run", e.run().unwrap()));
    e.fact(edge, vec![n[7], n[8]]).unwrap();
    out.push(("incremental update", e.update().unwrap()));

    // unreached(X) :- node(X), not t(n0, X).  A rule change leaves the
    // session without a model, so the next queries take the demand
    // path.
    e.rule(rule(
        unreached,
        vec![v(0)],
        vec![
            BodyLit::Pos(node, vec![v(0)]),
            BodyLit::Neg(t, vec![Pattern::Ground(n[0]), v(0)]),
        ],
        1,
    ))
    .unwrap();
    let cold = e.query(t, &[Some(n[2]), None]).unwrap();
    assert_eq!(cold.path, QueryPath::Demand);
    assert_eq!(cold.rows.len(), 6, "n2 reaches n3 … n8");
    out.push(("cold demand query", cold.stats));
    let warm = e.query(t, &[Some(n[0]), None]).unwrap();
    assert_eq!(warm.path, QueryPath::Demand);
    assert_eq!(warm.rows.len(), 8, "n0 reaches n1 … n8");
    out.push(("warm continuation", warm.stats));

    // The negation obstructs the rewrite: the query materializes the
    // session's model and reads it.
    let fallback = e.query(unreached, &[None]).unwrap();
    assert_eq!(fallback.path, QueryPath::Fallback);
    assert_eq!(fallback.rows.len(), 2, "n0 and n9");
    out.push(("obstructed fallback query", fallback.stats));

    // ?- node(X), not t(n1, X).  over the materialized model.
    let conj = e
        .query_rule(rule(
            goal,
            vec![v(0)],
            vec![
                BodyLit::Pos(node, vec![v(0)]),
                BodyLit::Neg(t, vec![Pattern::Ground(n[1]), v(0)]),
            ],
            1,
        ))
        .unwrap();
    assert_eq!(conj.path, QueryPath::Materialized);
    assert_eq!(conj.rows.len(), 3, "n0, n1 and n9");
    out.push(("conjunctive goal on the model", conj.stats));

    // A new edge feeds `t`, which the negation stratum reads: the
    // update recomputes from the EDB.
    e.fact(edge, vec![n[8], n[9]]).unwrap();
    out.push(("update falling back on negation", e.update().unwrap()));
    assert_eq!(e.rows(unreached).len(), 1, "only n0 is unreached");
    out.push(("cumulative", e.cumulative_stats()));
    out
}

#[test]
fn every_pass_kind_does_its_pinned_work() {
    let want: Vec<(&'static str, EvalStats)> = vec![
        (
            "batch run",
            EvalStats {
                iterations: 8,
                facts_derived: 45,
                rule_evaluations: 9,
                tuples_considered: 28,
                strata: 1,
                index_probes: 35,
                probe_rows: 21,
                probe_allocs: 0,
                incremental_runs: 0,
                delta_seed_facts: 0,
                adornments_compiled: 0,
                magic_facts_seeded: 0,
                demand_fallbacks: 0,
                demand_continuations: 0,
                plans_evicted: 0,
                parallel_rounds: 0,
                merge_rows: 0,
                worker_imbalance: 0,
                reorders_applied: 1,
                estimated_rows: 15,
                stats_refreshes: 1,
                misestimate_ratio: 1,
            },
        ),
        (
            "incremental update",
            EvalStats {
                iterations: 2,
                facts_derived: 9,
                rule_evaluations: 3,
                tuples_considered: 8,
                strata: 1,
                index_probes: 9,
                probe_rows: 7,
                probe_allocs: 0,
                incremental_runs: 1,
                delta_seed_facts: 1,
                adornments_compiled: 0,
                magic_facts_seeded: 0,
                demand_fallbacks: 0,
                demand_continuations: 0,
                plans_evicted: 0,
                parallel_rounds: 0,
                merge_rows: 0,
                worker_imbalance: 0,
                reorders_applied: 0,
                estimated_rows: 0,
                stats_refreshes: 0,
                misestimate_ratio: 0,
            },
        ),
        (
            "cold demand query",
            EvalStats {
                iterations: 2,
                facts_derived: 7,
                rule_evaluations: 5,
                tuples_considered: 13,
                strata: 1,
                index_probes: 64,
                probe_rows: 18,
                probe_allocs: 0,
                incremental_runs: 0,
                delta_seed_facts: 0,
                adornments_compiled: 1,
                magic_facts_seeded: 1,
                demand_fallbacks: 0,
                demand_continuations: 0,
                plans_evicted: 0,
                parallel_rounds: 0,
                merge_rows: 0,
                worker_imbalance: 0,
                reorders_applied: 3,
                estimated_rows: 59,
                stats_refreshes: 1,
                misestimate_ratio: 3,
            },
        ),
        (
            "warm continuation",
            EvalStats {
                iterations: 2,
                facts_derived: 9,
                rule_evaluations: 5,
                tuples_considered: 17,
                strata: 1,
                index_probes: 19,
                probe_rows: 24,
                probe_allocs: 0,
                incremental_runs: 0,
                delta_seed_facts: 0,
                adornments_compiled: 0,
                magic_facts_seeded: 1,
                demand_fallbacks: 0,
                demand_continuations: 1,
                plans_evicted: 0,
                parallel_rounds: 0,
                merge_rows: 0,
                worker_imbalance: 0,
                reorders_applied: 0,
                estimated_rows: 0,
                stats_refreshes: 0,
                misestimate_ratio: 0,
            },
        ),
        (
            "obstructed fallback query",
            EvalStats {
                iterations: 11,
                facts_derived: 56,
                rule_evaluations: 11,
                tuples_considered: 38,
                strata: 2,
                index_probes: 44,
                probe_rows: 28,
                probe_allocs: 0,
                incremental_runs: 0,
                delta_seed_facts: 0,
                adornments_compiled: 0,
                magic_facts_seeded: 0,
                demand_fallbacks: 1,
                demand_continuations: 0,
                plans_evicted: 0,
                parallel_rounds: 0,
                merge_rows: 0,
                worker_imbalance: 0,
                reorders_applied: 1,
                estimated_rows: 35,
                stats_refreshes: 1,
                misestimate_ratio: 1,
            },
        ),
        (
            "conjunctive goal on the model",
            EvalStats {
                iterations: 2,
                facts_derived: 3,
                rule_evaluations: 1,
                tuples_considered: 3,
                strata: 1,
                index_probes: 0,
                probe_rows: 0,
                probe_allocs: 0,
                incremental_runs: 0,
                delta_seed_facts: 0,
                adornments_compiled: 0,
                magic_facts_seeded: 0,
                demand_fallbacks: 0,
                demand_continuations: 0,
                plans_evicted: 0,
                parallel_rounds: 0,
                merge_rows: 0,
                worker_imbalance: 0,
                reorders_applied: 0,
                estimated_rows: 10,
                stats_refreshes: 1,
                misestimate_ratio: 0,
            },
        ),
        (
            "update falling back on negation",
            EvalStats {
                iterations: 12,
                facts_derived: 65,
                rule_evaluations: 12,
                tuples_considered: 46,
                strata: 2,
                index_probes: 54,
                probe_rows: 36,
                probe_allocs: 0,
                incremental_runs: 0,
                delta_seed_facts: 0,
                adornments_compiled: 0,
                magic_facts_seeded: 0,
                demand_fallbacks: 0,
                demand_continuations: 0,
                plans_evicted: 0,
                parallel_rounds: 0,
                merge_rows: 0,
                worker_imbalance: 0,
                reorders_applied: 0,
                estimated_rows: 0,
                stats_refreshes: 0,
                misestimate_ratio: 0,
            },
        ),
        (
            "cumulative",
            EvalStats {
                iterations: 39,
                facts_derived: 194,
                rule_evaluations: 46,
                tuples_considered: 153,
                strata: 9,
                index_probes: 225,
                probe_rows: 134,
                probe_allocs: 0,
                incremental_runs: 1,
                delta_seed_facts: 1,
                adornments_compiled: 1,
                magic_facts_seeded: 2,
                demand_fallbacks: 1,
                demand_continuations: 1,
                plans_evicted: 0,
                parallel_rounds: 0,
                merge_rows: 0,
                worker_imbalance: 0,
                reorders_applied: 5,
                estimated_rows: 119,
                stats_refreshes: 4,
                misestimate_ratio: 3,
            },
        ),
    ];
    assert_eq!(passes(), want);
}
