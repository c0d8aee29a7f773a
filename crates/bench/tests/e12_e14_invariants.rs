//! The invariants of E12, E13 and E14 at smoke sizes (EXPERIMENTS.md):
//! the three regimes of the stratum driver — batch then seeded
//! incremental updates, cold demand plans, and warm continuations over
//! retained demand spaces — must give the model's answers. `report`
//! keeps the timing rows and their off-smoke bars; the answers and
//! counters are checked here, in every test leg. The configuration
//! follows the environment, so the planner-off and tracing legs check
//! the same invariants.

use std::collections::BTreeSet;

use lps_bench::{db, db_cfg, eval, workloads};
use lps_core::{Dialect, Model};
use lps_engine::{EvalConfig, SetUniverse};
use lps_term::{TermId, Value};

fn atom(i: usize) -> Value {
    Value::atom(format!("n{i}"))
}

/// The rows of `t` in `m` whose column `col` is `node`, as sorted
/// values.
fn t_rows(m: &Model, col: usize, node: usize) -> Vec<Vec<Value>> {
    let engine = m.engine();
    let t = engine.lookup_pred("t", 2).expect("t is defined");
    let want = atom(node);
    let mut rows: Vec<Vec<Value>> = engine
        .rows(t)
        .filter(|row| Value::from_store(engine.store(), row[col]) == want)
        .map(|row| {
            row.iter()
                .map(|&id| Value::from_store(engine.store(), id))
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn e12_incremental_updates_never_fall_back_and_match_the_batch_model() {
    let (nodes, k) = (128, 16);
    let src = workloads::chain_tc(nodes);
    let edges = workloads::update_edges(nodes, k, 99);
    let mut model = eval(&db(&src, Dialect::Elps, SetUniverse::Reject));
    let mut scratch = db(&src, Dialect::Elps, SetUniverse::Reject);
    for &(a, b) in &edges {
        model.add_fact("e", &[atom(a), atom(b)]).expect("add_fact");
        model.update().expect("incremental update");
        scratch.add_fact("e", &[atom(a), atom(b)]);
    }
    assert_eq!(
        model.stats().incremental_runs,
        k,
        "the incremental path must not fall back to a full recompute"
    );
    let batch = eval(&scratch);
    let id_rows = |m: &Model| -> Vec<Vec<TermId>> {
        let engine = m.engine();
        let t = engine.lookup_pred("t", 2).expect("t is defined");
        let mut rows: Vec<Vec<TermId>> = engine.rows(t).map(<[_]>::to_vec).collect();
        rows.sort();
        rows
    };
    assert_eq!(
        id_rows(&model),
        id_rows(&batch),
        "incremental model must be bit-identical to the batch model"
    );
}

#[test]
fn e13_demand_answers_equal_the_model_without_fallback() {
    let (nodes, k) = (128, 8);
    let src = workloads::chain_tc_left(nodes);
    let sources = workloads::point_query_sources(nodes, k, 17);
    let mut session = db(&src, Dialect::Elps, SetUniverse::Reject)
        .session()
        .expect("session loads");
    let answers: Vec<Vec<Vec<Value>>> = sources
        .iter()
        .map(|&s| {
            session
                .query("t", &[Some(atom(s)), None])
                .expect("demand query")
                .rows
        })
        .collect();
    let cum = session.stats();
    assert_eq!(
        cum.demand_fallbacks, 0,
        "the set-free workload never falls back"
    );
    let distinct = sources.iter().collect::<BTreeSet<_>>().len();
    assert_eq!(
        cum.magic_facts_seeded, distinct,
        "one magic seed per distinct query constant"
    );
    assert_eq!(
        cum.demand_continuations,
        k - 1,
        "every query after the first continues over the retained space"
    );
    assert!(
        cum.adornments_compiled >= 1,
        "the bf adornment compiles once"
    );

    let full = eval(&db(&src, Dialect::Elps, SetUniverse::Reject));
    for (qi, &s) in sources.iter().enumerate() {
        assert_eq!(
            answers[qi],
            t_rows(&full, 0, s),
            "demand answers must equal the materialized model's \
             (query {qi}, source n{s})"
        );
    }

    // The right-linear orientation queried by bound destination stays
    // on the demand path too; both orientations compute one closure.
    let mut right = db(
        &workloads::chain_tc(nodes),
        Dialect::Elps,
        SetUniverse::Reject,
    )
    .session()
    .expect("session loads");
    for &s in &sources {
        let dst = nodes - 1 - s;
        let ans = right
            .query("t", &[None, Some(atom(dst))])
            .expect("right-linear fb query");
        assert_eq!(
            ans.rows,
            t_rows(&full, 1, dst),
            "right-linear fb answers must equal the materialized model \
             (destination n{dst})"
        );
    }
    assert_eq!(
        right.stats().demand_fallbacks,
        0,
        "the right-linear orientation must stay on the demand path"
    );
}

#[test]
fn e14_retained_and_cold_streams_equal_the_maintained_model() {
    let (nodes, k, distinct, update_every) = (128, 12, 3, 4);
    let src = workloads::chain_tc_left(nodes);
    let sources = workloads::overlapping_sources(nodes, k, distinct, 23);
    let edges = workloads::update_edges(nodes, k / update_every, 41);

    // The answers each query step must see, from a materialized model
    // maintained incrementally through the same interleaving.
    let mut reference = eval(&db(&src, Dialect::Elps, SetUniverse::Reject));
    let mut expected = Vec::with_capacity(k);
    for i in 0..k {
        expected.push(t_rows(&reference, 0, sources[i]));
        if i % update_every == update_every - 1 {
            let (a, b) = edges[i / update_every];
            reference.add_fact("e", &[atom(a), atom(b)]).expect("edge");
            reference.update().expect("incremental reference update");
        }
    }

    // The stream, with the demand spaces retained or cleared before
    // every query.
    let run_stream = |retention: bool| {
        let mut session = db(&src, Dialect::Elps, SetUniverse::Reject)
            .session()
            .expect("session loads");
        let mut rows = Vec::with_capacity(k);
        for i in 0..k {
            if !retention {
                session.engine_mut().clear_demand_spaces();
            }
            let ans = session
                .query("t", &[Some(atom(sources[i])), None])
                .expect("point query");
            rows.push(ans.rows);
            if i % update_every == update_every - 1 {
                let (a, b) = edges[i / update_every];
                session.add_fact("e", &[atom(a), atom(b)]).expect("edge");
            }
        }
        (rows, session.stats())
    };
    let (retained_rows, retained) = run_stream(true);
    let (cold_rows, cold) = run_stream(false);
    assert_eq!(retained.demand_fallbacks, 0, "retained: no fallbacks");
    assert_eq!(cold.demand_fallbacks, 0, "cold: no fallbacks");
    for i in 0..k {
        assert_eq!(
            retained_rows[i], expected[i],
            "retained answers must equal the maintained model (query {i})"
        );
        assert_eq!(
            cold_rows[i], expected[i],
            "cold answers must equal the maintained model (query {i})"
        );
    }
    assert_eq!(
        retained.magic_facts_seeded,
        sources.iter().collect::<BTreeSet<_>>().len(),
        "retained: one real seed per distinct source"
    );
    assert_eq!(
        retained.demand_continuations,
        k - 1,
        "retained: every query after the first is a continuation"
    );
    assert_eq!(
        cold.demand_continuations, 0,
        "cold: cleared spaces never continue"
    );
    assert_eq!(
        cold.magic_facts_seeded, k,
        "cold: the cleared space re-seeds every query"
    );
}

#[test]
fn e14_eviction_at_bound_one_rederives_exactly() {
    // Two alternating adornments under a plan cache of one evict on
    // every query; reclaimed spaces must never serve stale rows.
    let (nodes, k) = (96, 12);
    let src = workloads::chain_tc_left(nodes);
    let sources = workloads::overlapping_sources(nodes, k, 3, 7);
    let edges = workloads::update_edges(nodes, k, 11);
    let mut reference = eval(&db(&src, Dialect::Elps, SetUniverse::Reject));
    let config = EvalConfig {
        set_universe: SetUniverse::Reject,
        demand_plan_cache: 1,
        ..EvalConfig::default()
    };
    let mut session = db_cfg(&src, Dialect::Elps, config)
        .session()
        .expect("session loads");
    let mut evictions = 0;
    for i in 0..k {
        let (source, target) = (sources[i], nodes - 1 - sources[i]);
        let ans = session
            .query("t", &[Some(atom(source)), None])
            .expect("bf query");
        evictions += ans.stats.plans_evicted;
        assert_eq!(
            ans.rows,
            t_rows(&reference, 0, source),
            "bf query {i} must re-derive exactly"
        );
        let ans = session
            .query("t", &[None, Some(atom(target))])
            .expect("fb query");
        evictions += ans.stats.plans_evicted;
        assert_eq!(
            ans.rows,
            t_rows(&reference, 1, target),
            "fb query {i} must re-derive exactly"
        );
        let (a, b) = edges[i];
        session.add_fact("e", &[atom(a), atom(b)]).expect("edge");
        reference.add_fact("e", &[atom(a), atom(b)]).expect("edge");
        reference.update().expect("reference update");
    }
    assert!(
        evictions >= 2 * k - 2,
        "bound 1 with alternating adornments evicts every round (got {evictions})"
    );
    assert_eq!(
        session.stats().demand_fallbacks,
        0,
        "eviction churn stays on the demand path"
    );
}
