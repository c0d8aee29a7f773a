//! Property test: the cost-based planner is invisible. Join ordering
//! and SIPS selection may only change *work*, never answers — so for
//! random programs (transitive closure, joins, a builtin guard,
//! optionally a negation stratum and an LDL grouping head) and random
//! fact sets, evaluation with `cost_planner` on must produce exactly
//! what evaluation with it off produces: bit-identical `TermId` rows
//! on set-free programs, `Value`-identical rows under grouping (whose
//! set interning order may legitimately differ between runs). The
//! live-session stream drives the stale-statistics path: statistics
//! snapshots go stale after `fact()`/`run()` and are refreshed lazily,
//! and a plan compiled from any snapshot — fresh or stale — must still
//! answer exactly. A second family, the `scons_min` cost roll-up, does
//! the same for builtin placement: the cost planner runs functional
//! builtins ahead of scans, the textual planner does not, and both
//! must derive the same rows.

use proptest::prelude::*;

use lps_engine::pattern::{Pattern, VarId};
use lps_engine::rule::{BodyLit, Builtin, GroupSpec, Rule};
use lps_engine::{Engine, EvalConfig, PredId, QueryPath};
use lps_term::{TermId, Value};

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

struct Preds {
    e: PredId,
    t: PredId,
    s: PredId,
    ne: PredId,
    node: PredId,
    iso: PredId,
    grp: PredId,
}

/// The generated program family: *right-linear* transitive closure
/// (the orientation whose magic rewrite the cost SIPS actually
/// changes), a two-way join, a builtin guard (`!=` must stay after its
/// arguments bind, whatever the estimates say), and optionally a
/// negation stratum (negation may never be reordered ahead of its
/// bindings) and a grouping head.
fn build(planner: bool, with_neg: bool, with_group: bool) -> (Engine, Preds) {
    let mut e = Engine::new(EvalConfig {
        cost_planner: planner,
        ..EvalConfig::default()
    });
    let preds = Preds {
        e: e.pred("e", 2),
        t: e.pred("t", 2),
        s: e.pred("s", 2),
        ne: e.pred("ne", 2),
        node: e.pred("node", 1),
        iso: e.pred("iso", 1),
        grp: e.pred("grp", 2),
    };
    e.rule(rule(
        preds.t,
        vec![v(0), v(1)],
        vec![BodyLit::Pos(preds.e, vec![v(0), v(1)])],
        2,
    ))
    .unwrap();
    // Right-linear: t(X, Z) :- e(X, Y), t(Y, Z).
    e.rule(rule(
        preds.t,
        vec![v(0), v(2)],
        vec![
            BodyLit::Pos(preds.e, vec![v(0), v(1)]),
            BodyLit::Pos(preds.t, vec![v(1), v(2)]),
        ],
        3,
    ))
    .unwrap();
    // s(X, Z) :- t(X, Y), e(Y, Z).
    e.rule(rule(
        preds.s,
        vec![v(0), v(2)],
        vec![
            BodyLit::Pos(preds.t, vec![v(0), v(1)]),
            BodyLit::Pos(preds.e, vec![v(1), v(2)]),
        ],
        3,
    ))
    .unwrap();
    // ne(X, Y) :- e(X, Y), t(Y, X), X != Y.
    e.rule(rule(
        preds.ne,
        vec![v(0), v(1)],
        vec![
            BodyLit::Pos(preds.e, vec![v(0), v(1)]),
            BodyLit::Pos(preds.t, vec![v(1), v(0)]),
            BodyLit::Builtin(Builtin::Ne, vec![v(0), v(1)]),
        ],
        2,
    ))
    .unwrap();
    if with_neg {
        e.rule(rule(
            preds.node,
            vec![v(0)],
            vec![BodyLit::Pos(preds.e, vec![v(0), v(1)])],
            2,
        ))
        .unwrap();
        e.rule(rule(
            preds.iso,
            vec![v(0)],
            vec![
                BodyLit::Pos(preds.node, vec![v(0)]),
                BodyLit::Neg(preds.t, vec![v(0), v(0)]),
            ],
            1,
        ))
        .unwrap();
    }
    if with_group {
        let mut g = rule(
            preds.grp,
            vec![v(0), v(1)],
            vec![BodyLit::Pos(preds.t, vec![v(0), v(1)])],
            2,
        );
        g.group = Some(GroupSpec {
            arg_pos: 1,
            var: VarId(1),
        });
        e.rule(g).unwrap();
    }
    (e, preds)
}

fn atoms(e: &mut Engine) -> Vec<TermId> {
    (0..6)
        .map(|i| e.store_mut().atom(&format!("n{i}")))
        .collect()
}

fn load_facts(e: &mut Engine, pred: PredId, ids: &[TermId], edges: &[(u8, u8)]) {
    for &(a, b) in edges {
        e.fact(pred, vec![ids[a as usize], ids[b as usize]])
            .unwrap();
    }
}

fn value_rows(e: &Engine, pred: PredId) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = e
        .rows(pred)
        .map(|row| {
            row.iter()
                .map(|&id| Value::from_store(e.store(), id))
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

fn all_preds(p: &Preds) -> [PredId; 7] {
    [p.e, p.t, p.s, p.ne, p.node, p.iso, p.grp]
}

/// Batch evaluation with the planner on vs off: identical models.
fn check_batch(edges: &[(u8, u8)], with_neg: bool, with_group: bool) {
    let (mut on, p_on) = build(true, with_neg, with_group);
    let ids_on = atoms(&mut on);
    load_facts(&mut on, p_on.e, &ids_on, edges);
    let stats_on = on.run().unwrap();

    let (mut off, p_off) = build(false, with_neg, with_group);
    let ids_off = atoms(&mut off);
    load_facts(&mut off, p_off.e, &ids_off, edges);
    let stats_off = off.run().unwrap();

    for (pa, pb) in all_preds(&p_on).into_iter().zip(all_preds(&p_off)) {
        if with_group {
            // Grouping interns result sets mid-run, and the planner may
            // change derivation order — so set TermIds can differ while
            // the denoted rows agree.
            assert_eq!(
                value_rows(&on, pa),
                value_rows(&off, pb),
                "planner changed the model of {} (neg={with_neg} group={with_group})",
                on.pred_name(pa),
            );
        } else {
            // Set-free: both engines interned the same atoms in the
            // same order, so rows must agree bit for bit.
            let mut rows_on: Vec<Vec<TermId>> = on.rows(pa).map(<[_]>::to_vec).collect();
            let mut rows_off: Vec<Vec<TermId>> = off.rows(pb).map(<[_]>::to_vec).collect();
            rows_on.sort();
            rows_off.sort();
            assert_eq!(
                rows_on,
                rows_off,
                "planner changed the model of {} (neg={with_neg})",
                on.pred_name(pa),
            );
        }
    }
    assert_eq!(
        stats_off.reorders_applied, 0,
        "planner off must never reorder"
    );
    // Same fixpoint, same tuples — only the visit order may differ.
    assert_eq!(stats_on.facts_derived, stats_off.facts_derived);
}

/// Pick the query predicate and argument list (as in `prop_magic`).
fn pick_query(
    p: &Preds,
    ids: &[TermId],
    which: u8,
    mask: u8,
    consts: (u8, u8),
) -> (PredId, Vec<Option<TermId>>) {
    let (pred, arity) = match which % 7 {
        0 => (p.e, 2),
        1 => (p.t, 2),
        2 => (p.s, 2),
        3 => (p.ne, 2),
        4 => (p.node, 1),
        5 => (p.iso, 1),
        _ => (p.grp, 2),
    };
    let consts = [consts.0, consts.1];
    let args: Vec<Option<TermId>> = (0..arity)
        .map(|i| (mask & (1 << i) != 0).then(|| ids[consts[i] as usize]))
        .collect();
    (pred, args)
}

/// Demand queries on fresh sessions, planner on vs off: identical
/// answers and an identical demand/fallback path decision (the cost
/// SIPS changes the rewrite, never its reach analysis).
fn check_query(edges: &[(u8, u8)], which: u8, mask: u8, consts: (u8, u8), with_neg: bool) {
    let run = |planner: bool| {
        let (mut e, p) = build(planner, with_neg, false);
        let ids = atoms(&mut e);
        load_facts(&mut e, p.e, &ids, edges);
        let (pred, args) = pick_query(&p, &ids, which, mask, consts);
        let res = e.query(pred, &args).unwrap();
        (res.rows.sorted(), res.path)
    };
    let (rows_on, path_on) = run(true);
    let (rows_off, path_off) = run(false);
    assert_eq!(
        rows_on, rows_off,
        "planner changed query answers (which={which} mask={mask:#b} neg={with_neg})"
    );
    assert_eq!(path_on, path_off, "planner changed the path decision");
    if which % 7 == 5 && with_neg {
        assert_eq!(path_on, QueryPath::Fallback, "negation goals fall back");
    }
}

/// One step of a random live-session interleaving (the
/// stale-statistics path: every `fact()`/`run()` invalidates the
/// statistics snapshot, every compile refreshes it lazily — and
/// between the two, plans keep running on stale estimates).
#[derive(Clone, Debug)]
enum Op {
    Fact(u8, u8),
    Update,
    Query {
        which: u8,
        mask: u8,
        consts: (u8, u8),
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((0u8..6), (0u8..6)).prop_map(|(a, b)| Op::Fact(a, b)),
        Just(Op::Update),
        ((0u8..7), (0u8..4), ((0u8..6), (0u8..6))).prop_map(|(which, mask, consts)| Op::Query {
            which,
            mask,
            consts
        }),
    ]
}

/// Drive one planner-on live session through a random interleaving of
/// `fact()` / `run()` / `query()`, checking every query against a
/// fresh *planner-off* engine that materializes the same fact set and
/// filters. Statistics refreshed at any earlier step describe a
/// smaller database than the one being queried — the plans they
/// produced must still answer exactly.
fn check_stale_stats_stream(ops: &[Op], with_neg: bool) {
    let (mut live, lp) = build(true, with_neg, false);
    let lids = atoms(&mut live);
    let mut facts: Vec<(u8, u8)> = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Fact(a, b) => {
                live.fact(lp.e, vec![lids[a as usize], lids[b as usize]])
                    .unwrap();
                facts.push((a, b));
            }
            Op::Update => {
                live.run().unwrap();
            }
            Op::Query {
                which,
                mask,
                consts,
            } => {
                let (pred, args) = pick_query(&lp, &lids, which, mask, consts);
                let got = live.query(pred, &args).unwrap().rows.sorted();

                let (mut reference, rp) = build(false, with_neg, false);
                let rids = atoms(&mut reference);
                load_facts(&mut reference, rp.e, &rids, &facts);
                reference.run().unwrap();
                let (rpred, rargs) = pick_query(&rp, &rids, which, mask, consts);
                let mut want: Vec<Vec<TermId>> = reference
                    .rows(rpred)
                    .filter(|row| {
                        row.iter()
                            .zip(&rargs)
                            .all(|(t, a)| a.is_none_or(|g| g == *t))
                    })
                    .map(<[_]>::to_vec)
                    .collect();
                want.sort();
                assert_eq!(
                    got, want,
                    "step {step}: query {which} mask {mask:#b} (neg={with_neg})"
                );
            }
        }
    }
}

struct Rollup {
    parts: PredId,
    cost: PredId,
    chain: PredId,
    sum: PredId,
    obj_cost: PredId,
    big: PredId,
}

/// The roll-up family: objects built from random sets of priced
/// primitives, summed by peeling each set at its minimum element
/// (`scons_min`), accumulating with `add`, with `card` as a guard.
/// Textual order lists `cost(P, N)` before the peel is bound, so only
/// the cost planner moves the functional builtins ahead of the scan.
fn build_rollup(planner: bool) -> (Engine, Rollup) {
    let mut e = Engine::new(EvalConfig {
        cost_planner: planner,
        ..EvalConfig::default()
    });
    let p = Rollup {
        parts: e.pred("parts", 2),
        cost: e.pred("cost", 2),
        chain: e.pred("chain", 1),
        sum: e.pred("sum", 2),
        obj_cost: e.pred("obj_cost", 2),
        big: e.pred("big", 1),
    };
    let zero = Pattern::Ground(e.store_mut().int(0));
    let two = Pattern::Ground(e.store_mut().int(2));
    let rules = [
        // chain(Y) :- parts(O, Y).
        rule(
            p.chain,
            vec![v(1)],
            vec![BodyLit::Pos(p.parts, vec![v(0), v(1)])],
            2,
        ),
        // chain(R) :- chain(S), scons_min(P, R, S).
        rule(
            p.chain,
            vec![v(2)],
            vec![
                BodyLit::Pos(p.chain, vec![v(0)]),
                BodyLit::Builtin(Builtin::SconsMin, vec![v(1), v(2), v(0)]),
            ],
            3,
        ),
        // sum(S, 0) :- chain(S), card(S, 0).
        rule(
            p.sum,
            vec![v(0), zero.clone()],
            vec![
                BodyLit::Pos(p.chain, vec![v(0)]),
                BodyLit::Builtin(Builtin::Card, vec![v(0), zero]),
            ],
            1,
        ),
        // sum(S, K) :- chain(S), cost(P, N), scons_min(P, R, S),
        //              sum(R, M), add(N, M, K).
        rule(
            p.sum,
            vec![v(0), v(5)],
            vec![
                BodyLit::Pos(p.chain, vec![v(0)]),
                BodyLit::Pos(p.cost, vec![v(1), v(3)]),
                BodyLit::Builtin(Builtin::SconsMin, vec![v(1), v(2), v(0)]),
                BodyLit::Pos(p.sum, vec![v(2), v(4)]),
                BodyLit::Builtin(Builtin::Add, vec![v(3), v(4), v(5)]),
            ],
            6,
        ),
        // obj_cost(O, K) :- parts(O, Y), sum(Y, K).
        rule(
            p.obj_cost,
            vec![v(0), v(2)],
            vec![
                BodyLit::Pos(p.parts, vec![v(0), v(1)]),
                BodyLit::Pos(p.sum, vec![v(1), v(2)]),
            ],
            3,
        ),
        // big(O) :- parts(O, Y), card(Y, C), 2 < C.
        rule(
            p.big,
            vec![v(0)],
            vec![
                BodyLit::Pos(p.parts, vec![v(0), v(1)]),
                BodyLit::Builtin(Builtin::Card, vec![v(1), v(2)]),
                BodyLit::Builtin(Builtin::Lt, vec![two, v(2)]),
            ],
            3,
        ),
    ];
    for r in rules {
        e.rule(r).unwrap();
    }
    (e, p)
}

/// Load `parts(o_i, {p_j | bit j of masks[i]})` and `cost(p_j, n)`;
/// returns the object atoms and their part sets.
fn load_rollup(
    e: &mut Engine,
    p: &Rollup,
    masks: &[u8],
    costs: &[(u8, u8)],
) -> (Vec<TermId>, Vec<TermId>) {
    let prims: Vec<TermId> = (0..6)
        .map(|j| e.store_mut().atom(&format!("p{j}")))
        .collect();
    let mut objs = Vec::new();
    let mut sets = Vec::new();
    for (i, &mask) in masks.iter().enumerate() {
        let o = e.store_mut().atom(&format!("o{i}"));
        let elems = (0..6).filter(|j| mask & (1 << j) != 0).map(|j| prims[j]);
        let set = e.store_mut().set(elems.collect());
        e.fact(p.parts, vec![o, set]).unwrap();
        objs.push(o);
        sets.push(set);
    }
    for &(j, n) in costs {
        let n = e.store_mut().int(i64::from(n));
        e.fact(p.cost, vec![prims[j as usize], n]).unwrap();
    }
    (objs, sets)
}

fn rollup_preds(p: &Rollup) -> [PredId; 6] {
    [p.parts, p.cost, p.chain, p.sum, p.obj_cost, p.big]
}

/// Batch roll-up, planner on vs off: `Value`-identical models (the
/// peel interns rest sets in plan order, so ids may differ), the same
/// fact count, and the textual planner never reorders.
fn check_rollup_batch(masks: &[u8], costs: &[(u8, u8)]) {
    let run = |planner: bool| {
        let (mut e, p) = build_rollup(planner);
        load_rollup(&mut e, &p, masks, costs);
        let stats = e.run().unwrap();
        let rows: Vec<Vec<Vec<Value>>> = rollup_preds(&p)
            .iter()
            .map(|&q| value_rows(&e, q))
            .collect();
        (rows, stats)
    };
    let (rows_on, stats_on) = run(true);
    let (rows_off, stats_off) = run(false);
    assert_eq!(rows_on, rows_off, "planner changed the roll-up model");
    assert_eq!(stats_on.facts_derived, stats_off.facts_derived);
    assert_eq!(
        stats_off.reorders_applied, 0,
        "planner off must never reorder"
    );
}

/// Demand roll-up queries on fresh sessions, planner on vs off:
/// `Value`-identical answers, both on the demand path. `which` picks
/// `obj_cost` (object bound or free), `big`, or `sum` over an
/// object's part set.
fn check_rollup_query(masks: &[u8], costs: &[(u8, u8)], which: u8, bound: bool, obj: u8) {
    let run = |planner: bool| {
        let (mut e, p) = build_rollup(planner);
        let (objs, sets) = load_rollup(&mut e, &p, masks, costs);
        let k = obj as usize % objs.len();
        let (pred, args) = match which % 3 {
            0 => (p.obj_cost, vec![bound.then_some(objs[k]), None]),
            1 => (p.big, vec![bound.then_some(objs[k])]),
            _ => (p.sum, vec![bound.then_some(sets[k]), None]),
        };
        let res = e.query(pred, &args).unwrap();
        let mut rows: Vec<Vec<Value>> = res
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&id| Value::from_store(e.store(), id))
                    .collect()
            })
            .collect();
        rows.sort();
        (rows, res.path)
    };
    let (rows_on, path_on) = run(true);
    let (rows_off, path_off) = run(false);
    assert_eq!(
        rows_on, rows_off,
        "planner changed roll-up answers (which={which} bound={bound})"
    );
    assert_eq!(path_on, QueryPath::Demand, "the roll-up is monotone");
    assert_eq!(path_off, QueryPath::Demand, "the roll-up is monotone");
}

proptest! {
    /// Batch fixpoints are planner-invariant, bit for bit — including
    /// around negation strata and under grouping heads.
    #[test]
    fn planner_is_invisible_in_batch(
        edges in proptest::collection::vec((0u8..6, 0u8..6), 0..14),
        with_neg in any::<bool>(),
        with_group in any::<bool>(),
    ) {
        check_batch(&edges, with_neg, with_group);
    }

    /// Demand queries are planner-invariant for every bound/free
    /// pattern over every predicate, and the planner never flips the
    /// demand/fallback decision.
    #[test]
    fn planner_is_invisible_to_queries(
        edges in proptest::collection::vec((0u8..6, 0u8..6), 0..12),
        which in 0u8..7,
        mask in 0u8..4,
        consts in (0u8..6, 0u8..6),
        with_neg in any::<bool>(),
    ) {
        check_query(&edges, which, mask, consts, with_neg);
    }

    /// Live sessions keep answering exactly while their statistics
    /// snapshots go stale and refresh across fact arrivals and
    /// materializations.
    #[test]
    fn planner_survives_stale_statistics(
        ops in proptest::collection::vec(op_strategy(), 1..14),
        with_neg in any::<bool>(),
    ) {
        check_stale_stats_stream(&ops, with_neg);
    }

    /// Builtin placement is invisible: the roll-up derives the same
    /// rows whether the functional builtins run before or after the
    /// `cost` scan.
    #[test]
    fn planner_is_invisible_to_rollup_batch(
        masks in proptest::collection::vec(0u8..64, 1..5),
        costs in proptest::collection::vec((0u8..6, 0u8..10), 0..9),
    ) {
        check_rollup_batch(&masks, &costs);
    }

    /// The same on the demand path, which adds `scons_min` modes with
    /// the rest or the element bound.
    #[test]
    fn planner_is_invisible_to_rollup_queries(
        masks in proptest::collection::vec(0u8..64, 1..5),
        costs in proptest::collection::vec((0u8..6, 0u8..10), 0..9),
        which in 0u8..3,
        bound in any::<bool>(),
        obj in 0u8..4,
    ) {
        check_rollup_query(&masks, &costs, which, bound, obj);
    }
}
