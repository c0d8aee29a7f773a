//! Property test: demand-driven query answering is invisible. For
//! random programs, random fact sets, and random bound/free query
//! patterns, `Engine::query` on a fresh (never-materialized) session
//! must return exactly the rows that full materialization plus
//! filtering returns — on the monotone programs (where the magic-set
//! rewrite applies and the demand path must be taken) and on programs
//! with negation or grouping (where the engine must take the sound
//! fallback instead). Conjunctive goals through `Engine::query_rule`
//! are checked against a hand-rolled join of the materialized model.

use proptest::prelude::*;

use lps_engine::pattern::{Pattern, VarId};
use lps_engine::rule::{BodyLit, GroupSpec, Rule};
use lps_engine::{Engine, EvalConfig, PredId, QueryPath};
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

/// The predicates of the generated programs (same family as
/// `prop_incremental`): transitive closure `t` over `e`, a join `s`,
/// and optionally a negation stratum and an LDL grouping head.
struct Preds {
    e: PredId,
    t: PredId,
    s: PredId,
    node: PredId,
    iso: PredId,
    grp: PredId,
}

fn build(with_neg: bool, with_group: bool) -> (Engine, Preds) {
    build_with(EvalConfig::default(), with_neg, with_group)
}

/// [`build`] under `config`.
fn build_with(config: EvalConfig, with_neg: bool, with_group: bool) -> (Engine, Preds) {
    let mut e = Engine::new(config);
    let preds = Preds {
        e: e.pred("e", 2),
        t: e.pred("t", 2),
        s: e.pred("s", 2),
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

/// Pick the query predicate and its argument list from the generated
/// choices. Returns `(pred, args, query_reaches_nonmono)`.
fn pick_query(
    p: &Preds,
    ids: &[TermId],
    which: u8,
    mask: u8,
    consts: (u8, u8),
) -> (PredId, Vec<Option<TermId>>, bool) {
    let (pred, arity, nonmono) = match which % 6 {
        0 => (p.e, 2, false),
        1 => (p.t, 2, false),
        2 => (p.s, 2, false),
        3 => (p.node, 1, false),
        4 => (p.iso, 1, true),
        _ => (p.grp, 2, true),
    };
    let consts = [consts.0, consts.1];
    let args: Vec<Option<TermId>> = (0..arity)
        .map(|i| (mask & (1 << i) != 0).then(|| ids[consts[i] as usize]))
        .collect();
    (pred, args, nonmono)
}

/// Demand query on a fresh session vs filtered full materialization.
fn check_query(
    edges: &[(u8, u8)],
    which: u8,
    mask: u8,
    consts: (u8, u8),
    with_neg: bool,
    with_group: bool,
) {
    // Reference: materialize everything, filter.
    let (mut reference, rp) = build(with_neg, with_group);
    let rids = atoms(&mut reference);
    load_facts(&mut reference, rp.e, &rids, edges);
    reference.run().unwrap();
    let (pred, args, _) = pick_query(&rp, &rids, which, mask, consts);
    let mut want: Vec<Vec<TermId>> = reference
        .rows(pred)
        .filter(|row| {
            row.iter()
                .zip(&args)
                .all(|(t, a)| a.is_none_or(|g| g == *t))
        })
        .map(<[_]>::to_vec)
        .collect();
    want.sort();

    // Demand: same store-interning order, fresh (never-run) session.
    let (mut demand, dp) = build(with_neg, with_group);
    let dids = atoms(&mut demand);
    load_facts(&mut demand, dp.e, &dids, edges);
    let (dpred, dargs, _) = pick_query(&dp, &dids, which, mask, consts);
    let res = demand.query(dpred, &dargs).unwrap();
    let got = res.rows.sorted();
    // Same atoms were interned in the same order in both engines, so
    // the rows must agree bit for bit.
    assert_eq!(got, want, "query {which} mask {mask:#b}");

    // Path discipline: a goal that reaches negation or grouping must
    // fall back; a purely monotone goal must take the demand path and
    // never count a fallback. (`iso`/`grp` without their rule flags
    // are empty EDB predicates: demand answers them trivially.)
    let obstructed = (which % 6 == 4 && with_neg) || (which % 6 == 5 && with_group);
    if obstructed {
        assert_eq!(res.path, QueryPath::Fallback);
        assert_eq!(res.stats.demand_fallbacks, 1);
    } else {
        assert_eq!(res.path, QueryPath::Demand, "monotone goal stays demand");
        assert_eq!(res.stats.demand_fallbacks, 0);
    }

    // A second query on the (possibly now materialized) session must
    // agree with itself.
    let res2 = demand.query(dpred, &dargs).unwrap();
    let got2 = res2.rows.sorted();
    assert_eq!(got2, got, "repeat query is stable");
}

/// Conjunctive goal `q(X, Z) :- t(c, X), e(X, Z)` (optionally with the
/// first argument free) vs a hand-rolled join over the materialized
/// model.
fn check_conjunctive(edges: &[(u8, u8)], bind_first: bool, c: u8) {
    let (mut reference, rp) = build(false, false);
    let rids = atoms(&mut reference);
    load_facts(&mut reference, rp.e, &rids, edges);
    reference.run().unwrap();
    let t_rows: Vec<Vec<TermId>> = reference.rows(rp.t).map(<[_]>::to_vec).collect();
    let e_rows: Vec<Vec<TermId>> = reference.rows(rp.e).map(<[_]>::to_vec).collect();
    let mut want: Vec<Vec<TermId>> = Vec::new();
    for tr in &t_rows {
        if bind_first && tr[0] != rids[c as usize] {
            continue;
        }
        for er in &e_rows {
            if tr[1] == er[0] {
                let row = if bind_first {
                    vec![tr[1], er[1]]
                } else {
                    vec![tr[0], tr[1], er[1]]
                };
                if !want.contains(&row) {
                    want.push(row);
                }
            }
        }
    }
    want.sort();

    let (mut demand, dp) = build(false, false);
    let dids = atoms(&mut demand);
    load_facts(&mut demand, dp.e, &dids, edges);
    let res = if bind_first {
        let q = demand.pred("query#goal", 2);
        demand
            .query_rule(rule(
                q,
                vec![v(1), v(2)],
                vec![
                    BodyLit::Pos(dp.t, vec![Pattern::Ground(dids[c as usize]), v(1)]),
                    BodyLit::Pos(dp.e, vec![v(1), v(2)]),
                ],
                3,
            ))
            .unwrap()
    } else {
        let q = demand.pred("query#goal", 3);
        demand
            .query_rule(rule(
                q,
                vec![v(0), v(1), v(2)],
                vec![
                    BodyLit::Pos(dp.t, vec![v(0), v(1)]),
                    BodyLit::Pos(dp.e, vec![v(1), v(2)]),
                ],
                3,
            ))
            .unwrap()
    };
    assert_eq!(res.path, QueryPath::Demand);
    let got = res.rows.sorted();
    assert_eq!(got, want, "conjunctive goal bind_first={bind_first}");
}

/// One step of a random live-session interleaving.
#[derive(Clone, Debug)]
enum Op {
    /// `Engine::fact` on the EDB predicate (pre- or post-query).
    Fact(u8, u8),
    /// `Engine::run` — materializes (batch or incremental), after
    /// which queries must read the maintained model.
    Update,
    /// `Engine::query` with a random predicate/adornment/constants.
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
        ((0u8..6), (0u8..4), ((0u8..6), (0u8..6))).prop_map(|(which, mask, consts)| Op::Query {
            which,
            mask,
            consts
        }),
    ]
}

/// Drive one live session through a random interleaving of `fact()`,
/// `update()` and repeated `query()` calls, checking every query
/// against a fresh engine that materializes the same fact set and
/// filters — the incremental-demand ≡ filtered-full-materialization
/// invariant of the retained demand spaces (E14), across plan-cache
/// eviction (`cache_bound` as low as 1), the retention ablation, and
/// the non-monotone fallback paths.
fn check_interleaving(
    ops: &[Op],
    with_neg: bool,
    with_group: bool,
    cache_bound: usize,
    retention: bool,
) {
    let config = EvalConfig {
        demand_plan_cache: cache_bound,
        ..EvalConfig::default()
    };
    let (mut live, lp) = build_with(config, with_neg, with_group);
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
                let (pred, args, _) = pick_query(&lp, &lids, which, mask, consts);
                if !retention {
                    // Cold mode: every query re-derives from its seed.
                    live.clear_demand_spaces();
                }
                let res = live.query(pred, &args).unwrap();
                // Compare as owned values: the live session's store may
                // have interned intermediate *sets* (grouping results
                // of earlier materializations) the fresh reference
                // never sees, so raw TermIds can diverge while the
                // denoted rows agree.
                let mut got: Vec<Vec<lps_term::Value>> = res
                    .rows
                    .iter()
                    .map(|row| {
                        row.iter()
                            .map(|&id| lps_term::Value::from_store(live.store(), id))
                            .collect()
                    })
                    .collect();
                got.sort();

                let (mut reference, rp) = build(with_neg, with_group);
                let rids = atoms(&mut reference);
                load_facts(&mut reference, rp.e, &rids, &facts);
                reference.run().unwrap();
                let (rpred, rargs, _) = pick_query(&rp, &rids, which, mask, consts);
                let mut want: Vec<Vec<lps_term::Value>> = reference
                    .rows(rpred)
                    .filter(|row| {
                        row.iter()
                            .zip(&rargs)
                            .all(|(t, a)| a.is_none_or(|g| g == *t))
                    })
                    .map(|row| {
                        row.iter()
                            .map(|&id| lps_term::Value::from_store(reference.store(), id))
                            .collect()
                    })
                    .collect();
                want.sort();
                assert_eq!(
                    got, want,
                    "step {step}: query {which} mask {mask:#b} \
                     (neg={with_neg} group={with_group} bound={cache_bound} \
                     retention={retention})"
                );
            }
        }
    }
}

/// Conjunctive goals through the shape-keyed plan cache: a stream of
/// `q(Y, Z) :- t(cᵢ, Y), e(Y, Z)` goals with varying constants,
/// interleaved with fact arrivals, each checked against a hand-rolled
/// join over a freshly materialized model.
fn check_conjunctive_stream(fact_stream: &[(u8, u8)], consts: &[u8], cache_bound: usize) {
    let config = EvalConfig {
        demand_plan_cache: cache_bound,
        ..EvalConfig::default()
    };
    let (mut live, lp) = build_with(config, false, false);
    let lids = atoms(&mut live);
    let q = live.pred("query#goal", 2);
    let mut facts: Vec<(u8, u8)> = Vec::new();
    for (i, &c) in consts.iter().enumerate() {
        if let Some(&(a, b)) = fact_stream.get(i) {
            live.fact(lp.e, vec![lids[a as usize], lids[b as usize]])
                .unwrap();
            facts.push((a, b));
        }
        let res = live
            .query_rule(rule(
                q,
                vec![v(1), v(2)],
                vec![
                    BodyLit::Pos(lp.t, vec![Pattern::Ground(lids[c as usize]), v(1)]),
                    BodyLit::Pos(lp.e, vec![v(1), v(2)]),
                ],
                3,
            ))
            .unwrap();
        let got = res.rows.sorted();

        let (mut reference, rp) = build(false, false);
        let rids = atoms(&mut reference);
        load_facts(&mut reference, rp.e, &rids, &facts);
        reference.run().unwrap();
        let t_rows: Vec<Vec<TermId>> = reference.rows(rp.t).map(<[_]>::to_vec).collect();
        let e_rows: Vec<Vec<TermId>> = reference.rows(rp.e).map(<[_]>::to_vec).collect();
        let mut want: Vec<Vec<TermId>> = Vec::new();
        for tr in &t_rows {
            if tr[0] != rids[c as usize] {
                continue;
            }
            for er in &e_rows {
                if tr[1] == er[0] {
                    let row = vec![tr[1], er[1]];
                    if !want.contains(&row) {
                        want.push(row);
                    }
                }
            }
        }
        want.sort();
        assert_eq!(got, want, "goal {i} const {c} bound {cache_bound}");
    }
}

proptest! {
    /// Monotone programs: every bound/free pattern over every
    /// predicate takes the demand path and agrees with the filtered
    /// full model.
    #[test]
    fn demand_equals_materialization_on_monotone_programs(
        edges in proptest::collection::vec((0u8..6, 0u8..6), 0..14),
        which in 0u8..4,
        mask in 0u8..4,
        consts in (0u8..6, 0u8..6),
    ) {
        check_query(&edges, which, mask, consts, false, false);
    }

    /// Programs with negation and grouping: goals that reach the
    /// non-monotone constructs fall back to full materialization, and
    /// the answers stay identical either way.
    #[test]
    fn demand_equals_materialization_under_negation_and_grouping(
        edges in proptest::collection::vec((0u8..6, 0u8..6), 0..12),
        which in 0u8..6,
        mask in 0u8..4,
        consts in (0u8..6, 0u8..6),
        with_group in 0u8..2,
    ) {
        check_query(&edges, which, mask, consts, true, with_group == 1);
    }

    /// Conjunctive goals through `Engine::query_rule` match a
    /// hand-rolled join of the materialized model.
    #[test]
    fn conjunctive_goals_match_reference_join(
        edges in proptest::collection::vec((0u8..6, 0u8..6), 0..12),
        bind_first in 0u8..2,
        c in 0u8..6,
    ) {
        check_conjunctive(&edges, bind_first == 1, c);
    }

    /// Random interleavings of `fact()` / `update()` / repeated
    /// `query()` on one live session — incremental demand over
    /// retained spaces must be indistinguishable from filtered full
    /// materialization, including across the materialization boundary
    /// an `update()` forces.
    #[test]
    fn interleaved_sessions_match_materialization(
        ops in proptest::collection::vec(op_strategy(), 1..14),
        with_neg in any::<bool>(),
        with_group in any::<bool>(),
    ) {
        check_interleaving(&ops, with_neg, with_group, 64, true);
    }

    /// The same interleavings with the plan cache bound at 1 (every
    /// new shape evicts the previous plan and reclaims its space) and
    /// with retention ablated — eviction churn and cold re-derivation
    /// must never surface stale or missing rows.
    #[test]
    fn interleaved_sessions_survive_eviction_and_ablation(
        ops in proptest::collection::vec(op_strategy(), 1..12),
        with_neg in any::<bool>(),
        retention in any::<bool>(),
    ) {
        check_interleaving(&ops, with_neg, false, 1, retention);
    }

    /// Conjunctive goal streams hit the shape-keyed plan cache
    /// (constants vary, shape fixed) interleaved with fact arrivals,
    /// with and without eviction pressure.
    #[test]
    fn conjunctive_streams_match_reference_join(
        fact_stream in proptest::collection::vec((0u8..6, 0u8..6), 0..8),
        consts in proptest::collection::vec(0u8..6, 1..6),
        bound_one in any::<bool>(),
    ) {
        check_conjunctive_stream(&fact_stream, &consts, if bound_one { 1 } else { 64 });
    }
}
