//! Property test: incremental maintenance is invisible. Random
//! programs driven through random interleavings of `fact()` /
//! `update()` / `run()` must end on a model identical to a fresh batch
//! evaluation of the same facts — same `Value` extensions (the §6
//! equivalence criterion, restricted to the common predicates) and,
//! for programs that intern no new terms during evaluation, the same
//! interned `TermId` tuples bit for bit.

use proptest::prelude::*;

use lps_engine::pattern::{Pattern, VarId};
use lps_engine::rule::{BodyLit, GroupSpec, Rule};
use lps_engine::{Engine, EvalConfig, PredId};
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

/// The predicates of the generated programs.
struct Preds {
    e: PredId,
    t: PredId,
    s: PredId,
    node: PredId,
    iso: PredId,
    grp: PredId,
}

/// Build an engine with the rule family selected by the flags:
/// transitive closure `t` over `e`, optionally a join `s`, optionally
/// a negation stratum (`iso(X) :- node(X), not t(X, X)` over derived
/// `node`), optionally an LDL grouping head.
fn build(with_join: bool, with_neg: bool, with_group: bool) -> (Engine, Preds) {
    let mut e = Engine::new(EvalConfig::default());
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
    if with_join {
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
    }
    if with_neg {
        // node(X) :- e(X, Y).  iso(X) :- node(X), not t(X, X).
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
        // grp(X, <Y>) :- t(X, Y).
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

/// Intern node atoms in a fixed order so both engines agree on ids.
fn atoms(e: &mut Engine) -> Vec<TermId> {
    (0..6)
        .map(|i| e.store_mut().atom(&format!("n{i}")))
        .collect()
}

fn sorted_value_rows(e: &Engine, p: PredId) -> Vec<Vec<Value>> {
    e.extension(p)
}

fn sorted_id_rows(e: &Engine, p: PredId) -> Vec<Vec<TermId>> {
    let mut rows: Vec<Vec<TermId>> = e.rows(p).map(<[_]>::to_vec).collect();
    rows.sort();
    rows
}

/// Drive one engine through the interleaving and one through a single
/// batch load, then compare them on every predicate.
///
/// Each update is `(pair, action, kind)`. `kind % 4` picks the fact:
/// 0 adds `e(pair)`; 1 re-adds an `e` fact loaded earlier; 2 adds
/// `t(pair)`, derived or not; 3 adds a `t` tuple the model already
/// derived. The last three are the duplicate and derived-predicate
/// paths of the EDB cursor: facts the model may already hold.
fn check_interleaving(
    initial: &[(u8, u8)],
    updates: &[((u8, u8), u8, u8)],
    with_join: bool,
    with_neg: bool,
    with_group: bool,
) {
    let (mut inc, ip) = build(with_join, with_neg, with_group);
    let ids = atoms(&mut inc);
    let atom = |id: TermId| ids.iter().position(|&x| x == id).expect("a node atom") as u8;
    // Every fact loaded, as `(is_t, a, b)`, to replay into the batch.
    let mut loaded: Vec<(bool, u8, u8)> = initial.iter().map(|&(a, b)| (false, a, b)).collect();
    for &(a, b) in initial {
        inc.fact(ip.e, vec![ids[a as usize], ids[b as usize]])
            .unwrap();
    }
    inc.run().unwrap();
    for &((a, b), action, kind) in updates {
        let pick = usize::from(a) * 6 + usize::from(b);
        let loaded_e: Vec<(bool, u8, u8)> = loaded.iter().copied().filter(|f| !f.0).collect();
        let derived_t: Vec<(bool, u8, u8)> = inc
            .rows(ip.t)
            .map(|row| (true, atom(row[0]), atom(row[1])))
            .collect();
        let fact = match kind % 4 {
            1 if !loaded_e.is_empty() => loaded_e[pick % loaded_e.len()],
            2 => (true, a, b),
            3 if !derived_t.is_empty() => derived_t[pick % derived_t.len()],
            _ => (false, a, b),
        };
        let (pred, x, y) = (if fact.0 { ip.t } else { ip.e }, fact.1, fact.2);
        inc.fact(pred, vec![ids[x as usize], ids[y as usize]])
            .unwrap();
        loaded.push(fact);
        // action 0: let facts accumulate; 1: update; 2: run (which
        // must behave identically — dirty runs delegate to update).
        match action % 3 {
            1 => {
                inc.update().unwrap();
            }
            2 => {
                inc.run().unwrap();
            }
            _ => {}
        }
    }
    inc.update().unwrap();

    let (mut batch, bp) = build(with_join, with_neg, with_group);
    let bids = atoms(&mut batch);
    for &(is_t, a, b) in &loaded {
        let pred = if is_t { bp.t } else { bp.e };
        batch
            .fact(pred, vec![bids[a as usize], bids[b as usize]])
            .unwrap();
    }
    batch.run().unwrap();

    for (a, b) in [
        (ip.e, bp.e),
        (ip.t, bp.t),
        (ip.s, bp.s),
        (ip.node, bp.node),
        (ip.iso, bp.iso),
        (ip.grp, bp.grp),
    ] {
        assert_eq!(sorted_value_rows(&inc, a), sorted_value_rows(&batch, b));
        if !with_group {
            // No sets are interned during evaluation, so the two
            // stores intern identically: the models must agree on the
            // raw TermId tuples, bit for bit.
            assert_eq!(sorted_id_rows(&inc, a), sorted_id_rows(&batch, b));
        }
    }
}

/// The E12 machinery meets the demand pipeline: a session maintained
/// through incremental updates and a never-materialized session
/// answering point queries over *retained demand spaces* (the same
/// seeded-continuation machinery applied to the magic-rewritten
/// program, E14) must agree on every queried extension, bit for bit.
fn check_demand_agrees_with_maintained_model(
    initial: &[(u8, u8)],
    updates: &[(u8, u8)],
    queries: &[(u8, (u8, u8))],
) {
    let (mut inc, ip) = build(true, false, false);
    let ids = atoms(&mut inc);
    for &(a, b) in initial {
        inc.fact(ip.e, vec![ids[a as usize], ids[b as usize]])
            .unwrap();
    }
    inc.run().unwrap();
    for &(a, b) in updates {
        inc.fact(ip.e, vec![ids[a as usize], ids[b as usize]])
            .unwrap();
        inc.update().unwrap();
    }

    let (mut demand, dp) = build(true, false, false);
    let dids = atoms(&mut demand);
    for &(a, b) in initial.iter().chain(updates) {
        demand
            .fact(dp.e, vec![dids[a as usize], dids[b as usize]])
            .unwrap();
    }
    for &(mask, consts) in queries {
        let consts = [consts.0, consts.1];
        let args: Vec<Option<TermId>> = (0..2)
            .map(|i| (mask & (1 << i) != 0).then(|| dids[consts[i] as usize]))
            .collect();
        let res = demand.query(dp.t, &args).unwrap();
        let got = res.rows.sorted();
        let mut want: Vec<Vec<TermId>> = inc
            .rows(ip.t)
            .filter(|row| {
                row.iter()
                    .zip(&args)
                    .all(|(t, a)| a.is_none_or(|g| g == *t))
            })
            .map(<[_]>::to_vec)
            .collect();
        want.sort();
        assert_eq!(got, want, "mask {mask:#b}");
    }
}

proptest! {
    /// Positive programs (monotone): every update takes the seeded
    /// incremental path, and the final model is bit-identical to the
    /// batch model.
    #[test]
    fn incremental_equals_batch_on_positive_programs(
        initial in proptest::collection::vec((0u8..6, 0u8..6), 0..12),
        updates in proptest::collection::vec(((0u8..6, 0u8..6), 0u8..3, 0u8..4), 0..12),
        with_join in 0u8..2,
    ) {
        check_interleaving(&initial, &updates, with_join == 1, false, false);
    }

    /// Programs with negation and grouping: updates fall back to the
    /// sound batch recompute, which must be just as invisible.
    #[test]
    fn incremental_equals_batch_under_negation_and_grouping(
        initial in proptest::collection::vec((0u8..6, 0u8..6), 0..10),
        updates in proptest::collection::vec(((0u8..6, 0u8..6), 0u8..3, 0u8..4), 0..10),
        with_neg in 0u8..2,
        with_group in 0u8..2,
    ) {
        check_interleaving(&initial, &updates, true, with_neg == 1, with_group == 1);
    }

    /// Incrementally maintained models and retained-demand-space
    /// queries are two faces of the same seeded continuation: they
    /// must agree on every queried extension.
    #[test]
    fn demand_queries_agree_with_maintained_model(
        initial in proptest::collection::vec((0u8..6, 0u8..6), 0..10),
        updates in proptest::collection::vec((0u8..6, 0u8..6), 0..8),
        queries in proptest::collection::vec((0u8..4, (0u8..6, 0u8..6)), 1..6),
    ) {
        check_demand_agrees_with_maintained_model(&initial, &updates, &queries);
    }
}
