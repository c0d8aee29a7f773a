//! Property test: existential tails and membership intersections are
//! invisible. The planner marks a variant's *existential tail* (steps
//! that bind only variables nothing after them reads), which the
//! executor stops at its first solution, and it folds each `X in S, X
//! in T` over a free `X` into one sorted-set intersection. Both may
//! only change work, never answers.
//!
//! Each family is checked against a twin that defeats both mechanisms
//! without any option:
//!
//! * a dead tail, `pa(X) :- q(X, Y), r(Y, S), Z in S.`, against
//!   `pa_wide(X, Y, S, Z)` with the same body: the dead variables are
//!   lifted into the head, so nothing is dead, and the test projects
//!   them away;
//! * an intersection, `pb(A, B) :- r(A, S), r(B, T), Z in S, Z in T.`,
//!   against `pb_wide(A, B, Z, W) :- r(A, S), r(B, T), Z in S, Z = W,
//!   W in T.`: `W` is bound by `=`, so `W in T` is a check that does not
//!   fold into `Z`'s enumeration, and nothing is dead.
//!
//! A grouping rule (itself with a dead tail) and a negation stratum sit
//! above both families and read them through `pa`/`pb` (the twin
//! derives those by projection rules). Over random small EDBs of `q(atom, atom)` and `r(atom, set)`,
//! planner on and off, semi-naive and naive, the `Value` rows of every
//! shared predicate must be equal, and so must demand answers. The cut
//! rule alone must consider at most as many head tuples as its twin.

use proptest::prelude::*;

use lps_engine::pattern::{Pattern, VarId};
use lps_engine::rule::{BodyLit, Builtin, GroupSpec, Rule};
use lps_engine::{Engine, EvalConfig, FixpointStrategy, PredId};
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

/// Which rules an engine gets.
#[derive(Clone, Copy, PartialEq)]
enum Program {
    /// Both families plus the strata above them.
    Full,
    /// Only the dead-tail family rule.
    DeadTail,
    /// Only the intersection family rule.
    Intersection,
}

/// The random EDB: `q` edges between six atoms, and `r` rows keyed by
/// an atom whose set is a bit mask over five element atoms.
#[derive(Clone, Debug)]
struct Edb {
    q: Vec<(u8, u8)>,
    r: Vec<(u8, u8)>,
}

/// The predicates both programs share.
const SHARED: [(&str, usize); 6] = [
    ("q", 2),
    ("r", 2),
    ("pa", 1),
    ("pb", 2),
    ("grp", 2),
    ("lonely", 1),
];

fn config(planner: bool, naive: bool) -> EvalConfig {
    EvalConfig {
        cost_planner: planner,
        strategy: if naive {
            FixpointStrategy::Naive
        } else {
            FixpointStrategy::SemiNaive
        },
        ..EvalConfig::default()
    }
}

/// Build the cut program (`twin == false`) or its twin over `edb`.
fn build(edb: &Edb, twin: bool, program: Program, cfg: EvalConfig) -> Engine {
    let mut e = Engine::new(cfg);
    let q = e.pred("q", 2);
    let r = e.pred("r", 2);
    let pa = e.pred("pa", 1);
    let pb = e.pred("pb", 2);
    let pa_wide = e.pred("pa_wide", 4);
    let pb_wide = e.pred("pb_wide", 4);
    let grp = e.pred("grp", 2);
    let lonely = e.pred("lonely", 1);

    let st = e.store_mut();
    let keys: Vec<TermId> = (0..6).map(|i| st.atom(&format!("a{i}"))).collect();
    let elems: Vec<TermId> = (0..5).map(|i| st.atom(&format!("e{i}"))).collect();
    let mut r_rows = Vec::with_capacity(edb.r.len());
    for &(k, mask) in &edb.r {
        let members = (0..5).filter(|b| mask & (1 << b) != 0).map(|b| elems[b]);
        r_rows.push(vec![keys[k as usize], st.set(members.collect())]);
    }
    for &(a, b) in &edb.q {
        e.fact(q, vec![keys[a as usize], keys[b as usize]]).unwrap();
    }
    for row in r_rows {
        e.fact(r, row).unwrap();
    }

    let (x, y, s, z) = (v(0), v(1), v(2), v(3));
    // pa(X) :- q(X, Y), r(Y, S), Z in S.   (Y, S, Z are dead)
    let dead_body = vec![
        BodyLit::Pos(q, vec![x.clone(), y.clone()]),
        BodyLit::Pos(r, vec![y.clone(), s.clone()]),
        BodyLit::Builtin(Builtin::In, vec![z.clone(), s.clone()]),
    ];
    let (a, b, t, w) = (v(0), v(1), v(4), v(5));
    if program != Program::Intersection {
        if twin {
            e.rule(rule(
                pa_wide,
                vec![x.clone(), y.clone(), s.clone(), z.clone()],
                dead_body,
                4,
            ))
            .unwrap();
        } else {
            e.rule(rule(pa, vec![x.clone()], dead_body, 4)).unwrap();
        }
    }
    if program != Program::DeadTail {
        let mut body = vec![
            BodyLit::Pos(r, vec![a.clone(), s.clone()]),
            BodyLit::Pos(r, vec![b.clone(), t.clone()]),
            BodyLit::Builtin(Builtin::In, vec![z.clone(), s.clone()]),
        ];
        if twin {
            // pb_wide(A, B, Z, W) :- r(A, S), r(B, T), Z in S, Z = W, W in T.
            body.push(BodyLit::Builtin(Builtin::Eq, vec![z.clone(), w.clone()]));
            body.push(BodyLit::Builtin(Builtin::In, vec![w.clone(), t]));
            e.rule(rule(
                pb_wide,
                vec![a.clone(), b.clone(), z.clone(), w],
                body,
                6,
            ))
            .unwrap();
        } else {
            // pb(A, B) :- r(A, S), r(B, T), Z in S, Z in T.
            body.push(BodyLit::Builtin(Builtin::In, vec![z.clone(), t]));
            e.rule(rule(pb, vec![a.clone(), b.clone()], body, 6))
                .unwrap();
        }
    }
    if program == Program::Full {
        if twin {
            // The projections the upper strata read.
            e.rule(rule(
                pa,
                vec![x.clone()],
                vec![BodyLit::Pos(pa_wide, vec![v(0), v(1), v(2), v(3)])],
                4,
            ))
            .unwrap();
            e.rule(rule(
                pb,
                vec![a.clone(), b.clone()],
                vec![BodyLit::Pos(pb_wide, vec![v(0), v(1), v(2), v(3)])],
                4,
            ))
            .unwrap();
        }
        // grp(A, <B>) :- pa(A), pb(A, B), q(B, Y).   (Y is dead)
        let mut g = rule(
            grp,
            vec![a.clone(), b.clone()],
            vec![
                BodyLit::Pos(pa, vec![a.clone()]),
                BodyLit::Pos(pb, vec![a.clone(), b.clone()]),
                BodyLit::Pos(q, vec![b, v(2)]),
            ],
            3,
        );
        g.group = Some(GroupSpec {
            arg_pos: 1,
            var: VarId(1),
        });
        e.rule(g).unwrap();
        // lonely(X) :- q(X, Y), not pa(Y), not pb(X, X).
        e.rule(rule(
            lonely,
            vec![x.clone()],
            vec![
                BodyLit::Pos(q, vec![x.clone(), y.clone()]),
                BodyLit::Neg(pa, vec![y]),
                BodyLit::Neg(pb, vec![x.clone(), x]),
            ],
            2,
        ))
        .unwrap();
    }
    e
}

fn values(e: &Engine, rows: impl Iterator<Item = Vec<TermId>>) -> Vec<Vec<Value>> {
    let mut out: Vec<Vec<Value>> = rows
        .map(|row| {
            row.iter()
                .map(|&id| Value::from_store(e.store(), id))
                .collect()
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

fn rows_of(e: &Engine, name: &str, arity: usize) -> Vec<Vec<Value>> {
    let pred = e.lookup_pred(name, arity).expect("declared");
    values(e, e.rows(pred).map(<[_]>::to_vec))
}

/// The first `keep` columns of `name`'s rows, deduplicated.
fn projected(e: &Engine, name: &str, arity: usize, keep: usize) -> Vec<Vec<Value>> {
    let pred = e.lookup_pred(name, arity).expect("declared");
    values(e, e.rows(pred).map(|row| row[..keep].to_vec()))
}

fn check_batch(edb: &Edb, planner: bool, naive: bool) {
    let cfg = config(planner, naive);
    let mut cut = build(edb, false, Program::Full, cfg);
    let mut twin = build(edb, true, Program::Full, cfg);
    cut.run().unwrap();
    twin.run().unwrap();
    for (name, arity) in SHARED {
        assert_eq!(
            rows_of(&cut, name, arity),
            rows_of(&twin, name, arity),
            "{name} differs (planner={planner} naive={naive}) on {edb:?}"
        );
    }
    assert_eq!(rows_of(&cut, "pa", 1), projected(&twin, "pa_wide", 4, 1));
    assert_eq!(rows_of(&cut, "pb", 2), projected(&twin, "pb_wide", 4, 2));

    // Each family rule alone: the cut considers at most the twin's
    // head tuples.
    for (program, head, wide) in [
        (Program::DeadTail, ("pa", 1), ("pa_wide", 4)),
        (Program::Intersection, ("pb", 2), ("pb_wide", 4)),
    ] {
        let mut cut = build(edb, false, program, cfg);
        let mut twin = build(edb, true, program, cfg);
        let cut_stats = cut.run().unwrap();
        let twin_stats = twin.run().unwrap();
        assert_eq!(
            rows_of(&cut, head.0, head.1),
            projected(&twin, wide.0, wide.1, head.1)
        );
        assert!(
            cut_stats.tuples_considered <= twin_stats.tuples_considered,
            "{}: {} tuples against the twin's {}",
            head.0,
            cut_stats.tuples_considered,
            twin_stats.tuples_considered
        );
    }
}

/// Demand queries on fresh engines: the cut program's goal against the
/// twin's materialized model, filtered.
fn check_query(edb: &Edb, which: u8, key: u8) {
    let (name, arity) = if which == 0 { ("pa", 1) } else { ("pb", 2) };
    let mut cut = build(edb, false, Program::Full, config(true, false));
    let pred = cut.lookup_pred(name, arity).expect("declared");
    let constant = cut.store_mut().atom(&format!("a{key}"));
    let mut args = vec![None; arity];
    args[0] = Some(constant);
    let got = cut.query(pred, &args).unwrap();
    let got = values(&cut, got.rows.sorted().into_iter());

    let mut twin = build(edb, true, Program::Full, config(true, false));
    twin.run().unwrap();
    let want: Vec<Vec<Value>> = rows_of(&twin, name, arity)
        .into_iter()
        .filter(|row| row[0] == Value::atom(format!("a{key}")))
        .collect();
    assert_eq!(got, want, "?- {name}(a{key}, …) on {edb:?}");
}

fn edb_strategy() -> impl Strategy<Value = Edb> {
    (
        proptest::collection::vec((0u8..6, 0u8..6), 0..12),
        proptest::collection::vec((0u8..6, 0u8..32), 0..10),
    )
        .prop_map(|(q, r)| Edb { q, r })
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(256))]

    /// Batch models are identical to the twin's, under either planner
    /// and either fixpoint driver, and the cut never considers more
    /// tuples.
    #[test]
    fn cuts_and_intersections_are_invisible_in_batch(
        edb in edb_strategy(),
        planner in any::<bool>(),
        naive in any::<bool>(),
    ) {
        check_batch(&edb, planner, naive);
    }

    /// Demand answers equal the twin's model.
    #[test]
    fn cuts_and_intersections_are_invisible_to_queries(
        edb in edb_strategy(),
        which in 0u8..2,
        key in 0u8..6,
    ) {
        check_query(&edb, which, key);
    }
}
