//! The indexed-join path allocates nothing and interns nothing
//! (experiment E11's counters): `EvalStats::probe_allocs` stays 0 on a
//! transitive closure, whose probes are flat keys, and on a join whose
//! probe key is a set literal (`enrolled(S, {C})`), which is looked up
//! in the store read-only. A key term the store lacks matches no row,
//! so those probes leave the store as it was.

use lps_engine::pattern::{Pattern, VarId};
use lps_engine::{BodyLit, Engine, EvalConfig, PredId, Rule};

fn v(i: u32) -> Pattern {
    Pattern::Var(VarId(i))
}

fn rule(head: PredId, head_args: Vec<Pattern>, outer: Vec<BodyLit>, names: &[&str]) -> Rule {
    Rule {
        head,
        head_args,
        group: None,
        outer,
        quant: None,
        num_vars: names.len(),
        var_names: names.iter().map(|n| n.to_string()).collect(),
        var_sorts: vec![],
    }
}

#[test]
fn transitive_closure_probes_allocate_nothing() {
    // A ring of `NODES` plus `NODES / 2` pseudo-random chords.
    const NODES: usize = 256;
    let mut e = Engine::new(EvalConfig::default());
    let edge = e.pred("e", 2);
    let path = e.pred("t", 2);
    let st = e.store_mut();
    let nodes: Vec<_> = (0..NODES).map(|i| st.atom(&format!("n{i}"))).collect();
    let mut seed = 7u64;
    let mut next = || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 33) as usize % NODES
    };
    let mut edges: Vec<_> = (0..NODES).map(|i| (i, (i + 1) % NODES)).collect();
    edges.extend((0..NODES / 2).map(|_| (next(), next())));
    for (a, b) in edges {
        e.fact(edge, vec![nodes[a], nodes[b]]).unwrap();
    }
    let (x, y, z) = (v(0), v(1), v(2));
    let names = ["X", "Y", "Z"];
    // t(X, Y) :- e(X, Y).
    let base = vec![BodyLit::Pos(edge, vec![x.clone(), y.clone()])];
    e.rule(rule(path, vec![x.clone(), y.clone()], base, &names))
        .unwrap();
    // t(X, Z) :- e(X, Y), t(Y, Z).
    let step = vec![
        BodyLit::Pos(edge, vec![x.clone(), y.clone()]),
        BodyLit::Pos(path, vec![y, z.clone()]),
    ];
    e.rule(rule(path, vec![x, z], step, &names)).unwrap();
    let stats = e.run().unwrap();
    // The ring makes every node reach every node.
    assert_eq!(e.rows(path).len(), NODES * NODES);
    assert!(stats.index_probes > 0);
    assert_eq!(
        stats.probe_allocs, 0,
        "the indexed-join path must not heap-allocate"
    );
}

#[test]
fn set_literal_probe_keys_are_looked_up_not_interned() {
    const COURSES: usize = 40;
    const STUDENTS: usize = 400;
    let mut e = Engine::new(EvalConfig::default());
    let course = e.pred("course", 1);
    let enrolled = e.pred("enrolled", 2);
    let solo = e.pred("solo", 2);
    let st = e.store_mut();
    let courses: Vec<_> = (0..COURSES).map(|i| st.atom(&format!("c{i}"))).collect();
    // Students enrolled in one course take only the even ones, so no
    // `{c}` of an odd course is ever interned.
    let mut facts = Vec::new();
    for i in 0..STUDENTS {
        let s = st.atom(&format!("s{i}"));
        let (a, b) = (courses[i % COURSES], courses[(i * 7 + 1) % COURSES]);
        let taken = if i % 2 == 0 {
            st.set(vec![a])
        } else {
            st.set(vec![a, b])
        };
        facts.push((s, taken));
    }
    for &c in &courses {
        e.fact(course, vec![c]).unwrap();
    }
    for (s, taken) in facts {
        e.fact(enrolled, vec![s, taken]).unwrap();
    }
    let (s, c) = (v(0), v(1));
    // solo(S, C) :- course(C), enrolled(S, {C}).
    let body = vec![
        BodyLit::Pos(course, vec![c.clone()]),
        BodyLit::Pos(
            enrolled,
            vec![s.clone(), Pattern::Set(vec![c.clone()].into())],
        ),
    ];
    e.rule(rule(solo, vec![s, c], body, &["S", "C"])).unwrap();
    let terms = e.store().len();
    let stats = e.run().unwrap();
    assert_eq!(e.rows(solo).len(), STUDENTS / 2);
    assert!(stats.index_probes >= COURSES);
    assert_eq!(
        stats.probe_allocs, 0,
        "a set-literal probe key must not heap-allocate"
    );
    assert_eq!(e.store().len(), terms, "probes must not intern key terms");
}
