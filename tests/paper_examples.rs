//! E1: every numbered example in the paper (§1, Examples 1–6),
//! evaluated end-to-end with exact expected models.

use lps::{Database, Dialect, QueryPath, Value};

fn atom(s: &str) -> Value {
    Value::atom(s)
}

fn set(elems: &[&str]) -> Value {
    Value::set(elems.iter().map(|e| Value::atom(*e)))
}

#[test]
fn example_1_disjointness() {
    let mut db = Database::new(Dialect::Lps);
    db.load_str(
        "pair({a, b}, {c, d}). pair({a, b}, {b}). pair({}, {}).
         pair({a}, {}). pair({c}, {c}).
         disj(X, Y) :- pair(X, Y), forall U in X, forall V in Y: U != V.",
    )
    .unwrap();
    let m = db.evaluate().unwrap();
    assert!(m.holds("disj", &[set(&["a", "b"]), set(&["c", "d"])]));
    assert!(!m.holds("disj", &[set(&["a", "b"]), set(&["b"])]));
    assert!(m.holds("disj", &[set(&[]), set(&[])]));
    assert!(m.holds("disj", &[set(&["a"]), set(&[])]));
    assert!(!m.holds("disj", &[set(&["c"]), set(&["c"])]));
    assert_eq!(m.count("disj", 2), 3);
}

#[test]
fn example_2_subset() {
    let mut db = Database::new(Dialect::Lps);
    db.load_str(
        "pair({a}, {a, b}). pair({a, b}, {a}). pair({}, {z}). pair({b, c}, {b, c}).
         subset(X, Y) :- pair(X, Y), forall U in X: U in Y.",
    )
    .unwrap();
    let m = db.evaluate().unwrap();
    assert!(m.holds("subset", &[set(&["a"]), set(&["a", "b"])]));
    assert!(!m.holds("subset", &[set(&["a", "b"]), set(&["a"])]));
    assert!(m.holds("subset", &[set(&[]), set(&["z"])]));
    assert!(m.holds("subset", &[set(&["b", "c"]), set(&["b", "c"])]));
}

#[test]
fn example_3_union_via_positive_body() {
    // union(X,Y,Z) with the disjunctive third condition — exercised
    // over a candidate pool wide enough to include near-misses.
    let mut db = Database::new(Dialect::Lps);
    db.load_str(
        "cand({a}, {b}, {a, b}).
         cand({a}, {b}, {a, b, c}).   % superset: not the union
         cand({a}, {b}, {a}).          % misses b
         cand({}, {}, {}).
         cand({a, b}, {b, c}, {a, b, c}).
         u(X, Y, Z) :- cand(X, Y, Z),
             (forall U in X: U in Z),
             (forall V in Y: V in Z),
             (forall W in Z: (W in X ; W in Y)).",
    )
    .unwrap();
    let m = db.evaluate().unwrap();
    assert!(m.holds("u", &[set(&["a"]), set(&["b"]), set(&["a", "b"])]));
    assert!(!m.holds("u", &[set(&["a"]), set(&["b"]), set(&["a", "b", "c"])]));
    assert!(!m.holds("u", &[set(&["a"]), set(&["b"]), set(&["a"])]));
    assert!(m.holds("u", &[set(&[]), set(&[]), set(&[])]));
    assert!(m.holds(
        "u",
        &[set(&["a", "b"]), set(&["b", "c"]), set(&["a", "b", "c"])]
    ));
    assert_eq!(m.count("u", 3), 3);
}

#[test]
fn example_4_unnest() {
    let mut db = Database::new(Dialect::Lps);
    db.load_str(
        "r(x1, {p, q}). r(x2, {q}). r(x3, {}).
         s(X, Y) :- r(X, Ys), Y in Ys.",
    )
    .unwrap();
    let m = db.evaluate().unwrap();
    let expected = vec![
        vec![atom("x1"), atom("p")],
        vec![atom("x1"), atom("q")],
        vec![atom("x2"), atom("q")],
    ];
    assert_eq!(
        m.extension("s"),
        expected,
        "x3's empty set contributes nothing"
    );
}

#[test]
fn example_5_sum_of_a_set_of_numbers() {
    // sum(Z, k) via the paper's recursive disjoint-union clause with
    // base case sum(X, n) :- X = {n}. The driver relation bounds the
    // subsets the recursion visits.
    let mut db = Database::new(Dialect::Elps);
    db.load_str(
        "input({3, 5, 9}).
         visit(Z) :- input(Z).
         visit(X) :- visit(Z), disj_union(X, _Y, Z).
         sum(S, 0) :- visit(S), S = {}.
         sum(S, N) :- visit(S), S = {N}.
         sum(Z, K) :- visit(Z), disj_union(X, Y, Z), X != {}, Y != {},
                      sum(X, M), sum(Y, N), M + N = K.",
    )
    .unwrap();
    let m = db.evaluate().unwrap();
    let input = Value::set([Value::int(3), Value::int(5), Value::int(9)]);
    assert!(m.holds("sum", &[input.clone(), Value::int(17)]));
    // Functional: exactly one sum per visited set.
    let sums: Vec<Vec<Value>> = m.extension("sum");
    let for_input: Vec<&Vec<Value>> = sums.iter().filter(|r| r[0] == input).collect();
    assert_eq!(for_input.len(), 1);
    // Subset sums are also correct.
    assert!(m.holds(
        "sum",
        &[Value::set([Value::int(3), Value::int(5)]), Value::int(8)]
    ));
    assert!(m.holds("sum", &[Value::empty_set(), Value::int(0)]));
}

#[test]
fn example_6_parts_cost() {
    // obj-cost via sum-costs over the component sets.
    let mut db = Database::new(Dialect::Elps);
    db.load_str(
        "parts(widget, {bolt, nut, gear}).
         parts(gadget, {bolt, gear}).
         parts(trinket, {nut}).
         cost(bolt, 2). cost(nut, 1). cost(gear, 7).

         visit(Y) :- parts(_X, Y).
         visit(X) :- visit(Z), disj_union(X, _Y, Z).
         sum_costs(S, 0) :- visit(S), S = {}.
         sum_costs(S, N) :- visit(S), S = {P}, cost(P, N).
         sum_costs(Z, K) :- visit(Z), disj_union(X, Y, Z), X != {}, Y != {},
                            sum_costs(X, M), sum_costs(Y, N), M + N = K.
         obj_cost(X, N) :- parts(X, Y), sum_costs(Y, N).",
    )
    .unwrap();
    let m = db.evaluate().unwrap();
    assert!(m.holds("obj_cost", &[atom("widget"), Value::int(10)]));
    assert!(m.holds("obj_cost", &[atom("gadget"), Value::int(9)]));
    assert!(m.holds("obj_cost", &[atom("trinket"), Value::int(1)]));
    assert_eq!(m.count("obj_cost", 2), 3);
}

#[test]
fn example_6_scons_min_rollup_answers_on_the_demand_path() {
    // The linear roll-up of examples/parts_explosion.rs. Demand for
    // `obj_cost(o, X)` reaches `chain(Rest) :- chain(S), scons_min(_P,
    // Rest, S)` with `Rest` bound, i.e. `scons_min` in mode (free,
    // bound, bound), which must evaluate rather than error.
    let src = "
        parts(bike, {frame, wheel_f, wheel_r, chain_drive}).
        parts(cart, {frame, wheel_f, wheel_r}).
        parts(sled, {frame}).
        parts(ghost, {}).
        cost(frame, 120). cost(wheel_f, 45). cost(wheel_r, 45). cost(chain_drive, 30).
        sum_costs(S, 0) :- chain(S), S = {}.
        sum_costs(S, K) :- chain(S), scons_min(P, Rest, S),
                           cost(P, N), sum_costs(Rest, M), N + M = K.
        chain(Y) :- parts(_X, Y).
        chain(Rest) :- chain(S), scons_min(_P, Rest, S).
        obj_cost(X, N) :- parts(X, Y), sum_costs(Y, N).";
    let mut db = Database::new(Dialect::Elps);
    db.load_str(src).unwrap();
    let model = db.evaluate().unwrap();
    let mut session = db.session().unwrap();
    for (i, (obj, cost)) in [("bike", 240), ("cart", 210), ("sled", 120), ("ghost", 0)]
        .into_iter()
        .enumerate()
    {
        let want: Vec<Vec<Value>> = model
            .extension("obj_cost")
            .into_iter()
            .filter(|row| row[0] == atom(obj))
            .collect();
        assert_eq!(want, vec![vec![atom(obj), Value::int(cost)]]);
        let goal = [Some(atom(obj)), None];
        let ans = session.query("obj_cost", &goal).unwrap();
        assert_eq!(ans.path, QueryPath::Demand, "{obj}");
        assert_eq!(ans.rows, want, "{obj}: demand answer equals the model");
        if i > 0 {
            assert_eq!(ans.stats.adornments_compiled, 0, "{obj}: plan reused");
        }
        let again = session.query("obj_cost", &goal).unwrap();
        assert_eq!(again.path, QueryPath::Demand);
        assert_eq!(
            again.stats.adornments_compiled, 0,
            "{obj}: repeat reuses the plan"
        );
        assert_eq!(again.rows, want);
    }
}

#[test]
fn definition_4_empty_domain_is_vacuously_true() {
    // (∀x∈X)φ is true whenever X = ∅ — the paper stresses this twice
    // (Definition 4 and the §4.1 hoisting warning).
    let mut db = Database::new(Dialect::Lps);
    db.load_str(
        "holder({}). holder({a}).
         % q never holds, yet empty X passes the quantifier.
         ok(X) :- holder(X), forall U in X: impossible(U).
         % §4.1: the conjunct INSIDE the quantifier scope is not
         % checked for the empty set…
         inside(X) :- holder(X), forall U in X: (flag, marker(U)).
         % …while outside it always is.
         outside(X) :- holder(X), flag2, forall U in X: marker(U).
         pred flag. pred flag2.",
    )
    .unwrap();
    let m = db.evaluate().unwrap();
    assert!(m.holds("ok", &[set(&[])]));
    assert!(!m.holds("ok", &[set(&["a"])]));
    // flag is false: inside({}) still holds (vacuous), outside({}) fails.
    assert!(m.holds("inside", &[set(&[])]));
    assert!(!m.holds("outside", &[set(&[])]));
}
