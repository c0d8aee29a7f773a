//! Bill-of-materials cost roll-up — the paper's Examples 5 and 6.
//!
//! `parts(x, Y)` is a non-1NF relation: object `x` is built from the
//! set of component parts `Y`; `cost(p, n)` prices the primitives. The
//! paper computes object cost with a recursive `sum` over *disjoint
//! unions* (Example 5). We run that formulation literally, and then
//! the linear-time variant using the canonical decomposition builtin
//! `scons_min` (an engineering extension benchmarked in E6), and
//! finally answer one object's cost as a goal, demand-driven, without
//! evaluating the whole model.
//!
//! Run with `cargo run --example parts_explosion`.

use lps::{Database, Dialect, Value};

/// The paper's Example 5/6 formulation: sum by recursive disjoint
/// partitioning. `sum_costs(Z, k)` where Z ranges over subsets reached
/// by splitting — exponential in |Z| but exactly Example 5.
const PAPER_RULES: &str = "
    % sum_costs({p}, n) :- cost(p, n).          (base case)
    sum_costs(S, N) :- part_subset(S), S = {P}, cost(P, N).
    sum_costs(S, 0) :- part_subset(S), S = {}.

    % sum_costs(Z, k) :- disj_union(X, Y, Z), sums, m + n = k.
    sum_costs(Z, K) :- part_subset(Z), disj_union(X, Y, Z),
                       X != {}, Y != {},
                       sum_costs(X, M), sum_costs(Y, N), M + N = K.

    % The subsets the recursion actually visits.
    part_subset(Y) :- parts(_X, Y).
    part_subset(X) :- part_subset(Z), disj_union(X, _Y, Z).

    obj_cost(X, N) :- parts(X, Y), sum_costs(Y, N).
";

/// Linear formulation with the canonical decomposition: each set is
/// peeled at its minimum element exactly once.
const FAST_RULES: &str = "
    sum_costs(S, 0) :- chain(S), S = {}.
    sum_costs(S, K) :- chain(S), scons_min(P, Rest, S),
                       cost(P, N), sum_costs(Rest, M), N + M = K.

    chain(Y) :- parts(_X, Y).
    chain(Rest) :- chain(S), scons_min(_P, Rest, S).

    obj_cost(X, N) :- parts(X, Y), sum_costs(Y, N).
";

fn edb() -> String {
    "
    parts(bike, {frame, wheel_f, wheel_r, chain_drive}).
    parts(cart, {frame, wheel_f, wheel_r}).
    parts(sled, {frame}).
    cost(frame, 120).
    cost(wheel_f, 45).
    cost(wheel_r, 45).
    cost(chain_drive, 30).
    "
    .to_owned()
}

fn run(rules: &str, label: &str) {
    let mut db = Database::new(Dialect::Elps);
    db.load_str(&edb()).unwrap();
    db.load_str(rules).unwrap();
    let start = std::time::Instant::now();
    let model = db.evaluate().expect("cost roll-up evaluates");
    let elapsed = start.elapsed();
    println!("== {label} ==");
    for row in model.extension("obj_cost") {
        println!("  obj_cost({}, {})", row[0], row[1]);
    }
    let stats = model.stats();
    println!(
        "  {} facts, {} rounds, {:?}\n",
        stats.facts_derived, stats.iterations, elapsed
    );
}

fn main() {
    run(PAPER_RULES, "Example 5/6: disjoint-union recursion (paper)");
    run(FAST_RULES, "scons_min chain (linear extension)");

    // Both formulations agree.
    let expected = [("bike", 240i64), ("cart", 210), ("sled", 120)];
    for rules in [PAPER_RULES, FAST_RULES] {
        let mut db = Database::new(Dialect::Elps);
        db.load_str(&edb()).unwrap();
        db.load_str(rules).unwrap();
        let model = db.evaluate().unwrap();
        for (obj, cost) in expected {
            assert!(
                model.holds("obj_cost", &[Value::atom(obj), Value::int(cost)]),
                "{obj} should cost {cost}"
            );
        }
    }
    println!("both formulations agree on all object costs ✓");

    // Goal-directed: an unevaluated session derives only what the goal
    // needs (the magic-set rewrite peels just bike's part set).
    let mut db = Database::new(Dialect::Elps);
    db.load_str(&edb()).unwrap();
    db.load_str(FAST_RULES).unwrap();
    let mut session = db.session().unwrap();
    let ans = session.query_str("obj_cost(bike, X).").unwrap();
    assert_eq!(
        ans.rows,
        vec![vec![Value::int(240)]],
        "bike should cost 240"
    );
    println!(
        "?- obj_cost(bike, X).  X = 240 ({:?} path, {} facts) ✓",
        ans.path, ans.stats.facts_derived
    );
}
