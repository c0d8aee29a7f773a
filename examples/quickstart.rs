//! Quickstart: the paper's introductory examples (Examples 1–4),
//! straight from the surface syntax.
//!
//! Run with `cargo run --example quickstart`.

use lps::{Database, Dialect, Value};

fn main() {
    let mut db = Database::new(Dialect::Lps);
    db.load_str(
        "
        % A small EDB of set pairs to test relations on.
        pair({a, b}, {c}).
        pair({a, b}, {b, c}).
        pair({a}, {a, b}).
        pair({}, {a, b}).

        % Example 1: disj(X, Y) :- (∀x∈X)(∀y∈Y) x ≠ y.
        disj(X, Y) :- pair(X, Y), forall U in X, forall V in Y: U != V.

        % Example 2: subset via the membership primitive.
        subset(X, Y) :- pair(X, Y), forall U in X: U in Y.

        % Example 3: union needs disjunction in the body — the
        % Theorem-6 compiler turns this into pure LPS automatically.
        triple({a}, {b}, {a, b}).
        triple({a}, {b}, {a, b, c}).
        union3(X, Y, Z) :- triple(X, Y, Z),
            (forall U in X: U in Z),
            (forall V in Y: V in Z),
            (forall W in Z: (W in X ; W in Y)).

        % Example 4: unnesting a non-1NF relation.
        r(x1, {p, q}).
        r(x2, {q}).
        s(X, Y) :- r(X, Ys), Y in Ys.
        ",
    )
    .expect("program parses and validates");

    let model = db.evaluate().expect("evaluates to the least model");

    println!("== disj (Example 1) ==");
    for row in model.extension("disj") {
        println!("  disj({}, {})", row[0], row[1]);
    }

    println!("== subset (Example 2) ==");
    for row in model.extension("subset") {
        println!("  subset({}, {})", row[0], row[1]);
    }

    println!("== union3 (Example 3, via Theorem 6) ==");
    for row in model.extension("union3") {
        println!("  union3({}, {}, {})", row[0], row[1], row[2]);
    }

    println!("== s = unnest(r) (Example 4) ==");
    for row in model.extension("s") {
        println!("  s({}, {})", row[0], row[1]);
    }

    // Point queries with owned values.
    let ab = Value::set([Value::atom("a"), Value::atom("b")]);
    let c = Value::set([Value::atom("c")]);
    assert!(model.holds("disj", &[ab.clone(), c]));
    let stats = model.stats();
    println!(
        "\nderived {} facts in {} fixpoint rounds across {} strata",
        stats.facts_derived, stats.iterations, stats.strata
    );
}
