//! Set construction: Theorem 8's impossibility, §4.2's stratified
//! workaround, and LDL grouping — side by side.
//!
//! The task: compute `B(X)` ⇔ `X = {x │ a(x)}`.
//!
//! * A negation-free attempt `B(X) :- (∀x∈X) a(x)` *must* also accept
//!   every subset (Theorem 8: LPS has minimal-model semantics and is
//!   monotone, so the maximal set cannot be isolated).
//! * With stratified negation the paper's §4.2 construction nails it.
//! * LDL grouping (Definition 14) computes the same set directly — and
//!   in linear time, which is experiment E5's comparison.
//!
//! Run with `cargo run --example set_construction`.

use lps::prelude::*;

fn main() {
    // --- The failing, negation-free attempt (Theorem 8). -------------
    let mut naive = Database::with_config(
        Dialect::Lps,
        EvalConfig {
            set_universe: SetUniverse::ActiveSubsets { max_card: 3 },
            ..EvalConfig::default()
        },
    );
    naive
        .load_str(
            "a(c1). a(c2). noise(c3).
             b(X) :- forall U in X: a(U).",
        )
        .unwrap();
    let model = naive.evaluate().unwrap();
    println!("== b(X) :- (∀u∈X) a(u)  — Theorem 8's failing candidate ==");
    for row in model.extension("b") {
        println!("  b({})", row[0]);
    }
    let rows = model.extension("b");
    assert_eq!(rows.len(), 4, "∅, {{c1}}, {{c2}}, {{c1,c2}} all satisfy it");

    // --- §4.2: stratified negation isolates the maximum. -------------
    let db = setof_database("a(c1). a(c2). noise(c3).", "a", "the_set", 3).unwrap();
    let model = db.evaluate().unwrap();
    println!("\n== §4.2 construction (stratified negation) ==");
    for row in model.extension("the_set") {
        println!("  the_set({})", row[0]);
    }
    assert_eq!(
        model.extension("the_set"),
        vec![vec![Value::set([Value::atom("c1"), Value::atom("c2")])]]
    );

    // --- LDL grouping computes it directly. ---------------------------
    let mut grouped = Database::new(Dialect::StratifiedElps);
    grouped
        .load_str(
            "a(c1). a(c2). noise(c3).
             tag(all).
             collected(T, <X>) :- tag(T), a(X).",
        )
        .unwrap();
    let model = grouped.evaluate().unwrap();
    println!("\n== LDL grouping (Definition 14) ==");
    for row in model.extension("collected") {
        println!("  collected({}, {})", row[0], row[1]);
    }
    assert_eq!(
        model.extension("collected"),
        vec![vec![
            Value::atom("all"),
            Value::set([Value::atom("c1"), Value::atom("c2")])
        ]]
    );

    // --- Theorem 11: grouping rewritten into negation. ----------------
    let src = "a(c1). a(c2). tag(all). collected(T, <X>) :- tag(T), a(X).";
    let translated = grouping_to_elps(&lps::syntax::parse_program(src).unwrap()).unwrap();
    println!(
        "\n== the same grouping clause, translated per Theorem 11 ==\n{}",
        lps::syntax::pretty_program(&translated)
    );
    let mut tdb = Database::with_config(
        Dialect::StratifiedElps,
        EvalConfig {
            set_universe: SetUniverse::ActiveSubsets { max_card: 2 },
            ..EvalConfig::default()
        },
    );
    tdb.load_program(translated);
    let tmodel = tdb.evaluate().unwrap();
    assert!(tmodel.holds(
        "collected",
        &[
            Value::atom("all"),
            Value::set([Value::atom("c1"), Value::atom("c2")])
        ]
    ));
    println!("translated program agrees ✓");
}
