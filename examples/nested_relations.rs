//! Nested (non-1NF) relations: unnest and nest — the database
//! motivation from the paper's introduction (and its citations to
//! Jaeschke–Schek and the nested relational model).
//!
//! A registrar database stores each student's course set as one
//! set-valued attribute. We unnest it (Example 4), query it, and
//! re-nest a join result with an LDL grouping head (Definition 14).
//!
//! Run with `cargo run --example nested_relations`.

use lps::{Database, Dialect, EvalConfig, Value};

fn main() {
    let mut db = Database::with_config(Dialect::StratifiedElps, EvalConfig::default());
    db.load_str(
        "
        % enrolled(student, {courses}) — a nested relation.
        enrolled(ada,    {logic, databases, compilers}).
        enrolled(boole,  {logic, algebra}).
        enrolled(codd,   {databases}).
        enrolled(dana,   {}).

        % meets(course, day).
        meets(logic, monday).
        meets(databases, tuesday).
        meets(compilers, monday).
        meets(algebra, friday).

        % Example 4: unnest into a flat relation.
        takes(S, C) :- enrolled(S, Cs), C in Cs.

        % Flat queries on the unnested view.
        busy_on(S, D) :- takes(S, C), meets(C, D).

        % classmates: share at least one course (note the existential).
        classmates(S1, S2) :- enrolled(S1, C1), enrolled(S2, C2), S1 != S2,
                              exists C in C1: C in C2.

        % Re-nest: schedule(student, {days}) via LDL grouping.
        schedule(S, <D>) :- busy_on(S, D).

        % Set-level filters on the nested relation directly.
        full_monday(S) :- enrolled(S, Cs), card(Cs, N), N >= 2,
                          forall C in Cs: meets(C, monday).
        light_load(S) :- enrolled(S, Cs), card(Cs, N), N <= 1.
        ",
    )
    .expect("loads");

    let model = db.evaluate().expect("evaluates");

    println!("== takes = unnest(enrolled) ==");
    for row in model.extension("takes") {
        println!("  takes({}, {})", row[0], row[1]);
    }

    println!("== schedule = nest(busy_on) ==");
    for row in model.extension("schedule") {
        println!("  schedule({}, {})", row[0], row[1]);
    }

    println!("== classmates ==");
    for row in model.extension("classmates") {
        println!("  classmates({}, {})", row[0], row[1]);
    }

    println!("== light_load ==");
    for row in model.extension("light_load") {
        println!("  light_load({})", row[0]);
    }

    // Spot checks.
    assert!(model.holds("classmates", &[Value::atom("ada"), Value::atom("boole")]));
    assert!(!model.holds("classmates", &[Value::atom("boole"), Value::atom("codd")]));
    let mondays = Value::set([Value::atom("monday"), Value::atom("tuesday")]);
    assert!(model.holds("schedule", &[Value::atom("ada"), mondays]));
    assert!(model.holds("light_load", &[Value::atom("dana")]));
    assert!(model.holds("light_load", &[Value::atom("codd")]));
    println!("\nall spot checks passed ✓");
}
