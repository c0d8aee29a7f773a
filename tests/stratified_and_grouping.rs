//! Stratified negation and LDL grouping: the §4.2/§6 extensions,
//! end-to-end through the surface syntax.

use lps::{Database, Dialect, EvalConfig, SetUniverse, Value};

fn atom(s: &str) -> Value {
    Value::atom(s)
}

#[test]
fn multi_strata_pipeline() {
    // Three strata: closure → complement → grouping over complement.
    let mut db = Database::new(Dialect::StratifiedElps);
    db.load_str(
        "node(a). node(b). node(c). node(d).
         e(a, b). e(b, c).
         reach(a).
         reach(Y) :- reach(X), e(X, Y).
         unreached(X) :- node(X), not reach(X).
         report(summary, <X>) :- unreached(X).",
    )
    .unwrap();
    let m = db.evaluate().unwrap();
    assert!(m.stats().strata >= 3);
    assert!(m.holds("report", &[atom("summary"), Value::set([atom("d")])]));
    assert_eq!(m.count("report", 2), 1);
}

#[test]
fn grouping_by_multiple_keys() {
    let mut db = Database::new(Dialect::StratifiedElps);
    db.load_str(
        "sale(shop1, mon, apples). sale(shop1, mon, pears).
         sale(shop1, tue, apples). sale(shop2, mon, plums).
         daily(S, D, <I>) :- sale(S, D, I).",
    )
    .unwrap();
    let m = db.evaluate().unwrap();
    assert_eq!(m.count("daily", 3), 3);
    assert!(m.holds(
        "daily",
        &[
            atom("shop1"),
            atom("mon"),
            Value::set([atom("apples"), atom("pears")])
        ]
    ));
    assert!(m.holds(
        "daily",
        &[atom("shop2"), atom("mon"), Value::set([atom("plums")])]
    ));
}

#[test]
fn grouping_feeds_further_rules() {
    // The grouped set participates in later strata: quantifiers over
    // grouped sets, cardinality checks.
    let mut db = Database::new(Dialect::StratifiedElps);
    db.load_str(
        "takes(ada, logic). takes(ada, db). takes(boole, logic).
         load(S, <C>) :- takes(S, C).
         heavy(S) :- load(S, Cs), card(Cs, N), N >= 2.
         all_logic(S) :- load(S, Cs), forall C in Cs: C = logic.",
    )
    .unwrap();
    let m = db.evaluate().unwrap();
    assert!(m.holds("heavy", &[atom("ada")]));
    assert!(!m.holds("heavy", &[atom("boole")]));
    assert!(m.holds("all_logic", &[atom("boole")]));
    assert!(!m.holds("all_logic", &[atom("ada")]));
}

#[test]
fn negation_over_quantified_predicates() {
    // not + (∀…) combined: sets that are NOT fully covered.
    let mut db = Database::new(Dialect::StratifiedElps);
    db.load_str(
        "g({a, b}). g({a}). g({}).
         ok(a).
         covered(S) :- g(S), forall U in S: ok(U).
         uncovered(S) :- g(S), not covered(S).",
    )
    .unwrap();
    let m = db.evaluate().unwrap();
    assert!(m.holds("uncovered", &[Value::set([atom("a"), atom("b")])]));
    assert!(!m.holds("uncovered", &[Value::set([atom("a")])]));
    assert!(
        !m.holds("uncovered", &[Value::empty_set()]),
        "∅ is covered vacuously"
    );
}

#[test]
fn unstratified_program_is_rejected() {
    let mut db = Database::new(Dialect::StratifiedElps);
    db.load_str("p(X) :- q(X), not p(X). q(a).").unwrap();
    let err = db.evaluate().unwrap_err();
    assert!(err.to_string().contains("stratified"), "{err}");
}

#[test]
fn grouping_in_recursion_is_rejected() {
    let mut db = Database::new(Dialect::StratifiedElps);
    db.load_str(
        "seed(a).
         collect(X, <Y>) :- seed(X), member_of(X, Y).
         member_of(X, Y) :- collect(X, S), Y in S.",
    )
    .unwrap();
    let err = db.evaluate().unwrap_err();
    assert!(err.to_string().contains("stratified"), "{err}");
}

#[test]
fn doubly_nested_sets_in_elps() {
    // §5: ELPS handles sets of sets.
    let mut db = Database::new(Dialect::Elps);
    db.load_str(
        "family({{a, b}, {c}}).
         member_set(S) :- family(F), S in F.
         flat(X) :- member_set(S), X in S.",
    )
    .unwrap();
    let m = db.evaluate().unwrap();
    assert!(m.holds("member_set", &[Value::set([atom("a"), atom("b")])]));
    assert_eq!(m.count("flat", 1), 3);
}

#[test]
fn nested_quantifier_over_nested_sets() {
    // (∀S∈F)(∀x∈S) — quantifying through two levels.
    let mut db = Database::new(Dialect::Elps);
    db.load_str(
        "family({{a, b}, {c}}).
         family({{d}}).
         good(a). good(b). good(c).
         all_good(F) :- family(F), forall S in F: (forall X in S: good(X)).",
    )
    .unwrap();
    let m = db.evaluate().unwrap();
    let f1 = Value::set([Value::set([atom("a"), atom("b")]), Value::set([atom("c")])]);
    let f2 = Value::set([Value::set([atom("d")])]);
    assert!(m.holds("all_good", &[f1]));
    assert!(!m.holds("all_good", &[f2]));
}

#[test]
fn function_symbols_as_records() {
    // Uninterpreted function symbols (Definition 1) build structured
    // atoms; sets of such atoms work throughout.
    let mut db = Database::new(Dialect::StratifiedElps);
    db.load_str(
        "pt(p(1, 2)). pt(p(3, 4)).
         cloud(C) :- grouped(C).
         grouped(<P>) :- pt(P).
         wide(C) :- cloud(C), exists P in C: P = p(3, 4).",
    )
    .unwrap();
    let m = db.evaluate().unwrap();
    let p34 = Value::app("p", [Value::int(3), Value::int(4)]);
    let p12 = Value::app("p", [Value::int(1), Value::int(2)]);
    let cloud = Value::set([p12, p34]);
    assert!(m.holds("wide", std::slice::from_ref(&cloud)));
}

#[test]
fn stratified_setof_respects_universe_cap() {
    // ActiveSubsets with a cardinality cap below the extension size:
    // the maximal covered set among materialized subsets wins instead.
    let db = lps::core::transform::setof::setof_database(
        "a(c1). a(c2). a(c3).",
        "a",
        "b",
        2, // cap below |{c1,c2,c3}|
    )
    .unwrap();
    let m = db.evaluate().unwrap();
    // With only ≤2-card subsets materialized, the "maximal" covered
    // sets are the three 2-element subsets.
    assert_eq!(m.count("b", 1), 3);
    assert!(m.holds("b", &[Value::set([atom("c1"), atom("c2")])]));
}

#[test]
fn negated_membership_and_comparisons() {
    let mut db = Database::new(Dialect::StratifiedElps);
    db.load_str(
        "g({1, 2}). g({2, 3}). g({}).
         without_one(S) :- g(S), 1 notin S.
         small(S) :- g(S), card(S, N), not N >= 2.",
    )
    .unwrap();
    let m = db.evaluate().unwrap();
    assert!(m.holds("without_one", &[Value::set([Value::int(2), Value::int(3)])]));
    assert!(m.holds("without_one", &[Value::empty_set()]));
    assert!(!m.holds("without_one", &[Value::set([Value::int(1), Value::int(2)])]));
    assert!(m.holds("small", &[Value::empty_set()]));
    assert!(!m.holds("small", &[Value::set([Value::int(1), Value::int(2)])]));
}

#[test]
fn config_strategies_match_on_stratified_grouping() {
    let src = "obs(s1, x). obs(s1, y). obs(s2, z).
         grp(S, <V>) :- obs(S, V).
         big(S) :- grp(S, Vs), card(Vs, N), N >= 2.
         lonely(S) :- grp(S, _Vs), not big(S).";
    let run = |strategy| {
        let mut db = Database::with_config(
            Dialect::StratifiedElps,
            EvalConfig {
                strategy,
                set_universe: SetUniverse::Reject,
                ..EvalConfig::default()
            },
        );
        db.load_str(src).unwrap();
        let m = db.evaluate().unwrap();
        (m.extension_n("big", 1), m.extension_n("lonely", 1))
    };
    assert_eq!(
        run(lps::FixpointStrategy::Naive),
        run(lps::FixpointStrategy::SemiNaive)
    );
}
