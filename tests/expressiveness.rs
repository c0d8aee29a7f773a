//! Theorems 7 and 8: the expressiveness limits of LPS, demonstrated
//! mechanically.
//!
//! Impossibility theorems cannot be "run", but their *constructive
//! content* can: the counterexample programs in the proofs derive
//! exactly the facts the proofs say they must, and the semantic
//! invariants the proofs rest on (monotonicity, subset-closure,
//! least-model intersection) hold on the engine.

use lps::prelude::*;

fn set(elems: &[&str]) -> Value {
    Value::set(elems.iter().map(|e| Value::atom(*e)))
}

// -------------------------------------------------------------------
// Theorem 8: {x | A(x)} is not definable without negation.
// -------------------------------------------------------------------

#[test]
fn theorem_8_candidate_is_subset_closed() {
    // B(X) :- (∀x∈X) a(x) — the natural candidate. The theorem's
    // observation: "B(S) would indeed hold, but B(X) would also hold
    // for all subsets X of S."
    let mut db = Database::with_config(
        Dialect::Lps,
        EvalConfig {
            set_universe: SetUniverse::ActiveSubsets { max_card: 3 },
            ..EvalConfig::default()
        },
    );
    db.load_str("a(c1). a(c2). a(c3). b(X) :- forall U in X: a(U).")
        .unwrap();
    let model = db.evaluate().unwrap();
    let rows = model.extension("b");
    assert_eq!(rows.len(), 8, "all 2^3 subsets qualify");
    // Subset-closure: for every derived b(S), every subset of S is
    // also derived.
    let derived: std::collections::BTreeSet<&Value> = rows.iter().map(|r| &r[0]).collect();
    for r in &rows {
        if let Value::Set(elems) = &r[0] {
            for drop in elems {
                let smaller = Value::Set(elems.iter().filter(|e| *e != drop).cloned().collect());
                assert!(derived.contains(&smaller), "{smaller} missing");
            }
        }
    }
}

#[test]
fn theorem_8_proof_counterexample() {
    // The proof: P1 = {A(c1)}, P2 = {A(c1), A(c2)}. Any defining
    // program P* would need B({c1}) ∈ M_{P1∪P*} but B({c1}) ∉
    // M_{P2∪P*}; since every model of P2 is a model of P1 and least
    // models are intersections of Herbrand models, that is
    // contradictory. Mechanically: for the *monotone* candidate, the
    // smaller program's B-facts persist under P2 — so B cannot have
    // flipped to "exactly the full set".
    let candidate = "b(X) :- forall U in X: a(U).";
    let mut db1 = Database::with_config(
        Dialect::Lps,
        EvalConfig {
            set_universe: SetUniverse::ActiveSubsets { max_card: 2 },
            ..EvalConfig::default()
        },
    );
    db1.load_str(&format!("a(c1). seen(c2). {candidate}"))
        .unwrap();
    let m1 = db1.evaluate().unwrap();
    assert!(m1.holds("b", &[set(&["c1"])]));

    let mut db2 = Database::with_config(
        Dialect::Lps,
        EvalConfig {
            set_universe: SetUniverse::ActiveSubsets { max_card: 2 },
            ..EvalConfig::default()
        },
    );
    db2.load_str(&format!("a(c1). a(c2). {candidate}")).unwrap();
    let m2 = db2.evaluate().unwrap();
    // Monotonicity keeps the stale fact — the candidate FAILS to
    // define exact set construction, as the theorem demands.
    assert!(
        m2.holds("b", &[set(&["c1"])]),
        "monotone programs cannot retract B({{c1}})"
    );
    assert!(m2.holds("b", &[set(&["c1", "c2"])]));
}

#[test]
fn section_4_2_negation_recovers_set_construction() {
    // The paper's resolution: with stratified negation the exact
    // construction IS definable — and it inverts the counterexample.
    let db1 = setof_database("a(c1). seen(c2).", "a", "b", 2).unwrap();
    let m1 = db1.evaluate().unwrap();
    assert!(m1.holds("b", &[set(&["c1"])]));
    assert_eq!(m1.count("b", 1), 1);

    let db2 = setof_database("a(c1). a(c2).", "a", "b", 2).unwrap();
    let m2 = db2.evaluate().unwrap();
    assert!(!m2.holds("b", &[set(&["c1"])]), "non-monotone: retracted");
    assert!(m2.holds("b", &[set(&["c1", "c2"])]));
    assert_eq!(m2.count("b", 1), 1);
}

// -------------------------------------------------------------------
// Theorem 7: union is not definable without auxiliary predicates.
// -------------------------------------------------------------------

/// The proof's case analysis shows any candidate single-predicate
/// program must already fail on small instances: a rule
/// `p(t1, t2, Z) :- …` with quantifiers ranging over Z forces
/// `p(X, Y, ∅)` for all X, Y, etc. We run the three rule shapes the
/// proof's cases 3–5 analyze and confirm each derives the absurd
/// facts the proof predicts — so none of them defines union.
#[test]
fn theorem_7_case_3_quantifier_over_z_forces_empty_union() {
    // Case 3 shape: p({x}, Y, Z) :- (∀z∈Z) z in Y — quantifying over
    // Z makes p({x}, Y, ∅) hold for ALL Y, refuting it as a union
    // definition.
    let mut db = Database::with_config(
        Dialect::Lps,
        EvalConfig {
            set_universe: SetUniverse::ActiveSubsets { max_card: 2 },
            ..EvalConfig::default()
        },
    );
    db.load_str(
        "seed(a). seed(b).
         p(X, Y, Z) :- one(X), forall W in Z: W in Y.
         one({a}).",
    )
    .unwrap();
    let m = db.evaluate().unwrap();
    // p({a}, Y, {}) for every active Y — including Y where
    // {a} ∪ Y ≠ {}: contradiction with union semantics.
    assert!(m.holds("p", &[set(&["a"]), set(&["b"]), set(&[])]));
    assert!(
        m.holds("p", &[set(&["a"]), set(&["a", "b"]), set(&[])]),
        "the proof's contradiction: p(X, Y, ∅) holds for all Y"
    );
}

#[test]
fn theorem_7_case_4_variable_arguments_force_overgeneralization() {
    // Case 4 shape: head p(X, Y, Z) with a quantifier over X forces
    // p(∅, Y, Z) for all Y, Z.
    let mut db = Database::with_config(
        Dialect::Lps,
        EvalConfig {
            set_universe: SetUniverse::ActiveSubsets { max_card: 2 },
            ..EvalConfig::default()
        },
    );
    db.load_str(
        "seed(a). seed(b).
         p(X, Y, Z) :- forall W in X: W in Z.",
    )
    .unwrap();
    let m = db.evaluate().unwrap();
    // p(∅, Y, Z) for arbitrary Y, Z — absurd for union.
    assert!(m.holds("p", &[set(&[]), set(&["a"]), set(&["b"])]));
    assert!(m.holds("p", &[set(&[]), set(&["a", "b"]), set(&[])]));
}

#[test]
fn theorem_7_quantifier_free_rules_cannot_reach_large_sets() {
    // The complementary half of the case analysis: quantifier-free
    // rules with set-literal heads only derive facts about sets of
    // bounded size (≤ the largest set constructor in the program).
    // With {₂ the largest constructor, no fact about a 3-element set
    // is derivable.
    let mut db = Database::new(Dialect::Lps);
    db.load_str(
        "atom3(a). atom3(b). atom3(c).
         p({X}, {Y}, {X, Y}) :- atom3(X), atom3(Y).",
    )
    .unwrap();
    let model = db.evaluate().unwrap();
    for row in model.extension("p") {
        for v in &row {
            if let Value::Set(elems) = v {
                assert!(elems.len() <= 2, "bounded by the largest constructor");
            }
        }
    }
    // It does define union correctly on singletons…
    let mut db2 = Database::new(Dialect::Lps);
    db2.load_str(
        "atom3(a). atom3(b). atom3(c).
         p({X}, {Y}, {X, Y}) :- atom3(X), atom3(Y).",
    )
    .unwrap();
    let m2 = db2.evaluate().unwrap();
    assert!(m2.holds("p", &[set(&["a"]), set(&["b"]), set(&["a", "b"])]));
    // …but can never cover 2-element operands, which union requires.
    assert!(!m2.holds("p", &[set(&["a", "b"]), set(&["c"]), set(&["a", "b", "c"])]));
}

#[test]
fn theorem_6_auxiliaries_do_define_union() {
    // The contrast the paper draws: WITH auxiliary predicates, union
    // is definable (Theorem 6 / Example 9's program), over a bounded
    // universe.
    let mut db = Database::with_config(
        Dialect::Lps,
        EvalConfig {
            set_universe: SetUniverse::ActiveSubsets { max_card: 3 },
            ..EvalConfig::default()
        },
    );
    db.load_str(
        "seed(a). seed(b). seed(c).
         u(X, Y, Z) :-
             (forall P in X: P in Z),
             (forall Q in Y: Q in Z),
             (forall W in Z: (W in X ; W in Y)).",
    )
    .unwrap();
    let m = db.evaluate().unwrap();
    // Spot-check the union table on the full powerset of 3 atoms.
    assert!(m.holds("u", &[set(&["a"]), set(&["b"]), set(&["a", "b"])]));
    assert!(m.holds(
        "u",
        &[set(&["a", "b"]), set(&["b", "c"]), set(&["a", "b", "c"])]
    ));
    assert!(m.holds("u", &[set(&[]), set(&[]), set(&[])]));
    assert!(!m.holds("u", &[set(&["a"]), set(&["b"]), set(&["a", "b", "c"])]));
    // Exactly |{(X,Y)}| = 8×8 = 64 facts: u is a total function on
    // the powerset.
    assert_eq!(m.engine().stats().strata, 1);
    let rows = m.extension("u");
    assert_eq!(rows.len(), 64);
    for row in &rows {
        let (Value::Set(x), Value::Set(y), Value::Set(z)) = (&row[0], &row[1], &row[2]) else {
            panic!("non-set row");
        };
        let expected: std::collections::BTreeSet<_> = x.union(y).cloned().collect();
        assert_eq!(&expected, z);
    }
}
