//! Theorems 3 and 5: minimal-model and fixpoint semantics.
//!
//! * `M_P = lfp(T_P) = T_P ↑ ω` — naive iteration (the literal
//!   operator) and semi-naive evaluation must produce identical
//!   models, on hand-picked and on generated programs.
//! * Monotonicity — the property both impossibility proofs
//!   (Theorems 7/8) lean on: enlarging the program never removes
//!   facts from the least model.

use proptest::prelude::*;

use lps::{Database, Dialect, EvalConfig, FixpointStrategy, SetUniverse, Value};

fn eval_with(
    src: &str,
    strategy: FixpointStrategy,
    dialect: Dialect,
) -> Vec<(String, Vec<Vec<Value>>)> {
    let mut db = Database::with_config(
        dialect,
        EvalConfig {
            strategy,
            ..EvalConfig::default()
        },
    );
    db.load_str(src).unwrap();
    let model = db.evaluate().unwrap();
    // Collect extensions of every user predicate mentioned in the
    // source (cheap heuristic: probe names we know appear).
    let mut names: Vec<(String, usize)> = Vec::new();
    for cap in src.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
        if !cap.is_empty() && cap.chars().next().unwrap().is_lowercase() {
            for arity in 0..4 {
                if model.engine().lookup_pred(cap, arity).is_some() {
                    names.push((cap.to_owned(), arity));
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
        .into_iter()
        .map(|(n, a)| (n.clone(), model.extension_n(&n, a)))
        .collect()
}

fn assert_strategies_agree(src: &str, dialect: Dialect) {
    let naive = eval_with(src, FixpointStrategy::Naive, dialect);
    let semi = eval_with(src, FixpointStrategy::SemiNaive, dialect);
    assert_eq!(naive, semi, "naive and semi-naive disagree on:\n{src}");
}

#[test]
fn strategies_agree_on_recursion() {
    assert_strategies_agree(
        "e(a, b). e(b, c). e(c, d). e(d, a).
         t(X, Y) :- e(X, Y).
         t(X, Z) :- e(X, Y), t(Y, Z).",
        Dialect::Elps,
    );
}

#[test]
fn strategies_agree_on_quantified_recursion() {
    // Recursive predicate inside a ∀ group — the tricky semi-naive
    // case (quantifier trigger).
    assert_strategies_agree(
        "item(a). item(b). item(c).
         group({a, b}). group({b, c}). group({a, b, c}). group({}).
         good(a).
         good(X) :- item(X), base(X).
         base(b).
         all_good(S) :- group(S), forall U in S: good(U).",
        Dialect::Elps,
    );
}

#[test]
fn strategies_agree_on_set_construction_chain() {
    // Sets constructed during evaluation (scons chains) — exercises
    // the universe-growth trigger in both drivers.
    assert_strategies_agree(
        "seed({}).
         elem(a). elem(b). elem(c).
         grown(S) :- seed(S).
         grown(T) :- grown(S), elem(E), scons(E, S, T), card(T, N), N <= 2.",
        Dialect::Elps,
    );
}

#[test]
fn strategies_agree_on_stratified_negation() {
    assert_strategies_agree(
        "node(a). node(b). node(c). e(a, b).
         reach(a).
         reach(Y) :- reach(X), e(X, Y).
         isolated(X) :- node(X), not reach(X).",
        Dialect::StratifiedElps,
    );
}

#[test]
fn fixpoint_round_counts_scale_with_chain_depth() {
    // T_P ↑ ω reaches the fixpoint in O(depth) rounds on a chain.
    for n in [4usize, 8, 16] {
        let mut src = String::new();
        for i in 0..n {
            src.push_str(&format!("e(v{i}, v{}).\n", i + 1));
        }
        src.push_str("t(X, Y) :- e(X, Y).\nt(X, Z) :- e(X, Y), t(Y, Z).\n");
        let mut db = Database::new(Dialect::Elps);
        db.load_str(&src).unwrap();
        let model = db.evaluate().unwrap();
        let stats = model.stats();
        assert!(
            stats.iterations >= n - 1,
            "chain of {n} needs ≥{} rounds, got {}",
            n - 1,
            stats.iterations
        );
        assert_eq!(model.count("t", 2), n * (n + 1) / 2);
    }
}

#[test]
fn monotonicity_on_fact_addition() {
    // M_{P} ⊆ M_{P ∪ {fact}} for positive programs — the engine of
    // Theorem 8's proof.
    let base = "a(c1).
        group({c1}). group({c1, c2}). group({}).
        all_a(S) :- group(S), forall U in S: a(U).
        some_a(S) :- group(S), exists U in S: a(U).";
    let mut db1 = Database::new(Dialect::Elps);
    db1.load_str(base).unwrap();
    let m1 = db1.evaluate().unwrap();
    let mut db2 = Database::new(Dialect::Elps);
    db2.load_str(base).unwrap();
    db2.load_str("a(c2).").unwrap();
    let m2 = db2.evaluate().unwrap();
    for pred in ["all_a", "some_a"] {
        let small = m1.extension_n(pred, 1);
        let big = m2.extension_n(pred, 1);
        for row in &small {
            assert!(
                big.contains(row),
                "monotonicity violated on {pred}: {row:?}"
            );
        }
    }
    // And strictly more is derivable.
    assert!(m2.count("all_a", 1) > m1.count("all_a", 1));
}

// -------------------------------------------------------------------
// Property tests: generated programs.
// -------------------------------------------------------------------

/// Generate a random EDB over a small atom universe plus a fixed rule
/// library exercising joins, quantifiers, builtins, and recursion.
fn edb_strategy() -> impl Strategy<Value = String> {
    let edge = (0u8..5, 0u8..5).prop_map(|(a, b)| format!("e(n{a}, n{b})."));
    let tag = (0u8..5).prop_map(|a| format!("tagged(n{a})."));
    let grp = proptest::collection::vec(0u8..5, 0..4).prop_map(|v| {
        let elems: Vec<String> = v.iter().map(|i| format!("n{i}")).collect();
        format!("g({{{}}}).", elems.join(", "))
    });
    (
        proptest::collection::vec(edge, 1..8),
        proptest::collection::vec(tag, 0..4),
        proptest::collection::vec(grp, 1..5),
    )
        .prop_map(|(e, t, g)| {
            let mut out = String::new();
            for f in e.iter().chain(t.iter()).chain(g.iter()) {
                out.push_str(f);
                out.push('\n');
            }
            out
        })
}

const RULES: &str = "
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    self_reaching(X) :- t(X, X).
    all_tagged(S) :- g(S), forall U in S: tagged(U).
    all_reach_tagged(S) :- g(S), forall U in S: (exists V in S: t(U, V)).
    pair_sets(S1, S2) :- g(S1), g(S2), subseteq(S1, S2).
    merged(S3) :- g(S1), g(S2), union(S1, S2, S3).
    counted(S, N) :- g(S), card(S, N).
";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 5 on random programs: the two fixpoint strategies
    /// compute the same least model.
    #[test]
    fn naive_equals_seminaive_on_random_edbs(edb in edb_strategy()) {
        let src = format!("{edb}\n{RULES}");
        let naive = eval_with(&src, FixpointStrategy::Naive, Dialect::Elps);
        let semi = eval_with(&src, FixpointStrategy::SemiNaive, Dialect::Elps);
        prop_assert_eq!(naive, semi);
    }

    /// Monotonicity on random programs: adding one random fact never
    /// removes derived facts.
    #[test]
    fn tp_is_monotone_on_random_edbs(edb in edb_strategy(), extra_a in 0u8..5, extra_b in 0u8..5) {
        let src = format!("{edb}\n{RULES}");
        let bigger = format!("{src}\ne(n{extra_a}, n{extra_b}).\n");
        let small = eval_with(&src, FixpointStrategy::SemiNaive, Dialect::Elps);
        let big = eval_with(&bigger, FixpointStrategy::SemiNaive, Dialect::Elps);
        let big_map: std::collections::HashMap<&String, &Vec<Vec<Value>>> =
            big.iter().map(|(n, rows)| (n, rows)).collect();
        for (name, rows) in &small {
            let big_rows = big_map.get(name).expect("predicate survives");
            for row in rows {
                prop_assert!(
                    big_rows.contains(row),
                    "monotonicity violated on {}: {:?}",
                    name,
                    row
                );
            }
        }
    }

    /// The ∀-trigger optimization never changes the model.
    #[test]
    fn forall_trigger_index_is_transparent(edb in edb_strategy()) {
        let src = format!("{edb}\n{RULES}");
        let run = |trigger: bool| {
            let mut db = Database::with_config(
                Dialect::Elps,
                EvalConfig {
                    forall_trigger_index: trigger,
                    ..EvalConfig::default()
                },
            );
            db.load_str(&src).unwrap();
            let m = db.evaluate().unwrap();
            m.extension_n("all_tagged", 1)
        };
        prop_assert_eq!(run(true), run(false));
    }

    /// ActiveSubsets universes don't change safe programs' answers.
    #[test]
    fn universe_policy_is_transparent_for_safe_programs(edb in edb_strategy()) {
        let src = format!("{edb}\n{RULES}");
        let run = |u: SetUniverse| {
            let mut db = Database::with_config(
                Dialect::Elps,
                EvalConfig {
                    set_universe: u,
                    ..EvalConfig::default()
                },
            );
            db.load_str(&src).unwrap();
            let m = db.evaluate().unwrap();
            (m.extension_n("all_tagged", 1), m.extension_n("t", 2))
        };
        prop_assert_eq!(run(SetUniverse::Reject), run(SetUniverse::ActiveSets));
    }
}

/// A `forall` group with dependent binders whose inner literal reads a
/// variable only the group binds: `S` is `X`'s domain and no inner
/// literal mentions it, so the coverage join binds `X` and `Y` and
/// covers the product by `X` alone. `{{}}` holds vacuously.
#[test]
fn dependent_binders_with_a_group_only_variable() {
    let (a, b) = (Value::atom("a"), Value::atom("b"));
    let fam_ab = Value::set([Value::set([a.clone()]), Value::set([b])]);
    let fam_ac = Value::set([Value::set([a]), Value::set([Value::atom("c")])]);
    let fam_empty = Value::set([Value::empty_set()]);
    let facts = format!(
        "fam({fam_ab}). fam({fam_ac}). fam({fam_empty}). good(a, y). good(b, y). good(c, z)."
    );
    for strategy in [FixpointStrategy::Naive, FixpointStrategy::SemiNaive] {
        let mut db = Database::with_config(
            Dialect::Elps,
            EvalConfig {
                strategy,
                ..EvalConfig::default()
            },
        );
        db.load_str(&facts).unwrap();
        db.load_str("all(F) :- fam(F), forall S in F: forall X in S: good(X, Y).")
            .unwrap();
        let all = db.evaluate().unwrap().extension_n("all", 1);
        assert_eq!(all.len(), 2, "{all:?}");
        assert!(all.contains(&vec![fam_ab.clone()]) && all.contains(&vec![fam_empty.clone()]));
    }

    // With the head reading `Y`, the group alone binds a head variable,
    // which needs the active universe for the vacuous case.
    let mut db = Database::with_config(
        Dialect::Elps,
        EvalConfig {
            set_universe: SetUniverse::ActiveSets,
            ..EvalConfig::default()
        },
    );
    db.load_str(&format!(
        "fam({fam_ab}). good(a, y). good(b, y). \
         all(F, Y) :- fam(F), forall S in F: forall X in S: good(X, Y)."
    ))
    .unwrap();
    let all = db.evaluate().unwrap().extension_n("all", 2);
    assert_eq!(all, vec![vec![fam_ab, Value::atom("y")]]);
}
