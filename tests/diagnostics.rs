//! Error reporting across the pipeline: syntax, sorts, dialect
//! restrictions, safety, stratification, builtin modes, arithmetic.
//! A reproduction a downstream user would adopt must fail *well*.

use lps::{CoreError, Database, Dialect, EvalConfig, SetUniverse, Value};

fn err_of(src: &str, dialect: Dialect) -> CoreError {
    let mut db = Database::new(dialect);
    match db.load_str(src) {
        Err(e) => e,
        Ok(_) => db.evaluate().expect_err("expected failure"),
    }
}

#[test]
fn syntax_errors_render_with_location() {
    let mut db = Database::new(Dialect::Elps);
    let err = db.load_str("p(X :- q(X).").unwrap_err();
    let CoreError::Syntax(e) = &err else {
        panic!("expected syntax error, got {err:?}");
    };
    let rendered = e.render("p(X :- q(X).");
    assert!(rendered.contains("line 1"), "{rendered}");
    assert!(rendered.contains('^'), "{rendered}");
}

#[test]
fn lexer_reserved_character() {
    let err = err_of("p($x).", Dialect::Elps);
    assert!(err.to_string().contains("reserved"), "{err}");
}

#[test]
fn sort_conflict_in_lps_mode() {
    // X used as a set (domain) and as an integer.
    let err = err_of(
        "q(X) :- p(X), forall U in X: U = U.\nr(X) :- p(X), X < 3.",
        Dialect::Lps,
    );
    assert!(matches!(err, CoreError::Sort { .. }), "{err}");
    assert!(err.to_string().contains("sort"), "{err}");
}

#[test]
fn nested_sets_rejected_in_lps_mode() {
    let err = err_of("p({{a}}).", Dialect::Lps);
    assert!(
        err.to_string().contains("nest") || err.to_string().contains("sort"),
        "{err}"
    );
}

#[test]
fn negation_in_wrong_dialect_names_the_fix() {
    let err = err_of("p(X) :- q(X), not r(X).", Dialect::Elps);
    assert!(err.to_string().contains("StratifiedElps"), "{err}");
}

#[test]
fn pure_lps_rejects_extended_bodies_with_pointer() {
    let err = err_of("p(X) :- q(X) ; r(X).", Dialect::PureLps);
    assert!(err.to_string().contains("Definition 5"), "{err}");
}

#[test]
fn builtin_head_redefinition_cites_definition_5() {
    let err = err_of("union(X, Y, Z) :- p(X, Y, Z).", Dialect::Elps);
    assert!(err.to_string().contains("Definition 5"), "{err}");
    // Also via scons and card.
    let err = err_of("card(X, N) :- p(X, N).", Dialect::Elps);
    assert!(err.to_string().contains("special"), "{err}");
}

#[test]
fn unsafe_rule_names_the_variable() {
    let err = err_of("p(X, Y) :- q(X).", Dialect::Elps);
    assert!(err.to_string().contains("`Y`"), "{err}");
    assert!(
        err.to_string().contains("unsafe") || err.to_string().contains("bound"),
        "{err}"
    );
}

#[test]
fn unsafe_quantifier_domain_suggests_policy() {
    let err = err_of("a(c). b(X) :- forall U in X: a(U).", Dialect::Elps);
    assert!(err.to_string().contains("ActiveSets"), "{err}");
}

#[test]
fn unstratified_negation_names_the_cycle() {
    let err = err_of("p(X) :- q(X), not p(X). q(a).", Dialect::StratifiedElps);
    let msg = err.to_string();
    assert!(msg.contains("stratified"), "{msg}");
    assert!(msg.contains("`p`"), "{msg}");
}

#[test]
fn arithmetic_type_error_shows_value() {
    let err = err_of("p(K) :- q(X), K = X + 1. q(oops).", Dialect::Elps);
    let msg = err.to_string();
    assert!(msg.contains("integer"), "{msg}");
    assert!(msg.contains("oops"), "{msg}");
}

#[test]
fn arity_mismatch_is_caught_before_evaluation() {
    let err = err_of("p(a). q(X) :- p(X, X).", Dialect::Elps);
    assert!(
        err.to_string().contains("argument"),
        "arity mismatch surfaced: {err}"
    );
}

#[test]
fn iteration_limit_stops_runaway_constructor_recursion() {
    // grow builds ever-larger sets: no fixpoint. The engine must stop
    // at the configured bound instead of spinning forever.
    let mut db = Database::with_config(
        Dialect::Elps,
        EvalConfig {
            max_iterations: 50,
            ..EvalConfig::default()
        },
    );
    db.load_str(
        "elem(a). seed({}).
         grown(S) :- seed(S).
         grown(T) :- grown(S), card(S, N), mul(N, 0, Z), int_tag(Z),
                     scons(f(N), S, T).
         int_tag(0).",
    )
    .unwrap();
    let err = db.evaluate().unwrap_err();
    assert!(err.to_string().contains("50"), "{err}");
}

#[test]
fn powerset_universe_cap_is_enforced() {
    let mut db = Database::with_config(
        Dialect::Elps,
        EvalConfig {
            set_universe: SetUniverse::ActiveSubsets { max_card: 3 },
            ..EvalConfig::default()
        },
    );
    let mut facts = String::new();
    for i in 0..25 {
        facts.push_str(&format!("a(c{i}).\n"));
    }
    db.load_str(&facts).unwrap();
    let err = db.evaluate().unwrap_err();
    assert!(err.to_string().contains("2^"), "{err}");
}

#[test]
fn checked_card_program_evaluates_under_active_sets() {
    // `S` has no inferred sort and is bound by nothing, so the planner
    // enumerates it; `card` needs a set there, so only sets are tried
    // and the atoms `a` and `x` never reach it as a `TypeError`.
    let src = "s({a}). t(x). big(S) :- card(S, N), N >= 2.";
    let active = EvalConfig {
        set_universe: SetUniverse::ActiveSets,
        ..EvalConfig::default()
    };
    let mut db = Database::with_config(Dialect::Elps, active);
    db.load_str(src).unwrap();
    db.check().expect("the program checks");
    let model = db.evaluate().expect("no card TypeError");
    assert!(model.extension("big").is_empty(), "{{a}} has one element");

    // The session path (`update` after a fact line) derives the
    // two-element set.
    let mut session = db.session().expect("session builds");
    session.load_facts("s({a, b}).").unwrap();
    session.update().expect("no card TypeError on update");
    assert_eq!(
        session.extension("big"),
        vec![vec![Value::set([Value::atom("a"), Value::atom("b")])]]
    );

    // The default policy still rejects the rule as unsafe.
    let err = err_of(src, Dialect::Elps);
    assert!(matches!(err, CoreError::Engine(_)), "{err:?}");
    assert!(err.to_string().contains("`S`"), "{err}");
}

#[test]
fn grouping_without_body_is_rejected() {
    let err = err_of("p(<X>).", Dialect::StratifiedElps);
    assert!(err.to_string().contains("body"), "{err}");
}

#[test]
fn negated_builtin_call_position_is_explained() {
    let err = err_of(
        "p(X) :- q(X, Y, Z), not union(X, Y, Z).",
        Dialect::StratifiedElps,
    );
    assert!(err.to_string().contains("union"), "{err}");
}

#[test]
fn errors_are_values_not_panics() {
    // A grab-bag of malformed programs: every one must produce an Err,
    // never a panic.
    let cases = [
        "p(.",
        "p :- .",
        ":- q.",
        "p(X) :- forall X: q(X).",
        "p(X) :- forall U in: q(U).",
        "pred p(weird).",
        "p() .",
        "p(X) :- 1 + 2.",
        "p(<X>, <Y>) :- q(X, Y).",
        "p(X) :- not not q(X).",
    ];
    for src in cases {
        let mut db = Database::new(Dialect::StratifiedElps);
        let result = db
            .load_str(src)
            .map(|_| ())
            .and_then(|()| db.evaluate().map(|_| ()));
        assert!(result.is_err(), "should fail: {src}");
    }
}

#[test]
fn predicates_wider_than_a_column_mask_are_errors_not_panics() {
    let list = |n: usize, f: &dyn Fn(usize) -> String| -> String {
        (1..=n).map(f).collect::<Vec<_>>().join(", ")
    };
    let ints = |n| list(n, &|i| i.to_string());
    let vars = |n| list(n, &|i| format!("X{i}"));
    // Lowering: facts, rule heads, and body literals.
    for src in [
        format!("p({}).", ints(33)),
        format!("q(X1) :- p({}).", vars(33)),
    ] {
        let err = err_of(&src, Dialect::Elps);
        assert!(err.to_string().contains("33 arguments"), "{src}: {err}");
    }
    // The live-session entry points: wire-style facts, point and
    // conjunctive queries, explain.
    let mut db = Database::new(Dialect::Elps);
    db.load_str("e(a, b).").unwrap();
    let mut session = db.session().unwrap();
    let wide: Vec<Value> = (1..=33).map(Value::int).collect();
    assert!(session.add_fact("p", &wide).is_err());
    assert!(session.query("p", &vec![None; 33]).is_err());
    assert!(session.explain("p", &vec![None; 33]).is_err());
    let goal = format!("p({}).", vars(33));
    assert!(session.query_str(&goal).is_err());
    // Exactly the mask width still works, and the session survives.
    session.add_fact("p", &wide[..32]).unwrap();
    let ans = session.query("p", &vec![None; 32]).unwrap();
    assert_eq!(ans.rows, vec![wide[..32].to_vec()]);
    let ans = session.query("e", &[None, None]).unwrap();
    assert_eq!(ans.rows.len(), 1);
}
