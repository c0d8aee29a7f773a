//! A set builtin whose every argument is bound compares payloads and
//! interns nothing: under the active-set universe a check must not add
//! the set it tests for to the universe that later rules enumerate.
//! The bodies bind every argument before the builtin, so with the cost
//! planner off each builtin runs as a check.

use lps::{Database, Dialect, EvalConfig, SetUniverse, Value};

/// The model of `src` under the active-set universe, textual join
/// order; asserts the run interned no set.
fn model_interning_no_set(src: &str) -> lps::Model {
    let config = EvalConfig {
        set_universe: SetUniverse::ActiveSets,
        cost_planner: false,
        ..EvalConfig::default()
    };
    let mut db = Database::with_config(Dialect::StratifiedElps, config);
    db.load_str(src).unwrap();
    let mut model = db.session().unwrap();
    let sets = model.engine().store().set_ids().len();
    model.engine_mut().run().unwrap();
    assert_eq!(
        model.engine().store().set_ids().len(),
        sets,
        "a check interned a set"
    );
    model
}

fn set(atoms: &[&str]) -> Value {
    Value::set(atoms.iter().map(|a| Value::atom(*a)))
}

#[test]
fn scons_check_adds_no_set() {
    let m = model_interning_no_set(
        "e(a). e(b). e(c). keep({a}).
         p(S) :- keep(S), e(X), scons(X, {}, S).
         big(S) :- card(S, N), N >= 1.",
    );
    assert_eq!(m.extension("big"), vec![vec![set(&["a"])]]);
    assert_eq!(m.extension("p"), vec![vec![set(&["a"])]]);
}

#[test]
fn union_disj_union_and_scons_min_checks_add_no_set() {
    let m = model_interning_no_set(
        "e(a). e(b). s({a}). s({b}). s({}). keep({a}).
         u(Z) :- keep(Z), s(X), s(Y), union(X, Y, Z).
         d(Z) :- keep(Z), s(X), s(Y), disj_union(X, Y, Z).
         m(Z) :- keep(Z), e(X), s(Y), scons_min(X, Y, Z).
         big(S) :- card(S, N), N >= 1.",
    );
    assert_eq!(
        m.extension("big"),
        vec![vec![set(&["a"])], vec![set(&["b"])]]
    );
    for pred in ["u", "d", "m"] {
        assert_eq!(m.extension(pred), vec![vec![set(&["a"])]], "{pred}");
    }
}
