//! E9's invariants at the smallest report size (EXPERIMENTS.md E9): the
//! semi-naive `(∀x∈X)` trigger prunes work, never the model. `report
//! e9` keeps the timing rows; here the trigger must leave `all_grown`
//! unchanged and consider strictly fewer tuples than re-checking every
//! domain each round.

use lps_bench::{db_cfg, eval, workloads};
use lps_core::{Dialect, Model};
use lps_engine::EvalConfig;
use lps_term::TermId;

/// The workload evaluated with the trigger on or off.
fn run(trigger: bool) -> Model {
    let src = workloads::forall_trigger(200, 64, 3, 5);
    let config = EvalConfig {
        forall_trigger_index: trigger,
        ..EvalConfig::default()
    };
    eval(&db_cfg(&src, Dialect::Elps, config))
}

/// `all_grown`'s rows as interned ids, sorted.
fn all_grown(m: &Model) -> Vec<Vec<TermId>> {
    let engine = m.engine();
    let pred = engine
        .lookup_pred("all_grown", 1)
        .expect("all_grown is defined");
    let mut rows: Vec<Vec<TermId>> = engine.rows(pred).map(<[_]>::to_vec).collect();
    rows.sort();
    rows
}

#[test]
fn forall_trigger_prunes_work_not_answers() {
    let (on, off) = (run(true), run(false));
    assert_eq!(
        all_grown(&on),
        all_grown(&off),
        "the trigger must not change the model, bit for bit"
    );
    assert!(!all_grown(&on).is_empty(), "some set grows completely");
    let (on, off) = (on.stats(), off.stats());
    assert!(
        on.tuples_considered < off.tuples_considered,
        "the trigger must skip domains with no new element: {} vs {} tuples considered",
        on.tuples_considered,
        off.tuples_considered
    );
}
