//! E16's invariants at smoke sizes (EXPERIMENTS.md E16): cost-based
//! planning changes work, never the model. `report e16` keeps the
//! timing rows and their ≥5× bars; the answers and counters are checked
//! here, in every test leg. The planner is set explicitly, so the test
//! means the same under `LPS_PLANNER=off`.

use lps_bench::{db_cfg, workloads};
use lps_core::{Dialect, Model};
use lps_engine::{EvalConfig, SetUniverse};
use lps_term::TermId;

/// A prepared session of `src`, run once in batch with the planner on
/// or off.
fn batch(src: &str, planner: bool) -> Model {
    let config = EvalConfig {
        set_universe: SetUniverse::Reject,
        cost_planner: planner,
        ..EvalConfig::default()
    };
    let mut model = db_cfg(src, Dialect::Elps, config)
        .session()
        .expect("session loads");
    model.engine_mut().run().expect("batch run");
    model
}

#[test]
fn adversarial_join_model_is_planner_invariant() {
    let src = workloads::triangle_like(16, 40, 3, 29);
    let (on, off) = (batch(&src, true), batch(&src, false));
    let id_rows = |m: &Model| -> Vec<Vec<TermId>> {
        let engine = m.engine();
        let out = engine.lookup_pred("out", 2).expect("out is defined");
        let mut rows: Vec<Vec<TermId>> = engine.rows(out).map(<[_]>::to_vec).collect();
        rows.sort();
        rows
    };
    assert_eq!(
        id_rows(&on),
        id_rows(&off),
        "the planner must not change the model, bit for bit"
    );
    assert!(!id_rows(&on).is_empty(), "some corner closes a triangle");
    let on_stats = on.stats();
    assert!(
        on_stats.reorders_applied >= 1,
        "the planner must reorder the adversarial body"
    );
    assert!(
        on_stats.stats_refreshes >= 1,
        "the planner refreshes statistics at least once"
    );
    assert_eq!(
        off.stats().reorders_applied,
        0,
        "planner off takes the textual order"
    );
}

#[test]
fn scons_min_rollup_is_planner_invariant() {
    let objects = 8;
    let src = workloads::rollup(objects, 40, 8, 31);
    let (on, off) = (batch(&src, true), batch(&src, false));
    // The peel interns rest sets in plan order, so compare values.
    let costs = on.extension("obj_cost");
    assert_eq!(
        costs,
        off.extension("obj_cost"),
        "the planner must not change the roll-up"
    );
    assert_eq!(costs.len(), objects, "every object is priced");
    assert!(
        on.stats().reorders_applied >= 1,
        "the planner must move the peel ahead of the cost scan"
    );
    assert_eq!(
        off.stats().reorders_applied,
        0,
        "planner off takes the textual order"
    );
}
