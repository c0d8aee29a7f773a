//! Concurrency properties of the epoch-published snapshot layer
//! (`lps_engine::snapshot`): readers racing a publishing writer never
//! observe a torn epoch, and every answer they extract equals the
//! answer of *some* published engine state — a sequential prefix of
//! the writer's update stream.
//!
//! The workload is a growing chain `0 → 1 → … → m` under transitive
//! closure: after the writer's `k`-th reconciled update, the answer to
//! `path(0, X)` is exactly `{(0, 1), …, (0, m_k)}`. That shape is what
//! makes torn reads *detectable*: a reader that mixed relations, store,
//! or plans from two epochs would see a row set that is not a chain
//! prefix (a hole, a dangling `TermId`, a count between prefixes), and
//! the per-row integer lift would catch a store/relation mismatch.
//!
//! A sequential property covers the publisher's spare buffers: over
//! random interleavings of facts, point queries, conjunctive goals,
//! demand-space clears, plan-cache evictions and pinned epochs, every
//! published relation equals a fresh clone of the engine's (rows in
//! order, index masks), and every snapshot answer equals the least
//! model's.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use lps_engine::pattern::{Pattern, VarId};
use lps_engine::{
    BodyLit, Engine, EngineSnapshot, EvalConfig, PredId, Relation, Rule, SnapshotPublisher,
};
use lps_term::TermId;
use proptest::prelude::*;

/// `edge`/`path` transitive closure over `0 → 1 → … → n`.
fn chain_engine(n: i64) -> (Engine, PredId, PredId) {
    chain_engine_with(EvalConfig::default(), n)
}

/// [`chain_engine`] under `config`.
fn chain_engine_with(config: EvalConfig, n: i64) -> (Engine, PredId, PredId) {
    let mut e = Engine::new(config);
    let edge = e.pred("edge", 2);
    let path = e.pred("path", 2);
    let v = |i| Pattern::Var(VarId(i));
    e.rule(Rule {
        head: path,
        head_args: vec![v(0), v(1)],
        group: None,
        outer: vec![BodyLit::Pos(edge, vec![v(0), v(1)])],
        quant: None,
        num_vars: 2,
        var_names: vec!["X".into(), "Y".into()],
        var_sorts: vec![],
    })
    .unwrap();
    e.rule(Rule {
        head: path,
        head_args: vec![v(0), v(2)],
        group: None,
        outer: vec![
            BodyLit::Pos(path, vec![v(0), v(1)]),
            BodyLit::Pos(edge, vec![v(1), v(2)]),
        ],
        quant: None,
        num_vars: 3,
        var_names: vec!["X".into(), "Y".into(), "Z".into()],
        var_sorts: vec![],
    })
    .unwrap();
    for i in 0..n {
        let a = e.store_mut().int(i);
        let b = e.store_mut().int(i + 1);
        e.fact(edge, vec![a, b]).unwrap();
    }
    (e, edge, path)
}

/// Hold the writer until each of `readers` has counted a read in
/// `ready`, so every reader reads while updates are still to come
/// however the scheduler orders the threads. A reader that finished
/// (panicked) releases the writer: its join reports the failure.
fn wait_for_readers<T>(ready: &AtomicUsize, readers: &[JoinHandle<T>]) {
    while ready.load(Ordering::SeqCst) < readers.len()
        && !readers.iter().any(JoinHandle::is_finished)
    {
        std::thread::yield_now();
    }
}

/// Assert that a snapshot's answer to `path(0, X)` is a chain prefix
/// `{(0, 1), …, (0, m)}` with `base ≤ m ≤ limit`, lifting every
/// `TermId` through the snapshot's own store. Returns `m`.
fn assert_chain_prefix(
    snap: &lps_engine::EngineSnapshot,
    path: PredId,
    base: i64,
    limit: i64,
) -> Option<i64> {
    let zero = snap.store().find_int(0)?;
    let rows = snap.try_query(path, &[Some(zero), None])?;
    let mut targets: Vec<i64> = rows
        .iter()
        .map(|row| {
            assert_eq!(row.len(), 2, "epoch {}: row arity", snap.epoch());
            assert_eq!(
                snap.store().as_int(row[0]),
                Some(0),
                "epoch {}: bound column must lift to 0 in this epoch's store",
                snap.epoch()
            );
            snap.store()
                .as_int(row[1])
                .expect("free column lifts to an int in this epoch's store")
        })
        .collect();
    targets.sort_unstable();
    let m = targets.len() as i64;
    assert!(
        (base..=limit).contains(&m),
        "epoch {}: answer count {m} is no published prefix (expected {base}..={limit})",
        snap.epoch()
    );
    let want: Vec<i64> = (1..=m).collect();
    assert_eq!(
        targets,
        want,
        "epoch {}: torn answer set — not the chain prefix of length {m}",
        snap.epoch()
    );
    Some(m)
}

/// Materialized-model serving: M readers hammer `path(0, X)` while the
/// writer appends an edge, reconciles, and republishes, K times. Every
/// read must be a chain prefix between the initial and final lengths,
/// and each reader's observed epoch and prefix must be monotone (the
/// epoch pointer never goes backwards).
#[test]
fn concurrent_readers_see_only_published_prefixes_materialized() {
    const BASE: i64 = 8;
    const UPDATES: i64 = 120;
    const READERS: usize = 4;
    let (mut e, edge, path) = chain_engine(BASE);
    e.run().unwrap();
    let mut publisher = SnapshotPublisher::new(&mut e);
    let done = Arc::new(AtomicBool::new(false));
    let ready = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..READERS)
        .map(|_| {
            let reader = publisher.reader();
            let done = Arc::clone(&done);
            let ready = Arc::clone(&ready);
            std::thread::spawn(move || {
                let mut reads = 0u64;
                let mut last_epoch = 0u64;
                let mut last_m = 0i64;
                let mut first = true;
                while !done.load(Ordering::SeqCst) {
                    let snap = reader.current();
                    assert!(
                        snap.epoch() >= last_epoch,
                        "epoch pointer went backwards: {} after {last_epoch}",
                        snap.epoch()
                    );
                    let m = assert_chain_prefix(&snap, path, BASE, BASE + UPDATES)
                        .expect("materialized epochs always serve");
                    if snap.epoch() == last_epoch {
                        assert!(m >= last_m, "same epoch shrank its answer");
                    }
                    last_epoch = snap.epoch();
                    last_m = m;
                    reads += 1;
                    if std::mem::take(&mut first) {
                        ready.fetch_add(1, Ordering::SeqCst);
                    }
                }
                reads
            })
        })
        .collect();
    for k in 0..UPDATES {
        if k == UPDATES / 2 {
            wait_for_readers(&ready, &handles);
        }
        let a = e.store_mut().int(BASE + k);
        let b = e.store_mut().int(BASE + k + 1);
        e.fact(edge, vec![a, b]).unwrap();
        e.update().unwrap();
        publisher.publish(&mut e);
    }
    done.store(true, Ordering::SeqCst);
    let mut total_reads = 0;
    for h in handles {
        total_reads += h.join().expect("reader panicked (torn read)");
    }
    assert!(total_reads > 0, "readers must have observed something");
    // The final epoch shows the fully grown chain.
    let snap = publisher.reader().current();
    assert_eq!(
        assert_chain_prefix(&snap, path, BASE + UPDATES, BASE + UPDATES),
        Some(BASE + UPDATES)
    );
}

/// Demand-plan serving: the writer never materializes — it answers
/// `path(0, X)` through the retained demand plan after each appended
/// edge, then republishes. Readers may find an epoch unservable (a
/// pending fact unpublishes the plans — that is the funnel contract,
/// not an error), but every *served* answer must be a chain prefix,
/// and old epochs pinned by a reader must stay fully readable while
/// the writer races ahead.
#[test]
fn concurrent_readers_on_demand_plans_funnel_or_agree() {
    const BASE: i64 = 8;
    const UPDATES: i64 = 60;
    const READERS: usize = 3;
    let (mut e, edge, path) = chain_engine(BASE);
    let zero = e.store_mut().int(0);
    // Seed the demand space; the plan is retained across updates.
    e.query(path, &[Some(zero), None]).unwrap();
    let mut publisher = SnapshotPublisher::new(&mut e);
    let done = Arc::new(AtomicBool::new(false));
    let ready = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..READERS)
        .map(|_| {
            let reader = publisher.reader();
            let done = Arc::clone(&done);
            let ready = Arc::clone(&ready);
            std::thread::spawn(move || {
                let mut served = 0u64;
                let mut pinned: Option<std::sync::Arc<lps_engine::EngineSnapshot>> = None;
                let mut first = true;
                while !done.load(Ordering::SeqCst) {
                    let snap = reader.current();
                    if assert_chain_prefix(&snap, path, BASE, BASE + UPDATES).is_some() {
                        served += 1;
                        // Pin this epoch and re-read it later: it must
                        // answer identically no matter how far the
                        // writer has advanced since.
                        pinned = Some(snap);
                    }
                    if let Some(old) = &pinned {
                        assert_chain_prefix(old, path, BASE, BASE + UPDATES)
                            .expect("a pinned epoch stays servable forever");
                    }
                    if std::mem::take(&mut first) {
                        ready.fetch_add(1, Ordering::SeqCst);
                    }
                }
                served
            })
        })
        .collect();
    for k in 0..UPDATES {
        if k == UPDATES / 2 {
            wait_for_readers(&ready, &handles);
        }
        let a = e.store_mut().int(BASE + k);
        let b = e.store_mut().int(BASE + k + 1);
        e.fact(edge, vec![a, b]).unwrap();
        // The demand continuation folds the new edge into the retained
        // plan — the writer-side answer is the source of truth.
        let rows = e.query(path, &[Some(zero), None]).unwrap().rows;
        assert_eq!(rows.len() as i64, BASE + k + 1);
        publisher.publish(&mut e);
    }
    done.store(true, Ordering::SeqCst);
    let mut served = 0;
    for h in handles {
        served += h.join().expect("reader panicked (torn read)");
    }
    assert!(served > 0, "published plan epochs must serve lock-free");
    let snap = publisher.reader().current();
    assert_eq!(
        assert_chain_prefix(&snap, path, BASE + UPDATES, BASE + UPDATES),
        Some(BASE + UPDATES)
    );
}

/// One step of a random writer session behind a publisher.
#[derive(Clone, Debug)]
enum Op {
    /// `Engine::fact` on `edge` (possibly a duplicate).
    Fact(i64, i64),
    /// `Engine::query` on `path` with a bound/free mask and constants:
    /// a repeat is warm, a new seed or adornment cold.
    Query(u8, i64, i64),
    /// The conjunctive goal `q(Y, Z) :- path(c, Y), edge(Y, Z)`.
    Conj(i64),
    /// `Engine::clear_demand_spaces`: every retained space restarts.
    Clear,
    /// `Engine::run`: materialize; later queries read the model.
    Run,
    /// A reader pins the current epoch.
    Pin,
    /// The oldest pinned epoch is released.
    Unpin,
}

/// Facts and point queries are listed twice: twice as likely as the
/// other steps, so relations grow between clears and runs.
fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((0i64..6), (0i64..6)).prop_map(|(a, b)| Op::Fact(a, b)),
        ((0i64..6), (0i64..6)).prop_map(|(a, b)| Op::Fact(a, b)),
        ((0u8..4), (0i64..6), (0i64..6)).prop_map(|(m, a, b)| Op::Query(m, a, b)),
        ((0u8..4), (0i64..6), (0i64..6)).prop_map(|(m, a, b)| Op::Query(m, a, b)),
        (0i64..6).prop_map(Op::Conj),
        Just(Op::Clear),
        Just(Op::Run),
        Just(Op::Pin),
        Just(Op::Unpin),
    ]
}

/// Rows per relation slot, in order.
type FrozenRows = Vec<Vec<Vec<TermId>>>;

/// Every row of every relation of a snapshot, in order.
fn frozen_rows(snap: &EngineSnapshot) -> FrozenRows {
    (0..snap.relation_count())
        .map(|i| {
            let rel = snap.relation(PredId::from_index(i)).unwrap();
            rel.iter().map(<[TermId]>::to_vec).collect()
        })
        .collect()
}

/// `Some(c)` for a bound column, `None` for a free one.
fn point_args(ids: &[TermId], mask: u8, a: i64, b: i64) -> [Option<TermId>; 2] {
    [
        (mask & 1 != 0).then(|| ids[a as usize]),
        (mask & 2 != 0).then(|| ids[b as usize]),
    ]
}

/// Run `ops` on a demand-mode session, publishing after every step,
/// and check the published epoch against the engine and a reference
/// least model.
fn check_publish_stream(ops: &[Op], cache_bound: usize) {
    let config = EvalConfig {
        demand_plan_cache: cache_bound,
        ..EvalConfig::default()
    };
    let (mut e, edge, path) = chain_engine_with(config, 2);
    let goal = e.pred("query#goal", 2);
    let ids: Vec<TermId> = (0..6).map(|i| e.store_mut().int(i)).collect();
    let mut facts: Vec<(i64, i64)> = vec![(0, 1), (1, 2)];
    let mut publisher = SnapshotPublisher::new(&mut e);
    let reader = publisher.reader();
    let mut pinned: Vec<(Arc<EngineSnapshot>, FrozenRows)> = Vec::new();
    let v = |i| Pattern::Var(VarId(i));
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Fact(a, b) => {
                e.fact(edge, vec![ids[a as usize], ids[b as usize]])
                    .unwrap();
                facts.push((a, b));
            }
            Op::Query(mask, a, b) => {
                e.query(path, &point_args(&ids, mask, a, b)).unwrap();
            }
            Op::Conj(c) => {
                e.query_rule(Rule {
                    head: goal,
                    head_args: vec![v(1), v(2)],
                    group: None,
                    outer: vec![
                        BodyLit::Pos(path, vec![Pattern::Ground(ids[c as usize]), v(1)]),
                        BodyLit::Pos(edge, vec![v(1), v(2)]),
                    ],
                    quant: None,
                    num_vars: 3,
                    var_names: vec!["_".into(), "Y".into(), "Z".into()],
                    var_sorts: vec![],
                })
                .unwrap();
            }
            Op::Clear => e.clear_demand_spaces(),
            Op::Run => {
                e.run().unwrap();
            }
            Op::Pin => {
                let snap = reader.current();
                let rows = frozen_rows(&snap);
                pinned.push((snap, rows));
            }
            Op::Unpin => {
                if !pinned.is_empty() {
                    pinned.remove(0);
                }
            }
        }
        let epoch = publisher.publish(&mut e);
        let snap = reader.current();
        assert_eq!(
            snap.epoch(),
            epoch,
            "step {step}: publish returns the live epoch"
        );
        // Published relations are clones of the engine's, row for row.
        assert_eq!(snap.relation_count(), e.preds().len(), "step {step}");
        for i in 0..snap.relation_count() {
            let pred = PredId::from_index(i);
            let want: Relation = e.relation(pred).clone();
            let got = snap.relation(pred).unwrap();
            assert!(
                got.iter().eq(want.iter()),
                "step {step} {op:?} of {ops:?}: slot {i} rows differ from a clone"
            );
            assert!(
                got.index_masks().eq(want.index_masks()),
                "step {step} {op:?} of {ops:?}: slot {i} index masks differ from a clone"
            );
        }
        // Pinned epochs never change under later publishes.
        for (old, rows) in &pinned {
            assert_eq!(&frozen_rows(old), rows, "step {step}: pinned epoch moved");
        }
        // Every snapshot answer is the least model's.
        let (mut reference, redge, rpath) = chain_engine(0);
        let rids: Vec<TermId> = (0..6).map(|i| reference.store_mut().int(i)).collect();
        for &(a, b) in &facts {
            reference
                .fact(redge, vec![rids[a as usize], rids[b as usize]])
                .unwrap();
        }
        reference.run().unwrap();
        for mask in 0u8..4 {
            for a in 0..6 {
                for b in 0..6 {
                    let Some(got) = snap.try_query(path, &point_args(&ids, mask, a, b)) else {
                        continue;
                    };
                    let want = reference
                        .query(rpath, &point_args(&rids, mask, a, b))
                        .unwrap()
                        .rows;
                    // Both sessions intern 0..6 first, in order.
                    assert_eq!(
                        got.sorted(),
                        want.sorted(),
                        "step {step} {op:?} of {ops:?}: path mask {mask:#b} ({a}, {b})"
                    );
                }
            }
        }
    }
    // Not vacuous: once the writer has answered, the epoch serves.
    e.query(path, &[Some(ids[0]), None]).unwrap();
    publisher.publish(&mut e);
    assert!(reader
        .current()
        .try_query(path, &[Some(ids[0]), None])
        .is_some());
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(48))]

    /// The spare-buffer publisher never publishes anything but a clone
    /// of the engine, whatever grows, clears, evicts or pins.
    #[test]
    fn published_relations_equal_engine_clones(
        ops in proptest::collection::vec(op_strategy(), 1..16),
        bound_one in any::<bool>(),
    ) {
        check_publish_stream(&ops, if bound_one { 1 } else { 64 });
    }
}
