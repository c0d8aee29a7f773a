//! The executor's per-tuple work allocates nothing: a counting global
//! allocator measures one batch `run()` of a small set program at
//! `n` and at `4n` input rows, and the allocations the larger run adds
//! must stay under 1% of the builtin calls it adds. The program
//! exercises `!=`, `in` in both modes (enumerating a bound set's
//! elements, and checking a constant's membership), `not`, and a
//! `forall` check whose body holds a positive literal and a builtin.
//!
//! A second program rolls sets up with `scons_min`, which interns the
//! rest of every set it takes apart: the store copies that rest within
//! its element arena, so a call allocates nothing either.
//!
//! A third program is `classmates`-shaped: `exists C in C1: C in C2`
//! over same-cohort pairs. Its membership pair runs as one sorted-set
//! intersection on the candidate stack, and its dead witness stops at
//! the first common element; neither allocates.
//!
//! What may still grow with the input is amortized container growth
//! (relation arenas and tables, the store's arenas, the derivation
//! buffer), a logarithmic number of allocations — nowhere near one per
//! tuple.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lps_engine::pattern::{Pattern, VarId};
use lps_engine::{BodyLit, Builtin, Engine, EvalConfig, QuantGroup, Rule};

/// Counts every allocation and reallocation made on the calling thread,
/// so the test harness's own threads do not disturb the figure.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Elements per item set.
const SET_SIZE: usize = 4;
/// Distinct elements the item sets draw from.
const POOL: usize = 40;

fn v(i: u32) -> Pattern {
    Pattern::Var(VarId(i))
}

fn rule(head: lps_engine::PredId, head_args: Vec<Pattern>, outer: Vec<BodyLit>) -> Rule {
    Rule {
        head,
        head_args,
        group: None,
        outer,
        quant: None,
        num_vars: 3,
        var_names: vec!["I".into(), "S".into(), "X".into()],
        var_sorts: vec![],
    }
}

/// Evaluate the program over `n` items; returns the allocations made by
/// `run()`, a lower bound on its builtin calls, and the derived counts.
fn evaluate(n: usize) -> (u64, u64, [usize; 3]) {
    let mut e = Engine::new(EvalConfig::default());
    let item = e.pred("item", 2);
    let good = e.pred("good", 1);
    let bad = e.pred("bad", 1);
    let pick = e.pred("pick", 2);
    let keep = e.pred("keep", 2);
    let has = e.pred("has", 1);
    let all = e.pred("all", 1);
    let st = e.store_mut();
    let pool: Vec<_> = (0..POOL).map(|i| st.atom(&format!("e{i}"))).collect();
    let probe = pool[0];
    let mut items = Vec::with_capacity(n);
    for i in 0..n {
        let id = st.int(i as i64);
        let set = st.set((0..SET_SIZE).map(|k| pool[(i + 7 * k) % POOL]).collect());
        items.push((id, set));
    }
    for (id, set) in items {
        e.fact(item, vec![id, set]).unwrap();
    }
    for (i, &x) in pool.iter().enumerate() {
        e.fact(good, vec![x]).unwrap();
        if i % 5 == 0 {
            e.fact(bad, vec![x]).unwrap();
        }
    }
    let (i, s, x) = (v(0), v(1), v(2));
    // pick(I, X) :- item(I, S), X in S, X != I.
    e.rule(rule(
        pick,
        vec![i.clone(), x.clone()],
        vec![
            BodyLit::Pos(item, vec![i.clone(), s.clone()]),
            BodyLit::Builtin(Builtin::In, vec![x.clone(), s.clone()]),
            BodyLit::Builtin(Builtin::Ne, vec![x.clone(), i.clone()]),
        ],
    ))
    .unwrap();
    // keep(I, X) :- item(I, S), X in S, not bad(X).
    e.rule(rule(
        keep,
        vec![i.clone(), x.clone()],
        vec![
            BodyLit::Pos(item, vec![i.clone(), s.clone()]),
            BodyLit::Builtin(Builtin::In, vec![x.clone(), s.clone()]),
            BodyLit::Neg(bad, vec![x.clone()]),
        ],
    ))
    .unwrap();
    // has(I) :- item(I, S), e0 in S.
    e.rule(rule(
        has,
        vec![i.clone()],
        vec![
            BodyLit::Pos(item, vec![i.clone(), s.clone()]),
            BodyLit::Builtin(Builtin::In, vec![Pattern::Ground(probe), s.clone()]),
        ],
    ))
    .unwrap();
    // all(I) :- item(I, S), forall X in S: (good(X), X != I).
    e.rule(Rule {
        quant: Some(QuantGroup {
            binders: vec![(VarId(2), s.clone())],
            inner: vec![
                BodyLit::Pos(good, vec![x.clone()]),
                BodyLit::Builtin(Builtin::Ne, vec![x.clone(), i.clone()]),
            ],
        }),
        ..rule(all, vec![i.clone()], vec![BodyLit::Pos(item, vec![i, s])])
    })
    .unwrap();

    let before = allocs();
    let stats = e.run().unwrap();
    let made = allocs() - before;
    // The only stratum boundary is the negated base predicate `bad`.
    assert_eq!(stats.strata, 2);
    // Per item, whatever order the planner picks: one `in`
    // enumeration and `SET_SIZE` `!=` checks for `pick`, one `in`
    // enumeration for `keep`, one `in` check for `has`, and `SET_SIZE`
    // `!=` checks in the `forall` walk (every element is good, so no
    // walk stops early).
    let builtin_calls = (n * (3 + 2 * SET_SIZE)) as u64;
    let counts = [
        e.rows(pick).len() + e.rows(keep).len(),
        e.rows(has).len(),
        e.rows(all).len(),
    ];
    (made, builtin_calls, counts)
}

#[test]
fn per_tuple_work_allocates_nothing() {
    let n = 1000;
    let (small_allocs, small_calls, small) = evaluate(n);
    let (large_allocs, large_calls, large) = evaluate(4 * n);
    // The answers scale with the input: every item is derived.
    assert_eq!(large[2], 4 * small[2]);
    assert_eq!(small[2], n, "every element is good");
    assert!(small[0] > 0 && small[1] > 0);
    let extra_allocs = large_allocs.saturating_sub(small_allocs);
    let extra_calls = large_calls - small_calls;
    assert!(
        extra_allocs * 100 < extra_calls,
        "{extra_allocs} more allocations for {extra_calls} more builtin calls \
         ({small_allocs} at n = {n}, {large_allocs} at 4n)"
    );
}

/// Roll `n` distinct four-element sets up to all their suffixes with
/// `chain(Rest) :- chain(S), scons_min(_P, Rest, S).`; returns the
/// allocations made by `run()` and the `chain` rows, one `scons_min`
/// call each.
fn roll_up(n: usize) -> (u64, usize) {
    let mut e = Engine::new(EvalConfig::default());
    let chain = e.pred("chain", 1);
    let st = e.store_mut();
    let pool: Vec<_> = (0..POOL).map(|i| st.atom(&format!("e{i}"))).collect();
    // The first `n` four-element subsets of the pool, in lexicographic
    // order.
    let mut sets = Vec::with_capacity(n);
    'gen: for a in 0..POOL {
        for b in a + 1..POOL {
            for c in b + 1..POOL {
                for d in c + 1..POOL {
                    if sets.len() == n {
                        break 'gen;
                    }
                    sets.push(st.set(vec![pool[a], pool[b], pool[c], pool[d]]));
                }
            }
        }
    }
    for set in sets {
        e.fact(chain, vec![set]).unwrap();
    }
    let (s, rest, p) = (v(0), v(1), v(2));
    e.rule(Rule {
        head: chain,
        head_args: vec![rest.clone()],
        group: None,
        outer: vec![
            BodyLit::Pos(chain, vec![s.clone()]),
            BodyLit::Builtin(Builtin::SconsMin, vec![p, rest, s]),
        ],
        quant: None,
        num_vars: 3,
        var_names: vec!["S".into(), "Rest".into(), "P".into()],
        var_sorts: vec![],
    })
    .unwrap();
    let before = allocs();
    e.run().unwrap();
    let allocated = allocs() - before;
    let rows = e.rows(chain).len();
    (allocated, rows)
}

#[test]
fn scons_min_roll_up_allocates_nothing_per_call() {
    let n = 1000;
    let (small_allocs, small_calls) = roll_up(n);
    let (large_allocs, large_calls) = roll_up(4 * n);
    // Every set, every suffix of it, and the empty set.
    assert!(small_calls > 2 * n && large_calls > 2 * 4 * n);
    let extra_allocs = large_allocs.saturating_sub(small_allocs);
    let extra_calls = (large_calls - small_calls) as u64;
    assert!(
        extra_allocs * 100 < extra_calls,
        "{extra_allocs} more allocations for {extra_calls} more scons_min calls \
         ({small_allocs} at n = {n}, {large_allocs} at 4n)"
    );
}

/// `meet(I, J)` for the candidate pairs whose sets share an element:
/// `meet(I, J) :- cand(I, J, S, T), X in S, X in T.` — the body
/// `classmates` gets from `exists C in C1: C in C2`, over `n` candidate
/// rows given directly, so no index is built per key. Returns the
/// allocations made by `run()` and the `meet` rows; each candidate is
/// one intersection, a lower bound on the builtin calls of the written
/// body.
fn classmates(n: usize) -> (u64, usize) {
    let mut e = Engine::new(EvalConfig::default());
    let cand = e.pred("cand", 4);
    let meet = e.pred("meet", 2);
    let st = e.store_mut();
    let pool: Vec<_> = (0..POOL).map(|i| st.atom(&format!("e{i}"))).collect();
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        let (a, b) = (st.int(i as i64), st.int((i + 1) as i64));
        let s = st.set((0..SET_SIZE).map(|k| pool[(i + 7 * k) % POOL]).collect());
        let t = st.set(
            (0..SET_SIZE)
                .map(|k| pool[(3 * i + 5 * k) % POOL])
                .collect(),
        );
        rows.push(vec![a, b, s, t]);
    }
    for row in rows {
        e.fact(cand, row).unwrap();
    }
    let (i, j, s, t, x) = (v(0), v(1), v(2), v(3), v(4));
    e.rule(Rule {
        head: meet,
        head_args: vec![i.clone(), j.clone()],
        group: None,
        outer: vec![
            BodyLit::Pos(cand, vec![i, j, s.clone(), t.clone()]),
            BodyLit::Builtin(Builtin::In, vec![x.clone(), s]),
            BodyLit::Builtin(Builtin::In, vec![x, t]),
        ],
        quant: None,
        num_vars: 5,
        var_names: ["I", "J", "S", "T", "X"].map(String::from).to_vec(),
        var_sorts: vec![],
    })
    .unwrap();
    let before = allocs();
    e.run().unwrap();
    let allocated = allocs() - before;
    let rows = e.rows(meet).len();
    (allocated, rows)
}

#[test]
fn membership_intersection_allocates_nothing_per_pair() {
    let n = 1000;
    let (small_allocs, small_rows) = classmates(n);
    let (large_allocs, large_rows) = classmates(4 * n);
    // Some candidates share an element and some do not.
    assert!(small_rows > 0 && small_rows < n, "{small_rows} of {n}");
    assert!(large_rows > 3 * small_rows);
    let extra_allocs = large_allocs.saturating_sub(small_allocs);
    let extra_calls = (3 * n) as u64;
    assert!(
        extra_allocs * 100 < extra_calls,
        "{extra_allocs} more allocations for {extra_calls} more intersections \
         ({small_allocs} at n = {n}, {large_allocs} at 4n)"
    );
}
