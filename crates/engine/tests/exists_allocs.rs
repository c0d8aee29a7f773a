//! An existence check — a positive literal whose every column is bound
//! — reads the relation's dedup table, which holds its one matching row
//! already; no index is built for it. A counting global allocator
//! measures one batch `run()` with such checks at `n` and at `4n` rows,
//! one on an extensional relation and one on a derived relation that
//! grows during the run: the larger run may add the amortized growth of
//! a few containers, not an allocation per row.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lps_engine::pattern::{Pattern, VarId};
use lps_engine::{BodyLit, Engine, EvalConfig, PredId, Rule};

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

fn v(i: u32) -> Pattern {
    Pattern::Var(VarId(i))
}

fn rule(head: PredId, outer: Vec<BodyLit>) -> Rule {
    Rule {
        head,
        head_args: vec![v(0), v(1)],
        group: None,
        outer,
        quant: None,
        num_vars: 2,
        var_names: vec!["X".into(), "Y".into()],
        var_sorts: vec![],
    }
}

/// Allocations of one `run()` over `n` rows, and the rows derived.
fn run(n: usize) -> (u64, usize) {
    let mut e = Engine::new(EvalConfig::default());
    let a = e.pred("a", 2);
    let b = e.pred("b", 2);
    let copy = e.pred("copy", 2);
    let both = e.pred("both", 2);
    let twice = e.pred("twice", 2);
    let ids: Vec<_> = (0..n as i64).map(|i| e.store_mut().int(i)).collect();
    for (i, &x) in ids.iter().enumerate() {
        e.fact(a, vec![x, ids[(i + 1) % n]]).unwrap();
        e.fact(b, vec![x, ids[(i + 1 + i % 2) % n]]).unwrap();
    }
    // copy(X, Y) :- a(X, Y).
    e.rule(rule(copy, vec![BodyLit::Pos(a, vec![v(0), v(1)])]))
        .unwrap();
    // both(X, Y) :- a(X, Y), b(X, Y).   (an existence check on `b`)
    e.rule(rule(
        both,
        vec![
            BodyLit::Pos(a, vec![v(0), v(1)]),
            BodyLit::Pos(b, vec![v(0), v(1)]),
        ],
    ))
    .unwrap();
    // twice(X, Y) :- b(X, Y), copy(X, Y).   (one on the derived `copy`)
    e.rule(rule(
        twice,
        vec![
            BodyLit::Pos(b, vec![v(0), v(1)]),
            BodyLit::Pos(copy, vec![v(0), v(1)]),
        ],
    ))
    .unwrap();
    let before = allocs();
    e.run().unwrap();
    let spent = allocs() - before;
    let derived = e.rows(both).len() + e.rows(twice).len();
    (spent, derived)
}

#[test]
fn existence_checks_allocate_nothing_per_row() {
    const N: usize = 500;
    let (small, derived_small) = run(N);
    let (large, derived_large) = run(4 * N);
    assert_eq!(derived_small, N, "half of `b` agrees with `a`, twice");
    assert_eq!(derived_large, 4 * N);
    let added = large.saturating_sub(small);
    assert!(
        added < (N / 10) as u64,
        "{added} allocations for {} more rows ({small} at n = {N}, {large} at 4n)",
        3 * N
    );
}
