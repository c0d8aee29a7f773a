//! Ground facts load without a heap allocation per fact: a counting
//! global allocator measures `Database::load_str` — and the
//! `session()` that seeds an engine from the loaded facts — at `n` and
//! at `4n` facts, and the allocations the larger load adds must stay
//! under one per ten extra facts. No fact may become a `Clause`, a
//! `String` or a `Value` on its way in.
//!
//! What may still grow with the input is amortized container growth
//! (the token buffer, the fact rows, the term store's tables and the
//! engine's relations): a logarithmic number of allocations. The
//! facts mix every term shape — integers, atoms, applications, nested
//! sets — over a bounded pool of names and sets, so the terms the
//! store must keep are the integers, which it holds inline.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lps_core::{Database, Dialect};

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

/// `n` distinct facts over a fixed pool of atoms, applications and
/// sets, plus zero-arity and duplicate facts.
fn source(n: usize) -> String {
    let mut src = String::from("start.\n");
    for i in 0..n {
        src.push_str(&format!(
            "row({i}, -{i}, c{}, {{a{}, {{b, c{}}}}}, f(g{}, {{}})).\n",
            i % 5,
            i % 3,
            i % 2,
            i % 4
        ));
    }
    src.push_str("row(0, 0, c0, {a0, {b, c0}}, f(g0, {})).\nstart.\n");
    src
}

/// Allocations made by loading `src` into a fresh database, and by
/// then opening a session on it.
fn measure(src: &str) -> (u64, u64) {
    let start = allocs();
    let mut db = Database::new(Dialect::Elps);
    db.load_str(src).unwrap();
    let loaded = allocs();
    let session = db.session().unwrap();
    let seeded = allocs();
    drop(session);
    let rows = src.lines().count() - 3;
    assert_eq!(
        db.evaluate().unwrap().count("row", 5),
        rows,
        "distinct rows"
    );
    (loaded - start, seeded - loaded)
}

#[test]
fn loading_facts_allocates_per_load_not_per_fact() {
    const N: usize = 400;
    let (small, large) = (source(N), source(4 * N));
    let (load_n, seed_n) = measure(&small);
    let (load_4n, seed_4n) = measure(&large);
    let extra_facts = (3 * N) as u64;
    let budget = extra_facts / 10;
    let extra_load = load_4n.saturating_sub(load_n);
    let extra_seed = seed_4n.saturating_sub(seed_n);
    eprintln!(
        "load_str: {load_n} allocations at {N} facts, {load_4n} at {}; \
         session(): {seed_n}, {seed_4n}",
        4 * N
    );
    assert!(
        extra_load <= budget,
        "load_str added {extra_load} allocations for {extra_facts} extra facts (budget {budget})"
    );
    assert!(
        extra_seed <= budget,
        "session() added {extra_seed} allocations for {extra_facts} extra facts (budget {budget})"
    );
}
