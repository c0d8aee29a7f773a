//! Each interned key is held once, in a flat arena: a counting global
//! allocator shows that cloning a store of `n` atoms and applications
//! allocates no more than cloning one of `n / 4`. A store that boxed
//! every name or argument list would pay per term.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lps_term::TermStore;

/// Counts every allocation and reallocation made on the calling thread.
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

/// A store of `n` atoms, each with an application `f{i}(atom, i)`.
fn store(n: usize) -> TermStore {
    let mut st = TermStore::new();
    for i in 0..n {
        let a = st.atom(&format!("a{i}"));
        let k = st.int(i as i64);
        st.app(&format!("f{i}"), vec![a, k]);
    }
    st
}

/// Allocations made by one clone of `st`.
fn clone_allocs(st: &TermStore) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let copy = st.clone();
    let made = ALLOCS.with(Cell::get) - before;
    assert_eq!(copy.len(), st.len());
    made
}

#[test]
fn cloning_allocates_per_arena_not_per_term() {
    let n = 4000;
    let (small, large) = (store(n / 4), store(n));
    let (small_allocs, large_allocs) = (clone_allocs(&small), clone_allocs(&large));
    assert!(
        large_allocs <= small_allocs,
        "cloning {} terms made {large_allocs} allocations, {} terms {small_allocs}",
        large.len(),
        small.len()
    );
}
