//! A snapshot-served reply is rendered without a heap allocation per
//! answer row: a counting global allocator measures one snapshot-hit
//! roundtrip over raw `write_frame`/`read_frame` at `n` and at `4n`
//! answer rows, and the allocations the larger reply adds must stay
//! under a small constant. No row may become a `String` or a `Value`
//! on its way to the wire.
//!
//! What may still grow with the answer is amortized buffer growth (the
//! snapshot's answer rows, the reply frame, the sort's scratch): a
//! logarithmic number of allocations. The handler renders on its own
//! thread, so the count is process-wide; each size is measured several
//! times and the fewest allocations taken, which drops any stray
//! allocation of an idle server thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};

use lps_core::serve::{read_frame, write_frame};
use lps_core::{Database, Dialect, Server};

/// Counts every allocation and reallocation made by any thread.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `n` answer rows for `pred(k, …)`, mixing atoms, negative integers
/// and applications.
fn facts(pred: &str, n: usize, out: &mut String) {
    for i in 0..n {
        out.push_str(&format!("{pred}(k, c{i}, -{i}, f(g{}, {i})).\n", i % 3));
    }
}

/// The raw reply payload to `request`, and the allocations the whole
/// roundtrip made.
fn roundtrip(stream: &mut TcpStream, request: &str) -> (String, u64) {
    let start = ALLOCS.load(Ordering::SeqCst);
    write_frame(stream, request).unwrap();
    let reply = read_frame(stream).unwrap().expect("reply frame");
    (reply, ALLOCS.load(Ordering::SeqCst) - start)
}

#[test]
fn snapshot_hits_allocate_per_reply_not_per_row() {
    const N: usize = 200;
    let mut src = String::new();
    facts("small", N, &mut src);
    facts("large", 4 * N, &mut src);
    let mut db = Database::new(Dialect::Elps);
    db.load_str(&src).unwrap();
    let mut server = Server::spawn(TcpListener::bind("127.0.0.1:0").unwrap(), &db).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut fewest = |pred: &str, rows: usize| {
        let goal = format!("Q {pred}(k, A, B, C).");
        // The first ask compiles the plan on the writer and publishes it.
        let hits = server.snapshot_hits();
        roundtrip(&mut stream, &goal);
        let fewest = (0..5)
            .map(|_| {
                let (reply, allocs) = roundtrip(&mut stream, &goal);
                assert!(reply.starts_with(&format!("ok {rows}\n")), "{reply}");
                assert_eq!(reply.lines().count(), rows + 1);
                allocs
            })
            .min()
            .unwrap();
        assert_eq!(server.snapshot_hits(), hits + 5, "{pred}: repeats hit");
        fewest
    };
    let small = fewest("small", N);
    let large = fewest("large", 4 * N);
    eprintln!(
        "snapshot hit: {small} allocations at {N} rows, {large} at {} rows",
        4 * N
    );
    const BUDGET: u64 = 8;
    assert!(
        large.saturating_sub(small) <= BUDGET,
        "{} extra rows added {} allocations (budget {BUDGET})",
        3 * N,
        large.saturating_sub(small)
    );
    server.shutdown();
}
