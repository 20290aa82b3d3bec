//! Heap allocations per cached request and per model-cache miss,
//! and the heap a model-cache entry retains, counted by a global allocator
//! that tallies the calling thread's heap traffic. A cache hit must do
//! only per-request work, so a fixed working set allocates a fixed number
//! of times per request, pinned here at the count this daemon makes on a
//! connection worker's path, its response buffer and evaluation scratch
//! reused; a miss parses and lowers the model, pinned the same way.

#[path = "common/working_set.rs"]
mod working_set;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pevpm::vm::Scratch;
use pevpm_serve::proto::FrameBuf;
use pevpm_serve::{plan, ServeConfig, Server};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn tally(allocs: u64, bytes: i64) {
    ALLOCS.with(|n| n.set(n.get() + allocs));
    LIVE.with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the thread-local tallies are the only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(1, layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(0, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(1, new_size as i64 - layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Heap bytes `make`'s value holds on to.
fn retained<T>(make: impl FnOnce() -> T) -> i64 {
    let before = LIVE.with(Cell::get);
    let value = make();
    let bytes = LIVE.with(Cell::get) - before;
    drop(value);
    bytes
}

#[test]
fn cached_requests_allocate_a_pinned_amount_and_entries_stay_small() {
    let (table, set) = working_set::working_set(11, 48);
    let server = Server::with_tables(
        ServeConfig {
            threads: 1,
            conns: 1,
            ..ServeConfig::default()
        },
        vec![(working_set::TABLE.to_string(), table)],
    )
    .unwrap();
    // The path a connection worker runs, its response buffer and
    // evaluation scratch reused. The first pass fills the caches; every
    // later one hits.
    let (mut out, mut scratch) = (FrameBuf::new(), Scratch::default());
    let mut pass = || {
        let before = ALLOCS.with(Cell::get);
        for (_, frame) in &set {
            server.respond(frame, &mut out, &mut scratch);
            assert!(out.payload().contains("\"ok\":true"), "{}", out.payload());
        }
        ALLOCS.with(Cell::get) - before
    };
    pass();
    let (first, again) = (pass(), pass());
    assert_eq!(
        first, again,
        "allocations per cached request depend on history"
    );
    // 576 over these 48 requests is 12.0 a request: the id and mode the
    // decoder copies, the prediction in its box, and the request's
    // telemetry. A model literal decoded and copied on every request,
    // engine tables allocated per evaluation and a `String` per label of
    // the loss report made 2 656 (55.3); a `Json` tree per frame, a `String` per rendered piece,
    // `String` span names and a table per process in the engine made 6 841
    // (142.5); lowering the model on every request as well made 13 771
    // (286.9).
    let per_request = first as f64 / set.len() as f64;
    assert!(
        first <= 576,
        "{per_request} allocations per cached request ({first} in all), pinned at 576"
    );

    // A miss: parse and lower each program, as `ModelCache` does.
    let before = ALLOCS.with(Cell::get);
    for (req, _) in &set {
        drop(plan::parse_model(&req.model_src, "m").unwrap());
    }
    let misses = ALLOCS.with(Cell::get) - before;
    // 4 643 over these 48 programs is 96.7 a miss; a token `Vec`, a `String`
    // per identifier token, a `Vec` per directive's fields and a copy of
    // each Runon condition made 11 410 (237.7).
    assert!(
        misses <= 4_643,
        "{} allocations per parse_model ({misses} in all), pinned at 4 643",
        misses as f64 / set.len() as f64
    );

    // What an entry holds: the lowered program, not the syntax tree it
    // replaces.
    let (mut model_bytes, mut program_bytes) = (0, 0);
    for (req, _) in &set {
        model_bytes += retained(|| pevpm::parse_annotations(&req.model_src).unwrap());
        program_bytes += retained(|| plan::parse_model(&req.model_src, "m").unwrap());
    }
    assert!(
        program_bytes <= model_bytes,
        "cached programs retain {program_bytes} B, their parsed models {model_bytes} B"
    );
}
