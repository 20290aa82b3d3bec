//! Allocations of a ground-truth Jacobi execution, counted by a global
//! allocator that tallies the calling thread's heap allocations (a world
//! runs every rank on the thread that calls it). Ranks send their halos
//! from persistent buffers and the engine's stores are bounded by what is
//! in flight, so once the first iterations have sized everything an
//! iteration allocates nothing: the canonical 64x2 world allocates as
//! often at 200 iterations as at 100. One fresh payload per message made
//! that 27 976 against 53 376 (debug build).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pevpm_apps::jacobi::{run_measured, JacobiConfig};
use pevpm_mpisim::WorldConfig;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every request goes to `System` unchanged; the counter is a
// const-initialised thread-local `Cell` with no destructor, so touching it
// neither allocates nor runs after the thread's TLS is gone.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Heap allocations (fresh and grown) of one seed-11 64x2 execution.
fn allocations(iterations: usize) -> u64 {
    let cfg = JacobiConfig {
        iterations,
        ..JacobiConfig::default()
    };
    let before = ALLOCS.with(Cell::get);
    let run = run_measured(WorldConfig::perseus(64, 2, 11), &cfg).expect("ground truth runs");
    let after = ALLOCS.with(Cell::get);
    assert!(run.report.messages > (iterations * 2 * 127) as u64);
    after - before
}

#[test]
fn a_jacobi_iteration_allocates_nothing_once_warm() {
    let short = allocations(100);
    let long = allocations(200);
    assert_eq!(
        short, long,
        "100 iterations made {short} allocations, 200 made {long}"
    );
}
