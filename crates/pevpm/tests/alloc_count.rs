//! Allocations per `W = 1` evaluation, counted by a global allocator that
//! tallies the calling thread's heap allocations. The scoreboard's
//! per-slot storage must grow with the slab, never per message, so a
//! fixed model allocates a fixed number of times, pinned here at the
//! count its parent engine made.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use common::{noisy_timing, ring_model};
use pevpm::timing::TimingModel;
use pevpm::vm::{evaluate, EvalConfig};
use pevpm::Model;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

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

/// Heap allocations (fresh and grown) one `evaluate` makes on this thread.
fn allocations(model: &Model, cfg: &EvalConfig, timing: &TimingModel) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let prediction = evaluate(model, cfg, timing).expect("the model evaluates");
    let after = ALLOCS.with(Cell::get);
    drop(prediction);
    after - before
}

#[test]
fn w1_evaluation_allocates_no_more_than_its_parent() {
    let timing = noisy_timing(1.0);
    let jacobi = pevpm::parse_annotations(pevpm::JACOBI_FIG5).unwrap();
    let cases = [
        // (what, model, config, allocations at the parent engine)
        (
            "fig-5 Jacobi, 8 procs, 20 iterations",
            jacobi,
            EvalConfig::new(8)
                .with_param("xsize", 256.0)
                .with_param("iterations", 20.0),
            257,
        ),
        (
            "isend ring, 16 procs, 12 laps",
            ring_model("12", "2048", "1e-4"),
            EvalConfig::new(16),
            132,
        ),
    ];
    for (what, model, cfg, parent) in cases {
        let cfg = cfg.with_seed(7);
        let first = allocations(&model, &cfg, &timing);
        let again = allocations(&model, &cfg, &timing);
        assert_eq!(first, again, "{what}: allocations depend on history");
        assert!(
            first <= parent,
            "{what}: {first} allocations per evaluation, the parent made {parent}"
        );
    }
}
