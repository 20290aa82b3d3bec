//! Allocations per `W = 1` evaluation, counted by a global allocator that
//! tallies the calling thread's heap allocations. The scoreboard's
//! per-slot storage must grow with the slab, never per message, so a
//! fixed model allocates a fixed number of times, pinned here: once for
//! an `evaluate` of the model, which lowers it, and once for an
//! evaluation of the program already lowered, which is what a cached
//! daemon request runs. The per-process tables are one buffer each per
//! evaluation, so the count barely grows with the process count; kept in
//! a warm `Scratch` from one evaluation to the next, they are none, and an
//! evaluation allocates only the prediction it returns.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use common::{noisy_timing, ring_model};
use pevpm::vm::{evaluate, EvalConfig, Scratch};
use pevpm::Program;
use pevpm_obs::Registry;

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

/// Heap allocations (fresh and grown) `run` makes on this thread.
fn allocations<T>(run: impl FnOnce() -> T) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let kept = run();
    let after = ALLOCS.with(Cell::get);
    drop(kept);
    after - before
}

#[test]
fn w1_evaluation_allocates_no_more_than_its_parent() {
    let timing = noisy_timing(1.0);
    let jacobi = pevpm::parse_annotations(pevpm::JACOBI_FIG5).unwrap();
    let cases = [
        // (what, model, config, allocations pinned per evaluate and per
        // evaluation of the lowered program). A `String` per label of the
        // loss report and a `HashMap` to hold them made 133 and 50 of the
        // Jacobi's.
        (
            "fig-5 Jacobi, 8 procs, 20 iterations",
            jacobi,
            EvalConfig::new(8)
                .with_param("xsize", 256.0)
                .with_param("iterations", 20.0),
            118,
            35,
        ),
        (
            "isend ring, 16 procs, 12 laps",
            ring_model("12", "2048", "1e-4"),
            EvalConfig::new(16),
            54,
            39,
        ),
    ];
    for (what, model, cfg, pinned, program_pinned) in cases {
        let cfg = cfg.with_seed(7);
        let evaluate = || evaluate(&model, &cfg, &timing).expect("the model evaluates");
        let first = allocations(evaluate);
        assert_eq!(
            first,
            allocations(evaluate),
            "{what}: allocations depend on history"
        );
        assert!(
            first <= pinned,
            "{what}: {first} allocations per evaluate, pinned at {pinned}"
        );
        let program = Program::new(&model);
        let run = || {
            program
                .evaluate(&cfg, &timing)
                .expect("the program evaluates")
        };
        let first = allocations(run);
        assert_eq!(
            first,
            allocations(run),
            "{what}: allocations depend on history"
        );
        assert!(
            first <= program_pinned,
            "{what}: {first} allocations per program evaluation, pinned at {program_pinned}"
        );
    }
}

#[test]
fn per_process_tables_take_one_allocation_per_evaluation() {
    let timing = noisy_timing(1.0);
    let program = Program::new(&ring_model("12", "2048", "1e-4"));
    let at = |nprocs: usize| {
        let cfg = EvalConfig::new(nprocs).with_seed(7);
        allocations(|| program.evaluate(&cfg, &timing).expect("the ring evaluates"))
    };
    let (four, sixty_four) = (at(4), at(64));
    // What is left per process is its pair's message queue; an environment,
    // a control stack (grown on the first loop) and a pair-index row each
    // made it 5.3.
    let per_process = (sixty_four - four) as f64 / 60.0;
    assert!(
        per_process <= 1.5,
        "{per_process} allocations per added process ({four} at 4 procs, {sixty_four} at 64)"
    );
}

#[test]
fn warm_scratch_evaluations_allocate_only_their_prediction() {
    let timing = noisy_timing(1.0);
    let jacobi = Program::new(&pevpm::parse_annotations(pevpm::JACOBI_FIG5).unwrap());
    let ring = Program::new(&ring_model("12", "2048", "1e-4"));
    let registry = Arc::new(Registry::new());
    let jacobi_cfg = EvalConfig::new(8)
        .with_param("xsize", 256.0)
        .with_param("iterations", 20.0);
    let cases = [
        ("fig-5 Jacobi, 8 procs", &jacobi, jacobi_cfg.clone()),
        (
            "fig-5 Jacobi, 8 procs, with metrics",
            &jacobi,
            jacobi_cfg.with_metrics(Arc::clone(&registry)),
        ),
        ("isend ring, 16 procs", &ring, EvalConfig::new(16)),
        (
            "isend ring, 4 procs, with metrics",
            &ring,
            EvalConfig::new(4).with_metrics(Arc::clone(&registry)),
        ),
    ];
    // One scratch for every case, in turn: each warms it for the others.
    let mut scratch = Scratch::default();
    for (_, program, cfg) in &cases {
        program.evaluate_in(&mut scratch, cfg, &timing).unwrap();
    }
    for round in 0..2 {
        for (what, program, cfg) in &cases {
            let cfg = cfg.clone().with_seed(7 + round);
            let before = ALLOCS.with(Cell::get);
            let prediction = program.evaluate_in(&mut scratch, &cfg, &timing).unwrap();
            let made = ALLOCS.with(Cell::get) - before;
            let own = allocations(|| prediction.clone());
            assert_eq!(
                made, own,
                "{what}: {made} allocations, the prediction's own {own}"
            );
        }
    }
}
