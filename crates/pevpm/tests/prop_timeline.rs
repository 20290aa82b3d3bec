//! Property-based tests of the predicted-timeline invariants.
//!
//! The VM's per-process clock only advances through serial compute, the
//! local cost of an eager send, and blocked waits — exactly the three span
//! kinds the timeline records. So for any model, the recorded spans of a
//! process must be well-formed (`end >= start`) and tile its clock: span
//! durations sum to the process's finish time.

mod common;

use common::{bound_ring_model, point_timing};
use pevpm::vm::{evaluate, EvalConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Spans are well-formed and tile each process's clock exactly.
    #[test]
    fn timeline_spans_tile_every_process_clock(
        laps in 1u64..15,
        size in 1u64..100_000,
        work_us in 0u64..5_000,
        nprocs in 2usize..9,
        comm_us in 1u64..2_000,
        seed in 0u64..50,
    ) {
        let work = work_us as f64 * 1e-6;
        let m = bound_ring_model(laps, size, work);
        let cfg = EvalConfig::new(nprocs).with_seed(seed).with_timeline();
        let p = evaluate(&m, &cfg, &point_timing(comm_us as f64 * 1e-6)).unwrap();
        prop_assert_eq!(p.timeline.len(), nprocs);
        for (proc_, spans) in p.timeline.iter().enumerate() {
            let mut covered = 0.0;
            let mut cursor = 0.0f64;
            for s in spans {
                prop_assert!(s.end >= s.start, "proc {proc_}: span ends before start");
                prop_assert!(
                    s.start >= cursor - 1e-12,
                    "proc {proc_}: spans overlap or run backwards"
                );
                cursor = s.end;
                covered += s.end - s.start;
            }
            prop_assert!(
                (covered - p.finish_times[proc_]).abs() < 1e-9,
                "proc {proc_}: spans cover {covered}, finish time {}",
                p.finish_times[proc_]
            );
        }
    }

    /// The Chrome export of any recorded timeline is schema-valid and has
    /// one complete event per recorded span.
    #[test]
    fn chrome_export_is_always_schema_valid(
        laps in 1u64..10,
        nprocs in 2usize..7,
        work_us in 1u64..2_000,
        seed in 0u64..50,
    ) {
        let m = bound_ring_model(laps, 1024, work_us as f64 * 1e-6);
        let cfg = EvalConfig::new(nprocs).with_seed(seed).with_timeline();
        let p = evaluate(&m, &cfg, &point_timing(1e-5)).unwrap();
        let total: usize = p.timeline.iter().map(Vec::len).sum();
        let js = pevpm::trace_export::chrome_trace(&p).to_json();
        prop_assert_eq!(pevpm_obs::chrome::validate(&js), Ok(total));
    }

    /// Recording the timeline is observation only: it never changes the
    /// prediction itself.
    #[test]
    fn timeline_recording_does_not_perturb_results(
        laps in 1u64..10,
        nprocs in 2usize..7,
        seed in 0u64..50,
    ) {
        let m = bound_ring_model(laps, 2048, 1e-5);
        let timing = point_timing(2e-5);
        let plain = evaluate(&m, &EvalConfig::new(nprocs).with_seed(seed), &timing).unwrap();
        let traced = evaluate(
            &m,
            &EvalConfig::new(nprocs).with_seed(seed).with_timeline(),
            &timing,
        )
        .unwrap();
        prop_assert_eq!(plain.makespan, traced.makespan);
        prop_assert_eq!(plain.steps, traced.steps);
        prop_assert_eq!(&plain.finish_times, &traced.finish_times);
        prop_assert!(plain.timeline.is_empty(), "timeline off by default");
    }
}
