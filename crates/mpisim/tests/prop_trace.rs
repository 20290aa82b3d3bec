//! Property-based tests of the measured-trace invariants.
//!
//! For programs built from traced operations only (compute, blocking
//! send/recv), a rank's virtual clock advances exclusively inside those
//! calls, so its recorded events are contiguous: every event's end is at
//! or after its start, and the per-rank breakdown components (compute +
//! send + blocked) sum to the rank's makespan exactly (up to floating
//! rounding in the nanosecond→seconds conversion).

use pevpm_mpisim::{breakdown, trace, Dur, World, WorldConfig};
use proptest::prelude::*;
use std::cell::RefCell;

/// Run a deadlock-free scripted world (every rank walks a global edge
/// list, computing then sending on its `src` edges and receiving on its
/// `dst` edges) with tracing enabled, and return the traces plus final
/// rank clocks.
fn run_traced(
    nodes: usize,
    seed: u64,
    edges: &[(usize, usize, u64, u64)],
) -> (Vec<Vec<pevpm_mpisim::TraceEvent>>, Vec<f64>) {
    let nranks = nodes;
    let edges: Vec<(usize, usize, u64, u64)> = edges
        .iter()
        .map(|&(a, b, s, c)| (a % nranks, b % nranks, s, c))
        .filter(|&(a, b, _, _)| a != b)
        .collect();
    let clocks = RefCell::new(vec![0.0; nranks]);

    let mut cfg = WorldConfig::perseus(nodes, 1, seed);
    cfg.record_trace = true;
    let report = World::run_async(cfg, async |rank| {
        let me = rank.rank();
        for (i, &(src, dst, bytes, compute_us)) in edges.iter().enumerate() {
            if me == src {
                rank.compute(Dur::from_micros(compute_us)).await;
                rank.send(dst, i as u64, vec![0u8; bytes as usize]).await;
            } else if me == dst {
                let _ = rank.recv(src, i as u64).await;
            }
        }
        clocks.borrow_mut()[rank.rank()] = rank.now().as_secs_f64();
    })
    .unwrap();
    (report.traces.unwrap(), clocks.into_inner())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every traced event is well-formed and each rank's breakdown tiles
    /// its makespan.
    #[test]
    fn breakdown_components_sum_to_each_ranks_makespan(
        edges in proptest::collection::vec(
            // (src, dst, bytes, compute_us): sizes straddle the eager/
            // rendezvous threshold so both protocols appear.
            (0usize..6, 0usize..6, 1u64..40_000, 0u64..2_000),
            1..12,
        ),
        seed in 0u64..30,
    ) {
        let (traces, clocks) = run_traced(6, seed, &edges);
        for events in &traces {
            for e in events {
                prop_assert!(e.end >= e.start, "event ends before it starts: {e:?}");
            }
        }
        let b = breakdown(&traces);
        for (r, (bd, &makespan)) in b.iter().zip(&clocks).enumerate() {
            prop_assert!(
                (bd.total() - makespan).abs() < 1e-9,
                "rank {r}: compute {} + send {} + blocked {} = {} != makespan {makespan}",
                bd.compute, bd.send, bd.blocked, bd.total()
            );
        }
    }

    /// The Chrome export of any traced run is schema-valid and covers
    /// every recorded event.
    #[test]
    fn chrome_export_is_always_schema_valid(
        edges in proptest::collection::vec(
            (0usize..6, 0usize..6, 1u64..40_000, 0u64..2_000),
            1..10,
        ),
        seed in 0u64..30,
    ) {
        let (traces, _) = run_traced(6, seed, &edges);
        let total: usize = traces.iter().map(Vec::len).sum();
        let js = trace::chrome_trace(&traces).to_json();
        prop_assert_eq!(pevpm_obs::chrome::validate(&js), Ok(total));
    }
}
