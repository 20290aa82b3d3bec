//! Property-based tests of the MPI world scheduler: any globally-scripted
//! communication pattern completes without deadlock, delivers intact
//! payloads, and is deterministic per seed — and comes out the same from
//! the blocking façade as from the executor.

use pevpm_mpisim::{Time, World, WorldConfig};
use proptest::prelude::*;
use std::cell::RefCell;

/// The generated edges folded onto `nranks` ranks, self-edges dropped.
fn on_ranks(edges: &[(usize, usize, u64)], nranks: usize) -> Vec<(usize, usize, u64)> {
    let fold = |&(a, b, s): &(usize, usize, u64)| (a % nranks, b % nranks, s);
    edges.iter().map(fold).filter(|&(a, b, _)| a != b).collect()
}

/// A random communication script: a global sequence of (src, dst, bytes)
/// edges. Every rank walks the script in order, sending on its `src`
/// edges and receiving on its `dst` edges — a pattern that is deadlock
/// free by construction, whatever the protocol (eager or rendezvous)
/// each message uses.
fn run_script(
    nodes: usize,
    ppn: usize,
    seed: u64,
    edges: &[(usize, usize, u64)],
) -> (Time, Vec<u64>) {
    let nranks = nodes * ppn;
    let edges = on_ranks(edges, nranks);
    let received = RefCell::new(vec![0u64; nranks]);

    let report = World::run_async(WorldConfig::perseus(nodes, ppn, seed), async |rank| {
        let me = rank.rank();
        for (i, &(src, dst, bytes)) in edges.iter().enumerate() {
            if me == src {
                rank.send(dst, i as u64, vec![(i % 251) as u8; bytes as usize])
                    .await;
            } else if me == dst {
                let (meta, payload) = rank.recv(src, i as u64).await;
                assert_eq!(meta.bytes, bytes);
                assert_eq!(payload.len(), bytes as usize);
                assert!(payload.iter().all(|&b| b == (i % 251) as u8));
                received.borrow_mut()[me] += 1;
            }
        }
    })
    .unwrap();
    (report.virtual_time, received.into_inner())
}

/// The script as a rank program using every kind of call the façade
/// wraps, written once for both handles: `$aw` is `.await` on a `Proc` and
/// nothing on a `Rank`.
macro_rules! mixed_walk {
    ($rank:ident, $edges:ident; $($aw:tt)*) => {{
        let me = $rank.rank();
        for (i, &(src, dst, bytes)) in $edges.iter().enumerate() {
            let tag = i as u64;
            if me == src && i % 2 == 0 {
                $rank.send_size(dst, tag, bytes)$($aw)*;
            } else if me == src {
                let req = $rank.isend(dst, tag, vec![i as u8; bytes as usize]);
                $rank.compute_secs(1e-5)$($aw)*;
                $rank.wait(req)$($aw)*;
            } else if me == dst && i % 3 == 0 {
                let req = $rank.irecv(src, tag);
                $rank.wait(req)$($aw)*;
            } else if me == dst {
                $rank.recv(src, tag)$($aw)*;
            }
        }
        $rank.barrier()$($aw)*;
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The guard on the fork while it exists (in the façade's deletion set,
    /// `src/threads.rs`): one program, both drivers, equal reports.
    #[test]
    fn facade_and_executor_agree(
        edges in proptest::collection::vec((0usize..8, 0usize..8, 1u64..40_000), 1..15),
        ppn in 1usize..3,
        seed in 0u64..50,
    ) {
        let edges = &on_ranks(&edges, 4 * ppn);
        let mut cfg = WorldConfig::perseus(4, ppn, seed);
        cfg.record_trace = true;
        let facade = World::run(cfg.clone(), |rank| mixed_walk!(rank, edges;)).unwrap();
        let executor = World::run_async(cfg, async |rank| mixed_walk!(rank, edges; .await)).unwrap();
        prop_assert_eq!(facade, executor);
    }

    /// Random scripts complete, deliver intact data, and the virtual time
    /// is deterministic per seed.
    #[test]
    fn scripted_worlds_complete_and_are_deterministic(
        edges in proptest::collection::vec((0usize..8, 0usize..8, 1u64..40_000), 1..15),
        ppn in 1usize..3,
        seed in 0u64..50,
    ) {
        let nodes = 4;
        let (t1, counts1) = run_script(nodes, ppn, seed, &edges);
        let (t2, counts2) = run_script(nodes, ppn, seed, &edges);
        prop_assert_eq!(t1, t2, "virtual time must be deterministic");
        prop_assert_eq!(&counts1, &counts2);
        let expected: u64 = edges
            .iter()
            .map(|&(a, b, _)| ((a % (nodes * ppn)) != (b % (nodes * ppn))) as u64)
            .sum();
        prop_assert_eq!(counts1.iter().sum::<u64>(), expected);
        if expected > 0 {
            prop_assert!(t1 > Time::ZERO);
        }
    }

    /// Collectives compose with arbitrary preceding point-to-point
    /// traffic: a barrier after a random script leaves every rank's clock
    /// at least at the pre-barrier maximum.
    #[test]
    fn barrier_after_traffic_synchronises(
        stagger in proptest::collection::vec(0u64..5_000, 4),
        seed in 0u64..20,
    ) {
        let clocks = RefCell::new(vec![(0.0, 0.0); 4]);
        World::run_async(WorldConfig::perseus(4, 1, seed), async |rank| {
            let me = rank.rank();
            rank.compute(pevpm_mpisim::Dur::from_micros(stagger[me])).await;
            let before = rank.now().as_secs_f64();
            rank.barrier().await;
            let after = rank.now().as_secs_f64();
            clocks.borrow_mut()[me] = (before, after);
        })
        .unwrap();
        let clocks = clocks.into_inner();
        let max_entry = clocks.iter().map(|c| c.0).fold(0.0, f64::max);
        for &(_, after) in clocks.iter() {
            prop_assert!(after >= max_entry, "left barrier before the slowest entered");
        }
    }
}
