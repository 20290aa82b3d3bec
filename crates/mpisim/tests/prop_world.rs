//! Property-based tests of the MPI world scheduler: any globally-scripted
//! communication pattern completes without deadlock, delivers intact
//! payloads, and is deterministic per seed.

use pevpm_mpisim::{Time, World, WorldConfig};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

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
    let edges: Vec<(usize, usize, u64)> = edges
        .iter()
        .map(|&(a, b, s)| (a % nranks, b % nranks, s))
        .filter(|&(a, b, _)| a != b)
        .collect();
    let received: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(vec![0; nranks]));
    let received2 = received.clone();
    let edges2 = edges.clone();

    let report = World::run(WorldConfig::perseus(nodes, ppn, seed), move |rank| {
        let me = rank.rank();
        for (i, &(src, dst, bytes)) in edges2.iter().enumerate() {
            if me == src {
                rank.send(dst, i as u64, vec![(i % 251) as u8; bytes as usize]);
            } else if me == dst {
                let (meta, payload) = rank.recv(src, i as u64);
                assert_eq!(meta.bytes, bytes);
                assert_eq!(payload.len(), bytes as usize);
                assert!(payload.iter().all(|&b| b == (i % 251) as u8));
                received2.lock().unwrap()[me] += 1;
            }
        }
    })
    .unwrap();
    let counts = received.lock().unwrap().clone();
    (report.virtual_time, counts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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
        let clocks: Arc<Mutex<Vec<(f64, f64)>>> =
            Arc::new(Mutex::new(vec![(0.0, 0.0); 4]));
        let c2 = clocks.clone();
        let stagger2 = stagger.clone();
        World::run(WorldConfig::perseus(4, 1, seed), move |rank| {
            let me = rank.rank();
            rank.compute(pevpm_mpisim::Dur::from_micros(stagger2[me]));
            let before = rank.now().as_secs_f64();
            rank.barrier();
            let after = rank.now().as_secs_f64();
            c2.lock().unwrap()[me] = (before, after);
        })
        .unwrap();
        let clocks = clocks.lock().unwrap();
        let max_entry = clocks.iter().map(|c| c.0).fold(0.0, f64::max);
        for &(_, after) in clocks.iter() {
            prop_assert!(after >= max_entry, "left barrier before the slowest entered");
        }
    }
}
