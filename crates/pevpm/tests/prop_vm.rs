//! Property-based tests of the PEVPM virtual machine: structural
//! invariants of evaluation over randomly generated (but well-formed)
//! models.

mod common;

use common::{bound_ring_model, point_timing};
use pevpm::model::build::*;
use pevpm::model::Model;
use pevpm::timing::TimingModel;
use pevpm::vm::{evaluate, EvalConfig};
use pevpm_dist::{CommDist, DistKey, DistTable, Op};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ring models always evaluate; the makespan is bounded below by the
    /// per-proc serial work and by the communication chain, and it is
    /// monotone in the lap count.
    #[test]
    fn ring_models_evaluate_with_sane_bounds(
        laps in 1u64..20,
        size in 1u64..100_000,
        work_us in 0u64..5_000,
        nprocs in 2usize..9,
        comm_us in 1u64..2_000,
    ) {
        let work = work_us as f64 * 1e-6;
        let comm = comm_us as f64 * 1e-6;
        let m = bound_ring_model(laps, size, work);
        let p = evaluate(&m, &EvalConfig::new(nprocs), &point_timing(comm)).unwrap();
        // Lower bound: each proc does `laps` serial segments, and each lap
        // contains at least one message wait of `comm` from the previous
        // lap's chain... conservatively just the serial part plus one comm.
        let floor = laps as f64 * work;
        prop_assert!(p.makespan + 1e-12 >= floor, "makespan {} < floor {floor}", p.makespan);
        prop_assert_eq!(p.messages, laps * nprocs as u64);
        prop_assert!(p.races.is_empty());
        prop_assert!(p.finish_times.iter().all(|t| *t <= p.makespan + 1e-15));

        // Monotonicity in laps.
        let p2 = evaluate(
            &bound_ring_model(laps + 1, size, work),
            &EvalConfig::new(nprocs),
            &point_timing(comm),
        )
        .unwrap();
        prop_assert!(p2.makespan >= p.makespan);
    }

    /// Evaluation is deterministic per seed for histogram-backed timing,
    /// and different seeds give different (but bounded) results.
    #[test]
    fn evaluation_deterministic_per_seed(
        laps in 1u64..10,
        nprocs in 2usize..6,
        seed in 0u64..100,
    ) {
        let samples: Vec<f64> = (0..200).map(|i| 1e-4 + (i % 37) as f64 * 1e-6).collect();
        let mut table = DistTable::new();
        table.insert(
            DistKey { op: Op::Send, size: 1024, contention: 1 },
            CommDist::Hist(pevpm_dist::Histogram::from_samples(&samples, 1e-6)),
        );
        let timing = TimingModel::distributions(table);
        let m = bound_ring_model(laps, 1024, 0.0);
        let run = |s: u64| {
            evaluate(&m, &EvalConfig::new(nprocs).with_seed(s), &timing)
                .unwrap()
                .makespan
        };
        prop_assert_eq!(run(seed), run(seed));
        // Sampled makespans stay within the distribution's support bounds
        // per hop: laps chained hops of at most max-sample each... loose
        // upper bound: laps * nprocs hops of the max sample.
        let max_hop = 1e-4 + 36.0 * 1e-6;
        let bound = (laps * nprocs as u64) as f64 * (max_hop + 1.0e-4) + 1.0;
        prop_assert!(run(seed) < bound);
    }

    /// Runon partitions: a model whose branches split procs into two
    /// groups with pure serial work gives each group exactly its own
    /// work — branches never leak across procs.
    #[test]
    fn runon_partitions_are_exact(
        split in 1usize..7,
        nprocs in 2usize..8,
        wa_us in 1u64..1_000,
        wb_us in 1u64..1_000,
    ) {
        let split = split.min(nprocs - 1);
        let wa = wa_us as f64 * 1e-6;
        let wb = wb_us as f64 * 1e-6;
        let m = Model::new()
            .with_param("split", split as f64)
            .with_param("wa", wa)
            .with_param("wb", wb)
            .with_stmt(runon2(
                "procnum < split",
                vec![serial("wa")],
                "procnum >= split",
                vec![serial("wb")],
            ));
        let p = evaluate(&m, &EvalConfig::new(nprocs), &point_timing(1e-6)).unwrap();
        for (i, &t) in p.finish_times.iter().enumerate() {
            let expect = if i < split { wa } else { wb };
            prop_assert!((t - expect).abs() < 1e-12, "proc {i}: {t} vs {expect}");
        }
    }
}
