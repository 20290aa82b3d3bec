//! Property-based tests over the workspace's core invariants.

use grove_pevpm::dist::{io, CommDist, DistKey, DistTable, Ecdf, Histogram, Op, Summary};
use grove_pevpm::netsim::{ClusterConfig, Network, Time};
use grove_pevpm::pevpm::{parse_expr, Env};
use proptest::prelude::*;

proptest! {
    /// Histogram mass conservation and support bounds hold for arbitrary
    /// finite samples.
    #[test]
    fn histogram_invariants(
        samples in proptest::collection::vec(0.0f64..1e3, 1..200),
        bins in 1usize..64,
    ) {
        let width = 1e3 / bins as f64;
        let h = Histogram::from_samples(&samples, width);
        prop_assert_eq!(h.total() as usize, samples.len());
        let mass: f64 = h.pdf_series().map(|(_, m)| m).sum();
        prop_assert!((mass - 1.0).abs() < 1e-9);
        // Quantiles live within the exact sample range and are monotone.
        let min = h.summary().min().unwrap();
        let max = h.summary().max().unwrap();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = h.quantile(i as f64 / 20.0).unwrap();
            prop_assert!(q >= min - 1e-12 && q <= max + 1e-12, "q={q} not in [{min},{max}]");
            prop_assert!(q >= prev - 1e-12);
            prev = q;
        }
    }

    /// The inverse CDF of a uniform draw never escapes the observed
    /// support.
    #[test]
    fn histogram_sampling_respects_support(
        samples in proptest::collection::vec(1.0f64..2.0, 10..100),
        seed in 0u64..1000,
    ) {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let h = Histogram::from_samples(&samples, 0.01);
        let mut rng = SmallRng::seed_from_u64(seed);
        let min = h.summary().min().unwrap();
        let max = h.summary().max().unwrap();
        for _ in 0..100 {
            let x = h.quantile(rng.gen()).unwrap();
            prop_assert!(x >= min - 1e-12 && x <= max + 1e-12);
        }
    }

    /// Welford merging is order-insensitive (within fp tolerance).
    #[test]
    fn summary_merge_is_order_insensitive(
        a in proptest::collection::vec(-1e3f64..1e3, 1..50),
        b in proptest::collection::vec(-1e3f64..1e3, 1..50),
    ) {
        let mut ab = Summary::from_slice(&a);
        ab.merge(&Summary::from_slice(&b));
        let mut ba = Summary::from_slice(&b);
        ba.merge(&Summary::from_slice(&a));
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert!((ab.mean().unwrap() - ba.mean().unwrap()).abs() < 1e-6);
        prop_assert!((ab.variance().unwrap() - ba.variance().unwrap()).abs() < 1e-3);
    }

    /// The `.dist` text format round-trips arbitrary tables of histograms
    /// and points.
    #[test]
    fn dist_io_roundtrip(
        entries in proptest::collection::vec(
            (0usize..4, 1u64..1_000_000, 1u32..256, proptest::collection::vec(0.0f64..1.0, 1..30)),
            1..10,
        ),
    ) {
        let ops = [Op::Send, Op::Isend, Op::Barrier, Op::Alltoall];
        let mut table = DistTable::new();
        for (op_idx, size, contention, samples) in entries {
            let key = DistKey { op: ops[op_idx], size, contention };
            if samples.len() == 1 {
                table.insert(key, CommDist::Point(samples[0]));
            } else {
                table.insert(key, CommDist::Hist(Histogram::from_samples(&samples, 0.05)));
            }
        }
        let text = io::write_table(&table);
        let back = io::read_table(&text).unwrap();
        prop_assert_eq!(table, back);
    }

    /// ECDF quantile/cdf are inverse-ish. Type-7 quantiles interpolate
    /// between order statistics, so the sharp bound is
    /// `cdf(quantile(q)) >= q - 1/n` (and quantiles stay within range).
    #[test]
    fn ecdf_quantile_cdf_consistency(
        samples in proptest::collection::vec(-1e2f64..1e2, 1..100),
        q in 0.0f64..1.0,
    ) {
        let e = Ecdf::new(&samples);
        let x = e.quantile(q).unwrap();
        let n = samples.len() as f64;
        prop_assert!(e.cdf(x) + 1.0 / n + 1e-9 >= q);
        prop_assert!(x >= e.quantile(0.0).unwrap());
        prop_assert!(x <= e.quantile(1.0).unwrap());
    }

    /// The expression parser never panics on arbitrary input, and
    /// successfully-parsed expressions evaluate deterministically.
    #[test]
    fn expr_parser_total(src in "[0-9a-z+\\-*/%()=<>&|! .,]{0,40}") {
        let env = Env::default();
        if let Ok(e) = parse_expr(&src) {
            let a = e.eval(&env);
            let b = e.eval(&env);
            match (a, b) {
                (Ok(x), Ok(y)) => prop_assert!(x == y || (x.is_nan() && y.is_nan())),
                (Err(_), Err(_)) => {}
                other => prop_assert!(false, "non-deterministic eval: {other:?}"),
            }
        }
    }

    /// Every network transfer completes, is delivered no earlier than its
    /// contention-free minimum, and the engine is deterministic per seed.
    #[test]
    fn network_transfers_always_complete(
        transfers in proptest::collection::vec((0usize..8, 0usize..8, 1u64..20_000), 1..20),
        seed in 0u64..100,
    ) {
        let run = |seed: u64| {
            let mut net = Network::new(ClusterConfig::perseus(8), seed);
            let mut floor = Vec::new();
            for &(src, dst, bytes) in &transfers {
                net.start_transfer(Time::ZERO, src, dst, bytes);
                // Contention-free floor: a lone transfer on an idle net.
                let mut solo = Network::new(ClusterConfig::ideal(8), 0);
                solo.start_transfer(Time::ZERO, src, dst, bytes);
                floor.push(solo.run_to_completion()[0].delivered_at);
            }
            let mut done = net.run_to_completion();
            done.sort_by_key(|c| c.id);
            (done, floor)
        };
        let (done, floor) = run(seed);
        prop_assert_eq!(done.len(), transfers.len(), "all transfers must complete");
        for (c, f) in done.iter().zip(&floor) {
            prop_assert!(
                c.delivered_at >= *f,
                "delivery {} beats the contention-free floor {}",
                c.delivered_at,
                f
            );
        }
        let (again, _) = run(seed);
        prop_assert_eq!(done, again, "engine must be deterministic per seed");
    }
}
