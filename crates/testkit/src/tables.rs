//! Timing tables for the oracles.
//!
//! Two kinds are used:
//!
//! - [`synthetic_table`] — a deterministic table whose per-size supports
//!   are **disjoint and increasing**: every sampled time at size `2s` is
//!   strictly larger than every sampled time at size `s`. That dominance
//!   is what lets the size-scaling metamorphic oracle assert *exact*
//!   per-replication monotonicity rather than a statistical tendency.
//! - [`bench_table`] — a real MPIBench measurement of the mpisim world a
//!   program will be co-simulated on (the Figure 6 methodology), used by
//!   the statistical (KS) oracle.

use pevpm_dist::{CommDist, DistKey, DistTable, Histogram, Op};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The synthetic table's contention levels.
pub const CONTENTIONS: [u32; 3] = [1, 8, 100];

/// Per-byte cost coefficient of the synthetic table (seconds).
const BYTE_COST: f64 = 1e-6;

/// Bounds of the synthetic support for one size.
///
/// The support is purely proportional to the size so that dominance holds
/// **across contention levels**: the scaled run of a metamorphic pair may
/// legally see different contention than the base run (larger messages
/// shift what is in flight), so exact monotonicity needs
/// `hi(s, c_max) < lo(2s, c_min)`. With `hi = 1.4·lo` and the contention
/// factor capped at `1 + log2(100)·0.02 ≈ 1.13`, the worst ratio is
/// `1.4 · 1.13 ≈ 1.59 < 2`. An additive latency floor would break this
/// for small sizes, so there is none; size 0 (pure-synchronisation
/// collectives) gets a tiny constant support, which scaling leaves at
/// size 0 — identical draws, so dominance is unaffected.
fn support(size: u64, contention: u32) -> (f64, f64) {
    let c = 1.0 + (contention as f64).log2().max(0.0) * 0.02;
    if size == 0 {
        return (1.0e-6 * c, 1.2e-6 * c);
    }
    let lo = BYTE_COST * size as f64 * c;
    (lo, 1.4 * lo)
}

/// Build the deterministic synthetic table over `sizes` (plus size 0 for
/// collectives) for every op in [`Op::ALL`].
pub fn synthetic_table(sizes: &[u64], seed: u64) -> DistTable {
    let mut table = DistTable::new();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7ab1e);
    let mut all_sizes: Vec<u64> = sizes.to_vec();
    all_sizes.push(0);
    all_sizes.sort_unstable();
    all_sizes.dedup();
    for op in Op::ALL {
        for &size in &all_sizes {
            for &contention in &CONTENTIONS {
                let (lo, hi) = support(size, contention);
                let samples: Vec<f64> = (0..40).map(|_| rng.gen_range(lo..hi)).collect();
                let width = (hi - lo) / 16.0;
                table.insert(
                    DistKey {
                        op,
                        size,
                        contention,
                    },
                    CommDist::Hist(Histogram::from_samples(&samples, width)),
                );
            }
        }
    }
    table
}

/// Check the dominance property for a pair of grid sizes: every value of
/// the smaller size's support — at *any* contention level — is below
/// every value of the larger's at any contention level.
pub fn supports_are_disjoint(small: u64, large: u64) -> bool {
    let hi_small = CONTENTIONS
        .iter()
        .map(|&c| support(small, c).1)
        .fold(f64::MIN, f64::max);
    let lo_large = CONTENTIONS
        .iter()
        .map(|&c| support(large, c).0)
        .fold(f64::MAX, f64::min);
    hi_small < lo_large
}

/// Measure the machine a program will be co-simulated on.
///
/// Token-relay programs (the KS oracle's family) have at most one message
/// in flight, so the matching measurement is the *uncontended* one-way
/// transit: a single benchmark pair, barrier-resynchronised before every
/// message, recorded at contention 1. A ring-exchange table (the Figure 6
/// pipeline) records under `n` concurrent messages instead and
/// systematically overcharges every relay hop — a bias that accumulates
/// linearly along the token chain while the spread only grows as √n, so
/// long chains drift into certain KS rejection even though the engine is
/// correct. Inter-node links are homogeneous in the mpisim worlds, so the
/// one-way pair distribution transfers to any co-simulation shape.
pub fn bench_table(sizes: &[u64], reps: usize, seed: u64) -> DistTable {
    pevpm_bench::fig6::oneway_table_ops(sizes, reps, seed, &[Op::Send, Op::Isend])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_table_is_deterministic_and_complete() {
        let sizes = [64, 256, 1024];
        let a = synthetic_table(&sizes, 7);
        let b = synthetic_table(&sizes, 7);
        assert_eq!(a, b);
        for op in Op::ALL {
            for size in [0u64, 64, 256, 1024] {
                for c in CONTENTIONS {
                    assert!(
                        a.get(&DistKey {
                            op,
                            size,
                            contention: c
                        })
                        .is_some(),
                        "{op:?} {size} @{c}"
                    );
                }
            }
        }
    }

    #[test]
    fn doubling_a_grid_size_strictly_dominates() {
        for s in [64u64, 256, 1024, 4096, 16384, 32768] {
            assert!(supports_are_disjoint(s, 2 * s), "size {s}");
        }
    }

    #[test]
    fn sampled_values_respect_the_support() {
        let sizes = [64, 128];
        let t = synthetic_table(&sizes, 3);
        for &size in &sizes {
            for &c in &CONTENTIONS {
                let (lo, hi) = support(size, c);
                let d = t
                    .get(&DistKey {
                        op: Op::Send,
                        size,
                        contention: c,
                    })
                    .unwrap();
                for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
                    let v = d.quantile(q);
                    // Histogram bin edges may pad the support by one bin.
                    let pad = (hi - lo) / 8.0;
                    assert!(
                        v >= lo - pad && v <= hi + pad,
                        "size {size} @{c} q{q}: {v} outside [{lo}, {hi}]"
                    );
                }
            }
        }
    }
}
