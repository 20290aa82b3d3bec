//! Property tests for the compiled sampling layer: on randomly generated
//! distribution tables, [`CompiledTable`] must be observationally identical
//! to the interpreted [`DistTable`] — draw-for-draw and bitwise for
//! histogram/point tables, and for fitted tables within the documented
//! render error ([`RENDER_REL_ERROR`]) of the fit's bisected quantile.

use pevpm_dist::compiled::GUIDE_CELLS;
use pevpm_dist::fit::RENDER_REL_ERROR;
use pevpm_dist::{
    CellParts, CommDist, CompiledDist, CompiledTable, DistKey, DistTable, FitKind, Histogram, Op,
    ParametricFit, PointKind,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Fixed grid axes; properties pick random prefixes so table shapes vary
/// from a single cell to a 4x4 grid.
const SIZES: &[u64] = &[16, 256, 4096, 65536];
const CONTS: &[u32] = &[1, 2, 8, 32];

/// Build a random histogram/point table on `nsizes x nconts` grid cells,
/// deterministically from `seed`.
fn random_table(seed: u64, nsizes: usize, nconts: usize) -> DistTable {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = DistTable::new();
    for &size in &SIZES[..nsizes] {
        for &c in &CONTS[..nconts] {
            let dist = if rng.gen_bool(0.25) {
                CommDist::Point(rng.gen_range(1e-6..1e-2))
            } else {
                let base = rng.gen_range(1e-5..1e-3);
                let spread = rng.gen_range(1e-6..1e-3);
                let n = rng.gen_range(1usize..300);
                let samples: Vec<f64> = (0..n).map(|_| base + rng.gen::<f64>() * spread).collect();
                let bin_width = spread / rng.gen_range(2.0..50.0);
                CommDist::Hist(Histogram::from_samples(&samples, bin_width))
            };
            t.insert(
                DistKey {
                    op: Op::Isend,
                    size,
                    contention: c,
                },
                dist,
            );
        }
    }
    t
}

/// Build a single-entry fitted table with random parameters.
fn random_fit(seed: u64, kindsel: usize) -> ParametricFit {
    let mut rng = SmallRng::seed_from_u64(seed);
    let shift = rng.gen_range(1e-6..1e-3);
    match kindsel % 3 {
        0 => ParametricFit {
            kind: FitKind::ShiftedExponential,
            shift,
            p1: rng.gen_range(1e2..1e6),
            p2: 0.0,
        },
        1 => ParametricFit {
            kind: FitKind::ShiftedLogNormal,
            shift,
            p1: rng.gen_range(-12.0..-4.0),
            p2: rng.gen_range(0.05..1.5),
        },
        _ => ParametricFit {
            kind: FitKind::ShiftedGamma,
            shift,
            p1: rng.gen_range(0.5..6.0),
            p2: rng.gen_range(1e-6..1e-3),
        },
    }
}

/// A random histogram shaped to stress the inverse CDF: `clusters` groups
/// of samples separated by gaps many bins wide (runs of empty bins), each
/// group either spread over a few bins or — `single` — a single repeated
/// value (all of its mass in one bin).
fn gappy_histogram(seed: u64, clusters: usize, single: bool) -> Histogram {
    let mut rng = SmallRng::seed_from_u64(seed);
    let bin_width = rng.gen_range(1e-6..1e-4);
    let mut samples = Vec::new();
    let mut at = rng.gen_range(1e-5..1e-3);
    for _ in 0..clusters {
        let n = rng.gen_range(1usize..60);
        let spread = if single {
            0.0
        } else {
            bin_width * rng.gen_range(0.5..6.0)
        };
        samples.extend((0..n).map(|_| at + rng.gen::<f64>() * spread));
        at += spread + bin_width * rng.gen_range(3.0..40.0);
    }
    Histogram::from_samples(&samples, bin_width)
}

fn ulp_neighbours(q: f64) -> [f64; 3] {
    let bits = q.to_bits();
    [
        f64::from_bits(bits.saturating_sub(1)),
        q,
        f64::from_bits(bits + 1),
    ]
}

/// Two samples `gap` bins apart: all the mass in two bins, and between them
/// a run of empty bins far longer than the scan's two unrolled steps.
fn two_spikes(gap: usize) -> Histogram {
    Histogram::from_samples(&[1e-4, 1e-4 + gap as f64 * 1e-6], 1e-6)
}

/// The probabilities the inverse CDF is most likely to get wrong on `h`:
/// the ends, NaN, every guide cut `k/K` and every bin-boundary crossing
/// `cum_i/total` with their ULP neighbours (one of which usually puts the
/// target exactly on the cumulative count), and `q` itself.
fn edge_probabilities(h: &Histogram, q: f64) -> Vec<f64> {
    let mut qs = vec![q, 0.0, -0.0, 1.0, f64::NAN, f64::MIN_POSITIVE];
    qs.push(1.0 - f64::EPSILON / 2.0);
    for k in 0..=GUIDE_CELLS {
        qs.extend(ulp_neighbours(k as f64 / GUIDE_CELLS as f64));
    }
    let mut cum = 0u64;
    for &count in h.counts() {
        cum += count;
        qs.extend(ulp_neighbours(cum as f64 / h.total() as f64));
    }
    // A neighbour of 0 or 1 that left the domain.
    qs.retain(|q| q.is_nan() || (0.0..=1.0).contains(q));
    qs
}

/// Every lane of `quantiles::<1>` and of `quantiles::<8>` over `qs`,
/// shuffled so each batch mixes ends, NaN and interior lanes, carries the
/// bits of the interpreted [`Histogram::quantile`].
fn lanes_match_histogram(h: &Histogram, qs: &[f64], seed: u64) {
    let key = DistKey {
        op: Op::Send,
        size: 1,
        contention: 1,
    };
    let c = CompiledDist::compile(key, &CommDist::Hist(h.clone())).unwrap();
    let mut qs = qs.to_vec();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..qs.len()).rev() {
        qs.swap(i, rng.gen_range(0..=i));
    }
    let want = |q: f64| h.quantile(q).unwrap().to_bits();
    for chunk in qs.chunks(8) {
        let mut lanes = [0.5; 8];
        lanes[..chunk.len()].copy_from_slice(chunk);
        for (l, (&q, got)) in lanes.iter().zip(c.quantiles(&lanes)).enumerate() {
            let info = format!("q = {q:e} ({} bins, total {})", h.counts().len(), h.total());
            prop_assert_eq!(got.to_bits(), want(q), "lane {} of 8, {}", l, info);
            prop_assert_eq!(
                c.quantiles(&[q])[0].to_bits(),
                want(q),
                "one lane, {}",
                info
            );
        }
    }
    prop_assert_eq!(c.min().to_bits(), want(0.0));
}

/// The share of `h`'s guide cells that lie inside one bin once compiled.
fn single_bin_share(h: &Histogram) -> f64 {
    let key = DistKey {
        op: Op::Send,
        size: 1,
        contention: 1,
    };
    match CompiledDist::compile(key, &CommDist::Hist(h.clone())) {
        Ok(CompiledDist::Hist(c)) => c.single_bin_share(),
        other => panic!("a histogram compiles to a histogram: {other:?}"),
    }
}

/// The one-probe inversion (a guide cell inside one bin answers without a
/// scan) carries the interpreted walk's bits at every guide boundary `j/K`
/// and its ULP neighbours, on histograms chosen for the share of such
/// cells: all of them, none of them, runs of empty bins, one bin, and all
/// the mass in the last of several bins.
#[test]
fn one_probe_inversion_matches_histogram_quantile_at_every_guide_boundary() {
    let last_bin_only = {
        let mut h = Histogram::new(0.0, 1e-6);
        for _ in 0..5 {
            h.add(3.5e-6);
        }
        h
    };
    let cases = [
        // Every sample in one bin: every cell lies inside it.
        (
            "all single-bin",
            Histogram::from_samples(&[2e-4; 40], 1e-6),
            Some(1.0),
        ),
        // Four bins per cell, each holding one sample: every cell
        // straddles.
        (
            "none single-bin",
            Histogram::from_samples(
                &(0..4 * GUIDE_CELLS)
                    .map(|i| (i as f64 + 0.5) * 1e-6)
                    .collect::<Vec<_>>(),
                1e-6,
            ),
            Some(0.0),
        ),
        ("zero-count runs", two_spikes(300), None),
        ("zero-count clusters", gappy_histogram(7, 4, false), None),
        (
            "single bin",
            Histogram::from_samples(&[5e-5], 1e-6),
            Some(1.0),
        ),
        ("last bin", last_bin_only, None),
    ];
    for (name, h, share) in cases {
        if name == "last bin" {
            assert_eq!(h.counts(), [0, 0, 0, 5], "{name}");
        }
        if let Some(share) = share {
            assert_eq!(single_bin_share(&h), share, "{name}");
        }
        let mut qs: Vec<f64> = (0..=GUIDE_CELLS)
            .flat_map(|j| ulp_neighbours(j as f64 / GUIDE_CELLS as f64))
            .filter(|q| (0.0..=1.0).contains(q))
            .collect();
        qs.push(f64::NAN);
        lanes_match_histogram(&h, &qs, 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The guide-table inverse CDF lands on the interpreted walk's bin —
    /// and so on its bits — in every lane, at one lane and at eight: at
    /// the ends and NaN, at every guide cut `k/K` and at every
    /// bin-boundary crossing `cum_i/total`, each with its two ULP
    /// neighbours, on histograms with runs of empty bins (some far longer
    /// than the scan's unrolled steps) and single-bin mass.
    #[test]
    fn guide_table_inverse_cdf_matches_histogram_quantile_bitwise(
        seed in 0u64..1_000_000,
        clusters in 1usize..5,
        single in 0usize..2,
        gap in 3usize..400,
        q in 0.0f64..1.0,
    ) {
        for h in [gappy_histogram(seed, clusters, single == 1), two_spikes(gap)] {
            lanes_match_histogram(&h, &edge_probabilities(&h, q), seed);
        }
    }

    /// Resolve-then-quantile is the one-shot query split in two: on grid,
    /// off grid and out of range, `resolve(..).quantile(u)` and `.min()`
    /// carry the bits of the interpreted `quantile_at(.., u)` and `min_at`
    /// (and `.min()` those of `quantile(0)`), a NaN coordinate resolves to
    /// nothing, and a table holding only one of Send/Isend answers the
    /// other on its `p2p_sibling` — the Send↔Isend fallback — and only
    /// there.
    #[test]
    fn resolved_cell_matches_one_shot_queries_bitwise(
        seed in 0u64..1_000_000,
        nsizes in 1usize..5,
        nconts in 1usize..5,
        size in 1.0f64..200_000.0,
        cont in 0.0f64..64.0,
        u in 0.0f64..1.0,
    ) {
        let t = random_table(seed, nsizes, nconts);
        let c = CompiledTable::compile(&t).unwrap();
        for &s in &[size, 16.0, 65536.0, 1e9] {
            for &co in &[cont, 1.0, 32.0, 500.0] {
                let cell = c.resolve(Op::Isend, s, co).expect("the grid covers every query");
                for &q in &[u, 0.0, 1.0] {
                    prop_assert_eq!(
                        t.quantile_at(Op::Isend, s, co, q).map(f64::to_bits),
                        Some(cell.quantile(q).to_bits()),
                        "quantile at size={} cont={} q={}", s, co, q
                    );
                }
                prop_assert_eq!(
                    t.min_at(Op::Isend, s, co).map(f64::to_bits),
                    Some(cell.min().to_bits())
                );
                prop_assert_eq!(cell.min().to_bits(), cell.quantile(0.0).to_bits());
                // Only Isend was benchmarked: Send has nothing of its own
                // and falls back to it; Recv falls back to Send and finds
                // nothing either.
                prop_assert!(c.resolve(Op::Send, s, co).is_none());
                let sibling = c
                    .resolve(Op::Send.p2p_sibling(), s, co)
                    .expect("Isend stands in for Send");
                prop_assert_eq!(sibling.quantile(u).to_bits(), cell.quantile(u).to_bits());
                prop_assert_eq!(sibling.min().to_bits(), cell.min().to_bits());
                prop_assert_eq!(Op::Isend.p2p_sibling(), Op::Send);
                prop_assert!(c.resolve(Op::Recv.p2p_sibling(), s, co).is_none());
            }
        }
        prop_assert!(c.resolve(Op::Isend, f64::NAN, cont).is_none());
        prop_assert!(c.resolve(Op::Isend, size, f64::NAN).is_none());
        prop_assert!(c.resolve(Op::Isend, f64::NAN, f64::NAN).is_none());
        prop_assert!(c.resolve(Op::Barrier, size, cont).is_none());
    }

    /// The batched inverse CDF is the scalar one, lane for lane: over
    /// `Hist`, `Point` and rendered `Fit` cells, on grid, off grid and out
    /// of range — blends of one to four cells, clamped axes naming a cell
    /// twice — at one lane and at eight, `quantiles` carries the bits of
    /// `quantile(u[l])`, and of the interpreted `quantile_at` wherever the
    /// table has no fit. One
    /// `CellParts` is carried through every query of the same draws, so
    /// each answer but the first starts from another cell's parts — some
    /// to reuse, some to discard, and on the second grid all of them
    /// stale although the cell indices agree.
    #[test]
    fn batched_quantiles_match_scalar_bitwise(
        seed in 0u64..1_000_000,
        nsizes in 1usize..5,
        nconts in 1usize..5,
        size in 1.0f64..200_000.0,
        cont in 0.0f64..64.0,
        fits in 0usize..2,
    ) {
        let fits = fits == 1;
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xba7c);
        let mut t = random_table(seed, nsizes, nconts);
        for (key, dist) in random_table(seed + 1, nsizes, nconts).iter() {
            t.insert(DistKey { op: Op::Send, ..key }, dist.clone());
        }
        if fits {
            let keys: Vec<DistKey> = t.iter().map(|(key, _)| key).collect();
            for key in keys {
                if rng.gen_bool(0.4) {
                    t.insert(key, CommDist::Fit(random_fit(rng.gen(), rng.gen_range(0..3))));
                }
            }
        }
        let c = CompiledTable::compile(&t).unwrap();
        let mut u: [f64; 8] = std::array::from_fn(|_| rng.gen());
        (u[1], u[4], u[6]) = (0.0, 1.0, 0.999);
        let mut carried = CellParts::default();
        for &s in &[size, 16.0, 256.0, 65536.0, 1e9] {
            for &co in &[cont, 1.0, 2.0, 20.0, 500.0] {
                for op in [Op::Isend, Op::Send] {
                    let cell = c.resolve(op, s, co).expect("the grid covers every query");
                    let cold = cell.quantiles(&u, &mut CellParts::default());
                    let warm = cell.quantiles(&u, &mut carried);
                    let settled = cell.quantiles(&u, &mut carried);
                    for l in 0..8 {
                        let scalar = cell.quantile(u[l]).to_bits();
                        let one = cell.quantiles(&[u[l]], &mut CellParts::default())[0];
                        prop_assert_eq!(
                            [cold[l], warm[l], settled[l], one].map(f64::to_bits),
                            [scalar; 4],
                            "{:?} size={} cont={} lane {} u={}", op, s, co, l, u[l]
                        );
                        if !fits {
                            prop_assert_eq!(t.quantile_at(op, s, co, u[l]).map(f64::to_bits), Some(scalar));
                        }
                    }
                }
            }
        }
    }

    /// Histogram/point tables: compiled quantiles are bitwise identical to
    /// the interpreted table at on-grid, off-grid, and out-of-range query
    /// points, and those of the table collapsed to its means or minima are
    /// the interpreted `mean_at`/`min_at` at every probability — the
    /// average and minimum baselines sample exactly those.
    #[test]
    fn compiled_quantiles_match_interpreted_bitwise(
        seed in 0u64..1_000_000,
        nsizes in 1usize..5,
        nconts in 1usize..5,
        size in 1.0f64..200_000.0,
        cont in 0.0f64..64.0,
        q in 0.0f64..1.0,
    ) {
        let t = random_table(seed, nsizes, nconts);
        let c = CompiledTable::compile(&t).unwrap();
        let avg = CompiledTable::compile(&t.collapsed(PointKind::Average)).unwrap();
        let min = CompiledTable::compile(&t.collapsed(PointKind::Minimum)).unwrap();
        // The generated point plus grid corners and far extrapolations.
        let sizes = [size, 16.0, 65536.0, 1e9];
        let conts = [cont, 1.0, 32.0, 500.0];
        let qs = [q, 0.0, 1.0];
        for &s in &sizes {
            for &co in &conts {
                for &qq in &qs {
                    prop_assert_eq!(
                        t.quantile_at(Op::Isend, s, co, qq).map(f64::to_bits),
                        c.quantile_at(Op::Isend, s, co, qq).map(f64::to_bits),
                        "quantile mismatch at size={} cont={} q={}", s, co, qq
                    );
                    prop_assert_eq!(
                        t.mean_at(Op::Isend, s, co).map(f64::to_bits),
                        avg.quantile_at(Op::Isend, s, co, qq).map(f64::to_bits)
                    );
                    prop_assert_eq!(
                        t.min_at(Op::Isend, s, co).map(f64::to_bits),
                        min.quantile_at(Op::Isend, s, co, qq).map(f64::to_bits)
                    );
                }
            }
        }
    }

    /// Histogram/point tables: `sample_at` consumes exactly one uniform per
    /// call and inverts it identically, so two identically seeded RNG
    /// streams stay in lockstep across interleaved interpreted/compiled
    /// sampling.
    #[test]
    fn compiled_sampling_is_draw_for_draw_identical(
        seed in 0u64..1_000_000,
        nsizes in 1usize..5,
        nconts in 1usize..5,
        rng_seed in 0u64..1_000_000,
    ) {
        let t = random_table(seed, nsizes, nconts);
        let c = CompiledTable::compile(&t).unwrap();
        let mut r1 = SmallRng::seed_from_u64(rng_seed);
        let mut r2 = SmallRng::seed_from_u64(rng_seed);
        for i in 0..64 {
            let size = 1.0 + (i * 977 % 100_000) as f64;
            let cont = (i % 40) as f64;
            let a = t.sample_at(Op::Isend, size, cont, &mut r1).unwrap();
            let b = c.sample_at(Op::Isend, size, cont, &mut r2).unwrap();
            prop_assert_eq!(a.to_bits(), b.to_bits(), "draw {} diverged: {} vs {}", i, a, b);
        }
    }

    /// Fitted tables, each family: the compiled cell is the fit's rendered
    /// CDF, whose quantiles up to 0.999, and a 1024th of them near the
    /// shift, stay within the documented render error of the fit's
    /// bisected quantile, relative to it ([`RENDER_REL_ERROR`]). The
    /// interpreted table still answers the bisection, and the cell's
    /// minimum is the fit's shift, bit for bit.
    #[test]
    fn rendered_fit_respects_documented_error_bound(
        seed in 0u64..1_000_000,
        kindsel in 0usize..3,
        q in 0.0f64..0.999,
    ) {
        let fit = random_fit(seed, kindsel);
        let mut t = DistTable::new();
        t.insert(
            DistKey { op: Op::Send, size: 1024, contention: 1 },
            CommDist::Fit(fit.clone()),
        );
        let c = CompiledTable::compile(&t).unwrap();
        for q in [q, q / 1024.0] {
            let got = c.quantile_at(Op::Send, 1024.0, 1.0, q).unwrap();
            let want = fit.quantile(q);
            let rel = (got - want).abs() / want;
            prop_assert!(
                rel <= RENDER_REL_ERROR,
                "{:?} q={}: render {} vs bisection {} (rel {:e})", fit, q, got, want, rel
            );
            prop_assert_eq!(
                want.to_bits(),
                t.quantile_at(Op::Send, 1024.0, 1.0, q).unwrap().to_bits()
            );
        }
        let cell = c.resolve(Op::Send, 1024.0, 1.0).unwrap();
        prop_assert_eq!(cell.min().to_bits(), fit.shift.to_bits());
    }
}
