//! Statistical calibration of the adaptive replication engine.
//!
//! Three layers of evidence, from pure statistics to the full engine:
//!
//! 1. **Synthetic calibration** — the sequential stopping rule
//!    ([`pevpm::stats::AdaptivePolicy::stop_point`]) is run over
//!    Box-Muller normal streams with *known* mean and variance, across a
//!    grid of ≥ 20 seeds. The confidence interval at the stopping point
//!    must cover the true mean at close to the nominal rate.
//!    Tolerance: nominal 95% coverage, asserted ≥ 85% over the grid —
//!    optional stopping biases coverage slightly below nominal (the rule
//!    stops precisely when the interval looks narrow), and the grid
//!    itself is a finite sample; both effects are well inside 10 points.
//! 2. **Variance reduction** — common random numbers make paired
//!    what-if differences strictly less noisy than independent seeding,
//!    and antithetic pairing shrinks the variance of pair means, on real
//!    model evaluations.
//! 3. **Engine contract** — adaptive runs are deterministic for a given
//!    (seed, precision) at every thread count, agree replica-for-replica
//!    with the fixed-reps prefix, stop exactly where the reference rule
//!    says, interact correctly with `--quorum`, and reject the
//!    degenerate `--reps 1`-style configurations instead of emitting
//!    NaN.

mod common;

use common::{noisy_timing, ring_model};
use pevpm::stats::{self, AdaptivePolicy};
use pevpm::vm::{monte_carlo, EvalConfig, PevpmError};
use pevpm_dist::Summary;

// ---------------------------------------------------------------------
// Synthetic streams: splitmix64 + Box-Muller, no external dependency.
// ---------------------------------------------------------------------

/// splitmix64: a tiny, well-mixed PRNG for the synthetic streams.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1) — never exactly zero, so `ln` stays finite.
    fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// A stream of `n` i.i.d. N(mean, sd²) samples via Box-Muller.
fn normal_stream(seed: u64, n: usize, mean: f64, sd: f64) -> Vec<f64> {
    let mut rng = SplitMix(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let u1 = rng.next_f64();
        let u2 = rng.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        out.push(mean + sd * r * theta.cos());
        if out.len() < n {
            out.push(mean + sd * r * theta.sin());
        }
    }
    out
}

// ---------------------------------------------------------------------
// 1. Synthetic calibration of the stopping rule
// ---------------------------------------------------------------------

/// Coverage calibration on a ≥ 20-seed grid: stop each normal stream
/// with the sequential rule and check whether the CI at the stopping
/// point covers the true mean. Documented tolerance: ≥ 85% empirical
/// coverage at 95% nominal (see module docs for why not exactly 95%).
#[test]
fn stopping_rule_coverage_is_near_nominal_across_a_seed_grid() {
    const SEEDS: u64 = 100; // ≥ 20 required; more seeds, tighter check
    const TRUE_MEAN: f64 = 10.0;
    const TRUE_SD: f64 = 1.0;
    let policy = AdaptivePolicy::new(0.02)
        .with_min_reps(4)
        .with_max_reps(512);
    let mut covered = 0u64;
    let mut total_reps = 0usize;
    for seed in 0..SEEDS {
        let xs = normal_stream(1000 + seed, policy.max_reps, TRUE_MEAN, TRUE_SD);
        let stop = policy.stop_point(&xs);
        assert!(stop >= policy.min_reps && stop <= policy.max_reps);
        total_reps += stop;
        let s = Summary::from_slice(&xs[..stop]);
        let hw = stats::ci_half_width(
            s.count(),
            s.sample_variance().unwrap().sqrt(),
            policy.confidence,
        );
        if (s.mean().unwrap() - TRUE_MEAN).abs() <= hw {
            covered += 1;
        }
    }
    let coverage = covered as f64 / SEEDS as f64;
    assert!(
        coverage >= 0.85,
        "empirical coverage {coverage:.3} below tolerance 0.85 (nominal 0.95)"
    );
    // The rule must actually be adaptive: a 10% relative sd stream at 2%
    // precision needs far more than min_reps but far fewer than the cap.
    let mean_reps = total_reps as f64 / SEEDS as f64;
    assert!(
        mean_reps > policy.min_reps as f64 && mean_reps < policy.max_reps as f64,
        "mean stopping point {mean_reps:.1} is pinned to a bound"
    );
}

/// Easy streams (tight spread) stop at the floor; hard streams (wide
/// spread) run to the ceiling — the rep count responds to the noise.
#[test]
fn stopping_point_tracks_stream_difficulty() {
    let policy = AdaptivePolicy::new(0.05).with_min_reps(4).with_max_reps(64);
    for seed in 0..20 {
        let easy = normal_stream(seed, 64, 10.0, 0.001);
        assert_eq!(
            policy.stop_point(&easy),
            policy.min_reps,
            "seed {seed}: near-constant stream should stop at min_reps"
        );
        let hard = normal_stream(seed, 64, 10.0, 8.0);
        let stop = policy.stop_point(&hard);
        assert!(
            stop > policy.min_reps,
            "seed {seed}: wide stream stopped at the floor ({stop})"
        );
    }
}

/// The drift detector's false-positive rate on stationary normal
/// streams stays near its significance level, and its power on a real
/// mid-stream shift is essentially 1.
#[test]
fn drift_detector_calibrates_on_synthetic_streams() {
    const SEEDS: u64 = 200;
    let mut false_positives = 0u64;
    let mut hits = 0u64;
    for seed in 0..SEEDS {
        let xs = normal_stream(5000 + seed, 40, 10.0, 1.0);
        if stats::detect_drift(&xs, stats::DRIFT_ALPHA) {
            false_positives += 1;
        }
        let mut shifted = xs.clone();
        for x in shifted.iter_mut().skip(20) {
            *x += 5.0; // a 5-sigma mean shift half-way through
        }
        if stats::detect_drift(&shifted, stats::DRIFT_ALPHA) {
            hits += 1;
        }
    }
    // alpha = 1e-3, 200 trials: expect ~0.2 false positives; allow a
    // little slack but far less than the shifted-stream hit count.
    assert!(
        false_positives <= 3,
        "{false_positives}/{SEEDS} stationary streams flagged as drifting"
    );
    assert!(
        hits >= SEEDS - 2,
        "only {hits}/{SEEDS} shifted streams detected"
    );
}

// ---------------------------------------------------------------------
// Engine fixtures
// ---------------------------------------------------------------------

fn base_cfg(seed: u64) -> EvalConfig {
    EvalConfig::new(4).with_seed(seed).with_threads(2)
}

// ---------------------------------------------------------------------
// 2. Variance reduction: CRN and antithetic pairing
// ---------------------------------------------------------------------

/// Common random numbers: comparing two what-if arms (same model, one
/// timing table 20% slower) on a *shared* seed stream must make the
/// paired difference strictly less variable than independent seeding.
#[test]
fn crn_reduces_paired_difference_variance() {
    let model = ring_model("8", "1024", "0.00001");
    let fast = noisy_timing(1.0);
    let slow = noisy_timing(1.2);
    let reps = 24;
    let seed = 0xC12;

    let arm_a = monte_carlo(&model, &base_cfg(seed), &fast, reps).unwrap();
    let arm_b_crn = monte_carlo(&model, &base_cfg(seed), &slow, reps).unwrap();
    let arm_b_ind = monte_carlo(&model, &base_cfg(seed + 7919), &slow, reps).unwrap();

    let var_of_diff = |a: &pevpm::vm::McPrediction, b: &pevpm::vm::McPrediction| {
        let diffs: Vec<f64> = a
            .runs
            .iter()
            .zip(&b.runs)
            .map(|(x, y)| y.makespan - x.makespan)
            .collect();
        Summary::from_slice(&diffs).sample_variance().unwrap()
    };
    let paired = var_of_diff(&arm_a, &arm_b_crn);
    let independent = var_of_diff(&arm_a, &arm_b_ind);
    assert!(
        paired < independent,
        "CRN paired-difference variance {paired:e} not below independent {independent:e}"
    );
    // With a pure scale change and shared quantile draws the correlation
    // is near-perfect: expect an order of magnitude, not a sliver.
    assert!(
        paired < independent / 4.0,
        "CRN reduction too weak: paired {paired:e} vs independent {independent:e}"
    );
}

/// Antithetic pairing: replicas (2k, 2k+1) share a seed and the odd one
/// mirrors every quantile draw (u → 1-u). Because each sampled
/// communication time is monotone in its draw, pair means are
/// negatively-correlated averages and their variance drops below
/// independent pairs'.
#[test]
fn antithetic_pairing_reduces_pair_mean_variance() {
    let model = ring_model("8", "1024", "0.00001");
    let timing = noisy_timing(1.0);
    let reps = 32; // 16 pairs
    let seed = 0xA17;

    let plain = monte_carlo(&model, &base_cfg(seed), &timing, reps).unwrap();
    let anti = monte_carlo(&model, &base_cfg(seed).with_antithetic(), &timing, reps).unwrap();

    let pair_means = |mc: &pevpm::vm::McPrediction| -> Vec<f64> {
        mc.runs
            .chunks(2)
            .map(|p| (p[0].makespan + p[1].makespan) / 2.0)
            .collect()
    };
    let var_plain = Summary::from_slice(&pair_means(&plain))
        .sample_variance()
        .unwrap();
    let var_anti = Summary::from_slice(&pair_means(&anti))
        .sample_variance()
        .unwrap();
    assert!(
        var_anti < var_plain,
        "antithetic pair-mean variance {var_anti:e} not below plain {var_plain:e}"
    );

    // The even replica of each antithetic pair is the *unmirrored*
    // evaluation of that pair's seed — identical to the plain replica at
    // the pair index. (Pair k shares plain replica k's seed.)
    for k in 0..reps / 2 {
        assert_eq!(
            anti.runs[2 * k].makespan.to_bits(),
            plain.runs[k].makespan.to_bits(),
            "antithetic even replica {} diverged from plain replica {k}",
            2 * k
        );
    }
}

// ---------------------------------------------------------------------
// 3. Engine contract: determinism, prefix agreement, quorum, edges
// ---------------------------------------------------------------------

fn adaptive_cfg(seed: u64, precision: f64, max_reps: usize) -> EvalConfig {
    base_cfg(seed).with_adaptive(
        AdaptivePolicy::new(precision)
            .with_min_reps(4)
            .with_max_reps(max_reps),
    )
}

/// Adaptive mode is deterministic for a given (seed, precision): the
/// chosen rep count and every replication are bitwise identical across
/// re-runs and across thread counts.
#[test]
fn adaptive_is_deterministic_across_reruns_and_thread_counts() {
    let model = ring_model("6", "1024", "0.00001");
    let timing = noisy_timing(1.0);
    let reference = monte_carlo(&model, &adaptive_cfg(0xBEEF, 0.02, 48), &timing, 48).unwrap();
    let ref_report = reference.adaptive.expect("adaptive report missing");
    assert!(ref_report.reps >= 4 && ref_report.reps <= 48);

    for threads in [1, 2, 4, 8] {
        let cfg = adaptive_cfg(0xBEEF, 0.02, 48).with_threads(threads);
        let got = monte_carlo(&model, &cfg, &timing, 48).unwrap();
        let report = got.adaptive.expect("adaptive report missing");
        assert_eq!(
            report.reps, ref_report.reps,
            "{threads} threads chose a different rep count"
        );
        assert_eq!(
            got.mean.to_bits(),
            reference.mean.to_bits(),
            "{threads} threads: mean"
        );
        assert_eq!(
            report.rel_half_width.to_bits(),
            ref_report.rel_half_width.to_bits(),
            "{threads} threads: achieved half-width"
        );
        assert_eq!(got.runs.len(), reference.runs.len());
        for (i, (a, b)) in got.runs.iter().zip(&reference.runs).enumerate() {
            assert_eq!(
                a.makespan.to_bits(),
                b.makespan.to_bits(),
                "{threads} threads: replica {i}"
            );
        }
    }
}

/// The adaptive batch is exactly the fixed-reps batch truncated at the
/// reference stopping rule's index: replica i agrees bitwise for every
/// i below the stop, and the stop is where `stop_point` says on the
/// fixed stream.
#[test]
fn adaptive_agrees_with_the_fixed_prefix_and_the_reference_rule() {
    let model = ring_model("6", "1024", "0.00001");
    let timing = noisy_timing(1.0);
    let max_reps = 48;
    let policy = AdaptivePolicy::new(0.02)
        .with_min_reps(4)
        .with_max_reps(max_reps);

    let fixed = monte_carlo(&model, &base_cfg(0x5EED), &timing, max_reps).unwrap();
    let adaptive = monte_carlo(
        &model,
        &base_cfg(0x5EED).with_adaptive(policy),
        &timing,
        max_reps,
    )
    .unwrap();
    let report = adaptive.adaptive.expect("adaptive report missing");

    let stream: Vec<f64> = fixed.runs.iter().map(|p| p.makespan).collect();
    assert_eq!(
        report.reps,
        policy.stop_point(&stream),
        "engine stop differs from the reference rule"
    );
    assert_eq!(adaptive.runs.len(), report.reps);
    for (i, (a, b)) in adaptive.runs.iter().zip(&fixed.runs).enumerate() {
        assert_eq!(
            a.makespan.to_bits(),
            b.makespan.to_bits(),
            "replica {i} differs between adaptive and fixed prefixes"
        );
    }
    // The adaptive mean must sit inside its own reported CI of the
    // full fixed batch's mean (the calibration claim, with slack for
    // the fixed mean itself being an estimate).
    let slack = 3.0 * report.rel_half_width.max(policy.precision) * adaptive.mean.abs();
    assert!(
        (adaptive.mean - fixed.mean).abs() <= slack,
        "adaptive mean {} vs fixed {} outside {slack}",
        adaptive.mean,
        fixed.mean
    );
    assert!(report.converged, "easy ring model should converge");
    assert!(!report.drift, "stationary batch flagged as drifting");
    assert!(
        report.rel_half_width <= policy.precision,
        "converged but achieved {} > target {}",
        report.rel_half_width,
        policy.precision
    );
    assert_eq!(report.reps_saved(), max_reps - report.reps);
}

/// A precision no stream of `max_reps` noisy replications can reach:
/// the engine runs to the ceiling and reports non-convergence rather
/// than looping or lying.
#[test]
fn unreachable_precision_stops_at_the_ceiling_unconverged() {
    let model = ring_model("4", "1024", "0.00001");
    let timing = noisy_timing(1.0);
    let mc = monte_carlo(&model, &adaptive_cfg(3, 1e-9, 12), &timing, 12).unwrap();
    let report = mc.adaptive.unwrap();
    assert_eq!(report.reps, 12);
    assert!(!report.converged);
    assert!(report.rel_half_width > 1e-9);
    assert_eq!(report.reps_saved(), 0);
}

/// Quorum interacts with early stopping by counting the replications
/// *actually run*: a quorum sized for the ceiling must not fail a batch
/// that legitimately stopped early with every replication succeeding.
#[test]
fn quorum_counts_reps_actually_run_under_early_stopping() {
    let model = ring_model("6", "1024", "0.00001");
    let timing = noisy_timing(1.0);
    // quorum = max_reps: meaningful for a fixed batch of 48; an early
    // stop at k < 48 clamps it to k (all k succeeded → quorum met).
    let cfg = adaptive_cfg(0x5EED, 0.02, 48).with_quorum(48);
    let mc = monte_carlo(&model, &cfg, &timing, 48).unwrap();
    let report = mc.adaptive.unwrap();
    assert!(
        report.reps < 48,
        "stream unexpectedly hard; quorum untested"
    );
    assert!(mc.failures.is_empty());
    assert_eq!(mc.runs.len(), report.reps);

    // The fixed path's quorum semantics are untouched by the feature.
    let fixed = monte_carlo(&model, &base_cfg(0x5EED).with_quorum(8), &timing, 8).unwrap();
    assert!(fixed.adaptive.is_none());
    assert_eq!(fixed.runs.len(), 8);
}

/// `--reps 1` stays well-defined on the fixed path (stderr pinned to
/// 0.0, not NaN), and the adaptive path rejects a sub-2 floor as a
/// configuration error instead of dividing by zero degrees of freedom.
#[test]
fn single_rep_and_degenerate_floors_are_handled() {
    let model = ring_model("4", "1024", "0.00001");
    let timing = noisy_timing(1.0);
    let one = monte_carlo(&model, &base_cfg(9), &timing, 1).unwrap();
    assert_eq!(one.runs.len(), 1);
    assert_eq!(one.stderr.to_bits(), 0.0f64.to_bits(), "--reps 1 stderr");
    assert!(one.mean.is_finite());

    let bad_floor =
        base_cfg(9).with_adaptive(AdaptivePolicy::new(0.05).with_min_reps(1).with_max_reps(8));
    match monte_carlo(&model, &bad_floor, &timing, 8) {
        Err(PevpmError::Config(msg)) => {
            assert!(msg.contains("min-reps"), "unhelpful message: {msg}")
        }
        other => panic!("expected Config error, got {other:?}"),
    }

    let bad_precision = base_cfg(9).with_adaptive(AdaptivePolicy::new(-0.5));
    assert!(matches!(
        monte_carlo(&model, &bad_precision, &timing, 8),
        Err(PevpmError::Config(_))
    ));
}
