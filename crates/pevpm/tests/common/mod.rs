//! Fixtures shared by the integration tests in this directory. Every test
//! binary compiles its own copy and uses only some of it.
#![allow(dead_code)]

use pevpm::model::build::*;
use pevpm::model::{Model, Stmt};
use pevpm::timing::TimingModel;
use pevpm::vm::Prediction;
use pevpm_dist::{CommDist, DistKey, DistTable, Histogram, Op};

fn p2p_timing(dist: CommDist) -> TimingModel {
    let mut table = DistTable::new();
    for op in [Op::Send, Op::Isend] {
        for &size in &[1u64, 1 << 24] {
            table.insert(
                DistKey {
                    op,
                    size,
                    contention: 1,
                },
                dist.clone(),
            );
        }
    }
    TimingModel::distributions(table)
}

/// Every point-to-point message takes exactly `t` seconds.
pub fn point_timing(t: f64) -> TimingModel {
    p2p_timing(CommDist::Point(t))
}

/// Histogram timing with real spread, so RNG draws matter and any
/// scheduling-dependent draw order would change bits. `scale` stretches
/// every sample (the "what-if" arm of the CRN tests); `1.0` is exact.
pub fn noisy_timing(scale: f64) -> TimingModel {
    let samples: Vec<f64> = (0..400)
        .map(|i| scale * (1e-4 + (i % 37) as f64 * 3e-6 + (i % 11) as f64 * 7e-6))
        .collect();
    p2p_timing(CommDist::Hist(Histogram::from_samples(
        &samples,
        5e-6 * scale,
    )))
}

/// A ring shift: every proc isends `size` bytes right and receives from
/// the left, `laps` times, with `work` seconds of compute per lap — one
/// SCC, and deadlock-free for any nprocs >= 2 because the sends are
/// nonblocking. Each argument is an expression: a literal or a parameter.
pub fn ring_model(laps: &str, size: &str, work: &str) -> Model {
    Model::new().with_stmt(looped(
        laps,
        vec![
            Stmt::Message {
                kind: pevpm::MsgKind::Isend,
                size: e(size),
                from: e("procnum"),
                to: e("(procnum + 1) % numprocs"),
                handle: None,
                label: None,
            },
            recv(size, "(procnum - 1) % numprocs", "procnum"),
            serial(work),
        ],
    ))
}

/// [`ring_model`] over the parameters `laps`, `size` and `work`, bound to
/// the given values (what the property tests generate).
pub fn bound_ring_model(laps: u64, size: u64, work: f64) -> Model {
    ring_model("laps", "size", "work")
        .with_param("laps", laps as f64)
        .with_param("size", size as f64)
        .with_param("work", work)
}

/// Bitwise comparison of every field of two predictions.
pub fn assert_identical(a: &Prediction, b: &Prediction, what: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(a.nprocs, b.nprocs, "{what}: nprocs");
    assert_eq!(
        a.makespan.to_bits(),
        b.makespan.to_bits(),
        "{what}: makespan"
    );
    assert_eq!(
        bits(&a.finish_times),
        bits(&b.finish_times),
        "{what}: finish_times"
    );
    assert_eq!(
        bits(&a.compute_time),
        bits(&b.compute_time),
        "{what}: compute_time"
    );
    assert_eq!(bits(&a.send_time), bits(&b.send_time), "{what}: send_time");
    assert_eq!(
        bits(&a.blocked_time),
        bits(&b.blocked_time),
        "{what}: blocked_time"
    );
    assert_eq!(a.messages, b.messages, "{what}: messages");
    assert_eq!(a.steps, b.steps, "{what}: steps");
    assert_eq!(a.sb_peak, b.sb_peak, "{what}: sb_peak");
    assert_eq!(a.races, b.races, "{what}: races");
    assert_eq!(
        a.loss_by_label.len(),
        b.loss_by_label.len(),
        "{what}: loss labels"
    );
    for (label, loss) in &a.loss_by_label {
        let other = b
            .loss_by_label
            .get(label)
            .unwrap_or_else(|| panic!("{what}: label {label:?} missing from one side"));
        assert_eq!(loss.to_bits(), other.to_bits(), "{what}: loss[{label}]");
    }
}
