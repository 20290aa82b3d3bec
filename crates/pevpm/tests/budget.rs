//! Hardened-evaluation contract: the VM terminates hostile models with a
//! structured diagnostic instead of hanging or aborting.
//!
//! - golden-text coverage of the `deadlock at t=…` report (the CLI prints
//!   this verbatim, so its exact shape is a compatibility surface);
//! - [`RunBudget`]: a *livelocked* model (unbounded progress, no
//!   deadlock) is stopped by whichever budget axis fires first, and the
//!   [`BudgetReport`] carries partial results;
//! - deadlock + budget compose: the budget fires first on a livelocked
//!   model even when a deadlock would eventually be impossible to reach;
//! - panic-isolated replication with k-of-n quorum aggregation.

mod common;

use common::point_timing;
use pevpm::model::build::*;
use pevpm::model::Model;
use pevpm::timing::TimingModel;
use pevpm::vm::{evaluate, monte_carlo, BudgetAxis, EvalConfig, PevpmError, RunBudget};
use pevpm_dist::{CommDist, DistKey, DistTable, Histogram, Op};

/// Two processes, each stuck receiving from the other after 1.5 s of
/// computation: a classic deadlock with a nonzero timestamp.
fn deadlocking_model() -> Model {
    Model::new().with_stmt(serial("1.5")).with_stmt(runon2(
        "procnum == 0",
        vec![recv("8", "1", "0")],
        "procnum == 1",
        vec![recv("8", "0", "1")],
    ))
}

/// A livelocked model: a loop so long it stands in for "unbounded"
/// progress — every sweep advances, so deadlock detection never triggers.
fn livelocked_model() -> Model {
    Model::new().with_stmt(looped("1000000000", vec![serial("0.001")]))
}

#[test]
fn deadlock_diagnostic_golden_text() {
    let err = evaluate(
        &deadlocking_model(),
        &EvalConfig::new(2),
        &point_timing(0.1),
    )
    .unwrap_err();
    // Golden text: the CLI and bench harness print this verbatim, and the
    // DESIGN.md exit-code table documents its shape.
    assert_eq!(
        err.to_string(),
        "deadlock at t=1.500000s: [proc 0: Recv(from=1, seq=0)] [proc 1: Recv(from=0, seq=0)]"
    );
}

#[test]
fn livelock_is_stopped_by_step_budget_with_partial_results() {
    let cfg = EvalConfig::new(2).with_budget(RunBudget::default().with_max_steps(10_000));
    let err = evaluate(&livelocked_model(), &cfg, &point_timing(0.1)).unwrap_err();
    let PevpmError::Budget(report) = err else {
        panic!("expected Budget error, got {err}");
    };
    assert_eq!(report.axis, BudgetAxis::Steps);
    assert_eq!(report.steps, 10_001, "aborts on the first step over budget");
    assert_eq!(report.clocks.len(), 2);
    assert!(
        report.clocks.iter().any(|&c| c > 0.0),
        "partial clocks show the progress made: {:?}",
        report.clocks
    );
    assert_eq!(report.finished, vec![false, false]);
    assert!(
        report.blocked.is_empty(),
        "a livelock has no blocked procs — that distinguishes it from deadlock"
    );
    let text = report.to_string();
    assert!(
        text.contains("evaluation budget exceeded (step limit)"),
        "{text}"
    );
    assert!(text.contains("0/2 procs finished"), "{text}");
}

#[test]
fn livelock_is_stopped_by_virtual_time_budget() {
    let cfg = EvalConfig::new(1).with_budget(RunBudget::default().with_max_virtual_secs(2.0));
    let err = evaluate(&livelocked_model(), &cfg, &point_timing(0.1)).unwrap_err();
    let PevpmError::Budget(report) = err else {
        panic!("expected Budget error, got {err}");
    };
    assert_eq!(report.axis, BudgetAxis::VirtualTime);
    // 2.0 s of budget at 1 ms per iteration: the clock just crossed 2.0.
    assert!(
        report.virtual_time > 2.0 && report.virtual_time < 2.1,
        "virtual_time {}",
        report.virtual_time
    );
}

#[test]
fn budget_fires_before_deadlock_on_a_livelocked_prefix() {
    // The deadlocking receives sit *behind* a livelocked loop: deadlock
    // detection alone would spin through the loop for ~1e9 steps first.
    // The budget must fire first — this is the compose regression test.
    let m = Model::new()
        .with_stmt(looped("1000000000", vec![serial("0.0001")]))
        .with_stmt(runon2(
            "procnum == 0",
            vec![recv("8", "1", "0")],
            "procnum == 1",
            vec![recv("8", "0", "1")],
        ));
    let cfg = EvalConfig::new(2).with_budget(RunBudget::default().with_max_steps(50_000));
    match evaluate(&m, &cfg, &point_timing(0.1)).unwrap_err() {
        PevpmError::Budget(report) => assert_eq!(report.axis, BudgetAxis::Steps),
        other => panic!("budget must fire before deadlock, got {other}"),
    }
}

#[test]
fn deadlock_still_wins_when_budget_is_roomy() {
    let cfg = EvalConfig::new(2).with_budget(RunBudget::default().with_max_steps(1_000_000));
    match evaluate(&deadlocking_model(), &cfg, &point_timing(0.1)).unwrap_err() {
        PevpmError::Deadlock { time, blocked } => {
            assert!((time - 1.5).abs() < 1e-9);
            assert_eq!(blocked.len(), 2);
        }
        other => panic!("expected deadlock, got {other}"),
    }
}

#[test]
fn wall_budget_stops_a_spin() {
    // 64 Ki-step check cadence: the loop body must be cheap enough to hit
    // the cadence quickly but the model big enough not to finish first.
    let cfg = EvalConfig::new(1).with_budget(RunBudget::default().with_max_wall_secs(0.05));
    let err = evaluate(&livelocked_model(), &cfg, &point_timing(0.1)).unwrap_err();
    match err {
        PevpmError::Budget(report) => {
            assert_eq!(report.axis, BudgetAxis::WallTime);
            assert!(report.wall_secs >= 0.05);
        }
        other => panic!("expected wall budget, got {other}"),
    }
}

#[test]
fn monte_carlo_without_quorum_reports_lowest_index_failure() {
    // All replications deadlock; the error must be the plain Deadlock of
    // replication 0 (what a serial loop would have hit), not a quorum
    // wrapper.
    let err = monte_carlo(
        &deadlocking_model(),
        &EvalConfig::new(2),
        &point_timing(0.1),
        4,
    )
    .unwrap_err();
    assert!(
        matches!(err, PevpmError::Deadlock { .. }),
        "expected Deadlock, got {err}"
    );
}

#[test]
fn monte_carlo_quorum_failure_is_structured() {
    let cfg = EvalConfig::new(2).with_quorum(2);
    let err = monte_carlo(&deadlocking_model(), &cfg, &point_timing(0.1), 4).unwrap_err();
    match err {
        PevpmError::QuorumFailed {
            succeeded,
            required,
            total,
            first_failure,
        } => {
            assert_eq!((succeeded, required, total), (0, 2, 4));
            assert!(matches!(*first_failure, PevpmError::Deadlock { .. }));
        }
        other => panic!("expected QuorumFailed, got {other}"),
    }
}

#[test]
fn quorum_met_with_partial_failures_surfaces_every_report() {
    // Stochastic timing: each replication draws its own send latency, so
    // per-replication makespans genuinely differ. A virtual-time budget
    // placed strictly between the fastest and slowest replication then
    // fails *some* replications deterministically while the rest succeed
    // — the quorum path that used to go uncovered: the batch completes,
    // and every failure must be surfaced in `McPrediction::failures`
    // rather than silently dropped from the aggregate.
    let samples: Vec<f64> = (0..40).map(|i| 1.0 + 0.05 * i as f64).collect();
    let mut table = DistTable::new();
    table.insert(
        DistKey {
            op: Op::Send,
            size: 64,
            contention: 1,
        },
        CommDist::Hist(Histogram::from_samples(&samples, 0.1)),
    );
    let timing = TimingModel::distributions(table);
    let m = Model::new().with_stmt(runon2(
        "procnum == 0",
        vec![send("64", "0", "1")],
        "procnum == 1",
        vec![recv("64", "0", "1")],
    ));

    let reps = 16;
    let free = monte_carlo(&m, &EvalConfig::new(2), &timing, reps).unwrap();
    assert!(
        free.max > free.min,
        "timing jitter must spread the makespans: [{}, {}]",
        free.min,
        free.max
    );
    let threshold = (free.min + free.max) / 2.0;

    let cfg = EvalConfig::new(2)
        .with_quorum(1)
        .with_budget(RunBudget::default().with_max_virtual_secs(threshold));
    let mc = monte_carlo(&m, &cfg, &timing, reps).unwrap();
    assert!(!mc.failures.is_empty(), "slow replications must fail");
    assert!(!mc.runs.is_empty(), "fast replications must succeed");
    assert_eq!(
        mc.runs.len() + mc.failures.len(),
        reps,
        "every replication is accounted for exactly once"
    );
    // The aggregate covers only the survivors, so it sits below the
    // budget that killed the rest.
    assert!(
        mc.max <= threshold,
        "max {} vs threshold {threshold}",
        mc.max
    );
    assert!(mc.mean <= threshold);
    let mut last = None;
    for (idx, what) in &mc.failures {
        assert!(*idx < reps, "replication index {idx} out of range");
        assert!(
            last.is_none_or(|l| l < *idx),
            "failures are reported in index order"
        );
        last = Some(*idx);
        assert!(
            what.contains("budget exceeded"),
            "failure report must carry the budget diagnostic: {what}"
        );
    }
}

#[test]
fn quorum_none_with_no_failures_matches_previous_behaviour() {
    let m = Model::new().with_stmt(runon2(
        "procnum == 0",
        vec![send("64", "0", "1")],
        "procnum == 1",
        vec![recv("64", "0", "1")],
    ));
    let mc = monte_carlo(&m, &EvalConfig::new(2), &point_timing(0.01), 8).unwrap();
    assert_eq!(mc.runs.len(), 8);
    assert!(mc.failures.is_empty());
}
