//! Determinism contract of the parallel replication engine.
//!
//! Replica `i` of a Monte-Carlo batch is seeded from `(base_seed, i)`
//! alone, and results are collected in replica-index order, so running a
//! batch on 1 thread and on N threads must produce **bitwise identical**
//! predictions — every float, every label, every race report. These tests
//! are the regression gate for that contract: any scheduling-dependent
//! state sneaking into an evaluation (shared RNG, thread-order
//! aggregation, unsorted race reports) fails them.
//!
//! The same contract covers the lock-step lane groups: `monte_carlo` runs
//! full groups of eight replicas with one instruction stream, and every
//! lane must equal a standalone `evaluate` at its replica seed — whatever
//! the replication count, thread count or seed pairing, and whether the
//! group ran to the end or stood down (wildcard receive, a lane over the
//! virtual-time budget) and re-ran its replicas one at a time.

mod common;

use common::{assert_identical, noisy_timing};
use pevpm::model::build::*;
use pevpm::model::{Model, Stmt};
use pevpm::replicate;
use pevpm::stats::AdaptivePolicy;
use pevpm::timing::TimingModel;
use pevpm::vm::{evaluate, monte_carlo, EvalConfig, PevpmError, Prediction, RunBudget};
use pevpm_dist::{CommDist, DistKey, DistTable, Histogram, Op};

/// A model exercising every observable the engine reports: a ring
/// exchange (labelled blocking receives → loss_by_label), nonblocking
/// sends (scoreboard occupancy → sb_peak), and a wildcard fan-in with
/// several simultaneous candidates (→ race reports).
fn stress_model() -> Model {
    Model::new()
        .with_stmt(looped(
            "6",
            vec![
                Stmt::Message {
                    kind: pevpm::MsgKind::Isend,
                    size: e("1024"),
                    from: e("procnum"),
                    to: e("(procnum + 1) % numprocs"),
                    handle: None,
                    label: None,
                },
                labelled(
                    recv("1024", "(procnum - 1) % numprocs", "procnum"),
                    "ring-recv",
                ),
                serial("0.0001"),
            ],
        ))
        .with_stmt(Stmt::Runon {
            branches: vec![
                (
                    e("procnum == 0"),
                    vec![
                        serial("0.01"), // let every sender land first
                        labelled(recv("8", "0-1", "0"), "fanin"),
                        recv("8", "0-1", "0"),
                        recv("8", "0-1", "0"),
                    ],
                ),
                (e("procnum != 0"), vec![send("8", "procnum", "0")]),
            ],
        })
}

#[test]
fn monte_carlo_is_bitwise_identical_at_any_thread_count() {
    let timing = noisy_timing(1.0);
    let model = stress_model();
    let reps = 12;
    let serial_cfg = EvalConfig::new(4).with_seed(0xD5).with_threads(1);
    let serial = monte_carlo(&model, &serial_cfg, &timing, reps).unwrap();

    // The stochastic timing must actually exercise the RNG, or this test
    // proves nothing.
    assert!(serial.stderr > 0.0, "timing model produced no spread");
    assert!(!serial.runs[0].races.is_empty(), "fan-in produced no races");
    assert!(
        !serial.runs[0].loss_by_label.is_empty(),
        "no labelled losses"
    );

    for threads in [2, 3, 4, 8] {
        let cfg = serial_cfg.clone().with_threads(threads);
        let par = monte_carlo(&model, &cfg, &timing, reps).unwrap();
        assert_eq!(
            serial.mean.to_bits(),
            par.mean.to_bits(),
            "{threads} threads: mean"
        );
        assert_eq!(
            serial.stderr.to_bits(),
            par.stderr.to_bits(),
            "{threads} threads: stderr"
        );
        assert_eq!(
            serial.min.to_bits(),
            par.min.to_bits(),
            "{threads} threads: min"
        );
        assert_eq!(
            serial.max.to_bits(),
            par.max.to_bits(),
            "{threads} threads: max"
        );
        assert_eq!(serial.runs.len(), par.runs.len());
        for (i, (a, b)) in serial.runs.iter().zip(&par.runs).enumerate() {
            assert_identical(a, b, &format!("{threads} threads, replica {i}"));
        }
    }
}

#[test]
fn parallel_replicas_match_standalone_evaluations() {
    // Each replica of a parallel batch must equal a standalone `evaluate`
    // with the derived seed — the batch adds no hidden state.
    let timing = noisy_timing(1.0);
    let model = stress_model();
    let base = 0xABCD;
    let cfg = EvalConfig::new(4).with_seed(base).with_threads(4);
    let mc = monte_carlo(&model, &cfg, &timing, 6).unwrap();
    for (i, run) in mc.runs.iter().enumerate() {
        let solo_cfg = EvalConfig::new(4).with_seed(replicate::replica_seed(base, i as u64));
        let solo = evaluate(&model, &solo_cfg, &timing).unwrap();
        assert_identical(&solo, run, &format!("replica {i} vs standalone"));
    }
}

#[test]
fn thread_count_zero_resolves_to_all_cores_and_stays_deterministic() {
    let timing = noisy_timing(1.0);
    let model = stress_model();
    let serial = monte_carlo(
        &model,
        &EvalConfig::new(4).with_seed(7).with_threads(1),
        &timing,
        8,
    )
    .unwrap();
    let auto = monte_carlo(
        &model,
        &EvalConfig::new(4).with_seed(7), // default threads = 0 = all cores
        &timing,
        8,
    )
    .unwrap();
    assert_eq!(serial.mean.to_bits(), auto.mean.to_bits());
    for (a, b) in serial.runs.iter().zip(&auto.runs) {
        assert_identical(a, b, "auto threads");
    }
}

// ---------------------------------------------------------------------
// Lock-step lanes ≡ scalar evaluations
// ---------------------------------------------------------------------

/// Wildcard-free, so a full group of replicas runs in lock-step lanes to
/// the end: a labelled ring exchange over nonblocking sends, a labelled
/// eager send, a rendezvous-size blocking send, an irecv/wait overlap and
/// loop-variable-dependent compute.
fn lane_model() -> Model {
    Model::new()
        .with_stmt(looped_var(
            "5",
            "i",
            vec![
                Stmt::Message {
                    kind: pevpm::MsgKind::Isend,
                    size: e("1024"),
                    from: e("procnum"),
                    to: e("(procnum + 1) % numprocs"),
                    handle: None,
                    label: None,
                },
                labelled(
                    recv("1024", "(procnum - 1) % numprocs", "procnum"),
                    "ring-recv",
                ),
                serial("0.0001 * (i + 1)"),
            ],
        ))
        .with_stmt(runon2(
            "procnum == 0",
            vec![
                labelled(send("64", "0", "1"), "eager-send"),
                labelled(send("100000", "0", "1"), "rndv-send"),
            ],
            "procnum == 1",
            vec![
                irecv("64", "0", "1", "h"),
                serial("0.0002"),
                wait("h"),
                recv("100000", "0", "1"),
            ],
        ))
}

/// The standalone evaluation replica `i` of a batch must equal.
fn solo_cfg(cfg: &EvalConfig, i: usize) -> EvalConfig {
    let mut solo = cfg.clone();
    if cfg.antithetic {
        solo.seed = replicate::replica_seed(cfg.seed, (i / 2) as u64);
        solo.mirror = i % 2 == 1;
    } else {
        solo.seed = replicate::replica_seed(cfg.seed, i as u64);
    }
    solo
}

#[test]
fn every_lane_equals_evaluate_at_its_replica_seed() {
    let timing = noisy_timing(1.0);
    for (name, model) in [("lanes", lane_model()), ("stand-down", stress_model())] {
        for antithetic in [false, true] {
            let mut base = EvalConfig::new(4).with_seed(0x1A9E5);
            base.antithetic = antithetic;
            let solos: Vec<Prediction> = (0..17)
                .map(|i| evaluate(&model, &solo_cfg(&base, i), &timing).unwrap())
                .collect();
            assert_ne!(
                solos[0].makespan.to_bits(),
                solos[1].makespan.to_bits(),
                "replicas must differ or the comparison proves nothing"
            );
            for reps in [1, 2, 7, 8, 9, 17] {
                for threads in [1, 2, 3] {
                    let cfg = base.clone().with_threads(threads);
                    let mc = monte_carlo(&model, &cfg, &timing, reps).unwrap();
                    assert_eq!(mc.runs.len(), reps);
                    assert_eq!(mc.profile.total_jobs(), reps, "profile counts replicas");
                    assert!(mc.adaptive.is_none(), "a fixed batch carries no report");
                    assert!(mc.failures.is_empty());
                    for (i, run) in mc.runs.iter().enumerate() {
                        let what = format!(
                            "{name}, antithetic {antithetic}, reps {reps}, \
                             threads {threads}, replica {i}"
                        );
                        assert_identical(&solos[i], run, &what);
                    }
                }
            }
        }
    }
}

#[test]
fn adaptive_run_is_a_bitwise_prefix_of_the_fixed_batch() {
    let timing = noisy_timing(1.0);
    let model = lane_model();
    // A precision no 24 replications reach, and one met early: the run
    // covers whole lane groups plus a remainder, or stops inside a group.
    for precision in [1e-9, 0.05] {
        for threads in [1, 2, 3] {
            let fixed_cfg = EvalConfig::new(4).with_seed(99).with_threads(threads);
            let fixed = monte_carlo(&model, &fixed_cfg, &timing, 21).unwrap();
            let policy = AdaptivePolicy::new(precision)
                .with_min_reps(3)
                .with_max_reps(21);
            let adaptive =
                monte_carlo(&model, &fixed_cfg.clone().with_adaptive(policy), &timing, 1).unwrap();
            let report = adaptive.adaptive.expect("adaptive report");
            let stream: Vec<f64> = fixed.runs.iter().map(|p| p.makespan).collect();
            assert_eq!(report.reps, policy.stop_point(&stream), "stopping index");
            assert_eq!(adaptive.runs.len(), report.reps);
            for (i, (a, b)) in adaptive.runs.iter().zip(&fixed.runs).enumerate() {
                assert_identical(a, b, &format!("precision {precision}, replica {i}"));
            }
        }
    }
}

#[test]
fn wildcard_group_stands_down_to_the_historical_outputs() {
    // The fan-in's wildcard receives make the group of eight stand down;
    // what comes back is what eight separate evaluations report, race
    // reports included.
    let timing = noisy_timing(1.0);
    let model = stress_model();
    let cfg = EvalConfig::new(4).with_seed(0xFA4).with_threads(1);
    let mc = monte_carlo(&model, &cfg, &timing, 8).unwrap();
    for (i, run) in mc.runs.iter().enumerate() {
        let solo = evaluate(&model, &solo_cfg(&cfg, i), &timing).unwrap();
        assert!(!solo.races.is_empty(), "fan-in produced no races");
        assert_identical(&solo, run, &format!("replica {i}"));
    }
}

#[test]
fn virtual_time_budget_crossed_by_one_lane_fails_exactly_that_replica() {
    // One slow message per replica: the makespan is the draw. A budget
    // between the fastest and the slowest replica of a group fails some
    // lanes and not others, so the group must stand down and every
    // replica report what its own evaluation reports.
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
    let model = Model::new().with_stmt(runon2(
        "procnum == 0",
        vec![send("64", "0", "1")],
        "procnum == 1",
        vec![recv("64", "0", "1"), serial("0.5")],
    ));
    let free = monte_carlo(&model, &EvalConfig::new(2).with_seed(5), &timing, 8).unwrap();
    let threshold = (free.min + free.max) / 2.0;
    let budget = RunBudget::default().with_max_virtual_secs(threshold);
    let cfg = EvalConfig::new(2).with_seed(5).with_budget(budget);

    let solos: Vec<Result<Prediction, PevpmError>> = (0..8)
        .map(|i| evaluate(&model, &solo_cfg(&cfg, i), &timing))
        .collect();
    let failed: Vec<usize> = (0..8).filter(|&i| solos[i].is_err()).collect();
    assert!(
        !failed.is_empty() && failed.len() < 8,
        "the budget must split the group: {failed:?}"
    );

    let mc = monte_carlo(&model, &cfg.clone().with_quorum(1), &timing, 8).unwrap();
    assert_eq!(
        mc.failures.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
        failed
    );
    let mut runs = mc.runs.iter();
    for (i, solo) in solos.iter().enumerate() {
        if let Ok(solo) = solo {
            assert_identical(solo, runs.next().unwrap(), &format!("replica {i}"));
        }
    }
    for (i, what) in &mc.failures {
        let Err(PevpmError::Budget(report)) = &solos[*i] else {
            panic!("replica {i} failed with something other than the budget");
        };
        // The rendered report ends in wall-clock seconds; compare the
        // part that is a function of the replica.
        let virtual_part = format!(
            "at t={:.6}s after {} steps",
            report.virtual_time, report.steps
        );
        assert!(what.contains(&virtual_part), "replica {i}: {what}");
    }

    // Without a quorum the batch fails with the lowest-index failure.
    match monte_carlo(&model, &cfg, &timing, 8).unwrap_err() {
        PevpmError::Budget(report) => {
            let Err(PevpmError::Budget(solo)) = &solos[failed[0]] else {
                unreachable!()
            };
            assert_eq!(report.axis, solo.axis);
            assert_eq!(report.steps, solo.steps);
            assert_eq!(report.clocks, solo.clocks);
        }
        other => panic!("expected the budget error, got {other}"),
    }
}

#[test]
fn lane_uniform_failures_are_reported_per_lane() {
    // Every lane deadlocks at the same step but at its own virtual time:
    // the group reports eight deadlocks, each the replica's own.
    let timing = noisy_timing(1.0);
    let model = Model::new()
        .with_stmt(runon2(
            "procnum == 0",
            vec![send("64", "0", "1")],
            "procnum == 1",
            vec![recv("64", "0", "1")],
        ))
        .with_stmt(runon2(
            "procnum == 0",
            vec![recv("8", "1", "0")],
            "procnum == 1",
            vec![recv("8", "0", "1")],
        ));
    let cfg = EvalConfig::new(2).with_seed(3).with_quorum(1);
    let solo_errors: Vec<String> = (0..8)
        .map(|i| {
            evaluate(&model, &solo_cfg(&cfg, i), &timing)
                .unwrap_err()
                .to_string()
        })
        .collect();
    assert_ne!(solo_errors[0], solo_errors[1], "deadlock times must differ");
    match monte_carlo(&model, &cfg, &timing, 8).unwrap_err() {
        PevpmError::QuorumFailed {
            succeeded,
            total,
            first_failure,
            ..
        } => {
            assert_eq!((succeeded, total), (0, 8));
            assert_eq!(first_failure.to_string(), solo_errors[0]);
        }
        other => panic!("expected QuorumFailed, got {other}"),
    }
    // Seven of eight lanes would be enough to hide a wrong lane: check
    // each through a batch that starts at it.
    for (i, expected) in solo_errors.iter().enumerate() {
        let shifted = EvalConfig::new(2).with_seed(replicate::replica_seed(3, i as u64));
        let err = monte_carlo(&model, &shifted, &timing, 8).unwrap_err();
        assert_eq!(&err.to_string(), expected, "replica {i}");
    }
}
