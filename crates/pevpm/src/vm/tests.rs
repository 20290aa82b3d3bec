use super::driver::replica_cfg;
use super::*;
use crate::model::build::*;
use crate::model::{CollOp, Model, MsgKind, Stmt};
use crate::timing::TimingModel;
use pevpm_dist::{CommDist, DistKey, DistTable, Op};
use pevpm_obs::Registry;
use std::sync::Arc;

/// Test hook: an evaluation holding the poisoned seed in any lane
/// panics as it starts — the stand-in for a draw that panics for one
/// replica only (no public table can be made to).
pub(super) mod poison {
    use super::super::engine::Lane;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// No test seeds its replicas anywhere near this.
    const NONE: u64 = 0x5EED_0FF5_EED0_FF00;
    static SEED: AtomicU64 = AtomicU64::new(NONE);

    pub(in super::super) fn check(lanes: &[Lane]) {
        let poisoned = SEED.load(Ordering::Relaxed);
        if lanes.iter().any(|lane| lane.seed == poisoned) {
            panic!("poisoned replica seed {poisoned:#x}");
        }
    }

    /// Poison `seed` until the guard drops.
    pub(in super::super) struct Guard;

    pub(in super::super) fn set(seed: u64) -> Guard {
        SEED.store(seed, Ordering::Relaxed);
        Guard
    }

    impl Drop for Guard {
        fn drop(&mut self) {
            SEED.store(NONE, Ordering::Relaxed);
        }
    }
}

/// A timing model where every p2p message takes exactly `t` seconds.
fn fixed_timing(t: f64) -> TimingModel {
    let mut table = DistTable::new();
    for op in [Op::Send, Op::Isend] {
        for &size in &[1u64, 1 << 30] {
            table.insert(
                DistKey {
                    op,
                    size,
                    contention: 1,
                },
                CommDist::Point(t),
            );
        }
    }
    TimingModel::distributions(table)
}

#[test]
fn serial_only_model() {
    let m = Model::new().with_stmt(serial("2.5"));
    let p = evaluate(&m, &EvalConfig::new(4), &fixed_timing(0.0)).unwrap();
    assert_eq!(p.makespan, 2.5);
    assert!(p.finish_times.iter().all(|&t| t == 2.5));
    assert_eq!(p.compute_time[0], 2.5);
    assert_eq!(p.messages, 0);
}

#[test]
fn serial_scales_with_numprocs() {
    let m = Model::new().with_stmt(serial("8.0/numprocs"));
    let p = evaluate(&m, &EvalConfig::new(8), &fixed_timing(0.0)).unwrap();
    assert_eq!(p.makespan, 1.0);
}

#[test]
fn simple_send_recv_pipelines_time() {
    // proc 0 computes 1 s then sends to proc 1, which waits.
    let m = Model::new().with_stmt(runon2(
        "procnum == 0",
        vec![serial("1.0"), send("100", "0", "1")],
        "procnum == 1",
        vec![recv("100", "0", "1")],
    ));
    let p = evaluate(&m, &EvalConfig::new(2), &fixed_timing(0.25)).unwrap();
    // proc 1 resumes at depart(1.0) + 0.25.
    assert!(
        (p.finish_times[1] - 1.25).abs() < 1e-12,
        "{:?}",
        p.finish_times
    );
    assert!((p.blocked_time[1] - 1.25).abs() < 1e-12);
    assert_eq!(p.messages, 1);
}

#[test]
fn loop_repeats_body() {
    let m = Model::new().with_stmt(looped("10", vec![serial("0.1")]));
    let p = evaluate(&m, &EvalConfig::new(1), &fixed_timing(0.0)).unwrap();
    assert!((p.makespan - 1.0).abs() < 1e-9);
}

#[test]
fn nested_loops_multiply() {
    let m = Model::new().with_stmt(looped("3", vec![looped("4", vec![serial("1")])]));
    let p = evaluate(&m, &EvalConfig::new(1), &fixed_timing(0.0)).unwrap();
    assert!((p.makespan - 12.0).abs() < 1e-9);
}

#[test]
fn runon_selects_first_matching_branch() {
    let m = Model::new().with_stmt(runon2(
        "procnum < 2",
        vec![serial("1")],
        "procnum >= 2",
        vec![serial("5")],
    ));
    let p = evaluate(&m, &EvalConfig::new(4), &fixed_timing(0.0)).unwrap();
    assert_eq!(p.finish_times, vec![1.0, 1.0, 5.0, 5.0]);
}

#[test]
fn ping_pong_round_trip() {
    let m = Model::new().with_stmt(looped(
        "5",
        vec![runon2(
            "procnum == 0",
            vec![send("64", "0", "1"), recv("64", "1", "0")],
            "procnum == 1",
            vec![recv("64", "0", "1"), send("64", "1", "0")],
        )],
    ));
    let p = evaluate(&m, &EvalConfig::new(2), &fixed_timing(0.1)).unwrap();
    // Each iteration costs ~2 × 0.1 s (plus tiny local send costs).
    assert!(
        p.makespan >= 0.99 && p.makespan < 1.2,
        "makespan {}",
        p.makespan
    );
}

#[test]
fn deadlock_detected_on_mutual_recv() {
    let m = Model::new().with_stmt(runon2(
        "procnum == 0",
        vec![recv("8", "1", "0")],
        "procnum == 1",
        vec![recv("8", "0", "1")],
    ));
    let err = evaluate(&m, &EvalConfig::new(2), &fixed_timing(0.1)).unwrap_err();
    match err {
        PevpmError::Deadlock { blocked, .. } => assert_eq!(blocked.len(), 2),
        other => panic!("expected deadlock, got {other}"),
    }
}

#[test]
fn fifo_ordering_between_pair() {
    // Two sends of different sizes; receives must match in order.
    let m = Model::new().with_stmt(runon2(
        "procnum == 0",
        vec![send("10", "0", "1"), send("20", "0", "1")],
        "procnum == 1",
        vec![recv("10", "0", "1"), recv("20", "0", "1")],
    ));
    let p = evaluate(&m, &EvalConfig::new(2), &fixed_timing(0.1)).unwrap();
    assert_eq!(p.messages, 2);
    assert!(p.makespan > 0.0);
}

#[test]
fn rendezvous_send_blocks_sender() {
    // Large blocking send: sender cannot finish before the receiver's
    // 5 s of prior computation.
    let m = Model::new().with_stmt(runon2(
        "procnum == 0",
        vec![send("1000000", "0", "1")],
        "procnum == 1",
        vec![serial("5"), recv("1000000", "0", "1")],
    ));
    let p = evaluate(&m, &EvalConfig::new(2), &fixed_timing(0.1)).unwrap();
    assert!(
        p.finish_times[0] >= 5.0,
        "rendezvous sender finished early: {:?}",
        p.finish_times
    );
}

#[test]
fn eager_send_does_not_block_sender() {
    let m = Model::new().with_stmt(runon2(
        "procnum == 0",
        vec![send("100", "0", "1")],
        "procnum == 1",
        vec![serial("5"), recv("100", "0", "1")],
    ));
    let p = evaluate(&m, &EvalConfig::new(2), &fixed_timing(0.1)).unwrap();
    assert!(
        p.finish_times[0] < 1.0,
        "eager sender blocked: {:?}",
        p.finish_times
    );
}

#[test]
fn out_of_range_endpoint_is_model_error() {
    let m = Model::new().with_stmt(send("8", "procnum", "procnum+1"));
    let err = evaluate(&m, &EvalConfig::new(2), &fixed_timing(0.1)).unwrap_err();
    assert!(matches!(err, PevpmError::BadModel(_)), "{err}");
}

#[test]
fn missing_timing_is_reported() {
    let m = Model::new().with_stmt(runon2(
        "procnum == 0",
        vec![send("8", "0", "1")],
        "procnum == 1",
        vec![recv("8", "0", "1")],
    ));
    let empty = TimingModel::distributions(DistTable::new());
    let err = evaluate(&m, &EvalConfig::new(2), &empty).unwrap_err();
    assert!(matches!(err, PevpmError::MissingTiming { .. }), "{err}");
}

#[test]
fn collective_synchronises_all_procs() {
    let mut table = DistTable::new();
    table.insert(
        DistKey {
            op: Op::Barrier,
            size: 0,
            contention: 4,
        },
        CommDist::Point(0.5),
    );
    let timing = TimingModel::distributions(table);
    let m = Model::new()
        .with_stmt(serial("procnum + 1")) // staggered entry: 1..4 s
        .with_stmt(collective(CollOp::Barrier, "0"));
    let p = evaluate(&m, &EvalConfig::new(4), &timing).unwrap();
    // Everyone leaves at slowest entry (4.0) + 0.5.
    for &t in &p.finish_times {
        assert!((t - 4.5).abs() < 1e-9, "{:?}", p.finish_times);
    }
}

#[test]
fn loss_attribution_by_label() {
    let m = Model::new().with_stmt(runon2(
        "procnum == 0",
        vec![serial("2"), send("8", "0", "1")],
        "procnum == 1",
        vec![labelled(recv("8", "0", "1"), "halo-recv")],
    ));
    let p = evaluate(&m, &EvalConfig::new(2), &fixed_timing(0.1)).unwrap();
    let loss = p.loss_by_label.get("halo-recv").unwrap_or(0.0);
    assert!((loss - 2.1).abs() < 1e-9, "loss = {loss}");
}

#[test]
fn deterministic_given_seed() {
    // A model whose timing has real spread.
    let mut table = DistTable::new();
    let h = pevpm_dist::Histogram::from_samples(
        &(0..100)
            .map(|i| 0.01 + (i as f64) * 1e-4)
            .collect::<Vec<_>>(),
        1e-4,
    );
    table.insert(
        DistKey {
            op: Op::Send,
            size: 64,
            contention: 1,
        },
        CommDist::Hist(h),
    );
    let timing = TimingModel::distributions(table);
    let m = Model::new().with_stmt(looped(
        "20",
        vec![runon2(
            "procnum == 0",
            vec![send("64", "0", "1")],
            "procnum == 1",
            vec![recv("64", "0", "1")],
        )],
    ));
    let run = |seed| {
        evaluate(&m, &EvalConfig::new(2).with_seed(seed), &timing)
            .unwrap()
            .makespan
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}

#[test]
fn loop_induction_variable_binds_in_body() {
    // sum of i for i in 0..5 as serial time: 0+1+2+3+4 = 10 (×0.1 s).
    let m = Model::new().with_stmt(looped_var("5", "i", vec![serial("0.1 * i")]));
    let p = evaluate(&m, &EvalConfig::new(1), &fixed_timing(0.0)).unwrap();
    assert!((p.makespan - 1.0).abs() < 1e-9, "makespan {}", p.makespan);
}

#[test]
fn induction_variable_scopes_to_loop() {
    // After the loop, `i` must be unbound again.
    let m = Model::new()
        .with_stmt(looped_var("3", "i", vec![serial("i")]))
        .with_stmt(serial("i"));
    let err = evaluate(&m, &EvalConfig::new(1), &fixed_timing(0.0)).unwrap_err();
    assert!(matches!(err, PevpmError::Expr(_)), "{err}");
}

/// `Send` histograms at sizes 64 and 256 under 1, 4 and 16 messages in
/// flight, every cell with a support of its own: a blend changes whenever
/// its cells or their weights do.
fn levelled_table() -> DistTable {
    let mut table = DistTable::new();
    for (s, &size) in [64u64, 256].iter().enumerate() {
        for (c, &contention) in [1u32, 4, 16].iter().enumerate() {
            let base = 1e-3 * (1 + s + 2 * c) as f64;
            let samples: Vec<f64> = (0..120)
                .map(|i| base + ((i * 31) % 47) as f64 * 1e-5)
                .collect();
            table.insert(
                DistKey {
                    op: Op::Send,
                    size,
                    contention,
                },
                CommDist::Hist(pevpm_dist::Histogram::from_samples(&samples, 3e-5)),
            );
        }
    }
    table
}

/// Clocks, time accounts and message count, bit for bit. Not the step
/// count: a loop takes steps its unrolled twin does not.
fn assert_same_times(a: &Prediction, b: &Prediction, what: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.finish_times), bits(&b.finish_times), "{what}");
    assert_eq!(bits(&a.compute_time), bits(&b.compute_time), "{what}");
    assert_eq!(bits(&a.send_time), bits(&b.send_time), "{what}");
    assert_eq!(bits(&a.blocked_time), bits(&b.blocked_time), "{what}");
    assert_eq!(a.messages, b.messages, "{what}");
}

/// `looped` against its hand-unrolled `twin`, each with and without
/// constant folding: four evaluations, one answer.
fn assert_unrolls_to(looped: &Model, twin: &Model, nprocs: usize) {
    let timing = TimingModel::distributions(levelled_table());
    let cfg = EvalConfig::new(nprocs).with_seed(9);
    let reference = evaluate(twin, &cfg, &timing).unwrap();
    assert!(reference.makespan > 0.0);
    for (what, model, cfg) in [
        ("looped", looped, cfg.clone()),
        ("looped, unfolded", looped, cfg.clone().without_const_fold()),
        ("twin, unfolded", twin, cfg.clone().without_const_fold()),
    ] {
        assert_same_times(&evaluate(model, &cfg, &timing).unwrap(), &reference, what);
    }
}

/// The expression error both lowerings of `model` stop with.
fn expr_error(model: &Model, nprocs: usize) -> String {
    let timing = TimingModel::distributions(levelled_table());
    let cfg = EvalConfig::new(nprocs);
    let [folded, unfolded] = [cfg.clone(), cfg.without_const_fold()].map(|cfg| {
        match evaluate(model, &cfg, &timing).unwrap_err() {
            PevpmError::Expr(e) => e.message,
            other => panic!("expected an expression error, got {other}"),
        }
    });
    assert_eq!(folded, unfolded);
    folded
}

#[test]
fn loop_variable_endpoints_and_sizes_follow_the_iteration() {
    // Round-robin: lap `i` sends `64·(i+1)` bytes `i+1` places ahead. An
    // expression memoised across laps would repeat lap 0's peer and size.
    let round = |i: &str| {
        let size = format!("64 * ({i} + 1)");
        vec![
            send(&size, "procnum", &format!("(procnum + {i} + 1) % numprocs")),
            recv(&size, &format!("(procnum - {i} - 1) % numprocs"), "procnum"),
        ]
    };
    let model = Model::new().with_stmt(looped_var("3", "i", round("i")));
    let twin = ["0", "1", "2"].iter().fold(Model::new(), |m, i| {
        round(i).into_iter().fold(m, Model::with_stmt)
    });
    assert_unrolls_to(&model, &twin, 4);
}

#[test]
fn loop_variable_endpoints_find_their_pair_every_lap() {
    // Lap `k` of the inner loop sends `k + 1` places ahead: the endpoints
    // read `k`, so their pair is looked up per execution. The twin spells
    // each lap out with a literal, so its endpoints keep their pair in the
    // memo, which the outer loop's second lap reads back.
    let round = |k: &str| {
        vec![
            send("64", "procnum", &format!("(procnum + {k} + 1) % numprocs")),
            recv("64", &format!("(procnum - {k} - 1) % numprocs"), "procnum"),
        ]
    };
    let model = Model::new().with_stmt(looped("2", vec![looped_var("3", "k", round("k"))]));
    let twin = Model::new().with_stmt(looped(
        "2",
        ["0", "1", "2"].iter().flat_map(|k| round(k)).collect(),
    ));
    let timing = spread_timing();
    let cfg = EvalConfig::new(4).with_seed(23).with_threads(1);
    let reference = evaluate(&twin, &cfg, &timing).unwrap();
    assert_eq!(reference.messages, 4 * 6);
    assert_same_times(
        &evaluate(&model, &cfg, &timing).unwrap(),
        &reference,
        "W = 1",
    );
    // One lock-step group of eight lanes, against eight evaluations.
    let [looped_mc, twin_mc] = [&model, &twin].map(|m| monte_carlo(m, &cfg, &timing, 8).unwrap());
    assert_ne!(
        looped_mc.min.to_bits(),
        looped_mc.max.to_bits(),
        "lanes differ"
    );
    for i in 0..8 {
        let solo = evaluate(&twin, &replica_cfg(&cfg, i, 0), &timing).unwrap();
        assert_same_times(&looped_mc.runs[i], &solo, &format!("looped, replica {i}"));
        assert_same_times(&twin_mc.runs[i], &solo, &format!("twin, replica {i}"));
    }
}

#[test]
fn a_parameter_shadowed_by_a_loop_variable_is_not_invariant() {
    // `i` is a parameter (5) until a loop binds it, and nothing once that
    // loop has exited.
    let model = Model::new()
        .with_param("i", 5.0)
        .with_stmt(serial("0.1 * i"))
        .with_stmt(looped_var("3", "i", vec![serial("0.01 * (i + 1)")]));
    let twin = [
        "0.1 * 5",
        "0.01 * (0 + 1)",
        "0.01 * (1 + 1)",
        "0.01 * (2 + 1)",
    ]
    .iter()
    .fold(Model::new(), |m, t| m.with_stmt(serial(t)));
    assert_unrolls_to(&model, &twin, 2);

    // Second lap of the outer loop: the same statement that read 5 finds
    // `i` unbound. A memo keyed on "parameters never change" answers 0.5.
    let relooped = Model::new().with_param("i", 5.0).with_stmt(looped(
        "2",
        vec![
            serial("0.1 * i"),
            looped_var("3", "i", vec![serial("0.01 * i")]),
        ],
    ));
    assert_eq!(expr_error(&relooped, 2), "unbound variable \"i\"");
}

#[test]
fn nested_loops_may_reuse_a_variable_name() {
    // The inner loop unbinds `i` on exit and the outer lap binds it again.
    let model = Model::new().with_stmt(looped_var(
        "2",
        "i",
        vec![
            serial("i + 1"),
            looped_var("3", "i", vec![serial("0.01 * (i + 1)")]),
        ],
    ));
    let inner = ["0.01 * (0 + 1)", "0.01 * (1 + 1)", "0.01 * (2 + 1)"];
    let twin = ["0 + 1", "1 + 1"].iter().fold(Model::new(), |m, outer| {
        inner
            .iter()
            .fold(m.with_stmt(serial(outer)), |m, t| m.with_stmt(serial(t)))
    });
    assert_unrolls_to(&model, &twin, 2);

    // ... so a read between the inner loop's exit and the next lap fails.
    let read_after = Model::new().with_stmt(looped_var(
        "2",
        "i",
        vec![looped_var("2", "i", vec![serial("i")]), serial("i")],
    ));
    assert_eq!(expr_error(&read_after, 1), "unbound variable \"i\"");
}

#[test]
fn an_erroring_invariant_fails_only_where_it_executes() {
    let body = |guard: &str| {
        Model::new().with_stmt(looped(
            "3",
            vec![
                send("100", "procnum", "(procnum + 1) % numprocs"),
                runon(guard, vec![serial("1/0")]),
                recv("100", "(procnum - 1) % numprocs", "procnum"),
            ],
        ))
    };
    // Never taken: as if it were not there, lap after lap.
    let twin = (0..3).fold(Model::new(), |m, _| {
        m.with_stmt(send("100", "procnum", "(procnum + 1) % numprocs"))
            .with_stmt(recv("100", "(procnum - 1) % numprocs", "procnum"))
    });
    assert_unrolls_to(&body("procnum == numprocs"), &twin, 3);
    // Taken by one process: that process's first execution ends the run.
    assert_eq!(expr_error(&body("procnum == 1"), 3), "division by zero");
}

#[test]
fn cached_inversions_follow_the_cells_not_the_weights() {
    // Six processes each post one 100-byte send — between the 64 and 256
    // columns — and then receive: process `p` posts with `p + 1` messages
    // in flight and every arrival is sampled with six. Against contention
    // levels 1, 4 and 16 that is, post → match: process 0 clamped to
    // level 1 → (4, 16), nothing shared; processes 1 and 2 (1, 4) →
    // (4, 16), level 4 shared; process 3 on level 4 → (4, 16); process 4
    // (4, 16) → (4, 16) with other weights, everything reused; process 5
    // the same cells and weights. The reference path inverts every draw
    // from scratch, and each replica must match it alone and as a lane.
    let model = Model::new().with_stmt(looped(
        "5",
        vec![
            send("100", "procnum", "(procnum + 1) % numprocs"),
            recv("100", "(procnum - 1) % numprocs", "procnum"),
        ],
    ));
    let compiled = TimingModel::distributions(levelled_table());
    let interpreted = TimingModel::interpreted(levelled_table());
    let cfg = EvalConfig::new(6).with_seed(77).with_threads(1);
    let batch = monte_carlo(&model, &cfg, &compiled, 8).unwrap();
    assert_eq!(batch.max_sb_peak(), 6);
    for (i, lane) in batch.runs.iter().enumerate() {
        let cfg = replica_cfg(&cfg, i, 0);
        let reference = evaluate(&model, &cfg, &interpreted).unwrap();
        let solo = evaluate(&model, &cfg, &compiled).unwrap();
        assert_same_times(&solo, &reference, &format!("replica {i} alone"));
        assert_same_times(lane, &reference, &format!("replica {i} as a lane"));
        assert_eq!((lane.steps, solo.steps), (reference.steps, reference.steps));
    }
}

#[test]
fn wildcard_recv_takes_earliest_arrival() {
    // Procs 1 and 2 send to proc 0 at different times; two wildcard
    // receives must complete in arrival order.
    let m = Model::new().with_stmt(Stmt::Runon {
        branches: vec![
            (
                e("procnum == 0"),
                vec![
                    recv("8", "0-1", "0"), // from = -1 → ANY
                    recv("8", "0-1", "0"),
                ],
            ),
            (e("procnum == 1"), vec![serial("2"), send("8", "1", "0")]),
            (e("procnum == 2"), vec![serial("1"), send("8", "2", "0")]),
        ],
    });
    let p = evaluate(&m, &EvalConfig::new(3), &fixed_timing(0.1)).unwrap();
    // First wildcard matches proc 2's message (arrival 1.1), second
    // matches proc 1's (arrival 2.1).
    assert!(
        (p.finish_times[0] - 2.1).abs() < 1e-9,
        "{:?}",
        p.finish_times
    );
}

#[test]
fn wildcard_respects_per_pair_fifo() {
    // One sender, two messages; wildcard receives must take them in
    // send order even though both have arrivals.
    let m = Model::new().with_stmt(Stmt::Runon {
        branches: vec![
            (
                e("procnum == 0"),
                vec![recv("8", "0-1", "0"), recv("8", "0-1", "0")],
            ),
            (
                e("procnum == 1"),
                vec![send("8", "1", "0"), send("8", "1", "0")],
            ),
        ],
    });
    let p = evaluate(&m, &EvalConfig::new(2), &fixed_timing(0.1)).unwrap();
    assert_eq!(p.messages, 2);
    assert!(p.makespan > 0.0);
}

#[test]
fn irecv_wait_overlaps_communication_with_compute() {
    // Blocking version: recv then compute — comm and compute serialise.
    let blocking = Model::new().with_stmt(runon2(
        "procnum == 0",
        vec![send("64", "0", "1")],
        "procnum == 1",
        vec![recv("64", "0", "1"), serial("0.5")],
    ));
    // Overlapped version: irecv, compute, wait.
    let overlapped = Model::new().with_stmt(runon2(
        "procnum == 0",
        vec![send("64", "0", "1")],
        "procnum == 1",
        vec![irecv("64", "0", "1", "h"), serial("0.5"), wait("h")],
    ));
    let timing = fixed_timing(0.3);
    let tb = evaluate(&blocking, &EvalConfig::new(2), &timing)
        .unwrap()
        .makespan;
    let to = evaluate(&overlapped, &EvalConfig::new(2), &timing)
        .unwrap()
        .makespan;
    // Blocking: 0.3 + 0.5 ≈ 0.8; overlapped: max(0.3, 0.5) ≈ 0.5.
    assert!((tb - 0.8).abs() < 0.02, "blocking {tb}");
    assert!((to - 0.5).abs() < 0.02, "overlapped {to}");
}

#[test]
fn irecv_respects_fifo_against_blocking_recv() {
    // Two messages; the irecv posted first reserves the first slot.
    let m = Model::new().with_stmt(runon2(
        "procnum == 0",
        vec![send("64", "0", "1"), send("64", "0", "1")],
        "procnum == 1",
        vec![
            irecv("64", "0", "1", "h1"),
            recv("64", "0", "1"),
            wait("h1"),
        ],
    ));
    let p = evaluate(&m, &EvalConfig::new(2), &fixed_timing(0.1)).unwrap();
    assert_eq!(p.messages, 2);
}

#[test]
fn wait_on_unbound_handle_is_model_error() {
    let m = Model::new().with_stmt(wait("nope"));
    let err = evaluate(&m, &EvalConfig::new(1), &fixed_timing(0.1)).unwrap_err();
    assert!(matches!(err, PevpmError::BadModel(_)), "{err}");
}

#[test]
fn duplicate_handle_is_model_error() {
    let m = Model::new().with_stmt(runon2(
        "procnum == 0",
        vec![send("8", "0", "1"), send("8", "0", "1")],
        "procnum == 1",
        vec![irecv("8", "0", "1", "h"), irecv("8", "0", "1", "h")],
    ));
    let err = evaluate(&m, &EvalConfig::new(2), &fixed_timing(0.1)).unwrap_err();
    assert!(matches!(err, PevpmError::BadModel(_)), "{err}");
}

#[test]
fn monte_carlo_aggregates_replications() {
    let mut table = DistTable::new();
    let samples: Vec<f64> = (0..500).map(|i| 0.01 + (i % 53) as f64 * 1e-4).collect();
    table.insert(
        DistKey {
            op: Op::Send,
            size: 64,
            contention: 1,
        },
        CommDist::Hist(pevpm_dist::Histogram::from_samples(&samples, 1e-4)),
    );
    let timing = TimingModel::distributions(table);
    let m = Model::new().with_stmt(runon2(
        "procnum == 0",
        vec![send("64", "0", "1")],
        "procnum == 1",
        vec![recv("64", "0", "1")],
    ));
    let mc = monte_carlo(&m, &EvalConfig::new(2).with_seed(7), &timing, 50).unwrap();
    assert_eq!(mc.runs.len(), 50);
    assert!(mc.min <= mc.mean && mc.mean <= mc.max);
    assert!(mc.stderr > 0.0, "stochastic timing must produce spread");
    assert!(mc.min < mc.max);
    // More replications shrink the standard error.
    let mc2 = monte_carlo(&m, &EvalConfig::new(2).with_seed(7), &timing, 400).unwrap();
    assert!(mc2.stderr < mc.stderr);
    // Deterministic overall.
    let mc3 = monte_carlo(&m, &EvalConfig::new(2).with_seed(7), &timing, 50).unwrap();
    assert_eq!(mc.mean, mc3.mean);
}

#[test]
fn monte_carlo_with_point_timing_has_zero_spread() {
    let m = Model::new().with_stmt(serial("1.0"));
    let mc = monte_carlo(&m, &EvalConfig::new(2), &fixed_timing(0.0), 5).unwrap();
    assert_eq!(mc.stderr, 0.0);
    assert_eq!(mc.min, mc.max);
}

#[test]
fn wildcard_race_is_reported() {
    // Both senders post before the receiver can match: two candidates
    // for one wildcard receive -> race report.
    let m = Model::new().with_stmt(Stmt::Runon {
        branches: vec![
            (
                e("procnum == 0"),
                vec![
                    serial("10"), // let both sends land first
                    labelled(recv("8", "0-1", "0"), "racy-recv"),
                    recv("8", "0-1", "0"),
                ],
            ),
            (e("procnum != 0"), vec![send("8", "procnum", "0")]),
        ],
    });
    let p = evaluate(&m, &EvalConfig::new(3), &fixed_timing(0.1)).unwrap();
    assert!(!p.races.is_empty(), "expected a race report");
    assert_eq!(p.races[0].0, 0);
    assert!(p.races[0].1.contains("racy-recv"), "{:?}", p.races);
    assert!(p.races[0].1.contains("2 candidate"), "{:?}", p.races);
}

#[test]
fn single_candidate_wildcard_is_not_a_race() {
    let m = Model::new().with_stmt(Stmt::Runon {
        branches: vec![
            (e("procnum == 0"), vec![recv("8", "0-1", "0")]),
            (e("procnum == 1"), vec![send("8", "1", "0")]),
        ],
    });
    let p = evaluate(&m, &EvalConfig::new(2), &fixed_timing(0.1)).unwrap();
    assert!(p.races.is_empty(), "{:?}", p.races);
}

#[test]
fn unbound_parameter_is_rejected() {
    let m = Model::new().with_stmt(serial("mystery"));
    let err = evaluate(&m, &EvalConfig::new(1), &fixed_timing(0.0)).unwrap_err();
    assert!(matches!(err, PevpmError::Expr(_)), "{err}");
}

#[test]
fn metrics_registry_records_engine_activity() {
    let registry = Arc::new(Registry::new());
    let m = Model::new().with_stmt(looped(
        "5",
        vec![runon2(
            "procnum == 0",
            vec![send("64", "0", "1")],
            "procnum == 1",
            vec![labelled(recv("64", "0", "1"), "ring-recv")],
        )],
    ));
    let cfg = EvalConfig::new(2).with_metrics(registry.clone());
    let p = evaluate(&m, &cfg, &fixed_timing(0.1)).unwrap();

    assert_eq!(registry.counter("vm.evaluations").get(), 1);
    assert_eq!(registry.counter("vm.steps").get(), p.steps);
    assert_eq!(registry.counter("vm.messages").get(), p.messages);
    assert!(registry.counter("vm.sweep_phases").get() > 0);
    assert!(registry.counter("vm.match_phases").get() > 0);
    let contention = registry.histogram("vm.contention_at_injection", 0.0, 1.0, 1);
    assert_eq!(contention.count(), p.messages, "one sample per injection");
    let occupancy = registry.histogram("vm.scoreboard_occupancy", 0.0, 1.0, 1);
    assert!(occupancy.count() > 0);
    // Loss attribution stays in the prediction: labels come from the
    // model, and a shared registry must not gain a name per directive.
    assert!(p.loss_by_label["ring-recv"] > 0.0);
    assert!(!registry.to_json().contains("ring-recv"));
}

#[test]
fn metrics_accumulate_across_monte_carlo_replicas() {
    let registry = Arc::new(Registry::new());
    let m = Model::new().with_stmt(runon2(
        "procnum == 0",
        vec![send("64", "0", "1")],
        "procnum == 1",
        vec![recv("64", "0", "1")],
    ));
    let cfg = EvalConfig::new(2)
        .with_metrics(registry.clone())
        .with_threads(2);
    let mc = monte_carlo(&m, &cfg, &fixed_timing(0.1), 8).unwrap();
    assert_eq!(registry.counter("vm.evaluations").get(), 8);
    assert_eq!(registry.counter("vm.steps").get(), mc.total_steps());
    assert_eq!(mc.max_sb_peak(), 1);
    assert!((mc.mean_steps() - mc.total_steps() as f64 / 8.0).abs() < 1e-12);
    assert_eq!(mc.profile.total_jobs(), 8);
}

/// Histogram spread, so lanes draw different times.
fn spread_timing() -> TimingModel {
    let samples: Vec<f64> = (0..200).map(|i| 1e-3 + (i % 41) as f64 * 1e-5).collect();
    let mut table = DistTable::new();
    table.insert(
        DistKey {
            op: Op::Send,
            size: 64,
            contention: 1,
        },
        CommDist::Hist(pevpm_dist::Histogram::from_samples(&samples, 2e-5)),
    );
    TimingModel::distributions(table)
}

fn ring(wildcard_tail: bool) -> Model {
    let mut m = Model::new().with_stmt(looped(
        "4",
        vec![
            send("64", "procnum", "(procnum + 1) % numprocs"),
            labelled(
                recv("64", "(procnum - 1) % numprocs", "procnum"),
                "ring-recv",
            ),
        ],
    ));
    if wildcard_tail {
        m = m.with_stmt(Stmt::Runon {
            branches: vec![
                (e("procnum == 0"), vec![recv("64", "0-1", "0")]),
                (e("procnum == 1"), vec![send("64", "1", "0")]),
            ],
        });
    }
    m
}

#[test]
fn lane_group_records_what_separate_evaluations_record() {
    // One lock-step group of eight must leave the registry exactly as
    // eight evaluations do — also when it stands down part-way (the
    // wildcard tail) and its replicas are evaluated again.
    let timing = spread_timing();
    for wildcard_tail in [false, true] {
        let model = ring(wildcard_tail);
        let lanes = Arc::new(Registry::new());
        let cfg = EvalConfig::new(3).with_seed(40).with_threads(1);
        let mc = monte_carlo(&model, &cfg.clone().with_metrics(lanes.clone()), &timing, 8).unwrap();
        let solo = Arc::new(Registry::new());
        for i in 0..8 {
            let c = replica_cfg(&cfg, i, 0).with_metrics(solo.clone());
            let p = evaluate(&model, &c, &timing).unwrap();
            assert_eq!(p.makespan.to_bits(), mc.runs[i].makespan.to_bits());
            let loss = |p: &Prediction| p.loss_by_label["ring-recv"].to_bits();
            assert_eq!(loss(&p), loss(&mc.runs[i]), "loss, replica {i}");
        }
        for name in [
            "vm.sweep_phases",
            "vm.match_phases",
            "vm.steps",
            "vm.evaluations",
            "vm.messages",
        ] {
            assert_eq!(
                lanes.counter(name).get(),
                solo.counter(name).get(),
                "{name}, wildcard tail {wildcard_tail}"
            );
        }
        assert_eq!(lanes.counter("vm.evaluations").get(), 8);
        for name in ["vm.contention_at_injection", "vm.scoreboard_occupancy"] {
            let (a, b) = (
                lanes.histogram(name, 0.0, 1.0, 1),
                solo.histogram(name, 0.0, 1.0, 1),
            );
            assert!(a.count() > 0, "{name} recorded nothing");
            assert_eq!(a.bin_counts(), b.bin_counts(), "{name}");
            assert_eq!(a.sum().to_bits(), b.sum().to_bits(), "{name} sum");
            assert_eq!((a.min(), a.max()), (b.min(), b.max()), "{name} range");
        }
    }
}

#[test]
fn poisoned_replica_stands_its_group_down_and_fails_alone() {
    // Replica 5's evaluation panics. The group of eight it sits in
    // cannot say whose draw it was, so it stands down; the one-lane
    // re-run attributes the panic, and the k-of-n quorum aggregates
    // the seven survivors — each still its own evaluation.
    let timing = spread_timing();
    let model = ring(false);
    let base = 0xD1CE_0000_0000;
    let _poisoned = poison::set(crate::replicate::replica_seed(base, 5));
    let cfg = EvalConfig::new(3).with_seed(base).with_threads(1);

    let mc = monte_carlo(&model, &cfg.clone().with_quorum(7), &timing, 8).unwrap();
    assert_eq!(mc.failures.len(), 1);
    let (index, what) = &mc.failures[0];
    assert_eq!(*index, 5);
    assert!(
        what.starts_with("replication 5 panicked: poisoned replica seed"),
        "{what}"
    );
    assert_eq!(mc.runs.len(), 7);
    assert_eq!(mc.profile.total_jobs(), 8);
    let survivors = (0..8).filter(|&i| i != 5);
    for (i, run) in survivors.zip(&mc.runs) {
        let solo = evaluate(&model, &replica_cfg(&cfg, i, 0), &timing).unwrap();
        assert_eq!(
            solo.makespan.to_bits(),
            run.makespan.to_bits(),
            "replica {i}"
        );
        assert_eq!(solo.finish_times, run.finish_times, "replica {i}");
    }

    // All-must-succeed and a quorum out of reach report it as before.
    match monte_carlo(&model, &cfg, &timing, 8).unwrap_err() {
        PevpmError::ReplicaPanic { index: 5, .. } => {}
        other => panic!("expected replica 5's panic, got {other}"),
    }
    match monte_carlo(&model, &cfg.clone().with_quorum(8), &timing, 8).unwrap_err() {
        PevpmError::QuorumFailed {
            succeeded: 7,
            required: 8,
            total: 8,
            first_failure,
        } => assert!(matches!(
            *first_failure,
            PevpmError::ReplicaPanic { index: 5, .. }
        )),
        other => panic!("expected QuorumFailed, got {other}"),
    }
}

#[test]
fn timeline_spans_tile_each_process_clock() {
    let m = Model::new().with_stmt(looped(
        "3",
        vec![runon2(
            "procnum == 0",
            vec![serial("0.5"), send("64", "0", "1")],
            "procnum == 1",
            vec![recv("64", "0", "1"), serial("0.2")],
        )],
    ));
    let p = evaluate(&m, &EvalConfig::new(2).with_timeline(), &fixed_timing(0.1)).unwrap();
    assert_eq!(p.timeline.len(), 2);
    for (proc_, spans) in p.timeline.iter().enumerate() {
        assert!(!spans.is_empty(), "proc {proc_} has no spans");
        let mut sum = 0.0;
        for s in spans {
            assert!(s.end >= s.start, "span {s:?} runs backwards");
            sum += s.end - s.start;
        }
        assert!(
            (sum - p.finish_times[proc_]).abs() < 1e-9,
            "proc {proc_}: spans sum to {sum}, finish {}",
            p.finish_times[proc_]
        );
    }
}

/// The whole text of the error `model` stops with on `nprocs` processes.
fn error_text(model: &Model, nprocs: usize, timing: &TimingModel) -> String {
    evaluate(model, &EvalConfig::new(nprocs), timing)
        .unwrap_err()
        .to_string()
}

#[test]
fn message_step_errors_keep_their_bytes() {
    let timing = fixed_timing(0.1);
    let irecv_without_handle = Stmt::Message {
        kind: MsgKind::Irecv,
        size: e("8"),
        from: e("0"),
        to: e("procnum"),
        handle: None,
        label: Some("post".to_string()),
    };
    let cases = [
        (
            labelled(send("8", "procnum", "procnum+1"), "ring"),
            2,
            "bad model: message endpoint out of range: from=1 to=2 (numprocs=2) \
             at Some(\"ring\")",
        ),
        (
            labelled(recv("8", "procnum+3", "procnum"), "halo"),
            2,
            "bad model: message endpoint out of range: from=3 to=0 (numprocs=2) \
             at Some(\"halo\")",
        ),
        (
            send("8", "procnum", "5"),
            2,
            "bad model: message endpoint out of range: from=0 to=5 (numprocs=2) at None",
        ),
        (
            labelled(send("8", "0", "1"), "s"),
            2,
            "bad model: proc 1 executing a send whose from=0 at Some(\"s\")",
        ),
        (
            labelled(recv("8", "0", "1"), "r"),
            2,
            "bad model: proc 0 executing a recv whose to=1 at Some(\"r\")",
        ),
        (
            labelled(irecv("8", "0", "1", "h"), "ir"),
            2,
            "bad model: proc 0 executing an irecv whose to=1 at Some(\"ir\")",
        ),
        // Only a blocking receive reads a negative source as a wildcard:
        // an irecv's fails as a process number.
        (
            labelled(irecv("8", "-1", "procnum", "h"), "any"),
            2,
            "expression error: expected a non-negative integer, got -1",
        ),
        (
            irecv_without_handle,
            1,
            "bad model: MPI_Irecv without a handle at Some(\"post\")",
        ),
    ];
    for (stmt, nprocs, want) in cases {
        let model = Model::new().with_stmt(stmt);
        assert_eq!(error_text(&model, nprocs, &timing), want);
    }
    let twice = Model::new().with_stmt(runon2(
        "procnum == 0",
        vec![send("8", "0", "1"), send("8", "0", "1")],
        "procnum == 1",
        vec![
            irecv("8", "0", "1", "h"),
            labelled(irecv("8", "0", "1", "h"), "again"),
        ],
    ));
    assert_eq!(
        error_text(&twice, 2, &timing),
        "bad model: proc 1: handle \"h\" already outstanding at Some(\"again\")"
    );
}

#[test]
fn missing_timing_errors_keep_their_bytes() {
    let empty = TimingModel::distributions(DistTable::new());
    let p2p = Model::new().with_stmt(runon2(
        "procnum == 0",
        vec![labelled(isend("96", "0", "1"), "out")],
        "procnum == 1",
        vec![recv("96", "0", "1")],
    ));
    assert_eq!(
        error_text(&p2p, 2, &empty),
        "timing model has no data for op=isend size=96"
    );
    let barrier = Model::new().with_stmt(collective(CollOp::Allreduce, "4 * numprocs"));
    assert_eq!(
        error_text(&barrier, 3, &empty),
        "timing model has no data for op=allreduce size=12"
    );
}
