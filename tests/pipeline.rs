//! End-to-end integration: MPIBench → benchmark database → (save/load) →
//! PEVPM prediction vs packet-level measurement, across crate boundaries.

use grove_pevpm::dist::{io, DistTable, Op};
use grove_pevpm::mpibench::{run_p2p, P2pConfig};
use grove_pevpm::mpisim::{World, WorldConfig};
use grove_pevpm::pevpm::model::build::*;
use grove_pevpm::pevpm::timing::TimingModel;
use grove_pevpm::pevpm::vm::{evaluate, EvalConfig};
use grove_pevpm::pevpm::Model;

/// Benchmark a 4-node cluster, persist the database, reload it, and use it
/// to predict a ping-pong program that is then actually executed.
#[test]
fn bench_save_load_predict_measure() {
    // 1. Benchmark.
    let bench = P2pConfig::perseus(4, 1, vec![512, 1024, 2048], 40, 17);
    let res = run_p2p(&bench).unwrap();
    let mut table = DistTable::new();
    res.add_to_table(&mut table, Op::Send, 80);

    // 2. Serialise and reload (the `.dist` text format).
    let text = io::write_table(&table);
    let reloaded = io::read_table(&text).unwrap();
    assert_eq!(table, reloaded);

    // 3. Predict a 100-round ping-pong between ranks 0 and 1.
    let rounds = 100;
    let model: Model = Model::new().with_stmt(looped(
        "rounds",
        vec![runon2(
            "procnum == 0",
            vec![send("1024", "0", "1"), recv("1024", "1", "0")],
            "procnum == 1",
            vec![recv("1024", "0", "1"), send("1024", "1", "0")],
        )],
    ));
    let timing = TimingModel::distributions(reloaded);
    let predicted = evaluate(
        &model,
        &EvalConfig::new(2).with_param("rounds", rounds as f64),
        &timing,
    )
    .unwrap()
    .makespan;

    // 4. Measure.
    let report = World::run_async(WorldConfig::perseus(4, 1, 17), async |rank| {
        if rank.rank() > 1 {
            return;
        }
        for i in 0..rounds {
            if rank.rank() == 0 {
                rank.send_size(1, i, 1024).await;
                let _ = rank.recv(1, i).await;
            } else {
                let _ = rank.recv(0, i).await;
                rank.send_size(0, i, 1024).await;
            }
        }
    })
    .unwrap();
    let measured = report.virtual_time.as_secs_f64();

    let err = (predicted - measured).abs() / measured;
    assert!(
        err < 0.05,
        "pipeline prediction off by {:.1}% (measured {measured}, predicted {predicted})",
        err * 100.0
    );
}

/// The same benchmark database must make contention *visible*: sampling at
/// a higher contention level yields systematically larger times.
#[test]
fn database_is_contention_indexed() {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let mut table = DistTable::new();
    for &(nodes, _seed) in &[(2usize, 1u64), (16, 2)] {
        let bench = P2pConfig::perseus(nodes, 1, vec![1024], 40, 23);
        let res = run_p2p(&bench).unwrap();
        res.add_to_table(&mut table, Op::Isend, 80);
    }
    let lo = table.mean_at(Op::Isend, 1024.0, 2.0).unwrap();
    let hi = table.mean_at(Op::Isend, 1024.0, 16.0).unwrap();
    assert!(hi > lo, "contention {lo} -> {hi} should grow");

    let mut rng = SmallRng::seed_from_u64(3);
    let mean_hi: f64 = (0..500)
        .map(|_| table.sample_at(Op::Isend, 1024.0, 16.0, &mut rng).unwrap())
        .sum::<f64>()
        / 500.0;
    assert!(
        (mean_hi - hi).abs() / hi < 0.05,
        "sampling mean {mean_hi} vs {hi}"
    );
}

/// Deterministic reproduction across the whole stack: same seeds, same
/// numbers — benchmark, measurement and prediction.
#[test]
fn full_stack_determinism() {
    let run_once = || {
        let bench = P2pConfig::perseus(4, 1, vec![1024], 20, 5);
        let res = run_p2p(&bench).unwrap();
        let mut table = DistTable::new();
        res.add_to_table(&mut table, Op::Send, 50);
        let model = Model::new().with_stmt(runon2(
            "procnum == 0",
            vec![send("1024", "0", "1")],
            "procnum == 1",
            vec![recv("1024", "0", "1")],
        ));
        let p = evaluate(
            &model,
            &EvalConfig::new(2).with_seed(9),
            &TimingModel::distributions(table),
        )
        .unwrap();
        p.makespan
    };
    assert_eq!(run_once(), run_once());
}
