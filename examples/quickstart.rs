//! Quickstart: the full MPIBench → PEVPM pipeline in one small program.
//!
//! 1. Benchmark point-to-point communication on a simulated 8-node
//!    Perseus-like cluster with MPIBench (per-message times on the global
//!    clock → probability distributions).
//! 2. Build a PEVPM model of a ping-pong program and predict its running
//!    time by Monte-Carlo sampling from those distributions.
//! 3. Actually run the equivalent program on the simulated cluster and
//!    compare.
//!
//! Run with `cargo run --release --example quickstart`.

use pevpm::model::build::*;
use pevpm::timing::TimingModel;
use pevpm::vm::{evaluate, EvalConfig};
use pevpm::Model;
use pevpm_dist::{DistTable, Op};
use pevpm_mpibench::{run_p2p, P2pConfig};
use pevpm_mpisim::{World, WorldConfig};

fn main() {
    // --- 1. MPIBench: measure communication-time distributions ----------
    let rounds = 200;
    let bench = P2pConfig::perseus(8, 1, vec![512, 1024, 2048], 80, 42);
    let res = run_p2p(&bench).expect("benchmark failed");
    let mut table = DistTable::new();
    res.add_to_table(&mut table, Op::Send, 100);
    let s = &res.by_size[1]; // 1024 B
    println!(
        "MPIBench @ 8x1, 1 KiB: min {:.1}us avg {:.1}us max {:.1}us over {} messages",
        s.summary.min().unwrap() * 1e6,
        s.summary.mean().unwrap() * 1e6,
        s.summary.max().unwrap() * 1e6,
        s.samples.len()
    );

    // --- 2. PEVPM: model + predict ---------------------------------------
    let model: Model = Model::new().with_stmt(looped(
        "rounds",
        vec![runon2(
            "procnum == 0",
            vec![send("1024", "0", "1"), recv("1024", "1", "0")],
            "procnum == 1",
            vec![recv("1024", "0", "1"), send("1024", "1", "0")],
        )],
    ));
    let timing = TimingModel::distributions(table);
    let prediction = evaluate(
        &model,
        &EvalConfig::new(2).with_param("rounds", rounds as f64),
        &timing,
    )
    .expect("prediction failed");
    println!(
        "PEVPM predicts {} rounds of 1 KiB ping-pong take {:.3} ms",
        rounds,
        prediction.makespan * 1e3
    );

    // --- 3. Ground truth: run the real program ---------------------------
    let report = World::run_async(WorldConfig::perseus(8, 1, 42), async |rank| {
        if rank.rank() > 1 {
            return; // only ranks 0 and 1 participate
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
    .expect("run failed");
    let measured = report.virtual_time.as_secs_f64();
    println!("Measured execution: {:.3} ms", measured * 1e3);
    println!(
        "Prediction error: {:+.1}%",
        (prediction.makespan - measured) / measured * 100.0
    );
}
