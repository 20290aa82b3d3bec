//! Profiling harness for the VM + sampler hot path.
//!
//! Runs the 8-replication 64x2 Jacobi batch (the `tcost_eval_speed`
//! acceptance workload) under three timing models — analytic Hockney
//! (VM-core floor), compiled sampler tables, and the interpreted
//! `DistTable` baseline — printing wall time, mean makespan,
//! evaluations/sec and nanoseconds per message (batch wall over the
//! messages of all its replications) for each, then the per-message
//! cost of the Hockney floor and of the compiled table, the Hockney
//! floor's nanoseconds per step, and, for the ring table's hot cell (the
//! halo size at its measured contention level), nanoseconds per lane
//! inversion and the share of its guide cells that lie inside one bin
//! (the lanes that invert with one probe). It asserts the seed-11
//! compiled mean bitwise (0.6487360493288068), 8 674 048 steps per batch
//! under every model, and a bitwise-equal interpreted mean — counts and
//! bits, never timings; Hockney isolates VM cost from sampling cost.
//!
//! `cargo run --release -p pevpm-bench --example profile_eval -- [TRIALS]`
//! (default 2 trials per model); point a profiler at
//! `target/release/examples/profile_eval` (e.g. `gprofng collect app -o
//! prof.er target/release/examples/profile_eval`).

use pevpm::timing::TimingModel;
use pevpm::vm::{monte_carlo, EvalConfig};
use pevpm_apps::jacobi::{self, JacobiConfig};
use pevpm_bench::fig6;
use pevpm_dist::{CellParts, CompiledDist, CompiledTable, DistKey, Op};
use pevpm_mpibench::MachineShape;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 11;
/// The seed-11 batch mean, pinned bitwise (the `predict_64x2` gate).
const MEAN: f64 = 0.6487360493288068;
/// Directive executions of one batch, whatever the timing model.
const STEPS: u64 = 8_674_048;

fn main() {
    let trials: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("TRIALS is a count of batches"))
        .unwrap_or(2);
    assert!(trials > 0, "at least one trial per model");
    let jacobi_cfg = JacobiConfig {
        xsize: 256,
        iterations: 1000,
        serial_secs: 3.24e-3,
    };
    let shape = MachineShape { nodes: 64, ppn: 2 };
    let table = fig6::shape_table(shape, &fig6::jacobi_sizes(&jacobi_cfg), 30, SEED);
    let hot = DistKey {
        op: Op::Send,
        size: jacobi_cfg.halo_bytes(),
        contention: *table
            .contentions(Op::Send)
            .last()
            .expect("the ring table measures sends"),
    };
    let compiled = CompiledTable::compile(&table).expect("the ring table compiles");
    let model = jacobi::model(&jacobi_cfg);
    let nprocs = 128;
    let variants: Vec<(&str, TimingModel)> = vec![
        ("hockney    ", TimingModel::hockney(8.4e-6, 320e6)),
        ("compiled   ", TimingModel::distributions(table.clone())),
        ("interpreted", TimingModel::interpreted(table)),
    ];
    // Per model: its mean and its best nanoseconds per message.
    let mut results = Vec::new();
    for (name, timing) in &variants {
        let mut best = f64::INFINITY;
        let mut best_wall = f64::INFINITY;
        let mut mean = f64::NAN;
        for trial in 0..trials {
            let t = Instant::now();
            let mc = monte_carlo(
                &model,
                &EvalConfig::new(nprocs).with_seed(SEED).with_threads(1),
                timing,
                8,
            )
            .unwrap();
            let wall = t.elapsed().as_secs_f64();
            let messages: u64 = mc.runs.iter().map(|run| run.messages).sum();
            let ns = 1e9 * wall / messages as f64;
            println!(
                "{name} trial {trial}: wall={wall:.3}s mean={:.6} evals/s={:.2} \
                 ns/message={ns:.1}",
                mc.mean, mc.evals_per_sec
            );
            assert_eq!(mc.total_steps(), STEPS, "{name}: steps per batch");
            best = best.min(ns);
            best_wall = best_wall.min(wall);
            mean = mc.mean;
        }
        results.push((name.trim_end(), mean, best, best_wall));
    }
    for (name, _, ns, _) in &results[..2] {
        println!("{name}: {ns:.1} ns/message (best of {trials})");
    }
    println!(
        "hockney: {:.1} ns/step (best of {trials})",
        results[0].3 * 1e9 / STEPS as f64
    );
    hot_cell(&compiled, hot);
    let (compiled, interpreted) = (results[1].1, results[2].1);
    assert_eq!(
        compiled.to_bits(),
        MEAN.to_bits(),
        "seed-{SEED} compiled mean {compiled} != pinned {MEAN}"
    );
    assert_eq!(
        compiled.to_bits(),
        interpreted.to_bits(),
        "compiled {compiled} and interpreted {interpreted} means differ"
    );
}

/// Nanoseconds per lane inversion of the hot cell, eight lanes at a time
/// from fresh parts (as a message's first pricing does), and the share of
/// its guide cells inside one bin.
fn hot_cell(compiled: &CompiledTable, hot: DistKey) {
    const DRAWS: usize = 1 << 20;
    let share = match compiled.cell(hot) {
        Some(CompiledDist::Hist(h)) => h.single_bin_share(),
        other => panic!("the hot cell {hot:?} is a histogram, not {other:?}"),
    };
    let cell = compiled
        .resolve(hot.op, hot.size as f64, f64::from(hot.contention))
        .expect("the hot cell resolves");
    let mut rng = SmallRng::seed_from_u64(SEED);
    let draws: Vec<[f64; 8]> = (0..DRAWS / 8)
        .map(|_| std::array::from_fn(|_| rng.gen()))
        .collect();
    let t = Instant::now();
    let mut sum = 0.0;
    for u in &draws {
        sum += cell.quantiles(black_box(u), &mut CellParts::default())[7];
    }
    let ns = 1e9 * t.elapsed().as_secs_f64() / DRAWS as f64;
    black_box(sum);
    println!(
        "hot cell {:?} {} B at contention {}: {ns:.1} ns/lane inversion, \
         {:.1}% of guide cells single-bin",
        hot.op,
        hot.size,
        hot.contention,
        100.0 * share
    );
}
