//! Profiling harness for the VM + sampler hot path.
//!
//! Runs the 8-replication 64x2 Jacobi batch (the `tcost_eval_speed`
//! acceptance workload) under three timing models — analytic Hockney
//! (VM-core floor), compiled sampler tables, and the interpreted
//! `DistTable` baseline — printing wall time, mean makespan,
//! evaluations/sec and nanoseconds per message (batch wall over the
//! messages of all its replications) for each, then the per-message
//! cost of the Hockney floor and of the compiled table. It asserts the
//! seed-11 compiled mean bitwise (0.6487360493288068), 8 674 048 steps
//! per batch under every model, and a bitwise-equal interpreted mean;
//! Hockney isolates VM cost from sampling cost.
//!
//! `cargo run --release -p pevpm-bench --example profile_eval -- [TRIALS]`
//! (default 2 trials per model); point a profiler at
//! `target/release/examples/profile_eval` (e.g. `gprofng collect app -o
//! prof.er target/release/examples/profile_eval`).

use pevpm::timing::TimingModel;
use pevpm::vm::{monte_carlo, EvalConfig};
use pevpm_apps::jacobi::{self, JacobiConfig};
use pevpm_bench::fig6;
use pevpm_mpibench::MachineShape;
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
    let table = fig6::shape_table(
        shape,
        &[
            jacobi_cfg.halo_bytes() / 2,
            jacobi_cfg.halo_bytes(),
            jacobi_cfg.halo_bytes() * 2,
        ],
        30,
        SEED,
    );
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
            mean = mc.mean;
        }
        results.push((name.trim_end(), mean, best));
    }
    for (name, _, ns) in &results[..2] {
        println!("{name}: {ns:.1} ns/message (best of {trials})");
    }
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
