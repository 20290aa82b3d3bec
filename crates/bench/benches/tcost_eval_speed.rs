//! T-cost: PEVPM evaluation cost vs actual (packet-level) execution —
//! the paper's "67.5 times its actual execution speed" claim.
//!
//! Run with `cargo bench -p pevpm-bench --bench tcost_eval_speed`. Every
//! other timing figure (evaluation rate, sampler cost, DAG and replication
//! speed-up) is measured by the benchmark under `perf/`.

use pevpm_apps::jacobi::JacobiConfig;
use pevpm_bench::tcost;
use pevpm_mpibench::MachineShape;

fn main() {
    let jacobi = JacobiConfig {
        xsize: 256,
        iterations: 1000,
        serial_secs: 3.24e-3,
    };
    let shapes = [
        MachineShape { nodes: 8, ppn: 1 },
        MachineShape { nodes: 32, ppn: 1 },
        MachineShape { nodes: 64, ppn: 1 },
        MachineShape { nodes: 64, ppn: 2 },
    ];
    eprintln!("[tcost] timing PEVPM evaluation vs packet-level execution...");
    let results: Vec<_> = shapes
        .iter()
        .map(|&s| tcost::run(s, &jacobi, 30, 8, 11))
        .collect();
    println!("T-cost: model evaluation cost (1000-iteration Jacobi)\n");
    println!("{}", tcost::render(&results));
    println!(
        "paper: the prototype PEVPM evaluated 11h15m of processor time in ~10 min (67.5x \
         real time) on one Perseus CPU; 'vs-realtime' is the equivalent figure here."
    );
}
