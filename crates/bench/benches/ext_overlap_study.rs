//! Ext-overlap: the design-stage use case of §1 — decide between two
//! implementations *before writing them* by comparing their PEVPM models,
//! then validate against real implementations of both.
//!
//! Variant A: the paper's phased Jacobi (blocking halo exchange).
//! Variant B: overlap-optimised Jacobi (irecv/isend, interior compute
//! overlapping the transfers, waits before the boundary rows).
//!
//! Run with `cargo bench -p pevpm-bench --bench ext_overlap_study`.

use pevpm::timing::TimingModel;
use pevpm::vm::{evaluate, EvalConfig};
use pevpm_apps::jacobi::{self, JacobiConfig};
use pevpm_bench::fig6::{jacobi_sizes, shape_table};
use pevpm_bench::report;
use pevpm_mpibench::MachineShape;
use pevpm_mpisim::WorldConfig;

fn main() {
    let cfg = JacobiConfig {
        xsize: 256,
        iterations: 200,
        serial_secs: 3.24e-3,
    };
    eprintln!("[overlap] phased vs overlapped Jacobi, predicted and measured...");

    let mut rows = Vec::new();
    for nodes in [4usize, 8, 16, 32, 64] {
        let shape = MachineShape { nodes, ppn: 1 };
        let table = shape_table(shape, &jacobi_sizes(&cfg), 40, 13);
        let timing = TimingModel::distributions(table);

        let pred_phased = evaluate(&jacobi::model(&cfg), &EvalConfig::new(nodes), &timing)
            .unwrap()
            .makespan;
        let pred_overlap = evaluate(
            &jacobi::model_overlap(&cfg),
            &EvalConfig::new(nodes),
            &timing,
        )
        .unwrap()
        .makespan;

        let meas_phased = jacobi::run_measured(WorldConfig::perseus(nodes, 1, 13), &cfg)
            .unwrap()
            .time;
        let meas_overlap = jacobi::run_measured_overlap(WorldConfig::perseus(nodes, 1, 13), &cfg)
            .unwrap()
            .time;

        rows.push(vec![
            format!("{nodes}x1"),
            report::secs(meas_phased),
            report::secs(meas_overlap),
            format!("{:.1}%", (1.0 - meas_overlap / meas_phased) * 100.0),
            report::secs(pred_phased),
            report::secs(pred_overlap),
            format!("{:.1}%", (1.0 - pred_overlap / pred_phased) * 100.0),
        ]);
    }
    println!("Ext-overlap: phased vs overlap-optimised Jacobi (200 iterations)\n");
    println!(
        "{}",
        report::table(
            &[
                "shape",
                "meas-phased",
                "meas-overlap",
                "meas-gain",
                "pred-phased",
                "pred-overlap",
                "pred-gain"
            ],
            &rows
        )
    );
    println!(
        "PEVPM's predicted gain from overlapping communication with computation should\n\
         match the measured gain in sign and rough magnitude — the design-stage\n\
         decision (\"is the overlap rewrite worth it?\") is answered without writing\n\
         the second implementation."
    );
}
