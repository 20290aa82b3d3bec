//! Pins of the MPIBench recipe: how a benchmark run is configured
//! (warmup, barrier resync, clock, pattern, direction) and binned into a
//! database, through every builder that reaches it.
//!
//! PEVPM samples from these tables, so a change to the recipe moves every
//! prediction. Each value was recorded before the recipe was gathered into
//! one constructor and one bin count; do not re-record them to make a
//! change pass. Inputs are literal on purpose: a pin must not read them
//! from the code it pins.

use pevpm_apps::jacobi::JacobiConfig;
use pevpm_bench::robustness::{self, GridPoint, RobustnessConfig};
use pevpm_bench::{ablate, fig6, figs34};
use pevpm_dist::{io::write_table, DistTable, Op};
use pevpm_mpibench::{run_sweep_threads, MachineShape, SweepConfig};

/// 64-bit FNV-1a over the bytes of a `.dist` table.
fn table_fnv(table: &DistTable) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in write_table(table).as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[test]
fn fig6_ring_table() {
    let table = fig6::shape_table(
        MachineShape { nodes: 4, ppn: 1 },
        &[512, 1024, 2048],
        10,
        11,
    );
    assert_eq!(table_fnv(&table), "4a691c4f98b340f6");
}

#[test]
fn oneway_table_under_two_ops() {
    let table = fig6::oneway_table_ops(&[256, 1024, 4096], 10, 11, &[Op::Send, Op::Isend]);
    assert_eq!(table_fnv(&table), "b704b809e3519e88");
}

#[test]
fn robustness_report_with_a_clean_and_a_faulted_point() {
    let cfg = RobustnessConfig {
        shape: MachineShape { nodes: 4, ppn: 1 },
        jacobi: JacobiConfig {
            xsize: 64,
            iterations: 20,
            serial_secs: 1e-4,
        },
        bench_reps: 10,
        mc_reps: 2,
        seed: 7,
        grid: vec![
            GridPoint {
                loss_prob: 0.0,
                rate_factor: 1.0,
            },
            GridPoint {
                loss_prob: 0.01,
                rate_factor: 0.5,
            },
        ],
    };
    let json = robustness::to_json(&robustness::run(&cfg), None);
    let expected = concat!(
        "{\n",
        "  \"shape\": \"4x1\",\n",
        "  \"baseline\": {\"predicted_mean\": 0.007613011539179654, \"measured_secs\": 0.007289803},\n",
        "  \"grid\": [\n",
        "    {\"loss_prob\": 0, \"rate_factor\": 1, \"measured_secs\": 0.007289803, \"clean_pred_mean\": 0.007613011539179654, \"degraded_pred_mean\": 0.007613011539179654, \"clean_err\": 0.04433707456561641, \"degraded_err\": 0.04433707456561641, \"injected_losses\": 0, \"flap_drops\": 0, \"retransmissions\": 0},\n",
        "    {\"loss_prob\": 0.01, \"rate_factor\": 0.5, \"measured_secs\": 0.764418836, \"clean_pred_mean\": 0.007613011539179654, \"degraded_pred_mean\": 0.7168314860968247, \"clean_err\": -0.9900407849981607, \"degraded_err\": -0.06225297920729856, \"injected_losses\": 3, \"flap_drops\": 0, \"retransmissions\": 3}\n",
        "  ]\n",
        "}\n",
    );
    assert_eq!(json, expected, "{json}");
}

#[test]
fn figs34_histogram_bins() {
    let series = figs34::run(&figs34::PdfConfig {
        nodes: 4,
        ppn: 1,
        sizes: vec![256, 1024],
        repetitions: 10,
        seed: 3,
        bins: 8,
    });
    let text: Vec<String> = series
        .iter()
        .map(|s| {
            format!(
                "{} {:016x} {:016x} {:?}",
                s.size,
                s.hist.origin().to_bits(),
                s.hist.bin_width().to_bits(),
                s.hist.counts()
            )
        })
        .collect();
    assert_eq!(
        text,
        [
            "256 3f20d2d876f17060 3ecbf0ffe5868b00 [5, 13, 12, 6, 1, 2, 0, 0, 1]",
            "1024 3f3090a4860f56c0 3ebf4aa69feffe00 [5, 9, 5, 5, 9, 2, 4, 0, 1]",
        ],
        "{}",
        text.join("\n")
    );
}

#[test]
fn clock_ablation_means_and_ks() {
    let rows = ablate::run_clock(4, 512, &[0.0, 1e-4], 10, 5);
    let text: Vec<String> = rows
        .iter()
        .map(|r| format!("{:016x} {:016x}", r.mean.to_bits(), r.ks.to_bits()))
        .collect();
    assert_eq!(
        text,
        [
            "3f27679ca6a739b8 0000000000000000",
            "3f27679ca6a739b9 3fe0000000000000",
        ],
        "{}",
        text.join("\n")
    );
}

#[test]
fn serial_sweep_table() {
    let cfg = SweepConfig {
        shapes: vec![
            MachineShape { nodes: 2, ppn: 1 },
            MachineShape { nodes: 4, ppn: 1 },
        ],
        sizes: vec![256, 1024],
        repetitions: 8,
        seed: 5,
        bins: 100,
    };
    let res = run_sweep_threads(&cfg, 1).unwrap();
    assert_eq!(table_fnv(&res.table), "2dcd57ae528bc45d");
}
