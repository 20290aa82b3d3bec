//! Pins of Figure 6's four timing models: the full distributions and
//! averages of the matched `n×p` table, and the averages and minima of the
//! `2×1` ping-pong slice, each driving a 30-iteration Jacobi model through
//! one `evaluate` and a 10-replication `monte_carlo` batch.
//!
//! The values are the bits of the makespan and of the batch mean, recorded
//! before the baselines were moved onto the distribution sampler; do not
//! re-record them to make a change pass. Inputs are literal on purpose: a
//! pin must not read them from the code it pins.

use pevpm::vm::{evaluate, monte_carlo, EvalConfig};
use pevpm_apps::jacobi::{self, JacobiConfig};
use pevpm_bench::fig6;
use pevpm_mpibench::MachineShape;

/// `(mode, evaluate makespan bits, monte_carlo mean bits)` for every
/// Figure 6 timing model on `nodes × ppn`.
fn model_bits(nodes: usize, ppn: usize) -> Vec<(String, String, String)> {
    let jcfg = JacobiConfig {
        xsize: 64,
        iterations: 30,
        serial_secs: 3.24e-3,
    };
    let sizes = [128, 256, 512];
    let matched = fig6::shape_table(MachineShape { nodes, ppn }, &sizes, 10, 21);
    let pingpong = fig6::shape_table(MachineShape { nodes: 2, ppn: 1 }, &sizes, 10, 22);
    let model = jacobi::model(&jcfg);
    let cfg = EvalConfig::new(nodes * ppn).with_seed(5).with_threads(1);
    fig6::timing_models(&matched, &pingpong)
        .into_iter()
        .map(|(mode, timing)| {
            let single = evaluate(&model, &cfg, &timing).expect("evaluate").makespan;
            let mc = monte_carlo(&model, &cfg, &timing, 10)
                .expect("monte_carlo")
                .mean;
            (
                mode,
                format!("{:016x}", single.to_bits()),
                format!("{:016x}", mc.to_bits()),
            )
        })
        .collect()
}

fn check(nodes: usize, ppn: usize, expected: [(&str, &str, &str); 4]) {
    let got = model_bits(nodes, ppn);
    let got: Vec<(&str, &str, &str)> = got
        .iter()
        .map(|(m, s, mc)| (m.as_str(), s.as_str(), mc.as_str()))
        .collect();
    assert_eq!(got, expected, "{nodes}x{ppn}");
}

#[test]
fn fig6_models_on_4x2() {
    check(
        4,
        2,
        [
            ("dist-nxp", "3f95d61613358b07", "3f95c1e8ed7a2a23"),
            ("avg-nxp", "3f94ba0bbcaa8ed5", "3f94ba0bbcaa8ed5"),
            ("avg-2x1", "3f9751f20e187d32", "3f9751f20e187d32"),
            ("min-2x1", "3f96b006ccaf91e5", "3f96b006ccaf91e5"),
        ],
    );
}

#[test]
fn fig6_models_on_8x1() {
    check(
        8,
        1,
        [
            ("dist-nxp", "3f978e496b531a9f", "3f9784a329333c52"),
            ("avg-nxp", "3f976134789e08eb", "3f976134789e08eb"),
            ("avg-2x1", "3f9751f20e187d32", "3f9751f20e187d32"),
            ("min-2x1", "3f96b006ccaf91e5", "3f96b006ccaf91e5"),
        ],
    );
}
