//! What-if study: how would the Jacobi application scale if Perseus's
//! Fast Ethernet were replaced by gigabit Ethernet or a low-latency
//! (Myrinet-class) interconnect?
//!
//! This exercises the paper's flexibility claim (§6): a PEVPM model is
//! symbolic in its machine inputs, so the *same* Jacobi model re-evaluates
//! against benchmark databases from any machine — here, MPIBench runs on
//! simulated variants of the cluster and the predictions are compared.
//!
//! The comparison uses the adaptive statistics engine end to end:
//!
//! - every arm replicates until the 95% CI on its mean makespan is
//!   within ±1% (`AdaptivePolicy`), with antithetic seed pairing to
//!   cancel symmetric sampling noise;
//! - all arms of a row share one base seed — common random numbers —
//!   so the *difference* between machines is measured on paired noise
//!   and machine-to-machine deltas are not drowned by draw-to-draw
//!   luck. The closing section quantifies what that pairing buys.
//!
//! Run with `cargo run --release --example whatif_upgrade`.

use pevpm::stats::AdaptivePolicy;
use pevpm::timing::TimingModel;
use pevpm::vm::{monte_carlo, EvalConfig, McPrediction};
use pevpm_apps::jacobi::{self, JacobiConfig};
use pevpm_bench::fig6::jacobi_sizes;
use pevpm_dist::{DistTable, Op, Summary};
use pevpm_mpibench::{run_p2p, P2pConfig, PairPattern, HIST_BINS};
use pevpm_mpisim::{ClusterConfig, WorldConfig};

/// A 50-repetition MPIBench ring database of `machine` (one of
/// `ClusterConfig::MACHINES`) at `nodes × 1`.
fn machine_table(machine: &str, nodes: usize, sizes: &[u64]) -> DistTable {
    let cluster = ClusterConfig::named(machine, nodes).expect("a known machine");
    let world = WorldConfig::new(cluster, 1, 42 + nodes as u64);
    let res = run_p2p(&P2pConfig {
        warmup: 5,
        pattern: PairPattern::Ring,
        ..P2pConfig::new(world, sizes.to_vec(), 50)
    })
    .expect("benchmark failed");
    let mut table = DistTable::new();
    res.add_to_table(&mut table, Op::Send, HIST_BINS);
    table
}

/// One arm of the what-if comparison: adaptive antithetic Monte-Carlo at
/// a caller-chosen base seed (arms of a row pass the same seed — CRN).
fn arm(table: DistTable, model: &pevpm::model::Model, nodes: usize, seed: u64) -> McPrediction {
    let policy = AdaptivePolicy::new(0.01).with_min_reps(4).with_max_reps(64);
    let timing = TimingModel::distributions(table);
    let cfg = EvalConfig::new(nodes)
        .with_seed(seed)
        .with_adaptive(policy)
        .with_antithetic();
    monte_carlo(model, &cfg, &timing, policy.max_reps).expect("prediction failed")
}

fn main() {
    let cfg = JacobiConfig {
        xsize: 256,
        iterations: 200,
        serial_secs: 3.24e-3,
    };
    let sizes = jacobi_sizes(&cfg);
    let model = jacobi::model(&cfg);
    let t_serial = cfg.iterations as f64 * cfg.serial_secs;

    println!("What-if: Jacobi speedup under alternative interconnects");
    println!("(same PEVPM model; per-machine MPIBench databases; every arm");
    println!("replicated adaptively to ±1% at 95% confidence, antithetic");
    println!("pairing on, common random numbers across the arms of a row)\n");
    println!(
        "{:<7} {:>17} {:>17} {:>17}   reps",
        "procs", "fast-ethernet", "gigabit", "low-latency"
    );

    for nodes in [2usize, 4, 8, 16, 32, 64] {
        let mut row = format!("{nodes:<7}");
        let mut reps = Vec::new();
        for machine in ["perseus", "gigabit", "lowlatency"] {
            let table = machine_table(machine, nodes, &sizes);
            // Same base seed for every machine: the arms draw paired
            // noise, so their speedup gap is a paired comparison.
            let mc = arm(table, &model, nodes, 7);
            let report = mc.adaptive.as_ref().expect("adaptive report");
            let half = report.rel_half_width * t_serial / mc.mean;
            row.push_str(&format!(" {:>9.2}x ±{:>4.2}", t_serial / mc.mean, half));
            reps.push(report.reps.to_string());
        }
        println!("{row}   {}", reps.join("/"));
    }

    // What does pairing buy? Measure the gigabit-vs-fast-ethernet
    // speedup *difference* at 16 nodes over a grid of base seeds, once
    // with the arms sharing each seed (CRN) and once with deliberately
    // mismatched seeds. The paired difference is the same quantity with
    // far less spread — the reason the serve daemon's batch op exposes
    // `crn: true`.
    let nodes = 16usize;
    let fe = machine_table("perseus", nodes, &sizes);
    let ge = machine_table("gigabit", nodes, &sizes);
    let mut paired = Summary::new();
    let mut independent = Summary::new();
    for s in 0..12u64 {
        let seed = 1000 + s;
        let fe_mc = arm(fe.clone(), &model, nodes, seed);
        let ge_crn = arm(ge.clone(), &model, nodes, seed);
        let ge_own = arm(ge.clone(), &model, nodes, seed + 7000);
        paired.add(t_serial / ge_crn.mean - t_serial / fe_mc.mean);
        independent.add(t_serial / ge_own.mean - t_serial / fe_mc.mean);
    }
    let sd = |s: &Summary| s.sample_variance().unwrap_or(0.0).sqrt();
    println!(
        "\nCRN payoff at {nodes} nodes (gigabit minus fast-ethernet speedup, 12 seeds):\n\
         paired arms (shared seed):   {:+.3}x ± {:.4}\n\
         independent arms:            {:+.3}x ± {:.4}\n\
         same estimate, {:.0}x less spread — fewer replications for the same answer.",
        paired.mean().unwrap_or(0.0),
        sd(&paired),
        independent.mean().unwrap_or(0.0),
        sd(&independent),
        (sd(&independent) / sd(&paired).max(1e-12)).max(1.0),
    );

    println!(
        "\nreading: the 256^2 Jacobi saturates early on Fast Ethernet; gigabit moves the\n\
         knee out; the low-latency fabric keeps scaling because small-message software\n\
         overhead — not bandwidth — dominates the halo exchange."
    );
}
