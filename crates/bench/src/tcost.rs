//! T-cost: the paper's model-evaluation-cost claim (§6).
//!
//! "The 11 hours and 15 minutes of processor time consumed by actually
//! running the Jacobi Iteration program on Perseus were simulated in just
//! under 10 minutes by our prototype PEVPM implementation running on just
//! one processor … about 67.5 times its actual execution speed."
//!
//! Here we report two ratios:
//!
//! - **PEVPM vs virtual time**: simulated program-seconds evaluated per
//!   wall-clock second by the PEVPM engine (the paper's 67.5× figure —
//!   except our Rust implementation is far faster than their prototype);
//! - **PEVPM vs packet simulation**: PEVPM evaluation wall time vs the
//!   packet-level `mpisim` execution wall time for the same program — the
//!   relevant cost comparison inside this reproduction.
//!
//! Because PEVPM evaluation is Monte-Carlo (§6: "many iterations are
//! needed to give an accurate average"), the cost experiment runs a full
//! replication batch per shape and aggregates the engine counters across
//! replicas: `steps` sums over replications, `sb_peak` is the worst peak
//! any replication saw, and the wall-time ratios use the *per-evaluation*
//! mean so they stay comparable with a single measured execution.

use pevpm::replicate::ReplicateProfile;
use pevpm::timing::TimingModel;
use pevpm::vm::{monte_carlo, EvalConfig};
use pevpm_apps::jacobi::{self, JacobiConfig};
use pevpm_mpibench::MachineShape;
use pevpm_mpisim::WorldConfig;
use std::time::Instant;

/// Result of the evaluation-cost experiment.
#[derive(Debug, Clone)]
pub struct CostResult {
    /// Machine shape evaluated.
    pub shape: MachineShape,
    /// Monte-Carlo replications in the PEVPM batch.
    pub reps: usize,
    /// Virtual (simulated program) time of the run, in seconds.
    pub virtual_secs: f64,
    /// Wall-clock seconds for the whole PEVPM replication batch.
    pub pevpm_wall: f64,
    /// Wall-clock seconds for the packet-level measured execution.
    pub mpisim_wall: f64,
    /// Directive executions swept across *all* replications.
    pub steps: u64,
    /// Mean directive executions per replication.
    pub mean_steps: f64,
    /// Worst contention-scoreboard peak seen by any replication.
    pub sb_peak: usize,
    /// How the replication batch spread over worker threads.
    pub profile: ReplicateProfile,
}

impl CostResult {
    /// Mean wall-clock seconds for a single PEVPM evaluation.
    pub fn pevpm_eval_wall(&self) -> f64 {
        self.pevpm_wall / self.reps.max(1) as f64
    }

    /// Simulated seconds per PEVPM wall second — the paper's "times its
    /// actual execution speed" metric, counting all processors
    /// (processor-seconds the way the paper's 11h15m figure does). Uses
    /// the per-evaluation mean wall time so the figure describes one
    /// evaluation, not the whole replication batch.
    pub fn realtime_factor(&self) -> f64 {
        let procs = (self.shape.nodes * self.shape.ppn) as f64;
        self.virtual_secs * procs / self.pevpm_eval_wall().max(1e-12)
    }

    /// How much faster one PEVPM evaluation is than one packet-level
    /// simulated execution.
    pub fn vs_packet_sim(&self) -> f64 {
        self.mpisim_wall / self.pevpm_eval_wall().max(1e-12)
    }

    /// Directive executions per wall-clock second across the batch — the
    /// engine's raw sweep rate, independent of how much virtual time each
    /// directive covers.
    pub fn steps_per_sec(&self) -> f64 {
        self.steps as f64 / self.pevpm_wall.max(1e-12)
    }
}

/// Run the cost comparison for one shape: an `mc_reps`-replication PEVPM
/// Monte-Carlo batch against a single packet-level execution.
pub fn run(
    shape: MachineShape,
    jacobi_cfg: &JacobiConfig,
    bench_reps: usize,
    mc_reps: usize,
    seed: u64,
) -> CostResult {
    let table = crate::fig6::shape_table(
        shape,
        &[
            jacobi_cfg.halo_bytes() / 2,
            jacobi_cfg.halo_bytes(),
            jacobi_cfg.halo_bytes() * 2,
        ],
        bench_reps,
        seed,
    );
    let timing = TimingModel::distributions(table);
    let model = jacobi::model(jacobi_cfg);
    let nprocs = shape.nodes * shape.ppn;

    let mc = monte_carlo(
        &model,
        &EvalConfig::new(nprocs).with_seed(seed),
        &timing,
        mc_reps,
    )
    .expect("PEVPM evaluation failed");

    let t1 = Instant::now();
    let measured = jacobi::run_measured(
        WorldConfig::perseus(shape.nodes, shape.ppn, seed),
        jacobi_cfg,
    )
    .expect("measured run failed");
    let mpisim_wall = t1.elapsed().as_secs_f64();

    CostResult {
        shape,
        reps: mc_reps,
        virtual_secs: mc.mean.max(measured.time),
        pevpm_wall: mc.wall_secs,
        mpisim_wall,
        steps: mc.total_steps(),
        mean_steps: mc.mean_steps(),
        sb_peak: mc.max_sb_peak(),
        profile: mc.profile.clone(),
    }
}

/// Render the cost table.
pub fn render(results: &[CostResult]) -> String {
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.shape.to_string(),
                crate::report::secs(r.virtual_secs),
                crate::report::secs(r.pevpm_eval_wall()),
                crate::report::secs(r.mpisim_wall),
                format!("{:.0}x", r.realtime_factor()),
                format!("{:.1}x", r.vs_packet_sim()),
                format!("{:.2e}", r.steps_per_sec()),
                r.sb_peak.to_string(),
                r.profile.workers.len().to_string(),
                format!("{:.0}%", r.profile.utilization() * 100.0),
            ]
        })
        .collect();
    crate::report::table(
        &[
            "shape",
            "virtual",
            "pevpm-eval",
            "mpisim-wall",
            "vs-realtime",
            "vs-packet-sim",
            "steps/s",
            "sb-peak",
            "workers",
            "util",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pevpm_is_much_faster_than_realtime_and_packet_sim() {
        let cfg = JacobiConfig {
            xsize: 256,
            iterations: 200,
            serial_secs: 3.24e-3,
        };
        let res = run(MachineShape { nodes: 8, ppn: 1 }, &cfg, 20, 4, 11);
        // The paper's prototype managed 67.5×; a compiled release build
        // should beat real time by a huge margin. Debug builds (plain
        // `cargo test`) are 10-100× slower and share the machine with
        // other tests, so only a loose sanity bound applies there.
        let bar = if cfg!(debug_assertions) { 2.0 } else { 67.5 };
        assert!(
            res.realtime_factor() > bar,
            "realtime factor only {:.1}x (bar {bar}x)",
            res.realtime_factor()
        );
        assert!(
            res.vs_packet_sim() > 1.0,
            "PEVPM should be faster than packet simulation: {:.2}x",
            res.vs_packet_sim()
        );
        assert!(res.steps > 0, "evaluation swept no directives");
        assert!(res.sb_peak >= 1, "scoreboard never held a message");
    }

    #[test]
    fn counters_aggregate_across_the_whole_batch() {
        let cfg = JacobiConfig {
            xsize: 64,
            iterations: 20,
            serial_secs: 1e-4,
        };
        let res = run(MachineShape { nodes: 4, ppn: 1 }, &cfg, 10, 3, 7);
        assert_eq!(res.reps, 3);
        // Total steps must cover every replication, not just one run.
        assert!(
            (res.mean_steps - res.steps as f64 / 3.0).abs() < 1e-9,
            "mean_steps inconsistent with total"
        );
        assert!(res.steps as f64 >= 3.0 * res.mean_steps - 1e-9);
        assert_eq!(res.profile.total_jobs(), 3);
        assert!(res.pevpm_eval_wall() <= res.pevpm_wall + 1e-12);
        let table = render(&[res]);
        assert!(table.contains("workers"));
        assert!(table.contains("util"));
    }
}
