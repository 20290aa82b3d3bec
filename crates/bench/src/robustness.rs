//! Robustness: prediction quality on an *unhealthy* machine.
//!
//! The paper's methodology assumes the benchmarked machine and the
//! predicted machine are the same. This experiment measures what happens
//! when they are not: the Jacobi application is re-measured on a cluster
//! degraded by an injected fault plan (random frame loss and/or per-link
//! rate degradation), and two predictions are compared against it —
//!
//! - **clean-table**: the PEVPM prediction built from the *healthy*
//!   machine's MPIBench database (what an operator would have on file);
//! - **degraded-table**: the prediction rebuilt from an MPIBench sweep
//!   re-run on the degraded machine (the PEVPM workflow applied honestly
//!   to the machine as it now is).
//!
//! The expectation, and what `BENCH_robustness.json` quantifies, is that
//! the clean-table error grows with the injected fault severity while the
//! degraded-table prediction keeps tracking the measurement — the PEVPM
//! pipeline is robust to machine degradation *provided the benchmark
//! database is refreshed*.
//!
//! The zero-fault grid point doubles as a regression anchor: with faults
//! disabled the predicted mean must be **bitwise identical** to the
//! clean baseline (same tables, same RNG streams — the fault layer is
//! pay-for-what-you-use).

use crate::fig6;
use pevpm::timing::TimingModel;
use pevpm::vm::{monte_carlo, EvalConfig};
use pevpm_apps::jacobi::{self, JacobiConfig};
use pevpm_mpibench::MachineShape;
use pevpm_mpisim::WorldConfig;
use pevpm_netsim::{FaultPlan, LinkDegrade, NetStats};

/// One cell of the fault grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Random per-frame loss probability injected everywhere.
    pub loss_prob: f64,
    /// Link-rate multiplier applied to every node (1.0 = healthy).
    pub rate_factor: f64,
}

/// Configuration of the robustness experiment.
#[derive(Debug, Clone)]
pub struct RobustnessConfig {
    /// Machine shape evaluated.
    pub shape: MachineShape,
    /// Jacobi application parameters.
    pub jacobi: JacobiConfig,
    /// MPIBench repetitions per (shape, size) for each database.
    pub bench_reps: usize,
    /// Monte-Carlo replications per prediction.
    pub mc_reps: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Fault grid to sweep (the healthy point is measured separately).
    pub grid: Vec<GridPoint>,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        RobustnessConfig {
            shape: MachineShape { nodes: 64, ppn: 2 },
            jacobi: JacobiConfig {
                xsize: 256,
                iterations: 1000,
                serial_secs: 3.24e-3,
            },
            bench_reps: 30,
            mc_reps: 8,
            seed: 11,
            grid: vec![
                GridPoint {
                    loss_prob: 0.0,
                    rate_factor: 1.0,
                },
                GridPoint {
                    loss_prob: 0.001,
                    rate_factor: 1.0,
                },
                GridPoint {
                    loss_prob: 0.01,
                    rate_factor: 1.0,
                },
                GridPoint {
                    loss_prob: 0.0,
                    rate_factor: 0.5,
                },
                GridPoint {
                    loss_prob: 0.0,
                    rate_factor: 0.25,
                },
                GridPoint {
                    loss_prob: 0.01,
                    rate_factor: 0.5,
                },
            ],
        }
    }
}

/// One measured/predicted comparison on a degraded machine.
#[derive(Debug, Clone)]
pub struct RobustnessRow {
    /// Fault grid cell.
    pub point: GridPoint,
    /// Measured Jacobi time on the degraded machine.
    pub measured_secs: f64,
    /// Monte-Carlo mean prediction from the healthy-machine database.
    pub clean_pred: f64,
    /// Monte-Carlo mean prediction from the re-benchmarked (degraded)
    /// database.
    pub degraded_pred: f64,
    /// Network counters of the degraded measured run.
    pub net_stats: NetStats,
}

impl RobustnessRow {
    /// Signed relative error of the clean-table prediction.
    pub fn clean_err(&self) -> f64 {
        (self.clean_pred - self.measured_secs) / self.measured_secs
    }

    /// Signed relative error of the degraded-table prediction.
    pub fn degraded_err(&self) -> f64 {
        (self.degraded_pred - self.measured_secs) / self.measured_secs
    }
}

/// Full result of the robustness experiment.
#[derive(Debug, Clone)]
pub struct RobustnessResult {
    /// Machine shape evaluated.
    pub shape: MachineShape,
    /// Healthy-machine Monte-Carlo mean prediction (regression anchor).
    pub baseline_mean: f64,
    /// Healthy-machine measured Jacobi time.
    pub baseline_measured: f64,
    /// Per-grid-point rows.
    pub rows: Vec<RobustnessRow>,
}

/// Build the uniform fault plan for one grid point: `loss_prob`
/// everywhere plus, when `rate_factor < 1`, every node's link degraded by
/// it. The healthy point maps to the empty plan — the healthy machine the
/// bitwise baseline depends on.
pub fn plan_for(shape: MachineShape, point: GridPoint) -> FaultPlan {
    let mut plan = FaultPlan {
        loss_prob: point.loss_prob,
        ..FaultPlan::default()
    };
    if point.rate_factor < 1.0 {
        plan.degrade = (0..shape.nodes)
            .map(|node| LinkDegrade {
                node,
                rate_factor: point.rate_factor,
            })
            .collect();
    }
    plan
}

/// Run the robustness experiment.
pub fn run(cfg: &RobustnessConfig) -> RobustnessResult {
    let sizes = fig6::jacobi_sizes(&cfg.jacobi);
    let model = jacobi::model(&cfg.jacobi);
    let nprocs = cfg.shape.nodes * cfg.shape.ppn;

    // Healthy machine: database, prediction (the regression anchor — this
    // pipeline is exactly the tcost/fig6 one) and measurement.
    let clean_table = fig6::shape_table(cfg.shape, &sizes, cfg.bench_reps, cfg.seed);
    let clean_timing = TimingModel::distributions(clean_table);
    let eval_cfg = EvalConfig::new(nprocs).with_seed(cfg.seed);
    let baseline_mean = monte_carlo(&model, &eval_cfg, &clean_timing, cfg.mc_reps)
        .expect("clean PEVPM evaluation failed")
        .mean;
    let baseline_measured = jacobi::run_measured(
        WorldConfig::perseus(cfg.shape.nodes, cfg.shape.ppn, cfg.seed),
        &cfg.jacobi,
    )
    .expect("clean measured run failed")
    .time;

    // Grid rows are independent: fan out across cores, bitwise identical
    // to a serial loop (each row's work is seeded by cfg.seed alone).
    let rows: Vec<RobustnessRow> = pevpm::replicate::parallel_map(cfg.grid.len(), 0, |i| {
        let point = cfg.grid[i];

        // Degraded measurement: the same program, seed and machine, with
        // only the fault plan changed.
        let mut world = WorldConfig::perseus(cfg.shape.nodes, cfg.shape.ppn, cfg.seed);
        world.cluster.faults = plan_for(cfg.shape, point);
        let measured =
            jacobi::run_measured(world.clone(), &cfg.jacobi).expect("degraded measured run failed");

        // Degraded-table prediction: re-benchmark the degraded machine.
        let degraded_table = fig6::ring_table(world, &sizes, cfg.bench_reps);
        let degraded_pred = monte_carlo(
            &model,
            &eval_cfg,
            &TimingModel::distributions(degraded_table),
            cfg.mc_reps,
        )
        .expect("degraded PEVPM evaluation failed")
        .mean;

        RobustnessRow {
            point,
            measured_secs: measured.time,
            clean_pred: baseline_mean,
            degraded_pred,
            net_stats: measured.report.net_stats,
        }
    });

    RobustnessResult {
        shape: cfg.shape,
        baseline_mean,
        baseline_measured,
        rows,
    }
}

/// Render the comparison table.
pub fn render(res: &RobustnessResult) -> String {
    let rows: Vec<Vec<String>> = res
        .rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.3}", r.point.loss_prob),
                format!("{:.2}", r.point.rate_factor),
                crate::report::secs(r.measured_secs),
                crate::report::secs(r.clean_pred),
                crate::report::secs(r.degraded_pred),
                crate::report::pct(r.clean_err()),
                crate::report::pct(r.degraded_err()),
                r.net_stats.faults_injected_losses.to_string(),
                r.net_stats.retransmissions.to_string(),
            ]
        })
        .collect();
    crate::report::table(
        &[
            "loss",
            "rate",
            "measured",
            "clean-pred",
            "degr-pred",
            "err(clean)",
            "err(degr)",
            "inj-loss",
            "retx",
        ],
        &rows,
    )
}

/// Serialise as the `BENCH_robustness.json` CI artifact. When
/// `expected_baseline` is given (the full-scale acceptance anchor), the
/// JSON records whether the healthy-machine prediction reproduced it
/// bitwise.
pub fn to_json(res: &RobustnessResult, expected_baseline: Option<f64>) -> String {
    use pevpm_obs::json::{escape, num};
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"shape\": \"{}\",\n  \"baseline\": {{\"predicted_mean\": {}, \"measured_secs\": {}",
        escape(&res.shape.to_string()),
        num(res.baseline_mean),
        num(res.baseline_measured),
    ));
    if let Some(expected) = expected_baseline {
        out.push_str(&format!(
            ", \"expected_mean\": {}, \"bitwise_match\": {}",
            num(expected),
            res.baseline_mean.to_bits() == expected.to_bits()
        ));
    }
    out.push_str("},\n  \"grid\": [\n");
    for (i, r) in res.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"loss_prob\": {}, \"rate_factor\": {}, \"measured_secs\": {}, \
             \"clean_pred_mean\": {}, \"degraded_pred_mean\": {}, \
             \"clean_err\": {}, \"degraded_err\": {}, \
             \"injected_losses\": {}, \"flap_drops\": {}, \"retransmissions\": {}}}{}\n",
            num(r.point.loss_prob),
            num(r.point.rate_factor),
            num(r.measured_secs),
            num(r.clean_pred),
            num(r.degraded_pred),
            num(r.clean_err()),
            num(r.degraded_err()),
            r.net_stats.faults_injected_losses,
            r.net_stats.faults_flap_drops,
            r.net_stats.retransmissions,
            if i + 1 < res.rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> RobustnessConfig {
        RobustnessConfig {
            shape: MachineShape { nodes: 4, ppn: 1 },
            jacobi: JacobiConfig {
                xsize: 64,
                iterations: 30,
                serial_secs: 1e-4,
            },
            bench_reps: 10,
            mc_reps: 3,
            seed: 7,
            grid: vec![
                GridPoint {
                    loss_prob: 0.0,
                    rate_factor: 1.0,
                },
                GridPoint {
                    loss_prob: 0.0,
                    rate_factor: 0.25,
                },
            ],
        }
    }

    #[test]
    fn healthy_grid_point_is_bitwise_identical_to_baseline() {
        let res = run(&small_cfg());
        let healthy = &res.rows[0];
        assert_eq!(
            healthy.degraded_pred.to_bits(),
            res.baseline_mean.to_bits(),
            "faults disabled must reproduce the clean pipeline bitwise"
        );
        assert_eq!(
            healthy.measured_secs.to_bits(),
            res.baseline_measured.to_bits()
        );
        assert_eq!(healthy.net_stats.faults_injected_losses, 0);
    }

    #[test]
    fn refreshing_the_database_restores_prediction_quality() {
        let res = run(&small_cfg());
        let degraded = &res.rows[1];
        // 4x slower links: the measurement moves, the stale clean-table
        // prediction does not, the refreshed one follows it.
        assert!(
            degraded.measured_secs > res.baseline_measured,
            "quartered link rate must slow the measured run: {} vs {}",
            degraded.measured_secs,
            res.baseline_measured
        );
        assert!(
            degraded.clean_pred < degraded.measured_secs,
            "stale database must underestimate the degraded machine"
        );
        assert!(
            degraded.degraded_err().abs() < degraded.clean_err().abs(),
            "re-benchmarked prediction must beat the stale one: degraded {:+.1}% clean {:+.1}%",
            degraded.degraded_err() * 100.0,
            degraded.clean_err() * 100.0
        );
    }

    #[test]
    fn json_artifact_parses_and_flags_the_baseline() {
        let res = run(&small_cfg());
        let js = to_json(&res, Some(res.baseline_mean));
        let parsed = pevpm_obs::json::parse(&js).expect("BENCH_robustness.json parses");
        let baseline = parsed.get("baseline").unwrap();
        assert_eq!(
            baseline.get("bitwise_match").and_then(|b| b.as_bool()),
            Some(true)
        );
        let grid = parsed.get("grid").and_then(|g| g.as_array()).unwrap();
        assert_eq!(grid.len(), 2);
        assert!(grid[1].get("clean_err").and_then(|v| v.as_num()).is_some());
        let text = render(&res);
        assert!(text.contains("err(clean)"));
        assert!(text.contains("err(degr)"));
    }

    #[test]
    fn lossy_links_trigger_injected_losses_and_retransmissions() {
        let mut cfg = small_cfg();
        cfg.grid = vec![GridPoint {
            loss_prob: 0.05,
            rate_factor: 1.0,
        }];
        let res = run(&cfg);
        let row = &res.rows[0];
        assert!(
            row.net_stats.faults_injected_losses > 0,
            "5% loss must drop frames"
        );
        assert!(
            row.net_stats.retransmissions > 0,
            "dropped frames must be retransmitted"
        );
        assert!(
            row.measured_secs > res.baseline_measured,
            "loss recovery must cost measured time"
        );
    }
}
