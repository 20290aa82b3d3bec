//! Figure 6 (+ the in-text error table T-err): PEVPM-predicted vs measured
//! Jacobi speedups for `2–64 × 1–2` processes on the Perseus-like cluster.
//!
//! Pipeline, exactly as the paper describes:
//!
//! 1. MPIBench measures MPI point-to-point distributions for the halo
//!    message size across every machine shape (the benchmark database).
//! 2. The Jacobi PEVPM model is evaluated per shape with four timing
//!    inputs: full distributions (`dist-nxp`), averages of the matched
//!    `n×p` data (`avg-nxp`), and ping-pong `2×1` averages/minima
//!    (`avg-2x1`, `min-2x1`) — the paper's dashed vs dotted lines.
//! 3. The real Jacobi program runs on the simulated cluster (`measured`).
//! 4. Speedups are reported against the serial execution time, plus the
//!    relative prediction error of each mode.

use pevpm::timing::{PredictionMode, TimingModel};
use pevpm::vm::{evaluate, EvalConfig};
use pevpm_apps::jacobi::{self, JacobiConfig};
use pevpm_dist::{DistTable, Op, PointKind};
use pevpm_mpibench::{run_p2p, Direction, MachineShape, P2pConfig, PairPattern, HIST_BINS};
use pevpm_mpisim::WorldConfig;

/// The prediction-mode keys, in the order they are reported.
pub const MODES: [&str; 4] = ["dist-nxp", "avg-nxp", "avg-2x1", "min-2x1"];

/// Configuration of the Figure 6 experiment.
#[derive(Debug, Clone)]
pub struct Fig6Config {
    /// Machine shapes to evaluate.
    pub shapes: Vec<MachineShape>,
    /// Jacobi application parameters.
    pub jacobi: JacobiConfig,
    /// MPIBench repetitions per (shape, size) for the database.
    pub bench_reps: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Fig6Config {
    fn default() -> Self {
        Fig6Config {
            shapes: pevpm_mpibench::paper_shapes(),
            jacobi: JacobiConfig::default(),
            bench_reps: 60,
            seed: 2004,
        }
    }
}

/// One row of the Figure 6 data: a machine shape with its measured and
/// predicted times/speedups.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Machine shape.
    pub shape: MachineShape,
    /// Measured execution time (real program on the simulated cluster).
    pub measured: f64,
    /// Measured speedup vs the serial time.
    pub measured_speedup: f64,
    /// Predicted times, keyed like [`MODES`].
    pub predicted: Vec<(String, f64)>,
}

impl Fig6Row {
    /// Predicted time for a mode.
    pub fn predicted_time(&self, mode: &str) -> Option<f64> {
        self.predicted
            .iter()
            .find(|(m, _)| m == mode)
            .map(|(_, t)| *t)
    }

    /// Signed relative prediction error of a mode.
    pub fn error(&self, mode: &str) -> Option<f64> {
        self.predicted_time(mode)
            .map(|t| (t - self.measured) / self.measured)
    }
}

/// Full result of the experiment.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// Serial (1-process, no-communication) execution time.
    pub t_serial: f64,
    /// Per-shape rows.
    pub rows: Vec<Fig6Row>,
    /// The 2×1 ping-pong database used for the baseline predictions.
    pub pingpong_table: DistTable,
}

/// Run the MPIBench neighbour-exchange (ring) benchmark for one machine
/// shape, producing its distribution table. Following Grove's methodology
/// the benchmark pattern matches the application's locality class
/// (regular-local halo exchange ⇒ ring).
pub fn shape_table(shape: MachineShape, sizes: &[u64], reps: usize, seed: u64) -> DistTable {
    ring_table(
        WorldConfig::perseus(shape.nodes, shape.ppn, seed),
        sizes,
        reps,
    )
}

/// The message sizes a Jacobi database is benchmarked at: half, one and
/// two halos, so the halo size is interpolated from both sides.
pub fn jacobi_sizes(jacobi: &JacobiConfig) -> [u64; 3] {
    let halo = jacobi.halo_bytes();
    [halo / 2, halo, halo * 2]
}

/// Measure the *uncontended* one-way transit distribution: a single
/// HalfSplit pair on a `2×1` world, barrier-resynchronised before every
/// message, recorded at contention 1 under each of `ops`. This is the
/// distribution a program with at most one message in flight at a time
/// samples from — the `pevpm-testkit` statistical oracle pairs it with
/// token-relay programs, where the ring-exchange table's contention level
/// would systematically overcharge every hop. Recording both Send and
/// Isend gives fuzzed programs exact-key lookups.
pub fn oneway_table_ops(sizes: &[u64], reps: usize, seed: u64, ops: &[Op]) -> DistTable {
    let p2p = P2pConfig {
        direction: Direction::OneWay,
        ..P2pConfig::perseus(2, 1, sizes.to_vec(), reps, seed)
    };
    tabulate(&p2p, ops)
}

/// [`shape_table`] on any world, such as one carrying a fault plan.
pub(crate) fn ring_table(world: WorldConfig, sizes: &[u64], reps: usize) -> DistTable {
    let p2p = P2pConfig {
        pattern: PairPattern::Ring,
        ..P2pConfig::new(world, sizes.to_vec(), reps)
    };
    tabulate(&p2p, &[Op::Send])
}

/// Run one MPIBench benchmark and record its histograms under each of
/// `ops`: the one builder behind every Figure 6 database.
fn tabulate(p2p: &P2pConfig, ops: &[Op]) -> DistTable {
    let res = run_p2p(p2p).expect("MPIBench benchmark failed");
    let mut table = DistTable::new();
    for &op in ops {
        res.add_to_table(&mut table, op, HIST_BINS);
    }
    table
}

/// Build the four timing models the paper's Figure 6 legend compares, for
/// one machine shape: the *matched* `n×p` benchmark data (full
/// distributions or averages) and the `2×1` ping-pong slice (averages or
/// minima).
pub fn timing_models(matched: &DistTable, pingpong: &DistTable) -> Vec<(String, TimingModel)> {
    vec![
        (
            "dist-nxp".into(),
            TimingModel::distributions(matched.clone()),
        ),
        (
            "avg-nxp".into(),
            TimingModel::point(matched.clone(), PointKind::Average),
        ),
        (
            "avg-2x1".into(),
            TimingModel::pingpong_only(pingpong, PredictionMode::Average),
        ),
        (
            "min-2x1".into(),
            TimingModel::pingpong_only(pingpong, PredictionMode::Minimum),
        ),
    ]
}

/// Run the Figure 6 experiment.
pub fn run(cfg: &Fig6Config) -> Fig6Result {
    let sizes = jacobi_sizes(&cfg.jacobi);

    // The 2×1 ping-pong database backing the "simplistic" baselines.
    let pingpong_table = shape_table(
        MachineShape { nodes: 2, ppn: 1 },
        &sizes,
        cfg.bench_reps,
        cfg.seed,
    );

    let t_serial = cfg.jacobi.iterations as f64 * cfg.jacobi.serial_secs;
    let model = jacobi::model(&cfg.jacobi);

    // Rows are independent experiments seeded only by the shape index, so
    // they fan out across all cores (bitwise identical to the serial loop).
    let rows: Vec<Fig6Row> = pevpm::replicate::parallel_map(cfg.shapes.len(), 0, |i| {
        let shape = cfg.shapes[i];
        let nprocs = shape.nodes * shape.ppn;
        let row_seed = pevpm::replicate::replica_seed(cfg.seed, i as u64);
        // Matched n×p benchmark database for this shape.
        let matched = shape_table(shape, &sizes, cfg.bench_reps, row_seed);
        let models = timing_models(&matched, &pingpong_table);

        // Measured: the real program on the simulated cluster.
        let world = WorldConfig::perseus(shape.nodes, shape.ppn, cfg.seed ^ ((i as u64) << 8));
        let measured = jacobi::run_measured(world, &cfg.jacobi)
            .expect("measured Jacobi failed")
            .time;

        // Predictions.
        let mut predicted = Vec::new();
        for (name, timing) in &models {
            let p = evaluate(&model, &EvalConfig::new(nprocs).with_seed(row_seed), timing)
                .expect("PEVPM evaluation failed");
            predicted.push((name.clone(), p.makespan));
        }
        Fig6Row {
            shape,
            measured,
            measured_speedup: t_serial / measured,
            predicted,
        }
    });
    Fig6Result {
        t_serial,
        rows,
        pingpong_table,
    }
}

/// Render the figure data as the speedup table the paper plots.
pub fn render(res: &Fig6Result) -> String {
    let mut rows = Vec::new();
    for r in &res.rows {
        let mut row = vec![r.shape.to_string(), format!("{:.2}", r.measured_speedup)];
        for mode in MODES {
            let t = r.predicted_time(mode).unwrap_or(f64::NAN);
            row.push(format!("{:.2}", res.t_serial / t));
        }
        for mode in MODES {
            row.push(crate::report::pct(r.error(mode).unwrap_or(f64::NAN)));
        }
        rows.push(row);
    }
    let header = [
        "shape",
        "measured",
        "S(dist-nxp)",
        "S(avg-nxp)",
        "S(avg-2x1)",
        "S(min-2x1)",
        "err(dist)",
        "err(avg-nxp)",
        "err(avg-2x1)",
        "err(min-2x1)",
    ];
    crate::report::table(&header, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reduced-size end-to-end check: the PEVPM full-distribution
    /// prediction must track the measured time far better than the
    /// ping-pong baselines, and min-2x1 must overestimate speedup.
    #[test]
    fn distribution_predictions_beat_baselines() {
        let cfg = Fig6Config {
            shapes: vec![
                MachineShape { nodes: 2, ppn: 1 },
                MachineShape { nodes: 8, ppn: 1 },
                MachineShape { nodes: 16, ppn: 1 },
            ],
            jacobi: JacobiConfig {
                xsize: 256,
                iterations: 60,
                serial_secs: 3.24e-3,
            },
            bench_reps: 30,
            seed: 7,
        };
        let res = run(&cfg);
        assert_eq!(res.rows.len(), 3);
        for row in &res.rows {
            let dist_err = row.error("dist-nxp").unwrap().abs();
            assert!(
                dist_err < 0.10,
                "{}: dist prediction off by {:.1}% (measured {}, predicted {:?})",
                row.shape,
                dist_err * 100.0,
                row.measured,
                row.predicted,
            );
            // The ideal-minimum baseline must overestimate performance
            // (predict a shorter time than measured).
            let min_t = row.predicted_time("min-2x1").unwrap();
            assert!(
                min_t < row.measured,
                "{}: min-2x1 should underestimate time",
                row.shape
            );
        }
        // At the largest shape the dist prediction must beat min-2x1.
        let last = res.rows.last().unwrap();
        assert!(
            last.error("dist-nxp").unwrap().abs() < last.error("min-2x1").unwrap().abs(),
            "dist {:?} vs min {:?}",
            last.error("dist-nxp"),
            last.error("min-2x1")
        );
    }

    /// An instrumented evaluation of the Figure 6 Jacobi model must leave
    /// non-empty contention-level and scoreboard-occupancy histograms in
    /// the metrics registry — the halo exchange always has messages in
    /// flight concurrently.
    #[test]
    fn instrumented_jacobi_records_contention_and_occupancy() {
        use pevpm::vm::evaluate;
        use std::sync::Arc;

        let shape = MachineShape { nodes: 8, ppn: 1 };
        let jcfg = JacobiConfig {
            xsize: 256,
            iterations: 40,
            serial_secs: 3.24e-3,
        };
        let table = shape_table(shape, &jacobi_sizes(&jcfg), 20, 5);
        let timing = TimingModel::distributions(table);
        let reg = Arc::new(pevpm_obs::Registry::new());
        let cfg = pevpm::vm::EvalConfig::new(8)
            .with_seed(5)
            .with_metrics(reg.clone());
        let p = evaluate(&pevpm_apps::jacobi::model(&jcfg), &cfg, &timing).unwrap();
        assert!(p.makespan > 0.0);

        let contention = reg.histogram("vm.contention_at_injection", 0.0, 256.0, 256);
        let occupancy = reg.histogram("vm.scoreboard_occupancy", 0.0, 256.0, 256);
        assert!(
            contention.count() > 0,
            "no contention levels recorded at message injection"
        );
        assert!(occupancy.count() > 0, "no scoreboard occupancy recorded");
        // Halo exchange: neighbours inject while other messages are in
        // flight, so contention above 1 must appear.
        assert!(
            contention.max().unwrap_or(0.0) > 1.0,
            "contention never exceeded a single in-flight message"
        );
        assert_eq!(reg.counter("vm.evaluations").get(), 1);
        assert!(reg.counter("vm.steps").get() > 0);
    }
}
