//! Extension experiments: FFT (regular-global) and task farm (irregular)
//! measured-vs-predicted comparisons — the application classes §6 says
//! were validated in refs [9, 10].

use pevpm::timing::TimingModel;
use pevpm::vm::{evaluate, EvalConfig};
use pevpm_apps::fft::{self, FftConfig};
use pevpm_apps::taskfarm::{self, FarmConfig};
use pevpm_dist::{CollOp, CommDist, DistKey, DistTable, Op};
use pevpm_mpibench::{run_collective, CollConfig, HIST_BINS};
use pevpm_mpisim::WorldConfig;

/// A measured-vs-predicted comparison row.
#[derive(Debug, Clone)]
pub struct ExtRow {
    /// Number of ranks.
    pub nprocs: usize,
    /// Measured execution time (packet-level simulation).
    pub measured: f64,
    /// PEVPM full-distribution prediction.
    pub predicted: f64,
}

impl ExtRow {
    /// Signed relative error of the prediction.
    pub fn error(&self) -> f64 {
        (self.predicted - self.measured) / self.measured
    }
}

/// FFT experiment: benchmark Alltoall at each rank count, then compare the
/// PEVPM model against the measured run.
pub fn run_fft(
    rank_counts: &[usize],
    cfg: &FftConfig,
    bench_reps: usize,
    seed: u64,
) -> Vec<ExtRow> {
    // Rank counts are independent experiments; fan them across all cores.
    pevpm::replicate::parallel_map(rank_counts.len(), 0, |i| {
        let n = rank_counts[i];
        // Benchmark the Alltoall collective at the exact block size the
        // FFT will use (plus brackets for interpolation).
        let block = cfg.alltoall_block_bytes(n).max(1);
        let coll = run_collective(&CollConfig {
            world: WorldConfig::perseus(n, 1, seed),
            op: CollOp::Alltoall,
            sizes: vec![(block / 2).max(1), block, block * 2],
            repetitions: bench_reps,
            warmup: 2,
            clock: None,
        })
        .expect("alltoall benchmark failed");
        let mut table = DistTable::new();
        coll.add_to_table(&mut table, HIST_BINS);
        // A nominal p2p entry so eager sends in other models don't starve
        // (not used by the FFT model but keeps the table well-formed).
        table.insert(
            DistKey {
                op: Op::Send,
                size: 1024,
                contention: n as u32,
            },
            CommDist::Point(260e-6),
        );
        let timing = TimingModel::distributions(table);

        let measured = fft::run_measured(WorldConfig::perseus(n, 1, seed ^ 0x5a), cfg)
            .expect("measured FFT failed")
            .time;
        let predicted = evaluate(
            &fft::model(cfg),
            &EvalConfig::new(n).with_seed(seed),
            &timing,
        )
        .expect("FFT prediction failed")
        .makespan;
        ExtRow {
            nprocs: n,
            measured,
            predicted,
        }
    })
}

/// Task-farm experiment: measured dynamic farm vs the PEVPM static
/// round-robin model with p2p distributions from a 2×1 ring benchmark
/// (farm messages are small, so contention is negligible and a single
/// benchmark suffices).
pub fn run_farm(
    rank_counts: &[usize],
    cfg: &FarmConfig,
    bench_reps: usize,
    seed: u64,
) -> Vec<ExtRow> {
    let table = crate::fig6::shape_table(
        pevpm_mpibench::MachineShape { nodes: 2, ppn: 1 },
        &[64, cfg.task_bytes.max(65), cfg.task_bytes.max(65) * 2],
        bench_reps,
        seed,
    );
    let timing = TimingModel::distributions(table);
    pevpm::replicate::parallel_map(rank_counts.len(), 0, |i| {
        let n = rank_counts[i];
        let workers = n - 1;
        assert!(
            cfg.tasks.is_multiple_of(workers),
            "model requires tasks divisible by workers"
        );
        let measured = taskfarm::run_measured(WorldConfig::perseus(n, 1, seed ^ 0x77), cfg)
            .expect("measured farm failed")
            .time;
        let predicted = evaluate(
            &taskfarm::model(cfg),
            &EvalConfig::new(n).with_seed(seed),
            &timing,
        )
        .expect("farm prediction failed")
        .makespan;
        ExtRow {
            nprocs: n,
            measured,
            predicted,
        }
    })
}

/// Render extension rows.
pub fn render(name: &str, rows: &[ExtRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.nprocs.to_string(),
                crate::report::secs(r.measured),
                crate::report::secs(r.predicted),
                crate::report::pct(r.error()),
            ]
        })
        .collect();
    format!(
        "{name}\n{}",
        crate::report::table(&["procs", "measured", "predicted", "error"], &body)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_predictions_track_measured() {
        let cfg = FftConfig {
            n1: 64,
            n2: 64,
            flops_per_sec: 50e6,
            iterations: 8,
        };
        let rows = run_fft(&[2, 4], &cfg, 10, 3);
        for r in &rows {
            assert!(
                r.error().abs() < 0.15,
                "{} procs: measured {} predicted {} ({:+.1}%)",
                r.nprocs,
                r.measured,
                r.predicted,
                r.error() * 100.0
            );
        }
    }

    #[test]
    fn farm_predictions_track_measured() {
        let cfg = FarmConfig {
            tasks: 24,
            work_mean_secs: 0.05,
            work_spread_secs: 0.01,
            ..Default::default()
        };
        let rows = run_farm(&[3, 5], &cfg, 10, 4);
        for r in &rows {
            assert!(
                r.error().abs() < 0.15,
                "{} procs: measured {} predicted {} ({:+.1}%)",
                r.nprocs,
                r.measured,
                r.predicted,
                r.error() * 100.0
            );
        }
    }
}
