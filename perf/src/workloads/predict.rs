//! `predict_64x2`: one PEVPM Monte-Carlo batch per op.
//!
//! The op is `pevpm::monte_carlo` over `apps::jacobi::model` (xsize 256,
//! 1000 iterations, 3.24 ms serial) on 128 virtual processes, 8
//! replications, one worker thread, the serial engine and the compiled
//! sampler, against a 64x2 ring-exchange MPIBench table built in set-up.
//! Op `i` evaluates at seed `S + i`. Only `pevpm` and the `dist` sampler
//! run inside the window.

use super::{begin, single_caller, ChildArgs, Traced, HEAVY_WARMUP_OPS, WARMUP_SEED_OFFSET};
use crate::host::Laps;
use crate::probes;
use crate::record::RunRecord;
use crate::span::Recorder;
use pevpm::vm::{monte_carlo, EvalConfig, McPrediction};
use pevpm::{Model, TimingModel};
use pevpm_apps::jacobi::{self, JacobiConfig};
use pevpm_bench::fig6;
use pevpm_dist::DistTable;
use pevpm_mpibench::MachineShape;

/// The machine shape every 64x2 workload models.
pub const SHAPE: MachineShape = MachineShape { nodes: 64, ppn: 2 };
/// Virtual processes at that shape.
pub const NPROCS: usize = 128;
/// Replications per batch.
pub const REPS: usize = 8;
/// The seed the pinned baselines were taken at.
pub const CANON_SEED: u64 = 11;
/// Batch mean at the canonical seed, pinned bitwise (ROADMAP).
pub const CANON_MEAN: f64 = 0.6487360493288068;
/// Directive executions of one batch (seed-independent).
pub const BATCH_STEPS: u64 = 8_674_048;
/// Peak scoreboard occupancy of the batch.
pub const SB_PEAK: usize = 127;
/// MPIBench repetitions behind the ring table (the `tcost` setting).
const BENCH_REPS: usize = 30;

/// The Jacobi program every 64x2 workload uses, at `iterations`.
pub fn jacobi_cfg(iterations: usize) -> JacobiConfig {
    JacobiConfig {
        xsize: 256,
        iterations,
        serial_secs: 3.24e-3,
    }
}

/// The 64x2 ring-exchange MPIBench table at `seed`: halo size and its
/// two neighbours on the doubling grid.
pub fn ring_table(shape: MachineShape, seed: u64) -> DistTable {
    let halo = jacobi_cfg(1).halo_bytes();
    fig6::shape_table(shape, &[halo / 2, halo, halo * 2], BENCH_REPS, seed)
}

/// One op: the batch at `seed`.
pub fn batch(model: &Model, timing: &TimingModel, seed: u64) -> Result<McPrediction, String> {
    let cfg = EvalConfig::new(NPROCS).with_seed(seed).with_threads(1);
    monte_carlo(model, &cfg, timing, REPS).map_err(|e| e.to_string())
}

/// What set-up leaves behind for the window.
pub struct State {
    /// The ring table, kept for the interpreted-sampler probe.
    pub table: DistTable,
    /// Compiled timing model over `table`.
    pub timing: TimingModel,
    /// The 1000-iteration Jacobi model.
    pub model: Model,
}

fn setup(seed: u64, laps: &mut Laps<'_>) -> State {
    let table = ring_table(SHAPE, seed);
    let timing = TimingModel::distributions(table.clone());
    let model = jacobi::model(&jacobi_cfg(1000));
    for j in 0..HEAVY_WARMUP_OPS {
        laps.lap();
        batch(&model, &timing, seed + WARMUP_SEED_OFFSET + j).expect("warm-up batch");
    }
    State {
        table,
        timing,
        model,
    }
}

fn op(state: &State, seed: u64, rec: &mut Recorder) -> Result<(), String> {
    let mc = rec.span("pevpm::monte_carlo", "pevpm", |_| {
        batch(&state.model, &state.timing, seed)
    })?;
    if mc.runs.len() != REPS || !mc.mean.is_finite() || mc.mean <= 0.0 {
        return Err(format!(
            "implausible batch: {} runs, mean {}",
            mc.runs.len(),
            mc.mean
        ));
    }
    if mc.total_steps() != BATCH_STEPS {
        return Err(format!(
            "{} steps, expected {BATCH_STEPS}",
            mc.total_steps()
        ));
    }
    Ok(())
}

/// The canonical-seed gate: the bitwise baseline and its counts.
fn gate(out: &mut RunRecord) {
    let timing = TimingModel::distributions(ring_table(SHAPE, CANON_SEED));
    let model = jacobi::model(&jacobi_cfg(1000));
    match batch(&model, &timing, CANON_SEED) {
        Ok(mc) => {
            out.gate(mc.mean.to_bits() == CANON_MEAN.to_bits(), || {
                format!("seed-11 batch mean {} != pinned {CANON_MEAN}", mc.mean)
            });
            out.gate(mc.total_steps() == BATCH_STEPS, || {
                format!("seed-11 steps {} != {BATCH_STEPS}", mc.total_steps())
            });
            out.gate(mc.max_sb_peak() == SB_PEAK, || {
                format!("seed-11 sb_peak {} != {SB_PEAK}", mc.max_sb_peak())
            });
            out.facts.num("canon_batch_mean_virtual_s", mc.mean);
            out.per_layer.set("pevpm.steps", mc.total_steps() as f64);
            out.per_layer.set("pevpm.sb_peak", mc.max_sb_peak() as f64);
        }
        Err(e) => out.fail(format!("seed-11 batch failed: {e}")),
    }
}

/// Run the workload.
pub fn run(args: &ChildArgs) -> RunRecord {
    let mut out = begin(args, 1);
    out.facts
        .text("table", "64x2 ring exchange, sizes 512/1024/2048, 30 reps");
    out.facts.num("reps", REPS as f64);
    gate(&mut out);
    let (state, traced) = single_caller(args, &mut out, |laps| setup(args.seed, laps), op);
    let Some(Traced { shares, op_s }) = traced else {
        return out;
    };
    // The workload must separate the layers as designed.
    let pevpm = shares.get("pevpm").copied().unwrap_or(0.0);
    out.gate(pevpm >= 0.90, || {
        format!("pevpm+dist hold only {:.1}% of op time", 100.0 * pevpm)
    });
    for foreign in ["serve", "mpisim", "netsim", "mpibench", "socket"] {
        out.gate(!shares.contains_key(foreign), || {
            format!("layer {foreign} shows up in predict_64x2")
        });
    }
    if op_s > 0.0 {
        out.per_layer
            .set("pevpm.steps_per_s", BATCH_STEPS as f64 / op_s);
    }
    probes::pevpm(&mut out, &state);
    probes::dist(&mut out, None);
    probes::apps(&mut out);
    probes::cli(&mut out, args, &state.table);
    out
}
