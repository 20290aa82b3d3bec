//! `groundtruth_64x2`: one packet-level Jacobi execution per op.
//!
//! The op is `apps::jacobi::run_measured(WorldConfig::perseus(64, 2,
//! S + i))` at 250 iterations: 128 rank threads handing off through
//! `mpisim::sched` over the `netsim` event core (63 627 messages,
//! 160 322 network events). It is the "measured" side of every accuracy
//! claim; `pevpm` does nothing inside the window.

use super::predict::{jacobi_cfg, ring_table, CANON_SEED, NPROCS, REPS, SHAPE};
use super::{begin, single_caller, ChildArgs, Traced, HEAVY_WARMUP_OPS, WARMUP_SEED_OFFSET};
use crate::host::Laps;
use crate::probes;
use crate::record::RunRecord;
use crate::span::Recorder;
use pevpm::vm::{monte_carlo, EvalConfig};
use pevpm::TimingModel;
use pevpm_apps::jacobi::{self, JacobiRun};
use pevpm_mpisim::WorldConfig;

/// Iterations of the measured program.
pub const ITERATIONS: usize = 250;
/// Point-to-point messages of one execution (seed-independent).
pub const MESSAGES: u64 = 63_627;
/// Network events of one execution at the canonical seed.
pub const EVENTS: u64 = 160_322;
/// Virtual seconds of the canonical-seed execution, pinned.
pub const CANON_VIRTUAL_S: f64 = 0.158622348;
/// Checksum agreement with `jacobi::serial_reference`: the grids are
/// identical `f32`s, but 128 ranks reduce their partial sums in another
/// order than the serial loop, so the `f64` totals differ in the last
/// digits (the crate's own test uses the same tolerance).
pub const CHECKSUM_TOL: f64 = 1e-6;
/// The accuracy claim: prediction within this share of measured.
pub const MAX_PRED_ERR: f64 = 0.05;

fn execute(seed: u64) -> Result<JacobiRun, String> {
    jacobi::run_measured(
        WorldConfig::perseus(SHAPE.nodes, SHAPE.ppn, seed),
        &jacobi_cfg(ITERATIONS),
    )
    .map_err(|e| e.to_string())
}

/// What set-up leaves behind: the serial checksum every op must match.
struct State {
    checksum: f64,
}

fn setup(seed: u64, laps: &mut Laps<'_>) -> State {
    let checksum = jacobi::serial_reference(jacobi_cfg(ITERATIONS).xsize, ITERATIONS);
    for j in 0..HEAVY_WARMUP_OPS {
        laps.lap();
        execute(seed + WARMUP_SEED_OFFSET + j).expect("warm-up execution");
    }
    State { checksum }
}

fn op(state: &State, seed: u64, rec: &mut Recorder) -> Result<(), String> {
    // One call from outside: apps' rank program over mpisim over netsim.
    let run = rec.span("apps::jacobi::run_measured", "mpisim", |_| execute(seed))?;
    if (run.checksum - state.checksum).abs() > CHECKSUM_TOL {
        return Err(format!(
            "checksum {} != serial {}",
            run.checksum, state.checksum
        ));
    }
    if run.report.messages != MESSAGES {
        return Err(format!(
            "{} messages, expected {MESSAGES}",
            run.report.messages
        ));
    }
    Ok(())
}

/// Canonical-seed gate: pinned virtual time and counts, and the paper's
/// claim — the PEVPM prediction of the same program within 5%.
fn gate(out: &mut RunRecord) {
    let run = match execute(CANON_SEED) {
        Ok(r) => r,
        Err(e) => return out.fail(format!("seed-11 execution failed: {e}")),
    };
    let reference = jacobi::serial_reference(jacobi_cfg(ITERATIONS).xsize, ITERATIONS);
    out.gate((run.checksum - reference).abs() <= CHECKSUM_TOL, || {
        format!(
            "seed-11 checksum {} != serial reference {reference}",
            run.checksum
        )
    });
    out.gate(run.time.to_bits() == CANON_VIRTUAL_S.to_bits(), || {
        format!(
            "seed-11 virtual time {} != pinned {CANON_VIRTUAL_S}",
            run.time
        )
    });
    let events = run.report.net_stats.events_processed;
    out.gate(run.report.messages == MESSAGES, || {
        format!("seed-11 messages {} != {MESSAGES}", run.report.messages)
    });
    out.gate(events == EVENTS, || {
        format!("seed-11 events {events} != {EVENTS}")
    });
    out.per_layer
        .set("mpisim.messages", run.report.messages as f64);
    out.per_layer.set("netsim.events", events as f64);

    let timing = TimingModel::distributions(ring_table(SHAPE, CANON_SEED));
    let model = jacobi::model(&jacobi_cfg(ITERATIONS));
    let cfg = EvalConfig::new(NPROCS)
        .with_seed(CANON_SEED)
        .with_threads(1);
    match monte_carlo(&model, &cfg, &timing, REPS) {
        Ok(mc) => {
            let err = (mc.mean - run.time).abs() / run.time;
            out.facts.num("pred_err_pct", 100.0 * err);
            out.gate(err <= MAX_PRED_ERR, || {
                format!(
                    "prediction {} is {:.2}% from measured {}",
                    mc.mean,
                    100.0 * err,
                    run.time
                )
            });
        }
        Err(e) => out.fail(format!("seed-11 prediction failed: {e}")),
    }
}

/// Run the workload.
pub fn run(args: &ChildArgs) -> RunRecord {
    let mut out = begin(args, 1);
    out.facts
        .text("world", "perseus 64x2, Jacobi 256x256, 250 iterations");
    gate(&mut out);
    let (_, traced) = single_caller(args, &mut out, |laps| setup(args.seed, laps), op);
    let Some(Traced { shares, op_s }) = traced else {
        return out;
    };
    for foreign in ["pevpm", "serve", "socket"] {
        out.gate(!shares.contains_key(foreign), || {
            format!("layer {foreign} shows up in groundtruth_64x2")
        });
    }
    if op_s > 0.0 {
        out.per_layer
            .set("mpisim.msgs_per_s", MESSAGES as f64 / op_s);
        out.per_layer
            .set("mpisim.us_per_event", 1e6 * op_s / EVENTS as f64);
    }
    probes::netsim(&mut out);
    probes::mpisim(&mut out);
    out
}
