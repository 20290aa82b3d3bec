//! The five workloads and the driver the three single-caller ones share.
//!
//! Every workload runs in its own child process (see `main.rs`), pinned,
//! and goes through the same stages: correctness gates at the canonical
//! seed, timed set-up(s), a timed window of ops, and — in the traced run
//! — a second window with spans on plus the probes of the layers the
//! workload drives.

pub mod groundtruth;
pub mod predict;
pub mod serve;
pub mod sweep;

use crate::host::{self, Calibrated, Laps, Timed};
use crate::record::{Facts, Metrics, RunRecord};
use crate::span::{self, Recorder, HARNESS};
use crate::stats;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// What the parent hands a workload child.
#[derive(Debug, Clone)]
pub struct ChildArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed: op `i` uses seed `seed + i`.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Where traces and temporary files go (`perf/out`).
    pub out_dir: PathBuf,
}

impl ChildArgs {
    /// How many times set-up is repeated for the `setup_s` median. Short
    /// smoke runs (`check.sh`) and traced runs set up once.
    pub fn setup_reps(&self) -> usize {
        if self.trace || self.seconds < 5.0 {
            1
        } else {
            3
        }
    }
}

/// Warm-up ops before the window of a single-caller workload.
pub const HEAVY_WARMUP_OPS: u64 = 2;
/// Seed offset that keeps warm-up inputs apart from timed inputs.
pub const WARMUP_SEED_OFFSET: u64 = 1 << 40;

/// Run `setup` `reps` times between calibration passes; returns the last
/// state and every timing. `setup` calls [`Laps::lap`] between its steps
/// so that a second-long set-up is normalised piece by piece.
pub fn timed_setups<S>(
    reps: usize,
    cal: &mut Calibrated,
    mut setup: impl FnMut(&mut Laps<'_>) -> S,
) -> (S, Vec<Timed>) {
    cal.refresh();
    let mut timings = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps.max(1) {
        // Drop the previous state first so two set-ups never coexist
        // (servers hold ports and threads; tables hold memory).
        drop(state.take());
        let (s, t) = cal.time(&mut setup);
        state = Some(s);
        timings.push(t);
    }
    (state.expect("at least one set-up"), timings)
}

/// The timed window of a single-caller workload.
#[derive(Debug, Default)]
pub struct Window {
    /// Normalised latency of each successful op, seconds.
    pub norm_s: Vec<f64>,
    /// Raw latency of each successful op, seconds.
    pub raw_s: Vec<f64>,
    /// Ops started.
    pub attempted: u64,
    /// Ops that failed, with the first few reasons.
    pub failed: u64,
    /// Reasons for failed ops (capped).
    pub errors: Vec<String>,
    /// CPU seconds the process burned over the window.
    pub cpu_s: f64,
}

impl Window {
    /// Successful ops per normalised second of op time.
    pub fn ops_per_s(&self) -> f64 {
        let busy: f64 = self.norm_s.iter().sum();
        if busy > 0.0 {
            self.norm_s.len() as f64 / busy
        } else {
            0.0
        }
    }

    /// Nearest-rank percentile of the normalised latencies, ms.
    pub fn lat_ms(&self, q: f64) -> f64 {
        let mut v = self.norm_s.clone();
        stats::sort(&mut v);
        stats::percentile(&v, q).unwrap_or(0.0) * 1e3
    }

    /// Median raw latency, seconds.
    pub fn raw_p50_s(&self) -> f64 {
        stats::median(&self.raw_s).unwrap_or(0.0)
    }
}

/// Run ops back to back for `seconds`, each between calibration passes
/// and inside a harness `op` span. `op(i, rec)` runs op `first + i`.
pub fn run_window(
    seconds: f64,
    first: u64,
    cal: &mut Calibrated,
    rec: &mut Recorder,
    mut op: impl FnMut(u64, &mut Recorder) -> Result<(), String>,
) -> Window {
    let mut w = Window::default();
    let cpu0 = host::cpu_seconds();
    cal.refresh();
    let start = Instant::now();
    let mut i = first;
    while start.elapsed().as_secs_f64() < seconds {
        rec.set_op(i);
        let (outcome, t) = cal.time(|_| rec.span("op", HARNESS, |rec| op(i, rec)));
        w.attempted += 1;
        match outcome {
            Ok(()) => {
                w.norm_s.push(t.norm_s);
                w.raw_s.push(t.raw_s);
            }
            Err(e) => {
                w.failed += 1;
                if w.errors.len() < 5 {
                    w.errors.push(format!("op {i}: {e}"));
                }
            }
        }
        i += 1;
    }
    w.cpu_s = host::cpu_seconds() - cpu0;
    w
}

/// Fill the end-to-end metrics and the matching facts of an untraced run.
pub fn report_end_to_end(rec: &mut RunRecord, setups: &[Timed], w: &Window, cal: &Calibrated) {
    let setup_norm: Vec<f64> = setups.iter().map(|t| t.norm_s).collect();
    let setup_raw: Vec<f64> = setups.iter().map(|t| t.raw_s).collect();
    rec.attempted = w.attempted;
    rec.failed = w.failed;
    rec.errors.extend(w.errors.iter().cloned());
    rec.end_to_end
        .set("setup_s", stats::median(&setup_norm).unwrap_or(0.0));
    rec.end_to_end.set("ops_per_s", w.ops_per_s());
    rec.end_to_end.set("lat_p50_ms", w.lat_ms(0.50));
    rec.end_to_end.set("peak_rss_mb", host::peak_rss_mb());
    let n = w.norm_s.len();
    rec.facts.num("samples", n as f64);
    rec.facts.num("setups", setups.len() as f64);
    rec.facts.num(
        "highest_supported_percentile",
        stats::highest_supported(n).map_or(0.0, |q| q * 100.0),
    );
    rec.facts
        .num("raw_setup_s", stats::median(&setup_raw).unwrap_or(0.0));
    rec.facts.num("raw_lat_p50_ms", w.raw_p50_s() * 1e3);
    let raw_busy: f64 = w.raw_s.iter().sum();
    rec.facts.num(
        "raw_ops_per_s",
        if raw_busy > 0.0 {
            n as f64 / raw_busy
        } else {
            0.0
        },
    );
    rec.facts.num("host_speed", cal.host_speed());
    rec.facts.num("loadavg_1m", host::loadavg_1m());
}

/// Start a workload child: pin to `cpus_wanted` CPUs and open the record
/// with the facts every run carries.
pub fn begin(args: &ChildArgs, cpus_wanted: usize) -> RunRecord {
    // Before pinning: afterwards the process only sees its own CPU set.
    let nproc = host::nproc();
    let cpus = host::pin_to_last(cpus_wanted);
    let mut f = Facts::default();
    f.num("seed", args.seed as f64);
    f.num("seconds", args.seconds);
    f.num("nproc", nproc as f64);
    f.list("pinned_cpus", &cpus);
    f.raw("pinned", (!cpus.is_empty()).to_string());
    f.num("ref_kernel_s", host::REF_KERNEL_S);
    RunRecord {
        workload: args.workload.clone(),
        trace: args.trace,
        facts: f,
        ..Default::default()
    }
}

/// What the traced run of a single-caller workload found, for the
/// workload's separation gates and window-derived metrics.
pub struct Traced {
    /// Each layer's share of traced op time (fractions of the root spans).
    pub shares: BTreeMap<&'static str, f64>,
    /// Normalised median seconds of one untraced op.
    pub op_s: f64,
}

/// Drive a single-caller workload after its gates: timed set-up(s), then
/// either the untraced window (end-to-end metrics, `None`) or half a
/// window untraced and half traced (trace files, `self_ms.*`, `proc.*`,
/// `Some`). `op(state, seed, rec)` runs the op at `seed`; op `i` gets
/// seed `args.seed + i`. Returns the last set-up's state for the probes.
pub fn single_caller<S>(
    args: &ChildArgs,
    out: &mut RunRecord,
    setup: impl FnMut(&mut Laps<'_>) -> S,
    op: impl Fn(&S, u64, &mut Recorder) -> Result<(), String>,
) -> (S, Option<Traced>) {
    let mut cal = Calibrated::start();
    let (state, setups) = timed_setups(args.setup_reps(), &mut cal, setup);
    let mut run = |seconds: f64, first: u64, rec: &mut Recorder| {
        run_window(seconds, first, &mut cal, rec, |i, rec| {
            op(&state, args.seed + i, rec)
        })
    };
    let mut off = Recorder::new(false);
    if !args.trace {
        let w = run(args.seconds, 0, &mut off);
        report_end_to_end(out, &setups, &w, &cal);
        return (state, None);
    }
    let half = args.seconds / 2.0;
    let plain = run(half, 0, &mut off);
    let mut rec = Recorder::new(true);
    let traced = run(half, plain.attempted, &mut rec);
    let shares = report_traced(args, out, &cal, &plain, &traced, rec.spans());
    let op_s = plain.lat_ms(0.50) / 1e3;
    (state, Some(Traced { shares, op_s }))
}

/// Write `trace-<workload>.json` and `layers-<workload>.txt`, set the
/// `self_ms.*` and `proc.*` metrics, and return the per-layer shares of
/// traced op time.
fn report_traced(
    args: &ChildArgs,
    out: &mut RunRecord,
    cal: &Calibrated,
    plain: &Window,
    traced: &Window,
    spans: &[span::SpanRec],
) -> BTreeMap<&'static str, f64> {
    let total = span::root_secs(spans).max(1e-12);
    let layers = span::layer_self_secs(spans);
    set_self_ms(&mut out.per_layer, &layers, traced.attempted.max(1) as f64);
    write_trace(args, out, spans, "");

    // Normalised medians: the two halves run seconds apart on a host
    // whose speed moves more in that time than spans could cost.
    let (plain_s, traced_s) = (plain.lat_ms(0.50), traced.lat_ms(0.50));
    if plain_s > 0.0 {
        out.per_layer.set(
            "proc.trace_overhead_pct",
            100.0 * (traced_s - plain_s) / plain_s,
        );
    }
    out.attempted = plain.attempted + traced.attempted;
    out.failed = plain.failed + traced.failed;
    out.errors
        .extend(plain.errors.iter().chain(&traced.errors).cloned());
    out.per_layer.set(
        "proc.cpu_ms_per_op",
        1e3 * (plain.cpu_s + traced.cpu_s) / out.attempted.max(1) as f64,
    );
    out.per_layer.set("proc.host_speed", cal.host_speed());
    out.facts.num("traced_ops", traced.attempted as f64);
    out.facts.num("untraced_ops", plain.attempted as f64);

    let shares: BTreeMap<&'static str, f64> = layers.iter().map(|(l, s)| (*l, s / total)).collect();
    // Layers other than the harness must account for the op: a call the
    // harness forgot to span would show up as harness self time.
    let harness = shares.get(HARNESS).copied().unwrap_or(0.0);
    out.gate(harness <= 0.05, || {
        format!(
            "layer self-times cover only {:.1}% of traced op time",
            100.0 * (1.0 - harness)
        )
    });
    let mut share_facts = Facts::default();
    for (layer, share) in &shares {
        share_facts.num(layer, *share);
    }
    out.facts.raw("layer_share", share_facts.to_json());
    shares
}

/// Set `self_ms.<layer>` from summed self seconds over `ops` ops.
pub fn set_self_ms(m: &mut Metrics, layers: &BTreeMap<&'static str, f64>, ops: f64) {
    for name in [
        "self_ms.pevpm",
        "self_ms.dist",
        "self_ms.mpisim",
        "self_ms.mpibench",
        "self_ms.serve",
        "self_ms.socket",
        "self_ms.harness",
    ] {
        let layer = name.trim_start_matches("self_ms.");
        if let Some(secs) = layers.get(layer) {
            m.set(name, 1e3 * secs / ops);
        }
    }
}

/// Write the Chrome trace and the self-time table (followed by
/// `table_tail`) next to each other and record where they went.
pub fn write_trace(
    args: &ChildArgs,
    out: &mut RunRecord,
    spans: &[span::SpanRec],
    table_tail: &str,
) {
    let trace_path = args.out_dir.join(format!("trace-{}.json", args.workload));
    let table_path = args.out_dir.join(format!("layers-{}.txt", args.workload));
    let doc = span::chrome_trace(spans, &args.workload).to_json();
    match pevpm_obs::chrome::validate(&doc) {
        Ok(n) => out.facts.num("trace_events", n as f64),
        Err(e) => out.fail(format!("chrome trace does not validate: {e}")),
    }
    let written = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&trace_path, doc))
        .and_then(|()| std::fs::write(&table_path, span::render_table(spans) + table_tail));
    match written {
        Ok(()) => {
            out.facts
                .text("trace_file", &trace_path.display().to_string());
            out.facts
                .text("layer_table", &table_path.display().to_string());
        }
        Err(e) => out.fail(format!(
            "cannot write trace under {}: {e}",
            args.out_dir.display()
        )),
    }
}

/// Median seconds per call of `f`, timed in batches: each batch repeats
/// `f` until ~2 ms have passed, `batches` batches in all. For probes of
/// calls too short to time one at a time.
pub fn probe_secs(batches: usize, mut f: impl FnMut()) -> f64 {
    // Size one batch.
    let mut per_batch = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        if t.elapsed().as_secs_f64() >= 2e-3 || per_batch >= 1 << 24 {
            break;
        }
        per_batch *= 2;
    }
    let mut per_call = Vec::with_capacity(batches);
    for _ in 0..batches.max(1) {
        let t = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        per_call.push(t.elapsed().as_secs_f64() / per_batch as f64);
    }
    stats::median(&per_call).unwrap_or(0.0)
}

/// Median seconds of `reps` single calls of `f` (for probes long enough
/// to time one at a time).
pub fn probe_once_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times).unwrap_or(0.0)
}

/// Run the workload named in `args`.
pub fn run(args: &ChildArgs) -> RunRecord {
    match args.workload.as_str() {
        "predict_64x2" => predict::run(args),
        "groundtruth_64x2" => groundtruth::run(args),
        "mpibench_sweep" => sweep::run(args),
        "serve_hot" => serve::run(args, serve::Mix::Hot),
        "serve_churn" => serve::run(args, serve::Mix::Churn),
        other => {
            let mut r = RunRecord {
                workload: other.to_string(),
                trace: args.trace,
                ..Default::default()
            };
            r.fail(format!("unknown workload {other:?}"));
            r
        }
    }
}
