//! `mpibench_sweep`: produce, store, reload and compile a database.
//!
//! The op is `mpibench::run_sweep_threads` over shapes 2x1, 8x1 and 32x1
//! and seven sizes from 1 KiB to 64 KiB (straddling the 16 KiB
//! eager → rendezvous knee), 20 repetitions, 100 bins, one thread; then
//! `dist::io::write_table` → `read_table` → `CompiledTable::compile`.
//! It drives `mpisim`/`netsim` unlike `groundtruth_64x2` does — a
//! barrier before every timed message, rendezvous handshakes,
//! multi-frame transfers — and is the only workload with `mpibench`
//! sample collection and `dist` histogram build and text I/O on the
//! clock.

use super::{begin, single_caller, ChildArgs, Traced, HEAVY_WARMUP_OPS, WARMUP_SEED_OFFSET};
use crate::host::Laps;
use crate::probes;
use crate::record::RunRecord;
use crate::span::Recorder;
use pevpm::replicate::replica_seed;
use pevpm_dist::io::{read_table, write_table};
use pevpm_dist::{CompiledTable, DistTable, Op};
use pevpm_mpibench::{
    run_p2p, run_sweep_threads, size_grid, Direction, MachineShape, P2pConfig, PairPattern,
    SweepConfig,
};
use pevpm_mpisim::WorldConfig;
use pevpm_serve::fnv1a;

/// Keys in the swept table: 3 shapes × 7 sizes.
pub const KEYS: usize = 21;
/// Timed samples behind it.
pub const SAMPLES: usize = 5_880;
/// `SweepConfig::default().seed`, the seed the table hash is pinned at.
pub const CANON_SEED: u64 = 20_040_101;
/// FNV-1a of `write_table` of the canonical-seed table.
pub const CANON_TABLE_FNV: u64 = 0x56a3_985a_2cd3_5a8d;

/// The sweep at `seed`.
pub fn sweep_cfg(seed: u64) -> SweepConfig {
    SweepConfig {
        shapes: [2, 8, 32]
            .iter()
            .map(|&nodes| MachineShape { nodes, ppn: 1 })
            .collect(),
        sizes: size_grid(1024, 65_536),
        repetitions: 20,
        seed,
        bins: 100,
    }
}

/// What one op produced, for the checks.
pub struct Swept {
    /// The database as built.
    pub table: DistTable,
    /// Timed samples collected.
    pub samples: usize,
}

/// The untraced sweep: one call into `mpibench`.
pub fn sweep(cfg: &SweepConfig) -> Result<Swept, String> {
    let res = run_sweep_threads(cfg, 1).map_err(|e| e.to_string())?;
    let samples = res
        .runs
        .iter()
        .flat_map(|r| r.by_size.iter())
        .map(|s| s.samples.len())
        .sum();
    Ok(Swept {
        table: res.table,
        samples,
    })
}

/// The same sweep with a span per shape: what `run_sweep_threads` does
/// at one thread, spelled out so `run_p2p` and `add_to_table` can be
/// timed from outside. The canonical-seed gate checks it builds the
/// identical table.
fn sweep_traced(cfg: &SweepConfig, rec: &mut Recorder) -> Result<Swept, String> {
    let mut table = DistTable::new();
    let mut samples = 0;
    for (i, shape) in cfg.shapes.iter().enumerate() {
        let p2p = P2pConfig {
            world: WorldConfig::perseus(shape.nodes, shape.ppn, replica_seed(cfg.seed, i as u64)),
            sizes: cfg.sizes.clone(),
            repetitions: cfg.repetitions,
            warmup: (cfg.repetitions / 10).max(2),
            sync_every: 1,
            pattern: PairPattern::HalfSplit,
            direction: Direction::Exchange,
            clock: None,
        };
        let res = rec
            .span(&format!("mpibench::run_p2p {shape}"), "mpibench", |_| {
                run_p2p(&p2p)
            })
            .map_err(|e| e.to_string())?;
        samples += res.by_size.iter().map(|s| s.samples.len()).sum::<usize>();
        rec.span("mpibench::add_to_table", "mpibench", |_| {
            res.add_to_table(&mut table, Op::Isend, cfg.bins)
        });
    }
    Ok(Swept { table, samples })
}

fn op(seed: u64, rec: &mut Recorder) -> Result<(), String> {
    let cfg = sweep_cfg(seed);
    let swept = if rec.enabled() {
        sweep_traced(&cfg, rec)?
    } else {
        sweep(&cfg)?
    };
    let text = rec.span("dist::io::write_table", "dist", |_| {
        write_table(&swept.table)
    });
    let back = rec
        .span("dist::io::read_table", "dist", |_| read_table(&text))
        .map_err(|e| e.to_string())?;
    let compiled = rec
        .span("dist::CompiledTable::compile", "dist", |_| {
            CompiledTable::compile(&back)
        })
        .map_err(|e| e.to_string())?;
    if swept.table.len() != KEYS || swept.samples != SAMPLES {
        return Err(format!(
            "{} keys / {} samples, expected {KEYS} / {SAMPLES}",
            swept.table.len(),
            swept.samples
        ));
    }
    if back != swept.table {
        return Err("read_table(write_table(t)) != t".to_string());
    }
    if compiled.len() != KEYS {
        return Err(format!("compiled {} of {KEYS} keys", compiled.len()));
    }
    Ok(())
}

/// Canonical-seed gate: counts, round trip, pinned table hash, and the
/// traced path building the identical table.
fn gate(out: &mut RunRecord) -> Option<DistTable> {
    let cfg = sweep_cfg(CANON_SEED);
    let swept = match sweep(&cfg) {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("canonical sweep failed: {e}"));
            return None;
        }
    };
    out.gate(
        swept.table.len() == KEYS && swept.samples == SAMPLES,
        || {
            format!(
                "canonical sweep: {} keys / {} samples, expected {KEYS} / {SAMPLES}",
                swept.table.len(),
                swept.samples
            )
        },
    );
    let text = write_table(&swept.table);
    out.gate(
        matches!(read_table(&text), Ok(t) if t == swept.table),
        || "canonical sweep: read_table(write_table(t)) != t".to_string(),
    );
    let hash = fnv1a(text.as_bytes());
    out.facts.text("canon_table_fnv1a", &format!("{hash:016x}"));
    out.gate(hash == CANON_TABLE_FNV, || {
        format!("canonical table FNV-1a {hash:#018x} != pinned {CANON_TABLE_FNV:#018x}")
    });
    match sweep_traced(&cfg, &mut Recorder::new(false)) {
        Ok(t) => out.gate(t.table == swept.table, || {
            "per-shape (traced) sweep builds a different table".to_string()
        }),
        Err(e) => out.fail(format!("canonical per-shape sweep failed: {e}")),
    }
    Some(swept.table)
}

/// Run the workload.
pub fn run(args: &ChildArgs) -> RunRecord {
    let mut out = begin(args, 1);
    out.facts.text(
        "sweep",
        "shapes 2x1,8x1,32x1; sizes 1KiB..64KiB x2; 20 reps; 100 bins",
    );
    let canon = gate(&mut out);

    // The sweep keeps nothing between ops: set-up is the warm-up alone.
    let warm_up = |laps: &mut Laps<'_>| {
        for j in 0..HEAVY_WARMUP_OPS {
            laps.lap();
            let seed = args.seed + WARMUP_SEED_OFFSET + j;
            op(seed, &mut Recorder::new(false)).expect("warm-up sweep");
        }
    };
    let ((), traced) = single_caller(args, &mut out, warm_up, |_, seed, rec| op(seed, rec));
    let Some(Traced { shares, op_s }) = traced else {
        return out;
    };
    for foreign in ["pevpm", "serve", "socket"] {
        out.gate(!shares.contains_key(foreign), || {
            format!("layer {foreign} shows up in mpibench_sweep")
        });
    }
    if op_s > 0.0 {
        out.per_layer
            .set("mpibench.samples_per_s", SAMPLES as f64 / op_s);
    }
    probes::mpibench(&mut out);
    probes::mpisim(&mut out);
    probes::netsim(&mut out);
    probes::dist(&mut out, canon.as_ref());
    out
}
