//! Per-layer probes: short timed calls into one crate's public functions
//! on fixed inputs, run at the end of a traced run. A workload runs the
//! probes of the layers it drives (see `perf/README.md` for the map);
//! the `serve` probes live with the serve workload because they need its
//! daemon and frames.
//!
//! Probe timings are raw (not host-normalised); `proc.host_speed` beside
//! them says how fast the host was.

use crate::record::RunRecord;
use crate::workloads::predict::{self, jacobi_cfg, ring_table, CANON_SEED, NPROCS, REPS};
use crate::workloads::sweep;
use crate::workloads::{probe_once_secs, probe_secs, ChildArgs};
use pevpm::stats::AdaptivePolicy;
use pevpm::vm::{evaluate, monte_carlo, EvalConfig};
use pevpm::TimingModel;
use pevpm_apps::jacobi;
use pevpm_dist::io::{read_table, save_table, write_table};
use pevpm_dist::{CompiledTable, DistTable, Op};
use pevpm_mpibench::{histogram_from_samples, run_p2p, size_grid, MachineShape, P2pConfig};
use pevpm_mpisim::{World, WorldConfig};
use pevpm_netsim::{ClusterConfig, Network};
use pevpm_obs::Registry;
use pevpm_testkit::tables::synthetic_table;
use pevpm_testkit::GenConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Replication count the 0.5% stopping rule picks on the canonical
/// small program (8x2 ring table, 16 processes, 50 iterations, seed 11):
/// short enough that the rule neither stops at its floor of 4 nor runs
/// into its ceiling of 64.
pub const ADAPTIVE_REPS: usize = 21;

/// `dist`: the three sampler paths, table compile, histogram build and
/// text I/O. `swept` is the canonical 21-key sweep table (built here
/// when the workload has none).
pub fn dist(out: &mut RunRecord, swept: Option<&DistTable>) {
    let m = &mut out.per_layer;
    let mut rng = SmallRng::seed_from_u64(CANON_SEED);
    // The same small histogram table wherever the probe runs.
    let ring = &ring_table(MachineShape { nodes: 8, ppn: 2 }, CANON_SEED);
    let Some((key, _)) = ring.iter().next() else {
        return out.fail("dist probe: empty ring table");
    };
    let (op, size, contention) = (key.op, key.size as f64, f64::from(key.contention));

    let compiled = CompiledTable::compile(ring).expect("ring table compiles");
    m.set(
        "dist.sample_hist_ns",
        1e9 * probe_secs(9, || {
            black_box(compiled.sample_at(op, size, contention, &mut rng));
        }),
    );
    let fitted = CompiledTable::compile(&ring.fitted()).expect("fitted table compiles");
    m.set(
        "dist.sample_fit_ns",
        1e9 * probe_secs(9, || {
            black_box(fitted.sample_at(op, size, contention, &mut rng));
        }),
    );
    // Off-grid in both axes: size 1500 lies between 1024 and 4096,
    // contention 20 between 8 and 100.
    let synth = synthetic_table(&GenConfig::differential().sizes, CANON_SEED);
    let synth_compiled = CompiledTable::compile(&synth).expect("synthetic table compiles");
    m.set(
        "dist.sample_blend_ns",
        1e9 * probe_secs(9, || {
            black_box(synth_compiled.sample_at(Op::Send, 1500.0, 20.0, &mut rng));
        }),
    );
    m.set(
        "dist.compile_synth_us",
        1e6 * probe_once_secs(9, || {
            black_box(CompiledTable::compile(&synth).expect("compiles"));
        }),
    );

    let built;
    let swept = match swept {
        Some(t) => t,
        None => {
            built = sweep::sweep(&sweep::sweep_cfg(sweep::CANON_SEED))
                .expect("canonical sweep")
                .table;
            &built
        }
    };
    m.set(
        "dist.compile_sweep_us",
        1e6 * probe_once_secs(9, || {
            black_box(CompiledTable::compile(swept).expect("compiles"));
        }),
    );
    let text = write_table(swept);
    let mb = text.len() as f64 / 1e6;
    m.set(
        "dist.io_write_mb_s",
        mb / probe_once_secs(9, || {
            black_box(write_table(swept));
        }),
    );
    m.set(
        "dist.io_read_mb_s",
        mb / probe_once_secs(9, || {
            black_box(read_table(&text).expect("reads back"));
        }),
    );
    // One sweep's worth of samples: 21 cells of 280.
    let cells: Vec<Vec<f64>> = (0..sweep::KEYS)
        .map(|_| {
            (0..sweep::SAMPLES / sweep::KEYS)
                .map(|_| rng.gen_range(1e-4..2e-4))
                .collect()
        })
        .collect();
    m.set(
        "dist.hist_build_ns_per_sample",
        1e9 * probe_once_secs(9, || {
            for cell in &cells {
                black_box(histogram_from_samples(cell, 100));
            }
        }) / sweep::SAMPLES as f64,
    );
}

/// `pevpm`: parse, evaluation set-up, replication overhead, sampler and
/// thread ratios.
pub fn pevpm(out: &mut RunRecord, state: &predict::State) {
    let m = &mut out.per_layer;
    m.set(
        "pevpm.annotate_parse_us",
        1e6 * probe_secs(9, || {
            black_box(pevpm::parse_annotations(pevpm::JACOBI_FIG5).expect("Figure 5 parses"));
        }),
    );
    // `lower` is crate-private; a zero-iteration evaluation is lowering
    // plus environment set-up and nothing else.
    let empty = jacobi::model(&jacobi_cfg(0));
    let cfg = EvalConfig::new(NPROCS)
        .with_seed(CANON_SEED)
        .with_threads(1);
    let one = probe_secs(9, || {
        black_box(evaluate(&empty, &cfg, &state.timing).expect("evaluates"));
    });
    m.set("pevpm.eval_setup_us", 1e6 * one);
    let four = probe_secs(9, || {
        black_box(monte_carlo(&empty, &cfg, &state.timing, 4).expect("evaluates"));
    });
    m.set("pevpm.replicate_overhead_us", 1e6 * (four - 4.0 * one));

    let interpreted = TimingModel::interpreted(state.table.clone());
    let compiled_s = probe_once_secs(3, || {
        black_box(evaluate(&state.model, &cfg, &state.timing).expect("evaluates"));
    });
    let interpreted_s = probe_once_secs(3, || {
        black_box(evaluate(&state.model, &cfg, &interpreted).expect("evaluates"));
    });
    m.set("pevpm.interp_ratio", interpreted_s / compiled_s.max(1e-12));

    // Diagnostic only: on a 2-core shared host threads = 2 has measured
    // slower than threads = 1; facts carry nproc.
    // Off the single pinned CPU for these two, or they could only lose.
    let (threads, par_ratio, serial_s, dag_s) = crate::host::widened(|| {
        let threads = crate::host::nproc().min(4);
        let par_cfg = cfg.clone().with_threads(threads);
        // Serial and parallel batch back to back, twice, so that a host
        // slow-down between them cannot pose as a speed-up.
        let ratios: Vec<f64> = (0..2)
            .map(|_| {
                let time = |cfg: &EvalConfig| {
                    probe_once_secs(1, || {
                        black_box(
                            monte_carlo(&state.model, cfg, &state.timing, REPS).expect("evaluates"),
                        );
                    })
                };
                time(&cfg) / time(&par_cfg).max(1e-12)
            })
            .collect();
        let par_ratio = crate::stats::mean(&ratios);
        let ensemble = jacobi::ensemble_model(&jacobi_cfg(200), 16);
        let serial_s = probe_once_secs(3, || {
            black_box(evaluate(&ensemble, &cfg, &state.timing).expect("evaluates"));
        });
        let dag_cfg = cfg.clone().with_eval_threads(2);
        let dag_s = probe_once_secs(3, || {
            black_box(evaluate(&ensemble, &dag_cfg, &state.timing).expect("evaluates"));
        });
        (threads, par_ratio, serial_s, dag_s)
    });
    m.set("pevpm.par_speedup", par_ratio);
    m.set("pevpm.dag_speedup", serial_s / dag_s.max(1e-12));
    out.facts.num("par_threads", threads as f64);

    // Count: what the stopping rule picks on a fixed small program.
    let small =
        TimingModel::distributions(ring_table(MachineShape { nodes: 8, ppn: 2 }, CANON_SEED));
    let adaptive_cfg = EvalConfig::new(16)
        .with_seed(CANON_SEED)
        .with_threads(1)
        .with_adaptive(AdaptivePolicy::new(0.005));
    match monte_carlo(&jacobi::model(&jacobi_cfg(50)), &adaptive_cfg, &small, 1) {
        Ok(mc) => {
            out.per_layer
                .set("pevpm.adaptive_reps", mc.runs.len() as f64);
            out.gate(mc.runs.len() == ADAPTIVE_REPS, || {
                format!(
                    "adaptive rule chose {} reps, pinned {ADAPTIVE_REPS}",
                    mc.runs.len()
                )
            });
        }
        Err(e) => out.fail(format!("adaptive probe failed: {e}")),
    }
}

/// `apps`: building the Jacobi model.
pub fn apps(out: &mut RunRecord) {
    out.per_layer.set(
        "apps.model_build_us",
        1e6 * probe_secs(9, || {
            black_box(jacobi::model(&jacobi_cfg(1000)));
        }),
    );
}

/// `cli`: the one-shot user's whole cost — `pevpm predict --db FILE …`
/// loads, parses, compiles, evaluates and renders with nothing cached.
pub fn cli(out: &mut RunRecord, args: &ChildArgs, table: &DistTable) {
    let dir = args.out_dir.join(format!("tmp-{}", std::process::id()));
    let db = dir.join("predict.dist");
    let model = dir.join("jacobi.c");
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| save_table(table, &db))
        .and_then(|()| std::fs::write(&model, pevpm::JACOBI_FIG5));
    if let Err(e) = written {
        return out.fail(format!(
            "cli probe: cannot write under {}: {e}",
            dir.display()
        ));
    }
    let tokens: Vec<String> = [
        "predict",
        "--db",
        &db.display().to_string(),
        "--model",
        &model.display().to_string(),
        "--procs",
        "128",
        "--param",
        "iterations=100",
        "--param",
        "xsize=256",
        "--seed",
        "11",
        "--threads",
        "1",
        "--quiet",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut failure = None;
    let secs = probe_once_secs(5, || {
        if let Err(e) = pevpm_cli::run(tokens.clone()) {
            failure = Some(e.to_string());
        }
    });
    if let Some(e) = failure {
        out.fail(format!("cli probe: predict failed: {e}"));
    }
    out.per_layer.set("cli.oneshot_predict_ms", 1e3 * secs);
    out.per_layer.set(
        "cli.args_parse_us",
        1e6 * probe_secs(9, || {
            black_box(pevpm_cli::args::Args::parse(tokens.clone()).expect("parses"));
        }),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `netsim`: the bare event core with no `mpisim` on top — a 64-node
/// ring of 1 KiB transfers (events/s) and 8 nodes moving 64 KiB each
/// (frames/s). Bounds how much of a ground-truth run is not hand-off.
pub fn netsim(out: &mut RunRecord) {
    fn ring_rounds(nodes: usize, bytes: u64, rounds: usize) -> Network {
        let mut net = Network::new(ClusterConfig::perseus(nodes), CANON_SEED);
        for _ in 0..rounds {
            let now = net.now();
            for src in 0..nodes {
                net.start_transfer(now, src, (src + 1) % nodes, bytes);
            }
            black_box(net.run_to_completion());
        }
        net
    }
    let mut events = 0u64;
    let secs = probe_once_secs(5, || {
        events = ring_rounds(64, 1024, 100).stats().events_processed
    });
    out.per_layer
        .set("netsim.events_per_s", events as f64 / secs.max(1e-12));
    let mut frames = 0u64;
    let secs = probe_once_secs(5, || {
        frames = ring_rounds(8, 65_536, 100).stats().frames_sent
    });
    out.per_layer
        .set("netsim.frames_per_s", frames as f64 / secs.max(1e-12));
}

/// `mpisim`: the costs a ground-truth run is made of — one rank-to-rank
/// hand-off, one 32-rank barrier, and spawning a 128-rank world.
pub fn mpisim(out: &mut RunRecord) {
    const PINGPONGS: usize = 2_000;
    const BARRIERS: usize = 200;
    let mut failure: Option<String> = None;
    let mut run = |cfg: WorldConfig, program: &(dyn Fn(&mut pevpm_mpisim::Rank) + Send + Sync)| {
        if let Err(e) = World::run(cfg, program) {
            failure = Some(e.to_string());
        }
    };
    let spawn2 = probe_once_secs(5, || run(WorldConfig::perseus(2, 1, CANON_SEED), &|_| {}));
    let pingpong = probe_once_secs(5, || {
        run(WorldConfig::perseus(2, 1, CANON_SEED), &|rank| {
            let peer = 1 - rank.rank();
            for _ in 0..PINGPONGS {
                if rank.rank() == 0 {
                    rank.send_size(peer, 0, 0);
                    rank.recv(peer, 0u64);
                } else {
                    rank.recv(peer, 0u64);
                    rank.send_size(peer, 0, 0);
                }
            }
        })
    });
    // Two messages per ping-pong, world spawn taken out.
    let handoff = (pingpong - spawn2).max(0.0) / (2 * PINGPONGS) as f64;
    let spawn32 = probe_once_secs(5, || run(WorldConfig::perseus(32, 1, CANON_SEED), &|_| {}));
    let barriers = probe_once_secs(5, || {
        run(WorldConfig::perseus(32, 1, CANON_SEED), &|rank| {
            for _ in 0..BARRIERS {
                rank.barrier();
            }
        })
    });
    let spawn128 = probe_once_secs(5, || run(WorldConfig::perseus(64, 2, CANON_SEED), &|_| {}));
    if let Some(e) = failure {
        out.fail(format!("mpisim probe: {e}"));
    }
    let m = &mut out.per_layer;
    m.set("mpisim.handoff_us", 1e6 * handoff);
    m.set(
        "mpisim.barrier_us",
        1e6 * (barriers - spawn32).max(0.0) / BARRIERS as f64,
    );
    m.set("mpisim.spawn_ms", 1e3 * spawn128);
}

/// `mpibench`: one shape of the sweep on its own, and turning its
/// samples into table cells.
pub fn mpibench(out: &mut RunRecord) {
    let cfg = P2pConfig::perseus(32, 1, size_grid(1024, 65_536), 20, CANON_SEED);
    let mut result = None;
    let secs = probe_once_secs(3, || result = Some(run_p2p(&cfg)));
    let res = match result {
        Some(Ok(r)) => r,
        Some(Err(e)) => return out.fail(format!("mpibench probe: {e}")),
        None => return,
    };
    out.per_layer.set("mpibench.p2p_s_32x1", secs);
    out.per_layer.set(
        "mpibench.table_build_us",
        1e6 * probe_secs(9, || {
            let mut table = DistTable::new();
            res.add_to_table(&mut table, Op::Isend, 100);
            black_box(table);
        }),
    );
}

/// `obs`: JSON parse of a predict frame, and the two always-on
/// instrumentation primitives on a request's path.
pub fn obs(out: &mut RunRecord, frame: &str) {
    let m = &mut out.per_layer;
    let secs = probe_secs(9, || {
        black_box(pevpm_obs::json::parse(frame).expect("frame parses"));
    });
    m.set(
        "obs.json_parse_mb_s",
        frame.len() as f64 / 1e6 / secs.max(1e-12),
    );
    let registry = Registry::new();
    let counter = registry.counter("probe.counter");
    m.set("obs.counter_inc_ns", 1e9 * probe_secs(9, || counter.inc()));
    let hist = registry.histogram("probe.hist_ms", 0.0, 250.0, 50);
    let mut v = 0.0;
    m.set(
        "obs.hist_record_ns",
        1e9 * probe_secs(9, || {
            v = (v + 0.37) % 250.0;
            hist.record(v);
        }),
    );
    out.facts.num("probe_frame_bytes", frame.len() as f64);
}
