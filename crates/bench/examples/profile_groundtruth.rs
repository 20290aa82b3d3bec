//! Profiling harness for the ground-truth path: `apps` rank programs over
//! `mpisim` over `netsim`.
//!
//! Runs N canonical executions (Jacobi 256x256, 250 iterations, on a
//! 64-node, 2-process-per-node Perseus world, seeds 11, 12, …) and prints
//! wall milliseconds per execution, then two layer rates measured on
//! their own: events/s of a bare `Network` (a 64-node ring of 1 KiB
//! transfers, 100 rounds) and nanoseconds per halo message through the
//! Jacobi codec as a rank runs it (encode of one 256-float row into the
//! reused buffer, which must be rewritten in place, then decode). Seed 11
//! must exchange 63 627 messages in 160 322 network events.
//!
//! Then N runs of the `mpibench_sweep` benchmark op's sweep (shapes 2x1,
//! 8x1, 32x1; sizes 1–64 KiB; 20 repetitions; seed 20 040 101; one
//! thread), printing ms per sweep, network events per shape and events/s.
//! Every run must write the table whose FNV-1a is `56a3985a2cd35a8d` and
//! take the pinned number of events per shape.
//!
//! `cargo run --release -p pevpm-bench --example profile_groundtruth -- [N]`
//! (default N = 3); point a sampling profiler at
//! `target/release/examples/profile_groundtruth` for a split by function.

use pevpm_apps::jacobi::{self, JacobiConfig};
use pevpm_dist::io::write_table;
use pevpm_mpibench::{run_sweep_threads, size_grid, MachineShape, SweepConfig, HIST_BINS};
use pevpm_mpisim::{Bytes, WorldConfig};
use pevpm_netsim::{ClusterConfig, Network};
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 11;
const MESSAGES: u64 = 63_627;
const EVENTS: u64 = 160_322;

const SWEEP_SEED: u64 = 20_040_101;
const SWEEP_NODES: [usize; 3] = [2, 8, 32];
/// FNV-1a of the sweep's `write_table` text.
const SWEEP_FNV: u64 = 0x56a3_985a_2cd3_5a8d;
/// Network events of each shape's benchmark execution.
const SWEEP_EVENTS: [u64; 3] = [17_896, 80_992, 458_055];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn main() {
    let n: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("N is a count of executions"))
        .unwrap_or(3);
    let cfg = JacobiConfig {
        xsize: 256,
        iterations: 250,
        serial_secs: 3.24e-3,
    };

    let mut total_s = 0.0;
    for seed in SEED..SEED + n {
        let t = Instant::now();
        let run = jacobi::run_measured(WorldConfig::perseus(64, 2, seed), &cfg)
            .expect("ground-truth execution");
        let wall = t.elapsed().as_secs_f64();
        total_s += wall;
        let events = run.report.net_stats.events_processed;
        println!(
            "seed {seed}: {:.3} ms  virtual={:.9} s  messages={}  events={events}",
            1e3 * wall,
            run.time,
            run.report.messages
        );
        assert_eq!(run.report.messages, MESSAGES, "seed {seed}: messages");
        if seed == SEED {
            assert_eq!(events, EVENTS, "seed {SEED}: network events");
        }
    }
    if n > 0 {
        println!("ground truth: {:.3} ms/op", 1e3 * total_s / n as f64);
    }

    let sweep = SweepConfig {
        shapes: SWEEP_NODES
            .map(|nodes| MachineShape { nodes, ppn: 1 })
            .to_vec(),
        sizes: size_grid(1024, 65_536),
        repetitions: 20,
        seed: SWEEP_SEED,
        bins: HIST_BINS,
    };
    for _ in 0..n {
        let t = Instant::now();
        let res = run_sweep_threads(&sweep, 1).expect("sweep");
        let wall = t.elapsed().as_secs_f64();
        let events: Vec<u64> = res.runs.iter().map(|r| r.net_events).collect();
        println!(
            "sweep: {:.3} ms/op  events {}  {:.0} events/s",
            1e3 * wall,
            SWEEP_NODES
                .iter()
                .zip(&events)
                .map(|(nodes, e)| format!("{nodes}x1={e}"))
                .collect::<Vec<_>>()
                .join(" "),
            events.iter().sum::<u64>() as f64 / wall
        );
        let fnv = fnv1a(write_table(&res.table).as_bytes());
        assert_eq!(fnv, SWEEP_FNV, "sweep table FNV-1a {fnv:#018x}");
        assert_eq!(events, SWEEP_EVENTS, "sweep: network events per shape");
    }

    let t = Instant::now();
    let mut net = Network::new(ClusterConfig::perseus(64), SEED);
    for _ in 0..100 {
        let now = net.now();
        for src in 0..64 {
            net.start_transfer(now, src, (src + 1) % 64, 1024);
        }
        black_box(net.run_to_completion());
    }
    let events = net.stats().events_processed;
    println!(
        "netsim: {events} events, {:.0} events/s",
        events as f64 / t.elapsed().as_secs_f64()
    );

    const HALOS: u32 = 200_000;
    let row: Vec<f32> = (0..cfg.xsize).map(|i| i as f32 * 0.5).collect();
    let mut ghost = vec![0.0f32; cfg.xsize];
    let mut payload = jacobi::encode_f32s(&row, Bytes::new());
    let buffer = payload.as_ptr();
    let t = Instant::now();
    for _ in 0..HALOS {
        payload = jacobi::encode_f32s(black_box(&row), payload);
        jacobi::decode_f32s_into(&payload, &mut ghost);
        black_box(&mut ghost);
    }
    assert_eq!(ghost, row);
    assert_eq!(payload.as_ptr(), buffer, "the halo buffer was reallocated");
    println!(
        "halo codec: {:.1} ns/message ({} B rows)",
        t.elapsed().as_nanos() as f64 / f64::from(HALOS),
        4 * cfg.xsize
    );
}
