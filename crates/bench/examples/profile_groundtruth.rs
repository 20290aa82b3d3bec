//! Profiling harness for the ground-truth path: `apps` rank programs over
//! `mpisim` over `netsim`.
//!
//! Runs N canonical executions (Jacobi 256x256, 250 iterations, on a
//! 64-node, 2-process-per-node Perseus world, seeds 11, 12, …) and prints
//! wall milliseconds per execution, then two layer rates measured on
//! their own: events/s of a bare `Network` (a 64-node ring of 1 KiB
//! transfers, 100 rounds) and nanoseconds per halo message through the
//! Jacobi codec (encode plus decode of one 256-float row). Seed 11 must
//! exchange 63 627 messages in 160 322 network events.
//!
//! `cargo run --release -p pevpm-bench --example profile_groundtruth -- [N]`
//! (default N = 3); point a sampling profiler at
//! `target/release/examples/profile_groundtruth` for a split by function.

use pevpm_apps::jacobi::{self, JacobiConfig};
use pevpm_mpisim::WorldConfig;
use pevpm_netsim::{ClusterConfig, Network};
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 11;
const MESSAGES: u64 = 63_627;
const EVENTS: u64 = 160_322;

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
    let t = Instant::now();
    for _ in 0..HALOS {
        let payload = jacobi::encode_f32s(black_box(&row));
        jacobi::decode_f32s_into(&payload, &mut ghost);
        black_box(&mut ghost);
    }
    assert_eq!(ghost, row);
    println!(
        "halo codec: {:.1} ns/message ({} B rows)",
        t.elapsed().as_nanos() as f64 / f64::from(HALOS),
        4 * cfg.xsize
    );
}
