//! Micro-benchmark of what the observability sinks cost the
//! PEVPM engine: no sink, metrics registry, timeline recording, service
//! span telemetry — each bitwise the bare prediction. Engine, sampler and
//! simulator speed are measured by the probes of the benchmark under
//! `perf/`, which has no sink-overhead row.
//!
//! Run with `cargo bench -p pevpm-bench --bench engine_micro`.

use pevpm::timing::TimingModel;
use pevpm::vm::{evaluate, monte_carlo, EvalConfig};
use pevpm_apps::jacobi::{self, JacobiConfig};
use pevpm_dist::{CommDist, DistKey, DistTable, Histogram, Op};
use std::hint::black_box;
use std::time::Instant;

/// Print one row: min / median / max per-call time over seven samples, each
/// sample enough calls to fill about 40 ms.
fn time_row(name: &str, mut call: impl FnMut() -> f64) {
    let warm = Instant::now();
    black_box(call());
    let calls = ((0.04 / warm.elapsed().as_secs_f64().max(1e-9)).ceil() as u32).max(1);
    let mut micros: Vec<f64> = (0..7)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                black_box(call());
            }
            start.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
        })
        .collect();
    micros.sort_by(f64::total_cmp);
    println!(
        "{name:<50} time: [{:.2} {:.2} {:.2}] µs",
        micros[0], micros[3], micros[6]
    );
}

/// Cost of the observability hooks: the same evaluation with no sink
/// (default config — the hooks reduce to one branch per event), with a
/// metrics registry attached, and with timeline recording on. The no-sink
/// variant is the guard: it must stay within noise (<5%) of what the
/// engine did before instrumentation existed.
fn main() {
    use pevpm_obs::Registry;
    use std::sync::Arc;

    let mut table = DistTable::new();
    let samples: Vec<f64> = (0..1000).map(|i| 250e-6 + (i % 97) as f64 * 1e-6).collect();
    for &contention in &[2u32, 64] {
        table.insert(
            DistKey {
                op: Op::Send,
                size: 1024,
                contention,
            },
            CommDist::Hist(Histogram::from_samples(&samples, 1e-6)),
        );
    }
    let timing = TimingModel::distributions(table);
    let cfg = JacobiConfig {
        xsize: 256,
        iterations: 60,
        serial_secs: 3.24e-3,
    };
    let model = jacobi::model(&cfg);

    let no_sink = EvalConfig::new(16).with_seed(1);
    let registry = Arc::new(Registry::new());
    let with_metrics = EvalConfig::new(16)
        .with_seed(1)
        .with_metrics(registry.clone());
    let with_timeline = EvalConfig::new(16).with_seed(1).with_timeline();

    time_row("pevpm: evaluation, no sink", || {
        evaluate(&model, &no_sink, &timing).unwrap().makespan
    });
    time_row("pevpm: evaluation, metrics registry", || {
        evaluate(&model, &with_metrics, &timing).unwrap().makespan
    });
    time_row("pevpm: evaluation, timeline recording", || {
        evaluate(&model, &with_timeline, &timing).unwrap().makespan
    });

    // Service-span telemetry as the daemon applies it: a stage window
    // into a bounded span ring plus a latency histogram, wrapped around
    // the evaluation. Telemetry observes, never steers — the prediction
    // must stay bitwise identical to the bare run.
    let ring = pevpm_obs::SpanRing::new(64);
    let span_registry = Arc::new(Registry::new());
    let evaluate_with_span = |ring: &pevpm_obs::SpanRing, reg: &Registry| {
        let t0 = Instant::now();
        let mut span = pevpm_obs::RequestSpan::new(ring.next_id(), "predict", 0, 0.0);
        let pred = evaluate(&model, &no_sink, &timing).unwrap();
        let dur_us = t0.elapsed().as_secs_f64() * 1e6;
        span.stages.push(pevpm_obs::StageTiming {
            name: "eval".to_string(),
            start_us: 0.0,
            dur_us,
        });
        span.total_us = dur_us;
        reg.histogram("serve.stage.eval_ms", 0.0, 250.0, 50)
            .record(dur_us / 1e3);
        ring.push(span);
        pred
    };
    time_row("pevpm: evaluation, span telemetry", || {
        evaluate_with_span(&ring, &span_registry).makespan
    });
    let bare = evaluate(&model, &no_sink, &timing).unwrap();
    let spanned = evaluate_with_span(&ring, &span_registry);
    assert_eq!(
        bare.makespan.to_bits(),
        spanned.makespan.to_bits(),
        "span telemetry must not perturb predictions"
    );

    // One-shot replication-throughput comparison: a 32-replication batch
    // with and without a metrics sink attached.
    let plain = monte_carlo(&model, &no_sink, &timing, 32).unwrap();
    let metered = monte_carlo(&model, &with_metrics, &timing, 32).unwrap();
    assert_eq!(
        plain.mean.to_bits(),
        metered.mean.to_bits(),
        "instrumentation must not perturb results"
    );
    println!(
        "pevpm: replication throughput {:.0} evals/s (no sink) vs {:.0} evals/s (metrics), \
         sink overhead {:+.1}%",
        plain.evals_per_sec,
        metered.evals_per_sec,
        (plain.evals_per_sec / metered.evals_per_sec.max(1e-9) - 1.0) * 100.0,
    );
}
