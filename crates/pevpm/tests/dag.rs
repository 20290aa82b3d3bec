//! Contract of the intra-evaluation DAG scheduler (`pevpm::dag`).
//!
//! - **Thread-count invariance**: a DAG evaluation is bitwise identical
//!   at every `eval_threads >= 1` — the scheduler's analogue of the
//!   replication engine's `(base_seed, i)` contract.
//! - **Serial equivalence on single components**: programs that condense
//!   to one SCC (rings, collectives) take the serial engine path with the
//!   configured seed, so the prediction is bit-for-bit the classic one.
//! - **Value equivalence under deterministic timing**: with point-mass
//!   timing distributions the decomposition cannot change any clock, so
//!   even multi-component programs reproduce the serial finish times.
//! - **Shared thread budget**: `threads × eval_threads` stays within the
//!   host budget when Monte-Carlo replication nests DAG evaluations.

mod common;

use common::{assert_identical, noisy_timing, point_timing, ring_model};
use pevpm::model::build::*;
use pevpm::model::{Model, Stmt};
use pevpm::timing::TimingModel;
use pevpm::vm::{evaluate, monte_carlo, EvalConfig};
use pevpm::{dag, ThreadBudget};
use std::sync::Arc;

/// Eight ranks in four independent ping-pong pairs: four SCCs, no edges.
fn island_model() -> Model {
    Model::new().with_stmt(Stmt::Runon {
        branches: vec![
            (
                e("procnum % 2 == 0"),
                vec![looped(
                    "5",
                    vec![
                        send("1024", "procnum", "procnum + 1"),
                        recv("1024", "procnum + 1", "procnum"),
                        serial("0.0001"),
                    ],
                )],
            ),
            (
                e("procnum % 2 == 1"),
                vec![looped(
                    "5",
                    vec![
                        recv("1024", "procnum - 1", "procnum"),
                        send("1024", "procnum", "procnum - 1"),
                        serial("0.0001"),
                    ],
                )],
            ),
        ],
    })
}

/// A pipeline chain 0 → 1 → 2 → 3 with eager one-way sends: four
/// components connected by boundary-crossing messages.
fn pipeline_model() -> Model {
    Model::new()
        .with_stmt(runon("procnum == 0", vec![send("512", "0", "1")]))
        .with_stmt(runon(
            "procnum > 0",
            vec![recv("512", "procnum - 1", "procnum"), serial("0.0002")],
        ))
        .with_stmt(runon(
            "procnum > 0 && procnum < numprocs - 1",
            vec![send("512", "procnum", "procnum + 1")],
        ))
}

#[test]
fn multi_component_dag_is_bitwise_identical_at_any_thread_count() {
    let timing = noisy_timing(1.0);
    for (name, model, nprocs) in [
        ("islands", island_model(), 8),
        ("pipeline", pipeline_model(), 4),
    ] {
        let cfg = EvalConfig::new(nprocs).with_seed(0xDA6);
        let plan = dag::plan(&model, &cfg).unwrap();
        assert!(
            plan.components > 1,
            "{name}: expected a multi-component plan, got {}",
            plan.components
        );
        let base = evaluate(&model, &cfg.clone().with_eval_threads(1), &timing).unwrap();
        for threads in [2, 3, 8] {
            let t = evaluate(&model, &cfg.clone().with_eval_threads(threads), &timing).unwrap();
            assert_identical(&base, &t, &format!("{name} @ eval-threads={threads}"));
        }
    }
}

#[test]
fn single_component_dag_matches_serial_bitwise() {
    let timing = noisy_timing(1.0);
    let model = ring_model("4", "1024", "0.0001");
    let cfg = EvalConfig::new(6).with_seed(7);
    let plan = dag::plan(&model, &cfg).unwrap();
    assert_eq!(plan.components, 1, "ring must condense to one SCC");
    let serial = evaluate(&model, &cfg, &timing).unwrap();
    for threads in [1, 2, 8] {
        let t = evaluate(&model, &cfg.clone().with_eval_threads(threads), &timing).unwrap();
        assert_identical(&serial, &t, &format!("ring @ eval-threads={threads}"));
    }
}

#[test]
fn collective_program_falls_back_to_serial_bitwise() {
    let timing = TimingModel::hockney(100e-6, 12.5e6);
    let model = Model::new()
        .with_stmt(serial("0.001"))
        .with_stmt(collective(pevpm::CollOp::Allreduce, "4096"));
    let cfg = EvalConfig::new(4).with_seed(3);
    let serial = evaluate(&model, &cfg, &timing).unwrap();
    for threads in [1, 2, 8] {
        let t = evaluate(&model, &cfg.clone().with_eval_threads(threads), &timing).unwrap();
        assert_identical(&serial, &t, &format!("allreduce @ eval-threads={threads}"));
    }
}

#[test]
fn deterministic_timing_reproduces_serial_values_across_components() {
    // With point-mass distributions no draw can change a clock, so the
    // decomposition must reproduce the serial per-rank times even though
    // the scoreboard is partitioned.
    let timing = point_timing(2.5e-4);
    for (name, model, nprocs) in [
        ("islands", island_model(), 8),
        ("pipeline", pipeline_model(), 4),
    ] {
        let cfg = EvalConfig::new(nprocs).with_seed(11);
        let serial = evaluate(&model, &cfg, &timing).unwrap();
        let dagged = evaluate(&model, &cfg.clone().with_eval_threads(2), &timing).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&serial.finish_times),
            bits(&dagged.finish_times),
            "{name}: finish times under point timing"
        );
        assert_eq!(serial.messages, dagged.messages, "{name}: messages");
        assert_eq!(serial.steps, dagged.steps, "{name}: steps");
    }
}

#[test]
fn pipeline_boundary_messages_are_delivered() {
    // If cross-component injection dropped a message, downstream ranks
    // would deadlock. An error here means the boundary hand-off broke.
    let timing = point_timing(1e-4);
    let model = pipeline_model();
    let cfg = EvalConfig::new(4).with_eval_threads(2);
    let p = evaluate(&model, &cfg, &timing).unwrap();
    assert_eq!(p.messages, 3);
    assert!(p.finish_times.iter().all(|t| *t > 0.0 || p.nprocs == 0));
}

#[test]
fn monte_carlo_shares_the_thread_budget() {
    // `--threads 8 --eval-threads 8` must not spawn 64 workers: each
    // replica's DAG scheduler gets the per-job share of the host budget.
    // Capping is result-neutral, so the aggregate stays bitwise equal to
    // the fully serial nesting.
    let timing = noisy_timing(1.0);
    let model = island_model();
    let reps = 6;
    let registry = Arc::new(pevpm_obs::Registry::new());
    let wide_cfg = EvalConfig::new(8)
        .with_seed(0xB5D)
        .with_threads(8)
        .with_eval_threads(8)
        .with_metrics(registry.clone());
    let wide = monte_carlo(&model, &wide_cfg, &timing, reps).unwrap();

    let narrow_cfg = EvalConfig::new(8)
        .with_seed(0xB5D)
        .with_threads(1)
        .with_eval_threads(1);
    let narrow = monte_carlo(&model, &narrow_cfg, &timing, reps).unwrap();
    for (a, b) in wide.runs.iter().zip(&narrow.runs) {
        assert_identical(a, b, "budgeted vs serial nesting");
    }

    let budget = ThreadBudget::from_host();
    let outer = budget.outer(8, reps);
    let allowed = budget.inner(outer, 8);
    let used = registry.gauge("dag.workers").get();
    assert!(
        used <= allowed as f64,
        "DAG used {used} workers, budget allows {allowed} (outer {outer})"
    );
    assert!(outer * allowed <= budget.total().max(outer));
}

#[test]
fn dag_metrics_are_recorded() {
    let timing = point_timing(1e-4);
    let model = island_model();
    let registry = Arc::new(pevpm_obs::Registry::new());
    let cfg = EvalConfig::new(8)
        .with_eval_threads(2)
        .with_metrics(registry.clone());
    evaluate(&model, &cfg, &timing).unwrap();
    assert_eq!(registry.counter("dag.evaluations").get(), 1);
    assert_eq!(registry.gauge("dag.components").get(), 4.0);
    let cpf = registry.gauge("dag.critical_path_fraction").get();
    // Four equal independent components: the critical path is one
    // component's share of the steps.
    assert!(cpf > 0.0 && cpf <= 0.5, "critical-path fraction {cpf}");
}
