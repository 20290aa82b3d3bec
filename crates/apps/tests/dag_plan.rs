//! What the static communication analysis makes of every application
//! model, pinned through `pevpm::dag::plan` at each model's test shape:
//! component count, condensed edges and fallback reason. The analysis
//! enumerates a model's messages without a clock; moving or rewriting it
//! must leave every answer here as it is.

use pevpm::dag;
use pevpm::model::Model;
use pevpm::vm::EvalConfig;
use pevpm_apps::fft::{self, FftConfig};
use pevpm_apps::jacobi::{self, JacobiConfig};
use pevpm_apps::taskfarm::{self, FarmConfig};

/// `(components, edges, fallback)` of `model` under `cfg`.
fn plan(model: &Model, cfg: &EvalConfig) -> (usize, usize, Option<String>) {
    let p = dag::plan(model, cfg).expect("analysis");
    (p.components, p.edges, p.fallback)
}

const SINGLE: (usize, usize, Option<String>) = (1, 0, None);

#[test]
fn jacobi_models_condense_to_one_component() {
    let fig5 = jacobi::model(&JacobiConfig::default());
    for n in [1usize, 2, 4, 8] {
        let cfg = EvalConfig::new(n).with_param("iterations", 3.0);
        assert_eq!(plan(&fig5, &cfg), SINGLE, "model @ {n}");
    }
    let overlap = jacobi::model_overlap(&JacobiConfig {
        xsize: 256,
        iterations: 40,
        serial_secs: 3.24e-3,
    });
    assert_eq!(plan(&overlap, &EvalConfig::new(16)), SINGLE, "overlap");
}

#[test]
fn fft_and_task_farm_plans_are_pinned() {
    let fft = fft::model(&FftConfig {
        n1: 32,
        n2: 32,
        flops_per_sec: 50e6,
        iterations: 2,
    });
    assert_eq!(plan(&fft, &EvalConfig::new(4)), SINGLE, "fft");
    let farm = taskfarm::model(&FarmConfig {
        tasks: 24,
        work_spread_secs: 0.0,
        ..Default::default()
    });
    assert_eq!(plan(&farm, &EvalConfig::new(4)), SINGLE, "farm");
}

#[test]
fn ensemble_plans_are_pinned() {
    let small = jacobi::ensemble_model(
        &JacobiConfig {
            xsize: 64,
            iterations: 4,
            serial_secs: 1e-4,
        },
        2,
    );
    assert_eq!(
        plan(&small, &EvalConfig::new(8).with_seed(3)),
        (4, 0, None),
        "8 / 2"
    );
    let wide = jacobi::ensemble_model(
        &JacobiConfig {
            xsize: 256,
            iterations: 200,
            serial_secs: 3.24e-3,
        },
        16,
    );
    assert_eq!(plan(&wide, &EvalConfig::new(128)), (8, 0, None), "128 / 16");
}
