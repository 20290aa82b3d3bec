//! The `serve_hot` benchmark's kind of traffic, built in process: predict
//! frames for generated programs against a synthetic table. Shared by
//! `tests/alloc_count.rs` and `examples/profile_serve.rs`.

use pevpm_dist::DistTable;
use pevpm_serve::client::predict_frame;
use pevpm_serve::plan::{self, PredictRequest};
use pevpm_testkit::tables::synthetic_table;
use pevpm_testkit::{generate, GenConfig};

/// The table name every frame refers to.
pub const TABLE: &str = "default";

/// The table and `n` requests at `seed`, each with the predict frame that
/// carries it: programs `generate(&GenConfig::differential(), 1000·seed +
/// k)` for k = 0, 1, …, keeping those that evaluate (a cycle of rendezvous
/// sends deadlocks about one program in 300), each at reps 1 and seed
/// `seed + k`.
pub fn working_set(seed: u64, n: usize) -> (DistTable, Vec<(PredictRequest, String)>) {
    let gen = GenConfig::differential();
    let table = synthetic_table(&gen.sizes, seed);
    let probe = PredictRequest::new("", 1);
    let mode = probe.prediction_mode().expect("default mode");
    let timing = plan::build_timing(&table, mode, false, probe.compile_options())
        .expect("the synthetic table compiles");
    let mut set = Vec::with_capacity(n);
    for k in 0..1000 {
        if set.len() == n {
            return (table, set);
        }
        let program = generate(&gen, 1000 * seed + k);
        let mut req = PredictRequest::new(program.to_annotated(), program.nprocs);
        req.seed = seed + k;
        let id = format!("m{}", set.len());
        let evaluates = plan::parse_model(&req.model_src, &id)
            .and_then(|model| plan::evaluate_plan(&model, &req.eval_config()?, &timing, req.reps));
        if evaluates.is_ok() {
            let frame = predict_frame(&id, TABLE, &req);
            set.push((req, frame));
        }
    }
    panic!("fewer than {n} of 1000 generated programs evaluate");
}
