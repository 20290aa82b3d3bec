//! Service-path contracts of adaptive replication and common random
//! numbers (CRN).
//!
//! - A CRN-marked what-if batch must be byte-identical across daemon
//!   restarts and across `--conns` values, and must actually pair the
//!   arms on one seed stream (an arm's answer equals the same item
//!   evaluated alone under the shared base seed).
//! - An adaptive (`precision`) request must answer deterministically,
//!   agree with the in-process plan evaluation, report reps saved on an
//!   easy model, and feed the `serve.reps.saved` counter.
//! - Fixed-reps responses must not change shape: no `adaptive` key, same
//!   bytes as ever (the wider Jacobi determinism suite pins the values).

mod common;

use common::{mean_of, parse_ok, start_daemon};
use pevpm_bench::fig6;
use pevpm_dist::DistTable;
use pevpm_mpibench::MachineShape;
use pevpm_obs::json::{self, Json};
use pevpm_serve::plan::{self, EvalOutcome, PredictRequest};
use pevpm_serve::{Client, ServeConfig};

const JACOBI_SRC: &str = "\
// PEVPM Loop iterations = iterations
// PEVPM {
// PEVPM Runon c1 = procnum != 0
// PEVPM {
// PEVPM Message type = MPI_Send
// PEVPM &       size = xsize*sizeof(float)
// PEVPM &       from = procnum
// PEVPM &       to = procnum-1
// PEVPM Message type = MPI_Recv
// PEVPM &       size = xsize*sizeof(float)
// PEVPM &       from = procnum-1
// PEVPM &       to = procnum
// PEVPM }
// PEVPM Runon c1 = procnum != numprocs-1
// PEVPM {
// PEVPM Message type = MPI_Recv
// PEVPM &       size = xsize*sizeof(float)
// PEVPM &       from = procnum+1
// PEVPM &       to = procnum
// PEVPM Message type = MPI_Send
// PEVPM &       size = xsize*sizeof(float)
// PEVPM &       from = procnum
// PEVPM &       to = procnum+1
// PEVPM }
// PEVPM Serial time = tserial/numprocs
// PEVPM }
";

fn table() -> DistTable {
    fig6::shape_table(
        MachineShape { nodes: 4, ppn: 1 },
        &[512, 1024, 2048],
        10,
        11,
    )
}

fn request(xsize: f64, seed: u64, reps: usize) -> PredictRequest {
    let mut req = PredictRequest::new(JACOBI_SRC, 4);
    req.seed = seed;
    req.reps = reps;
    req.params = vec![
        ("xsize".to_string(), xsize),
        ("iterations".to_string(), 20.0),
        ("tserial".to_string(), 3.24e-3),
    ];
    req
}

/// Run the CRN what-if batch (fast arm seed 11, slow arm seed 999 — the
/// seeds deliberately differ so only CRN can pair them) on a daemon with
/// `conns` workers and return the raw response bytes.
fn crn_batch_bytes(conns: usize) -> String {
    let (addr, handle) = start_daemon(
        ServeConfig {
            conns,
            ..ServeConfig::default()
        },
        table(),
    );
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let items = vec![
        ("default".to_string(), request(256.0, 11, 8)),
        ("default".to_string(), request(512.0, 999, 8)),
    ];
    let resp = client.batch_with("b", &items, true).expect("crn batch");
    client.shutdown("bye").expect("shutdown");
    handle.join().expect("daemon thread");
    resp
}

#[test]
fn crn_batches_are_bitwise_reproducible_across_restarts_and_conns() {
    let reference = crn_batch_bytes(1);
    for conns in [1usize, 4, 8] {
        let got = crn_batch_bytes(conns);
        assert_eq!(
            got, reference,
            "CRN batch bytes changed at conns={conns} (or across restart)"
        );
    }

    // CRN really rewrites the arm seeds to the shared base: the second
    // arm's answer equals that item evaluated alone under seed 11, and
    // differs from its answer under its own seed 999.
    let (addr, handle) = start_daemon(ServeConfig::default(), table());
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let slots_json = parse_ok(&reference);
    let slots = slots_json.as_array().expect("batch array");
    assert_eq!(slots.len(), 2);
    let arm_b = slots[1].get("result").expect("arm result");

    let paired = request(512.0, 11, 8);
    let own_seed = request(512.0, 999, 8);
    let paired_resp = parse_ok(&client.predict("p", "default", &paired).expect("paired"));
    let own_resp = parse_ok(&client.predict("o", "default", &own_seed).expect("own"));
    assert_eq!(
        mean_of(arm_b).to_bits(),
        mean_of(&paired_resp).to_bits(),
        "CRN arm did not adopt the shared base seed"
    );
    assert_ne!(
        mean_of(arm_b).to_bits(),
        mean_of(&own_resp).to_bits(),
        "seeds 11 and 999 collide — the CRN check proves nothing"
    );
    client.shutdown("bye").expect("shutdown");
    handle.join().expect("daemon thread");
}

#[test]
fn adaptive_requests_are_deterministic_and_save_reps() {
    let mut req = request(256.0, 11, 8);
    req.precision = Some(0.05);
    req.min_reps = Some(4);
    req.max_reps = Some(32);

    // In-process plan evaluation: the reference the daemon must match.
    let model = plan::parse_model(&req.model_src, "test model").expect("parse");
    let timing = plan::build_timing(
        &table(),
        req.prediction_mode().expect("mode"),
        req.pingpong,
        req.compile_options(),
    )
    .expect("timing");
    let cfg = req.eval_config().expect("config");
    let EvalOutcome::Batch(mc) =
        plan::evaluate_plan(&model, &cfg, &timing, req.effective_reps()).expect("evaluate")
    else {
        panic!("adaptive request must take the batch path");
    };
    let report = mc.adaptive.expect("adaptive report");
    assert!(
        report.reps < 32 && report.reps >= 4,
        "easy Jacobi should stop early, ran {} rep(s)",
        report.reps
    );
    assert!(report.converged);
    assert!(report.reps_saved() > 0);

    let (addr, handle) = start_daemon(
        ServeConfig {
            conns: 8,
            ..ServeConfig::default()
        },
        table(),
    );
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let cold = client.predict("r", "default", &req).expect("cold");
    let warm = client.predict("r", "default", &req).expect("warm");
    assert_eq!(cold, warm, "adaptive response changed bytes on replay");

    let result = parse_ok(&cold);
    assert_eq!(
        mean_of(&result).to_bits(),
        mc.mean.to_bits(),
        "daemon adaptive mean diverged from the plan evaluation"
    );
    let adaptive = result.get("adaptive").expect("adaptive sub-object");
    assert_eq!(
        adaptive.get("reps").and_then(Json::as_num),
        Some(report.reps as f64)
    );
    assert_eq!(
        adaptive.get("reps_saved").and_then(Json::as_num),
        Some(report.reps_saved() as f64)
    );
    assert_eq!(
        adaptive.get("converged").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(adaptive.get("drift").and_then(Json::as_bool), Some(false));

    // Telemetry: the saved replications reach the metrics registry.
    let stats = parse_ok(&client.stats("s").expect("stats"));
    let counters = stats.get("counters").expect("counters");
    let saved = counters
        .get("serve.reps.saved")
        .and_then(Json::as_num)
        .unwrap_or(0.0);
    assert!(
        saved >= 2.0 * report.reps_saved() as f64,
        "serve.reps.saved = {saved}, expected two requests' savings"
    );

    // A fixed-reps response keeps its old shape: no adaptive key.
    let fixed = parse_ok(
        &client
            .predict("f", "default", &request(256.0, 11, 8))
            .expect("fixed"),
    );
    assert!(
        fixed.get("adaptive").is_none(),
        "fixed-reps response grew an adaptive key"
    );

    client.shutdown("bye").expect("shutdown");
    handle.join().expect("daemon thread");
}

/// The server-side `--max-reps` cap tightens an adaptive request's
/// ceiling instead of rejecting it (fixed-reps admission is unchanged).
#[test]
fn server_max_reps_tightens_the_adaptive_ceiling() {
    let (addr, handle) = start_daemon(
        ServeConfig {
            max_reps: 6,
            ..ServeConfig::default()
        },
        table(),
    );
    let mut client = Client::connect(&addr.to_string()).expect("connect");

    let mut req = request(256.0, 11, 4);
    req.precision = Some(1e-9); // unreachable: would run to the ceiling
    req.min_reps = Some(2);
    req.max_reps = Some(32);
    let result = parse_ok(&client.predict("a", "default", &req).expect("adaptive"));
    let adaptive = result.get("adaptive").expect("adaptive sub-object");
    assert_eq!(
        adaptive.get("max_reps").and_then(Json::as_num),
        Some(6.0),
        "server cap did not tighten the adaptive ceiling"
    );
    assert_eq!(adaptive.get("reps").and_then(Json::as_num), Some(6.0));
    assert_eq!(
        adaptive.get("converged").and_then(Json::as_bool),
        Some(false)
    );

    // Fixed-reps admission control is untouched: over-cap still rejected.
    let over = request(256.0, 11, 7);
    let resp = client.predict("x", "default", &over).expect("send");
    let j = json::parse(&resp).expect("parses");
    assert_eq!(j.get("ok").and_then(Json::as_bool), Some(false));

    client.shutdown("bye").expect("shutdown");
    handle.join().expect("daemon thread");
}
