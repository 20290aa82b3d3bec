//! Pins of the daemon's answers in every prediction mode: generated
//! differential programs sent through `Server::handle_frame` at mode
//! `dist`, `avg` and `min`, with the ping-pong slice off and on, against
//! the synthetic histogram table and a parametric `fitted()` form of it.
//!
//! Each value is a 64-bit FNV-1a over the response bytes of one
//! combination, recorded before the average and minimum baselines were
//! moved onto the distribution sampler; do not re-record them to make a
//! change pass.

use pevpm_dist::{CommDist, DistTable, Op};
use pevpm_serve::client::predict_frame;
use pevpm_serve::plan::PredictRequest;
use pevpm_serve::{ServeConfig, Server};
use pevpm_testkit::tables::synthetic_table;
use pevpm_testkit::{generate, GenConfig};

/// Programs per combination; odd ones run a 9-replication batch (one full
/// eight-lane group and one lone lane), even ones a single evaluation.
const PROGRAMS: u64 = 12;

/// `"<mode> pingpong=<bool> <fnv>"` for every mode and ping-pong setting,
/// over [`PROGRAMS`] programs drawn from `gen` and answered from `table`.
fn response_hashes(table: DistTable, gen: &GenConfig) -> Vec<String> {
    let server = Server::with_tables(
        ServeConfig {
            threads: 1,
            conns: 1,
            ..ServeConfig::default()
        },
        vec![("t".to_string(), table)],
    )
    .expect("bind");
    let mut got = Vec::new();
    for mode in ["dist", "avg", "min"] {
        for pingpong in [false, true] {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for k in 0..PROGRAMS {
                let program = generate(gen, 4000 + k);
                let mut req = PredictRequest::new(program.to_annotated(), program.nprocs);
                req.mode = mode.to_string();
                req.pingpong = pingpong;
                req.seed = 3 + k;
                req.reps = if k % 2 == 0 { 1 } else { 9 };
                let (response, _) =
                    server.handle_frame(&predict_frame(&format!("p{k}"), "t", &req));
                for &b in response.as_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x0100_0000_01b3);
                }
            }
            got.push(format!("{mode} pingpong={pingpong} {h:016x}"));
        }
    }
    got
}

#[test]
fn histogram_table_responses_are_pinned() {
    let gen = GenConfig::differential();
    let got = response_hashes(synthetic_table(&gen.sizes, 17), &gen);
    let expected = [
        "dist pingpong=false 391faf5e53553efe",
        "dist pingpong=true 956a40b1651694a9",
        "avg pingpong=false fbdfc617ecc5d618",
        "avg pingpong=true ece5ac2061c80edb",
        "min pingpong=false e659e19bc858ac09",
        "min pingpong=true a2f66476a914e8e3",
    ];
    assert_eq!(got, expected);
}

/// The fitted table keeps the point-to-point cells of two sizes, and its
/// programs send messages of those sizes and the one between them,
/// without collectives: the inputs these values were first recorded on,
/// kept so that the `avg`/`min` rows still compare against that record.
/// The two `dist` rows move by design whenever the render a fitted cell
/// compiles to (`ParametricFit::cdf_knots`) changes.
#[test]
fn fitted_table_responses_are_pinned() {
    let mut p2p = DistTable::new();
    for (key, dist) in synthetic_table(&[256, 4096], 17).iter() {
        if matches!(key.op, Op::Send | Op::Isend) && key.size > 0 {
            p2p.insert(key, dist.clone());
        }
    }
    let gen = GenConfig {
        sizes: vec![256, 1024, 4096],
        allow_collectives: false,
        ..GenConfig::differential()
    };
    let fitted = p2p.fitted();
    assert!(fitted.iter().all(|(_, d)| matches!(d, CommDist::Fit(_))));
    let got = response_hashes(fitted, &gen);
    let expected = [
        "dist pingpong=false aaa12b1c6f214938",
        "dist pingpong=true be1ccc0c268d1d36",
        "avg pingpong=false 8e250ec4d921741a",
        "avg pingpong=true 3c4254ef5782a614",
        "min pingpong=false 9380e7479efb651d",
        "min pingpong=true 6c182a7b03d5c025",
    ];
    assert_eq!(got, expected);
}
