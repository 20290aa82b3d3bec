//! Pins of every field the engine returns, not just a batch mean: a 64-bit
//! FNV-1a over each `Prediction` of the seed-11 64x2 Jacobi batch (the
//! `predict_64x2` workload, whose gate sees only the mean, steps and
//! sb_peak), of four single-lane programs that exercise what a lane group
//! cannot share or a memo could keep (endpoints that read a loop variable,
//! a wildcard receive, `Irecv`/`Wait`, statements only some of whose
//! operands read a loop variable), the exact budget reports of three
//! aborted runs and the error of an `Irecv` posted twice.
//!
//! The values were recorded before the engine stopped re-deciding
//! per-process statements and before the sampler's one-probe inversion, the
//! partial-operand and posted-twice pins before every statement that reads
//! no loop variable took one memo site; do not re-record them to make a
//! change pass. Inputs are literal on
//! purpose: a pin must not read them from the code it pins.

use pevpm::model::build::*;
use pevpm::model::Model;
use pevpm::timing::TimingModel;
use pevpm::vm::{evaluate, monte_carlo, EvalConfig, PevpmError, Prediction, RunBudget};
use pevpm_apps::jacobi::{self, JacobiConfig};
use pevpm_bench::fig6;
use pevpm_dist::{CommDist, DistKey, DistTable, Histogram, Op};
use pevpm_mpibench::MachineShape;

/// 64-bit FNV-1a, fed field by field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn f64s(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Every field of `p`, in declaration order.
fn digest(p: &Prediction) -> String {
    let mut h = Fnv::new();
    h.u64(p.nprocs as u64);
    h.f64s(&p.finish_times);
    h.f64(p.makespan);
    h.f64s(&p.compute_time);
    h.f64s(&p.send_time);
    h.f64s(&p.blocked_time);
    h.u64(p.messages);
    h.u64(p.loss_by_label.len() as u64);
    for (label, loss) in p.loss_by_label.iter() {
        h.str(label);
        h.f64(loss);
    }
    h.u64(p.races.len() as u64);
    for (proc, text) in &p.races {
        h.u64(*proc as u64);
        h.str(text);
    }
    h.u64(p.steps);
    h.u64(p.sb_peak as u64);
    h.u64(p.timeline.len() as u64);
    for spans in &p.timeline {
        h.u64(spans.len() as u64);
        for span in spans {
            h.str(span.kind.category());
            h.f64(span.start);
            h.f64(span.end);
            h.str(span.label.as_deref().unwrap_or(""));
        }
    }
    format!("{:016x}", h.0)
}

#[test]
fn seed11_64x2_batch_every_field() {
    let cfg = JacobiConfig {
        xsize: 256,
        iterations: 1000,
        serial_secs: 3.24e-3,
    };
    let table = fig6::shape_table(
        MachineShape { nodes: 64, ppn: 2 },
        &[512, 1024, 2048],
        30,
        11,
    );
    let timing = TimingModel::distributions(table);
    let mc = monte_carlo(
        &jacobi::model(&cfg),
        &EvalConfig::new(128).with_seed(11).with_threads(1),
        &timing,
        8,
    )
    .expect("the seed-11 batch runs");
    assert_eq!(mc.mean.to_bits(), 0.6487360493288068f64.to_bits());
    assert_eq!(mc.total_steps(), 8_674_048);
    assert_eq!(mc.max_sb_peak(), 127);
    let digests: Vec<String> = mc.runs.iter().map(digest).collect();
    assert_eq!(
        digests,
        [
            "a657f9dd5cf730b1",
            "0a346b869c6d4286",
            "4a07f2c4c3f16de4",
            "e3d9ed8665d16ec5",
            "0a2cd42b43fa8266",
            "a55f64b24656314b",
            "28a1142b850c14de",
            "c2b69bf2556513be",
        ]
    );
}

/// Send, Isend and Recv cells at two contention levels, with spread, so
/// every draw shows in the times.
fn spread_timing() -> TimingModel {
    let mut table = DistTable::new();
    for op in [Op::Send, Op::Isend] {
        for (size, scale) in [(64u64, 1.0), (1024, 1.5), (65536, 9.0)] {
            for (contention, load) in [(1u32, 1.0), (6, 1.7)] {
                let samples: Vec<f64> = (0..300)
                    .map(|i| scale * load * (4e-5 + (i % 29) as f64 * 2e-6 + (i % 7) as f64 * 5e-6))
                    .collect();
                table.insert(
                    DistKey {
                        op,
                        size,
                        contention,
                    },
                    CommDist::Hist(Histogram::from_samples(&samples, 3e-6 * scale)),
                );
            }
        }
    }
    TimingModel::distributions(table)
}

/// Each lap sends to the process `k + 1` to the right and receives from
/// as far to the left, so both endpoints read the loop variable; a
/// decided send and receive to the immediate neighbours follow.
fn loop_endpoints() -> Model {
    Model::new()
        .with_stmt(looped_var(
            "3",
            "k",
            vec![
                labelled(
                    isend("256*(k+1)", "procnum", "(procnum + k + 1) % numprocs"),
                    "shift",
                ),
                labelled(
                    recv(
                        "256*(k+1)",
                        "(procnum + numprocs - k - 1) % numprocs",
                        "procnum",
                    ),
                    "shift",
                ),
                serial("0.0001*(procnum+1)"),
                labelled(isend("1024", "procnum", "(procnum + 1) % numprocs"), "next"),
                labelled(
                    recv("1024", "(procnum + numprocs - 1) % numprocs", "procnum"),
                    "next",
                ),
            ],
        ))
        .with_stmt(serial("0.0002"))
}

/// Process 0 gathers from everyone through a wildcard receive; the others
/// compute for a time of their own first, so senders race.
fn wildcard_gather() -> Model {
    Model::new().with_stmt(looped(
        "3",
        vec![runon2(
            "procnum == 0",
            vec![looped(
                "numprocs - 1",
                vec![labelled(recv("512", "-1", "0"), "gather")],
            )],
            "procnum > 0",
            vec![
                serial("0.00002*procnum"),
                labelled(send("512", "procnum", "0"), "gather"),
            ],
        )],
    ))
}

/// A ring of nonblocking receives overlapped with compute.
fn irecv_wait_ring() -> Model {
    Model::new().with_stmt(looped_var(
        "4",
        "i",
        vec![
            irecv(
                "1024",
                "(procnum + numprocs - 1) % numprocs",
                "procnum",
                "h",
            ),
            isend("1024", "procnum", "(procnum + 1) % numprocs"),
            serial("0.0003 + 0.00001*i"),
            labelled(wait("h"), "ring"),
        ],
    ))
}

/// Each lap sends to the right and receives from the left a message whose
/// size reads the loop variable while its endpoints do not, then takes a
/// `Runon` whose first condition reads the loop variable and whose second
/// does not.
fn partial_operands() -> Model {
    Model::new().with_stmt(looped_var(
        "4",
        "k",
        vec![
            labelled(
                isend("512*(k+1)", "procnum", "(procnum + 1) % numprocs"),
                "grow",
            ),
            labelled(
                recv(
                    "512*(k+1)",
                    "(procnum + numprocs - 1) % numprocs",
                    "procnum",
                ),
                "grow",
            ),
            runon2(
                "k % 2 == procnum % 2",
                vec![serial("0.0001*(k+1)")],
                "procnum < 3",
                vec![serial("0.00005*(procnum+1)")],
            ),
        ],
    ))
}

/// `(one evaluation, every replication of an 8-batch)` digests of `model`.
fn program_digests(model: &Model) -> (String, Vec<String>) {
    let timing = spread_timing();
    let cfg = EvalConfig::new(6).with_seed(7).with_threads(1);
    let single = evaluate(model, &cfg, &timing).expect("evaluates");
    let batch = monte_carlo(model, &cfg, &timing, 8).expect("batch runs");
    (digest(&single), batch.runs.iter().map(digest).collect())
}

#[test]
fn single_lane_programs_every_field() {
    for (name, model, expected) in [
        (
            "loop endpoints",
            loop_endpoints(),
            (
                "38fe10d49eddc0c4",
                [
                    "38fe10d49eddc0c4",
                    "c8294c6081455f08",
                    "d88d483d34a287d5",
                    "29825aba1612f1fc",
                    "a19155093d148b49",
                    "ff5cbffe84c146eb",
                    "ddaac9a2db46f845",
                    "f12d94ad52e1892a",
                ],
            ),
        ),
        (
            "wildcard",
            wildcard_gather(),
            (
                "62886179587048d5",
                [
                    "62886179587048d5",
                    "32659d980c02d200",
                    "bdabed76757a81ff",
                    "8cb843d7d44cd649",
                    "7b0cedf8b7af27ce",
                    "aadddf5d160407ab",
                    "aecc1e261db1b29c",
                    "e146142a9ff2284a",
                ],
            ),
        ),
        (
            "irecv/wait",
            irecv_wait_ring(),
            (
                "c105146bda15acbf",
                [
                    "c105146bda15acbf",
                    "8b5dcbf6ec437094",
                    "b3bb033c8fe6f5e2",
                    "766c9ed5ebc78e80",
                    "908bdbbb68e132b9",
                    "b9462ee1377c3915",
                    "03498301b75e4cc5",
                    "f2ab3f14aea08303",
                ],
            ),
        ),
        (
            "partial operands",
            partial_operands(),
            (
                "ef21ed017d365b5c",
                [
                    "ef21ed017d365b5c",
                    "f302ccc84c481632",
                    "cfd2ccf1a236ae66",
                    "9366d1d5c21da06f",
                    "df33e1423cabbcf2",
                    "172010cfea24c1c0",
                    "47bd93e1acc54739",
                    "956227dbc3e6fd7d",
                ],
            ),
        ),
    ] {
        let (single, batch) = program_digests(&model);
        assert_eq!(
            (
                single.as_str(),
                batch.iter().map(String::as_str).collect::<Vec<_>>()
            ),
            (expected.0, expected.1.to_vec()),
            "{name}"
        );
    }
}

/// Two processes ping-pong 100 times, each side under a `Runon` branch.
fn ping_pong() -> Model {
    Model::new().with_stmt(looped(
        "100",
        vec![runon2(
            "procnum == 0",
            vec![recv("64", "1", "0"), send("64", "0", "1")],
            "procnum == 1",
            vec![send("64", "1", "0"), recv("64", "0", "1")],
        )],
    ))
}

/// Process 0 computes, sends and then waits for a reply that never comes;
/// process 1 waits for it twice.
fn late_wake() -> Model {
    Model::new().with_stmt(runon2(
        "procnum == 0",
        vec![
            serial("0.25"),
            isend("65536", "0", "1"),
            recv("64", "1", "0"),
        ],
        "procnum == 1",
        vec![recv("65536", "0", "1"), recv("64", "0", "1")],
    ))
}

/// The whole budget report of `model` under `budget` but its wall time.
fn budget_report(model: &Model, budget: RunBudget) -> String {
    let cfg = EvalConfig::new(2).with_seed(3).with_budget(budget);
    let err = evaluate(model, &cfg, &spread_timing()).unwrap_err();
    let PevpmError::Budget(r) = err else {
        panic!("expected a budget error, got {err}");
    };
    let bits = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{:016x}", x.to_bits()))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{:?} steps={} t={:016x} clocks=[{}] finished={:?} blocked={:?}",
        r.axis,
        r.steps,
        r.virtual_time.to_bits(),
        bits(&r.clocks),
        r.finished,
        r.blocked
    )
}

#[test]
fn budget_reports_are_exact() {
    // Step 9 is process 0's second `Runon`, step 12 process 1's second
    // send: both decided by then.
    let steps = |n| RunBudget::default().with_max_steps(n);
    assert_eq!(
        budget_report(&ping_pong(), steps(8)),
        "Steps steps=9 t=3f1652b43978504e clocks=[3f1652b43978504e,3efa1f785bd9a4d8] \
         finished=[false, false] blocked=[(1, \"Recv(from=0, seq=0)\")]"
    );
    assert_eq!(
        budget_report(&ping_pong(), steps(11)),
        "Steps steps=12 t=3f2798c15581f9f6 clocks=[3f1652b43978504e,3f2798c15581f9f6] \
         finished=[false, false] blocked=[(0, \"Recv(from=1, seq=1)\")]"
    );
    // Process 1 crosses the clock budget when the match phase wakes it;
    // its next step (a receive) moves no clock.
    let clock = RunBudget::default().with_max_virtual_secs(0.25035);
    assert_eq!(
        budget_report(&late_wake(), clock),
        "VirtualTime steps=7 t=3fd0078d67675769 clocks=[3fd003ac6cecea9b,3fd0078d67675769] \
         finished=[false, false] blocked=[(0, \"Recv(from=1, seq=0)\"), \
         (1, \"Recv(from=0, seq=1)\")]"
    );
}

#[test]
fn one_irecv_run_twice_without_a_wait_fails_on_its_second_lap() {
    let model = Model::new().with_stmt(looped(
        "2",
        vec![labelled(
            irecv("64", "(procnum + numprocs - 1) % numprocs", "procnum", "h"),
            "post",
        )],
    ));
    let want = "bad model: proc 0: handle \"h\" already outstanding at Some(\"post\")";
    let cfg = EvalConfig::new(2).with_seed(5).with_threads(1);
    let timing = spread_timing();
    let single = evaluate(&model, &cfg, &timing).unwrap_err();
    assert_eq!(single.to_string(), want);
    let batch = monte_carlo(&model, &cfg, &timing, 8).unwrap_err();
    assert_eq!(batch.to_string(), want);
}
