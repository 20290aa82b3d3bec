//! Pins of the five collectives across the benchmark, the co-simulator and
//! the model, bit for bit.
//!
//! MPIBench records each collective under a table operation, the
//! co-simulator runs the same collective on mpisim ranks, and PEVPM draws
//! the directive's time from the recorded cell. Any change to how a
//! collective maps onto mpisim calls or onto a table operation moves one of
//! these values. The expected strings were recorded before that mapping
//! was consolidated; do not re-record them to make a change pass.

use pevpm::annotate::parse_annotations;
use pevpm::model::CollOp;
use pevpm::timing::TimingModel;
use pevpm::vm::{monte_carlo, EvalConfig};
use pevpm_mpibench::{run_collective, CollConfig};
use pevpm_mpisim::WorldConfig;
use pevpm_testkit::tables::synthetic_table;
use pevpm_testkit::{corun, Item, TestProgram};

const SIZES: [u64; 3] = [256, 8192, 65536];

/// Every size's sample mean for one collective, as `f64` bits.
fn bench_means(op: CollOp) -> Vec<String> {
    let res = run_collective(&CollConfig {
        world: WorldConfig::perseus(4, 1, 11),
        op,
        sizes: SIZES.to_vec(),
        repetitions: 8,
        warmup: 2,
        clock: None,
    })
    .unwrap();
    res.by_size
        .iter()
        .map(|r| format!("{}:{:016x}", r.size, r.summary.mean().unwrap().to_bits()))
        .collect()
}

#[test]
fn mpibench_collective_means() {
    let text: Vec<String> = CollOp::ALL
        .into_iter()
        .map(|op| format!("{op:?} {}", bench_means(op).join(" ")))
        .collect();
    assert_eq!(
        text,
        [
            "Barrier 256:3f2a32cc8e970faf 8192:3f2a20ab938e8a14 65536:3f29d948c24cd24f",
            "Bcast 256:3f26b06f0455e143 8192:3f52c2cd19a3c00e 65536:3f82aa8536829568",
            "Reduce 256:3f276940a52582b5 8192:3f4a0896044160d0 65536:3f746b2bce762b67",
            "Allreduce 256:3f393df58c9227bf 8192:3f67bd2f8b5dec9b 65536:3f957fc0d8ab5aec",
            "Alltoall 256:3f3ad2c6d0a334e6 8192:3f6651fa1526d01b 65536:3f924631e5d63328",
        ],
        "{}",
        text.join("\n")
    );
}

/// A 4-process program holding every collective once, between compute
/// phases so the collectives start from skewed clocks.
fn all_collectives() -> TestProgram {
    let coll = |op, bytes| Item::Coll { op, bytes };
    TestProgram {
        nprocs: 4,
        items: vec![
            Item::Compute { proc: 1, usecs: 40 },
            coll(CollOp::Barrier, 0),
            coll(CollOp::Bcast, 8192),
            Item::Compute { proc: 3, usecs: 25 },
            coll(CollOp::Reduce, 256),
            coll(CollOp::Allreduce, 65536),
            Item::ComputeAll { usecs: 10 },
            coll(CollOp::Alltoall, 8192),
        ],
    }
}

#[test]
fn corun_makespan() {
    let t = corun::simulate(&all_collectives(), WorldConfig::perseus(4, 1, 11)).unwrap();
    assert_eq!(format!("{:016x}", t.to_bits()), "3f9dace3abea06ce", "{t}");
}

#[test]
fn monte_carlo_mean_on_synthetic_table() {
    let timing = TimingModel::distributions(synthetic_table(&SIZES, 7));
    let cfg = EvalConfig::new(4).with_seed(11).with_threads(1);
    let mc = monte_carlo(&all_collectives().to_model(), &cfg, &timing, 8).unwrap();
    assert_eq!(
        format!("{:016x}", mc.mean.to_bits()),
        "3fbc8909fd9f5ac0",
        "{}",
        mc.mean
    );
}

#[test]
fn annotation_rejects_an_unmodelled_collective() {
    let err = parse_annotations("// PEVPM Collective op = gather\n").unwrap_err();
    assert_eq!(err.to_string(), r#"line 1: unknown collective "gather""#);
}
