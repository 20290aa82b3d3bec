//! Collective-operation survey: MPIBench's per-process, globally-clocked
//! measurement of collectives (§2 says MPIBench covers "all of the main
//! types of point-to-point and collective communication operations in
//! MPI"; the paper's figures show only MPI_Isend and refer to Grove's
//! thesis for the rest).
//!
//! Run with `cargo bench -p pevpm-bench --bench coll_survey`.

use pevpm_bench::report;
use pevpm_dist::CollOp;
use pevpm_mpibench::{run_collective, CollConfig};
use pevpm_mpisim::WorldConfig;

fn main() {
    let shapes = [(4usize, 1usize), (16, 1), (32, 1), (16, 2)];
    eprintln!(
        "[coll] surveying {} collectives over {} shapes...",
        CollOp::ALL.len(),
        shapes.len()
    );

    let mut rows = Vec::new();
    for op in CollOp::ALL {
        let size = if op == CollOp::Barrier { 0u64 } else { 1024 };
        let mut row = vec![format!("{op:?}({size}B)")];
        for &(nodes, ppn) in &shapes {
            let res = run_collective(&CollConfig {
                world: WorldConfig::perseus(nodes, ppn, 7),
                op,
                sizes: vec![size],
                repetitions: 25,
                warmup: 3,
                clock: None,
            })
            .expect("collective benchmark failed");
            let s = &res.by_size[0].summary;
            row.push(format!(
                "{:.0}/{:.0}",
                s.mean().unwrap_or(0.0) * 1e6,
                s.max().unwrap_or(0.0) * 1e6
            ));
        }
        rows.push(row);
    }

    let header: Vec<String> = std::iter::once("collective".to_string())
        .chain(shapes.iter().map(|&(n, p)| format!("{n}x{p} avg/max us")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    println!("Collective completion times per process (avg/max, us)\n");
    println!("{}", report::table(&header_refs, &rows));
    println!(
        "log-scaling of barrier/bcast/reduce with rank count and the superlinear cost\n\
         of alltoall are emergent from the binomial-tree/ring/pairwise algorithms."
    );
}
