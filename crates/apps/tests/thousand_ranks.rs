//! A 1024-rank world costs no thread: the executor polls every rank's
//! future on the thread that called it. Alone in its test binary, because
//! the count is the whole process's.

#![cfg(target_os = "linux")]

use pevpm_apps::jacobi::{self, JacobiConfig};
use pevpm_mpisim::{World, WorldConfig};
use std::cell::{Cell, RefCell};

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.expect("Threads: line").trim().parse().expect("count")
}

#[test]
fn jacobi_512x2_runs_on_the_calling_thread() {
    let cfg = JacobiConfig {
        xsize: 1024,
        iterations: 5,
        serial_secs: 3.24e-3,
    };
    let before = threads();
    let (checksum, during) = (Cell::new(0.0), RefCell::new(Vec::new()));
    let report = World::run_async(WorldConfig::perseus(512, 2, 1), async |rank| {
        // Read as each rank starts, its predecessors blocked in their halo
        // exchange, and again as it finishes with others still running.
        during.borrow_mut().push(threads());
        jacobi::run_rank(rank, &cfg, &checksum).await;
        during.borrow_mut().push(threads());
    })
    .expect("jacobi runs");
    assert_eq!(during.into_inner(), vec![before; 2 * 1024]);
    assert_eq!(threads(), before);

    let reference = jacobi::serial_reference(cfg.xsize, cfg.iterations);
    assert!(
        (checksum.get() - reference).abs() < 1e-6,
        "checksum {} vs serial {reference}",
        checksum.get()
    );
    assert_eq!(report.messages, 5 * 2 * 1023 + 1023, "halos plus reduction");
}
