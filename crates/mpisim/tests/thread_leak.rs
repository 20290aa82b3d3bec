//! `World::run` joins every thread it spawns, whatever the outcome. Alone
//! in its test binary, because the count is the whole process's.

#![cfg(target_os = "linux")]

use pevpm_mpisim::{World, WorldConfig};

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .expect("Threads: line");
    line["Threads:".len()..].trim().parse().expect("a count")
}

#[test]
fn two_hundred_runs_leave_no_thread_behind() {
    let before = threads();
    for i in 0..200 {
        let result = World::run(WorldConfig::ideal(4, 2), |rank| {
            rank.barrier();
            match i % 4 {
                // Every outcome: a panic, a deadlock, two clean runs.
                1 if rank.rank() == 3 => panic!("run {i} fails"),
                2 if rank.rank() == 5 => {
                    rank.recv(0, 77);
                }
                _ => rank.barrier(),
            }
        });
        assert_eq!(result.is_ok(), i % 4 == 0 || i % 4 == 3, "run {i}");
    }
    // A scope returns when its threads have run to their end, which is a
    // moment before the kernel has taken them off the books: give
    // stragglers time to go. A leaked thread is parked for good.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while threads() != before && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(threads(), before);
}
