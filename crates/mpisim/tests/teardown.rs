//! How a run that ends in an error comes apart. Top level, the blocking
//! façade (in its deletion set, see `src/threads.rs`): every rank thread,
//! parked mid-call or still waiting for its first baton, has to be woken
//! and leave, or `World::run` never returns; each case runs under a
//! watchdog, so a lost wake-up fails the test instead of hanging it.
//! `mod executor`, the same cases under `World::run_async`: the poll loop
//! returns the error, every rank's future is dropped where it stands, and
//! the reports carry the same text.

use pevpm_mpisim::{Dur, RunReport, SimError, World, WorldConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Run `f` on its own thread and give it 30 s to come back.
fn watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(out) => out,
        Err(RecvTimeoutError::Timeout) => panic!("world did not tear down: a wake-up was lost"),
        Err(RecvTimeoutError::Disconnected) => match worker.join() {
            Err(e) => std::panic::resume_unwind(e),
            Ok(()) => unreachable!("worker returned without sending"),
        },
    }
}

fn run_guarded(
    cfg: WorldConfig,
    program: impl Fn(&mut pevpm_mpisim::Rank) + Send + Sync + 'static,
) -> Result<RunReport, SimError> {
    watchdog(move || World::run(cfg, program))
}

/// The error is rank 0's panic and its message has every needle.
fn assert_rank0_panic(err: SimError, needles: &[&str]) {
    match err {
        SimError::RankPanic { rank: 0, message } => {
            assert!(needles.iter().all(|n| message.contains(n)), "{message}");
        }
        other => panic!("expected a panic of rank 0, got {other}"),
    }
}

/// The error is a deadlock with exactly these ranks blocked, in these words.
fn assert_blocked(err: SimError, expected: &[(usize, String)]) {
    match err {
        SimError::Deadlock { blocked, .. } => assert_eq!(blocked, expected),
        other => panic!("expected a deadlock, got {other}"),
    }
}

/// Ranks 0..16 each waiting for a message from the rank 16 above.
fn lower_half_in_recv() -> Vec<(usize, String)> {
    (0..16)
        .map(|r| (r, format!("Recv(src=Rank({}), tag=Tag(9))", r + 16)))
        .collect()
}

/// One rank blocked in each kind of call.
fn one_of_each() -> Vec<(usize, String)> {
    [
        "Send(dst=1, tag=4, bytes=100000) [rendezvous]",
        "Wait(req=0)",
        "Recv(src=Any, tag=Any)",
    ]
    .iter()
    .enumerate()
    .map(|(r, d)| (r, d.to_string()))
    .collect()
}

#[test]
fn panic_wakes_127_ranks_parked_in_recv() {
    let err = run_guarded(WorldConfig::perseus(64, 2, 1), |rank| {
        if rank.rank() == 0 {
            // Yield first, so that every other rank is parked inside its
            // receive when the panic comes.
            rank.compute_secs(1.0);
            panic!("boom on rank 0");
        }
        rank.recv(0, 0);
    })
    .unwrap_err();
    assert_rank0_panic(err, &["boom on rank 0"]);
}

#[test]
fn ranks_without_a_first_baton_never_run_program_code() {
    let started = Arc::new(AtomicUsize::new(0));
    let started2 = Arc::clone(&started);
    let err = run_guarded(WorldConfig::perseus(32, 2, 1), move |rank| {
        started2.fetch_add(1, Ordering::SeqCst);
        // Rank 0 holds the first baton; nobody else has had one yet.
        panic!("rank {} fails at once", rank.rank());
    })
    .unwrap_err();
    assert!(matches!(err, SimError::RankPanic { rank: 0, .. }), "{err}");
    assert_eq!(started.load(Ordering::SeqCst), 1);
}

#[test]
fn programs_start_in_schedule_order() {
    for _ in 0..20 {
        let order = Arc::new(Mutex::new(Vec::new()));
        let order2 = Arc::clone(&order);
        run_guarded(WorldConfig::ideal(8, 2), move |rank| {
            order2.lock().unwrap().push(rank.rank());
            rank.barrier();
        })
        .unwrap();
        assert_eq!(*order.lock().unwrap(), (0..16).collect::<Vec<_>>());
    }
}

#[test]
fn deadlock_among_parked_and_finished_ranks_is_reported() {
    let err = run_guarded(WorldConfig::perseus(16, 2, 1), |rank| {
        // The upper half returns at once; the lower half waits for
        // messages nobody sends.
        if rank.rank() < 16 {
            rank.recv(rank.rank() + 16, 9);
        }
    })
    .unwrap_err();
    assert_blocked(err, &lower_half_in_recv());
}

#[test]
fn deadlock_descriptions_keep_their_text() {
    let err = run_guarded(WorldConfig::ideal(3, 1), |rank| match rank.rank() {
        0 => rank.send_size(1, 4, 100_000),
        1 => {
            let req = rank.irecv(2, 5);
            rank.wait(req);
        }
        _ => {
            rank.recv(pevpm_mpisim::SrcSel::Any, pevpm_mpisim::TagSel::Any);
        }
    })
    .unwrap_err();
    assert_blocked(err, &one_of_each());
}

#[test]
fn deadline_unwinds_every_parked_rank() {
    let mut cfg = WorldConfig::perseus(32, 2, 1);
    cfg.virtual_deadline = Some(Dur::from_secs_f64(10.0));
    let err = run_guarded(cfg, |rank| loop {
        rank.compute_secs(1.0);
        rank.barrier();
    })
    .unwrap_err();
    assert!(matches!(err, SimError::DeadlineExceeded { .. }), "{err}");
}

#[test]
fn second_wait_on_a_recycled_request_is_a_rank_panic() {
    let err = run_guarded(WorldConfig::ideal(2, 1), |rank| {
        if rank.rank() == 0 {
            let first = rank.isend_size(1, 0, 8);
            rank.wait(first);
            // Takes over the slot `first` had.
            let second = rank.isend_size(1, 0, 8);
            assert_ne!(first, second);
            assert_eq!(first.0 as u32, second.0 as u32, "slot was not recycled");
            assert!(rank.test(first).is_none(), "a stale handle tested complete");
            rank.wait(first);
            unreachable!("a second wait must not return");
        }
        for _ in 0..3 {
            rank.recv(0, 0);
        }
    })
    .unwrap_err();
    assert_rank0_panic(err, &["waited on request", "twice"]);
    // The panic unwound through the engine with its lock held; that must
    // stay that world's business.
    run_guarded(WorldConfig::ideal(2, 1), |rank| rank.barrier()).unwrap();
}

mod executor {
    use super::{assert_blocked, assert_rank0_panic, lower_half_in_recv, one_of_each};
    use pevpm_mpisim::{Dur, SimError, SrcSel, TagSel, World, WorldConfig};
    use std::cell::{Cell, RefCell};

    /// Counts its own drop: one lives in every rank's future.
    struct Dropped<'a>(&'a Cell<usize>);

    impl Drop for Dropped<'_> {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn panic_drops_127_ranks_blocked_in_recv() {
        let (dropped, resumed) = (Cell::new(0), Cell::new(0));
        let cfg = WorldConfig::perseus(64, 2, 1);
        let err = World::run_async(cfg.clone(), async |rank| {
            let _guard = Dropped(&dropped);
            if rank.rank() == 0 {
                // Yield first, so that every other rank is blocked inside
                // its receive when the panic comes.
                rank.compute_secs(1.0).await;
                panic!("boom on rank 0");
            }
            rank.recv(0, 0).await;
            resumed.set(resumed.get() + 1);
        })
        .unwrap_err();
        assert_rank0_panic(err, &["boom on rank 0"]);
        // Every future was dropped mid-call and none was polled again.
        assert_eq!((dropped.get(), resumed.get()), (128, 0));
        World::run_async(cfg, async |rank| rank.barrier().await).unwrap();
    }

    #[test]
    fn ranks_never_dispatched_never_run_program_code() {
        let started = Cell::new(0);
        let err = World::run_async(WorldConfig::perseus(32, 2, 1), async |rank| {
            started.set(started.get() + 1);
            // Rank 0 is dispatched first; nobody else has been polled yet.
            panic!("rank {} fails at once", rank.rank());
        })
        .unwrap_err();
        assert!(matches!(err, SimError::RankPanic { rank: 0, .. }), "{err}");
        assert_eq!(started.get(), 1);
    }

    #[test]
    fn programs_start_in_schedule_order() {
        let order = RefCell::new(Vec::new());
        World::run_async(WorldConfig::ideal(8, 2), async |rank| {
            order.borrow_mut().push(rank.rank());
            rank.barrier().await;
        })
        .unwrap();
        assert_eq!(order.into_inner(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn deadlock_among_blocked_and_finished_ranks_is_reported() {
        let err = World::run_async(WorldConfig::perseus(16, 2, 1), async |rank| {
            // The upper half returns at once; the lower half waits for
            // messages nobody sends.
            if rank.rank() < 16 {
                rank.recv(rank.rank() + 16, 9).await;
            }
        })
        .unwrap_err();
        assert_blocked(err, &lower_half_in_recv());
    }

    #[test]
    fn deadlock_descriptions_keep_their_text() {
        let err = World::run_async(WorldConfig::ideal(3, 1), async |rank| match rank.rank() {
            0 => rank.send_size(1, 4, 100_000).await,
            1 => {
                let req = rank.irecv(2, 5);
                rank.wait(req).await;
            }
            _ => {
                rank.recv(SrcSel::Any, TagSel::Any).await;
            }
        })
        .unwrap_err();
        assert_blocked(err, &one_of_each());
    }

    #[test]
    fn deadline_ends_a_run_with_every_rank_blocked() {
        let mut cfg = WorldConfig::perseus(32, 2, 1);
        cfg.virtual_deadline = Some(Dur::from_secs_f64(10.0));
        let err = World::run_async(cfg, async |rank| loop {
            rank.compute_secs(1.0).await;
            rank.barrier().await;
        })
        .unwrap_err();
        assert!(matches!(err, SimError::DeadlineExceeded { .. }), "{err}");
    }

    #[test]
    fn second_wait_on_a_recycled_request_is_a_rank_panic() {
        let err = World::run_async(WorldConfig::ideal(2, 1), async |rank| {
            if rank.rank() == 0 {
                let first = rank.isend_size(1, 0, 8);
                rank.wait(first).await;
                // Takes over the slot `first` had.
                let second = rank.isend_size(1, 0, 8);
                assert_ne!(first, second);
                assert_eq!(first.0 as u32, second.0 as u32, "slot was not recycled");
                assert!(rank.test(first).is_none(), "a stale handle tested complete");
                rank.wait(first).await;
                unreachable!("a second wait must not return");
            }
            for _ in 0..3 {
                rank.recv(0, 0).await;
            }
        })
        .unwrap_err();
        assert_rank0_panic(err, &["waited on request", "twice"]);
    }
}
