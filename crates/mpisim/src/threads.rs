//! The blocking façade: `World::run(cfg, |rank: &mut Rank| ..)`, one OS
//! thread per rank.
//!
//! **This module is a deletion set.** `perf/src/probes.rs` still calls the
//! blocking entry point (`rank.{rank, send_size, recv, barrier}`), and
//! `perf/` may only change in a `benchmark` PR of its own. Once such a PR
//! has re-pointed `probes::mpisim` at [`World::run_async`], the PR after
//! it deletes, and nothing else in the repository notices:
//!
//! - this file: [`World::run`], [`Rank`], `Shared`, `Seat`, park/unpark,
//!   `AbortOnUnwind`, `SimAborted`, the outcome `Condvar`;
//! - `Link::Threads` and its two match arms in `rank.rs`;
//! - `tests/thread_leak.rs`; everything outside `mod executor` in
//!   `tests/teardown.rs` but the four `assert_*`/expectation helpers; the
//!   `facade_and_executor_agree` proptest and its `mixed_walk!` in
//!   `tests/prop_world.rs`;
//! - the 20-round loop of CI's `mpisim-stress` step;
//! - the façade paragraphs of this crate's docs, DESIGN.md and README.md.
//!
//! Until then it is the previous thread driver over the one `Engine`:
//! ranks are real threads, but **exactly one runs at a time**, the one
//! holding the *baton*. A [`Rank`] wraps the same [`Proc`] an `async`
//! program gets; on a rank thread the leaf future sleeps inside
//! `Shared::call` instead of returning `Pending`, so every `Proc` future
//! is `Ready` at its first poll. There is no second message engine and no
//! second copy of the MPI calls.
//!
//! **Baton.** A call that blocks or yields runs the event loop on the
//! caller's thread (`Engine::dispatch`); if another rank is due, the
//! caller wakes it and parks — one switch. Each rank parks in
//! `while !flag.swap(false) { park() }`; a waker sets the flag, then
//! unparks. The flag, not the park token, carries the wake-up, so spurious
//! returns and an unpark that lands before the park are both harmless. A
//! rank thread parks before it runs any program code.
//!
//! **Teardown.** The thread in [`World::run`] spawns the ranks, hands the
//! first baton over and sleeps until an outcome is posted: the report, by
//! the last rank to finish, or an error — a deadlock or a missed
//! `virtual_deadline` found by whichever rank ran the event loop, or a
//! rank's panic. Posting an error raises the `aborted` flag and wakes
//! every rank; a rank that wakes to `aborted` unwinds out of its program
//! (`SimAborted`) without touching the engine again, so an engine lock
//! poisoned by a panic inside a handler is never taken a second time.

use crate::config::WorldConfig;
use crate::msg::{Call, MsgMeta, Reply, Request, SrcSel, TagSel};
use crate::rank::{poll_once, Link, Proc};
use crate::sched::{rank_panic, Engine, RunReport, SimError, World};
use crate::trace::TraceEvent;
use bytes::Bytes;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::Thread;

/// Marker panic payload that unwinds a rank out of its program when the
/// world is torn down (an error elsewhere); never reported.
struct SimAborted;

impl World {
    /// Run `program` once per rank, each on a thread of its own, and
    /// simulate until every rank returns. Same engine, same schedule and
    /// same report as [`World::run_async`].
    pub fn run<F>(cfg: WorldConfig, program: F) -> Result<RunReport, SimError>
    where
        F: Fn(&mut Rank) + Send + Sync,
    {
        let nranks = cfg.nranks();
        assert!(nranks > 0, "world must have at least one rank");
        let shared = Arc::new(Shared::new(&cfg));
        let program = &program;

        std::thread::scope(|s| {
            // A panic on this thread (thread spawn refused, say) must not
            // leave the ranks spawned so far parked for ever.
            let _teardown = AbortOnUnwind(&shared);
            for r in 0..nranks {
                let node = cfg.node_of(r);
                let tracing = cfg.record_trace;
                let shared_r = Arc::clone(&shared);
                let handle = s.spawn(move || {
                    if !shared_r.park(r) {
                        return;
                    }
                    let link = Link::Threads(Arc::clone(&shared_r));
                    let mut rank = Rank(Proc::new(r, nranks, node, link, tracing));
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        program(&mut rank);
                        rank.0.finish();
                    }));
                    if let Err(e) = run {
                        // SimAborted: the world is being torn down; exit.
                        if e.downcast_ref::<SimAborted>().is_none() {
                            shared_r.post(Err(rank_panic(r, &e)));
                        }
                    }
                });
                let _ = shared.seats[r].thread.set(handle.thread().clone());
            }
            shared.pass_baton(shared.lock_engine(), None);
            shared.wait_for_outcome()
        })
    }
}

/// Where a rank thread sleeps while it does not hold the baton.
struct Seat {
    /// Set by whoever wants this rank to run (or to notice `aborted`),
    /// cleared by the rank when it wakes.
    wake: AtomicBool,
    /// The rank's thread, set by the spawner before the first baton moves.
    thread: OnceLock<Thread>,
}

/// What a world's threads share: the engine, the seats, the outcome.
pub(crate) struct Shared {
    /// Locked only by the baton holder (and by `World::run` to hand the
    /// first baton over), hence never contended.
    engine: Mutex<Engine>,
    seats: Vec<Seat>,
    /// Raised with the first error; every rank that wakes to it unwinds.
    aborted: AtomicBool,
    outcome: Mutex<Option<Result<RunReport, SimError>>>,
    posted: Condvar,
}

impl Shared {
    fn new(cfg: &WorldConfig) -> Self {
        Shared {
            engine: Mutex::new(Engine::new(cfg.clone())),
            seats: (0..cfg.nranks())
                .map(|_| Seat {
                    wake: AtomicBool::new(false),
                    thread: OnceLock::new(),
                })
                .collect(),
            aborted: AtomicBool::new(false),
            outcome: Mutex::new(None),
            posted: Condvar::new(),
        }
    }

    fn lock_engine(&self) -> MutexGuard<'_, Engine> {
        self.engine
            .lock()
            .expect("a panic inside the engine aborts the world; nobody locks it afterwards")
    }

    /// One MPI call of rank `me`, on `me`'s thread: run the handler and, if
    /// the rank cannot continue yet, the event loop; returns when `me`
    /// holds the baton again, with the call's reply.
    pub(crate) fn call(&self, me: usize, call: Call) -> Reply {
        let mut eng = self.lock_engine();
        if let Some(reply) = eng.call(me, call) {
            return reply;
        }
        let mut eng = match self.pass_baton(eng, Some(me)) {
            Some(eng) => eng,
            None => {
                if !self.park(me) {
                    resume_unwind(Box::new(SimAborted));
                }
                self.lock_engine()
            }
        };
        eng.pending_reply[me]
            .take()
            .expect("rank resumed without a reply")
    }

    /// Rank `me`'s program returned: record it and pass the baton on for
    /// good.
    pub(crate) fn finish(&self, me: usize, trace: Vec<TraceEvent>) {
        let mut eng = self.lock_engine();
        eng.finish(me, trace);
        self.pass_baton(eng, None);
    }

    /// Run the event loop up to the next rank that can run. If that is
    /// `me`, `me` keeps the baton and gets the engine back. Otherwise the
    /// engine is released and the baton goes to that rank — or, with every
    /// rank finished or an error found, to nobody: the outcome is posted
    /// instead.
    fn pass_baton<'a>(
        &'a self,
        mut eng: MutexGuard<'a, Engine>,
        me: Option<usize>,
    ) -> Option<MutexGuard<'a, Engine>> {
        match eng.dispatch() {
            Ok(Some(next)) if Some(next) == me => return Some(eng),
            Ok(Some(next)) => {
                drop(eng);
                self.wake(next);
            }
            Ok(None) => {
                let report = eng.report();
                drop(eng);
                self.post(Ok(report));
            }
            Err(e) => {
                drop(eng);
                self.post(Err(e));
            }
        }
        None
    }

    fn wake(&self, rank: usize) {
        let seat = &self.seats[rank];
        // Release: pairs with the Acquire swap in `park`, publishing what
        // the waker did (the `aborted` flag included) to the woken rank.
        seat.wake.store(true, Ordering::Release);
        if let Some(t) = seat.thread.get() {
            t.unpark();
        }
    }

    /// Sleep until woken. `false`: the world was aborted meanwhile and the
    /// caller must leave without touching the engine.
    fn park(&self, me: usize) -> bool {
        while !self.seats[me].wake.swap(false, Ordering::Acquire) {
            std::thread::park();
        }
        !self.aborted.load(Ordering::Acquire)
    }

    /// Raise `aborted` and wake every rank, parked or not yet started.
    fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
        for rank in 0..self.seats.len() {
            self.wake(rank);
        }
    }

    /// Publish the run's outcome (the first one posted stands) and, if it
    /// is an error, tear the world down.
    fn post(&self, outcome: Result<RunReport, SimError>) {
        let failed = outcome.is_err();
        self.outcome
            .lock()
            .expect("outcome lock is never held across a panic")
            .get_or_insert(outcome);
        if failed {
            self.abort();
        }
        self.posted.notify_one();
    }

    fn wait_for_outcome(&self) -> Result<RunReport, SimError> {
        let mut slot = self
            .outcome
            .lock()
            .expect("outcome lock is never held across a panic");
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self
                .posted
                .wait(slot)
                .expect("outcome lock is never held across a panic");
        }
    }
}

/// Tears the world down if the thread in `World::run` unwinds.
struct AbortOnUnwind<'a>(&'a Shared);

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort();
        }
    }
}

/// A [`Proc`] on a rank thread, with the calls that yield made blocking.
/// The calls that never yield (`rank`, `nranks`, `now`, `isend*`,
/// `irecv`, `test`) are `Proc`'s own, through `Deref`.
pub struct Rank(Proc);

impl Deref for Rank {
    type Target = Proc;

    fn deref(&self) -> &Proc {
        &self.0
    }
}

impl DerefMut for Rank {
    fn deref_mut(&mut self) -> &mut Proc {
        &mut self.0
    }
}

/// The calls that yield, each blocking in the `Proc` method it is named
/// for: the future slept inside its leaf, so one poll finishes it.
impl Rank {
    pub fn compute_secs(&mut self, secs: f64) {
        poll_once(self.0.compute_secs(secs))
    }
    pub fn send_size(&mut self, dst: usize, tag: u64, bytes: u64) {
        poll_once(self.0.send_size(dst, tag, bytes))
    }
    pub fn recv(&mut self, src: impl Into<SrcSel>, tag: impl Into<TagSel>) -> (MsgMeta, Bytes) {
        poll_once(self.0.recv(src, tag))
    }
    pub fn wait(&mut self, req: Request) -> Option<(MsgMeta, Bytes)> {
        poll_once(self.0.wait(req))
    }
    pub fn barrier(&mut self) {
        poll_once(self.0.barrier())
    }
}
