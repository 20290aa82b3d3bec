//! In-flight admission: a counting semaphore with a bounded wait queue that
//! sheds past both.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use pevpm_obs::Registry;

/// Lock a mutex, recovering the data on poisoning (a poisoned guard here
/// only means another worker panicked mid-update of a counter-like
/// state; the daemon must keep serving).
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The in-flight prediction semaphore: `max_inflight` permits plus a
/// bounded wait queue of `max_queue` slots. A request arriving past both
/// is shed immediately — the daemon never queues unboundedly.
pub(crate) struct Gate {
    max_inflight: usize,
    max_queue: usize,
    pub(crate) state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
pub(crate) struct GateState {
    inflight: usize,
    pub(crate) waiting: usize,
    /// Set on drain: queued acquirers wake and shed instead of waiting
    /// out work that will never be admitted.
    closed: bool,
}

/// Outcome of asking the gate for a permit.
pub(crate) enum Admission {
    /// Admitted after waiting this long in the queue.
    Admitted { waited: Duration },
    /// Both the in-flight permits and the wait queue are full.
    Shed,
}

impl Gate {
    pub(crate) fn new(max_inflight: usize, max_queue: usize) -> Gate {
        Gate {
            max_inflight: max_inflight.max(1),
            max_queue,
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn acquire(&self) -> Admission {
        let t0 = Instant::now();
        let mut st = lock_recover(&self.state);
        if st.closed {
            return Admission::Shed;
        }
        if st.inflight < self.max_inflight {
            st.inflight += 1;
            return Admission::Admitted {
                waited: Duration::ZERO,
            };
        }
        if st.waiting >= self.max_queue {
            return Admission::Shed;
        }
        st.waiting += 1;
        loop {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            if st.closed {
                st.waiting -= 1;
                return Admission::Shed;
            }
            if st.inflight < self.max_inflight {
                st.waiting -= 1;
                st.inflight += 1;
                return Admission::Admitted {
                    waited: t0.elapsed(),
                };
            }
        }
    }

    /// Drain: wake every queued acquirer and shed it (plus anything that
    /// arrives later), so shutdown never waits on parked requests that
    /// would otherwise be admitted and evaluated long past `--drain-ms`.
    pub(crate) fn close(&self) {
        let mut st = lock_recover(&self.state);
        st.closed = true;
        drop(st);
        self.cv.notify_all();
    }

    /// Re-arm a drained gate; the server outlives a `run` and must
    /// admit again on the next one.
    pub(crate) fn open(&self) {
        lock_recover(&self.state).closed = false;
    }

    pub(crate) fn release(&self) {
        let mut st = lock_recover(&self.state);
        st.inflight = st.inflight.saturating_sub(1);
        drop(st);
        self.cv.notify_one();
    }

    pub(crate) fn inflight(&self) -> usize {
        lock_recover(&self.state).inflight
    }
}

/// RAII permit: releases the gate slot and refreshes the `serve.inflight`
/// gauge even if the request path unwinds.
pub(crate) struct GatePermit<'a> {
    pub(crate) gate: &'a Gate,
    pub(crate) registry: &'a Registry,
}

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        self.gate.release();
        self.registry
            .gauge("serve.inflight")
            .set(self.gate.inflight() as f64);
    }
}
