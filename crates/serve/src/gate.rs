//! In-flight admission: a counting semaphore with a bounded wait queue that
//! sheds past both.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use pevpm_obs::Gauge;

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
    /// Admitted after waiting this long in the queue, leaving this many
    /// requests in flight.
    Admitted { waited: Duration, inflight: usize },
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
                inflight: st.inflight,
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
                    inflight: st.inflight,
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

    /// Free a permit; returns how many stay in flight. Only a queued
    /// acquirer is woken: std's `notify_one` makes a futex call even when
    /// nobody waits, which every admitted request would otherwise pay.
    pub(crate) fn release(&self) -> usize {
        let mut st = lock_recover(&self.state);
        st.inflight = st.inflight.saturating_sub(1);
        let (inflight, queued) = (st.inflight, st.waiting > 0);
        drop(st);
        if queued {
            self.cv.notify_one();
        }
        inflight
    }

    #[cfg(test)]
    pub(crate) fn inflight(&self) -> usize {
        lock_recover(&self.state).inflight
    }
}

/// RAII permit: releases the gate slot and refreshes the `serve.inflight`
/// gauge even if the request path unwinds.
pub(crate) struct GatePermit<'a> {
    pub(crate) gate: &'a Gate,
    pub(crate) inflight: &'a Gauge,
}

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        self.inflight.set(self.gate.release() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How an acquirer parked behind a full gate is answered once `free`
    /// runs.
    fn parked_then(free: impl FnOnce(&Gate)) -> Admission {
        let gate = Gate::new(1, 1);
        assert!(matches!(gate.acquire(), Admission::Admitted { .. }));
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| gate.acquire());
            while lock_recover(&gate.state).waiting == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            free(&gate);
            waiter.join().unwrap()
        })
    }

    #[test]
    fn a_queued_acquirer_is_woken_by_release_and_by_close() {
        let released = parked_then(|gate| {
            assert_eq!(gate.release(), 0);
        });
        assert!(matches!(released, Admission::Admitted { inflight: 1, .. }));
        assert!(matches!(parked_then(Gate::close), Admission::Shed));
    }
}
