//! Accepted connections on their way through the worker pool: the bounded
//! hand-off queue and the live-connection tracker drain uses.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::gate::lock_recover;

/// The bounded queue of accepted-but-unserved connections between the
/// accept loop and the worker pool.
pub(crate) struct ConnQueue {
    cap: usize,
    state: Mutex<(VecDeque<TcpStream>, bool)>,
    cv: Condvar,
}

impl ConnQueue {
    pub(crate) fn new(cap: usize) -> ConnQueue {
        ConnQueue {
            cap: cap.max(1),
            state: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
        }
    }

    /// Enqueue a stream; gives it back when the queue is full or closed
    /// so the caller can shed it.
    pub(crate) fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut st = lock_recover(&self.state);
        if st.1 || st.0.len() >= self.cap {
            return Err(stream);
        }
        st.0.push_back(stream);
        drop(st);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocking pop; `None` once the queue is closed and empty.
    pub(crate) fn pop(&self) -> Option<TcpStream> {
        let mut st = lock_recover(&self.state);
        loop {
            if let Some(s) = st.0.pop_front() {
                return Some(s);
            }
            if st.1 {
                return None;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Close the queue: wakes all workers and drops pending streams.
    pub(crate) fn close(&self) {
        let mut st = lock_recover(&self.state);
        st.1 = true;
        st.0.clear();
        drop(st);
        self.cv.notify_all();
    }
}

/// Live-connection registry: a socket handle plus a busy flag per served
/// connection, so drain can wake idle readers immediately and force-close
/// stragglers after the deadline.
pub(crate) struct ConnTracker {
    next: AtomicU64,
    conns: Mutex<HashMap<u64, ConnEntry>>,
}

struct ConnEntry {
    stream: TcpStream,
    busy: Arc<AtomicBool>,
}

impl ConnTracker {
    pub(crate) fn new() -> ConnTracker {
        ConnTracker {
            next: AtomicU64::new(1),
            conns: Mutex::new(HashMap::new()),
        }
    }

    pub(crate) fn register(&self, stream: &TcpStream) -> io::Result<(u64, Arc<AtomicBool>)> {
        let clone = stream.try_clone()?;
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let busy = Arc::new(AtomicBool::new(false));
        lock_recover(&self.conns).insert(
            id,
            ConnEntry {
                stream: clone,
                busy: Arc::clone(&busy),
            },
        );
        Ok((id, busy))
    }

    fn unregister(&self, id: u64) {
        lock_recover(&self.conns).remove(&id);
    }

    pub(crate) fn any_busy(&self) -> bool {
        lock_recover(&self.conns)
            .values()
            .any(|c| c.busy.load(Ordering::SeqCst))
    }

    /// Shut down tracked sockets — all of them, or only those whose
    /// worker is parked in a read (not mid-request). Returns how many.
    pub(crate) fn shutdown_conns(&self, include_busy: bool) -> usize {
        let conns = lock_recover(&self.conns);
        let mut n = 0;
        for c in conns.values() {
            if include_busy || !c.busy.load(Ordering::SeqCst) {
                let _ = c.stream.shutdown(Shutdown::Both);
                n += 1;
            }
        }
        n
    }
}

/// RAII unregistration: drops the tracker entry (and its cloned socket
/// handle) on *every* exit from `serve_connection`, including `?` early
/// returns — a peer whose response write fails must not leak an fd and
/// a map entry in a daemon meant to face misbehaving peers forever.
pub(crate) struct TrackerGuard<'a> {
    pub(crate) tracker: &'a ConnTracker,
    pub(crate) id: u64,
}

impl Drop for TrackerGuard<'_> {
    fn drop(&mut self) {
        self.tracker.unregister(self.id);
    }
}
