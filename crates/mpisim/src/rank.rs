//! The per-process MPI handle available inside rank programs.
//!
//! A [`Proc`] is lent to the rank program by [`crate::World::run_async`].
//! Its methods mirror the MPI point-to-point interface (`send`/`isend`/
//! `recv`/`irecv`/`wait`/`test`) plus virtual-clock access ([`Proc::now`],
//! [`Proc::compute`]). Collective operations live in
//! [`crate::collectives`] as further methods on this type.
//!
//! Calls that can never yield — `isend`, `irecv`, `test`, `now` — are
//! plain methods. Every call that may have to wait for virtual time to
//! pass — `recv`, `wait`, `compute`, `send` (a rendezvous one blocks) and
//! everything built from them — is `async` and bottoms out in one leaf
//! future (`Proc::roundtrip`), whose two polls are the two halves of an
//! engine call as [`crate::sched`] describes them.

use crate::msg::{Call, MsgMeta, Reply, Request, SrcSel, TagSel};
use crate::sched::Engine;
use crate::threads::Shared;
use crate::trace::{TraceEvent, TraceKind};
use bytes::Bytes;
use pevpm_netsim::{Dur, Time};
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

/// How a [`Proc`] reaches its world's engine.
pub(crate) enum Link {
    /// Under [`crate::World::run_async`]: one thread's rank futures share it.
    Executor(Rc<RefCell<Engine>>),
    /// Under the blocking façade ([`crate::threads`]): one thread per rank.
    Threads(Arc<Shared>),
}

/// Handle to one simulated MPI process.
pub struct Proc {
    id: usize,
    nranks: usize,
    node: usize,
    clock: Time,
    link: Link,
    tracing: bool,
    trace: Vec<TraceEvent>,
    /// Collectives this rank is inside of, nested (see `collectives`).
    pub(crate) coll_depth: Rc<Cell<u32>>,
}

/// The output of a future that does not yield where it is called.
pub(crate) fn poll_once<T>(call: impl Future<Output = T>) -> T {
    match std::pin::pin!(call).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => out,
        Poll::Pending => unreachable!("a call that cannot yield here did"),
    }
}

impl Proc {
    pub(crate) fn new(id: usize, nranks: usize, node: usize, link: Link, tracing: bool) -> Self {
        Proc {
            id,
            nranks,
            node,
            clock: Time::ZERO,
            link,
            tracing,
            trace: Vec::new(),
            coll_depth: Rc::default(),
        }
    }

    /// The program returned: hand in the trace and leave the schedule.
    pub(crate) fn finish(&mut self) {
        let trace = std::mem::take(&mut self.trace);
        match &self.link {
            Link::Executor(engine) => engine.borrow_mut().finish(self.id, trace),
            Link::Threads(shared) => shared.finish(self.id, trace),
        }
    }

    fn record(&mut self, kind: TraceKind, start: Time, peer: Option<usize>, bytes: u64) {
        if self.tracing {
            self.trace.push(TraceEvent {
                kind,
                start,
                end: self.clock,
                peer,
                bytes,
                in_collective: self.coll_depth.get() > 0,
            });
        }
    }

    /// One engine call, as the leaf future: the first poll runs the handler,
    /// and if that left the rank blocked or yielding, the second — made
    /// when the rank is due again — takes the reply the engine kept for it.
    fn roundtrip(&self, call: Call) -> impl Future<Output = Reply> + '_ {
        let (me, mut call) = (self.id, Some(call));
        std::future::poll_fn(move |_| match (&self.link, call.take()) {
            (Link::Executor(engine), Some(call)) => {
                let reply = engine.borrow_mut().call(me, call);
                reply.map_or(Poll::Pending, Poll::Ready)
            }
            (Link::Executor(engine), None) => {
                let reply = engine.borrow_mut().pending_reply[me].take();
                Poll::Ready(reply.expect("rank resumed without a reply"))
            }
            // A rank thread sleeps inside the call instead of yielding.
            (Link::Threads(shared), call) => {
                Poll::Ready(shared.call(me, call.expect("a blocking call is polled once")))
            }
        })
    }

    /// A call that completes inside the handler (`isend`, `irecv`, `test`).
    fn call_now(&self, call: Call) -> Reply {
        poll_once(self.roundtrip(call))
    }

    /// This process's rank (0-based).
    pub fn rank(&self) -> usize {
        self.id
    }

    /// Total number of ranks in the world (MPI_Comm_size).
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The physical node hosting this rank.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Current virtual time on the globally synchronised clock.
    ///
    /// This is the capability MPIBench needs: every rank reads the *same*
    /// timebase, so `t_recv_end − t_send_start` across two different ranks
    /// is a meaningful single-message transfer time.
    pub fn now(&self) -> Time {
        self.clock
    }

    /// Advance this rank's clock by a computation time (models a serial
    /// code segment of known duration).
    pub async fn compute(&mut self, d: Dur) {
        let start = self.clock;
        match self.roundtrip(Call::Compute(d)).await {
            Reply::Ok { clock } => self.clock = clock,
            r => unreachable!("unexpected reply to Compute: {r:?}"),
        }
        self.record(TraceKind::Compute, start, None, 0);
    }

    /// [`Proc::compute`] taking seconds.
    pub async fn compute_secs(&mut self, secs: f64) {
        self.compute(Dur::from_secs_f64(secs)).await;
    }

    /// Blocking standard-mode send of a real payload.
    pub async fn send(&mut self, dst: usize, tag: u64, payload: impl Into<Bytes>) {
        let payload = payload.into();
        let bytes = payload.len() as u64;
        self.send_inner(dst, tag, bytes, payload).await;
    }

    /// Blocking send of a synthetic `bytes`-sized message with no payload
    /// (benchmark use: exercises the full protocol and network without
    /// materialising buffers).
    pub async fn send_size(&mut self, dst: usize, tag: u64, bytes: u64) {
        self.send_inner(dst, tag, bytes, Bytes::new()).await;
    }

    async fn send_inner(&mut self, dst: usize, tag: u64, bytes: u64, payload: Bytes) {
        assert!(dst < self.nranks, "send to out-of-range rank {dst}");
        let start = self.clock;
        let call = Call::Send {
            dst,
            tag,
            bytes,
            payload,
        };
        match self.roundtrip(call).await {
            Reply::Ok { clock } => self.clock = clock,
            r => unreachable!("unexpected reply to Send: {r:?}"),
        }
        self.record(TraceKind::Send, start, Some(dst), bytes);
    }

    /// Nonblocking send of a real payload.
    pub fn isend(&mut self, dst: usize, tag: u64, payload: impl Into<Bytes>) -> Request {
        let payload = payload.into();
        let bytes = payload.len() as u64;
        self.isend_inner(dst, tag, bytes, payload)
    }

    /// Nonblocking synthetic-size send.
    pub fn isend_size(&mut self, dst: usize, tag: u64, bytes: u64) -> Request {
        self.isend_inner(dst, tag, bytes, Bytes::new())
    }

    fn isend_inner(&mut self, dst: usize, tag: u64, bytes: u64, payload: Bytes) -> Request {
        assert!(dst < self.nranks, "isend to out-of-range rank {dst}");
        let start = self.clock;
        let req = match self.call_now(Call::Isend {
            dst,
            tag,
            bytes,
            payload,
        }) {
            Reply::Posted { clock, req } => {
                self.clock = clock;
                req
            }
            r => unreachable!("unexpected reply to Isend: {r:?}"),
        };
        self.record(TraceKind::Isend, start, Some(dst), bytes);
        req
    }

    /// Blocking receive. `src`/`tag` accept concrete values or the
    /// wildcards [`SrcSel::Any`] / [`TagSel::Any`].
    pub async fn recv(
        &mut self,
        src: impl Into<SrcSel>,
        tag: impl Into<TagSel>,
    ) -> (MsgMeta, Bytes) {
        let start = self.clock;
        let call = Call::Recv {
            src: src.into(),
            tag: tag.into(),
        };
        let (meta, payload) = match self.roundtrip(call).await {
            Reply::Msg {
                clock,
                meta,
                payload,
            } => {
                self.clock = clock;
                (meta, payload)
            }
            r => unreachable!("unexpected reply to Recv: {r:?}"),
        };
        self.record(TraceKind::Recv, start, Some(meta.src), meta.bytes);
        (meta, payload)
    }

    /// Nonblocking receive.
    pub fn irecv(&mut self, src: impl Into<SrcSel>, tag: impl Into<TagSel>) -> Request {
        match self.call_now(Call::Irecv {
            src: src.into(),
            tag: tag.into(),
        }) {
            Reply::Posted { clock, req } => {
                self.clock = clock;
                req
            }
            r => unreachable!("unexpected reply to Irecv: {r:?}"),
        }
    }

    /// Block until a request completes. Returns the message for receive
    /// requests, `None` for send requests.
    pub async fn wait(&mut self, req: Request) -> Option<(MsgMeta, Bytes)> {
        let start = self.clock;
        let out = match self.roundtrip(Call::Wait { req }).await {
            Reply::Ok { clock } => {
                self.clock = clock;
                None
            }
            Reply::Msg {
                clock,
                meta,
                payload,
            } => {
                self.clock = clock;
                Some((meta, payload))
            }
            r => unreachable!("unexpected reply to Wait: {r:?}"),
        };
        let peer = out.as_ref().map(|(m, _)| m.src);
        let bytes = out.as_ref().map(|(m, _)| m.bytes).unwrap_or(0);
        self.record(TraceKind::Wait, start, peer, bytes);
        out
    }

    /// Nonblocking completion test. `Some(None)` = send request completed;
    /// `Some(Some(msg))` = receive completed; `None` = still pending.
    pub fn test(&mut self, req: Request) -> Option<Option<(MsgMeta, Bytes)>> {
        match self.call_now(Call::Test { req }) {
            Reply::TestResult { clock, done } => {
                self.clock = clock;
                done
            }
            r => unreachable!("unexpected reply to Test: {r:?}"),
        }
    }

    /// Combined send + receive (MPI_Sendrecv): posts the send without
    /// blocking, completes the receive, then waits out the send. Safe
    /// against the head-to-head exchange deadlock that two opposing
    /// blocking rendezvous sends would produce.
    pub async fn sendrecv(
        &mut self,
        dst: usize,
        send_tag: u64,
        payload: impl Into<Bytes>,
        src: impl Into<SrcSel>,
        recv_tag: impl Into<TagSel>,
    ) -> (MsgMeta, Bytes) {
        let req = self.isend(dst, send_tag, payload);
        let msg = self.recv(src, recv_tag).await;
        self.wait(req).await;
        msg
    }

    /// [`Proc::sendrecv`] with a synthetic send size.
    pub async fn sendrecv_size(
        &mut self,
        dst: usize,
        send_tag: u64,
        bytes: u64,
        src: impl Into<SrcSel>,
        recv_tag: impl Into<TagSel>,
    ) -> (MsgMeta, Bytes) {
        let req = self.isend_size(dst, send_tag, bytes);
        let msg = self.recv(src, recv_tag).await;
        self.wait(req).await;
        msg
    }
}

/// Encode a `f64` slice as little-endian bytes.
pub fn encode_f64s(data: &[f64]) -> Bytes {
    Bytes::from_fill(data.len() * 8, |buf| {
        for (c, x) in buf.chunks_exact_mut(8).zip(data) {
            c.copy_from_slice(&x.to_le_bytes());
        }
    })
}

/// Decode bytes produced by [`encode_f64s`].
pub fn decode_f64s(b: &[u8]) -> Vec<f64> {
    assert!(
        b.len().is_multiple_of(8),
        "payload is not a whole number of f64s"
    );
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_codec_roundtrip() {
        let xs = [0.0, -1.5, std::f64::consts::PI, f64::MAX];
        let enc = encode_f64s(&xs);
        assert_eq!(enc.len(), 32);
        assert_eq!(decode_f64s(&enc), xs);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn decode_rejects_ragged_payloads() {
        decode_f64s(&[1, 2, 3]);
    }
}
