//! The virtual-time executor and MPI message-progress engine.
//!
//! A rank program is an `async` state machine, and [`World::run_async`]
//! runs all of them on the calling thread: it boxes one future per rank
//! and loops `Engine::dispatch` — advance the network up to the ready
//! heap's head (one [`Network::advance`] per completing event time,
//! reacting to each batch of completions before the next), pop the next
//! ready rank in `(time, seq, rank)` order — then polls that rank's
//! future once. There is no waker and no run queue besides the engine's
//! ready heap: a future is polled exactly when virtual time says its rank
//! runs next. Every MPI call on a [`Proc`] runs the engine's handler
//! (`Engine::call`) inside that poll:
//!
//! - a call that completes at once (eager `send`, `isend`, `irecv`,
//!   `test`) returns without leaving the poll;
//! - a call that blocks or yields (`recv`, `wait`, rendezvous `send`,
//!   `compute`) returns `Pending`; when `dispatch` next returns the rank,
//!   its future is polled again and takes the reply the engine left it.
//!
//! One exception keeps the rule: a `compute`, or a `wait` on a request
//! that has already completed, resumes inside the same poll when its
//! resume time is strictly before the ready heap's head, strictly before
//! the next network event, and within `virtual_deadline`. In exactly that
//! case `dispatch` would pop the same rank next with nothing in between,
//! so the hand-off is skipped; the ready sequence still advances, so later
//! wake-ups are numbered as a yield would have numbered them.
//!
//! Execution therefore interleaves with network events in strict
//! virtual-time order, deterministically per seed, and futures being lazy
//! no program code runs before its rank is first due. A rank's panic is
//! caught around its one `poll` ([`SimError::RankPanic`]); a deadlock or a
//! missed `virtual_deadline` is found by `dispatch`. Either way
//! `run_async` returns the error and drops every rank's future where it
//! stands. The blocking [`World::run`] of [`crate::threads`] drives this
//! same engine from one OS thread per rank, for `perf/` only, until it can
//! be deleted (see that module).
//!
//! **Bounded stores.** Messages, requests and (in `netsim`) transfers live
//! in [`Slots`] and leave when they are delivered, consumed or complete,
//! so the engine's memory follows what is in flight, not the length of
//! the run.
//!
//! The message engine implements MPICH-1.2-like semantics:
//!
//! - **eager protocol** for messages under the threshold: data is pushed
//!   into the network immediately and buffered at the receiver if no
//!   matching receive is posted yet;
//! - **rendezvous protocol** (RTS → CTS → data) above the threshold — the
//!   cause of the 16 KB knee in the paper's Figure 2;
//! - envelope matching in **per-pair send order** (TCP streams are FIFO, so
//!   a retransmission stall delays everything behind it), with
//!   MPI_ANY_SOURCE / MPI_ANY_TAG wildcards and posted/unexpected queues;
//! - intra-node messages bypass the network (shared-memory path).
//!
//! Progress is idealised: protocol transitions (e.g. sending a CTS) happen
//! at their natural virtual time even if the host rank is blocked — i.e. an
//! asynchronous progress engine, unlike real MPICH 1.2 which progressed
//! only inside MPI calls. This is the right model for PEVPM comparison and
//! is documented in DESIGN.md.

use crate::config::WorldConfig;
use crate::msg::{Call, MsgMeta, Reply, Request, SrcSel, Tag, TagSel};
use crate::rank::{Link, Proc};
use crate::trace::TraceEvent;
use bytes::Bytes;
use pevpm_netsim::network::{Completion, NetStats};
use pevpm_netsim::{Dur, FaultEvent, Network, Slots, Time};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Result of a completed simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Virtual time at which the last rank finished.
    pub virtual_time: Time,
    /// Final virtual clock of every rank.
    pub clocks: Vec<Time>,
    /// Network-level statistics.
    pub net_stats: NetStats,
    /// Total point-to-point messages sent (including collectives' internal
    /// messages).
    pub messages: u64,
    /// Per-rank operation timelines; `Some` when
    /// `WorldConfig::record_trace` was set.
    pub traces: Option<Vec<Vec<TraceEvent>>>,
    /// Injected-fault occurrences from the network's fault plan, for
    /// degraded-run reports and trace marks. Empty without a plan.
    pub fault_events: Vec<FaultEvent>,
}

/// Why a simulation failed.
#[derive(Debug, Clone)]
pub enum SimError {
    /// No rank can make progress and no network event is pending.
    Deadlock {
        /// Virtual time of the deadlock.
        time: Time,
        /// The blocked ranks and the operations they are stuck in.
        blocked: Vec<(usize, String)>,
    },
    /// A rank's program panicked.
    RankPanic {
        /// Which rank panicked.
        rank: usize,
        /// The panic message.
        message: String,
    },
    /// Virtual time exceeded `WorldConfig::virtual_deadline`.
    DeadlineExceeded {
        /// The deadline that was crossed.
        time: Time,
    },
    /// A benchmark replication worker panicked (caught and surfaced
    /// rather than aborting the process).
    ReplicaPanic {
        /// Replica index, when the panic is attributable to one.
        index: Option<usize>,
        /// The panic message.
        message: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { time, blocked } => {
                write!(f, "deadlock at {time}: ")?;
                for (i, (r, d)) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "rank {r} blocked in {d}")?;
                }
                Ok(())
            }
            SimError::RankPanic { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            SimError::DeadlineExceeded { time } => {
                write!(f, "virtual deadline exceeded at {time}")
            }
            SimError::ReplicaPanic {
                index: Some(i),
                message,
            } => {
                write!(f, "replication {i} panicked: {message}")
            }
            SimError::ReplicaPanic {
                index: None,
                message,
            } => {
                write!(f, "replication worker panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A simulated MPI world. Construct with a [`WorldConfig`] and run a rank
/// program over it.
pub struct World;

impl World {
    /// Run `program` once per rank, on this thread, and simulate until
    /// every rank returns.
    ///
    /// The closure receives a [`Proc`] handle and may borrow its
    /// environment (`RefCell`/`Cell` to extract results): ranks run one at
    /// a time, so collection vectors indexed per rank stay deterministic.
    pub fn run_async<F>(cfg: WorldConfig, program: F) -> Result<RunReport, SimError>
    where
        F: AsyncFn(&mut Proc),
    {
        assert!(cfg.nranks() > 0, "world must have at least one rank");
        drive(&Rc::new(RefCell::new(Engine::new(cfg))), &program)
    }
}

/// The executor: one future per rank, polled in the engine's order.
fn drive<F>(engine: &Rc<RefCell<Engine>>, program: &F) -> Result<RunReport, SimError>
where
    F: AsyncFn(&mut Proc),
{
    let cfg = engine.borrow().cfg.clone();
    let nranks = cfg.nranks();
    let mut ranks: Vec<Option<Pin<Box<dyn Future<Output = ()> + '_>>>> = (0..nranks)
        .map(|r| {
            let link = Link::Executor(Rc::clone(engine));
            let mut proc = Proc::new(r, nranks, cfg.node_of(r), link, cfg.record_trace);
            let run = async move {
                program(&mut proc).await;
                proc.finish();
            };
            Some(Box::pin(run) as _)
        })
        .collect();
    // Nothing ever wakes a rank but `dispatch` returning it.
    let mut cx = Context::from_waker(Waker::noop());
    loop {
        let next = engine.borrow_mut().dispatch()?;
        let Some(r) = next else {
            return Ok(engine.borrow_mut().report());
        };
        let rank = ranks[r].as_mut().expect("a finished rank is never due");
        match catch_unwind(AssertUnwindSafe(|| rank.as_mut().poll(&mut cx))) {
            Ok(Poll::Pending) => {}
            Ok(Poll::Ready(())) => ranks[r] = None,
            Err(e) => return Err(rank_panic(r, &e)),
        }
    }
}

/// The error a panic of rank `rank`'s program becomes.
pub(crate) fn rank_panic(rank: usize, e: &Box<dyn std::any::Any + Send>) -> SimError {
    let message = pevpm_obs::diag::panic_message(&**e);
    pevpm_obs::diag::warn(&format!("mpisim: rank {rank} aborted: {message}"));
    SimError::RankPanic { rank, message }
}

/// Key of a message in `Engine::msgs`.
type MsgId = u64;
/// Key of a request in `Engine::reqs`; a [`Request`] carries it verbatim.
type ReqId = u64;

/// Where an in-flight transfer fits in the MPI protocol.
#[derive(Debug, Clone, Copy)]
enum Purpose {
    /// Eager message: envelope + data together.
    EagerData(MsgId),
    /// Rendezvous request-to-send (envelope only).
    Rts(MsgId),
    /// Rendezvous clear-to-send (receiver → sender control).
    Cts(MsgId),
    /// Rendezvous payload.
    RndvData(MsgId),
}

/// Where a matched message must be delivered.
#[derive(Debug, Clone, Copy)]
enum RecvTarget {
    /// A rank blocked in `recv`.
    Block { rank: usize, post_time: Time },
    /// A nonblocking `irecv` request.
    Req { req: ReqId, post_time: Time },
}

impl RecvTarget {
    fn post_time(&self) -> Time {
        match self {
            RecvTarget::Block { post_time, .. } | RecvTarget::Req { post_time, .. } => *post_time,
        }
    }
}

/// Who is waiting for sender-side completion of a rendezvous message.
#[derive(Debug, Clone, Copy)]
enum SenderWait {
    Block(usize),
    Req(ReqId),
}

/// A message from `send` to delivery; it leaves `Engine::msgs`, payload
/// and all, when it is handed to its receiver.
#[derive(Debug)]
struct Msg {
    src: usize,
    dst: usize,
    tag: Tag,
    bytes: u64,
    payload: Bytes,
    eager: bool,
    /// Index of the (src, dst) record in `Engine::pairs`.
    pair: u32,
    /// Per-(src,dst) send sequence number for envelope ordering.
    seq: u64,
    /// Envelope visible (in-order arrived) time.
    visible_at: Option<Time>,
    /// Receive target once matched (rendezvous keeps it until data lands).
    matched: Option<RecvTarget>,
    /// Sender waiting for rendezvous completion.
    sender_wait: Option<SenderWait>,
}

/// A request leaves `Engine::reqs` when its completion is handed to the
/// rank (`wait`, or a `test` that finds it done): a second `wait` finds
/// nothing.
#[derive(Debug)]
enum ReqState {
    /// Send posted; completion time not yet known (rendezvous awaiting CTS).
    SendPending,
    /// Send will be locally complete at this time.
    SendDone(Time),
    /// Receive posted, not yet delivered.
    RecvPending,
    /// Receive delivered at this time with this envelope and payload.
    RecvDone(Time, MsgMeta, Bytes),
}

impl ReqState {
    /// When the request completes, once that is known.
    fn done_at(&self) -> Option<Time> {
        match self {
            ReqState::SendDone(t) | ReqState::RecvDone(t, ..) => Some(*t),
            ReqState::SendPending | ReqState::RecvPending => None,
        }
    }

    /// The message of a completed receive.
    fn into_msg(self) -> Option<(MsgMeta, Bytes)> {
        match self {
            ReqState::RecvDone(_, meta, payload) => Some((meta, payload)),
            _ => None,
        }
    }
}

struct ReqEntry {
    state: ReqState,
    /// Rank blocked in `wait` on this request, if any.
    waiter: Option<usize>,
}

struct Posted {
    src: SrcSel,
    tag: TagSel,
    target: RecvTarget,
}

/// Envelope-ordering state of one (src, dst) pair.
#[derive(Default)]
struct Pair {
    /// Sequence number of the next message sent.
    send_seq: u64,
    /// Sequence number of the next envelope to become visible.
    env_next: u64,
    /// Envelopes that arrived ahead of `env_next`: entry `i` holds sequence
    /// number `env_next + i`.
    env_buf: VecDeque<Option<(MsgId, Time)>>,
    /// When the last envelope became visible.
    env_visible: Time,
}

/// What a rank that cannot run is blocked in; text only when a deadlock
/// report needs it.
#[derive(Debug, Clone, Copy)]
enum Blocked {
    Send { dst: usize, tag: Tag, bytes: u64 },
    Recv { src: SrcSel, tag: TagSel },
    Wait(Request),
}

impl std::fmt::Display for Blocked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Blocked::Send { dst, tag, bytes } => {
                write!(f, "Send(dst={dst}, tag={tag}, bytes={bytes}) [rendezvous]")
            }
            Blocked::Recv { src, tag } => write!(f, "Recv(src={src:?}, tag={tag:?})"),
            Blocked::Wait(req) => write!(f, "Wait(req={})", req.0),
        }
    }
}

pub(crate) struct Engine {
    cfg: WorldConfig,
    /// `cfg.virtual_deadline` as a time; `Time::MAX` without one.
    deadline: Time,
    net: Network,
    /// Completions of the event time being processed, as the network
    /// reports them and as (purpose, delivery time); kept for their
    /// capacity.
    completions: Vec<Completion>,
    arrived: Vec<(Purpose, Time)>,
    clocks: Vec<Time>,
    ready: BinaryHeap<Reverse<(Time, u64, usize)>>,
    ready_seq: u64,
    /// The reply a rank in the ready heap resumes with (none at its first
    /// start).
    pub(crate) pending_reply: Vec<Option<Reply>>,
    finished: Vec<bool>,
    nfinished: usize,
    blocked: Vec<Option<Blocked>>,

    msgs: Slots<Msg>,
    /// What each in-flight transfer carries, by `TransferId::slot`.
    purpose: Vec<Option<Purpose>>,
    /// `src * nranks + dst` → index into `pairs` plus one; 0 = the pair
    /// has not exchanged a message yet.
    pair_index: Vec<u32>,
    pairs: Vec<Pair>,
    /// Per destination rank: visible but unmatched envelopes, in visible
    /// order (the "unexpected message queue").
    pending_env: Vec<VecDeque<MsgId>>,
    /// Per destination rank: posted but unmatched receives, in post order.
    posted: Vec<VecDeque<Posted>>,
    reqs: Slots<ReqEntry>,
    msg_count: u64,
    traces: Vec<Vec<TraceEvent>>,
}

impl Engine {
    pub(crate) fn new(cfg: WorldConfig) -> Self {
        let nranks = cfg.nranks();
        let net = Network::new(cfg.cluster.clone(), cfg.seed);
        let mut ready = BinaryHeap::new();
        for r in 0..nranks {
            ready.push(Reverse((Time::ZERO, r as u64, r)));
        }
        Engine {
            deadline: cfg.virtual_deadline.map_or(Time::MAX, |d| Time::ZERO + d),
            net,
            completions: Vec::new(),
            arrived: Vec::new(),
            clocks: vec![Time::ZERO; nranks],
            ready,
            ready_seq: nranks as u64,
            pending_reply: (0..nranks).map(|_| None).collect(),
            finished: vec![false; nranks],
            nfinished: 0,
            blocked: vec![None; nranks],
            msgs: Slots::new(),
            purpose: Vec::new(),
            pair_index: vec![0; nranks * nranks],
            pairs: Vec::new(),
            pending_env: (0..nranks).map(|_| VecDeque::new()).collect(),
            posted: (0..nranks).map(|_| VecDeque::new()).collect(),
            reqs: Slots::new(),
            msg_count: 0,
            traces: (0..nranks).map(|_| Vec::new()).collect(),
            cfg,
        }
    }

    pub(crate) fn report(&mut self) -> RunReport {
        let virtual_time = self.clocks.iter().copied().max().unwrap_or(Time::ZERO);
        RunReport {
            virtual_time,
            clocks: self.clocks.clone(),
            net_stats: *self.net.stats(),
            messages: self.msg_count,
            traces: if self.cfg.record_trace {
                Some(std::mem::take(&mut self.traces))
            } else {
                None
            },
            fault_events: self.net.take_fault_events(),
        }
    }

    /// CPU time the sender spends injecting a message of `bytes`.
    fn inj_cost(&self, bytes: u64) -> Dur {
        let c = &self.cfg.cluster;
        c.send_overhead + Dur::from_nanos(c.per_frame_overhead.as_nanos() * c.frames_for(bytes))
    }

    fn node(&self, rank: usize) -> usize {
        self.cfg.node_of(rank)
    }

    /// The running rank `r` resumes at `at` with `reply`. If `at` is
    /// strictly before every other ready rank and every network event, and
    /// within the deadline, [`Engine::dispatch`] would return `r` next with
    /// nothing in between: `r` keeps running and gets `reply` at once
    /// (`ready_seq` still advances, numbering later wake-ups as a yield
    /// would have).
    /// Otherwise `r` yields until then.
    fn resume(&mut self, r: usize, at: Time, reply: Reply) -> Option<Reply> {
        let next_rank = self.ready.peek().map_or(Time::MAX, |Reverse((t, _, _))| *t);
        let next_net = self.net.next_event_time().unwrap_or(Time::MAX);
        if at < next_rank && at < next_net && at <= self.deadline {
            self.ready_seq += 1;
            return Some(reply);
        }
        self.schedule_wake(r, at, reply);
        None
    }

    fn schedule_wake(&mut self, rank: usize, at: Time, reply: Reply) {
        debug_assert!(
            self.pending_reply[rank].is_none(),
            "double wake for rank {rank}"
        );
        self.pending_reply[rank] = Some(reply);
        self.blocked[rank] = None;
        self.ready_seq += 1;
        self.ready.push(Reverse((at, self.ready_seq, rank)));
    }

    /// Start a network transfer and note what it carries.
    fn start_transfer(&mut self, at: Time, from: usize, to: usize, bytes: u64, purpose: Purpose) {
        let tid = self
            .net
            .start_transfer(at, self.node(from), self.node(to), bytes);
        let slot = tid.slot();
        if slot >= self.purpose.len() {
            self.purpose.resize(slot + 1, None);
        }
        self.purpose[slot] = Some(purpose);
    }

    /// Advance the network up to `limit`, to the first event time that
    /// completes a transfer, and react to those completions at their own
    /// timestamps so protocol responses (CTS, data) are injected
    /// causally. `false`: no event up to `limit` completed anything.
    fn advance_net(&mut self, limit: Time) -> bool {
        let mut done = std::mem::take(&mut self.completions);
        if !self.net.advance(limit, &mut done) {
            self.completions = done;
            return false;
        }
        // Look every purpose up before reacting to any: the network has
        // already freed these transfers' slots, and a reaction that starts
        // a transfer may be given the slot of a completion further down
        // the batch.
        let mut arrived = std::mem::take(&mut self.arrived);
        arrived.extend(done.drain(..).map(|c| {
            let purpose = self.purpose[c.id.slot()].take();
            (
                purpose.expect("completion for unknown transfer"),
                c.delivered_at,
            )
        }));
        for (purpose, at) in arrived.drain(..) {
            self.handle_completion(purpose, at);
        }
        self.completions = done;
        self.arrived = arrived;
        true
    }

    /// The event loop: advance the network until a rank is due, and return
    /// it with its clock brought forward. `None` once every rank has
    /// finished.
    pub(crate) fn dispatch(&mut self) -> Result<Option<usize>, SimError> {
        let nranks = self.cfg.nranks();
        loop {
            if self.nfinished == nranks {
                return Ok(None);
            }
            let t_rank = self.ready.peek().map(|Reverse((t, _, _))| *t);
            // Network first at equal times: completions at t may wake ranks
            // that then run at t. A completion may also wake a rank before
            // the ready heap's head, so the head is read again after each.
            let limit = t_rank.unwrap_or(Time::MAX).min(self.deadline);
            if self.advance_net(limit) {
                continue;
            }
            let t_net = self.net.next_event_time();
            let t_next = match (t_rank, t_net) {
                (None, None) => {
                    let blocked = (0..nranks)
                        .filter(|&r| !self.finished[r])
                        .map(|r| {
                            let desc = self.blocked[r]
                                .map_or_else(|| "<unknown>".into(), |b| b.to_string());
                            (r, desc)
                        })
                        .collect();
                    let err = SimError::Deadlock {
                        time: self.net.now(),
                        blocked,
                    };
                    pevpm_obs::diag::debug(&format!("mpisim: {err}"));
                    return Err(err);
                }
                (Some(tr), Some(tn)) => tr.min(tn),
                (Some(tr), None) => tr,
                (None, Some(tn)) => tn,
            };
            if t_next > self.deadline {
                pevpm_obs::diag::debug(&format!("mpisim: virtual deadline exceeded at {t_next}"));
                return Err(SimError::DeadlineExceeded { time: t_next });
            }
            // Every network event up to the head's time is handled.
            let Reverse((t, _, r)) = self.ready.pop().expect("a rank is due");
            self.clocks[r] = self.clocks[r].max(t);
            return Ok(Some(r));
        }
    }

    pub(crate) fn finish(&mut self, r: usize, trace: Vec<TraceEvent>) {
        self.finished[r] = true;
        self.nfinished += 1;
        if self.cfg.record_trace {
            self.traces[r] = trace;
        }
    }

    /// Handle one call of the running rank `r`. `Some`: the call is
    /// complete and `r` keeps running. `None`: `r` blocked, or yielded with
    /// its wake-up already in the ready heap; its reply will be in
    /// `pending_reply` when [`Engine::dispatch`] next returns it.
    pub(crate) fn call(&mut self, r: usize, call: Call) -> Option<Reply> {
        match call {
            Call::Compute(d) => {
                let wake = self.clocks[r] + d;
                self.clocks[r] = wake;
                self.resume(r, wake, Reply::Ok { clock: wake })
            }
            Call::Send {
                dst,
                tag,
                bytes,
                payload,
            } => {
                let local = self.node(r) == self.node(dst);
                let eager = local || bytes < self.cfg.protocol.eager_threshold;
                let mid = self.new_msg(r, dst, tag, bytes, payload, eager);
                if eager {
                    let t0 = self.clocks[r];
                    self.start_transfer(t0, r, dst, bytes, Purpose::EagerData(mid));
                    let done = t0 + self.inj_cost(bytes);
                    self.clocks[r] = done;
                    // An eager send does not yield.
                    Some(Reply::Ok { clock: done })
                } else {
                    self.post_rts(mid);
                    self.msgs[mid].sender_wait = Some(SenderWait::Block(r));
                    self.blocked[r] = Some(Blocked::Send { dst, tag, bytes });
                    None
                }
            }
            Call::Isend {
                dst,
                tag,
                bytes,
                payload,
            } => {
                let local = self.node(r) == self.node(dst);
                let eager = local || bytes < self.cfg.protocol.eager_threshold;
                let mid = self.new_msg(r, dst, tag, bytes, payload, eager);
                let state = if eager {
                    let t0 = self.clocks[r];
                    self.start_transfer(t0, r, dst, bytes, Purpose::EagerData(mid));
                    ReqState::SendDone(t0 + self.inj_cost(bytes))
                } else {
                    self.post_rts(mid);
                    ReqState::SendPending
                };
                let req = self.new_req(state);
                if !eager {
                    self.msgs[mid].sender_wait = Some(SenderWait::Req(req));
                }
                Some(Reply::Posted {
                    clock: self.clocks[r],
                    req: Request(req),
                })
            }
            Call::Recv { src, tag } => {
                let target = RecvTarget::Block {
                    rank: r,
                    post_time: self.clocks[r],
                };
                self.blocked[r] = Some(Blocked::Recv { src, tag });
                self.post_recv(r, src, tag, target);
                None
            }
            Call::Irecv { src, tag } => {
                let req = self.new_req(ReqState::RecvPending);
                let target = RecvTarget::Req {
                    req,
                    post_time: self.clocks[r],
                };
                self.post_recv(r, src, tag, target);
                Some(Reply::Posted {
                    clock: self.clocks[r],
                    req: Request(req),
                })
            }
            Call::Wait { req } => {
                let Some(entry) = self.reqs.get_mut(req.0) else {
                    panic!("rank {r} waited on request {} twice", req.0)
                };
                match entry.state.done_at() {
                    None => {
                        entry.waiter = Some(r);
                        self.blocked[r] = Some(Blocked::Wait(req));
                        None
                    }
                    Some(t) => {
                        let done = self.reqs.remove(req.0).expect("request is live");
                        let wake = self.clocks[r].max(t);
                        self.clocks[r] = wake;
                        self.resume(r, wake, Reply::done(wake, done.state.into_msg()))
                    }
                }
            }
            Call::Test { req } => {
                let clock = self.clocks[r];
                let done_at = self.reqs.get(req.0).and_then(|e| e.state.done_at());
                let done = done_at.is_some_and(|t| t <= clock).then(|| {
                    let done = self.reqs.remove(req.0).expect("request is live");
                    done.state.into_msg()
                });
                Some(Reply::TestResult { clock, done })
            }
        }
    }

    fn new_msg(
        &mut self,
        src: usize,
        dst: usize,
        tag: Tag,
        bytes: u64,
        payload: Bytes,
        eager: bool,
    ) -> MsgId {
        let key = src * self.clocks.len() + dst;
        let index = &mut self.pair_index[key];
        if *index == 0 {
            self.pairs.push(Pair::default());
            *index = u32::try_from(self.pairs.len()).expect("pair table overflow");
        }
        let pair = *index - 1;
        let p = &mut self.pairs[pair as usize];
        let seq = p.send_seq;
        p.send_seq += 1;
        self.msg_count += 1;
        self.msgs.insert(Msg {
            src,
            dst,
            tag,
            bytes,
            payload,
            eager,
            pair,
            seq,
            visible_at: None,
            matched: None,
            sender_wait: None,
        })
    }

    fn new_req(&mut self, state: ReqState) -> ReqId {
        self.reqs.insert(ReqEntry {
            state,
            waiter: None,
        })
    }

    /// Send the rendezvous request-to-send control message.
    fn post_rts(&mut self, mid: MsgId) {
        let (src, dst) = (self.msgs[mid].src, self.msgs[mid].dst);
        let ctrl = self.cfg.protocol.ctrl_bytes;
        self.start_transfer(self.clocks[src], src, dst, ctrl, Purpose::Rts(mid));
    }

    fn matches(m: &Msg, src: SrcSel, tag: TagSel) -> bool {
        let src_ok = match src {
            SrcSel::Any => true,
            SrcSel::Rank(s) => m.src == s,
        };
        let tag_ok = match tag {
            TagSel::Any => true,
            TagSel::Tag(t) => m.tag == t,
        };
        src_ok && tag_ok
    }

    fn post_recv(&mut self, dst: usize, src: SrcSel, tag: TagSel, target: RecvTarget) {
        let hit = self.pending_env[dst]
            .iter()
            .position(|&m| Self::matches(&self.msgs[m], src, tag));
        match hit {
            Some(pos) => {
                let mid = self.pending_env[dst].remove(pos).unwrap();
                self.match_msg(mid, target);
            }
            None => self.posted[dst].push_back(Posted { src, tag, target }),
        }
    }

    /// A transfer carrying `purpose` was delivered at `at`.
    fn handle_completion(&mut self, purpose: Purpose, at: Time) {
        match purpose {
            Purpose::EagerData(mid) | Purpose::Rts(mid) => self.on_env_arrival(mid, at),
            Purpose::Cts(mid) => {
                let m = &mut self.msgs[mid];
                let (src, dst, bytes) = (m.src, m.dst, m.bytes);
                let sender_wait = m.sender_wait.take();
                self.start_transfer(at, src, dst, bytes, Purpose::RndvData(mid));
                let done = at + self.inj_cost(bytes);
                match sender_wait {
                    Some(SenderWait::Block(r)) => {
                        self.clocks[r] = done;
                        self.schedule_wake(r, done, Reply::Ok { clock: done });
                    }
                    Some(SenderWait::Req(req)) => self.complete_req(req, done, None),
                    None => {}
                }
            }
            Purpose::RndvData(mid) => {
                let target = self.msgs[mid]
                    .matched
                    .take()
                    .expect("rendezvous data without a matched receive");
                let wake = at.max(target.post_time()) + self.cfg.protocol.match_cost;
                self.deliver(mid, target, wake);
            }
        }
    }

    /// Envelope arrived on the wire: apply per-pair in-order visibility,
    /// then run matching for every envelope that became visible.
    fn on_env_arrival(&mut self, mid: MsgId, at: Time) {
        let m = &self.msgs[mid];
        let (pair, seq) = (m.pair as usize, m.seq);
        let p = &mut self.pairs[pair];
        let ahead = (seq - p.env_next) as usize;
        if ahead >= p.env_buf.len() {
            p.env_buf.resize(ahead + 1, None);
        }
        p.env_buf[ahead] = Some((mid, at));
        while let Some(&Some((m2, a2))) = self.pairs[pair].env_buf.front() {
            let p = &mut self.pairs[pair];
            p.env_buf.pop_front();
            p.env_next += 1;
            let vis = a2.max(p.env_visible);
            p.env_visible = vis;
            self.on_envelope_visible(m2, vis);
        }
    }

    fn on_envelope_visible(&mut self, mid: MsgId, visible: Time) {
        let m = &mut self.msgs[mid];
        m.visible_at = Some(visible);
        let dst = m.dst;
        let m = &self.msgs[mid];
        let hit = self.posted[dst]
            .iter()
            .position(|p| Self::matches(m, p.src, p.tag));
        match hit {
            Some(pos) => {
                let p = self.posted[dst].remove(pos).unwrap();
                self.match_msg(mid, p.target);
            }
            None => self.pending_env[dst].push_back(mid),
        }
    }

    /// An envelope met a receive: deliver (eager) or start the rendezvous
    /// CTS handshake.
    fn match_msg(&mut self, mid: MsgId, target: RecvTarget) {
        let m = &mut self.msgs[mid];
        let visible = m
            .visible_at
            .expect("matching an envelope that is not visible");
        let tm = visible.max(target.post_time()) + self.cfg.protocol.match_cost;
        if m.eager {
            self.deliver(mid, target, tm);
        } else {
            m.matched = Some(target);
            let (src, dst) = (m.src, m.dst);
            let ctrl = self.cfg.protocol.ctrl_bytes;
            self.start_transfer(tm, dst, src, ctrl, Purpose::Cts(mid));
        }
    }

    /// Hand a message to its receiver; the message's slot is free again.
    fn deliver(&mut self, mid: MsgId, target: RecvTarget, wake: Time) {
        let m = self.msgs.remove(mid).expect("message delivered twice");
        let meta = MsgMeta {
            src: m.src,
            tag: m.tag,
            bytes: m.bytes,
        };
        let msg = Some((meta, m.payload));
        match target {
            RecvTarget::Block { rank, .. } => {
                self.clocks[rank] = self.clocks[rank].max(wake);
                self.schedule_wake(rank, wake, Reply::done(wake, msg));
            }
            RecvTarget::Req { req, .. } => self.complete_req(req, wake, msg),
        }
    }

    /// A pending request completed at `at`: wake the rank waiting on it, or
    /// keep the result for its `wait`/`test`.
    fn complete_req(&mut self, req: ReqId, at: Time, msg: Option<(MsgMeta, Bytes)>) {
        match self.reqs[req].waiter {
            Some(r) => {
                self.reqs.remove(req);
                let w = at.max(self.clocks[r]);
                self.clocks[r] = w;
                self.schedule_wake(r, w, Reply::done(w, msg));
            }
            None => {
                self.reqs[req].state = match msg {
                    Some((meta, payload)) => ReqState::RecvDone(at, meta, payload),
                    None => ReqState::SendDone(at),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stores_are_bounded_by_what_is_in_flight() {
        const NRANKS: usize = 8;
        const ROUNDS: usize = 1_250;
        // 10 000 ring messages: a blocking shift with a real payload, then a
        // nonblocking one with requests on both sides.
        let engine = Rc::new(RefCell::new(Engine::new(WorldConfig::perseus(
            NRANKS, 1, 7,
        ))));
        let report = drive(&engine, &async |rank: &mut Proc| {
            let (r, n) = (rank.rank(), rank.nranks());
            let (left, right) = ((r + n - 1) % n, (r + 1) % n);
            for i in 0..ROUNDS / 2 {
                let (_, payload) = rank.sendrecv(right, 0, vec![i as u8; 1024], left, 0).await;
                assert_eq!(payload.len(), 1024);
                let rq = rank.irecv(left, 1);
                let sq = rank.isend_size(right, 1, 20_000);
                rank.wait(rq).await;
                rank.wait(sq).await;
            }
        })
        .expect("ring runs");
        assert_eq!(report.messages, (NRANKS * ROUNDS) as u64);
        let eng = engine.borrow();
        let high_water = [
            ("messages", eng.msgs.slots()),
            ("requests", eng.reqs.slots()),
            ("transfers", eng.net.transfer_slots()),
            ("transfer purposes", eng.purpose.len()),
        ];
        for (store, slots) in high_water {
            assert!(
                slots <= 4 * NRANKS,
                "{store}: {slots} slots after {} messages",
                report.messages
            );
        }
        assert_eq!(eng.pairs.len(), NRANKS, "one record per ring edge");
    }
}
