//! The packet-level discrete-event network engine.
//!
//! A [`Network`] moves *transfers* (byte blobs; the MPI protocol layer above
//! decides what they mean) from node to node through three classes of FIFO
//! queue server:
//!
//! 1. the sender's NIC (serialises frames at link rate — shared by all
//!    processes of an SMP node, which is the paper's "contention for the one
//!    network interface in each node");
//! 2. the source switch's egress **trunk** towards the stacking backplane
//!    (2.1 Gbit/s, finite buffer) — only for inter-switch frames; saturating
//!    it reproduces the paper's Figure 4 backplane saturation;
//! 3. the destination node's switch **egress port** (link rate, finite
//!    buffer) — the classic incast drop point.
//!
//! Buffer overflow drops a frame; the transport recovers go-back-N style
//! after a retransmission timeout with exponential backoff, reproducing the
//! paper's "outliers in the distribution at values related to the network's
//! retransmission timeout parameters". Every queue server adds a small
//! exponentially-distributed service jitter, which broadens the
//! communication-time distributions the way OS/interrupt noise does on real
//! commodity clusters.

use crate::config::{ClusterConfig, NodeId};
use crate::faults::{FaultEvent, FaultKind, FaultPlan};
use crate::slots::{slot_of, Slots};
use crate::time::{wire_time, Dur, Time};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifier of a transfer, unique within one [`Network`].
///
/// A [`Slots`] key: the network recycles a transfer's table slot as soon
/// as the transfer completes, and the key's generation half lets it tell
/// a frame or timer of a finished transfer from the slot's next tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransferId(pub u64);

impl TransferId {
    /// The transfer's table slot: unique among transfers in flight, and
    /// below [`Network::transfer_slots`] — a dense index for per-transfer
    /// state in the layer above. The slot is free for the next transfer
    /// from the moment this one completes, which is before the caller
    /// sees its [`Completion`]: a caller that starts transfers while
    /// reacting to a batch of completions must read its per-slot state for
    /// the whole batch first.
    pub fn slot(self) -> usize {
        slot_of(self.0)
    }
}

/// Notification that a transfer's last byte (plus receive overhead) reached
/// the destination node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Which transfer completed.
    pub id: TransferId,
    /// Virtual time of delivery.
    pub delivered_at: Time,
    /// How many retransmission rounds the transfer needed (0 = clean).
    pub retransmissions: u32,
}

/// Aggregate counters, used by tests and the EXPERIMENTS write-up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames injected into the network (including retransmitted frames).
    pub frames_sent: u64,
    /// Frames dropped on buffer overflow.
    pub frames_dropped: u64,
    /// Retransmission rounds triggered.
    pub retransmissions: u64,
    /// Transfers completed.
    pub transfers_completed: u64,
    /// Payload bytes delivered (goodput).
    pub bytes_delivered: u64,
    /// Events processed by the engine.
    pub events_processed: u64,
    /// Wire bytes carried by the stacking backplane (inter-switch bus).
    pub trunk_bytes: u64,
    /// Peak backlog observed in the backplane queue, in bytes — the
    /// quantity whose limit the paper's §3 saturation analysis computes
    /// against the 2.1 Gbit/s matrix-card capacity.
    pub trunk_peak_backlog: u64,
    /// Frames lost to injected random per-frame loss
    /// ([`FaultPlan::loss_prob`]); also counted in `frames_dropped`.
    pub faults_injected_losses: u64,
    /// Frames lost inside link-flap windows; also counted in
    /// `frames_dropped`.
    pub faults_flap_drops: u64,
    /// Frames deferred or slowed by pause windows.
    pub faults_paused_frames: u64,
    /// Background cross-traffic transfers injected by the fault plan.
    pub faults_background_transfers: u64,
}

/// A FIFO queue server: a resource that serves frames one at a time at a
/// fixed bit rate. `free_at` is when the server finishes everything
/// currently accepted; the backlog (in bytes) is derivable from it, giving a
/// O(1) finite-buffer occupancy test.
#[derive(Debug, Clone, Copy)]
struct Server {
    free_at: Time,
    rate_bps: u64,
    buffer_bytes: u64,
    /// The last wire size served and its [`wire_time`]: most frames are
    /// full-size, so most visits skip the division.
    last_wire: u64,
    last_wire_time: Dur,
}

impl Server {
    fn new(rate_bps: u64, buffer_bytes: u64) -> Self {
        Server {
            free_at: Time::ZERO,
            rate_bps,
            buffer_bytes,
            last_wire: 0,
            last_wire_time: Dur::ZERO,
        }
    }

    /// Serve at `factor` times the rate: a fault plan's link degradation,
    /// applied before the server has served anything.
    fn scale_rate(&mut self, factor: f64) {
        *self = Server::new(
            ((self.rate_bps as f64 * factor) as u64).max(1),
            self.buffer_bytes,
        );
    }

    /// [`wire_time`] of `wire_bytes` at this server's rate.
    fn service_time(&mut self, wire_bytes: u64) -> Dur {
        if wire_bytes != self.last_wire {
            self.last_wire = wire_bytes;
            self.last_wire_time = wire_time(wire_bytes, self.rate_bps);
        }
        self.last_wire_time
    }

    /// Bytes currently queued (backlog duration × rate).
    fn backlog_bytes(&self, now: Time) -> u64 {
        let backlog = self.free_at.since(now);
        ((backlog.as_nanos() as u128 * self.rate_bps as u128) / (8 * 1_000_000_000)) as u64
    }

    /// Try to accept a frame of `wire_bytes` arriving at `now`; returns the
    /// service-completion time, or `None` if the buffer would overflow.
    fn accept(&mut self, now: Time, wire_bytes: u64, jitter: Dur) -> Option<Time> {
        // `backlog_bytes(now) + wire_bytes > buffer_bytes` without the
        // division: `⌊q / d⌋ > room` exactly when `q ≥ (room + 1)·d`.
        let room = self.buffer_bytes.checked_sub(wire_bytes)?;
        let queued = self.free_at.since(now).as_nanos() as u128 * self.rate_bps as u128;
        if queued >= (room as u128 + 1) * (8 * 1_000_000_000) {
            return None;
        }
        let start = self.free_at.max(now) + jitter;
        let done = start + self.service_time(wire_bytes);
        self.free_at = done;
        Some(done)
    }
}

/// Which queue server a frame visits next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hop {
    /// Sender NIC of the given node (unbounded: the sender paces itself).
    Nic(NodeId),
    /// A switch's shared switching fabric (droppable).
    Fabric(usize),
    /// The single stacking backplane bus shared by all inter-switch
    /// traffic (droppable).
    Trunk,
    /// Destination node's switch egress port (droppable).
    Port(NodeId),
    /// Delivered to the destination host.
    Deliver,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Frame `seq` of transfer arrives at `hop`.
    Arrive {
        tid: TransferId,
        seq: u64,
        epoch: u32,
        hop_idx: u8,
    },
    /// Retransmission fires: go-back-N from the receiver's cursor. `fast`
    /// marks a duplicate-ACK fast retransmit (no RTO backoff).
    Retransmit {
        tid: TransferId,
        epoch: u32,
        fast: bool,
    },
    /// Intra-node (shared-memory) transfer completes.
    LocalDeliver { tid: TransferId },
}

#[derive(Debug, Clone, Copy)]
struct Transfer {
    src: NodeId,
    dst: NodeId,
    bytes: u64,
    nframes: u64,
    /// Wire bytes of a full frame and of the last frame.
    wire_full: u64,
    wire_last: u64,
    /// Receiver's go-back-N cursor: next in-order frame sequence expected.
    next_expected: u64,
    /// Current sender epoch; frames from older epochs are stale.
    epoch: u32,
    /// True once a drop has armed the retransmission timer for this epoch.
    retx_armed: bool,
    /// Current RTO (doubles per retransmission round, capped).
    rto: Dur,
    retransmissions: u32,
    /// Once a transfer has lost a frame, its retransmitted frames are
    /// injected paced (congestion avoidance stand-in).
    paced: bool,
    /// The switches of `src` and `dst`; the frame path has a trunk hop
    /// when they differ.
    src_switch: usize,
    dst_switch: usize,
    /// Fault-plan cross-traffic: occupies queues like any transfer but
    /// never surfaces a [`Completion`] to the protocol layer.
    background: bool,
}

impl Transfer {
    /// Wire bytes of frame `seq`: [`ClusterConfig::frame_wire_bytes`].
    fn frame_wire_bytes(&self, seq: u64) -> u64 {
        if seq + 1 < self.nframes {
            self.wire_full
        } else {
            self.wire_last
        }
    }
}

/// The discrete-event network simulator.
pub struct Network {
    cfg: ClusterConfig,
    now: Time,
    nic: Vec<Server>,
    fabric: Vec<Server>,
    trunk: Server,
    port: Vec<Server>,
    /// Transfers in flight: a transfer leaves the table when it completes,
    /// so the table grows to the peak number in flight and no further.
    transfers: Slots<Transfer>,
    /// Pending events as `(time, seq << SLOT_BITS | slot)`: ordered by
    /// `(time, seq)` (`seq` is unique), with the payload in `events[slot]`.
    heap: BinaryHeap<Reverse<(Time, u64)>>,
    heap_seq: u64,
    /// Payloads of the events in `heap`, and the vacant slots among them.
    events: Vec<Ev>,
    free_events: Vec<u32>,
    /// The event being handled still sits at the heap top; the first
    /// event it schedules takes its place (one sift-down, not a pop and
    /// a push), and it is popped only if it schedules none.
    top_handled: bool,
    rng: SmallRng,
    stats: NetStats,
    completions: Vec<Completion>,
    /// Runtime form of the fault plan; `None` when the plan needs no
    /// per-event checks (no plan, or degrade/background only).
    faults: Option<ActiveFaults>,
    /// Injected-fault occurrences, for trace marks. Empty unless a fault
    /// plan is active.
    fault_events: Vec<FaultEvent>,
}

/// Per-event runtime state compiled from a [`FaultPlan`]. Only the parts
/// that must be consulted on the hot path live here; rate degradation is
/// applied to the [`Server`] rates once at construction and background
/// bursts are pre-scheduled as ordinary events.
#[derive(Debug, Clone, Default)]
struct ActiveFaults {
    loss_prob: f64,
    /// `(node, window_start, window_end)` link-down windows.
    flaps: Vec<(NodeId, Time, Time)>,
    /// `(node, window_start, window_end, slowdown)`; `slowdown == 0`
    /// defers to the window end, `>= 1` multiplies NIC service time.
    pauses: Vec<(NodeId, Time, Time, f64)>,
}

impl ActiveFaults {
    fn flap_active(&self, node: NodeId, now: Time) -> bool {
        self.flaps
            .iter()
            .any(|&(n, from, to)| n == node && now >= from && now < to)
    }

    /// An active pause window for `node`, as `(window_end, slowdown)`.
    fn pause_at(&self, node: NodeId, now: Time) -> Option<(Time, f64)> {
        self.pauses
            .iter()
            .find(|&&(n, from, to, _)| n == node && now >= from && now < to)
            .map(|&(_, _, to, slowdown)| (to, slowdown))
    }
}

/// Bits of a heap key that name the payload's slot in `Network::events`;
/// the insertion sequence number sits above them, so slots never decide
/// the order.
const SLOT_BITS: u32 = 24;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

impl Network {
    /// Create a network for the given cluster with a deterministic RNG seed.
    pub fn new(cfg: ClusterConfig, seed: u64) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid cluster config: {e}");
        }
        let nodes = cfg.nodes;
        let nswitches = cfg.num_switches();
        let mut net = Network {
            nic: (0..nodes)
                .map(|_| Server::new(cfg.link_bw_bps, u64::MAX / 4))
                .collect(),
            fabric: (0..nswitches)
                .map(|_| Server::new(cfg.fabric_bw_bps, cfg.fabric_buffer_bytes))
                .collect(),
            trunk: Server::new(cfg.trunk_bw_bps, cfg.trunk_buffer_bytes),
            port: (0..nodes)
                .map(|_| Server::new(cfg.link_bw_bps, cfg.port_buffer_bytes))
                .collect(),
            transfers: Slots::new(),
            heap: BinaryHeap::new(),
            heap_seq: 0,
            events: Vec::new(),
            free_events: Vec::new(),
            top_handled: false,
            rng: SmallRng::seed_from_u64(seed),
            stats: NetStats::default(),
            completions: Vec::new(),
            faults: None,
            fault_events: Vec::new(),
            cfg,
            now: Time::ZERO,
        };
        if let Some(plan) = net.cfg.faults.clone() {
            net.apply_fault_plan(&plan);
        }
        net
    }

    /// Apply a validated fault plan: degrade link rates, pre-schedule
    /// background bursts, and compile the per-event windows. Called once
    /// from the constructor; an empty plan is a no-op (the
    /// pay-for-what-you-use contract).
    fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        for d in &plan.degrade {
            self.nic[d.node].scale_rate(d.rate_factor);
            self.port[d.node].scale_rate(d.rate_factor);
        }
        for b in &plan.background {
            for k in 0..b.count {
                let at = Time::from_secs_f64(b.start_secs + k as f64 * b.period_secs);
                self.start_background_transfer(at, b.src, b.dst, b.bytes);
            }
        }
        if plan.loss_prob > 0.0 || !plan.flaps.is_empty() || !plan.pauses.is_empty() {
            self.faults = Some(ActiveFaults {
                loss_prob: plan.loss_prob,
                flaps: plan
                    .flaps
                    .iter()
                    .map(|f| {
                        (
                            f.node,
                            Time::from_secs_f64(f.from_secs),
                            Time::from_secs_f64(f.to_secs),
                        )
                    })
                    .collect(),
                pauses: plan
                    .pauses
                    .iter()
                    .map(|p| {
                        (
                            p.node,
                            Time::from_secs_f64(p.at_secs),
                            Time::from_secs_f64(p.at_secs + p.duration_secs),
                            p.slowdown,
                        )
                    })
                    .collect(),
            });
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Current virtual time (time of the last processed event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn push(&mut self, at: Time, ev: Ev) {
        self.heap_seq += 1;
        assert!(
            self.heap_seq >> (64 - SLOT_BITS) == 0,
            "event sequence overflow"
        );
        let slot = match self.free_events.pop() {
            Some(slot) => {
                self.events[slot as usize] = ev;
                slot as u64
            }
            None => {
                assert!(self.events.len() < 1 << SLOT_BITS, "event slab full");
                self.events.push(ev);
                self.events.len() as u64 - 1
            }
        };
        let entry = Reverse((at, self.heap_seq << SLOT_BITS | slot));
        if std::mem::take(&mut self.top_handled) {
            if let Some(mut top) = self.heap.peek_mut() {
                *top = entry;
                return;
            }
        }
        self.heap.push(entry);
    }

    fn jitter(&mut self) -> Dur {
        let mean = self.cfg.jitter_mean.as_nanos();
        if mean == 0 {
            return Dur::ZERO;
        }
        let u: f64 = self.rng.gen::<f64>().max(f64::MIN_POSITIVE);
        Dur::from_nanos((-(u.ln()) * mean as f64) as u64)
    }

    fn new_transfer(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        background: bool,
    ) -> TransferId {
        let nframes = self.cfg.frames_for(bytes);
        TransferId(self.transfers.insert(Transfer {
            src,
            dst,
            bytes,
            nframes,
            wire_full: self.cfg.frame_wire_bytes(bytes, 0),
            wire_last: self.cfg.frame_wire_bytes(bytes, nframes - 1),
            next_expected: 0,
            epoch: 0,
            retx_armed: false,
            rto: self.cfg.rto_base,
            retransmissions: 0,
            paced: false,
            src_switch: self.cfg.switch_of(src),
            dst_switch: self.cfg.switch_of(dst),
            background,
        }))
    }

    /// Begin moving `bytes` from `src` to `dst` at virtual time `at`
    /// (must not be earlier than the engine's current time).
    pub fn start_transfer(&mut self, at: Time, src: NodeId, dst: NodeId, bytes: u64) -> TransferId {
        assert!(
            src < self.cfg.nodes && dst < self.cfg.nodes,
            "node out of range"
        );
        assert!(at >= self.now, "cannot start a transfer in the past");
        let tid = self.new_transfer(src, dst, bytes, false);

        if src == dst {
            // Intra-node: shared-memory copy, no network resources.
            let t = at
                + self.cfg.send_overhead
                + self.cfg.local_latency
                + wire_time(bytes, self.cfg.local_bw_bps)
                + self.cfg.recv_overhead;
            self.push(t, Ev::LocalDeliver { tid });
            return tid;
        }

        self.inject_frames(tid, at + self.cfg.send_overhead, 0, 0);
        tid
    }

    /// Inject a fault-plan background burst: moves through the same queue
    /// servers as user traffic, retransmits on drops, but never surfaces
    /// a [`Completion`].
    fn start_background_transfer(&mut self, at: Time, src: NodeId, dst: NodeId, bytes: u64) {
        let tid = self.new_transfer(src, dst, bytes, true);
        self.stats.faults_background_transfers += 1;
        self.fault_events.push(FaultEvent {
            at,
            node: src,
            kind: FaultKind::BackgroundStart,
        });
        self.inject_frames(tid, at + self.cfg.send_overhead, 0, 0);
    }

    /// Queue frames `from_seq..nframes` of a transfer for injection at the
    /// sender, starting at `at`. Clean transfers are paced by the per-frame
    /// CPU overhead; transfers recovering from a loss are paced at a
    /// fraction of the link rate (congestion avoidance stand-in).
    fn inject_frames(&mut self, tid: TransferId, at: Time, from_seq: u64, epoch: u32) {
        let tr = &self.transfers[tid.0];
        let nframes = tr.nframes;
        let pace = if tr.paced {
            let wire = crate::time::wire_time(
                self.cfg.mtu + self.cfg.frame_overhead,
                self.cfg.link_bw_bps,
            );
            Dur::from_nanos(wire.as_nanos() * self.cfg.retx_pace_factor)
                .max(self.cfg.per_frame_overhead)
        } else {
            self.cfg.per_frame_overhead
        };
        let mut t = at;
        for seq in from_seq..nframes {
            t += pace;
            self.push(
                t,
                Ev::Arrive {
                    tid,
                    seq,
                    epoch,
                    hop_idx: 0,
                },
            );
        }
    }

    /// The hop sequence for a transfer's frames.
    ///
    /// Intra-switch: NIC → fabric → port → deliver.
    /// Inter-switch: NIC → fabric(src) → trunk(src) → fabric(dst) → port →
    /// deliver.
    fn hop(tr: &Transfer, hop_idx: u8) -> Hop {
        match (hop_idx, tr.src_switch != tr.dst_switch) {
            (0, _) => Hop::Nic(tr.src),
            (1, _) => Hop::Fabric(tr.src_switch),
            (2, false) => Hop::Port(tr.dst),
            (3, false) => Hop::Deliver,
            (2, true) => Hop::Trunk,
            (3, true) => Hop::Fabric(tr.dst_switch),
            (4, true) => Hop::Port(tr.dst),
            (5, true) => Hop::Deliver,
            _ => unreachable!("hop index out of range"),
        }
    }

    /// Earliest pending event time, if any work remains.
    pub fn next_event_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse((t, _))| *t)
    }

    /// The event loop: handle events in `(time, seq)` order, none later
    /// than `limit`, and stop at the first event time that completes a
    /// transfer, once every event at that time (those it scheduled
    /// included) is handled. Returns `true` with that time's completions
    /// appended to `out`, in completion order; `false`, with `out`
    /// untouched, once the next event lies beyond `limit` or none is left.
    /// [`Network::now`] is the time of the last event handled.
    ///
    /// A caller reacting to completions (starting transfers at their
    /// delivery times, say) calls it again after each `true`: nothing it
    /// reacts to has been overtaken by a later event.
    pub fn advance(&mut self, limit: Time, out: &mut Vec<Completion>) -> bool {
        while let Some(&Reverse((at, key))) = self.heap.peek() {
            if at > limit || (at > self.now && !self.completions.is_empty()) {
                break;
            }
            self.now = at;
            self.stats.events_processed += 1;
            let slot = (key & SLOT_MASK) as usize;
            self.free_events.push(slot as u32);
            self.top_handled = true;
            self.handle(at, self.events[slot]);
            if std::mem::take(&mut self.top_handled) {
                self.heap.pop();
            }
        }
        if self.completions.is_empty() {
            return false;
        }
        out.append(&mut self.completions);
        true
    }

    /// Process all events up to and including virtual time `t`, and move
    /// [`Network::now`] to `t`. Returns the transfers that completed
    /// during this window, in completion order.
    pub fn advance_until(&mut self, t: Time) -> Vec<Completion> {
        let mut out = Vec::new();
        while self.advance(t, &mut out) {}
        self.now = self.now.max(t);
        out
    }

    /// Drain every pending event. Returns all completions.
    pub fn run_to_completion(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        while self.advance(Time::MAX, &mut out) {}
        out
    }

    fn handle(&mut self, now: Time, ev: Ev) {
        match ev {
            Ev::LocalDeliver { tid } => self.complete(tid, now),
            Ev::Retransmit { tid, epoch, fast } => {
                let live = self.transfers.get_mut(tid.0);
                let Some(tr) = live.filter(|tr| tr.epoch == epoch) else {
                    return; // stale timer: superseded epoch or finished transfer
                };
                tr.epoch += 1;
                tr.retx_armed = false;
                tr.retransmissions += 1;
                tr.paced = true;
                if !fast {
                    // Only full timeouts escalate the RTO.
                    tr.rto =
                        Dur::from_nanos((tr.rto.as_nanos() * 2).min(self.cfg.rto_max.as_nanos()));
                }
                self.stats.retransmissions += 1;
                let (from_seq, epoch) = (tr.next_expected, tr.epoch);
                self.inject_frames(tid, now, from_seq, epoch);
            }
            Ev::Arrive {
                tid,
                seq,
                epoch,
                hop_idx,
            } => {
                let live = self.transfers.get_mut(tid.0);
                let Some(tr) = live.filter(|tr| tr.epoch == epoch) else {
                    return; // stale frame: superseded epoch or finished transfer
                };
                let src = tr.src;
                match Self::hop(tr, hop_idx) {
                    Hop::Deliver => {
                        if seq == tr.next_expected {
                            tr.next_expected += 1;
                            if tr.next_expected == tr.nframes {
                                let done = now + self.cfg.recv_overhead;
                                self.complete(tid, done);
                            }
                        }
                        // Out-of-order frames (after a drop) are discarded:
                        // go-back-N will resend them.
                    }
                    hop => {
                        let mut wire = tr.frame_wire_bytes(seq);
                        // Injected faults: every check below is gated on an
                        // active plan, so the no-fault path is untouched
                        // (same branches, same RNG draws).
                        if self.faults.is_some() {
                            if let Hop::Nic(n) | Hop::Port(n) = hop {
                                let down =
                                    self.faults.as_ref().is_some_and(|f| f.flap_active(n, now));
                                if down {
                                    self.stats.faults_flap_drops += 1;
                                    self.fault_events.push(FaultEvent {
                                        at: now,
                                        node: n,
                                        kind: FaultKind::FlapDrop,
                                    });
                                    self.frame_dropped(now, tid, seq);
                                    return;
                                }
                            }
                            if let Hop::Nic(n) = hop {
                                let pause = self.faults.as_ref().and_then(|f| f.pause_at(n, now));
                                if let Some((window_end, slowdown)) = pause {
                                    self.stats.faults_paused_frames += 1;
                                    self.fault_events.push(FaultEvent {
                                        at: now,
                                        node: n,
                                        kind: FaultKind::Paused,
                                    });
                                    if slowdown == 0.0 {
                                        // Full pause: re-arrive when the
                                        // window closes.
                                        self.push(
                                            window_end,
                                            Ev::Arrive {
                                                tid,
                                                seq,
                                                epoch,
                                                hop_idx,
                                            },
                                        );
                                        return;
                                    }
                                    // Slowdown: the NIC serves this frame
                                    // `slowdown ×` slower.
                                    wire = (wire as f64 * slowdown) as u64;
                                }
                            }
                        }
                        let jit = self.jitter();
                        let (accepted, droppable) = match hop {
                            Hop::Nic(n) => (self.nic[n].accept(now, wire, jit), false),
                            Hop::Fabric(s) => (self.fabric[s].accept(now, wire, jit), true),
                            Hop::Trunk => {
                                let backlog = self.trunk.backlog_bytes(now);
                                let accepted = self.trunk.accept(now, wire, jit);
                                if accepted.is_some() {
                                    self.stats.trunk_bytes += wire;
                                    self.stats.trunk_peak_backlog =
                                        self.stats.trunk_peak_backlog.max(backlog + wire);
                                }
                                (accepted, true)
                            }
                            Hop::Port(n) => (self.port[n].accept(now, wire, jit), true),
                            Hop::Deliver => unreachable!(),
                        };
                        match accepted {
                            Some(done) => {
                                if hop_idx == 0 {
                                    self.stats.frames_sent += 1;
                                    // Injected per-frame loss: the frame
                                    // occupied the NIC (it was transmitted)
                                    // but never reaches the next hop. The
                                    // RNG is only consulted when the plan
                                    // sets a positive probability.
                                    let loss = self.faults.as_ref().map_or(0.0, |f| f.loss_prob);
                                    if loss > 0.0 && self.rng.gen::<f64>() < loss {
                                        self.stats.faults_injected_losses += 1;
                                        self.fault_events.push(FaultEvent {
                                            at: now,
                                            node: src,
                                            kind: FaultKind::InjectedLoss,
                                        });
                                        self.frame_dropped(now, tid, seq);
                                        return;
                                    }
                                }
                                self.push(
                                    done + self.cfg.hop_latency,
                                    Ev::Arrive {
                                        tid,
                                        seq,
                                        epoch,
                                        hop_idx: hop_idx + 1,
                                    },
                                );
                            }
                            None => {
                                debug_assert!(droppable);
                                self.frame_dropped(now, tid, seq);
                            }
                        }
                    }
                }
            }
        }
    }

    /// A frame of `tid` was lost (buffer overflow or injected fault):
    /// count the drop and arm go-back-N recovery — fast retransmit when
    /// enough successor frames can raise duplicate ACKs, otherwise the
    /// full RTO, both jittered to desynchronise flows that dropped
    /// together the way per-connection TCP timers would.
    fn frame_dropped(&mut self, now: Time, tid: TransferId, seq: u64) {
        self.stats.frames_dropped += 1;
        let jfrac: f64 = if self.cfg.rto_jitter > 0.0 {
            self.rng.gen::<f64>() * self.cfg.rto_jitter
        } else {
            0.0
        };
        let fast_delay = self.cfg.fast_retx_delay;
        let t = &mut self.transfers[tid.0];
        if !t.retx_armed {
            t.retx_armed = true;
            // Fast retransmit needs >= 3 successor frames to trigger
            // duplicate ACKs; a tail loss must wait out the RTO.
            let fast = seq + 3 < t.nframes;
            let delay = if fast {
                Dur::from_nanos((fast_delay.as_nanos() as f64 * (1.0 + jfrac)) as u64)
            } else {
                Dur::from_nanos((t.rto.as_nanos() as f64 * (1.0 + jfrac)) as u64)
            };
            let ep = t.epoch;
            self.push(
                now + delay,
                Ev::Retransmit {
                    tid,
                    epoch: ep,
                    fast,
                },
            );
        }
    }

    fn complete(&mut self, tid: TransferId, at: Time) {
        // Frames and timers of this transfer still in the heap keep its key
        // and find nothing when they fire.
        let Some(tr) = self.transfers.remove(tid.0) else {
            debug_assert!(false, "transfer completed twice");
            return;
        };
        if tr.background {
            // Fault-plan cross-traffic is invisible to the protocol layer:
            // no Completion, no goodput accounting.
            return;
        }
        self.stats.transfers_completed += 1;
        self.stats.bytes_delivered += tr.bytes;
        self.completions.push(Completion {
            id: tid,
            delivered_at: at,
            retransmissions: tr.retransmissions,
        });
    }

    /// Whether the given transfer has been delivered.
    pub fn is_completed(&self, tid: TransferId) -> bool {
        !self.transfers.contains(tid.0)
    }

    /// Size of the transfer table: the most transfers that were ever in
    /// flight at once.
    pub fn transfer_slots(&self) -> usize {
        self.transfers.slots()
    }

    /// Injected-fault occurrences so far (empty without an active plan).
    pub fn fault_events(&self) -> &[FaultEvent] {
        &self.fault_events
    }

    /// Drain the recorded injected-fault occurrences.
    pub fn take_fault_events(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.fault_events)
    }
}

#[cfg(test)]
mod tests;
