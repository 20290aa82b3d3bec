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
}

impl Server {
    fn new(rate_bps: u64, buffer_bytes: u64) -> Self {
        Server {
            free_at: Time::ZERO,
            rate_bps,
            buffer_bytes,
        }
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
        let done = start + wire_time(wire_bytes, self.rate_bps);
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
    /// Whether the frame path crosses switches (has a trunk hop).
    inter_switch: bool,
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
    heap: BinaryHeap<Reverse<(Time, u64, HeapEv)>>,
    heap_seq: u64,
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

/// Heap payload; ordering is (time, insertion sequence) so ties are broken
/// deterministically. `HeapEv` itself needs `Ord` for the tuple but its
/// ordering never decides (seq is unique).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapEv {
    kind: u8,
    tid: u64,
    seq: u64,
    epoch: u32,
    hop_idx: u8,
}

impl HeapEv {
    fn pack(ev: Ev) -> Self {
        match ev {
            Ev::Arrive {
                tid,
                seq,
                epoch,
                hop_idx,
            } => HeapEv {
                kind: 0,
                tid: tid.0,
                seq,
                epoch,
                hop_idx,
            },
            Ev::Retransmit { tid, epoch, fast } => HeapEv {
                kind: 1,
                tid: tid.0,
                seq: fast as u64,
                epoch,
                hop_idx: 0,
            },
            Ev::LocalDeliver { tid } => HeapEv {
                kind: 2,
                tid: tid.0,
                seq: 0,
                epoch: 0,
                hop_idx: 0,
            },
        }
    }

    fn unpack(self) -> Ev {
        match self.kind {
            0 => Ev::Arrive {
                tid: TransferId(self.tid),
                seq: self.seq,
                epoch: self.epoch,
                hop_idx: self.hop_idx,
            },
            1 => Ev::Retransmit {
                tid: TransferId(self.tid),
                epoch: self.epoch,
                fast: self.seq != 0,
            },
            _ => Ev::LocalDeliver {
                tid: TransferId(self.tid),
            },
        }
    }
}

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
            let scale = |rate: u64| ((rate as f64 * d.rate_factor) as u64).max(1);
            self.nic[d.node].rate_bps = scale(self.nic[d.node].rate_bps);
            self.port[d.node].rate_bps = scale(self.port[d.node].rate_bps);
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
        let entry = Reverse((at, self.heap_seq, HeapEv::pack(ev)));
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
            inter_switch: self.cfg.switch_of(src) != self.cfg.switch_of(dst),
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
    fn hop(cfg: &ClusterConfig, tr: &Transfer, hop_idx: u8) -> Hop {
        match (hop_idx, tr.inter_switch) {
            (0, _) => Hop::Nic(tr.src),
            (1, _) => Hop::Fabric(cfg.switch_of(tr.src)),
            (2, false) => Hop::Port(tr.dst),
            (3, false) => Hop::Deliver,
            (2, true) => Hop::Trunk,
            (3, true) => Hop::Fabric(cfg.switch_of(tr.dst)),
            (4, true) => Hop::Port(tr.dst),
            (5, true) => Hop::Deliver,
            _ => unreachable!("hop index out of range"),
        }
    }

    /// Earliest pending event time, if any work remains.
    pub fn next_event_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Process all events up to and including virtual time `t`. Returns the
    /// transfers that completed during this window, in completion order.
    pub fn advance_until(&mut self, t: Time) -> Vec<Completion> {
        let mut out = Vec::new();
        self.advance_into(t, &mut out);
        out
    }

    /// [`Network::advance_until`] appending to a buffer the caller keeps,
    /// for event loops that advance once per event time.
    pub fn advance_into(&mut self, t: Time, out: &mut Vec<Completion>) {
        while let Some(&Reverse((et, _, hev))) = self.heap.peek() {
            if et > t {
                break;
            }
            self.now = et;
            self.stats.events_processed += 1;
            self.top_handled = true;
            self.handle(et, hev.unpack());
            if std::mem::take(&mut self.top_handled) {
                self.heap.pop();
            }
        }
        self.now = self.now.max(t);
        out.append(&mut self.completions);
    }

    /// Drain every pending event. Returns all completions.
    pub fn run_to_completion(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(t) = self.next_event_time() {
            self.advance_into(t, &mut out);
        }
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
                match Self::hop(&self.cfg, tr, hop_idx) {
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
mod tests {
    use super::*;

    fn ideal(nodes: usize) -> Network {
        Network::new(ClusterConfig::ideal(nodes), 1)
    }

    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4_000))]

        /// `accept`'s division-free overflow test is the division one: on
        /// an idle server (`mode` 0) and a busy one (2), against buffers
        /// within two bytes of the boundary (`wire > buffer` among them);
        /// (1) against buffers drawn at random; (3) as (2) with the backlog
        /// a whole number of bytes, so `backlog_ns × rate` lands exactly on
        /// a byte boundary.
        #[test]
        fn accept_overflows_exactly_when_backlog_plus_wire_exceeds_buffer(
            backlog_ns in 0u64..10_000_000_000,
            rate_kbps in 1u64..40_000_000,
            wire in 0u64..20_000,
            near in 0u64..5,
            far in 0u64..200_000,
            mode in 0u8..4,
        ) {
            let rate_bps = rate_kbps * 1_000;
            let whole_byte_ns = 8_000_000_000 / gcd(rate_bps, 8_000_000_000);
            let now = Time(1_000);
            let free_at = match mode {
                0 => Time::ZERO,
                3 => now + Dur::from_nanos(backlog_ns / whole_byte_ns * whole_byte_ns),
                _ => now + Dur::from_nanos(backlog_ns),
            };
            let mut server = Server { free_at, rate_bps, buffer_bytes: 0 };
            let exact = server.backlog_bytes(now) + wire;
            server.buffer_bytes = if mode == 1 { far } else { (exact + near).saturating_sub(2) };
            let overflow = server.backlog_bytes(now) + wire > server.buffer_bytes;
            proptest::prop_assert_eq!(server.accept(now, wire, Dur::ZERO).is_none(), overflow);
        }
    }

    #[test]
    fn stored_frame_wire_bytes_match_the_config() {
        let mut net = Network::new(ClusterConfig::perseus(2), 1);
        for bytes in [0, 1, 26, 1_499, 1_500, 1_501, 3_000, 65_536] {
            let tid = net.new_transfer(0, 1, bytes, false);
            let tr = net.transfers[tid.0];
            for seq in 0..tr.nframes {
                let want = net.cfg.frame_wire_bytes(bytes, seq);
                assert_eq!(tr.frame_wire_bytes(seq), want, "{bytes} B, frame {seq}");
            }
        }
    }

    #[test]
    fn single_small_transfer_takes_wire_time() {
        let mut net = ideal(2);
        let tid = net.start_transfer(Time::ZERO, 0, 1, 100);
        let done = net.run_to_completion();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, tid);
        assert_eq!(done[0].retransmissions, 0);
        // One 138-wire-byte frame (100B payload + 38 overhead) over NIC,
        // switch fabric and port.
        let expect =
            2 * wire_time(138, 100_000_000).as_nanos() + wire_time(138, 2_100_000_000).as_nanos();
        assert_eq!(done[0].delivered_at.as_nanos(), expect);
    }

    #[test]
    fn zero_byte_message_still_costs_a_frame() {
        let mut net = ideal(2);
        net.start_transfer(Time::ZERO, 0, 1, 0);
        let done = net.run_to_completion();
        assert_eq!(done.len(), 1);
        assert!(done[0].delivered_at > Time::ZERO);
    }

    #[test]
    fn large_transfer_pipelines_frames() {
        let mut net = ideal(2);
        // 15000 B = 10 frames. Pipelined store-and-forward: NIC serialises
        // 10 frames back-to-back; the port finishes one frame behind.
        net.start_transfer(Time::ZERO, 0, 1, 15_000);
        let done = net.run_to_completion();
        let frame = wire_time(1538, 100_000_000).as_nanos();
        let fab = wire_time(1538, 2_100_000_000).as_nanos();
        // NIC serialises 10 frames back-to-back; the fast fabric adds one
        // frame-time; the port finishes one frame behind the NIC.
        let expect = 10 * frame + fab + frame;
        assert_eq!(done[0].delivered_at.as_nanos(), expect);
    }

    #[test]
    fn intra_node_transfer_bypasses_network() {
        let mut net = ideal(4);
        net.start_transfer(Time::ZERO, 2, 2, 1_000_000);
        let done = net.run_to_completion();
        assert_eq!(done.len(), 1);
        assert_eq!(
            done[0].delivered_at.as_nanos(),
            wire_time(1_000_000, 1_200_000_000).as_nanos()
        );
        assert_eq!(net.stats().frames_sent, 0);
    }

    #[test]
    fn nic_is_shared_between_concurrent_sends_from_same_node() {
        let mut net = ideal(3);
        // Two messages leave node 0 at the same instant to different dests.
        net.start_transfer(Time::ZERO, 0, 1, 1_500);
        net.start_transfer(Time::ZERO, 0, 2, 1_500);
        let done = net.run_to_completion();
        let frame = wire_time(1538, 100_000_000).as_nanos();
        let fab = wire_time(1538, 2_100_000_000).as_nanos();
        let times: Vec<u64> = done.iter().map(|c| c.delivered_at.as_nanos()).collect();
        // First message: NIC + fabric + port. Second: waits one frame at
        // the NIC (the fabric drains faster than the NIC feeds it).
        assert_eq!(times[0], 2 * frame + fab);
        assert_eq!(times[1], 3 * frame + fab);
    }

    #[test]
    fn incast_contends_at_destination_port() {
        let mut net = ideal(3);
        // Nodes 1 and 2 send to node 0 simultaneously: port 0 serialises.
        net.start_transfer(Time::ZERO, 1, 0, 1_500);
        net.start_transfer(Time::ZERO, 2, 0, 1_500);
        let done = net.run_to_completion();
        let frame = wire_time(1538, 100_000_000).as_nanos();
        let fab = wire_time(1538, 2_100_000_000).as_nanos();
        let mut times: Vec<u64> = done.iter().map(|c| c.delivered_at.as_nanos()).collect();
        times.sort_unstable();
        // Both arrive at the fabric together; the second queues a full port
        // frame-time behind the first (its extra fabric wait is absorbed
        // into the port queueing).
        assert_eq!(times[0], 2 * frame + fab);
        assert_eq!(times[1], 3 * frame + fab);
    }

    #[test]
    fn inter_switch_path_has_trunk_hop() {
        let mut cfg = ClusterConfig::ideal(4);
        cfg.switch_ports = 2; // nodes 0,1 on switch 0; nodes 2,3 on switch 1
        let mut net = Network::new(cfg, 1);
        net.start_transfer(Time::ZERO, 0, 2, 100);
        let done = net.run_to_completion();
        let link = wire_time(138, 100_000_000).as_nanos();
        let trunk = wire_time(138, 2_100_000_000).as_nanos();
        // NIC + src fabric + trunk + dst fabric + port (fabric and trunk
        // run at the same 2.1 Gbit/s rate here).
        assert_eq!(done[0].delivered_at.as_nanos(), 2 * link + 3 * trunk);
    }

    #[test]
    fn drops_trigger_rto_and_recovery() {
        let mut cfg = ClusterConfig::ideal(3);
        cfg.port_buffer_bytes = 2_000; // room for ~1 frame
        let mut net = Network::new(cfg, 1);
        // Two senders blast 10 frames each at node 0: the port must drop.
        net.start_transfer(Time::ZERO, 1, 0, 15_000);
        net.start_transfer(Time::ZERO, 2, 0, 15_000);
        let done = net.run_to_completion();
        assert_eq!(done.len(), 2, "both transfers must eventually complete");
        assert!(net.stats().frames_dropped > 0, "expected drops");
        assert!(net.stats().retransmissions > 0, "expected retransmissions");
        // Recovery (fast retransmit at best) delays at least one transfer
        // well past the clean pipeline time of ~1.4 ms.
        assert!(done
            .iter()
            .any(|c| c.delivered_at >= Time::from_secs_f64(0.003)));
        assert!(done.iter().any(|c| c.retransmissions > 0));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut net = Network::new(ClusterConfig::perseus(8), seed);
            for i in 0..4usize {
                net.start_transfer(Time::ZERO, i, i + 4, 4_096);
            }
            let mut done = net.run_to_completion();
            done.sort_by_key(|c| c.id);
            done.iter()
                .map(|c| c.delivered_at.as_nanos())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(
            run(7),
            run(8),
            "different seeds should differ with jitter on"
        );
    }

    #[test]
    fn jitter_broadens_but_never_shrinks_minimum() {
        let base = {
            let mut net = ideal(2);
            net.start_transfer(Time::ZERO, 0, 1, 1_024);
            net.run_to_completion()[0].delivered_at
        };
        for seed in 0..20 {
            let mut cfg = ClusterConfig::ideal(2);
            cfg.jitter_mean = Dur::from_micros(5);
            let mut net = Network::new(cfg, seed);
            net.start_transfer(Time::ZERO, 0, 1, 1_024);
            let t = net.run_to_completion()[0].delivered_at;
            assert!(
                t >= base,
                "jittered time {t} below contention-free minimum {base}"
            );
        }
    }

    #[test]
    fn advance_until_respects_time_boundary() {
        let mut net = ideal(2);
        net.start_transfer(Time::ZERO, 0, 1, 100);
        let nothing = net.advance_until(Time(1));
        assert!(nothing.is_empty());
        let all = net.advance_until(Time(1_000_000_000));
        assert_eq!(all.len(), 1);
        assert_eq!(net.now(), Time(1_000_000_000));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn starting_in_the_past_panics() {
        let mut net = ideal(2);
        net.start_transfer(Time::ZERO, 0, 1, 100);
        net.run_to_completion();
        net.start_transfer(Time::ZERO, 1, 0, 100);
    }

    #[test]
    fn stats_account_for_traffic() {
        let mut net = ideal(2);
        net.start_transfer(Time::ZERO, 0, 1, 4_500); // 3 frames
        net.run_to_completion();
        let s = net.stats();
        assert_eq!(s.frames_sent, 3);
        assert_eq!(s.transfers_completed, 1);
        assert_eq!(s.bytes_delivered, 4_500);
        assert_eq!(s.frames_dropped, 0);
    }

    #[test]
    fn trunk_stats_track_backplane_traffic() {
        let mut cfg = ClusterConfig::ideal(4);
        cfg.switch_ports = 2; // nodes {0,1} and {2,3} on separate switches
        let mut net = Network::new(cfg, 1);
        net.start_transfer(Time::ZERO, 0, 2, 3_000); // crosses: 2 frames
        net.start_transfer(Time::ZERO, 0, 1, 3_000); // same switch: no trunk
        net.run_to_completion();
        let s = net.stats();
        assert_eq!(s.trunk_bytes, 2 * 1538);
        assert!(s.trunk_peak_backlog >= 1538);
        assert!(s.trunk_peak_backlog <= 2 * 1538);
    }

    #[test]
    fn injected_loss_drops_frames_but_transfers_recover() {
        let mut cfg = ClusterConfig::ideal(4);
        cfg.faults = Some(crate::faults::FaultPlan {
            loss_prob: 0.2,
            ..Default::default()
        });
        let mut net = Network::new(cfg, 3);
        for i in 0..3usize {
            net.start_transfer(Time::ZERO, i, 3, 15_000);
        }
        let done = net.run_to_completion();
        assert_eq!(done.len(), 3, "all transfers must complete despite loss");
        let s = net.stats();
        assert!(s.faults_injected_losses > 0, "expected injected losses");
        assert_eq!(s.frames_dropped, s.faults_injected_losses);
        assert!(s.retransmissions > 0);
        assert!(net
            .fault_events()
            .iter()
            .any(|e| e.kind == crate::faults::FaultKind::InjectedLoss));
    }

    #[test]
    fn degraded_link_slows_delivery_proportionally() {
        let clean = {
            let mut net = ideal(2);
            net.start_transfer(Time::ZERO, 0, 1, 15_000);
            net.run_to_completion()[0].delivered_at.as_nanos()
        };
        let mut cfg = ClusterConfig::ideal(2);
        cfg.faults = Some(crate::faults::FaultPlan {
            degrade: vec![crate::faults::LinkDegrade {
                node: 0,
                rate_factor: 0.5,
            }],
            ..Default::default()
        });
        let mut net = Network::new(cfg, 1);
        net.start_transfer(Time::ZERO, 0, 1, 15_000);
        let slow = net.run_to_completion()[0].delivered_at.as_nanos();
        // The sender NIC at half rate roughly doubles the serialisation
        // time that dominates this pipeline.
        assert!(
            slow > clean * 18 / 10,
            "half-rate link should ~double delivery: clean={clean} slow={slow}"
        );
    }

    #[test]
    fn link_flap_window_loses_frames_then_recovers() {
        let mut cfg = ClusterConfig::ideal(2);
        cfg.faults = Some(crate::faults::FaultPlan {
            flaps: vec![crate::faults::LinkFlap {
                node: 0,
                from_secs: 0.0,
                to_secs: 0.005,
            }],
            ..Default::default()
        });
        let mut net = Network::new(cfg, 1);
        net.start_transfer(Time::ZERO, 0, 1, 1_000);
        let done = net.run_to_completion();
        assert_eq!(done.len(), 1);
        assert!(net.stats().faults_flap_drops > 0);
        // Delivery can only happen after the link comes back up.
        assert!(done[0].delivered_at >= Time::from_secs_f64(0.005));
    }

    #[test]
    fn background_traffic_contends_but_is_invisible() {
        let quiet = {
            let mut net = ideal(3);
            net.start_transfer(Time::ZERO, 1, 0, 15_000);
            net.run_to_completion()[0].delivered_at.as_nanos()
        };
        let mut cfg = ClusterConfig::ideal(3);
        cfg.faults = Some(crate::faults::FaultPlan {
            background: vec![crate::faults::Background {
                src: 2,
                dst: 0,
                bytes: 15_000,
                start_secs: 0.0,
                period_secs: 0.001,
                count: 4,
            }],
            ..Default::default()
        });
        let mut net = Network::new(cfg, 1);
        let tid = net.start_transfer(Time::ZERO, 1, 0, 15_000);
        let done = net.run_to_completion();
        // Only the user transfer surfaces; the bursts contend at port 0.
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, tid);
        assert_eq!(net.stats().faults_background_transfers, 4);
        assert_eq!(net.stats().transfers_completed, 1);
        assert!(
            done[0].delivered_at.as_nanos() > quiet,
            "cross-traffic should delay the user transfer"
        );
    }

    #[test]
    fn pause_defers_and_slowdown_stretches() {
        let clean = {
            let mut net = ideal(2);
            net.start_transfer(Time::ZERO, 0, 1, 1_000);
            net.run_to_completion()[0].delivered_at
        };
        let paused = {
            let mut cfg = ClusterConfig::ideal(2);
            cfg.faults = Some(crate::faults::FaultPlan {
                pauses: vec![crate::faults::Pause {
                    node: 0,
                    at_secs: 0.0,
                    duration_secs: 0.01,
                    slowdown: 0.0,
                }],
                ..Default::default()
            });
            let mut net = Network::new(cfg, 1);
            net.start_transfer(Time::ZERO, 0, 1, 1_000);
            let done = net.run_to_completion();
            assert!(net.stats().faults_paused_frames > 0);
            done[0].delivered_at
        };
        assert!(paused >= Time::from_secs_f64(0.01));
        let slowed = {
            let mut cfg = ClusterConfig::ideal(2);
            cfg.faults = Some(crate::faults::FaultPlan {
                pauses: vec![crate::faults::Pause {
                    node: 0,
                    at_secs: 0.0,
                    duration_secs: 0.01,
                    slowdown: 4.0,
                }],
                ..Default::default()
            });
            let mut net = Network::new(cfg, 1);
            net.start_transfer(Time::ZERO, 0, 1, 1_000);
            net.run_to_completion()[0].delivered_at
        };
        assert!(slowed > clean && slowed < paused);
    }

    #[test]
    fn faulted_runs_are_deterministic_given_seed() {
        let run = |seed: u64| {
            let mut cfg = ClusterConfig::perseus(8);
            cfg.faults = Some(crate::faults::FaultPlan {
                loss_prob: 0.05,
                ..Default::default()
            });
            let mut net = Network::new(cfg, seed);
            for i in 0..4usize {
                net.start_transfer(Time::ZERO, i, i + 4, 16_384);
            }
            let mut done = net.run_to_completion();
            done.sort_by_key(|c| c.id);
            done.iter()
                .map(|c| c.delivered_at.as_nanos())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn stale_events_miss_the_slots_next_tenant() {
        // Control: one 10-frame transfer on an otherwise idle network.
        let control = {
            let mut net = ideal(2);
            net.start_transfer(Time::ZERO, 0, 1, 15_000);
            let done = net.run_to_completion();
            (done[0].delivered_at, net.stats().events_processed)
        };

        let mut net = ideal(2);
        let old = net.start_transfer(Time::ZERO, 0, 1, 100);
        assert_eq!(net.run_to_completion().len(), 1);
        assert!(net.is_completed(old));
        let t0 = net.now();
        // What a lossy run leaves in the heap behind a finished transfer:
        // a frame on its way to the NIC and both kinds of timer. Taken for
        // the new tenant's, the frame would be sent and a timer would
        // start a retransmission round.
        let new = net.start_transfer(t0, 0, 1, 15_000);
        assert_eq!(new.slot(), old.slot(), "the entry is recycled");
        assert_ne!(new, old);
        let stale_at = t0 + Dur::from_micros(1);
        net.push(
            stale_at,
            Ev::Arrive {
                tid: old,
                seq: 0,
                epoch: 0,
                hop_idx: 0,
            },
        );
        for fast in [true, false] {
            net.push(
                stale_at,
                Ev::Retransmit {
                    tid: old,
                    epoch: 0,
                    fast,
                },
            );
        }
        let done = net.run_to_completion();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, new);
        assert_eq!(done[0].retransmissions, 0);
        assert_eq!(done[0].delivered_at.since(t0), control.0.since(Time::ZERO));
        assert_eq!(net.stats().retransmissions, 0);
        assert_eq!(net.stats().frames_sent, 1 + 10);
        // Ignored, but counted: one event for the first transfer's single
        // frame per hop (NIC, fabric, port, deliver), three stale ones.
        assert_eq!(net.stats().events_processed, control.1 + 4 + 3);
        assert!(net.is_completed(old) && net.is_completed(new));
        assert_eq!(net.transfer_slots(), 1);
    }

    #[test]
    fn finished_transfers_stay_completed_while_their_slot_is_reused() {
        let mut net = ideal(4);
        let first: Vec<TransferId> = (0..3)
            .map(|i| net.start_transfer(Time::ZERO, i, 3, 1_000))
            .collect();
        net.run_to_completion();
        let t = net.now();
        let second: Vec<TransferId> = (0..3).map(|i| net.start_transfer(t, i, 3, 1_000)).collect();
        for (a, b) in first.iter().zip(&second) {
            assert!(net.is_completed(*a), "{a:?} forgot it completed");
            assert!(!net.is_completed(*b), "{b:?} inherited a completion");
        }
        net.run_to_completion();
        assert!(second.iter().all(|&id| net.is_completed(id)));
        assert_eq!(net.transfer_slots(), 3);
    }

    #[test]
    fn transfer_table_is_bounded_by_transfers_in_flight() {
        let mut net = Network::new(ClusterConfig::perseus(8), 9);
        for i in 0..8usize {
            net.start_transfer(Time::ZERO, i, (i + 1) % 8, 2_000);
        }
        let mut started = 8;
        while let Some(t) = net.next_event_time() {
            for c in net.advance_until(t) {
                if started < 10_000 {
                    let src = started % 8;
                    net.start_transfer(c.delivered_at, src, (src + 3) % 8, 2_000);
                    started += 1;
                }
            }
        }
        assert_eq!(net.stats().transfers_completed, 10_000);
        assert!(net.transfer_slots() <= 8, "{} slots", net.transfer_slots());
    }

    #[test]
    fn trunk_saturation_slows_cross_switch_flows() {
        // 24 concurrent cross-switch flows of large messages should see
        // worse per-flow times than a single flow does, because the trunk
        // (2.1 Gbit/s) cannot carry 24 × ~84 Mbit/s for free... but a single
        // flow is untouched. This is the Figure 4 mechanism in miniature.
        let mut cfg = ClusterConfig::perseus(48);
        cfg.jitter_mean = Dur::ZERO;
        let solo = {
            let mut net = Network::new(cfg.clone(), 1);
            net.start_transfer(Time::ZERO, 0, 24, 65_536);
            net.run_to_completion()[0].delivered_at.as_nanos()
        };
        let crowd = {
            let mut net = Network::new(cfg, 1);
            for i in 0..24usize {
                net.start_transfer(Time::ZERO, i, 24 + i, 65_536);
            }
            let done = net.run_to_completion();
            done.iter()
                .map(|c| c.delivered_at.as_nanos())
                .max()
                .unwrap()
        };
        assert!(
            crowd > solo * 11 / 10,
            "expected trunk contention to slow the crowd: solo={solo} crowd={crowd}"
        );
    }
}
