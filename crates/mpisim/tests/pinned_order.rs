//! The schedule, pinned: a 16x2 world running every kind of MPI call must
//! reproduce — bit for bit — the virtual times, clocks, counters and
//! per-rank traces recorded before the scheduler was rewritten from an
//! engine thread to baton passing, and from that to `async` rank programs
//! on one thread. Totals alone would not notice two ranks swapping places
//! in the ready heap; the trace digest does.

use pevpm_mpisim::{
    Dur, FaultPlan, Proc, RunReport, SimError, SrcSel, TagSel, Time, TraceEvent, TraceKind, World,
    WorldConfig,
};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn kind_code(k: TraceKind) -> u64 {
    match k {
        TraceKind::Compute => 0,
        TraceKind::Send => 1,
        TraceKind::Isend => 2,
        TraceKind::Recv => 3,
        TraceKind::Irecv => 4,
        TraceKind::Wait => 5,
    }
}

fn trace_digest(traces: &[Vec<TraceEvent>]) -> u64 {
    let mut h = Fnv::new();
    for t in traces {
        h.word(t.len() as u64);
        for e in t {
            h.word(kind_code(e.kind));
            h.word(e.start.as_nanos());
            h.word(e.end.as_nanos());
            h.word(e.peer.map_or(u64::MAX, |p| p as u64));
            h.word(e.bytes);
            h.word(e.in_collective as u64);
        }
    }
    h.0
}

fn clock_digest(report: &RunReport) -> u64 {
    let mut h = Fnv::new();
    for c in &report.clocks {
        h.word(c.as_nanos());
    }
    h.0
}

/// Eager and rendezvous sizes, every nonblocking call, a wildcard gather,
/// compute and a barrier. Payload-carrying messages check that what
/// arrives is what was sent.
async fn mixed(rank: &mut Proc) {
    let (r, n) = (rank.rank(), rank.nranks());
    let (left, right) = ((r + n - 1) % n, (r + 1) % n);
    // Every rank comes out of this at the same instant and sends at once,
    // two to a NIC: who goes first is the ready heap's tie-break (ranks
    // meet on equal times nowhere else, jitter sees to that).
    rank.compute(Dur::from_micros(50)).await;
    rank.send_size(right, 7, 1_200).await;
    rank.recv(left, 7).await;
    for round in 0..6u64 {
        // Eager ring shift, nonblocking on both sides, polled once. Any
        // tag: nothing else from `left` is in flight here.
        let rq = rank.irecv(left, TagSel::Any);
        let sq = rank.isend(right, 1, vec![r as u8; 256 + 64 * round as usize]);
        rank.compute(Dur::from_micros(20 + 7 * (r as u64 % 5)))
            .await;
        let (meta, payload) = match rank.test(rq) {
            Some(done) => done.expect("receive request"),
            None => rank.wait(rq).await.expect("receive request"),
        };
        assert_eq!(meta.src, left);
        assert!(payload.iter().all(|&b| b == left as u8));
        assert!(rank.wait(sq).await.is_none());

        // Rendezvous pairwise exchange (isend + recv + wait).
        let partner = r ^ 1;
        let (meta, _) = rank
            .sendrecv_size(partner, 2, 40_000 + 1_000 * round, partner, 2)
            .await;
        assert_eq!(meta.src, partner);

        // Blocking rendezvous send across the machine.
        if r < n / 2 {
            rank.send_size(r + n / 2, 3, 64 * 1024).await;
        } else {
            rank.recv(r - n / 2, 3).await;
        }

        // Any-source gather at a rotating root (a fixed tag keeps the
        // barrier's own messages out of it).
        let root = (round as usize * 5) % n;
        if r == root {
            let mut seen = vec![false; n];
            for _ in 1..n {
                let (meta, _) = rank.recv(SrcSel::Any, 100).await;
                assert_eq!(meta.bytes, 96 + 8 * meta.src as u64);
                assert!(!std::mem::replace(&mut seen[meta.src], true));
            }
        } else {
            rank.send_size(root, 100, 96 + 8 * r as u64).await;
        }
        rank.barrier().await;
    }
}

/// Everything a report holds, on one line.
fn fingerprint(report: &RunReport) -> String {
    let traces = report.traces.as_ref().expect("tracing was on");
    let events: usize = traces.iter().map(Vec::len).sum();
    format!(
        "virtual_ns={} clocks={:#018x} messages={} trace_events={} traces={:#018x} net={:?}",
        report.virtual_time.as_nanos(),
        clock_digest(report),
        report.messages,
        events,
        trace_digest(traces),
        report.net_stats,
    )
}

fn run_mixed(seed: u64, loss_prob: f64) -> RunReport {
    let mut cfg = WorldConfig::perseus(16, 2, seed);
    cfg.record_trace = true;
    if loss_prob > 0.0 {
        cfg.cluster.faults = FaultPlan {
            loss_prob,
            ..Default::default()
        };
    }
    World::run_async(cfg, mixed).expect("mixed program runs")
}

/// Recorded at the last commit that ran the scheduler on an engine thread
/// (`(seed, frame loss, fingerprint)`); the lossy row takes the
/// retransmission path, where stale frames outlive their transfer.
const RECORDED: [(u64, f64, &str); 4] = [
    (
        5,
        0.0,
        "virtual_ns=76758449 clocks=0xb068d0e922ae1100 messages=1658 trace_events=4865 traces=0xba77db487f4a2a8d net=NetStats { frames_sent: 5572, frames_dropped: 0, retransmissions: 0, transfers_completed: 1850, bytes_delivered: 14623080, events_processed: 22694, trunk_bytes: 0, trunk_peak_backlog: 0, faults_injected_losses: 0, faults_flap_drops: 0, faults_paused_frames: 0, faults_background_transfers: 0 }",
    ),
    (
        17,
        0.0,
        "virtual_ns=76932873 clocks=0xa17246ed855b15d4 messages=1658 trace_events=4867 traces=0xd54f489fb43a5f03 net=NetStats { frames_sent: 5572, frames_dropped: 0, retransmissions: 0, transfers_completed: 1850, bytes_delivered: 14623080, events_processed: 22694, trunk_bytes: 0, trunk_peak_backlog: 0, faults_injected_losses: 0, faults_flap_drops: 0, faults_paused_frames: 0, faults_background_transfers: 0 }",
    ),
    (
        23,
        0.0,
        "virtual_ns=76903775 clocks=0xd7e37398953a7316 messages=1658 trace_events=4858 traces=0xc70d930bffc3b16f net=NetStats { frames_sent: 5572, frames_dropped: 0, retransmissions: 0, transfers_completed: 1850, bytes_delivered: 14623080, events_processed: 22694, trunk_bytes: 0, trunk_peak_backlog: 0, faults_injected_losses: 0, faults_flap_drops: 0, faults_paused_frames: 0, faults_background_transfers: 0 }",
    ),
    (
        5,
        0.02,
        "virtual_ns=2131969347 clocks=0xc7779dfc41c49fff messages=1658 trace_events=4845 traces=0xf0170f084b138eb7 net=NetStats { frames_sent: 8724, frames_dropped: 182, retransmissions: 136, transfers_completed: 1850, bytes_delivered: 14623080, events_processed: 29984, trunk_bytes: 0, trunk_peak_backlog: 0, faults_injected_losses: 182, faults_flap_drops: 0, faults_paused_frames: 0, faults_background_transfers: 0 }",
    ),
];

#[test]
fn mixed_program_reproduces_the_recorded_schedule() {
    for (seed, loss, expected) in RECORDED {
        let got = fingerprint(&run_mixed(seed, loss));
        assert_eq!(got, expected, "seed {seed}, loss {loss}");
    }
}

/// Absolute virtual time `at` as a compute from `rank`'s clock.
fn until(rank: &Proc, at: Time) -> Dur {
    at.since(rank.now())
}

/// Aimed at the ready heap's and the network's tie rules: ranks that
/// compute to the same nanosecond as other ready ranks, zero-length
/// computes, waits on eager sends that completed before the wait, and
/// compute resumes that land exactly on a frame's delivery event.
/// A blocked receive completes `mc` (the match cost) after its message
/// completes, and that is `back - mc` (the receive overhead) after the
/// message's last frame reached the destination host.
async fn ties(rank: &mut Proc, mc: Dur, back: Dur) {
    let (r, n) = (rank.rank(), rank.nranks());
    let (left, right) = ((r + n - 1) % n, (r + 1) % n);
    // Staggered starts meeting on one instant. Rank 0 computes for
    // nothing while every other rank is ready at the same time; the last
    // rank to reach 100 µs finds all the others already waiting there.
    rank.compute(Dur::from_micros(3 * r as u64)).await;
    rank.compute(until(rank, Time(100_000))).await;
    rank.compute(Dur::ZERO).await;
    // Incast in the order the ready heap releases the senders.
    if r == 0 {
        for _ in 1..n {
            rank.recv(SrcSel::Any, 10).await;
        }
    } else {
        rank.send_size(0, 10, 200 + 16 * r as u64).await;
    }

    // A wait on an eager send that completed long before it, and one on a
    // send that completes after it is posted.
    let sq = rank.isend_size(right, 11, 512);
    rank.compute(Dur::from_micros(500)).await;
    assert!(rank.wait(sq).await.is_none());
    let sq = rank.isend_size(right, 12, 512);
    assert!(rank.wait(sq).await.is_none());
    rank.recv(left, 11).await;
    rank.recv(left, 12).await;

    // Resumes landing on a delivery. Rank 0 sends to rank n - 1, which
    // waits in `recv`. Round 0 learns how long after the send that
    // receive completes, and the receiver tells rank 0. In every later
    // round rank 0 computes to that instant less one offset (exactly on
    // the frame's delivery event, on its completion, on its match, and one
    // nanosecond either side of each), then on to the instant the
    // receiver wakes. Both then send to rank n / 2, whose any-source
    // receives record which of the two ran first.
    let offsets = [
        Dur::ZERO,
        Dur::from_nanos(1),
        Dur::from_nanos(mc.as_nanos() - 1),
        mc,
        mc + Dur::from_nanos(1),
        Dur::from_nanos(back.as_nanos() - 1),
        back,
        back + Dur::from_nanos(1),
    ];
    let (lander, receiver, collector) = (0, n - 1, n / 2);
    let mut delay = Dur::ZERO;
    for (round, offset) in std::iter::once(Dur::ZERO).chain(offsets).enumerate() {
        let start = Time(2_000_000 + 1_000_000 * round as u64);
        let tag = 20 + round as u64;
        if r == lander {
            rank.compute(until(rank, start)).await;
            rank.send_size(receiver, tag, 100).await;
            if round == 0 {
                let (_, payload) = rank.recv(receiver, tag).await;
                let nanos = u64::from_le_bytes(payload[..].try_into().expect("8 bytes"));
                delay = Dur::from_nanos(nanos);
                continue;
            }
            let woken = start + delay;
            // A microsecond short first, so that the compute onto `land`
            // starts with nothing but the delivery ahead of it.
            let land = Time(woken.as_nanos() - offset.as_nanos());
            rank.compute(until(rank, Time(land.as_nanos() - 1_000)))
                .await;
            rank.compute(until(rank, land)).await;
            rank.compute(until(rank, woken)).await;
            rank.send_size(collector, tag, 64).await;
        } else if r == receiver {
            rank.recv(lander, tag).await;
            if round == 0 {
                delay = rank.now().since(start);
                rank.send(lander, tag, delay.as_nanos().to_le_bytes().to_vec())
                    .await;
                continue;
            }
            rank.send_size(collector, tag, 64).await;
        } else if r == collector && round > 0 {
            for _ in 0..2 {
                rank.recv(SrcSel::Any, tag).await;
            }
        }
    }
    rank.barrier().await;
}

fn run_ties(seed: u64, jitter: bool, deadline: Option<Dur>) -> Result<RunReport, SimError> {
    let mut cfg = WorldConfig::perseus(4, 2, seed);
    cfg.record_trace = true;
    cfg.virtual_deadline = deadline;
    if !jitter {
        cfg.cluster.jitter_mean = Dur::ZERO;
    }
    let mc = Dur::from_micros(2); // the envelope match cost, MATCH_COST
    let back = cfg.cluster.recv_overhead + mc;
    World::run_async(cfg, async |rank: &mut Proc| ties(rank, mc, back).await)
}

/// `(seed, jitter, fingerprint)` of the tie program, recorded before the
/// engine resumed a rank inside its own call.
const TIES: [(u64, bool, &str); 2] = [(3, false, "virtual_ns=10453627 clocks=0x688877486cd2b688 messages=73 trace_events=251 traces=0x703ae072629ed5dd net=NetStats { frames_sent: 60, frames_dropped: 0, retransmissions: 0, transfers_completed: 73, bytes_delivered: 11972, events_processed: 253, trunk_bytes: 0, trunk_peak_backlog: 0, faults_injected_losses: 0, faults_flap_drops: 0, faults_paused_frames: 0, faults_background_transfers: 0 }"), (3, true, "virtual_ns=10494029 clocks=0x952c248bc81b8849 messages=73 trace_events=251 traces=0x0ccc3ec966afa490 net=NetStats { frames_sent: 60, frames_dropped: 0, retransmissions: 0, transfers_completed: 73, bytes_delivered: 11972, events_processed: 253, trunk_bytes: 0, trunk_peak_backlog: 0, faults_injected_losses: 0, faults_flap_drops: 0, faults_paused_frames: 0, faults_background_transfers: 0 }")];

#[test]
fn tie_program_reproduces_the_recorded_schedule() {
    for (seed, jitter, expected) in TIES {
        let got = fingerprint(&run_ties(seed, jitter, None).expect("tie program runs"));
        assert_eq!(got, expected, "seed {seed}, jitter {jitter}");
    }
}

#[test]
fn deadline_and_deadlock_errors_are_pinned() {
    let mut cfg = WorldConfig::perseus(16, 2, 5);
    cfg.virtual_deadline = Some(Dur::from_millis(30));
    match World::run_async(cfg, mixed) {
        Err(SimError::DeadlineExceeded { time }) => assert_eq!(time, Time(30000002)),
        other => panic!("expected a missed deadline, got {other:?}"),
    }
    match run_ties(3, true, Some(Dur::from_nanos(3_050_000))) {
        Err(SimError::DeadlineExceeded { time }) => assert_eq!(time, Time(3055428)),
        other => panic!("expected a missed deadline, got {other:?}"),
    }

    // A rank that computes past the deadline with nothing else pending.
    let mut cfg = WorldConfig::ideal(2, 1);
    cfg.virtual_deadline = Some(Dur::from_millis(5));
    let lone = World::run_async(cfg, async |rank: &mut Proc| {
        if rank.rank() == 1 {
            rank.compute(Dur::from_millis(10)).await;
        }
    });
    match lone {
        Err(SimError::DeadlineExceeded { time }) => assert_eq!(time, Time(10000000)),
        other => panic!("expected a missed deadline, got {other:?}"),
    }

    // A two-rank receive cycle behind one completed exchange.
    let err = World::run_async(WorldConfig::perseus(2, 1, 9), async |rank: &mut Proc| {
        let peer = 1 - rank.rank();
        rank.sendrecv_size(peer, 1, 3_000, peer, 1).await;
        rank.compute(Dur::from_micros(10 * rank.rank() as u64))
            .await;
        rank.recv(peer, 2).await;
    })
    .expect_err("a receive cycle deadlocks");
    let SimError::Deadlock { time, .. } = err else {
        panic!("expected a deadlock, got {err}")
    };
    assert_eq!(time, Time(473918));
    assert_eq!(
        err.to_string(),
        "deadlock at 0.000474s: rank 0 blocked in Recv(src=Rank(1), tag=Tag(2)), rank 1 blocked in Recv(src=Rank(0), tag=Tag(2))"
    );

    // A cycle the network never sees: the deadlock is when the ranks
    // block, not when the network last moved (time zero).
    let err = World::run_async(WorldConfig::ideal(2, 1), async |rank: &mut Proc| {
        rank.compute(Dur::from_micros(5)).await;
        rank.recv(1 - rank.rank(), 0).await;
    })
    .expect_err("a receive cycle deadlocks");
    let SimError::Deadlock { time, .. } = err else {
        panic!("expected a deadlock, got {err}")
    };
    assert_eq!(time, Time(5000));
}
