//! The schedule, pinned: a 16x2 world running every kind of MPI call must
//! reproduce — bit for bit — the virtual times, clocks, counters and
//! per-rank traces recorded before the scheduler was rewritten from an
//! engine thread to baton passing, and from that to `async` rank programs
//! on one thread. Totals alone would not notice two ranks swapping places
//! in the ready heap; the trace digest does.

use pevpm_mpisim::{
    Dur, FaultPlan, Proc, RunReport, SrcSel, TagSel, TraceEvent, TraceKind, World, WorldConfig,
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
        cfg.cluster.faults = Some(FaultPlan {
            loss_prob,
            ..Default::default()
        });
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
