//! The ground-truth run the benchmark and every accuracy claim rest on —
//! Jacobi 256x256, 250 iterations, on a 64x2 Perseus world at seed 11 —
//! pinned down to each rank's clock and each traced call, as recorded
//! before `mpisim` moved from an engine thread to baton passing.

use pevpm_apps::jacobi::{self, JacobiConfig};
use pevpm_mpisim::{TraceEvent, TraceKind, WorldConfig};

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

fn trace_digest(traces: &[Vec<TraceEvent>]) -> u64 {
    let mut h = Fnv::new();
    for t in traces {
        h.word(t.len() as u64);
        for e in t {
            h.word(match e.kind {
                TraceKind::Compute => 0,
                TraceKind::Send => 1,
                TraceKind::Isend => 2,
                TraceKind::Recv => 3,
                TraceKind::Irecv => 4,
                TraceKind::Wait => 5,
            });
            h.word(e.start.as_nanos());
            h.word(e.end.as_nanos());
            h.word(e.peer.map_or(u64::MAX, |p| p as u64));
            h.word(e.bytes);
            h.word(e.in_collective as u64);
        }
    }
    h.0
}

#[test]
fn jacobi_64x2_seed_11_reproduces_the_recorded_run() {
    let mut world = WorldConfig::perseus(64, 2, 11);
    world.record_trace = true;
    let cfg = JacobiConfig {
        xsize: 256,
        iterations: 250,
        serial_secs: 3.24e-3,
    };
    let run = jacobi::run_measured(world, &cfg).expect("jacobi runs");
    let report = &run.report;

    // The arithmetic, too: the serial loop and the 128 partial sums.
    let serial = jacobi::serial_reference(256, 250);
    assert_eq!(serial.to_bits(), 2327.1815129355828f64.to_bits());
    assert_eq!(run.checksum.to_bits(), 0x40a2_2e5c_ef43_7587);
    assert_eq!(run.time.to_bits(), 0.158622348f64.to_bits());
    assert_eq!(report.virtual_time.as_nanos(), 158_622_348);
    assert_eq!(report.messages, 63_627);
    assert_eq!(report.net_stats.events_processed, 160_322);

    let mut clocks = Fnv::new();
    for c in &report.clocks {
        clocks.word(c.as_nanos());
    }
    let traces = report.traces.as_ref().expect("tracing was on");
    let got = format!(
        "clocks={:#018x} trace_events={} traces={:#018x} net={:?}",
        clocks.0,
        traces.iter().map(Vec::len).sum::<usize>(),
        trace_digest(traces),
        report.net_stats,
    );
    assert_eq!(
        got,
        "clocks=0x2f74bb329cc4b504 trace_events=159254 traces=0xd48f7971ce7008f6 \
         net=NetStats { frames_sent: 31563, frames_dropped: 0, retransmissions: 0, \
         transfers_completed: 63627, bytes_delivered: 65025016, events_processed: 160322, \
         trunk_bytes: 1062192, trunk_peak_backlog: 5560, faults_injected_losses: 0, \
         faults_flap_drops: 0, faults_paused_frames: 0, faults_background_transfers: 0 }"
    );
}
