//! The event order, pinned under loss: a closed-loop workload (every
//! completion starts the next transfer at its delivery time, the way the
//! MPI layer answers an RTS with a CTS) on a 5%-frame-loss network must
//! reproduce the statistics and the `(delivered_at, retransmissions)`
//! sequence recorded when every transfer kept its table entry for the
//! whole run. With entries recycled, retransmission timers and frames of
//! finished transfers now fire at slots that have new tenants — any one
//! of them taken for the tenant's would show up here.

use pevpm_netsim::{ClusterConfig, FaultPlan, NetStats, Network, Time};

const NODES: usize = 16;
const TRANSFERS: u64 = 600;

fn run(seed: u64) -> (u64, NetStats) {
    let mut cfg = ClusterConfig::perseus(NODES);
    cfg.switch_ports = 8; // two switches: half the pairs cross the trunk
    cfg.faults = FaultPlan {
        loss_prob: 0.05,
        ..Default::default()
    };
    let mut net = Network::new(cfg, seed);

    // A private LCG picks endpoints and sizes, so the workload depends on
    // nothing but the order completions come back in.
    let mut lcg = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move |net: &mut Network, at: Time| {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let src = (lcg >> 33) as usize % NODES;
        let dst = (lcg >> 41) as usize % NODES;
        let bytes = [64, 1_024, 6_000, 40_000][(lcg >> 49) as usize % 4];
        net.start_transfer(at, src, dst, bytes);
    };

    let mut started = 0;
    while started < 24 {
        next(&mut net, Time::ZERO);
        started += 1;
    }
    // FNV-1a over the completion sequence.
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut completed = 0u64;
    while let Some(t) = net.next_event_time() {
        for c in net.advance_until(t) {
            for w in [c.delivered_at.as_nanos(), c.retransmissions as u64] {
                for b in w.to_le_bytes() {
                    digest = (digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            completed += 1;
            assert!(net.is_completed(c.id));
            if started < TRANSFERS {
                next(&mut net, c.delivered_at);
                started += 1;
            }
        }
    }
    assert_eq!(completed, TRANSFERS);
    (digest, *net.stats())
}

#[test]
fn lossy_closed_loop_reproduces_the_recorded_completions() {
    /// `(seed, fingerprint)` as recorded.
    const RECORDED: [(u64, &str); 3] = [
        (
            3,
            "completions=0xb11ee8c4642c26fa NetStats { frames_sent: 8231, frames_dropped: 400, retransmissions: 281, transfers_completed: 600, bytes_delivered: 7793088, events_processed: 36527, trunk_bytes: 4945478, trunk_peak_backlog: 6778, faults_injected_losses: 400, faults_flap_drops: 0, faults_paused_frames: 0, faults_background_transfers: 0 }",
        ),
        (
            29,
            "completions=0xf5c169ca3ac2c035 NetStats { frames_sent: 8543, frames_dropped: 403, retransmissions: 265, transfers_completed: 600, bytes_delivered: 7389408, events_processed: 37352, trunk_bytes: 5027108, trunk_peak_backlog: 8230, faults_injected_losses: 403, faults_flap_drops: 0, faults_paused_frames: 0, faults_background_transfers: 0 }",
        ),
        (
            101,
            "completions=0x1cab3371616c13e5 NetStats { frames_sent: 7711, frames_dropped: 402, retransmissions: 272, transfers_completed: 600, bytes_delivered: 7058928, events_processed: 34403, trunk_bytes: 5154068, trunk_peak_backlog: 9405, faults_injected_losses: 402, faults_flap_drops: 0, faults_paused_frames: 0, faults_background_transfers: 0 }",
        ),
    ];
    for (seed, expected) in RECORDED {
        let (digest, stats) = run(seed);
        let got = format!("completions={digest:#018x} {stats:?}");
        assert_eq!(got, expected, "seed {seed}");
    }
}

/// The same closed loop through every other fault path: a full pause,
/// a slowdown pause, a link flap and background bursts, on top of a
/// 4-into-1 incast of multi-frame transfers onto a port buffer a few
/// frames deep. Handled events here schedule no successor (drops, stale
/// frames, deliveries), one (a hop, a deferred frame, a timer) or several
/// (a retransmission round), so a queue that reorders any of them, or
/// misplaces a successor, changes the recorded completions.
fn run_faulted(seed: u64) -> (u64, NetStats) {
    use pevpm_netsim::{Background, LinkFlap, Pause};

    let mut cfg = ClusterConfig::perseus(NODES);
    cfg.switch_ports = 8;
    cfg.port_buffer_bytes = 6_000; // room for three full frames
    cfg.faults = FaultPlan {
        pauses: vec![
            Pause {
                node: 3,
                at_secs: 0.001,
                duration_secs: 0.002,
                slowdown: 0.0,
            },
            Pause {
                node: 5,
                at_secs: 0.002,
                duration_secs: 0.005,
                slowdown: 3.0,
            },
        ],
        flaps: vec![LinkFlap {
            node: 9,
            from_secs: 0.004,
            to_secs: 0.006,
        }],
        background: vec![Background {
            src: 12,
            dst: 0,
            bytes: 15_000,
            start_secs: 0.0005,
            period_secs: 0.001,
            count: 10,
        }],
        ..Default::default()
    };
    let mut net = Network::new(cfg, seed);

    let mut lcg = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move |net: &mut Network, at: Time| {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let src = (lcg >> 33) as usize % NODES;
        let dst = (lcg >> 41) as usize % NODES;
        let bytes = [64, 1_024, 6_000, 40_000][(lcg >> 49) as usize % 4];
        net.start_transfer(at, src, dst, bytes);
    };

    // The incast: nodes 1..=4 each send 40 000 B (27 frames) to node 0.
    for src in 1..=4 {
        net.start_transfer(Time::ZERO, src, 0, 40_000);
    }
    let mut started = 4;
    while started < 24 {
        next(&mut net, Time::ZERO);
        started += 1;
    }
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut completed = 0u64;
    while let Some(t) = net.next_event_time() {
        for c in net.advance_until(t) {
            for w in [c.delivered_at.as_nanos(), c.retransmissions as u64] {
                for b in w.to_le_bytes() {
                    digest = (digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            completed += 1;
            if started < TRANSFERS {
                next(&mut net, c.delivered_at);
                started += 1;
            }
        }
    }
    assert_eq!(completed, TRANSFERS);
    (digest, *net.stats())
}

#[test]
fn faulted_closed_loop_reproduces_the_recorded_completions() {
    /// `(seed, fingerprint)` as recorded before the event queue replaced
    /// a handled event with its first successor in place.
    const RECORDED: [(u64, &str); 3] = [
        (
            3,
            "completions=0x82b947506939536a NetStats { frames_sent: 8390, frames_dropped: 1532, retransmissions: 276, transfers_completed: 600, bytes_delivered: 7945936, events_processed: 39409, trunk_bytes: 5645844, trunk_peak_backlog: 6509, faults_injected_losses: 0, faults_flap_drops: 10, faults_paused_frames: 40, faults_background_transfers: 10 }",
        ),
        (
            29,
            "completions=0x57f8d7e5fdf6bb87 NetStats { frames_sent: 7019, frames_dropped: 896, retransmissions: 155, transfers_completed: 600, bytes_delivered: 7467360, events_processed: 33639, trunk_bytes: 4763148, trunk_peak_backlog: 11056, faults_injected_losses: 0, faults_flap_drops: 28, faults_paused_frames: 12, faults_background_transfers: 10 }",
        ),
        (
            101,
            "completions=0x22c64fabe69ffc05 NetStats { frames_sent: 6837, frames_dropped: 815, retransmissions: 144, transfers_completed: 600, bytes_delivered: 7194928, events_processed: 33251, trunk_bytes: 5340704, trunk_peak_backlog: 8652, faults_injected_losses: 0, faults_flap_drops: 36, faults_paused_frames: 54, faults_background_transfers: 10 }",
        ),
    ];
    for (seed, expected) in RECORDED {
        let (digest, stats) = run_faulted(seed);
        let got = format!("completions={digest:#018x} {stats:?}");
        assert_eq!(got, expected, "seed {seed}");
    }
}
