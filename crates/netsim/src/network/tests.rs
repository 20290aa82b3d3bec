//! Unit tests of the event engine: they reach into its private queue,
//! servers and transfers.

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
        let mut server = Server { free_at, ..Server::new(rate_bps, 0) };
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

/// Every server's remembered wire time is [`wire_time`] at its rate,
/// whatever sizes came before, degraded links included.
#[test]
fn remembered_wire_time_is_the_division() {
    let mut cfg = ClusterConfig::perseus(30);
    cfg.faults = Some(crate::faults::FaultPlan {
        degrade: vec![crate::faults::LinkDegrade {
            node: 1,
            rate_factor: 0.37,
        }],
        ..Default::default()
    });
    let mut net = Network::new(cfg, 1);
    assert_ne!(net.nic[1].rate_bps, net.nic[0].rate_bps, "degraded");
    let sizes = [0, 1, 1_499, 1_500, 1_501, 65_536];
    let servers = net
        .nic
        .iter_mut()
        .chain(&mut net.fabric)
        .chain([&mut net.trunk])
        .chain(&mut net.port);
    for server in servers {
        for &a in &sizes {
            for &b in &sizes {
                for wire in [a, a, b] {
                    let want = wire_time(wire, server.rate_bps);
                    assert_eq!(server.service_time(wire), want, "{wire} B");
                }
            }
        }
    }
}

/// A network with local and remote transfers in flight, some finishing
/// at the same instant.
fn busy(seed: u64) -> Network {
    let mut net = Network::new(ClusterConfig::perseus(6), seed);
    for i in 0..6usize {
        net.start_transfer(Time::ZERO, i, (i + 1) % 6, 700 + 900 * i as u64);
        net.start_transfer(Time::ZERO, i, i, 4_000);
        net.start_transfer(Time(50_000), i, 5 - i, 20_000);
    }
    net
}

#[test]
fn advance_handles_no_event_beyond_its_limit() {
    let mut net = busy(3);
    let mut out = Vec::new();
    while let Some(t) = net.next_event_time() {
        let handled = net.stats().events_processed;
        assert!(!net.advance(Time(t.0 - 1), &mut out));
        assert_eq!(net.stats().events_processed, handled, "handled early");
        assert!(out.is_empty());
        while net.advance(t, &mut out) {
            assert!(out.iter().all(|c| c.delivered_at >= t));
            out.clear();
        }
        assert!(net.now() <= t);
        assert!(net.next_event_time().is_none_or(|next| next > t));
    }
    assert_eq!(net.stats().transfers_completed, 18);
}

#[test]
fn advance_stops_after_the_first_completing_time() {
    let mut net = ideal(4);
    // Three shared-memory copies done at one instant, one later, and
    // a remote transfer in flight past both.
    let remote = net.start_transfer(Time::ZERO, 0, 1, 15_000);
    let same: Vec<TransferId> = (0..3)
        .map(|n| net.start_transfer(Time::ZERO, n + 1, n + 1, 1_000))
        .collect();
    let later = net.start_transfer(Time(1), 3, 3, 1_000);
    let mut out = Vec::new();
    assert!(net.advance(Time::MAX, &mut out));
    let at = out[0].delivered_at;
    assert_eq!(out.iter().map(|c| c.id).collect::<Vec<_>>(), same);
    assert!(out.iter().all(|c| c.delivered_at == at));
    assert_eq!(net.now(), at);
    assert!(net.next_event_time().is_some_and(|t| t > at));
    out.clear();
    assert!(net.advance(Time::MAX, &mut out));
    assert_eq!(out.iter().map(|c| c.id).collect::<Vec<_>>(), [later]);
    out.clear();
    assert!(net.advance(Time::MAX, &mut out));
    assert_eq!(out.iter().map(|c| c.id).collect::<Vec<_>>(), [remote]);
    out.clear();
    assert!(!net.advance(Time::MAX, &mut out));
    assert!(out.is_empty() && net.next_event_time().is_none());
}

#[test]
fn every_way_of_advancing_completes_in_one_order() {
    let order = |done: Vec<Completion>| {
        done.iter()
            .map(|c| (c.id, c.delivered_at))
            .collect::<Vec<_>>()
    };
    let all = order(busy(5).run_to_completion());
    assert_eq!(all.len(), 18);
    // One event time at a time, and in fixed steps of 1 µs.
    let mut net = busy(5);
    let mut by_time = Vec::new();
    while let Some(t) = net.next_event_time() {
        by_time.extend(net.advance_until(t));
    }
    assert_eq!(order(by_time), all);
    let mut net = busy(5);
    let mut by_step = Vec::new();
    let mut t = Time::ZERO;
    while net.next_event_time().is_some() {
        t += Dur::from_micros(1);
        by_step.extend(net.advance_until(t));
    }
    assert_eq!(order(by_step), all);
}

#[test]
fn equal_time_events_run_in_push_order_across_slot_reuse() {
    let mut net = ideal(2);
    // Free event slots 0..8 in order, so the free list hands them
    // back highest first.
    for k in 0..8 {
        net.start_transfer(Time(k), 0, 0, 100);
    }
    assert_eq!(net.run_to_completion().len(), 8);
    let t = net.now();
    let ids: Vec<TransferId> = (0..8).map(|_| net.start_transfer(t, 0, 0, 100)).collect();
    assert_eq!(net.events.len(), 8, "the slab is reused");
    let slots: Vec<u64> = {
        let mut keys: Vec<u64> = net.heap.iter().map(|Reverse((_, k))| *k).collect();
        keys.sort_unstable();
        keys.iter().map(|k| k & SLOT_MASK).collect()
    };
    assert_eq!(
        slots,
        [7, 6, 5, 4, 3, 2, 1, 0],
        "slots run against push order"
    );
    let done = net.run_to_completion();
    assert!(done.iter().all(|c| c.delivered_at == done[0].delivered_at));
    assert_eq!(done.iter().map(|c| c.id).collect::<Vec<_>>(), ids);
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
