//! Behavioural tests of the simulated MPI world: semantics, virtual-time
//! correctness, protocol behaviour, determinism and failure modes.

use bytes::Bytes;
use pevpm_mpisim::{Placement, ReduceOp, SimError, SrcSel, TagSel, Time, World, WorldConfig};
use std::cell::RefCell;

fn ideal(nodes: usize, ppn: usize) -> WorldConfig {
    WorldConfig::ideal(nodes, ppn)
}

#[test]
fn ping_pong_transfers_payload_and_time_advances() {
    let times = RefCell::new(vec![Time::ZERO; 2]);
    let report = World::run_async(ideal(2, 1), async |rank| {
        match rank.rank() {
            0 => {
                rank.send(1, 1, &b"ping"[..]).await;
                let (_, p) = rank.recv(1, 2).await;
                assert_eq!(&p[..], b"pong");
            }
            1 => {
                let (meta, p) = rank.recv(0, 1).await;
                assert_eq!(meta.bytes, 4);
                assert_eq!(&p[..], b"ping");
                rank.send(0, 2, &b"pong"[..]).await;
            }
            _ => unreachable!(),
        }
        times.borrow_mut()[rank.rank()] = rank.now();
    })
    .unwrap();
    assert!(report.virtual_time > Time::ZERO);
    let times = times.into_inner();
    assert!(times[0] > Time::ZERO && times[1] > Time::ZERO);
    assert_eq!(report.messages, 2);
}

#[test]
fn compute_advances_only_local_clock() {
    let report = World::run_async(ideal(2, 1), async |rank| {
        if rank.rank() == 0 {
            rank.compute_secs(1.0).await;
            assert_eq!(rank.now(), Time::from_secs_f64(1.0));
        }
    })
    .unwrap();
    assert_eq!(report.clocks[0], Time::from_secs_f64(1.0));
    assert_eq!(report.clocks[1], Time::ZERO);
}

#[test]
fn receive_waits_for_late_sender() {
    // Rank 1 computes for 10 ms before sending; rank 0's recv must complete
    // after that, not before.
    let report = World::run_async(ideal(2, 1), async |rank| {
        if rank.rank() == 0 {
            let (_, _) = rank.recv(1, 0).await;
            assert!(rank.now() > Time::from_secs_f64(0.010));
        } else {
            rank.compute_secs(0.010).await;
            rank.send_size(0, 0, 64).await;
        }
    })
    .unwrap();
    assert!(report.virtual_time > Time::from_secs_f64(0.010));
}

#[test]
fn eager_send_returns_before_delivery() {
    // A small (eager) send must complete locally in ~tens of microseconds
    // even though the receiver posts its recv 1 second later.
    World::run_async(ideal(2, 1), async |rank| {
        if rank.rank() == 0 {
            rank.send_size(1, 0, 1024).await;
            assert!(
                rank.now() < Time::from_secs_f64(0.01),
                "eager send blocked until the receive: {}",
                rank.now()
            );
        } else {
            rank.compute_secs(1.0).await;
            let _ = rank.recv(0, 0).await;
        }
    })
    .unwrap();
}

#[test]
fn rendezvous_send_blocks_until_receiver_arrives() {
    // A 64 KB (rendezvous) send cannot complete until the receiver posts,
    // because the CTS only comes back after the match.
    World::run_async(ideal(2, 1), async |rank| {
        if rank.rank() == 0 {
            rank.send_size(1, 0, 64 * 1024).await;
            assert!(
                rank.now() > Time::from_secs_f64(1.0),
                "rendezvous send completed before the receiver posted: {}",
                rank.now()
            );
        } else {
            rank.compute_secs(1.0).await;
            let _ = rank.recv(0, 0).await;
        }
    })
    .unwrap();
}

#[test]
fn message_order_between_pair_is_fifo() {
    World::run_async(ideal(2, 1), async |rank| {
        if rank.rank() == 0 {
            for i in 0..10u64 {
                rank.send(1, 5, vec![i as u8]).await;
            }
        } else {
            for i in 0..10u64 {
                let (_, p) = rank.recv(0, 5).await;
                assert_eq!(p[0] as u64, i, "messages reordered");
            }
        }
    })
    .unwrap();
}

#[test]
fn tag_matching_selects_correct_message() {
    World::run_async(ideal(2, 1), async |rank| {
        if rank.rank() == 0 {
            rank.send(1, 10, &b"ten"[..]).await;
            rank.send(1, 20, &b"twenty"[..]).await;
        } else {
            // Receive in reverse tag order: matching must pick by tag.
            let (_, p20) = rank.recv(0, 20).await;
            let (_, p10) = rank.recv(0, 10).await;
            assert_eq!(&p20[..], b"twenty");
            assert_eq!(&p10[..], b"ten");
        }
    })
    .unwrap();
}

#[test]
fn wildcard_receive_matches_any_source_and_tag() {
    World::run_async(ideal(3, 1), async |rank| match rank.rank() {
        0 => {
            let (m1, _) = rank.recv(SrcSel::Any, TagSel::Any).await;
            let (m2, _) = rank.recv(SrcSel::Any, TagSel::Any).await;
            let mut srcs = [m1.src, m2.src];
            srcs.sort_unstable();
            assert_eq!(srcs, [1, 2]);
        }
        r => rank.send_size(0, 100 + r as u64, 32).await,
    })
    .unwrap();
}

#[test]
fn isend_irecv_wait_roundtrip() {
    World::run_async(ideal(2, 1), async |rank| {
        if rank.rank() == 0 {
            let r1 = rank.isend(1, 1, &b"a"[..]);
            let r2 = rank.isend(1, 2, &b"b"[..]);
            rank.wait(r1).await;
            rank.wait(r2).await;
        } else {
            let q2 = rank.irecv(0, 2);
            let q1 = rank.irecv(0, 1);
            let m1 = rank.wait(q1).await.unwrap();
            let m2 = rank.wait(q2).await.unwrap();
            assert_eq!(&m1.1[..], b"a");
            assert_eq!(&m2.1[..], b"b");
        }
    })
    .unwrap();
}

#[test]
fn test_reports_pending_then_done() {
    World::run_async(ideal(2, 1), async |rank| {
        if rank.rank() == 0 {
            let req = rank.irecv(1, 0);
            assert!(rank.test(req).is_none(), "request done before sender ran");
            // Wait out the sender's compute + transfer.
            rank.compute_secs(0.5).await;
            let done = rank.test(req);
            assert!(done.is_some(), "request still pending after 0.5 s");
            assert!(done.unwrap().is_some());
        } else {
            rank.compute_secs(0.1).await;
            rank.send_size(0, 0, 8).await;
        }
    })
    .unwrap();
}

#[test]
fn intra_node_messages_bypass_network() {
    let report = World::run_async(ideal(1, 2), async |rank| {
        if rank.rank() == 0 {
            rank.send(1, 0, vec![42u8; 1000]).await;
        } else {
            let (_, p) = rank.recv(0, 0).await;
            assert_eq!(p.len(), 1000);
        }
    })
    .unwrap();
    assert_eq!(
        report.net_stats.frames_sent, 0,
        "local message used the wire"
    );
}

#[test]
fn deadlock_is_detected_and_reported() {
    let err = World::run_async(ideal(2, 1), async |rank| {
        // Both ranks receive from each other; nobody sends.
        let peer = 1 - rank.rank();
        let _ = rank.recv(peer, 0).await;
    })
    .unwrap_err();
    match err {
        SimError::Deadlock { blocked, .. } => {
            assert_eq!(blocked.len(), 2);
            assert!(blocked[0].1.contains("Recv"));
        }
        other => panic!("expected deadlock, got {other}"),
    }
}

#[test]
fn rank_panic_is_reported() {
    let err = World::run_async(ideal(2, 1), async |rank| {
        if rank.rank() == 1 {
            panic!("boom on rank 1");
        } else {
            let _ = rank.recv(1, 0).await;
        }
    })
    .unwrap_err();
    match err {
        SimError::RankPanic { rank, message } => {
            assert_eq!(rank, 1);
            assert!(message.contains("boom"), "message: {message}");
        }
        other => panic!("expected rank panic, got {other}"),
    }
}

#[test]
fn deadline_guard_fires() {
    let mut cfg = ideal(2, 1);
    cfg.virtual_deadline = Some(pevpm_netsim::Dur::from_millis(1));
    let err = World::run_async(cfg, async |rank| {
        rank.compute_secs(10.0).await;
    })
    .unwrap_err();
    assert!(matches!(err, SimError::DeadlineExceeded { .. }));
}

#[test]
fn determinism_same_seed_same_result() {
    let run = |seed: u64| {
        let mut cfg = WorldConfig::perseus(4, 2, seed);
        cfg.virtual_deadline = None;
        World::run_async(cfg, async |rank| {
            let n = rank.nranks();
            let r = rank.rank();
            // All-pairs exchange with the opposite half.
            let peer = (r + n / 2) % n;
            if r < n / 2 {
                rank.send_size(peer, 0, 2048).await;
                let _ = rank.recv(peer, 1).await;
            } else {
                let _ = rank.recv(peer, 0).await;
                rank.send_size(peer, 1, 2048).await;
            }
        })
        .unwrap()
        .virtual_time
    };
    assert_eq!(run(11), run(11));
    assert_ne!(run(11), run(12));
}

#[test]
fn barrier_synchronises_clocks() {
    let after = RefCell::new(vec![Time::ZERO; 4]);
    World::run_async(ideal(4, 1), async |rank| {
        // Stagger the ranks, then barrier: everyone leaves after the latest.
        rank.compute_secs(0.01 * rank.rank() as f64).await;
        rank.barrier().await;
        after.borrow_mut()[rank.rank()] = rank.now();
    })
    .unwrap();
    let after = after.into_inner();
    let slowest_entry = Time::from_secs_f64(0.03);
    for (r, &t) in after.iter().enumerate() {
        assert!(
            t >= slowest_entry,
            "rank {r} left the barrier at {t} before the slowest rank entered"
        );
    }
}

#[test]
fn bcast_delivers_payload_to_all() {
    let seen = RefCell::new(vec![Vec::new(); 5]);
    World::run_async(ideal(5, 1), async |rank| {
        let payload = if rank.rank() == 2 {
            Some(Bytes::from_static(b"broadcast!"))
        } else {
            None
        };
        let out = rank.bcast(2, payload).await;
        seen.borrow_mut()[rank.rank()] = out.to_vec();
    })
    .unwrap();
    for v in seen.into_inner() {
        assert_eq!(v.as_slice(), b"broadcast!");
    }
}

#[test]
fn reduce_computes_elementwise_sum() {
    let result = RefCell::new(None);
    World::run_async(ideal(6, 1), async |rank| {
        let data = vec![rank.rank() as f64, 1.0];
        let out = rank.reduce_f64s(0, &data, ReduceOp::Sum).await;
        if rank.rank() == 0 {
            *result.borrow_mut() = out;
        } else {
            assert!(out.is_none());
        }
    })
    .unwrap();
    let got = result.into_inner().unwrap();
    assert_eq!(got, vec![15.0, 6.0]); // 0+1+..+5, six ones
}

#[test]
fn allreduce_gives_every_rank_the_result() {
    World::run_async(ideal(4, 1), async |rank| {
        let out = rank
            .allreduce_f64s(&[rank.rank() as f64], ReduceOp::Max)
            .await;
        assert_eq!(out, vec![3.0]);
        let out = rank
            .allreduce_f64s(&[rank.rank() as f64], ReduceOp::Min)
            .await;
        assert_eq!(out, vec![0.0]);
    })
    .unwrap();
}

#[test]
fn gather_collects_in_rank_order() {
    World::run_async(ideal(4, 1), async |rank| {
        let mine = Bytes::from(vec![rank.rank() as u8; 3]);
        let out = rank.gather(1, mine).await;
        if rank.rank() == 1 {
            let got = out.unwrap();
            for (i, b) in got.iter().enumerate() {
                assert_eq!(b.as_ref(), &[i as u8; 3]);
            }
        } else {
            assert!(out.is_none());
        }
    })
    .unwrap();
}

#[test]
fn scatter_distributes_chunks() {
    World::run_async(ideal(3, 1), async |rank| {
        let chunks = (rank.rank() == 0).then(|| {
            (0..3)
                .map(|i| Bytes::from(vec![i as u8 * 10; 2]))
                .collect::<Vec<_>>()
        });
        let mine = rank.scatter(0, chunks).await;
        assert_eq!(mine.as_ref(), &[rank.rank() as u8 * 10; 2]);
    })
    .unwrap();
}

#[test]
fn allgather_returns_everything_everywhere() {
    World::run_async(ideal(5, 1), async |rank| {
        let mine = Bytes::from(vec![rank.rank() as u8 + 1]);
        let all = rank.allgather(mine).await;
        for (i, b) in all.iter().enumerate() {
            assert_eq!(b.as_ref(), &[i as u8 + 1]);
        }
    })
    .unwrap();
}

#[test]
fn alltoall_exchanges_personalised_chunks() {
    World::run_async(ideal(4, 1), async |rank| {
        let r = rank.rank();
        let chunks: Vec<Bytes> = (0..4)
            .map(|dst| Bytes::from(vec![(r * 10 + dst) as u8]))
            .collect();
        let got = rank.alltoall(chunks).await;
        for (src, b) in got.iter().enumerate() {
            assert_eq!(b.as_ref(), &[(src * 10 + r) as u8]);
        }
    })
    .unwrap();
}

#[test]
fn sendrecv_exchanges_without_deadlock() {
    // Head-to-head large (rendezvous) exchange: plain blocking sends on
    // both sides would deadlock; sendrecv must not.
    World::run_async(ideal(2, 1), async |rank| {
        let peer = 1 - rank.rank();
        let mine = vec![rank.rank() as u8; 64 * 1024];
        let (meta, payload) = rank.sendrecv(peer, 5, mine, peer, 5).await;
        assert_eq!(meta.src, peer);
        assert_eq!(payload.len(), 64 * 1024);
        assert!(payload.iter().all(|&b| b == peer as u8));
    })
    .unwrap();
}

#[test]
fn sendrecv_size_shifts_a_ring() {
    World::run_async(ideal(4, 1), async |rank| {
        let n = rank.nranks();
        let r = rank.rank();
        for _ in 0..5 {
            let (meta, _) = rank
                .sendrecv_size((r + 1) % n, 1, 2048, (r + n - 1) % n, 1)
                .await;
            assert_eq!(meta.src, (r + n - 1) % n);
            assert_eq!(meta.bytes, 2048);
        }
    })
    .unwrap();
}

#[test]
fn nic_contention_slows_two_procs_per_node() {
    // The same exchange with 2 procs/node must take longer per message than
    // with 1 proc/node: two processes share one NIC (paper §3).
    let time_for = |nodes: usize, ppn: usize| {
        let cfg = WorldConfig::perseus(nodes, ppn, 1);
        World::run_async(cfg, async |rank| {
            let n = rank.nranks();
            let r = rank.rank();
            let peer = (r + n / 2) % n;
            for _ in 0..10 {
                if r < n / 2 {
                    rank.send_size(peer, 0, 4096).await;
                    let _ = rank.recv(peer, 1).await;
                } else {
                    let _ = rank.recv(peer, 0).await;
                    rank.send_size(peer, 1, 4096).await;
                }
            }
        })
        .unwrap()
        .virtual_time
    };
    let t1 = time_for(4, 1); // 4 ranks over 4 nodes
    let t2 = time_for(2, 2); // 4 ranks over 2 nodes (shared NICs)
    assert!(
        t2 > t1,
        "NIC sharing should slow the exchange: 4x1={t1}, 2x2={t2}"
    );
}

#[test]
fn round_robin_placement_is_supported() {
    let mut cfg = ideal(2, 2);
    cfg.placement = Placement::RoundRobin;
    World::run_async(cfg, async |rank| {
        // With round-robin, ranks 0 and 2 share node 0.
        if rank.rank() == 0 {
            assert_eq!(rank.node(), 0);
        }
        if rank.rank() == 2 {
            assert_eq!(rank.node(), 0);
        }
        if rank.rank() == 1 {
            assert_eq!(rank.node(), 1);
        }
    })
    .unwrap();
}

#[test]
fn traces_record_operation_timelines() {
    use pevpm_mpisim::{breakdown, TraceKind};
    let mut cfg = ideal(2, 1);
    cfg.record_trace = true;
    let report = World::run_async(cfg, async |rank| {
        if rank.rank() == 0 {
            rank.compute_secs(0.25).await;
            rank.send_size(1, 0, 2048).await;
        } else {
            let _ = rank.recv(0, 0).await;
        }
    })
    .unwrap();
    let traces = report.traces.expect("tracing was enabled");
    assert_eq!(traces.len(), 2);

    // Rank 0: compute then send.
    assert_eq!(traces[0][0].kind, TraceKind::Compute);
    assert!((traces[0][0].duration() - 0.25).abs() < 1e-9);
    assert_eq!(traces[0][1].kind, TraceKind::Send);
    assert_eq!(traces[0][1].peer, Some(1));
    assert_eq!(traces[0][1].bytes, 2048);

    // Rank 1: one receive covering its whole blocked wait.
    assert_eq!(traces[1][0].kind, TraceKind::Recv);
    assert!(traces[1][0].duration() > 0.25, "recv must include the wait");

    let b = breakdown(&traces);
    assert!((b[0].compute - 0.25).abs() < 1e-9);
    assert!(b[1].blocked > 0.25);
    assert_eq!(b[0].messages, 1);
    assert!(b[1].comm_fraction() > 0.99);
}

#[test]
fn traces_mark_collective_internals() {
    use pevpm_mpisim::breakdown;
    let mut cfg = ideal(4, 1);
    cfg.record_trace = true;
    let report = World::run_async(cfg, async |rank| {
        rank.barrier().await;
        rank.compute_secs(0.01).await;
    })
    .unwrap();
    let traces = report.traces.unwrap();
    for (r, t) in traces.iter().enumerate() {
        assert!(
            t.iter().any(|e| e.in_collective),
            "rank {r}: barrier internals not marked"
        );
        assert!(
            t.iter().any(|e| !e.in_collective),
            "rank {r}: compute wrongly marked as collective"
        );
    }
    let b = breakdown(&traces);
    assert!(b[0].collective > 0.0);
}

#[test]
fn tracing_disabled_returns_none_and_costs_nothing() {
    let report = World::run_async(ideal(2, 1), async |rank| {
        if rank.rank() == 0 {
            rank.send_size(1, 0, 64).await;
        } else {
            let _ = rank.recv(0, 0).await;
        }
    })
    .unwrap();
    assert!(report.traces.is_none());
}

#[test]
fn simultaneous_completions_keep_their_transfers_apart() {
    // Two pairs, each on a switch of its own, on the jitter-free network:
    // both RTS messages are delivered in the same nanosecond, i.e. in one
    // batch of completions. Answering the first with a CTS starts a
    // transfer in the network slot the second one has just vacated; the
    // second must still be taken for an RTS.
    let mut cfg = ideal(4, 1);
    cfg.cluster.switch_ports = 2;
    let report = World::run_async(cfg, async |rank| {
        let r = rank.rank();
        if r % 2 == 0 {
            rank.send(r + 1, 0, vec![r as u8; 20_000 + r]).await;
        } else {
            let (meta, payload) = rank.recv(r - 1, 0).await;
            assert_eq!(meta.bytes as usize, 20_000 + r - 1);
            assert!(payload.iter().all(|&b| b as usize == r - 1));
        }
    })
    .unwrap();
    assert_eq!(report.net_stats.transfers_completed, 6);
}

#[test]
fn large_worlds_run_to_completion() {
    let cfg = WorldConfig::perseus(32, 2, 3);
    let report = World::run_async(cfg, async |rank| {
        let n = rank.nranks();
        let r = rank.rank();
        let peer = (r + n / 2) % n;
        if r < n / 2 {
            rank.send_size(peer, 0, 1024).await;
            let _ = rank.recv(peer, 1).await;
        } else {
            let _ = rank.recv(peer, 0).await;
            rank.send_size(peer, 1, 1024).await;
        }
    })
    .unwrap();
    assert_eq!(report.messages, 64);
    assert!(report.net_stats.frames_sent >= 64);
}
