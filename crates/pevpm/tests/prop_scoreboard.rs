//! Property tests for the scoreboard slab and per-pair FIFO index: handles
//! stay stable under arbitrary insert/remove interleavings (a reused slot
//! never resurrects a stale handle), and per-(sender, receiver) message
//! order is preserved under any mix of directed reservations and wildcard
//! head consumption — the invariants the VM's match phase relies on.

use pevpm::scoreboard::{Handle, PairFifo, Slab};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random insert/remove interleavings against a reference map: live
    /// handles always resolve to their value, removed handles never resolve
    /// again (even after their slot is reused), and `len` tracks exactly.
    #[test]
    fn slab_handles_are_stable_and_generational(
        seed in 0u64..1_000_000,
        steps in 1usize..200,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut slab: Slab<u64> = Slab::new();
        let mut live: Vec<(Handle, u64)> = Vec::new();
        let mut dead: Vec<Handle> = Vec::new();
        let mut next_val = 0u64;

        for _ in 0..steps {
            if live.is_empty() || rng.gen_bool(0.6) {
                let h = slab.insert(next_val);
                live.push((h, next_val));
                next_val += 1;
            } else {
                let i = rng.gen_range(0..live.len());
                let (h, v) = live.swap_remove(i);
                prop_assert_eq!(slab.remove(h), Some(v));
                prop_assert_eq!(slab.remove(h), None, "double-remove must fail");
                dead.push(h);
            }
            prop_assert_eq!(slab.len(), live.len());
            for &(h, v) in &live {
                prop_assert_eq!(slab.get(h), Some(&v), "live handle {} lost", h);
            }
            for &h in &dead {
                prop_assert!(!slab.contains(h), "stale handle {} resurrected", h);
            }
        }

        // Iteration yields exactly the live set.
        let mut seen: Vec<(Handle, u64)> = slab.iter().map(|(h, &v)| (h, v)).collect();
        let mut expect = live.clone();
        seen.sort_by_key(|(_, v)| *v);
        expect.sort_by_key(|(_, v)| *v);
        prop_assert_eq!(seen, expect);
    }

    /// Random interleavings of sends, directed receives (reserve + take),
    /// and wildcard head consumption on one receiver: every sender's
    /// messages are consumed in exactly their send order, and a wildcard
    /// head is never a message already reserved by a directed receive.
    #[test]
    fn fifo_preserves_per_sender_order_under_mixed_consumption(
        seed in 0u64..1_000_000,
        nsenders in 1usize..6,
        nmsgs in 1usize..30,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let recv = 0usize;
        let mut slab: Slab<(usize, u64)> = Slab::new();
        let mut fifo = PairFifo::new(nsenders + 1);

        // Sent / consumed counters per sender (senders are procs 1..=n).
        let mut sent = vec![0u64; nsenders + 1];
        let mut consumed = vec![0u64; nsenders + 1];
        let total = nsenders * nmsgs;
        let mut done = 0usize;

        while done < total {
            let from = 1 + rng.gen_range(0..nsenders);
            let can_send = (sent[from] as usize) < nmsgs;
            let can_recv = consumed[from] < sent[from];
            if can_send && (!can_recv || rng.gen_bool(0.5)) {
                let seq = fifo.next_send_seq(from, recv);
                prop_assert_eq!(seq, sent[from], "send seqs are dense per pair");
                let h = slab.insert((from, seq));
                fifo.enqueue(from, recv, seq, h);
                sent[from] += 1;
            } else if can_recv {
                let expect = consumed[from];
                let h = if rng.gen_bool(0.5) {
                    // Directed receive: reserve the next in-order seq, then
                    // take it (possibly from mid-queue).
                    let seq = fifo.reserve_recv(from, recv);
                    prop_assert_eq!(seq, expect, "reservation is in send order");
                    fifo.take(from, recv, seq).expect("reserved message present")
                } else {
                    // Wildcard: this sender's head must be its oldest
                    // unreserved message.
                    let heads: HashMap<usize, Handle> = fifo.heads(recv).collect();
                    let h = *heads.get(&from).expect("pending sender has a head");
                    prop_assert_eq!(slab.get(h), Some(&(from, expect)));
                    let c = fifo.consume_head(from, recv);
                    prop_assert_eq!(c, Some(h));
                    h
                };
                let (f, seq) = slab.remove(h).expect("fifo handles are live");
                prop_assert_eq!(f, from);
                prop_assert_eq!(seq, expect, "sender {}'s order violated", from);
                consumed[from] += 1;
                done += 1;
            }
        }
        prop_assert!(slab.is_empty(), "all messages consumed");
        prop_assert!(fifo.heads(recv).next().is_none(), "no stray heads");
    }

    /// Senders first seen in ascending, descending or random order — the
    /// per-destination sorted insert at the back, the front and in the
    /// middle — leave the wildcard heads and the in-flight walk in
    /// ascending sender order with every pair's queue in send order, and
    /// each pair keeps its own state however its neighbours were inserted.
    #[test]
    fn senders_first_seen_in_any_order_enumerate_ascending(
        seed in 0u64..1_000_000,
        nsenders in 1usize..12,
        order in 0usize..3,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut senders: Vec<usize> = (1..=nsenders).collect();
        match order {
            0 => {}
            1 => senders.reverse(),
            _ => {
                for i in (1..senders.len()).rev() {
                    senders.swap(i, rng.gen_range(0..=i));
                }
            }
        }
        let recv = 0usize;
        let mut slab: Slab<(usize, u64)> = Slab::new();
        let mut fifo = PairFifo::new(nsenders + 1);
        for (k, &from) in senders.iter().enumerate() {
            for _ in 0..=k % 3 {
                let seq = fifo.next_send_seq(from, recv);
                fifo.enqueue(from, recv, seq, slab.insert((from, seq)));
            }
            let heads: Vec<usize> = fifo.heads(recv).map(|(from, _)| from).collect();
            let mut seen = senders[..=k].to_vec();
            seen.sort_unstable();
            prop_assert_eq!(heads, seen, "heads after sender {} arrived", from);
        }
        let walk: Vec<(usize, u64)> = fifo
            .in_flight()
            .map(|(from, to, h)| {
                assert_eq!(to, recv);
                let &(f, seq) = slab.get(h).expect("in-flight handles are live");
                assert_eq!(f, from);
                (f, seq)
            })
            .collect();
        let mut sorted = walk.clone();
        sorted.sort_unstable();
        prop_assert_eq!(walk, sorted, "ascending sender, then send order");
        // Drain by wildcard, always the lowest sender's head: the walk
        // again.
        let mut drained = Vec::new();
        loop {
            let Some((from, h)) = fifo.heads(recv).next() else {
                break;
            };
            prop_assert_eq!(fifo.consume_head(from, recv), Some(h));
            drained.push(slab.remove(h).expect("heads are live"));
        }
        prop_assert_eq!(drained, sorted);
        prop_assert!(slab.is_empty());
    }

    /// A directed reservation mid-stream never perturbs wildcard heads of
    /// other senders, and the reserved message stays takeable after any
    /// number of later sends on the same pair.
    #[test]
    fn reservation_is_stable_across_later_sends(
        seed in 0u64..1_000_000,
        later in 0usize..20,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut slab: Slab<u64> = Slab::new();
        let mut fifo = PairFifo::new(2);
        let seq0 = fifo.next_send_seq(1, 0);
        let h0 = slab.insert(seq0);
        fifo.enqueue(1, 0, seq0, h0);

        let r = fifo.reserve_recv(1, 0);
        prop_assert_eq!(r, seq0);
        // Any number of subsequent sends pile up behind the reservation.
        for _ in 0..later {
            let seq = fifo.next_send_seq(1, 0);
            let h = slab.insert(seq);
            fifo.enqueue(1, 0, seq, h);
            if rng.gen_bool(0.3) {
                // Wildcard head, if any, is never the reserved message.
                for (_, h) in fifo.heads(0) {
                    prop_assert!(h != h0, "reserved message leaked as a head");
                }
            }
        }
        let taken = fifo.take(1, 0, r).expect("reservation survives later sends");
        prop_assert_eq!(taken, h0);
        prop_assert_eq!(slab.remove(taken), Some(seq0));
    }
}
