//! Property tests for the scoreboard slab and per-pair FIFO index: handles
//! stay stable under arbitrary insert/remove interleavings (a reused slot
//! never resurrects a stale handle), and per-(sender, receiver) message
//! order is preserved under any mix of directed reservations and wildcard
//! head consumption — the invariants the VM's match phase relies on.

use pevpm::scoreboard::{Handle, PairFifo, PairId, Slab};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// The by-pair reference model of one (sender, destination) pair: its
/// counters and its queue of `(seq, value)` in send order.
#[derive(Default)]
struct RefPair {
    send_seq: u64,
    recv_seq: u64,
    queue: VecDeque<(u64, u64)>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings of `push`, `reserve`, `take`, `heads` and
    /// `consume_head` over every pair of a few processes, against a
    /// reference `VecDeque` per (sender, destination): pairs appear in any
    /// order, so senders join a destination mid-stream and its run
    /// relocates, yet an issued id never changes, a reservation taken out
    /// of order is found mid-queue, and `heads` and `in_flight` enumerate
    /// exactly the reference's order.
    #[test]
    fn pair_ids_index_like_a_queue_per_pair(
        seed in 0u64..1_000_000,
        nprocs in 2usize..7,
        steps in 1usize..300,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut slab: Slab<u64> = Slab::new();
        let mut fifo = PairFifo::new(nprocs);
        // Keyed (to, from): the reference's iteration order is the order
        // `in_flight` promises.
        let mut reference: BTreeMap<(usize, usize), RefPair> = BTreeMap::new();
        let mut ids: HashMap<(usize, usize), PairId> = HashMap::new();
        let mut reserved: Vec<(usize, usize, u64)> = Vec::new();
        let mut next_value = 0u64;

        for _ in 0..steps {
            let (from, to) = (rng.gen_range(0..nprocs), rng.gen_range(0..nprocs));
            let id = fifo.id(from, to);
            prop_assert_eq!(*ids.entry((from, to)).or_insert(id), id, "{} → {} moved", from, to);
            let pair = reference.entry((to, from)).or_default();
            match rng.gen_range(0..5usize) {
                0 | 1 => {
                    let seq = fifo.push(id, slab.insert(next_value));
                    prop_assert_eq!(seq, pair.send_seq);
                    pair.queue.push_back((seq, next_value));
                    pair.send_seq += 1;
                    next_value += 1;
                }
                2 => {
                    let seq = fifo.reserve(id);
                    prop_assert_eq!(seq, pair.recv_seq);
                    pair.recv_seq += 1;
                    reserved.push((from, to, seq));
                }
                3 if !reserved.is_empty() => {
                    // Any outstanding reservation, not the oldest: takes
                    // land mid-queue.
                    let (from, to, seq) = reserved[rng.gen_range(0..reserved.len())];
                    let pair = reference.get_mut(&(to, from)).expect("reserved pairs exist");
                    let want = pair
                        .queue
                        .iter()
                        .position(|&(q, _)| q == seq)
                        .and_then(|i| pair.queue.remove(i))
                        .map(|(_, value)| value);
                    let got = fifo
                        .take(ids[&(from, to)], seq)
                        .map(|h| slab.remove(h).expect("taken handles are live"));
                    prop_assert_eq!(got, want, "take({} → {}, {})", from, to, seq);
                    if got.is_some() {
                        reserved.retain(|&r| r != (from, to, seq));
                    }
                }
                _ => {
                    // The wildcard view of `to`, then consume one head.
                    let want: Vec<(usize, u64)> = reference
                        .range((to, 0)..(to + 1, 0))
                        .filter_map(|(&(_, from), pair)| {
                            let &(_, value) = pair.queue.iter().find(|&&(q, _)| q == pair.recv_seq)?;
                            Some((from, value))
                        })
                        .collect();
                    let heads: Vec<(usize, Handle)> = fifo.heads(to).collect();
                    let got: Vec<(usize, u64)> = heads
                        .iter()
                        .map(|&(from, h)| (from, *slab.get(h).expect("heads are live")))
                        .collect();
                    prop_assert_eq!(&got, &want, "heads({})", to);
                    if let Some(&(from, h)) = heads.get(rng.gen_range(0..heads.len().max(1))) {
                        prop_assert_eq!(fifo.consume_head(from, to), Some(h));
                        slab.remove(h);
                        let pair = reference.get_mut(&(to, from)).expect("a head's pair exists");
                        let seq = pair.recv_seq;
                        pair.queue.retain(|&(q, _)| q != seq);
                        pair.recv_seq += 1;
                    }
                }
            }
            let walk: Vec<(usize, usize, u64)> = fifo
                .in_flight()
                .map(|(from, to, h)| (to, from, *slab.get(h).expect("in flight is live")))
                .collect();
            let want: Vec<(usize, usize, u64)> = reference
                .iter()
                .flat_map(|(&(to, from), pair)| pair.queue.iter().map(move |&(_, v)| (to, from, v)))
                .collect();
            prop_assert_eq!(walk, want, "in_flight");
        }
        prop_assert_eq!(slab.len(), reference.values().map(|p| p.queue.len()).sum::<usize>());
    }

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
                let h = slab.insert((from, sent[from]));
                let id = fifo.id(from, recv);
                let seq = fifo.push(id, h);
                prop_assert_eq!(seq, sent[from], "send seqs are dense per pair");
                sent[from] += 1;
            } else if can_recv {
                let expect = consumed[from];
                let h = if rng.gen_bool(0.5) {
                    // Directed receive: reserve the next in-order seq, then
                    // take it (possibly from mid-queue).
                    let id = fifo.id(from, recv);
                    let seq = fifo.reserve(id);
                    prop_assert_eq!(seq, expect, "reservation is in send order");
                    fifo.take(id, seq).expect("reserved message present")
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
            let id = fifo.id(from, recv);
            for seq in 0..=(k % 3) as u64 {
                prop_assert_eq!(fifo.push(id, slab.insert((from, seq))), seq);
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
        let id = fifo.id(1, 0);
        let h0 = slab.insert(0);
        let seq0 = fifo.push(id, h0);

        let r = fifo.reserve(id);
        prop_assert_eq!(r, seq0);
        // Any number of subsequent sends pile up behind the reservation.
        for _ in 0..later {
            let h = slab.insert(0);
            fifo.push(id, h);
            if rng.gen_bool(0.3) {
                // Wildcard head, if any, is never the reserved message.
                for (_, h) in fifo.heads(0) {
                    prop_assert!(h != h0, "reserved message leaked as a head");
                }
            }
        }
        let taken = fifo.take(id, r).expect("reservation survives later sends");
        prop_assert_eq!(taken, h0);
        prop_assert_eq!(slab.remove(taken), Some(seq0));
    }
}
