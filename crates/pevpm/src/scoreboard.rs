//! Slab storage and per-pair FIFO indexing for the contention scoreboard.
//!
//! The VM's scoreboard (§5's "contention scoreboard") used to be a plain
//! `Vec` of in-flight messages: every match-phase lookup was an O(n) scan,
//! removal was `swap_remove` (which moves an unrelated entry, so blocked
//! rendezvous senders had to reference messages positionally and carefully),
//! and per-pair FIFO heads were recomputed by scanning the whole board.
//! This module replaces that with two allocation-friendly structures:
//!
//! - [`Slab`]: a generational arena. Insert/remove are O(1) via a free
//!   list, and every entry is addressed by a [`Handle`] that stays valid
//!   however many *other* entries come and go — removing an entry bumps its
//!   slot's generation, so stale handles are detected instead of silently
//!   aliasing a new message.
//! - [`PairFifo`]: the per-(sender → destination) message-sequence index.
//!   It owns the send/receive sequence counters and, per pair, a queue of
//!   `(seq, Handle)` in send order, so a directed receive finds its message
//!   by binary search on its reserved sequence number and a wildcard
//!   receive enumerates exactly the per-pair FIFO heads — no full-board
//!   scans anywhere.
//!
//! Both types are deterministic: iteration orders are slot order
//! ([`Slab::iter`]) and ascending sender rank ([`PairFifo::heads`]), with
//! no dependence on hashing or insertion history beyond the FIFO semantics
//! themselves.

use std::collections::VecDeque;

/// A stable reference to one [`Slab`] entry.
///
/// Handles are plain `Copy` data. A handle is invalidated only by removing
/// *its own* entry (which bumps the slot generation); insertions and
/// removals elsewhere never move or alias it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handle {
    idx: u32,
    gen: u32,
}

impl std::fmt::Display for Handle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}v{}", self.idx, self.gen)
    }
}

struct Slot<T, S> {
    gen: u32,
    val: Option<T>,
    side: S,
}

/// A generational slab: O(1) insert and remove with stable [`Handle`]s.
///
/// Each slot also carries side storage `S` that outlives its entries: the
/// VM writes a message's lane times there in place, so entries stay small
/// and the storage grows with the slab, in its allocation, never per entry.
pub struct Slab<T, S = ()> {
    slots: Vec<Slot<T, S>>,
    free: Vec<u32>,
    len: usize,
}

impl<T, S: Default> Default for Slab<T, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: std::fmt::Debug, S: Default> std::fmt::Debug for Slab<T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<T, S: Default> Slab<T, S> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a value, reusing a free slot (and its side storage, as the
    /// last occupant left it) if one exists. O(1).
    pub fn insert(&mut self, val: T) -> Handle {
        self.len += 1;
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            debug_assert!(slot.val.is_none());
            slot.val = Some(val);
            Handle { idx, gen: slot.gen }
        } else {
            let idx = u32::try_from(self.slots.len()).expect("slab capacity exceeds u32");
            self.slots.push(Slot {
                gen: 0,
                val: Some(val),
                side: S::default(),
            });
            Handle { idx, gen: 0 }
        }
    }

    /// Remove and return the entry behind `h`, invalidating `h` (and any
    /// copy of it). Returns `None` for stale or never-valid handles. O(1).
    pub fn remove(&mut self, h: Handle) -> Option<T> {
        let slot = self.slots.get_mut(h.idx as usize)?;
        if slot.gen != h.gen || slot.val.is_none() {
            return None;
        }
        let val = slot.val.take();
        // Bump the generation so outstanding copies of `h` can never alias
        // a future occupant of this slot.
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(h.idx);
        self.len -= 1;
        val
    }

    /// Shared access to the entry behind `h`, if still live.
    pub fn get(&self, h: Handle) -> Option<&T> {
        self.entry(h).map(|(val, _)| val)
    }

    /// Shared access to the entry behind `h`, if still live, and to its
    /// slot's side storage.
    pub fn entry(&self, h: Handle) -> Option<(&T, &S)> {
        let slot = self.slots.get(h.idx as usize)?;
        if slot.gen != h.gen {
            return None;
        }
        Some((slot.val.as_ref()?, &slot.side))
    }

    /// Mutable access to the entry behind `h`, if still live, and to its
    /// slot's side storage.
    pub fn entry_mut(&mut self, h: Handle) -> Option<(&mut T, &mut S)> {
        let slot = self.slots.get_mut(h.idx as usize)?;
        if slot.gen != h.gen {
            return None;
        }
        Some((slot.val.as_mut()?, &mut slot.side))
    }

    /// True if `h` still refers to a live entry.
    pub fn contains(&self, h: Handle) -> bool {
        self.get(h).is_some()
    }

    /// Iterate live entries in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Handle, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.val.as_ref().map(|v| {
                (
                    Handle {
                        idx: i as u32,
                        gen: s.gen,
                    },
                    v,
                )
            })
        })
    }
}

/// Per-pair state: monotone sequence counters plus the in-flight queue.
#[derive(Debug, Default, Clone)]
struct PairState {
    /// Next sequence number a send from this pair will take.
    send_seq: u64,
    /// Next sequence number a receive will reserve — and, equivalently, the
    /// pair's current wildcard FIFO head. A single counter serves both
    /// roles: directed receives reserve slots in post order, and a wildcard
    /// receive consumes exactly the first *unreserved* message.
    recv_seq: u64,
    /// In-flight messages of this pair in send order: `(seq, handle)`,
    /// strictly ascending in `seq`.
    queue: VecDeque<(u64, Handle)>,
}

/// The per-(sender, destination) FIFO index over a message [`Slab`].
///
/// Sequence numbers are per ordered pair, exactly matching MPI's
/// non-overtaking guarantee: messages between a given sender and receiver
/// match in send order, while messages of different pairs are unordered.
#[derive(Debug, Clone)]
pub struct PairFifo {
    /// Indexed by destination rank: each sender seen so far, sorted, with
    /// its pair's state — wildcard enumeration is in ascending sender
    /// order, whatever the message history, and no tree node per pair.
    by_dest: Vec<Vec<(usize, PairState)>>,
}

impl PairFifo {
    /// An empty index for `nprocs` destinations.
    pub fn new(nprocs: usize) -> Self {
        PairFifo {
            by_dest: vec![Vec::new(); nprocs],
        }
    }

    fn pair(&mut self, from: usize, to: usize) -> &mut PairState {
        let senders = &mut self.by_dest[to];
        let i = senders.binary_search_by_key(&from, |&(f, _)| f);
        let i = i.unwrap_or_else(|i| {
            senders.insert(i, (from, PairState::default()));
            i
        });
        &mut senders[i].1
    }

    /// The state of a pair already seen; unlike [`PairFifo::pair`], never
    /// creates one.
    fn find(&mut self, from: usize, to: usize) -> Option<&mut PairState> {
        let senders = &mut self.by_dest[to];
        let i = senders.binary_search_by_key(&from, |&(f, _)| f).ok()?;
        Some(&mut senders[i].1)
    }

    /// Allocate the next send sequence number for `from → to`.
    pub fn next_send_seq(&mut self, from: usize, to: usize) -> u64 {
        let s = self.pair(from, to);
        let v = s.send_seq;
        s.send_seq += 1;
        v
    }

    /// Reserve the next receive slot for `from → to` (a directed receive or
    /// a nonblocking-receive post), returning the sequence number the
    /// matching message will carry.
    pub fn reserve_recv(&mut self, from: usize, to: usize) -> u64 {
        let s = self.pair(from, to);
        let v = s.recv_seq;
        s.recv_seq += 1;
        v
    }

    /// Record an in-flight message. `seq` must come from
    /// [`PairFifo::next_send_seq`] for the same pair, so queues stay
    /// strictly ascending.
    pub fn enqueue(&mut self, from: usize, to: usize, seq: u64, h: Handle) {
        let s = self.pair(from, to);
        debug_assert!(s.queue.back().is_none_or(|&(last, _)| last < seq));
        s.queue.push_back((seq, h));
    }

    /// Find and remove the in-flight message `from → to` with sequence
    /// number `seq`. O(log queue) search; the hit is usually the front, but
    /// nonblocking-receive reservations can leave it mid-queue.
    pub fn take(&mut self, from: usize, to: usize, seq: u64) -> Option<Handle> {
        let s = self.find(from, to)?;
        let i = s.queue.binary_search_by_key(&seq, |&(q, _)| q).ok()?;
        s.queue.remove(i).map(|(_, h)| h)
    }

    /// The wildcard candidates at destination `to`: for each sender pair,
    /// the in-flight message (if any) whose sequence number equals the
    /// pair's receive counter — i.e. the first message not already reserved
    /// by a directed receive. Yields `(sender, handle)` in ascending sender
    /// order; at most one candidate per sender.
    pub fn heads(&self, to: usize) -> impl Iterator<Item = (usize, Handle)> + '_ {
        self.by_dest[to].iter().filter_map(|(from, s)| {
            let i = s
                .queue
                .binary_search_by_key(&s.recv_seq, |&(q, _)| q)
                .ok()?;
            Some((*from, s.queue[i].1))
        })
    }

    /// Iterate every in-flight message in deterministic order — ascending
    /// destination rank, then ascending sender rank, then send order —
    /// yielding `(from, to, handle)`. The DAG scheduler uses this to hand
    /// a finished component's unmatched sends to downstream components.
    pub fn in_flight(&self) -> impl Iterator<Item = (usize, usize, Handle)> + '_ {
        self.by_dest.iter().enumerate().flat_map(|(to, senders)| {
            senders
                .iter()
                .flat_map(move |(from, s)| s.queue.iter().map(move |&(_, h)| (*from, to, h)))
        })
    }

    /// Consume the wildcard head of pair `from → to`: advance the receive
    /// counter past it and drop it from the queue. Returns the consumed
    /// handle (`None` if the pair has no head in flight — callers pass a
    /// pair previously yielded by [`PairFifo::heads`]).
    pub fn consume_head(&mut self, from: usize, to: usize) -> Option<Handle> {
        let s = self.find(from, to)?;
        let seq = s.recv_seq;
        s.recv_seq += 1;
        let i = s.queue.binary_search_by_key(&seq, |&(q, _)| q).ok()?;
        s.queue.remove(i).map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_insert_remove_roundtrip() {
        let mut s: Slab<&str> = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(a), None, "removed handle must be dead");
        assert_eq!(s.get(b), Some(&"b"), "unrelated handle unaffected");
    }

    #[test]
    fn slab_stale_handle_cannot_alias_reused_slot() {
        let mut s: Slab<u32> = Slab::new();
        let a = s.insert(1);
        s.remove(a);
        let b = s.insert(2); // reuses slot 0 with a bumped generation
        assert_eq!(s.get(a), None);
        assert_eq!(s.remove(a), None);
        assert_eq!(s.get(b), Some(&2));
        assert_ne!(a, b);
    }

    #[test]
    fn slab_side_storage_stays_with_its_slot() {
        let mut s: Slab<u32, Vec<u32>> = Slab::new();
        let a = s.insert(1);
        let (v, side) = s.entry_mut(a).unwrap();
        (*v, *side) = (2, vec![7]);
        assert_eq!(s.get(a), Some(&2), "the entry was written in place");
        s.remove(a);
        assert!(s.entry_mut(a).is_none(), "a dead handle reaches nothing");
        // The next occupant of the slot finds what the last one left.
        let b = s.insert(3);
        assert_eq!(s.entry_mut(b).unwrap().1, &vec![7]);
    }

    #[test]
    fn slab_iter_is_slot_ordered_and_live_only() {
        let mut s: Slab<u32> = Slab::new();
        let hs: Vec<Handle> = (0..5).map(|i| s.insert(i)).collect();
        s.remove(hs[1]);
        s.remove(hs[3]);
        let vals: Vec<u32> = s.iter().map(|(_, &v)| v).collect();
        assert_eq!(vals, vec![0, 2, 4]);
    }

    #[test]
    fn fifo_directed_take_matches_in_order() {
        let mut s: Slab<u32> = Slab::new();
        let mut f = PairFifo::new(2);
        for v in 0..3 {
            let seq = f.next_send_seq(0, 1);
            assert_eq!(seq, v as u64);
            let h = s.insert(v);
            f.enqueue(0, 1, seq, h);
        }
        // Receives reserve 0, 1, 2 and match the sends in order.
        for want in 0..3u32 {
            let seq = f.reserve_recv(0, 1);
            let h = f.take(0, 1, seq).expect("message in flight");
            assert_eq!(s.remove(h), Some(want));
        }
        assert!(s.is_empty());
        assert_eq!(f.take(0, 1, 99), None);
    }

    #[test]
    fn fifo_take_finds_mid_queue_reservations() {
        // An irecv reserves seq 0; a later blocking recv reserves seq 1 and
        // must find message 1 even though message 0 is still queued.
        let mut s: Slab<u32> = Slab::new();
        let mut f = PairFifo::new(2);
        for v in 0..2 {
            let seq = f.next_send_seq(0, 1);
            f.enqueue(0, 1, seq, s.insert(v));
        }
        let first = f.reserve_recv(0, 1); // the irecv's slot
        let second = f.reserve_recv(0, 1);
        let h = f.take(0, 1, second).expect("mid-queue hit");
        assert_eq!(s.remove(h), Some(1));
        let h = f.take(0, 1, first).expect("head still there");
        assert_eq!(s.remove(h), Some(0));
    }

    #[test]
    fn fifo_heads_skip_reserved_and_order_by_sender() {
        let mut s: Slab<(usize, u32)> = Slab::new();
        let mut f = PairFifo::new(4);
        // Senders 2 and 1 each have two messages in flight to 0.
        for from in [2usize, 1] {
            for v in 0..2 {
                let seq = f.next_send_seq(from, 0);
                f.enqueue(from, 0, seq, s.insert((from, v)));
            }
        }
        let heads: Vec<usize> = f.heads(0).map(|(from, _)| from).collect();
        assert_eq!(heads, vec![1, 2], "ascending sender order");
        // Reserving sender 1's head (a directed receive) removes it from
        // the wildcard candidates: the directed receive will consume it, so
        // the wildcard's candidate advances to the *second* message.
        let seq = f.reserve_recv(1, 0);
        let (_, h) = f.heads(0).find(|&(from, _)| from == 1).unwrap();
        assert_eq!(s.get(h), Some(&(1, 1)), "head advanced past reservation");
        // The reserved message is still in flight for the directed match.
        assert!(f.take(1, 0, seq).is_some());
        // Consuming the advanced head empties sender 1's candidates.
        assert_eq!(f.consume_head(1, 0), Some(h));
        assert_eq!(f.heads(0).map(|(from, _)| from).collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn fifo_consume_head_advances_fifo() {
        let mut s: Slab<u32> = Slab::new();
        let mut f = PairFifo::new(2);
        for v in 0..2 {
            let seq = f.next_send_seq(1, 0);
            f.enqueue(1, 0, seq, s.insert(v));
        }
        let (_, h0) = f.heads(0).next().unwrap();
        assert_eq!(f.consume_head(1, 0), Some(h0));
        assert_eq!(s.remove(h0), Some(0));
        let (_, h1) = f.heads(0).next().unwrap();
        assert_eq!(f.consume_head(1, 0), Some(h1));
        assert_eq!(s.remove(h1), Some(1));
        assert_eq!(f.heads(0).count(), 0);
    }
}
