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
//!   by its reserved sequence number and a wildcard receive enumerates
//!   exactly the per-pair FIFO heads — no full-board scans anywhere.
//!
//! A pair is named by a stable [`PairId`], issued the first time the pair
//! is seen ([`PairFifo::id`], a binary search of the destination's sorted
//! senders) and addressing an append-only table of pair states, so it never
//! moves however many pairs come after it. The VM looks a pair up once per
//! process and endpoint and keeps the id; sends ([`PairFifo::push`]),
//! reservations ([`PairFifo::reserve`]) and matches ([`PairFifo::take`],
//! which looks at the queue front before it searches) then index the table
//! directly. Each destination's sorted run holds `(sender, id)`, so the
//! orders the wildcard and DAG paths read are unchanged by ids.
//!
//! Both types are deterministic: iteration orders are slot order
//! ([`Slab::iter`]), ascending sender rank ([`PairFifo::heads`]) and
//! destination, then sender, then send order ([`PairFifo::in_flight`]),
//! with no dependence on hashing, on the order pairs were first seen or on
//! their ids.

use std::collections::VecDeque;

/// `v` emptied, as a vector of another element type that reuses its
/// buffer: collecting from an emptied vector's own iterator builds the new
/// vector in place where the element layouts agree — the same type at
/// another lifetime, say — and allocates nothing. (Elsewhere it allocates
/// a new one, which is no less correct.)
pub(crate) fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter()
        .map(|_| unreachable!("the vector is empty"))
        .collect()
}

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

    /// Remove every entry, keeping the allocations: the slab then hands
    /// out exactly the handles a new one would.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.len = 0;
    }

    /// The slab emptied, as one of another entry and side type that keeps
    /// its allocations (where the slot layouts agree, as they do for the
    /// same types at another lifetime).
    pub fn recycle<U, R: Default>(self) -> Slab<U, R> {
        Slab {
            slots: recycle(self.slots),
            free: recycle(self.free),
            len: 0,
        }
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

impl PairState {
    /// Where message `seq` sits in the queue. It is nearly always the
    /// front, so that is looked at first; nonblocking-receive reservations
    /// can leave it mid-queue (O(log queue) search).
    fn position(&self, seq: u64) -> Option<usize> {
        match self.queue.front() {
            Some(&(q, _)) if q == seq => Some(0),
            _ => self.queue.binary_search_by_key(&seq, |&(q, _)| q).ok(),
        }
    }
}

/// The id of one (sender, destination) pair in a [`PairFifo`]: issued the
/// first time the pair is named ([`PairFifo::id`]) and never moved, so a
/// caller that names the same pair again can keep it instead of searching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PairId(u32);

/// The per-(sender, destination) FIFO index over a message [`Slab`].
///
/// Sequence numbers are per ordered pair, exactly matching MPI's
/// non-overtaking guarantee: messages between a given sender and receiver
/// match in send order, while messages of different pairs are unordered.
#[derive(Debug, Clone)]
pub struct PairFifo {
    /// Every pair seen so far, indexed by its [`PairId`]: append-only, so
    /// an id stays valid for the life of the index.
    states: Vec<PairState>,
    /// Each pair as `(sender, id)`, in one buffer for the whole index
    /// rather than one per destination: each destination owns a run of it,
    /// its senders sorted, so wildcard enumeration is in ascending sender
    /// order whatever the message history.
    senders: Vec<(usize, PairId)>,
    /// Each destination's run of `senders`.
    runs: Vec<Run>,
    /// Emptied queues of the pairs a [`PairFifo::clear`] dropped, handed
    /// to the next pairs issued so that a reused index allocates none.
    spare: Vec<VecDeque<(u64, Handle)>>,
}

/// A destination's senders: `len` sorted entries at `start`, with room for
/// `cap` before the next run. A new sender shifts only its own run; a full
/// run moves to the end of the buffer with twice the room, leaving empty
/// entries behind, so a new pair costs O(senders of that destination)
/// amortised, as a `Vec` per destination did. Runs hold ids, not states:
/// relocating one moves no pair's state.
#[derive(Debug, Default, Clone, Copy)]
struct Run {
    start: usize,
    len: usize,
    cap: usize,
}

impl PairFifo {
    /// An empty index for `nprocs` destinations, with room for two
    /// senders each.
    pub fn new(nprocs: usize) -> Self {
        PairFifo {
            states: Vec::with_capacity(2 * nprocs),
            senders: Vec::with_capacity(2 * nprocs),
            runs: vec![Run::default(); nprocs],
            spare: Vec::new(),
        }
    }

    /// Empty the index and make it one for `nprocs` destinations, as
    /// [`PairFifo::new`] would, keeping every allocation, pair queues
    /// included. Ids are issued from zero again.
    pub fn clear(&mut self, nprocs: usize) {
        self.spare.extend(self.states.drain(..).map(|state| {
            let mut queue = state.queue;
            queue.clear();
            queue
        }));
        self.states.reserve(2 * nprocs);
        self.senders.clear();
        self.senders.reserve(2 * nprocs);
        self.runs.clear();
        self.runs.resize(nprocs, Run::default());
    }

    /// Destination `to`'s senders, sorted, with their pairs' ids.
    fn run(&self, to: usize) -> &[(usize, PairId)] {
        let run = self.runs[to];
        &self.senders[run.start..run.start + run.len]
    }

    /// The id of pair `from → to`, issued on first sight. O(log senders of
    /// `to`) for a pair already seen.
    pub fn id(&mut self, from: usize, to: usize) -> PairId {
        match self.run(to).binary_search_by_key(&from, |&(f, _)| f) {
            Ok(i) => self.run(to)[i].1,
            Err(i) => {
                let id = PairId(u32::try_from(self.states.len()).expect("pairs exceed u32"));
                self.states.push(PairState {
                    queue: self.spare.pop().unwrap_or_default(),
                    ..PairState::default()
                });
                self.insert(to, i, (from, id));
                id
            }
        }
    }

    /// The id of a pair already seen; unlike [`PairFifo::id`], never
    /// issues one.
    fn find(&self, from: usize, to: usize) -> Option<PairId> {
        let run = self.run(to);
        let i = run.binary_search_by_key(&from, |&(f, _)| f).ok()?;
        Some(run[i].1)
    }

    /// Add `entry` at position `i` of destination `to`'s run.
    fn insert(&mut self, to: usize, i: usize, entry: (usize, PairId)) {
        let mut run = self.runs[to];
        if run.len == run.cap {
            let start = self.senders.len();
            let cap = (2 * run.cap).max(2);
            self.senders.resize(start + cap, (0, PairId(0)));
            self.senders
                .copy_within(run.start..run.start + run.len, start);
            run.start = start;
            run.cap = cap;
        }
        let at = run.start + i;
        self.senders.copy_within(at..run.start + run.len, at + 1);
        self.senders[at] = entry;
        run.len += 1;
        self.runs[to] = run;
    }

    fn state(&mut self, id: PairId) -> &mut PairState {
        &mut self.states[id.0 as usize]
    }

    /// Record an in-flight message of pair `id`, returning the send
    /// sequence number it takes.
    pub fn push(&mut self, id: PairId, h: Handle) -> u64 {
        let s = self.state(id);
        let seq = s.send_seq;
        s.send_seq += 1;
        s.queue.push_back((seq, h));
        seq
    }

    /// Reserve the next receive slot of pair `id` (a directed receive or a
    /// nonblocking-receive post), returning the sequence number the
    /// matching message carries.
    pub fn reserve(&mut self, id: PairId) -> u64 {
        let s = self.state(id);
        let seq = s.recv_seq;
        s.recv_seq += 1;
        seq
    }

    /// Find and remove the in-flight message of pair `id` with sequence
    /// number `seq`.
    pub fn take(&mut self, id: PairId, seq: u64) -> Option<Handle> {
        let s = self.state(id);
        let i = s.position(seq)?;
        s.queue.remove(i).map(|(_, h)| h)
    }

    /// The wildcard candidates at destination `to`: for each sender pair,
    /// the in-flight message (if any) whose sequence number equals the
    /// pair's receive counter — i.e. the first message not already reserved
    /// by a directed receive. Yields `(sender, handle)` in ascending sender
    /// order; at most one candidate per sender.
    pub fn heads(&self, to: usize) -> impl Iterator<Item = (usize, Handle)> + '_ {
        self.run(to).iter().filter_map(|&(from, id)| {
            let s = &self.states[id.0 as usize];
            Some((from, s.queue[s.position(s.recv_seq)?].1))
        })
    }

    /// Iterate every in-flight message in deterministic order — ascending
    /// destination rank, then ascending sender rank, then send order —
    /// yielding `(from, to, handle)`. The DAG scheduler uses this to hand
    /// a finished component's unmatched sends to downstream components.
    pub fn in_flight(&self) -> impl Iterator<Item = (usize, usize, Handle)> + '_ {
        (0..self.runs.len()).flat_map(move |to| {
            self.run(to).iter().flat_map(move |&(from, id)| {
                self.states[id.0 as usize]
                    .queue
                    .iter()
                    .map(move |&(_, h)| (from, to, h))
            })
        })
    }

    /// Consume the wildcard head of pair `from → to`: advance the receive
    /// counter past it and drop it from the queue. Returns the consumed
    /// handle (`None` if the pair has no head in flight — callers pass a
    /// pair previously yielded by [`PairFifo::heads`]).
    pub fn consume_head(&mut self, from: usize, to: usize) -> Option<Handle> {
        let id = self.find(from, to)?;
        let seq = self.reserve(id);
        self.take(id, seq)
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
        let id = f.id(0, 1);
        for v in 0..3 {
            let h = s.insert(v);
            assert_eq!(f.push(id, h), v as u64);
        }
        // Receives reserve 0, 1, 2 and match the sends in order.
        for want in 0..3u32 {
            let seq = f.reserve(id);
            let h = f.take(id, seq).expect("message in flight");
            assert_eq!(s.remove(h), Some(want));
        }
        assert!(s.is_empty());
        assert_eq!(f.take(id, 99), None);
        assert_eq!(f.id(0, 1), id, "a pair keeps its id");
    }

    #[test]
    fn fifo_take_finds_mid_queue_reservations() {
        // An irecv reserves seq 0; a later blocking recv reserves seq 1 and
        // must find message 1 even though message 0 is still queued.
        let mut s: Slab<u32> = Slab::new();
        let mut f = PairFifo::new(2);
        let id = f.id(0, 1);
        for v in 0..2 {
            f.push(id, s.insert(v));
        }
        let first = f.reserve(id); // the irecv's slot
        let second = f.reserve(id);
        let h = f.take(id, second).expect("mid-queue hit");
        assert_eq!(s.remove(h), Some(1));
        let h = f.take(id, first).expect("head still there");
        assert_eq!(s.remove(h), Some(0));
    }

    #[test]
    fn fifo_heads_skip_reserved_and_order_by_sender() {
        let mut s: Slab<(usize, u32)> = Slab::new();
        let mut f = PairFifo::new(4);
        // Senders 2 and 1 each have two messages in flight to 0.
        for from in [2usize, 1] {
            let id = f.id(from, 0);
            for v in 0..2 {
                f.push(id, s.insert((from, v)));
            }
        }
        let heads: Vec<usize> = f.heads(0).map(|(from, _)| from).collect();
        assert_eq!(heads, vec![1, 2], "ascending sender order");
        // Reserving sender 1's head (a directed receive) removes it from
        // the wildcard candidates: the directed receive will consume it, so
        // the wildcard's candidate advances to the *second* message.
        let id = f.id(1, 0);
        let seq = f.reserve(id);
        let (_, h) = f.heads(0).find(|&(from, _)| from == 1).unwrap();
        assert_eq!(s.get(h), Some(&(1, 1)), "head advanced past reservation");
        // The reserved message is still in flight for the directed match.
        assert!(f.take(id, seq).is_some());
        // Consuming the advanced head empties sender 1's candidates.
        assert_eq!(f.consume_head(1, 0), Some(h));
        assert_eq!(f.heads(0).map(|(from, _)| from).collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn fifo_consume_head_advances_fifo() {
        let mut s: Slab<u32> = Slab::new();
        let mut f = PairFifo::new(2);
        let id = f.id(1, 0);
        for v in 0..2 {
            f.push(id, s.insert(v));
        }
        let (_, h0) = f.heads(0).next().unwrap();
        assert_eq!(f.consume_head(1, 0), Some(h0));
        assert_eq!(s.remove(h0), Some(0));
        let (_, h1) = f.heads(0).next().unwrap();
        assert_eq!(f.consume_head(1, 0), Some(h1));
        assert_eq!(s.remove(h1), Some(1));
        assert_eq!(f.heads(0).count(), 0);
    }

    #[test]
    fn fifo_pairs_keep_their_state_as_runs_grow_and_move() {
        // Every pair of 9 ranks, in a scrambled order, each with a message
        // in flight: runs fill, move and grow between the sends, and every
        // pair keeps the id it was issued.
        let n = 9;
        let mut s: Slab<(usize, usize)> = Slab::new();
        let mut f = PairFifo::new(n);
        let mut ids = Vec::new();
        for k in 0..n * n {
            let (from, to) = (k % n, (4 * (k / n) + 2 * k) % n);
            let id = f.id(from, to);
            f.push(id, s.insert((from, to)));
            ids.push((from, to, id));
        }
        for &(from, to, id) in &ids {
            assert_eq!(f.id(from, to), id, "{from} → {to} moved");
        }
        let seen: Vec<(usize, usize)> = f
            .in_flight()
            .map(|(from, to, h)| {
                assert_eq!(s.get(h), Some(&(from, to)));
                (to, from)
            })
            .collect();
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(seen, sorted, "ascending destination, then sender");
        assert_eq!(seen.len(), n * n, "one message per pair");
        for to in 0..n {
            let senders: Vec<usize> = f.heads(to).map(|(from, _)| from).collect();
            let want: Vec<usize> = seen.iter().filter(|p| p.0 == to).map(|p| p.1).collect();
            assert_eq!(senders, want);
        }
        // A run that doubles leaves at most as much behind as it holds.
        assert!(
            f.senders.len() <= 4 * seen.len(),
            "{} entries",
            f.senders.len()
        );
        assert_eq!(f.states.len(), seen.len(), "one state per pair");
    }
}
