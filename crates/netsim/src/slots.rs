//! A slot store with generation-checked keys.
//!
//! Simulations hand out one record per transfer, message or request, and
//! a long run makes millions of them while only a handful are alive at a
//! time. [`Slots`] keeps its memory proportional to the number alive:
//! removing a value frees its slot for the next insert. A key is
//! `generation << 32 | slot`, and removing a value bumps its slot's
//! generation, so a key that outlives its value — a retransmission timer
//! of a finished transfer, a request handle waited on twice — finds
//! nothing instead of the slot's next tenant.

use std::ops::{Index, IndexMut};

/// The slot index a key addresses: unique among live keys and below
/// [`Slots::slots`], so usable as a dense index by a side table.
pub fn slot_of(key: u64) -> usize {
    (key & 0xffff_ffff) as usize
}

fn generation_of(key: u64) -> u32 {
    (key >> 32) as u32
}

struct Entry<T> {
    /// How many values have been removed from this slot.
    generation: u32,
    value: Option<T>,
}

/// Values addressed by recyclable, generation-checked `u64` keys.
pub struct Slots<T> {
    entries: Vec<Entry<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots {
            entries: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slots<T> {
    /// An empty store (no allocation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Store `value` in a free slot (a new one if none is free) and return
    /// its key. Keys of never-recycled slots count up from zero.
    pub fn insert(&mut self, value: T) -> u64 {
        let slot = match self.free.pop() {
            Some(slot) => slot as usize,
            None => {
                assert!(self.entries.len() < u32::MAX as usize, "slot store full");
                self.entries.push(Entry {
                    generation: 0,
                    value: None,
                });
                self.entries.len() - 1
            }
        };
        let e = &mut self.entries[slot];
        e.value = Some(value);
        (e.generation as u64) << 32 | slot as u64
    }

    /// The value `key` was issued for, unless it has been removed.
    pub fn get(&self, key: u64) -> Option<&T> {
        match self.entries.get(slot_of(key)) {
            Some(e) if e.generation == generation_of(key) => e.value.as_ref(),
            _ => None,
        }
    }

    /// Mutable access to the value `key` was issued for.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        match self.entries.get_mut(slot_of(key)) {
            Some(e) if e.generation == generation_of(key) => e.value.as_mut(),
            _ => None,
        }
    }

    /// Whether `key`'s value is still stored.
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Take `key`'s value out and free its slot; `None` if already gone.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let slot = slot_of(key);
        let e = self.entries.get_mut(slot)?;
        if e.generation != generation_of(key) {
            return None;
        }
        let value = e.value.take()?;
        e.generation = e.generation.wrapping_add(1);
        self.free.push(slot as u32);
        Some(value)
    }

    /// Slots ever allocated: the most values that were stored at once.
    pub fn slots(&self) -> usize {
        self.entries.len()
    }
}

impl<T> Index<u64> for Slots<T> {
    type Output = T;

    fn index(&self, key: u64) -> &T {
        match self.get(key) {
            Some(value) => value,
            None => panic!("slot key outlived its value"),
        }
    }
}

impl<T> IndexMut<u64> for Slots<T> {
    fn index_mut(&mut self, key: u64) -> &mut T {
        match self.get_mut(key) {
            Some(value) => value,
            None => panic!("slot key outlived its value"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_slots_count_up_and_removed_ones_are_reused() {
        let mut s = Slots::new();
        let (a, b, c) = (s.insert('a'), s.insert('b'), s.insert('c'));
        assert_eq!([a, b, c], [0, 1, 2]);
        assert_eq!(s.remove(b), Some('b'));
        let d = s.insert('d');
        assert_eq!(slot_of(d), 1);
        assert_ne!(d, b);
        assert_eq!(s[d], 'd');
        assert_eq!(s.slots(), 3);
    }

    #[test]
    fn stale_keys_find_nothing() {
        let mut s = Slots::new();
        let old = s.insert(1);
        s.remove(old);
        assert!(!s.contains(old), "free slot answered a stale key");
        let new = s.insert(2);
        assert_eq!(s.get(old), None);
        assert_eq!(s.get_mut(old), None);
        assert_eq!(s.remove(old), None);
        assert_eq!(s.get(new), Some(&2));
        assert_eq!(s.get(7), None, "key of a slot that never existed");
    }

    #[test]
    #[should_panic(expected = "outlived")]
    fn indexing_with_a_stale_key_panics() {
        let mut s = Slots::new();
        let k = s.insert(1);
        s.remove(k);
        s.insert(2);
        let _ = s[k];
    }

    #[test]
    fn churn_stays_bounded() {
        let mut s = Slots::new();
        let mut live = std::collections::VecDeque::new();
        for i in 0..10_000u32 {
            live.push_back(s.insert(i));
            if live.len() > 5 {
                let k = live.pop_front().unwrap();
                assert_eq!(s.remove(k), Some(i - 5));
            }
        }
        assert_eq!(s.slots(), 6);
    }
}
