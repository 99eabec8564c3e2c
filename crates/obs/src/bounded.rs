//! Bounded, oldest-first containers: the one eviction policy behind every
//! runtime cache and log. Past its capacity the entry inserted *earliest*
//! goes first, and each eviction is counted (optionally mirrored into a
//! registry [`Counter`]).
//!
//! * [`FifoMap`] — a keyed map. Re-inserting a live key replaces its value
//!   but keeps its slot; a key removed and inserted again goes to the back.
//!   Removal is lazy: the key's queue slot is skipped when it reaches the
//!   front, and the queue is compacted once stale slots outnumber live
//!   entries, so it never holds more than `2 · max(len, 1)` slots.
//! * [`Ring`] — an append-only sequence.

use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::Arc;

use crate::Counter;

/// Eviction count plus its optional registry mirror.
#[derive(Debug, Default)]
struct Evictions {
    count: u64,
    mirror: Option<Arc<Counter>>,
}

impl Evictions {
    fn record(&mut self) {
        self.count += 1;
        if let Some(counter) = &self.mirror {
            counter.inc();
        }
    }
}

/// A map bounded at `capacity` live entries (`None` = unbounded) that
/// evicts in insertion order.
#[derive(Debug)]
pub struct FifoMap<K, V> {
    /// Live entries, each tagged with the sequence number of its slot.
    entries: HashMap<K, (u64, V)>,
    /// Insertion order. A slot whose sequence number no longer matches
    /// its key's live entry is stale and skipped.
    order: VecDeque<(u64, K)>,
    next_seq: u64,
    capacity: Option<usize>,
    evictions: Evictions,
}

impl<K: Eq + Hash + Clone, V> FifoMap<K, V> {
    /// An empty map bounded at `capacity` live entries.
    #[must_use]
    pub fn new(capacity: Option<usize>) -> Self {
        FifoMap {
            entries: HashMap::new(),
            order: VecDeque::new(),
            next_seq: 0,
            capacity,
            evictions: Evictions::default(),
        }
    }

    /// The bound on live entries (`None` = unbounded).
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Re-bounds the map, evicting the oldest entries at once if the new
    /// bound is already exceeded.
    pub fn set_capacity(&mut self, capacity: Option<usize>) {
        self.capacity = capacity;
        self.trim();
    }

    /// Mirrors every later eviction into `counter` (`None` detaches).
    pub fn set_eviction_mirror(&mut self, counter: Option<Arc<Counter>>) {
        self.evictions.mirror = counter;
    }

    /// Entries dropped by the capacity bound so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.count
    }

    /// Live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entry is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Length of the internal insertion-order queue, stale slots included
    /// (at most `2 · max(len, 1)`).
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.order.len()
    }

    /// The live value under `key`.
    #[must_use]
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.entries.get(key).map(|(_, v)| v)
    }

    /// Inserts `value` under `key`, evicting the oldest entries past the
    /// bound. A live key keeps its slot and returns its previous value.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.entries.entry(key) {
            Entry::Occupied(mut live) => Some(std::mem::replace(&mut live.get_mut().1, value)),
            Entry::Vacant(slot) => {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.order.push_back((seq, slot.key().clone()));
                slot.insert((seq, value));
                self.trim();
                None
            }
        }
    }

    /// Removes `key` (not counted as an eviction).
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let removed = self.entries.remove(key).map(|(_, v)| v);
        self.compact_if_sparse();
        removed
    }

    /// Keeps only the entries `keep` accepts; returns how many it dropped
    /// (not counted as evictions).
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(|k, (_, v)| keep(k, v));
        self.compact_if_sparse();
        before - self.entries.len()
    }

    /// Drops every entry (not counted as evictions).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }

    /// Live entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.order
            .iter()
            .filter_map(|(seq, key)| match self.entries.get(key) {
                Some((live, value)) if live == seq => Some((key, value)),
                _ => None,
            })
    }

    /// Evicts oldest live entries until the bound holds.
    fn trim(&mut self) {
        if let Some(cap) = self.capacity {
            while self.entries.len() > cap {
                let (seq, key) = self
                    .order
                    .pop_front()
                    .expect("every live entry has a queue slot");
                if let Entry::Occupied(slot) = self.entries.entry(key) {
                    if slot.get().0 == seq {
                        slot.remove();
                        self.evictions.record();
                    }
                }
            }
        }
        self.compact_if_sparse();
    }

    /// Drops stale queue slots once they outnumber the live entries.
    fn compact_if_sparse(&mut self) {
        if self.order.len() > 2 * self.entries.len().max(1) {
            let entries = &self.entries;
            self.order
                .retain(|(seq, key)| entries.get(key).is_some_and(|(live, _)| live == seq));
        }
    }
}

/// An append-only sequence bounded at `capacity` items that drops its
/// oldest items first. Capacity 0 keeps nothing: every push is counted as
/// an eviction.
#[derive(Debug)]
pub struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
    evictions: Evictions,
}

impl<T> Ring<T> {
    /// An empty ring bounded at `capacity` items.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Ring {
            items: VecDeque::new(),
            capacity,
            evictions: Evictions::default(),
        }
    }

    /// Re-bounds the ring, dropping the oldest items at once if the new
    /// bound is already exceeded.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.trim();
    }

    /// Mirrors every later eviction into `counter` (`None` detaches).
    pub fn set_eviction_mirror(&mut self, counter: Option<Arc<Counter>>) {
        self.evictions.mirror = counter;
    }

    /// Items dropped by the capacity bound so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.count
    }

    /// Appends `item`, dropping the oldest items past the bound.
    pub fn push(&mut self, item: T) {
        self.items.push_back(item);
        self.trim();
    }

    /// The retained items, oldest first.
    #[must_use]
    pub fn as_deque(&self) -> &VecDeque<T> {
        &self.items
    }

    fn trim(&mut self) {
        while self.items.len() > self.capacity {
            self.items.pop_front();
            self.evictions.record();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reinserted_live_key_keeps_its_slot() {
        let mut map = FifoMap::new(Some(2));
        map.insert("a", 1);
        map.insert("b", 2);
        assert_eq!(map.insert("a", 10), Some(1));
        map.insert("c", 3);
        assert_eq!(
            map.get("a"),
            None,
            "a kept its first slot, so it goes first"
        );
        assert_eq!(map.get("b"), Some(&2));
        assert_eq!(map.evictions(), 1);
    }

    #[test]
    fn key_removed_then_reinserted_goes_to_the_back() {
        let mut map = FifoMap::new(Some(2));
        map.insert("a", 1);
        map.remove("a");
        map.insert("b", 2);
        map.insert("a", 3);
        map.insert("c", 4);
        assert_eq!(map.get("b"), None, "b is the oldest live entry");
        assert_eq!(map.get("a"), Some(&3));
        let order: Vec<_> = map.iter().map(|(k, _)| *k).collect();
        assert_eq!(order, vec!["a", "c"]);
    }

    #[test]
    fn removals_keep_the_queue_bounded() {
        let mut map = FifoMap::new(Some(4));
        for i in 0..10_000u32 {
            map.insert(i, ());
            map.remove(&i);
            assert!(map.queue_len() <= 2);
        }
        assert!(map.is_empty());
        assert_eq!(map.evictions(), 0);
    }

    #[test]
    fn mirror_counts_evictions() {
        let counter = Arc::new(Counter::new());
        let mut ring = Ring::new(2);
        ring.set_eviction_mirror(Some(Arc::clone(&counter)));
        for i in 0..5 {
            ring.push(i);
        }
        assert_eq!(ring.as_deque(), &VecDeque::from([3, 4]));
        ring.set_capacity(1);
        assert_eq!(ring.evictions(), 4);
        assert_eq!(counter.get(), 4);
    }

    #[test]
    fn zero_capacity_ring_keeps_nothing() {
        let mut ring = Ring::new(0);
        ring.push(1);
        assert!(ring.as_deque().is_empty());
        assert_eq!(ring.evictions(), 1);
    }
}
