//! The derivation memo cache: replaying proofs for repeated requests.
//!
//! [`protocol::authorize`](crate::protocol::authorize) re-runs the
//! Appendix E four-step derivation from scratch for every request. When
//! the same parties present the same certificates for the same operation
//! under the same trust state, that search re-derives the identical proof
//! tree. The memo keys a finished [`AccessDecision`] on everything the
//! derivation depends on, held by value:
//!
//! - the engine's **belief epoch** — a counter bumped whenever the belief
//!   state changes (a new certificate admitted, a revocation or CRL entry
//!   landing, the freshness window moving). An entry stored under an
//!   older epoch can never match a lookup again, so a memoized proof can
//!   never outlive a revocation. The bump does not clear the memo: stale
//!   entries stay until the capacity bound displaces them;
//! - the engine's **clock** — freshness and validity-interval side
//!   conditions read it;
//! - the **request** itself: certificates, signed statements, operation
//!   and claimed time;
//! - the object's **ACL**.
//!
//! A hit replays the cached decision (sharing its proof tree via `Arc`)
//! without re-running axiom search. The map is bounded with
//! insertion-order eviction, mirroring the server's replay window and
//! `VerifyCache` (`tests/bounded_caches.rs` documents that discipline).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::protocol::{AccessDecision, AccessRequest, Acl};
use crate::syntax::Time;

/// Default bound on memoized decisions.
pub(crate) const DEFAULT_MEMO_CAPACITY: usize = 1024;

/// Everything a derivation's outcome depends on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct MemoKey {
    epoch: u64,
    now: Time,
    request: AccessRequest,
    acl: Acl,
}

impl MemoKey {
    pub(crate) fn new(epoch: u64, now: Time, request: &AccessRequest, acl: &Acl) -> MemoKey {
        MemoKey {
            epoch,
            now,
            request: request.clone(),
            acl: acl.clone(),
        }
    }

    /// The same key under another belief epoch.
    pub(crate) fn at_epoch(self, epoch: u64) -> MemoKey {
        MemoKey { epoch, ..self }
    }
}

/// Hit/miss/eviction counters and the entry count, in the same shape as
/// the coalition `CacheStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Decisions replayed from the memo.
    pub hits: u64,
    /// Lookups that fell through to a full derivation.
    pub misses: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Stored entries, including stale ones from older belief epochs
    /// that no lookup can match any more and that wait for the capacity
    /// bound to displace them.
    pub entries: usize,
}

/// A bounded map from [`MemoKey`] to a finished decision.
///
/// Each key is stored once, shared by the map and the insertion-order
/// queue. Plain struct, no interior locking: the logic phase runs
/// serially behind `&mut Engine` (even under `verify_batch`, which only
/// fans out the crypto phase).
#[derive(Debug)]
pub(crate) struct DerivationMemo {
    entries: HashMap<Arc<MemoKey>, AccessDecision>,
    order: VecDeque<Arc<MemoKey>>,
    capacity: Option<usize>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Default for DerivationMemo {
    fn default() -> Self {
        DerivationMemo {
            entries: HashMap::new(),
            order: VecDeque::new(),
            capacity: Some(DEFAULT_MEMO_CAPACITY),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

impl DerivationMemo {
    pub(crate) fn new() -> Self {
        DerivationMemo::default()
    }

    /// Sets the bound (`None` = unbounded), evicting down to it.
    pub(crate) fn set_capacity(&mut self, capacity: Option<usize>) {
        self.capacity = capacity;
        self.trim();
    }

    pub(crate) fn lookup(&mut self, key: &MemoKey) -> Option<AccessDecision> {
        match self.entries.get(key) {
            Some(decision) => {
                self.hits += 1;
                Some(decision.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    pub(crate) fn store(&mut self, key: MemoKey, decision: AccessDecision) {
        if self.capacity == Some(0) {
            return;
        }
        let key = Arc::new(key);
        if self.entries.insert(Arc::clone(&key), decision).is_none() {
            self.order.push_back(key);
            self.trim();
        }
    }

    fn trim(&mut self) {
        if let Some(cap) = self.capacity {
            while self.entries.len() > cap {
                let Some(oldest) = self.order.pop_front() else {
                    break;
                };
                if self.entries.remove(&oldest).is_some() {
                    self.evictions += 1;
                }
            }
        }
    }

    pub(crate) fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{AccessDecision, Operation};

    fn key(epoch: u64, t: i64) -> MemoKey {
        let request = AccessRequest {
            identity_certs: vec![],
            attribute_certs: vec![],
            signed_statements: vec![],
            operation: Operation::new("write", "Object O"),
            at: Time(t),
        };
        MemoKey::new(epoch, Time(t), &request, &Acl::new())
    }

    fn grant() -> AccessDecision {
        AccessDecision {
            granted: true,
            reason: None,
            derivation: None,
            axiom_applications: 0,
        }
    }

    #[test]
    fn lookup_after_store_hits() {
        let mut memo = DerivationMemo::new();
        let k = key(0, 5);
        assert!(memo.lookup(&k).is_none());
        memo.store(k.clone(), grant());
        assert!(memo.lookup(&k).expect("hit").granted);
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn epoch_is_part_of_the_key() {
        let mut memo = DerivationMemo::new();
        memo.store(key(0, 5), grant());
        assert!(memo.lookup(&key(1, 5)).is_none());
    }

    #[test]
    fn capacity_bound_evicts_in_insertion_order() {
        let mut memo = DerivationMemo::new();
        memo.set_capacity(Some(2));
        for t in 0..5 {
            memo.store(key(0, t), grant());
        }
        let s = memo.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 3);
        // The two newest survive; the oldest three are gone.
        assert!(memo.lookup(&key(0, 0)).is_none());
        assert!(memo.lookup(&key(0, 4)).is_some());
    }

    #[test]
    fn stale_epoch_entry_is_never_served_and_is_displaced_by_the_bound() {
        let mut memo = DerivationMemo::new();
        memo.set_capacity(Some(2));
        memo.store(key(0, 1), grant());
        // The epoch moves: the old entry stays stored but cannot match.
        assert!(memo.lookup(&key(1, 1)).is_none());
        assert_eq!(memo.stats().entries, 1);
        // Two entries under the new epoch push the stale one out.
        memo.store(key(1, 1), grant());
        memo.store(key(1, 2), grant());
        let s = memo.stats();
        assert_eq!((s.entries, s.evictions), (2, 1));
        assert!(memo.lookup(&key(0, 1)).is_none());
        assert!(memo.lookup(&key(1, 1)).is_some());
        assert_eq!(memo.stats().hits, 1);
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let mut memo = DerivationMemo::new();
        memo.set_capacity(Some(0));
        memo.store(key(0, 1), grant());
        assert_eq!(memo.stats().entries, 0);
    }
}
