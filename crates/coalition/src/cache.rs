//! Revocation-aware certificate-verification cache.
//!
//! The coalition server re-receives the *same* certificates on almost
//! every request: identity certificates travel with each joint request and
//! the standing threshold AC is presented unchanged until re-issued. Each
//! presentation costs an RSA verification (`sig^e mod N`). The
//! [`VerifyCache`] memoizes the verify-and-idealize step, keyed on the
//! certificate digest ([`jaap_pki::Presentation::cache_digest`]) ×
//! verifying-key id, so a byte-identical certificate checked once against
//! the same trusted key is served from memory.
//!
//! Soundness of reuse: the key includes a collision-resistant digest of the
//! certificate body *and* signature, so a hit can only occur for a
//! byte-identical certificate whose signature already verified against the
//! same key — the cached idealized [`Message`] is exactly what
//! re-verification would produce. Revocation reasoning stays in the logic
//! engine; on top of that the cache is invalidated eagerly:
//!
//! * [`VerifyCache::invalidate_subject`] on an `IdentityRevocation`,
//! * [`VerifyCache::invalidate_group`] on an `AttributeRevocation` or any
//!   CRL entry,
//! * timestamp expiry — entries past their certificate's validity end are
//!   evicted on lookup.
//!
//! The cache is `Clone`-cheap (a shared handle) and thread-safe, so the
//! [`crate::server::CoalitionServer::verify_batch`] fan-out shares one
//! instance live across its threads.
//!
//! **Bounded.** The cache holds at most its capacity
//! ([`DEFAULT_CACHE_CAPACITY`] unless overridden via
//! [`VerifyCache::with_capacity`], or on a server through
//! [`crate::server::CoalitionServer::apply_capacity_config`]); inserting
//! past the bound evicts the oldest entries by insertion order
//! ([`jaap_obs::bounded::FifoMap`]). Eviction is sound for the same reason
//! memoization is: an evicted certificate is simply re-verified on its next
//! presentation, so decisions never change — only the hit/miss split does.

use std::sync::Arc;

use jaap_core::syntax::{Message, Time};
use jaap_obs::bounded::FifoMap;
use jaap_obs::{Counter, MetricsRegistry};
use parking_lot::Mutex;

/// Default bound on live cache entries. Generous for the coalition
/// scenarios (a request presents a handful of certificates), small enough
/// that a long-running server cannot grow without bound on a stream of
/// distinct certificates.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Cache key: `(certificate digest, verifying key id)`, the digest raw
/// ([`jaap_pki::Presentation::cache_digest`]).
pub type CacheKey = ([u8; 32], String);

/// One memoized verification result.
#[derive(Debug, Clone)]
struct CachedEntry {
    /// The idealized message the verify step produced.
    message: Message,
    /// Validity end of the certificate; entries are evicted past this.
    expires: Time,
    /// Subject names for identity-revocation invalidation.
    subjects: Vec<String>,
    /// Granted group for attribute-revocation invalidation.
    group: Option<String>,
}

/// Registry handles, pre-resolved once when a registry is attached so the
/// hot path only touches atomics. Evictions are mirrored by the entry map
/// itself.
#[derive(Debug, Clone)]
struct CacheCounters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    invalidations: Arc<Counter>,
}

impl CacheCounters {
    fn resolve(registry: &MetricsRegistry) -> Self {
        CacheCounters {
            hits: registry.counter("server.cache.hits"),
            misses: registry.counter("server.cache.misses"),
            invalidations: registry.counter("server.cache.invalidations"),
        }
    }
}

#[derive(Debug)]
struct Inner {
    /// Live entries, bounded oldest-first (`None` capacity is the
    /// unbounded comparison baseline).
    entries: FifoMap<CacheKey, CachedEntry>,
    hits: u64,
    misses: u64,
    invalidations: u64,
    metrics: Option<CacheCounters>,
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            entries: FifoMap::new(Some(DEFAULT_CACHE_CAPACITY)),
            hits: 0,
            misses: 0,
            invalidations: 0,
            metrics: None,
        }
    }
}

impl Inner {
    fn count_hit(&mut self) {
        self.hits += 1;
        if let Some(m) = &self.metrics {
            m.hits.inc();
        }
    }

    fn count_miss(&mut self) {
        self.misses += 1;
        if let Some(m) = &self.metrics {
            m.misses.inc();
        }
    }

    fn count_invalidations(&mut self, dropped: usize) -> usize {
        self.invalidations += dropped as u64;
        if let Some(m) = &self.metrics {
            m.invalidations.add(dropped as u64);
        }
        dropped
    }
}

/// Aggregate cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from memory.
    pub hits: u64,
    /// Lookups that fell through to a real verification.
    pub misses: u64,
    /// Entries dropped by revocations or expiry.
    pub invalidations: u64,
    /// Entries dropped by the capacity bound (oldest-first).
    pub evictions: u64,
    /// Live entries.
    pub entries: usize,
}

/// A shared, thread-safe verification cache handle.
#[derive(Debug, Clone, Default)]
pub struct VerifyCache {
    inner: Arc<Mutex<Inner>>,
}

impl VerifyCache {
    /// Creates an empty cache bounded at [`DEFAULT_CACHE_CAPACITY`].
    #[must_use]
    pub fn new() -> Self {
        VerifyCache::default()
    }

    /// Creates an empty cache bounded at `capacity` live entries (`None`
    /// for the unbounded comparison baseline).
    #[must_use]
    pub fn with_capacity(capacity: Option<usize>) -> Self {
        let cache = VerifyCache::default();
        cache.set_capacity(capacity);
        cache
    }

    /// The configured capacity (`None` = unbounded).
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.inner.lock().entries.capacity()
    }

    /// Re-bounds the cache, evicting oldest entries immediately if the new
    /// capacity is already exceeded. Only the server's capacity
    /// configuration resizes a live cache.
    pub(crate) fn set_capacity(&self, capacity: Option<usize>) {
        self.inner.lock().entries.set_capacity(capacity);
    }

    /// Mirrors the cache counters into `registry` (pre-resolved handles:
    /// `server.cache.{hits,misses,invalidations,evictions}`). Pass `None`
    /// to detach.
    pub fn set_metrics(&self, registry: Option<&MetricsRegistry>) {
        let mut inner = self.inner.lock();
        inner.metrics = registry.map(CacheCounters::resolve);
        inner
            .entries
            .set_eviction_mirror(registry.map(|r| r.counter("server.cache.evictions")));
    }

    /// Looks up a memoized idealization. Counts a hit or a miss; an entry
    /// whose certificate validity has expired is evicted and counts as a
    /// miss (and an invalidation).
    #[must_use]
    pub fn lookup(&self, key: &CacheKey, now: Time) -> Option<Message> {
        let mut inner = self.inner.lock();
        let Some(entry) = inner.entries.get(key) else {
            inner.count_miss();
            return None;
        };
        if now.0 <= entry.expires.0 {
            let message = entry.message.clone();
            inner.count_hit();
            return Some(message);
        }
        inner.entries.remove(key);
        inner.count_invalidations(1);
        inner.count_miss();
        None
    }

    /// Memoizes a verified certificate's idealization. Past the capacity
    /// bound, the oldest entries are evicted to make room; re-inserting a
    /// live key refreshes it in place without moving its slot.
    pub fn insert(
        &self,
        key: CacheKey,
        message: Message,
        expires: Time,
        subjects: Vec<String>,
        group: Option<String>,
    ) {
        self.inner.lock().entries.insert(
            key,
            CachedEntry {
                message,
                expires,
                subjects,
                group,
            },
        );
    }

    /// Drops every entry naming `subject` (identity revocation). Returns
    /// how many entries were dropped.
    pub fn invalidate_subject(&self, subject: &str) -> usize {
        let mut inner = self.inner.lock();
        let dropped = inner
            .entries
            .retain(|_, e| !e.subjects.iter().any(|s| s == subject));
        inner.count_invalidations(dropped)
    }

    /// Drops every entry granting `group` (attribute revocation / CRL
    /// entry). Returns how many entries were dropped.
    pub fn invalidate_group(&self, group: &str) -> usize {
        let mut inner = self.inner.lock();
        let dropped = inner
            .entries
            .retain(|_, e| e.group.as_deref() != Some(group));
        inner.count_invalidations(dropped)
    }

    /// Drops everything.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        let dropped = inner.entries.len();
        inner.entries.clear();
        inner.count_invalidations(dropped);
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            invalidations: inner.invalidations,
            evictions: inner.entries.evictions(),
            entries: inner.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaap_core::syntax::Message;

    fn msg(tag: &str) -> Message {
        Message::data(tag)
    }

    fn key(d: &str) -> CacheKey {
        (jaap_crypto::Sha256::digest(d.as_bytes()), "K".to_string())
    }

    #[test]
    fn hit_miss_and_expiry() {
        let cache = VerifyCache::new();
        assert_eq!(cache.lookup(&key("a"), Time(0)), None);
        cache.insert(key("a"), msg("m"), Time(10), vec!["U".into()], None);
        assert_eq!(cache.lookup(&key("a"), Time(5)), Some(msg("m")));
        // Past validity end: evicted, counted as miss + invalidation.
        assert_eq!(cache.lookup(&key("a"), Time(11)), None);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn subject_and_group_invalidation() {
        let cache = VerifyCache::new();
        cache.insert(key("id"), msg("id"), Time(100), vec!["U1".into()], None);
        cache.insert(
            key("ac"),
            msg("ac"),
            Time(100),
            vec!["U1".into(), "U2".into()],
            Some("G_write".into()),
        );
        assert_eq!(cache.invalidate_group("G_read"), 0);
        assert_eq!(cache.invalidate_group("G_write"), 1);
        assert_eq!(cache.invalidate_subject("U1"), 1);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().invalidations, 2);
    }

    #[test]
    fn capacity_bound_evicts_oldest_first() {
        let cache = VerifyCache::with_capacity(Some(2));
        cache.insert(key("a"), msg("a"), Time(100), vec![], None);
        cache.insert(key("b"), msg("b"), Time(100), vec![], None);
        cache.insert(key("c"), msg("c"), Time(100), vec![], None);
        // "a" (oldest) was evicted; "b" and "c" survive.
        assert_eq!(cache.lookup(&key("a"), Time(0)), None);
        assert_eq!(cache.lookup(&key("b"), Time(0)), Some(msg("b")));
        assert_eq!(cache.lookup(&key("c"), Time(0)), Some(msg("c")));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn reinsert_keeps_original_order_slot() {
        let cache = VerifyCache::with_capacity(Some(2));
        cache.insert(key("a"), msg("a"), Time(100), vec![], None);
        cache.insert(key("b"), msg("b"), Time(100), vec![], None);
        // Refreshing "a" does not make it newest: it keeps its original
        // insertion slot, so it is still the first to go.
        cache.insert(key("a"), msg("a2"), Time(100), vec![], None);
        cache.insert(key("c"), msg("c"), Time(100), vec![], None);
        assert_eq!(cache.lookup(&key("a"), Time(0)), None);
        assert_eq!(cache.lookup(&key("b"), Time(0)), Some(msg("b")));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn stale_order_keys_are_skipped_not_counted() {
        let cache = VerifyCache::with_capacity(Some(2));
        cache.insert(key("a"), msg("a"), Time(100), vec!["U".into()], None);
        cache.insert(key("b"), msg("b"), Time(100), vec![], None);
        // Invalidate "a" so its order-queue key goes stale.
        assert_eq!(cache.invalidate_subject("U"), 1);
        cache.insert(key("c"), msg("c"), Time(100), vec![], None);
        cache.insert(key("d"), msg("d"), Time(100), vec![], None);
        // The stale "a" key was skipped; "b" was the real eviction.
        assert_eq!(cache.lookup(&key("b"), Time(0)), None);
        assert_eq!(cache.lookup(&key("c"), Time(0)), Some(msg("c")));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.invalidations, 1);
    }

    #[test]
    fn shrinking_capacity_trims_immediately() {
        let cache = VerifyCache::with_capacity(None);
        for i in 0..10 {
            cache.insert(key(&format!("k{i}")), msg("m"), Time(100), vec![], None);
        }
        assert_eq!(cache.stats().entries, 10);
        cache.set_capacity(Some(3));
        let stats = cache.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.evictions, 7);
        assert_eq!(cache.lookup(&key("k9"), Time(0)), Some(msg("m")));
    }

    /// Invalidated entries must not leave their queue slots behind
    /// forever: a small cache churned through many insert + invalidate
    /// cycles keeps its internal order queue within a fixed multiple of
    /// its capacity.
    #[test]
    fn order_queue_stays_bounded_under_invalidation_churn() {
        let cache = VerifyCache::with_capacity(Some(4));
        for i in 0..10_000 {
            cache.insert(
                key(&format!("k{i}")),
                msg("m"),
                Time(100),
                vec!["U".into()],
                None,
            );
            assert_eq!(cache.invalidate_subject("U"), 1);
        }
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.inner.lock().entries.queue_len() <= 2 * 4);
    }

    /// The same bound through the expiry-removal path of `lookup`.
    #[test]
    fn order_queue_stays_bounded_under_expiry_churn() {
        let cache = VerifyCache::with_capacity(Some(4));
        for i in 0..10_000 {
            cache.insert(key(&format!("k{i}")), msg("m"), Time(10), vec![], None);
            assert_eq!(cache.lookup(&key(&format!("k{i}")), Time(11)), None);
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.invalidations), (0, 10_000));
        assert!(cache.inner.lock().entries.queue_len() <= 2 * 4);
    }

    #[test]
    fn attached_registry_mirrors_counters() {
        let registry = jaap_obs::MetricsRegistry::new();
        let cache = VerifyCache::with_capacity(Some(1));
        cache.set_metrics(Some(&registry));
        cache.insert(key("a"), msg("a"), Time(100), vec![], None);
        assert_eq!(cache.lookup(&key("a"), Time(0)), Some(msg("a")));
        assert_eq!(cache.lookup(&key("zzz"), Time(0)), None);
        cache.insert(key("b"), msg("b"), Time(100), vec![], None); // evicts "a"
        assert_eq!(registry.counter_value("server.cache.hits"), Some(1));
        assert_eq!(registry.counter_value("server.cache.misses"), Some(1));
        assert_eq!(registry.counter_value("server.cache.evictions"), Some(1));
    }

    #[test]
    fn clones_share_state() {
        let cache = VerifyCache::new();
        let other = cache.clone();
        other.insert(key("a"), msg("m"), Time(10), vec![], None);
        assert_eq!(cache.lookup(&key("a"), Time(0)), Some(msg("m")));
        cache.clear();
        assert_eq!(other.stats().entries, 0);
    }
}
