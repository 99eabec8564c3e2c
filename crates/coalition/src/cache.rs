//! Revocation-aware certificate-verification cache.
//!
//! The coalition server re-receives the *same* certificates on almost
//! every request: identity certificates travel with each joint request and
//! the standing threshold AC is presented unchanged until re-issued. Each
//! presentation costs an RSA verification (`sig^e mod N`). The
//! [`VerifyCache`] memoizes the verify-and-idealize step, keyed on the
//! certificate's signature residue × verifying-key id, and keeps a copy of
//! the verified certificate in each entry. A hit is a hash-map probe plus a
//! field-for-field comparison: no hashing of the body, no serialization.
//!
//! Soundness of reuse: a hit requires the presented certificate to *equal*
//! the stored one — every body field and the signature — and the stored
//! one verified under the key the cache key names. So a hit can only serve
//! a certificate whose exact contents already verified against the same
//! key, and the cached idealized [`Message`] is exactly what
//! re-verification would produce. No collision-resistance argument is
//! involved. A presentation that shares a cached signature but differs in
//! any field is a miss: it goes to a real verification, and the lookup
//! neither serves nor evicts the entry it collided with. Revocation
//! reasoning stays in the logic engine; on top of that the cache is
//! invalidated eagerly:
//!
//! * [`VerifyCache::invalidate_subject`] on an `IdentityRevocation`,
//! * `VerifyCache::invalidate_group` on an `AttributeRevocation` or any
//!   CRL entry,
//! * timestamp expiry — entries past their certificate's validity end are
//!   evicted on lookup.
//!
//! The cache is `Clone`-cheap (a shared handle) and thread-safe, so the
//! [`crate::server::CoalitionServer::verify_batch`] fan-out shares one
//! instance live across its threads.
//!
//! **Bounded.** The cache holds at most its capacity
//! (`DEFAULT_CACHE_CAPACITY` unless overridden via
//! [`VerifyCache::with_capacity`], or on a server through
//! [`crate::server::CoalitionServer::apply_capacity_config`]); inserting
//! past the bound evicts the oldest entries by insertion order
//! ([`jaap_obs::bounded::FifoMap`]). Eviction is sound for the same reason
//! memoization is: an evicted certificate is simply re-verified on its next
//! presentation, so decisions never change — only the hit/miss split does.

use std::sync::Arc;

use jaap_core::syntax::{Message, Time};
use jaap_crypto::rsa::RsaSignature;
use jaap_obs::bounded::FifoMap;
use jaap_obs::{Counter, MetricsRegistry};
use jaap_pki::{
    AttributeCertificate, IdentityCertificate, PresentedCert, ThresholdAttributeCertificate,
};
use parking_lot::Mutex;

/// Default bound on live cache entries. Generous for the coalition
/// scenarios (a request presents a handful of certificates), small enough
/// that a long-running server cannot grow without bound on a stream of
/// distinct certificates.
pub(crate) const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Cache key: `(signature residue, verifying key id)`. The entry map and
/// its insertion-order queue share one copy; lookups borrow the tuple.
type CacheKey = Arc<(RsaSignature, String)>;

fn cache_key(cert: PresentedCert<'_>, key_id: &str) -> (RsaSignature, String) {
    (cert.signature().clone(), key_id.to_string())
}

/// An owned copy of a verified certificate.
#[derive(Debug, Clone)]
enum StoredCert {
    Identity(IdentityCertificate),
    Threshold(ThresholdAttributeCertificate),
    Attribute(AttributeCertificate),
}

impl StoredCert {
    fn of(cert: PresentedCert<'_>) -> Self {
        match cert {
            PresentedCert::Identity(c) => StoredCert::Identity(c.clone()),
            PresentedCert::Threshold(c) => StoredCert::Threshold(c.clone()),
            PresentedCert::Attribute(c) => StoredCert::Attribute(c.clone()),
        }
    }

    fn as_presented(&self) -> PresentedCert<'_> {
        match self {
            StoredCert::Identity(c) => PresentedCert::Identity(c),
            StoredCert::Threshold(c) => PresentedCert::Threshold(c),
            StoredCert::Attribute(c) => PresentedCert::Attribute(c),
        }
    }
}

/// One memoized verification result. Expiry (the certificate's validity
/// end), the subjects identity revocation matches and the group attribute
/// revocation matches are all read off the stored certificate.
#[derive(Debug, Clone)]
struct CachedEntry {
    /// The certificate that verified, compared field for field on lookup.
    cert: StoredCert,
    /// The idealized message the verify step produced.
    message: Message,
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
    /// Creates an empty cache bounded at `capacity` live entries (`None`
    /// for the unbounded comparison baseline).
    #[must_use]
    pub fn with_capacity(capacity: Option<usize>) -> Self {
        let cache = VerifyCache::default();
        cache.set_capacity(capacity);
        cache
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
    pub(crate) fn set_metrics(&self, registry: Option<&MetricsRegistry>) {
        let mut inner = self.inner.lock();
        inner.metrics = registry.map(CacheCounters::resolve);
        inner
            .entries
            .set_eviction_mirror(registry.map(|r| r.counter("server.cache.evictions")));
    }

    /// Looks up a memoized idealization of `cert` verified under the key
    /// with id `key_id`. A hit needs an entry under `cert`'s signature and
    /// that key whose certificate equals `cert` field for field. Counts a
    /// hit or a miss; a matching entry whose certificate validity has
    /// expired is evicted and counts as a miss (and an invalidation). A
    /// non-matching entry is left as it is.
    #[must_use]
    pub fn lookup(&self, cert: PresentedCert<'_>, key_id: &str, now: Time) -> Option<Message> {
        let key = cache_key(cert, key_id);
        let mut inner = self.inner.lock();
        let Some(entry) = inner.entries.get(&key) else {
            inner.count_miss();
            return None;
        };
        let stored = entry.cert.as_presented();
        if stored != cert {
            inner.count_miss();
            return None;
        }
        if now.0 <= stored.expires().0 {
            let message = entry.message.clone();
            inner.count_hit();
            return Some(message);
        }
        inner.entries.remove(&key);
        inner.count_invalidations(1);
        inner.count_miss();
        None
    }

    /// Memoizes the idealization of `cert`, which verified under the key
    /// with id `key_id`. Past the capacity bound, the oldest entries are
    /// evicted to make room; re-inserting a live key refreshes it in place
    /// without moving its slot.
    pub fn insert(&self, cert: PresentedCert<'_>, key_id: &str, message: Message) {
        let key = Arc::new(cache_key(cert, key_id));
        let entry = CachedEntry {
            cert: StoredCert::of(cert),
            message,
        };
        self.inner.lock().entries.insert(key, entry);
    }

    /// Drops every entry naming `subject` (identity revocation). Returns
    /// how many entries were dropped.
    pub fn invalidate_subject(&self, subject: &str) -> usize {
        let mut inner = self.inner.lock();
        let dropped = inner
            .entries
            .retain(|_, e| !e.cert.as_presented().names(subject));
        inner.count_invalidations(dropped)
    }

    /// Drops every entry granting `group` (attribute revocation / CRL
    /// entry). Returns how many entries were dropped.
    pub(crate) fn invalidate_group(&self, group: &str) -> usize {
        let mut inner = self.inner.lock();
        let dropped = inner
            .entries
            .retain(|_, e| e.cert.as_presented().group() != Some(group));
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
    use jaap_bigint::Nat;
    use jaap_core::certs::Validity;
    use jaap_core::syntax::Message;
    use jaap_crypto::rsa::RsaPublicKey;
    use jaap_pki::ThresholdSubject;

    fn msg(tag: &str) -> Message {
        Message::data(tag)
    }

    /// The signature residue of stand-in certificate `d`: its cache key.
    fn key(d: &str) -> RsaSignature {
        RsaSignature::from_value(Nat::from_bytes_be(&jaap_crypto::Sha256::digest(
            d.as_bytes(),
        )))
    }

    fn small_key() -> RsaPublicKey {
        RsaPublicKey::new(Nat::from(3u64), Nat::from(65_537u64))
    }

    /// A stand-in verified identity certificate `d` for `subject`, valid
    /// through `end`.
    fn identity(d: &str, subject: &str, end: i64) -> IdentityCertificate {
        IdentityCertificate {
            issuer: "CA".into(),
            subject: subject.into(),
            subject_key: small_key(),
            validity: Validity::new(Time(0), Time(end)),
            timestamp: Time(0),
            signature: key(d),
        }
    }

    /// Certificate `d` naming no principal the tests revoke, valid
    /// through 100.
    fn plain(d: &str) -> IdentityCertificate {
        identity(d, "P", 100)
    }

    fn id(c: &IdentityCertificate) -> PresentedCert<'_> {
        PresentedCert::Identity(c)
    }

    #[test]
    fn hit_miss_and_expiry() {
        let cache = VerifyCache::default();
        let a = identity("a", "U", 10);
        assert_eq!(cache.lookup(id(&a), "K", Time(0)), None);
        cache.insert(id(&a), "K", msg("m"));
        assert_eq!(cache.lookup(id(&a), "K", Time(5)), Some(msg("m")));
        // Past validity end: evicted, counted as miss + invalidation.
        assert_eq!(cache.lookup(id(&a), "K", Time(11)), None);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn subject_and_group_invalidation() {
        let cache = VerifyCache::default();
        let idc = identity("id", "U1", 100);
        let members = ["U1", "U2"]
            .iter()
            .map(|m| (m.to_string(), small_key()))
            .collect();
        let ac = ThresholdAttributeCertificate {
            issuer: "AA".into(),
            subject: ThresholdSubject::new(members, 2).expect("subject"),
            group: "G_write".into(),
            validity: Validity::new(Time(0), Time(100)),
            timestamp: Time(0),
            signature: key("ac"),
        };
        cache.insert(id(&idc), "K", msg("id"));
        cache.insert(PresentedCert::Threshold(&ac), "K", msg("ac"));
        assert_eq!(cache.invalidate_group("G_read"), 0);
        assert_eq!(cache.invalidate_group("G_write"), 1);
        assert_eq!(cache.invalidate_subject("U1"), 1);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().invalidations, 2);
    }

    #[test]
    fn capacity_bound_evicts_oldest_first() {
        let cache = VerifyCache::with_capacity(Some(2));
        for d in ["a", "b", "c"] {
            cache.insert(id(&plain(d)), "K", msg(d));
        }
        // "a" (oldest) was evicted; "b" and "c" survive.
        assert_eq!(cache.lookup(id(&plain("a")), "K", Time(0)), None);
        assert_eq!(cache.lookup(id(&plain("b")), "K", Time(0)), Some(msg("b")));
        assert_eq!(cache.lookup(id(&plain("c")), "K", Time(0)), Some(msg("c")));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn reinsert_keeps_original_order_slot() {
        let cache = VerifyCache::with_capacity(Some(2));
        cache.insert(id(&plain("a")), "K", msg("a"));
        cache.insert(id(&plain("b")), "K", msg("b"));
        // Refreshing "a" does not make it newest: it keeps its original
        // insertion slot, so it is still the first to go.
        cache.insert(id(&plain("a")), "K", msg("a2"));
        cache.insert(id(&plain("c")), "K", msg("c"));
        assert_eq!(cache.lookup(id(&plain("a")), "K", Time(0)), None);
        assert_eq!(cache.lookup(id(&plain("b")), "K", Time(0)), Some(msg("b")));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn stale_order_keys_are_skipped_not_counted() {
        let cache = VerifyCache::with_capacity(Some(2));
        cache.insert(id(&identity("a", "U", 100)), "K", msg("a"));
        cache.insert(id(&plain("b")), "K", msg("b"));
        // Invalidate "a" so its order-queue key goes stale.
        assert_eq!(cache.invalidate_subject("U"), 1);
        cache.insert(id(&plain("c")), "K", msg("c"));
        cache.insert(id(&plain("d")), "K", msg("d"));
        // The stale "a" key was skipped; "b" was the real eviction.
        assert_eq!(cache.lookup(id(&plain("b")), "K", Time(0)), None);
        assert_eq!(cache.lookup(id(&plain("c")), "K", Time(0)), Some(msg("c")));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.invalidations, 1);
    }

    #[test]
    fn shrinking_capacity_trims_immediately() {
        let cache = VerifyCache::with_capacity(None);
        for i in 0..10 {
            cache.insert(id(&plain(&format!("k{i}"))), "K", msg("m"));
        }
        assert_eq!(cache.stats().entries, 10);
        cache.set_capacity(Some(3));
        let stats = cache.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.evictions, 7);
        assert_eq!(cache.lookup(id(&plain("k9")), "K", Time(0)), Some(msg("m")));
    }

    /// Invalidated entries must not leave their queue slots behind
    /// forever: a small cache churned through many insert + invalidate
    /// cycles keeps its internal order queue within a fixed multiple of
    /// its capacity.
    #[test]
    fn order_queue_stays_bounded_under_invalidation_churn() {
        let cache = VerifyCache::with_capacity(Some(4));
        for i in 0..10_000 {
            cache.insert(id(&identity(&format!("k{i}"), "U", 100)), "K", msg("m"));
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
            let c = identity(&format!("k{i}"), "P", 10);
            cache.insert(id(&c), "K", msg("m"));
            assert_eq!(cache.lookup(id(&c), "K", Time(11)), None);
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
        cache.insert(id(&plain("a")), "K", msg("a"));
        assert_eq!(cache.lookup(id(&plain("a")), "K", Time(0)), Some(msg("a")));
        assert_eq!(cache.lookup(id(&plain("zzz")), "K", Time(0)), None);
        cache.insert(id(&plain("b")), "K", msg("b")); // evicts "a"
        assert_eq!(registry.counter_value("server.cache.hits"), Some(1));
        assert_eq!(registry.counter_value("server.cache.misses"), Some(1));
        assert_eq!(registry.counter_value("server.cache.evictions"), Some(1));
    }

    #[test]
    fn clones_share_state() {
        let cache = VerifyCache::default();
        let other = cache.clone();
        let a = identity("a", "P", 10);
        other.insert(id(&a), "K", msg("m"));
        assert_eq!(cache.lookup(id(&a), "K", Time(0)), Some(msg("m")));
        cache.clear();
        assert_eq!(other.stats().entries, 0);
    }
}
