//! Shared verifier precomputation (DESIGN §5h).
//!
//! Every signature verification against a coalition key pays the same
//! setup division (`R² mod N`) before the first Montgomery multiply, yet
//! the AA key, the CA keys, and the standing certificates they sign are
//! fixed across millions of requests. A [`VerifierPrecomp`] amortizes
//! that work:
//!
//! * per **modulus** — one cached [`MontgomeryContext`] per `(N, e)`, so
//!   repeat verifies (and response encryptions) against the same key skip
//!   the division;
//! * per **base** — for recurring signature residues (standing certs
//!   re-presented on every request), a cached [`FixedBaseWindow`] ladder
//!   keyed by the residue, so a warm `sig^e` with `e = 2¹⁶ + 1` collapses
//!   to two Montgomery multiplies and zero squarings.
//!
//! Both maps are [`FifoMap`]s (bounded, insertion-order eviction) guarded
//! by plain mutexes — entries are built once and then shared as `Arc`s, so
//! the critical sections are a hash lookup, never a bignum operation.
//! Lookups hash the key values themselves with the standard library's
//! randomly keyed SipHash: a SHA-256 digest of a 2048-bit modulus costs
//! more than the warm ladder exponentiation it would look up.
//! Correctness does not depend on invalidation: a modulus entry is served
//! only when its stored `(N, e)` equals the lookup's, and a ladder is keyed
//! by its residue value within its modulus entry, so a trust-store swap or
//! key rotation simply misses — a stale table can never be *served*, only
//! evicted.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use jaap_bigint::{FixedBaseWindow, MontgomeryContext, Nat};
use jaap_obs::bounded::FifoMap;
use jaap_obs::Counter;

/// Default bound on cached moduli (coalitions have a handful of trust
/// anchors plus one modulus per statement-signing user in flight).
pub(crate) const DEFAULT_MODULUS_CAPACITY: usize = 256;

/// Default bound on cached fixed-base ladders per modulus (one per
/// standing certificate signature).
pub(crate) const DEFAULT_WINDOW_CAPACITY: usize = 4096;

/// Hit/miss counters shared between the front map and every
/// [`ModulusPrecomp`] it hands out (so eviction never loses counts). Every
/// map mirrors its evictions into the one shared `evictions` counter.
#[derive(Debug, Default)]
struct Counters {
    ctx_hits: AtomicU64,
    ctx_misses: AtomicU64,
    window_hits: AtomicU64,
    window_misses: AtomicU64,
    evictions: Arc<Counter>,
}

impl Counters {
    /// An empty map bounded at `capacity` (clamped to at least 1) whose
    /// evictions count into the shared counter.
    fn bounded<K: Eq + std::hash::Hash + Clone, V>(&self, capacity: usize) -> FifoMap<K, V> {
        let mut map = FifoMap::new(Some(capacity.max(1)));
        map.set_eviction_mirror(Some(Arc::clone(&self.evictions)));
        map
    }
}

/// A point-in-time snapshot of the cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrecompStats {
    /// Modulus-context lookups served from cache.
    pub(crate) ctx_hits: u64,
    /// Modulus contexts built (one division each).
    pub(crate) ctx_misses: u64,
    /// Fixed-base ladders served from cache.
    pub(crate) window_hits: u64,
    /// Fixed-base ladders built.
    pub(crate) window_misses: u64,
    /// Entries dropped by capacity eviction (either map).
    pub(crate) evictions: u64,
}

impl PrecompStats {
    /// Total lookups that skipped recomputation — the
    /// `server.crypto.precomp_hits` instrument.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.ctx_hits + self.window_hits
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The shared verifier cache. Cheap to clone via `Arc`; in the coalition
/// it lives behind the trust store's `Arc` so every [`super::rsa`] /
/// certificate verification on the snapshot path shares one instance.
#[derive(Debug)]
pub struct VerifierPrecomp {
    /// Keyed by the SipHash of `(N, e)` under `hasher`; a hit is checked
    /// against the entry's own `(N, e)`.
    moduli: Mutex<FifoMap<u64, Arc<ModulusPrecomp>>>,
    hasher: RandomState,
    window_capacity: usize,
    counters: Arc<Counters>,
}

impl Default for VerifierPrecomp {
    fn default() -> Self {
        Self::new()
    }
}

impl VerifierPrecomp {
    /// A cache with the default capacities.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_MODULUS_CAPACITY, DEFAULT_WINDOW_CAPACITY)
    }

    /// A cache bounded to `moduli` contexts and `windows` ladders per
    /// modulus (each bound is clamped to at least 1).
    #[must_use]
    pub(crate) fn with_capacity(moduli: usize, windows: usize) -> Self {
        let counters = Arc::new(Counters::default());
        VerifierPrecomp {
            moduli: Mutex::new(counters.bounded(moduli)),
            hasher: RandomState::new(),
            window_capacity: windows,
            counters,
        }
    }

    /// The cached per-modulus state for `(n, e)`, building (and caching)
    /// it on first sight. `None` iff `n` is outside the Montgomery domain
    /// (even or ≤ 1) — callers fall back to the plain path.
    #[must_use]
    pub fn for_key(&self, n: &Nat, e: &Nat) -> Option<Arc<ModulusPrecomp>> {
        let key = self.hasher.hash_one((n, e));
        let cached = |map: &FifoMap<u64, Arc<ModulusPrecomp>>| {
            map.get(&key)
                .filter(|mp| mp.ctx.modulus() == n && mp.e == *e)
                .map(Arc::clone)
        };
        if let Some(mp) = cached(&lock(&self.moduli)) {
            self.counters.ctx_hits.fetch_add(1, Ordering::Relaxed);
            return Some(mp);
        }
        // Build outside the lock: the division we amortize.
        let ctx = MontgomeryContext::new(n)?;
        let mp = Arc::new(ModulusPrecomp {
            ctx,
            e: e.clone(),
            windows: Mutex::new(self.counters.bounded(self.window_capacity)),
            counters: Arc::clone(&self.counters),
        });
        self.counters.ctx_misses.fetch_add(1, Ordering::Relaxed);
        let mut map = lock(&self.moduli);
        // A racing thread may have built the same context; keep the first
        // (both are equivalent pure functions of (n, e)).
        if let Some(existing) = cached(&map) {
            return Some(existing);
        }
        map.insert(key, Arc::clone(&mp));
        Some(mp)
    }

    /// Number of moduli currently cached.
    #[cfg(test)]
    pub(crate) fn modulus_entries(&self) -> usize {
        lock(&self.moduli).len()
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> PrecompStats {
        PrecompStats {
            ctx_hits: self.counters.ctx_hits.load(Ordering::Relaxed),
            ctx_misses: self.counters.ctx_misses.load(Ordering::Relaxed),
            window_hits: self.counters.window_hits.load(Ordering::Relaxed),
            window_misses: self.counters.window_misses.load(Ordering::Relaxed),
            evictions: self.counters.evictions.get(),
        }
    }
}

/// Cached state for one `(N, e)`: the Montgomery context plus the
/// fixed-base ladders of recurring residues.
#[derive(Debug)]
pub struct ModulusPrecomp {
    ctx: MontgomeryContext,
    e: Nat,
    windows: Mutex<FifoMap<Nat, Arc<FixedBaseWindow>>>,
    counters: Arc<Counters>,
}

impl ModulusPrecomp {
    /// A standalone (uncached) per-modulus state: lets signing-side
    /// self-checks reuse the batch-verification machinery without going
    /// through a shared [`VerifierPrecomp`]. `None` iff `n` is outside
    /// the Montgomery domain.
    #[must_use]
    pub(crate) fn standalone(n: &Nat, e: &Nat) -> Option<Self> {
        let counters = Arc::new(Counters::default());
        Some(ModulusPrecomp {
            ctx: MontgomeryContext::new(n)?,
            e: e.clone(),
            windows: Mutex::new(counters.bounded(4)),
            counters,
        })
    }

    /// The shared Montgomery context for `N`.
    #[must_use]
    pub(crate) fn context(&self) -> &MontgomeryContext {
        &self.ctx
    }

    /// The public exponent `e`.
    #[must_use]
    pub(crate) fn exponent(&self) -> &Nat {
        &self.e
    }

    /// Whether a fixed-base ladder for `base` is already cached. A pure
    /// probe: builds nothing and leaves the hit/miss counters untouched.
    #[must_use]
    pub(crate) fn has_window(&self, base: &Nat) -> bool {
        lock(&self.windows).get(base).is_some()
    }

    /// The fixed-base ladder for `base`, built (sized to `e`'s bit length)
    /// and cached on first sight.
    #[must_use]
    pub(crate) fn window(&self, base: &Nat) -> Arc<FixedBaseWindow> {
        if let Some(w) = lock(&self.windows).get(base) {
            self.counters.window_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(w);
        }
        let win = Arc::new(self.ctx.fixed_base(base, self.e.bit_len().max(1)));
        self.counters.window_misses.fetch_add(1, Ordering::Relaxed);
        let mut map = lock(&self.windows);
        if let Some(existing) = map.get(base) {
            return Arc::clone(existing);
        }
        map.insert(base.clone(), Arc::clone(&win));
        win
    }

    /// Checks `sig^e mod N == h` (the FDH verification equation), where
    /// `h` must already be the encoded digest and `sig` already
    /// range-checked by the caller. With `recurring = true` the
    /// exponentiation runs over the cached fixed-base ladder for `sig`.
    #[must_use]
    pub(crate) fn verify(&self, h: &Nat, sig: &Nat, recurring: bool) -> bool {
        if recurring {
            self.window(sig).modpow(&self.ctx, &self.e) == *h
        } else {
            self.ctx.modpow(sig, &self.e) == *h
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_key_caches_and_counts() {
        let p = VerifierPrecomp::new();
        let n = Nat::from(1_000_003u64);
        let e = Nat::from(65_537u64);
        let a = p.for_key(&n, &e).expect("odd modulus");
        let b = p.for_key(&n, &e).expect("odd modulus");
        assert!(Arc::ptr_eq(&a, &b));
        let s = p.stats();
        assert_eq!((s.ctx_hits, s.ctx_misses), (1, 1));
        assert_eq!(p.modulus_entries(), 1);
    }

    #[test]
    fn even_modulus_declines() {
        let p = VerifierPrecomp::new();
        assert!(p
            .for_key(&Nat::from(1000u64), &Nat::from(65_537u64))
            .is_none());
    }

    #[test]
    fn verify_paths_agree_with_plain_modpow() {
        let p = VerifierPrecomp::new();
        let n = Nat::from(1_000_003u64);
        let e = Nat::from(65_537u64);
        let mp = p.for_key(&n, &e).expect("ctx");
        for sig in [2u64, 3, 999_999, 123_456] {
            let sig = Nat::from(sig);
            let h = sig.modpow(&e, &n);
            assert!(mp.verify(&h, &sig, false));
            assert!(mp.verify(&h, &sig, true));
            let wrong = h.addm(&Nat::one(), &n);
            assert!(!mp.verify(&wrong, &sig, false));
            assert!(!mp.verify(&wrong, &sig, true));
        }
        assert!(p.stats().window_hits > 0, "second recurring pass hits");
    }

    #[test]
    fn capacity_evicts_oldest_modulus() {
        let p = VerifierPrecomp::with_capacity(2, 4);
        let e = Nat::from(65_537u64);
        for n in [1_000_003u64, 1_000_033, 1_000_037] {
            let _ = p.for_key(&Nat::from(n), &e);
        }
        assert_eq!(p.modulus_entries(), 2);
        assert!(p.stats().evictions >= 1);
    }

    #[test]
    fn distinct_exponents_get_distinct_entries() {
        // Entries are per (N, e) jointly — rotating e must miss.
        let p = VerifierPrecomp::new();
        let n = Nat::from(1_000_003u64);
        let _ = p.for_key(&n, &Nat::from(65_537u64));
        let _ = p.for_key(&n, &Nat::from(17u64));
        assert_eq!(p.modulus_entries(), 2);
        assert_eq!(p.stats().ctx_misses, 2);
    }
}
