//! The read/write split: epoch-versioned decision snapshots and a
//! single-writer coalition server (DESIGN §5g).
//!
//! The coalition workload is read-dominated — streams of decision requests
//! against slowly-changing trust/ACL/revocation beliefs. The §4.3 pipeline
//! splits naturally:
//!
//! * the **crypto phase** is a pure function of (trust store, verify-cache
//!   handle, clock, request) — parallelizable, and by far the most
//!   expensive part of a decision;
//! * the **logic/ACL/audit tail** mutates the belief engine and must run
//!   serially, in commit order.
//!
//! [`ConcurrentServer`] exploits that split. All mutations (admissions,
//! revocations, clock advances, configuration — each already WAL-journaled
//! before taking effect) go through the single writer lock, and every
//! mutation publishes a fresh immutable [`DecisionSnapshot`] stamped with
//! the server's [`state_version`](crate::server::CoalitionServer::state_version).
//! Decision workers evaluate the crypto phase against a snapshot **without
//! holding any lock**, then take the writer lock only for the serial tail.
//! At commit the snapshot's version is compared against the live one: equal
//! means nothing changed since the snapshot was taken, so the decision is
//! byte-identical to serial execution at that version; different means the
//! crypto outcome may be stale and the decision retries against the newly
//! published snapshot (bounded — the final attempt runs fully serial under
//! the lock, which is always sound).
//!
//! A torn epoch is structurally impossible: the version a reader validates
//! against travels *inside* the immutable snapshot `Arc` it evaluates, not
//! in a separate cell that could be observed mid-publish.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use jaap_core::syntax::Time;
use jaap_obs::bounded::Ring;
use jaap_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use jaap_pki::TrustStore;
use jaap_store::CertStore;
use parking_lot::Mutex;

use crate::cache::VerifyCache;
use crate::request::JointAccessRequest;
use crate::server::{
    crypto_verify, AuditEntry, CoalitionServer, CryptoOutcome, ServerDecision, ShedReason,
};
use crate::CoalitionError;

/// How many optimistic attempts a decision makes before falling back to
/// fully serial execution under the writer lock. Each failed attempt means
/// a mutation landed between snapshot load and commit; under any realistic
/// admission rate one retry is already rare.
const MAX_OPTIMISTIC_ATTEMPTS: usize = 3;

/// Bounded capacity of the volatile shed-audit ring (oldest lines evicted
/// first). Shedding exists to protect the server from overload; an
/// unbounded audit of sheds would reintroduce the unbounded queue it
/// replaces.
const SHED_AUDIT_CAPACITY: usize = 1024;

/// Pre-resolved instruments for the lock-free shed path (`server.inflight`,
/// `server.shed.{overloaded,deadline}`). The shed counters resolve to the
/// same registry slots as the serial server's, so totals aggregate across
/// whichever path rejected the request.
#[derive(Debug)]
struct GateInstruments {
    inflight: Arc<Gauge>,
    shed_overloaded: Arc<Counter>,
    shed_deadline: Arc<Counter>,
}

/// RAII in-flight permit: decrements the gate count (and gauge) on every
/// exit path out of a decision, shed or served. Also handed out by
/// [`ConcurrentServer::acquire_slot`] so drain tooling and benches can
/// occupy the gate without running a decision.
pub struct InflightPermit<'a> {
    count: &'a AtomicUsize,
    gauge: Option<Arc<Gauge>>,
}

impl std::fmt::Debug for InflightPermit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InflightPermit").finish_non_exhaustive()
    }
}

impl Drop for InflightPermit<'_> {
    fn drop(&mut self) {
        let now = self.count.fetch_sub(1, Ordering::AcqRel) - 1;
        if let Some(g) = &self.gauge {
            g.set(i64::try_from(now).unwrap_or(i64::MAX));
        }
    }
}

/// An immutable view of everything the crypto phase of a decision depends
/// on, published at a single state version.
#[derive(Debug, Clone)]
pub struct DecisionSnapshot {
    version: u64,
    at: Time,
    /// Stale-recency refusal precomputed at publish time: the recency
    /// policy depends only on writer-side state (window, last CRL, clock),
    /// all captured by `version`.
    recency_refusal: Option<String>,
    store: Arc<TrustStore>,
    /// The live cache handle (internally synchronized and
    /// revocation-invalidated); `None` when the cache is off.
    verify_cache: Option<VerifyCache>,
    /// Whether the crypto phase routes through the trust store's shared
    /// fixed-base precomputation cache. The tables live *inside* `store`,
    /// so they travel behind the same `Arc` as the keys they were derived
    /// from — a store swap can never pair this snapshot with foreign
    /// tables.
    precomp: bool,
    /// Pre-resolved crypto-latency histogram, when metrics are attached.
    crypto_ns: Option<Arc<Histogram>>,
    /// The persistent cert/CRL/ACL store handle (internally synchronized,
    /// cloneable), when one is attached. Travels with the snapshot so
    /// readers can page in cold certificate bodies without the writer
    /// lock.
    cert_store: Option<CertStore>,
    /// The store epoch captured at publish — the store analogue of
    /// `version`: any store mutation bumps it, so a reader can tell
    /// whether index state moved since this snapshot was taken.
    store_epoch: u64,
}

impl DecisionSnapshot {
    fn capture(server: &CoalitionServer) -> Self {
        let cert_store = server.cert_store_handle();
        let store_epoch = cert_store.as_ref().map_or(0, CertStore::epoch);
        DecisionSnapshot {
            version: server.state_version(),
            at: server.now(),
            recency_refusal: server.recency_error(),
            store: server.trust_store_handle(),
            verify_cache: server.verify_cache_handle(),
            precomp: server.crypto_precomp(),
            crypto_ns: server.crypto_histogram(),
            cert_store,
            store_epoch,
        }
    }

    /// The state version this snapshot was published at.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The persistent cert/CRL/ACL store handle, when one is attached.
    #[must_use]
    pub fn cert_store(&self) -> Option<&CertStore> {
        self.cert_store.as_ref()
    }

    /// The store epoch captured at publish (0 when no store is attached).
    #[must_use]
    pub fn store_epoch(&self) -> u64 {
        self.store_epoch
    }

    /// The server clock captured at publish.
    #[must_use]
    pub fn at(&self) -> Time {
        self.at
    }

    /// Runs the lock-free phase of a decision: the recency check and the
    /// full crypto verification, against this snapshot's fixed state.
    pub(crate) fn evaluate(&self, req: &JointAccessRequest) -> CryptoOutcome {
        if let Some(detail) = &self.recency_refusal {
            return CryptoOutcome::failed(detail.clone());
        }
        let t = self.crypto_ns.as_ref().map(|_| Instant::now());
        let outcome = crypto_verify(
            &self.store,
            self.verify_cache.as_ref(),
            self.at,
            req,
            self.precomp,
            None,
        );
        if let (Some(h), Some(t)) = (&self.crypto_ns, t) {
            h.record_duration(t.elapsed());
        }
        outcome
    }
}

/// The publication cell: the current snapshot plus an atomic copy of its
/// version used as a cheap refresh hint.
///
/// The hot read path ([`SnapshotReader::load`]) is one atomic load and a
/// version compare; the slot mutex is taken only when the version actually
/// moved (or by the writer, which is rare by assumption). The hint is
/// *only* a hint: a reader acting on a stale cached snapshot is
/// indistinguishable from one that decided just before the publish, and
/// the commit-time version check catches it.
#[derive(Debug)]
struct SnapshotCell {
    version: AtomicU64,
    slot: Mutex<Arc<DecisionSnapshot>>,
}

impl SnapshotCell {
    fn new(snapshot: DecisionSnapshot) -> Self {
        SnapshotCell {
            version: AtomicU64::new(snapshot.version),
            slot: Mutex::new(Arc::new(snapshot)),
        }
    }

    fn load(&self) -> Arc<DecisionSnapshot> {
        Arc::clone(&self.slot.lock())
    }

    fn publish(&self, snapshot: DecisionSnapshot) {
        let version = snapshot.version;
        let snapshot = Arc::new(snapshot);
        let mut slot = self.slot.lock();
        *slot = snapshot;
        // Publish the hint only after the slot holds the matching
        // snapshot; a reader that races sees at worst an older hint and
        // keeps its cached (older) snapshot — never a mixed state.
        self.version.store(version, Ordering::Release);
    }
}

/// A per-worker cached view of the published snapshot. `load` refreshes
/// the cached `Arc` only when the atomic version hint moved, so steady-state
/// reads touch no lock at all.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    cell: &'a SnapshotCell,
    cached: Arc<DecisionSnapshot>,
}

impl SnapshotReader<'_> {
    /// The current snapshot (refreshing the cache if the version moved).
    pub fn load(&mut self) -> Arc<DecisionSnapshot> {
        let hint = self.cell.version.load(Ordering::Acquire);
        if self.cached.version != hint {
            self.cached = self.cell.load();
        }
        Arc::clone(&self.cached)
    }
}

/// A [`CoalitionServer`] behind the read/write split: lock-free snapshot
/// reads for the decision hot path, single-writer mutations that publish a
/// new epoch.
#[derive(Debug)]
pub struct ConcurrentServer {
    writer: Mutex<CoalitionServer>,
    published: SnapshotCell,
    /// In-flight decision count (the admission gate).
    inflight: AtomicUsize,
    /// Gate capacity; `0` = unlimited (gate off).
    inflight_limit: AtomicUsize,
    /// Lock-free-path instruments, when a registry is attached.
    gate_metrics: Mutex<Option<Arc<GateInstruments>>>,
    /// Volatile bounded audit ring for decisions shed off the writer lock —
    /// the serial audit log cannot record them without taking the very
    /// lock the shed path exists to avoid.
    shed_audit: Mutex<Ring<AuditEntry>>,
}

impl ConcurrentServer {
    /// Wraps a server, publishing its current state as the first snapshot.
    #[must_use]
    pub fn new(server: CoalitionServer) -> Self {
        let snapshot = DecisionSnapshot::capture(&server);
        ConcurrentServer {
            writer: Mutex::new(server),
            published: SnapshotCell::new(snapshot),
            inflight: AtomicUsize::new(0),
            inflight_limit: AtomicUsize::new(0),
            gate_metrics: Mutex::new(None),
            shed_audit: Mutex::new(Ring::new(SHED_AUDIT_CAPACITY)),
        }
    }

    /// Caps concurrent in-flight decisions. At the cap, further requests
    /// are **rejected** with a typed [`ShedReason::Overloaded`] decision —
    /// never queued: a queue under sustained overload grows without bound
    /// and destroys every deadline behind it. `0` disables the gate.
    pub fn set_inflight_limit(&self, limit: usize) {
        self.inflight_limit.store(limit, Ordering::Relaxed);
    }

    /// The configured in-flight cap (`0` = unlimited).
    #[must_use]
    pub fn inflight_limit(&self) -> usize {
        self.inflight_limit.load(Ordering::Relaxed)
    }

    /// Decisions currently in flight.
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Resolves the lock-free-path instruments (`server.inflight` gauge,
    /// `server.shed.{overloaded,deadline}` counters) from `registry`. The
    /// serial server's own pipeline instruments attach separately through
    /// the writer (`with_writer(|s| s.set_metrics(..))`); shed counters
    /// resolved from the same registry aggregate across both paths.
    pub fn set_gate_metrics(&self, registry: &MetricsRegistry) {
        *self.gate_metrics.lock() = Some(Arc::new(GateInstruments {
            inflight: registry.gauge("server.inflight"),
            shed_overloaded: registry.counter("server.shed.overloaded"),
            shed_deadline: registry.counter("server.shed.deadline"),
        }));
    }

    /// The shed-audit ring: decisions shed off the writer lock, oldest
    /// first (bounded; oldest lines evicted past capacity). Every entry has
    /// `shed: Some(..)` — Indeterminate outcomes, distinguishable from the
    /// policy denials in the serial audit log.
    #[must_use]
    pub fn shed_audit(&self) -> Vec<AuditEntry> {
        self.shed_audit.lock().as_deque().iter().cloned().collect()
    }

    /// Takes (and holds, until the permit drops) one admission-gate slot
    /// without running a decision; `None` means the gate is full. Drain
    /// tooling parks permits to shrink effective capacity, and benches
    /// use a parked permit to price the reject path deterministically.
    #[must_use]
    pub fn acquire_slot(&self) -> Option<InflightPermit<'_>> {
        let instruments = self.gate_metrics.lock().clone();
        self.try_enter(instruments.as_ref())
    }

    /// Tries to take an in-flight slot; `None` means the gate is full.
    fn try_enter(&self, instruments: Option<&Arc<GateInstruments>>) -> Option<InflightPermit<'_>> {
        let limit = self.inflight_limit.load(Ordering::Relaxed);
        let prev = self.inflight.fetch_add(1, Ordering::AcqRel);
        if limit != 0 && prev >= limit {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        let gauge = instruments.map(|m| Arc::clone(&m.inflight));
        if let Some(g) = &gauge {
            g.set(i64::try_from(prev + 1).unwrap_or(i64::MAX));
        }
        Some(InflightPermit {
            count: &self.inflight,
            gauge,
        })
    }

    /// Sheds a request without touching the writer lock: a typed decision,
    /// a line in the bounded shed-audit ring, and a counter bump. Stamped
    /// with the published snapshot's clock (the freshest time visible
    /// without the lock).
    fn shed_unlocked(
        &self,
        req: &JointAccessRequest,
        reason: ShedReason,
        detail: &str,
        instruments: Option<&Arc<GateInstruments>>,
    ) -> ServerDecision {
        let entry = AuditEntry {
            at: self.published.load().at(),
            principals: req.statements.iter().map(|s| s.principal.clone()).collect(),
            operation: req.operation.clone(),
            granted: false,
            detail: detail.to_string(),
            cached_checks: 0,
            retry_trace: None,
            shed: Some(reason),
        };
        self.shed_audit.lock().push(entry);
        if let Some(m) = instruments {
            match reason {
                ShedReason::Overloaded => m.shed_overloaded.inc(),
                ShedReason::DeadlineExceeded => m.shed_deadline.inc(),
                // Poison sheds happen under the writer lock (the serial
                // server owns that state) and are counted there.
                ShedReason::JournalPoisoned => {}
            }
        }
        ServerDecision::shed(reason, detail)
    }

    /// Unwraps back into the plain server.
    #[must_use]
    pub fn into_inner(self) -> CoalitionServer {
        self.writer.into_inner()
    }

    /// The currently published snapshot.
    #[must_use]
    pub fn snapshot(&self) -> Arc<DecisionSnapshot> {
        self.published.load()
    }

    /// A per-worker cached snapshot reader (steady-state loads are one
    /// atomic read).
    #[must_use]
    pub fn reader(&self) -> SnapshotReader<'_> {
        SnapshotReader {
            cell: &self.published,
            cached: self.published.load(),
        }
    }

    /// Runs a mutation under the writer lock and republishes the snapshot
    /// if the mutation moved the state version. This is the **single
    /// writer**: every admission, revocation, clock advance, and
    /// configuration change goes through here (each is WAL-journaled
    /// before taking effect by the underlying server).
    pub fn with_writer<R>(&self, f: impl FnOnce(&mut CoalitionServer) -> R) -> R {
        let mut server = self.writer.lock();
        let before = server.state_version();
        let out = f(&mut server);
        if server.state_version() != before {
            self.published.publish(DecisionSnapshot::capture(&server));
        }
        out
    }

    /// Read-only access to the underlying server (takes the writer lock;
    /// for inspection, not the decision hot path).
    pub fn read<R>(&self, f: impl FnOnce(&CoalitionServer) -> R) -> R {
        f(&self.writer.lock())
    }

    /// Convenience passthrough: advances the clock through the writer.
    ///
    /// # Errors
    ///
    /// Propagates [`CoalitionServer::advance_clock`] errors.
    pub fn advance_clock(&self, to: Time) -> Result<(), CoalitionError> {
        self.with_writer(|s| s.advance_clock(to))
    }

    /// Decides a request: crypto off-lock against the published snapshot,
    /// serial tail under the writer lock, with commit-time version
    /// validation (see the module docs).
    pub fn decide(&self, req: &JointAccessRequest) -> ServerDecision {
        self.decide_with(req, || {})
    }

    /// Decides using a caller-owned cached [`SnapshotReader`] (saves the
    /// slot lock when the version has not moved).
    pub fn decide_with_reader<'a>(
        &'a self,
        reader: &mut SnapshotReader<'a>,
        req: &JointAccessRequest,
    ) -> ServerDecision {
        self.decide_inner(req, Some(reader), &mut || {})
    }

    /// Test hook variant of [`ConcurrentServer::decide`]: `mid_crypto` runs
    /// after the crypto phase of the first attempt, **before** the writer
    /// lock is taken — the window in which a concurrent admission must be
    /// able to proceed. Used by the regression test for the
    /// "no writer lock across the crypto phase" invariant.
    #[doc(hidden)]
    pub fn decide_with(
        &self,
        req: &JointAccessRequest,
        mut mid_crypto: impl FnMut(),
    ) -> ServerDecision {
        self.decide_inner(req, None, &mut mid_crypto)
    }

    fn decide_inner<'a>(
        &'a self,
        req: &JointAccessRequest,
        reader: Option<&mut SnapshotReader<'a>>,
        mid_crypto: &mut dyn FnMut(),
    ) -> ServerDecision {
        let instruments = self.gate_metrics.lock().clone();
        // Admission gate: reject at the door, never queue. The rejection
        // path touches no lock a decision in progress could be holding.
        let Some(_permit) = self.try_enter(instruments.as_ref()) else {
            return self.shed_unlocked(
                req,
                ShedReason::Overloaded,
                "in-flight limit reached: request rejected at admission, not queued",
                instruments.as_ref(),
            );
        };
        let mut own_reader;
        let reader = match reader {
            Some(r) => r,
            None => {
                own_reader = self.reader();
                &mut own_reader
            }
        };
        for attempt in 0..MAX_OPTIMISTIC_ATTEMPTS {
            // Pre-crypto deadline gate: don't spend signature work on a
            // request whose budget is already gone.
            if req.deadline.is_some_and(|d| Instant::now() >= d) {
                return self.shed_unlocked(
                    req,
                    ShedReason::DeadlineExceeded,
                    "deadline budget exhausted before the crypto phase",
                    instruments.as_ref(),
                );
            }
            let snapshot = reader.load();
            // Lock-free phase: recency + crypto against the immutable
            // snapshot. No writer can be blocked by this work.
            let outcome = snapshot.evaluate(req);
            if attempt == 0 {
                mid_crypto();
            }
            // Pre-commit deadline gate: the answer would land after the
            // caller stopped caring — don't take the writer lock for it.
            if req.deadline.is_some_and(|d| Instant::now() >= d) {
                return self.shed_unlocked(
                    req,
                    ShedReason::DeadlineExceeded,
                    "deadline budget exhausted before the commit phase",
                    instruments.as_ref(),
                );
            }
            let mut server = self.writer.lock();
            if server.state_version() == snapshot.version {
                // Nothing changed since the snapshot: committing now is
                // byte-identical to serial execution at this version.
                let decision = server.finish_decision(req, outcome);
                // The tail itself may admit request certificates (bumping
                // the engine epoch); republish so the next reader sees it.
                if server.state_version() != snapshot.version {
                    self.published.publish(DecisionSnapshot::capture(&server));
                }
                return decision;
            }
            // A mutation landed in between; if the writer republished we
            // retry against the fresh snapshot off-lock. (The writer always
            // republishes on version change, so the reader will observe a
            // new version.)
            drop(server);
        }
        // Contention fallback: run the whole pipeline serially under the
        // lock — always sound, never starved.
        let mut server = self.writer.lock();
        let before = server.state_version();
        let decision = server.handle_request(req);
        if server.state_version() != before {
            self.published.publish(DecisionSnapshot::capture(&server));
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::CoalitionBuilder;
    use jaap_core::protocol::Operation;

    fn coalition(seed: u64) -> crate::scenario::Coalition {
        CoalitionBuilder::new()
            .domains(&["D1", "D2", "D3"])
            .key_bits(192)
            .seed(seed)
            .build()
            .expect("build")
    }

    #[test]
    fn decide_matches_serial_server() {
        let mut serial = coalition(41);
        let mut conc = coalition(41);
        let reqs: Vec<_> = [
            (20, vec!["User_D1", "User_D2"]),
            (21, vec!["User_D3"]),
            (22, vec!["User_D2", "User_D3"]),
        ]
        .into_iter()
        .map(|(t, signers)| {
            serial.advance_time(Time(t)).expect("clock");
            conc.advance_time(Time(t)).expect("clock");
            conc.build_request(&signers, Operation::new("write", "Object O"))
                .expect("request")
        })
        .collect();
        // Requests were built at increasing times; decide them all at the
        // final clock on both sides.
        let server = ConcurrentServer::new(conc.into_server());
        for req in &reqs {
            let e = serial.server_mut().handle_request(req);
            let g = server.decide(req);
            assert_eq!(g.granted, e.granted);
            assert_eq!(g.detail, e.detail);
            assert_eq!(g.signature_checks, e.signature_checks);
            assert_eq!(g.axiom_applications, e.axiom_applications);
        }
        let version = server.read(|s| s.object("Object O").expect("obj").version);
        assert_eq!(
            version,
            serial.server().object("Object O").expect("obj").version
        );
    }

    #[test]
    fn mutations_republish_and_decisions_see_new_epoch() {
        let c = coalition(42);
        let req = c
            .build_request(&["User_D1", "User_D2"], Operation::new("write", "Object O"))
            .expect("request");
        let server = ConcurrentServer::new(c.into_server());
        let v0 = server.snapshot().version();
        server.advance_clock(Time(25)).expect("clock");
        let snap = server.snapshot();
        assert!(
            snap.version() > v0,
            "clock advance must publish a new epoch"
        );
        assert_eq!(snap.at(), Time(25));
        // A decision that admits new certificate bodies republishes too.
        let d = server.decide(&req);
        assert!(d.granted);
        assert!(server.snapshot().version() > snap.version());
        // Deciding the same request again changes nothing (bodies known).
        let v_stable = server.snapshot().version();
        let _ = server.decide(&req);
        assert_eq!(server.snapshot().version(), v_stable);
    }

    #[test]
    fn reader_refreshes_only_on_version_move() {
        let c = ConcurrentServer::new(CoalitionServer::new("P", TrustStore::new(Time(0))));
        let mut reader = c.reader();
        let s1 = reader.load();
        let s2 = reader.load();
        assert!(Arc::ptr_eq(&s1, &s2));
        c.advance_clock(Time(5)).expect("clock");
        let s3 = reader.load();
        assert!(!Arc::ptr_eq(&s2, &s3));
        assert_eq!(s3.at(), Time(5));
        assert!(s3.version() > s2.version());
    }
}
