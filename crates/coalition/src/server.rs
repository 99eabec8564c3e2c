//! The coalition server `P`: a reference monitor combining cryptographic
//! verification with the §4.3 authorization protocol, plus an audit log.
//!
//! Verification pipeline for a joint access request:
//!
//! 1. **Crypto** — verify every certificate signature against the trusted
//!    keys ([`jaap_pki::TrustStore`]) and every request-statement signature
//!    against the key certified for its signer. This phase is a pure
//!    function of the trust store and the request, so it can be memoized
//!    (the optional [`VerifyCache`]) and fanned out across worker threads
//!    ([`CoalitionServer::verify_batch`]).
//! 2. **Logic** — idealize the verified certificates and run the four-step
//!    authorization protocol ([`jaap_core::protocol::authorize`]), yielding
//!    a machine-checkable derivation. This phase mutates the belief engine
//!    and therefore always runs serially, in request order.
//! 3. **ACL** — the object's ACL entry `(G, op)` is the final side
//!    condition.
//!
//! The logic step can be disabled ([`CoalitionServer::set_logic_checking`])
//! for the D3 ablation (crypto-only reference monitor), which measures what
//! the derivation layer costs and what it adds. For the same honesty,
//! decisions and audit entries record how many signature checks were served
//! from the cache rather than verified cryptographically.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use jaap_core::engine::Engine;
use jaap_core::protocol::{self, AccessRequest, Acl, Operation, SignedStatement};
use jaap_core::syntax::Time;
use jaap_core::{Derivation, MemoStats};
use jaap_crypto::batch;
use jaap_crypto::rsa::{RsaCiphertext, RsaPublicKey, RsaSignature};
use jaap_obs::bounded::{FifoMap, Ring};
use jaap_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use jaap_pki::attribute::AttributeRevocation;
use jaap_pki::{key_name, IdentityRevocation, TrustStore};
use jaap_store::CertStore;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::cache::{self, VerifyCache};
use crate::journal::{ConfigKind, DecisionRecord, JournalRecord, ReplayRecord, ServerJournal};
use crate::pool::WorkerPool;
use crate::request::{statement_bytes, JointAccessRequest};
use crate::CoalitionError;

/// A jointly owned coalition object: a name, an ACL, and a write-version
/// counter (contents are out of scope; policy is the point).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoalitionObject {
    /// Object name (e.g. `"Object O"`).
    pub name: String,
    /// The object's ACL.
    pub acl: Acl,
    /// Number of granted writes (version).
    pub version: u64,
    /// The object's contents (returned, encrypted, on granted reads).
    pub content: Vec<u8>,
}

/// Why a request was shed without a policy evaluation. The XACML lesson
/// (*The Logic of XACML*): evaluation failure is its own typed outcome —
/// Indeterminate — never conflated with Deny. A shed request may succeed
/// verbatim if retried; a policy denial will not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The in-flight admission gate was full: the server refused to queue
    /// the request rather than let the backlog destroy every deadline.
    Overloaded,
    /// The request's deadline budget ran out at a phase boundary
    /// (pre-crypto, pre-logic, or pre-commit).
    DeadlineExceeded,
    /// The server is fail-stopped: a durability-path write failed and
    /// in-memory state can no longer be trusted to match the durable log.
    JournalPoisoned,
}

/// One audit-log line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEntry {
    /// Server time of the decision.
    pub at: Time,
    /// The signers named in the request.
    pub principals: Vec<String>,
    /// The operation.
    pub operation: Operation,
    /// Decision.
    pub granted: bool,
    /// Denial detail (empty when granted).
    pub detail: String,
    /// How many signature checks were satisfied from the verification
    /// cache instead of being verified cryptographically (0 with the cache
    /// off) — recorded so ablation runs can't silently claim crypto work
    /// that never happened.
    pub cached_checks: usize,
    /// Signing-session retry trace, when the decision followed a degraded
    /// networked signing attempt (timeouts, failovers, re-requests).
    pub retry_trace: Option<String>,
    /// `Some` when the request was shed (overload, deadline, poisoned
    /// journal) rather than evaluated: Indeterminate, distinguishable from
    /// a policy `Deny` in the audit log. Shed lines are volatile — they are
    /// never journaled and do not survive snapshot compaction.
    pub shed: Option<ShedReason>,
}

/// The server's decision on a joint access request.
#[derive(Debug, Clone)]
pub struct ServerDecision {
    /// Whether access was granted.
    pub granted: bool,
    /// Denial detail when refused.
    pub detail: Option<String>,
    /// The logical proof (present iff granted with logic checking on),
    /// shared via [`Arc`] so cloning a decision never copies the tree.
    pub derivation: Option<Arc<Derivation>>,
    /// Axiom applications spent (0 with logic checking off).
    pub axiom_applications: usize,
    /// Number of RSA signature verifications actually performed.
    pub signature_checks: usize,
    /// Number of certificate checks served from the verification cache
    /// (their signatures were verified on an earlier, byte-identical
    /// presentation). `signature_checks + cached_signature_checks` is the
    /// total number of checks the decision rests on.
    pub cached_signature_checks: usize,
    /// For granted reads: the object contents encrypted under the
    /// requestor's certified key (Figure 2(d): `Response: {Object O}_Ku3`).
    pub response: Option<RsaCiphertext>,
    /// True when the request was denied not on policy grounds but because
    /// the coalition could not complete a joint signing session (fewer than
    /// the required domains were reachable). Such a request may succeed if
    /// retried later — a policy denial will not.
    pub unavailable: bool,
    /// `Some` when the request was shed without a policy evaluation
    /// (overload, deadline budget, poisoned journal). Shed decisions are
    /// journal-cheap (no WAL record), never enter the replay window, the
    /// verify cache, or the derivation memo, and always carry
    /// `unavailable = true`: they are Indeterminate, not Deny.
    pub shed: Option<ShedReason>,
}

impl ServerDecision {
    /// Builds a typed shed decision (Indeterminate, not Deny).
    #[must_use]
    pub fn shed(reason: ShedReason, detail: impl Into<String>) -> Self {
        ServerDecision {
            granted: false,
            detail: Some(detail.into()),
            derivation: None,
            axiom_applications: 0,
            signature_checks: 0,
            cached_signature_checks: 0,
            response: None,
            unavailable: true,
            shed: Some(reason),
        }
    }
}

/// The crypto phase's verified artifacts: idealized certificates and the
/// signed statements, ready for the logic engine.
pub(crate) struct CryptoVerified {
    identity_msgs: Vec<jaap_core::syntax::Message>,
    attribute_msgs: Vec<jaap_core::syntax::Message>,
    signed_statements: Vec<SignedStatement>,
}

/// Everything the crypto phase produces for one request, including the
/// check counters for failed verifications (they did real work too).
pub(crate) struct CryptoOutcome {
    pub(crate) signature_checks: usize,
    pub(crate) cached_signature_checks: usize,
    pub(crate) result: Result<CryptoVerified, String>,
}

impl CryptoOutcome {
    pub(crate) fn failed(detail: String) -> Self {
        CryptoOutcome {
            signature_checks: 0,
            cached_signature_checks: 0,
            result: Err(detail),
        }
    }
}

/// Per-request view of the batch pre-pass
/// ([`CoalitionServer::batch_precheck`]): which presented certificates
/// were already vouched — screened by the combined small-exponents
/// checks and confirmed by exact settlement or bisection. Vouchers
/// are positional — the pre-pass inspected the exact artifact at that
/// position — so the per-request phase does no hashing to consult them.
/// A vouched certificate skips its individual verification inside
/// [`crypto_verify`] but still counts toward `signature_checks` (the
/// check happened — in a batch), so decisions and audit lines are
/// byte-identical with batching on or off. Vouched certificates are
/// deliberately **not** inserted into the [`VerifyCache`]: the cache only
/// ever holds certificates that survived an *individual* verification.
/// Request statements are never batched: they are one-shot residues, and
/// with a small public exponent a combined check costs more multiplies
/// than the serial exponentiation it would replace — they take the
/// precomp path (shared Montgomery contexts) instead.
pub(crate) struct CryptoPrecheck {
    /// `id[i]` ⟺ `identity_certs[i]`'s signature batch-verified.
    id: Vec<bool>,
    /// `thr[i]` ⟺ `threshold_certs[i]`'s signature batch-verified.
    thr: Vec<bool>,
    /// `attr[i]` ⟺ `attribute_certs[i]`'s signature batch-verified.
    attr: Vec<bool>,
}

/// Default bound on the replay-protection `seen` map: enough to absorb any
/// realistic retry window while keeping a long-running server's memory flat
/// on an unbounded request stream. Override with
/// [`CapacityConfig::replay`] through
/// [`CoalitionServer::apply_capacity_config`].
pub const DEFAULT_REPLAY_CAPACITY: usize = 1024;

/// Default bound on the audit log: old entries rotate out oldest-first once
/// the log exceeds this many lines, so an unbounded request stream cannot
/// grow the server's memory without bound. Override with
/// [`CapacityConfig::audit`] through
/// [`CoalitionServer::apply_capacity_config`].
pub const DEFAULT_AUDIT_CAPACITY: usize = 8192;

/// One coherent sizing of every bounded structure the server owns —
/// replay window, audit log, verification cache, derivation memo, and the
/// persistent store's cold-tier page budget. The only way to size a
/// server is [`CoalitionServer::apply_capacity_config`], which journals
/// each bound so recovery rebuilds the same sizing; no single bound can
/// then silently become the working-set bottleneck.
/// [`CapacityConfig::default`] reproduces the historical defaults
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityConfig {
    /// Replay-protection `seen` bound, at least 1
    /// ([`DEFAULT_REPLAY_CAPACITY`]).
    pub replay: usize,
    /// Audit-log bound, at least 1 ([`DEFAULT_AUDIT_CAPACITY`]).
    pub audit: usize,
    /// Verification-cache bound; `None` keeps the crate default
    /// ([`cache::DEFAULT_CACHE_CAPACITY`]), `Some(usize::MAX)` is
    /// effectively unbounded.
    pub verify_cache: Option<usize>,
    /// Derivation-memo bound; `None` leaves the memo's bound as it is
    /// (the engine default is 1024).
    pub derivation_memo: Option<usize>,
    /// Cold-tier page budget for an attached [`CertStore`]; `None` keeps
    /// the store's configured budget.
    pub store_cache_pages: Option<usize>,
}

impl Default for CapacityConfig {
    fn default() -> Self {
        CapacityConfig {
            replay: DEFAULT_REPLAY_CAPACITY,
            audit: DEFAULT_AUDIT_CAPACITY,
            verify_cache: None,
            derivation_memo: None,
            store_cache_pages: None,
        }
    }
}

impl CapacityConfig {
    /// A sizing tuned for ≥10⁶ certified principals: wide replay and
    /// verify-cache windows so the Zipf-hot population stays warm, a
    /// larger memo, and a bigger (still bounded) cold-tier page budget.
    #[must_use]
    pub fn million_principals() -> Self {
        CapacityConfig {
            replay: 65_536,
            audit: DEFAULT_AUDIT_CAPACITY,
            verify_cache: Some(65_536),
            derivation_memo: Some(65_536),
            store_cache_pages: Some(256),
        }
    }
}

/// Journal encoding of a capacity bound (saturating at `i64::MAX`).
fn encode_bound(capacity: usize) -> i64 {
    i64::try_from(capacity).unwrap_or(i64::MAX)
}

/// Journal encoding of an optional capacity bound: `-1` for `None`.
fn encode_optional_bound(capacity: Option<usize>) -> i64 {
    capacity.map_or(-1, encode_bound)
}

/// Registry handles for the §4.3 pipeline, pre-resolved once when a
/// registry is attached ([`CoalitionServer::set_metrics`]) so the per-request
/// path touches atomics only. With no registry attached the server performs
/// no metrics work at all — not even `Instant::now()` calls.
#[derive(Debug, Clone)]
struct ServerMetrics {
    /// The registry the handles came from (re-used to wire the
    /// verification cache when it is enabled later).
    registry: MetricsRegistry,
    recency_ns: Arc<Histogram>,
    crypto_ns: Arc<Histogram>,
    logic_ns: Arc<Histogram>,
    acl_ns: Arc<Histogram>,
    decision_ns: Arc<Histogram>,
    decisions: Arc<Counter>,
    granted: Arc<Counter>,
    denied: Arc<Counter>,
    replay_hits: Arc<Counter>,
    memo_hits: Arc<Counter>,
    memo_misses: Arc<Counter>,
    memo_evictions: Arc<Counter>,
    memo_invalidations: Arc<Counter>,
    memo_entries: Arc<Gauge>,
    interner_symbols: Arc<Gauge>,
    interner_subjects: Arc<Gauge>,
    interner_messages: Arc<Gauge>,
    interner_formulas: Arc<Gauge>,
    journal_appends: Arc<Counter>,
    journal_bytes: Arc<Counter>,
    journal_snapshots: Arc<Counter>,
    journal_append_ns: Arc<Histogram>,
    crypto_precomp_hits: Arc<Counter>,
    crypto_batch_verifies: Arc<Counter>,
    crypto_batch_fallbacks: Arc<Counter>,
    shed_overloaded: Arc<Counter>,
    shed_deadline: Arc<Counter>,
    shed_poisoned: Arc<Counter>,
    deadline_slack_ns: Arc<Histogram>,
    journal_poisoned: Arc<Gauge>,
}

impl ServerMetrics {
    fn resolve(registry: &MetricsRegistry) -> Self {
        ServerMetrics {
            recency_ns: registry.histogram("server.phase.recency_ns"),
            crypto_ns: registry.histogram("server.phase.crypto_ns"),
            logic_ns: registry.histogram("server.phase.logic_ns"),
            acl_ns: registry.histogram("server.phase.acl_ns"),
            decision_ns: registry.histogram("server.decision_ns"),
            decisions: registry.counter("server.decisions"),
            granted: registry.counter("server.granted"),
            denied: registry.counter("server.denied"),
            replay_hits: registry.counter("server.replay.hits"),
            memo_hits: registry.counter("server.memo.hits"),
            memo_misses: registry.counter("server.memo.misses"),
            memo_evictions: registry.counter("server.memo.evictions"),
            memo_invalidations: registry.counter("server.memo.invalidations"),
            memo_entries: registry.gauge("server.memo.entries"),
            interner_symbols: registry.gauge("server.interner.symbols"),
            interner_subjects: registry.gauge("server.interner.subjects"),
            interner_messages: registry.gauge("server.interner.messages"),
            interner_formulas: registry.gauge("server.interner.formulas"),
            journal_appends: registry.counter("server.journal.appends"),
            journal_bytes: registry.counter("server.journal.bytes"),
            journal_snapshots: registry.counter("server.journal.snapshots"),
            journal_append_ns: registry.histogram("server.journal.append_ns"),
            crypto_precomp_hits: registry.counter("server.crypto.precomp_hits"),
            crypto_batch_verifies: registry.counter("server.crypto.batch_verifies"),
            crypto_batch_fallbacks: registry.counter("server.crypto.batch_fallbacks"),
            shed_overloaded: registry.counter("server.shed.overloaded"),
            shed_deadline: registry.counter("server.shed.deadline"),
            shed_poisoned: registry.counter("server.shed.poisoned"),
            deadline_slack_ns: registry.histogram("server.deadline.slack_ns"),
            journal_poisoned: registry.gauge("server.journal.poisoned"),
            registry: registry.clone(),
        }
    }
}

/// The coalition server.
#[derive(Debug)]
pub struct CoalitionServer {
    name: String,
    /// The trust anchors, shared via [`Arc`] so a published
    /// [`DecisionSnapshot`](crate::concurrent::DecisionSnapshot) can hold
    /// them without copying. Immutable after construction.
    store: Arc<TrustStore>,
    engine: Engine,
    objects: Vec<CoalitionObject>,
    /// The audit log, bounded at `capacities.audit` (oldest lines rotate
    /// out first).
    audit: Ring<AuditEntry>,
    /// The journaled sizing of every bounded structure (the cert-store
    /// page budget is forwarded, not kept).
    capacities: CapacityConfig,
    logic_checking: bool,
    /// Recency policy for revocation information (Stubblebine–Wright):
    /// when set, requests are refused unless a CRL no older than the window
    /// has been admitted.
    revocation_recency: Option<i64>,
    last_crl: Option<(u64, Time)>,
    /// When on, duplicate deliveries of the same request (by canonical
    /// digest) return the original decision instead of being re-processed.
    replay_protection: bool,
    /// Digest → decision cache backing replay protection, bounded at
    /// `capacities.replay` (oldest decisions evicted by insertion order).
    seen: FifoMap<String, ServerDecision>,
    /// Optional certificate-verification memoization (off by default so
    /// benchmarks measure real verification work).
    verify_cache: Option<VerifyCache>,
    /// Optional persistent, indexed cert/CRL/ACL store
    /// ([`CoalitionServer::attach_cert_store`]). When attached, every
    /// admission writes its row to the store *before* the in-memory
    /// effect — store-before-effect, composing with the journal's
    /// WAL-before-effect — so a restarted server can rebuild its entire
    /// certified population from the store's indexes.
    cert_store: Option<CertStore>,
    /// Fixed-base window precomputation for the crypto phase (off by
    /// default so benchmarks measure uncached exponentiation). The tables
    /// themselves live inside the trust store's shared
    /// [`jaap_crypto::precomp::VerifierPrecomp`], so every published
    /// decision snapshot carries them behind the same `Arc` as the keys
    /// they were derived from — a store swap or key rotation can never
    /// pair a stale table with a new key.
    crypto_precomp: bool,
    /// Small-exponents randomized batch signature verification across the
    /// requests of one [`CoalitionServer::verify_batch`] call (off by
    /// default). Verdicts are identical to serial verification: a passing
    /// combined screen is settled with exact per-item checks and a failed
    /// one falls back to bisection with exact per-item leaf checks.
    batch_verify: bool,
    /// Precomp cache hits already mirrored into the registry (the shared
    /// cache's counters are monotone; each mirror pushes the delta).
    precomp_mirrored: u64,
    /// Seeds the per-batch random weights of batch verification. Seeded
    /// from OS entropy, never a constant: the weights are security
    /// parameters of the combined screen, and a submitter who can predict
    /// them can steer batches into worst-case bisection work (verdicts
    /// stay exact regardless — settlement confirms every screened item).
    /// Separate from `rng` so enabling batching never perturbs the
    /// response encryption stream, and so replaying a journal (which
    /// re-derives `rng`-driven state) never depends on weight draws.
    batch_rng: StdRng,
    /// Pre-resolved instrument handles; `None` keeps the request path free
    /// of metrics work entirely.
    metrics: Option<ServerMetrics>,
    /// Memo statistics already mirrored into the registry; counters are
    /// monotone, so each mirror pushes only the delta since this snapshot.
    memo_mirrored: MemoStats,
    /// The write-ahead journal, when durability is on
    /// ([`CoalitionServer::attach_journal`] /
    /// [`CoalitionServer::recover`]). `None` during recovery replay, so
    /// replayed mutations are not re-journaled.
    journal: Option<ServerJournal>,
    /// Auto-snapshot threshold: when set, any journaled record that pushes
    /// the log past this many bytes triggers a snapshot rewrite.
    snapshot_threshold: Option<u64>,
    /// A threshold crossing was observed but the crossing record's
    /// in-memory effects were not yet applied; the snapshot runs right
    /// before the *next* append, when the state is consistent again.
    snapshot_pending: bool,
    /// Server-local state revision: bumped on every mutation the engine's
    /// own [`Engine::state_version`] cannot see (object/ACL/content edits,
    /// CRL recency anchors, configuration flips). The sum of the two is
    /// [`CoalitionServer::state_version`], the single version number every
    /// published decision snapshot is validated against.
    local_rev: u64,
    /// The sticky fail-stop state (fsyncgate semantics): set when a
    /// durability-path write — journal append, snapshot rewrite, or
    /// cert-store put — fails after the corresponding WAL record may have
    /// partially reached the medium. From then on every mutator returns
    /// [`CoalitionError::JournalPoisoned`] and every decision sheds with
    /// [`ShedReason::JournalPoisoned`]; the only way forward is
    /// [`CoalitionServer::recover`], which replays the durable prefix into
    /// a fresh server. A failed fsync is never retried: the write may or
    /// may not be on disk, so the in-memory state is no longer known to
    /// match the log.
    poisoned: Option<String>,
    rng: StdRng,
}

/// What [`CoalitionServer::recover`] found in the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records decoded and replayed.
    pub records_replayed: usize,
    /// Total journal bytes scanned.
    pub bytes_scanned: u64,
    /// Why (and where) the tail was truncated, `None` for a clean log.
    pub truncation: Option<String>,
    /// Unreplayable tail bytes dropped (torn/corrupt writes).
    pub truncated_bytes: u64,
}

impl CoalitionServer {
    /// Creates the server with a trust store; the engine's initial beliefs
    /// are derived from it (Statements 1–11).
    #[must_use]
    pub fn new(name: impl Into<String>, store: TrustStore) -> Self {
        let name = name.into();
        let engine = Engine::new(name.as_str(), store.assumptions());
        CoalitionServer {
            name,
            store: Arc::new(store),
            engine,
            objects: Vec::new(),
            audit: Ring::new(DEFAULT_AUDIT_CAPACITY),
            capacities: CapacityConfig::default(),
            logic_checking: true,
            revocation_recency: None,
            last_crl: None,
            replay_protection: false,
            seen: FifoMap::new(Some(DEFAULT_REPLAY_CAPACITY)),
            verify_cache: None,
            cert_store: None,
            crypto_precomp: false,
            batch_verify: false,
            precomp_mirrored: 0,
            batch_rng: StdRng::from_os_rng(),
            metrics: None,
            memo_mirrored: MemoStats::default(),
            journal: None,
            snapshot_threshold: None,
            snapshot_pending: false,
            local_rev: 0,
            poisoned: None,
            rng: StdRng::seed_from_u64(0x5EC5EC),
        }
    }

    /// The sticky fail-stop poison detail, `None` while healthy. See
    /// [`CoalitionError::JournalPoisoned`].
    #[must_use]
    pub fn poisoned(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    /// Transitions to the sticky fail-stop state (first detail wins) and
    /// returns the typed error. Mutators and decisions refuse from here on;
    /// only [`CoalitionServer::recover`] resumes service.
    fn poison(&mut self, detail: String) -> CoalitionError {
        let detail = self.poisoned.get_or_insert(detail).clone();
        if let Some(m) = &self.metrics {
            m.journal_poisoned.set(1);
        }
        CoalitionError::JournalPoisoned(detail)
    }

    /// The poisoned-state refusal, `Err` while poisoned.
    fn ensure_unpoisoned(&self) -> Result<(), CoalitionError> {
        match &self.poisoned {
            Some(detail) => Err(CoalitionError::JournalPoisoned(detail.clone())),
            None => Ok(()),
        }
    }

    /// The server's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The monotone version of everything a decision depends on: the
    /// engine's [`Engine::state_version`] (beliefs, revocations, freshness
    /// window, clock) plus the server-local revision (objects, ACLs,
    /// contents, recency anchors, configuration). Any two decisions
    /// evaluated at the same `state_version` see identical inputs; a
    /// published snapshot whose version differs from the live one is stale.
    #[must_use]
    pub fn state_version(&self) -> u64 {
        self.engine.state_version() + self.local_rev
    }

    /// Bumps the server-local revision (see [`CoalitionServer::state_version`]).
    fn touch(&mut self) {
        self.local_rev += 1;
    }

    /// All registered objects.
    #[must_use]
    pub fn objects(&self) -> &[CoalitionObject] {
        &self.objects
    }

    /// The shared trust-anchor handle (for decision snapshots).
    #[must_use]
    pub fn trust_store_handle(&self) -> Arc<TrustStore> {
        Arc::clone(&self.store)
    }

    /// The live verification-cache handle, if the cache is on. The cache is
    /// internally synchronized and revocation-invalidated, so a snapshot
    /// shares the handle rather than copying entries.
    pub(crate) fn verify_cache_handle(&self) -> Option<VerifyCache> {
        self.verify_cache.clone()
    }

    /// Attaches a persistent cert/CRL/ACL store. From here on, CRLs,
    /// revocations, ACL rows and first-seen request certificates are
    /// written to the store before their in-memory effect (store-before-
    /// effect). Existing objects' ACL rows are backfilled so the store
    /// reflects the server's current policy surface.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::Store`] if the backfill write fails.
    pub fn attach_cert_store(&mut self, store: CertStore) -> Result<(), CoalitionError> {
        self.ensure_unpoisoned()?;
        for obj in &self.objects {
            store.put_acl(&obj.name, &obj.acl)?;
        }
        if let Some(m) = &self.metrics {
            store.set_metrics(&m.registry);
        }
        self.cert_store = Some(store);
        // Bump the state version so concurrent front-ends republish their
        // snapshot with the store handle aboard.
        self.touch();
        Ok(())
    }

    /// The attached persistent store, if any.
    #[must_use]
    pub fn cert_store(&self) -> Option<&CertStore> {
        self.cert_store.as_ref()
    }

    /// A cloneable handle on the attached store (for decision snapshots;
    /// handles share one index and one lock-free epoch counter).
    pub(crate) fn cert_store_handle(&self) -> Option<CertStore> {
        self.cert_store.clone()
    }

    /// The pre-resolved crypto-phase histogram, when metrics are attached
    /// (snapshots record crypto latency off the writer lock).
    pub(crate) fn crypto_histogram(&self) -> Option<Arc<Histogram>> {
        self.metrics.as_ref().map(|m| Arc::clone(&m.crypto_ns))
    }

    /// Registers a jointly owned object with its ACL.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::JournalPoisoned`] when the journal append or the
    /// cert-store ACL row fails (the server fail-stops: the record may be
    /// partially durable, so proceeding in memory would diverge from the
    /// log) — or when the server was already poisoned.
    pub fn add_object(&mut self, name: impl Into<String>, acl: Acl) -> Result<(), CoalitionError> {
        let name = name.into();
        self.touch();
        self.journal_append(&JournalRecord::ObjectAdded {
            name: name.clone(),
            acl: acl.clone(),
        })?;
        if let Some(cs) = self.cert_store.clone() {
            if let Err(e) = cs.put_acl(&name, &acl) {
                return Err(self.poison(format!("cert store ACL row failed: {e}")));
            }
        }
        self.objects.push(CoalitionObject {
            name,
            acl,
            version: 0,
            content: Vec::new(),
        });
        Ok(())
    }

    /// Looks up an object.
    #[must_use]
    pub fn object(&self, name: &str) -> Option<&CoalitionObject> {
        self.objects.iter().find(|o| o.name == name)
    }

    /// Replaces an object's ACL (policy-object update — itself subject to
    /// a granted `set-policy` request at the caller's layer).
    ///
    /// # Errors
    ///
    /// [`CoalitionError::Config`] for an unknown object.
    pub fn set_acl(&mut self, name: &str, acl: Acl) -> Result<(), CoalitionError> {
        if !self.objects.iter().any(|o| o.name == name) {
            return Err(CoalitionError::Config(format!("unknown object {name}")));
        }
        self.touch();
        self.journal_append(&JournalRecord::AclSet {
            name: name.into(),
            acl: acl.clone(),
        })?;
        // The journal already has this record; a failed store row would
        // leave recovery and the live server disagreeing — fail-stop.
        if let Some(cs) = self.cert_store.clone() {
            if let Err(e) = cs.put_acl(name, &acl) {
                return Err(self.poison(format!("cert store ACL row failed: {e}")));
            }
        }
        let obj = self
            .objects
            .iter_mut()
            .find(|o| o.name == name)
            .expect("presence checked above");
        obj.acl = acl;
        Ok(())
    }

    /// Sets an object's contents.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::Config`] for an unknown object.
    pub fn set_content(&mut self, name: &str, content: Vec<u8>) -> Result<(), CoalitionError> {
        if !self.objects.iter().any(|o| o.name == name) {
            return Err(CoalitionError::Config(format!("unknown object {name}")));
        }
        self.touch();
        self.journal_append(&JournalRecord::ContentSet {
            name: name.into(),
            content: content.clone(),
        })?;
        let obj = self
            .objects
            .iter_mut()
            .find(|o| o.name == name)
            .expect("presence checked above");
        obj.content = content;
        Ok(())
    }

    /// Advances the server clock. A no-op advance (`to == now`) is not
    /// journaled.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::Config`] on a clock regression (`to < now`);
    /// [`CoalitionError::Journal`] if the journal append fails.
    pub fn advance_clock(&mut self, to: Time) -> Result<(), CoalitionError> {
        if to == self.engine.now() {
            return Ok(());
        }
        if to < self.engine.now() {
            return Err(CoalitionError::Config(format!(
                "clock regression: cannot move from {:?} back to {to:?}",
                self.engine.now()
            )));
        }
        self.journal_append(&JournalRecord::ClockAdvance(to))?;
        self.engine
            .advance_clock(to)
            .map_err(|e| CoalitionError::Config(e.to_string()))
    }

    /// The server's current time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.engine.now()
    }

    /// Journals one configuration record, then applies it. Every feature
    /// toggle and every capacity bound goes through here, and recovery
    /// replays the same records through it (no journal is attached during
    /// replay, so nothing is re-journaled).
    fn configure(&mut self, kind: ConfigKind, value: i64) -> Result<(), CoalitionError> {
        self.touch();
        self.journal_append(&JournalRecord::Config(kind, value))?;
        self.apply_config(kind, value);
        Ok(())
    }

    /// The in-memory effect of one configuration record.
    fn apply_config(&mut self, kind: ConfigKind, value: i64) {
        let on = value != 0;
        let bound = || usize::try_from(value).unwrap_or(usize::MAX).max(1);
        let optional_bound = || (value >= 0).then(|| usize::try_from(value).unwrap_or(usize::MAX));
        match kind {
            ConfigKind::LogicChecking => self.logic_checking = on,
            ConfigKind::ReplayProtection => self.replay_protection = on,
            ConfigKind::ReplayCapacity => {
                self.capacities.replay = bound();
                self.seen.set_capacity(Some(self.capacities.replay));
            }
            ConfigKind::AuditCapacity => {
                self.capacities.audit = bound();
                self.audit.set_capacity(self.capacities.audit);
            }
            ConfigKind::VerifyCache if !on => self.verify_cache = None,
            ConfigKind::VerifyCache => {
                if self.verify_cache.is_none() {
                    self.verify_cache = Some(self.fresh_verify_cache());
                }
            }
            ConfigKind::VerifyCacheCapacity => {
                self.capacities.verify_cache = optional_bound();
                if let Some(cache) = &self.verify_cache {
                    cache.set_capacity(Some(self.verify_cache_bound()));
                }
            }
            ConfigKind::DerivationMemo => {
                self.engine.set_derivation_memo(on);
                self.memo_mirrored = MemoStats::default();
            }
            ConfigKind::DerivationMemoCapacity => {
                self.capacities.derivation_memo = optional_bound();
                self.engine
                    .set_derivation_memo_capacity(self.capacities.derivation_memo);
            }
            ConfigKind::RecencyWindow => self.revocation_recency = Some(value),
            ConfigKind::CryptoPrecomp => self.crypto_precomp = on,
            ConfigKind::BatchVerify => self.batch_verify = on,
        }
    }

    /// The configured verification-cache bound, with `None` resolved to
    /// the crate default.
    fn verify_cache_bound(&self) -> usize {
        self.capacities
            .verify_cache
            .unwrap_or(cache::DEFAULT_CACHE_CAPACITY)
    }

    /// An empty verification cache at the configured bound, wired to the
    /// attached registry.
    fn fresh_verify_cache(&self) -> VerifyCache {
        let cache = VerifyCache::with_capacity(Some(self.verify_cache_bound()));
        if let Some(m) = &self.metrics {
            cache.set_metrics(Some(&m.registry));
        }
        cache
    }

    /// Enables/disables the logic layer (D3 ablation).
    ///
    /// # Errors
    ///
    /// [`CoalitionError::JournalPoisoned`] when the journal append fails
    /// (the server fail-stops) or the server was already poisoned.
    pub fn set_logic_checking(&mut self, on: bool) -> Result<(), CoalitionError> {
        self.configure(ConfigKind::LogicChecking, i64::from(on))
    }

    /// Enables/disables the certificate-verification cache. Turning it off
    /// drops all memoized entries; turning it on creates an empty cache at
    /// the configured bound ([`CapacityConfig::verify_cache`]).
    ///
    /// # Errors
    ///
    /// [`CoalitionError::JournalPoisoned`] when the journal append fails
    /// (the server fail-stops) or the server was already poisoned.
    pub fn set_verification_cache(&mut self, on: bool) -> Result<(), CoalitionError> {
        self.configure(ConfigKind::VerifyCache, i64::from(on))
    }

    /// Enables/disables fixed-base window precomputation in the crypto
    /// phase. Tables are built lazily per (base, modulus) inside the trust
    /// store's shared verifier-precomp cache and reused across requests;
    /// accept/reject behavior is unchanged.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::JournalPoisoned`] when the journal append fails
    /// (the server fail-stops) or the server was already poisoned.
    pub fn set_crypto_precomp(&mut self, on: bool) -> Result<(), CoalitionError> {
        self.configure(ConfigKind::CryptoPrecomp, i64::from(on))
    }

    /// Whether fixed-base precomputation is on (decision snapshots capture
    /// this flag at publish).
    #[must_use]
    pub fn crypto_precomp(&self) -> bool {
        self.crypto_precomp
    }

    /// Enables/disables small-exponents batch signature verification for
    /// [`CoalitionServer::verify_batch`]: certificates sharing a modulus
    /// (and statements sharing a signer key) across the whole batch are
    /// screened with one randomly weighted combined exponentiation —
    /// settled with exact per-item checks on a pass, bisected on a
    /// failure — so verdicts, and therefore decisions and audit lines,
    /// stay identical to serial verification for every weight draw.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::JournalPoisoned`] when the journal append fails
    /// (the server fail-stops) or the server was already poisoned.
    pub fn set_batch_verify(&mut self, on: bool) -> Result<(), CoalitionError> {
        self.configure(ConfigKind::BatchVerify, i64::from(on))
    }

    /// Whether batch signature verification is on.
    #[must_use]
    pub fn batch_verify_enabled(&self) -> bool {
        self.batch_verify
    }

    /// Attaches a metrics registry: per-phase decision latencies
    /// (`server.phase.*_ns`, `server.decision_ns`), decision counters
    /// (`server.{decisions,granted,denied}`), replay-dedup counters
    /// (`server.replay.{hits,evictions}`), audit rotation
    /// (`server.audit.evictions`), derivation-memo counters and
    /// size (`server.memo.{hits,misses,evictions,invalidations,entries}`),
    /// interner table sizes (`server.interner.*`) and — when the
    /// verification cache is on —
    /// `server.cache.{hits,misses,invalidations,evictions}`.
    /// Handles are resolved once here; pass `None` to detach, restoring a
    /// request path with zero metrics work.
    pub fn set_metrics(&mut self, registry: Option<&MetricsRegistry>) {
        self.metrics = registry.map(ServerMetrics::resolve);
        self.seen
            .set_eviction_mirror(registry.map(|r| r.counter("server.replay.evictions")));
        self.audit
            .set_eviction_mirror(registry.map(|r| r.counter("server.audit.evictions")));
        // Counters in a fresh registry start at zero; mirror only activity
        // from this point on.
        self.memo_mirrored = self.engine.derivation_memo_stats().unwrap_or_default();
        self.precomp_mirrored = self.store.precomp().stats().hits();
        if let Some(cache) = &self.verify_cache {
            cache.set_metrics(registry);
        }
        if let (Some(cs), Some(registry)) = (&self.cert_store, registry) {
            cs.set_metrics(registry);
        }
    }

    /// Turns the engine's derivation memo on or off (off by default, which
    /// preserves the fully re-derived logic path). See
    /// [`Engine::set_derivation_memo`].
    ///
    /// # Errors
    ///
    /// [`CoalitionError::JournalPoisoned`] when the journal append fails
    /// (the server fail-stops) or the server was already poisoned.
    pub fn set_derivation_memo(&mut self, on: bool) -> Result<(), CoalitionError> {
        self.configure(ConfigKind::DerivationMemo, i64::from(on))
    }

    /// Derivation-memo statistics, `None` when the memo is off.
    #[must_use]
    pub fn derivation_memo_stats(&self) -> Option<MemoStats> {
        self.engine.derivation_memo_stats()
    }

    /// Sizes of the engine's hash-consing arena tables.
    #[must_use]
    pub fn interner_stats(&self) -> jaap_core::syntax::InternStats {
        self.engine.interner_stats()
    }

    /// Sizes every bounded structure from one [`CapacityConfig`] — the only
    /// way to size a server: the replay window and audit log (oldest first
    /// past the bound), the verification cache (`None` = crate default,
    /// applied to the live cache at once and to any cache created later),
    /// the derivation memo (only when `Some`), and, when a [`CertStore`] is
    /// attached, its cold-tier page budget. Each journaled bound is its own
    /// `Config` record, so recovery rebuilds the same sizing.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::JournalPoisoned`] when a journal append fails
    /// (the server fail-stops) or the server was already poisoned.
    pub fn apply_capacity_config(&mut self, config: &CapacityConfig) -> Result<(), CoalitionError> {
        self.configure(ConfigKind::ReplayCapacity, encode_bound(config.replay))?;
        self.configure(ConfigKind::AuditCapacity, encode_bound(config.audit))?;
        self.configure(
            ConfigKind::VerifyCacheCapacity,
            encode_optional_bound(config.verify_cache),
        )?;
        if config.derivation_memo.is_some() {
            self.configure(
                ConfigKind::DerivationMemoCapacity,
                encode_optional_bound(config.derivation_memo),
            )?;
        }
        if let (Some(pages), Some(cs)) = (config.store_cache_pages, &self.cert_store) {
            cs.set_cache_pages(pages);
        }
        Ok(())
    }

    /// The journaled sizing in force (`store_cache_pages` is forwarded to
    /// the attached store, not kept, so it reads `None`).
    #[must_use]
    pub fn capacity_config(&self) -> CapacityConfig {
        self.capacities
    }

    /// Audit lines rotated out so far (the log is bounded at
    /// [`CapacityConfig::audit`]).
    #[must_use]
    pub fn audit_evictions(&self) -> u64 {
        self.audit.evictions()
    }

    /// Remembered replay decisions (for capacity tests).
    #[must_use]
    pub fn replay_entries(&self) -> usize {
        self.seen.len()
    }

    /// The verification cache handle, when enabled (for stats inspection).
    #[must_use]
    pub fn verification_cache(&self) -> Option<&VerifyCache> {
        self.verify_cache.as_ref()
    }

    /// Enables/disables replay protection: with it on, a duplicate delivery
    /// of the *same* request (a network-level retry, recognized by
    /// [`JointAccessRequest::digest`]) returns the original decision without
    /// a second audit entry or version increment. Off by default so
    /// benchmarks measure real verification work.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::JournalPoisoned`] when the journal append fails
    /// (the server fail-stops) or the server was already poisoned.
    pub fn set_replay_protection(&mut self, on: bool) -> Result<(), CoalitionError> {
        self.configure(ConfigKind::ReplayProtection, i64::from(on))
    }

    /// Requires revocation information (a CRL) no older than `window`
    /// ticks before any request is granted — §4.3: "It is essential to
    /// verify the most recent available revocation information before
    /// granting access."
    ///
    /// # Errors
    ///
    /// [`CoalitionError::JournalPoisoned`] when the journal append fails
    /// (the server fail-stops) or the server was already poisoned.
    pub fn set_revocation_recency(&mut self, window: i64) -> Result<(), CoalitionError> {
        self.configure(ConfigKind::RecencyWindow, window)
    }

    /// Admits a CRL: verifies it, rejects sequence rollback, feeds every
    /// entry to the engine, refreshes the recency anchor, and drops any
    /// cached verification whose certificate grants a listed group.
    ///
    /// # Errors
    ///
    /// Propagates verification failures; [`CoalitionError::Config`] on a
    /// stale sequence number.
    pub fn admit_crl(&mut self, crl: &jaap_pki::Crl) -> Result<(), CoalitionError> {
        if let Some((seq, _)) = self.last_crl {
            if crl.sequence <= seq {
                return Err(CoalitionError::Config(format!(
                    "CRL sequence rollback: have #{seq}, got #{}",
                    crl.sequence
                )));
            }
        }
        let messages = self.store.idealize_crl(crl)?;
        self.touch();
        // Write-ahead: the CRL is durable before any entry takes effect, so
        // recovery replays exactly this admission loop — including a
        // partial admission when an entry fails mid-list. The persistent
        // store's anchor row lands under the same discipline.
        self.journal_append(&JournalRecord::Crl(crl.clone()))?;
        if let Some(cs) = self.cert_store.clone() {
            if let Err(e) = cs.put_crl(crl) {
                return Err(self.poison(format!("cert store CRL row failed: {e}")));
            }
        }
        for msg in &messages {
            self.engine
                .admit_certificate(msg)
                .map_err(|e| CoalitionError::Config(format!("CRL entry not admitted: {e}")))?;
        }
        if let Some(cache) = &self.verify_cache {
            for entry in &crl.entries {
                cache.invalidate_group(entry.group.as_str());
            }
        }
        self.last_crl = Some((crl.sequence, crl.timestamp));
        Ok(())
    }

    /// The audit log (most recent entries; bounded, oldest rotate out).
    #[must_use]
    pub fn audit_log(&self) -> &VecDeque<AuditEntry> {
        self.audit.as_deque()
    }

    /// Direct engine access (used by soundness integration tests).
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Admits an attribute revocation (from the RA): verifies it, feeds
    /// the idealization to the engine (believe-until-revoked), and drops
    /// any cached verification granting the revoked group.
    ///
    /// # Errors
    ///
    /// Propagates verification/idealization failures.
    pub fn admit_attribute_revocation(
        &mut self,
        rev: &AttributeRevocation,
    ) -> Result<(), CoalitionError> {
        let msg = self.store.idealize_attribute_revocation(rev)?;
        self.touch();
        self.journal_append(&JournalRecord::AttributeRevocation(rev.clone()))?;
        if let Some(cs) = self.cert_store.clone() {
            if let Err(e) = cs.put_attribute_revocation(rev) {
                return Err(self.poison(format!("cert store revocation row failed: {e}")));
            }
        }
        self.engine
            .admit_certificate(&msg)
            .map_err(|e| CoalitionError::Config(format!("revocation not admitted: {e}")))?;
        if let Some(cache) = &self.verify_cache {
            cache.invalidate_group(rev.group.as_str());
        }
        Ok(())
    }

    /// Admits an identity revocation from a domain CA, dropping any cached
    /// verification naming the revoked subject.
    ///
    /// # Errors
    ///
    /// Propagates verification/idealization failures.
    pub fn admit_identity_revocation(
        &mut self,
        rev: &IdentityRevocation,
    ) -> Result<(), CoalitionError> {
        let msg = self.store.idealize_identity_revocation(rev)?;
        self.touch();
        self.journal_append(&JournalRecord::IdentityRevocation(rev.clone()))?;
        if let Some(cs) = self.cert_store.clone() {
            if let Err(e) = cs.put_identity_revocation(rev) {
                return Err(self.poison(format!("cert store revocation row failed: {e}")));
            }
        }
        self.engine
            .admit_certificate(&msg)
            .map_err(|e| CoalitionError::Config(format!("revocation not admitted: {e}")))?;
        if let Some(cache) = &self.verify_cache {
            cache.invalidate_subject(&rev.subject);
        }
        Ok(())
    }

    /// Records a denial caused by coalition-side unavailability (a joint
    /// signing session that could not assemble its quorum), carrying the
    /// session's retry trace into the audit log. Returns the corresponding
    /// [`ServerDecision`] with `unavailable` set.
    pub fn record_unavailable(
        &mut self,
        principals: Vec<String>,
        operation: Operation,
        detail: impl Into<String>,
        retry_trace: Option<String>,
    ) -> ServerDecision {
        let detail = detail.into();
        if let Err(e) = self.journal_append(&JournalRecord::Decision(DecisionRecord {
            at: self.engine.now(),
            principals: principals.clone(),
            operation: operation.clone(),
            granted: false,
            detail: detail.clone(),
            cached_checks: 0,
            retry_trace: retry_trace.clone(),
            axioms: 0,
            signature_checks: 0,
            unavailable: true,
            version_bump: false,
            replay_digest: None,
        })) {
            // The append may be partially durable (or the server was
            // already poisoned): fail-stop and shed instead of recording.
            return self.shed_decision(principals, operation, ShedReason::JournalPoisoned, e);
        }
        self.audit.push(AuditEntry {
            at: self.engine.now(),
            principals,
            operation,
            granted: false,
            detail: detail.clone(),
            cached_checks: 0,
            retry_trace,
            shed: None,
        });
        ServerDecision {
            granted: false,
            detail: Some(detail),
            derivation: None,
            axiom_applications: 0,
            signature_checks: 0,
            cached_signature_checks: 0,
            response: None,
            unavailable: true,
            shed: None,
        }
    }

    /// Sheds a request without evaluating it: one (volatile) audit line,
    /// shed instruments, and a typed [`ServerDecision::shed`] — no journal
    /// record, no replay-window entry, no cache population.
    fn shed_decision(
        &mut self,
        principals: Vec<String>,
        operation: Operation,
        reason: ShedReason,
        detail: impl core::fmt::Display,
    ) -> ServerDecision {
        let detail = detail.to_string();
        self.audit.push(AuditEntry {
            at: self.engine.now(),
            principals,
            operation,
            granted: false,
            detail: detail.clone(),
            cached_checks: 0,
            retry_trace: None,
            shed: Some(reason),
        });
        if let Some(m) = &self.metrics {
            m.decisions.inc();
            match reason {
                ShedReason::Overloaded => m.shed_overloaded.inc(),
                ShedReason::DeadlineExceeded => m.shed_deadline.inc(),
                ShedReason::JournalPoisoned => m.shed_poisoned.inc(),
            }
        }
        ServerDecision::shed(reason, detail)
    }

    /// [`CoalitionServer::shed_decision`] with the principals/operation
    /// taken from the request.
    fn shed_request(
        &mut self,
        req: &JointAccessRequest,
        reason: ShedReason,
        detail: impl core::fmt::Display,
    ) -> ServerDecision {
        let principals = req.statements.iter().map(|s| s.principal.clone()).collect();
        self.shed_decision(principals, req.operation.clone(), reason, detail)
    }

    /// Handles a joint access request end to end.
    pub fn handle_request(&mut self, req: &JointAccessRequest) -> ServerDecision {
        // Fail-stop: a poisoned server refuses every decision until
        // recovery (the in-memory state may diverge from the durable log).
        if let Some(detail) = self.poisoned.clone() {
            return self.shed_request(req, ShedReason::JournalPoisoned, detail);
        }
        // Pre-crypto deadline gate: an exhausted budget sheds before any
        // signature work — and before the verify cache is even consulted.
        if let Some(deadline) = req.deadline {
            let now = Instant::now();
            if now >= deadline {
                return self.shed_request(
                    req,
                    ShedReason::DeadlineExceeded,
                    "deadline budget exhausted before the crypto phase",
                );
            }
            if let Some(m) = &self.metrics {
                m.deadline_slack_ns.record_duration(deadline - now);
            }
        }
        let started = self.metrics.as_ref().map(|_| Instant::now());
        if self.replay_protection {
            if let Some(cached) = self.seen.get(&req.digest()) {
                // Duplicate delivery: same decision, no second audit entry,
                // no second version increment.
                if let Some(m) = &self.metrics {
                    m.replay_hits.inc();
                }
                return cached.clone();
            }
        }
        let recency_started = started.map(|_| Instant::now());
        let recency = self.recency_error();
        if let (Some(m), Some(t)) = (&self.metrics, recency_started) {
            m.recency_ns.record_duration(t.elapsed());
        }
        let outcome = match recency {
            // A stale-recency refusal short-circuits before any crypto
            // work, exactly as in the serial pipeline of record.
            Some(detail) => CryptoOutcome::failed(detail),
            None => {
                let crypto_started = started.map(|_| Instant::now());
                let outcome = crypto_verify(
                    &self.store,
                    self.verify_cache.as_ref(),
                    self.engine.now(),
                    req,
                    self.crypto_precomp,
                    None,
                );
                if let (Some(m), Some(t)) = (&self.metrics, crypto_started) {
                    m.crypto_ns.record_duration(t.elapsed());
                }
                outcome
            }
        };
        let decision = self.finish_decision(req, outcome);
        if let (Some(m), Some(t)) = (&self.metrics, started) {
            m.decision_ns.record_duration(t.elapsed());
        }
        decision
    }

    /// Handles a batch of **independent** requests, fanning the crypto
    /// phase (certificate + statement signature verification) across up to
    /// `workers` threads of the shared persistent pool
    /// ([`WorkerPool::global`]) while the belief-engine phase runs serially
    /// in request order afterwards. Decisions are identical to calling
    /// [`CoalitionServer::handle_request`] on each request in order; only
    /// the split of checks between `signature_checks` and
    /// `cached_signature_checks` can differ when the cache is on, since
    /// workers racing on a cold cache may each verify the same certificate
    /// once.
    pub fn verify_batch(
        &mut self,
        requests: &[JointAccessRequest],
        workers: usize,
    ) -> Vec<ServerDecision> {
        // Fail-stop: don't fan out crypto work the commit tail will refuse.
        if let Some(detail) = self.poisoned.clone() {
            return requests
                .iter()
                .map(|req| self.shed_request(req, ShedReason::JournalPoisoned, &detail))
                .collect();
        }
        let workers = workers.max(1).min(requests.len().max(1));
        let recency_started = self.metrics.as_ref().map(|_| Instant::now());
        let recency_err = self.recency_error();
        if let (Some(m), Some(t)) = (&self.metrics, recency_started) {
            m.recency_ns.record_duration(t.elapsed());
        }
        let crypto_ns = self.metrics.as_ref().map(|m| Arc::clone(&m.crypto_ns));
        let now = self.engine.now();

        let outcomes: Vec<CryptoOutcome> = if let Some(detail) = recency_err {
            requests
                .iter()
                .map(|_| CryptoOutcome::failed(detail.clone()))
                .collect()
        } else {
            // Batch pre-pass (when enabled): one combined exponentiation
            // vouches for all signatures sharing a key across the whole
            // batch; the per-request phase below skips exactly the
            // individual checks the pre-pass already performed. Its cost
            // is crypto-phase work and is recorded as such, so the phase
            // histogram prices the accelerated path honestly.
            let precheck_started = crypto_ns.as_ref().map(|_| Instant::now());
            let prechecks = self.batch_precheck(requests);
            if let (Some(h), Some(t)) = (&crypto_ns, precheck_started) {
                if prechecks.is_some() {
                    h.record_duration(t.elapsed());
                }
            }
            let use_precomp = self.crypto_precomp;
            // The pool's scoped fan-out blocks until every worker is done,
            // so the closure can borrow the trust store, the cache handle,
            // and the request slice directly. `workers == 1` runs inline
            // inside `run_indexed`, keeping the serial path pool-free.
            let store = &self.store;
            let cache = self.verify_cache.clone();
            let prechecks = &prechecks;
            WorkerPool::global().run_indexed(requests.len(), workers, |i| {
                let t = crypto_ns.as_ref().map(|_| Instant::now());
                let outcome = crypto_verify(
                    store,
                    cache.as_ref(),
                    now,
                    &requests[i],
                    use_precomp,
                    prechecks.as_ref().map(|p| &p[i]),
                );
                if let (Some(h), Some(t)) = (&crypto_ns, t) {
                    h.record_duration(t.elapsed());
                }
                outcome
            })
        };

        requests
            .iter()
            .zip(outcomes)
            .map(|(req, outcome)| self.finish_decision(req, outcome))
            .collect()
    }

    /// The batch pre-pass behind [`CoalitionServer::set_batch_verify`]:
    /// groups every presented certificate by issuer across the whole
    /// batch, deduplicates byte-identical presentations, runs one
    /// randomly weighted combined screen per issuer group
    /// ([`batch::verify_batch`] — screened signatures settle with exact
    /// per-item checks, failures bisect, warm residues leaf-check over
    /// their ladders), and returns per-request positional vouchers for
    /// exactly the signatures that passed an exact check.
    /// Signatures that fail — or whose issuer cannot be resolved — are
    /// left unvouched and take the serial path, reproducing the serial
    /// error verbatim. Request statements are *not* batched: they are
    /// one-shot signatures, and with `e = 2¹⁶ + 1` an item's marginal
    /// share of a combined product already exceeds its serial check.
    /// `None` when batching is off.
    fn batch_precheck(&mut self, requests: &[JointAccessRequest]) -> Option<Vec<CryptoPrecheck>> {
        if !self.batch_verify || requests.is_empty() {
            return None;
        }
        /// Where a presented certificate sits: (request index, position).
        #[derive(Clone, Copy)]
        enum Slot {
            Id(usize, usize),
            Thr(usize, usize),
            Attr(usize, usize),
        }
        /// The exact artifact behind a batch item. Equality is full
        /// structural equality — body fields *and* signature — so a dedup
        /// hit proves the presentation is identical to the item already
        /// batched, without serializing its body again (`body_bytes` is a
        /// pure function of the compared fields).
        #[derive(PartialEq)]
        enum CertRef<'a> {
            Id(&'a jaap_pki::IdentityCertificate),
            Thr(&'a jaap_pki::ThresholdAttributeCertificate),
            Attr(&'a jaap_pki::AttributeCertificate),
        }
        impl CertRef<'_> {
            /// The canonical signed bytes — built once per unique item.
            fn body(&self) -> Vec<u8> {
                match self {
                    CertRef::Id(c) => jaap_pki::IdentityCertificate::body_bytes(
                        &c.issuer,
                        &c.subject,
                        &c.subject_key,
                        c.validity,
                        c.timestamp,
                    ),
                    CertRef::Thr(c) => jaap_pki::ThresholdAttributeCertificate::body_bytes(
                        &c.issuer,
                        &c.subject,
                        &c.group,
                        c.validity,
                        c.timestamp,
                    ),
                    CertRef::Attr(c) => jaap_pki::AttributeCertificate::body_bytes(
                        &c.issuer,
                        &c.subject,
                        &c.subject_key,
                        &c.group,
                        c.validity,
                        c.timestamp,
                    ),
                }
            }
        }
        struct Group<'a> {
            key: &'a RsaPublicKey,
            items: Vec<batch::BatchItem>,
            /// The artifact behind each item, parallel to `items`.
            certs: Vec<CertRef<'a>>,
            /// Every presentation of each item, parallel to `items`.
            slots: Vec<Vec<Slot>>,
            /// Signature residue → items carrying it; a structural match
            /// against one of them is a dedup hit. Keyed by reference:
            /// repeat presentations cost a hash and a field compare, no
            /// allocation.
            dedup: HashMap<&'a jaap_bigint::Nat, Vec<usize>>,
        }
        fn add<'a>(
            groups: &mut BTreeMap<&'a str, Group<'a>>,
            issuer: &'a str,
            key: &'a RsaPublicKey,
            cert: CertRef<'a>,
            sig: &'a RsaSignature,
            slot: Slot,
        ) {
            let group = groups.entry(issuer).or_insert_with(|| Group {
                key,
                items: Vec::new(),
                certs: Vec::new(),
                slots: Vec::new(),
                dedup: HashMap::new(),
            });
            let bucket = group.dedup.entry(sig.value()).or_default();
            let idx = match bucket.iter().copied().find(|&j| group.certs[j] == cert) {
                Some(j) => j,
                None => {
                    let j = group.items.len();
                    group.items.push(group.key.batch_item(&cert.body(), sig));
                    group.certs.push(cert);
                    group.slots.push(Vec::new());
                    bucket.push(j);
                    j
                }
            };
            group.slots[idx].push(slot);
        }
        // BTreeMap over issuer names: the weight RNG draws one seed per
        // group, so group order must be deterministic. The AA group keys
        // on "", which no domain name collides with.
        let store = &self.store;
        let mut groups: BTreeMap<&str, Group<'_>> = BTreeMap::new();
        let aa_rsa = store.aa_key().map(|k| k.rsa());
        for (i, req) in requests.iter().enumerate() {
            for (ci, cert) in req.identity_certs.iter().enumerate() {
                // An unresolvable issuer is left unvouched so the serial
                // path reproduces the exact `UnknownIssuer` error.
                let Some(ca) = store.ca_key(&cert.issuer) else {
                    continue;
                };
                let slot = Slot::Id(i, ci);
                add(
                    &mut groups,
                    &cert.issuer,
                    ca,
                    CertRef::Id(cert),
                    &cert.signature,
                    slot,
                );
            }
            if let Some(aa) = aa_rsa {
                for (ci, cert) in req.threshold_certs.iter().enumerate() {
                    let slot = Slot::Thr(i, ci);
                    add(
                        &mut groups,
                        "",
                        aa,
                        CertRef::Thr(cert),
                        &cert.signature,
                        slot,
                    );
                }
                for (ci, cert) in req.attribute_certs.iter().enumerate() {
                    let slot = Slot::Attr(i, ci);
                    add(
                        &mut groups,
                        "",
                        aa,
                        CertRef::Attr(cert),
                        &cert.signature,
                        slot,
                    );
                }
            }
        }
        let precomp = Arc::clone(store.precomp());
        let mut prechecks: Vec<CryptoPrecheck> = requests
            .iter()
            .map(|r| CryptoPrecheck {
                id: vec![false; r.identity_certs.len()],
                thr: vec![false; r.threshold_certs.len()],
                attr: vec![false; r.attribute_certs.len()],
            })
            .collect();
        let (mut combined, mut fallbacks) = (0u64, 0u64);
        for group in groups.into_values() {
            let Some(mp) = precomp.for_key(group.key.modulus(), group.key.exponent()) else {
                continue;
            };
            // Certificates are standing artifacts, so their residues are
            // recurring bases: single-item groups and bisection leaves
            // ride the fixed-base ladders.
            let outcome = batch::verify_batch(&mp, &group.items, self.batch_rng.next_u64(), true);
            combined += outcome.combined_checks;
            fallbacks += outcome.fallbacks;
            for (ok, slots) in outcome.results.iter().copied().zip(&group.slots) {
                if !ok {
                    continue;
                }
                for slot in slots {
                    match *slot {
                        Slot::Id(i, ci) => prechecks[i].id[ci] = true,
                        Slot::Thr(i, ci) => prechecks[i].thr[ci] = true,
                        Slot::Attr(i, ci) => prechecks[i].attr[ci] = true,
                    }
                }
            }
        }
        if let Some(m) = &self.metrics {
            m.crypto_batch_verifies.add(combined);
            m.crypto_batch_fallbacks.add(fallbacks);
        }
        Some(prechecks)
    }

    /// The stale-revocation-information refusal, if the recency policy is
    /// on and unsatisfied (Stubblebine–Wright).
    pub(crate) fn recency_error(&self) -> Option<String> {
        let window = self.revocation_recency?;
        let fresh_enough = self
            .last_crl
            .is_some_and(|(_, ts)| self.engine.now().0.saturating_sub(ts.0) <= window);
        if fresh_enough {
            None
        } else {
            Some(format!(
                "revocation information stale: no CRL within the last {window} ticks"
            ))
        }
    }

    /// The serial tail of the pipeline: replay bookkeeping, the logic/ACL
    /// phase, version bump, read response, audit entry. Exposed to the
    /// crate so the concurrent front-end ([`crate::concurrent`]) can commit
    /// a crypto outcome computed off the writer lock.
    pub(crate) fn finish_decision(
        &mut self,
        req: &JointAccessRequest,
        outcome: CryptoOutcome,
    ) -> ServerDecision {
        // Fail-stop: the concurrent front-end computes `outcome` off-lock,
        // so the server may have been poisoned in between.
        if let Some(detail) = self.poisoned.clone() {
            return self.shed_request(req, ShedReason::JournalPoisoned, detail);
        }
        // Pre-logic deadline gate: runs before `authorize_verified` touches
        // the belief engine, so a shed decision structurally cannot
        // populate the derivation memo, admit certificates, or bump the
        // epoch — and below, before the replay window insert, so it is never replayed.
        if req.deadline.is_some_and(|d| Instant::now() >= d) {
            return self.shed_request(
                req,
                ShedReason::DeadlineExceeded,
                "deadline budget exhausted before the logic phase",
            );
        }
        let digest = if self.replay_protection {
            let digest = req.digest();
            if let Some(cached) = self.seen.get(&digest) {
                if let Some(m) = &self.metrics {
                    m.replay_hits.inc();
                }
                return cached.clone();
            }
            Some(digest)
        } else {
            None
        };
        let CryptoOutcome {
            signature_checks,
            cached_signature_checks,
            result,
        } = outcome;
        let epoch_before = self.engine.epoch();
        let verdict = result.and_then(|verified| self.authorize_verified(req, verified));
        let (granted, detail, derivation, axioms) = match verdict {
            Ok((derivation, axioms)) => (true, None, derivation, axioms),
            Err(msg) => (false, Some(msg), None, 0),
        };
        // An epoch change means the logic phase admitted at least one new
        // certificate body — a belief change that must be durable. The raw
        // signed certificates go to the journal so recovery re-verifies
        // and re-admits them in this exact order (re-admissions of known
        // bodies are deduplicated by the engine, so repeats are free).
        if self.engine.epoch() != epoch_before {
            if let Err(e) = self.journal_append(&JournalRecord::RequestCerts {
                identity: req.identity_certs.clone(),
                threshold: req.threshold_certs.clone(),
                attribute: req.attribute_certs.clone(),
            }) {
                // The engine already admitted beliefs this append failed to
                // make durable: fail-stop so the divergence cannot serve
                // another decision, and shed this one — it rests on state
                // that is not on disk.
                return self.shed_request(req, ShedReason::JournalPoisoned, e);
            }
            // First sight of these certificate bodies: persist them so the
            // indexed store accumulates the certified population.
            if let Some(cs) = self.cert_store.clone() {
                let put = req
                    .identity_certs
                    .iter()
                    .try_for_each(|c| cs.put_identity_cert(c))
                    .and_then(|()| {
                        req.threshold_certs
                            .iter()
                            .try_for_each(|c| cs.put_threshold_cert(c))
                    })
                    .and_then(|()| {
                        req.attribute_certs
                            .iter()
                            .try_for_each(|c| cs.put_attribute_cert(c))
                    });
                if let Err(e) = put {
                    let e = self.poison(format!("cert store certificate row failed: {e}"));
                    return self.shed_request(req, ShedReason::JournalPoisoned, e);
                }
            }
        }
        let version_bump = granted
            && req.operation.action == "write"
            && self.objects.iter().any(|o| o.name == req.operation.object);
        if let Err(e) = self.journal_append(&JournalRecord::Decision(DecisionRecord {
            at: self.engine.now(),
            principals: req.statements.iter().map(|s| s.principal.clone()).collect(),
            operation: req.operation.clone(),
            granted,
            detail: detail.clone().unwrap_or_default(),
            cached_checks: cached_signature_checks,
            retry_trace: None,
            axioms,
            signature_checks,
            unavailable: false,
            version_bump,
            replay_digest: digest.clone(),
        })) {
            // WAL-before-effect: the version bump and audit line have not
            // happened yet, and after the fail-stop they never will — a
            // recovered server and this one agree the decision never
            // committed.
            return self.shed_request(req, ShedReason::JournalPoisoned, e);
        }
        if version_bump {
            if let Some(obj) = self
                .objects
                .iter_mut()
                .find(|o| o.name == req.operation.object)
            {
                obj.version += 1;
            }
        }
        // Figure 2(d): a granted read returns the object encrypted under
        // the requestor's certified public key.
        let mut response = None;
        if granted && req.operation.action == "read" {
            let reader_key = req.statements.first().and_then(|s| {
                req.identity_certs
                    .iter()
                    .find(|c| c.subject == s.principal)
                    .map(|c| c.subject_key.clone())
            });
            if let (Some(key), Some(obj)) = (
                reader_key,
                self.objects.iter().find(|o| o.name == req.operation.object),
            ) {
                response = key.encrypt(&mut self.rng, &obj.content).ok();
            }
        }
        self.audit.push(AuditEntry {
            at: self.engine.now(),
            principals: req.statements.iter().map(|s| s.principal.clone()).collect(),
            operation: req.operation.clone(),
            granted,
            detail: detail.clone().unwrap_or_default(),
            cached_checks: cached_signature_checks,
            retry_trace: None,
            shed: None,
        });
        let decision = ServerDecision {
            granted,
            detail,
            derivation,
            axiom_applications: axioms,
            signature_checks,
            cached_signature_checks,
            response,
            unavailable: false,
            shed: None,
        };
        if let Some(m) = &self.metrics {
            m.decisions.inc();
            if granted {
                m.granted.inc();
            } else {
                m.denied.inc();
            }
        }
        self.mirror_logic_instruments();
        if let Some(digest) = digest {
            self.seen.insert(digest, decision.clone());
        }
        decision
    }

    /// Mirrors the engine-owned derivation-memo and interner statistics
    /// into the attached registry: counters get the delta since the last
    /// mirror (they are monotone in the engine), gauges are set absolutely.
    /// No-op without a registry; the memo gauges stay untouched with the
    /// memo off.
    fn mirror_logic_instruments(&mut self) {
        let Some(m) = &self.metrics else { return };
        if let Some(stats) = self.engine.derivation_memo_stats() {
            let prev = self.memo_mirrored;
            m.memo_hits.add(stats.hits.saturating_sub(prev.hits));
            m.memo_misses.add(stats.misses.saturating_sub(prev.misses));
            m.memo_evictions
                .add(stats.evictions.saturating_sub(prev.evictions));
            m.memo_invalidations
                .add(stats.invalidations.saturating_sub(prev.invalidations));
            m.memo_entries
                .set(i64::try_from(stats.entries).unwrap_or(i64::MAX));
            self.memo_mirrored = stats;
        }
        // The verifier-precomp cache is shared (it lives in the trust
        // store and is exercised off-lock by snapshots too); mirror the
        // monotone hit counter by delta, like the memo counters above.
        let precomp_hits = self.store.precomp().stats().hits();
        m.crypto_precomp_hits
            .add(precomp_hits.saturating_sub(self.precomp_mirrored));
        self.precomp_mirrored = precomp_hits;
        let interner = self.engine.interner_stats();
        let as_i64 = |n: usize| i64::try_from(n).unwrap_or(i64::MAX);
        m.interner_symbols.set(as_i64(interner.symbols));
        m.interner_subjects.set(as_i64(interner.subjects));
        m.interner_messages.set(as_i64(interner.messages));
        m.interner_formulas.set(as_i64(interner.formulas));
    }

    /// The write-ahead step of every belief-changing mutation: encodes and
    /// appends `record` before the mutation takes effect in memory. No-op
    /// without an attached journal. Triggers an auto-snapshot when the log
    /// grows past the configured threshold.
    ///
    /// A failed append **poisons** the server: the bytes may be partially
    /// on the medium, so neither "the record is durable" nor "it is not"
    /// can be assumed, and the append is never retried (fsyncgate). Every
    /// caller propagates the error before applying the record's in-memory
    /// effect, so a poisoned server's state is exactly the durable prefix
    /// plus nothing.
    fn journal_append(&mut self, record: &JournalRecord) -> Result<(), CoalitionError> {
        self.ensure_unpoisoned()?;
        if self.journal.is_none() {
            return Ok(());
        }
        // A snapshot folds the log into current *in-memory* state, so it
        // must not run between a record's append and its effects. Deferred
        // crossings run here, just before the next record — every prior
        // record's effects are complete by then.
        if self.snapshot_pending {
            self.snapshot_journal()?;
        }
        let started = self.metrics.as_ref().map(|_| Instant::now());
        let at = self.engine.now();
        let len = match self
            .journal
            .as_mut()
            .expect("journal presence checked above")
            .append(at, record)
        {
            Ok(len) => len,
            Err(e) => return Err(self.poison(format!("journal append failed: {e}"))),
        };
        if let Some(m) = &self.metrics {
            m.journal_appends.inc();
            m.journal_bytes.add(len as u64);
            if let Some(t) = started {
                m.journal_append_ns.record_duration(t.elapsed());
            }
        }
        if let Some(threshold) = self.snapshot_threshold {
            let over = self
                .journal
                .as_ref()
                .expect("journal presence checked above")
                .len_bytes()?
                > threshold;
            if over {
                self.snapshot_pending = true;
            }
        }
        Ok(())
    }

    /// Attaches a write-ahead journal to this server. The store must be
    /// empty (recovering an existing log is [`CoalitionServer::recover`]'s
    /// job); a bootstrap snapshot of the current configuration, objects,
    /// audit log, and replay window is written immediately so the log
    /// alone reconstructs the server.
    ///
    /// Certificates admitted *before* the journal is attached are not
    /// captured — attach the journal before serving requests.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::Journal`] if the store is non-empty or fails.
    pub fn attach_journal(
        &mut self,
        store: Box<dyn jaap_wal::JournalStore>,
    ) -> Result<(), CoalitionError> {
        if !store.is_empty()? {
            return Err(CoalitionError::Journal(
                "journal store is not empty; use CoalitionServer::recover".into(),
            ));
        }
        self.journal = Some(ServerJournal::new(store));
        self.snapshot_journal()
    }

    /// True when a journal is attached.
    #[must_use]
    pub fn has_journal(&self) -> bool {
        self.journal.is_some()
    }

    /// Sets the primary term stamped into every journal frame written
    /// from now on. A no-op without a journal. Replication promotes a
    /// replica by recovering from its shipped log and raising this term;
    /// the fencing rule acts on the terms carried by protocol messages.
    pub fn set_journal_term(&mut self, term: u64) {
        if let Some(journal) = self.journal.as_mut() {
            journal.set_term(term);
        }
    }

    /// The term stamped into new journal frames (`None` without a
    /// journal).
    #[must_use]
    pub fn journal_term(&self) -> Option<u64> {
        self.journal.as_ref().map(ServerJournal::term)
    }

    /// Framing-layer journal counters, when a journal is attached.
    #[must_use]
    pub fn journal_stats(&self) -> Option<jaap_wal::JournalStats> {
        self.journal.as_ref().map(ServerJournal::stats)
    }

    /// Current journal length in bytes, when a journal is attached.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::Journal`] if the store fails.
    pub fn journal_len_bytes(&self) -> Result<Option<u64>, CoalitionError> {
        self.journal
            .as_ref()
            .map(ServerJournal::len_bytes)
            .transpose()
    }

    /// Sets (or clears) the auto-snapshot threshold: after any append that
    /// pushes the journal past `bytes`, the log is compacted into a
    /// snapshot.
    pub fn set_snapshot_threshold(&mut self, bytes: Option<u64>) {
        self.snapshot_threshold = bytes;
    }

    /// Compacts the journal into a snapshot: current configuration, every
    /// retained admission (at its original clock, so recovery re-derives
    /// the same beliefs), final clock, object states, audit lines, and the
    /// replay window. Decision history is folded into its effects.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::Config`] without a journal;
    /// [`CoalitionError::Journal`] if the store fails.
    pub fn snapshot_journal(&mut self) -> Result<(), CoalitionError> {
        self.ensure_unpoisoned()?;
        let Some(journal) = &self.journal else {
            return Err(CoalitionError::Config("no journal attached".into()));
        };
        self.snapshot_pending = false;
        let memo_on = self.engine.derivation_memo_stats().is_some();
        let mut records = vec![
            JournalRecord::Config(ConfigKind::LogicChecking, i64::from(self.logic_checking)),
            JournalRecord::Config(
                ConfigKind::ReplayProtection,
                i64::from(self.replay_protection),
            ),
            JournalRecord::Config(
                ConfigKind::ReplayCapacity,
                encode_bound(self.capacities.replay),
            ),
            JournalRecord::Config(
                ConfigKind::AuditCapacity,
                encode_bound(self.capacities.audit),
            ),
            JournalRecord::Config(
                ConfigKind::VerifyCache,
                i64::from(self.verify_cache.is_some()),
            ),
            JournalRecord::Config(ConfigKind::DerivationMemo, i64::from(memo_on)),
            JournalRecord::Config(ConfigKind::CryptoPrecomp, i64::from(self.crypto_precomp)),
            JournalRecord::Config(ConfigKind::BatchVerify, i64::from(self.batch_verify)),
        ];
        if memo_on {
            records.push(JournalRecord::Config(
                ConfigKind::DerivationMemoCapacity,
                encode_optional_bound(self.capacities.derivation_memo),
            ));
        }
        if self.verify_cache.is_some() {
            records.push(JournalRecord::Config(
                ConfigKind::VerifyCacheCapacity,
                encode_optional_bound(self.capacities.verify_cache),
            ));
        }
        if let Some(window) = self.revocation_recency {
            records.push(JournalRecord::Config(ConfigKind::RecencyWindow, window));
        }
        // Admissions replay at their original clocks: belief derivations
        // depend on the observer's time, so the snapshot interleaves the
        // clock with the signed artifacts it retains verbatim.
        for (at, record) in journal.admissions() {
            records.push(JournalRecord::ClockAdvance(*at));
            records.push(record.clone());
        }
        records.push(JournalRecord::ClockAdvance(self.engine.now()));
        for obj in &self.objects {
            records.push(JournalRecord::ObjectState {
                name: obj.name.clone(),
                acl: obj.acl.clone(),
                version: obj.version,
                content: obj.content.clone(),
            });
        }
        // Audit lines survive as effect-free decision rows (the version
        // bumps they caused are already folded into the object states).
        // Shed lines are volatile Indeterminate outcomes — journal-cheap by
        // contract — and do not survive compaction.
        for entry in self.audit.as_deque().iter().filter(|e| e.shed.is_none()) {
            records.push(JournalRecord::Decision(DecisionRecord {
                at: entry.at,
                principals: entry.principals.clone(),
                operation: entry.operation.clone(),
                granted: entry.granted,
                detail: entry.detail.clone(),
                cached_checks: entry.cached_checks,
                retry_trace: entry.retry_trace.clone(),
                axioms: 0,
                signature_checks: 0,
                unavailable: false,
                version_bump: false,
                replay_digest: None,
            }));
        }
        for (digest, d) in self.seen.iter() {
            records.push(JournalRecord::ReplaySeen(ReplayRecord {
                digest: digest.clone(),
                granted: d.granted,
                detail: d.detail.clone(),
                axioms: d.axiom_applications,
                signature_checks: d.signature_checks,
                cached_signature_checks: d.cached_signature_checks,
                unavailable: d.unavailable,
            }));
        }
        if let Err(e) = self
            .journal
            .as_mut()
            .expect("journal presence checked above")
            .rewrite(&records)
        {
            // A failed rewrite leaves the log in an indeterminate state
            // between two generations: fail-stop, recovery decides.
            return Err(self.poison(format!("journal snapshot rewrite failed: {e}")));
        }
        if let Some(m) = &self.metrics {
            m.journal_snapshots.inc();
        }
        Ok(())
    }

    /// Rebuilds a server from a journal left behind by a crashed one.
    ///
    /// `store` must be the same trust store the crashed server ran with
    /// (trust anchors are configuration, not journaled state): every
    /// journaled certificate is **re-verified** against it during replay
    /// rather than trusted from disk. A torn or corrupt journal tail is
    /// truncated, never replayed; the report says how much was dropped.
    ///
    /// The recovered server is decision-for-decision identical to one that
    /// never crashed, with two deliberate exceptions: the derivation-memo
    /// epoch is bumped and the verification cache restarts empty — derived
    /// state never survives a crash, it is always re-derived.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::Journal`] if the store fails or a checksummed
    /// record is undecodable or no longer verifies.
    pub fn recover(
        name: impl Into<String>,
        store: TrustStore,
        journal_store: Box<dyn jaap_wal::JournalStore>,
    ) -> Result<(Self, RecoveryReport), CoalitionError> {
        let mut journal = ServerJournal::new(journal_store);
        let (records, replay) = journal.replay()?;
        let mut server = CoalitionServer::new(name, store);
        let records_replayed = records.len();
        let mut admissions = Vec::new();
        for record in records {
            if record.is_admission() {
                // The admission's original clock: ClockAdvance records
                // precede it in the log, so the engine is already there.
                admissions.push((server.engine.now(), record.clone()));
            }
            server.apply_record(record)?;
        }
        // Derived state never survives a crash: bump the belief epoch
        // (clears the derivation memo and retires any epoch-tagged state
        // of the pre-crash process) and restart the verify cache empty.
        server.engine.invalidate_derived_state();
        if server.verify_cache.is_some() {
            // Restart empty, but at the journaled capacity bound.
            server.verify_cache = Some(server.fresh_verify_cache());
        }
        journal.set_admissions(admissions);
        server.journal = Some(journal);
        Ok((
            server,
            RecoveryReport {
                records_replayed,
                bytes_scanned: replay.bytes_scanned,
                truncation: replay.truncation,
                truncated_bytes: replay.truncated_bytes,
            },
        ))
    }

    /// Applies one replayed record. The journal field is still `None`
    /// while this runs (recovery attaches it last), so the public
    /// mutators called here do not re-journal what they replay.
    fn apply_record(&mut self, record: JournalRecord) -> Result<(), CoalitionError> {
        match record {
            JournalRecord::ClockAdvance(to) => self.advance_clock(to)?,
            JournalRecord::Config(kind, value) => self.configure(kind, value)?,
            JournalRecord::ObjectAdded { name, acl } => self.add_object(name, acl)?,
            JournalRecord::AclSet { name, acl } => self.set_acl(&name, acl)?,
            JournalRecord::ContentSet { name, content } => self.set_content(&name, content)?,
            // Admission errors are ignored on replay: the record was
            // journaled before the original admission ran, so the original
            // server saw the identical error and kept running — replay
            // must reproduce the same partial effect, not halt.
            JournalRecord::IdentityRevocation(rev) => {
                let _ = self.admit_identity_revocation(&rev);
            }
            JournalRecord::AttributeRevocation(rev) => {
                let _ = self.admit_attribute_revocation(&rev);
            }
            JournalRecord::Crl(crl) => {
                let _ = self.admit_crl(&crl);
            }
            JournalRecord::RequestCerts {
                identity,
                threshold,
                attribute,
            } => self.replay_request_certs(&identity, &threshold, &attribute)?,
            JournalRecord::Decision(d) => self.replay_decision(d),
            JournalRecord::ObjectState {
                name,
                acl,
                version,
                content,
            } => {
                if let Some(obj) = self.objects.iter_mut().find(|o| o.name == name) {
                    obj.acl = acl;
                    obj.version = version;
                    obj.content = content;
                } else {
                    self.objects.push(CoalitionObject {
                        name,
                        acl,
                        version,
                        content,
                    });
                }
            }
            JournalRecord::ReplaySeen(r) => {
                let decision = ServerDecision {
                    granted: r.granted,
                    detail: r.detail,
                    derivation: None,
                    axiom_applications: r.axioms,
                    signature_checks: r.signature_checks,
                    cached_signature_checks: r.cached_signature_checks,
                    response: None,
                    unavailable: r.unavailable,
                    shed: None,
                };
                self.seen.insert(r.digest, decision);
            }
        }
        Ok(())
    }

    /// Re-verifies and re-admits a journaled request's certificates in the
    /// exact order the original authorization did: identity certificates
    /// first (stopping at the first admission error, as step 1 of §4.3
    /// does), then threshold + single-subject attribute certificates
    /// (stopping likewise, as step 2 does). Re-admissions of
    /// already-known bodies are deduplicated by the engine.
    fn replay_request_certs(
        &mut self,
        identity: &[jaap_pki::IdentityCertificate],
        threshold: &[jaap_pki::ThresholdAttributeCertificate],
        attribute: &[jaap_pki::AttributeCertificate],
    ) -> Result<(), CoalitionError> {
        let reverify = |e: jaap_pki::PkiError| {
            CoalitionError::Journal(format!("journaled certificate no longer verifies: {e}"))
        };
        let mut identity_msgs = Vec::with_capacity(identity.len());
        for cert in identity {
            identity_msgs.push(self.store.idealize_identity(cert).map_err(reverify)?);
        }
        let mut attribute_msgs = Vec::with_capacity(threshold.len() + attribute.len());
        for cert in threshold {
            attribute_msgs.push(
                self.store
                    .idealize_threshold_attribute(cert)
                    .map_err(reverify)?,
            );
        }
        for cert in attribute {
            attribute_msgs.push(self.store.idealize_attribute(cert).map_err(reverify)?);
        }
        for msg in &identity_msgs {
            if self.engine.admit_certificate(msg).is_err() {
                return Ok(());
            }
        }
        for msg in &attribute_msgs {
            if self.engine.admit_certificate(msg).is_err() {
                return Ok(());
            }
        }
        Ok(())
    }

    /// Replays a decision record: audit line, version bump, replay-window
    /// entry. No cryptography or logic re-runs — the decision's effects
    /// are applied verbatim.
    fn replay_decision(&mut self, d: DecisionRecord) {
        if d.version_bump {
            if let Some(obj) = self
                .objects
                .iter_mut()
                .find(|o| o.name == d.operation.object)
            {
                obj.version += 1;
            }
        }
        if let Some(digest) = d.replay_digest.clone() {
            let decision = ServerDecision {
                granted: d.granted,
                detail: (!d.granted).then(|| d.detail.clone()),
                derivation: None,
                axiom_applications: d.axioms,
                signature_checks: d.signature_checks,
                cached_signature_checks: d.cached_checks,
                response: None,
                unavailable: d.unavailable,
                shed: None,
            };
            self.seen.insert(digest, decision);
        }
        self.audit.push(AuditEntry {
            at: d.at,
            principals: d.principals,
            operation: d.operation,
            granted: d.granted,
            detail: d.detail,
            cached_checks: d.cached_checks,
            retry_trace: d.retry_trace,
            shed: None,
        });
    }

    /// ACL lookup plus the §4.3 logic phase (or the D3 crypto-only check)
    /// over already-verified artifacts.
    fn authorize_verified(
        &mut self,
        req: &JointAccessRequest,
        verified: CryptoVerified,
    ) -> Result<(Option<Arc<Derivation>>, usize), String> {
        let acl_started = self.metrics.as_ref().map(|_| Instant::now());
        let acl = self
            .object(&req.operation.object)
            .map(|o| o.acl.clone())
            .ok_or_else(|| format!("unknown object {}", req.operation.object));
        if let (Some(m), Some(t)) = (&self.metrics, acl_started) {
            m.acl_ns.record_duration(t.elapsed());
        }
        let acl = acl?;

        if !self.logic_checking {
            // D3 ablation: crypto-only monitor does a direct structural
            // check: some threshold cert grants an ACL group and enough
            // distinct signers are members.
            return crypto_only_decision(req, &acl).map(|()| (None, 0));
        }

        // Logic step: the four-step §4.3 protocol.
        let request = AccessRequest {
            identity_certs: verified.identity_msgs,
            attribute_certs: verified.attribute_msgs,
            signed_statements: verified.signed_statements,
            operation: req.operation.clone(),
            at: req.at,
        };
        let logic_started = self.metrics.as_ref().map(|_| Instant::now());
        let decision = protocol::authorize(&mut self.engine, &request, &acl);
        if let (Some(m), Some(t)) = (&self.metrics, logic_started) {
            m.logic_ns.record_duration(t.elapsed());
        }
        if decision.granted {
            Ok((decision.derivation, decision.axiom_applications))
        } else {
            Err(decision
                .reason
                .map_or_else(|| "denied".to_string(), |r| r.to_string()))
        }
    }
}

/// The crypto phase: verify and idealize every certificate (through the
/// cache when one is supplied) and verify every statement signature. Pure
/// in the server state — safe to run on worker threads.
///
/// `use_precomp` routes individual verifications through the trust
/// store's shared fixed-base precomputation cache; `precheck` carries the
/// batch pre-pass vouchers ([`CoalitionServer::batch_precheck`]). Both
/// accept/reject exactly as the plain path and leave the check counters
/// unchanged, so decisions and audit lines are byte-identical either way.
pub(crate) fn crypto_verify(
    store: &TrustStore,
    cache: Option<&VerifyCache>,
    now: Time,
    req: &JointAccessRequest,
    use_precomp: bool,
    precheck: Option<&CryptoPrecheck>,
) -> CryptoOutcome {
    let mut checks = 0usize;
    let mut cached = 0usize;
    let result = crypto_verify_inner(
        store,
        cache,
        now,
        req,
        use_precomp,
        precheck,
        &mut checks,
        &mut cached,
    );
    CryptoOutcome {
        signature_checks: checks,
        cached_signature_checks: cached,
        result,
    }
}

#[allow(clippy::too_many_arguments)]
fn crypto_verify_inner(
    store: &TrustStore,
    cache: Option<&VerifyCache>,
    now: Time,
    req: &JointAccessRequest,
    use_precomp: bool,
    precheck: Option<&CryptoPrecheck>,
    checks: &mut usize,
    cached: &mut usize,
) -> Result<CryptoVerified, String> {
    // Crypto step 1: verify and idealize certificates.
    let mut identity_msgs = Vec::new();
    for (ci, cert) in req.identity_certs.iter().enumerate() {
        let digest = cache.is_some().then(|| cache::identity_digest(cert));
        let key = cache
            .and_then(|_| store.ca_key(&cert.issuer))
            .and_then(|ca_key| digest.clone().map(|d| (d, key_name(ca_key).to_string())));
        if let (Some(cache), Some(key)) = (cache, key.as_ref()) {
            if let Some(msg) = cache.lookup(key, now) {
                *cached += 1;
                identity_msgs.push(msg);
                continue;
            }
        }
        let vouched = precheck.is_some_and(|p| p.id.get(ci).copied().unwrap_or(false));
        *checks += 1;
        let msg = store
            .idealize_identity_with(cert, use_precomp, vouched)
            .map_err(|e| format!("identity certificate: {e}"))?;
        // A batch-vouched certificate never populates the cache: cache
        // entries must rest on an individual verification.
        if !vouched {
            if let (Some(cache), Some(key)) = (cache, key) {
                cache.insert(
                    key,
                    msg.clone(),
                    cert.validity.end,
                    vec![cert.subject.clone()],
                    None,
                );
            }
        }
        identity_msgs.push(msg);
    }
    let aa_key_id = || store.aa_key().map(|k| key_name(k.rsa()).to_string());
    let mut attribute_msgs = Vec::new();
    for (ci, cert) in req.threshold_certs.iter().enumerate() {
        let digest = cache.is_some().then(|| cache::threshold_digest(cert));
        let key = cache
            .and_then(|_| aa_key_id())
            .and_then(|kid| digest.clone().map(|d| (d, kid)));
        if let (Some(cache), Some(key)) = (cache, key.as_ref()) {
            if let Some(msg) = cache.lookup(key, now) {
                *cached += 1;
                attribute_msgs.push(msg);
                continue;
            }
        }
        let vouched = precheck.is_some_and(|p| p.thr.get(ci).copied().unwrap_or(false));
        *checks += 1;
        let msg = store
            .idealize_threshold_attribute_with(cert, use_precomp, vouched)
            .map_err(|e| format!("threshold attribute certificate: {e}"))?;
        if !vouched {
            if let (Some(cache), Some(key)) = (cache, key) {
                cache.insert(
                    key,
                    msg.clone(),
                    cert.validity.end,
                    cert.subject
                        .members
                        .iter()
                        .map(|(name, _)| name.clone())
                        .collect(),
                    Some(cert.group.as_str().to_string()),
                );
            }
        }
        attribute_msgs.push(msg);
    }
    for (ci, cert) in req.attribute_certs.iter().enumerate() {
        let digest = cache.is_some().then(|| cache::attribute_digest(cert));
        let key = cache
            .and_then(|_| aa_key_id())
            .and_then(|kid| digest.clone().map(|d| (d, kid)));
        if let (Some(cache), Some(key)) = (cache, key.as_ref()) {
            if let Some(msg) = cache.lookup(key, now) {
                *cached += 1;
                attribute_msgs.push(msg);
                continue;
            }
        }
        let vouched = precheck.is_some_and(|p| p.attr.get(ci).copied().unwrap_or(false));
        *checks += 1;
        let msg = store
            .idealize_attribute_with(cert, use_precomp, vouched)
            .map_err(|e| format!("attribute certificate: {e}"))?;
        if !vouched {
            if let (Some(cache), Some(key)) = (cache, key) {
                cache.insert(
                    key,
                    msg.clone(),
                    cert.validity.end,
                    vec![cert.subject.clone()],
                    Some(cert.group.as_str().to_string()),
                );
            }
        }
        attribute_msgs.push(msg);
    }

    // Crypto step 2: verify the request-statement signatures against the
    // keys certified for the signers. Statements are fresh per request and
    // never cached (and `recurring = false` below: a one-shot residue
    // earns no fixed-base ladder, only the shared Montgomery context).
    let mut signed_statements = Vec::new();
    for stmt in &req.statements {
        let cert = req
            .identity_certs
            .iter()
            .find(|c| c.subject == stmt.principal)
            .ok_or_else(|| format!("no identity certificate presented for {}", stmt.principal))?;
        let body = statement_bytes(&stmt.principal, &req.operation, stmt.at);
        *checks += 1;
        let ok = if use_precomp {
            cert.subject_key.verify_with(
                Some(store.precomp().as_ref()),
                false,
                &body,
                &stmt.signature,
            )
        } else {
            cert.subject_key.verify(&body, &stmt.signature)
        };
        if !ok {
            return Err(format!(
                "request signature by {} does not verify",
                stmt.principal
            ));
        }
        signed_statements.push(SignedStatement::new(
            stmt.principal.as_str(),
            key_name(&cert.subject_key),
            &req.operation,
            stmt.at,
        ));
    }

    Ok(CryptoVerified {
        identity_msgs,
        attribute_msgs,
        signed_statements,
    })
}

/// The crypto-only baseline monitor (no derivations, no revocation
/// reasoning — exactly what the ablation measures the absence of).
fn crypto_only_decision(req: &JointAccessRequest, acl: &Acl) -> Result<(), String> {
    for cert in &req.threshold_certs {
        if !acl.permits(&cert.group, &req.operation.action) {
            continue;
        }
        if !(cert.validity.contains(req.at)) {
            continue;
        }
        let distinct_signers = cert
            .subject
            .members
            .iter()
            .filter(|(name, _)| req.statements.iter().any(|s| &s.principal == name))
            .count();
        if distinct_signers >= cert.subject.m {
            return Ok(());
        }
    }
    for cert in &req.attribute_certs {
        if acl.permits(&cert.group, &req.operation.action)
            && cert.validity.contains(req.at)
            && req.statements.iter().any(|s| s.principal == cert.subject)
        {
            return Ok(());
        }
    }
    Err("crypto-only monitor: no certificate authorizes the request".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::CoalitionBuilder;

    #[test]
    fn scenario_server_grants_and_audits() {
        let mut c = CoalitionBuilder::new()
            .domains(&["D1", "D2", "D3"])
            .key_bits(192)
            .seed(1)
            .build()
            .expect("build");
        let d = c.request_write(&["User_D1", "User_D2"]).expect("request");
        assert!(d.granted);
        assert!(d.signature_checks >= 5); // 2 id certs + 1 AC + 2 statements
        assert_eq!(d.cached_signature_checks, 0); // cache off by default
        assert!(d.axiom_applications > 0);
        let server = c.server();
        assert_eq!(server.audit_log().len(), 1);
        assert!(server.audit_log()[0].granted);
        assert_eq!(server.audit_log()[0].cached_checks, 0);
        assert_eq!(server.object("Object O").expect("obj").version, 1);
    }

    #[test]
    fn denied_request_leaves_version_unchanged() {
        let mut c = CoalitionBuilder::new()
            .domains(&["D1", "D2", "D3"])
            .key_bits(192)
            .seed(2)
            .build()
            .expect("build");
        let d = c.request_write(&["User_D1"]).expect("request");
        assert!(!d.granted);
        assert_eq!(c.server().object("Object O").expect("obj").version, 0);
        assert!(!c.server().audit_log()[0].granted);
    }

    #[test]
    fn crypto_only_ablation_grants_but_produces_no_proof() {
        let mut c = CoalitionBuilder::new()
            .domains(&["D1", "D2", "D3"])
            .key_bits(192)
            .seed(3)
            .build()
            .expect("build");
        c.server_mut().set_logic_checking(false).expect("config");
        let d = c.request_write(&["User_D1", "User_D3"]).expect("request");
        assert!(d.granted);
        assert!(d.derivation.is_none());
        assert_eq!(d.axiom_applications, 0);
        let denied = c.request_write(&["User_D2"]).expect("request");
        assert!(!denied.granted);
    }

    #[test]
    fn unknown_object_denied() {
        let mut c = CoalitionBuilder::new()
            .domains(&["D1", "D2", "D3"])
            .key_bits(192)
            .seed(4)
            .build()
            .expect("build");
        let d = c
            .request_operation(&["User_D1", "User_D2"], Operation::new("write", "Ghost"))
            .expect("request");
        assert!(!d.granted);
        assert!(d.detail.expect("detail").contains("unknown object"));
    }

    #[test]
    fn second_identical_presentation_hits_cache() {
        let mut c = CoalitionBuilder::new()
            .domains(&["D1", "D2", "D3"])
            .key_bits(192)
            .seed(11)
            .build()
            .expect("build");
        c.server_mut().set_verification_cache(true).expect("config");
        let first = c.request_write(&["User_D1", "User_D2"]).expect("first");
        assert!(first.granted);
        assert_eq!(first.cached_signature_checks, 0);
        c.advance_time(Time(12)).expect("clock");
        let second = c.request_write(&["User_D1", "User_D2"]).expect("second");
        assert!(second.granted);
        // 2 identity certs + 1 threshold AC come from the cache; the two
        // statement signatures are always verified afresh.
        assert_eq!(second.cached_signature_checks, 3);
        assert_eq!(second.signature_checks, 2);
        let stats = c.server().verification_cache().expect("cache on").stats();
        assert_eq!(stats.hits, 3);
    }

    #[test]
    fn verify_batch_matches_serial_decisions() {
        let build = || {
            CoalitionBuilder::new()
                .domains(&["D1", "D2", "D3"])
                .key_bits(192)
                .seed(12)
                .build()
                .expect("build")
        };
        let mut serial = build();
        let mut batch = build();
        let mut requests = Vec::new();
        for (t, signers) in [
            (20, vec!["User_D1", "User_D2"]),
            (21, vec!["User_D3"]),
            (22, vec!["User_D2", "User_D3"]),
            (23, vec!["User_D1"]),
        ] {
            serial.advance_time(Time(t)).expect("clock");
            batch.advance_time(Time(t)).expect("clock");
            requests.push(
                batch
                    .build_request(&signers, Operation::new("write", "Object O"))
                    .expect("request"),
            );
        }
        let expected: Vec<ServerDecision> = requests
            .iter()
            .map(|r| serial.server_mut().handle_request(r))
            .collect();
        let got = batch.server_mut().verify_batch(&requests, 4);
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.granted, e.granted);
            assert_eq!(g.detail, e.detail);
            assert_eq!(g.signature_checks, e.signature_checks);
        }
        assert_eq!(
            batch.server().object("Object O").expect("obj").version,
            serial.server().object("Object O").expect("obj").version
        );
        assert_eq!(batch.server().audit_log().len(), 4);
    }
}
