//! # jaap-store — persistent, indexed certificate/CRL/ACL store
//!
//! The coalition server's beliefs are derived from certificates,
//! revocations, CRLs and ACL rows. Up to now those artifacts lived only
//! in in-memory maps, which caps the population a server can hold. This
//! crate gives them a durable home sized for millions of principals:
//!
//! - **One log, many columns.** Every row is a [`StoreRecord`] encoded
//!   under its own domain string and appended to a [`JournalStore`] as a
//!   `jaap-wal` frame (checksummed, torn-tail detectable). The enum tag
//!   is the column discriminant: certs-by-subject, threshold groups,
//!   attribute grants, identity/attribute revocations, CRL anchors and
//!   ACL rows each form one logical column family ([`Column`]) — the
//!   typed-store layering, without a foreign KV engine.
//! - **Dense-id indexes, no scans.** Each column keeps `key → dense id`
//!   plus `dense id → (offset, len)` spans; identity certs additionally
//!   index by issuer and threshold certs by group. Hot-path lookups are
//!   one hash probe plus one span read — never a log scan.
//! - **Paged cold tier.** Decoded rows are *not* kept resident. Reads go
//!   through a bounded FIFO page cache over the flushed log
//!   ([`JournalStore::read_range`]), so resident memory stays
//!   `O(pages + index)` no matter how many principals are certified.
//!   `store.resident_bytes` reports the current footprint.
//! - **Store-before-effect.** `CoalitionServer` writes rows here before
//!   applying belief changes, composing with its WAL-before-effect
//!   journal discipline; recovery rebuilds every index from snapshot +
//!   log tail ([`CertStore::open`]).
//! - **Epoch publishing.** Every mutation bumps a lock-free epoch
//!   counter ([`CertStore::epoch`]), published the same way engine
//!   versions are: decision snapshots capture the epoch and readers
//!   revalidate without taking the store lock.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jaap_core::protocol::Acl;
use jaap_obs::MetricsRegistry;
use jaap_pki::{
    AttributeCertificate, AttributeRevocation, Crl, IdentityCertificate, IdentityRevocation,
    ThresholdAttributeCertificate,
};
use jaap_wal::{
    check_log_version, decode_frames, frame_record, parse_log, JournalStore, MemStore, Tail,
};
use parking_lot::Mutex;

pub mod codec;
mod pager;

pub use codec::StoreRecord;
use pager::Pager;

/// Errors from the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The backing medium failed.
    Io(String),
    /// Bytes or indexes do not decode / reconcile.
    Corrupt(String),
    /// The cold-tier circuit breaker is open: the medium kept missing its
    /// latency budget, so reads fail fast instead of queueing behind a
    /// degraded disk. Typed distinctly from [`StoreError::Io`] — the data
    /// is (as far as we know) intact; only its *timeliness* is gone.
    Unavailable(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "store io error: {msg}"),
            StoreError::Corrupt(msg) => write!(f, "store corruption: {msg}"),
            StoreError::Unavailable(msg) => write!(f, "store unavailable: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// The store's logical column families. One [`StoreRecord`] variant maps
/// to exactly one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Column {
    /// Identity certificates keyed by subject (issuer secondary index).
    IdentitySubject,
    /// Threshold attribute certificates keyed by group + member set.
    ThresholdGroup,
    /// Single-subject attribute certificates keyed by subject + group.
    AttributeGrant,
    /// Identity revocations keyed by subject.
    IdentityRevocation,
    /// Attribute revocations keyed by member set + group.
    AttributeRevocation,
    /// CRLs keyed by sequence number.
    CrlAnchor,
    /// ACL rows keyed by object name.
    AclRow,
}

impl Column {
    /// Every column, in persistent tag order.
    pub const ALL: [Column; 7] = [
        Column::IdentitySubject,
        Column::ThresholdGroup,
        Column::AttributeGrant,
        Column::IdentityRevocation,
        Column::AttributeRevocation,
        Column::CrlAnchor,
        Column::AclRow,
    ];

    fn idx(self) -> usize {
        match self {
            Column::IdentitySubject => 0,
            Column::ThresholdGroup => 1,
            Column::AttributeGrant => 2,
            Column::IdentityRevocation => 3,
            Column::AttributeRevocation => 4,
            Column::CrlAnchor => 5,
            Column::AclRow => 6,
        }
    }

    /// Short stable name (metrics, diagnostics).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Column::IdentitySubject => "identity_subject",
            Column::ThresholdGroup => "threshold_group",
            Column::AttributeGrant => "attribute_grant",
            Column::IdentityRevocation => "identity_revocation",
            Column::AttributeRevocation => "attribute_revocation",
            Column::CrlAnchor => "crl_anchor",
            Column::AclRow => "acl_row",
        }
    }
}

/// Sizing knobs for the persistent store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Cold-tier page size in bytes.
    pub page_size: u64,
    /// Maximum resident cold-tier pages.
    pub cache_pages: usize,
    /// Tail-buffer size that triggers an automatic flush to the medium.
    pub flush_threshold: usize,
    /// Cold-read circuit breaker: trip after this many **consecutive**
    /// page reads slower than [`StoreConfig::breaker_slow_us`]. `0`
    /// disables the breaker. Once open, cold reads fail fast with
    /// [`StoreError::Unavailable`] until [`CertStore::reset_breaker`];
    /// tail-buffer and page-cache hits are unaffected.
    pub breaker_threshold: usize,
    /// Latency budget (microseconds) a cold page read must beat to count
    /// as healthy. `0` counts *every* cold read as slow (deterministic
    /// trip for tests and drills).
    pub breaker_slow_us: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            page_size: 64 * 1024,
            cache_pages: 64,
            flush_threshold: 256 * 1024,
            breaker_threshold: 0,
            breaker_slow_us: 1000,
        }
    }
}

/// A `(offset, len)` span of one framed record in the byte log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Loc {
    offset: u64,
    len: u32,
}

/// One column's dense-id index: `key → id`, `id → key`, `id → span`.
/// Re-puts of an existing key overwrite the id's span (latest wins), so
/// ids stay stable for secondary indexes.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct ColumnIndex {
    ids: HashMap<String, u32>,
    keys: Vec<String>,
    locs: Vec<Loc>,
}

impl ColumnIndex {
    /// Inserts or overwrites `key`'s span; returns `(id, was_fresh)`.
    fn upsert(&mut self, key: &str, loc: Loc) -> (u32, bool) {
        if let Some(&id) = self.ids.get(key) {
            self.locs[id as usize] = loc;
            (id, false)
        } else {
            let id = self.keys.len() as u32;
            self.ids.insert(key.to_string(), id);
            self.keys.push(key.to_string());
            self.locs.push(loc);
            (id, true)
        }
    }

    fn get(&self, key: &str) -> Option<Loc> {
        self.ids.get(key).map(|&id| self.locs[id as usize])
    }

    fn len(&self) -> usize {
        self.keys.len()
    }
}

/// Resolved `store.*` instruments.
#[derive(Debug, Clone)]
struct Instruments {
    reads: Arc<jaap_obs::Counter>,
    misses: Arc<jaap_obs::Counter>,
    writes: Arc<jaap_obs::Counter>,
    page_evictions: Arc<jaap_obs::Counter>,
    resident_bytes: Arc<jaap_obs::Gauge>,
    breaker_slow_reads: Arc<jaap_obs::Counter>,
    breaker_trips: Arc<jaap_obs::Counter>,
    breaker_open: Arc<jaap_obs::Gauge>,
}

#[derive(Debug)]
struct Inner {
    store: Box<dyn JournalStore>,
    config: StoreConfig,
    columns: [ColumnIndex; 7],
    /// Secondary: issuer → identity-cert dense ids.
    by_issuer: HashMap<String, Vec<u32>>,
    /// issuer currently indexed for each identity-cert id.
    issuer_of: Vec<String>,
    /// Secondary: group → threshold-cert dense ids.
    by_group: HashMap<String, Vec<u32>>,
    /// group currently indexed for each threshold-cert id.
    group_of: Vec<String>,
    /// Highest CRL sequence seen.
    latest_crl_seq: Option<u64>,
    /// Bytes already on the medium; spans below this go through pages.
    flushed_len: u64,
    /// Appended frames not yet flushed; spans at/after `flushed_len`.
    tail_buf: Vec<u8>,
    pager: Pager,
    metrics: Option<Instruments>,
    /// Consecutive cold page reads over the latency budget.
    slow_streak: usize,
    /// Cold-read circuit breaker state; `true` = open (failing fast).
    breaker_open: bool,
}

impl Inner {
    fn logical_len(&self) -> u64 {
        self.flushed_len + self.tail_buf.len() as u64
    }

    /// Indexes one decoded record at `loc`, maintaining secondaries.
    fn index_record(&mut self, record: &StoreRecord, loc: Loc) {
        let (column, key) = key_of(record);
        let (id, fresh) = self.columns[column.idx()].upsert(&key, loc);
        match record {
            StoreRecord::IdentityCert(cert) => {
                let id_us = id as usize;
                if fresh {
                    self.issuer_of.push(cert.issuer.clone());
                    self.by_issuer
                        .entry(cert.issuer.clone())
                        .or_default()
                        .push(id);
                } else if self.issuer_of[id_us] != cert.issuer {
                    let old = std::mem::replace(&mut self.issuer_of[id_us], cert.issuer.clone());
                    if let Some(ids) = self.by_issuer.get_mut(&old) {
                        ids.retain(|&i| i != id);
                    }
                    self.by_issuer
                        .entry(cert.issuer.clone())
                        .or_default()
                        .push(id);
                }
            }
            StoreRecord::ThresholdCert(cert) => {
                let id_us = id as usize;
                let group = cert.group.as_str().to_string();
                if fresh {
                    self.group_of.push(group.clone());
                    self.by_group.entry(group).or_default().push(id);
                } else if self.group_of[id_us] != group {
                    let old = std::mem::replace(&mut self.group_of[id_us], group.clone());
                    if let Some(ids) = self.by_group.get_mut(&old) {
                        ids.retain(|&i| i != id);
                    }
                    self.by_group.entry(group).or_default().push(id);
                }
            }
            StoreRecord::CrlAnchor(crl) => {
                self.latest_crl_seq = Some(
                    self.latest_crl_seq
                        .map_or(crl.sequence, |s| s.max(crl.sequence)),
                );
            }
            _ => {}
        }
    }

    /// Reads and decodes the framed record at `loc`.
    fn fetch(&mut self, loc: Loc) -> Result<StoreRecord, StoreError> {
        let bytes = if loc.offset >= self.flushed_len {
            let start = (loc.offset - self.flushed_len) as usize;
            let end = start + loc.len as usize;
            if end > self.tail_buf.len() {
                return Err(StoreError::Corrupt(format!(
                    "span [{start}, {end}) past tail buffer ({})",
                    self.tail_buf.len()
                )));
            }
            self.tail_buf[start..end].to_vec()
        } else {
            // Cold tier: fail fast while the breaker is open — queueing
            // reads behind a degraded medium turns one slow disk into a
            // server-wide convoy.
            if self.breaker_open {
                return Err(StoreError::Unavailable(format!(
                    "cold-read circuit breaker open after {} consecutive slow page reads \
                     (reset_breaker() to probe the medium again)",
                    self.slow_streak
                )));
            }
            let Inner { store, pager, .. } = self;
            let misses_before = pager.misses;
            let evictions_before = pager.evictions();
            let started = std::time::Instant::now();
            let bytes = pager.read_span(store.as_ref(), loc.offset, u64::from(loc.len))?;
            let missed = pager.misses > misses_before;
            if let Some(m) = &self.metrics {
                m.misses.add(pager.misses - misses_before);
                m.page_evictions.add(pager.evictions() - evictions_before);
            }
            // Only reads that actually touched the medium (cache misses)
            // vote on its health; cached-page hits say nothing about it.
            if self.config.breaker_threshold != 0 && missed {
                if started.elapsed().as_micros() as u64 >= self.config.breaker_slow_us {
                    self.slow_streak += 1;
                    if let Some(m) = &self.metrics {
                        m.breaker_slow_reads.inc();
                    }
                    if self.slow_streak >= self.config.breaker_threshold {
                        self.breaker_open = true;
                        if let Some(m) = &self.metrics {
                            m.breaker_trips.inc();
                            m.breaker_open.set(1);
                        }
                    }
                } else {
                    self.slow_streak = 0;
                }
            }
            bytes
        };
        if let Some(m) = &self.metrics {
            m.reads.inc();
            m.resident_bytes.set(self.resident_bytes() as i64);
        }
        let frame = decode_frames(&bytes)
            .next()
            .ok_or_else(|| StoreError::Corrupt(format!("empty frame span at {}", loc.offset)))?
            .map_err(|e| {
                StoreError::Corrupt(format!("frame at offset {} undecodable: {e}", loc.offset))
            })?;
        StoreRecord::decode(frame.payload)
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        if self.tail_buf.is_empty() {
            return Ok(());
        }
        self.store
            .append(&self.tail_buf)
            .map_err(|e| StoreError::Io(e.to_string()))?;
        self.flushed_len += self.tail_buf.len() as u64;
        self.tail_buf.clear();
        Ok(())
    }

    /// Current resident footprint: cold-tier pages plus the unflushed
    /// tail. (Index overhead is `O(keys)` and excluded by design — the
    /// bounded claim is about *row bytes*.)
    fn resident_bytes(&self) -> u64 {
        self.pager.resident_bytes() + self.tail_buf.len() as u64
    }

    /// Rebuilds indexes from the full log image; used by `open` and
    /// `verify_integrity`.
    fn build_index(bytes: &[u8]) -> Result<(Vec<(StoreRecord, Loc)>, Tail), StoreError> {
        let parsed = parse_log(bytes);
        let mut rows = Vec::with_capacity(parsed.records.len());
        let mut start = 0u64;
        for (i, payload) in parsed.records.iter().enumerate() {
            let end = parsed.boundaries[i] as u64;
            let record = StoreRecord::decode(payload)?;
            rows.push((
                record,
                Loc {
                    offset: start,
                    len: (end - start) as u32,
                },
            ));
            start = end;
        }
        Ok((rows, parsed.tail))
    }
}

/// A cloneable handle on the persistent store. All handles share one
/// index and one epoch counter; reads of the epoch are lock-free.
#[derive(Debug, Clone)]
pub struct CertStore {
    inner: Arc<Mutex<Inner>>,
    epoch: Arc<AtomicU64>,
}

impl CertStore {
    /// Opens a store over `medium`, recovering indexes from the log. A
    /// torn or corrupt tail is physically truncated to the last clean
    /// record boundary (the WAL recovery rule) before indexing.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the medium fails; [`StoreError::Corrupt`] if
    /// a checksummed record fails to decode (real corruption, never
    /// silently skipped) or the log was written under another frame
    /// format version (left untouched).
    pub fn open(
        mut medium: Box<dyn JournalStore>,
        config: StoreConfig,
    ) -> Result<Self, StoreError> {
        let mut bytes = medium.read().map_err(|e| StoreError::Io(e.to_string()))?;
        check_log_version(&bytes).map_err(|e| StoreError::Corrupt(e.to_string()))?;
        let (rows, tail) = Inner::build_index(&bytes)?;
        if let Tail::Truncated { offset, .. } = tail {
            bytes.truncate(offset);
            medium
                .reset(&bytes)
                .map_err(|e| StoreError::Io(e.to_string()))?;
        }
        let mut inner = Inner {
            store: medium,
            config,
            columns: Default::default(),
            by_issuer: HashMap::new(),
            issuer_of: Vec::new(),
            by_group: HashMap::new(),
            group_of: Vec::new(),
            latest_crl_seq: None,
            flushed_len: bytes.len() as u64,
            tail_buf: Vec::new(),
            pager: Pager::new(config.page_size, config.cache_pages),
            metrics: None,
            slow_streak: 0,
            breaker_open: false,
        };
        for (record, loc) in &rows {
            inner.index_record(record, *loc);
        }
        Ok(CertStore {
            inner: Arc::new(Mutex::new(inner)),
            epoch: Arc::new(AtomicU64::new(0)),
        })
    }

    /// An empty in-memory store (tests, benches without a filesystem).
    #[must_use]
    pub fn in_memory(config: StoreConfig) -> Self {
        CertStore::open(Box::new(MemStore::new()), config).expect("in-memory open cannot fail")
    }

    /// The current store epoch. Bumped on every mutation; lock-free, so
    /// snapshot publication can read it the way engine versions are read.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Rows indexed in `column` (live keys, not log records).
    #[must_use]
    pub fn len(&self, column: Column) -> usize {
        self.inner.lock().columns[column.idx()].len()
    }

    /// `true` when every column is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        let inner = self.inner.lock();
        inner.columns.iter().all(|c| c.len() == 0)
    }

    /// Current resident footprint in bytes (pages + unflushed tail).
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.inner.lock().resident_bytes()
    }

    /// Resident cold-tier page count.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.inner.lock().pager.resident_pages()
    }

    /// Re-bounds the cold-tier page cache, evicting immediately.
    pub fn set_cache_pages(&self, pages: usize) {
        let mut inner = self.inner.lock();
        inner.pager.set_capacity(pages);
        if let Some(m) = &inner.metrics {
            m.resident_bytes.set(inner.resident_bytes() as i64);
        }
    }

    /// Resolves `store.{reads,misses,writes,page_evictions}` counters, the
    /// `store.resident_bytes` gauge, and the breaker instruments
    /// (`store.breaker.{slow_reads,trips}` counters, `store.breaker.open`
    /// gauge) from `registry`.
    pub fn set_metrics(&self, registry: &MetricsRegistry) {
        let mut inner = self.inner.lock();
        let instruments = Instruments {
            reads: registry.counter("store.reads"),
            misses: registry.counter("store.misses"),
            writes: registry.counter("store.writes"),
            page_evictions: registry.counter("store.page_evictions"),
            resident_bytes: registry.gauge("store.resident_bytes"),
            breaker_slow_reads: registry.counter("store.breaker.slow_reads"),
            breaker_trips: registry.counter("store.breaker.trips"),
            breaker_open: registry.gauge("store.breaker.open"),
        };
        instruments
            .resident_bytes
            .set(inner.resident_bytes() as i64);
        instruments.breaker_open.set(i64::from(inner.breaker_open));
        inner.metrics = Some(instruments);
    }

    /// `true` while the cold-read circuit breaker is open (cold-tier reads
    /// failing fast with [`StoreError::Unavailable`]).
    #[must_use]
    pub fn breaker_tripped(&self) -> bool {
        self.inner.lock().breaker_open
    }

    /// Closes the cold-read circuit breaker and clears the slow streak —
    /// the operator's (or a recovery policy's) explicit decision to probe
    /// the medium again. Deliberately manual: a self-resetting breaker
    /// under a still-degraded disk just oscillates.
    pub fn reset_breaker(&self) {
        let mut inner = self.inner.lock();
        inner.breaker_open = false;
        inner.slow_streak = 0;
        if let Some(m) = &inner.metrics {
            m.breaker_open.set(0);
        }
    }

    /// Appends one row (store-before-effect write path): encodes, frames,
    /// indexes, bumps the epoch, and flushes when the tail buffer crosses
    /// the configured threshold.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if an automatic flush hits the medium and fails.
    pub fn put(&self, record: &StoreRecord) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        let framed = frame_record(&record.encode());
        let loc = Loc {
            offset: inner.logical_len(),
            len: framed.len() as u32,
        };
        inner.tail_buf.extend_from_slice(&framed);
        inner.index_record(record, loc);
        if inner.tail_buf.len() >= inner.config.flush_threshold {
            inner.flush()?;
        }
        if let Some(m) = &inner.metrics {
            m.writes.inc();
            m.resident_bytes.set(inner.resident_bytes() as i64);
        }
        self.epoch.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Typed put: identity certificate.
    ///
    /// # Errors
    ///
    /// See [`CertStore::put`].
    pub fn put_identity_cert(&self, cert: &IdentityCertificate) -> Result<(), StoreError> {
        self.put(&StoreRecord::IdentityCert(cert.clone()))
    }

    /// Typed put: threshold attribute certificate.
    ///
    /// # Errors
    ///
    /// See [`CertStore::put`].
    pub fn put_threshold_cert(
        &self,
        cert: &ThresholdAttributeCertificate,
    ) -> Result<(), StoreError> {
        self.put(&StoreRecord::ThresholdCert(cert.clone()))
    }

    /// Typed put: single-subject attribute certificate.
    ///
    /// # Errors
    ///
    /// See [`CertStore::put`].
    pub fn put_attribute_cert(&self, cert: &AttributeCertificate) -> Result<(), StoreError> {
        self.put(&StoreRecord::AttributeCert(cert.clone()))
    }

    /// Typed put: identity revocation.
    ///
    /// # Errors
    ///
    /// See [`CertStore::put`].
    pub fn put_identity_revocation(&self, rev: &IdentityRevocation) -> Result<(), StoreError> {
        self.put(&StoreRecord::IdentityRevocation(rev.clone()))
    }

    /// Typed put: attribute revocation.
    ///
    /// # Errors
    ///
    /// See [`CertStore::put`].
    pub fn put_attribute_revocation(&self, rev: &AttributeRevocation) -> Result<(), StoreError> {
        self.put(&StoreRecord::AttributeRevocation(rev.clone()))
    }

    /// Typed put: CRL anchor.
    ///
    /// # Errors
    ///
    /// See [`CertStore::put`].
    pub fn put_crl(&self, crl: &Crl) -> Result<(), StoreError> {
        self.put(&StoreRecord::CrlAnchor(crl.clone()))
    }

    /// Typed put: ACL row.
    ///
    /// # Errors
    ///
    /// See [`CertStore::put`].
    pub fn put_acl(&self, object: &str, acl: &Acl) -> Result<(), StoreError> {
        self.put(&StoreRecord::AclRow {
            object: object.to_string(),
            acl: acl.clone(),
        })
    }

    /// Latest identity certificate for `subject`.
    ///
    /// # Errors
    ///
    /// [`StoreError`] if the span cannot be read or decoded.
    pub fn identity_by_subject(
        &self,
        subject: &str,
    ) -> Result<Option<IdentityCertificate>, StoreError> {
        let mut inner = self.inner.lock();
        let Some(loc) = inner.columns[Column::IdentitySubject.idx()].get(subject) else {
            return Ok(None);
        };
        match inner.fetch(loc)? {
            StoreRecord::IdentityCert(cert) => Ok(Some(cert)),
            other => Err(StoreError::Corrupt(format!(
                "identity index points at {:?}",
                key_of(&other).0
            ))),
        }
    }

    /// Every live identity certificate issued by `issuer` (dense-id
    /// secondary index — no scan).
    ///
    /// # Errors
    ///
    /// [`StoreError`] if a span cannot be read or decoded.
    pub fn identities_by_issuer(
        &self,
        issuer: &str,
    ) -> Result<Vec<IdentityCertificate>, StoreError> {
        let mut inner = self.inner.lock();
        let ids = inner.by_issuer.get(issuer).cloned().unwrap_or_default();
        let mut certs = Vec::with_capacity(ids.len());
        for id in ids {
            let loc = inner.columns[Column::IdentitySubject.idx()].locs[id as usize];
            match inner.fetch(loc)? {
                StoreRecord::IdentityCert(cert) => certs.push(cert),
                _ => return Err(StoreError::Corrupt("issuer index points off-column".into())),
            }
        }
        Ok(certs)
    }

    /// Latest attribute certificate granting `subject` membership of
    /// `group`.
    ///
    /// # Errors
    ///
    /// [`StoreError`] if the span cannot be read or decoded.
    pub fn attribute_grant(
        &self,
        subject: &str,
        group: &str,
    ) -> Result<Option<AttributeCertificate>, StoreError> {
        let mut inner = self.inner.lock();
        let key = grant_key(subject, group);
        let Some(loc) = inner.columns[Column::AttributeGrant.idx()].get(&key) else {
            return Ok(None);
        };
        match inner.fetch(loc)? {
            StoreRecord::AttributeCert(cert) => Ok(Some(cert)),
            _ => Err(StoreError::Corrupt("grant index points off-column".into())),
        }
    }

    /// Every live threshold certificate for `group` (dense-id secondary
    /// index).
    ///
    /// # Errors
    ///
    /// [`StoreError`] if a span cannot be read or decoded.
    pub fn threshold_certs_for_group(
        &self,
        group: &str,
    ) -> Result<Vec<ThresholdAttributeCertificate>, StoreError> {
        let mut inner = self.inner.lock();
        let ids = inner.by_group.get(group).cloned().unwrap_or_default();
        let mut certs = Vec::with_capacity(ids.len());
        for id in ids {
            let loc = inner.columns[Column::ThresholdGroup.idx()].locs[id as usize];
            match inner.fetch(loc)? {
                StoreRecord::ThresholdCert(cert) => certs.push(cert),
                _ => return Err(StoreError::Corrupt("group index points off-column".into())),
            }
        }
        Ok(certs)
    }

    /// Latest identity revocation for `subject`, if any.
    ///
    /// # Errors
    ///
    /// [`StoreError`] if the span cannot be read or decoded.
    pub fn identity_revocation(
        &self,
        subject: &str,
    ) -> Result<Option<IdentityRevocation>, StoreError> {
        let mut inner = self.inner.lock();
        let Some(loc) = inner.columns[Column::IdentityRevocation.idx()].get(subject) else {
            return Ok(None);
        };
        match inner.fetch(loc)? {
            StoreRecord::IdentityRevocation(rev) => Ok(Some(rev)),
            _ => Err(StoreError::Corrupt(
                "revocation index points off-column".into(),
            )),
        }
    }

    /// Latest attribute revocation for the member set `members` in
    /// `group`, if any.
    ///
    /// # Errors
    ///
    /// [`StoreError`] if the span cannot be read or decoded.
    pub fn attribute_revocation(
        &self,
        members: &[String],
        group: &str,
    ) -> Result<Option<AttributeRevocation>, StoreError> {
        let mut inner = self.inner.lock();
        let key = members_key(members.iter().map(String::as_str), group);
        let Some(loc) = inner.columns[Column::AttributeRevocation.idx()].get(&key) else {
            return Ok(None);
        };
        match inner.fetch(loc)? {
            StoreRecord::AttributeRevocation(rev) => Ok(Some(rev)),
            _ => Err(StoreError::Corrupt(
                "revocation index points off-column".into(),
            )),
        }
    }

    /// The CRL anchored at `sequence`, if stored.
    ///
    /// # Errors
    ///
    /// [`StoreError`] if the span cannot be read or decoded.
    pub fn crl(&self, sequence: u64) -> Result<Option<Crl>, StoreError> {
        let mut inner = self.inner.lock();
        let Some(loc) = inner.columns[Column::CrlAnchor.idx()].get(&crl_key(sequence)) else {
            return Ok(None);
        };
        match inner.fetch(loc)? {
            StoreRecord::CrlAnchor(crl) => Ok(Some(crl)),
            _ => Err(StoreError::Corrupt("CRL index points off-column".into())),
        }
    }

    /// The highest-sequence CRL stored, if any.
    ///
    /// # Errors
    ///
    /// [`StoreError`] if the span cannot be read or decoded.
    pub fn latest_crl(&self) -> Result<Option<Crl>, StoreError> {
        let seq = { self.inner.lock().latest_crl_seq };
        match seq {
            Some(seq) => self.crl(seq),
            None => Ok(None),
        }
    }

    /// The ACL row for `object`, if stored.
    ///
    /// # Errors
    ///
    /// [`StoreError`] if the span cannot be read or decoded.
    pub fn acl(&self, object: &str) -> Result<Option<Acl>, StoreError> {
        let mut inner = self.inner.lock();
        let Some(loc) = inner.columns[Column::AclRow.idx()].get(object) else {
            return Ok(None);
        };
        match inner.fetch(loc)? {
            StoreRecord::AclRow { acl, .. } => Ok(Some(acl)),
            _ => Err(StoreError::Corrupt("ACL index points off-column".into())),
        }
    }

    /// Pushes the unflushed tail to the medium.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the medium fails.
    pub fn flush(&self) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        inner.flush()?;
        if let Some(m) = &inner.metrics {
            m.resident_bytes.set(inner.resident_bytes() as i64);
        }
        Ok(())
    }

    /// Rewrites the log to contain only the latest record per live key
    /// (dropping superseded versions), atomically via the medium's
    /// `reset` — the snapshot half of snapshot + log. Indexes are rebuilt
    /// on the compacted image and the page cache is dropped.
    ///
    /// # Errors
    ///
    /// [`StoreError`] if reading a live row or rewriting the log fails.
    pub fn snapshot_compact(&self) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        inner.flush()?;
        // Collect the latest image of every live row, column by column.
        let mut live: Vec<StoreRecord> = Vec::new();
        for column in Column::ALL {
            let locs = inner.columns[column.idx()].locs.clone();
            for loc in locs {
                live.push(inner.fetch(loc)?);
            }
        }
        let mut image = Vec::new();
        let mut rows = Vec::with_capacity(live.len());
        for record in &live {
            let framed = frame_record(&record.encode());
            let loc = Loc {
                offset: image.len() as u64,
                len: framed.len() as u32,
            };
            image.extend_from_slice(&framed);
            rows.push((record.clone(), loc));
        }
        inner
            .store
            .reset(&image)
            .map_err(|e| StoreError::Io(e.to_string()))?;
        inner.flushed_len = image.len() as u64;
        inner.tail_buf.clear();
        inner.pager.clear();
        inner.columns = Default::default();
        inner.by_issuer.clear();
        inner.issuer_of.clear();
        inner.by_group.clear();
        inner.group_of.clear();
        inner.latest_crl_seq = None;
        for (record, loc) in &rows {
            inner.index_record(record, *loc);
        }
        if let Some(m) = &inner.metrics {
            m.resident_bytes.set(inner.resident_bytes() as i64);
        }
        self.epoch.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Index-vs-log consistency check: flushes, re-reads the full log,
    /// rebuilds a fresh index, and compares every column (primary spans
    /// and secondary indexes) against the live one.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on any divergence; [`StoreError::Io`] if
    /// the medium fails.
    pub fn verify_integrity(&self) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        inner.flush()?;
        let bytes = inner
            .store
            .read()
            .map_err(|e| StoreError::Io(e.to_string()))?;
        let (rows, tail) = Inner::build_index(&bytes)?;
        if tail != Tail::Clean {
            return Err(StoreError::Corrupt("flushed log has a torn tail".into()));
        }
        let mut twin = Inner {
            store: Box::new(MemStore::new()),
            config: inner.config,
            columns: Default::default(),
            by_issuer: HashMap::new(),
            issuer_of: Vec::new(),
            by_group: HashMap::new(),
            group_of: Vec::new(),
            latest_crl_seq: None,
            flushed_len: 0,
            tail_buf: Vec::new(),
            pager: Pager::new(inner.config.page_size, inner.config.cache_pages),
            metrics: None,
            slow_streak: 0,
            breaker_open: false,
        };
        for (record, loc) in &rows {
            twin.index_record(record, *loc);
        }
        for column in Column::ALL {
            if twin.columns[column.idx()] != inner.columns[column.idx()] {
                return Err(StoreError::Corrupt(format!(
                    "column {} diverges from the log",
                    column.name()
                )));
            }
        }
        if twin.by_issuer != inner.by_issuer
            || twin.by_group != inner.by_group
            || twin.latest_crl_seq != inner.latest_crl_seq
        {
            return Err(StoreError::Corrupt(
                "secondary indexes diverge from the log".into(),
            ));
        }
        Ok(())
    }
}

/// The `(column, key)` a record lands under.
fn key_of(record: &StoreRecord) -> (Column, String) {
    match record {
        StoreRecord::IdentityCert(cert) => (Column::IdentitySubject, cert.subject.clone()),
        StoreRecord::ThresholdCert(cert) => (
            Column::ThresholdGroup,
            members_key(
                cert.subject.members.iter().map(|(name, _)| name.as_str()),
                cert.group.as_str(),
            ),
        ),
        StoreRecord::AttributeCert(cert) => (
            Column::AttributeGrant,
            grant_key(&cert.subject, cert.group.as_str()),
        ),
        StoreRecord::IdentityRevocation(rev) => (Column::IdentityRevocation, rev.subject.clone()),
        StoreRecord::AttributeRevocation(rev) => (
            Column::AttributeRevocation,
            members_key(
                rev.subject.members.iter().map(|(name, _)| name.as_str()),
                rev.group.as_str(),
            ),
        ),
        StoreRecord::CrlAnchor(crl) => (Column::CrlAnchor, crl_key(crl.sequence)),
        StoreRecord::AclRow { object, .. } => (Column::AclRow, object.clone()),
    }
}

fn grant_key(subject: &str, group: &str) -> String {
    format!("{subject}\u{1f}{group}")
}

fn members_key<'a>(members: impl Iterator<Item = &'a str>, group: &str) -> String {
    let mut key = String::new();
    for name in members {
        key.push_str(name);
        key.push('\u{1e}');
    }
    key.push('\u{1f}');
    key.push_str(group);
    key
}

fn crl_key(sequence: u64) -> String {
    format!("{sequence:020}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaap_bigint::Nat;
    use jaap_core::certs::Validity;
    use jaap_core::syntax::{GroupId, Time};
    use jaap_crypto::rsa::{RsaPublicKey, RsaSignature};
    use jaap_pki::{CrlEntry, ThresholdSubject};

    fn key(seed: u8) -> RsaPublicKey {
        RsaPublicKey::new(
            Nat::from_bytes_be(&[seed, 1, 2, 3]),
            Nat::from_bytes_be(&[3]),
        )
    }

    fn sig(seed: u8) -> RsaSignature {
        RsaSignature::from_value(Nat::from_bytes_be(&[seed, 9, 9]))
    }

    fn identity(subject: &str, issuer: &str, seed: u8) -> IdentityCertificate {
        IdentityCertificate {
            issuer: issuer.to_string(),
            subject: subject.to_string(),
            subject_key: key(seed),
            validity: Validity {
                begin: Time(0),
                end: Time(1000),
            },
            timestamp: Time(1),
            signature: sig(seed),
        }
    }

    fn grant(subject: &str, group: &str, seed: u8) -> AttributeCertificate {
        AttributeCertificate {
            issuer: "AA".into(),
            subject: subject.to_string(),
            subject_key: key(seed),
            group: GroupId::new(group),
            validity: Validity {
                begin: Time(0),
                end: Time(1000),
            },
            timestamp: Time(2),
            signature: sig(seed),
        }
    }

    fn crl(sequence: u64) -> Crl {
        let subject = ThresholdSubject::new(vec![("U1".to_string(), key(7))], 1).expect("subject");
        Crl {
            issuer: "RA".into(),
            sequence,
            timestamp: Time(5),
            entries: vec![CrlEntry {
                subject,
                group: GroupId::new("G"),
                revoked_from: Time(4),
            }],
            signature: sig(sequence as u8),
        }
    }

    fn tiny_config() -> StoreConfig {
        StoreConfig {
            page_size: 512,
            cache_pages: 2,
            flush_threshold: 1024,
            ..StoreConfig::default()
        }
    }

    #[test]
    fn rows_round_trip_through_every_column() {
        let store = CertStore::in_memory(tiny_config());
        store
            .put_identity_cert(&identity("U1", "CA_D1", 1))
            .expect("put");
        store
            .put_attribute_cert(&grant("U1", "G_read", 2))
            .expect("put");
        store.put_crl(&crl(1)).expect("put");
        let mut acl = Acl::new();
        acl.permit(GroupId::new("G_read"), "read");
        store.put_acl("Object O", &acl).expect("put");

        assert_eq!(
            store.identity_by_subject("U1").expect("get"),
            Some(identity("U1", "CA_D1", 1))
        );
        assert_eq!(store.identity_by_subject("absent").expect("get"), None);
        assert_eq!(
            store.attribute_grant("U1", "G_read").expect("get"),
            Some(grant("U1", "G_read", 2))
        );
        assert_eq!(store.latest_crl().expect("get"), Some(crl(1)));
        assert_eq!(store.acl("Object O").expect("get"), Some(acl));
        assert_eq!(store.len(Column::IdentitySubject), 1);
        assert!(!store.is_empty());
        store.verify_integrity().expect("consistent");
    }

    #[test]
    fn reput_overwrites_and_issuer_index_follows() {
        let store = CertStore::in_memory(tiny_config());
        store
            .put_identity_cert(&identity("U1", "CA_D1", 1))
            .expect("put");
        store
            .put_identity_cert(&identity("U2", "CA_D1", 2))
            .expect("put");
        // U1 re-certified by a different CA: latest wins, secondary moves.
        store
            .put_identity_cert(&identity("U1", "CA_D2", 3))
            .expect("put");
        assert_eq!(
            store.identity_by_subject("U1").expect("get"),
            Some(identity("U1", "CA_D2", 3))
        );
        let d1: Vec<String> = store
            .identities_by_issuer("CA_D1")
            .expect("get")
            .into_iter()
            .map(|c| c.subject)
            .collect();
        assert_eq!(d1, vec!["U2".to_string()]);
        let d2: Vec<String> = store
            .identities_by_issuer("CA_D2")
            .expect("get")
            .into_iter()
            .map(|c| c.subject)
            .collect();
        assert_eq!(d2, vec!["U1".to_string()]);
        assert_eq!(store.len(Column::IdentitySubject), 2);
        store.verify_integrity().expect("consistent");
    }

    #[test]
    fn recovery_rebuilds_indexes_and_truncates_torn_tail() {
        let medium = MemStore::new();
        let store = CertStore::open(Box::new(medium.clone()), tiny_config()).expect("open");
        for i in 0..10u8 {
            store
                .put_identity_cert(&identity(&format!("U{i}"), "CA_D1", i))
                .expect("put");
        }
        store.put_crl(&crl(3)).expect("put");
        store.flush().expect("flush");
        // Tear the log mid-record; recovery must land on the clean prefix.
        let mut bytes = medium.snapshot();
        bytes.truncate(bytes.len() - 5);
        let torn = MemStore::from_bytes(bytes);
        let recovered = CertStore::open(Box::new(torn), tiny_config()).expect("reopen");
        assert_eq!(recovered.len(Column::IdentitySubject), 10);
        assert_eq!(recovered.latest_crl().expect("get"), None, "CRL was torn");
        assert_eq!(
            recovered.identity_by_subject("U7").expect("get"),
            Some(identity("U7", "CA_D1", 7))
        );
        recovered.verify_integrity().expect("consistent");
    }

    #[test]
    fn store_from_the_previous_frame_format_is_refused_untouched() {
        let medium = MemStore::new();
        let store = CertStore::open(Box::new(medium.clone()), tiny_config()).expect("open");
        store
            .put_identity_cert(&identity("U1", "CA_D1", 1))
            .expect("put");
        store.flush().expect("flush");
        let mut bytes = medium.snapshot();
        bytes[2] = jaap_wal::FORMAT_VERSION - 1;
        let old = MemStore::from_bytes(bytes.clone());
        let Err(err) = CertStore::open(Box::new(old.clone()), tiny_config()) else {
            panic!("a store from the previous frame format must not open");
        };
        let previous = jaap_wal::FORMAT_VERSION - 1;
        assert!(
            err.to_string()
                .contains(&format!("incompatible frame format version {previous}")),
            "{err}"
        );
        assert_eq!(old.snapshot(), bytes, "the refused store is not trimmed");
    }

    #[test]
    fn compaction_drops_superseded_rows_and_preserves_reads() {
        let medium = MemStore::new();
        let store = CertStore::open(Box::new(medium.clone()), tiny_config()).expect("open");
        for round in 0..5u8 {
            for i in 0..4u8 {
                store
                    .put_identity_cert(&identity(&format!("U{i}"), "CA_D1", round * 4 + i))
                    .expect("put");
            }
        }
        store.flush().expect("flush");
        let before = medium.snapshot().len();
        store.snapshot_compact().expect("compact");
        let after = medium.snapshot().len();
        assert!(after < before, "compaction must shrink the log");
        for i in 0..4u8 {
            assert_eq!(
                store.identity_by_subject(&format!("U{i}")).expect("get"),
                Some(identity(&format!("U{i}"), "CA_D1", 16 + i)),
                "latest version must survive compaction"
            );
        }
        store.verify_integrity().expect("consistent");
        // A fresh open over the compacted medium agrees.
        let reopened = CertStore::open(Box::new(medium), tiny_config()).expect("reopen");
        assert_eq!(reopened.len(Column::IdentitySubject), 4);
    }

    #[test]
    fn cold_reads_stay_within_the_page_budget() {
        let store = CertStore::in_memory(StoreConfig {
            page_size: 512,
            cache_pages: 2,
            flush_threshold: 256,
            ..StoreConfig::default()
        });
        let registry = MetricsRegistry::new();
        store.set_metrics(&registry);
        for i in 0..64u32 {
            store
                .put_identity_cert(&identity(&format!("U{i}"), "CA_D1", (i % 251) as u8))
                .expect("put");
        }
        store.flush().expect("flush");
        for i in 0..64u32 {
            assert!(store
                .identity_by_subject(&format!("U{i}"))
                .expect("get")
                .is_some());
        }
        assert!(store.resident_pages() <= 2);
        assert!(store.resident_bytes() <= 2 * 512);
        assert_eq!(registry.counter_value("store.reads"), Some(64));
        assert!(registry.counter_value("store.misses").unwrap_or(0) > 0);
        assert!(registry.counter_value("store.page_evictions").unwrap_or(0) > 0);
        let resident = registry.gauge_value("store.resident_bytes").unwrap_or(-1);
        assert!((0..=1024).contains(&resident));
        assert_eq!(registry.counter_value("store.writes"), Some(64));
    }

    #[test]
    fn breaker_trips_on_consecutive_slow_cold_reads_and_resets() {
        // breaker_slow_us = 0: every cold (medium-touching) read counts as
        // slow, so the trip is deterministic without real sleeps.
        let store = CertStore::in_memory(StoreConfig {
            page_size: 512,
            cache_pages: 1,
            flush_threshold: 64 * 1024,
            breaker_threshold: 2,
            breaker_slow_us: 0,
        });
        let registry = MetricsRegistry::new();
        store.set_metrics(&registry);
        for i in 0..16u8 {
            store
                .put_identity_cert(&identity(&format!("U{i}"), "CA_D1", i))
                .expect("put");
        }
        store.flush().expect("flush");
        assert_eq!(registry.gauge_value("store.breaker.open"), Some(0));
        // Two distant keys force two cache-missing cold reads: trip.
        assert!(store.identity_by_subject("U0").expect("get").is_some());
        let second = store.identity_by_subject("U15");
        assert!(second.is_ok() || matches!(second, Err(StoreError::Unavailable(_))));
        assert!(store.breaker_tripped());
        assert_eq!(registry.gauge_value("store.breaker.open"), Some(1));
        assert_eq!(registry.counter_value("store.breaker.trips"), Some(1));
        assert!(
            registry
                .counter_value("store.breaker.slow_reads")
                .unwrap_or(0)
                >= 2
        );
        // Open breaker: cold reads fail fast, typed Unavailable.
        let err = store.identity_by_subject("U7").expect_err("breaker open");
        assert!(matches!(err, StoreError::Unavailable(_)));
        // Writes (tail-buffer path) still work while the breaker is open.
        store
            .put_identity_cert(&identity("fresh", "CA_D1", 99))
            .expect("put");
        assert!(store.identity_by_subject("fresh").expect("tail").is_some());
        // Explicit reset closes the breaker and reads resume.
        store.reset_breaker();
        assert!(!store.breaker_tripped());
        assert_eq!(registry.gauge_value("store.breaker.open"), Some(0));
        // The very next cold reads re-trip (medium still "slow"), which is
        // exactly the fail-fast behaviour a degraded disk should get.
        assert!(store.identity_by_subject("U7").expect("probe").is_some());
    }

    #[test]
    fn epoch_bumps_on_every_mutation() {
        let store = CertStore::in_memory(tiny_config());
        let e0 = store.epoch();
        store
            .put_identity_cert(&identity("U1", "CA_D1", 1))
            .expect("put");
        let e1 = store.epoch();
        assert!(e1 > e0);
        store.snapshot_compact().expect("compact");
        assert!(store.epoch() > e1);
    }
}
