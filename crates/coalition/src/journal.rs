//! Write-ahead journal for the coalition server's belief-changing events.
//!
//! Durability model: every event that changes what the server *believes* or
//! how it *decides* — certificate/CRL/revocation admission, ACL and object
//! mutation, clock advance, configuration change, decision bookkeeping — is
//! encoded as a [`JournalRecord`] and appended to a [`jaap_wal::Journal`]
//! **before** the event takes effect in memory. After a crash,
//! [`crate::server::CoalitionServer::recover`] replays the log and rebuilds
//! a server whose every subsequent decision is identical to one that never
//! crashed.
//!
//! Records are encoded with the same canonical TLV scheme certificates are
//! signed over ([`jaap_pki::encoding`]): a record is
//! `domain || tag(u64) || fields…`, and whole certificates travel with
//! their signatures so recovery re-verifies them instead of trusting the
//! log. The framing layer beneath ([`jaap_wal::frame`]) adds per-record
//! checksums, so a torn or bit-flipped tail is detected and truncated —
//! never replayed.
//!
//! Two record kinds exist only in snapshots ([`JournalRecord::ObjectState`],
//! [`JournalRecord::ReplaySeen`]): a snapshot rewrite compacts the decision
//! history into final object states plus audit/replay rows, while
//! *admission-class* records (certificates, revocations, CRLs) are retained
//! verbatim with their original clock interleaving — beliefs cannot be
//! serialized (their proofs hold interned terms), so they are always
//! re-derived from the original signed artifacts.

use jaap_core::certs::Validity;
use jaap_core::protocol::{Acl, Operation};
use jaap_core::syntax::{GroupId, Time};
use jaap_crypto::rsa::{RsaPublicKey, RsaSignature};
use jaap_pki::attribute::{
    AttributeCertificate, AttributeRevocation, ThresholdAttributeCertificate, ThresholdSubject,
};
use jaap_pki::encoding::{Decoder, Encoder};
use jaap_pki::{Crl, CrlEntry, IdentityCertificate, IdentityRevocation};
use jaap_wal::{Journal, JournalStats, JournalStore};

use crate::CoalitionError;

/// Domain-separation label for journal records.
const DOMAIN: &str = "jaap-journal-record-v1";

/// Which server configuration knob a [`JournalRecord::Config`] sets.
///
/// Values are encoded as `i64`: booleans as 0/1, `None` capacities as -1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigKind {
    /// [`crate::server::CoalitionServer::set_logic_checking`].
    LogicChecking,
    /// [`crate::server::CoalitionServer::set_replay_protection`].
    ReplayProtection,
    /// [`crate::server::CapacityConfig::replay`].
    ReplayCapacity,
    /// [`crate::server::CapacityConfig::audit`].
    AuditCapacity,
    /// [`crate::server::CoalitionServer::set_verification_cache`].
    VerifyCache,
    /// [`crate::server::CoalitionServer::set_derivation_memo`].
    DerivationMemo,
    /// [`crate::server::CoalitionServer::set_revocation_recency`].
    RecencyWindow,
    /// [`crate::server::CapacityConfig::derivation_memo`].
    DerivationMemoCapacity,
    /// [`crate::server::CoalitionServer::set_crypto_precomp`].
    CryptoPrecomp,
    /// [`crate::server::CoalitionServer::set_batch_verify`].
    BatchVerify,
    /// [`crate::server::CapacityConfig::verify_cache`].
    VerifyCacheCapacity,
}

impl ConfigKind {
    fn code(self) -> u64 {
        match self {
            ConfigKind::LogicChecking => 1,
            ConfigKind::ReplayProtection => 2,
            ConfigKind::ReplayCapacity => 3,
            ConfigKind::AuditCapacity => 4,
            ConfigKind::VerifyCache => 5,
            ConfigKind::DerivationMemo => 6,
            ConfigKind::RecencyWindow => 7,
            ConfigKind::DerivationMemoCapacity => 8,
            ConfigKind::CryptoPrecomp => 9,
            ConfigKind::BatchVerify => 10,
            ConfigKind::VerifyCacheCapacity => 11,
        }
    }

    fn from_code(code: u64) -> Result<Self, CoalitionError> {
        Ok(match code {
            1 => ConfigKind::LogicChecking,
            2 => ConfigKind::ReplayProtection,
            3 => ConfigKind::ReplayCapacity,
            4 => ConfigKind::AuditCapacity,
            5 => ConfigKind::VerifyCache,
            6 => ConfigKind::DerivationMemo,
            7 => ConfigKind::RecencyWindow,
            8 => ConfigKind::DerivationMemoCapacity,
            9 => ConfigKind::CryptoPrecomp,
            10 => ConfigKind::BatchVerify,
            11 => ConfigKind::VerifyCacheCapacity,
            other => {
                return Err(CoalitionError::Journal(format!(
                    "unknown config kind {other}"
                )))
            }
        })
    }
}

/// The durable form of one audit-log line plus its side effects: whether
/// the decision bumped an object version and, with replay protection on,
/// which request digest it answered. Replaying a `Decision` record
/// reconstructs the audit entry, the version counter, and the replay
/// window without re-running any cryptography or logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionRecord {
    /// Server time of the decision.
    pub at: Time,
    /// The signers named in the request.
    pub principals: Vec<String>,
    /// The operation decided.
    pub operation: Operation,
    /// Whether access was granted.
    pub granted: bool,
    /// Denial detail (empty when granted).
    pub detail: String,
    /// Signature checks served from the verification cache.
    pub cached_checks: usize,
    /// Signing-session retry trace, when the decision followed a degraded
    /// networked signing attempt.
    pub retry_trace: Option<String>,
    /// Axiom applications spent.
    pub axioms: usize,
    /// RSA signature verifications actually performed.
    pub signature_checks: usize,
    /// True for an unavailability denial (quorum could not assemble).
    pub unavailable: bool,
    /// True when the decision incremented the object's write version.
    pub version_bump: bool,
    /// The request digest remembered by replay protection, if any.
    pub replay_digest: Option<String>,
}

/// A compacted replay-window entry: the fields of a remembered
/// [`crate::server::ServerDecision`] that survive a snapshot (derivations
/// and encrypted responses do not — a replayed hit after recovery carries
/// the same verdict and counters, minus the proof object).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayRecord {
    /// The request digest.
    pub digest: String,
    /// Whether access was granted.
    pub granted: bool,
    /// Denial detail when refused.
    pub detail: Option<String>,
    /// Axiom applications spent.
    pub axioms: usize,
    /// RSA signature verifications performed.
    pub signature_checks: usize,
    /// Checks served from the verification cache.
    pub cached_signature_checks: usize,
    /// True for an unavailability denial.
    pub unavailable: bool,
}

/// One belief-changing event, in its durable form.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// The server clock moved forward.
    ClockAdvance(Time),
    /// A configuration knob changed.
    Config(ConfigKind, i64),
    /// An object was registered with its initial ACL.
    ObjectAdded {
        /// Object name.
        name: String,
        /// Initial ACL.
        acl: Acl,
    },
    /// An object's ACL was replaced.
    AclSet {
        /// Object name.
        name: String,
        /// The new ACL.
        acl: Acl,
    },
    /// An object's contents were replaced.
    ContentSet {
        /// Object name.
        name: String,
        /// The new contents.
        content: Vec<u8>,
    },
    /// An identity revocation was admitted.
    IdentityRevocation(IdentityRevocation),
    /// An attribute revocation was admitted.
    AttributeRevocation(AttributeRevocation),
    /// A CRL was admitted.
    Crl(Crl),
    /// A request's certificates changed the belief state (first admission
    /// of at least one certificate body). The raw signed certificates are
    /// stored so recovery re-verifies and re-admits them in the original
    /// order.
    RequestCerts {
        /// Identity certificates, request order.
        identity: Vec<IdentityCertificate>,
        /// Threshold attribute certificates, request order.
        threshold: Vec<ThresholdAttributeCertificate>,
        /// Single-subject attribute certificates, request order.
        attribute: Vec<AttributeCertificate>,
    },
    /// A decision was reached (audit entry + version bump + replay window).
    Decision(DecisionRecord),
    /// Snapshot only: an object's full current state.
    ObjectState {
        /// Object name.
        name: String,
        /// Current ACL.
        acl: Acl,
        /// Current write version.
        version: u64,
        /// Current contents.
        content: Vec<u8>,
    },
    /// Snapshot only: a remembered replay-window decision.
    ReplaySeen(ReplayRecord),
}

impl JournalRecord {
    /// True for records that re-admit signed artifacts into the belief
    /// engine on replay; snapshots retain these verbatim (beliefs cannot
    /// be serialized, only re-derived).
    #[must_use]
    pub fn is_admission(&self) -> bool {
        matches!(
            self,
            JournalRecord::IdentityRevocation(_)
                | JournalRecord::AttributeRevocation(_)
                | JournalRecord::Crl(_)
                | JournalRecord::RequestCerts { .. }
        )
    }

    fn tag(&self) -> u64 {
        match self {
            JournalRecord::ClockAdvance(_) => 1,
            JournalRecord::Config(..) => 2,
            JournalRecord::ObjectAdded { .. } => 3,
            JournalRecord::AclSet { .. } => 4,
            JournalRecord::ContentSet { .. } => 5,
            JournalRecord::IdentityRevocation(_) => 6,
            JournalRecord::AttributeRevocation(_) => 7,
            JournalRecord::Crl(_) => 8,
            JournalRecord::RequestCerts { .. } => 9,
            JournalRecord::Decision(_) => 10,
            JournalRecord::ObjectState { .. } => 11,
            JournalRecord::ReplaySeen(_) => 12,
        }
    }

    /// Canonical bytes for this record.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new(DOMAIN);
        e.put_u64(self.tag());
        match self {
            JournalRecord::ClockAdvance(t) => {
                e.put_i64(t.0);
            }
            JournalRecord::Config(kind, value) => {
                e.put_u64(kind.code());
                e.put_i64(*value);
            }
            JournalRecord::ObjectAdded { name, acl } | JournalRecord::AclSet { name, acl } => {
                e.put_str(name);
                put_acl(&mut e, acl);
            }
            JournalRecord::ContentSet { name, content } => {
                e.put_str(name);
                e.put_bytes(content);
            }
            JournalRecord::IdentityRevocation(rev) => {
                e.put_str(&rev.issuer);
                e.put_str(&rev.subject);
                put_key(&mut e, &rev.subject_key);
                e.put_i64(rev.revoked_from.0);
                e.put_i64(rev.timestamp.0);
                put_sig(&mut e, &rev.signature);
            }
            JournalRecord::AttributeRevocation(rev) => {
                e.put_str(&rev.issuer);
                put_subject(&mut e, &rev.subject);
                e.put_str(rev.group.as_str());
                e.put_i64(rev.revoked_from.0);
                e.put_i64(rev.timestamp.0);
                put_sig(&mut e, &rev.signature);
            }
            JournalRecord::Crl(crl) => {
                e.put_str(&crl.issuer);
                e.put_u64(crl.sequence);
                e.put_i64(crl.timestamp.0);
                e.put_list(crl.entries.len());
                for entry in &crl.entries {
                    put_subject(&mut e, &entry.subject);
                    e.put_str(entry.group.as_str());
                    e.put_i64(entry.revoked_from.0);
                }
                put_sig(&mut e, &crl.signature);
            }
            JournalRecord::RequestCerts {
                identity,
                threshold,
                attribute,
            } => {
                e.put_list(identity.len());
                for cert in identity {
                    put_identity_cert(&mut e, cert);
                }
                e.put_list(threshold.len());
                for cert in threshold {
                    put_threshold_cert(&mut e, cert);
                }
                e.put_list(attribute.len());
                for cert in attribute {
                    put_attribute_cert(&mut e, cert);
                }
            }
            JournalRecord::Decision(d) => {
                e.put_i64(d.at.0);
                e.put_list(d.principals.len());
                for p in &d.principals {
                    e.put_str(p);
                }
                e.put_str(&d.operation.action);
                e.put_str(&d.operation.object);
                e.put_u64(u64::from(d.granted));
                e.put_str(&d.detail);
                e.put_u64(d.cached_checks as u64);
                put_opt_str(&mut e, d.retry_trace.as_deref());
                e.put_u64(d.axioms as u64);
                e.put_u64(d.signature_checks as u64);
                e.put_u64(u64::from(d.unavailable));
                e.put_u64(u64::from(d.version_bump));
                put_opt_str(&mut e, d.replay_digest.as_deref());
            }
            JournalRecord::ObjectState {
                name,
                acl,
                version,
                content,
            } => {
                e.put_str(name);
                put_acl(&mut e, acl);
                e.put_u64(*version);
                e.put_bytes(content);
            }
            JournalRecord::ReplaySeen(r) => {
                e.put_str(&r.digest);
                e.put_u64(u64::from(r.granted));
                put_opt_str(&mut e, r.detail.as_deref());
                e.put_u64(r.axioms as u64);
                e.put_u64(r.signature_checks as u64);
                e.put_u64(r.cached_signature_checks as u64);
                e.put_u64(u64::from(r.unavailable));
            }
        }
        e.finish()
    }

    /// Decodes a record from its canonical bytes.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::Journal`] for any malformed or unknown record —
    /// recovery treats this as corruption, not as something to skip.
    pub fn decode(bytes: &[u8]) -> Result<Self, CoalitionError> {
        let mut d = Decoder::new(bytes, DOMAIN).map_err(journal_err)?;
        let tag = d.take_u64().map_err(journal_err)?;
        let record = match tag {
            1 => JournalRecord::ClockAdvance(take_time(&mut d)?),
            2 => {
                let kind = ConfigKind::from_code(d.take_u64().map_err(journal_err)?)?;
                let value = d.take_i64().map_err(journal_err)?;
                JournalRecord::Config(kind, value)
            }
            3 | 4 => {
                let name = d.take_str().map_err(journal_err)?;
                let acl = take_acl(&mut d)?;
                if tag == 3 {
                    JournalRecord::ObjectAdded { name, acl }
                } else {
                    JournalRecord::AclSet { name, acl }
                }
            }
            5 => JournalRecord::ContentSet {
                name: d.take_str().map_err(journal_err)?,
                content: d.take_bytes().map_err(journal_err)?,
            },
            6 => JournalRecord::IdentityRevocation(IdentityRevocation {
                issuer: d.take_str().map_err(journal_err)?,
                subject: d.take_str().map_err(journal_err)?,
                subject_key: take_key(&mut d)?,
                revoked_from: take_time(&mut d)?,
                timestamp: take_time(&mut d)?,
                signature: take_sig(&mut d)?,
            }),
            7 => JournalRecord::AttributeRevocation(AttributeRevocation {
                issuer: d.take_str().map_err(journal_err)?,
                subject: take_subject(&mut d)?,
                group: GroupId::new(&d.take_str().map_err(journal_err)?),
                revoked_from: take_time(&mut d)?,
                timestamp: take_time(&mut d)?,
                signature: take_sig(&mut d)?,
            }),
            8 => {
                let issuer = d.take_str().map_err(journal_err)?;
                let sequence = d.take_u64().map_err(journal_err)?;
                let timestamp = take_time(&mut d)?;
                let count = d.take_list().map_err(journal_err)?;
                let mut entries = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    entries.push(CrlEntry {
                        subject: take_subject(&mut d)?,
                        group: GroupId::new(&d.take_str().map_err(journal_err)?),
                        revoked_from: take_time(&mut d)?,
                    });
                }
                JournalRecord::Crl(Crl {
                    issuer,
                    sequence,
                    timestamp,
                    entries,
                    signature: take_sig(&mut d)?,
                })
            }
            9 => {
                let n = d.take_list().map_err(journal_err)?;
                let mut identity = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    identity.push(take_identity_cert(&mut d)?);
                }
                let n = d.take_list().map_err(journal_err)?;
                let mut threshold = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    threshold.push(take_threshold_cert(&mut d)?);
                }
                let n = d.take_list().map_err(journal_err)?;
                let mut attribute = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    attribute.push(take_attribute_cert(&mut d)?);
                }
                JournalRecord::RequestCerts {
                    identity,
                    threshold,
                    attribute,
                }
            }
            10 => {
                let at = take_time(&mut d)?;
                let count = d.take_list().map_err(journal_err)?;
                let mut principals = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    principals.push(d.take_str().map_err(journal_err)?);
                }
                let action = d.take_str().map_err(journal_err)?;
                let object = d.take_str().map_err(journal_err)?;
                JournalRecord::Decision(DecisionRecord {
                    at,
                    principals,
                    operation: Operation::new(action, object),
                    granted: take_bool(&mut d)?,
                    detail: d.take_str().map_err(journal_err)?,
                    cached_checks: take_usize(&mut d)?,
                    retry_trace: take_opt_str(&mut d)?,
                    axioms: take_usize(&mut d)?,
                    signature_checks: take_usize(&mut d)?,
                    unavailable: take_bool(&mut d)?,
                    version_bump: take_bool(&mut d)?,
                    replay_digest: take_opt_str(&mut d)?,
                })
            }
            11 => JournalRecord::ObjectState {
                name: d.take_str().map_err(journal_err)?,
                acl: take_acl(&mut d)?,
                version: d.take_u64().map_err(journal_err)?,
                content: d.take_bytes().map_err(journal_err)?,
            },
            12 => JournalRecord::ReplaySeen(ReplayRecord {
                digest: d.take_str().map_err(journal_err)?,
                granted: take_bool(&mut d)?,
                detail: take_opt_str(&mut d)?,
                axioms: take_usize(&mut d)?,
                signature_checks: take_usize(&mut d)?,
                cached_signature_checks: take_usize(&mut d)?,
                unavailable: take_bool(&mut d)?,
            }),
            other => {
                return Err(CoalitionError::Journal(format!(
                    "unknown record tag {other}"
                )))
            }
        };
        if !d.is_empty() {
            return Err(CoalitionError::Journal(
                "trailing bytes after record".into(),
            ));
        }
        Ok(record)
    }
}

fn journal_err(e: jaap_pki::PkiError) -> CoalitionError {
    CoalitionError::Journal(format!("undecodable record: {e}"))
}

fn put_key(e: &mut Encoder, key: &RsaPublicKey) {
    e.put_bytes(&key.modulus().to_bytes_be());
    e.put_bytes(&key.exponent().to_bytes_be());
}

fn take_key(d: &mut Decoder<'_>) -> Result<RsaPublicKey, CoalitionError> {
    let n = jaap_bigint::Nat::from_bytes_be(&d.take_bytes().map_err(journal_err)?);
    let exp = jaap_bigint::Nat::from_bytes_be(&d.take_bytes().map_err(journal_err)?);
    Ok(RsaPublicKey::new(n, exp))
}

fn put_sig(e: &mut Encoder, sig: &RsaSignature) {
    e.put_bytes(&sig.value().to_bytes_be());
}

fn take_sig(d: &mut Decoder<'_>) -> Result<RsaSignature, CoalitionError> {
    Ok(RsaSignature::from_value(jaap_bigint::Nat::from_bytes_be(
        &d.take_bytes().map_err(journal_err)?,
    )))
}

fn put_validity(e: &mut Encoder, v: &Validity) {
    e.put_i64(v.begin.0);
    e.put_i64(v.end.0);
}

fn take_validity(d: &mut Decoder<'_>) -> Result<Validity, CoalitionError> {
    let begin = take_time(d)?;
    let end = take_time(d)?;
    if begin > end {
        return Err(CoalitionError::Journal(format!(
            "inverted validity window [{begin:?}, {end:?}]"
        )));
    }
    Ok(Validity { begin, end })
}

fn take_time(d: &mut Decoder<'_>) -> Result<Time, CoalitionError> {
    Ok(Time(d.take_i64().map_err(journal_err)?))
}

fn take_bool(d: &mut Decoder<'_>) -> Result<bool, CoalitionError> {
    Ok(d.take_u64().map_err(journal_err)? != 0)
}

fn take_usize(d: &mut Decoder<'_>) -> Result<usize, CoalitionError> {
    usize::try_from(d.take_u64().map_err(journal_err)?)
        .map_err(|_| CoalitionError::Journal("count overflows usize".into()))
}

fn put_opt_str(e: &mut Encoder, s: Option<&str>) {
    match s {
        Some(s) => {
            e.put_u64(1);
            e.put_str(s);
        }
        None => {
            e.put_u64(0);
        }
    }
}

fn take_opt_str(d: &mut Decoder<'_>) -> Result<Option<String>, CoalitionError> {
    if take_bool(d)? {
        Ok(Some(d.take_str().map_err(journal_err)?))
    } else {
        Ok(None)
    }
}

fn put_subject(e: &mut Encoder, subject: &ThresholdSubject) {
    e.put_u64(subject.m as u64);
    e.put_list(subject.members.len());
    for (name, key) in &subject.members {
        e.put_str(name);
        put_key(e, key);
    }
}

fn take_subject(d: &mut Decoder<'_>) -> Result<ThresholdSubject, CoalitionError> {
    let m = take_usize(d)?;
    let count = d.take_list().map_err(journal_err)?;
    let mut members = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let name = d.take_str().map_err(journal_err)?;
        members.push((name, take_key(d)?));
    }
    ThresholdSubject::new(members, m)
        .map_err(|e| CoalitionError::Journal(format!("undecodable subject: {e}")))
}

fn put_acl(e: &mut Encoder, acl: &Acl) {
    e.put_list(acl.entries().len());
    for entry in acl.entries() {
        e.put_str(entry.group.as_str());
        e.put_str(&entry.action);
    }
}

fn take_acl(d: &mut Decoder<'_>) -> Result<Acl, CoalitionError> {
    let count = d.take_list().map_err(journal_err)?;
    let mut acl = Acl::new();
    for _ in 0..count {
        let group = GroupId::new(&d.take_str().map_err(journal_err)?);
        let action = d.take_str().map_err(journal_err)?;
        acl.permit(group, action);
    }
    Ok(acl)
}

fn put_identity_cert(e: &mut Encoder, cert: &IdentityCertificate) {
    e.put_str(&cert.issuer);
    e.put_str(&cert.subject);
    put_key(e, &cert.subject_key);
    put_validity(e, &cert.validity);
    e.put_i64(cert.timestamp.0);
    put_sig(e, &cert.signature);
}

fn take_identity_cert(d: &mut Decoder<'_>) -> Result<IdentityCertificate, CoalitionError> {
    Ok(IdentityCertificate {
        issuer: d.take_str().map_err(journal_err)?,
        subject: d.take_str().map_err(journal_err)?,
        subject_key: take_key(d)?,
        validity: take_validity(d)?,
        timestamp: take_time(d)?,
        signature: take_sig(d)?,
    })
}

fn put_threshold_cert(e: &mut Encoder, cert: &ThresholdAttributeCertificate) {
    e.put_str(&cert.issuer);
    put_subject(e, &cert.subject);
    e.put_str(cert.group.as_str());
    put_validity(e, &cert.validity);
    e.put_i64(cert.timestamp.0);
    put_sig(e, &cert.signature);
}

fn take_threshold_cert(
    d: &mut Decoder<'_>,
) -> Result<ThresholdAttributeCertificate, CoalitionError> {
    Ok(ThresholdAttributeCertificate {
        issuer: d.take_str().map_err(journal_err)?,
        subject: take_subject(d)?,
        group: GroupId::new(&d.take_str().map_err(journal_err)?),
        validity: take_validity(d)?,
        timestamp: take_time(d)?,
        signature: take_sig(d)?,
    })
}

fn put_attribute_cert(e: &mut Encoder, cert: &AttributeCertificate) {
    e.put_str(&cert.issuer);
    e.put_str(&cert.subject);
    put_key(e, &cert.subject_key);
    e.put_str(cert.group.as_str());
    put_validity(e, &cert.validity);
    e.put_i64(cert.timestamp.0);
    put_sig(e, &cert.signature);
}

fn take_attribute_cert(d: &mut Decoder<'_>) -> Result<AttributeCertificate, CoalitionError> {
    Ok(AttributeCertificate {
        issuer: d.take_str().map_err(journal_err)?,
        subject: d.take_str().map_err(journal_err)?,
        subject_key: take_key(d)?,
        group: GroupId::new(&d.take_str().map_err(journal_err)?),
        validity: take_validity(d)?,
        timestamp: take_time(d)?,
        signature: take_sig(d)?,
    })
}

/// The server's write-ahead journal: a [`jaap_wal::Journal`] plus the
/// retained admission-class records a snapshot must re-emit (with their
/// original admission times, so recovery replays every belief derivation
/// at the clock it originally ran under).
#[derive(Debug)]
pub struct ServerJournal {
    wal: Journal,
    /// Admission-class records in append order, each with the server time
    /// at which it was admitted.
    admissions: Vec<(Time, JournalRecord)>,
}

impl ServerJournal {
    /// Wraps a store.
    #[must_use]
    pub fn new(store: Box<dyn JournalStore>) -> Self {
        ServerJournal {
            wal: Journal::new(store),
            admissions: Vec::new(),
        }
    }

    /// Encodes and appends one record; admission-class records are also
    /// retained for the next snapshot. Returns the framed length in bytes.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::Journal`] if the store fails.
    pub fn append(&mut self, at: Time, record: &JournalRecord) -> Result<usize, CoalitionError> {
        let len = self.wal.append(&record.encode())?;
        if record.is_admission() {
            self.admissions.push((at, record.clone()));
        }
        Ok(len)
    }

    /// Replaces the log with a snapshot (`records`, already in replay
    /// order). The retained admissions are preserved — they are part of
    /// every snapshot.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::Journal`] if the store fails.
    pub fn rewrite(&mut self, records: &[JournalRecord]) -> Result<(), CoalitionError> {
        let payloads: Vec<Vec<u8>> = records.iter().map(JournalRecord::encode).collect();
        self.wal.rewrite(&payloads)?;
        Ok(())
    }

    /// Reads back and decodes the whole log, physically truncating any
    /// torn/corrupt tail. Returns the decoded records plus the replay
    /// report from the framing layer.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::Journal`] if the store fails or a *checksummed*
    /// record fails to decode (real corruption the frame checksum missed,
    /// or a version mismatch — never silently skipped).
    pub fn replay(&mut self) -> Result<(Vec<JournalRecord>, jaap_wal::Replay), CoalitionError> {
        let replay = self.wal.replay()?;
        let mut records = Vec::with_capacity(replay.records.len());
        for payload in &replay.records {
            records.push(JournalRecord::decode(payload)?);
        }
        Ok((records, replay))
    }

    /// Adopts `admissions` as the retained admission set (used by
    /// recovery, which rebuilds it from the replayed log).
    pub fn set_admissions(&mut self, admissions: Vec<(Time, JournalRecord)>) {
        self.admissions = admissions;
    }

    /// The retained admission-class records with their admission times.
    #[must_use]
    pub fn admissions(&self) -> &[(Time, JournalRecord)] {
        &self.admissions
    }

    /// Sets the primary term stamped into every frame written from now
    /// on (replication provenance; fencing itself acts on message terms).
    pub fn set_term(&mut self, term: u64) {
        self.wal.set_term(term);
    }

    /// The term currently stamped into new frames.
    #[must_use]
    pub fn term(&self) -> u64 {
        self.wal.term()
    }

    /// Framing-layer activity counters.
    #[must_use]
    pub fn stats(&self) -> JournalStats {
        self.wal.stats()
    }

    /// Current log length in bytes.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::Journal`] if the store fails.
    pub fn len_bytes(&self) -> Result<u64, CoalitionError> {
        Ok(self.wal.store_len()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaap_bigint::Nat;
    use jaap_wal::MemStore;

    fn key(n: u64) -> RsaPublicKey {
        RsaPublicKey::new(Nat::from(n), Nat::from(65537u64))
    }

    fn sig(v: u64) -> RsaSignature {
        RsaSignature::from_value(Nat::from(v))
    }

    fn subject() -> ThresholdSubject {
        ThresholdSubject::new(vec![("U1".into(), key(77)), ("U2".into(), key(91))], 2)
            .expect("subject")
    }

    fn sample_records() -> Vec<JournalRecord> {
        let mut acl = Acl::new();
        acl.permit(GroupId::new("CG"), "write");
        acl.permit(GroupId::new("CG"), "read");
        vec![
            JournalRecord::ClockAdvance(Time(42)),
            JournalRecord::Config(ConfigKind::ReplayCapacity, 128),
            JournalRecord::Config(ConfigKind::DerivationMemoCapacity, -1),
            JournalRecord::Config(ConfigKind::CryptoPrecomp, 1),
            JournalRecord::Config(ConfigKind::BatchVerify, 1),
            JournalRecord::ObjectAdded {
                name: "Object O".into(),
                acl: acl.clone(),
            },
            JournalRecord::AclSet {
                name: "Object O".into(),
                acl: acl.clone(),
            },
            JournalRecord::ContentSet {
                name: "Object O".into(),
                content: vec![1, 2, 3],
            },
            JournalRecord::IdentityRevocation(IdentityRevocation {
                issuer: "CA1".into(),
                subject: "U1".into(),
                subject_key: key(77),
                revoked_from: Time(30),
                timestamp: Time(31),
                signature: sig(5),
            }),
            JournalRecord::AttributeRevocation(AttributeRevocation {
                issuer: "RA".into(),
                subject: subject(),
                group: GroupId::new("CG"),
                revoked_from: Time(33),
                timestamp: Time(34),
                signature: sig(6),
            }),
            JournalRecord::Crl(Crl {
                issuer: "RA".into(),
                sequence: 9,
                timestamp: Time(35),
                entries: vec![CrlEntry {
                    subject: subject(),
                    group: GroupId::new("CG"),
                    revoked_from: Time(36),
                }],
                signature: sig(7),
            }),
            JournalRecord::RequestCerts {
                identity: vec![IdentityCertificate {
                    issuer: "CA1".into(),
                    subject: "U1".into(),
                    subject_key: key(77),
                    validity: Validity {
                        begin: Time(0),
                        end: Time(100),
                    },
                    timestamp: Time(5),
                    signature: sig(8),
                }],
                threshold: vec![ThresholdAttributeCertificate {
                    issuer: "AA".into(),
                    subject: subject(),
                    group: GroupId::new("CG"),
                    validity: Validity {
                        begin: Time(0),
                        end: Time(100),
                    },
                    timestamp: Time(6),
                    signature: sig(9),
                }],
                attribute: vec![AttributeCertificate {
                    issuer: "AA".into(),
                    subject: "U2".into(),
                    subject_key: key(91),
                    group: GroupId::new("CG"),
                    validity: Validity {
                        begin: Time(0),
                        end: Time(100),
                    },
                    timestamp: Time(7),
                    signature: sig(10),
                }],
            },
            JournalRecord::Decision(DecisionRecord {
                at: Time(50),
                principals: vec!["U1".into(), "U2".into()],
                operation: Operation::new("write", "Object O"),
                granted: true,
                detail: String::new(),
                cached_checks: 2,
                retry_trace: Some("timeout@1".into()),
                axioms: 17,
                signature_checks: 5,
                unavailable: false,
                version_bump: true,
                replay_digest: Some("abc123".into()),
            }),
            JournalRecord::ObjectState {
                name: "Object O".into(),
                acl,
                version: 4,
                content: vec![9, 9],
            },
            JournalRecord::ReplaySeen(ReplayRecord {
                digest: "abc123".into(),
                granted: false,
                detail: Some("denied".into()),
                axioms: 0,
                signature_checks: 3,
                cached_signature_checks: 1,
                unavailable: true,
            }),
        ]
    }

    #[test]
    fn every_record_kind_roundtrips() {
        for record in sample_records() {
            let bytes = record.encode();
            let back = JournalRecord::decode(&bytes).expect("decode");
            assert_eq!(back, record);
        }
    }

    #[test]
    fn corrupt_bytes_are_rejected_not_skipped() {
        let bytes = sample_records()[0].encode();
        for cut in 0..bytes.len() {
            assert!(
                JournalRecord::decode(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        let mut flipped = bytes.clone();
        flipped[0] ^= 0xFF;
        assert!(JournalRecord::decode(&flipped).is_err());
    }

    #[test]
    fn server_journal_retains_admissions_across_appends() {
        let mut j = ServerJournal::new(Box::new(MemStore::new()));
        let records = sample_records();
        for (i, record) in records.iter().enumerate() {
            j.append(Time(i as i64), record).expect("append");
        }
        let admitted: Vec<&JournalRecord> = j.admissions().iter().map(|(_, r)| r).collect();
        assert_eq!(admitted.len(), 4, "revocation, attr-rev, CRL, certs");
        assert!(admitted.iter().all(|r| r.is_admission()));
    }

    #[test]
    fn server_journal_replay_decodes_everything() {
        let store = MemStore::new();
        let records = sample_records();
        {
            let mut j = ServerJournal::new(Box::new(store.clone()));
            for record in &records {
                j.append(Time(0), record).expect("append");
            }
        }
        let mut j = ServerJournal::new(Box::new(store));
        let (decoded, replay) = j.replay().expect("replay");
        assert_eq!(decoded, records);
        assert!(replay.truncation.is_none());
    }
}
