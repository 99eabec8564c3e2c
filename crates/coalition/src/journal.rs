//! Write-ahead journal for the coalition server's belief-changing events.
//!
//! Durability model: every event that changes what the server *believes* or
//! how it *decides* — certificate/CRL/revocation admission, ACL and object
//! mutation, clock advance, configuration change, decision bookkeeping — is
//! encoded as a `JournalRecord` and appended to a [`jaap_wal::Journal`]
//! **before** the event takes effect in memory. After a crash,
//! [`crate::server::CoalitionServer::recover`] replays the log and rebuilds
//! a server whose every subsequent decision is identical to one that never
//! crashed.
//!
//! Records are encoded with the same canonical TLV scheme certificates are
//! signed over ([`jaap_pki::encoding`]): a record is
//! `domain || tag(u64) || fields…`, and whole certificates travel with
//! their signatures so recovery re-verifies them instead of trusting the
//! log. This module owns only the container: its domain string, the
//! record tags and the fields of records that are not signed artifacts.
//! Certificates, revocations, CRLs and ACLs are written and read by the
//! artifact codec in [`jaap_pki::encoding`], the one the cert store uses
//! too. The framing layer beneath ([`jaap_wal::frame`]) adds per-record
//! checksums, so a torn or bit-flipped tail is detected and truncated —
//! never replayed.
//!
//! Two record kinds exist only in snapshots (`JournalRecord::ObjectState`,
//! `JournalRecord::ReplaySeen`): a snapshot rewrite compacts the decision
//! history into final object states plus audit/replay rows, while
//! *admission-class* records (certificates, revocations, CRLs) are retained
//! verbatim with their original clock interleaving — beliefs are never
//! serialized (each one's proof rests on signatures the recovered server
//! must check again), so they are always re-derived from the original
//! signed artifacts.

use jaap_core::protocol::{Acl, Operation};
use jaap_core::syntax::Time;
use jaap_pki::encoding::{Decoder, Encoder};
use jaap_pki::{
    AttributeCertificate, AttributeRevocation, Crl, IdentityCertificate, IdentityRevocation,
    PkiError, ThresholdAttributeCertificate,
};
use jaap_wal::{Journal, JournalStats, JournalStore};

use crate::CoalitionError;

/// Domain-separation label for journal records.
const DOMAIN: &str = "jaap-journal-record-v1";

/// Which server configuration knob a [`JournalRecord::Config`] sets.
///
/// Values are encoded as `i64`: booleans as 0/1, `None` capacities as -1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConfigKind {
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

    fn from_code(code: u64) -> Option<Self> {
        Some(match code {
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
            _ => return None,
        })
    }
}

/// The durable form of one audit-log line plus its side effects: whether
/// the decision bumped an object version and, with replay protection on,
/// which request digest it answered. Replaying a `Decision` record
/// reconstructs the audit entry, the version counter, and the replay
/// window without re-running any cryptography or logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DecisionRecord {
    /// Server time of the decision.
    pub(crate) at: Time,
    /// The signers named in the request.
    pub(crate) principals: Vec<String>,
    /// The operation decided.
    pub(crate) operation: Operation,
    /// Whether access was granted.
    pub(crate) granted: bool,
    /// Denial detail (empty when granted).
    pub(crate) detail: String,
    /// Signature checks served from the verification cache.
    pub(crate) cached_checks: usize,
    /// Signing-session retry trace, when the decision followed a degraded
    /// networked signing attempt.
    pub(crate) retry_trace: Option<String>,
    /// Axiom applications spent.
    pub(crate) axioms: usize,
    /// RSA signature verifications actually performed.
    pub(crate) signature_checks: usize,
    /// True for an unavailability denial (quorum could not assemble).
    pub(crate) unavailable: bool,
    /// True when the decision incremented the object's write version.
    pub(crate) version_bump: bool,
    /// The request digest remembered by replay protection, if any.
    pub(crate) replay_digest: Option<String>,
}

/// A compacted replay-window entry: the fields of a remembered
/// [`crate::server::ServerDecision`] that survive a snapshot (derivations
/// and encrypted responses do not — a replayed hit after recovery carries
/// the same verdict and counters, minus the proof object).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ReplayRecord {
    /// The request digest.
    pub(crate) digest: String,
    /// Whether access was granted.
    pub(crate) granted: bool,
    /// Denial detail when refused.
    pub(crate) detail: Option<String>,
    /// Axiom applications spent.
    pub(crate) axioms: usize,
    /// RSA signature verifications performed.
    pub(crate) signature_checks: usize,
    /// Checks served from the verification cache.
    pub(crate) cached_signature_checks: usize,
    /// True for an unavailability denial.
    pub(crate) unavailable: bool,
}

/// One belief-changing event, in its durable form.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum JournalRecord {
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
    pub(crate) fn is_admission(&self) -> bool {
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
    pub(crate) fn encode(&self) -> Vec<u8> {
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
                e.put_acl(acl);
            }
            JournalRecord::ContentSet { name, content } => {
                e.put_str(name);
                e.put_bytes(content);
            }
            JournalRecord::IdentityRevocation(rev) => {
                e.put_identity_revocation(rev);
            }
            JournalRecord::AttributeRevocation(rev) => {
                e.put_attribute_revocation(rev);
            }
            JournalRecord::Crl(crl) => {
                e.put_crl(crl);
            }
            JournalRecord::RequestCerts {
                identity,
                threshold,
                attribute,
            } => {
                e.put_list(identity.len());
                for cert in identity {
                    e.put_identity_cert(cert);
                }
                e.put_list(threshold.len());
                for cert in threshold {
                    e.put_threshold_cert(cert);
                }
                e.put_list(attribute.len());
                for cert in attribute {
                    e.put_attribute_cert(cert);
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
                e.put_acl(acl);
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
    pub(crate) fn decode(bytes: &[u8]) -> Result<Self, CoalitionError> {
        Self::decode_fields(bytes)
            .map_err(|e| CoalitionError::Journal(format!("undecodable record: {e}")))
    }

    fn decode_fields(bytes: &[u8]) -> Result<Self, PkiError> {
        let mut d = Decoder::new(bytes, DOMAIN)?;
        let tag = d.take_u64()?;
        let record = match tag {
            1 => JournalRecord::ClockAdvance(Time(d.take_i64()?)),
            2 => {
                let code = d.take_u64()?;
                let kind = ConfigKind::from_code(code)
                    .ok_or_else(|| PkiError::Malformed(format!("unknown config kind {code}")))?;
                JournalRecord::Config(kind, d.take_i64()?)
            }
            3 | 4 => {
                let name = d.take_str()?.to_owned();
                let acl = d.take_acl()?;
                if tag == 3 {
                    JournalRecord::ObjectAdded { name, acl }
                } else {
                    JournalRecord::AclSet { name, acl }
                }
            }
            5 => JournalRecord::ContentSet {
                name: d.take_str()?.to_owned(),
                content: d.take_bytes()?.to_vec(),
            },
            6 => JournalRecord::IdentityRevocation(d.take_identity_revocation()?),
            7 => JournalRecord::AttributeRevocation(d.take_attribute_revocation()?),
            8 => JournalRecord::Crl(d.take_crl()?),
            9 => JournalRecord::RequestCerts {
                identity: d.take_list_of(Decoder::take_identity_cert)?,
                threshold: d.take_list_of(Decoder::take_threshold_cert)?,
                attribute: d.take_list_of(Decoder::take_attribute_cert)?,
            },
            10 => JournalRecord::Decision(DecisionRecord {
                at: Time(d.take_i64()?),
                principals: d.take_list_of(|d| Ok(d.take_str()?.to_owned()))?,
                operation: Operation::new(d.take_str()?, d.take_str()?),
                granted: take_bool(&mut d)?,
                detail: d.take_str()?.to_owned(),
                cached_checks: take_usize(&mut d)?,
                retry_trace: take_opt_str(&mut d)?,
                axioms: take_usize(&mut d)?,
                signature_checks: take_usize(&mut d)?,
                unavailable: take_bool(&mut d)?,
                version_bump: take_bool(&mut d)?,
                replay_digest: take_opt_str(&mut d)?,
            }),
            11 => JournalRecord::ObjectState {
                name: d.take_str()?.to_owned(),
                acl: d.take_acl()?,
                version: d.take_u64()?,
                content: d.take_bytes()?.to_vec(),
            },
            12 => JournalRecord::ReplaySeen(ReplayRecord {
                digest: d.take_str()?.to_owned(),
                granted: take_bool(&mut d)?,
                detail: take_opt_str(&mut d)?,
                axioms: take_usize(&mut d)?,
                signature_checks: take_usize(&mut d)?,
                cached_signature_checks: take_usize(&mut d)?,
                unavailable: take_bool(&mut d)?,
            }),
            other => return Err(PkiError::Malformed(format!("unknown record tag {other}"))),
        };
        d.finish()?;
        Ok(record)
    }
}

fn take_bool(d: &mut Decoder<'_>) -> Result<bool, PkiError> {
    Ok(d.take_u64()? != 0)
}

fn take_usize(d: &mut Decoder<'_>) -> Result<usize, PkiError> {
    usize::try_from(d.take_u64()?).map_err(|_| PkiError::Malformed("count overflows usize".into()))
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

fn take_opt_str(d: &mut Decoder<'_>) -> Result<Option<String>, PkiError> {
    if take_bool(d)? {
        Ok(Some(d.take_str()?.to_owned()))
    } else {
        Ok(None)
    }
}

/// The server's write-ahead journal: a [`jaap_wal::Journal`] plus the
/// retained admission-class records a snapshot must re-emit (with their
/// original admission times, so recovery replays every belief derivation
/// at the clock it originally ran under).
#[derive(Debug)]
pub(crate) struct ServerJournal {
    wal: Journal,
    /// Admission-class records in append order, each with the server time
    /// at which it was admitted.
    admissions: Vec<(Time, JournalRecord)>,
}

impl ServerJournal {
    /// Wraps a store.
    #[must_use]
    pub(crate) fn new(store: Box<dyn JournalStore>) -> Self {
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
    pub(crate) fn append(
        &mut self,
        at: Time,
        record: &JournalRecord,
    ) -> Result<usize, CoalitionError> {
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
    pub(crate) fn rewrite(&mut self, records: &[JournalRecord]) -> Result<(), CoalitionError> {
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
    pub(crate) fn replay(
        &mut self,
    ) -> Result<(Vec<JournalRecord>, jaap_wal::Replay), CoalitionError> {
        let replay = self.wal.replay()?;
        let mut records = Vec::with_capacity(replay.records.len());
        for payload in &replay.records {
            records.push(JournalRecord::decode(payload)?);
        }
        Ok((records, replay))
    }

    /// Adopts `admissions` as the retained admission set (used by
    /// recovery, which rebuilds it from the replayed log).
    pub(crate) fn set_admissions(&mut self, admissions: Vec<(Time, JournalRecord)>) {
        self.admissions = admissions;
    }

    /// The retained admission-class records with their admission times.
    #[must_use]
    pub(crate) fn admissions(&self) -> &[(Time, JournalRecord)] {
        &self.admissions
    }

    /// Sets the primary term stamped into every frame written from now
    /// on (replication provenance; fencing itself acts on message terms).
    pub(crate) fn set_term(&mut self, term: u64) {
        self.wal.set_term(term);
    }

    /// The term currently stamped into new frames.
    #[must_use]
    pub(crate) fn term(&self) -> u64 {
        self.wal.term()
    }

    /// Framing-layer activity counters.
    #[must_use]
    pub(crate) fn stats(&self) -> JournalStats {
        self.wal.stats()
    }

    /// Current log length in bytes.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::Journal`] if the store fails.
    pub(crate) fn len_bytes(&self) -> Result<u64, CoalitionError> {
        Ok(self.wal.store_len()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaap_bigint::Nat;
    use jaap_core::certs::Validity;
    use jaap_core::syntax::GroupId;
    use jaap_crypto::rsa::{RsaPublicKey, RsaSignature};
    use jaap_crypto::sha256::{hex, Sha256};
    use jaap_pki::{CrlEntry, ThresholdSubject};
    use jaap_wal::MemStore;
    use proptest::prelude::*;

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

    /// SHA-256 of each [`sample_records`] encoding, in order. The journal
    /// format (WAL `FORMAT_VERSION` 3) is pinned byte for byte: a change
    /// here breaks every existing journal and every replica's byte match.
    const SAMPLE_SHA256: [&str; 15] = [
        "85a19f6f5a45f6daa06b9da5fd680bbaaa91bc9fb4c6809803d410ffe27a4b64",
        "a0f7a08300710f83ae54a56dc3381aa117d5834f2f67e45c83cf90003c5ff2ae",
        "9ff826508a505e4ad1fd33e7a0c0a2e8ff1e4a0ac20bd46ce90e0089e401532d",
        "29cd6dfd5391e9963418e95f360aeaa32c60c49364de0f39d826e489bad5d31d",
        "30d77f7429ea16ace18fed7c69f477f78bed9aa253e51214c1ac9bbaf29dbe79",
        "4395ed74a08b61f77cb9afb2a0f04c9e428f4b33a3e8f40fc1e1f791d7bcce98",
        "cf15d62b3826bfe4c83e0b10ca5ef76153defdb9609f8c4979c306f82878d668",
        "3680aa6acb84e5429b475699f94d55b4c8424d132ba0ecac5f15afa78e90817f",
        "c2300a1d5215f37eaaa84b3aed22d78069f7db3095ef87b286b68f6f185b9ca7",
        "85faf6b861ddac98d05b352a153fc02da53cf3f912bcd039b75a8c966d776709",
        "81360121b3b35a2e4f4dd649b4d0c9a2dbb07cb80a816a800c42d33bfd7b41a5",
        "ff928cd424db70fb63ff249ad3da7d0444a386473abbd6c163d447cdb889b938",
        "a4e9f1e2dff3780e042fecc5af7605dfe72b18493ec5122dc2cd6d15782d6d39",
        "7b76396e0b3a38302b04233d4b71cb66baf23d3b1ed4e2d576b33107e6b0e268",
        "e91272b79ecca5c06b0564dc9b9fa957b0b460c045c3fa2675c3acc67e71a9eb",
    ];

    #[test]
    fn sample_encodings_match_known_answers() {
        let got: Vec<String> = sample_records()
            .iter()
            .map(|r| hex(&Sha256::digest(&r.encode())))
            .collect();
        assert_eq!(got, SAMPLE_SHA256);
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

    /// Every single-bit flip of every sample encoding decodes to an error
    /// or to some record, never a panic; the unflipped bytes round-trip.
    #[test]
    fn every_bit_flip_of_every_sample_decodes_without_panic() {
        for record in sample_records() {
            let bytes = record.encode();
            assert_eq!(JournalRecord::decode(&bytes).expect("decode"), record);
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let _ = JournalRecord::decode(&flipped);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Decoder robustness: arbitrary bytes, bare or behind this
        /// container's domain and a record tag (known or not), never
        /// panic the decoder.
        #[test]
        fn arbitrary_bytes_never_panic_the_decoder(
            tag in 0u64..16,
            noise in proptest::collection::vec(any::<u8>(), 0..256),
            behind_header in any::<bool>(),
        ) {
            let bytes = if behind_header {
                let mut e = Encoder::new(DOMAIN);
                e.put_u64(tag);
                let mut bytes = e.finish();
                bytes.extend_from_slice(&noise);
                bytes
            } else {
                noise
            };
            let _ = JournalRecord::decode(&bytes);
        }
    }
}
