//! Canonical byte encoding for store records.
//!
//! Every row the store persists is one `StoreRecord`: a container with
//! the store's *own* domain string (`jaap-store-record-v1`, so store bytes
//! can never be confused with journal bytes even though both live in
//! `jaap-wal` frames), a column tag, and then one artifact written by the
//! shared artifact codec in [`jaap_pki::encoding`] — the same bytes the
//! server journal writes for that artifact.

use jaap_core::protocol::Acl;
use jaap_pki::encoding::{Decoder, Encoder};
use jaap_pki::{
    AttributeCertificate, AttributeRevocation, Crl, IdentityCertificate, IdentityRevocation,
    PkiError, ThresholdAttributeCertificate,
};

use crate::StoreError;

/// Domain separator for store record bytes.
const DOMAIN: &str = "jaap-store-record-v1";

/// One persisted row. The enum tag doubles as the column discriminant:
/// each variant lands in exactly one column family (see
/// [`crate::Column`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum StoreRecord {
    /// A CA-signed identity certificate (certs-by-subject column, with a
    /// certs-by-issuer secondary index).
    IdentityCert(IdentityCertificate),
    /// A jointly-signed threshold attribute certificate (group column).
    ThresholdCert(ThresholdAttributeCertificate),
    /// A single-subject attribute certificate (grant column, keyed by
    /// subject and group).
    AttributeCert(AttributeCertificate),
    /// An identity revocation (revocations column).
    IdentityRevocation(IdentityRevocation),
    /// An attribute revocation (revocations column).
    AttributeRevocation(AttributeRevocation),
    /// A full CRL, anchored by sequence number.
    CrlAnchor(Crl),
    /// One object's ACL row.
    AclRow {
        /// The object the ACL protects.
        object: String,
        /// The disjunction of `(group, action)` permissions.
        acl: Acl,
    },
}

impl StoreRecord {
    /// The canonical encoding.
    #[must_use]
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new(DOMAIN);
        match self {
            StoreRecord::IdentityCert(cert) => e.put_u64(1).put_identity_cert(cert),
            StoreRecord::ThresholdCert(cert) => e.put_u64(2).put_threshold_cert(cert),
            StoreRecord::AttributeCert(cert) => e.put_u64(3).put_attribute_cert(cert),
            StoreRecord::IdentityRevocation(rev) => e.put_u64(4).put_identity_revocation(rev),
            StoreRecord::AttributeRevocation(rev) => e.put_u64(5).put_attribute_revocation(rev),
            StoreRecord::CrlAnchor(crl) => e.put_u64(6).put_crl(crl),
            StoreRecord::AclRow { object, acl } => e.put_u64(7).put_str(object).put_acl(acl),
        };
        e.finish()
    }

    /// Decodes one record; rejects trailing bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on any malformed encoding.
    pub(crate) fn decode(bytes: &[u8]) -> Result<StoreRecord, StoreError> {
        Self::decode_fields(bytes)
            .map_err(|e| StoreError::Corrupt(format!("undecodable record: {e}")))
    }

    fn decode_fields(bytes: &[u8]) -> Result<StoreRecord, PkiError> {
        let mut d = Decoder::new(bytes, DOMAIN)?;
        let record = match d.take_u64()? {
            1 => StoreRecord::IdentityCert(d.take_identity_cert()?),
            2 => StoreRecord::ThresholdCert(d.take_threshold_cert()?),
            3 => StoreRecord::AttributeCert(d.take_attribute_cert()?),
            4 => StoreRecord::IdentityRevocation(d.take_identity_revocation()?),
            5 => StoreRecord::AttributeRevocation(d.take_attribute_revocation()?),
            6 => StoreRecord::CrlAnchor(d.take_crl()?),
            7 => StoreRecord::AclRow {
                object: d.take_str()?.to_owned(),
                acl: d.take_acl()?,
            },
            other => return Err(PkiError::Malformed(format!("unknown record tag {other}"))),
        };
        d.finish()?;
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaap_bigint::Nat;
    use jaap_core::certs::Validity;
    use jaap_core::syntax::{GroupId, Time};
    use jaap_crypto::rsa::{RsaPublicKey, RsaSignature};
    use jaap_crypto::sha256::{hex, Sha256};
    use jaap_pki::{CrlEntry, ThresholdSubject};
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

    fn validity() -> Validity {
        Validity {
            begin: Time(0),
            end: Time(100),
        }
    }

    /// One record of each of the seven kinds, in tag order.
    fn sample_records() -> Vec<StoreRecord> {
        let mut acl = Acl::new();
        acl.permit(GroupId::new("CG"), "write");
        acl.permit(GroupId::new("CG"), "read");
        vec![
            StoreRecord::IdentityCert(IdentityCertificate {
                issuer: "CA1".into(),
                subject: "U1".into(),
                subject_key: key(77),
                validity: validity(),
                timestamp: Time(5),
                signature: sig(8),
            }),
            StoreRecord::ThresholdCert(ThresholdAttributeCertificate {
                issuer: "AA".into(),
                subject: subject(),
                group: GroupId::new("CG"),
                validity: validity(),
                timestamp: Time(6),
                signature: sig(9),
            }),
            StoreRecord::AttributeCert(AttributeCertificate {
                issuer: "AA".into(),
                subject: "U2".into(),
                subject_key: key(91),
                group: GroupId::new("CG"),
                validity: validity(),
                timestamp: Time(7),
                signature: sig(10),
            }),
            StoreRecord::IdentityRevocation(IdentityRevocation {
                issuer: "CA1".into(),
                subject: "U1".into(),
                subject_key: key(77),
                revoked_from: Time(30),
                timestamp: Time(31),
                signature: sig(5),
            }),
            StoreRecord::AttributeRevocation(AttributeRevocation {
                issuer: "RA".into(),
                subject: subject(),
                group: GroupId::new("CG"),
                revoked_from: Time(33),
                timestamp: Time(34),
                signature: sig(6),
            }),
            StoreRecord::CrlAnchor(Crl {
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
            StoreRecord::AclRow {
                object: "Object O".into(),
                acl,
            },
        ]
    }

    /// SHA-256 of each [`sample_records`] encoding, in order. The store
    /// format (WAL `FORMAT_VERSION` 3) is pinned byte for byte: a change
    /// here breaks every existing cert store.
    const SAMPLE_SHA256: [&str; 7] = [
        "bdcb8a46d0f0296ffca21b5806f7e310a1ed9e7711712ce449d1101bb4bfbaf0",
        "a35097264aafe66200a624146d91b2cd14b053694944c98e8583c57d6085cdc5",
        "db9969d2c700cd2c68c6286b47d1aa448cb4ce64585660856da79c6c926a3033",
        "7ce2021622506563aa68d5d410af5548e207711c64783775f57c8798bce847e6",
        "7b4e472cd0bc2aeb4b9cbaa0b2d3d57097f0b8683a5f4e0c55419a5218acda61",
        "bae2a307e71dc00fca87de28edcd46df2bb5ea69d0033c3eb5bb3e2e03486615",
        "580c0f98854651f1df888a96b297d24cc1e0140f19cc60951530ec67668d059b",
    ];

    #[test]
    fn sample_encodings_match_known_answers() {
        let got: Vec<String> = sample_records()
            .iter()
            .map(|r| hex(&Sha256::digest(&r.encode())))
            .collect();
        assert_eq!(got, SAMPLE_SHA256);
    }

    /// Every single-bit flip of every sample encoding decodes to an error
    /// or to some record, never a panic; the unflipped bytes round-trip.
    #[test]
    fn every_bit_flip_of_every_sample_decodes_without_panic() {
        for record in sample_records() {
            let bytes = record.encode();
            assert_eq!(StoreRecord::decode(&bytes).expect("decode"), record);
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let _ = StoreRecord::decode(&flipped);
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
            let _ = StoreRecord::decode(&bytes);
        }
    }
}
