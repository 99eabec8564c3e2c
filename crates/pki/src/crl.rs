//! Certificate revocation lists with recency.
//!
//! The paper (§4.3): "It is essential to verify the most recent available
//! revocation information before granting access to an object." Its
//! revocation model builds on Stubblebine–Wright \[25\], where verifiers
//! enforce *recency* on revocation data. A [`Crl`] batches attribute
//! revocations under one RA signature with a sequence number and timestamp;
//! the coalition server can require its revocation information to be no
//! older than a recency window.

use jaap_core::syntax::{GroupId, Time};
use jaap_crypto::rsa::{RsaPublicKey, RsaSignature};

use crate::attribute::ThresholdSubject;
use crate::encoding::Encoder;
use crate::PkiError;

/// One CRL entry: a revoked threshold attribute certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrlEntry {
    /// The revoked certificate's subject.
    pub subject: ThresholdSubject,
    /// The group whose membership is withdrawn.
    pub group: GroupId,
    /// Effective revocation time `t'`.
    pub revoked_from: Time,
}

/// A signed certificate revocation list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Crl {
    /// Issuing revocation authority.
    pub issuer: String,
    /// Monotone sequence number (replay/rollback detection).
    pub sequence: u64,
    /// Issuance timestamp (recency anchor).
    pub timestamp: Time,
    /// The revocations.
    pub entries: Vec<CrlEntry>,
    /// RA signature over `Crl::body_bytes`.
    pub signature: RsaSignature,
}

impl Crl {
    /// The canonical signed bytes.
    #[must_use]
    pub(crate) fn body_bytes(
        issuer: &str,
        sequence: u64,
        timestamp: Time,
        entries: &[CrlEntry],
    ) -> Vec<u8> {
        let mut e = Encoder::new("jaap-crl-v1");
        e.put_str(issuer).put_u64(sequence).put_i64(timestamp.0);
        e.put_list(entries.len());
        for entry in entries {
            e.put_str(entry.group.as_str());
            e.put_subject(&entry.subject);
            e.put_i64(entry.revoked_from.0);
        }
        e.finish()
    }

    /// Verifies the RA signature.
    ///
    /// # Errors
    ///
    /// [`PkiError::BadSignature`] if verification fails.
    pub(crate) fn verify(&self, ra_key: &RsaPublicKey) -> Result<(), PkiError> {
        let body = Self::body_bytes(&self.issuer, self.sequence, self.timestamp, &self.entries);
        if ra_key.verify(&body, &self.signature) {
            Ok(())
        } else {
            Err(PkiError::BadSignature(format!(
                "CRL #{} by {}",
                self.sequence, self.issuer
            )))
        }
    }
}

impl crate::authority::RevocationAuthority {
    /// Issues a signed CRL.
    ///
    /// # Errors
    ///
    /// Propagates signing failures.
    pub fn issue_crl(
        &self,
        sequence: u64,
        timestamp: Time,
        entries: Vec<CrlEntry>,
    ) -> Result<Crl, PkiError> {
        let body = Crl::body_bytes(self.name(), sequence, timestamp, &entries);
        let signature = self
            .sign(&body)
            .map_err(|e| PkiError::BadSignature(format!("RA signing failed: {e}")))?;
        Ok(Crl {
            issuer: self.name().to_string(),
            sequence,
            timestamp,
            entries,
            signature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::RevocationAuthority;
    use jaap_crypto::rsa::RsaKeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> (RevocationAuthority, Vec<CrlEntry>) {
        let mut rng = StdRng::seed_from_u64(1);
        let ra = RevocationAuthority::new("RA", &mut rng, 192).expect("ra");
        let user = RsaKeyPair::generate(&mut rng, 128).expect("user");
        let subject = ThresholdSubject::new(vec![("User_D1".into(), user.public().clone())], 1)
            .expect("subject");
        let entries = vec![CrlEntry {
            subject,
            group: GroupId::new("G_write"),
            revoked_from: Time(20),
        }];
        (ra, entries)
    }

    #[test]
    fn issue_and_verify() {
        let (ra, entries) = fixture();
        let crl = ra.issue_crl(1, Time(20), entries).expect("crl");
        assert!(crl.verify(ra.public()).is_ok());
    }

    #[test]
    fn tampered_crl_rejected() {
        let (ra, entries) = fixture();
        let mut crl = ra.issue_crl(1, Time(20), entries).expect("crl");
        crl.sequence = 2;
        assert!(crl.verify(ra.public()).is_err());
        let mut crl2 = ra.issue_crl(1, Time(20), vec![]).expect("crl");
        crl2.entries = fixture().1;
        assert!(crl2.verify(ra.public()).is_err());
    }

    #[test]
    fn empty_crl_is_valid_heartbeat() {
        // An empty CRL is how an RA asserts "nothing newly revoked" —
        // essential for recency enforcement.
        let (ra, _) = fixture();
        let crl = ra.issue_crl(7, Time(30), vec![]).expect("crl");
        assert!(crl.verify(ra.public()).is_ok());
        assert!(crl.entries.is_empty());
    }

    #[test]
    fn wrong_ra_key_rejected() {
        let (ra, entries) = fixture();
        let mut rng = StdRng::seed_from_u64(9);
        let other = RevocationAuthority::new("RA2", &mut rng, 192).expect("ra2");
        let crl = ra.issue_crl(1, Time(20), entries).expect("crl");
        assert!(crl.verify(other.public()).is_err());
    }
}
