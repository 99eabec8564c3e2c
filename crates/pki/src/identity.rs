//! Identity certificates and their revocations.

use jaap_core::certs::{Certs, Validity};
use jaap_core::syntax::{Message, Time};
use jaap_crypto::rsa::{RsaPublicKey, RsaSignature};

use crate::encoding::Encoder;
use crate::presented::PresentedCert;
use crate::{key_name, PkiError};

/// A byte-level identity certificate: binds a user name to a public key for
/// a validity period, signed by a domain CA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdentityCertificate {
    /// Issuing CA name.
    pub issuer: String,
    /// Subject (user) name.
    pub subject: String,
    /// The certified public key.
    pub subject_key: RsaPublicKey,
    /// Validity period.
    pub validity: Validity,
    /// CA timestamp `t_CA` ("time when the certificate information was
    /// deemed accurate by the CA").
    pub timestamp: Time,
    /// CA signature over `IdentityCertificate::body_bytes`.
    pub signature: RsaSignature,
}

impl IdentityCertificate {
    /// The canonical signed bytes.
    #[must_use]
    pub(crate) fn body_bytes(
        issuer: &str,
        subject: &str,
        subject_key: &RsaPublicKey,
        validity: Validity,
        timestamp: Time,
    ) -> Vec<u8> {
        let mut e = Encoder::new("jaap-identity-cert-v1");
        e.put_str(issuer)
            .put_str(subject)
            .put_key(subject_key)
            .put_validity(&validity)
            .put_i64(timestamp.0);
        e.finish()
    }

    /// Verifies the CA signature.
    ///
    /// # Errors
    ///
    /// [`PkiError::BadSignature`] if verification fails.
    pub fn verify(&self, issuer_key: &RsaPublicKey) -> Result<(), PkiError> {
        PresentedCert::Identity(self).verify(issuer_key, None)
    }
}

/// Revocation of an identity certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdentityRevocation {
    /// Issuing CA name.
    pub issuer: String,
    /// Subject whose certificate is revoked.
    pub subject: String,
    /// The revoked key.
    pub subject_key: RsaPublicKey,
    /// Revocation effective time `t'`.
    pub revoked_from: Time,
    /// CA timestamp.
    pub timestamp: Time,
    /// CA signature.
    pub signature: RsaSignature,
}

impl IdentityRevocation {
    /// The canonical signed bytes.
    #[must_use]
    pub(crate) fn body_bytes(
        issuer: &str,
        subject: &str,
        subject_key: &RsaPublicKey,
        revoked_from: Time,
        timestamp: Time,
    ) -> Vec<u8> {
        let mut e = Encoder::new("jaap-identity-revocation-v1");
        e.put_str(issuer)
            .put_str(subject)
            .put_bytes(&subject_key.modulus().to_bytes_be())
            .put_i64(revoked_from.0)
            .put_i64(timestamp.0);
        e.finish()
    }

    /// Verifies the CA signature.
    ///
    /// # Errors
    ///
    /// [`PkiError::BadSignature`] if verification fails.
    pub(crate) fn verify(&self, issuer_key: &RsaPublicKey) -> Result<(), PkiError> {
        let body = Self::body_bytes(
            &self.issuer,
            &self.subject,
            &self.subject_key,
            self.revoked_from,
            self.timestamp,
        );
        if issuer_key.verify(&body, &self.signature) {
            Ok(())
        } else {
            Err(PkiError::BadSignature(format!(
                "identity revocation for {} by {}",
                self.subject, self.issuer
            )))
        }
    }

    /// The idealized revocation:
    /// `⟨CA says_tCA ¬(K_P ⇒ t' P)⟩_{K_CA⁻¹}`.
    #[must_use]
    pub(crate) fn idealize(&self, issuer_key: &RsaPublicKey) -> Message {
        Certs::identity_revocation(
            self.issuer.as_str(),
            key_name(issuer_key),
            key_name(&self.subject_key),
            self.subject.as_str(),
            self.timestamp,
            self.revoked_from,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::CertificateAuthority;
    use jaap_core::certs::CertView;
    use jaap_crypto::rsa::RsaKeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (CertificateAuthority, RsaKeyPair) {
        let mut rng = StdRng::seed_from_u64(42);
        let ca = CertificateAuthority::new("CA1", &mut rng, 192).expect("ca");
        let user = RsaKeyPair::generate(&mut rng, 192).expect("user");
        (ca, user)
    }

    #[test]
    fn issue_verify_roundtrip() {
        let (ca, user) = setup();
        let cert = ca
            .issue_identity(
                "User_D1",
                user.public(),
                Validity::new(Time(0), Time(100)),
                Time(5),
            )
            .expect("issue");
        assert!(cert.verify(ca.public()).is_ok());
    }

    #[test]
    fn tampered_certificate_fails() {
        let (ca, user) = setup();
        let mut cert = ca
            .issue_identity(
                "User_D1",
                user.public(),
                Validity::new(Time(0), Time(100)),
                Time(5),
            )
            .expect("issue");
        cert.subject = "Mallory".into();
        assert!(matches!(
            cert.verify(ca.public()),
            Err(PkiError::BadSignature(_))
        ));
    }

    #[test]
    fn wrong_issuer_key_fails() {
        let (ca, user) = setup();
        let mut rng = StdRng::seed_from_u64(9);
        let other = RsaKeyPair::generate(&mut rng, 192).expect("other");
        let cert = ca
            .issue_identity(
                "User_D1",
                user.public(),
                Validity::new(Time(0), Time(100)),
                Time(5),
            )
            .expect("issue");
        assert!(cert.verify(other.public()).is_err());
    }

    #[test]
    fn idealization_matches_paper_shape() {
        let (ca, user) = setup();
        let cert = ca
            .issue_identity(
                "User_D1",
                user.public(),
                Validity::new(Time(0), Time(100)),
                Time(5),
            )
            .expect("issue");
        let msg = PresentedCert::Identity(&cert).idealize(ca.public());
        let CertView::Identity {
            issuer,
            subject,
            negated,
            ..
        } = CertView::parse(&msg).expect("parse")
        else {
            panic!("expected identity view");
        };
        assert_eq!(issuer.as_str(), "CA1");
        assert_eq!(subject, jaap_core::syntax::Subject::principal("User_D1"));
        assert!(!negated);
    }

    #[test]
    fn revocation_roundtrip_and_idealization() {
        let (ca, user) = setup();
        let rev = ca
            .revoke_identity("User_D1", user.public(), Time(50), Time(50))
            .expect("revoke");
        assert!(rev.verify(ca.public()).is_ok());
        let msg = rev.idealize(ca.public());
        let CertView::Identity { negated, .. } = CertView::parse(&msg).expect("parse") else {
            panic!("expected identity view");
        };
        assert!(negated);
    }
}
