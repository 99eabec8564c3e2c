//! Certificate-issuing authorities: per-domain identity CAs and revocation
//! authorities.
//!
//! The coalition Attribute Authority is *not* here: its private key is
//! shared among the domains, so AA issuance is a joint act orchestrated at
//! the coalition layer (see `jaap-coalition`), using the body builders in
//! [`crate::attribute`].

use jaap_core::certs::Validity;
use jaap_core::syntax::{GroupId, Time};
use jaap_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use jaap_crypto::CryptoError;
use rand::RngCore;

use crate::attribute::{AttributeRevocation, ThresholdSubject};
use crate::identity::{IdentityCertificate, IdentityRevocation};
use crate::PkiError;

/// A domain's identity certificate authority.
#[derive(Debug, Clone)]
pub struct CertificateAuthority {
    name: String,
    keypair: RsaKeyPair,
}

impl CertificateAuthority {
    /// Creates a CA with a fresh key pair.
    ///
    /// # Errors
    ///
    /// Propagates key generation failures.
    pub fn new(
        name: impl Into<String>,
        rng: &mut dyn RngCore,
        bits: usize,
    ) -> Result<Self, CryptoError> {
        Ok(CertificateAuthority {
            name: name.into(),
            keypair: RsaKeyPair::generate(rng, bits)?,
        })
    }

    /// The CA's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The CA's verification key.
    #[must_use]
    pub fn public(&self) -> &RsaPublicKey {
        self.keypair.public()
    }

    /// Issues an identity certificate.
    ///
    /// # Errors
    ///
    /// Propagates signing failures.
    pub fn issue_identity(
        &self,
        subject: impl Into<String>,
        subject_key: &RsaPublicKey,
        validity: Validity,
        timestamp: Time,
    ) -> Result<IdentityCertificate, PkiError> {
        let subject = subject.into();
        let body =
            IdentityCertificate::body_bytes(&self.name, &subject, subject_key, validity, timestamp);
        let signature = self
            .keypair
            .sign(&body)
            .map_err(|e| PkiError::BadSignature(format!("CA signing failed: {e}")))?;
        Ok(IdentityCertificate {
            issuer: self.name.clone(),
            subject,
            subject_key: subject_key.clone(),
            validity,
            timestamp,
            signature,
        })
    }

    /// Issues an identity revocation.
    ///
    /// # Errors
    ///
    /// Propagates signing failures.
    pub fn revoke_identity(
        &self,
        subject: impl Into<String>,
        subject_key: &RsaPublicKey,
        revoked_from: Time,
        timestamp: Time,
    ) -> Result<IdentityRevocation, PkiError> {
        let subject = subject.into();
        let body = IdentityRevocation::body_bytes(
            &self.name,
            &subject,
            subject_key,
            revoked_from,
            timestamp,
        );
        let signature = self
            .keypair
            .sign(&body)
            .map_err(|e| PkiError::BadSignature(format!("CA signing failed: {e}")))?;
        Ok(IdentityRevocation {
            issuer: self.name.clone(),
            subject,
            subject_key: subject_key.clone(),
            revoked_from,
            timestamp,
            signature,
        })
    }
}

/// A revocation authority "authorized to provide revocation information on
/// behalf of AA" (§4.3).
#[derive(Debug, Clone)]
pub struct RevocationAuthority {
    name: String,
    keypair: RsaKeyPair,
}

impl RevocationAuthority {
    /// Creates an RA. Which authority it speaks for is recorded where it
    /// is trusted, by [`crate::TrustStore::trust_ra`].
    ///
    /// # Errors
    ///
    /// Propagates key generation failures.
    pub fn new(
        name: impl Into<String>,
        rng: &mut dyn RngCore,
        bits: usize,
    ) -> Result<Self, CryptoError> {
        Ok(RevocationAuthority {
            name: name.into(),
            keypair: RsaKeyPair::generate(rng, bits)?,
        })
    }

    /// The RA's name.
    #[must_use]
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// The RA's verification key.
    #[must_use]
    pub fn public(&self) -> &RsaPublicKey {
        self.keypair.public()
    }

    /// Signs canonical bytes with the RA key (used by revocations and
    /// CRLs).
    ///
    /// # Errors
    ///
    /// Propagates signing failures.
    pub(crate) fn sign(&self, body: &[u8]) -> Result<jaap_crypto::rsa::RsaSignature, CryptoError> {
        self.keypair.sign(body)
    }

    /// Issues a revocation of a threshold attribute certificate.
    ///
    /// # Errors
    ///
    /// Propagates signing failures.
    pub fn revoke_attribute(
        &self,
        subject: &ThresholdSubject,
        group: GroupId,
        revoked_from: Time,
        timestamp: Time,
    ) -> Result<AttributeRevocation, PkiError> {
        let body =
            AttributeRevocation::body_bytes(&self.name, subject, &group, revoked_from, timestamp);
        let signature = self
            .keypair
            .sign(&body)
            .map_err(|e| PkiError::BadSignature(format!("RA signing failed: {e}")))?;
        Ok(AttributeRevocation {
            issuer: self.name.clone(),
            subject: subject.clone(),
            group,
            revoked_from,
            timestamp,
            signature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ca_accessors() {
        let mut rng = StdRng::seed_from_u64(1);
        let ca = CertificateAuthority::new("CA1", &mut rng, 128).expect("ca");
        assert_eq!(ca.name(), "CA1");
        assert!(!ca.public().key_id().is_empty());
    }
}
