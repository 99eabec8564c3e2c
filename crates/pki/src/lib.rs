//! Byte-level PKI for the coalition: certificates with real (threshold-)RSA
//! signatures, and their idealization into the logic.
//!
//! The layering follows the paper:
//!
//! * Each domain runs an identity **CA** ([`CertificateAuthority`]) issuing
//!   [`IdentityCertificate`]s to its users (Requirement I: "all coalition
//!   application servers trust each domain's pre-established identity CA").
//! * The coalition **AA**'s key is *shared*; [`ThresholdAttributeCertificate`]
//!   bodies are canonical byte strings signed with the joint signature
//!   protocol of `jaap-crypto` (§3.2).
//! * A **revocation authority** ([`RevocationAuthority`]) issues revocation
//!   certificates on behalf of the AA (§4.3).
//! * A [`TrustStore`] holds the verification keys a coalition server trusts
//!   and converts *cryptographically verified* certificates — each kind
//!   presented as one [`PresentedCert`] — into the idealized messages of
//!   `jaap-core` ([`TrustStore::idealize`]), plus the engine's
//!   [`jaap_core::engine::TrustAssumptions`].
//!
//! Certificates are encoded with a deterministic TLV scheme
//! ([`encoding::Encoder`]) so signatures are over canonical bytes. The same
//! module is the persistence codec for every signed artifact, shared by the
//! coalition journal and the cert store.

#![forbid(unsafe_code)]

pub mod attribute;
pub mod authority;
pub mod crl;
pub mod encoding;
pub mod identity;
pub mod presented;
pub mod truststore;

pub use attribute::{
    AttributeCertificate, AttributeRevocation, CompoundAttributeCertificate,
    ThresholdAttributeCertificate, ThresholdSubject,
};
pub use authority::{CertificateAuthority, RevocationAuthority};
pub use crl::{Crl, CrlEntry};
pub use identity::{IdentityCertificate, IdentityRevocation};
pub use presented::PresentedCert;
pub use truststore::TrustStore;

use jaap_core::syntax::KeyId;
use jaap_crypto::rsa::RsaPublicKey;

/// Errors raised by certificate verification and idealization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PkiError {
    /// A signature did not verify.
    BadSignature(String),
    /// The verifier has no trusted key for the claimed issuer.
    UnknownIssuer(String),
    /// Structural problems (empty member lists, bad thresholds, ...).
    Malformed(String),
}

impl core::fmt::Display for PkiError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PkiError::BadSignature(m) => write!(f, "bad signature: {m}"),
            PkiError::UnknownIssuer(m) => write!(f, "unknown issuer: {m}"),
            PkiError::Malformed(m) => write!(f, "malformed certificate: {m}"),
        }
    }
}

impl std::error::Error for PkiError {}

/// The logic-level name of an RSA public key: `K:<first 12 hex of key id>`.
///
/// The paper identifies keys by "the hash of N and the public exponent e"
/// (§3.2); this is that hash, truncated for readable derivations.
#[must_use]
pub fn key_name(key: &RsaPublicKey) -> KeyId {
    KeyId::new(format!("K:{}", &key.key_id()[..12]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaap_crypto::rsa::RsaKeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn key_names_are_stable_and_distinct() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = RsaKeyPair::generate(&mut rng, 128).expect("a");
        let b = RsaKeyPair::generate(&mut rng, 128).expect("b");
        assert_eq!(key_name(a.public()), key_name(a.public()));
        assert_ne!(key_name(a.public()), key_name(b.public()));
        assert!(key_name(a.public()).as_str().starts_with("K:"));
    }

    /// Key names are derivation, journal and audit vocabulary, so their
    /// rendering is pinned to a known answer for a fixed 2048-bit key.
    #[test]
    fn key_name_known_answer() {
        let n = jaap_bigint::Nat::from_limbs(
            (1..=32u64)
                .map(|i| i.wrapping_mul(0xc2b2_ae3d_27d4_eb4f) | 1)
                .collect(),
        );
        let key = RsaPublicKey::new(n, jaap_bigint::Nat::from(65_537u64));
        assert_eq!(
            key.key_id(),
            "ed42acbbb1cb069400083925d3e9f92fd05964b15126c6cb2f38ef5986ba8264"
        );
        assert_eq!(key_name(&key).as_str(), "K:ed42acbbb1cb");
    }

    #[test]
    fn error_display() {
        assert!(PkiError::BadSignature("x".into())
            .to_string()
            .contains("bad signature"));
        assert!(PkiError::UnknownIssuer("y".into())
            .to_string()
            .contains("unknown issuer"));
    }
}
