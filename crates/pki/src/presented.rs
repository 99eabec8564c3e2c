//! The certificates a request presents, as one type.
//!
//! Identity, threshold attribute and single-subject attribute certificates
//! reach the coalition server the same way (§4.3): each is a time-stamped
//! statement signed by a trusted issuer, which the server verifies and
//! only then idealizes into the message its belief engine consumes.
//! [`PresentedCert`] is that shared shape, so the server's crypto stage,
//! its verification cache and its batch pre-pass each handle all three
//! kinds in one loop.

use jaap_core::certs::Certs;
use jaap_core::syntax::{Message, Subject, Time};
use jaap_crypto::precomp::VerifierPrecomp;
use jaap_crypto::rsa::{RsaPublicKey, RsaSignature};

use crate::attribute::{AttributeCertificate, ThresholdAttributeCertificate};
use crate::identity::IdentityCertificate;
use crate::{key_name, PkiError};

/// One presented certificate, borrowed from the request that carries it.
/// Equality is full structural equality — body fields and signature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PresentedCert<'a> {
    /// An identity certificate, signed by a domain CA.
    Identity(&'a IdentityCertificate),
    /// A threshold attribute certificate, jointly signed by the AA.
    Threshold(&'a ThresholdAttributeCertificate),
    /// A single-subject attribute certificate, jointly signed by the AA.
    Attribute(&'a AttributeCertificate),
}

impl<'a> PresentedCert<'a> {
    /// The kind's name, as denial details and signature errors spell it.
    #[must_use]
    pub fn kind(self) -> &'static str {
        match self {
            PresentedCert::Identity(_) => "identity certificate",
            PresentedCert::Threshold(_) => "threshold attribute certificate",
            PresentedCert::Attribute(_) => "attribute certificate",
        }
    }

    /// The issuer the certificate names.
    #[must_use]
    pub(crate) fn issuer(self) -> &'a str {
        match self {
            PresentedCert::Identity(c) => &c.issuer,
            PresentedCert::Threshold(c) => &c.issuer,
            PresentedCert::Attribute(c) => &c.issuer,
        }
    }

    /// The issuer's signature over [`PresentedCert::body_bytes`].
    #[must_use]
    pub fn signature(self) -> &'a RsaSignature {
        match self {
            PresentedCert::Identity(c) => &c.signature,
            PresentedCert::Threshold(c) => &c.signature,
            PresentedCert::Attribute(c) => &c.signature,
        }
    }

    /// The canonical signed bytes.
    #[must_use]
    pub fn body_bytes(self) -> Vec<u8> {
        match self {
            PresentedCert::Identity(c) => IdentityCertificate::body_bytes(
                &c.issuer,
                &c.subject,
                &c.subject_key,
                c.validity,
                c.timestamp,
            ),
            PresentedCert::Threshold(c) => ThresholdAttributeCertificate::body_bytes(
                &c.issuer,
                &c.subject,
                &c.group,
                c.validity,
                c.timestamp,
            ),
            PresentedCert::Attribute(c) => AttributeCertificate::body_bytes(
                &c.issuer,
                &c.subject,
                &c.subject_key,
                &c.group,
                c.validity,
                c.timestamp,
            ),
        }
    }

    /// Whether the certificate names principal `name`: an identity
    /// revocation of any principal it names invalidates a cached
    /// verification of it.
    #[must_use]
    pub fn names(self, name: &str) -> bool {
        match self {
            PresentedCert::Identity(c) => c.subject == name,
            PresentedCert::Threshold(c) => c.subject.members.iter().any(|(n, _)| n == name),
            PresentedCert::Attribute(c) => c.subject == name,
        }
    }

    /// The group an attribute certificate grants (an attribute revocation
    /// of it invalidates a cached verification); `None` for identity.
    #[must_use]
    pub fn group(self) -> Option<&'a str> {
        match self {
            PresentedCert::Identity(_) => None,
            PresentedCert::Threshold(c) => Some(c.group.as_str()),
            PresentedCert::Attribute(c) => Some(c.group.as_str()),
        }
    }

    /// The end of the validity period.
    #[must_use]
    pub fn expires(self) -> Time {
        match self {
            PresentedCert::Identity(c) => c.validity.end,
            PresentedCert::Threshold(c) => c.validity.end,
            PresentedCert::Attribute(c) => c.validity.end,
        }
    }

    /// The idealized certificate under the issuer's key (paper §4.2):
    /// `⟨CA says_tCA (K_P ⇒ [tb,te] P)⟩_{K_CA⁻¹}`,
    /// `⟨AA says_tAA (CP_{m,n} ⇒ [tb,te] G)⟩_{K_AA⁻¹}` or
    /// `⟨AA says_t (P|K ⇒ [tb,te] G)⟩_{K_AA⁻¹}`.
    #[must_use]
    pub(crate) fn idealize(self, issuer_key: &RsaPublicKey) -> Message {
        match self {
            PresentedCert::Identity(c) => Certs::identity(
                c.issuer.as_str(),
                key_name(issuer_key),
                key_name(&c.subject_key),
                c.subject.as_str(),
                c.timestamp,
                c.validity,
            ),
            PresentedCert::Threshold(c) => Certs::threshold_attribute(
                c.issuer.as_str(),
                key_name(issuer_key),
                c.subject.to_logic(),
                c.group.clone(),
                c.timestamp,
                c.validity,
            ),
            PresentedCert::Attribute(c) => Certs::attribute(
                c.issuer.as_str(),
                key_name(issuer_key),
                Subject::principal(&c.subject).bound(key_name(&c.subject_key)),
                c.group.clone(),
                c.timestamp,
                c.validity,
            ),
        }
    }

    /// Verifies the signature under `issuer_key`, through `precomp` when
    /// supplied (`recurring = true`: standing certificates are re-presented
    /// on every request, so their residues earn fixed-base ladders).
    /// Accepts and rejects identically with or without `precomp`.
    ///
    /// # Errors
    ///
    /// [`PkiError::BadSignature`] if verification fails.
    pub(crate) fn verify(
        self,
        issuer_key: &RsaPublicKey,
        precomp: Option<&VerifierPrecomp>,
    ) -> Result<(), PkiError> {
        if issuer_key.verify_with(precomp, true, &self.body_bytes(), self.signature()) {
            return Ok(());
        }
        let named = match self {
            PresentedCert::Identity(c) => c.subject.as_str(),
            PresentedCert::Threshold(c) => c.group.as_str(),
            PresentedCert::Attribute(c) => c.subject.as_str(),
        };
        Err(PkiError::BadSignature(format!(
            "{} for {named} by {}",
            self.kind(),
            self.issuer()
        )))
    }

    /// Verify-then-idealize: the signature check (skipped when
    /// `sig_prechecked` — the caller already verified this exact signature,
    /// e.g. in a batch combined check), then [`PresentedCert::idealize`].
    ///
    /// # Errors
    ///
    /// [`PkiError::BadSignature`] if verification fails.
    pub(crate) fn verify_and_idealize(
        self,
        issuer_key: &RsaPublicKey,
        precomp: Option<&VerifierPrecomp>,
        sig_prechecked: bool,
    ) -> Result<Message, PkiError> {
        if !sig_prechecked {
            self.verify(issuer_key, precomp)?;
        }
        Ok(self.idealize(issuer_key))
    }
}
