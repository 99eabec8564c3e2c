//! Attribute certificates: single-subject and threshold, plus revocations.
//!
//! Threshold attribute certificates are the paper's central object (§4.2):
//! they are signed with the coalition AA's *shared* key via the joint
//! signature protocol, and they name the member principals together with
//! the public keys that must sign access requests (selective distribution
//! of privileges, "CP = {P1|K1, P2|K2, P3|K3}").

use jaap_core::certs::{Certs, Validity};
use jaap_core::syntax::{GroupId, Message, Subject, Time};
use jaap_crypto::rsa::{RsaPublicKey, RsaSignature};
use jaap_crypto::shared::SharedPublicKey;

use crate::encoding::Encoder;
use crate::presented::PresentedCert;
use crate::{key_name, PkiError};

/// The subject of a threshold attribute certificate: named principals bound
/// to their public keys, with a threshold `m`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThresholdSubject {
    /// `(principal name, bound public key)` pairs.
    pub members: Vec<(String, RsaPublicKey)>,
    /// The threshold `m`.
    pub m: usize,
}

impl ThresholdSubject {
    /// Creates a threshold subject.
    ///
    /// # Errors
    ///
    /// [`PkiError::Malformed`] unless `1 <= m <= members.len()`.
    pub fn new(members: Vec<(String, RsaPublicKey)>, m: usize) -> Result<Self, PkiError> {
        if members.is_empty() || m == 0 || m > members.len() {
            return Err(PkiError::Malformed(format!(
                "threshold subject needs 1 <= m <= n, got m={m}, n={}",
                members.len()
            )));
        }
        Ok(ThresholdSubject { members, m })
    }

    /// The logic-level subject: `{P1|K1, …, Pn|Kn}_{m,n}`.
    #[must_use]
    pub(crate) fn to_logic(&self) -> Subject {
        Subject::threshold(
            self.members
                .iter()
                .map(|(name, key)| Subject::principal(name).bound(key_name(key)))
                .collect(),
            self.m,
        )
    }
}

/// A threshold attribute certificate, jointly signed by all member domains
/// with the AA's shared key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThresholdAttributeCertificate {
    /// Issuer name (the coalition AA).
    pub issuer: String,
    /// The threshold subject.
    pub subject: ThresholdSubject,
    /// The group whose membership is granted.
    pub group: GroupId,
    /// Validity period.
    pub validity: Validity,
    /// AA timestamp `t_AA`.
    pub timestamp: Time,
    /// Joint signature under the shared key.
    pub signature: RsaSignature,
}

impl ThresholdAttributeCertificate {
    /// The canonical signed bytes.
    #[must_use]
    pub fn body_bytes(
        issuer: &str,
        subject: &ThresholdSubject,
        group: &GroupId,
        validity: Validity,
        timestamp: Time,
    ) -> Vec<u8> {
        let mut e = Encoder::new("jaap-threshold-attribute-cert-v1");
        e.put_str(issuer)
            .put_str(group.as_str())
            .put_subject(subject)
            .put_validity(&validity)
            .put_i64(timestamp.0);
        e.finish()
    }

    /// Verifies the joint signature against the AA's shared public key.
    ///
    /// # Errors
    ///
    /// [`PkiError::BadSignature`] if verification fails.
    pub fn verify(&self, aa_key: &SharedPublicKey) -> Result<(), PkiError> {
        PresentedCert::Threshold(self).verify(aa_key.rsa(), None)
    }
}

/// A single-subject attribute certificate (`P|K ⇒ G`), also jointly signed
/// by the AA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeCertificate {
    /// Issuer name (the coalition AA).
    pub issuer: String,
    /// Subject name.
    pub subject: String,
    /// The key the privilege is selectively bound to.
    pub subject_key: RsaPublicKey,
    /// The group.
    pub group: GroupId,
    /// Validity period.
    pub validity: Validity,
    /// AA timestamp.
    pub timestamp: Time,
    /// Joint signature under the shared key.
    pub signature: RsaSignature,
}

impl AttributeCertificate {
    /// The canonical signed bytes.
    #[must_use]
    pub fn body_bytes(
        issuer: &str,
        subject: &str,
        subject_key: &RsaPublicKey,
        group: &GroupId,
        validity: Validity,
        timestamp: Time,
    ) -> Vec<u8> {
        let mut e = Encoder::new("jaap-attribute-cert-v1");
        e.put_str(issuer)
            .put_str(subject)
            .put_key(subject_key)
            .put_str(group.as_str())
            .put_validity(&validity)
            .put_i64(timestamp.0);
        e.finish()
    }
}

/// An attribute certificate for a *group of users owning a shared public
/// key* — the paper's "alternate mechanism" for distributing privileges
/// (§2.2): `CP|K_cp ⇒ G`, where access requests are jointly signed under
/// `K_cp` (axiom A37).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompoundAttributeCertificate {
    /// Issuer name (the coalition AA).
    pub issuer: String,
    /// Names of the group's member principals.
    pub member_names: Vec<String>,
    /// The group's shared public key (all members hold exponent shares).
    pub shared_key: RsaPublicKey,
    /// The group whose membership is granted.
    pub group: GroupId,
    /// Validity period.
    pub validity: Validity,
    /// AA timestamp.
    pub timestamp: Time,
    /// Joint signature of the AA's shareholders.
    pub signature: RsaSignature,
}

impl CompoundAttributeCertificate {
    /// The canonical signed bytes.
    #[must_use]
    pub fn body_bytes(
        issuer: &str,
        member_names: &[String],
        shared_key: &RsaPublicKey,
        group: &GroupId,
        validity: Validity,
        timestamp: Time,
    ) -> Vec<u8> {
        let mut e = Encoder::new("jaap-compound-attribute-cert-v1");
        e.put_str(issuer).put_str(group.as_str());
        e.put_list(member_names.len());
        for name in member_names {
            e.put_str(name);
        }
        e.put_key(shared_key)
            .put_validity(&validity)
            .put_i64(timestamp.0);
        e.finish()
    }

    /// Verifies the AA's joint signature.
    ///
    /// # Errors
    ///
    /// [`PkiError::BadSignature`] if verification fails.
    pub fn verify(&self, aa_key: &SharedPublicKey) -> Result<(), PkiError> {
        let body = Self::body_bytes(
            &self.issuer,
            &self.member_names,
            &self.shared_key,
            &self.group,
            self.validity,
            self.timestamp,
        );
        if aa_key.verify(&body, &self.signature) {
            Ok(())
        } else {
            Err(PkiError::BadSignature(format!(
                "compound attribute certificate for {} by {}",
                self.group, self.issuer
            )))
        }
    }

    /// The logic-level subject `{P1, …, Pn}|K_cp`.
    #[must_use]
    pub(crate) fn to_logic_subject(&self) -> Subject {
        Subject::compound(self.member_names.iter().map(Subject::principal).collect())
            .bound(key_name(&self.shared_key))
    }

    /// The idealized certificate: `⟨AA says_t (CP|K ⇒ [tb,te] G)⟩_{K_AA⁻¹}`.
    #[must_use]
    pub(crate) fn idealize(&self, aa_key: &SharedPublicKey) -> Message {
        Certs::attribute(
            self.issuer.as_str(),
            key_name(aa_key.rsa()),
            self.to_logic_subject(),
            self.group.clone(),
            self.timestamp,
            self.validity,
        )
    }
}

/// A revocation of a threshold attribute certificate, issued by a
/// revocation authority (§4.3 Message 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeRevocation {
    /// Issuer (the RA).
    pub issuer: String,
    /// The revoked subject.
    pub subject: ThresholdSubject,
    /// The group.
    pub group: GroupId,
    /// Revocation effective time `t'`.
    pub revoked_from: Time,
    /// RA timestamp.
    pub timestamp: Time,
    /// RA signature.
    pub signature: RsaSignature,
}

impl AttributeRevocation {
    /// The canonical signed bytes.
    #[must_use]
    pub(crate) fn body_bytes(
        issuer: &str,
        subject: &ThresholdSubject,
        group: &GroupId,
        revoked_from: Time,
        timestamp: Time,
    ) -> Vec<u8> {
        let mut e = Encoder::new("jaap-attribute-revocation-v1");
        e.put_str(issuer)
            .put_str(group.as_str())
            .put_subject(subject)
            .put_i64(revoked_from.0)
            .put_i64(timestamp.0);
        e.finish()
    }

    /// Verifies the RA signature.
    ///
    /// # Errors
    ///
    /// [`PkiError::BadSignature`] if verification fails.
    pub(crate) fn verify(&self, ra_key: &RsaPublicKey) -> Result<(), PkiError> {
        let body = Self::body_bytes(
            &self.issuer,
            &self.subject,
            &self.group,
            self.revoked_from,
            self.timestamp,
        );
        if ra_key.verify(&body, &self.signature) {
            Ok(())
        } else {
            Err(PkiError::BadSignature(format!(
                "attribute revocation for {} by {}",
                self.group, self.issuer
            )))
        }
    }

    /// The idealized revocation:
    /// `⟨RA says_tRA ¬(CP_{m,n} ⇒ t' G)⟩_{K_RA⁻¹}`.
    #[must_use]
    pub(crate) fn idealize(&self, ra_key: &RsaPublicKey) -> Message {
        Certs::attribute_revocation(
            self.issuer.as_str(),
            key_name(ra_key),
            self.subject.to_logic(),
            self.group.clone(),
            self.timestamp,
            self.revoked_from,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaap_crypto::joint;
    use jaap_crypto::rsa::RsaKeyPair;
    use jaap_crypto::shared::SharedRsaKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn subject(rng: &mut StdRng, m: usize) -> ThresholdSubject {
        let members = (1..=3)
            .map(|i| {
                let kp = RsaKeyPair::generate(rng, 128).expect("user key");
                (format!("User_D{i}"), kp.public().clone())
            })
            .collect();
        ThresholdSubject::new(members, m).expect("subject")
    }

    #[test]
    fn threshold_subject_validation() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = subject(&mut rng, 2);
        assert!(ThresholdSubject::new(s.members.clone(), 0).is_err());
        assert!(ThresholdSubject::new(s.members.clone(), 4).is_err());
        assert!(ThresholdSubject::new(Vec::new(), 1).is_err());
    }

    #[test]
    fn to_logic_produces_bound_threshold() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = subject(&mut rng, 2);
        let logic = s.to_logic();
        assert_eq!(logic.required_signers(), 2);
        assert_eq!(logic.arity(), 3);
        assert!(logic.members().iter().all(|m| m.binding_key().is_some()));
    }

    #[test]
    fn jointly_signed_threshold_ac_verifies() {
        let mut rng = StdRng::seed_from_u64(3);
        let (aa_key, shares) = SharedRsaKey::deal(&mut rng, 192, 3).expect("deal");
        let s = subject(&mut rng, 2);
        let group = GroupId::new("G_write");
        let validity = Validity::new(Time(0), Time(100));
        let body = ThresholdAttributeCertificate::body_bytes("AA", &s, &group, validity, Time(6));
        let signature = joint::sign_locally(&aa_key, &shares, &body).expect("joint sign");
        let cert = ThresholdAttributeCertificate {
            issuer: "AA".into(),
            subject: s,
            group,
            validity,
            timestamp: Time(6),
            signature,
        };
        assert!(cert.verify(&aa_key).is_ok());

        // Tampering with the group breaks the signature.
        let mut bad = cert.clone();
        bad.group = GroupId::new("G_read");
        assert!(bad.verify(&aa_key).is_err());
    }

    #[test]
    fn idealized_threshold_ac_parses_in_core() {
        let mut rng = StdRng::seed_from_u64(4);
        let (aa_key, shares) = SharedRsaKey::deal(&mut rng, 192, 3).expect("deal");
        let s = subject(&mut rng, 2);
        let group = GroupId::new("G_write");
        let validity = Validity::new(Time(0), Time(100));
        let body = ThresholdAttributeCertificate::body_bytes("AA", &s, &group, validity, Time(6));
        let signature = joint::sign_locally(&aa_key, &shares, &body).expect("joint sign");
        let cert = ThresholdAttributeCertificate {
            issuer: "AA".into(),
            subject: s,
            group,
            validity,
            timestamp: Time(6),
            signature,
        };
        let msg = PresentedCert::Threshold(&cert).idealize(aa_key.rsa());
        let view = jaap_core::certs::CertView::parse(&msg).expect("parse");
        assert!(matches!(
            view,
            jaap_core::certs::CertView::Attribute { negated: false, .. }
        ));
    }
}
