//! The verifier's trust store: trusted verification keys, and the bridge
//! from cryptographic verification to logical idealization.
//!
//! A coalition server configures a [`TrustStore`] with the per-domain CA
//! keys, the coalition AA's shared public key, and any revocation-authority
//! keys. The store then offers:
//!
//! * [`TrustStore::assumptions`] — the engine's initial beliefs
//!   (Statements 1–11 of Appendix E) derived from the trusted keys;
//! * [`TrustStore::idealize`] and the other `idealize_*` — verify a
//!   byte-level certificate's signature and, only on success, produce the
//!   idealized message the logic engine consumes.
//!   This is the boundary where "crypto says the signature is valid"
//!   becomes "`P received ⟨… ⟩_{K⁻¹}`" in the logic.

use std::sync::Arc;

use jaap_core::engine::TrustAssumptions;
use jaap_core::syntax::{Message, Subject, Time};
use jaap_crypto::precomp::VerifierPrecomp;
use jaap_crypto::rsa::RsaPublicKey;
use jaap_crypto::shared::SharedPublicKey;

use crate::attribute::AttributeRevocation;
use crate::identity::IdentityRevocation;
use crate::presented::PresentedCert;
use crate::{key_name, PkiError};

/// Trusted verification keys for a coalition server.
#[derive(Debug, Clone)]
pub struct TrustStore {
    t_star: Time,
    cas: Vec<(String, RsaPublicKey)>,
    aa: Option<AaEntry>,
    ras: Vec<(String, String, RsaPublicKey)>,
    /// Shared verifier precomputation (DESIGN §5h). Lives *inside* the
    /// store so a decision snapshot's trust-store `Arc` carries its
    /// tables with it: a trust-store swap or key rotation hashes to new
    /// `(N, e)` entries and can never serve a stale table. Clones share
    /// the cache (keys are pure functions of the key material, so
    /// sharing across stores is always sound).
    precomp: Arc<VerifierPrecomp>,
}

#[derive(Debug, Clone)]
struct AaEntry {
    name: String,
    key: SharedPublicKey,
    domains: Vec<String>,
}

impl TrustStore {
    /// Creates an empty trust store anchored at `t_star`.
    #[must_use]
    pub fn new(t_star: Time) -> Self {
        TrustStore {
            t_star,
            cas: Vec::new(),
            aa: None,
            ras: Vec::new(),
            precomp: Arc::new(VerifierPrecomp::new()),
        }
    }

    /// The store's shared verifier precomputation cache.
    #[must_use]
    pub fn precomp(&self) -> &Arc<VerifierPrecomp> {
        &self.precomp
    }

    /// Trusts a domain CA for identity certificates.
    pub fn trust_ca(&mut self, name: impl Into<String>, key: RsaPublicKey) -> &mut Self {
        self.cas.push((name.into(), key));
        self
    }

    /// Trusts the coalition AA: its shared public key is owned n-of-n by
    /// the member `domains` (Statement 1).
    pub fn trust_aa(
        &mut self,
        name: impl Into<String>,
        key: SharedPublicKey,
        domains: Vec<String>,
    ) -> &mut Self {
        self.aa = Some(AaEntry {
            name: name.into(),
            key,
            domains,
        });
        self
    }

    /// Trusts a revocation authority acting for `on_behalf_of`.
    pub fn trust_ra(
        &mut self,
        name: impl Into<String>,
        on_behalf_of: impl Into<String>,
        key: RsaPublicKey,
    ) -> &mut Self {
        self.ras.push((name.into(), on_behalf_of.into(), key));
        self
    }

    /// The AA's shared public key, if configured.
    #[must_use]
    pub fn aa_key(&self) -> Option<&SharedPublicKey> {
        self.aa.as_ref().map(|e| &e.key)
    }

    /// The CA key for `name`, if trusted.
    #[must_use]
    pub(crate) fn ca_key(&self, name: &str) -> Option<&RsaPublicKey> {
        self.cas.iter().find(|(n, _)| n == name).map(|(_, k)| k)
    }

    /// Builds the engine's initial beliefs (Statements 1–11).
    #[must_use]
    pub fn assumptions(&self) -> TrustAssumptions {
        let mut a = TrustAssumptions::new(self.t_star);
        for (name, key) in &self.cas {
            a.own_key(key_name(key), Subject::principal(name));
            a.identity_authority(name.as_str());
        }
        if let Some(aa) = &self.aa {
            let n = aa.domains.len();
            let cp = Subject::threshold(aa.domains.iter().map(Subject::principal).collect(), n);
            // Statement 1: K_AA ⇒ CP_{n,n}; plus the paper's reading
            // convenience "we say that AA signs messages with K_AA as well".
            a.own_key(key_name(aa.key.rsa()), cp);
            a.own_key(key_name(aa.key.rsa()), Subject::principal(&aa.name));
            a.group_authority(aa.name.as_str());
        }
        for (ra, behalf, key) in &self.ras {
            a.own_key(key_name(key), Subject::principal(ra));
            a.revocation_authority(ra.as_str(), behalf.as_str());
        }
        a
    }

    /// The trusted key `cert`'s issuer signs with: the named domain CA's
    /// for an identity certificate, the coalition AA's for an attribute
    /// certificate naming the AA.
    ///
    /// # Errors
    ///
    /// [`PkiError::UnknownIssuer`] if the named issuer is not trusted.
    pub fn issuer_key(&self, cert: PresentedCert<'_>) -> Result<&RsaPublicKey, PkiError> {
        let key = match cert {
            PresentedCert::Identity(c) => self.ca_key(&c.issuer),
            PresentedCert::Threshold(_) | PresentedCert::Attribute(_) => self
                .aa
                .as_ref()
                .filter(|e| e.name == cert.issuer())
                .map(|e| e.key.rsa()),
        };
        key.ok_or_else(|| PkiError::UnknownIssuer(cert.issuer().to_string()))
    }

    /// Verifies and idealizes a presented certificate: issuer resolution,
    /// the signature check, then idealization. `use_precomp` routes the
    /// check through the store's [`VerifierPrecomp`]; `sig_prechecked`
    /// skips it because the caller already verified the signature (a batch
    /// combined check). Issuer resolution runs either way, so an untrusted
    /// issuer is rejected identically on every path.
    ///
    /// # Errors
    ///
    /// [`PkiError::UnknownIssuer`] if the issuer is not trusted;
    /// [`PkiError::BadSignature`] on verification failure.
    pub fn idealize(
        &self,
        cert: PresentedCert<'_>,
        use_precomp: bool,
        sig_prechecked: bool,
    ) -> Result<Message, PkiError> {
        let key = self.issuer_key(cert)?;
        let precomp = use_precomp.then_some(self.precomp.as_ref());
        cert.verify_and_idealize(key, precomp, sig_prechecked)
    }

    /// Verifies and idealizes an identity revocation.
    ///
    /// # Errors
    ///
    /// See [`TrustStore::idealize`].
    pub fn idealize_identity_revocation(
        &self,
        rev: &IdentityRevocation,
    ) -> Result<Message, PkiError> {
        let key = self
            .ca_key(&rev.issuer)
            .ok_or_else(|| PkiError::UnknownIssuer(rev.issuer.clone()))?;
        rev.verify(key)?;
        Ok(rev.idealize(key))
    }

    /// Verifies and idealizes a compound (shared-user-key) attribute
    /// certificate, additionally returning the ownership binding the engine
    /// needs (`K_cp ⇒ CP`) so it can be registered as a trust assumption.
    ///
    /// # Errors
    ///
    /// See [`TrustStore::idealize`].
    pub fn idealize_compound_attribute(
        &self,
        cert: &crate::attribute::CompoundAttributeCertificate,
    ) -> Result<Message, PkiError> {
        let aa = self
            .aa
            .as_ref()
            .filter(|e| e.name == cert.issuer)
            .ok_or_else(|| PkiError::UnknownIssuer(cert.issuer.clone()))?;
        cert.verify(&aa.key)?;
        Ok(cert.idealize(&aa.key))
    }

    /// Verifies a CRL and idealizes each entry into the revocation messages
    /// the engine consumes.
    ///
    /// # Errors
    ///
    /// See [`TrustStore::idealize`].
    pub fn idealize_crl(&self, crl: &crate::crl::Crl) -> Result<Vec<Message>, PkiError> {
        let key = self
            .ras
            .iter()
            .find(|(n, _, _)| *n == crl.issuer)
            .map(|(_, _, k)| k)
            .ok_or_else(|| PkiError::UnknownIssuer(crl.issuer.clone()))?;
        crl.verify(key)?;
        Ok(crl
            .entries
            .iter()
            .map(|entry| {
                jaap_core::certs::Certs::attribute_revocation(
                    crl.issuer.as_str(),
                    crate::key_name(key),
                    entry.subject.to_logic(),
                    entry.group.clone(),
                    crl.timestamp,
                    entry.revoked_from,
                )
            })
            .collect())
    }

    /// Verifies and idealizes an attribute revocation from an RA.
    ///
    /// # Errors
    ///
    /// See [`TrustStore::idealize`].
    pub fn idealize_attribute_revocation(
        &self,
        rev: &AttributeRevocation,
    ) -> Result<Message, PkiError> {
        let key = self
            .ras
            .iter()
            .find(|(n, _, _)| *n == rev.issuer)
            .map(|(_, _, k)| k)
            .ok_or_else(|| PkiError::UnknownIssuer(rev.issuer.clone()))?;
        rev.verify(key)?;
        Ok(rev.idealize(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::{ThresholdAttributeCertificate, ThresholdSubject};
    use crate::authority::{CertificateAuthority, RevocationAuthority};
    use jaap_core::certs::Validity;
    use jaap_core::syntax::GroupId;
    use jaap_crypto::joint;
    use jaap_crypto::rsa::RsaKeyPair;
    use jaap_crypto::shared::SharedRsaKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        store: TrustStore,
        ca: CertificateAuthority,
        ra: RevocationAuthority,
        aa_key: jaap_crypto::shared::SharedPublicKey,
        shares: Vec<jaap_crypto::shared::KeyShare>,
        user: RsaKeyPair,
    }

    fn fixture() -> Fixture {
        let mut rng = StdRng::seed_from_u64(7);
        let ca = CertificateAuthority::new("CA1", &mut rng, 192).expect("ca");
        let ra = RevocationAuthority::new("RA", &mut rng, 192).expect("ra");
        let (aa_key, shares) = SharedRsaKey::deal(&mut rng, 192, 3).expect("deal");
        let user = RsaKeyPair::generate(&mut rng, 192).expect("user");
        let mut store = TrustStore::new(Time(0));
        store
            .trust_ca("CA1", ca.public().clone())
            .trust_aa(
                "AA",
                aa_key.clone(),
                vec!["D1".into(), "D2".into(), "D3".into()],
            )
            .trust_ra("RA", "AA", ra.public().clone());
        Fixture {
            store,
            ca,
            ra,
            aa_key,
            shares,
            user,
        }
    }

    #[test]
    fn assumptions_cover_statements_1_to_11() {
        let f = fixture();
        let a = f.store.assumptions();
        // K_AA is owned by both the domain compound and the AA alias.
        let aa_owners = a.owners_of(&key_name(f.aa_key.rsa()));
        assert_eq!(aa_owners.len(), 2);
        assert!(aa_owners
            .iter()
            .any(|s| matches!(s, Subject::Threshold { .. })));
        // CA key registered.
        assert_eq!(a.owners_of(&key_name(f.ca.public())).len(), 1);
    }

    #[test]
    fn verified_identity_idealizes() {
        let f = fixture();
        let cert =
            f.ca.issue_identity(
                "User_D1",
                f.user.public(),
                Validity::new(Time(0), Time(100)),
                Time(5),
            )
            .expect("issue");
        let msg = f
            .store
            .idealize(PresentedCert::Identity(&cert), false, false)
            .expect("idealize");
        assert!(jaap_core::certs::CertView::parse(&msg).is_some());
    }

    #[test]
    fn unknown_issuer_rejected() {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(8);
        let rogue = CertificateAuthority::new("RogueCA", &mut rng, 192).expect("rogue");
        let cert = rogue
            .issue_identity(
                "User_D1",
                f.user.public(),
                Validity::new(Time(0), Time(100)),
                Time(5),
            )
            .expect("issue");
        assert!(matches!(
            f.store
                .idealize(PresentedCert::Identity(&cert), false, false),
            Err(PkiError::UnknownIssuer(_))
        ));
    }

    #[test]
    fn forged_threshold_ac_rejected() {
        let f = fixture();
        let subject = ThresholdSubject::new(vec![("User_D1".into(), f.user.public().clone())], 1)
            .expect("subject");
        let validity = Validity::new(Time(0), Time(100));
        let body = ThresholdAttributeCertificate::body_bytes(
            "AA",
            &subject,
            &GroupId::new("G_write"),
            validity,
            Time(6),
        );
        // Signed with only 2 of 3 shares — combination fails, so forge a
        // garbage signature instead.
        let _ = &body;
        let cert = ThresholdAttributeCertificate {
            issuer: "AA".into(),
            subject,
            group: GroupId::new("G_write"),
            validity,
            timestamp: Time(6),
            signature: jaap_crypto::rsa::RsaSignature::from_value(jaap_bigint::Nat::from(12345u64)),
        };
        assert!(matches!(
            f.store
                .idealize(PresentedCert::Threshold(&cert), false, false),
            Err(PkiError::BadSignature(_))
        ));
    }

    #[test]
    fn properly_jointly_signed_ac_idealizes() {
        let f = fixture();
        let subject = ThresholdSubject::new(vec![("User_D1".into(), f.user.public().clone())], 1)
            .expect("subject");
        let validity = Validity::new(Time(0), Time(100));
        let body = ThresholdAttributeCertificate::body_bytes(
            "AA",
            &subject,
            &GroupId::new("G_write"),
            validity,
            Time(6),
        );
        let signature = joint::sign_locally(&f.aa_key, &f.shares, &body).expect("sign");
        let cert = ThresholdAttributeCertificate {
            issuer: "AA".into(),
            subject,
            group: GroupId::new("G_write"),
            validity,
            timestamp: Time(6),
            signature,
        };
        assert!(f
            .store
            .idealize(PresentedCert::Threshold(&cert), false, false)
            .is_ok());
    }

    #[test]
    fn ra_revocation_idealizes() {
        let f = fixture();
        let subject = ThresholdSubject::new(vec![("User_D1".into(), f.user.public().clone())], 1)
            .expect("subject");
        let rev =
            f.ra.revoke_attribute(&subject, GroupId::new("G_write"), Time(20), Time(20))
                .expect("revoke");
        let msg = f
            .store
            .idealize_attribute_revocation(&rev)
            .expect("idealize");
        let view = jaap_core::certs::CertView::parse(&msg).expect("parse");
        assert!(matches!(
            view,
            jaap_core::certs::CertView::Attribute { negated: true, .. }
        ));
    }
}
