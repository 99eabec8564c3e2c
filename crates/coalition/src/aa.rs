//! The coalition Attribute Authority.
//!
//! Two implementations, mirroring §2.2:
//!
//! * [`CoalitionAa`] — **Case II**: the AA's private key is shared among
//!   the member domains ([`jaap_crypto::shared`]); every certificate it
//!   distributes is signed with the joint signature protocol, so *no*
//!   domain can unilaterally issue privileges.
//! * [`LockboxAa`] — **Case I baseline**: a conventional key pair held in a
//!   (software-simulated) hardware lockbox that only signs when presented
//!   with *all* operator passwords. The paper's attack surfaces are
//!   explicit methods: an external penetration of the single host, or a
//!   single privileged insider with maintenance access, exposes the key.

use jaap_core::certs::Validity;
use jaap_core::syntax::{GroupId, Time};
use jaap_crypto::joint;
use jaap_crypto::rsa::{RsaKeyPair, RsaSignature};
use jaap_crypto::session::{SessionConfig, SessionReport, SigningSession};
use jaap_crypto::shared::{KeyShare, SharedPublicKey, SharedRsaKey};
use jaap_net::FaultPlan;
use jaap_obs::MetricsRegistry;
use jaap_pki::attribute::{AttributeCertificate, ThresholdAttributeCertificate, ThresholdSubject};
use rand::RngCore;

use crate::CoalitionError;

/// How the AA applies joint signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SigningMode {
    /// Combine shares in-process (fast path for tests/benches).
    #[default]
    Local,
    /// Run the §3.2 requestor/co-signer protocol over the simulated
    /// network.
    Networked,
}

/// The Case II coalition AA: a shared public key whose private-exponent
/// shares are held by the member domains.
#[derive(Debug, Clone)]
pub struct CoalitionAa {
    name: String,
    public: SharedPublicKey,
    /// Per-domain shares, indexed in domain order. In a real deployment
    /// each share lives inside its domain; the struct holds them together
    /// because the simulation *is* all the domains.
    shares: Vec<KeyShare>,
    domains: Vec<String>,
    mode: SigningMode,
    /// Fault model applied to networked signing sessions.
    fault_plan: FaultPlan,
    /// Timeout/retry policy of networked signing sessions.
    session_config: SessionConfig,
    /// When set, networked signing sessions record round latencies,
    /// retries/backoff, failovers and per-link network outcomes here.
    metrics: Option<MetricsRegistry>,
}

impl CoalitionAa {
    /// Establishes the AA with a dealer-based key split (fast path).
    ///
    /// # Errors
    ///
    /// Propagates key-generation failures.
    pub fn establish_dealt(
        name: impl Into<String>,
        domains: Vec<String>,
        rng: &mut dyn RngCore,
        bits: usize,
    ) -> Result<Self, CoalitionError> {
        let (public, shares) = SharedRsaKey::deal(rng, bits, domains.len())?;
        Ok(CoalitionAa {
            name: name.into(),
            public,
            shares,
            domains,
            mode: SigningMode::Local,
            fault_plan: FaultPlan::reliable(),
            session_config: SessionConfig::default(),
            metrics: None,
        })
    }

    /// Establishes the AA by running the full Boneh–Franklin distributed
    /// key generation among the domains ("without a trusted server",
    /// Requirement II).
    ///
    /// # Errors
    ///
    /// Propagates protocol failures.
    pub(crate) fn establish_distributed(
        name: impl Into<String>,
        domains: Vec<String>,
        bits: usize,
        seed: u64,
    ) -> Result<(Self, jaap_crypto::shared::KeygenStats), CoalitionError> {
        let (public, shares, stats) = SharedRsaKey::generate(bits, domains.len(), seed)?;
        Ok((
            CoalitionAa {
                name: name.into(),
                public,
                shares,
                domains,
                mode: SigningMode::Local,
                fault_plan: FaultPlan::reliable(),
                session_config: SessionConfig::default(),
                metrics: None,
            },
            stats,
        ))
    }

    /// Selects how joint signatures are applied.
    pub fn set_signing_mode(&mut self, mode: SigningMode) {
        self.mode = mode;
    }

    /// The current signing mode.
    #[must_use]
    pub(crate) fn signing_mode(&self) -> SigningMode {
        self.mode
    }

    /// Sets the fault model applied to networked signing sessions.
    pub(crate) fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
    }

    /// Sets the timeout/retry policy of networked signing sessions.
    pub(crate) fn set_session_config(&mut self, config: SessionConfig) {
        self.session_config = config;
    }

    /// Attaches (or detaches, with `None`) the registry networked signing
    /// sessions report into.
    pub(crate) fn set_metrics(&mut self, metrics: Option<MetricsRegistry>) {
        self.metrics = metrics;
    }

    /// The AA's name.
    #[must_use]
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// The shared public key.
    #[must_use]
    pub fn public(&self) -> &SharedPublicKey {
        &self.public
    }

    /// The member domains (shareholders).
    #[must_use]
    pub fn domains(&self) -> &[String] {
        &self.domains
    }

    /// One domain's key share (for refresh / collusion experiments).
    #[must_use]
    pub fn share_of(&self, domain: &str) -> Option<&KeyShare> {
        self.domains
            .iter()
            .position(|d| d == domain)
            .and_then(|i| self.shares.get(i))
    }

    /// All shares (simulation-only accessor).
    #[must_use]
    pub fn shares(&self) -> &[KeyShare] {
        &self.shares
    }

    /// Mutable access for proactive refresh.
    #[must_use]
    pub fn shares_mut(&mut self) -> &mut [KeyShare] {
        &mut self.shares
    }

    /// Applies the joint signature of all domains to `body`.
    ///
    /// # Errors
    ///
    /// Propagates joint-signing failures; in [`SigningMode::Networked`] this
    /// includes [`jaap_crypto::CryptoError::QuorumUnreachable`] when the
    /// configured fault plan keeps a co-signer silent past the retry budget.
    pub fn joint_sign(&self, body: &[u8]) -> Result<RsaSignature, CoalitionError> {
        self.joint_sign_with_report(body).0
    }

    /// Like [`CoalitionAa::joint_sign`], but also returns the
    /// [`SessionReport`] — populated in [`SigningMode::Networked`], default
    /// in [`SigningMode::Local`] — so callers can audit retries and
    /// failovers even when signing fails.
    pub(crate) fn joint_sign_with_report(
        &self,
        body: &[u8],
    ) -> (Result<RsaSignature, CoalitionError>, SessionReport) {
        match self.mode {
            SigningMode::Local => (
                joint::sign_locally(&self.public, &self.shares, body).map_err(CoalitionError::from),
                SessionReport::default(),
            ),
            SigningMode::Networked => {
                let (outcome, report, _stats) = SigningSession::run_compound_observed(
                    &self.public,
                    &self.shares,
                    0,
                    body,
                    self.fault_plan.clone(),
                    &self.session_config,
                    self.metrics.as_ref(),
                );
                (outcome.map_err(CoalitionError::from), report)
            }
        }
    }

    /// Issues a threshold attribute certificate, jointly signed by all
    /// member domains (Requirement III: consensus on privilege
    /// distribution).
    ///
    /// # Errors
    ///
    /// Propagates signing failures.
    pub fn issue_threshold_certificate(
        &self,
        subject: ThresholdSubject,
        group: GroupId,
        validity: Validity,
        timestamp: Time,
    ) -> Result<ThresholdAttributeCertificate, CoalitionError> {
        let body = ThresholdAttributeCertificate::body_bytes(
            &self.name, &subject, &group, validity, timestamp,
        );
        let signature = self.joint_sign(&body)?;
        Ok(ThresholdAttributeCertificate {
            issuer: self.name.clone(),
            subject,
            group,
            validity,
            timestamp,
            signature,
        })
    }

    /// Issues a single-subject attribute certificate (still jointly
    /// signed).
    ///
    /// # Errors
    ///
    /// Propagates signing failures.
    pub fn issue_attribute_certificate(
        &self,
        subject: impl Into<String>,
        subject_key: &jaap_crypto::rsa::RsaPublicKey,
        group: GroupId,
        validity: Validity,
        timestamp: Time,
    ) -> Result<AttributeCertificate, CoalitionError> {
        let subject = subject.into();
        let body = AttributeCertificate::body_bytes(
            &self.name,
            &subject,
            subject_key,
            &group,
            validity,
            timestamp,
        );
        let signature = self.joint_sign(&body)?;
        Ok(AttributeCertificate {
            issuer: self.name.clone(),
            subject,
            subject_key: subject_key.clone(),
            group,
            validity,
            timestamp,
            signature,
        })
    }

    /// A *unilateral* issuance attempt by one domain: signs with only that
    /// domain's share. Returns the forged certificate so tests can confirm
    /// it does **not** verify — the executable form of Requirement III.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::Config`] for an unknown domain.
    pub fn unilateral_issue_attempt(
        &self,
        domain: &str,
        subject: ThresholdSubject,
        group: GroupId,
        validity: Validity,
        timestamp: Time,
    ) -> Result<ThresholdAttributeCertificate, CoalitionError> {
        let share = self
            .share_of(domain)
            .ok_or_else(|| CoalitionError::Config(format!("unknown domain {domain}")))?;
        let body = ThresholdAttributeCertificate::body_bytes(
            &self.name, &subject, &group, validity, timestamp,
        );
        let partial = share.sign_share(&body)?;
        Ok(ThresholdAttributeCertificate {
            issuer: self.name.clone(),
            subject,
            group,
            validity,
            timestamp,
            signature: RsaSignature::from_value(partial),
        })
    }
}

/// The Case I baseline: a conventional AA key inside a simulated hardware
/// lockbox.
#[derive(Debug)]
pub struct LockboxAa {
    keypair: RsaKeyPair,
    /// Operator credentials: all must be presented for a signing operation.
    operators: Vec<(String, String)>,
}

impl LockboxAa {
    /// Creates the lockbox AA with one operator password per domain.
    ///
    /// # Errors
    ///
    /// Propagates key-generation failures.
    pub fn establish(
        operators: Vec<(String, String)>,
        rng: &mut dyn RngCore,
        bits: usize,
    ) -> Result<Self, CoalitionError> {
        Ok(LockboxAa {
            keypair: RsaKeyPair::generate(rng, bits)?,
            operators,
        })
    }

    /// The conventional public key.
    #[must_use]
    pub fn public(&self) -> &jaap_crypto::rsa::RsaPublicKey {
        self.keypair.public()
    }

    /// Signs `body` iff *all* operator credentials are presented — the
    /// "joint cryptographic request" of Case I.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::Config`] if any operator credential is missing or
    /// wrong.
    pub fn sign_with_credentials(
        &self,
        body: &[u8],
        presented: &[(String, String)],
    ) -> Result<RsaSignature, CoalitionError> {
        for (op, pw) in &self.operators {
            let ok = presented.iter().any(|(o, p)| o == op && p == pw);
            if !ok {
                return Err(CoalitionError::Config(format!(
                    "lockbox refuses: missing or wrong credential for operator {op}"
                )));
            }
        }
        Ok(self.keypair.sign(body)?)
    }

    /// **Attack surface**: external penetration of the AA host. The paper:
    /// "compromise of coalition AA's private key by external penetrations
    /// would result in the AA being a single point of trust failure."
    /// Returns the whole key pair — one compromise, full signing power.
    #[must_use]
    pub fn external_penetration(&self) -> RsaKeyPair {
        self.keypair.clone()
    }

    /// **Attack surface**: a privileged insider "who has access at the
    /// coalition AA for maintenance purposes". Any single legitimate
    /// operator suffices.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::Config`] if the credential is not a valid
    /// operator credential.
    pub fn insider_extraction(
        &self,
        operator: &str,
        password: &str,
    ) -> Result<RsaKeyPair, CoalitionError> {
        if self
            .operators
            .iter()
            .any(|(o, p)| o == operator && p == password)
        {
            Ok(self.keypair.clone())
        } else {
            Err(CoalitionError::Config("not a valid operator".into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn domains() -> Vec<String> {
        vec!["D1".into(), "D2".into(), "D3".into()]
    }

    fn subject(rng: &mut StdRng) -> ThresholdSubject {
        let members = (1..=3)
            .map(|i| {
                let kp = RsaKeyPair::generate(rng, 128).expect("key");
                (format!("User_D{i}"), kp.public().clone())
            })
            .collect();
        ThresholdSubject::new(members, 2).expect("subject")
    }

    #[test]
    fn jointly_issued_certificate_verifies() {
        let mut rng = StdRng::seed_from_u64(1);
        let aa = CoalitionAa::establish_dealt("AA", domains(), &mut rng, 192).expect("aa");
        let cert = aa
            .issue_threshold_certificate(
                subject(&mut rng),
                GroupId::new("G_write"),
                Validity::new(Time(0), Time(100)),
                Time(5),
            )
            .expect("issue");
        assert!(cert.verify(aa.public()).is_ok());
    }

    #[test]
    fn unilateral_issuance_does_not_verify() {
        // Requirement III, executable: one domain's share alone cannot
        // produce a valid AA signature.
        let mut rng = StdRng::seed_from_u64(2);
        let aa = CoalitionAa::establish_dealt("AA", domains(), &mut rng, 192).expect("aa");
        let forged = aa
            .unilateral_issue_attempt(
                "D1",
                subject(&mut rng),
                GroupId::new("G_write"),
                Validity::new(Time(0), Time(100)),
                Time(5),
            )
            .expect("attempt");
        assert!(forged.verify(aa.public()).is_err());
    }

    #[test]
    fn networked_signing_mode_matches_local() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut aa = CoalitionAa::establish_dealt("AA", domains(), &mut rng, 192).expect("aa");
        let local = aa.joint_sign(b"body").expect("local");
        aa.set_signing_mode(SigningMode::Networked);
        let networked = aa.joint_sign(b"body").expect("networked");
        assert_eq!(local, networked);
    }

    #[test]
    fn distributed_establishment_works() {
        let (aa, stats) = CoalitionAa::establish_distributed("AA", domains(), 64, 42).expect("bf");
        assert!(stats.candidates_tried >= 1);
        let sig = aa.joint_sign(b"hello").expect("sign");
        assert!(aa.public().verify(b"hello", &sig));
    }

    #[test]
    fn share_lookup_by_domain() {
        let mut rng = StdRng::seed_from_u64(4);
        let aa = CoalitionAa::establish_dealt("AA", domains(), &mut rng, 192).expect("aa");
        assert!(aa.share_of("D2").is_some());
        assert!(aa.share_of("D9").is_none());
        assert_eq!(aa.shares().len(), 3);
    }
}
