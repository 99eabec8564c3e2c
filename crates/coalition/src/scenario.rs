//! One-call construction of the Figure 1 scenario and helpers that walk the
//! Figure 2 flows.

use jaap_core::certs::Validity;
use jaap_core::protocol::{Acl, Operation};
use jaap_core::syntax::{GroupId, Time};
use jaap_pki::attribute::{ThresholdAttributeCertificate, ThresholdSubject};
use jaap_pki::{IdentityCertificate, RevocationAuthority, TrustStore};
use rand::rngs::StdRng;
use rand::SeedableRng;

use jaap_crypto::session::SessionConfig;
use jaap_crypto::CryptoError;
use jaap_net::FaultPlan;
use jaap_obs::MetricsRegistry;

use crate::aa::{CoalitionAa, SigningMode};
use crate::domain::{Domain, UserAgent};
use crate::request::{assemble, JointAccessRequest};
use crate::server::{CoalitionServer, ServerDecision};
use crate::CoalitionError;

/// The object name used by the scenario.
pub const OBJECT_O: &str = "Object O";

/// Builder for a full coalition scenario.
#[derive(Debug, Clone)]
pub struct CoalitionBuilder {
    domains: Vec<String>,
    key_bits: usize,
    seed: u64,
    write_threshold: usize,
    distributed_keygen: bool,
    validity_end: i64,
}

impl Default for CoalitionBuilder {
    fn default() -> Self {
        CoalitionBuilder {
            domains: vec!["D1".into(), "D2".into(), "D3".into()],
            key_bits: 192,
            seed: 0,
            write_threshold: 2,
            distributed_keygen: false,
            validity_end: 1_000,
        }
    }
}

impl CoalitionBuilder {
    /// Starts a builder with the paper's defaults (3 domains, 2-of-3
    /// writes, dealer-based AA key).
    #[must_use]
    pub fn new() -> Self {
        CoalitionBuilder::default()
    }

    /// Sets the member domains.
    pub fn domains(&mut self, names: &[&str]) -> &mut Self {
        self.domains = names.iter().map(|s| (*s).to_string()).collect();
        self
    }

    /// RSA modulus size for all keys.
    pub fn key_bits(&mut self, bits: usize) -> &mut Self {
        self.key_bits = bits;
        self
    }

    /// Deterministic seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// The write threshold `m` (paper: 2-of-3).
    pub fn write_threshold(&mut self, m: usize) -> &mut Self {
        self.write_threshold = m;
        self
    }

    /// Use the full Boneh–Franklin distributed key generation for the AA
    /// instead of the dealer fast path.
    pub fn distributed_keygen(&mut self, on: bool) -> &mut Self {
        self.distributed_keygen = on;
        self
    }

    /// Certificate validity horizon.
    pub fn validity_end(&mut self, t: i64) -> &mut Self {
        self.validity_end = t;
        self
    }

    /// Builds the coalition: domains + CAs + users, the shared-key AA, the
    /// RA, the server with `Object O`, and the write/read threshold ACs.
    ///
    /// # Errors
    ///
    /// Propagates crypto/PKI failures and configuration errors.
    pub fn build(&self) -> Result<Coalition, CoalitionError> {
        if self.domains.len() < 2 {
            return Err(CoalitionError::Config(
                "a coalition needs at least two domains".into(),
            ));
        }
        if self.write_threshold == 0 || self.write_threshold > self.domains.len() {
            return Err(CoalitionError::Config(format!(
                "write threshold {} out of range for {} domains",
                self.write_threshold,
                self.domains.len()
            )));
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let validity = Validity::new(Time(0), Time(self.validity_end));

        // Domains, CAs and one user per domain.
        let mut domains = Vec::with_capacity(self.domains.len());
        let mut identity_certs = Vec::new();
        for name in &self.domains {
            let mut d = Domain::new(name, &mut rng, self.key_bits)?;
            let cert = d.register_user(
                format!("User_{name}"),
                &mut rng,
                self.key_bits,
                validity,
                Time(1),
            )?;
            identity_certs.push(cert);
            domains.push(d);
        }

        // The coalition AA (Case II: shared key).
        let aa = if self.distributed_keygen {
            CoalitionAa::establish_distributed(
                "AA",
                self.domains.clone(),
                self.key_bits.max(64),
                self.seed,
            )?
            .0
        } else {
            CoalitionAa::establish_dealt("AA", self.domains.clone(), &mut rng, self.key_bits)?
        };
        let ra = RevocationAuthority::new("RA", "AA", &mut rng, self.key_bits)?;

        // The server's trust store (its initial beliefs).
        let mut store = TrustStore::new(Time(0));
        for d in &domains {
            store.trust_ca(d.ca().name(), d.ca().public().clone());
        }
        store.trust_aa("AA", aa.public().clone(), self.domains.clone());
        store.trust_ra("RA", "AA", ra.public().clone());

        let mut server = CoalitionServer::new("P", store);
        let mut acl = Acl::new();
        acl.permit(GroupId::new("G_write"), "write");
        acl.permit(GroupId::new("G_read"), "read");
        server
            .add_object(OBJECT_O, acl)
            .expect("fresh server has no journal to fail");
        server
            .advance_clock(Time(10))
            .expect("fresh server clock starts at zero");

        // Threshold attribute certificates (Figure 2(a)/(c)).
        let members: Vec<(String, jaap_crypto::rsa::RsaPublicKey)> = domains
            .iter()
            .map(|d| {
                let u = &d.users()[0];
                (u.name().to_string(), u.public().clone())
            })
            .collect();
        let write_subject = ThresholdSubject::new(members.clone(), self.write_threshold)?;
        let read_subject = ThresholdSubject::new(members, 1)?;
        let write_ac = aa.issue_threshold_certificate(
            write_subject,
            GroupId::new("G_write"),
            validity,
            Time(6),
        )?;
        let read_ac = aa.issue_threshold_certificate(
            read_subject,
            GroupId::new("G_read"),
            validity,
            Time(6),
        )?;

        Ok(Coalition {
            domains,
            aa,
            ra,
            server,
            identity_certs,
            write_ac,
            read_ac,
            validity,
            key_bits: self.key_bits,
            metrics: None,
            rng,
        })
    }
}

/// A fully constructed Figure 1 coalition.
#[derive(Debug)]
pub struct Coalition {
    pub(crate) domains: Vec<Domain>,
    pub(crate) aa: CoalitionAa,
    pub(crate) ra: RevocationAuthority,
    pub(crate) server: CoalitionServer,
    pub(crate) identity_certs: Vec<IdentityCertificate>,
    pub(crate) write_ac: ThresholdAttributeCertificate,
    pub(crate) read_ac: ThresholdAttributeCertificate,
    pub(crate) validity: Validity,
    pub(crate) key_bits: usize,
    pub(crate) metrics: Option<MetricsRegistry>,
    pub(crate) rng: StdRng,
}

impl Coalition {
    /// The coalition server.
    #[must_use]
    pub fn server(&self) -> &CoalitionServer {
        &self.server
    }

    /// Mutable server access.
    #[must_use]
    pub fn server_mut(&mut self) -> &mut CoalitionServer {
        &mut self.server
    }

    /// Consumes the coalition and returns its server — for wrapping in the
    /// concurrent/sharded front-end ([`crate::concurrent::ConcurrentServer`],
    /// [`crate::shard::ShardedCoalition`]). The signing-side artifacts
    /// (domains, AA, RA, certificates) are dropped, so build any requests
    /// and revocations first.
    #[must_use]
    pub fn into_server(self) -> CoalitionServer {
        self.server
    }

    /// The coalition AA.
    #[must_use]
    pub fn aa(&self) -> &CoalitionAa {
        &self.aa
    }

    /// Mutable AA access (for share refresh experiments).
    #[must_use]
    pub fn aa_mut(&mut self) -> &mut CoalitionAa {
        &mut self.aa
    }

    /// The revocation authority.
    #[must_use]
    pub fn ra(&self) -> &RevocationAuthority {
        &self.ra
    }

    /// The member domains.
    #[must_use]
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// The standing write threshold AC.
    #[must_use]
    pub fn write_ac(&self) -> &ThresholdAttributeCertificate {
        &self.write_ac
    }

    /// The standing read threshold AC.
    #[must_use]
    pub fn read_ac(&self) -> &ThresholdAttributeCertificate {
        &self.read_ac
    }

    /// Finds a user by name across domains.
    #[must_use]
    pub fn user(&self, name: &str) -> Option<&UserAgent> {
        self.domains.iter().find_map(|d| d.user(name))
    }

    /// The identity certificate for a user.
    #[must_use]
    pub fn identity_cert(&self, user: &str) -> Option<&IdentityCertificate> {
        self.identity_certs.iter().find(|c| c.subject == user)
    }

    /// Advances the server clock.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::Config`] if `to` is before the current time.
    pub fn advance_time(&mut self, to: Time) -> Result<(), CoalitionError> {
        self.server.advance_clock(to)
    }

    /// Enables/disables the server's certificate-verification cache
    /// (delegates to [`CoalitionServer::set_verification_cache`]).
    ///
    /// # Errors
    ///
    /// Propagates the server's journal fail-stop error.
    pub fn set_verification_cache(&mut self, on: bool) -> Result<(), CoalitionError> {
        self.server.set_verification_cache(on)
    }

    /// Enables/disables the engine's derivation memo (delegates to
    /// [`CoalitionServer::set_derivation_memo`]; off by default).
    ///
    /// # Errors
    ///
    /// Propagates the server's journal fail-stop error.
    pub fn set_derivation_memo(&mut self, on: bool) -> Result<(), CoalitionError> {
        self.server.set_derivation_memo(on)
    }

    /// Enables/disables fixed-base precomputation in the server's crypto
    /// phase (delegates to [`CoalitionServer::set_crypto_precomp`]; off by
    /// default).
    ///
    /// # Errors
    ///
    /// Propagates the server's journal fail-stop error.
    pub fn set_crypto_precomp(&mut self, on: bool) -> Result<(), CoalitionError> {
        self.server.set_crypto_precomp(on)
    }

    /// Enables/disables batch signature verification for
    /// [`CoalitionServer::verify_batch`] (delegates to
    /// [`CoalitionServer::set_batch_verify`]; off by default).
    ///
    /// # Errors
    ///
    /// Propagates the server's journal fail-stop error.
    pub fn set_batch_verify(&mut self, on: bool) -> Result<(), CoalitionError> {
        self.server.set_batch_verify(on)
    }

    /// Turns observability on for the whole coalition: one shared
    /// [`MetricsRegistry`] wired through the server's §4.3 pipeline
    /// ([`CoalitionServer::set_metrics`]) and the AA's networked signing
    /// sessions ([`CoalitionAa::set_metrics`]). Returns a handle to the
    /// registry (cheap clone — snapshots and JSON export read live state).
    pub fn enable_metrics(&mut self) -> MetricsRegistry {
        let registry = self
            .metrics
            .get_or_insert_with(MetricsRegistry::new)
            .clone();
        self.server.set_metrics(Some(&registry));
        self.aa.set_metrics(Some(registry.clone()));
        registry
    }

    /// Turns observability back off; the request path returns to doing no
    /// metrics work at all.
    pub fn disable_metrics(&mut self) {
        self.metrics = None;
        self.server.set_metrics(None);
        self.aa.set_metrics(None);
    }

    /// The coalition's metrics registry, when enabled.
    #[must_use]
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }

    /// A fresh trust store carrying the coalition's current trust anchors
    /// (domain CAs, the AA, the RA) — exactly what a rebuilt or recovered
    /// server must be configured with, since trust anchors are
    /// configuration rather than journaled state.
    #[must_use]
    pub fn trust_store(&self) -> TrustStore {
        let mut store = TrustStore::new(Time(0));
        for d in &self.domains {
            store.trust_ca(d.ca().name(), d.ca().public().clone());
        }
        let names: Vec<String> = self.domains.iter().map(|d| d.name().to_string()).collect();
        store.trust_aa("AA", self.aa.public().clone(), names);
        store.trust_ra("RA", "AA", self.ra.public().clone());
        store
    }

    /// Replaces the server with a fresh one built from the coalition's
    /// existing trust material: a new trust store, an empty audit log,
    /// `Object O` back at version 0, and the clock preserved. No keys are
    /// regenerated, so this is cheap; benchmarks use it to sweep server
    /// configurations (cache on/off, worker counts) against identical
    /// certificates and requests.
    pub fn reset_server(&mut self) {
        let now = self.server.now();
        let mut server = CoalitionServer::new("P", self.trust_store());
        let mut acl = Acl::new();
        acl.permit(GroupId::new("G_write"), "write");
        acl.permit(GroupId::new("G_read"), "read");
        server
            .add_object(OBJECT_O, acl)
            .expect("fresh server has no journal to fail");
        server
            .advance_clock(now)
            .expect("fresh server clock starts at zero");
        if let Some(registry) = &self.metrics {
            server.set_metrics(Some(registry));
        }
        self.server = server;
    }

    /// Sets the fault model the AA's networked signing sessions run under
    /// (delegates to [`CoalitionAa::set_fault_plan`]).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.aa.set_fault_plan(plan);
    }

    /// Sets the timeout/retry policy of the AA's networked signing sessions
    /// (delegates to [`CoalitionAa::set_session_config`]).
    pub fn set_session_config(&mut self, config: SessionConfig) {
        self.aa.set_session_config(config);
    }

    /// Builds and submits a Figure 2(b) **write** request signed by
    /// `signers`.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::Config`] for unknown users; signing failures.
    pub fn request_write(&mut self, signers: &[&str]) -> Result<ServerDecision, CoalitionError> {
        self.request_operation(signers, Operation::new("write", OBJECT_O))
    }

    /// Builds and submits a Figure 2(d) **read** request.
    ///
    /// # Errors
    ///
    /// See [`Coalition::request_write`].
    pub fn request_read(&mut self, signers: &[&str]) -> Result<ServerDecision, CoalitionError> {
        self.request_operation(signers, Operation::new("read", OBJECT_O))
    }

    /// Builds and submits a request for an arbitrary operation.
    ///
    /// # Errors
    ///
    /// See [`Coalition::request_write`].
    pub fn request_operation(
        &mut self,
        signers: &[&str],
        operation: Operation,
    ) -> Result<ServerDecision, CoalitionError> {
        if self.aa.signing_mode() == SigningMode::Networked {
            return self.request_operation_networked(signers, operation);
        }
        let request = self.build_request(signers, operation)?;
        Ok(self.server.handle_request(&request))
    }

    /// The networked request path (E6): the member domains countersign the
    /// standing threshold AC afresh over the simulated (faulty) network
    /// before the request is submitted. When the signing session cannot
    /// assemble its quorum, the coalition **degrades gracefully**: instead
    /// of an error or a hang, the server records an unavailability denial
    /// carrying the session's retry trace in the audit log, and the caller
    /// gets a [`ServerDecision`] with `unavailable` set.
    fn request_operation_networked(
        &mut self,
        signers: &[&str],
        operation: Operation,
    ) -> Result<ServerDecision, CoalitionError> {
        let ac = if operation.action == "read" {
            self.read_ac.clone()
        } else {
            self.write_ac.clone()
        };
        let body = ThresholdAttributeCertificate::body_bytes(
            self.aa.name(),
            &ac.subject,
            &ac.group,
            ac.validity,
            ac.timestamp,
        );
        let (outcome, report) = self.aa.joint_sign_with_report(&body);
        match outcome {
            Ok(signature) => {
                let fresh = ThresholdAttributeCertificate { signature, ..ac };
                let request = self.build_request_with_ac(signers, operation, fresh)?;
                Ok(self.server.handle_request(&request))
            }
            Err(CoalitionError::Crypto(e @ CryptoError::QuorumUnreachable { .. })) => {
                let trace = report.summary();
                Ok(self.server.record_unavailable(
                    signers.iter().map(|s| (*s).to_string()).collect(),
                    operation,
                    format!("coalition signing unavailable: {e}"),
                    (!trace.is_empty()).then_some(trace),
                ))
            }
            Err(e) => Err(e),
        }
    }

    /// Assembles (but does not submit) a joint request — used by tests
    /// that want to tamper with it first.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::Config`] for unknown users; signing failures.
    pub fn build_request(
        &self,
        signers: &[&str],
        operation: Operation,
    ) -> Result<JointAccessRequest, CoalitionError> {
        let ac = if operation.action == "read" {
            self.read_ac.clone()
        } else {
            self.write_ac.clone()
        };
        self.build_request_with_ac(signers, operation, ac)
    }

    /// Assembles a joint request around a specific threshold AC (the
    /// networked path countersigns the AC at request time).
    fn build_request_with_ac(
        &self,
        signers: &[&str],
        operation: Operation,
        ac: ThresholdAttributeCertificate,
    ) -> Result<JointAccessRequest, CoalitionError> {
        let users: Vec<&UserAgent> = signers
            .iter()
            .map(|name| {
                self.user(name)
                    .ok_or_else(|| CoalitionError::Config(format!("unknown user {name}")))
            })
            .collect::<Result<_, _>>()?;
        let identity_certs = signers
            .iter()
            .map(|name| {
                self.identity_cert(name)
                    .cloned()
                    .ok_or_else(|| CoalitionError::Config(format!("no identity cert for {name}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        assemble(
            &users,
            identity_certs,
            vec![ac],
            vec![],
            operation,
            self.server.now(),
        )
    }

    /// Issues (jointly) a threshold AC granting `m`-of-all-users the
    /// authority to modify `Object O`'s policy object — the paper's
    /// "threshold attribute certificates are distributed that grant certain
    /// coalition users the authority to modify policy objects" (§4.3).
    ///
    /// # Errors
    ///
    /// Propagates signing failures.
    pub fn issue_policy_admin_ac(
        &mut self,
        m: usize,
    ) -> Result<ThresholdAttributeCertificate, CoalitionError> {
        let members: Vec<(String, jaap_crypto::rsa::RsaPublicKey)> = self
            .domains
            .iter()
            .map(|d| {
                let u = &d.users()[0];
                (u.name().to_string(), u.public().clone())
            })
            .collect();
        let subject = ThresholdSubject::new(members, m)?;
        self.aa.issue_threshold_certificate(
            subject,
            GroupId::new("G_policy_admin"),
            self.validity,
            self.server.now(),
        )
    }

    /// Submits a joint **set-policy** request; when granted, the server
    /// replaces `Object O`'s ACL with `new_acl` (joint administration of
    /// the policy object itself).
    ///
    /// The request needs the standing ACL to contain
    /// `(G_policy_admin, set-policy)` — bootstrap that via an initial
    /// consented [`Coalition::request_set_policy`]-free `set_acl`, or by
    /// including the entry from day one; the quickstart scenario includes
    /// it when `policy_admin_ac` is issued.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::Config`] for unknown users; signing failures.
    pub fn request_set_policy(
        &mut self,
        signers: &[&str],
        admin_ac: &ThresholdAttributeCertificate,
        new_acl: Acl,
    ) -> Result<ServerDecision, CoalitionError> {
        let operation = Operation::new("set-policy", OBJECT_O);
        let users: Vec<&UserAgent> = signers
            .iter()
            .map(|name| {
                self.user(name)
                    .ok_or_else(|| CoalitionError::Config(format!("unknown user {name}")))
            })
            .collect::<Result<_, _>>()?;
        let identity_certs = signers
            .iter()
            .map(|name| {
                self.identity_cert(name)
                    .cloned()
                    .ok_or_else(|| CoalitionError::Config(format!("no identity cert for {name}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let request = assemble(
            &users,
            identity_certs,
            vec![admin_ac.clone()],
            vec![],
            operation,
            self.server.now(),
        )?;
        let decision = self.server.handle_request(&request);
        if decision.granted {
            self.server.set_acl(OBJECT_O, new_acl)?;
        }
        Ok(decision)
    }

    /// Adds `(group, action)` to `Object O`'s standing ACL (administrative
    /// bootstrap; runtime changes should go through
    /// [`Coalition::request_set_policy`]).
    ///
    /// # Errors
    ///
    /// [`CoalitionError::Config`] for an unknown object.
    pub fn permit_on_object(&mut self, group: GroupId, action: &str) -> Result<(), CoalitionError> {
        let mut acl = self
            .server
            .object(OBJECT_O)
            .map(|o| o.acl.clone())
            .ok_or_else(|| CoalitionError::Config("no Object O".into()))?;
        acl.permit(group, action);
        self.server.set_acl(OBJECT_O, acl)
    }

    /// Proactively refreshes the AA's private-key shares over the network
    /// (Wu et al. \[27\]); the public key and all certificates stay valid.
    ///
    /// # Errors
    ///
    /// Propagates refresh failures.
    pub fn refresh_aa_shares(&mut self, seed: u64) -> Result<(), CoalitionError> {
        let (refreshed, _stats) = jaap_crypto::refresh::refresh_over_network_observed(
            self.aa.shares(),
            seed,
            FaultPlan::reliable(),
            self.metrics.as_ref(),
        )?;
        for (slot, new) in self.aa.shares_mut().iter_mut().zip(refreshed) {
            *slot = new;
        }
        Ok(())
    }

    /// Has the RA revoke the write AC effective `from`, and the server
    /// admit the revocation.
    ///
    /// # Errors
    ///
    /// Propagates signing/admission failures.
    pub fn revoke_write_ac(&mut self, from: Time) -> Result<(), CoalitionError> {
        let rev = self.ra.revoke_attribute(
            &self.write_ac.subject,
            self.write_ac.group.clone(),
            from,
            from,
        )?;
        self.server.admit_attribute_revocation(&rev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_parameters() {
        assert!(matches!(
            CoalitionBuilder::new().domains(&["D1"]).build(),
            Err(CoalitionError::Config(_))
        ));
        assert!(matches!(
            CoalitionBuilder::new().write_threshold(5).build(),
            Err(CoalitionError::Config(_))
        ));
    }

    #[test]
    fn figure1_scenario_constructs() {
        let c = CoalitionBuilder::new()
            .seed(5)
            .key_bits(192)
            .build()
            .expect("build");
        assert_eq!(c.domains().len(), 3);
        assert!(c.user("User_D1").is_some());
        assert!(c.user("User_D9").is_none());
        assert!(c.server().object(OBJECT_O).is_some());
        assert!(c.write_ac().verify(c.aa().public()).is_ok());
        assert!(c.read_ac().verify(c.aa().public()).is_ok());
    }

    #[test]
    fn read_needs_one_signer_write_needs_two() {
        let mut c = CoalitionBuilder::new()
            .seed(6)
            .key_bits(192)
            .build()
            .expect("build");
        assert!(c.request_read(&["User_D3"]).expect("read").granted);
        assert!(!c.request_write(&["User_D3"]).expect("write-1").granted);
        assert!(
            c.request_write(&["User_D3", "User_D1"])
                .expect("write-2")
                .granted
        );
        assert!(
            c.request_write(&["User_D1", "User_D2", "User_D3"])
                .expect("write-3")
                .granted
        );
    }

    #[test]
    fn five_domain_coalition_with_3_of_5_writes() {
        let mut c = CoalitionBuilder::new()
            .domains(&["D1", "D2", "D3", "D4", "D5"])
            .write_threshold(3)
            .seed(7)
            .key_bits(192)
            .build()
            .expect("build");
        assert!(!c.request_write(&["User_D1", "User_D2"]).expect("2").granted);
        assert!(
            c.request_write(&["User_D1", "User_D3", "User_D5"])
                .expect("3")
                .granted
        );
    }

    #[test]
    fn revocation_flips_decision() {
        let mut c = CoalitionBuilder::new()
            .seed(8)
            .key_bits(192)
            .build()
            .expect("build");
        assert!(c.request_write(&["User_D1", "User_D2"]).expect("w").granted);
        c.advance_time(Time(20)).expect("clock");
        c.revoke_write_ac(Time(20)).expect("revoke");
        c.advance_time(Time(21)).expect("clock");
        assert!(
            !c.request_write(&["User_D1", "User_D2"])
                .expect("w2")
                .granted
        );
        // Reads are unaffected (separate AC).
        assert!(c.request_read(&["User_D1"]).expect("r").granted);
    }

    #[test]
    fn distributed_keygen_scenario_end_to_end() {
        let mut c = CoalitionBuilder::new()
            .seed(9)
            .key_bits(96)
            .distributed_keygen(true)
            .build()
            .expect("build");
        assert!(c.request_write(&["User_D1", "User_D2"]).expect("w").granted);
    }
}
