//! Member domains: each runs its own identity CA and registers users
//! (Requirement I — "each autonomous domain will typically have its own
//! identity certificate authority for distributing and revoking identity
//! certificates to users registered in that domain").

use jaap_core::certs::Validity;
use jaap_core::syntax::Time;
use jaap_crypto::rsa::{RsaKeyPair, RsaPublicKey, RsaSignature};
use jaap_pki::{CertificateAuthority, IdentityCertificate};
use rand::RngCore;

use crate::CoalitionError;

/// A coalition user: a principal with a signing key pair, registered in
/// exactly one domain.
#[derive(Debug, Clone)]
pub struct UserAgent {
    name: String,
    keypair: RsaKeyPair,
}

impl UserAgent {
    /// Creates a user with a fresh key pair.
    ///
    /// # Errors
    ///
    /// Propagates key-generation failures.
    pub(crate) fn new(
        name: impl Into<String>,
        rng: &mut dyn RngCore,
        bits: usize,
    ) -> Result<Self, CoalitionError> {
        Ok(UserAgent {
            name: name.into(),
            keypair: RsaKeyPair::generate(rng, bits)?,
        })
    }

    /// The user's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The user's public key.
    #[must_use]
    pub fn public(&self) -> &RsaPublicKey {
        self.keypair.public()
    }

    /// Signs canonical bytes (used for access-request statements).
    ///
    /// # Errors
    ///
    /// Propagates signing failures.
    pub(crate) fn sign(&self, body: &[u8]) -> Result<RsaSignature, CoalitionError> {
        Ok(self.keypair.sign(body)?)
    }
}

/// A member domain: a name, an identity CA, and registered users.
#[derive(Debug)]
pub struct Domain {
    name: String,
    ca: CertificateAuthority,
    users: Vec<UserAgent>,
}

impl Domain {
    /// Creates a domain with a fresh CA.
    ///
    /// # Errors
    ///
    /// Propagates key-generation failures.
    pub(crate) fn new(
        name: impl Into<String>,
        rng: &mut dyn RngCore,
        bits: usize,
    ) -> Result<Self, CoalitionError> {
        let name = name.into();
        let ca = CertificateAuthority::new(format!("CA_{name}"), rng, bits)
            .map_err(CoalitionError::Crypto)?;
        Ok(Domain {
            name,
            ca,
            users: Vec::new(),
        })
    }

    /// The domain name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The domain's identity CA.
    #[must_use]
    pub fn ca(&self) -> &CertificateAuthority {
        &self.ca
    }

    /// Registers a user and issues them an identity certificate.
    ///
    /// # Errors
    ///
    /// Propagates key-generation and signing failures.
    pub(crate) fn register_user(
        &mut self,
        name: impl Into<String>,
        rng: &mut dyn RngCore,
        bits: usize,
        validity: Validity,
        now: Time,
    ) -> Result<IdentityCertificate, CoalitionError> {
        let user = UserAgent::new(name, rng, bits)?;
        let cert = self
            .ca
            .issue_identity(user.name(), user.public(), validity, now)?;
        self.users.push(user);
        Ok(cert)
    }

    /// Looks up a registered user.
    #[must_use]
    pub(crate) fn user(&self, name: &str) -> Option<&UserAgent> {
        self.users.iter().find(|u| u.name() == name)
    }

    /// All registered users.
    #[must_use]
    pub fn users(&self) -> &[UserAgent] {
        &self.users
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn domain_registers_users_with_certificates() {
        let mut r = rng();
        let mut d = Domain::new("D1", &mut r, 192).expect("domain");
        let cert = d
            .register_user(
                "User_D1",
                &mut r,
                192,
                Validity::new(Time(0), Time(100)),
                Time(1),
            )
            .expect("register");
        assert_eq!(cert.issuer, "CA_D1");
        assert_eq!(cert.subject, "User_D1");
        assert!(cert.verify(d.ca().public()).is_ok());
        assert!(d.user("User_D1").is_some());
        assert!(d.user("Nobody").is_none());
        assert_eq!(d.users().len(), 1);
    }

    #[test]
    fn user_signs_verifiably() {
        let mut r = rng();
        let u = UserAgent::new("U", &mut r, 192).expect("user");
        let sig = u.sign(b"request").expect("sign");
        assert!(u.public().verify(b"request", &sig));
    }
}
