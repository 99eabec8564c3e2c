//! Joint access requests: assembly by a requestor with co-signers
//! (Figure 2(b)).
//!
//! > "When multiple principals send a joint access request, all principals
//! > making the request must sign the request before it is sent to the
//! > server. The principal requesting the operation is called the requestor
//! > while the principal(s) attesting the request is called the
//! > co-signer(s). The requestor generates a request, obtains all necessary
//! > signatures from the co-signers and then sends the request to Server P."

use jaap_core::protocol::Operation;
use jaap_core::syntax::Time;
use jaap_crypto::rsa::RsaSignature;
use jaap_pki::attribute::{AttributeCertificate, ThresholdAttributeCertificate};
use jaap_pki::encoding::Encoder;
use jaap_pki::{IdentityCertificate, PresentedCert};

use crate::domain::UserAgent;
use crate::CoalitionError;

/// The canonical bytes a signer signs for an access statement:
/// `Pᵢ says_{tᵢ} "op" O`.
#[must_use]
pub fn statement_bytes(principal: &str, op: &Operation, at: Time) -> Vec<u8> {
    let mut e = Encoder::new("jaap-access-statement-v1");
    e.put_str(principal)
        .put_str(&op.action)
        .put_str(&op.object)
        .put_i64(at.0);
    e.finish()
}

/// One signer's component of a joint request (Message 1-4 on the wire).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireStatement {
    /// The claimed signer.
    pub principal: String,
    /// Statement time on the signer's clock.
    pub at: Time,
    /// Signature over [`statement_bytes`].
    pub signature: RsaSignature,
}

/// A joint access request as sent to the coalition server.
#[derive(Debug, Clone)]
pub struct JointAccessRequest {
    /// Identity certificates of the signers (Messages 1-1, 1-2).
    pub identity_certs: Vec<IdentityCertificate>,
    /// Threshold attribute certificates (Message 1-3).
    pub threshold_certs: Vec<ThresholdAttributeCertificate>,
    /// Single-subject attribute certificates (if any).
    pub attribute_certs: Vec<AttributeCertificate>,
    /// The signed statements (Message 1-4).
    pub statements: Vec<WireStatement>,
    /// The operation.
    pub operation: Operation,
    /// Submission time `t1`.
    pub at: Time,
    /// Optional wall-clock deadline budget. The server checks remaining
    /// budget at phase boundaries (pre-crypto, pre-logic, pre-commit) and
    /// sheds the request with a typed `DeadlineExceeded` outcome once it
    /// expires — work the client has given up on is not worth finishing.
    /// Not part of `JointAccessRequest::digest`: the deadline is delivery
    /// metadata, not request identity, so a retry with a fresh budget still
    /// hits the replay window.
    pub deadline: Option<std::time::Instant>,
}

impl JointAccessRequest {
    /// Returns a copy of this request carrying `deadline`.
    #[must_use]
    pub fn with_deadline(mut self, deadline: std::time::Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The presented certificates in §4.3 order ([`presented`]).
    pub(crate) fn presented_certs(&self) -> impl Iterator<Item = PresentedCert<'_>> {
        presented(
            &self.identity_certs,
            &self.threshold_certs,
            &self.attribute_certs,
        )
    }
}

/// Presented certificates in §4.3 order: identity certificates (step 1),
/// then threshold and single-subject attribute certificates (step 2). The
/// crypto stage, the batch pre-pass and recovery all walk this one order.
pub(crate) fn presented<'a>(
    identity: &'a [IdentityCertificate],
    threshold: &'a [ThresholdAttributeCertificate],
    attribute: &'a [AttributeCertificate],
) -> impl Iterator<Item = PresentedCert<'a>> {
    identity
        .iter()
        .map(PresentedCert::Identity)
        .chain(threshold.iter().map(PresentedCert::Threshold))
        .chain(attribute.iter().map(PresentedCert::Attribute))
}

impl JointAccessRequest {
    /// A canonical digest of the request, used by the server to recognize
    /// duplicate deliveries (network-level retries) of the *same* request.
    /// Two requests with the same signers, statements, operation, and
    /// submission time digest identically; a fresh request — even for the
    /// same operation — differs in `at` or in its signatures.
    #[must_use]
    pub(crate) fn digest(&self) -> String {
        let mut e = Encoder::new("jaap-joint-request-v1");
        e.put_str(&self.operation.action)
            .put_str(&self.operation.object)
            .put_i64(self.at.0)
            .put_list(self.statements.len());
        for stmt in &self.statements {
            e.put_str(&stmt.principal)
                .put_i64(stmt.at.0)
                .put_str(&stmt.signature.value().to_hex());
        }
        jaap_crypto::sha256::hex(&jaap_crypto::Sha256::digest(&e.finish()))
    }
}

/// Assembles a joint access request: the first user is the requestor, the
/// rest are co-signers; everyone signs the same statement bytes.
///
/// # Errors
///
/// Propagates signing failures.
pub fn assemble(
    signers: &[&UserAgent],
    identity_certs: Vec<IdentityCertificate>,
    threshold_certs: Vec<ThresholdAttributeCertificate>,
    attribute_certs: Vec<AttributeCertificate>,
    operation: Operation,
    at: Time,
) -> Result<JointAccessRequest, CoalitionError> {
    let mut statements = Vec::with_capacity(signers.len());
    for user in signers {
        let body = statement_bytes(user.name(), &operation, at);
        let signature = user.sign(&body)?;
        statements.push(WireStatement {
            principal: user.name().to_string(),
            at,
            signature,
        });
    }
    Ok(JointAccessRequest {
        identity_certs,
        threshold_certs,
        attribute_certs,
        statements,
        operation,
        at,
        deadline: None,
    })
}

/// Wire messages for networked request assembly.
#[derive(Debug, Clone)]
pub(crate) enum AssemblyMsg {
    /// Requestor → co-signer: "please attest this operation at this time".
    CosignRequest {
        /// The operation to attest.
        action: String,
        /// The object.
        object: String,
        /// Statement time.
        at: Time,
    },
    /// Co-signer → requestor: the attestation.
    Attestation {
        /// The co-signer's name.
        principal: String,
        /// Signature over [`statement_bytes`].
        signature: RsaSignature,
    },
}

/// Assembles a joint request over the simulated network, exactly as the
/// paper narrates Figure 2(b): "The requestor generates a request, obtains
/// all necessary signatures from the co-signers and then sends the request
/// to Server P." Party 0 of `signers` is the requestor.
///
/// # Errors
///
/// Propagates signing and network failures.
pub fn assemble_over_network(
    signers: &[&UserAgent],
    identity_certs: Vec<IdentityCertificate>,
    threshold_certs: Vec<ThresholdAttributeCertificate>,
    operation: Operation,
    at: Time,
) -> Result<(JointAccessRequest, jaap_net::NetworkStats), CoalitionError> {
    use jaap_net::{Network, PartyId};
    if signers.is_empty() {
        return Err(CoalitionError::Config("no signers".into()));
    }
    let n = signers.len();
    let (endpoints, handle) = Network::<AssemblyMsg>::mesh(n.max(2));
    let op = operation.clone();
    let results = jaap_net::run_parties(endpoints, |mut ep| {
        let me = ep.id().0;
        if me >= n {
            return Ok(None); // padding party on the 1-signer degenerate mesh
        }
        let user = signers[me];
        if me == 0 {
            // Requestor: sign own statement, collect attestations.
            let body = statement_bytes(user.name(), &op, at);
            let mut statements = vec![WireStatement {
                principal: user.name().to_string(),
                at,
                signature: user.sign(&body)?,
            }];
            for j in 1..n {
                ep.send(
                    PartyId(j),
                    AssemblyMsg::CosignRequest {
                        action: op.action.clone(),
                        object: op.object.clone(),
                        at,
                    },
                )
                .map_err(|e| CoalitionError::Config(format!("network: {e}")))?;
            }
            for j in 1..n {
                let msg = ep
                    .recv_from(PartyId(j))
                    .map_err(|e| CoalitionError::Config(format!("network: {e}")))?;
                let AssemblyMsg::Attestation {
                    principal,
                    signature,
                } = msg
                else {
                    return Err(CoalitionError::Config("expected an attestation".into()));
                };
                statements.push(WireStatement {
                    principal,
                    at,
                    signature,
                });
            }
            Ok(Some(statements))
        } else {
            // Co-signer: attest the exact operation the requestor named.
            let msg = ep
                .recv_from(PartyId(0))
                .map_err(|e| CoalitionError::Config(format!("network: {e}")))?;
            let AssemblyMsg::CosignRequest { action, object, at } = msg else {
                return Err(CoalitionError::Config("expected a cosign request".into()));
            };
            let op = Operation::new(action, object);
            let body = statement_bytes(user.name(), &op, at);
            let signature = user.sign(&body)?;
            ep.send(
                PartyId(0),
                AssemblyMsg::Attestation {
                    principal: user.name().to_string(),
                    signature,
                },
            )
            .map_err(|e| CoalitionError::Config(format!("network: {e}")))?;
            Ok(None)
        }
    });
    let mut statements = None;
    for r in results {
        if let Some(s) = r? {
            statements = Some(s);
        }
    }
    let statements =
        statements.ok_or_else(|| CoalitionError::Config("requestor produced nothing".into()))?;
    Ok((
        JointAccessRequest {
            identity_certs,
            threshold_certs,
            attribute_certs: vec![],
            statements,
            operation,
            at,
            deadline: None,
        },
        handle.stats(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaap_bigint::Nat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn statement_bytes_domain_separated_and_positional() {
        let op = Operation::new("write", "Object O");
        let a = statement_bytes("U1", &op, Time(3));
        let b = statement_bytes("U2", &op, Time(3));
        let c = statement_bytes("U1", &op, Time(4));
        assert_ne!(a, b);
        assert_ne!(a, c);
        let op2 = Operation::new("read", "Object O");
        assert_ne!(a, statement_bytes("U1", &op2, Time(3)));
    }

    #[test]
    fn assembled_statements_verify_against_signer_keys() {
        let mut rng = StdRng::seed_from_u64(1);
        let u1 = UserAgent::new("U1", &mut rng, 192).expect("u1");
        let u2 = UserAgent::new("U2", &mut rng, 192).expect("u2");
        let op = Operation::new("write", "O");
        let req =
            assemble(&[&u1, &u2], vec![], vec![], vec![], op.clone(), Time(5)).expect("assemble");
        assert_eq!(req.statements.len(), 2);
        for (stmt, user) in req.statements.iter().zip([&u1, &u2]) {
            let body = statement_bytes(&stmt.principal, &op, stmt.at);
            assert!(user.public().verify(&body, &stmt.signature));
        }
    }

    #[test]
    fn networked_assembly_matches_local() {
        let mut rng = StdRng::seed_from_u64(3);
        let u1 = UserAgent::new("U1", &mut rng, 192).expect("u1");
        let u2 = UserAgent::new("U2", &mut rng, 192).expect("u2");
        let u3 = UserAgent::new("U3", &mut rng, 192).expect("u3");
        let op = Operation::new("write", "O");
        let (req, stats) =
            assemble_over_network(&[&u1, &u2, &u3], vec![], vec![], op.clone(), Time(7))
                .expect("assemble");
        // 2 cosign requests + 2 attestations.
        assert_eq!(stats.messages_sent, 4);
        assert_eq!(req.statements.len(), 3);
        for (stmt, user) in req.statements.iter().zip([&u1, &u2, &u3]) {
            let body = statement_bytes(&stmt.principal, &op, Time(7));
            assert!(
                user.public().verify(&body, &stmt.signature),
                "{}",
                stmt.principal
            );
        }
    }

    #[test]
    fn networked_assembly_single_signer() {
        let mut rng = StdRng::seed_from_u64(4);
        let u1 = UserAgent::new("U1", &mut rng, 192).expect("u1");
        let (req, _) =
            assemble_over_network(&[&u1], vec![], vec![], Operation::new("read", "O"), Time(7))
                .expect("assemble");
        assert_eq!(req.statements.len(), 1);
    }

    /// The replay digest is journaled and compared across restarts, so its
    /// rendering (the statements' signature hex, the digest hex) is pinned
    /// to a known answer: a 2048-bit signature, one whose top limb has
    /// leading zero nibbles, and a one-limb signature.
    #[test]
    fn digest_known_answer() {
        let wide = Nat::from_limbs(
            (1..=32u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect(),
        );
        let req = JointAccessRequest {
            identity_certs: vec![],
            threshold_certs: vec![],
            attribute_certs: vec![],
            statements: [
                ("User_D1", wide),
                ("User_D2", Nat::from_limbs(vec![0xdead_beef, 0x0000_0abc])),
                ("User_D3", Nat::from(7u64)),
            ]
            .into_iter()
            .map(|(principal, s)| WireStatement {
                principal: principal.to_string(),
                at: Time(41),
                signature: RsaSignature::from_value(s),
            })
            .collect(),
            operation: Operation::new("write", "Object O"),
            at: Time(42),
            deadline: None,
        };
        assert_eq!(
            req.digest(),
            "4f5df0bab9b74b96d3f502d891ac73845d8dcad4ac3e39df2a5c41c4b2ba72bd"
        );
    }

    #[test]
    fn cross_signer_signatures_do_not_verify() {
        let mut rng = StdRng::seed_from_u64(2);
        let u1 = UserAgent::new("U1", &mut rng, 192).expect("u1");
        let u2 = UserAgent::new("U2", &mut rng, 192).expect("u2");
        let op = Operation::new("write", "O");
        let req = assemble(&[&u1], vec![], vec![], vec![], op.clone(), Time(5)).expect("assemble");
        let body = statement_bytes("U1", &op, Time(5));
        assert!(!u2.public().verify(&body, &req.statements[0].signature));
    }
}
