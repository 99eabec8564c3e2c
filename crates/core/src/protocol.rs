//! The authorization protocol (§4.3 / Appendix E).
//!
//! Server `P` verifies an access request in the paper's four steps:
//!
//! 1. **Verify the signing keys** — admit the identity certificates,
//!    deriving `P believes (K_uᵢ ⇒ [tb,te],CAᵢ User_Dᵢ)` (statements
//!    12–17).
//! 2. **Establish group membership** — admit the (threshold) attribute
//!    certificate, deriving `P believes (CP′_{m,n} ⇒ [tb′,te′],AA G)`
//!    (statements 18–22).
//! 3. **Verify the signed request** — authenticate each signer's statement
//!    with A10 and combine them with the access-control axiom (A38 for
//!    thresholds, A35/A34 for single subjects), deriving
//!    `P believes (G says "op" O)` (statements 23–25).
//! 4. **Verify the ACL** — if the validity windows cover the request and
//!    `(G, op) ∈ ACL_O`, access is approved.

use core::fmt;
use std::sync::Arc;

use crate::axioms::Axiom;
use crate::derivation::{Derivation, Rule};
use crate::engine::{Belief, Engine};
use crate::syntax::{Formula, GroupId, KeyId, Message, PrincipalId, Subject, Time};
use crate::LogicError;

/// An operation on an object, e.g. `"write" Object O`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Operation {
    /// The action (`"read"`, `"write"`, `"set-policy"`, …).
    pub action: String,
    /// The object (`"Object O"`, an ACL name, …).
    pub object: String,
}

impl Operation {
    /// Creates an operation.
    #[must_use]
    pub fn new(action: impl Into<String>, object: impl Into<String>) -> Self {
        Operation {
            action: action.into(),
            object: object.into(),
        }
    }

    /// The canonical message payload for this operation (the paper's
    /// `"write" O`).
    #[must_use]
    pub fn payload(&self) -> Message {
        Message::data(format!("\"{}\" {}", self.action, self.object))
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{}\" {}", self.action, self.object)
    }
}

/// One signer's component of a joint access request (Message 1-4):
/// `⟨User_Dᵢ says_{tᵢ} "op" O⟩_{K_uᵢ⁻¹}`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SignedStatement {
    /// The claimed signer.
    pub(crate) principal: PrincipalId,
    /// The signing key.
    pub(crate) key: KeyId,
    /// Time of the statement on the signer's clock.
    pub(crate) at: Time,
    /// The signed message.
    pub message: Message,
}

impl SignedStatement {
    /// Builds the canonical signed statement for `op` by `principal` with
    /// `key` at time `t`.
    #[must_use]
    pub fn new(principal: impl Into<PrincipalId>, key: KeyId, op: &Operation, at: Time) -> Self {
        let principal = principal.into();
        let inner = Formula::says(Subject::Principal(principal.clone()), at, op.payload());
        SignedStatement {
            principal,
            key: key.clone(),
            at,
            message: Message::formula(inner).signed(key),
        }
    }
}

/// A joint access request, as assembled by the requestor (Figure 2(b)).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AccessRequest {
    /// Identity certificates for the signers (Messages 1-1, 1-2).
    pub identity_certs: Vec<Message>,
    /// Attribute certificates, usually one threshold AC (Message 1-3).
    pub attribute_certs: Vec<Message>,
    /// The signed request components (Message 1-4).
    pub signed_statements: Vec<SignedStatement>,
    /// The requested operation.
    pub operation: Operation,
    /// Submission time `t1`.
    pub at: Time,
}

/// One ACL expression `Eᵢ = (G, access permission)` (§4.3: "The ACL is a
/// simple disjunction of expressions").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AclEntry {
    /// The group.
    pub group: GroupId,
    /// The permitted action.
    pub action: String,
}

/// An object's ACL: a disjunction of `(group, permission)` expressions.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Acl {
    entries: Vec<AclEntry>,
}

impl Acl {
    /// An empty ACL (denies everything).
    #[must_use]
    pub fn new() -> Self {
        Acl::default()
    }

    /// Adds an entry.
    pub fn permit(&mut self, group: GroupId, action: impl Into<String>) -> &mut Self {
        self.entries.push(AclEntry {
            group,
            action: action.into(),
        });
        self
    }

    /// Groups permitted to perform `action`.
    #[must_use]
    pub(crate) fn groups_for(&self, action: &str) -> Vec<&GroupId> {
        self.entries
            .iter()
            .filter(|e| e.action == action)
            .map(|e| &e.group)
            .collect()
    }

    /// `true` if `(group, action)` is an entry.
    #[must_use]
    pub fn permits(&self, group: &GroupId, action: &str) -> bool {
        self.entries
            .iter()
            .any(|e| &e.group == group && e.action == action)
    }

    /// All entries.
    #[must_use]
    pub fn entries(&self) -> &[AclEntry] {
        &self.entries
    }
}

/// Why a request was denied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DenialReason {
    /// A certificate failed admission (step 1/2).
    CertificateRejected(String),
    /// No believed group membership authorizes the operation (step 2/4).
    NoAuthorizingMembership(String),
    /// Signed statements don't satisfy the membership structure (step 3).
    RequestNotProven(String),
}

impl fmt::Display for DenialReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DenialReason::CertificateRejected(m) => write!(f, "certificate rejected: {m}"),
            DenialReason::NoAuthorizingMembership(m) => {
                write!(f, "no authorizing membership: {m}")
            }
            DenialReason::RequestNotProven(m) => write!(f, "request not proven: {m}"),
        }
    }
}

/// The outcome of running the authorization protocol.
#[derive(Debug, Clone)]
pub struct AccessDecision {
    /// Whether access is approved.
    pub granted: bool,
    /// The denial reason when `granted` is false.
    pub reason: Option<DenialReason>,
    /// The full proof tree when granted (shared, so cloning a decision —
    /// e.g. replaying it from the derivation memo — is cheap).
    pub derivation: Option<Arc<Derivation>>,
    /// Axiom applications spent on this request (E8 cost metric).
    pub axiom_applications: usize,
}

impl AccessDecision {
    fn denied(reason: DenialReason, cost: usize) -> Self {
        AccessDecision {
            granted: false,
            reason: Some(reason),
            derivation: None,
            axiom_applications: cost,
        }
    }
}

/// Runs the four-step authorization protocol for `request` against `acl`.
///
/// ```
/// use jaap_core::prelude::*;
///
/// // Initial beliefs: one CA and the AA's shared key held 3-of-3.
/// let mut assumptions = TrustAssumptions::new(Time(0));
/// assumptions.own_key(KeyId::new("K_CA1"), Subject::principal("CA1"));
/// assumptions.identity_authority("CA1");
/// assumptions.own_key(
///     KeyId::new("K_AA"),
///     Subject::threshold(vec![
///         Subject::principal("D1"), Subject::principal("D2"), Subject::principal("D3"),
///     ], 3),
/// );
/// assumptions.group_authority("AA");
/// let mut engine = Engine::new("P", assumptions);
/// engine.advance_clock(Time(10)).expect("clock");
///
/// // A read request: identity cert + 1-of-3 threshold AC + one signature.
/// let op = Operation::new("read", "Object O");
/// let cp = Subject::threshold(
///     vec![Subject::principal("User_D1").bound(KeyId::new("K_u1"))], 1);
/// let request = AccessRequest {
///     identity_certs: vec![Certs::identity(
///         "CA1", KeyId::new("K_CA1"), KeyId::new("K_u1"), "User_D1",
///         Time(2), Validity::new(Time(0), Time(100)))],
///     attribute_certs: vec![Certs::threshold_attribute(
///         "AA", KeyId::new("K_AA"), cp, GroupId::new("G_read"),
///         Time(3), Validity::new(Time(0), Time(100)))],
///     signed_statements: vec![SignedStatement::new(
///         "User_D1", KeyId::new("K_u1"), &op, Time(10))],
///     operation: op,
///     at: Time(10),
/// };
/// let mut acl = Acl::new();
/// acl.permit(GroupId::new("G_read"), "read");
/// let decision = jaap_core::protocol::authorize(&mut engine, &request, &acl);
/// assert!(decision.granted);
/// ```
///
/// Certificates are admitted into `engine` (idempotently re-deriving
/// beliefs); the decision reflects the engine's beliefs *including any
/// previously admitted revocations* (believe-until-revoked).
///
/// When the engine's derivation memo is on
/// ([`Engine::set_derivation_memo`]), a request whose certificates,
/// statements, operation, ACL, clock and belief epoch all equal a
/// previous run's replays that decision without re-running axiom search.
/// Any belief change (certificate admission, revocation/CRL,
/// freshness-window move) bumps the epoch, and every key carries the
/// epoch it was stored under, so a replayed decision is always one the
/// current belief state would re-derive verbatim.
#[must_use]
pub fn authorize(engine: &mut Engine, request: &AccessRequest, acl: &Acl) -> AccessDecision {
    if !engine.memo_enabled() {
        return authorize_uncached(engine, request, acl);
    }
    let key = engine.memo_key(request, acl);
    if let Some(hit) = engine.memo_lookup(&key) {
        return hit;
    }
    let decision = authorize_uncached(engine, request, acl);
    // Store under the *post-run* epoch: the first run of a request admits
    // its certificates, which bumps the epoch; once the beliefs are in,
    // re-running the same request is a no-op on the belief state and the
    // key is stable.
    engine.memo_store(key, decision.clone());
    decision
}

/// The un-memoized four-step protocol (the reference path; `authorize`
/// delegates here on a memo miss or when the memo is off).
#[must_use]
pub(crate) fn authorize_uncached(
    engine: &mut Engine,
    request: &AccessRequest,
    acl: &Acl,
) -> AccessDecision {
    let cost_before = engine.axiom_applications();

    // Step 1: verify the signing keys (admit identity certificates).
    for cert in &request.identity_certs {
        if let Err(e) = engine.admit_certificate(cert) {
            return AccessDecision::denied(
                DenialReason::CertificateRejected(format!("identity certificate: {e}")),
                engine.axiom_applications() - cost_before,
            );
        }
    }

    // Step 2: establish group membership (admit attribute certificates).
    for cert in &request.attribute_certs {
        if let Err(e) = engine.admit_certificate(cert) {
            return AccessDecision::denied(
                DenialReason::CertificateRejected(format!("attribute certificate: {e}")),
                engine.axiom_applications() - cost_before,
            );
        }
    }

    // Step 3: verify the signed request components.
    let mut signers = Vec::new();
    for stmt in &request.signed_statements {
        match engine.authenticate_signed_statement(&stmt.message, stmt.at) {
            Ok(auth) => signers.push(auth),
            Err(e) => {
                return AccessDecision::denied(
                    DenialReason::RequestNotProven(format!("signer {}: {e}", stmt.principal)),
                    engine.axiom_applications() - cost_before,
                )
            }
        }
    }

    // Steps 3b+4: find an ACL group whose believed membership the signers
    // satisfy, with validity covering both t1 and the decision time.
    let candidates = acl.groups_for(&request.operation.action);
    if candidates.is_empty() {
        return AccessDecision::denied(
            DenialReason::NoAuthorizingMembership(format!(
                "no ACL entry permits \"{}\"",
                request.operation.action
            )),
            engine.axiom_applications() - cost_before,
        );
    }
    let mut last_err = String::new();
    for group in candidates {
        // Signer-directed candidate search: only a membership whose
        // subject names one of the request's signers can complete
        // A34/A35/A38, so candidates come from the engine's
        // (group, principal) index — never a scan of the group's full
        // roster. Each candidate's validity must cover both the claimed
        // time and the decision time (paper: tb' <= t1 and t6 <= te'),
        // and survive revocation at both.
        let mut rows: Vec<(Subject, Belief)> = Vec::new();
        let mut valid_at_claim = false;
        for (principal, _, _) in &signers {
            for (subject, when, belief) in engine.memberships_naming(group, principal) {
                if !when.covers(request.at)
                    || engine.is_membership_revoked(subject, group, request.at)
                {
                    continue;
                }
                valid_at_claim = true;
                if !when.covers(engine.now())
                    || engine.is_membership_revoked(subject, group, engine.now())
                    || rows.iter().any(|(s, _)| s == subject)
                {
                    continue;
                }
                rows.push((subject.clone(), belief.clone()));
            }
        }
        if rows.is_empty() {
            last_err = if valid_at_claim {
                format!(
                    "membership in {group} expired or revoked by {}",
                    engine.now()
                )
            } else {
                format!(
                    "no valid membership in {group} names a request signer at {}",
                    request.at
                )
            };
            continue;
        }
        for (subject, belief) in rows {
            match conclude_group_says(engine, &subject, &belief, group, request, signers.clone()) {
                Ok(group_says) => {
                    let grant = Formula::Prop(format!(
                        "access approved: {} via {group}",
                        request.operation
                    ));
                    let acl_node = Derivation {
                        conclusion: grant,
                        rule: Rule::SideCondition(format!(
                            "({group}, {}) ∈ ACL and validity covers [{}, {}]",
                            request.operation,
                            request.at,
                            engine.now()
                        )),
                        premises: vec![group_says],
                    };
                    return AccessDecision {
                        granted: true,
                        reason: None,
                        derivation: Some(Arc::new(acl_node)),
                        axiom_applications: engine.axiom_applications() - cost_before,
                    };
                }
                Err(e) => last_err = e.to_string(),
            }
        }
    }
    AccessDecision::denied(
        DenialReason::RequestNotProven(last_err),
        engine.axiom_applications() - cost_before,
    )
}

/// Applies the right access-control axiom (A34/A35/A38) to conclude
/// `G says "op" O`.
fn conclude_group_says(
    engine: &mut Engine,
    subject: &Subject,
    membership: &Belief,
    group: &GroupId,
    request: &AccessRequest,
    signers: Vec<(PrincipalId, KeyId, Arc<Derivation>)>,
) -> Result<Arc<Derivation>, LogicError> {
    let payload = request.operation.payload();
    match subject {
        Subject::Threshold { .. } => {
            engine.apply_a38(membership, subject, group, engine.now(), &payload, signers)
        }
        Subject::Bound(inner, key) => {
            // A35: Q|K ⇒ G ∧ K ⇒ Q ∧ Q says ⟨X⟩_{K⁻¹} ⊃ G says X.
            let principal = inner.principal_id().ok_or_else(|| {
                LogicError::NotDerivable("bound subject is not a single principal".into())
            })?;
            let signer = signers
                .into_iter()
                .find(|(p, k, _)| p == principal && k == key)
                .ok_or_else(|| {
                    LogicError::NotDerivable(format!(
                        "no signed statement by {principal} with {key}"
                    ))
                })?;
            let conclusion = Formula::group_says(group.clone(), engine.now(), payload);
            Ok(Derivation::by_axiom(
                conclusion,
                Axiom::A35,
                vec![Arc::clone(&membership.derivation), signer.2],
            )
            .share())
        }
        Subject::Principal(principal) => {
            // A34: Q ⇒ G ∧ Q says X ⊃ G says X.
            let signer = signers
                .into_iter()
                .find(|(p, _, _)| p == principal)
                .ok_or_else(|| {
                    LogicError::NotDerivable(format!("no signed statement by {principal}"))
                })?;
            let conclusion = Formula::group_says(group.clone(), engine.now(), payload);
            Ok(Derivation::by_axiom(
                conclusion,
                Axiom::A34,
                vec![Arc::clone(&membership.derivation), signer.2],
            )
            .share())
        }
        Subject::Compound(_) => Err(LogicError::NotDerivable(
            "plain compound memberships need a joint signature under the compound's shared key \
             (A36/A37), which application servers receive as a single key-bound subject"
                .into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certs::{Certs, Validity};
    use crate::engine::TrustAssumptions;
    use crate::syntax::TimeRef;

    fn k(s: &str) -> KeyId {
        KeyId::new(s)
    }

    fn users_cp(m: usize) -> Subject {
        Subject::threshold(
            vec![
                Subject::principal("User_D1").bound(k("K_u1")),
                Subject::principal("User_D2").bound(k("K_u2")),
                Subject::principal("User_D3").bound(k("K_u3")),
            ],
            m,
        )
    }

    fn scenario() -> (Engine, Acl) {
        let mut a = TrustAssumptions::new(Time(0));
        for i in 1..=3 {
            a.own_key(k(&format!("K_CA{i}")), Subject::principal(format!("CA{i}")));
            a.identity_authority(format!("CA{i}"));
        }
        a.own_key(
            k("K_AA"),
            Subject::threshold(
                vec![
                    Subject::principal("D1"),
                    Subject::principal("D2"),
                    Subject::principal("D3"),
                ],
                3,
            ),
        );
        a.own_key(k("K_AA"), Subject::principal("AA"));
        a.group_authority("AA");
        a.own_key(k("K_RA"), Subject::principal("RA"));
        a.revocation_authority("RA", "AA");
        let mut e = Engine::new("P", a);
        e.advance_clock(Time(10)).expect("clock");
        let mut acl = Acl::new();
        acl.permit(GroupId::new("G_write"), "write");
        acl.permit(GroupId::new("G_read"), "read");
        (e, acl)
    }

    fn id_cert(i: usize) -> Message {
        Certs::identity(
            format!("CA{i}"),
            k(&format!("K_CA{i}")),
            k(&format!("K_u{i}")),
            format!("User_D{i}"),
            Time(5),
            Validity::new(Time(0), Time(100)),
        )
    }

    fn write_ac() -> Message {
        Certs::threshold_attribute(
            "AA",
            k("K_AA"),
            users_cp(2),
            GroupId::new("G_write"),
            Time(6),
            Validity::new(Time(0), Time(100)),
        )
    }

    fn read_ac() -> Message {
        Certs::threshold_attribute(
            "AA",
            k("K_AA"),
            users_cp(1),
            GroupId::new("G_read"),
            Time(6),
            Validity::new(Time(0), Time(100)),
        )
    }

    fn write_request(signers: &[usize]) -> AccessRequest {
        let op = Operation::new("write", "Object O");
        AccessRequest {
            identity_certs: signers.iter().map(|&i| id_cert(i)).collect(),
            attribute_certs: vec![write_ac()],
            signed_statements: signers
                .iter()
                .map(|&i| {
                    SignedStatement::new(format!("User_D{i}"), k(&format!("K_u{i}")), &op, Time(9))
                })
                .collect(),
            operation: op,
            at: Time(9),
        }
    }

    #[test]
    fn figure_2b_write_with_two_signers_approved() {
        let (mut e, acl) = scenario();
        let decision = authorize(&mut e, &write_request(&[1, 2]), &acl);
        assert!(decision.granted, "reason: {:?}", decision.reason);
        let d = decision.derivation.expect("proof");
        assert!(d.conclusion.to_string().ends_with("via G_write"));
        let used = d.axioms_used();
        assert!(used.contains(&Axiom::A10));
        assert!(used.contains(&Axiom::A38));
        assert!(decision.axiom_applications > 0);
    }

    #[test]
    fn write_with_one_signer_denied() {
        let (mut e, acl) = scenario();
        let decision = authorize(&mut e, &write_request(&[1]), &acl);
        assert!(!decision.granted);
        assert!(matches!(
            decision.reason,
            Some(DenialReason::RequestNotProven(_))
        ));
    }

    #[test]
    fn figure_2d_read_with_one_signer_approved() {
        let (mut e, acl) = scenario();
        let op = Operation::new("read", "Object O");
        let request = AccessRequest {
            identity_certs: vec![id_cert(3)],
            attribute_certs: vec![read_ac()],
            signed_statements: vec![SignedStatement::new("User_D3", k("K_u3"), &op, Time(9))],
            operation: op,
            at: Time(9),
        };
        let decision = authorize(&mut e, &request, &acl);
        assert!(decision.granted, "reason: {:?}", decision.reason);
        let d = decision.derivation.expect("proof");
        assert!(d.conclusion.to_string().ends_with("via G_read"));
    }

    #[test]
    fn every_member_of_a_large_group_can_authorize() {
        // Regression: with many believed memberships in one group, the
        // derivation must try the membership naming the request's signer,
        // not whichever membership was admitted first. (Found at 10⁴
        // principals in E21, where all but the first member were denied.)
        let (mut e, acl) = scenario();
        let op = Operation::new("read", "Object O");
        for i in 1..=3 {
            let member = Subject::principal(format!("User_D{i}")).bound(k(&format!("K_u{i}")));
            let request = AccessRequest {
                identity_certs: vec![id_cert(i)],
                attribute_certs: vec![Certs::attribute(
                    "AA",
                    k("K_AA"),
                    member,
                    GroupId::new("G_read"),
                    Time(6),
                    Validity::new(Time(0), Time(100)),
                )],
                signed_statements: vec![SignedStatement::new(
                    format!("User_D{i}"),
                    k(&format!("K_u{i}")),
                    &op,
                    Time(9),
                )],
                operation: op.clone(),
                at: Time(9),
            };
            let decision = authorize(&mut e, &request, &acl);
            assert!(decision.granted, "member {i} denied: {:?}", decision.reason);
        }
        // Later requests carry only the signer's own certificates, yet
        // the engine now believes three G_read memberships; each signer
        // must still be matched to their own.
        for i in (1..=3).rev() {
            let request = AccessRequest {
                identity_certs: vec![id_cert(i)],
                attribute_certs: vec![],
                signed_statements: vec![SignedStatement::new(
                    format!("User_D{i}"),
                    k(&format!("K_u{i}")),
                    &op,
                    Time(9),
                )],
                operation: op.clone(),
                at: Time(9),
            };
            let decision = authorize(&mut e, &request, &acl);
            assert!(
                decision.granted,
                "believed member {i} denied: {:?}",
                decision.reason
            );
        }
    }

    #[test]
    fn wrong_key_denied() {
        let (mut e, acl) = scenario();
        let op = Operation::new("write", "Object O");
        let mut req = write_request(&[1, 2]);
        // User_D2 signs with User_D3's key (no identity cert covers it).
        req.signed_statements[1] = SignedStatement::new("User_D2", k("K_u3"), &op, Time(9));
        let decision = authorize(&mut e, &req, &acl);
        assert!(!decision.granted);
    }

    #[test]
    fn action_not_on_acl_denied() {
        let (mut e, _) = scenario();
        let empty = Acl::new();
        let decision = authorize(&mut e, &write_request(&[1, 2]), &empty);
        assert!(matches!(
            decision.reason,
            Some(DenialReason::NoAuthorizingMembership(_))
        ));
    }

    #[test]
    fn revoked_threshold_ac_denies_access() {
        let (mut e, acl) = scenario();
        // Grant once.
        let decision = authorize(&mut e, &write_request(&[1, 2]), &acl);
        assert!(decision.granted);
        // RA revokes the threshold AC at t12.
        e.advance_clock(Time(12)).expect("clock");
        let rev = Certs::attribute_revocation(
            "RA",
            k("K_RA"),
            users_cp(2),
            GroupId::new("G_write"),
            Time(12),
            Time(12),
        );
        e.admit_certificate(&rev).expect("revocation");
        // Same request now denied (request time after revocation).
        let mut req = write_request(&[1, 2]);
        req.at = Time(13);
        req.signed_statements = req
            .signed_statements
            .iter()
            .map(|s| {
                SignedStatement::new(s.principal.clone(), s.key.clone(), &req.operation, Time(13))
            })
            .collect();
        e.advance_clock(Time(13)).expect("clock");
        let decision = authorize(&mut e, &req, &acl);
        assert!(!decision.granted);
    }

    #[test]
    fn expired_ac_denied_at_decision_time() {
        let (mut e, acl) = scenario();
        // AC valid only until t15; decision at t20.
        let short_ac = Certs::threshold_attribute(
            "AA",
            k("K_AA"),
            users_cp(2),
            GroupId::new("G_write"),
            Time(6),
            Validity::new(Time(0), Time(15)),
        );
        e.advance_clock(Time(20)).expect("clock");
        let op = Operation::new("write", "Object O");
        let request = AccessRequest {
            identity_certs: vec![id_cert(1), id_cert(2)],
            attribute_certs: vec![short_ac],
            signed_statements: vec![
                SignedStatement::new("User_D1", k("K_u1"), &op, Time(12)),
                SignedStatement::new("User_D2", k("K_u2"), &op, Time(12)),
            ],
            operation: op,
            at: Time(12),
        };
        let decision = authorize(&mut e, &request, &acl);
        assert!(!decision.granted, "membership must cover decision time");
    }

    #[test]
    fn single_subject_attribute_cert_via_a35() {
        let (mut e, mut acl) = scenario();
        acl.permit(GroupId::new("G_admin"), "set-policy");
        let ac = Certs::attribute(
            "AA",
            k("K_AA"),
            Subject::principal("User_D1").bound(k("K_u1")),
            GroupId::new("G_admin"),
            Time(6),
            Validity::new(Time(0), Time(100)),
        );
        let op = Operation::new("set-policy", "ACL_O");
        let request = AccessRequest {
            identity_certs: vec![id_cert(1)],
            attribute_certs: vec![ac],
            signed_statements: vec![SignedStatement::new("User_D1", k("K_u1"), &op, Time(9))],
            operation: op,
            at: Time(9),
        };
        let decision = authorize(&mut e, &request, &acl);
        assert!(decision.granted, "reason: {:?}", decision.reason);
        let used = decision.derivation.expect("proof").axioms_used();
        assert!(used.contains(&Axiom::A35));
    }

    #[test]
    fn derivation_renders_paper_like_proof() {
        let (mut e, acl) = scenario();
        let decision = authorize(&mut e, &write_request(&[1, 2]), &acl);
        let text = decision.derivation.expect("proof").render();
        assert!(text.contains("axiom A10"));
        assert!(text.contains("axiom A38"));
        assert!(text.contains("G_write says"));
        assert!(text.contains("access approved"));
    }

    #[test]
    fn acl_queries() {
        let mut acl = Acl::new();
        acl.permit(GroupId::new("G_w"), "write")
            .permit(GroupId::new("G_r"), "read");
        assert!(acl.permits(&GroupId::new("G_w"), "write"));
        assert!(!acl.permits(&GroupId::new("G_w"), "read"));
        assert_eq!(acl.groups_for("read"), vec![&GroupId::new("G_r")]);
        assert_eq!(acl.entries().len(), 2);
    }

    #[test]
    fn operation_payload_matches_paper_rendering() {
        let op = Operation::new("write", "Object O");
        assert_eq!(op.to_string(), "\"write\" Object O");
        assert_eq!(op.payload(), Message::data("\"write\" Object O"));
    }

    #[test]
    fn signed_statement_shape() {
        let op = Operation::new("write", "O");
        let s = SignedStatement::new("U1", k("K1"), &op, Time(3));
        let (inner, key) = s.message.as_signed().expect("signed");
        assert_eq!(key, &k("K1"));
        let f = inner.as_formula().expect("formula");
        assert!(matches!(f, Formula::Says(_, TimeRef::At(Time(3)), _)));
    }
}
