//! The derivation engine: initial beliefs + received messages + axioms ⟹
//! new beliefs, with proof trees.
//!
//! The engine plays the role of server `P` in §4.3: it holds the initial
//! beliefs (Statements 1–11 of Appendix E) as [`TrustAssumptions`], receives
//! idealized certificates, and derives beliefs by applying the axioms —
//! recording every step in a [`Derivation`].
//!
//! The paper's universally quantified initial beliefs are represented as
//! schemas that instantiate on use:
//!
//! * **Key ownership** (Statement 1): `K_AA ⇒ [t*, t] CP₃,₃` — registered
//!   via [`TrustAssumptions::own_key`].
//! * **Group-membership jurisdiction** (Statements 2–5): "AA controls
//!   (∀G′,CP′,…) CP′ ⇒ G′" — via [`TrustAssumptions::group_authority`].
//! * **Identity jurisdiction** (Statements 6–11): "CAᵢ controls (∀Q′,K,…)
//!   K ⇒ Q′" — via [`TrustAssumptions::identity_authority`].
//! * **Timestamp jurisdiction** (Statements 3/5/7/…): every registered
//!   authority is also trusted for the recency of its own timestamps after
//!   `t*`.
//! * **Revocation authority** (§4.3 "Reasoning about revocation"): an RA
//!   may speak revocations on behalf of an authority — via
//!   [`TrustAssumptions::revocation_authority`].

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::axioms::Axiom;
use crate::certs::CertView;
use crate::derivation::{Derivation, Rule};
use crate::memo::{DerivationMemo, MemoKey, MemoStats};
use crate::protocol::{AccessDecision, AccessRequest, Acl};
use crate::syntax::{Formula, GroupId, KeyId, Message, PrincipalId, Subject, Time, TimeRef};
use crate::LogicError;

/// The verifier's initial beliefs, as assumption schemas.
#[derive(Debug, Clone, Default)]
pub struct TrustAssumptions {
    /// `t*`: the time from which timestamp jurisdiction holds.
    t_star: Time,
    /// Key ownership: `K ⇒ S` from `t_star` (a key may have several owners,
    /// e.g. `K_AA ⇒ AA` as an alias and `K_AA ⇒ {D1,D2,D3}₃,₃`).
    key_owners: HashMap<KeyId, Vec<Subject>>,
    /// Authorities with jurisdiction over group membership formulas.
    group_authorities: Vec<PrincipalId>,
    /// Authorities with jurisdiction over identity (key-ownership) formulas.
    identity_authorities: Vec<PrincipalId>,
    /// `(ra, on_behalf_of)`: RA may issue revocations for the authority.
    revocation_authorities: Vec<(PrincipalId, PrincipalId)>,
}

impl TrustAssumptions {
    /// Creates an empty assumption set with jurisdiction anchor `t_star`.
    #[must_use]
    pub fn new(t_star: Time) -> Self {
        TrustAssumptions {
            t_star,
            ..TrustAssumptions::default()
        }
    }

    /// Registers key ownership (Statement 1): `key ⇒ owner` from `t*`.
    pub fn own_key(&mut self, key: KeyId, owner: Subject) -> &mut Self {
        self.key_owners.entry(key).or_default().push(owner);
        self
    }

    /// Registers `authority` as having jurisdiction over group membership
    /// (Statements 2–5).
    pub fn group_authority(&mut self, authority: impl Into<PrincipalId>) -> &mut Self {
        self.group_authorities.push(authority.into());
        self
    }

    /// Registers `authority` (a CA) as having jurisdiction over identity
    /// certificates (Statements 6–11).
    pub fn identity_authority(&mut self, authority: impl Into<PrincipalId>) -> &mut Self {
        self.identity_authorities.push(authority.into());
        self
    }

    /// Registers `ra` as a revocation authority acting for `on_behalf_of`.
    pub fn revocation_authority(
        &mut self,
        ra: impl Into<PrincipalId>,
        on_behalf_of: impl Into<PrincipalId>,
    ) -> &mut Self {
        self.revocation_authorities
            .push((ra.into(), on_behalf_of.into()));
        self
    }

    /// The owners registered for `key`.
    #[must_use]
    pub fn owners_of(&self, key: &KeyId) -> &[Subject] {
        self.key_owners.get(key).map_or(&[], Vec::as_slice)
    }

    fn is_group_authority(&self, p: &PrincipalId) -> bool {
        self.group_authorities.contains(p)
            || self
                .revocation_authorities
                .iter()
                .any(|(ra, behalf)| ra == p && self.group_authorities.contains(behalf))
    }

    fn is_identity_authority(&self, p: &PrincipalId) -> bool {
        self.identity_authorities.contains(p)
            || self
                .revocation_authorities
                .iter()
                .any(|(ra, behalf)| ra == p && self.identity_authorities.contains(behalf))
    }
}

/// A belief held by the engine, with the proof that established it.
///
/// The derivation is shared ([`Arc`]): it is reused as a premise of every
/// proof built on this belief, so cloning a belief is cheap.
#[derive(Debug, Clone)]
pub struct Belief {
    /// The derivation that established it.
    pub(crate) derivation: Arc<Derivation>,
}

/// The derivation engine (server `P`'s reasoning state).
#[derive(Debug)]
pub struct Engine {
    observer: PrincipalId,
    now: Time,
    assumptions: TrustAssumptions,
    /// Positive key-ownership beliefs: `K ⇒ S` with validity window.
    key_beliefs: Vec<(KeyId, Subject, TimeRef, Belief)>,
    /// Dense-id index over `key_beliefs` by key, in admission order.
    /// Beliefs only accumulate, so the index is append-only.
    key_beliefs_by_key: HashMap<KeyId, Vec<u32>>,
    /// Positive membership beliefs: `S ⇒ G` with validity window.
    membership_beliefs: Vec<(Subject, GroupId, TimeRef, Belief)>,
    /// Dense-id index over `membership_beliefs` by group.
    memberships_by_group: HashMap<GroupId, Vec<u32>>,
    /// Signer-directed dense-id index: `(group, principal named in the
    /// member subject)` → positions in `membership_beliefs`. Lookup cost
    /// scales with one principal's memberships, never the group roster.
    memberships_by_member: HashMap<(GroupId, PrincipalId), Vec<u32>>,
    /// Revoked memberships: `(S, G, from)` — believe-until-revoked.
    revoked_memberships: Vec<(Subject, GroupId, Time)>,
    /// Dense-id index over `revoked_memberships` by group.
    membership_revocations_by_group: HashMap<GroupId, Vec<u32>>,
    /// Revoked keys: `(K, S, from)`.
    revoked_keys: Vec<(KeyId, Subject, Time)>,
    /// Dense-id index over `revoked_keys` by key.
    key_revocations_by_key: HashMap<KeyId, Vec<u32>>,
    /// Freshness acceptance window (ticks) for certificate timestamps.
    freshness_window: i64,
    /// Count of axiom applications performed (experiment E8 metric).
    axiom_count: usize,
    /// Belief epoch: bumped whenever the belief state changes (new
    /// certificate body admitted, revocation/CRL entry, freshness-window
    /// move). Part of every memo key, so a bump retires every memoized
    /// decision without touching the memo.
    epoch: u64,
    /// Monotone version of *all* decision-relevant engine state: bumped on
    /// every belief-epoch bump **and** on every actual clock move. The
    /// belief epoch deliberately ignores clock advances (memo keys already
    /// include the clock, so moving time need not retire memo entries), but a
    /// published decision snapshot captures `now` and therefore goes stale
    /// when the clock moves. This is the one version number that all
    /// derived state (memo, verify cache, snapshot) can be validated
    /// against.
    state_version: u64,
    /// Bodies of every admitted certificate/revocation, so re-admitting
    /// the same certificate neither duplicates belief entries nor bumps
    /// the epoch.
    admitted_bodies: HashSet<Formula>,
    /// The derivation memo (None = off, the default).
    memo: Option<DerivationMemo>,
}

impl Engine {
    /// Creates an engine for observer `P` with the given assumptions,
    /// starting at time `t*`.
    #[must_use]
    pub fn new(observer: impl Into<PrincipalId>, assumptions: TrustAssumptions) -> Self {
        Engine {
            observer: observer.into(),
            now: assumptions.t_star,
            assumptions,
            key_beliefs: Vec::new(),
            key_beliefs_by_key: HashMap::new(),
            membership_beliefs: Vec::new(),
            memberships_by_group: HashMap::new(),
            memberships_by_member: HashMap::new(),
            revoked_memberships: Vec::new(),
            membership_revocations_by_group: HashMap::new(),
            revoked_keys: Vec::new(),
            key_revocations_by_key: HashMap::new(),
            freshness_window: i64::MAX,
            axiom_count: 0,
            epoch: 0,
            state_version: 0,
            admitted_bodies: HashSet::new(),
            memo: None,
        }
    }

    /// Sets the freshness acceptance window for certificate timestamps
    /// (how far in the past `t_CA` may lie; axiom A21 side condition).
    ///
    /// Changes admission outcomes, so it bumps the belief epoch (retiring
    /// any memoized decisions). Production engines keep the default
    /// (unbounded); only the tests of the A21 side condition narrow it.
    #[cfg(test)]
    pub(crate) fn set_freshness_window(&mut self, window: i64) {
        self.freshness_window = window;
        self.bump_epoch();
    }

    /// The current belief epoch (see the `epoch` field).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The engine's monotone state version: unlike [`Engine::epoch`], this
    /// also advances when the clock moves, so it versions *everything* a
    /// decision depends on. Two evaluations of the same request at the
    /// same `state_version` are byte-identical; any snapshot, cache, or
    /// memo entry tagged with a stale version must be re-derived.
    #[must_use]
    pub fn state_version(&self) -> u64 {
        self.state_version
    }

    /// Turns the derivation memo on or off. Off (the default) preserves the
    /// fully re-derived reference path; on, [`crate::protocol::authorize`]
    /// replays decisions for repeated requests at the same belief epoch.
    pub fn set_derivation_memo(&mut self, on: bool) {
        self.memo = on.then(DerivationMemo::new);
    }

    /// Bounds the derivation memo (`None` = unbounded). No-op when off.
    pub fn set_derivation_memo_capacity(&mut self, capacity: Option<usize>) {
        if let Some(memo) = &mut self.memo {
            memo.set_capacity(capacity);
        }
    }

    /// Memo hit/miss/eviction statistics, `None` when the memo is off.
    #[must_use]
    pub fn derivation_memo_stats(&self) -> Option<MemoStats> {
        self.memo.as_ref().map(DerivationMemo::stats)
    }

    fn bump_epoch(&mut self) {
        self.epoch += 1;
        self.state_version += 1;
    }

    /// Records an admitted certificate body. Returns `true` — bumping the
    /// belief epoch — only the first time this exact body is seen, so a
    /// re-admission (every repeated request re-presents its certificates)
    /// leaves the belief state and the epoch untouched.
    fn remember_admission(&mut self, body: &Formula) -> bool {
        if self.admitted_bodies.contains(body) {
            return false;
        }
        self.admitted_bodies.insert(body.clone());
        self.bump_epoch();
        true
    }

    pub(crate) fn memo_enabled(&self) -> bool {
        self.memo.is_some()
    }

    pub(crate) fn memo_key(&self, request: &AccessRequest, acl: &Acl) -> MemoKey {
        MemoKey::new(self.epoch, self.now, request, acl)
    }

    pub(crate) fn memo_lookup(&mut self, key: &MemoKey) -> Option<AccessDecision> {
        self.memo.as_mut().and_then(|memo| memo.lookup(key))
    }

    /// Stores `decision` under `key` re-stamped with the *current*
    /// (post-run) epoch: admitting the request's certificates may have
    /// bumped it mid-run.
    pub(crate) fn memo_store(&mut self, key: MemoKey, decision: AccessDecision) {
        if let Some(memo) = &mut self.memo {
            memo.store(key.at_epoch(self.epoch), decision);
        }
    }

    /// The observer's current local time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Advances the observer's clock.
    ///
    /// # Errors
    ///
    /// [`LogicError::ClockRegression`] when `to` is earlier than the
    /// current time — runs are monotone (Appendix C), and a server
    /// recovering from a durable log must be able to reject a stale clock
    /// without tearing down the process.
    pub fn advance_clock(&mut self, to: Time) -> Result<(), LogicError> {
        if to < self.now {
            return Err(LogicError::ClockRegression(format!(
                "cannot move clock from {:?} back to {to:?}",
                self.now
            )));
        }
        if to > self.now {
            // The clock is part of every decision's inputs, so an actual
            // move retires published snapshots. It leaves the belief epoch
            // alone: memo keys carry the clock themselves.
            self.state_version += 1;
        }
        self.now = to;
        Ok(())
    }

    /// Discards every piece of derived (non-belief) state: bumps the
    /// belief epoch, which retires every memoized decision.
    ///
    /// Belief replay after a crash reconstructs admitted formulas exactly,
    /// but memoized decisions and epoch-tagged caches from the pre-crash
    /// process must not survive into the recovered one; recovery calls
    /// this once replay finishes so every later decision is re-derived
    /// against the rebuilt belief set.
    pub fn invalidate_derived_state(&mut self) {
        self.bump_epoch();
    }

    /// Total axiom applications so far.
    #[must_use]
    pub fn axiom_applications(&self) -> usize {
        self.axiom_count
    }

    /// The observer as a subject.
    #[must_use]
    pub(crate) fn observer(&self) -> Subject {
        Subject::Principal(self.observer.clone())
    }

    fn count_axiom(&mut self) {
        self.axiom_count += 1;
    }

    /// Admits an idealized certificate: verifies originator (A10),
    /// timestamp jurisdiction (A22/A23 + A9), freshness (A21 side
    /// condition), and content jurisdiction (A22–A33), then records the
    /// resulting belief (or revocation).
    ///
    /// Mirrors the paper's Appendix E statements 12–16 (identity
    /// certificates) and 18–22 (threshold attribute certificates).
    ///
    /// # Errors
    ///
    /// * [`LogicError::MalformedMessage`] if the message is not an
    ///   idealized certificate.
    /// * [`LogicError::NoJurisdiction`] if no trust assumption covers the
    ///   signing key or the issuer.
    /// * [`LogicError::Stale`] if the timestamp is outside the acceptance
    ///   window.
    pub fn admit_certificate(&mut self, msg: &Message) -> Result<Arc<Derivation>, LogicError> {
        let view = CertView::parse(msg)
            .ok_or_else(|| LogicError::MalformedMessage("not an idealized certificate".into()))?;
        match view {
            CertView::Identity {
                issuer,
                signing_key,
                issued_at,
                subject_key,
                subject,
                when,
                negated,
            } => self.admit_identity(
                msg,
                &issuer,
                &signing_key,
                issued_at,
                subject_key,
                subject,
                when,
                negated,
            ),
            CertView::Attribute {
                issuer,
                signing_key,
                issued_at,
                subject,
                group,
                when,
                negated,
            } => self.admit_attribute(
                msg,
                &issuer,
                &signing_key,
                issued_at,
                subject,
                group,
                when,
                negated,
            ),
        }
    }

    /// Shared front half of certificate admission: received message, A10
    /// originator identification, A21 freshness, and timestamp jurisdiction
    /// (A22/A23 with A9), concluding the formula `issuer says body`.
    fn authenticate_statement(
        &mut self,
        msg: &Message,
        issuer: &PrincipalId,
        signing_key: &KeyId,
        issued_at: Time,
        label: &str,
    ) -> Result<(Formula, Arc<Derivation>), LogicError> {
        // Premise: P received the signed message now.
        let received = Formula::received(self.observer(), self.now, msg.clone());
        let received_node = Derivation::leaf(received, Rule::Received(label.to_string())).share();

        // Statement-1-style premise: who owns the signing key?
        let owners = self.assumptions.owners_of(signing_key);
        if owners.is_empty() {
            return Err(LogicError::NoJurisdiction(format!(
                "no ownership assumption for signing key {signing_key}"
            )));
        }
        // Prefer a compound owner (the true signers); fall back to any.
        let owner = owners
            .iter()
            .find(|s| matches!(s, Subject::Compound(_) | Subject::Threshold { .. }))
            .unwrap_or(&owners[0])
            .clone();
        let ownership = Formula::key_speaks_for(
            signing_key.clone(),
            TimeRef::Closed(self.assumptions.t_star, Time::INFINITY),
            owner.clone(),
        );
        let ownership_node = Derivation::leaf(
            ownership,
            Rule::InitialBelief(format!("key ownership of {signing_key}")),
        )
        .share();

        // A10: originator identification.
        let payload = msg.as_signed().expect("certificate is signed").0.clone();
        let said = Formula::said(owner.clone(), self.now, payload);
        self.count_axiom();
        let said_node =
            Derivation::by_axiom(said, Axiom::A10, vec![ownership_node, received_node]).share();

        // A21 side condition: the timestamp must be recent.
        if issued_at > self.now {
            return Err(LogicError::Stale(format!(
                "timestamp {issued_at} is in the observer's future (now {})",
                self.now
            )));
        }
        if self.now.0.saturating_sub(issued_at.0) > self.freshness_window {
            return Err(LogicError::Stale(format!(
                "timestamp {issued_at} outside freshness window at {}",
                self.now
            )));
        }
        let fresh = Formula::Fresh {
            observer: self.observer(),
            when: TimeRef::At(self.now),
            msg: msg.clone(),
        };
        let fresh_node = Derivation::leaf(
            fresh,
            Rule::SideCondition(format!("freshness of timestamp {issued_at} (A21)")),
        )
        .share();

        // Timestamp jurisdiction: the issuer controls the recency of its own
        // statements after t*. A23 when the issuer's key is held by a
        // compound (multi-principal jurisdiction), A22 otherwise.
        let body_says = {
            // Reconstruct `issuer says_{issued_at} body` from the payload.
            let payload_formula = msg
                .as_signed()
                .and_then(|(p, _)| p.as_formula())
                .cloned()
                .ok_or_else(|| LogicError::MalformedMessage("payload is not a formula".into()))?;
            payload_formula
        };
        let ts_jurisdiction = Formula::controls(
            Subject::Principal(issuer.clone()),
            TimeRef::Closed(self.assumptions.t_star, self.now),
            body_says.clone(),
        );
        let ts_node = Derivation::leaf(
            ts_jurisdiction,
            Rule::InitialBelief(format!("timestamp jurisdiction of {issuer}")),
        )
        .share();
        let jurisdiction_axiom =
            if matches!(owner, Subject::Compound(_) | Subject::Threshold { .. }) {
                Axiom::A23
            } else {
                Axiom::A22
            };
        self.count_axiom();
        let at_says = Formula::at(
            body_says.clone(),
            self.observer(),
            TimeRef::Within(self.assumptions.t_star, self.now),
        );
        let at_node = Derivation::by_axiom(
            at_says,
            jurisdiction_axiom,
            vec![said_node, ts_node, fresh_node],
        )
        .share();
        // A9 reduction removes the at-wrapper.
        self.count_axiom();
        let says_node = Derivation::by_axiom(body_says.clone(), Axiom::A9, vec![at_node]).share();
        Ok((body_says, says_node))
    }

    #[allow(clippy::too_many_arguments)]
    fn admit_identity(
        &mut self,
        msg: &Message,
        issuer: &PrincipalId,
        signing_key: &KeyId,
        issued_at: Time,
        subject_key: KeyId,
        subject: Subject,
        when: TimeRef,
        negated: bool,
    ) -> Result<Arc<Derivation>, LogicError> {
        if !self.assumptions.is_identity_authority(issuer) {
            return Err(LogicError::NoJurisdiction(format!(
                "{issuer} has no identity jurisdiction"
            )));
        }
        let label = if negated {
            "identity revocation"
        } else {
            "identity certificate"
        };
        let (_says, says_node) =
            self.authenticate_statement(msg, issuer, signing_key, issued_at, label)?;

        // Content jurisdiction (Statements 6/8/10 → 15 → 16):
        let body =
            Formula::key_speaks_for_at(subject_key.clone(), when, issuer.clone(), subject.clone());
        let body = if negated { Formula::not(body) } else { body };
        let content_jurisdiction = Formula::controls(
            Subject::Principal(issuer.clone()),
            TimeRef::At(issued_at),
            body.clone(),
        );
        let cj_node = Derivation::leaf(
            content_jurisdiction,
            Rule::InitialBelief(format!("identity jurisdiction of {issuer}")),
        )
        .share();
        self.count_axiom(); // A22
        self.count_axiom(); // A9
        let belief_node =
            Derivation::by_axiom(body.clone(), Axiom::A22, vec![says_node, cj_node]).share();
        let final_node = Derivation::by_axiom(body.clone(), Axiom::A9, vec![belief_node]).share();

        // Dedup: re-admitting the same certificate re-derives the same proof
        // (identical axiom counts) but only the first admission records the
        // belief/revocation entry and bumps the epoch.
        if negated {
            let (from, _) = when.bounds();
            if self.remember_admission(&body) {
                let id = u32::try_from(self.revoked_keys.len()).expect("revocation id fits u32");
                self.key_revocations_by_key
                    .entry(subject_key.clone())
                    .or_default()
                    .push(id);
                self.revoked_keys.push((subject_key, subject, from));
            }
        } else if self.remember_admission(&body) {
            let id = u32::try_from(self.key_beliefs.len()).expect("belief id fits u32");
            self.key_beliefs_by_key
                .entry(subject_key.clone())
                .or_default()
                .push(id);
            self.key_beliefs.push((
                subject_key,
                subject,
                when,
                Belief {
                    derivation: Arc::clone(&final_node),
                },
            ));
        }
        Ok(final_node)
    }

    #[allow(clippy::too_many_arguments)]
    fn admit_attribute(
        &mut self,
        msg: &Message,
        issuer: &PrincipalId,
        signing_key: &KeyId,
        issued_at: Time,
        subject: Subject,
        group: GroupId,
        when: TimeRef,
        negated: bool,
    ) -> Result<Arc<Derivation>, LogicError> {
        if !self.assumptions.is_group_authority(issuer) {
            return Err(LogicError::NoJurisdiction(format!(
                "{issuer} has no group-membership jurisdiction"
            )));
        }
        let label = if negated {
            "attribute revocation"
        } else {
            "attribute certificate"
        };
        let (_says, says_node) =
            self.authenticate_statement(msg, issuer, signing_key, issued_at, label)?;

        let body = Formula::member_of_at(subject.clone(), when, issuer.clone(), group.clone());
        let body = if negated { Formula::not(body) } else { body };
        let content_jurisdiction = Formula::controls(
            Subject::Principal(issuer.clone()),
            TimeRef::At(issued_at),
            body.clone(),
        );
        let cj_node = Derivation::leaf(
            content_jurisdiction,
            Rule::InitialBelief(format!("group-membership jurisdiction of {issuer}")),
        )
        .share();
        // Group-membership jurisdiction axiom, selected by subject shape
        // (A24–A28; the paper's walkthrough cites A25 for its CP′₂,₃
        // example, we label with the exact schema A28 for thresholds).
        let axiom = match &subject {
            Subject::Principal(_) => Axiom::A24,
            Subject::Compound(_) => Axiom::A25,
            Subject::Bound(inner, _) => match **inner {
                Subject::Compound(_) => Axiom::A27,
                _ => Axiom::A26,
            },
            Subject::Threshold { .. } => Axiom::A28,
        };
        self.count_axiom(); // membership jurisdiction
        self.count_axiom(); // A9
        let belief_node =
            Derivation::by_axiom(body.clone(), axiom, vec![says_node, cj_node]).share();
        let final_node = Derivation::by_axiom(body.clone(), Axiom::A9, vec![belief_node]).share();

        if negated {
            let (from, _) = when.bounds();
            if self.remember_admission(&body) {
                let id =
                    u32::try_from(self.revoked_memberships.len()).expect("revocation id fits u32");
                self.membership_revocations_by_group
                    .entry(group.clone())
                    .or_default()
                    .push(id);
                self.revoked_memberships.push((subject, group, from));
            }
        } else if self.remember_admission(&body) {
            let id = u32::try_from(self.membership_beliefs.len()).expect("belief id fits u32");
            self.memberships_by_group
                .entry(group.clone())
                .or_default()
                .push(id);
            for principal in named_principals(&subject) {
                self.memberships_by_member
                    .entry((group.clone(), principal))
                    .or_default()
                    .push(id);
            }
            self.membership_beliefs.push((
                subject,
                group,
                when,
                Belief {
                    derivation: Arc::clone(&final_node),
                },
            ));
        }
        Ok(final_node)
    }

    /// Looks up a believed key ownership `K ⇒ S` valid at `t` (and not
    /// revoked at or before `t` — believe-until-revoked).
    #[must_use]
    pub(crate) fn key_belief_at(&self, key: &KeyId, t: Time) -> Option<(&Subject, &Belief)> {
        let revoked_from = self
            .key_revocations_by_key
            .get(key)
            .into_iter()
            .flatten()
            .map(|&id| self.revoked_keys[id as usize].2)
            .min();
        if revoked_from.is_some_and(|from| t >= from) {
            return None;
        }
        self.key_beliefs_by_key
            .get(key)?
            .iter()
            .map(|&id| &self.key_beliefs[id as usize])
            .find(|(_, _, when, _)| when.covers(t))
            .map(|(_, s, _, b)| (s, b))
    }

    /// Looks up a believed membership `S ⇒ G` valid at `t` (and not
    /// revoked — believe-until-revoked, §4.3).
    #[must_use]
    pub fn membership_belief_at(&self, group: &GroupId, t: Time) -> Option<(&Subject, &Belief)> {
        self.memberships_by_group
            .get(group)?
            .iter()
            .map(|&id| &self.membership_beliefs[id as usize])
            .find(|(subject, g, when, _)| {
                when.covers(t) && !self.is_membership_revoked(subject, g, t)
            })
            .map(|(s, _, _, b)| (s, b))
    }

    /// Every membership belief `S ⇒ G` whose subject *names* `member` —
    /// single, key-bound, compound, or threshold — with its validity
    /// window. Served from the signer-directed dense-id index, so the
    /// cost scales with that principal's own memberships rather than the
    /// group's roster (the lookup the million-principal path depends on).
    #[must_use]
    pub(crate) fn memberships_naming(
        &self,
        group: &GroupId,
        member: &PrincipalId,
    ) -> Vec<(&Subject, &TimeRef, &Belief)> {
        self.memberships_by_member
            .get(&(group.clone(), member.clone()))
            .into_iter()
            .flatten()
            .map(|&id| {
                let (subject, _, when, belief) = &self.membership_beliefs[id as usize];
                (subject, when, belief)
            })
            .collect()
    }

    /// `true` if `S ⇒ G` has been revoked at or before `t`.
    ///
    /// Revocation subjects match modulo the degenerate 1-of-1 threshold
    /// wrapper: CRL entries arrive in threshold form on the wire even
    /// when the grant they revoke was a single-subject certificate
    /// (`P|K ⇒ G`), and `{P|K}_{1,1}` names exactly the same signer.
    #[must_use]
    pub(crate) fn is_membership_revoked(
        &self,
        subject: &Subject,
        group: &GroupId,
        t: Time,
    ) -> bool {
        self.membership_revocations_by_group
            .get(group)
            .is_some_and(|ids| {
                ids.iter().any(|&id| {
                    let (s, _, from) = &self.revoked_memberships[id as usize];
                    t >= *from && subjects_equivalent(s, subject)
                })
            })
    }

    /// Applies A38 to conclude `G says_t X` from a believed threshold
    /// membership and `m` signer statements.
    ///
    /// Each signer statement is `(principal, key, says-node)` where the
    /// says-node concludes `Pᵢ says_t ⟨X⟩_{Kᵢ⁻¹}`. The engine checks that
    /// the signers are distinct members of the threshold subject with
    /// matching bound keys and that at least `m` of them signed.
    ///
    /// # Errors
    ///
    /// [`LogicError::NotDerivable`] if signers don't satisfy the threshold
    /// structure.
    pub(crate) fn apply_a38(
        &mut self,
        membership: &Belief,
        subject: &Subject,
        group: &GroupId,
        t: Time,
        payload: &Message,
        signers: Vec<(PrincipalId, KeyId, Arc<Derivation>)>,
    ) -> Result<Arc<Derivation>, LogicError> {
        let Subject::Threshold { members, m } = subject else {
            return Err(LogicError::NotDerivable(
                "A38 needs a threshold compound subject".into(),
            ));
        };
        if signers.len() < *m {
            return Err(LogicError::NotDerivable(format!(
                "threshold not met: need {m} signers, got {}",
                signers.len()
            )));
        }
        // Every signer must be a distinct member with its bound key.
        let mut matched: Vec<&Subject> = Vec::new();
        for (principal, key, _) in &signers {
            let member = members.iter().find(|member| {
                member.principal_id() == Some(principal)
                    && member.binding_key().is_none_or(|k| k == key)
            });
            let Some(member) = member else {
                return Err(LogicError::NotDerivable(format!(
                    "{principal} (key {key}) is not a member of the threshold subject"
                )));
            };
            if matched.contains(&member) {
                return Err(LogicError::NotDerivable(format!(
                    "duplicate signer {principal}"
                )));
            }
            matched.push(member);
        }
        let mut premises = vec![Arc::clone(&membership.derivation)];
        premises.extend(signers.into_iter().map(|(_, _, d)| d));
        let conclusion = Formula::group_says(group.clone(), t, payload.clone());
        self.count_axiom();
        Ok(Derivation::by_axiom(conclusion, Axiom::A38, premises).share())
    }

    /// Applies A36/A37 to conclude `G says_t X` from a believed compound
    /// membership (`CP ⇒ G` or `CP|K ⇒ G`) and a statement jointly signed
    /// under the compound's shared key.
    ///
    /// This is the paper's "alternate mechanism" (§2.2): "attribute
    /// certificates issued to a group of users that own a shared public key
    /// can also be devised. Such alternate mechanisms … can be supported by
    /// our logic."
    ///
    /// # Errors
    ///
    /// [`LogicError::NotDerivable`] if the subject/key shapes don't match.
    #[allow(clippy::too_many_arguments)] // mirrors the axiom's premise list
    pub fn apply_a36_a37(
        &mut self,
        membership: &Belief,
        subject: &Subject,
        group: &GroupId,
        t: Time,
        payload: &Message,
        joint_statement: &Arc<Derivation>,
        statement_key: Option<&KeyId>,
    ) -> Result<Arc<Derivation>, LogicError> {
        let axiom = match subject {
            Subject::Compound(_) => Axiom::A36,
            Subject::Bound(inner, bound_key) if matches!(**inner, Subject::Compound(_)) => {
                // A37 requires the signature to be under the bound key.
                if statement_key != Some(bound_key) {
                    return Err(LogicError::NotDerivable(format!(
                        "membership is selectively bound to {bound_key}, statement signed with {}",
                        statement_key.map_or("nothing".to_string(), ToString::to_string)
                    )));
                }
                Axiom::A37
            }
            _ => {
                return Err(LogicError::NotDerivable(
                    "A36/A37 need a compound (optionally key-bound) subject".into(),
                ))
            }
        };
        let conclusion = Formula::group_says(group.clone(), t, payload.clone());
        self.count_axiom();
        Ok(Derivation::by_axiom(
            conclusion,
            axiom,
            vec![
                Arc::clone(&membership.derivation),
                Arc::clone(joint_statement),
            ],
        )
        .share())
    }

    /// Authenticates a statement *jointly signed under a shared key* whose
    /// ownership is a trust assumption (e.g. a user group's shared key
    /// registered alongside the AA's). Concludes `CP says_t ⟨X⟩_{K⁻¹}`.
    ///
    /// # Errors
    ///
    /// [`LogicError::MalformedMessage`] / [`LogicError::NoJurisdiction`] as
    /// for `Engine::authenticate_signed_statement`.
    pub fn authenticate_joint_statement(
        &mut self,
        signed: &Message,
        t: Time,
    ) -> Result<(Subject, KeyId, Arc<Derivation>), LogicError> {
        let (_payload, key) = signed
            .as_signed()
            .ok_or_else(|| LogicError::MalformedMessage("statement not signed".into()))?;
        let key = key.clone();
        let owners = self.assumptions.owners_of(&key);
        let owner = owners
            .iter()
            .find(|s| matches!(s, Subject::Compound(_) | Subject::Threshold { .. }))
            .or_else(|| owners.first())
            .cloned()
            .ok_or_else(|| {
                LogicError::NoJurisdiction(format!("no ownership assumption for {key}"))
            })?;
        let ownership = Formula::key_speaks_for(
            key.clone(),
            TimeRef::Closed(self.assumptions.t_star, Time::INFINITY),
            owner.clone(),
        );
        let ownership_node = Derivation::leaf(
            ownership,
            Rule::InitialBelief(format!("key ownership of {key}")),
        )
        .share();
        let received = Formula::received(self.observer(), self.now, signed.clone());
        let received_node =
            Derivation::leaf(received, Rule::Received("joint signed request".into())).share();
        let says = Formula::says(owner.clone(), t, signed.clone());
        self.count_axiom();
        let node =
            Derivation::by_axiom(says, Axiom::A10, vec![ownership_node, received_node]).share();
        Ok((owner, key, node))
    }

    /// Authenticates one signed request component (Message 1-4): applies
    /// A10 with the *believed* signer key from step 1, concluding
    /// `P believes (Pᵢ says_{tᵢ} ⟨X⟩_{Kᵢ⁻¹})` (paper statements 23–24).
    ///
    /// # Errors
    ///
    /// * [`LogicError::MalformedMessage`] if `signed` is not a signature.
    /// * [`LogicError::NoJurisdiction`] if no valid key belief covers the
    ///   signing key at `t`.
    pub(crate) fn authenticate_signed_statement(
        &mut self,
        signed: &Message,
        t: Time,
    ) -> Result<(PrincipalId, KeyId, Arc<Derivation>), LogicError> {
        let (_payload, key) = signed
            .as_signed()
            .ok_or_else(|| LogicError::MalformedMessage("request component not signed".into()))?;
        let key = key.clone();
        let (owner, key_belief) = self
            .key_belief_at(&key, t)
            .ok_or_else(|| {
                LogicError::NoJurisdiction(format!(
                    "no valid key belief for {key} at {t} (missing, expired, or revoked)"
                ))
            })
            .map(|(s, b)| (s.clone(), b.clone()))?;
        let principal = owner.principal_id().cloned().ok_or_else(|| {
            LogicError::NoJurisdiction(format!("key {key} is not bound to a single principal"))
        })?;
        let received = Formula::received(self.observer(), self.now, signed.clone());
        let received_node =
            Derivation::leaf(received, Rule::Received("signed request".into())).share();
        let says = Formula::says(owner.clone(), t, signed.clone());
        self.count_axiom();
        let node =
            Derivation::by_axiom(says, Axiom::A10, vec![key_belief.derivation, received_node])
                .share();
        Ok((principal, key, node))
    }
}

/// Every principal name appearing anywhere in a subject — the keys the
/// signer-directed membership index files the subject under.
fn named_principals(subject: &Subject) -> Vec<PrincipalId> {
    fn walk(subject: &Subject, out: &mut Vec<PrincipalId>) {
        match subject {
            Subject::Principal(p) => {
                if !out.contains(p) {
                    out.push(p.clone());
                }
            }
            Subject::Compound(members) | Subject::Threshold { members, .. } => {
                for m in members {
                    walk(m, out);
                }
            }
            Subject::Bound(inner, _) => walk(inner, out),
        }
    }
    let mut out = Vec::new();
    walk(subject, &mut out);
    out
}

/// Structural equality modulo degenerate 1-of-1 thresholds: `{S}_{1,1}`
/// requires exactly the signature `S` requires, so a revocation naming
/// either form strikes the other.
fn subjects_equivalent(a: &Subject, b: &Subject) -> bool {
    if a == b {
        return true;
    }
    match (a, b) {
        (Subject::Threshold { members, m: 1 }, other)
        | (other, Subject::Threshold { members, m: 1 })
            if members.len() == 1 =>
        {
            subjects_equivalent(&members[0], other)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certs::{Certs, Validity};

    fn ca_key() -> KeyId {
        KeyId::new("K_CA1")
    }

    fn aa_key() -> KeyId {
        KeyId::new("K_AA")
    }

    fn domains_cp() -> Subject {
        Subject::threshold(
            vec![
                Subject::principal("D1"),
                Subject::principal("D2"),
                Subject::principal("D3"),
            ],
            3,
        )
    }

    fn assumptions() -> TrustAssumptions {
        let mut a = TrustAssumptions::new(Time(0));
        a.own_key(ca_key(), Subject::principal("CA1"));
        a.own_key(aa_key(), domains_cp());
        a.own_key(aa_key(), Subject::principal("AA"));
        a.identity_authority("CA1");
        a.group_authority("AA");
        a.revocation_authority("RA", "AA");
        a
    }

    fn engine_at(t: i64) -> Engine {
        let mut e = Engine::new("P", assumptions());
        e.advance_clock(Time(t)).expect("clock");
        e
    }

    fn id_cert() -> Message {
        Certs::identity(
            "CA1",
            ca_key(),
            KeyId::new("K_u1"),
            "User_D1",
            Time(5),
            Validity::new(Time(0), Time(100)),
        )
    }

    fn users_cp() -> Subject {
        Subject::threshold(
            vec![
                Subject::principal("User_D1").bound(KeyId::new("K_u1")),
                Subject::principal("User_D2").bound(KeyId::new("K_u2")),
                Subject::principal("User_D3").bound(KeyId::new("K_u3")),
            ],
            2,
        )
    }

    fn threshold_ac() -> Message {
        Certs::threshold_attribute(
            "AA",
            aa_key(),
            users_cp(),
            GroupId::new("G_write"),
            Time(6),
            Validity::new(Time(0), Time(100)),
        )
    }

    #[test]
    fn identity_certificate_yields_key_belief() {
        let mut e = engine_at(10);
        let d = e.admit_certificate(&id_cert()).expect("admit");
        assert!(d.axioms_used().contains(&Axiom::A10));
        assert!(d.axioms_used().contains(&Axiom::A22));
        assert!(d.axioms_used().contains(&Axiom::A9));
        let (owner, _) = e
            .key_belief_at(&KeyId::new("K_u1"), Time(10))
            .expect("belief");
        assert_eq!(owner, &Subject::principal("User_D1"));
        // Outside the validity window the belief does not apply.
        assert!(e.key_belief_at(&KeyId::new("K_u1"), Time(101)).is_none());
    }

    #[test]
    fn threshold_ac_yields_membership_belief_via_a23_a28() {
        let mut e = engine_at(10);
        let d = e.admit_certificate(&threshold_ac()).expect("admit");
        let used = d.axioms_used();
        assert!(used.contains(&Axiom::A23), "multi-principal jurisdiction");
        assert!(
            used.contains(&Axiom::A28),
            "threshold membership jurisdiction"
        );
        let (subject, _) = e
            .membership_belief_at(&GroupId::new("G_write"), Time(10))
            .expect("belief");
        assert_eq!(subject.required_signers(), 2);
    }

    #[test]
    fn unknown_signing_key_rejected() {
        let mut e = engine_at(10);
        let bogus = Certs::identity(
            "CA1",
            KeyId::new("K_unknown"),
            KeyId::new("K_u1"),
            "User_D1",
            Time(5),
            Validity::new(Time(0), Time(100)),
        );
        assert!(matches!(
            e.admit_certificate(&bogus),
            Err(LogicError::NoJurisdiction(_))
        ));
    }

    #[test]
    fn issuer_without_jurisdiction_rejected() {
        let mut e = engine_at(10);
        // CA1's key signing a *group membership* statement: CA1 has no
        // group jurisdiction.
        let bad = Certs::attribute(
            "CA1",
            ca_key(),
            Subject::principal("User_D1").bound(KeyId::new("K_u1")),
            GroupId::new("G_write"),
            Time(5),
            Validity::new(Time(0), Time(100)),
        );
        assert!(matches!(
            e.admit_certificate(&bad),
            Err(LogicError::NoJurisdiction(_))
        ));
    }

    #[test]
    fn future_timestamp_rejected() {
        let mut e = engine_at(3);
        assert!(matches!(
            e.admit_certificate(&id_cert()), // issued at t5 > now t3
            Err(LogicError::Stale(_))
        ));
    }

    #[test]
    fn freshness_window_enforced() {
        let mut e = engine_at(100);
        e.set_freshness_window(10);
        assert!(matches!(
            e.admit_certificate(&id_cert()), // issued t5, now t100, window 10
            Err(LogicError::Stale(_))
        ));
    }

    #[test]
    fn revocation_from_ra_blocks_membership() {
        let mut e = engine_at(10);
        e.admit_certificate(&threshold_ac()).expect("admit");
        assert!(e
            .membership_belief_at(&GroupId::new("G_write"), Time(10))
            .is_some());
        let rev = Certs::attribute_revocation(
            "RA",
            KeyId::new("K_RA"),
            users_cp(),
            GroupId::new("G_write"),
            Time(12),
            Time(12),
        );
        // RA's key must be known.
        let mut a2 = assumptions();
        a2.own_key(KeyId::new("K_RA"), Subject::principal("RA"));
        let mut e = Engine::new("P", a2);
        e.advance_clock(Time(10)).expect("clock");
        e.admit_certificate(&threshold_ac()).expect("admit");
        e.advance_clock(Time(12)).expect("clock");
        e.admit_certificate(&rev).expect("revocation");
        // Believe-until-revoked: valid before t12, gone from t12 on.
        assert!(e
            .membership_belief_at(&GroupId::new("G_write"), Time(11))
            .is_some());
        assert!(e
            .membership_belief_at(&GroupId::new("G_write"), Time(12))
            .is_none());
        assert!(e
            .membership_belief_at(&GroupId::new("G_write"), Time(50))
            .is_none());
    }

    #[test]
    fn singleton_threshold_revocation_strikes_bound_membership() {
        // CRL entries arrive as {P|K}_{1,1} on the wire even when the
        // grant was a single-subject certificate P|K ⇒ G; the revocation
        // must strike the bound form all the same.
        let mut a = assumptions();
        a.own_key(KeyId::new("K_RA"), Subject::principal("RA"));
        let mut e = Engine::new("P", a);
        e.advance_clock(Time(10)).expect("clock");
        let bound = Subject::principal("User_D1").bound(KeyId::new("K_u1"));
        let ac = Certs::attribute(
            "AA",
            aa_key(),
            bound.clone(),
            GroupId::new("G_read"),
            Time(6),
            Validity::new(Time(0), Time(100)),
        );
        e.admit_certificate(&ac).expect("admit");
        assert!(e
            .membership_belief_at(&GroupId::new("G_read"), Time(10))
            .is_some());
        e.advance_clock(Time(12)).expect("clock");
        let rev = Certs::attribute_revocation(
            "RA",
            KeyId::new("K_RA"),
            Subject::threshold(vec![bound.clone()], 1),
            GroupId::new("G_read"),
            Time(12),
            Time(12),
        );
        e.admit_certificate(&rev).expect("revocation");
        assert!(e.is_membership_revoked(&bound, &GroupId::new("G_read"), Time(12)));
        assert!(e
            .membership_belief_at(&GroupId::new("G_read"), Time(11))
            .is_some());
        assert!(e
            .membership_belief_at(&GroupId::new("G_read"), Time(12))
            .is_none());
    }

    #[test]
    fn identity_revocation_blocks_key_belief() {
        let mut a = assumptions();
        a.revocation_authority("CA1", "CA1"); // CA revokes its own certs
        let mut e = Engine::new("P", a);
        e.advance_clock(Time(10)).expect("clock");
        e.admit_certificate(&id_cert()).expect("admit");
        let rev = Certs::identity_revocation(
            "CA1",
            ca_key(),
            KeyId::new("K_u1"),
            "User_D1",
            Time(15),
            Time(15),
        );
        e.advance_clock(Time(15)).expect("clock");
        e.admit_certificate(&rev).expect("revocation");
        assert!(e.key_belief_at(&KeyId::new("K_u1"), Time(14)).is_some());
        assert!(e.key_belief_at(&KeyId::new("K_u1"), Time(15)).is_none());
    }

    #[test]
    fn a38_requires_threshold_and_distinct_members() {
        let mut e = engine_at(10);
        e.admit_certificate(&id_cert()).expect("admit id");
        e.admit_certificate(&threshold_ac()).expect("admit ac");
        let group = GroupId::new("G_write");
        let (subject, belief) = e
            .membership_belief_at(&group, Time(10))
            .map(|(s, b)| (s.clone(), b.clone()))
            .expect("membership");
        let payload = Message::data("write O");

        // One signer < threshold 2.
        let d1 = Derivation::leaf(
            Formula::says(Subject::principal("User_D1"), Time(10), payload.clone()),
            Rule::Received("sig".into()),
        )
        .share();
        let err = e.apply_a38(
            &belief,
            &subject,
            &group,
            Time(10),
            &payload,
            vec![(PrincipalId::new("User_D1"), KeyId::new("K_u1"), d1.clone())],
        );
        assert!(matches!(err, Err(LogicError::NotDerivable(_))));

        // Two distinct members meet the threshold.
        let d2 = Derivation::leaf(
            Formula::says(Subject::principal("User_D2"), Time(10), payload.clone()),
            Rule::Received("sig".into()),
        )
        .share();
        let ok = e
            .apply_a38(
                &belief,
                &subject,
                &group,
                Time(10),
                &payload,
                vec![
                    (PrincipalId::new("User_D1"), KeyId::new("K_u1"), d1.clone()),
                    (PrincipalId::new("User_D2"), KeyId::new("K_u2"), d2),
                ],
            )
            .expect("a38");
        assert!(matches!(ok.conclusion, Formula::GroupSays(_, _, _)));

        // Duplicate signers rejected.
        let err = e.apply_a38(
            &belief,
            &subject,
            &group,
            Time(10),
            &payload,
            vec![
                (PrincipalId::new("User_D1"), KeyId::new("K_u1"), d1.clone()),
                (PrincipalId::new("User_D1"), KeyId::new("K_u1"), d1.clone()),
            ],
        );
        assert!(matches!(err, Err(LogicError::NotDerivable(_))));

        // Wrong key for a member rejected.
        let err = e.apply_a38(
            &belief,
            &subject,
            &group,
            Time(10),
            &payload,
            vec![
                (PrincipalId::new("User_D1"), KeyId::new("K_u2"), d1.clone()),
                (PrincipalId::new("User_D2"), KeyId::new("K_u2"), d1),
            ],
        );
        assert!(matches!(err, Err(LogicError::NotDerivable(_))));
    }

    #[test]
    fn authenticate_signed_statement_uses_step1_beliefs() {
        let mut e = engine_at(10);
        e.admit_certificate(&id_cert()).expect("admit");
        let signed = Message::formula(Formula::says(
            Subject::principal("User_D1"),
            Time(10),
            Message::data("write O"),
        ))
        .signed(KeyId::new("K_u1"));
        let (principal, key, node) = e
            .authenticate_signed_statement(&signed, Time(10))
            .expect("auth");
        assert_eq!(principal.as_str(), "User_D1");
        assert_eq!(key.as_str(), "K_u1");
        assert!(node.axioms_used().contains(&Axiom::A10));

        // Unknown key fails.
        let bad = Message::data("x").signed(KeyId::new("K_unknown"));
        assert!(matches!(
            e.authenticate_signed_statement(&bad, Time(10)),
            Err(LogicError::NoJurisdiction(_))
        ));
    }

    #[test]
    fn a37_compound_shared_key_flow() {
        // The "alternate mechanism": AA certifies CP|K_cp ⇒ G_write where
        // K_cp is a shared key owned by the user group; one joint signature
        // authorizes the group statement.
        let cp = Subject::compound(vec![
            Subject::principal("User_D1"),
            Subject::principal("User_D2"),
            Subject::principal("User_D3"),
        ]);
        let k_cp = KeyId::new("K_cp");
        let mut a = assumptions();
        a.own_key(k_cp.clone(), cp.clone());
        let mut e = Engine::new("P", a);
        e.advance_clock(Time(10)).expect("clock");

        let bound = cp.clone().bound(k_cp.clone());
        let ac = Certs::attribute(
            "AA",
            aa_key(),
            bound.clone(),
            GroupId::new("G_write"),
            Time(6),
            Validity::new(Time(0), Time(100)),
        );
        let cert_derivation = e.admit_certificate(&ac).expect("admit");
        assert!(cert_derivation.axioms_used().contains(&Axiom::A27));

        let group = GroupId::new("G_write");
        let (subject, belief) = e
            .membership_belief_at(&group, Time(10))
            .map(|(s, b)| (s.clone(), b.clone()))
            .expect("membership");
        assert_eq!(subject, bound);

        // The jointly signed request.
        let payload = Message::data("write O");
        let signed = payload.clone().signed(k_cp.clone());
        let (owner, key, stmt) = e
            .authenticate_joint_statement(&signed, Time(10))
            .expect("joint statement");
        assert_eq!(owner, cp);
        let d = e
            .apply_a36_a37(
                &belief,
                &subject,
                &group,
                Time(10),
                &payload,
                &stmt,
                Some(&key),
            )
            .expect("a37");
        assert!(d.axioms_used().contains(&Axiom::A37));
        assert!(matches!(d.conclusion, Formula::GroupSays(_, _, _)));

        // A wrong key is refused.
        let err = e.apply_a36_a37(
            &belief,
            &subject,
            &group,
            Time(10),
            &payload,
            &stmt,
            Some(&KeyId::new("K_other")),
        );
        assert!(matches!(err, Err(LogicError::NotDerivable(_))));
    }

    #[test]
    fn a36_plain_compound_flow() {
        let cp = Subject::compound(vec![Subject::principal("D1"), Subject::principal("D2")]);
        let k_cp = KeyId::new("K_cp2");
        let mut a = assumptions();
        a.own_key(k_cp.clone(), cp.clone());
        let mut e = Engine::new("P", a);
        e.advance_clock(Time(10)).expect("clock");
        let ac = Certs::attribute(
            "AA",
            aa_key(),
            cp.clone(),
            GroupId::new("G_read"),
            Time(6),
            Validity::new(Time(0), Time(100)),
        );
        e.admit_certificate(&ac).expect("admit");
        let group = GroupId::new("G_read");
        let (subject, belief) = e
            .membership_belief_at(&group, Time(10))
            .map(|(s, b)| (s.clone(), b.clone()))
            .expect("membership");
        let payload = Message::data("read O");
        let signed = payload.clone().signed(k_cp);
        let (_, _, stmt) = e
            .authenticate_joint_statement(&signed, Time(10))
            .expect("joint");
        let d = e
            .apply_a36_a37(&belief, &subject, &group, Time(10), &payload, &stmt, None)
            .expect("a36");
        assert!(d.axioms_used().contains(&Axiom::A36));
    }

    #[test]
    fn a36_a37_reject_non_compounds() {
        let mut e = engine_at(10);
        e.admit_certificate(&id_cert()).expect("admit");
        let belief = Belief {
            derivation: Derivation::leaf(Formula::Prop("x".into()), Rule::Received("x".into()))
                .share(),
        };
        let err = e.apply_a36_a37(
            &belief,
            &Subject::principal("U"),
            &GroupId::new("G"),
            Time(10),
            &Message::data("m"),
            &belief.derivation.clone(),
            None,
        );
        assert!(matches!(err, Err(LogicError::NotDerivable(_))));
    }

    #[test]
    fn axiom_counter_increments() {
        let mut e = engine_at(10);
        assert_eq!(e.axiom_applications(), 0);
        e.admit_certificate(&id_cert()).expect("admit");
        assert!(e.axiom_applications() >= 4); // A10, A22 (ts), A9, A22 (content), A9
    }

    #[test]
    fn state_version_covers_epoch_and_clock() {
        let mut e = engine_at(10);
        let v0 = e.state_version();
        // A clock move advances the state version but not the epoch.
        e.advance_clock(Time(11)).expect("clock");
        assert_eq!(e.epoch(), 0);
        assert!(e.state_version() > v0);
        // A no-op advance changes nothing.
        let v1 = e.state_version();
        e.advance_clock(Time(11)).expect("clock");
        assert_eq!(e.state_version(), v1);
        // An epoch bump (new belief) advances it too.
        e.admit_certificate(&id_cert()).expect("admit");
        assert!(e.epoch() > 0);
        assert!(e.state_version() > v1);
        // Re-admitting a known body bumps neither.
        let v2 = e.state_version();
        e.admit_certificate(&id_cert()).expect("admit");
        assert_eq!(e.state_version(), v2);
    }

    #[test]
    fn clock_regression_is_rejected() {
        let mut e = engine_at(10);
        let err = e.advance_clock(Time(5));
        assert!(matches!(err, Err(LogicError::ClockRegression(_))));
        assert_eq!(e.now(), Time(10), "a rejected advance leaves time alone");
        e.advance_clock(Time(10)).expect("equal time is allowed");
        e.advance_clock(Time(11)).expect("forward is allowed");
    }

    #[test]
    fn invalidate_derived_state_bumps_epoch() {
        let mut e = engine_at(10);
        let before = e.epoch();
        e.invalidate_derived_state();
        assert!(e.epoch() > before);
    }
}
