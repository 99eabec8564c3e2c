//! Idealized time-stamped certificates (paper §4.2).
//!
//! A certificate is a signed message whose payload is a `says` formula:
//!
//! ```text
//! identity:            ⟨ CA says_tCA  (K_P ⇒ [tb,te] P) ⟩_{K_CA⁻¹}
//! identity revocation: ⟨ CA says_tCA ¬(K_P ⇒ t' P)      ⟩_{K_CA⁻¹}
//! attribute:           ⟨ AA says_tAA  (P|K_P ⇒ [tb,te] G) ⟩_{K_AA⁻¹}
//! threshold attribute: ⟨ AA says_tAA  (CP_{m,n} ⇒ [tb,te] G) ⟩_{K_AA⁻¹}
//! revocations:         same with ¬ and a point time t′
//! ```
//!
//! These are *logical* objects: byte-level certificates with real signatures
//! live in `jaap-pki`, which verifies them cryptographically and then hands
//! the engine exactly these idealizations.

use core::fmt;

use crate::syntax::{Formula, GroupId, KeyId, Message, PrincipalId, Subject, Time, TimeRef};

/// A certificate validity period `[tb, te]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Validity {
    /// Begin time `tb`.
    pub begin: Time,
    /// End time `te`.
    pub end: Time,
}

impl Validity {
    /// Creates a validity period.
    ///
    /// # Panics
    ///
    /// Panics if `begin > end`.
    #[must_use]
    pub fn new(begin: Time, end: Time) -> Self {
        assert!(begin <= end, "validity period out of order");
        Validity { begin, end }
    }

    /// `true` if `t` falls inside the period.
    #[must_use]
    pub fn contains(&self, t: Time) -> bool {
        self.begin <= t && t <= self.end
    }

    /// As a closed [`TimeRef`].
    #[must_use]
    pub fn time_ref(&self) -> TimeRef {
        TimeRef::Closed(self.begin, self.end)
    }
}

impl fmt::Display for Validity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{}]", self.begin, self.end)
    }
}

/// Constructors for idealized certificates.
#[derive(Debug)]
pub struct Certs;

impl Certs {
    /// Identity certificate: `⟨CA says_t (K ⇒ [tb,te] P)⟩_{K_CA⁻¹}`.
    #[must_use]
    pub fn identity(
        issuer: impl Into<PrincipalId>,
        issuer_key: KeyId,
        subject_key: KeyId,
        subject: impl Into<PrincipalId>,
        issued_at: Time,
        validity: Validity,
    ) -> Message {
        let issuer = issuer.into();
        let body = Formula::says(
            Subject::Principal(issuer.clone()),
            issued_at,
            Message::formula(Formula::key_speaks_for_at(
                subject_key,
                validity.time_ref(),
                issuer,
                Subject::Principal(subject.into()),
            )),
        );
        Message::formula(body).signed(issuer_key)
    }

    /// Identity revocation: `⟨CA says_t ¬(K ⇒ t' P)⟩_{K_CA⁻¹}`.
    #[must_use]
    pub fn identity_revocation(
        issuer: impl Into<PrincipalId>,
        issuer_key: KeyId,
        subject_key: KeyId,
        subject: impl Into<PrincipalId>,
        issued_at: Time,
        revoked_from: Time,
    ) -> Message {
        let issuer = issuer.into();
        let body = Formula::says(
            Subject::Principal(issuer.clone()),
            issued_at,
            Message::formula(Formula::not(Formula::key_speaks_for_at(
                subject_key,
                TimeRef::At(revoked_from),
                issuer,
                Subject::Principal(subject.into()),
            ))),
        );
        Message::formula(body).signed(issuer_key)
    }

    /// Attribute certificate for a single (key-bound) subject:
    /// `⟨AA says_t (P|K ⇒ [tb,te] G)⟩_{K_AA⁻¹}`.
    #[must_use]
    pub fn attribute(
        issuer: impl Into<PrincipalId>,
        issuer_key: KeyId,
        subject: Subject,
        group: GroupId,
        issued_at: Time,
        validity: Validity,
    ) -> Message {
        let issuer = issuer.into();
        let body = Formula::says(
            Subject::Principal(issuer.clone()),
            issued_at,
            Message::formula(Formula::member_of_at(
                subject,
                validity.time_ref(),
                issuer,
                group,
            )),
        );
        Message::formula(body).signed(issuer_key)
    }

    /// Threshold attribute certificate:
    /// `⟨AA says_t (CP_{m,n} ⇒ [tb,te] G)⟩_{K_AA⁻¹}`.
    ///
    /// # Panics
    ///
    /// Panics if `cp` is not a threshold compound.
    #[must_use]
    pub fn threshold_attribute(
        issuer: impl Into<PrincipalId>,
        issuer_key: KeyId,
        cp: Subject,
        group: GroupId,
        issued_at: Time,
        validity: Validity,
    ) -> Message {
        assert!(
            matches!(cp, Subject::Threshold { .. }),
            "threshold attribute certificates need a threshold compound subject"
        );
        Certs::attribute(issuer, issuer_key, cp, group, issued_at, validity)
    }

    /// Attribute revocation: `⟨AA says_t ¬(S ⇒ t' G)⟩_{K_AA⁻¹}`.
    #[must_use]
    pub fn attribute_revocation(
        issuer: impl Into<PrincipalId>,
        issuer_key: KeyId,
        subject: Subject,
        group: GroupId,
        issued_at: Time,
        revoked_from: Time,
    ) -> Message {
        let issuer = issuer.into();
        let body = Formula::says(
            Subject::Principal(issuer.clone()),
            issued_at,
            Message::formula(Formula::not(Formula::member_of_at(
                subject,
                TimeRef::At(revoked_from),
                issuer,
                group,
            ))),
        );
        Message::formula(body).signed(issuer_key)
    }
}

/// A decomposed view of an idealized certificate, as the engine consumes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertView {
    /// `K ⇒ [tb,te] P` asserted by `issuer` at `issued_at`.
    Identity {
        /// Issuing authority.
        issuer: PrincipalId,
        /// Key the certificate was signed with.
        signing_key: KeyId,
        /// Issuance timestamp.
        issued_at: Time,
        /// The certified key.
        subject_key: KeyId,
        /// The certified owner.
        subject: Subject,
        /// Validity window.
        when: TimeRef,
        /// `true` for a revocation (`¬`).
        negated: bool,
    },
    /// `S ⇒ [tb,te] G` asserted by `issuer` at `issued_at`.
    Attribute {
        /// Issuing authority.
        issuer: PrincipalId,
        /// Key the certificate was signed with.
        signing_key: KeyId,
        /// Issuance timestamp.
        issued_at: Time,
        /// The member subject (single, bound, compound, or threshold).
        subject: Subject,
        /// The group.
        group: GroupId,
        /// Validity window.
        when: TimeRef,
        /// `true` for a revocation (`¬`).
        negated: bool,
    },
}

impl CertView {
    /// Parses an idealized certificate message.
    ///
    /// Returns `None` if the message is not of the certificate shape
    /// (signed `says` of a speaks-for formula, possibly negated).
    #[must_use]
    pub fn parse(msg: &Message) -> Option<CertView> {
        let (payload, signing_key) = msg.as_signed()?;
        let Formula::Says(issuer_subject, TimeRef::At(issued_at), inner_msg) =
            payload.as_formula()?
        else {
            return None;
        };
        let issuer = issuer_subject.principal_id()?.clone();
        let mut body = inner_msg.as_formula()?;
        let mut negated = false;
        if let Formula::Not(inner) = body {
            negated = true;
            body = inner;
        }
        match body {
            Formula::KeySpeaksFor {
                key, when, subject, ..
            } => Some(CertView::Identity {
                issuer,
                signing_key: signing_key.clone(),
                issued_at: *issued_at,
                subject_key: key.clone(),
                subject: subject.clone(),
                when: *when,
                negated,
            }),
            Formula::MemberOf {
                subject,
                when,
                group,
                ..
            } => Some(CertView::Attribute {
                issuer,
                signing_key: signing_key.clone(),
                issued_at: *issued_at,
                subject: subject.clone(),
                group: group.clone(),
                when: *when,
                negated,
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn users_2_of_3() -> Subject {
        Subject::threshold(
            vec![
                Subject::principal("User_D1").bound(KeyId::new("K_u1")),
                Subject::principal("User_D2").bound(KeyId::new("K_u2")),
                Subject::principal("User_D3").bound(KeyId::new("K_u3")),
            ],
            2,
        )
    }

    #[test]
    fn identity_certificate_roundtrips_through_view() {
        let cert = Certs::identity(
            "CA1",
            KeyId::new("K_CA1"),
            KeyId::new("K_u1"),
            "User_D1",
            Time(5),
            Validity::new(Time(0), Time(100)),
        );
        let view = CertView::parse(&cert).expect("parse");
        let CertView::Identity {
            issuer,
            signing_key,
            issued_at,
            subject_key,
            subject,
            when,
            negated,
        } = view
        else {
            panic!("expected identity view");
        };
        assert_eq!(issuer.as_str(), "CA1");
        assert_eq!(signing_key, KeyId::new("K_CA1"));
        assert_eq!(issued_at, Time(5));
        assert_eq!(subject_key, KeyId::new("K_u1"));
        assert_eq!(subject, Subject::principal("User_D1"));
        assert_eq!(when, TimeRef::Closed(Time(0), Time(100)));
        assert!(!negated);
    }

    #[test]
    fn threshold_attribute_certificate_view() {
        let cert = Certs::threshold_attribute(
            "AA",
            KeyId::new("K_AA"),
            users_2_of_3(),
            GroupId::new("G_write"),
            Time(10),
            Validity::new(Time(0), Time(50)),
        );
        let CertView::Attribute {
            subject,
            group,
            negated,
            ..
        } = CertView::parse(&cert).expect("parse")
        else {
            panic!("expected attribute view");
        };
        assert_eq!(subject.required_signers(), 2);
        assert_eq!(group.as_str(), "G_write");
        assert!(!negated);
    }

    #[test]
    fn revocations_parse_as_negated() {
        let rev = Certs::attribute_revocation(
            "RA",
            KeyId::new("K_RA"),
            users_2_of_3(),
            GroupId::new("G_write"),
            Time(20),
            Time(20),
        );
        let CertView::Attribute {
            negated, issuer, ..
        } = CertView::parse(&rev).expect("parse")
        else {
            panic!("expected attribute view");
        };
        assert!(negated);
        assert_eq!(issuer.as_str(), "RA");

        let idrev = Certs::identity_revocation(
            "CA1",
            KeyId::new("K_CA1"),
            KeyId::new("K_u1"),
            "User_D1",
            Time(21),
            Time(21),
        );
        let CertView::Identity { negated, .. } = CertView::parse(&idrev).expect("parse") else {
            panic!("expected identity view");
        };
        assert!(negated);
    }

    #[test]
    fn non_certificates_do_not_parse() {
        assert!(CertView::parse(&Message::data("junk")).is_none());
        assert!(CertView::parse(&Message::data("junk").signed(KeyId::new("K"))).is_none());
        // A says of a non-speaks-for body is not a certificate.
        let not_cert = Message::formula(Formula::says(
            Subject::principal("CA"),
            Time(0),
            Message::data("hello"),
        ))
        .signed(KeyId::new("K_CA"));
        assert!(CertView::parse(&not_cert).is_none());
    }

    #[test]
    fn validity_behavior() {
        let v = Validity::new(Time(10), Time(20));
        assert!(v.contains(Time(10)));
        assert!(v.contains(Time(20)));
        assert!(!v.contains(Time(21)));
        assert_eq!(v.time_ref(), TimeRef::Closed(Time(10), Time(20)));
        assert_eq!(v.to_string(), "[t10,t20]");
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn invalid_validity_panics() {
        let _ = Validity::new(Time(5), Time(4));
    }

    #[test]
    #[should_panic(expected = "threshold compound")]
    fn threshold_cert_requires_threshold_subject() {
        let _ = Certs::threshold_attribute(
            "AA",
            KeyId::new("K_AA"),
            Subject::principal("U1"),
            GroupId::new("G"),
            Time(0),
            Validity::new(Time(0), Time(1)),
        );
    }

    #[test]
    fn certificate_display_matches_paper_shape() {
        let cert = Certs::identity(
            "CA1",
            KeyId::new("K_CA1"),
            KeyId::new("K_u1"),
            "User_D1",
            Time(5),
            Validity::new(Time(0), Time(9)),
        );
        let s = cert.to_string();
        assert!(s.contains("CA1 says_t5"));
        assert!(s.contains("K_u1 ⇒_{[t0,t9],CA1} User_D1"));
        assert!(s.ends_with("_{K_CA1⁻¹}"));
    }
}
