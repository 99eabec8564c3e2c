//! Formulas of the logic (paper Appendix A, rules F1–F22).
//!
//! The [`Subject`] type already folds the paper's many syntactic cases into
//! one: `P`, `P|K`, `CP`, `CP|K` and `CP_{m,n}` are all subjects, so the
//! formula constructors below cover F4–F18 without duplication. Ground
//! formulas carry concrete times; quantified initial beliefs are engine-side
//! schemas (see crate docs).

use core::fmt;
use std::sync::Arc;

use super::{GroupId, KeyId, Message, PrincipalId, Subject, Time, TimeRef};

/// A formula of the logic.
///
/// Subterms are held behind [`Arc`] so that cloning a formula — which the
/// engine does constantly when assembling [`Derivation`](crate::Derivation)
/// proof steps — is a shallow reference-count bump, never a deep tree copy.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Formula {
    /// F1: a primitive proposition.
    Prop(String),
    /// F2: negation.
    Not(Arc<Formula>),
    /// F2: conjunction.
    And(Arc<Formula>, Arc<Formula>),
    /// Material implication (definable from F2; primitive here because the
    /// axioms are implications and modus ponens needs them first-class).
    Implies(Arc<Formula>, Arc<Formula>),
    /// F3: time comparison `t1 <= t2`.
    TimeLe(Time, Time),
    /// F4/F5: `S believes_T φ`.
    Believes(Subject, TimeRef, Arc<Formula>),
    /// F4/F5: `S controls_T φ`.
    Controls(Subject, TimeRef, Arc<Formula>),
    /// F6/F7: `S says_T X`.
    Says(Subject, TimeRef, Message),
    /// F6/F7: `S said_T X`.
    Said(Subject, TimeRef, Message),
    /// F6/F7: `S received_T X`.
    Received(Subject, TimeRef, Message),
    /// F8–F10: `K ⇒_T S` — the public key `K` speaks for `S`
    /// (`relative_to` is the observer on whose authority/clock the
    /// statement is indexed, e.g. `⇒_{[tb,te],CA1}`).
    KeySpeaksFor {
        /// The public key.
        key: KeyId,
        /// Temporal qualifier.
        when: TimeRef,
        /// Observer subscript, when present.
        relative_to: Option<PrincipalId>,
        /// The owner: a principal, compound, or threshold compound.
        subject: Subject,
    },
    /// F11: `S has_T K` (possession of a key).
    Has(Subject, TimeRef, KeyId),
    /// F12–F16: `S ⇒_T G` — the subject speaks for (is a member of) group
    /// `G`. `S` may be `P`, `P|K`, `CP`, `CP|K`, or `CP_{m,n}`.
    MemberOf {
        /// The member subject.
        subject: Subject,
        /// Temporal qualifier.
        when: TimeRef,
        /// Observer subscript, when present.
        relative_to: Option<PrincipalId>,
        /// The group.
        group: GroupId,
    },
    /// `G says_T X` — a group speaking (conclusion of axioms A34–A38).
    GroupSays(GroupId, TimeRef, Message),
    /// F17/F18: `fresh_{T,S} X`.
    Fresh {
        /// The observer judging freshness.
        observer: Subject,
        /// Temporal qualifier.
        when: TimeRef,
        /// The message judged fresh.
        msg: Message,
    },
    /// F19/F20: `φ at_S T` — presence of `φ` at subject `S` at time `T` on
    /// `S`'s clock.
    At(Arc<Formula>, Subject, TimeRef),
}

impl Formula {
    /// `¬φ`.
    #[must_use]
    #[allow(clippy::should_implement_trait)] // constructor, not an operator
    pub fn not(f: Formula) -> Formula {
        Formula::Not(Arc::new(f))
    }

    /// `φ ∧ ψ`.
    #[must_use]
    pub fn and(a: Formula, b: Formula) -> Formula {
        Formula::And(Arc::new(a), Arc::new(b))
    }

    /// `φ ⊃ ψ`.
    #[must_use]
    pub fn implies(a: Formula, b: Formula) -> Formula {
        Formula::Implies(Arc::new(a), Arc::new(b))
    }

    /// `S believes_T φ`.
    #[must_use]
    pub fn believes(s: Subject, when: impl Into<TimeRef>, f: Formula) -> Formula {
        Formula::Believes(s, when.into(), Arc::new(f))
    }

    /// `S controls_T φ`.
    #[must_use]
    pub fn controls(s: Subject, when: impl Into<TimeRef>, f: Formula) -> Formula {
        Formula::Controls(s, when.into(), Arc::new(f))
    }

    /// `S says_T X`.
    #[must_use]
    pub fn says(s: Subject, when: impl Into<TimeRef>, m: Message) -> Formula {
        Formula::Says(s, when.into(), m)
    }

    /// `S said_T X`.
    #[must_use]
    pub fn said(s: Subject, when: impl Into<TimeRef>, m: Message) -> Formula {
        Formula::Said(s, when.into(), m)
    }

    /// `S received_T X`.
    #[must_use]
    pub fn received(s: Subject, when: impl Into<TimeRef>, m: Message) -> Formula {
        Formula::Received(s, when.into(), m)
    }

    /// `K ⇒_T S` (no observer subscript).
    #[must_use]
    pub fn key_speaks_for(key: KeyId, when: impl Into<TimeRef>, subject: Subject) -> Formula {
        Formula::KeySpeaksFor {
            key,
            when: when.into(),
            relative_to: None,
            subject,
        }
    }

    /// `K ⇒_{T,R} S` (with observer subscript `R`).
    #[must_use]
    pub fn key_speaks_for_at(
        key: KeyId,
        when: impl Into<TimeRef>,
        relative_to: PrincipalId,
        subject: Subject,
    ) -> Formula {
        Formula::KeySpeaksFor {
            key,
            when: when.into(),
            relative_to: Some(relative_to),
            subject,
        }
    }

    /// `S ⇒_T G` (no observer subscript).
    #[must_use]
    pub fn member_of(subject: Subject, when: impl Into<TimeRef>, group: GroupId) -> Formula {
        Formula::MemberOf {
            subject,
            when: when.into(),
            relative_to: None,
            group,
        }
    }

    /// `S ⇒_{T,R} G` (with observer subscript `R`).
    #[must_use]
    pub fn member_of_at(
        subject: Subject,
        when: impl Into<TimeRef>,
        relative_to: PrincipalId,
        group: GroupId,
    ) -> Formula {
        Formula::MemberOf {
            subject,
            when: when.into(),
            relative_to: Some(relative_to),
            group,
        }
    }

    /// `G says_T X`.
    #[must_use]
    pub fn group_says(group: GroupId, when: impl Into<TimeRef>, m: Message) -> Formula {
        Formula::GroupSays(group, when.into(), m)
    }

    /// `φ at_S T`.
    #[must_use]
    pub fn at(f: Formula, place: Subject, when: impl Into<TimeRef>) -> Formula {
        Formula::At(Arc::new(f), place, when.into())
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::Prop(p) => write!(f, "{p}"),
            Formula::Not(inner) => write!(f, "¬{inner}"),
            Formula::And(a, b) => write!(f, "({a} ∧ {b})"),
            Formula::Implies(a, b) => write!(f, "({a} ⊃ {b})"),
            Formula::TimeLe(a, b) => write!(f, "{a} ≤ {b}"),
            Formula::Believes(s, t, inner) => write!(f, "{s} believes_{t} {inner}"),
            Formula::Controls(s, t, inner) => write!(f, "{s} controls_{t} {inner}"),
            Formula::Says(s, t, m) => write!(f, "{s} says_{t} {m}"),
            Formula::Said(s, t, m) => write!(f, "{s} said_{t} {m}"),
            Formula::Received(s, t, m) => write!(f, "{s} received_{t} {m}"),
            Formula::KeySpeaksFor {
                key,
                when,
                relative_to,
                subject,
            } => match relative_to {
                Some(r) => write!(f, "{key} ⇒_{{{when},{r}}} {subject}"),
                None => write!(f, "{key} ⇒_{when} {subject}"),
            },
            Formula::Has(s, t, k) => write!(f, "{s} has_{t} {k}"),
            Formula::MemberOf {
                subject,
                when,
                relative_to,
                group,
            } => match relative_to {
                Some(r) => write!(f, "{subject} ⇒_{{{when},{r}}} {group}"),
                None => write!(f, "{subject} ⇒_{when} {group}"),
            },
            Formula::GroupSays(g, t, m) => write!(f, "{g} says_{t} {m}"),
            Formula::Fresh {
                observer,
                when,
                msg,
            } => write!(f, "fresh_{{{when},{observer}}} {msg}"),
            Formula::At(inner, place, when) => write!(f, "({inner} at_{place} {when})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u1() -> Subject {
        Subject::principal("User_D1")
    }

    #[test]
    fn display_matches_paper_notation() {
        let f = Formula::says(u1(), Time(3), Message::data("write O"));
        assert_eq!(f.to_string(), "User_D1 says_t3 \"write O\"");

        let ksf = Formula::key_speaks_for_at(
            KeyId::new("K_u1"),
            TimeRef::Closed(Time(0), Time(9)),
            PrincipalId::new("CA1"),
            u1(),
        );
        assert_eq!(ksf.to_string(), "K_u1 ⇒_{[t0,t9],CA1} User_D1");

        let m = Formula::member_of(
            Subject::threshold(vec![u1(), Subject::principal("User_D2")], 2),
            Time(1),
            GroupId::new("G_write"),
        );
        assert_eq!(m.to_string(), "{User_D1, User_D2}_{2,2} ⇒_t1 G_write");
    }

    #[test]
    fn connective_display() {
        let a = Formula::Prop("a".into());
        let b = Formula::Prop("b".into());
        assert_eq!(Formula::and(a.clone(), b.clone()).to_string(), "(a ∧ b)");
        assert_eq!(Formula::implies(a.clone(), b).to_string(), "(a ⊃ b)");
        assert_eq!(Formula::not(a).to_string(), "¬a");
        assert_eq!(Formula::TimeLe(Time(1), Time(2)).to_string(), "t1 ≤ t2");
    }

    #[test]
    fn believes_nesting_displays() {
        let inner = Formula::group_says(GroupId::new("G_write"), Time(6), Message::data("write O"));
        let f = Formula::believes(Subject::principal("P"), Time(6), inner);
        assert_eq!(f.to_string(), "P believes_t6 G_write says_t6 \"write O\"");
    }

    #[test]
    fn formulas_hash_and_compare_structurally() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Formula::Prop("x".into()));
        assert!(set.contains(&Formula::Prop("x".into())));
        assert!(!set.contains(&Formula::Prop("y".into())));
    }
}
