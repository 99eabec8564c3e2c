//! Property test over randomly generated formulas: `parse(display(f)) ==
//! f` validates the `Display` implementations and the parser against each
//! other across the whole syntax (Appendix A), including the `Arc`-shared
//! recursive variants.

use jaap_core::syntax::{
    parse_formula, Formula, GroupId, KeyId, Message, PrincipalId, Subject, Time, TimeRef,
    Vocabulary,
};
use proptest::prelude::*;

fn arb_time() -> impl Strategy<Value = Time> {
    prop_oneof![(-50i64..50).prop_map(Time), Just(Time::INFINITY)]
}

fn arb_time_ref() -> impl Strategy<Value = TimeRef> {
    prop_oneof![
        arb_time().prop_map(TimeRef::At),
        (-50i64..0, 0i64..50).prop_map(|(a, b)| TimeRef::Closed(Time(a), Time(b))),
        (-50i64..0, 0i64..50).prop_map(|(a, b)| TimeRef::Within(Time(a), Time(b))),
    ]
}

fn ident() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9_]{0,6}"
}

fn arb_key() -> impl Strategy<Value = KeyId> {
    ident().prop_map(|s| KeyId::new(format!("K_{s}")))
}

fn arb_group() -> impl Strategy<Value = GroupId> {
    ident().prop_map(|s| GroupId::new(format!("G_{s}")))
}

fn arb_principal() -> impl Strategy<Value = PrincipalId> {
    ident().prop_map(PrincipalId::new)
}

fn arb_subject() -> impl Strategy<Value = Subject> {
    let leaf = prop_oneof![
        arb_principal().prop_map(Subject::Principal),
        (arb_principal(), arb_key()).prop_map(|(p, k)| Subject::Principal(p).bound(k)),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Subject::Compound),
            (proptest::collection::vec(inner, 1..4), 1usize..4).prop_map(|(members, m)| {
                let m = m.min(members.len());
                Subject::Threshold { members, m }
            }),
        ]
    })
}

fn arb_message() -> impl Strategy<Value = Message> {
    let leaf = prop_oneof![
        "[a-z][a-z0-9 ]{0,10}".prop_map(Message::Data),
        arb_principal().prop_map(Message::Name),
        any::<u32>().prop_map(|n| Message::Nonce(u64::from(n))),
        arb_time().prop_map(Message::TimeVal),
    ];
    leaf.prop_recursive(2, 10, 3, |inner| {
        prop_oneof![
            (inner.clone(), arb_key()).prop_map(|(m, k)| m.signed(k)),
            (inner.clone(), arb_key()).prop_map(|(m, k)| m.encrypted(k)),
            proptest::collection::vec(inner, 2..4).prop_map(Message::Tuple),
        ]
    })
}

fn arb_formula() -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        ident().prop_map(Formula::Prop),
        (arb_time(), arb_time()).prop_map(|(a, b)| Formula::TimeLe(a, b)),
        (arb_subject(), arb_time_ref(), arb_message()).prop_map(|(s, t, m)| Formula::Says(s, t, m)),
        (arb_subject(), arb_time_ref(), arb_message()).prop_map(|(s, t, m)| Formula::Said(s, t, m)),
        (arb_subject(), arb_time_ref(), arb_message())
            .prop_map(|(s, t, m)| Formula::Received(s, t, m)),
        (arb_subject(), arb_time_ref(), arb_key()).prop_map(|(s, t, k)| Formula::Has(s, t, k)),
        (
            arb_key(),
            arb_time_ref(),
            proptest::option::of(arb_principal()),
            arb_subject()
        )
            .prop_map(|(key, when, relative_to, subject)| Formula::KeySpeaksFor {
                key,
                when,
                relative_to,
                subject,
            }),
        (
            arb_subject(),
            arb_time_ref(),
            proptest::option::of(arb_principal()),
            arb_group()
        )
            .prop_map(|(subject, when, relative_to, group)| Formula::MemberOf {
                subject,
                when,
                relative_to,
                group,
            }),
        (arb_group(), arb_time_ref(), arb_message())
            .prop_map(|(g, t, m)| Formula::GroupSays(g, t, m)),
        (arb_subject(), arb_time_ref(), arb_message()).prop_map(|(observer, when, msg)| {
            Formula::Fresh {
                observer,
                when,
                msg,
            }
        }),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(Formula::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::implies(a, b)),
            (arb_subject(), arb_time_ref(), inner.clone())
                .prop_map(|(s, t, f)| Formula::believes(s, t, f)),
            (arb_subject(), arb_time_ref(), inner.clone())
                .prop_map(|(s, t, f)| Formula::controls(s, t, f)),
            (inner, arb_subject(), arb_time_ref()).prop_map(|(f, s, t)| Formula::at(f, s, t)),
        ]
    })
}

/// Formulas whose display is ambiguous with other sorts are excluded: a
/// group/principal name may not collide across sorts, and `Data` payloads
/// must not look like identifiers already used as names.
fn well_sorted(f: &Formula) -> bool {
    // Principal names starting with K_/G_ would be mis-sorted on re-parse;
    // the generators above never produce them, except via `ident()` for
    // principals ("K" alone is fine, "K_x" is not — filter).
    fn bad_name(p: &PrincipalId) -> bool {
        p.as_str().starts_with("K_")
            || p.as_str().starts_with("G_")
            || p.as_str() == "t"
            || (p.as_str().starts_with('t') && p.as_str()[1..].chars().all(|c| c.is_ascii_digit()))
    }
    fn check_subject(s: &Subject) -> bool {
        match s {
            Subject::Principal(p) => !bad_name(p),
            Subject::Compound(ms) | Subject::Threshold { members: ms, .. } => {
                ms.iter().all(check_subject)
            }
            Subject::Bound(inner, _) => check_subject(inner),
        }
    }
    fn check_message(m: &Message) -> bool {
        match m {
            Message::Name(p) => !bad_name(p),
            Message::Formula(f) => check(f),
            Message::Tuple(ps) => ps.iter().all(check_message),
            Message::Signed(inner, _) | Message::Encrypted(inner, _) => check_message(inner),
            _ => true,
        }
    }
    fn check(f: &Formula) -> bool {
        match f {
            Formula::Prop(p) => {
                !(p.starts_with("K_")
                    || p.starts_with("G_")
                    || (p.starts_with('t') && p[1..].chars().all(|c| c.is_ascii_digit())))
            }
            Formula::Not(a) => check(a),
            Formula::And(a, b) | Formula::Implies(a, b) => check(a) && check(b),
            Formula::TimeLe(_, _) => true,
            Formula::Believes(s, _, a) | Formula::Controls(s, _, a) => check_subject(s) && check(a),
            Formula::Says(s, _, m) | Formula::Said(s, _, m) | Formula::Received(s, _, m) => {
                check_subject(s) && check_message(m)
            }
            Formula::KeySpeaksFor {
                subject,
                relative_to,
                ..
            } => check_subject(subject) && relative_to.as_ref().is_none_or(|r| !bad_name(r)),
            Formula::Has(s, _, _) => check_subject(s),
            Formula::MemberOf {
                subject,
                relative_to,
                ..
            } => check_subject(subject) && relative_to.as_ref().is_none_or(|r| !bad_name(r)),
            Formula::GroupSays(_, _, m) => check_message(m),
            Formula::Fresh { observer, msg, .. } => check_subject(observer) && check_message(msg),
            Formula::At(a, s, _) => check(a) && check_subject(s),
        }
    }
    check(f)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn display_then_parse_is_identity(f in arb_formula().prop_filter("well-sorted", well_sorted)) {
        let text = f.to_string();
        let vocab = Vocabulary::from_formula(&f);
        match parse_formula(&text, &vocab) {
            Ok(parsed) => prop_assert_eq!(parsed, f, "text: {}", text),
            Err(e) => prop_assert!(false, "failed to parse {:?}: {}", text, e),
        }
    }
}
